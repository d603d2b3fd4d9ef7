"""Traced stand-in for ``python -m qsd``: times ``import qsd``, runs the CLI
under the span tracer and writes the summary to ``$PERFBENCH_TRACE_OUT``.

Usage: ``PERFBENCH_TRACE_OUT=out.json python perfbench/cli_traced.py compute ...``
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import qsd.cli

    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = qsd.cli.main(sys.argv[1:])
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "summary": tracer.summary().to_dict()}, fh)
    sys.exit(code)

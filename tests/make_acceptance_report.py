"""Regenerate ``tests/data/acceptance_report.json``, the pinned table of the
200-trial acceptance report that ``test_criterion_10_end_to_end_verify``
compares against.

Run from the repository root::

    PYTHONPATH=src python tests/make_acceptance_report.py

A change that moves a record regenerates the table and names each move.
"""

import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "data" / "acceptance_report.json"
VERIFY_ARGS = ["verify", "--suite", "all", "--dims", "2,3,4,6", "--trials", "200", "--seed", "42"]
FIELDS = ("tol", "trials", "violations", "worst_slack", "worst_trial")


def table_of(report: dict) -> dict:
    """Each check's pinned fields, by check id, in report order."""
    return {c["check_id"]: {k: c[k] for k in FIELDS} for c in report["checks"]}


def main() -> int:
    from qsd.cli import main as cli_main

    out = TABLE.with_suffix(".tmp")
    code = cli_main([*VERIFY_ARGS, "--quiet", "--out", str(out)])
    report = json.loads(out.read_text())
    out.unlink()
    TABLE.write_text(json.dumps(table_of(report), indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

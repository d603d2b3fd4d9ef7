"""The public namespace: every exported name exists, is listed once and is
documented in README; importing the package loads no numpy module it does
not use, and a process that never verifies never loads the checks."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsd
from test_registry import REGISTRY_SHA256

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_unique_and_resolves():
    names = qsd.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(qsd, name)] == []


def test_every_exported_name_is_in_readme():
    # in backticks, alone or as the start of a call such as `evolve(rho, h, t)`
    text = README.read_text(encoding="utf-8")
    missing = [name for name in qsd.__all__ if not re.search(rf"`{name}[`(]", text)]
    assert missing == []


def test_every_readme_api_bullet_resolves():
    # each `- `name`` bullet under "## API" names an exported object, once
    text = README.read_text(encoding="utf-8")
    api = text.split("\n## API", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)", api, flags=re.M)
    assert sorted(bullets) == qsd.__all__


def test_every_readme_api_call_names_its_parameters():
    # a bullet that writes a call, such as `evolve(rho, hamiltonian, t)`,
    # names every parameter of the signature, in order; a written default
    # such as `delta2=None` is the signature's
    text = README.read_text(encoding="utf-8")
    api = text.split("\n## API", 1)[1].split("\n## ", 1)[0]
    wrong = []
    for name, args in re.findall(r"^- `(\w+)\(([^)]*)\)", api, flags=re.M):
        params = inspect.signature(getattr(qsd, name)).parameters
        written = [arg.strip().partition("=") for arg in args.split(",") if arg.strip()]
        defaults = all(repr(params[p].default) == d for p, eq, d in written if eq and p in params)
        if [p for p, _, _ in written] != list(params) or not defaults:
            wrong.append(f"{name}({args})")
    assert wrong == []


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout's ``qsd``."""
    src = Path(qsd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["numpy.random", "numpy.polynomial"])
def test_cli_import_leaves_numpy_submodules_to_numpy(module):
    # qsd reaches numpy.random only when it draws, and numpy.polynomial only
    # when it builds the quadrature rule: importing the CLI loads either one
    # only where a bare `import numpy` already does (numpy 1.x loads
    # numpy.random eagerly)
    code = (
        f"import sys, numpy; eager = {module!r} in sys.modules; "
        f"import qsd.cli; print(eager, {module!r} in sys.modules)"
    )
    eager, loaded = _fresh(code).split()
    assert loaded == eager


# Runs `python -m qsd compute --measure sd` in-process on the two state files
# named in argv, after `import qsd.cli`, and prints whether `qsd.checks` was
# loaded at each stage.
COLD_COMPUTE = """
import json, runpy, sys

import qsd.cli

after_import = "qsd.checks" in sys.modules
sys.argv = ["qsd", "compute", "--measure", "sd", "--alpha", "0.5", *sys.argv[1:]]
try:
    runpy.run_module("qsd", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
after_compute = "qsd.checks" in sys.modules
runner = sys.modules["qsd.verify"].run_suite is qsd.cli.run_suite
rows = [[c.check_id, c.label, c.suite, c.tol] for c in qsd.REGISTRY]
print(json.dumps([code, after_import, after_compute, runner, rows]))
"""


def test_compute_never_loads_the_checks(tmp_path):
    states = []
    for k, diag in enumerate(([0.75, 0.25], [0.5, 0.5])):
        path = tmp_path / f"state{k}.json"
        re_part = [[diag[0], 0.0], [0.0, diag[1]]]
        state = {"format": "qsd-state-v1", "dim": 2, "re": re_part, "im": [[0, 0], [0, 0]]}
        path.write_text(json.dumps(state))
        states.append(str(path))
    value, summary = _fresh(COLD_COMPUTE, *states).splitlines()
    code, after_import, after_compute, runner, rows = json.loads(summary)
    assert code == 0 and 0.0 < float(value) < 1.0
    assert not after_import and not after_compute
    # perfbench/tracer.py wraps the run_suite that qsd.cli calls
    assert runner
    assert len(rows) == 42
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == REGISTRY_SHA256


# Replaces divergences.trace_distance before the checks load, judges the
# Fuchs-van de Graaf check, then replaces it again after they loaded and
# judges once more: each judge must call the replacement of its moment.
PATCH_CONTRACT = """
import json, sys
import numpy as np
import qsd
import qsd.divergences as dv

original, calls = dv.trace_distance, []

def replacement(tag):
    def replaced(*args, **kwargs):
        calls.append(tag)
        return original(*args, **kwargs)
    return replaced

dv.trace_distance = replacement("before")
loaded_early = "qsd.checks" in sys.modules
check = next(c for c in qsd.REGISTRY if c.check_id == "div.fidelity_trace_distance")
stacks = check.draw([np.random.default_rng(0)], 3)
check.judge(*stacks)
dv.trace_distance = replacement("after")
check.judge(*stacks)
print(json.dumps([loaded_early, calls]))
"""


def test_checks_reach_library_functions_through_their_modules():
    loaded_early, calls = json.loads(_fresh(PATCH_CONTRACT))
    assert not loaded_early
    assert calls == ["before", "after"]

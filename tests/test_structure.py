"""Structural rules of the package: the harness reaches no private name of
``divergences``, ``frechet`` or ``ensembles``, passes no ``dv.``, ``fr.``,
``en.`` or ``la.`` function to ``_each`` or ``map`` (every public route
takes stacks), defines no per-trial draw or builder, builds no ensemble
through the validating constructor, no ``SeedSequence`` and no object
array; ``frechet.py`` makes no dense solve; and ``DensityMatrix`` has one
type test, its constructor's keep path. They run in tier-1, and CI's step
"The harness judges through the public API" runs this file. Each rule here
has a test that a violation planted in a copy of the package trips it."""

import ast
import re
import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsd"
HARNESS = ("verify.py", "checks.py")


def _grep(root: Path, files, pattern: str) -> list[str]:
    """Each line of ``files`` under ``root`` that ``pattern`` matches."""
    hits = []
    for name in files:
        for n, line in enumerate((root / name).read_text().splitlines(), 1):
            if re.search(pattern, line):
                hits.append(f"{name}:{n}: {line.strip()}")
    return hits


def private_names(root: Path) -> list[str]:
    return _grep(root, HARNESS, r"\b(dv|fr|en)\._")


def library_functions_per_trial(root: Path) -> list[str]:
    return _grep(root, HARNESS, r"\b(_each|map)\((partial\(|lambda[^:]*: *)?(dv|fr|en|la)\.")


def per_trial_draws(root: Path) -> list[str]:
    """Each draw (a function named ``_draw_*``) whose first parameter is not
    ``rngs``, the generators of a stack of trials."""
    hits = []
    for name in HARNESS:
        for node in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_draw_"):
                params = node.args.posonlyargs + node.args.args
                if not params or params[0].arg != "rngs":
                    hits.append(f"{name}:{node.lineno}: {node.name}")
    return hits


def per_trial_builders(root: Path) -> list[str]:
    """Each function or lambda whose first parameter is a single ``rng``: a
    builder composed by ``_draws`` is one, and has no ``_draw_`` name."""
    hits = []
    for name in HARNESS:
        for node in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                params = node.args.posonlyargs + node.args.args
                if params and params[0].arg == "rng":
                    hits.append(f"{name}:{node.lineno}: {getattr(node, 'name', 'lambda')}")
    return hits


def validating_ensembles(root: Path) -> list[str]:
    return _grep(root, ("checks.py",), r"en\.Ensemble\(")


def seed_sequences(root: Path) -> list[str]:
    return _grep(root, HARNESS, r"SeedSequence\(")


def object_arrays(root: Path) -> list[str]:
    return _grep(root, HARNESS, r"dtype\s*=\s*object\b")


def dense_solves(root: Path) -> list[str]:
    return _grep(root, ("frechet.py",), r"np\.linalg\.(solve|inv)\b")


def density_matrix_type_tests(root: Path) -> list[str]:
    """Each ``isinstance`` call of the package whose class argument names
    ``DensityMatrix``, however its lines break."""
    hits = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[-1])}
            if "DensityMatrix" in names:
                hits.append(f"{path.name}:{node.lineno}")
    return hits


# (rule, the most hits it allows, the file a planted violation goes in, the violation)
RULES = {
    "private-names": (private_names, 0, "checks.py", "x = dv._trace_distance\n"),
    "stack-native-per-trial": (
        library_functions_per_trial, 0, "checks.py", "x = map(fr.sd_by_averaging, a, b, c)\n",
    ),
    "per-trial-draw": (per_trial_draws, 0, "checks.py", "def _draw_one(rng, dim):\n    return ()\n"),
    "per-trial-builder": (
        per_trial_builders, 0, "checks.py",
        "def _one(rng, dim):\n    return rng.random()\n\n\n_ONE = _draws(_one)\n",
    ),
    "validating-ensemble": (
        validating_ensembles, 0, "checks.py", "x = en.Ensemble((1.0,), [np.eye(1)])\n",
    ),
    "seed-sequence": (seed_sequences, 0, "verify.py", "x = np.random.SeedSequence(0)\n"),
    "object-array": (object_arrays, 0, "checks.py", "x = np.empty(2, dtype=object)\n"),
    "dense-solve": (dense_solves, 0, "frechet.py", "x = np.linalg.inv\n"),
    "density-matrix-type-test": (
        density_matrix_type_tests, 1, "divergences.py",
        "def _typed(x):\n    return isinstance(\n        x, DensityMatrix\n    )\n",
    ),
}


@pytest.mark.parametrize("rule", RULES)
def test_package_keeps_the_rule(rule):
    check, allowed, _, _ = RULES[rule]
    hits = check(SRC)
    assert len(hits) <= allowed, hits


@pytest.mark.parametrize("rule", RULES)
def test_planted_violation_trips_the_rule(rule, tmp_path):
    check, allowed, target, violation = RULES[rule]
    root = tmp_path / "qsd"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    path = root / target
    path.write_text(path.read_text() + "\n\n" + violation)
    assert len(check(root)) > allowed

"""Regenerate ``tests/data/acceptance_report_seed<seed>.json``, the pinned
tables of the 200-trial acceptance report at seeds 42 and 7 that
``test_criterion_10_end_to_end_verify`` compares against.

Run from the repository root::

    PYTHONPATH=src python tests/make_acceptance_report.py
    PYTHONPATH=src python tests/make_acceptance_report.py --diff
    PYTHONPATH=src python tests/make_acceptance_report.py --seed 7 --diff

A change that moves a record regenerates the tables and names each move.
``--diff`` writes nothing: it prints each pinned field that a fresh run
changes, bit for bit, as ``old -> new`` with the delta, and exits 1 when one
does. ``--seed`` selects one table; the default is both. Criterion 10 of
``tests/test_acceptance.py`` runs the same comparison with its band.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
# the pinned table of each seed; 7 shows moves that 42 does not
TABLES = {seed: DATA / f"acceptance_report_seed{seed}.json" for seed in (42, 7)}
FIELDS = ("tol", "trials", "violations", "worst_slack", "worst_trial")


def table_of(report: dict) -> dict:
    """Each check's pinned fields, by check id, in report order."""
    return {c["check_id"]: {k: c[k] for k in FIELDS} for c in report["checks"]}


def diff_lines(
    pinned: dict, table: dict, band: float = 0.0, tie: float | None = None
) -> list[str]:
    """One line per check id or pinned field of ``pinned`` that ``table``
    does not reproduce, in pinned order after the missing and new ids.

    ``worst_slack`` may move by ``band`` (a non-finite slack is written as
    None and must stay None). With ``tie``, ``worst_trial`` is compared only
    where the pinned ``|worst_slack| > tie``, since below that a
    rounding-level tie may pick another trial on another BLAS. Every other
    field, and the order of the ids, must match bit for bit; so do all
    fields by default.
    """
    lines = [f"{check_id}: not in the new table" for check_id in pinned if check_id not in table]
    lines += [f"{check_id}: not pinned" for check_id in table if check_id not in pinned]
    if not lines and list(table) != list(pinned):
        lines.append(f"check ids {list(table)} are not in the pinned order")
    for check_id, old in pinned.items():
        new = table.get(check_id, old)
        slack = old["worst_slack"]
        for key in FIELDS:
            a, b = old[key], new[key]
            numbers = all(isinstance(x, (int, float)) for x in (a, b))
            if a == b or (key == "worst_slack" and numbers and abs(b - a) <= band):
                continue
            if key == "worst_trial" and tie is not None and (slack is None or abs(slack) <= tie):
                continue
            delta = f" (delta {b - a:+.3e})" if numbers else ""
            lines.append(f"{check_id}.{key}: {a!r} -> {b!r}{delta}")
    return lines


def verify_args(seed: int) -> list[str]:
    """The acceptance run at ``seed``: all checks, dims 2,3,4,6, 200 trials."""
    return ["verify", "--suite", "all", "--dims", "2,3,4,6", "--trials", "200", "--seed", str(seed)]


def fresh_table(seed: int) -> tuple[int, dict]:
    """The verify run's exit code and its table, with the report in a
    temporary directory."""
    from qsd.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = cli_main([*verify_args(seed), "--quiet", "--out", str(out)])
        return code, table_of(json.loads(out.read_text()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or diff the pinned acceptance tables.")
    parser.add_argument("--diff", action="store_true", help="print the moves; write nothing")
    parser.add_argument("--seed", type=int, choices=list(TABLES), help="one table (default: each)")
    args = parser.parse_args(argv)
    failed = False
    for seed in TABLES if args.seed is None else [args.seed]:
        code, table = fresh_table(seed)
        path = TABLES[seed]
        if args.diff:
            lines = diff_lines(json.loads(path.read_text()), table)
            lines = [f"{path.name}: {line}" for line in lines]
            print("\n".join(lines) or f"no record differs from {path.name}")
            failed |= bool(lines)
        else:
            path.write_text(json.dumps(table, indent=1) + "\n")
        failed |= code != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())

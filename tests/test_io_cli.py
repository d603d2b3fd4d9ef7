import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsd import (
    Ensemble,
    FormatError,
    random_cptp,
    random_state,
)
from qsd.cli import main
from qsd.io import (
    channel_to_dict,
    ensemble_from_dict,
    ensemble_to_dict,
    read_state,
    state_from_dict,
    state_to_dict,
)


class TestStateFormat:
    def test_round_trip(self, rng):
        rho = random_state(4, rng)
        back = state_from_dict(state_to_dict(rho))
        assert np.allclose(back.mat, rho.mat, atol=1e-15)

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(FormatError):
            state_from_dict({"format": "nope", "dim": 1, "re": [[1.0]], "im": [[0.0]]})

    def test_rejects_non_hermitian(self):
        payload = {
            "format": "qsd-state-v1",
            "dim": 2,
            "re": [[1.0, 1.0], [0.0, 1.0]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(FormatError):
            state_from_dict(payload)

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_finite_entries(self, part):
        payload = {"format": "qsd-state-v1", "dim": 1, "re": [[1.0]], "im": [[0.0]]}
        payload[part] = [[math.nan]]
        with pytest.raises(FormatError):
            state_from_dict(payload)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(FormatError):
            state_from_dict(
                {"format": "qsd-state-v1", "dim": 2, "re": [[1.0]], "im": [[0.0]]}
            )


class TestEnsembleAndChannelFormat:
    def test_ensemble_round_trip(self, rng):
        ens = Ensemble((0.3, 0.7), [random_state(3, rng) for _ in range(2)])
        back = ensemble_from_dict(ensemble_to_dict(ens))
        assert np.allclose(back.weights, ens.weights)
        for a, b in zip(back.states, ens.states):
            assert np.allclose(a.mat, b.mat, atol=1e-15)

    def test_channel_round_trip(self, rng):
        kraus = random_cptp(3, 2, rng)
        back = kraus_blocks(json.loads(json.dumps(channel_to_dict(kraus))))
        assert len(back) == len(kraus)
        for a, b in zip(back, kraus):
            assert np.allclose(a, b, atol=1e-15)


def kraus_blocks(payload):
    """The Kraus matrices of a qsd-channel-v1 object (the library writes the
    format but has no reader)."""
    assert payload["format"] == "qsd-channel-v1"
    dim = payload["dim"]
    blocks = [np.array(b["re"]) + 1j * np.array(b["im"]) for b in payload["kraus"]]
    assert blocks and all(k.shape[1] == dim for k in blocks)
    return blocks


def run_cli(*args):
    return main(list(args))


def write_diag(path, entries):
    mat = np.diag(np.asarray(entries, dtype=complex))
    path.write_text(json.dumps(state_to_dict(mat)))


class TestCliCompute:
    def test_sd_of_identical_states(self, tmp_path, capsys, rng):
        p = tmp_path / "rho.json"
        p.write_text(json.dumps(state_to_dict(random_state(3, rng))))
        assert run_cli("compute", "--measure", "sd", "--alpha", "0.5", str(p), str(p)) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out)) <= 1e-12

    def test_re_of_orthogonal_pure_states_prints_inf(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_diag(a, [1.0, 0.0])
        write_diag(b, [0.0, 1.0])
        assert run_cli("compute", "--measure", "re", str(a), str(b)) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_re_of_a_pure_state_against_itself_prints_zero(self, tmp_path, capsys):
        b = tmp_path / "b.json"
        write_diag(b, [0.0, 1.0])
        assert run_cli("compute", "--measure", "re", str(b), str(b)) == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_trace_dist_diag_family(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_diag(a, [0.3, 0.0, 0.7])
        write_diag(b, [0.0, 0.3, 0.7])
        assert run_cli("compute", "--measure", "trace-dist", str(a), str(b)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.3, abs=1e-12)

    def test_entropy(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_diag(p, [0.5, 0.5])
        assert run_cli("compute", "--measure", "entropy", str(p)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(2), abs=1e-12)

    def test_chi_on_ensemble_file(self, tmp_path, capsys, rng):
        ens = Ensemble((0.5, 0.5), [random_state(2, rng) for _ in range(2)])
        p = tmp_path / "ens.json"
        p.write_text(json.dumps(ensemble_to_dict(ens)))
        assert run_cli("compute", "--measure", "chi", str(p)) == 0
        value = float(capsys.readouterr().out)
        assert 0.0 <= value <= math.log(2) + 1e-9

    def test_ensemble_member_without_unit_trace_exits_3(self, tmp_path, capsys):
        member = state_to_dict(np.diag([1.5, 0.5]))
        p = tmp_path / "ens.json"
        p.write_text(json.dumps(
            {"format": "qsd-ensemble-v1", "weights": [0.5, 0.5], "states": [member, member]}
        ))
        assert run_cli("compute", "--measure", "chi", str(p)) == 3
        assert capsys.readouterr().out == ""

    def test_dsd_fidelity_chi2log(self, tmp_path, capsys, rng):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(state_to_dict(random_state(3, rng))))
        b.write_text(json.dumps(state_to_dict(random_state(3, rng))))
        assert run_cli("compute", "--measure", "dsd", "--alpha", "0.3", str(a), str(b)) == 0
        dsd = float(capsys.readouterr().out)
        assert 0.0 <= dsd <= 1.0
        assert run_cli("compute", "--measure", "fidelity", str(a), str(b)) == 0
        assert 0.0 <= float(capsys.readouterr().out) <= 1.0
        assert run_cli("compute", "--measure", "chi2log", str(a), str(b)) == 0
        assert float(capsys.readouterr().out) >= 0.0

    def test_mixing_rate_measure(self, tmp_path, capsys, rng):
        from qsd import random_hamiltonian

        ens = Ensemble((0.4, 0.6), [random_state(3, rng) for _ in range(2)])
        e, h1, h2 = tmp_path / "e.json", tmp_path / "h1.json", tmp_path / "h2.json"
        e.write_text(json.dumps(ensemble_to_dict(ens)))
        h1.write_text(json.dumps(state_to_dict(random_hamiltonian(3, rng))))
        h2.write_text(json.dumps(state_to_dict(random_hamiltonian(3, rng))))
        assert run_cli(
            "compute", "--measure", "mixing-rate", str(e), str(h1), str(h2), "--t", "0.2"
        ) == 0
        assert math.isfinite(float(capsys.readouterr().out))

    @pytest.mark.parametrize(
        "weight, t, named",
        [(0.4, "nan", "got nan"), (0.4, "inf", "got inf"), (math.nan, "0.2", "weight nan")],
    )
    def test_mixing_rate_of_a_non_finite_input_exits_3(
        self, tmp_path, capsys, rng, weight, t, named
    ):
        from qsd import random_hamiltonian

        # json writes a NaN weight as the literal NaN, which json.load accepts
        ens = ensemble_to_dict(Ensemble((0.4, 0.6), [random_state(3, rng) for _ in range(2)]))
        ens["weights"][0] = weight
        e, h = tmp_path / "e.json", tmp_path / "h.json"
        e.write_text(json.dumps(ens))
        h.write_text(json.dumps(state_to_dict(random_hamiltonian(3, rng))))
        args = ("compute", "--measure", "mixing-rate", str(e), str(h), str(h), "--t", t)
        assert run_cli(*args) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_chi_of_a_nan_weight_exits_3(self, tmp_path, capsys, rng):
        ens = ensemble_to_dict(Ensemble((0.4, 0.6), [random_state(3, rng) for _ in range(2)]))
        ens["weights"][1] = math.nan
        p = tmp_path / "e.json"
        p.write_text(json.dumps(ens))
        assert run_cli("compute", "--measure", "chi", str(p)) == 3
        assert capsys.readouterr().out == ""

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run_cli("compute", "--measure", "entropy", str(bad)) == 2

    def test_domain_error_exits_3(self, tmp_path, capsys, rng):
        p = tmp_path / "rho.json"
        p.write_text(json.dumps(state_to_dict(random_state(2, rng))))
        assert run_cli("compute", "--measure", "sd", "--alpha", "1.5", str(p), str(p)) == 3

    @pytest.mark.parametrize(
        "measure, extra",
        [("entropy", 0), ("re", 1), ("trace-dist", 1), ("sd", 1), ("dsd", 1), ("chi2log", 1)],
    )
    @pytest.mark.parametrize(
        "diag, off, code",
        [("0.5", "NaN", 2), ("0.5", "1e308", 3), ("8.9e307", "0", 3)],
        ids=["NaN-2", "1e308-3", "8.9e307-3"],
    )
    def test_non_finite_state_is_rejected(
        self, tmp_path, capsys, measure, extra, diag, off, code
    ):
        # a NaN entry is a malformed file (2); 1e308 parses but overflows (3);
        # diag(8.9e307, 8.9e307) is finite, but every measure of it overflows
        # (3) against diag(0.5, 0.5); trace distance against its negation
        # overflows from three such entries (2.67e308; two give 1.78e308)
        dim = 3 if (measure, diag) == ("trace-dist", "8.9e307") else 2
        re = [[float(diag) if i == j else float(off) for j in range(dim)] for i in range(dim)]
        bad, partner = tmp_path / "bad.json", tmp_path / "partner.json"
        bad.write_text(
            json.dumps({"format": "qsd-state-v1", "dim": dim, "re": re, "im": [[0] * dim] * dim})
        )
        write_diag(partner, [-float(diag)] * dim if measure == "trace-dist" else [0.5] * 2)
        args = ["compute", "--measure", measure, "--alpha", "0.5", str(bad)]
        assert run_cli(*args, *[str(partner)] * extra) == code
        out, err = capsys.readouterr()
        assert out == ""
        # no numpy warning ahead of the one diagnostic line
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_trace_distance_near_the_float_limit(self, tmp_path, capsys):
        # T(diag(8.9e307, 8.9e307), its negation) = 1.78e308 is representable
        bad, partner = tmp_path / "bad.json", tmp_path / "partner.json"
        write_diag(bad, [8.9e307] * 2)
        write_diag(partner, [-8.9e307] * 2)
        assert run_cli("compute", "--measure", "trace-dist", str(bad), str(partner)) == 0
        out, err = capsys.readouterr()
        assert out == "1.7799999999999998e+308\n" and err == ""

    def test_relative_entropy_overflow_is_named(self, tmp_path, capsys):
        bad, partner = tmp_path / "bad.json", tmp_path / "partner.json"
        write_diag(bad, [8.9e307] * 2)
        write_diag(partner, [0.5] * 2)
        assert run_cli("compute", "--measure", "re", str(bad), str(partner)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: relative entropy overflows")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", 2.5),
            ("dim", "2"),
            ("dim", 2.0),
            ("re", True),
            ("re", "0.5"),
            ("re", 10**400),
            ("weights", "1"),
            ("weights", [True]),
        ],
        ids=[
            "dim-2.5", "dim-str", "dim-2.0", "entry-true", "entry-str", "entry-10**400",
            "weights-str", "weight-true",
        ],
    )
    def test_malformed_number_exits_2(self, tmp_path, capsys, field, value):
        # dim is a JSON integer, and each entry and weight a JSON number: a
        # bool or a string is neither, and weights form a JSON array; an
        # integer entry must fit a float
        state = {"format": "qsd-state-v1", "dim": 1, "re": [[1.0]], "im": [[0.0]]}
        payload, measure = state, "entropy"
        if field == "weights":
            payload = {"format": "qsd-ensemble-v1", "weights": value, "states": [state]}
            measure = "chi"
        elif field == "re":
            state["re"][0][0] = value
        else:
            state[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        assert run_cli("compute", "--measure", measure, str(p)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and f"'{field}'" in err

    def test_missing_file_exits_4(self, tmp_path):
        assert run_cli("compute", "--measure", "entropy", str(tmp_path / "nope.json")) == 4

    def test_wrong_input_count_exits_2(self, tmp_path, rng):
        p = tmp_path / "rho.json"
        p.write_text(json.dumps(state_to_dict(random_state(2, rng))))
        assert run_cli("compute", "--measure", "sd", "--alpha", "0.5", str(p)) == 2

    def test_missing_alpha_exits_2(self, tmp_path, rng):
        p = tmp_path / "rho.json"
        p.write_text(json.dumps(state_to_dict(random_state(2, rng))))
        assert run_cli("compute", "--measure", "sd", str(p), str(p)) == 2


class TestCliRandom:
    def test_state_deterministic_and_valid(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("random", "--kind", "state", "--dim", "4", "--seed", "7", "--out", str(out1)) == 0
        assert run_cli("random", "--kind", "state", "--dim", "4", "--seed", "7", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        op = read_state(str(out1))
        w = np.linalg.eigvalsh(op.mat)
        assert abs(w.sum() - 1.0) <= 1e-10
        assert w.min() >= -1e-10

    def test_ensemble_weights_sum_to_one(self, tmp_path):
        out = tmp_path / "e.json"
        assert run_cli(
            "random", "--kind", "ensemble", "--dim", "4", "--n", "3", "--seed", "3",
            "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "qsd-ensemble-v1"
        assert abs(sum(payload["weights"]) - 1.0) <= 1e-12
        assert len(payload["states"]) == 3

    def test_hamiltonian_and_channel(self, tmp_path):
        h_out, c_out = tmp_path / "h.json", tmp_path / "c.json"
        assert run_cli("random", "--kind", "hamiltonian", "--dim", "3", "--seed", "1", "--out", str(h_out)) == 0
        assert run_cli("random", "--kind", "channel", "--dim", "3", "--n", "2", "--seed", "1", "--out", str(c_out)) == 0
        h = read_state(str(h_out))
        assert np.abs(np.linalg.eigvalsh(h.mat)).max() == pytest.approx(1.0, abs=1e-12)
        kraus = kraus_blocks(json.loads(c_out.read_text()))
        total = sum(k.conj().T @ k for k in kraus)
        assert np.abs(total - np.eye(3)).max() <= 1e-10

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["channel", "ensemble"])
    def test_n_below_one_is_a_usage_error(self, capsys, kind, n):
        assert run_cli("random", "--kind", kind, "--dim", "2", "--n", n, "--out", "-") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("QSD_SEED", "123")
        assert run_cli("random", "--kind", "state", "--dim", "2", "--out", str(out1)) == 0
        monkeypatch.delenv("QSD_SEED")
        assert run_cli("random", "--kind", "state", "--dim", "2", "--seed", "123", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("env", ["123", "abc"])
    def test_seed_option_beats_the_environment(self, tmp_path, monkeypatch, env):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("QSD_SEED", env)
        assert run_cli("random", "--kind", "state", "--dim", "2", "--seed", "5", "--out", str(out1)) == 0
        monkeypatch.delenv("QSD_SEED")
        assert run_cli("random", "--kind", "state", "--dim", "2", "--seed", "5", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


# The seeded commands, complete apart from the seed and --out.
SEEDED_COMMANDS = {
    "random": ("random", "--kind", "state", "--dim", "2"),
    "verify": ("verify", "--suite", "core", "--dims", "2", "--trials", "1", "--quiet"),
}


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
@pytest.mark.parametrize(
    "seed_args, env, source",
    [
        (("--seed", "-1"), None, "--seed"),
        ((), "-5", "QSD_SEED"),
        ((), "abc", "QSD_SEED"),
        ((), "1.5", "QSD_SEED"),
        ((), "-1", "QSD_SEED"),
        ((), "", "QSD_SEED"),
    ],
)
def test_bad_seed_is_a_usage_error(capsys, monkeypatch, command, seed_args, env, source):
    if env is None:
        monkeypatch.delenv("QSD_SEED", raising=False)
    else:
        monkeypatch.setenv("QSD_SEED", env)
    assert run_cli(*SEEDED_COMMANDS[command], *seed_args, "--out", "-") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {source} ") and err.count("\n") == 1


class TestCliVerify:
    def test_small_run_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--suite", "core", "--dims", "2,3", "--trials", "5",
            "--seed", "11", "--quiet", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["total_violations"] == 0
        assert report["seed"] == 11
        assert report["dims"] == [2, 3]
        assert all(c["trials"] == 10 for c in report["checks"])

    def test_report_seed_is_the_environment_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        monkeypatch.setenv("QSD_SEED", "17")
        assert run_cli(*SEEDED_COMMANDS["verify"], "--out", str(out)) == 0
        assert json.loads(out.read_text())["seed"] == 17

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert run_cli("verify", "--trials", "0", "--quiet") == 2

    def test_determinism_modulo_wall_time(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run_cli(
                "verify", "--suite", "sim", "--dims", "2", "--trials", "4",
                "--seed", "5", "--quiet", "--out", str(out),
            ) == 0
            payload = json.loads(out.read_text())
            payload.pop("wall_time")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_report_covers_every_required_check(self, tmp_path):
        from make_acceptance_report import TABLES
        from qsd import REGISTRY

        out = tmp_path / "report.json"
        assert run_cli(
            "verify", "--suite", "all", "--dims", "2", "--trials", "1",
            "--seed", "0", "--quiet", "--out", str(out),
        ) == 0
        report = json.loads(out.read_text())
        ids = [c["check_id"] for c in report["checks"]]
        assert ids == [c.check_id for c in REGISTRY]
        assert all(ids == list(json.loads(table.read_text())) for table in TABLES.values())
        assert all(c["label"] for c in report["checks"])

    def test_tol_is_not_an_option(self, tmp_path):
        # every check is judged at its pinned tolerance; nothing rescales it
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--suite", "core", "--dims", "2", "--trials", "1",
            "--tol", "1", "--quiet", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_each_record_states_its_pinned_tol(self):
        from qsd import REGISTRY, run_suite

        pinned = {c.check_id: c.tol for c in REGISTRY}
        records = run_suite(suite="all", dims=(2,), trials=1).to_dict()["checks"]
        assert [r["check_id"] for r in records] == list(pinned)
        assert all(r["tol"] == pinned[r["check_id"]] for r in records)
        assert all(list(r)[:3] == ["check_id", "label", "tol"] for r in records)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_run_suite_rejects_bad_seed(self, seed):
        from qsd import run_suite

        with pytest.raises(ValueError, match="seed"):
            run_suite(suite="core", dims=(2,), trials=1, seed=seed)

    @pytest.mark.parametrize("trials", [0, True, 1.5, 2.0, 2**32 + 1])
    def test_run_suite_rejects_bad_trials(self, trials):
        from qsd import run_suite

        with pytest.raises(ValueError, match="trials"):
            run_suite(suite="core", dims=(2,), trials=trials)

    @pytest.mark.parametrize(
        "dims", [(), (0,), (2.7,), (2, True), ("2",), (2, 2), (3, 2, 3), (2, 2**32)]
    )
    def test_run_suite_rejects_bad_dims(self, dims):
        from qsd import run_suite

        with pytest.raises(ValueError, match="dims"):
            run_suite(suite="core", dims=dims, trials=1)

    def test_repeated_dims_exit_2(self, tmp_path, capsys):
        # a repeated dimension would replay the same seeded trials and count them twice
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--suite", "core", "--dims", "2,2", "--trials", "1",
            "--quiet", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "dims" in capsys.readouterr().err

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_non_finite_slack_is_a_violation(self, tmp_path, monkeypatch, slack):
        from qsd import checks, verify
        from qsd.io import dump_json

        probe = verify.CheckDef(
            "core.non_finite_probe", "returns a non-finite slack", "core", 0.0,
            lambda rngs, dim: (np.zeros(len(rngs)),),
            lambda x: x + slack,
        )
        monkeypatch.setattr(checks, "REGISTRY", (probe,))
        report = verify.run_suite(suite="core", dims=(2, 3), trials=2)
        assert report.total_violations == 4
        out = tmp_path / "report.json"
        dump_json(report.to_dict(), str(out))  # strict JSON: no NaN or Infinity
        record = json.loads(out.read_text())["checks"][0]
        assert record["worst_slack"] is None
        assert record["violations"] == 4
        assert record["worst_case_inputs"] == {"x": 0.0}

    def test_non_finite_judge_argument_is_reported_as_null(self, tmp_path, monkeypatch):
        from qsd import checks, verify

        probe = verify.CheckDef(
            "core.non_finite_argument_probe", "draws a non-finite argument", "core", 0.0,
            lambda rngs, dim: (np.full(len(rngs), math.nan),),
            lambda x: x,
        )
        monkeypatch.setattr(checks, "REGISTRY", (probe,))
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--suite", "core", "--dims", "2", "--trials", "2", "--seed", "0", "--quiet", "--out", str(out)]
        )
        assert code == 1
        record = json.loads(out.read_text(), parse_constant=pytest.fail)["checks"][0]
        assert record["violations"] == 2 and record["worst_slack"] is None
        assert record["worst_case_inputs"] == {"x": None}

    def test_raising_check_is_a_violation(self, tmp_path, monkeypatch):
        from qsd import checks, verify

        def draw(rngs, dim):
            if dim == 3:
                raise RuntimeError(f"probe failed at dim {dim}")
            return (np.full(len(rngs), 0.5),)

        probe = verify.CheckDef(
            "core.raising_probe", "raises at dim 3", "core", 0.0, draw, lambda slacks: slacks
        )
        probes = (
            probe,
            checks.REGISTRY[0],
        )
        monkeypatch.setattr(checks, "REGISTRY", probes)
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--suite", "core", "--dims", "2,3", "--trials", "2",
            "--seed", "0", "--quiet", "--out", str(out),
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["total_violations"] == 2
        record, after = report["checks"]
        assert record["violations"] == 2
        assert record["worst_slack"] is None
        assert record["worst_case_inputs"] == {
            "error": "RuntimeError",
            "message": "probe failed at dim 3",
            "dim": 3,
            "trial": 0,
        }
        assert after["check_id"] == checks.REGISTRY[1].check_id  # the run went on
        assert after["violations"] == 0 and "worst_case_inputs" not in after

    def test_raising_draw_is_charged_to_its_trial(self, monkeypatch):
        from qsd import checks, verify

        # the trial of dim 3 whose generator starts lowest raises in the draw
        first = [verify._trial_rng(0, "core.draw_probe", 3, k).uniform() for k in range(4)]
        bad = int(np.argmin(first))

        def draw(rngs, dim):
            x = np.array([rng.uniform() for rng in rngs])
            if dim == 3 and (x <= first[bad]).any():
                raise RuntimeError("draw failed")
            return (np.full(len(rngs), 0.5),)

        probe = verify.CheckDef(
            "core.draw_probe", "draw raises", "core", 0.0, draw, lambda slacks: slacks
        )
        monkeypatch.setattr(checks, "REGISTRY", (probe,))
        record = verify.run_suite(suite="core", dims=(2, 3), trials=4, seed=0).to_dict()["checks"][0]
        assert record["violations"] == 1  # the other seven trials were judged
        assert record["worst_trial"] == {"dim": 3, "trial": bad}
        assert record["worst_case_inputs"] == {
            "error": "RuntimeError",
            "message": "draw failed",
            "dim": 3,
            "trial": bad,
        }

    def test_worst_violating_trial_inputs_are_reported(self, monkeypatch):
        from qsd import checks, verify

        def draw(rngs, dim):
            n = len(rngs)
            rho, sigma = np.stack([np.eye(dim)] * n), np.zeros((n, dim, dim))
            return rho, sigma, np.full(n, 0.25), np.full(n, -float(dim))  # dim 3 is the worst

        def judge(rho, sigma, alpha, slack):
            return slack

        probes = (verify.CheckDef("core.slack_probe", "negative slack", "core", 0.0, draw, judge),)
        monkeypatch.setattr(checks, "REGISTRY", probes)
        record = verify.run_suite(suite="core", dims=(2, 3), trials=1).checks[0]
        assert record.worst_slack == -3.0
        assert record.worst_trial == {"dim": 3, "trial": 0}
        inputs = record.worst_case_inputs
        assert list(inputs) == ["rho", "sigma", "alpha", "slack"]
        assert inputs["alpha"] == 0.25 and inputs["slack"] == -3.0
        assert [inputs[name]["dim"] for name in ("rho", "sigma")] == [3, 3]
        assert state_from_dict(inputs["rho"]).mat.tolist() == np.eye(3).tolist()
        assert state_from_dict(inputs["sigma"]).mat.tolist() == np.zeros((3, 3)).tolist()

    def test_worst_trial_is_the_first_minimum(self, monkeypatch):
        from qsd import checks, verify

        probe = verify.CheckDef(
            "core.tie_probe", "every trial ties", "core", 0.0,
            lambda rngs, dim: (np.full(len(rngs), -1.0),),
            lambda slacks: slacks,
        )
        monkeypatch.setattr(checks, "REGISTRY", (probe,))
        record = verify.run_suite(suite="core", dims=(3, 2), trials=3).to_dict()["checks"][0]
        assert record["violations"] == 6
        assert record["worst_trial"] == {"dim": 3, "trial": 0}

    def test_raising_judge_is_charged_to_its_trial(self, tmp_path, monkeypatch):
        from qsd import checks, verify

        # the trial whose generator starts as that of dim 3, trial 1 is bad
        target = verify._trial_rng(0, "core.judge_probe", 3, 1).uniform()

        def draw(rngs, dim):
            return (np.array([rng.uniform() == target for rng in rngs]),)

        def judge(bad):
            if bad.any():
                raise RuntimeError("judge failed")
            return np.full(bad.shape, 0.5)

        probes = (
            verify.CheckDef("core.judge_probe", "judge raises", "core", 0.0, draw, judge),
            checks.REGISTRY[0],
        )
        monkeypatch.setattr(checks, "REGISTRY", probes)
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--suite", "core", "--dims", "2,3", "--trials", "3",
            "--seed", "0", "--quiet", "--out", str(out),
        )
        assert code == 1
        record, after = json.loads(out.read_text())["checks"]
        assert record["violations"] == 1  # the other five trials were judged
        assert record["worst_slack"] is None
        assert record["worst_trial"] == {"dim": 3, "trial": 1}
        assert record["worst_case_inputs"] == {
            "error": "RuntimeError",
            "message": "judge failed",
            "dim": 3,
            "trial": 1,
        }
        assert after["check_id"] == checks.REGISTRY[1].check_id
        assert after["violations"] == 0 and "worst_case_inputs" not in after

    def test_judge_of_the_wrong_length_is_a_violation(self, monkeypatch):
        from qsd import checks, verify

        probe = verify.CheckDef(
            "core.two_slack_probe", "two slacks for every stack", "core", 0.0,
            lambda rngs, dim: (np.zeros(len(rngs)),),
            lambda x: np.ones(2),
        )
        monkeypatch.setattr(checks, "REGISTRY", (probe,))
        record = verify.run_suite(suite="core", dims=(2,), trials=3).to_dict()["checks"][0]
        assert record["violations"] == 3
        assert record["worst_case_inputs"]["error"] == "ValueError"
        assert record["worst_trial"] == {"dim": 2, "trial": 0}

    def test_reports_are_strict_json(self, tmp_path):
        from qsd.io import dump_json

        with pytest.raises(ValueError):
            dump_json({"worst_slack": math.nan}, str(tmp_path / "bad.json"))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_python_dash_m_verify_exit_codes():
    """``python -m qsd`` as a process: a clean run prints strict JSON and
    exits 0; a usage error exits 2 with one ``error:`` line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def qsd(*args):
        cmd = [sys.executable, "-m", "qsd", "verify", "--suite", "core", "--dims", "2", *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    ok = qsd("--trials", "2", "--quiet", "--out", "-")
    assert ok.returncode == 0, ok.stderr
    report = json.loads(ok.stdout, parse_constant=_reject_constant)
    assert report["total_violations"] == 0
    assert [c["trials"] for c in report["checks"]] == [2] * len(report["checks"])

    bad = qsd("--trials", "0", "--quiet", "--out", "-")
    assert bad.returncode == 2
    assert bad.stdout == ""
    lines = bad.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), bad.stderr

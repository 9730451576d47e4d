import csv
import functools
import json
from dataclasses import replace

import numpy as np
import pytest

from chancap import cli
from chancap.adaptive import AdditivityReport
from chancap.channels import QuantumChannel, channel_to_json, matrix_to_json, random_channel
from chancap.cli import EXIT_BOUND, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main

FAST = ["--restarts", "2", "--max-iters", "3", "--tol", "1e-6"]


@pytest.fixture()
def identity_spec(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text('{"kind": "identity", "dim": 2}')
    return str(path)


@pytest.fixture()
def noisy_spec(tmp_path):
    path = tmp_path / "noisy.json"
    path.write_text('{"kind": "completely-noisy", "dim": 2}')
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def result_value(report, name):
    for entry in report["results"]:
        if entry["name"] == name:
            return entry["value"]
    raise KeyError(name)


class TestCapacityCommand:
    def test_identity_all(self, capsys, identity_spec):
        code, report = run(capsys, ["capacity", identity_spec, "--which", "all"] + FAST)
        assert code == EXIT_OK
        assert abs(result_value(report, "shannon_capacity") - 1.0) < 1e-3
        assert abs(result_value(report, "holevo_capacity") - 1.0) < 1e-3
        assert abs(result_value(report, "measured_input_bound") - 1.0) < 1e-3

    def test_noisy_all(self, capsys, noisy_spec):
        code, report = run(capsys, ["capacity", noisy_spec, "--which", "all"] + FAST)
        assert code == EXIT_OK
        assert abs(result_value(report, "shannon_capacity")) < 1e-6
        assert abs(result_value(report, "holevo_capacity")) < 1e-6
        assert abs(result_value(report, "measured_input_bound")) < 1e-6

    def test_bit_flip_shannon(self, capsys, tmp_path):
        spec = tmp_path / "bf.json"
        spec.write_text('{"kind": "bit-flip", "p": 0.1}')
        code, report = run(capsys, ["capacity", str(spec), "--which", "shannon"] + FAST)
        assert code == EXIT_OK
        assert abs(result_value(report, "shannon_capacity") - 0.531004) < 2e-3

    def test_report_shape(self, capsys, identity_spec):
        _, report = run(capsys, ["capacity", identity_spec, "--which", "shannon"] + FAST)
        assert report["command"] == "capacity"
        assert report["channel_spec_digest"].startswith("sha256:")
        assert report["config"]["restarts"] == 2
        assert "wall_time" in report

    def test_argmax_bloch_summaries(self, capsys, identity_spec):
        _, report = run(capsys, ["capacity", identity_spec, "--which", "shannon"] + FAST)
        povm_summary = result_value(report, "shannon_argmax_povm")
        assert all("w0" in entry and "w" in entry for entry in povm_summary)

    def test_no_negative_zero(self, capsys, tmp_path):
        # at the defaults, tiny negative coordinates and gaps of AD(0.5) round to zero
        spec = tmp_path / "ad.json"
        spec.write_text('{"kind": "amplitude-damping", "gamma": 0.5}')
        code, report = run(capsys, ["capacity", str(spec), "--which", "all"])
        assert code == EXIT_OK

        def zeros(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [z for item in node for z in zeros(item)]
            return [node] if isinstance(node, float) and node == 0.0 else []

        assert zeros(report) and all(np.copysign(1.0, z) == 1.0 for z in zeros(report))
        assert np.copysign(1.0, cli._rounded(-1e-12)) == 1.0

    def test_qutrit_report_is_rounded(self, capsys, tmp_path):
        # every reported number but the wall time carries at most 9 decimals, the POVM traces of a
        # qutrit channel's argmax included
        spec = tmp_path / "qutrit.json"
        spec.write_text(channel_to_json(random_channel(3, 2, seed=3)))
        code, report = run(capsys, ["capacity", str(spec), "--which", "all"] + FAST)
        assert code == EXIT_OK

        def floats(node):
            if isinstance(node, dict):
                return [f for key, value in node.items() if key != "wall_time" for f in floats(value)]
            if isinstance(node, list):
                return [f for item in node for f in floats(item)]
            return [node] if isinstance(node, float) else []

        traces = [e["trace"] for r in report["results"] if r["name"].endswith("_argmax_povm") for e in r["value"]]
        assert traces and "wall_time" in report
        assert all(f == cli._rounded(f) for f in floats(report))

    def test_missing_file(self, capsys):
        assert main(["capacity", "/nonexistent.json"] + FAST) == EXIT_USAGE

    def test_malformed_spec(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{broken")
        assert main(["capacity", str(spec)] + FAST) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["capacity", "additivity", "channel-info"])
    def test_spec_path_is_directory(self, capsys, tmp_path, command):
        assert main([command, str(tmp_path)] + FAST) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["capacity", "additivity", "channel-info"])
    def test_spec_not_utf8(self, capsys, tmp_path, command):
        spec = tmp_path / "latin1.json"
        spec.write_bytes('{"kind": "identity", "dim": 2, "note": "\u00e9"}'.encode("latin-1"))
        assert main([command, str(spec)] + FAST) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_non_cptp_spec(self, capsys, tmp_path):
        spec = tmp_path / "noncptp.json"
        spec.write_text(
            json.dumps({"kind": "kraus", "operators": [[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]]})
        )
        assert main(["capacity", str(spec)] + FAST) == EXIT_INVARIANT


class TestIdentityCheckCommand:
    def test_small_run_passes(self, capsys):
        code, report = run(capsys, ["identity-check", "--instances", "25", "--seed", "7"] + FAST)
        assert code == EXIT_OK
        assert result_value(report, "max_gap_quantum_chain") <= 1e-9
        assert result_value(report, "max_gap_classical_chain") <= 1e-9

    def test_single_instance(self, capsys):
        code, _ = run(capsys, ["identity-check", "--instances", "1"] + FAST)
        assert code == EXIT_OK

    @pytest.mark.parametrize("instances", ["0", "-5"])
    def test_non_positive_instances_rejected(self, capsys, instances):
        assert main(["identity-check", "--instances", instances] + FAST) == EXIT_USAGE
        assert "--instances" in capsys.readouterr().err

    def test_fault_injection(self, capsys):
        code = main(["identity-check", "--instances", "2", "--inject-fault"] + FAST)
        assert code == EXIT_INVARIANT


class TestAdditivityCommand:
    def test_identity_pair(self, capsys, identity_spec):
        code, report = run(capsys, ["additivity", identity_spec, identity_spec] + FAST)
        assert code == EXIT_OK
        assert abs(result_value(report, "conditional_best") - 2.0) < 2e-3
        assert abs(result_value(report, "product_strategy") - 2.0) < 2e-3

    def test_single_file_pairs_with_itself(self, capsys, noisy_spec):
        code, report = run(capsys, ["additivity", noisy_spec] + FAST)
        assert code == EXIT_OK
        assert abs(result_value(report, "capacity_sum")) < 1e-5

    def test_depth_two_rejects_a_third_file(self, capsys, identity_spec, noisy_spec):
        code = main(["additivity", identity_spec, noisy_spec, identity_spec] + FAST)
        assert code == EXIT_USAGE
        assert "one or two channel files" in capsys.readouterr().err

    def test_depth_three(self, capsys, tmp_path):
        spec = tmp_path / "bf.json"
        spec.write_text('{"kind": "bit-flip", "p": 0.1}')
        code, report = run(capsys, ["additivity", str(spec), "--depth", "3"] + FAST)
        assert code == EXIT_OK
        bound = 3 * result_value(report, "single_copy_capacity")
        assert result_value(report, "conditional_best_depth3") <= bound + 2e-3

    @pytest.mark.parametrize("depth", ["2", "3"])
    def test_non_qubit_output_rejected(self, capsys, tmp_path, depth):
        # the conditional stages measure qubit outputs; a qutrit output is a usage error, not a traceback
        spec = tmp_path / "qutrit.json"
        spec.write_text(channel_to_json(random_channel(3, 2, seed=1)))
        code = main(["additivity", str(spec), "--depth", depth] + FAST)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "qubit outputs" in err

    @pytest.mark.parametrize("depth", ["2", "3"])
    def test_qutrit_input_qubit_output(self, capsys, tmp_path, depth):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
        spec = tmp_path / "three_to_two.json"
        spec.write_text(channel_to_json(QuantumChannel((q[:2], q[2:4], q[4:]))))
        code, report = run(capsys, ["additivity", str(spec), "--depth", depth] + FAST)
        assert code == EXIT_OK
        assert all(entry.get("passed", True) for entry in report["results"])


class TestSweepCommand:
    def test_endpoint_is_identity(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, report = run(
            capsys,
            ["sweep", "--family", "depolarizing", "--start", "0.0", "--stop", "0.0",
             "--step", "0.5", "--which", "shannon", "--csv", str(out)] + FAST,
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["param"] == "0.0"
        assert abs(float(rows[0]["shannon"]) - 1.0) < 2e-3

    def test_csv_header_fixed(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        run(
            capsys,
            ["sweep", "--family", "bit-flip", "--start", "0.1", "--stop", "0.1",
             "--step", "0.1", "--which", "shannon", "--csv", str(out)] + FAST,
        )
        header = open(out).readline().strip().split(",")
        assert header == ["param", "shannon", "holevo", "uep", "holevo_minus_shannon", "strict_gap"]

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf", "1e-15"])
    def test_bad_step_rejected_before_the_loop(self, capsys, step):
        code = main(["sweep", "--family", "bit-flip", "--step", step] + FAST)
        assert code == EXIT_USAGE
        assert "--step" in capsys.readouterr().err

    def test_step_below_rounding_gives_one_point(self, capsys):
        # 0.5 + 1e-17 == 0.5: adding the step to the point would never pass the stop
        code, report = run(
            capsys,
            ["sweep", "--family", "bit-flip", "--start", "0.5", "--stop", "0.5",
             "--step", "1e-17", "--which", "shannon"] + FAST,
        )
        assert code == EXIT_OK
        assert [row["param"] for row in result_value(report, "rows")] == [0.5]

    def test_stop_within_rounding_is_kept(self, capsys):
        _, report = run(
            capsys,
            ["sweep", "--family", "bit-flip", "--start", "0.7", "--stop", "1.0",
             "--step", "0.1", "--which", "shannon", "--max-iters", "0"],
        )
        assert [row["param"] for row in result_value(report, "rows")] == [0.7, 0.8, 0.9, 1.0]

    def test_non_finite_range_rejected(self, capsys):
        assert main(["sweep", "--family", "bit-flip", "--stop", "inf"] + FAST) == EXIT_USAGE

    def test_uncomputed_columns_are_nan(self, capsys):
        _, report = run(
            capsys,
            ["sweep", "--family", "bit-flip", "--start", "0.2", "--stop", "0.2",
             "--step", "0.1", "--which", "shannon"] + FAST,
        )
        row = result_value(report, "rows")[0]
        assert row["holevo"] != row["holevo"]  # NaN


class TestConfigValidation:
    @pytest.mark.parametrize("which", ["shannon", "holevo", "uep"])
    def test_zero_restarts(self, capsys, identity_spec, which):
        code = main(["capacity", identity_spec, "--which", which, "--restarts", "0"])
        assert code == EXIT_INVARIANT
        assert "restarts" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol(self, capsys, identity_spec, tol):
        code = main(["capacity", identity_spec, "--tol", tol])
        assert code == EXIT_INVARIANT
        assert "tol" in capsys.readouterr().err

    def test_negative_max_iters(self, capsys, identity_spec):
        code = main(["capacity", identity_spec, "--max-iters", "-1"])
        assert code == EXIT_INVARIANT
        assert "max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["shannon", "holevo", "uep"])
    def test_negative_seed(self, capsys, identity_spec, which):
        code = main(["capacity", identity_spec, "--which", which, "--seed", "-1"])
        assert code == EXIT_INVARIANT
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, cap", [("--povm-cap", "1000000000"), ("--ensemble-cap", "257"), ("--povm-cap", "1")])
    def test_size_cap_out_of_range(self, capsys, identity_spec, flag, cap):
        # rejected before any array of that size is allocated
        code = main(["capacity", identity_spec, flag, cap])
        assert code == EXIT_INVARIANT
        assert "size caps" in capsys.readouterr().err

    @pytest.mark.parametrize("indent", ["17", "1000000000", "-1"])
    def test_json_indent_out_of_range(self, capsys, identity_spec, indent):
        # rejected while parsing, before any report is written
        assert main(["channel-info", identity_spec, "--json-indent", indent]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--json-indent" in captured.err

    def test_json_indent_at_the_bound(self, capsys, identity_spec):
        assert main(["channel-info", identity_spec, "--json-indent", "16"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("{\n" + " " * 16 + '"command"')

    def test_negative_seed_identity_check(self, capsys):
        code = main(["identity-check", "--instances", "1", "--seed", "-1"])
        assert code == EXIT_INVARIANT
        assert "seed" in capsys.readouterr().err


class TestBoundFailures:
    """A failed check exits 3 with the whole report, marking only the failing entry."""

    def failing(self, capsys, argv):
        code, report = run(capsys, argv)
        assert code == EXIT_BOUND
        assert list(report) == ["command", "channel_spec_digest", "config", "results", "seed", "wall_time"]
        return [entry["name"] for entry in report["results"] if entry.get("passed") is False], report

    def test_holevo_below_shannon(self, capsys, monkeypatch, identity_spec):
        holevo = cli._ESTIMATORS["holevo"]

        @functools.wraps(holevo)
        def low_holevo(ch, cfg):
            return replace(holevo(ch, cfg), value=0.5)  # the identity's Shannon capacity is 1

        monkeypatch.setitem(cli._ESTIMATORS, "holevo", low_holevo)
        failed, report = self.failing(capsys, ["capacity", identity_spec, "--which", "all"] + FAST)
        assert failed == ["ordering_shannon_le_holevo"]
        assert result_value(report, "holevo_capacity") == 0.5
        assert result_value(report, "ordering_shannon_le_uep") == pytest.approx(0.0, abs=1e-3)

    def test_conditional_best_above_capacity_sum(self, capsys, monkeypatch, identity_spec):
        monkeypatch.setattr(cli, "additivity_experiment", lambda ch1, ch2, cfg: AdditivityReport(1.0, 1.0, 2.5, 2.0))
        failed, report = self.failing(capsys, ["additivity", identity_spec] + FAST)
        assert failed == ["upper_bound"]
        assert result_value(report, "upper_bound") == -0.5

    def test_quantum_chain_gap(self, capsys, monkeypatch):
        check = cli.chain_identity_check
        monkeypatch.setattr(cli, "chain_identity_check", lambda *a: (*check(*a)[:2], 1e-6))
        failed, report = self.failing(capsys, ["identity-check", "--instances", "3"] + FAST)
        assert failed == ["max_gap_quantum_chain"]
        assert result_value(report, "max_gap_quantum_chain") == 1e-6

    @pytest.mark.parametrize("command", ["capacity", "channel-info", "additivity"])
    def test_config_checked_before_spec(self, capsys, command):
        assert main([command, "/nonexistent.json", "--restarts", "0"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == "" and "restarts" in captured.err


class TestChannelInfoCommand:
    def test_mixed_shape_spec_is_a_spec_error(self, capsys, tmp_path):
        spec = tmp_path / "mixed.json"
        states = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([1.0, 0.0, 0.0]))]
        povm = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]
        spec.write_text(json.dumps({"kind": "qc", "states": states, "povm": povm}))
        assert main(["channel-info", str(spec)]) == EXIT_USAGE
        assert "output state 1 has shape (3, 3)" in capsys.readouterr().err

    def test_nan_spec_is_an_invariant_violation(self, capsys, tmp_path):
        spec = tmp_path / "nan.json"
        spec.write_text('{"kind": "kraus", "operators": [[[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}')
        assert main(["channel-info", str(spec)]) == EXIT_INVARIANT
        assert "Kraus operator 0 has a non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"kind": "depolarizing", "p": ' + "1" * 5000 + "}", "digits"),  # past the int-to-string limit
            ('{"kind": "kraus", "operators": ' + "[" * 100_000 + "]" * 100_000 + "}", "recursion"),
        ],
        ids=["huge-integer", "deep-nesting"],
    )
    def test_json_the_parser_refuses_is_a_spec_error(self, capsys, tmp_path, text, reason):
        # json.loads raises a plain ValueError or RecursionError here, not a JSONDecodeError
        spec = tmp_path / "refused.json"
        spec.write_text(text)
        assert main(["channel-info", str(spec)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and reason in err

    @pytest.mark.parametrize("kind", ["identity", "completely-noisy"])
    @pytest.mark.parametrize("dim", ["0", "17", "2.7", "true", '"3"'])
    def test_dim_outside_scope_is_a_spec_error(self, capsys, tmp_path, kind, dim):
        # one exit code for both kinds; 17 is rejected before any array is built
        spec = tmp_path / "dim.json"
        spec.write_text(f'{{"kind": "{kind}", "dim": {dim}}}')
        assert main(["channel-info", str(spec)]) == EXIT_USAGE
        assert "'dim' must be an integer in [1, 16]" in capsys.readouterr().err

    def test_reports_shape(self, capsys, identity_spec):
        code, report = run(capsys, ["channel-info", identity_spec])
        assert code == EXIT_OK
        assert result_value(report, "dim_in") == 2
        assert result_value(report, "kraus_count") == 1
        assert result_value(report, "trace_preservation_deviation") < 1e-12


class TestDeterminism:
    def test_reports_identical_modulo_wall_time(self, capsys, identity_spec):
        argv = ["capacity", identity_spec, "--which", "shannon", "--seed", "5"] + FAST
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        first.pop("wall_time")
        second.pop("wall_time")
        assert json.dumps(first) == json.dumps(second)

    def test_identity_check_deterministic(self, capsys):
        argv = ["identity-check", "--instances", "10", "--seed", "3"] + FAST
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        first.pop("wall_time")
        second.pop("wall_time")
        assert json.dumps(first) == json.dumps(second)


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_family(self):
        assert main(["sweep", "--family", "nonsense"]) == EXIT_USAGE

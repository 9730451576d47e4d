import csv
import json

import pytest

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

    def test_depth_three(self, capsys, tmp_path):
        spec = tmp_path / "bf.json"
        spec.write_text('{"kind": "bit-flip", "p": 0.1}')
        code, report = run(capsys, ["additivity", str(spec), "--depth", "3"] + FAST)
        assert code == EXIT_OK
        bound = 3 * result_value(report, "single_copy_capacity")
        assert result_value(report, "conditional_best_depth3") <= bound + 2e-3


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

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_bad_step_rejected_before_the_loop(self, capsys, step):
        code = main(["sweep", "--family", "bit-flip", "--step", step] + FAST)
        assert code == EXIT_USAGE
        assert "--step" in capsys.readouterr().err

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

    def test_negative_seed_identity_check(self, capsys):
        code = main(["identity-check", "--instances", "1", "--seed", "-1"])
        assert code == EXIT_INVARIANT
        assert "seed" in capsys.readouterr().err


class TestChannelInfoCommand:
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

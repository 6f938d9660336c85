import json
import time
import tracemalloc

import numpy as np
import pytest

from armakit import cli
from conftest import identity_ma


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErfCommand:
    def test_analytic_table(self, capsys):
        code, out, _ = run(capsys, "erf", "--layers", "3,1,0.0", "--mode", "analytic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer,taps,dilation,ar_coeff,variance_term,total_radius"
        cells = lines[1].split(",")
        assert float(cells[4]) == pytest.approx(2 / 3)
        assert float(cells[5]) == pytest.approx(0.81650, abs=1e-5)

    def test_analytic_multi_layer_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "erf", "--layers", "3,1,0.5;5,2,0.25", "--mode", "analytic",
            "--out", str(out_path),
        )
        assert code == 0 and out == ""
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_empirical_1d_variance(self, capsys):
        code, out, _ = run(capsys, "erf", "--layers", "3,1,0.5", "--mode", "empirical-1d")
        assert code == 0
        summary = json.loads(out)
        assert summary["axis_variance"] == pytest.approx(8 / 3, rel=1e-3)

    def test_empirical_2d_outputs(self, capsys, tmp_path):
        out_path = tmp_path / "heat.csv"
        code, out, _ = run(
            capsys, "erf", "--layers", "3,1,0.5;3,1,0.5", "--mode", "empirical-2d",
            "--grid", "48", "--out", str(out_path),
        )
        assert code == 0
        heat = np.array([
            [float(c) for c in line.split(",")]
            for line in out_path.read_text().strip().splitlines()
        ])
        assert heat.shape == (48, 48)
        assert heat.sum() == pytest.approx(1.0, abs=1e-9)
        sidecar = json.loads(out_path.with_suffix(".json").read_text())
        assert sidecar == json.loads(out)
        assert sidecar["axis_variance_x"] == pytest.approx(16 / 3, abs=1e-5)

    def test_wraparound_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "erf", "--layers", "3,1,0.9;3,1,0.9", "--mode", "empirical-2d",
            "--grid", "32", "--out", str(tmp_path / "h.csv"),
        )
        assert code == 2
        assert "numeric failure" in err

    @pytest.mark.parametrize("channels", ["0", "-1"])
    def test_nonpositive_channels_exit_code(self, capsys, tmp_path, channels):
        code, _, err = run(
            capsys, "erf", "--layers", "3,1,0.5", "--mode", "empirical-2d",
            "--kernels", "xavier", "--channels", channels, "--grid", "32",
            "--out", str(tmp_path / "h.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and f"got {channels}" in err

    @pytest.mark.parametrize("mode", ["empirical-1d", "empirical-2d"])
    @pytest.mark.parametrize("truncation", ["0", "1", "2"])
    def test_truncation_outside_unit_interval_exit_code(self, capsys, tmp_path, mode, truncation):
        code, _, err = run(
            capsys, "erf", "--layers", "3,1,0.5", "--mode", mode,
            "--truncation", truncation, "--grid", "32", "--out", str(tmp_path / "h.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and "truncation" in err

    def test_ma_support_beyond_tap_limit_exit_code(self, capsys, tmp_path):
        layers = "1048577,1,0.0"  # 2^20 + 1 taps, one over the limit
        for mode in ("empirical-1d", "empirical-2d"):
            code, _, err = run(
                capsys, "erf", "--layers", layers, "--mode", mode,
                "--grid", "32", "--out", str(tmp_path / "h.csv"),
            )
            assert code == 1
            assert err.startswith("error:") and "taps 1048577 at dilation 1" in err
        code, out, _ = run(capsys, "erf", "--layers", layers, "--mode", "analytic")
        assert code == 0 and out.startswith("layer,")

    def test_malformed_layers_exit_code(self, capsys):
        code, _, err = run(capsys, "erf", "--layers", "3;1;0")
        assert code == 1
        code, _, _ = run(capsys, "erf", "--layers", "3,1")
        assert code == 1

    def test_missing_layers(self, capsys):
        code, _, _ = run(capsys, "erf", "--mode", "analytic")
        assert code == 1

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "erf.json"
        config.write_text(json.dumps({"layers": "3,1,0.0", "mode": "analytic"}))
        code, out, _ = run(capsys, "erf", "--config", str(config))
        assert code == 0 and "0.816" in out
        # flag overrides the config value
        code, out, _ = run(capsys, "erf", "--config", str(config), "--layers", "3,1,0.5")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[5]) == pytest.approx(1.63299, abs=1e-5)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "erf.json"
        config.write_text(json.dumps({"layers": "3,1,0.0", "grdi": 32}))
        code, _, err = run(capsys, "erf", "--config", str(config))
        assert code == 1
        assert "grdi" in err

    def test_seeded_heatmaps_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "erf", "--layers", "3,1,0.5;3,1,0.5", "--mode", "empirical-2d",
                "--grid", "32", "--kernels", "xavier", "--channels", "2",
                "--seed", "13", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].with_suffix(".json").read_bytes() == paths[1].with_suffix(".json").read_bytes()


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "gradcheck", "--size", "6", "--channels", "1,1",
            "--q", "1", "--seed", "7", "--tol", "1e-5",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"x", "w", "alpha_f", "beta_f", "alpha_g", "beta_g"}
        assert max(report.values()) < 1e-5

    def test_impossible_tolerance_fails_with_coordinates(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--tol", "1e-15")
        assert code == 2
        assert "rel err" in err

    def test_size_guard(self, capsys):
        code, _, _ = run(capsys, "gradcheck", "--size", "70")
        assert code == 1

    @pytest.mark.parametrize("q", ["0", "3", "200000"])
    def test_q_outside_footprint_refused_before_building(self, capsys, q):
        # at size 6 a cascade of q factors spans 2q+1 > 6 from q = 3; q = 200000
        # once spent over 20 s composing the cascade before the refusal
        begin = time.perf_counter()
        code, out, err = run(capsys, "gradcheck", f"--q={q}")
        assert time.perf_counter() - begin < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: --q must be in [1, 2]")


class TestStabilityCommand:
    def test_stable_filter_report(self, capsys):
        code, out, _ = run(capsys, "stability", "--filter", "0.3,1,0.5")
        assert code == 0
        report = json.loads(out)
        assert report["stable"] is True
        assert report["sum"] == pytest.approx(0.8)
        assert report["moduli"][0] == pytest.approx(0.6126, abs=1e-4)
        assert report["moduli"][1] == pytest.approx(2.7208, abs=1e-4)

    def test_unstable_filter_on_unit_circle(self, capsys):
        code, out, _ = run(capsys, "stability", "--filter", "0.75,1,0.75")
        assert code == 0
        report = json.loads(out)
        assert report["stable"] is False
        assert report["moduli"] == pytest.approx([1.0, 1.0])

    def test_reparam_origin(self, capsys):
        code, out, _ = run(capsys, "stability", "--reparam", "0,0")
        assert code == 0
        report = json.loads(out)
        assert report["stable"] is True
        assert report["taps"] == [0.0, 1.0, 0.0]

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "stability", "--scan", "2000", "--seed", "11")
        assert code == 0
        assert json.loads(out)["all_stable"] is True

    def test_scan_reports_failures(self, capsys, monkeypatch):
        # no reparam point fails, so a zero test that refuses every third row
        # stands in for one; the first ten failing points go to stderr
        monkeypatch.setattr(
            cli.filters, "straddles_unit_circle", lambda taps: np.arange(len(taps)) % 3 != 0
        )
        drawn = []
        materialize = cli.filters.materialize
        monkeypatch.setattr(cli.filters, "materialize", lambda p: drawn.append(p) or materialize(p))
        code, out, err = run(capsys, "stability", "--scan", "40", "--seed", "11")
        assert code == cli.EXIT_NUMERIC
        assert json.loads(out) == {"scanned": 40, "all_stable": False, "failures": 14}
        lines = err.splitlines()
        assert len(lines) == 10
        assert all(line.startswith("unstable materialization at alpha=") for line in lines)
        assert not any("np.float64" in line for line in lines)
        printed = [[float(field.split("=")[1]) for field in line.split()[-2:]] for line in lines]
        assert printed == drawn[0][::3][:10].tolist()

    def test_scan_count_above_cap_rejected_before_allocation(self, capsys):
        # the points of a cap+1 scan would take 16 MB; the check comes first
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "stability", "--scan", str(cli.SCAN_LIMIT + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith("error:") and "scan" in err and str(cli.SCAN_LIMIT) in err
        assert peak < 1_000_000

    def test_requires_exactly_one_selector(self, capsys):
        assert run(capsys, "stability")[0] == 1
        assert run(capsys, "stability", "--filter", "0,1,0", "--scan", "5")[0] == 1

    @pytest.mark.parametrize("beta, stable", [("19", True), ("20", False)])
    def test_reparam_at_float64_tanh_edge(self, capsys, beta, stable):
        code, out, _ = run(capsys, "stability", "--reparam", "0," + beta)
        assert code == 0
        report = json.loads(out)
        assert report["stable"] is stable
        assert (report["sum"] < 1.0) is stable

    def test_nonpositive_center_tap_is_usage_error(self, capsys):
        assert run(capsys, "stability", "--filter", "0.3,0,0.5")[0] == 1


class TestSolveCommand:
    def test_identity_kernels_echo_input(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3,4\n")
        code, out, _ = run(capsys, "solve", "--input", str(field))
        assert code == 0
        assert [float(v) for v in out.strip().splitlines()[0].split(",")] == [1, 2]

    def test_geometric_fixture(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,0,0,0\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({"mode": "raw", "f": [[[0, 1, -0.5]]], "g": [[[0, 1, 0]]]}))
        code, out, _ = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 0
        values = [float(v) for v in out.strip().split(",")]
        assert values == pytest.approx([1.06667, 0.53333, 0.26667, 0.13333], abs=1e-5)

    def test_oracle_deviation(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        field = tmp_path / "x.csv"
        np.savetxt(field, rng.standard_normal((8, 8)), delimiter=",")
        kernel = tmp_path / "k.csv"
        np.savetxt(kernel, rng.standard_normal((3, 3)) * 0.4, delimiter=",")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({
            "mode": "reparam",
            "alpha_f": [[0.5]], "beta_f": [[-0.8]],
            "alpha_g": [[-0.2]], "beta_g": [[0.3]],
        }))
        out_path = tmp_path / "y.csv"
        code, out, _ = run(
            capsys, "solve", "--input", str(field), "--ma-kernel", str(kernel),
            "--ar-config", str(ar), "--out", str(out_path), "--oracle",
        )
        assert code == 0
        assert json.loads(out)["max_deviation"] < 1e-8

    def test_singular_spectrum_exit_code(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,0,0,0\n0,0,0,0\n1,0,0,0\n0,0,0,0\n")
        ar = tmp_path / "ar.json"
        # symmetric taps with sum -1 null the Nyquist mode
        ar.write_text(json.dumps({"mode": "raw", "f": [[[-0.5, 1, -0.5]]], "g": [[[0, 1, 0]]]}))
        code, _, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 2
        assert "numeric failure" in err

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_nonpositive_repeats_exit_code(self, capsys, tmp_path, repeats):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3,4\n")
        code, out, err = run(
            capsys, "solve", "--input", str(field), "--out", str(tmp_path / "y.csv"),
            "--timing", "--repeats", repeats,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "repeats" in err

    @pytest.mark.parametrize("depth", [True, 2.9, "3", 0, 5])
    def test_identity_depth_must_be_integer_within_field(self, capsys, tmp_path, depth):
        field = tmp_path / "x.csv"
        field.write_text("1,0,0,0\n0,0,0,0\n1,0,0,0\n0,0,0,0\n")  # larger side 4
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({"mode": "identity", "depth": depth}))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed AR config") and "depth" in err

    @pytest.mark.parametrize("spec", [[1, 2], "x", 3])
    def test_ar_config_must_be_json_object(self, capsys, tmp_path, spec):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3,4\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps(spec))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed AR config") and str(ar) in err
        assert "JSON object" in err

    @pytest.mark.parametrize("spec, entry", [
        ({"mode": "raw", "f": [[[0, 1, None]]], "g": [[[0, 1, 0]]]}, "f[0][0][2]"),
        ({"mode": "reparam", "alpha_f": [[None]], "beta_f": [[0]],
          "alpha_g": [[0]], "beta_g": [[0]]}, "alpha_f[0][0]"),
    ], ids=["raw", "reparam"])
    def test_non_finite_ar_entry_is_usage_error(self, capsys, tmp_path, spec, entry):
        # a JSON null reads as NaN; it is refused when the kernel is built,
        # before any solve can warn or divide by it
        field = tmp_path / "x.csv"
        field.write_text("1,2,3\n4,5,6\n7,8,9\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps(spec))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err.startswith(f"error: malformed AR config {ar}: ")
        assert entry in err and "not a finite number" in err

    def test_identity_depth_up_to_field_side_echoes_input(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,2,3\n4,5,6\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({"mode": "identity", "depth": 3}))
        code, out, _ = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 0
        assert [float(v) for v in out.strip().splitlines()[1].split(",")] == [4, 5, 6]

    def test_ragged_csv_rejected(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3\n")
        assert run(capsys, "solve", "--input", str(field))[0] == 1

    def test_output_round_trips_losslessly(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        field = tmp_path / "x.csv"
        np.savetxt(field, rng.standard_normal((5, 5)), delimiter=",")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({
            "mode": "reparam", "alpha_f": [[0.1]], "beta_f": [[0.9]],
            "alpha_g": [[0.0]], "beta_g": [[-1.2]],
        }))
        out_path = tmp_path / "y.csv"
        code, _, _ = run(
            capsys, "solve", "--input", str(field), "--ar-config", str(ar),
            "--out", str(out_path),
        )
        assert code == 0
        from armakit import FieldTensor, SeparableArKernel, layer_forward

        kernel = SeparableArKernel.from_arrays([[0.1]], [[0.9]], [[0.0]], [[-1.2]])
        x = FieldTensor(np.loadtxt(field, delimiter=",")[:, :, None])
        want, _ = layer_forward(x, identity_ma(), kernel)
        got = np.loadtxt(out_path, delimiter=",")
        assert np.array_equal(got, want.plane())  # 17 digits reproduce doubles


class TestTrainCommand:
    def test_reparam_short_run(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "train", "--mode", "reparam", "--steps", "5", "--size", "24",
            "--samples", "1", "--sigma", "2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,max_abs_output,mean_abs_ar_sum"
        assert len(lines) == 6

    def test_raw_mode_divergence_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "train", "--mode", "raw", "--steps", "500", "--out", str(out_path),
        )
        assert code == 3
        assert "diverged" in err

    def test_zero_steps_is_usage_error(self, capsys):
        assert run(capsys, "train", "--steps", "0")[0] == 1

    @pytest.mark.parametrize("flag, value, name", [
        ("clip", "-1", "clip_norm"), ("clip", "0", "clip_norm"),
        ("clip", "nan", "clip_norm"), ("clip", "inf", "clip_norm"),
        ("lr", "nan", "learning_rate"), ("lr", "inf", "learning_rate"),
        ("sigma", "0", "sigma"), ("sigma", "-1", "sigma"),
        ("sigma", "nan", "sigma"), ("sigma", "inf", "sigma"),
        ("raw-sum", "nan", "raw_tap_sum"),
    ])
    def test_numbers_that_break_training_are_usage_errors(self, capsys, flag, value, name):
        code, out, err = run(
            capsys, "train", "--size", "40", "--samples", "1", "--sigma", "2",
            f"--{flag}={value}",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [("--clip", "1e9"), ("--steps", "3", "--lr", "1e14")])
    def test_reparam_factor_rounded_out_of_stable_region_is_usage_error(self, capsys, argv):
        # a huge step pushes (alpha, beta) where float64 rounds the tap sum to +-1
        code, out, err = run(capsys, "train", "--size", "40", "--sigma", "2", "--samples", "1", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "left the stable region" in err
        assert "Traceback" not in err

    def test_kernel_larger_than_field_is_usage_error(self, capsys):
        code, out, err = run(capsys, "train", "--task", "zero", "--size", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "footprint" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "train", "--steps", "4", "--size", "24", "--samples", "3",
                "--sigma", "2", "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestParser:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "erf", "--layerz", "3,1,0")[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "transmogrify")[0] == 1

    @pytest.mark.parametrize("command, config", [
        ("erf", {"layers": "3,1,0.5", "grid": 1.7}),
        ("train", {"steps": 2.9}),
        ("solve", {"oracle": "no"}),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, capsys, tmp_path, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        field = tmp_path / "x.csv"
        field.write_text("1,0\n0,0\n")
        extra = ["--input", str(field), "--out", str(tmp_path / "y.csv")] if command == "solve" else []
        code, _, err = run(capsys, command, "--config", str(path), *extra)
        assert code == 1
        key = list(config)[-1]
        assert err.startswith("error:") and f"config key {key!r}" in err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_table_defaults_pass_their_own_config_check(self, tmp_path, command):
        flags = cli.COMMANDS[command][2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            name: default for name, _, default, _, _ in flags if default is not None
        }))
        parser = cli.build_parser()
        from_config = cli._resolve(parser.parse_args([command, "--config", str(path)]))
        assert from_config == cli._resolve(parser.parse_args([command]))

    @pytest.mark.parametrize("argv, text", [
        (("stability", "--filter", "1,2"), "'1,2'"),
        (("stability", "--reparam", "a,b"), "'a,b'"),
        (("gradcheck", "--channels", "1,x"), "'1,x'"),
        (("train", "--channels", "1,,1"), "'1,,1'"),
    ])
    def test_malformed_list_is_usage_error(self, capsys, argv, text):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and text in err

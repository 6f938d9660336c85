import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from armakit import cli
from conftest import identity_ma

IDENTITY_TAPS = [0.0, 1.0, 0.0]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_csv_refused(capsys, field, message):
    """``solve`` refuses the CSV ``field`` with exit 1, ``error: message`` and
    no warning, and writes no output."""
    out_path = field.with_name("refused-out.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "solve", "--input", str(field), "--out", str(out_path))
    assert not caught
    assert code == 1 and out == "" and err == f"error: {message}\n"
    assert not out_path.exists()


def strict_json(text):
    """``json.loads`` that raises on ``NaN``, ``Infinity`` and ``-Infinity``,
    which Python writes by default but which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_strict_json_refuses_non_finite_constants():
    assert strict_json('{"a": [1.5, -0.0]}') == {"a": [1.5, -0.0]}
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match=constant):
            strict_json(f'{{"a": {constant}}}')


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
        summary = strict_json(out)
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
        sidecar = strict_json(out_path.with_suffix(".json").read_text())
        assert sidecar == strict_json(out)
        assert sidecar["axis_variance_x"] == pytest.approx(16 / 3, abs=1e-5)

    def test_empirical_1d_writes_offset_weight_csv(self, capsys, tmp_path):
        out_path = tmp_path / "erf.csv"
        code, out, _ = run(
            capsys, "erf", "--layers", "3,1,0.0", "--mode", "empirical-1d", "--out", str(out_path),
        )
        assert code == 0
        assert strict_json(out)["axis_variance"] == pytest.approx(2 / 3)
        rows = np.loadtxt(out_path, delimiter=",", ndmin=2)
        # three uniform taps, reversed onto the non-positive offsets
        assert rows[:, 0].tolist() == [-2, -1, 0]
        assert rows[:, 1] == pytest.approx([1 / 3] * 3)

    def test_empirical_2d_needs_out(self, capsys):
        code, out, err = run(capsys, "erf", "--layers", "3,1,0.5", "--mode", "empirical-2d")
        assert code == 1 and out == ""
        assert err == "error: empirical-2d writes a heatmap and needs --out\n"

    def test_ma_footprint_beyond_grid_exit_code(self, capsys, tmp_path):
        # five taps at dilation 3 span d*(K-1) = 12, which a 12-point grid
        # cannot hold: a fifth of the mass wraps, whatever the window
        code, out, err = run(
            capsys, "erf", "--layers", "5,3,0", "--mode", "empirical-2d", "--grid", "12",
            "--out", str(tmp_path / "h.csv"),
        )
        assert code == 2 and out == ""
        assert err.startswith("numeric failure: composed filter leaks 2.000e-01")

    def test_grid_below_two_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "erf", "--layers", "3,1,0.5", "--mode", "empirical-2d", "--grid", "1",
            "--out", str(tmp_path / "h.csv"),
        )
        assert code == 1 and out == ""
        assert err == "error: grid must be at least 2, got 1\n"

    @pytest.mark.parametrize("flag, value, extra", [
        ("channels", "5000", ("--kernels", "xavier", "--seed", "0")),
        ("grid", "100000", ()),
    ])
    def test_working_set_over_budget_refused_before_allocation(
        self, capsys, tmp_path, flag, value, extra
    ):
        # tens of GiB asked for; the estimate comes before any of it
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "erf", "--layers", "3,1,0.5", "--mode", "empirical-2d",
                f"--{flag}", value, *extra, "--out", str(tmp_path / "h.csv"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith("error: the 2D map needs about ") and f"--{flag} {value}" in err
        assert "working-set limit is 1 GiB" in err
        assert peak < 2**20
        assert not (tmp_path / "h.csv").exists()

    def test_working_set_refusal_follows_support_refusal(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "erf", "--layers", "3,600000,0", "--mode", "empirical-2d", "--grid", "100000",
            "--out", str(tmp_path / "h.csv"),
        )
        assert code == 1
        assert err.startswith("error: moving-average taps 3 at dilation 600000 span")

    def test_benchmark_shape_within_working_set(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "erf", "--layers", "3,1,0.5;3,1,0.5;3,1,0.5;3,1,0.5", "--mode", "empirical-2d",
            "--kernels", "xavier", "--channels", "8", "--seed", "0", "--grid", "128",
            "--out", str(tmp_path / "h.csv"),
        )
        assert code == 0

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

    @pytest.mark.parametrize("mode", ["empirical-1d", "empirical-2d"])
    def test_filter_work_over_cap_refused_fast(self, capsys, tmp_path, mode):
        # 276,297 inverse taps times a 1,000,001-tap support pass both 2^20
        # checks; np.convolve would run for minutes, so the product is refused
        begin = time.perf_counter()
        code, out, err = run(
            capsys, "erf", "--layers", "1000001,1,0.9999", "--mode", mode,
            "--out", str(tmp_path / "h.csv"),
        )
        assert time.perf_counter() - begin < 0.5
        assert code == 1 and out == ""
        assert err == (
            "error: --layers entry 1000001,1,0.9999 convolves 276297 inverse taps with a "
            "1000001-tap support, about 2.76e+11 multiply-adds; the limit is 1.07e+09\n"
        )
        assert not (tmp_path / "h.csv").exists()

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
        report = strict_json(out)
        assert set(report) == {"x", "w", "alpha_f", "beta_f", "alpha_g", "beta_g"}
        assert max(report.values()) < 1e-5

    def test_impossible_tolerance_fails_with_coordinates(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--tol", "1e-15")
        assert code == 2
        assert "rel err" in err

    def test_size_guard(self, capsys):
        code, _, _ = run(capsys, "gradcheck", "--size", "70")
        assert code == 1

    def test_size_guard_names_flag_and_pixels(self, capsys, monkeypatch):
        # 65^2 = 4225 pixels are refused; 64^2 = 4096 pass the guard
        built = []
        monkeypatch.setattr(cli, "gradcheck_report", lambda **kw: built.append(kw) or ({}, []))
        code, out, err = run(capsys, "gradcheck", "--size", "65")
        assert code == 1 and out == "" and not built
        assert err == "error: --size 65 gives 4225 pixels, over the 4096-pixel gradcheck guard\n"
        code, _, err = run(capsys, "gradcheck", "--size", "64")
        assert code == 0 and err == ""
        assert [kw["size"] for kw in built] == [64]

    @pytest.mark.parametrize("q", ["0", "3", "200000"])
    def test_q_outside_footprint_refused_before_building(self, capsys, q):
        # at size 6 a cascade of q factors spans 2q+1 > 6 from q = 3; q = 200000
        # once spent over 20 s composing the cascade before the refusal
        begin = time.perf_counter()
        code, out, err = run(capsys, "gradcheck", f"--q={q}")
        assert time.perf_counter() - begin < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: --q must be in [1, 2]")


    def test_working_set_over_budget_refused_before_building(self, capsys, monkeypatch):
        # (64, 33, 1000, 1000) complex W_hat alone is 34 GB
        monkeypatch.setattr(cli, "gradcheck_report", lambda **kw: pytest.fail("built"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gradcheck", "--size", "64", "--channels", "1000,1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert err == (
            "error: the gradient check needs about 63.2 GiB for --size 64 and "
            "--channels 1000,1000; the working-set limit is 1 GiB\n"
        )
        assert peak < 2**20

    def test_working_set_budget_boundary(self, capsys, monkeypatch):
        # 16*64*33*(2*124*124 + 4*248) bytes fit 1 GiB; 125,125 do not
        built = []
        monkeypatch.setattr(cli, "gradcheck_report", lambda **kw: built.append(kw) or ({}, []))
        assert run(capsys, "gradcheck", "--size", "64", "--channels", "124,124")[0] == 0
        code, _, err = run(capsys, "gradcheck", "--size", "64", "--channels", "125,125")
        assert code == 1 and "--channels 125,125" in err
        assert [(kw["in_channels"], kw["out_channels"]) for kw in built] == [(124, 124)]

    @pytest.mark.parametrize("argv, flag", [
        (("--tol=nan",), "--tol"), (("--tol=inf",), "--tol"), (("--tol=-1",), "--tol"),
        (("--size=0",), "--size"), (("--size=2",), "--size"),
        (("--channels=0,1",), "--channels"), (("--channels=1,-1",), "--channels"),
    ])
    def test_numbers_that_void_the_verdict_are_usage_errors(self, capsys, monkeypatch, argv, flag):
        # a NaN or infinite tolerance passes every coordinate, a negative one
        # fails every one; all are refused before anything is built
        monkeypatch.setattr(cli, "gradcheck_report", lambda **kw: pytest.fail("built"))
        code, out, err = run(capsys, "gradcheck", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} ")


class TestStabilityCommand:
    def test_stable_filter_report(self, capsys):
        code, out, _ = run(capsys, "stability", "--filter", "0.3,1,0.5")
        assert code == 0
        report = strict_json(out)
        assert report["stable"] is True
        assert report["sum"] == pytest.approx(0.8)
        assert report["moduli"][0] == pytest.approx(0.6126, abs=1e-4)
        assert report["moduli"][1] == pytest.approx(2.7208, abs=1e-4)

    def test_unstable_filter_on_unit_circle(self, capsys):
        code, out, _ = run(capsys, "stability", "--filter", "0.75,1,0.75")
        assert code == 0
        report = strict_json(out)
        assert report["stable"] is False
        assert report["moduli"] == pytest.approx([1.0, 1.0])

    def test_reparam_origin(self, capsys):
        code, out, _ = run(capsys, "stability", "--reparam", "0,0")
        assert code == 0
        report = strict_json(out)
        assert report["stable"] is True
        assert report["taps"] == [0.0, 1.0, 0.0]

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "stability", "--scan", "2000", "--seed", "11")
        assert code == 0
        assert strict_json(out)["all_stable"] is True

    def test_scan_reports_failures(self, capsys, monkeypatch):
        # no reparam point fails, so a tap-sum test that refuses every third row
        # stands in for one; the first ten failing points go to stderr
        monkeypatch.setattr(
            cli.filters, "stable_factors", lambda taps: np.arange(len(taps)) % 3 != 0
        )
        drawn = []
        materialize = cli.filters.materialize
        monkeypatch.setattr(cli.filters, "materialize", lambda p: drawn.append(p) or materialize(p))
        code, out, err = run(capsys, "stability", "--scan", "40", "--seed", "11")
        assert code == cli.EXIT_NUMERIC
        assert strict_json(out) == {"scanned": 40, "all_stable": False, "failures": 14}
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

    def test_scan_peak_memory(self, capsys):
        # the points, their taps and materialize's temporaries peak at
        # 8.15 MB here, the bound is 8% above it
        run(capsys, "stability", "--scan", "10")  # imports and first-call setup
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "stability", "--scan", "100000", "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and strict_json(out)["failures"] == 0
        assert peak < 8_800_000

    def test_requires_exactly_one_selector(self, capsys):
        assert run(capsys, "stability")[0] == 1
        assert run(capsys, "stability", "--filter", "0,1,0", "--scan", "5")[0] == 1

    @pytest.mark.parametrize("beta, below_one", [("19", True), ("20", False)])
    def test_reparam_at_float64_tanh_edge(self, capsys, beta, below_one):
        # materialize clamps math.tanh(20) = 1 below 1, so both are stable
        code, out, _ = run(capsys, "stability", "--reparam", "0," + beta)
        assert code == 0
        report = strict_json(out)
        assert report["stable"] is True
        assert report["sum"] == (math.tanh(float(beta)) if below_one else np.nextafter(1.0, 0.0))

    def test_nonpositive_center_tap_is_usage_error(self, capsys):
        assert run(capsys, "stability", "--filter", "0.3,0,0.5")[0] == 1

    @pytest.mark.parametrize("flag, value", [
        ("filter", "inf,1,0.5"), ("filter", "nan,1,0.5"), ("filter", "0.3,-inf,0.5"),
        ("reparam", "0,inf"), ("reparam", "inf,0"), ("reparam", "nan,0"),
    ])
    def test_non_finite_input_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "stability", f"--{flag}={value}")
        assert code == 1 and out == ""
        assert err == f"error: --{flag} takes finite numbers, got {value!r}\n"

    @pytest.mark.parametrize("flag, value", [
        ("filter", "1e308,1,1e308"),  # the tap sum overflows
        ("filter", "-1e308,1,-1e308"),
        ("filter", "1e-320,1,0.5"),  # the larger zero, about -f0/fm1, overflows
        ("filter", "0,1e-320,0.5"),  # the one zero of a linear factor overflows
        ("reparam", "1e-320,0"),
        # the tap sum rounds to 0 (stable) and both zero moduli to 1
        ("reparam", "1e16,0.5"),
        ("reparam", "1e308,0"),
    ])
    def test_report_value_beyond_float64_is_usage_error(self, capsys, flag, value):
        # the suite turns warnings into errors, so none may escape either
        code, out, err = run(capsys, "stability", f"--{flag}={value}")
        assert code == 1 and out == ""
        assert err.startswith(f"error: --{flag} taps ") and "beyond float64's range" in err

    def test_extreme_but_representable_taps_are_reported(self, capsys):
        code, out, _ = run(capsys, "stability", "--filter", "1e300,1,1e300")
        assert code == 0
        report = strict_json(out)
        assert report["stable"] is False and report["sum"] == 2e300


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
        assert strict_json(out)["max_deviation"] < 1e-8

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
        assert err.startswith("error: invalid AR config") and "depth" in err

    @pytest.mark.parametrize("spec", [[1, 2], "x", 3])
    def test_ar_config_must_be_json_object(self, capsys, tmp_path, spec):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3,4\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps(spec))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err.startswith("error: invalid AR config") and str(ar) in err
        assert "JSON object" in err

    @pytest.mark.parametrize("spec, entry", [
        ({"mode": "raw", "f": [[[0, 1, None]]], "g": [[[0, 1, 0]]]}, "f[0][0][2]"),
        ({"mode": "reparam", "alpha_f": [[None]], "beta_f": [[0]],
          "alpha_g": [[0]], "beta_g": [[0]]}, "alpha_f[0][0]"),
        ({"mode": "raw", "f": [[[0, 1, 0]]], "g": [[[0, None, 0]]]}, "g[0][0][1]"),
        ({"mode": "reparam", "alpha_f": [[0]], "beta_f": [[0]],
          "alpha_g": [[0]], "beta_g": [[float("inf")]]}, "beta_g[0][0]"),
    ], ids=["raw", "reparam", "raw-g", "reparam-beta-g"])
    def test_non_finite_ar_entry_is_usage_error(self, capsys, tmp_path, spec, entry):
        # a JSON null reads as NaN; it is refused when the kernel is built,
        # before any solve can warn or divide by it
        field = tmp_path / "x.csv"
        field.write_text("1,2,3\n4,5,6\n7,8,9\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps(spec))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err.startswith(f"error: invalid AR config {ar}: ")
        assert entry in err and "not a finite number" in err

    def test_raw_f_and_g_of_different_shapes_are_usage_error(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,2,3\n4,5,6\n7,8,9\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({"mode": "raw", "f": [[[0, 1, 0]]], "g": [[[0, 1, 0]] * 2]}))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err == (
            f"error: invalid AR config {ar}: f and g must be (channels, depth, 3) tap arrays "
            f"with channels and depth >= 1, got shapes (1, 1, 3) and (1, 2, 3)\n"
        )

    @pytest.mark.parametrize("mode", ["identity", "reparam", "raw"])
    def test_depth_beyond_field_side_refused_before_a_kernel_is_built(
            self, capsys, tmp_path, monkeypatch, mode):
        # every factor costs work, so depth 5 on a 4x4 field is refused in every
        # mode, and no kernel is built (a deep cascade takes time ~ depth^2)
        field = tmp_path / "x.csv"
        field.write_text("1,0,0,0\n0,0,0,0\n1,0,0,0\n0,0,0,0\n")
        zeros = [[0.0] * 5]
        spec = {"identity": {"mode": "identity", "depth": 5},
                "reparam": {"mode": "reparam", "alpha_f": zeros, "beta_f": zeros,
                            "alpha_g": zeros, "beta_g": zeros},
                "raw": {"mode": "raw", "f": [[IDENTITY_TAPS] * 5], "g": [[IDENTITY_TAPS] * 5]}}
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps(spec[mode]))
        monkeypatch.setattr(cli.filters, "SeparableArKernel", None)  # any use raises
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err == f"error: invalid AR config {ar}: depth must be an integer in [1, 4], got 5\n"

    def test_identity_depth_up_to_field_side_echoes_input(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,2,3\n4,5,6\n")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({"mode": "identity", "depth": 3}))
        code, out, _ = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 0
        assert [float(v) for v in out.strip().splitlines()[1].split(",")] == [4, 5, 6]

    def test_needs_input(self, capsys):
        code, out, err = run(capsys, "solve")
        assert code == 1 and out == ""
        assert err == "error: solve needs --input\n"

    @pytest.mark.parametrize("flag", ["--oracle", "--timing"])
    def test_json_report_needs_out(self, capsys, tmp_path, flag):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3,4\n")
        code, out, err = run(capsys, "solve", "--input", str(field), flag)
        assert code == 1 and out == ""
        assert err.startswith("error: --oracle/--timing print JSON to stdout")

    def test_even_kernel_is_usage_error(self, capsys, tmp_path):
        field, kernel = tmp_path / "x.csv", tmp_path / "k.csv"
        field.write_text("1,2,3\n4,5,6\n7,8,9\n")
        kernel.write_text("1,2\n3,4\n")
        code, out, err = run(capsys, "solve", "--input", str(field), "--ma-kernel", str(kernel))
        assert code == 1 and out == ""
        assert err == "error: tap counts must be odd, got 2x2\n"

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read numeric CSV {path}: [Errno 2] No such file or directory: '{path}'"),
        ("1,x\n", "cannot read numeric CSV {path}: could not convert string 'x' to float64 "
                   "at row 0, column 2."),
        ("", "CSV {path} is empty or not rectangular"),
        (" \n\t\n\n", "CSV {path} is empty or not rectangular"),
        ("1,#2\n", "cannot read numeric CSV {path}: could not convert string '#2' to float64 "
                   "at row 0, column 2."),
        # Python's float accepted digit-group underscores; numpy's parser does not
        ("1_0,2\n", "cannot read numeric CSV {path}: could not convert string '1_0' to "
                    "float64 at row 0, column 1."),
    ], ids=["missing", "not-numeric", "empty", "whitespace-only", "hash-cell", "underscore"])
    def test_unreadable_csv_is_usage_error(self, capsys, tmp_path, text, message):
        field = tmp_path / "x.csv"
        if text is not None:
            field.write_text(text)
        assert_csv_refused(capsys, field, message.format(path=field))

    @pytest.mark.parametrize("text", [None, "{mode: raw"], ids=["missing", "not-json"])
    def test_unreadable_ar_config_is_usage_error(self, capsys, tmp_path, text):
        field, ar = tmp_path / "x.csv", tmp_path / "ar.json"
        field.write_text("1,2\n3,4\n")
        if text is not None:
            ar.write_text(text)
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read AR config {ar}: ")

    def test_unknown_ar_config_mode_is_usage_error(self, capsys, tmp_path):
        field, ar = tmp_path / "x.csv", tmp_path / "ar.json"
        field.write_text("1,2\n3,4\n")
        ar.write_text(json.dumps({"mode": "magic"}))
        code, out, err = run(capsys, "solve", "--input", str(field), "--ar-config", str(ar))
        assert code == 1 and out == ""
        assert err == "error: unknown AR config mode 'magic'\n"

    def test_blank_and_padded_lines_read(self, capsys, tmp_path):
        # lines of whitespace are skipped, and cells may be padded, as before numpy parsed them
        field = tmp_path / "x.csv"
        field.write_text("\n 1 ,\t2\n   \n\f\n3,4\r\n\n")
        code, out, _ = run(capsys, "solve", "--input", str(field))
        assert code == 0 and out == "1,2\n3,4\n"

    def test_ragged_csv_rejected(self, capsys, tmp_path):
        field = tmp_path / "x.csv"
        field.write_text("1,2\n3\n")
        assert_csv_refused(capsys, field, f"CSV {field} is empty or not rectangular")

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


class TestCsvWriter:
    """Every table goes through ``cli._write_csv_grid``: ints exact, other
    numbers under ``%.17g``."""

    def test_analytic_table_bytes(self, capsys):
        code, out, _ = run(capsys, "erf", "--layers", "3,1,0.5;5,2,0.25", "--mode", "analytic")
        assert code == 0
        assert out == (
            "layer,taps,dilation,ar_coeff,variance_term,total_radius\n"
            "1,3,1,0.5,2.6666666666666665,3.3333333333333335\n"
            "2,5,2,0.25,8.4444444444444446,3.3333333333333335\n"
        )
        # a tap count past 2^53 is not rounded through a double
        code, out, _ = run(capsys, "erf", "--layers", "9007199254740993,1,0", "--mode", "analytic")
        assert code == 0
        assert out.splitlines()[1] == "1,9007199254740993,1,0,6.7608032012172254e+30,2600154457184654.5"

    def test_trace_bytes(self, capsys):
        rows = [(0, 858.5, 2.5, 0.0), (1, math.inf, math.nan, 0.99552368972024541)]
        cli._write_csv_grid(rows, None, "step,loss,max_abs_output,mean_abs_ar_sum")
        assert capsys.readouterr().out == (
            "step,loss,max_abs_output,mean_abs_ar_sum\n0,858.5,2.5,0\n1,inf,nan,0.99552368972024541\n"
        )

    def test_train_prints_trace_rows(self, capsys, tmp_path):
        # a reparam step past tanh's edge meets the guard: an inf row, exit 3
        from armakit import training

        argv = ("--steps", "3", "--lr", "100", "--size", "16", "--sigma", "2", "--samples", "1")
        code, out, err = run(capsys, "train", *argv)
        assert code == 3 and err == "diverged at step 1\n"
        task = training.ToyTask.wide_blur(samples=1, size=16, sigma=2.0, seed=0)
        trace = training.train(task, training.TrainConfig(steps=3, learning_rate=100.0))
        assert trace.rows[1][1] == math.inf and trace.rows[0][3] == 0
        # the text the trace's own f-strings gave before the one writer
        assert out == "".join(
            [training.TrainTrace.HEADER + "\n"]
            + [f"{s},{a:.17g},{b:.17g},{c:.17g}\n" for s, a, b, c in trace.rows]
        )

    def test_grid_bytes(self, capsys, tmp_path):
        grid = np.array([[0.1, -0.0, 3.0], [5e-324, 2 / 3, -1e22]])
        path = tmp_path / "g.csv"
        cli._write_csv_grid(grid.tolist(), path)
        cli._write_csv_grid(grid.tolist(), None)
        text = "0.10000000000000001,-0,3\n4.9406564584124654e-324,0.66666666666666663,-1e+22\n"
        assert path.read_text() == capsys.readouterr().out == text
        assert np.array_equal(np.loadtxt(path, delimiter=","), grid)


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

    def test_raw_mode_overflow_is_divergence(self, capsys):
        # the taps reach about 1e300 after one step, so the AR spectrum
        # overflows; that is divergence, not a run with zero output
        code, out, err = run(
            capsys, "train", "--size", "40", "--sigma", "2", "--samples", "1",
            "--steps", "20", "--mode", "raw", "--lr", "1e300",
        )
        assert code == 3
        assert "diverged at step 1" in err
        assert len(out.strip().splitlines()) == 3

    def test_zero_steps_is_usage_error(self, capsys):
        assert run(capsys, "train", "--steps", "0")[0] == 1

    @pytest.mark.parametrize("flag, value, name", [
        ("clip", "-1", "clip_norm"), ("clip", "0", "clip_norm"),
        ("clip", "nan", "clip_norm"), ("clip", "inf", "clip_norm"),
        ("lr", "nan", "learning_rate"), ("lr", "inf", "learning_rate"),
        ("sigma", "0", "sigma"), ("sigma", "-1", "sigma"),
        ("sigma", "nan", "sigma"), ("sigma", "inf", "sigma"),
        ("raw-sum", "nan", "raw_tap_sum"),
        ("channels", "1,-1,1", "channel_sizes"), ("channels", "1,-2,1", "channel_sizes"),
        ("channels", "1,0,1", "channel_sizes"),
        ("samples", "-2", "samples"), ("samples", "0", "samples"),
        ("size", "-5", "size"), ("size", "0", "size"),
    ])
    def test_numbers_that_break_training_are_usage_errors(self, capsys, flag, value, name):
        code, out, err = run(
            capsys, "train", "--size", "40", "--samples", "1", "--sigma", "2",
            f"--{flag}={value}",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and name in err
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


class TestExitCodes:
    """One row per refusal path: the argv (``{name}`` is a file the fixture
    writes), the exit code, a fragment of the one stderr line (empty: no
    stderr) and the count of lines written to ``--out``, or else to stdout."""

    ROWS = {
        # a valid reparam setup that reaches float64's limits is never exit 1
        "train-lr1-clip1e6": (("train", "--lr", "1", "--clip", "1e6"), 3, "diverged at step 1", 3),
        "train-clip1e9": (("train", "--size", "40", "--sigma", "2", "--samples", "1",
                           "--clip", "1e9"), 3, "diverged at step 2", 4),
        "train-clip1e9-lr1e14": (("train", "--size", "40", "--sigma", "2", "--samples", "1",
                                  "--clip", "1e9", "--steps", "3", "--lr", "1e14"),
                                 3, "diverged at step 1", 3),
        # tanh(20) rounds to 1 and is clamped below it: a 7x7 field never meets
        # the Nyquist mode, where the clamped f spectrum is 1.1e-16 on 8x8
        "solve-beta20-7x7": (("solve", "--input", "{x7}", "--ar-config", "{beta20}",
                              "--out", "{y}"), 0, "", 7),
        "solve-beta20-8x8": (("solve", "--input", "{x8}", "--ar-config", "{beta20}",
                              "--out", "{y}"), 2,
                             "spectrum magnitude 1.345e-16 below guard 1.000e-08 at frequency "
                             "index (0, 4, 0)", 0),
        # stable taps [-0.2500000000000001, 1, 1.25], |z1| = 0.9999999999999999
        "stability-reparam-1.5,19": (("stability", "--reparam", "1.5,19"), 0, "", 1),
        "stability-reparam-0,20": (("stability", "--reparam", "0,20"), 0, "", 1),
        # fm1 = f0 = 0 has no zeros; the center tap is refused first
        "stability-filter-0,0,1": (("stability", "--filter", "0,0,1"), 1,
                                   "error: center tap must be positive, got f0=0.0", 0),
        # all-zero reparam factors widen nothing, but the depth is bounded by the field
        "solve-reparam-too-deep": (("solve", "--input", "{x5}", "--ar-config", "{deep}"), 1,
                                   "depth must be an integer in [1, 5], got 6", 0),
        # raw taps whose cascade overflows when composed
        "solve-raw-overflow": (("solve", "--input", "{x5}", "--ar-config", "{overflow}"), 2,
                               "numeric failure: spectrum magnitude nan is not finite at "
                               "frequency index (0, 0, 0)", 0),
        # finite field and kernel whose layer output overflows: no warnings, no file
        "solve-output-overflow": (("solve", "--input", "{huge}", "--ma-kernel", "{huge_kernel}",
                                   "--out", "{y}"), 2,
                                  "numeric failure: the layer output is beyond float64's range",
                                  0),
    }

    @pytest.fixture
    def files(self, tmp_path):
        paths = {name: tmp_path / f"{name}.csv"
                 for name in ("x5", "x7", "x8", "y", "huge", "huge_kernel")}
        for size in (5, 7, 8):
            field = np.random.default_rng(size).standard_normal((size, size))
            np.savetxt(paths[f"x{size}"], field, delimiter=",")
        np.savetxt(paths["huge"], np.full((8, 8), 1e306), delimiter=",")
        np.savetxt(paths["huge_kernel"], np.full((3, 3), 1e306), delimiter=",")
        paths["beta20"], paths["overflow"] = tmp_path / "beta20.json", tmp_path / "overflow.json"
        paths["deep"] = tmp_path / "deep.json"
        paths["deep"].write_text(json.dumps(
            {"mode": "reparam", **{name: [[0] * 6] for name in cli._AR_NAMES}}))
        paths["beta20"].write_text(json.dumps(
            {"mode": "reparam", "alpha_f": [[0]], "beta_f": [[20]], "alpha_g": [[0]],
             "beta_g": [[0]]}))
        cascade = [[[1e200, 1, 1e200], [1e200, 1, 1e200]]]
        paths["overflow"].write_text(json.dumps({"mode": "raw", "f": cascade, "g": cascade}))
        return paths

    @pytest.mark.parametrize("argv, code, fragment, lines", ROWS.values(), ids=ROWS.keys())
    def test_exit_code(self, capsys, files, argv, code, fragment, lines):
        argv = [arg.format(**files) for arg in argv]
        got, out, err = run(capsys, *argv)
        assert got == code
        assert fragment in err and err.count("\n") == (1 if fragment else 0)
        if "--out" in argv:
            assert out == ""
            out = files["y"].read_text() if files["y"].exists() else ""
        assert len(out.splitlines()) == lines


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

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config "),
        ("{layers: 1}", "cannot read config "),
        ("[1, 2]", "config file must hold a JSON object"),
        ('{"layers": "3,1,0.5", "mode": "numeric"}',
         "config key 'mode' must be one of ['analytic', 'empirical-1d', 'empirical-2d'], "
         "got 'numeric'"),
    ], ids=["missing", "not-json", "not-object", "outside-choices"])
    def test_unusable_config_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "erf", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: " + message)

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

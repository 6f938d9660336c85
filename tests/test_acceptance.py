"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover the closed-form receptive-field radius against an independent
series construction, the frequency-domain solver against dense LU, every
analytic gradient against central finite differences, the stability
re-parameterization in bulk, the solver's near-linear scaling, and the
stability-of-training demonstration.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from armakit import cli, erf
from armakit.arma import ar_forward_dense, layer_forward
from armakit.cli import gradcheck_report
from armakit.filters import SeparableArKernel, materialize_2d
from armakit.numerics import FieldTensor
from conftest import identity_ma


def _report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_1_analytic_vs_empirical_1d():
    began = time.perf_counter()
    for depth in (1, 2, 3):
        for dilation in (1, 2):
            for a in (0.0, 0.25, 0.5, 0.75):
                spec = erf.LinearNetSpec((erf.LayerSpec1D(3, dilation, a),) * depth)
                predicted = sum(erf.layer_variance_term(l) for l in spec.layers)
                measured = erf.erf_axis_variance(erf.empirical_erf_1d(spec))
                assert abs(measured - predicted) / predicted < 1e-3, (depth, dilation, a)
    elapsed = time.perf_counter() - began
    assert elapsed < 5.0
    _report(1, "closed-form radius vs 1D composition, 24-point grid", elapsed, 5)


def test_criterion_2_radius_trends_2d(tmp_path):
    began = time.perf_counter()
    radii_a, variances_a = [], []
    for a in (0.0, 0.25, 0.5, 0.75):
        layers = ";".join(["3,1,%s" % a] * 6)
        out = tmp_path / f"heat_a{a}.csv"
        code = cli.main([
            "erf", "--layers", layers, "--mode", "empirical-2d",
            "--grid", "128", "--out", str(out),
        ])
        assert code == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert out.exists() and len(out.read_text().strip().splitlines()) == 128
        radii_a.append(sidecar["radial_radius"])
        variances_a.append(sidecar["axis_variance_x"])
    radii_depth = []
    for depth in (3, 6, 12):
        layers = ";".join(["3,1,0.5"] * depth)
        out = tmp_path / f"heat_L{depth}.csv"
        code = cli.main([
            "erf", "--layers", layers, "--mode", "empirical-2d",
            "--grid", "128", "--out", str(out),
        ])
        assert code == 0
        radii_depth.append(json.loads(out.with_suffix(".json").read_text())["radial_radius"])
    assert all(x < y for x, y in zip(radii_a, radii_a[1:])), radii_a
    assert all(x < y for x, y in zip(variances_a, variances_a[1:])), variances_a
    assert all(x < y for x, y in zip(radii_depth, radii_depth[1:])), radii_depth
    elapsed = time.perf_counter() - began
    assert elapsed < 60.0
    _report(2, "2D radius grows with coefficient and depth, heatmaps emitted", elapsed, 60)


def test_criterion_3_fft_solve_vs_dense_lu():
    began = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 50:
        height = int(rng.integers(4, 17))
        width = int(rng.integers(4, 17))
        channels = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 3))
        if 2 * 2 * depth >= min(height, width):
            continue
        kernel = SeparableArKernel.from_arrays(
            rng.uniform(-2, 2, (channels, depth)), rng.uniform(-2, 2, (channels, depth)),
            rng.uniform(-2, 2, (channels, depth)), rng.uniform(-2, 2, (channels, depth)),
        )
        field = FieldTensor(rng.standard_normal((height, width, channels)))
        via_fft, _ = layer_forward(field, identity_ma(channels), kernel)
        via_lu = ar_forward_dense(
            field, [materialize_2d(kernel, c) for c in range(channels)]
        )
        worst = max(worst, float(np.max(np.abs(via_fft.data - via_lu.data))))
        checked += 1
    assert worst < 1e-8, worst
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    _report(3, f"spectral solve equals dense LU on {checked} instances (max dev {worst:.1e})",
            elapsed, 10)


def test_criterion_4_gradients_vs_finite_differences():
    began = time.perf_counter()
    worst = 0.0
    instances = 0
    for depth in (1, 2):
        for seed in range(10):
            report, failures = gradcheck_report(
                size=6,
                in_channels=1 + seed % 2,
                out_channels=1 + (seed + 1) % 2,
                depth=depth,
                seed=1000 + seed,
                tol=1e-5,
            )
            assert failures == [], failures[:3]
            worst = max(worst, max(report.values()))
            instances += 1
    assert instances == 20
    assert worst < 1e-5
    elapsed = time.perf_counter() - began
    assert elapsed < 30.0
    _report(4, f"all gradient groups within 1e-5 of central differences (worst {worst:.1e})",
            elapsed, 30)


def test_criterion_5_stability_re_parameterization_bulk():
    began = time.perf_counter()
    rng = np.random.default_rng(7)

    # 10^4 unconstrained points materialize strictly inside the stable set,
    # with zeros straddling the unit circle
    alpha = rng.uniform(-10, 10, 10_000)
    beta = rng.uniform(-10, 10, 10_000)
    fm1 = 0.5 * (np.tanh(beta) - alpha)
    fp1 = 0.5 * (np.tanh(beta) + alpha)
    assert np.all(np.abs(fm1 + fp1) < 1.0)
    lo, hi = _root_moduli(fm1, np.ones_like(fm1), fp1)
    assert np.all((lo < 1.0) & (hi > 1.0))

    # 10^5 raw filters: the tap-sum test is exactly zero-straddling
    fm1 = rng.uniform(-3, 3, 100_000)
    fp1 = rng.uniform(-3, 3, 100_000)
    f0 = rng.uniform(1e-6, 3, 100_000)
    keep = np.abs(fm1) > 1e-12
    stable = np.abs(fm1 + fp1)[keep] < f0[keep]
    lo, hi = _root_moduli(fm1[keep], f0[keep], fp1[keep])
    assert np.array_equal(stable, (lo < 1.0) & (hi > 1.0))
    elapsed = time.perf_counter() - began
    assert elapsed < 5.0
    _report(5, "re-parameterization total; stability equals zero-straddling", elapsed, 5)


def _root_moduli(fm1, f0, fp1):
    disc = np.sqrt((f0**2 - 4.0 * fm1 * fp1).astype(complex))
    r1 = (-f0 + disc) / (2.0 * fm1)
    r2 = (-f0 - disc) / (2.0 * fm1)
    return np.minimum(np.abs(r1), np.abs(r2)), np.maximum(np.abs(r1), np.abs(r2))


def test_criterion_6_solver_scaling(tmp_path):
    began = time.perf_counter()
    rng = np.random.default_rng(3)
    timings = {}
    for size, repeats in ((64, 40), (256, 8)):
        field = tmp_path / f"x{size}.csv"
        np.savetxt(field, rng.standard_normal((size, size)), delimiter=",")
        ar = tmp_path / "ar.json"
        ar.write_text(json.dumps({
            "mode": "reparam", "alpha_f": [[0.6]], "beta_f": [[-1.1]],
            "alpha_g": [[-0.4]], "beta_g": [[0.9]],
        }))
        out = tmp_path / f"y{size}.csv"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main([
                "solve", "--input", str(field), "--ar-config", str(ar),
                "--out", str(out), "--timing", "--repeats", str(repeats),
            ])
        assert code == 0
        timings[size] = json.loads(buffer.getvalue())["ar_seconds"]
    ratio = timings[256] / timings[64]
    assert ratio < 25.0, timings
    elapsed = time.perf_counter() - began
    _report(6, f"AR stage 64^2 -> 256^2 wall-time ratio {ratio:.1f}x (< 25x)", elapsed, 30)


def test_criterion_7_training_stability_demo(tmp_path):
    began = time.perf_counter()
    trace_path = tmp_path / "reparam.csv"
    code = cli.main([
        "train", "--mode", "reparam", "--steps", "500", "--lr", "1e-2",
        "--seed", "0", "--out", str(trace_path),
    ])
    assert code == 0
    rows = trace_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 500
    losses = [float(line.split(",")[1]) for line in rows]
    assert all(np.isfinite(losses))
    assert losses[-1] < 0.5 * losses[0], (losses[0], losses[-1])

    raw_path = tmp_path / "raw.csv"
    code = cli.main([
        "train", "--mode", "raw", "--steps", "500", "--lr", "1e-2",
        "--seed", "0", "--out", str(raw_path),
    ])
    assert code == 3
    raw_rows = raw_path.read_text().strip().splitlines()[1:]
    assert len(raw_rows) <= 500
    last = raw_rows[-1].split(",")
    assert (not np.isfinite(float(last[1]))) or float(last[2]) > 1e6
    elapsed = time.perf_counter() - began
    assert elapsed < 120.0
    _report(7, "re-parameterized run halves the loss; unconstrained run diverges (exit 3)",
            elapsed, 120)


def test_criterion_8_second_moment_correction():
    began = time.perf_counter()
    # closed forms: variance of the layer filter equals the radius term
    for a in np.linspace(0.0, 0.99, 100):
        for dilation in (1, 2):
            layer = erf.LayerSpec1D(3, dilation, float(a))
            m1, m2 = erf.layer_moments(layer)
            term = erf.layer_variance_term(layer)
            assert abs((m2 - m1**2) - term) <= 1e-12 * max(1.0, term)
    # the truncated series reproduces both moments independently
    for a in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99):
        layer = erf.LayerSpec1D(3, 1, a)
        taps = erf.effective_filter_1d(layer, epsilon=1e-14)
        p = np.arange(taps.size, dtype=float)
        total = taps.sum()
        series_m1 = float((p * taps).sum() / total)
        series_m2 = float((p**2 * taps).sum() / total)
        m1, m2 = erf.layer_moments(layer)
        assert series_m1 == pytest.approx(m1, rel=1e-6)
        assert series_m2 == pytest.approx(m2, rel=1e-6)
    elapsed = time.perf_counter() - began
    _report(8, "corrected second moment reproduces the radius term", elapsed, 10)


def test_criterion_9_gaussian_limit():
    began = time.perf_counter()
    spec = erf.LinearNetSpec((erf.LayerSpec1D(3, 1, 0.0),) * 32)
    erf_map = erf.empirical_erf_1d(spec)
    p = erf_map.offsets(0).astype(float)
    w = erf_map.weights
    mean = (p * w).sum()
    variance = ((p - mean) ** 2 * w).sum()
    excess_kurtosis = ((p - mean) ** 4 * w).sum() / variance**2 - 3.0
    assert abs(excess_kurtosis) < 0.05, excess_kurtosis
    elapsed = time.perf_counter() - began
    _report(9, f"32-layer composition near Gaussian (excess kurtosis {excess_kurtosis:+.4f})",
            elapsed, 5)

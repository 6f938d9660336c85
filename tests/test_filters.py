import math

import numpy as np
import pytest

from armakit.filters import (
    Length3Filter,
    SeparableArKernel,
    compose_1d,
    is_stable,
    materialize,
    materialize_2d,
    reparam_gradient,
    straddles_unit_circle,
    zeros_of,
)
from conftest import embed_taps

IDENTITY = Length3Filter(0.0, 1.0, 0.0)


class TestMaterialize:
    def test_origin_gives_identity(self):
        assert materialize([0.0, 0.0]).tolist() == [0.0, 1.0, 0.0]

    def test_pure_alpha_straddles(self):
        f = materialize([2.0, 0.0])
        assert f.tolist() == [-1.0, 1.0, 1.0]
        z1, z2 = zeros_of(f)
        assert abs(z1) == pytest.approx(0.618034, abs=1e-6)
        assert abs(z2) == pytest.approx(1.618034, abs=1e-6)
        assert straddles_unit_circle(f)

    def test_pure_beta_approaches_bound(self):
        fm1, _, fp1 = materialize([0.0, 3.0])
        assert fm1 == pytest.approx(math.tanh(3.0) / 2)
        assert fp1 == pytest.approx(0.497527, abs=1e-6)
        assert fm1 + fp1 == pytest.approx(0.995055, abs=1e-6)
        assert fm1 + fp1 < 1.0

    @pytest.mark.parametrize("beta, stable", [(19.0, True), (20.0, False)])
    def test_float64_tanh_edge(self, beta, stable):
        # np.tanh(19) already rounds to 1.0; materialize keeps math.tanh's
        # values, which stay below 1 up to beta ~ 19.06
        f = materialize([0.0, beta])
        assert f[0] + f[2] == math.tanh(beta)
        assert is_stable(f) is stable
        taps = materialize(np.array([[0.0, beta], [0.3, -beta]]))
        assert np.array_equal(taps[0], f)
        assert is_stable(taps) is stable


class TestIsStable:
    def test_spec_triples(self):
        assert is_stable(Length3Filter(0.3, 1.0, 0.5)) is True
        assert is_stable(Length3Filter(0.75, 1.0, 0.75)) is False
        assert is_stable(IDENTITY) is True

    def test_boundary_is_excluded(self):
        assert is_stable(Length3Filter(0.5, 1.0, 0.5)) is False

    def test_nonpositive_center_tap_rejected(self):
        with pytest.raises(ValueError):
            is_stable(Length3Filter(0.1, 0.0, 0.1))
        with pytest.raises(ValueError):
            is_stable(Length3Filter(0.1, -1.0, 0.1))


class TestZeros:
    def test_real_pair(self):
        z1, z2 = zeros_of(Length3Filter(0.3, 1.0, 0.5))
        assert z1 == pytest.approx(-0.612574, abs=1e-6)
        assert z2 == pytest.approx(-2.720760, abs=1e-6)

    def test_complex_pair_on_unit_circle(self):
        f = Length3Filter(0.75, 1.0, 0.75)
        z1, z2 = zeros_of(f)
        assert abs(z1.imag) > 0
        assert abs(z1) == pytest.approx(1.0, abs=1e-12)
        assert abs(z2) == pytest.approx(1.0, abs=1e-12)
        assert not straddles_unit_circle(f)

    def test_degenerate_linear_case(self):
        f = Length3Filter(0.0, 1.0, -0.5)
        z1, z2 = zeros_of(f)
        assert z1 == pytest.approx(0.5)
        assert not np.isfinite(z2.real)
        assert straddles_unit_circle(f)

    def test_vieta_relations(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            fm1 = rng.uniform(-3, 3)
            if abs(fm1) < 1e-3:
                continue
            f = Length3Filter(fm1, rng.uniform(0.1, 3), rng.uniform(-3, 3))
            z1, z2 = zeros_of(f)
            assert z1 * z2 == pytest.approx(f.fp1 / f.fm1, rel=1e-9, abs=1e-9)
            assert z1 + z2 == pytest.approx(-f.f0 / f.fm1, rel=1e-9, abs=1e-9)


def quadratic_root_moduli(fm1, f0, fp1):
    """Vectorized closed-form root moduli, the straddle oracle."""
    fm1 = np.asarray(fm1, dtype=complex)
    disc = np.sqrt(f0**2 - 4.0 * fm1 * fp1)
    r1 = (-f0 + disc) / (2.0 * fm1)
    r2 = (-f0 - disc) / (2.0 * fm1)
    lo = np.minimum(np.abs(r1), np.abs(r2))
    hi = np.maximum(np.abs(r1), np.abs(r2))
    return lo, hi


class TestStabilityEquivalence:
    def test_stability_iff_zero_straddling_100k(self):
        rng = np.random.default_rng(13)
        n = 100_000
        fm1 = rng.uniform(-3, 3, n)
        fp1 = rng.uniform(-3, 3, n)
        f0 = rng.uniform(0, 3, n)
        keep = (f0 > 1e-9) & (np.abs(fm1) > 1e-9)
        fm1, fp1, f0 = fm1[keep], fp1[keep], f0[keep]
        stable = np.abs(fm1 + fp1) < f0
        lo, hi = quadratic_root_moduli(fm1, f0, fp1)
        straddle = (lo < 1.0) & (hi > 1.0)
        assert np.array_equal(stable, straddle)

    def test_object_api_agrees_on_sample(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            f = Length3Filter(rng.uniform(-3, 3), rng.uniform(0.01, 3), rng.uniform(-3, 3))
            assert is_stable(f) == straddles_unit_circle(f)


class TestStraddleArray:
    """``straddles_unit_circle`` against the closed-form root moduli, row by row."""

    def test_matches_zeros_of(self):
        rng = np.random.default_rng(16)
        rows = rng.uniform(-3, 3, (2000, 3))
        rows[:200, 0] = 0.0  # linear case
        rows[200:400, 2] = 0.0  # a zero root
        rows[400:450, 0] = rows[400:450, 2] = 0.0
        edge = [[1, 2, 1], [0.75, 1, 0.75], [1, 0, 1], [2, 0, 0], [1, 1, 0], [0, 1, 1],
                [0, 1, -1], [0, -1, 0.5], [1, -2, 1], [0.5, 1, 0]]
        rows = np.concatenate([rows, edge])
        fm1, f0, fp1 = rows.T
        quadratic = fm1 != 0.0
        lo, hi = quadratic_root_moduli(fm1[quadratic], f0[quadratic], fp1[quadratic])
        # a linear row's one zero is -fp1/f0; the other is infinite
        want = np.abs(fp1) < np.abs(f0)
        want[quadratic] = (lo < 1.0) & (hi > 1.0)
        got = straddles_unit_circle(rows)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert got.tolist() == want.tolist()
        assert 0 < got.sum() < len(rows)
        moduli = np.abs(zeros_of(rows))
        assert moduli.shape == (len(rows), 2) and np.all(moduli[:, 0] <= moduli[:, 1])
        assert np.allclose(moduli[quadratic], np.stack([lo, hi], axis=-1), rtol=1e-9, atol=1e-12)

    def test_rejects_row_without_zeros(self):
        with pytest.raises(ValueError, match="no zeros"):
            straddles_unit_circle([[0.5, 1.0, 0.5], [0.0, 0.0, 1.0]])


class TestReparamTotality:
    def test_10k_random_points_all_stable(self):
        rng = np.random.default_rng(15)
        alpha, beta = rng.uniform(-10, 10, (2, 10_000))
        # materialized tap sums are tanh(beta), strictly inside (-1, 1)
        sums = np.tanh(beta)
        assert np.all(np.abs(sums) < 1.0)
        for a, b in zip(alpha[:300], beta[:300]):
            f = materialize([a, b])
            assert is_stable(f)
            assert straddles_unit_circle(f)


class TestSpectrumLowerBound:
    def test_unit_circle_magnitude_bound(self):
        # |fm1 e^{iw} + f0 + fp1 e^{-iw}| >= f0 - |fm1 + fp1| on a 4096 grid
        rng = np.random.default_rng(16)
        omega = 2 * np.pi * np.arange(4096) / 4096
        for _ in range(200):
            while True:
                f = Length3Filter(rng.uniform(-2, 2), rng.uniform(0.05, 2), rng.uniform(-2, 2))
                if is_stable(f):
                    break
            response = f.fm1 * np.exp(1j * omega) + f.f0 + f.fp1 * np.exp(-1j * omega)
            bound = f.f0 - abs(f.fm1 + f.fp1)
            assert bound > 0
            assert np.min(np.abs(response)) >= bound - 1e-9


class TestCompose:
    def test_single_filter_is_itself(self):
        f = Length3Filter(0.2, 1.0, -0.3)
        assert np.allclose(compose_1d([f]), f)

    def test_geometric_squared(self):
        f = Length3Filter(0.0, 1.0, -0.5)
        taps = compose_1d([f, f])
        assert np.allclose(taps, [0, 0, 1, -1, 0.25])

    def test_identity_factor_is_neutral(self):
        f = Length3Filter(-1.0, 1.0, 1.0)
        taps = compose_1d([f, IDENTITY])
        assert np.allclose(taps, [0, -1, 1, 1, 0])

    def test_order_independence(self):
        rng = np.random.default_rng(17)
        fs = [
            Length3Filter(rng.uniform(-1, 1), rng.uniform(0.1, 1), rng.uniform(-1, 1))
            for _ in range(4)
        ]
        a = compose_1d(fs)
        b = compose_1d(fs[::-1])
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_batched_cascades_match_per_row_convolve(self, channels, depth):
        rng = np.random.default_rng(100 * channels + depth)
        factors = rng.uniform(-1, 1, (channels, depth, 3))
        composed = compose_1d(factors)
        assert composed.shape == (channels, 2 * depth + 1)
        for row, cascade in zip(composed, factors):
            expected = np.array([1.0])
            for taps in cascade:
                expected = np.convolve(expected, taps)
            assert np.max(np.abs(row - expected)) < 1e-14

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            compose_1d([])


class TestMaterialize2d:
    def test_identity_cascade_gives_delta(self):
        kernel = SeparableArKernel.identity(channels=2, depth=3)
        taps = materialize_2d(kernel, 1)
        expected = np.zeros((7, 7))
        expected[3, 3] = 1.0
        assert np.allclose(taps, expected)

    def test_causal_outer_product(self):
        causal = Length3Filter(0.0, 1.0, -0.5)
        kernel = SeparableArKernel(f_filters=((causal,),), g_filters=((causal,),))
        taps = materialize_2d(kernel, 0)
        # offsets (0,0), (0,+1), (+1,0), (+1,+1); nothing at negative offsets
        expected = np.zeros((3, 3))
        expected[1, 1], expected[1, 2], expected[2, 1], expected[2, 2] = 1, -0.5, -0.5, 0.25
        assert np.allclose(taps, expected)

    def test_separability_exact(self):
        kernel = SeparableArKernel.from_arrays(
            alpha_f=[[0.3, -0.2]], beta_f=[[0.5, 0.1]],
            alpha_g=[[-0.7, 0.4]], beta_g=[[0.2, -0.9]],
        )
        taps = materialize_2d(kernel, 0)
        f = compose_1d(kernel.f_filters[0])
        g = compose_1d(kernel.g_filters[0])
        for p1 in range(5):
            for p2 in range(5):
                assert taps[p1, p2] == g[p1] * f[p2]

    def test_embedded_spectrum_floor(self):
        causal = Length3Filter(0.0, 1.0, -0.5)
        kernel = SeparableArKernel(f_filters=((causal,),), g_filters=((causal,),))
        spectrum = np.fft.fft2(embed_taps(materialize_2d(kernel, 0), 16, 16))
        assert np.min(np.abs(spectrum)) >= 0.25 - 1e-9

    def test_channel_bounds(self):
        kernel = SeparableArKernel.identity(channels=1)
        with pytest.raises(ValueError):
            materialize_2d(kernel, 1)


class TestReparamGradient:
    def test_zero_gradient_passes_through(self):
        d_alpha, d_beta = reparam_gradient([1.0, 2.0], [0.0, 0.0])
        assert d_alpha == 0.0 and d_beta == 0.0

    def test_unit_gradient_at_origin(self):
        d_alpha, d_beta = reparam_gradient([0.0, 0.0], [1.0, 0.0])
        assert d_alpha == pytest.approx(-0.5)
        assert d_beta == pytest.approx(0.5)

    def test_tanh_saturation(self):
        _, d_beta = reparam_gradient([0.0, 20.0], [123.0, -4.0])
        assert abs(d_beta) < 1e-16

    def test_keeps_the_layout_of_p(self):
        # (..., 2) pairs in, (..., 2) pairs out, each pair chained on its own
        rng = np.random.default_rng(19)
        p, d_taps = rng.standard_normal((2, 3, 2, 2))
        got = reparam_gradient(p, d_taps)
        assert got.shape == p.shape
        for index in np.ndindex(p.shape[:-1]):
            assert np.array_equal(got[index], reparam_gradient(p[index], d_taps[index]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        h = 1e-6
        for _ in range(50):
            alpha, beta = rng.uniform(-2, 2, 2)
            w1, w2 = rng.standard_normal(2)  # loss = w1*fm1 + w2*fp1

            def loss(a, b):
                fm1, _, fp1 = materialize([a, b])
                return w1 * fm1 + w2 * fp1

            da, db = reparam_gradient([alpha, beta], [w1, w2])
            fd_a = (loss(alpha + h, beta) - loss(alpha - h, beta)) / (2 * h)
            fd_b = (loss(alpha, beta + h) - loss(alpha, beta - h)) / (2 * h)
            assert da == pytest.approx(fd_a, abs=1e-8)
            assert db == pytest.approx(fd_b, abs=1e-8)


class TestSeparableArKernel:
    def test_channel_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeparableArKernel(
                f_filters=((IDENTITY,),),
                g_filters=((IDENTITY,), (IDENTITY,)),
            )

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeparableArKernel(
                f_filters=((IDENTITY,),),
                g_filters=((IDENTITY, IDENTITY),),
            )

    def test_from_arrays_round_trip(self):
        kernel = SeparableArKernel.from_arrays([[0.5]], [[1.0]], [[-0.5]], [[2.0]])
        assert kernel.is_reparam
        assert kernel.channels == 1 and kernel.depth == 1
        assert tuple(kernel.f_params[0][0]) == (0.5, 1.0)
        assert np.array_equal(kernel.f_filters[0][0], materialize([0.5, 1.0]))

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from armakit.filters import (
    SeparableArKernel,
    compose_1d,
    materialize,
    materialize_2d,
    reparam_gradient,
    stable_factors,
    zeros_of,
)
from conftest import embed_taps, quadratic_root_moduli

IDENTITY = (0.0, 1.0, 0.0)


def zeros_straddle(taps):
    # |z1| < 1 < |z2| per row, from the zeros as zeros_of rounds them
    moduli = np.abs(zeros_of(taps))
    return (moduli[..., 0] < 1.0) & (moduli[..., 1] > 1.0)


class TestMaterialize:
    def test_origin_gives_identity(self):
        assert materialize([0.0, 0.0]).tolist() == [0.0, 1.0, 0.0]

    def test_pure_alpha_straddles(self):
        f = materialize([2.0, 0.0])
        assert f.tolist() == [-1.0, 1.0, 1.0]
        z1, z2 = zeros_of(f)
        assert abs(z1) == pytest.approx(0.618034, abs=1e-6)
        assert abs(z2) == pytest.approx(1.618034, abs=1e-6)
        assert zeros_straddle(f)

    def test_pure_beta_approaches_bound(self):
        fm1, _, fp1 = materialize([0.0, 3.0])
        assert fm1 == pytest.approx(math.tanh(3.0) / 2)
        assert fp1 == pytest.approx(0.497527, abs=1e-6)
        assert fm1 + fp1 == pytest.approx(0.995055, abs=1e-6)
        assert fm1 + fp1 < 1.0

    @pytest.mark.parametrize("beta, below_one", [(19.0, True), (20.0, False)])
    def test_float64_tanh_edge(self, beta, below_one):
        # np.tanh(19) already rounds to 1.0; materialize keeps math.tanh's
        # values, which stay below 1 up to beta ~ 19.06, and clamps them there
        assert (math.tanh(beta) < 1.0) is below_one
        f = materialize([0.0, beta])
        assert f[0] + f[2] == (math.tanh(beta) if below_one else np.nextafter(1.0, 0.0))
        assert stable_factors(f)
        if not below_one:
            assert f.tolist() == [0.49999999999999994, 1.0, 0.49999999999999994]
        taps = materialize(np.array([[0.0, beta], [0.3, -beta]]))
        assert np.array_equal(taps[0], f)
        assert stable_factors(taps).all()

    def test_rounded_tap_sum_moves_the_smaller_outer_tap(self):
        # the plain formula rounds (1.5, 19) to [-0.25000000000000006, 1, 1.25],
        # tap sum exactly 1; one ulp off fm1, toward the stable side, mends it
        assert materialize([1.5, 19.0]).tolist() == [-0.2500000000000001, 1.0, 1.25]
        assert materialize([-1.5, -19.0]).tolist() == [0.2500000000000001, 1.0, -1.25]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(1.5, 19.0)
    @example(0.0, 20.0)
    @example(-1e308, 1e308)
    @example(5e-324, -0.0)
    def test_every_finite_pair_is_stable(self, alpha, beta):
        f = materialize([alpha, beta])
        assert np.isfinite(f).all() and f[1] == 1.0
        assert stable_factors(f)
        kernel = SeparableArKernel(params=np.broadcast_to([alpha, beta], (2, 1, 1, 2)))
        assert kernel.taps.tobytes() == np.broadcast_to(f, (2, 1, 1, 3)).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(-19.1, 19.1, allow_nan=False))
    @example(0.3, 19.0)
    @example(-0.0, -0.0)
    def test_plain_formula_kept_where_it_is_stable(self, alpha, beta):
        # the map without clamp or nudge, wherever float64 leaves it stable
        t = math.tanh(beta)
        plain = np.array([0.5 * (t - alpha), 1.0, 0.5 * (t + alpha)])
        assume(abs(t) < 1.0 and stable_factors(plain))
        assert materialize([alpha, beta]).tobytes() == plain.tobytes()


class TestIsStable:
    def test_spec_triples(self):
        assert stable_factors([(0.3, 1.0, 0.5), (0.75, 1.0, 0.75), IDENTITY]).tolist() == [
            True, False, True]

    def test_boundary_is_excluded(self):
        assert not stable_factors((0.5, 1.0, 0.5))

    def test_nonpositive_center_tap_rejected(self):
        with pytest.raises(ValueError):
            stable_factors((0.1, 0.0, 0.1))
        with pytest.raises(ValueError):
            stable_factors((0.1, -1.0, 0.1))


class TestZeros:
    def test_real_pair(self):
        z1, z2 = zeros_of((0.3, 1.0, 0.5))
        assert z1 == pytest.approx(-0.612574, abs=1e-6)
        assert z2 == pytest.approx(-2.720760, abs=1e-6)
        assert z1.imag == z2.imag == 0.0 and not np.signbit([z1.imag, z2.imag]).any()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_conjugate_pair_positive_imaginary_part_first(self, sign):
        z1, z2 = zeros_of((0.75 * sign, 1.0, 0.75 * sign))
        assert z1 == np.conj(z2) and z1.imag > 0.0
        assert abs(z1) == abs(z2) == 1.0

    def test_equal_real_moduli_are_ordered(self):
        # f0 = 0 between outer taps of opposite signs: zeros +-sqrt(-fp1/fm1),
        # whose computed moduli rounding orders either way
        rng = np.random.default_rng(20)
        rows = np.zeros((1000, 3))
        rows[:, 0], rows[:, 2] = -rng.uniform(0.1, 3.0, 1000), rng.uniform(0.1, 3.0, 1000)
        moduli = np.abs(zeros_of(rows))
        assert np.all(moduli[:, 0] <= moduli[:, 1])

    def test_complex_pair_on_unit_circle(self):
        f = (0.75, 1.0, 0.75)
        z1, z2 = zeros_of(f)
        assert abs(z1.imag) > 0
        assert abs(z1) == pytest.approx(1.0, abs=1e-12)
        assert abs(z2) == pytest.approx(1.0, abs=1e-12)
        assert not zeros_straddle(f)

    def test_degenerate_linear_case(self):
        f = (0.0, 1.0, -0.5)
        z1, z2 = zeros_of(f)
        assert z1 == pytest.approx(0.5)
        assert not np.isfinite(z2.real)
        assert zeros_straddle(f)

    def test_vieta_relations(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            fm1 = rng.uniform(-3, 3)
            if abs(fm1) < 1e-3:
                continue
            f0, fp1 = rng.uniform(0.1, 3), rng.uniform(-3, 3)
            z1, z2 = zeros_of((fm1, f0, fp1))
            assert z1 * z2 == pytest.approx(fp1 / fm1, rel=1e-9, abs=1e-9)
            assert z1 + z2 == pytest.approx(-f0 / fm1, rel=1e-9, abs=1e-9)


def long_double_zero_moduli(rows):
    """Zero moduli ``(lo, hi)`` of ``fm1*z^2 + f0*z + fp1`` per row, in
    ``np.longdouble`` and written apart from ``filters``, and their condition.

    The stable form in long double, with one Newton step on each real zero; a
    conjugate pair's modulus is ``sqrt(fp1/fm1)``.  Long double's exponent
    range holds every product of float64 taps, so nothing is scaled.  The
    condition is Gautschi's: a zero's relative change per relative change of
    the taps, ``(|fm1| |z|^2 + |f0| |z| + |fp1|) / (|z| |fm1| |z1 - z2|)``.
    """
    fm1, f0, fp1 = (column[:, None] for column in np.asarray(rows, dtype=np.longdouble).T)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = f0 * f0 - 4 * fm1 * fp1
        q = -(f0 + np.copysign(np.sqrt(np.maximum(disc, 0)), f0)) / 2
        z = np.concatenate([fp1 / q, q / fm1], axis=1)
        slope = 2 * fm1 * z + f0
        step = ((fm1 * z + f0) * z + fp1) / slope
        z -= np.where(np.isfinite(step), step, 0)
        moduli = np.sort(np.where(disc < 0, np.sqrt(fp1 / fm1), np.abs(z)), axis=1)
        condition = (np.abs(fm1) * moduli**2 + np.abs(f0) * moduli + np.abs(fp1)) / (
            moduli * np.sqrt(np.abs(disc)))
    return moduli, condition


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than float64 on this platform")
class TestZerosAgainstLongDouble:
    """``zeros_of``'s rounding, judged by long-double moduli; the float64
    textbook oracle above judges the algorithm."""

    EPS = np.finfo(np.float64).eps

    def relative_errors(self, rows):
        want, condition = long_double_zero_moduli(rows)
        got = np.abs(zeros_of(rows))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))  # a linear row's second zero
        assert np.array_equal(got == 0.0, want == 0.0)  # fp1 = 0
        judged = np.isfinite(want) & (want > 0.0)
        err = np.zeros(want.shape)
        err[judged] = np.abs(got[judged] - want[judged]) / want[judged]
        return got, want, err, condition

    def test_extreme_reparam_and_linear_rows_within_8_eps(self):
        # the companion-matrix eigensolver erred by up to 22 eps on these rows
        rng = np.random.default_rng(5)
        n = 200_000
        alpha = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 7, n)
        reparam = materialize(np.stack([alpha, rng.uniform(-4, 4, n)], axis=-1))
        linear = rng.uniform(-3, 3, (20_000, 3))
        linear[:, 0] = 0.0
        linear[:, 1] = np.abs(linear[:, 1]) + 1e-3
        got, want, err, _ = self.relative_errors(np.concatenate([reparam, linear]))
        assert err.max() <= 8 * self.EPS
        # the float64 zeros straddle the unit circle exactly where the truth's do
        straddles = (got[:, 0] < 1.0) & (got[:, 1] > 1.0)
        assert np.array_equal(straddles, (want[:, 0] < 1.0) & (want[:, 1] > 1.0))

    def test_raw_rows_within_8_eps_of_their_condition(self):
        # near a double zero the zeros themselves are ill-conditioned, so the
        # bound scales with the condition (at least 1)
        rows = np.random.default_rng(6).uniform(-3, 3, (50_000, 3))
        rows[:, 1] = np.abs(rows[:, 1])
        _, _, err, condition = self.relative_errors(rows)
        assert condition.min() >= 1.0 and condition.max() > 100.0
        assert np.all(err <= 8 * self.EPS * condition)

    def test_taps_spanning_float64_range_within_8_eps(self):
        # taps of magnitudes 1e-300 to 1e300, a tenth with fm1 = 0 and a tenth
        # with fp1 = 0, kept where no zero is a nonzero number outside
        # float64's normal range: no square or product of taps may leave it
        rng = np.random.default_rng(7)
        rows = rng.choice([-1.0, 1.0], (40_000, 3)) * 10.0 ** rng.uniform(-300, 300, (40_000, 3))
        rows[:4000, 0] = rows[4000:8000, 2] = 0.0
        want, _ = long_double_zero_moduli(rows)
        info = np.finfo(np.float64)
        normal = (want == 0.0) | (want == np.inf) | ((want > info.tiny) & (want < info.max))
        rows = rows[normal.all(axis=1)]
        assert len(rows) > 20_000 and (rows[:, 0] == 0.0).sum() > 1000
        _, _, err, _ = self.relative_errors(rows)
        assert err.max() <= 8 * self.EPS


class TestStabilityEquivalence:
    def test_stability_iff_zero_straddling_100k(self):
        rng = np.random.default_rng(13)
        n = 100_000
        fm1 = rng.uniform(-3, 3, n)
        fp1 = rng.uniform(-3, 3, n)
        f0 = rng.uniform(0, 3, n)
        keep = (f0 > 1e-9) & (np.abs(fm1) > 1e-9)
        fm1, fp1, f0 = fm1[keep], fp1[keep], f0[keep]
        stable = stable_factors(np.stack([fm1, f0, fp1], axis=-1))
        assert np.array_equal(stable, np.abs(fm1 + fp1) < f0)
        lo, hi = quadratic_root_moduli(fm1, f0, fp1)
        straddle = (lo < 1.0) & (hi > 1.0)
        assert np.array_equal(stable, straddle)


class TestStraddleArray:
    """``zeros_of``'s moduli against the closed-form root moduli, row by row."""

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
        got = zeros_straddle(rows)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert got.tolist() == want.tolist()
        assert 0 < got.sum() < len(rows)
        moduli = np.abs(zeros_of(rows))
        assert moduli.shape == (len(rows), 2) and np.all(moduli[:, 0] <= moduli[:, 1])
        assert np.allclose(moduli[quadratic], np.stack([lo, hi], axis=-1), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row, entry", [([0.5, 1.0, 0.5], 0), ([0.0, 1.0, 0.5], 2)],
                             ids=["quadratic", "linear"])
    def test_rejects_non_finite_taps(self, bad, row, entry):
        row = row[:entry] + [bad] + row[entry + 1:]
        with pytest.raises(ValueError, match="taps must be finite"):
            zeros_of([[0.3, 1.0, 0.5], row])
        with pytest.raises(ValueError, match="taps must be finite"):
            zeros_of(row)

    def test_rejects_row_without_zeros(self):
        with pytest.raises(ValueError, match="no zeros"):
            zeros_of([[0.5, 1.0, 0.5], [0.0, 0.0, 1.0]])


class TestReparamTotality:
    def test_10k_random_points_all_stable(self):
        rng = np.random.default_rng(15)
        alpha, beta = rng.uniform(-10, 10, (2, 10_000))
        # materialized tap sums are tanh(beta), strictly inside (-1, 1)
        sums = np.tanh(beta)
        assert np.all(np.abs(sums) < 1.0)
        taps = materialize(np.stack([alpha[:300], beta[:300]], axis=-1))
        assert stable_factors(taps).all()
        assert zeros_straddle(taps).all()


class TestSpectrumLowerBound:
    def test_unit_circle_magnitude_bound(self):
        # |fm1 e^{iw} + f0 + fp1 e^{-iw}| >= f0 - |fm1 + fp1| on a 4096 grid
        rng = np.random.default_rng(16)
        omega = 2 * np.pi * np.arange(4096) / 4096
        for _ in range(200):
            while True:
                fm1, f0, fp1 = rng.uniform(-2, 2), rng.uniform(0.05, 2), rng.uniform(-2, 2)
                if stable_factors((fm1, f0, fp1)):
                    break
            response = fm1 * np.exp(1j * omega) + f0 + fp1 * np.exp(-1j * omega)
            bound = f0 - abs(fm1 + fp1)
            assert bound > 0
            assert np.min(np.abs(response)) >= bound - 1e-9


class TestCompose:
    def test_single_filter_is_itself(self):
        f = (0.2, 1.0, -0.3)
        assert np.allclose(compose_1d([f]), f)

    def test_geometric_squared(self):
        f = (0.0, 1.0, -0.5)
        taps = compose_1d([f, f])
        assert np.allclose(taps, [0, 0, 1, -1, 0.25])

    def test_identity_factor_is_neutral(self):
        f = (-1.0, 1.0, 1.0)
        taps = compose_1d([f, IDENTITY])
        assert np.allclose(taps, [0, -1, 1, 1, 0])

    def test_order_independence(self):
        rng = np.random.default_rng(17)
        fs = [
            (rng.uniform(-1, 1), rng.uniform(0.1, 1), rng.uniform(-1, 1))
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
        causal = (0.0, 1.0, -0.5)
        kernel = SeparableArKernel([((causal,),), ((causal,),)])
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
        f = compose_1d(kernel.taps[0][0])
        g = compose_1d(kernel.taps[1][0])
        for p1 in range(5):
            for p2 in range(5):
                assert taps[p1, p2] == g[p1] * f[p2]

    def test_embedded_spectrum_floor(self):
        causal = (0.0, 1.0, -0.5)
        kernel = SeparableArKernel([((causal,),), ((causal,),)])
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
            SeparableArKernel([
                ((IDENTITY,),),
                ((IDENTITY,), (IDENTITY,)),
            ])

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeparableArKernel([
                ((IDENTITY,),),
                ((IDENTITY, IDENTITY),),
            ])

    def test_from_arrays_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one"):
            SeparableArKernel.from_arrays([[0.5]], [[1.0]], [[-0.5, 0.0]], [[2.0, 0.0]])

    def test_from_arrays_round_trip(self):
        kernel = SeparableArKernel.from_arrays([[0.5]], [[1.0]], [[-0.5]], [[2.0]])
        assert kernel.params is not None
        assert kernel.channels == 1 and kernel.depth == 1
        assert tuple(kernel.params[0][0][0]) == (0.5, 1.0)
        assert np.array_equal(kernel.taps[0][0][0], materialize([0.5, 1.0]))

    def test_arrays_are_read_only_copies(self):
        # composed cannot go stale: no array it is built from can change
        params = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 2, 3, 2))
        kernel = SeparableArKernel(params=params)
        for array in (kernel.taps, kernel.params, kernel.composed):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 0.0
        assert kernel.composed.tobytes() == compose_1d(kernel.taps).tobytes()
        # the caller's array is copied, and stays the caller's to write
        assert kernel.params is not params and params.flags.writeable
        params[0, 0, 0, 0] = 9.0
        assert kernel.params[0, 0, 0, 0] != 9.0

    def test_taps_must_stack_f_and_g(self):
        with pytest.raises(ValueError, match="stack the f and g cascades"):
            SeparableArKernel([((IDENTITY,),)] * 3)

    def test_params_must_pair_every_factor(self):
        with pytest.raises(ValueError, match=r"f and g params must be \(channels, depth, 2\)"):
            SeparableArKernel(params=np.zeros((2, 1, 2, 3)))

    def test_built_from_exactly_one_of_taps_and_params(self):
        # taps that params does not generate would chain gradients through the wrong pairs
        params = np.random.default_rng(4).uniform(-1.0, 1.0, (2, 1, 1, 2))
        with pytest.raises(ValueError, match="exactly one of taps and params"):
            SeparableArKernel(materialize(params), params)
        with pytest.raises(ValueError, match="exactly one of taps and params"):
            SeparableArKernel()

    def test_params_kernel_holds_their_materialized_taps(self):
        params = np.random.default_rng(5).uniform(-3.0, 3.0, (2, 3, 2, 2))
        kernel = SeparableArKernel(params=params)
        assert kernel.taps.tobytes() == materialize(params).tobytes()
        assert kernel.params.tobytes() == params.tobytes()

    def test_non_finite_params_named_before_the_stability_check(self):
        params = np.zeros((2, 1, 1, 2))
        params[1, 0, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"g\[0\]\[0\]\[1\] is nan, not a finite number"):
            SeparableArKernel(params=params)

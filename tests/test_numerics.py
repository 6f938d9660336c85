import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from armakit import arma
from armakit.arma import ar_spectra, layer_backward, layer_forward
from armakit.filters import (
    SeparableArKernel,
    compose_1d,
    materialize_2d,
)
from armakit.numerics import (
    DEFAULT_EPSILON,
    FieldTensor,
    MaKernel,
    SingularSpectrumError,
)
from conftest import (
    embed_taps,
    identity_ma,
    ma_stage,
    naive_circular_conv2,
    naive_dft1,
    naive_dft2,
)

IDENTITY = (0.0, 1.0, 0.0)


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return FieldTensor(rng.standard_normal(shape))


def ar_spectrum_2d(kernel, height, width):
    # the half spectrum A_hat = outer(G_hat, F_hat) per channel, which the layer never forms
    g_hat, f_hat = ar_spectra(kernel, height, width)
    return g_hat[:, None, :] * f_hat[None, :, :]


def random_kernel(rng, channels, depth=1):
    return SeparableArKernel.from_arrays(
        *(rng.uniform(-1.0, 1.0, (channels, depth)) for _ in range(4))
    )


def row_kernel(*factors):
    # one channel, a cascade along the column (f) axis, identity along rows
    return SeparableArKernel([(tuple(factors),), ((IDENTITY,) * len(factors),)])


def single_channel(taps, dilation=1):
    return MaKernel(np.asarray(taps, dtype=float)[:, :, None, None], dilation=dilation)


def reconvolve(y, taps_per_channel):
    """Convolve each channel of ``y`` with its own 2D taps, by direct summation."""
    planes = [
        naive_circular_conv2(y.data[:, :, c], taps) for c, taps in enumerate(taps_per_channel)
    ]
    return np.stack(planes, axis=2)


def kernel_taps(kernel):
    return [materialize_2d(kernel, c) for c in range(kernel.channels)]


def row_taps(kernel):
    # the f cascade as a one-row kernel, for 1-row fields
    return [compose_1d(kernel.taps[0][0])[None, :]]


class TestFieldTensor:
    def test_rejects_non_finite(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FieldTensor(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            FieldTensor(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            FieldTensor(np.zeros((2, 1, 3, 3, 1)))

    def test_from_2d_rejects_wrong_rank(self):
        assert FieldTensor.from_2d(np.ones((2, 3))).data.shape == (2, 3, 1)
        for shape in ((3,), (2, 3, 1)):
            with pytest.raises(ValueError, match="expected a 2D array"):
                FieldTensor.from_2d(np.ones(shape))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            FieldTensor(np.zeros((1, 0, 1)))

    def test_shape_properties(self):
        f = FieldTensor(np.zeros((2, 5, 3)))
        assert (f.height, f.width, f.channels) == (2, 5, 3)
        batch = FieldTensor(np.zeros((4, 2, 5, 3)))
        assert (batch.height, batch.width, batch.channels) == (2, 5, 3)


class TestMaKernel:
    def test_rejects_even_tap_counts(self):
        with pytest.raises(ValueError):
            MaKernel(np.zeros((2, 3, 1, 1)))
        with pytest.raises(ValueError):
            MaKernel(np.zeros((3, 4, 1, 1)))

    def test_rejects_bad_dilation(self):
        with pytest.raises(ValueError):
            MaKernel(np.zeros((3, 3, 1, 1)), dilation=0)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank-4"):
            MaKernel(np.zeros((3, 3, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        data = np.zeros((3, 3, 1, 1))
        data[1, 2, 0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            MaKernel(data)

    def test_channel_properties(self):
        k = MaKernel(np.zeros((3, 5, 4, 2)), dilation=2)
        assert (k.tap_height, k.tap_width) == (3, 5)
        assert (k.out_channels, k.in_channels) == (4, 2)
        assert k.dilation == 2


class TestDft1:
    """1D transforms along one axis of the autoregressive stage.

    The kernel spectrum is the only DFT the package builds itself; a separable
    kernel ``outer(G, F)`` must have the spectrum ``outer(G_hat, F_hat)``,
    kept for the ``W//2 + 1`` columns of a real field's half spectrum.
    """

    def test_impulse_is_constant(self):
        spectrum = ar_spectrum_2d(row_kernel(IDENTITY), 1, 4)
        assert np.allclose(spectrum[0, :, 0], np.ones(4 // 2 + 1))

    def test_shifted_impulse(self):
        # a lone +1 tap is a pure shift: against the oracle and the hand value
        spectrum = ar_spectrum_2d(row_kernel((0.0, 0.0, 1.0)), 1, 4)[0, :, 0]
        assert np.allclose(spectrum, [1, -1j, -1], atol=1e-12)
        assert np.allclose(spectrum, naive_dft1([0, 1, 0, 0])[: 4 // 2 + 1], atol=1e-12)

    def test_round_trip(self):
        # solving then re-convolving with the kernel returns the input
        x = FieldTensor(np.array([0.3, -1.2, 4.5]).reshape(1, 3, 1))
        kernel = row_kernel((0.2, 1.0, -0.3))
        y, _ = layer_forward(x, identity_ma(), kernel)
        assert np.allclose(reconvolve(y, row_taps(kernel)), x.data, atol=1e-12)

    def test_length_mismatch_is_usage_error(self):
        _, cache = layer_forward(FieldTensor(np.zeros((1, 4, 1))), identity_ma(), row_kernel(IDENTITY))
        with pytest.raises(ValueError):
            layer_backward(FieldTensor(np.ones((1, 3, 1))), cache)

    @pytest.mark.parametrize("n", [3, 5, 16, 31, 97, 1000, 4096])
    def test_plan_round_trip_tolerance(self, n):
        # prime and large lengths take different FFT routes inside the solve
        rng = np.random.default_rng(n)
        x = FieldTensor(rng.standard_normal((1, n, 1)))
        kernel = row_kernel((0.3, 1.0, -0.45))
        y, _ = layer_forward(x, identity_ma(), kernel)
        back = reconvolve(y, row_taps(kernel))
        assert np.max(np.abs(back - x.data)) / np.max(np.abs(x.data)) < 1e-12

    def test_matches_naive_oracle_prime_length(self):
        # separability on a 7x31 grid at depth 2, per channel
        rng = np.random.default_rng(1)
        kernel = random_kernel(rng, channels=2, depth=2)
        spectrum = ar_spectrum_2d(kernel, 7, 31)
        for c in range(2):
            g_taps = compose_1d(kernel.taps[1][c])[:, None]
            f_taps = compose_1d(kernel.taps[0][c])[None, :]
            g_hat = naive_dft1(embed_taps(g_taps, 7, 1)[:, 0])
            f_hat = naive_dft1(embed_taps(f_taps, 1, 31)[0])
            assert np.allclose(spectrum[:, :, c], np.outer(g_hat, f_hat)[:, : 31 // 2 + 1], atol=1e-9)


class TestDft2:
    """2D transforms of the autoregressive stage: kernel spectra and the solve."""

    def test_impulse_spectrum_all_ones(self):
        assert np.allclose(ar_spectrum_2d(SeparableArKernel.identity(2), 4, 4), 1.0)

    def test_constant_field(self):
        # a constant field lives at frequency (0, 0): the solve divides it by
        # the kernel's tap sum
        rng = np.random.default_rng(12)
        kernel = random_kernel(rng, channels=1)
        y, _ = layer_forward(FieldTensor(np.full((5, 3, 1), 2.5)), identity_ma(), kernel)
        assert np.allclose(y.data, 2.5 / materialize_2d(kernel, 0).sum(), atol=1e-10)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(2)
        kernel = random_kernel(rng, channels=3, depth=2)
        spectrum = ar_spectrum_2d(kernel, 5, 7)
        for c in range(3):
            grid = embed_taps(materialize_2d(kernel, c), 5, 7)
            assert np.allclose(spectrum[:, :, c], naive_dft2(grid)[:, : 7 // 2 + 1], atol=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 16, 31])
    def test_round_trip_square(self, n):
        rng = np.random.default_rng(n)
        kernel = random_kernel(rng, channels=2)
        field = FieldTensor(rng.standard_normal((n, n, 2)))
        y, _ = layer_forward(field, identity_ma(field.channels), kernel)
        assert np.max(np.abs(reconvolve(y, kernel_taps(kernel)) - field.data)) < 1e-10

    @pytest.mark.parametrize("shape", [(3, 31), (12, 5), (7, 16)])
    def test_round_trip_rectangular(self, shape):
        rng = np.random.default_rng(sum(shape))
        kernel = random_kernel(rng, channels=1)
        field = FieldTensor(rng.standard_normal(shape + (1,)))
        y, _ = layer_forward(field, identity_ma(field.channels), kernel)
        assert np.max(np.abs(reconvolve(y, kernel_taps(kernel)) - field.data)) < 1e-10

    def test_conjugate_symmetry(self):
        # real kernels have Hermitian spectra, so the half spectrum holds all
        # of it: its Hermitian inverse is the embedded real kernel grid
        kernel = random_kernel(np.random.default_rng(3), channels=2)
        s = ar_spectrum_2d(kernel, 6, 9)
        for c in range(2):
            grid = embed_taps(materialize_2d(kernel, c), 6, 9)
            back = np.fft.irfft2(s[:, :, c], s=(6, 9))
            assert np.max(np.abs(back - grid)) < 1e-10

    def test_parseval(self):
        # columns 1 .. W//2 - 1 (and W//2 for odd W) stand for their mirror
        # image too; column 0 and an even width's Nyquist column do not
        kernel = random_kernel(np.random.default_rng(4), channels=3)
        for width in (5, 6):
            spectrum = ar_spectrum_2d(kernel, 7, width)
            weights = np.full(width // 2 + 1, 2.0)
            weights[0] = 1.0
            if width % 2 == 0:
                weights[-1] = 1.0
            for c in range(3):
                spatial = (materialize_2d(kernel, c) ** 2).sum()
                spectral = (weights * np.abs(spectrum[:, :, c]) ** 2).sum() / (7 * width)
                assert abs(spatial - spectral) / spatial < 1e-9

    def test_linearity(self):
        kernel = random_kernel(np.random.default_rng(5), channels=2)
        x = random_field((6, 6, 2), seed=5)
        y = random_field((6, 6, 2), seed=6)
        a, b = 1.7, -0.4
        ma = identity_ma(2)
        lhs, _ = layer_forward(FieldTensor(a * x.data + b * y.data), ma, kernel)
        rhs = a * layer_forward(x, ma, kernel)[0].data + b * layer_forward(y, ma, kernel)[0].data
        assert np.max(np.abs(lhs.data - rhs)) < 1e-10


class TestCircularConv2:
    """The single-channel moving-average stage is a circular 2D convolution."""

    def test_identity_kernel(self):
        x = random_field((5, 7, 1), seed=7)
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        assert np.allclose(ma_stage(x, single_channel(delta)).data, x.data)

    def test_1d_fixture(self):
        # the row-axis twin of the column fixture in test_arma
        x = FieldTensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
        out = ma_stage(x, single_channel([[0.0], [1.0], [1.0]]))  # taps {0: 1, +1: 1}
        assert np.allclose(out.data.ravel(), [5, 3, 5, 7])

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_matches_direct_summation(self, dilation):
        rng = np.random.default_rng(8 + dilation)
        x = FieldTensor(rng.standard_normal((6, 9, 1)))
        taps = rng.standard_normal((3, 5))
        out = ma_stage(x, single_channel(taps, dilation))
        assert np.allclose(out.plane(), naive_circular_conv2(x.plane(), taps, dilation), atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_convolution_theorem(self, dilation):
        rng = np.random.default_rng(9 + dilation)
        x = FieldTensor(rng.standard_normal((8, 8, 1)))
        taps = rng.standard_normal((3, 3))
        spatial = ma_stage(x, single_channel(taps, dilation))
        spectral = np.fft.ifft2(
            np.fft.fft2(x.plane()) * np.fft.fft2(embed_taps(taps, 8, 8, dilation))
        ).real
        assert np.max(np.abs(spatial.plane() - spectral)) < 1e-10

    def test_footprint_guard(self):
        x = random_field((4, 4, 1), seed=10)
        with pytest.raises(ValueError):
            ma_stage(x, single_channel(np.ones((3, 3)), dilation=2))

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError):
            ma_stage(random_field((4, 4, 2), seed=0), single_channel(np.ones((1, 1))))


class TestEmbedKernel:
    def test_delta(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(embed_taps(np.array([[1.0]]), 4, 4), expected)

    def test_1d_row(self):
        out = embed_taps(np.array([[0.3, 1.0, 0.5]]), 1, 8)
        assert np.allclose(out.ravel(), [1, 0.5, 0, 0, 0, 0, 0, 0.3])

    def test_dilated_wrap_positions(self):
        taps = np.arange(1.0, 10.0).reshape(3, 3)
        out = embed_taps(taps, 8, 8, dilation=2)
        nonzero = set(zip(*np.nonzero(out)))
        assert nonzero == {(r, c) for r in (0, 2, 6) for c in (0, 2, 6)}
        # embedding is consistent with the direct convolution of an impulse
        impulse = np.zeros((8, 8))
        impulse[0, 0] = 1.0
        assert np.allclose(out, naive_circular_conv2(impulse, taps, dilation=2))

    def test_footprint_guard(self):
        # the solve refuses a kernel that would alias when embedded
        kernel = row_kernel((0.2, 1.0, 0.1), (0.1, 1.0, 0.2))
        with pytest.raises(ValueError):
            layer_forward(FieldTensor(np.ones((4, 4, 1))), identity_ma(), kernel)

    def test_aliasing_accumulates_in_raw_embed(self):
        # the unchecked array variant wraps overlapping taps additively
        grid = embed_taps(np.array([[0.25, 1.0, 0.5]]), 1, 2)
        assert np.allclose(grid, [[1.0, 0.75]])


class TestSpectralDivide:
    """The guard on ``|G_hat| * |F_hat|`` and the adjoint division by its conjugate factors."""

    def test_unit_denominator(self):
        d_y = random_field((3, 4, 2), seed=11)
        identity = SeparableArKernel.identity(2)
        _, cache = layer_forward(FieldTensor(np.zeros((3, 4, 2))), identity_ma(2), identity)
        g_hat, f_hat = cache.ar_spectra
        a_hat = g_hat[:, None, :] * f_hat[None, :, :]
        assert np.array_equal(a_hat, np.ones((3, 4 // 2 + 1, 2), dtype=complex))
        assert np.allclose(layer_backward(d_y, cache)[0].data, d_y.data)

    def test_geometric_solve(self):
        # the transposed geometric fixture: a~ * dT = delta for a = (1, -0.5)
        kernel = row_kernel((0.0, 1.0, -0.5))
        _, cache = layer_forward(FieldTensor(np.zeros((1, 4, 1))), identity_ma(), kernel)
        impulse = FieldTensor(np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 4, 1))
        out = layer_backward(impulse, cache)[0].data.ravel()
        expected = 0.5 ** np.arange(4) / (1 - 0.5**4)
        assert np.allclose(out, expected[[0, 3, 2, 1]], atol=1e-12)
        assert np.allclose(out, [1.0667, 0.1333, 0.2667, 0.5333], atol=1e-4)

    def test_zero_entry_raises_with_index(self):
        # g = (1, 1, 1) zeroes G_hat at k1 = 1 of 3 in channel 1, on every column
        ones = (1.0, 1.0, 1.0)
        kernel = SeparableArKernel([((IDENTITY,), (IDENTITY,)), ((IDENTITY,), (ones,))])
        with pytest.raises(SingularSpectrumError, match="below guard") as info:
            ar_spectra(kernel, 3, 4)
        assert info.value.index == (1, 0, 1)
        assert info.value.magnitude < 1e-15

    def test_threshold_tie_passes_and_one_ulp_below_raises(self, monkeypatch):
        # f = (a, 1, b) and g = (b, 1, a) on a 5x7 field: a threshold equal
        # to the least |G_hat| * |F_hat| passes, and one ulp above it is
        # refused at the first entry below it, which holds that least value
        for a, b in itertools.product((-0.3, -0.1, 0.0, 0.05, 0.1, 0.3), repeat=2):
            kernel = SeparableArKernel([[[(a, 1.0, b)]], [[(b, 1.0, a)]]])
            g_hat, f_hat = ar_spectra(kernel, 5, 7)
            magnitude = np.abs(g_hat)[:, None] * np.abs(f_hat)[None]
            margin = np.abs(g_hat).min() * np.abs(f_hat).min()
            threshold = np.nextafter(margin, np.inf)
            with monkeypatch.context() as patch:
                patch.setattr(arma, "DEFAULT_EPSILON", margin)
                ar_spectra(kernel, 5, 7)
                patch.setattr(arma, "DEFAULT_EPSILON", threshold)
                with pytest.raises(SingularSpectrumError) as info:
                    ar_spectra(kernel, 5, 7)
            below = magnitude < threshold
            assert info.value.index == np.unravel_index(np.argmax(below), below.shape), (a, b)
            assert info.value.magnitude == margin and info.value.epsilon == threshold

    def test_non_finite_entry_raises(self):
        # F_hat(0) overflows by itself; times G_hat(0) = 0 it is NaN.  Both
        # compare false against the threshold, yet no division by them is
        # well conditioned
        huge = (1e308, 1.0, 1e308)
        for g, problem in ((IDENTITY, "inf"), ((-0.5, 1.0, -0.5), "nan")):
            kernel = SeparableArKernel([((huge,),), ((g,),)])
            with pytest.raises(SingularSpectrumError, match="not finite") as info:
                ar_spectra(kernel, 4, 8)
            assert info.value.index == (0, 0, 0)
            assert str(info.value.magnitude) == problem

    def test_first_non_finite_index_is_named_before_small_entries(self):
        # channel 0 is zero at (0, 0, 0), ahead of channel 1's first overflow
        # at (1, 1, 1), where both of its sines are nonzero
        zero_at_0 = (-0.5, 1.0, -0.5)
        odd = (1e200, 1.0, -1e200)
        kernel = SeparableArKernel([((zero_at_0,), (odd,)), ((IDENTITY,), (odd,))])
        with pytest.raises(SingularSpectrumError, match="is not finite") as info:
            ar_spectra(kernel, 4, 8)
        assert info.value.index == (1, 1, 1)

    def test_overflowing_margin_raises(self):
        # taps near the float64 range: min|G_hat| * min|F_hat| overflows to
        # inf, which used to pass the margin test (and warn)
        huge = (1e300, 1.0, 1e300)
        kernel = SeparableArKernel([((IDENTITY,), (huge,)), ((IDENTITY,), (huge,))])
        with pytest.raises(SingularSpectrumError, match="not finite") as info:
            ar_spectra(kernel, 4, 8)
        assert info.value.index == (0, 0, 1)

    def test_overflowing_peak_raises(self):
        # |1 + 2a cos k| is about 1e144 where cos k rounds near 0, so the
        # margin is finite and far above the threshold, but the product of
        # the peaks, (2a)^2, overflows
        even = (1e160, 1.0, 1e160)
        kernel = SeparableArKernel([((even,),), ((even,),)])
        with pytest.raises(SingularSpectrumError, match="not finite") as info:
            ar_spectra(kernel, 4, 8)
        assert info.value.index == (0, 0, 0)

    def test_unit_circle_factor_raises_at_nyquist(self):
        # |fm1 + fp1| = f0 zeroes F_hat at k2 = W/2, on every row
        edge = (0.5, 1.0, 0.5)
        kernel = SeparableArKernel([((IDENTITY,), (edge,)), ((IDENTITY,), (IDENTITY,))])
        with pytest.raises(SingularSpectrumError) as info:
            ar_spectra(kernel, 4, 8)
        assert info.value.index == (0, 4, 1)

    def test_shape_mismatch(self):
        _, cache = layer_forward(
            FieldTensor(np.zeros((2, 2, 2))), identity_ma(2), SeparableArKernel.identity(2)
        )
        with pytest.raises(ValueError):
            layer_backward(FieldTensor(np.ones((2, 2, 1))), cache)


# length-3 factors: stable random ones, re-parameterized ones with |beta| near
# the ~9.56 where the minimum of their spectrum, at frequency pi or 0, crosses
# the default guard, and ones on the unit circle, |fm1 + fp1| = f0
stable_factors = st.tuples(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45)).map(
    lambda t: (t[0], 1.0, t[1])
)
near_singular_factors = st.tuples(st.floats(-3.0, 3.0), st.floats(9.3, 9.9), st.booleans()).map(
    lambda t: tuple(SeparableArKernel.from_arrays(
        [[t[0]]], [[t[1] if t[2] else -t[1]]], [[0.0]], [[0.0]]
    ).taps[0, 0, 0])
)
unit_circle_factors = st.tuples(st.floats(0.1, 0.9), st.sampled_from([1.0, -1.0])).map(
    lambda t: (t[0] * t[1], 1.0, (1.0 - t[0]) * t[1])
)
# taps from 1e155 to 1e200: one such factor in a cascade leaves its taps and
# its spectrum finite, and the spectra of an f and a g cascade that hold one
# each multiply to an overflow where neither is small
overflowing_factors = st.tuples(st.floats(155.0, 200.0), st.sampled_from([1.0, -1.0])).map(
    lambda t: (10.0 ** t[0], 1.0, t[1] * 10.0 ** t[0])
)


def reference_guard(magnitude, epsilon):
    """The index of the first entry that is not finite, else of the first
    below ``epsilon``; ``None`` if there is neither."""
    for bad in (~np.isfinite(magnitude), magnitude < epsilon):
        if bad.any():
            return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    return None


def guarded_index(kernel, height, width):
    """The index that :func:`ar_spectra` refuses, or ``None`` if it passes."""
    try:
        ar_spectra(kernel, height, width)
    except SingularSpectrumError as exc:
        return exc.index
    return None


class TestSeparableGuard:
    """The guard in :func:`ar_spectra` raises exactly where a guard on every 2D entry does."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        height=st.integers(1, 6),
        width=st.integers(1, 7),
        channels=st.integers(1, 2),
        depth=st.integers(1, 2),
        data=st.data(),
    )
    def test_raises_exactly_where_naive_dft_guard_raises(
        self, height, width, channels, depth, data
    ):
        # stable cascades with one or two factors replaced by edge cases
        shape = (2, channels, depth)
        factors = np.array(data.draw(st.lists(
            stable_factors, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        ))).reshape(shape + (3,))
        for _ in range(data.draw(st.integers(1, 2))):
            position = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
            factors[position] = data.draw(st.one_of(near_singular_factors, unit_circle_factors))
        kernel = SeparableArKernel(factors)
        oracle = np.stack([
            naive_dft2(embed_taps(materialize_2d(kernel, c), height, width))[:, : width // 2 + 1]
            for c in range(channels)
        ], axis=-1)
        # where the oracle's own roundoff decides, the two cannot be compared
        assume(not np.any(np.abs(np.abs(oracle) / DEFAULT_EPSILON - 1.0) < 1e-6))
        expected = reference_guard(np.abs(oracle), DEFAULT_EPSILON)
        assert guarded_index(kernel, height, width) == expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        height=st.integers(1, 6),
        width=st.integers(1, 7),
        channels=st.integers(1, 3),
        depth=st.integers(1, 2),
        data=st.data(),
    )
    def test_decides_as_the_reference_guard_on_magnitude_products(
        self, height, width, channels, depth, data
    ):
        # stable cascades with edge-case factors, including ones whose
        # spectra overflow when multiplied, under thresholds that tie an
        # entry |G_hat| * |F_hat| exactly or sit one ulp from it
        shape = (2, channels, depth)
        factors = np.array(data.draw(st.lists(
            stable_factors, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        ))).reshape(shape + (3,))
        for _ in range(data.draw(st.integers(1, 4))):
            axis, channel = data.draw(st.integers(0, 1)), data.draw(st.integers(0, channels - 1))
            if data.draw(st.booleans()):
                # at most one overflowing factor per cascade, so that its taps stay finite
                factors[axis, channel, 0] = data.draw(overflowing_factors)
            else:
                factors[axis, channel, data.draw(st.integers(0, depth - 1))] = data.draw(
                    st.one_of(near_singular_factors, unit_circle_factors)
                )
        kernel = SeparableArKernel(factors)
        # each axis's spectrum alone (the other axis identity, so its
        # spectrum is exactly 1) is finite, and passes a zero threshold
        identity = np.broadcast_to(IDENTITY, factors.shape[1:])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arma, "DEFAULT_EPSILON", 0.0)
            _, f_hat = ar_spectra(SeparableArKernel([factors[0], identity]), height, width)
            g_hat, _ = ar_spectra(SeparableArKernel([identity, factors[1]]), height, width)
        with np.errstate(over="ignore"):
            magnitude = np.abs(g_hat)[:, None, :] * np.abs(f_hat)[None, :, :]
        finite = np.sort(magnitude[np.isfinite(magnitude)])
        threshold = DEFAULT_EPSILON
        if finite.size:
            entry = finite[data.draw(st.integers(0, finite.size - 1))]
            threshold = data.draw(st.sampled_from(
                [DEFAULT_EPSILON, entry, np.nextafter(entry, np.inf), np.nextafter(entry, 0.0)]
            ))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arma, "DEFAULT_EPSILON", threshold)
            assert guarded_index(kernel, height, width) == reference_guard(magnitude, threshold)

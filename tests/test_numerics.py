import numpy as np
import pytest

from armakit.arma import ar_spectra, layer_backward, layer_forward, ma_forward
from armakit.filters import (
    IDENTITY_FILTER as IDENTITY,
    Length3Filter,
    SeparableArKernel,
    compose_1d,
    materialize_2d,
)
from armakit.numerics import (
    FieldTensor,
    MaKernel,
    SingularSpectrumError,
    guard_spectrum,
)
from conftest import embed_taps, identity_ma, naive_circular_conv2, naive_dft1, naive_dft2


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return FieldTensor(rng.standard_normal(shape))


def random_kernel(rng, channels, depth=1):
    return SeparableArKernel.from_arrays(
        *(rng.uniform(-1.0, 1.0, (channels, depth)) for _ in range(4))
    )


def row_kernel(*factors):
    # one channel, a cascade along the column (f) axis, identity along rows
    return SeparableArKernel(
        f_filters=(tuple(factors),), g_filters=((IDENTITY,) * len(factors),)
    )


def single_channel(taps, dilation=1):
    return MaKernel(np.asarray(taps, dtype=float)[:, :, None, None], dilation=dilation)


def reconvolve(y, taps_per_channel):
    """Convolve each channel of ``y`` with its own 2D taps."""
    planes = [
        ma_forward(FieldTensor(y.data[:, :, c : c + 1]), single_channel(taps)).plane()
        for c, taps in enumerate(taps_per_channel)
    ]
    return np.stack(planes, axis=2)


def kernel_taps(kernel):
    return [materialize_2d(kernel, c) for c in range(kernel.channels)]


def row_taps(kernel):
    # the f cascade as a one-row kernel, for 1-row fields
    return [compose_1d(kernel.f_filters[0])[None, :]]


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
        spectrum = ar_spectra(row_kernel(IDENTITY), 1, 4)
        assert np.allclose(spectrum[0, :, 0], np.ones(4 // 2 + 1))

    def test_shifted_impulse(self):
        # a lone +1 tap is a pure shift: against the oracle and the hand value
        spectrum = ar_spectra(row_kernel(Length3Filter(0.0, 0.0, 1.0)), 1, 4)[0, :, 0]
        assert np.allclose(spectrum, [1, -1j, -1], atol=1e-12)
        assert np.allclose(spectrum, naive_dft1([0, 1, 0, 0])[: 4 // 2 + 1], atol=1e-12)

    def test_round_trip(self):
        # solving then re-convolving with the kernel returns the input
        x = FieldTensor(np.array([0.3, -1.2, 4.5]).reshape(1, 3, 1))
        kernel = row_kernel(Length3Filter(0.2, 1.0, -0.3))
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
        kernel = row_kernel(Length3Filter(0.3, 1.0, -0.45))
        y, _ = layer_forward(x, identity_ma(), kernel)
        back = reconvolve(y, row_taps(kernel))
        assert np.max(np.abs(back - x.data)) / np.max(np.abs(x.data)) < 1e-12

    def test_matches_naive_oracle_prime_length(self):
        # separability on a 7x31 grid at depth 2, per channel
        rng = np.random.default_rng(1)
        kernel = random_kernel(rng, channels=2, depth=2)
        spectrum = ar_spectra(kernel, 7, 31)
        for c in range(2):
            g_taps = compose_1d(kernel.g_filters[c])[:, None]
            f_taps = compose_1d(kernel.f_filters[c])[None, :]
            g_hat = naive_dft1(embed_taps(g_taps, 7, 1)[:, 0])
            f_hat = naive_dft1(embed_taps(f_taps, 1, 31)[0])
            assert np.allclose(spectrum[:, :, c], np.outer(g_hat, f_hat)[:, : 31 // 2 + 1], atol=1e-9)


class TestDft2:
    """2D transforms of the autoregressive stage: kernel spectra and the solve."""

    def test_impulse_spectrum_all_ones(self):
        assert np.allclose(ar_spectra(SeparableArKernel.identity(2), 4, 4), 1.0)

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
        spectrum = ar_spectra(kernel, 5, 7)
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
        s = ar_spectra(kernel, 6, 9)
        for c in range(2):
            grid = embed_taps(materialize_2d(kernel, c), 6, 9)
            back = np.fft.irfft2(s[:, :, c], s=(6, 9))
            assert np.max(np.abs(back - grid)) < 1e-10

    def test_parseval(self):
        # columns 1 .. W//2 - 1 (and W//2 for odd W) stand for their mirror
        # image too; column 0 and an even width's Nyquist column do not
        kernel = random_kernel(np.random.default_rng(4), channels=3)
        for width in (5, 6):
            spectrum = ar_spectra(kernel, 7, width)
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
    """Single-channel :func:`ma_forward` is a circular 2D convolution."""

    def test_identity_kernel(self):
        x = random_field((5, 7, 1), seed=7)
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        assert np.allclose(ma_forward(x, single_channel(delta)).data, x.data)

    def test_1d_fixture(self):
        # the row-axis twin of the column fixture in test_arma
        x = FieldTensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
        out = ma_forward(x, single_channel([[0.0], [1.0], [1.0]]))  # taps {0: 1, +1: 1}
        assert np.allclose(out.data.ravel(), [5, 3, 5, 7])

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_matches_direct_summation(self, dilation):
        rng = np.random.default_rng(8 + dilation)
        x = FieldTensor(rng.standard_normal((6, 9, 1)))
        taps = rng.standard_normal((3, 5))
        out = ma_forward(x, single_channel(taps, dilation))
        assert np.allclose(out.plane(), naive_circular_conv2(x.plane(), taps, dilation), atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_convolution_theorem(self, dilation):
        rng = np.random.default_rng(9 + dilation)
        x = FieldTensor(rng.standard_normal((8, 8, 1)))
        taps = rng.standard_normal((3, 3))
        spatial = ma_forward(x, single_channel(taps, dilation))
        spectral = np.fft.ifft2(
            np.fft.fft2(x.plane()) * np.fft.fft2(embed_taps(taps, 8, 8, dilation))
        ).real
        assert np.max(np.abs(spatial.plane() - spectral)) < 1e-10

    def test_footprint_guard(self):
        x = random_field((4, 4, 1), seed=10)
        with pytest.raises(ValueError):
            ma_forward(x, single_channel(np.ones((3, 3)), dilation=2))

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError):
            ma_forward(random_field((4, 4, 2), seed=0), single_channel(np.ones((1, 1))))


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
        impulse = np.zeros((8, 8, 1))
        impulse[0, 0, 0] = 1.0
        conv = ma_forward(FieldTensor(impulse), single_channel(taps, dilation=2))
        assert np.allclose(out, conv.plane())

    def test_footprint_guard(self):
        # the solve refuses a kernel that would alias when embedded
        kernel = row_kernel(Length3Filter(0.2, 1.0, 0.1), Length3Filter(0.1, 1.0, 0.2))
        with pytest.raises(ValueError):
            layer_forward(FieldTensor(np.ones((4, 4, 1))), identity_ma(), kernel)

    def test_aliasing_accumulates_in_raw_embed(self):
        # the unchecked array variant wraps overlapping taps additively
        grid = embed_taps(np.array([[0.25, 1.0, 0.5]]), 1, 2)
        assert np.allclose(grid, [[1.0, 0.75]])


class TestSpectralDivide:
    """The guard on ``|A_hat|`` and the adjoint division by ``conj(A_hat)``."""

    def test_unit_denominator(self):
        d_y = random_field((3, 4, 2), seed=11)
        identity = SeparableArKernel.identity(2)
        _, cache = layer_forward(FieldTensor(np.zeros((3, 4, 2))), identity_ma(2), identity)
        assert np.array_equal(cache.ar_spectrum, np.ones((3, 4 // 2 + 1, 2), dtype=complex))
        guard_spectrum(cache.ar_spectrum, 1e-8)
        assert np.allclose(layer_backward(d_y, cache)[0].data, d_y.data)

    def test_geometric_solve(self):
        # the transposed geometric fixture: a~ * dT = delta for a = (1, -0.5)
        kernel = row_kernel(Length3Filter(0.0, 1.0, -0.5))
        _, cache = layer_forward(FieldTensor(np.zeros((1, 4, 1))), identity_ma(), kernel)
        impulse = FieldTensor(np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 4, 1))
        out = layer_backward(impulse, cache)[0].data.ravel()
        expected = 0.5 ** np.arange(4) / (1 - 0.5**4)
        assert np.allclose(out, expected[[0, 3, 2, 1]], atol=1e-12)
        assert np.allclose(out, [1.0667, 0.1333, 0.2667, 0.5333], atol=1e-4)

    def test_zero_entry_raises_with_index(self):
        spectrum = np.ones((2, 3, 1), dtype=complex)
        spectrum[1, 2, 0] = 0.0
        with pytest.raises(SingularSpectrumError) as info:
            guard_spectrum(spectrum, epsilon=1e-8)
        assert info.value.index == (1, 2, 0)

    def test_unit_circle_factor_raises_at_nyquist(self):
        # |fm1 + fp1| = f0 zeroes F_hat at k2 = W/2, on every row
        edge = Length3Filter(0.5, 1.0, 0.5)
        kernel = SeparableArKernel(
            f_filters=((IDENTITY,), (edge,)), g_filters=((IDENTITY,), (IDENTITY,))
        )
        with pytest.raises(SingularSpectrumError) as info:
            ar_spectra(kernel, 4, 8)
        assert info.value.index == (0, 4, 1)

    def test_shape_mismatch(self):
        _, cache = layer_forward(
            FieldTensor(np.zeros((2, 2, 2))), identity_ma(2), SeparableArKernel.identity(2)
        )
        with pytest.raises(ValueError):
            layer_backward(FieldTensor(np.ones((2, 2, 1))), cache)

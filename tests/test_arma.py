import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from armakit import arma
from armakit.arma import (
    ArmaLayerParams,
    ar_forward_dense,
    arma_backward,
    arma_forward,
    dense_circulant_matrix,
    layer_backward,
    layer_forward,
    spectral_forward,
)
from armakit.filters import (
    SeparableArKernel,
    materialize_2d,
    stable_factors,
)
from armakit.numerics import FieldTensor, MaKernel, SingularSpectrumError
from conftest import identity_ma, ma_stage, naive_circular_conv2, naive_circular_correlation


def field_1x4(values):
    return FieldTensor(np.asarray(values, dtype=float).reshape(1, 4, 1))


def causal_kernel(coeff, channels=1):
    causal = (0.0, 1.0, coeff)
    ident = (0.0, 1.0, 0.0)
    return SeparableArKernel([((causal,),) * channels, ((ident,),) * channels])


def random_stable_kernel(rng, channels, depth=1, rows=True):
    # rows=False keeps g at the identity, for one-row fields
    shape = (channels, depth)
    alpha_f, beta_f, alpha_g, beta_g = (rng.uniform(-1.5, 1.5, shape) for _ in range(4))
    if not rows:
        alpha_g, beta_g = np.zeros(shape), np.zeros(shape)
    return SeparableArKernel.from_arrays(alpha_f, beta_f, alpha_g, beta_g)


class TestMaForward:
    """The layer with the identity autoregressive kernel is the convolution."""

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(20)
        x = FieldTensor(rng.standard_normal((5, 6, 1)))
        assert np.allclose(ma_stage(x, identity_ma()).data, x.data)

    def test_1d_fixture(self):
        w = np.zeros((1, 3, 1, 1))
        w[0, 1, 0, 0] = 1.0
        w[0, 2, 0, 0] = 1.0
        out = ma_stage(field_1x4([1, 2, 3, 4]), MaKernel(w))
        assert np.allclose(out.data.ravel(), [5, 3, 5, 7])

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_matches_dense_block_matrix(self, dilation):
        # assemble the full (I^2 T) x (I^2 S) operator from the kernel taps,
        # dilated by zero-stuffing them into d*(K-1)+1 undilated taps
        rng = np.random.default_rng(21 + dilation)
        x = FieldTensor(rng.standard_normal((6, 6, 2)))
        w = MaKernel(rng.standard_normal((3, 3, 3, 2)), dilation=dilation)
        out = ma_stage(x, w)
        stuffed = np.zeros((2 * dilation + 1, 2 * dilation + 1) + w.data.shape[2:])
        stuffed[::dilation, ::dilation] = w.data
        for t in range(3):
            acc = np.zeros(36)
            for s in range(2):
                block = dense_circulant_matrix(stuffed[:, :, t, s], 6, 6)
                acc += block @ x.data[:, :, s].ravel()
            assert np.max(np.abs(out.data[:, :, t].ravel() - acc)) < 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            ma_stage(field_1x4([1, 2, 3, 4]), identity_ma(channels=2))


class TestArForward:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(22)
        x = FieldTensor(rng.standard_normal((4, 4, 2)))
        out, _ = layer_forward(x, identity_ma(2), SeparableArKernel.identity(2))
        assert np.max(np.abs(out.data - x.data)) < 1e-12

    def test_geometric_fixture(self):
        out, _ = layer_forward(field_1x4([1, 0, 0, 0]), identity_ma(), causal_kernel(-0.5))
        assert np.allclose(
            out.data.ravel(), [1.06667, 0.53333, 0.26667, 0.13333], atol=1e-5
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        t = FieldTensor(rng.standard_normal((8, 8, 2)))
        kernel = random_stable_kernel(rng, channels=2)
        fft_out, _ = layer_forward(t, identity_ma(t.channels), kernel)
        taps = [materialize_2d(kernel, c) for c in range(2)]
        dense_out = ar_forward_dense(t, taps)
        assert np.max(np.abs(fft_out.data - dense_out.data)) < 1e-8

    @pytest.mark.parametrize("shape", [(5, 7), (6, 9), (7, 6), (1, 5)])
    def test_matches_dense_oracle_odd_sizes(self, shape):
        # odd widths have no Nyquist column in the half spectrum; a one-row
        # field needs the identity along rows (alpha_g = beta_g = 0)
        rng = np.random.default_rng(sum(shape))
        kernel = random_stable_kernel(rng, channels=2, rows=shape[0] > 1)
        t = FieldTensor(rng.standard_normal(shape + (2,)))
        fft_out, _ = layer_forward(t, identity_ma(t.channels), kernel)
        dense_out = ar_forward_dense(t, [materialize_2d(kernel, c) for c in range(2)])
        assert np.max(np.abs(fft_out.data - dense_out.data)) < 1e-8

    @pytest.mark.parametrize("shape", [(5, 7), (6, 9), (7, 6), (1, 5)])
    def test_batch_matches_dense_oracle_per_sample(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        kernel = random_stable_kernel(rng, channels=2, rows=shape[0] > 1)
        t = FieldTensor(rng.standard_normal((2,) + shape + (2,)))
        fft_out, _ = layer_forward(t, identity_ma(t.channels), kernel)
        taps = [materialize_2d(kernel, c) for c in range(2)]
        for sample in range(2):
            dense_out = ar_forward_dense(FieldTensor(t.data[sample]), taps)
            assert np.max(np.abs(fft_out.data[sample] - dense_out.data)) < 1e-8

    def test_unstable_kernel_triggers_guard(self):
        # symmetric taps summing to -1 zero out the Nyquist frequency
        bad = (-0.5, 1.0, -0.5)
        kernel = SeparableArKernel([((bad,),), (((0, 1, 0),),)])
        with pytest.raises(SingularSpectrumError):
            layer_forward(FieldTensor(np.ones((4, 4, 1))), identity_ma(), kernel)


class TestArForwardDense:
    def test_delta_kernel(self):
        rng = np.random.default_rng(24)
        t = FieldTensor(rng.standard_normal((5, 5, 1)))
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        out = ar_forward_dense(t, [delta])
        assert np.allclose(out.data, t.data)

    def test_geometric_closed_form(self):
        taps = np.array([[0.0, 1.0, -0.5]])
        out = ar_forward_dense(field_1x4([1, 0, 0, 0]), [taps])
        expected = 0.5 ** np.arange(4) / (1 - 0.5**4)
        assert np.max(np.abs(out.data.ravel() - expected)) < 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            ar_forward_dense(FieldTensor(np.zeros((65, 65, 1))), [np.ones((1, 1))])

    def test_size_guard_admits_exactly_the_limit(self, monkeypatch):
        monkeypatch.setattr(arma, "DENSE_SOLVE_LIMIT", 16)
        t = FieldTensor(np.random.default_rng(25).standard_normal((4, 4, 1)))
        assert np.allclose(ar_forward_dense(t, [np.ones((1, 1))]).data, t.data)
        with pytest.raises(ValueError, match="17 pixels, dense solve limited to 16"):
            ar_forward_dense(FieldTensor(np.zeros((1, 17, 1))), [np.ones((1, 1))])

    def test_kernel_count_must_match_channels(self):
        with pytest.raises(ValueError, match="1 kernels supplied for 2 channels"):
            ar_forward_dense(FieldTensor(np.zeros((3, 3, 2))), [np.ones((1, 1))])

    def test_singular_system_raises_singular_spectrum(self):
        # channel 1's all-zero kernel makes its circulant matrix singular
        t = FieldTensor(np.ones((3, 3, 2)))
        with pytest.raises(SingularSpectrumError) as info:
            ar_forward_dense(t, [np.ones((1, 1)), np.zeros((1, 1))])
        assert info.value.index == (0, 0, 1)

    def test_cross_oracle_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            channels = int(rng.integers(1, 4))
            h = int(rng.integers(5, 13))
            w = int(rng.integers(5, 13))
            t = FieldTensor(rng.standard_normal((h, w, channels)))
            kernel = random_stable_kernel(rng, channels)
            fft_out, _ = layer_forward(t, identity_ma(t.channels), kernel)
            dense_out = ar_forward_dense(t, [materialize_2d(kernel, c) for c in range(channels)])
            assert np.max(np.abs(fft_out.data - dense_out.data)) < 1e-8


class TestArBackward:
    def test_delta_kernel_case(self):
        # with A = delta: dT = dY and dA = -(reversed Y) * dY; the identity
        # factors read dF off row 0 of dA and dG off its column 0
        rng = np.random.default_rng(26)
        t = FieldTensor(rng.standard_normal((5, 4, 1)))
        y, cache = layer_forward(t, identity_ma(), SeparableArKernel.identity(1))
        d_y = FieldTensor(rng.standard_normal((5, 4, 1)))
        d_t, _, d_fg = layer_backward(d_y, cache)
        assert np.max(np.abs(d_t.data - d_y.data)) < 1e-12
        expected = np.zeros((5, 4))
        for q1 in range(5):
            for q2 in range(4):
                total = 0.0
                for i1 in range(5):
                    for i2 in range(4):
                        total += y.data[(i1 - q1) % 5, (i2 - q2) % 4, 0] * d_y.data[i1, i2, 0]
                expected[q1, q2] = -total
        offsets = np.arange(-1, 2)
        assert np.max(np.abs(d_fg[0, 0, 0] - expected[0, offsets % 4])) < 1e-10
        assert np.max(np.abs(d_fg[1, 0, 0] - expected[offsets % 5, 0])) < 1e-10

    def test_transposed_geometric_fixture(self):
        _, cache = layer_forward(field_1x4([1, 0, 0, 0]), identity_ma(), causal_kernel(-0.5))
        d_t = layer_backward(field_1x4([1, 0, 0, 0]), cache)[0]
        assert np.allclose(
            d_t.data.ravel(), [1.06667, 0.13333, 0.26667, 0.53333], atol=1e-5
        )

    def test_shape_guard(self):
        _, cache = layer_forward(field_1x4([1, 0, 0, 0]), identity_ma(), causal_kernel(-0.5))
        with pytest.raises(ValueError):
            layer_backward(FieldTensor(np.zeros((2, 2, 1))), cache)

    def test_refuses_gradient_one_column_wider(self):
        # widths 4 and 5 share the 3 columns of the half spectrum
        _, cache = layer_forward(field_1x4([1, 0, 0, 0]), identity_ma(), causal_kernel(-0.5))
        with pytest.raises(ValueError):
            layer_backward(FieldTensor(np.zeros((1, 5, 1))), cache)

    def test_backward_honours_forward_epsilon(self, monkeypatch):
        # min|A_hat| = 1 - 2*0.4999999998 = 4e-10, at the Nyquist column
        near = (0.4999999998, 1.0, 0.4999999998)
        kernel = SeparableArKernel([((near,),), (((0, 1, 0),),)])
        t = FieldTensor(np.random.default_rng(29).standard_normal((4, 8, 1)))
        with monkeypatch.context() as patch:
            # the threshold is read from the module at call time
            patch.setattr(arma, "DEFAULT_EPSILON", 1e-12)
            y, cache = layer_forward(t, identity_ma(), kernel)
        d_t = layer_backward(y, cache)[0]
        assert np.all(np.isfinite(d_t.data))
        with pytest.raises(SingularSpectrumError) as info:
            layer_forward(t, identity_ma(), kernel)
        assert info.value.index == (0, 4, 0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        depth=st.integers(1, 2),
        channels=st.integers(1, 3),
        batch=st.integers(1, 3),
        extra_height=st.integers(0, 4),
        extra_width=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factor_scaling_identity(self, depth, channels, batch, extra_height, extra_width, seed):
        # scaling one factor of channel t by lam scales Y[..., t] by 1/lam, so
        # with dY = Y every factor's taps satisfy <dF, f> = <dG, g> = -|Y_t|^2
        rng = np.random.default_rng(seed)
        height, width = 2 * depth + 1 + extra_height, 2 * depth + 1 + extra_width
        shape = (height, width, channels) if batch == 1 else (batch, height, width, channels)
        kernel = random_stable_kernel(rng, channels, depth)
        x = FieldTensor(rng.standard_normal(shape))
        y, cache = layer_forward(x, identity_ma(channels), kernel)
        _, _, d_fg = layer_backward(y, cache)
        for t in range(channels):
            energy = -float((y.data[..., t] ** 2).sum())
            for q in range(depth):
                for grads, factor in zip(d_fg, kernel.taps):
                    got = float(grads[t, q] @ factor[t][q])
                    assert got == pytest.approx(energy, rel=1e-10)


class TestMaBackward:
    def test_delta_kernel(self):
        rng = np.random.default_rng(27)
        x = FieldTensor(rng.standard_normal((4, 4, 1)))
        d_t = FieldTensor(rng.standard_normal((4, 4, 1)))
        _, cache = layer_forward(x, identity_ma(), SeparableArKernel.identity(1))
        d_x, d_w, _ = layer_backward(d_t, cache)
        assert np.allclose(d_x.data, d_t.data)
        assert d_w.shape == (1, 1, 1, 1)

    def test_transpose_fixture(self):
        w = np.zeros((1, 3, 1, 1))
        w[0, 1, 0, 0] = 1.0
        w[0, 2, 0, 0] = 1.0
        zeros = field_1x4([0, 0, 0, 0])
        _, cache = layer_forward(zeros, MaKernel(w), SeparableArKernel.identity(1))
        d_x = layer_backward(field_1x4([1, 0, 0, 0]), cache)[0]
        assert np.allclose(d_x.data.ravel(), [1, 0, 0, 1])

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_gradients_match_finite_differences(self, dilation):
        rng = np.random.default_rng(28 + dilation)
        x0 = rng.standard_normal((6, 6, 2))
        w0 = rng.standard_normal((3, 3, 2, 2)) * 0.5
        d_y = rng.standard_normal((6, 6, 2))

        def loss(x_flat, w_flat):
            out = ma_stage(
                FieldTensor(x_flat.reshape(x0.shape)),
                MaKernel(w_flat.reshape(w0.shape), dilation=dilation),
            )
            return float((out.data * d_y).sum())

        kernel = MaKernel(w0, dilation=dilation)
        _, cache = layer_forward(FieldTensor(x0), kernel, SeparableArKernel.identity(2))
        d_x, d_w, _ = layer_backward(FieldTensor(d_y), cache)
        h = 1e-6
        for i in rng.choice(x0.size, 20, replace=False):
            bump = x0.ravel().copy()
            bump[i] += h
            up = loss(bump, w0.ravel())
            bump[i] -= 2 * h
            lo = loss(bump, w0.ravel())
            assert d_x.data.ravel()[i] == pytest.approx((up - lo) / (2 * h), rel=1e-6, abs=1e-8)
        for i in rng.choice(w0.size, 20, replace=False):
            bump = w0.ravel().copy()
            bump[i] += h
            up = loss(x0.ravel(), bump)
            bump[i] -= 2 * h
            lo = loss(x0.ravel(), bump)
            assert d_w.ravel()[i] == pytest.approx((up - lo) / (2 * h), rel=1e-6, abs=1e-8)


def random_params(rng, in_channels, out_channels, depth):
    w = MaKernel(rng.standard_normal((3, 3, out_channels, in_channels)) * 0.5)
    ar = SeparableArKernel.from_arrays(
        rng.uniform(-1, 1, (out_channels, depth)),
        rng.uniform(-1, 1, (out_channels, depth)),
        rng.uniform(-1, 1, (out_channels, depth)),
        rng.uniform(-1, 1, (out_channels, depth)),
    )
    return ArmaLayerParams(ma=w, ar=ar)


class TestArmaLayer:
    def test_reduces_to_ma_with_identity_ar(self):
        rng = np.random.default_rng(30)
        x = FieldTensor(rng.standard_normal((6, 6, 2)))
        w = MaKernel(rng.standard_normal((3, 3, 3, 2)))
        params = ArmaLayerParams(ma=w, ar=SeparableArKernel.identity(3))
        y, _ = arma_forward(x, params)
        assert np.max(np.abs(y.data - naive_ma(x.data, w))) < 1e-12

    def test_identity_layer_passes_through_gradient(self):
        rng = np.random.default_rng(31)
        x = FieldTensor(rng.standard_normal((5, 5, 1)))
        params = ArmaLayerParams(ma=identity_ma(), ar=SeparableArKernel.identity(1))
        y, cache = arma_forward(x, params)
        assert np.allclose(y.data, x.data)
        d_y = FieldTensor(rng.standard_normal((5, 5, 1)))
        d_x, _, _ = arma_backward(d_y, x, params, cache)
        assert np.max(np.abs(d_x.data - d_y.data)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(32)
        params = random_params(rng, 2, 2, 1)
        x1 = FieldTensor(rng.standard_normal((6, 6, 2)))
        x2 = FieldTensor(rng.standard_normal((6, 6, 2)))
        a, b = 0.7, -2.1
        y1, _ = arma_forward(x1, params)
        y2, _ = arma_forward(x2, params)
        mixed, _ = arma_forward(FieldTensor(a * x1.data + b * x2.data), params)
        assert np.max(np.abs(mixed.data - (a * y1.data + b * y2.data))) < 1e-9

    def test_shift_equivariance(self):
        rng = np.random.default_rng(33)
        params = random_params(rng, 1, 1, 1)
        x = FieldTensor(rng.standard_normal((8, 8, 1)))
        y, _ = arma_forward(x, params)
        shifted, _ = arma_forward(FieldTensor(np.roll(x.data, (3, 5), axis=(0, 1))), params)
        assert np.max(np.abs(shifted.data - np.roll(y.data, (3, 5), axis=(0, 1)))) < 1e-12

    def test_full_oracle_equivalence_small_grids(self):
        rng = np.random.default_rng(34)
        for size in (3, 5, 8, 12, 16):
            channels = int(rng.integers(1, 3))
            t = FieldTensor(rng.standard_normal((size, size, channels)))
            kernel = random_stable_kernel(rng, channels)
            fft_out, _ = layer_forward(t, identity_ma(t.channels), kernel)
            dense_out = ar_forward_dense(
                t, [materialize_2d(kernel, c) for c in range(channels)]
            )
            assert np.max(np.abs(fft_out.data - dense_out.data)) < 1e-8

    @pytest.mark.parametrize("depth", [1, 2])
    def test_all_gradients_match_finite_differences(self, depth):
        from armakit.cli import gradcheck_report

        report, failures = gradcheck_report(
            size=6, in_channels=1, out_channels=2, depth=depth, seed=41, tol=1e-5
        )
        assert failures == []
        assert max(report.values()) < 1e-5

    def test_params_validation(self):
        # a channel mismatch surfaces at the solve, which checks it on every path
        rng = np.random.default_rng(35)
        params = ArmaLayerParams(
            ma=MaKernel(rng.standard_normal((3, 3, 2, 1))),
            ar=SeparableArKernel.identity(3),
        )
        with pytest.raises(ValueError, match="produces 2 channels"):
            arma_forward(FieldTensor(rng.standard_normal((5, 5, 1))), params)
        unstable = (0.6, 1.0, 0.6)
        with pytest.raises(ValueError, match="no \\(alpha, beta\\) parameters"):
            ArmaLayerParams(
                ma=MaKernel(rng.standard_normal((3, 3, 1, 1))),
                ar=SeparableArKernel([((unstable,),), ((unstable,),)]),
            )

    @pytest.mark.parametrize("beta, below_one", [(19.0, True), (20.0, False)])
    def test_params_at_float64_tanh_edge(self, beta, below_one):
        # math.tanh(19) < 1 while math.tanh(20) rounds to 1, and materialize
        # clamps it below 1: both kernels are layers
        assert (math.tanh(beta) < 1.0) is below_one
        zero = np.zeros((1, 1))
        kernel = SeparableArKernel.from_arrays(zero, np.full((1, 1), beta), zero, zero)
        ArmaLayerParams(ma=identity_ma(), ar=kernel)
        assert stable_factors(kernel.taps).all()

    def test_raw_kernel_backward_rejected_without_params(self):
        # a raw stable kernel is a valid layer, but it has no (alpha, beta)
        # coordinates for arma_backward to differentiate
        with pytest.raises(ValueError, match="layer_forward/layer_backward"):
            ArmaLayerParams(ma=identity_ma(), ar=causal_kernel(-0.5))

    def test_cache_from_other_params_rejected(self):
        # the factor taps would come from the cache's kernel and the chain
        # rule from params': same shapes, silently wrong gradients
        rng = np.random.default_rng(37)
        x = FieldTensor(rng.standard_normal((6, 6, 1)))
        p1, p2 = random_params(rng, 1, 1, 1), random_params(rng, 1, 1, 1)
        y, cache = arma_forward(x, p1)
        with pytest.raises(ValueError, match="cache"):
            arma_backward(y, x, p2, cache)
        # the same AR kernel with another MA kernel: dW would be p1's
        with pytest.raises(ValueError, match="cache"):
            arma_backward(y, x, ArmaLayerParams(ma=p2.ma, ar=p1.ar), cache)

    @pytest.mark.parametrize("shape", [(6, 7, 1), (2, 6, 6, 1)])
    def test_input_of_other_shape_rejected(self, shape):
        # dW comes from the forward's input spectrum in the cache, so an x of
        # another shape cannot be the input it was built from
        rng = np.random.default_rng(38)
        x = FieldTensor(rng.standard_normal((6, 6, 1)))
        params = random_params(rng, 1, 1, 1)
        y, cache = arma_forward(x, params)
        with pytest.raises(ValueError) as info:
            arma_backward(y, FieldTensor(rng.standard_normal(shape)), params, cache)
        assert str(shape) in str(info.value) and str((6, 6, 1)) in str(info.value)


class TestRawTapGradients:
    def test_raw_taps_match_finite_differences(self):
        # odd and even widths (the Nyquist column) and a batch of two fields
        rng = np.random.default_rng(37)
        taps0 = np.array([0.2, -0.3, 0.1, 0.25])  # f (fm1, fp1), g (fm1, fp1)

        def kernel_from(taps):
            return SeparableArKernel([
                (((taps[0], 1.0, taps[1]),),),
                (((taps[2], 1.0, taps[3]),),),
            ])

        for shape in ((6, 6, 1), (5, 7, 1), (6, 8, 1), (2, 5, 8, 1)):
            x = FieldTensor(rng.standard_normal(shape))
            w = MaKernel(rng.standard_normal((3, 3, 1, 1)) * 0.5)
            pre = ma_stage(x, w)

            def loss(taps):
                y, _ = layer_forward(pre, identity_ma(), kernel_from(taps))
                return 0.5 * float((y.data**2).sum())

            y, cache = layer_forward(pre, identity_ma(), kernel_from(taps0))
            _, _, d_fg = layer_backward(y, cache)
            analytic = d_fg[:, 0, 0, ::2].ravel()  # f (fm1, fp1), g (fm1, fp1)
            h = 1e-6
            for i in range(4):
                bump = taps0.copy()
                bump[i] += h
                up = loss(bump)
                bump[i] -= 2 * h
                lo = loss(bump)
                assert analytic[i] == pytest.approx((up - lo) / (2 * h), rel=1e-6, abs=1e-9)


def inner(a, b):
    return float(np.vdot(a, b))


def field_shape(h, w, channels):
    # ``h`` is a height, or ``(N, height)`` for a batch of N fields
    return tuple(np.atleast_1d(h)) + (w, channels)


# (height, width, in channels S, out channels T, taps (kh, kw), dilation)
ADJOINT_CASES = [
    (6, 9, 1, 1, (3, 3), 1),
    (7, 5, 2, 3, (3, 5), 1),
    (9, 12, 3, 2, (3, 5), 2),
    (9, 11, 2, 4, (5, 3), 2),
    (10, 10, 3, 3, (1, 3), 2),
    ((3, 8), 7, 2, 3, (3, 3), 2),
]


class TestAdjointIdentities:
    """``<L x, y> = <x, L^T y>`` for the spectral MA stage and the AR adjoint."""

    @pytest.mark.parametrize("h, w, s, t, taps, dilation", ADJOINT_CASES)
    def test_ma_input_adjoint(self, h, w, s, t, taps, dilation):
        rng = np.random.default_rng(int(np.prod(h)) * w + dilation)
        x = FieldTensor(rng.standard_normal(field_shape(h, w, s)))
        y = FieldTensor(rng.standard_normal(field_shape(h, w, t)))
        kernel = MaKernel(rng.standard_normal(taps + (t, s)), dilation=dilation)
        lhs = inner(ma_stage(x, kernel).data, y.data)
        _, cache = layer_forward(x, kernel, SeparableArKernel.identity(t))
        rhs = inner(x.data, layer_backward(y, cache)[0].data)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("h, w, s, t, taps, dilation", ADJOINT_CASES)
    def test_ma_kernel_adjoint(self, h, w, s, t, taps, dilation):
        # the MA stage is linear in W too, so <W*x, y> = <W, dW>
        rng = np.random.default_rng(int(np.prod(h)) * w + dilation + 1)
        x = FieldTensor(rng.standard_normal(field_shape(h, w, s)))
        y = FieldTensor(rng.standard_normal(field_shape(h, w, t)))
        kernel = MaKernel(rng.standard_normal(taps + (t, s)), dilation=dilation)
        d_w = layer_backward(y, layer_forward(x, kernel, SeparableArKernel.identity(t))[1])[1]
        lhs = inner(ma_stage(x, kernel).data, y.data)
        assert lhs == pytest.approx(inner(kernel.data, d_w), rel=1e-10)

    @pytest.mark.parametrize(
        "h, w, channels, depth",
        [(5, 7, 1, 1), (6, 9, 3, 2), (8, 5, 2, 2), ((3, 6), 5, 2, 2), (5, 9, 2, 2), ((2, 7), 9, 3, 1)],
    )
    def test_ar_adjoint(self, h, w, channels, depth):
        rng = np.random.default_rng(int(np.prod(h)) * w + depth)
        kernel = random_stable_kernel(rng, channels, depth)
        t = FieldTensor(rng.standard_normal(field_shape(h, w, channels)))
        y = FieldTensor(rng.standard_normal(field_shape(h, w, channels)))
        forward, cache = layer_forward(t, identity_ma(channels), kernel)
        adjoint = layer_backward(y, cache)[0]
        assert inner(forward.data, y.data) == pytest.approx(inner(t.data, adjoint.data), rel=1e-10)


@st.composite
def layer_cases(draw):
    """``(batch, height, width, S, T, (kh, kw), dilation, depth, seed)`` on grids
    of at most 64 pixels: every dilated MA footprint fits the field, and so
    does the AR kernel's along the columns (along the rows only if it fits)."""
    height = draw(st.integers(1, 8))
    width = draw(st.integers(3, 64 // height))
    dilation = draw(st.integers(1, 3))
    kh = draw(st.sampled_from([k for k in (1, 3) if dilation * (k - 1) < height]))
    kw = draw(st.sampled_from([k for k in (1, 3, 5) if dilation * (k - 1) < width]))
    depth = draw(st.integers(1, min(2, (width - 1) // 2)))
    channels = st.integers(1, 3)
    return (
        draw(st.integers(1, 3)), height, width, draw(channels), draw(channels),
        (kh, kw), dilation, depth, draw(st.integers(0, 2**32 - 1)),
    )


def samples(a):
    # the fields of a batch, or the one field of a rank-3 array
    return a.reshape((-1,) + a.shape[-3:])


def naive_ma(x, w):
    # the multi-channel convolution from conftest's direct summation, per sample
    out = np.zeros(x.shape[:-1] + (w.out_channels,))
    for sample, field in zip(samples(out), samples(x)):
        for t in range(w.out_channels):
            for s in range(w.in_channels):
                sample[:, :, t] += naive_circular_conv2(field[:, :, s], w.data[:, :, t, s], w.dilation)
    return out


def draw_layer(case):
    batch, height, width, s, t, taps, dilation, depth, seed = case
    rng = np.random.default_rng(seed)
    lead = () if batch == 1 else (batch,)
    x = FieldTensor(rng.standard_normal(lead + (height, width, s)))
    d_t = FieldTensor(rng.standard_normal(lead + (height, width, t)))
    w = MaKernel(rng.standard_normal(taps + (t, s)), dilation=dilation)
    ar = random_stable_kernel(rng, t, depth, rows=2 * depth < height)
    return x, d_t, w, ar


# (batch, height, width, S, T, taps, dilation, depth, seed): one-row fields
# of odd and even width, and a dilation-3 kernel whose footprint just fits
SPECTRAL_EXAMPLES = [
    (2, 1, 7, 2, 3, (1, 3), 3, 2, 0),
    (1, 1, 8, 1, 2, (1, 5), 1, 1, 1),
    (3, 7, 7, 3, 1, (3, 3), 3, 1, 2),
]


def with_examples(test):
    for case in SPECTRAL_EXAMPLES:
        test = example(case=case)(test)
    return test


class TestSpectralMaProperties:
    """The spectral MA stage and the fused layer against the direct oracles."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=layer_cases())
    @with_examples
    def test_forward_matches_naive_convolution(self, case):
        x, _, w, _ = draw_layer(case)
        want = naive_ma(x.data, w)
        assert np.max(np.abs(ma_stage(x, w).data - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=layer_cases())
    @with_examples
    def test_adjoint_identities(self, case):
        # <W*x, dT> = <x, W^T dT> = <W, dW>, to roundoff of |W*x| |dT|
        x, d_t, w, _ = draw_layer(case)
        forward = ma_stage(x, w).data
        lhs = inner(forward, d_t.data)
        scale = 1e-12 * np.linalg.norm(forward) * np.linalg.norm(d_t.data)
        _, cache = layer_forward(x, w, SeparableArKernel.identity(w.out_channels))
        d_x, d_w, _ = layer_backward(d_t, cache)
        assert abs(lhs - inner(x.data, d_x.data)) <= scale
        assert abs(lhs - inner(w.data, d_w)) <= scale

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=layer_cases())
    @with_examples
    def test_fused_layer_matches_dense_solve(self, case):
        x, _, w, ar = draw_layer(case)
        y, _ = arma_forward(x, ArmaLayerParams(ma=w, ar=ar))
        pre = naive_ma(x.data, w)
        taps = [materialize_2d(ar, c) for c in range(ar.channels)]
        for got, field in zip(samples(y.data), samples(pre)):
            dense = ar_forward_dense(FieldTensor(field), taps)
            assert np.max(np.abs(got - dense.data)) < 1e-8


class TestBatchAxis:
    def test_batch_equals_stacked_samples(self):
        # one call on (N, H, W, C) gives each sample's Y and dX, and kernel
        # gradients that are the sums of the per-sample ones
        rng = np.random.default_rng(39)
        params = random_params(rng, 2, 3, 2)
        x = FieldTensor(rng.standard_normal((3, 7, 6, 2)))
        d_y = FieldTensor(rng.standard_normal((3, 7, 6, 3)))
        y, cache = arma_forward(x, params)
        d_x, d_w, grads = arma_backward(d_y, x, params, cache)

        singles = []
        for x_n, d_y_n in zip(x.data, d_y.data):
            y_n, cache_n = arma_forward(FieldTensor(x_n), params)
            d_x_n, d_w_n, grads_n = arma_backward(FieldTensor(d_y_n), FieldTensor(x_n), params, cache_n)
            singles.append((y_n.data, d_x_n.data, d_w_n, grads_n))

        def assert_close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        assert_close(y.data, np.stack([s[0] for s in singles]))
        assert_close(d_x.data, np.stack([s[1] for s in singles]))
        assert_close(d_w, sum(s[2] for s in singles))
        for name in ("alpha_f", "beta_f", "alpha_g", "beta_g"):
            assert_close(getattr(grads, name), sum(getattr(s[3], name) for s in singles))


class TestSpectralCore:
    """The spectrum-in, spectrum-out core chained with no transform between layers."""

    @pytest.mark.parametrize("shape", [(6, 8, 1), (2, 7, 5, 1), (5, 6, 1)])
    def test_chained_core_matches_chained_layers(self, shape):
        # the Nyquist column (even widths) and odd widths never pass through
        # an irfft2/rfft2 round trip between layers, yet must agree with it
        rng = np.random.default_rng(sum(shape))
        stack = [random_params(rng, s, t, depth=2) for s, t in ((1, 3), (3, 2), (2, 1))]
        x = FieldTensor(rng.standard_normal(shape))
        d_y = FieldTensor(rng.standard_normal(shape))
        height, width = shape[-3:-1]

        y, caches = x, []
        for p in stack:
            y, cache = layer_forward(y, p.ma, p.ar)
            caches.append(cache)
        y_hat, field_shape, spectral_caches = np.fft.rfft2(x.data, axes=(-3, -2)), shape, []
        for p in stack:
            y_hat, cache = spectral_forward(y_hat, field_shape, p.ma, p.ar)
            field_shape = cache.shape
            spectral_caches.append(cache)

        def assert_close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        assert_close(np.fft.irfft2(y_hat, s=(height, width), axes=(-3, -2)), y.data)

        grad, grad_hat = d_y, np.fft.rfft2(d_y.data, axes=(-3, -2))
        for cache, spectral_cache in zip(reversed(caches), reversed(spectral_caches)):
            grad, d_w, d_fg = layer_backward(grad, cache)
            grad_hat, got_w, got_factors = arma._spectral_backward(grad_hat, spectral_cache, True)
            for got, want in zip((got_w, got_factors), (d_w, d_fg)):
                assert_close(got, want)
        assert_close(np.fft.irfft2(grad_hat, s=(height, width), axes=(-3, -2)), grad.data)

    def test_refuses_spectrum_of_another_shape(self):
        params = random_params(np.random.default_rng(44), 1, 2, 1)
        x_hat = np.fft.rfft2(np.ones((6, 8, 1)), axes=(0, 1))
        with pytest.raises(ValueError, match="half spectrum"):
            spectral_forward(x_hat, (6, 10, 1), params.ma, params.ar)

    def test_refuses_ar_kernel_with_other_channel_count(self):
        params = random_params(np.random.default_rng(46), 1, 2, 1)
        x_hat = np.fft.rfft2(np.ones((6, 8, 1)), axes=(0, 1))
        with pytest.raises(ValueError, match="produces 2 channels but autoregressive kernel has 3"):
            spectral_forward(x_hat, (6, 8, 1), params.ma, SeparableArKernel.identity(3))

    def test_cache_holds_the_two_1d_ar_spectra(self):
        # a batch of 2 keeps the output spectrum's shape apart from a 2D A_hat's
        params = random_params(np.random.default_rng(45), 2, 3, depth=2)
        _, cache = layer_forward(FieldTensor(np.ones((2, 6, 8, 2))), params.ma, params.ar)
        arrays = [
            a for v in vars(cache).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)
        ]
        assert [a.shape for a in cache.ar_spectra] == [(6, 3), (8 // 2 + 1, 3)]
        assert sorted(a.shape for a in arrays) == sorted(
            [(2, 6, 5, 2), (2, 6, 5, 3), (6, 3), (5, 3)]
        )

    def test_backward_leaves_its_inputs_as_they_are(self):
        # dT_hat is formed in place only in a spectrum the core made itself
        rng = np.random.default_rng(47)
        params = random_params(rng, 2, 3, depth=2)
        x = FieldTensor(rng.standard_normal((2, 6, 8, 2)))
        _, cache = spectral_forward(np.fft.rfft2(x.data, axes=(-3, -2)), x.data.shape,
                                    params.ma, params.ar)
        d_y = FieldTensor(rng.standard_normal((2, 6, 8, 3)))
        arrays = [d_y.data, cache.input_spectrum, cache.output_spectrum,
                  *cache.ar_spectra, cache.ma.data, cache.ar.taps[0], cache.ar.taps[1]]
        before = [a.tobytes() for a in arrays]
        layer_backward(d_y, cache)
        assert [a.tobytes() for a in arrays] == before

    def test_layer_memory_peak(self):
        # one 256^2 x 1->4 forward and backward with no (I1, I2//2+1, T)
        # A_hat nor its conjugate, dT_hat formed in the rfft2 of dY and the
        # cross spectra elementwise: tracemalloc peak 9.84 MB; 11.2 MB with
        # dT_hat a new array and einsum cross spectra, 13.3 MB with A_hat as well
        rng = np.random.default_rng(46)
        params = random_params(rng, 1, 4, depth=2)
        x = FieldTensor(rng.standard_normal((256, 256, 1)))
        tracemalloc.start()
        try:
            y, cache = layer_forward(x, params.ma, params.ar)
            layer_backward(y, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_100_000

    def test_layer_memory_peak_many_channels(self):
        # 128^2 x 8->8: dW's cross spectrum for every (t, s) at once is the
        # size of W_hat^H, which the backward pass builds anyway.  tracemalloc
        # peak 14.25 MB; 14.02 MB reading one input channel at a time
        rng = np.random.default_rng(46)
        params = random_params(rng, 8, 8, depth=2)
        x = FieldTensor(rng.standard_normal((128, 128, 8)))
        tracemalloc.start()
        try:
            y, cache = layer_forward(x, params.ma, params.ar)
            layer_backward(y, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14_400_000


class TestReadTaps:
    """The kernel-gradient read against a direct circular cross-correlation."""

    @pytest.mark.parametrize("height", [1, 2, 5])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("trail, rows, cols", [
        ((), (-1, 0, 1), (0,)),
        ((2, 3), (-2, 0, 2), (-3, 0, 3)),
        ((3, 2, 2), (0, 1), (-1, 2)),
    ], ids=["plain", "channel-pairs-dilated", "batch-channel-pairs"])
    def test_matches_direct_correlation(self, height, width, trail, rows, cols):
        # the cross spectrum of real fields a and b is rfft2(a) . conj(rfft2(b)),
        # each trailing index (a sample, a channel pair) read on its own
        rng = np.random.default_rng(height * 10 + width)
        a, b = (rng.standard_normal((height, width) + trail) for _ in range(2))
        cross = np.fft.rfft2(a, axes=(0, 1)) * np.conj(np.fft.rfft2(b, axes=(0, 1)))
        got = arma._read_taps(cross, rows, cols, width)
        want = np.zeros((len(rows), len(cols)) + trail)
        for i, m1 in enumerate(rows):
            for j, m2 in enumerate(cols):
                for index in np.ndindex(*trail):
                    plane = (slice(None), slice(None)) + index
                    want[(i, j) + index] = naive_circular_correlation(a[plane], b[plane], m1, m2)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


class TestFootprintRefusals:
    """The numbers in a footprint refusal, pinned whole."""

    def test_dilated_ma_footprint(self):
        # 5x3 taps at dilation 2 span 2*(4, 2) pixels, too tall for 8 rows
        ma = MaKernel(np.ones((5, 3, 1, 1)), dilation=2)
        with pytest.raises(ValueError) as info:
            layer_forward(FieldTensor(np.ones((8, 9, 1))), ma, SeparableArKernel.identity(1))
        assert str(info.value) == "dilated kernel footprint 2*(4, 2) does not fit a 8x9 field"

    def test_autoregressive_footprint(self):
        # channel 1's g cascade reaches offset 2 and its f cascade offset 1: a
        # 5x3 footprint, too tall for 4 rows; channel 0 is the identity
        identity, factor = (0.0, 1.0, 0.0), (0.2, 1.0, 0.1)
        f = [[identity, identity], [factor, identity]]
        g = [[identity, identity], [factor, factor]]
        x = FieldTensor(np.ones((4, 8, 1)))
        with pytest.raises(ValueError) as info:
            layer_forward(x, MaKernel(np.ones((1, 1, 2, 1))), SeparableArKernel([f, g]))
        assert str(info.value) == (
            "autoregressive footprint (5, 3) of channel 1 does not fit a 4x8 field"
        )


class TestFootprintTies:
    """A footprint as wide as the field is refused; one pixel more and it fits."""

    @staticmethod
    def solve(shape, ma, ar, fits):
        x = FieldTensor(np.ones(shape))
        if fits:
            layer_forward(x, ma, ar)
        else:
            with pytest.raises(ValueError, match="does not fit"):
                layer_forward(x, ma, ar)

    @pytest.mark.parametrize("axis", [0, 1], ids=["rows", "columns"])
    @pytest.mark.parametrize("size, fits", [(4, False), (5, True)])
    def test_dilated_ma_kernel(self, axis, size, fits):
        # 3 taps at dilation 2 span 4 pixels along the axis
        taps, shape = [1, 1, 1, 1], [8, 8, 1]
        taps[axis], shape[axis] = 3, size
        self.solve(shape, MaKernel(np.ones(taps), dilation=2), SeparableArKernel.identity(1), fits)

    @pytest.mark.parametrize("axis", [0, 1], ids=["rows", "columns"])
    @pytest.mark.parametrize("size, fits", [(2, False), (3, True)])
    def test_ar_factor(self, axis, size, fits):
        # a depth-1 factor with nonzero outer taps spans 2 pixels; g runs
        # along the rows and f along the columns
        factors = [(((0.0, 1.0, 0.0),),)] * 2
        factors[axis] = (((0.2, 1.0, 0.1),),)
        shape = [3, 3, 1]
        shape[axis] = size
        self.solve(shape, identity_ma(), SeparableArKernel([factors[1], factors[0]]), fits)


class TestMaProduct:
    """The per-frequency channel product and the phase matrices behind ``W_hat``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        out_channels=st.sampled_from([1, 2, 4, 8]),
        in_channels=st.sampled_from([1, 2, 4, 8]),
        batch=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_per_frequency_product(self, out_channels, in_channels, batch, seed):
        rng = np.random.default_rng(seed)

        def spectrum(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        lead = () if batch is None else (batch,)
        field_hat = spectrum(lead + (3, 4, in_channels))
        w_hat = spectrum((3, 4, out_channels, in_channels))
        want = np.empty(lead + (3, 4, out_channels), dtype=complex)
        for index in np.ndindex(*lead, 3, 4):
            want[index] = w_hat[index[-2:]] @ field_hat[index]
        got = arma._ma_product(field_hat, w_hat)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_phase_matrices_are_memoized_read_only(self):
        phases = arma._phases(8, (-2, 0, 3), 8)
        assert arma._phases(8, (-2, 0, 3), 8) is phases
        k, m = np.arange(8)[:, None], np.array([-2, 0, 3])
        assert np.allclose(phases, np.exp(-2j * np.pi * k * m / 8), rtol=0, atol=1e-14)
        with pytest.raises(ValueError):
            phases[0, 0] = 0.0
        # the inverse matrices weight each frequency by those it stands for
        for count, n, weights in [
            (8, 8, [1] * 8),  # a full spectrum: each frequency stands for itself
            (5, 8, [1, 2, 2, 2, 1]),  # half spectrum, even width: DC and Nyquist once
            (4, 7, [1, 2, 2, 2]),  # half spectrum, odd width: no Nyquist
            (2, 2, [1, 1]),
            (1, 1, [1]),
        ]:
            inverse = arma._inverse_phases(count, (-2, 0, 3), n)
            assert arma._inverse_phases(count, (-2, 0, 3), n) is inverse
            k = np.arange(count)
            want = np.array(weights) * np.exp(2j * np.pi * m[:, None] * k / n) / n
            assert np.allclose(inverse, want, rtol=0, atol=1e-15)
            with pytest.raises(ValueError):
                inverse[0, 0] = 0.0
        for cache in (arma._phases, arma._inverse_phases):
            assert 0 < cache.cache_info().maxsize < 1000

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from armakit import erf
from armakit.arma import layer_backward, layer_forward
from armakit.erf import (
    MAX_FILTER_TAPS,
    ErfMap,
    LayerSpec1D,
    LinearNetSpec,
    WraparoundError,
    analytic_radius_arma,
    effective_filter_1d,
    empirical_erf_1d,
    empirical_erf_2d,
    erf_axis_variance,
    erf_radius,
    layer_moments,
    layer_variance_term,
)
from armakit.filters import SeparableArKernel
from armakit.numerics import FieldTensor, SingularSpectrumError
from conftest import exact_uniform_erf_2d


def stack(layer, depth):
    return LinearNetSpec((layer,) * depth)


def backward_pass_erf_2d(spec, grid, channels=1, seed=None, kernel_mode="uniform"):
    """Oracle for :func:`empirical_erf_2d`: one real backward pass per output channel.

    Runs each layer's adjoint, last layer first: the input gradient of
    ``layer_backward`` on the layer's cache from ``layer_forward``.
    Returns the unwrapped map and its origin, like the library.
    """
    w0 = erf._select_window(spec, grid, erf.DEFAULT_TRUNCATION)
    rng = np.random.default_rng(seed) if kernel_mode == "xavier" else None
    mas = erf._layer_kernels(spec, channels, kernel_mode, rng)
    zeros = FieldTensor(np.zeros((grid, grid, channels)))
    caches = []
    for layer, ma in reversed(list(zip(spec.layers, mas))):
        # the layer's autoregressive part: the causal factor (1, -a) per channel and axis
        causal = np.tile([0.0, 1.0, -layer.ar_coeff], (ma.out_channels, 1, 1))
        caches.append(layer_forward(zeros, ma, SeparableArKernel([causal, causal]))[1])
    center = grid // 2
    accumulated = np.zeros((grid, grid))
    for out_channel in range(channels):
        seed_grad = np.zeros((grid, grid, channels))
        seed_grad[center, center, out_channel] = 1.0
        grad = FieldTensor(seed_grad)
        for cache in caches:
            grad = layer_backward(grad, cache)[0]
        accumulated += np.abs(grad.data).sum(axis=2)
    accumulated /= accumulated.sum()
    q_low = -(w0 + grid - 1)
    shift = (center + q_low) % grid
    # the kernels are centered: the uniform mode's one-sided taps delay its
    # map by half a footprint per layer
    origin = -q_low
    if kernel_mode == "uniform":
        origin += sum(layer.dilation * (layer.taps - 1) // 2 for layer in spec.layers)
    return np.roll(accumulated, (-shift, -shift), axis=(0, 1)), (origin, origin)


class TestLayerSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LayerSpec1D(2, 1, 0.0)
        with pytest.raises(ValueError):
            LayerSpec1D(3, 0, 0.0)
        with pytest.raises(ValueError):
            LayerSpec1D(3, 1, 1.0)
        with pytest.raises(ValueError):
            LayerSpec1D(3, 1, -0.1)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            LinearNetSpec(())


class TestAnalyticRadius:
    def test_single_plain_layer(self):
        assert analytic_radius_arma(stack(LayerSpec1D(3, 1, 0.0), 1)) == pytest.approx(
            0.81650, abs=1e-5
        )

    def test_single_ar_layer(self):
        assert analytic_radius_arma(stack(LayerSpec1D(3, 1, 0.5), 1)) == pytest.approx(
            1.63299, abs=1e-5
        )

    def test_depth_scaling(self):
        radius = analytic_radius_arma(stack(LayerSpec1D(3, 2, 0.0), 4))
        assert radius == pytest.approx(3.26599, abs=1e-5)
        single = analytic_radius_arma(stack(LayerSpec1D(3, 2, 0.0), 1))
        assert radius == pytest.approx(2.0 * single)


class TestLayerMoments:
    def test_plain_layer_faulhaber_values(self):
        m1, m2 = layer_moments(LayerSpec1D(3, 1, 0.0))
        assert m1 == pytest.approx(1.0)
        assert m2 == pytest.approx(5.0 / 3.0)

    def test_ar_layer_values(self):
        m1, m2 = layer_moments(LayerSpec1D(3, 1, 0.5))
        assert m1 == pytest.approx(2.0)
        assert m2 == pytest.approx(6.66667, abs=1e-5)
        assert m2 - m1**2 == pytest.approx(2.66667, abs=1e-5)

    def test_variance_identity_on_coefficient_grid(self):
        # M2 - M1^2 must reproduce the closed-form radius term exactly
        for a in np.linspace(0.0, 0.99, 100):
            for d in (1, 2):
                layer = LayerSpec1D(3, d, float(a))
                m1, m2 = layer_moments(layer)
                want = layer_variance_term(layer)
                assert abs((m2 - m1**2) - want) <= 1e-12 * max(1.0, want)

    def test_moments_match_series_oracle(self):
        for a in (0.0, 0.3, 0.6, 0.9, 0.99):
            for d in (1, 2):
                layer = LayerSpec1D(3, d, a)
                taps = effective_filter_1d(layer, epsilon=1e-14)
                p = np.arange(taps.size)
                total = taps.sum()
                m1 = (p * taps).sum() / total
                m2 = (p**2 * taps).sum() / total
                want1, want2 = layer_moments(layer)
                assert m1 == pytest.approx(want1, rel=1e-6)
                assert m2 == pytest.approx(want2, rel=1e-6)


class TestEffectiveFilter:
    def test_no_ar_part_is_uniform(self):
        taps = effective_filter_1d(LayerSpec1D(3, 2, 0.0))
        assert np.allclose(taps, [1 / 3, 0, 1 / 3, 0, 1 / 3])

    def test_pure_geometric(self):
        taps = effective_filter_1d(LayerSpec1D(1, 1, 0.5), epsilon=1e-12)
        assert taps.size == 40
        assert np.allclose(taps, 0.5 ** np.arange(40) * 0.5)
        assert taps.sum() == pytest.approx(1.0, abs=1e-12 * 40)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_truncation_outside_unit_interval_rejected(self, epsilon):
        for a in (0.0, 0.5):
            with pytest.raises(ValueError, match=repr(epsilon)):
                effective_filter_1d(LayerSpec1D(3, 1, a), epsilon)

    def test_horizon_beyond_tap_limit_rejected(self):
        # a = 0.99999 needs 2.76M taps at the default truncation
        with pytest.raises(ValueError, match="0.99999"):
            effective_filter_1d(LayerSpec1D(3, 1, 0.99999))

    @pytest.mark.parametrize("taps, dilation", [(MAX_FILTER_TAPS + 1, 1), (3, MAX_FILTER_TAPS // 2 + 1)])
    def test_ma_support_beyond_tap_limit_rejected(self, taps, dilation):
        # d*(K-1)+1 lies just over the cap; each path refuses before it
        # allocates the 8 MB support or the K^2 plane (the 2D map through its
        # window search, before it builds any kernel)
        spec = LinearNetSpec((LayerSpec1D(taps, dilation, 0.0),))
        message = f"taps {taps} at dilation {dilation}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                effective_filter_1d(spec.layers[0])
            with pytest.raises(ValueError, match=message):
                empirical_erf_1d(spec)
            for mode in ("uniform", "xavier"):
                with pytest.raises(ValueError, match=message):
                    empirical_erf_2d(spec, grid=16, seed=0, kernel_mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_variance_matches_radius_term(self):
        taps = effective_filter_1d(LayerSpec1D(3, 1, 0.5))
        p = np.arange(taps.size)
        var = (p**2 * taps).sum() / taps.sum() - ((p * taps).sum() / taps.sum()) ** 2
        assert var == pytest.approx(8.0 / 3.0, abs=1e-6)


class TestEmpirical1d:
    def test_single_plain_layer_uniform_reversed(self):
        m = empirical_erf_1d(stack(LayerSpec1D(3, 1, 0.0), 1))
        assert np.allclose(m.weights, [1 / 3, 1 / 3, 1 / 3])
        assert list(m.offsets(0)) == [-2, -1, 0]
        assert erf_axis_variance(m) == pytest.approx(2 / 3)

    def test_two_layers_triangular(self):
        m = empirical_erf_1d(stack(LayerSpec1D(3, 1, 0.0), 2))
        assert np.allclose(m.weights, np.array([1, 2, 3, 2, 1]) / 9.0)
        assert erf_axis_variance(m) == pytest.approx(4 / 3)

    def test_three_ar_layers_variance(self):
        m = empirical_erf_1d(stack(LayerSpec1D(3, 1, 0.5), 3))
        assert erf_axis_variance(m) == pytest.approx(8.0, rel=1e-3)

    def test_agreement_grid_with_analytic(self):
        for depth in (1, 2, 3):
            for d in (1, 2):
                for a in (0.0, 0.25, 0.5, 0.75):
                    spec = stack(LayerSpec1D(3, d, a), depth)
                    want = sum(layer_variance_term(l) for l in spec.layers)
                    got = erf_axis_variance(empirical_erf_1d(spec))
                    assert got == pytest.approx(want, rel=1e-3)

    def test_fft_composition_matches_direct_convolution(self):
        # 27.6k taps per layer; the roundoff-clamped FFT composition stays
        # within 1e-12 of the peak of the direct one
        spec = stack(LayerSpec1D(3, 1, 0.999), 2)
        direct = np.array([1.0])
        for layer in spec.layers:
            direct = np.convolve(direct, effective_filter_1d(layer))
        direct = direct[::-1] / direct.sum()
        m = empirical_erf_1d(spec)
        assert m.weights.shape == direct.shape
        assert np.max(np.abs(m.weights - direct)) <= 1e-12 * direct.max()


class TestRadiusForms:
    def test_delta_map(self):
        m = ErfMap(np.array([1.0]), origin=(0,))
        assert erf_radius(m) == 0.0
        assert erf_axis_variance(m) == 0.0

    def test_ring_distinguishes_radial_from_axis(self):
        # all mass at radius exactly 1: radial spread 0, axis variance 0.5
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[2, 1] = weights[1, 0] = weights[1, 2] = 0.25
        m = ErfMap(weights, origin=(1, 1))
        assert erf_radius(m) == pytest.approx(0.0, abs=1e-12)
        assert erf_axis_variance(m, axis=0) == pytest.approx(0.5)
        assert erf_axis_variance(m, axis=1) == pytest.approx(0.5)

    def test_1d_uniform(self):
        m = ErfMap(np.full(3, 1 / 3), origin=(2,))
        assert erf_axis_variance(m) == pytest.approx(2 / 3)
        # one-sided mass: radial form coincides with the axis deviation
        assert erf_radius(m) == pytest.approx(math.sqrt(2 / 3))

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ErfMap(np.array([0.5, 0.4]), origin=(0,))
        with pytest.raises(ValueError):
            ErfMap(np.array([1.5, -0.5]), origin=(0,))

    def test_shape_and_origin_enforced(self):
        with pytest.raises(ValueError, match="1D or 2D"):
            ErfMap(np.full((1, 1, 1), 1.0), origin=(0, 0, 0))
        with pytest.raises(ValueError, match="one index per weight axis"):
            ErfMap(np.full((2, 2), 0.25), origin=(0,))


def net(*triples):
    return LinearNetSpec(tuple(LayerSpec1D(*t) for t in triples))


class TestEmpirical2d:
    @pytest.mark.parametrize(
        "spec, grid, channels, kernel_mode",
        [
            (net((3, 1, 0.5), (3, 1, 0.5)), 48, 1, "uniform"),
            (net((3, 1, 0.5), (3, 1, 0.5)), 32, 1, "xavier"),
            (net((3, 1, 0.5), (3, 1, 0.25), (3, 1, 0.5)), 40, 3, "xavier"),
            (net((3, 2, 0.25), (3, 2, 0.25)), 64, 1, "uniform"),
            (net((3, 2, 0.25), (5, 1, 0.3), (3, 2, 0.1)), 64, 3, "xavier"),
            (net((3, 1, 0.8), (3, 1, 0.8)), 96, 1, "uniform"),
            (net((3, 1, 0.8), (5, 1, 0.7)), 96, 2, "xavier"),
            # one-sided footprints d*(K-1) just inside the grid
            (net((5, 3, 0.0)), 13, 1, "uniform"),
            (net((5, 3, 0.0)), 16, 1, "uniform"),
            (net((3, 1, 0.0)), 4, 1, "uniform"),
        ],
        ids=[
            "uniform", "xavier-1ch", "xavier-3ch", "dilation-2", "mixed-taps", "long-uniform",
            "long-xavier", "footprint-12-grid-13", "footprint-12-grid-16", "footprint-2-grid-4",
        ],
    )
    def test_matches_backward_pass_oracle(self, spec, grid, channels, kernel_mode):
        want, origin = backward_pass_erf_2d(spec, grid, channels, seed=5, kernel_mode=kernel_mode)
        m = empirical_erf_2d(spec, grid, channels=channels, seed=5, kernel_mode=kernel_mode)
        assert m.origin == origin
        assert np.abs(m.weights - want).max() <= 1e-13 * want.max()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        layers=st.lists(
            st.tuples(
                st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]),
                st.floats(0.0, 0.6, allow_nan=False),
            ),
            min_size=1, max_size=3,
        ),
        channels=st.integers(1, 3),
        grid=st.integers(24, 48),
        seed=st.integers(0, 2**16),
    )
    def test_matches_backward_pass_oracle_property(self, layers, channels, grid, seed):
        # distinct layers and channel counts cover the order of the adjoint
        # spectra's matrix product
        spec = net(*layers)
        try:
            want, origin = backward_pass_erf_2d(spec, grid, channels, seed=seed, kernel_mode="xavier")
        except WraparoundError:
            assume(False)
        m = empirical_erf_2d(spec, grid, channels=channels, seed=seed, kernel_mode="xavier")
        assert m.origin == origin
        assert np.abs(m.weights - want).max() <= 1e-13 * want.max()

    def test_long_cases_window_narrower_than_filter(self):
        # the two "long" oracle cases select a window inside the composed filter
        for spec in (net((3, 1, 0.8), (3, 1, 0.8)), net((3, 1, 0.8), (5, 1, 0.7))):
            taps, _ = erf._axis_mass_profile(spec, erf.DEFAULT_TRUNCATION)
            assert taps.size > 96

    def test_window_scan_matches_convolution(self, monkeypatch):
        # 276k composed taps against a 4096-wide window
        spec = stack(LayerSpec1D(3, 1, 0.9998), 2)
        grid = 4096
        taps, start = erf._axis_mass_profile(spec, erf.DEFAULT_TRUNCATION)
        want = np.convolve(taps, np.ones(grid), mode="valid")
        sums = erf._window_sums(taps, grid)
        assert sums.shape == want.shape
        assert np.abs(sums - want).max() <= 1e-12
        best = int(np.argmax(want))
        with pytest.raises(WraparoundError, match=f"leaks {1.0 - want[best]:.3e} "):
            erf._select_window(spec, grid, erf.DEFAULT_TRUNCATION)
        monkeypatch.setattr(erf, "DEFAULT_WRAP_TOLERANCE", 1.0)
        assert erf._select_window(spec, grid, erf.DEFAULT_TRUNCATION) == start + best

    def test_identity_network_is_delta(self):
        m = empirical_erf_2d(stack(LayerSpec1D(1, 1, 0.0), 1), grid=16)
        assert erf_radius(m) == pytest.approx(0.0, abs=1e-12)
        assert m.weights.max() == pytest.approx(1.0)

    def test_marginals_match_1d_composition(self):
        spec = stack(LayerSpec1D(3, 1, 0.5), 2)
        m2 = empirical_erf_2d(spec, grid=48)
        m1 = empirical_erf_1d(spec)
        want = erf_axis_variance(m1)
        assert erf_axis_variance(m2, axis=0) == pytest.approx(want, abs=1e-6)
        assert erf_axis_variance(m2, axis=1) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("layers, grid", [
        (((3, 1, 0.5), (3, 1, 0.5)), 128), (((5, 3, 0.0),), 25), (((3, 2, 0.25), (5, 1, 0.3)), 64),
    ])
    def test_uniform_marginals_match_1d_at_their_offsets(self, layers, grid):
        # weight by weight at each map's own offsets, so an origin off by one
        # shows; the 1D map's support lies inside the window
        spec = net(*layers)
        m2, m1 = empirical_erf_2d(spec, grid), empirical_erf_1d(spec)
        by_offset = dict(zip(m1.offsets(0).tolist(), m1.weights))
        assert set(by_offset) <= set(m2.offsets(0).tolist())
        for axis in (0, 1):
            want = np.array([by_offset.get(o, 0.0) for o in m2.offsets(axis).tolist()])
            assert np.abs(m2.marginal(axis) - want).max() <= 1e-10 * want.max()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="np.longdouble is no wider than float64 here"
    )
    @pytest.mark.parametrize("layers, grid", [
        (((3, 1, 0.5), (3, 1, 0.5)), 48), (((3, 2, 0.25), (3, 2, 0.25)), 32),
        (((3, 1, 0.5),) * 4, 48), (((3, 2, 0.25), (5, 1, 0.3), (3, 2, 0.1)), 40),
        (((5, 3, 0.0),), 13), (((5, 3, 0.0),), 25), (((3, 1, 0.0),), 4),
    ])
    def test_uniform_map_matches_long_double_reference(self, layers, grid):
        spec = net(*layers)
        m = empirical_erf_2d(spec, grid)
        want = exact_uniform_erf_2d(spec, grid, m.origin[0])
        assert np.abs(m.weights - want).max() <= 4e-15 * want.max()

    def test_monotone_in_ar_coefficient(self):
        radii = []
        variances = []
        for a in (0.0, 0.25, 0.5, 0.75):
            m = empirical_erf_2d(stack(LayerSpec1D(3, 1, a), 6), grid=128)
            radii.append(erf_radius(m))
            variances.append(erf_axis_variance(m))
        assert all(x < y for x, y in zip(radii, radii[1:]))
        assert all(x < y for x, y in zip(variances, variances[1:]))

    def test_monotone_in_depth(self):
        radii = []
        for depth in (3, 6, 12):
            m = empirical_erf_2d(stack(LayerSpec1D(3, 1, 0.5), depth), grid=128)
            radii.append(erf_radius(m))
        assert all(x < y for x, y in zip(radii, radii[1:]))

    def test_span_equal_to_grid_refused_by_working_set(self):
        # the one tap of 1000001 beyond the grid leaks less than the wrap
        # tolerance, so the window search passes a span d*(K-1) equal to the
        # grid; the working-set estimate refuses it (the window search's mass
        # profile alone peaks at 32 MB)
        spec = LinearNetSpec((LayerSpec1D(1000001),))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the 2D map needs about"):
                empirical_erf_2d(spec, grid=1000000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_working_set_estimate_in_refusal(self):
        # C = 500 channels, grid 6000, K = 3 and 5 composing n = 2*(1 + 2*2) + 1
        # = 11 taps; float64 slots: the kernels C^2 (3^2 + 5^2), P's spectra
        # and products C^2 6 n (n//2 + 1), P and its shifted copy 2 C^2 n^2,
        # U and its products grid n (C + 2), and four grid^2 arrays.  Each
        # term is 2-42% of the sum, which stays over the limit without any one
        slots = (500**2 * (3**2 + 5**2 + 6 * 11 * 6) + 2 * 500**2 * 11**2
                 + 6000 * 11 * 502 + 4 * 6000**2)
        assert f"{8 * slots / 2**30:.3g}" == "2.57"
        spec = LinearNetSpec((LayerSpec1D(3, 1, 0.5), LayerSpec1D(5, 2, 0.5)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                empirical_erf_2d(spec, grid=6000, channels=500, seed=0, kernel_mode="xavier")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "the 2D map needs about 2.57 GiB for --grid 6000, --channels 500 and --layers "
            "spanning 11 taps; the working-set limit is 1 GiB"
        )
        # refused before the kernels, spectra or map are built
        assert peak < 2**20

    def test_wraparound_rejection(self):
        with pytest.raises(WraparoundError):
            empirical_erf_2d(stack(LayerSpec1D(3, 1, 0.9), 2), grid=32)

    def test_singular_spectrum_names_first_failing_layer(self, monkeypatch):
        # a factor whose |F_hat| falls below sqrt(epsilon) leaks mass past any
        # grid under ~1e5, so the window check is stubbed to reach the guard
        monkeypatch.setattr(erf, "_select_window", lambda *args: 0)
        near_unit = LayerSpec1D(3, 1, 1.0 - 1e-6)
        spec = LinearNetSpec((LayerSpec1D(3, 1, 0.5), near_unit, near_unit))
        with pytest.raises(SingularSpectrumError) as info:
            empirical_erf_2d(spec, grid=8)
        # frequency (0, 0) of layer 1, where |F_hat[0]|^2 = (1 - a)^2
        assert info.value.index == (0, 0, 1)
        assert info.value.magnitude == pytest.approx(1e-12, rel=1e-6)

    def test_dilated_uniform_mode(self):
        spec = stack(LayerSpec1D(3, 2, 0.25), 2)
        m = empirical_erf_2d(spec, grid=64)
        want = erf_axis_variance(empirical_erf_1d(spec))
        assert erf_axis_variance(m) == pytest.approx(want, abs=1e-6)

    def test_xavier_mode_reproducible_and_normalized(self):
        spec = stack(LayerSpec1D(3, 1, 0.5), 2)
        m1 = empirical_erf_2d(spec, grid=32, channels=3, seed=9, kernel_mode="xavier")
        m2 = empirical_erf_2d(spec, grid=32, channels=3, seed=9, kernel_mode="xavier")
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.weights.sum() == pytest.approx(1.0, abs=1e-9)
        different = empirical_erf_2d(spec, grid=32, channels=3, seed=10, kernel_mode="xavier")
        assert not np.allclose(m1.weights, different.weights)

    def test_xavier_mode_needs_seed(self):
        with pytest.raises(ValueError):
            empirical_erf_2d(stack(LayerSpec1D(3, 1, 0.0), 1), grid=16, kernel_mode="xavier")

    @pytest.mark.parametrize("channels", [0, -1])
    def test_nonpositive_channels_rejected(self, channels):
        # rejected before the window search, which would otherwise divide by zero
        with pytest.raises(ValueError, match=f"got {channels}"):
            empirical_erf_2d(
                stack(LayerSpec1D(3, 1, 0.5), 2), grid=32, channels=channels,
                seed=1, kernel_mode="xavier",
            )

    def test_unknown_kernel_mode_rejected(self):
        with pytest.raises(ValueError, match="'gaussian'"):
            empirical_erf_2d(
                stack(LayerSpec1D(3, 1, 0.0), 1), grid=16, seed=1, kernel_mode="gaussian"
            )

    def test_uniform_mode_single_channel_only(self):
        with pytest.raises(ValueError):
            empirical_erf_2d(stack(LayerSpec1D(3, 1, 0.0), 1), grid=16, channels=2)


class TestGaussianLimit:
    def test_deep_composition_kurtosis(self):
        m = empirical_erf_1d(stack(LayerSpec1D(3, 1, 0.0), 32))
        p = m.offsets(0).astype(float)
        w = m.weights
        mean = (p * w).sum()
        var = ((p - mean) ** 2 * w).sum()
        fourth = ((p - mean) ** 4 * w).sum()
        excess = fourth / var**2 - 3.0
        assert abs(excess) < 0.05

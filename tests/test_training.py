import numpy as np
import pytest

from armakit import training
from armakit.arma import layer_forward
from armakit.filters import is_stable
from armakit.numerics import FieldTensor, MaKernel
from armakit.training import (
    LayerState,
    ToyTask,
    TrainConfig,
    finite_diff_grad,
    initial_layers,
    train,
)
from conftest import naive_circular_conv2


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda p: 0.5 * float(p[0] ** 2), np.array([3.0]), h=1e-5)
        assert grad[0] == pytest.approx(3.0, abs=1e-9)

    def test_flat_region(self):
        grad = finite_diff_grad(lambda p: 7.0, np.array([1.0, -2.0]), h=1e-5)
        assert np.allclose(grad, 0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, np.zeros(1), h=0.0)


class TestToyTask:
    def test_blur_reproducible(self):
        a = ToyTask.wide_blur(samples=2, size=32, sigma=3.0, seed=5)
        b = ToyTask.wide_blur(samples=2, size=32, sigma=3.0, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_blur_attenuates_high_frequencies(self):
        task = ToyTask.wide_blur(samples=1, size=32, sigma=3.0, seed=0)
        spectrum_in = np.abs(np.fft.fft2(task.inputs[0, :, :, 0]))
        spectrum_out = np.abs(np.fft.fft2(task.targets[0, :, :, 0]))
        assert spectrum_out[16, 16] < 1e-3 * spectrum_in[16, 16]

    def test_blur_radius_guard(self):
        with pytest.raises(ValueError):
            ToyTask.wide_blur(size=16, sigma=6.0)
        # 3 sigma overflows to inf, whose ceil would raise OverflowError
        with pytest.raises(ValueError, match="blur radius inf"):
            ToyTask.wide_blur(size=16, sigma=1e308)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_refuses_sigma_that_is_not_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            ToyTask.wide_blur(samples=1, size=16, sigma=sigma)

    def test_blur_matches_direct_summation(self):
        # the blur is the circular convolution with outer(profile, profile)
        sigma = 2.0
        task = ToyTask.wide_blur(samples=1, size=16, sigma=sigma, seed=3)
        profile = np.exp(-0.5 * (np.arange(-6, 7) / sigma) ** 2)
        profile /= np.sqrt((profile**2).sum())
        want = naive_circular_conv2(task.inputs[0, :, :, 0], np.outer(profile, profile))
        assert np.max(np.abs(task.targets[0, :, :, 0] - want)) < 1e-12


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mode="projected")
        with pytest.raises(ValueError):
            TrainConfig(channel_sizes=(1,))

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", -1e-2), ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", np.nan), ("clip_norm", np.inf),
        ("raw_tap_sum", np.nan), ("raw_tap_sum", np.inf), ("raw_tap_sum", -np.inf),
    ])
    def test_refuses_numbers_that_break_training(self, name, value):
        # a negative clip ascends the loss, a zero one freezes it, and the
        # non-finite values end in a kernel or stability error mid-run
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


def small_config(**overrides):
    base = dict(
        channel_sizes=(1, 2, 1), steps=20, learning_rate=1e-2,
        clip_norm=3.0, seed=0, mode="reparam",
    )
    base.update(overrides)
    return TrainConfig(**base)


def zero_ma_layers(config, rng):
    # the trainer's initial layers with every moving-average kernel zeroed
    layers = initial_layers(config, rng)
    for layer in layers:
        layer.w[...] = 0.0
    return layers


class TestTrain:
    def test_zero_target_zero_kernels_is_fixed_point(self, monkeypatch):
        monkeypatch.setattr(training, "initial_layers", zero_ma_layers)
        task = ToyTask.zero_target(samples=2, size=16, seed=1)
        config = small_config(steps=5)
        trace = train(task, config)
        assert all(row[1] == 0.0 for row in trace.rows)
        for layer in trace.layers:
            assert not layer.w.any()
            assert not layer.ar_f.any()
            assert not layer.ar_g.any()

    def test_deterministic(self):
        task = ToyTask.wide_blur(samples=2, size=32, sigma=3.0, seed=2)
        a = train(task, small_config(steps=10))
        b = train(task, small_config(steps=10))
        assert a.rows == b.rows

    def test_loss_decreases_and_stays_stable(self):
        task = ToyTask.wide_blur(samples=2, size=32, sigma=3.0, seed=3)
        trace = train(task, small_config(steps=60))
        losses = [row[1] for row in trace.rows]
        assert not trace.diverged
        assert losses[-1] < losses[0]
        for layer in trace.layers:
            kernel = layer.ar_kernel()
            assert is_stable(kernel.f_filters) and is_stable(kernel.g_filters)

    @pytest.mark.parametrize("seed", range(5))
    def test_small_steps_never_spike_loss(self, seed):
        # with a conservative rate no step should raise the loss by over 10%
        task = ToyTask.wide_blur(samples=2, size=24, sigma=2.0, seed=seed)
        trace = train(task, small_config(steps=30, learning_rate=1e-3, seed=seed))
        losses = [row[1] for row in trace.rows]
        for before, after in zip(losses, losses[1:]):
            assert after <= 1.10 * before

    def test_raw_mode_with_unstable_seed_diverges(self):
        task = ToyTask.wide_blur(samples=2, size=64, sigma=6.0, seed=4)
        config = small_config(steps=500, mode="raw", channel_sizes=(1, 4, 1))
        trace = train(task, config)
        assert trace.diverged
        assert trace.divergence_step is not None
        assert trace.divergence_step < 500
        last = trace.rows[-1]
        assert (not np.isfinite(last[1])) or last[2] > 1e6

    def test_raw_mode_initial_tap_sums(self):
        task = ToyTask.zero_target(samples=1, size=16, seed=0)
        config = small_config(steps=1, mode="raw")
        trace = train(task, config)
        assert trace.rows[0][3] == pytest.approx(1.1)

    def test_first_layer_input_gradient_is_skipped(self, monkeypatch):
        # three layers need two input gradients per step, not three
        input_gradients = []
        original = training.spectral_backward

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            input_gradients.append(result[0] is not None)
            return result

        monkeypatch.setattr(training, "spectral_backward", counted)
        task = ToyTask.wide_blur(samples=2, size=16, sigma=2.0, seed=5)
        train(task, small_config(steps=3, channel_sizes=(1, 2, 2, 1)))
        assert len(input_gradients) == 3 * 3
        assert sum(input_gradients) == 3 * 2

    @pytest.mark.parametrize("channel_sizes", [(1, 1), (1, 2, 2, 1)])
    def test_two_2d_transforms_per_step(self, monkeypatch, channel_sizes):
        # the inputs are transformed once per run; each step inverts the last
        # output and transforms the residual, whatever the number of layers
        task = ToyTask.wide_blur(samples=2, size=16, sigma=2.0, seed=5)  # runs two layers
        calls = {"rfft2": 0, "irfft2": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        steps = 3
        train(task, small_config(steps=steps, channel_sizes=channel_sizes))
        assert calls == {"rfft2": 1 + steps, "irfft2": steps}

    @pytest.mark.parametrize("grid", [(6, 8), (7, 5)])
    @pytest.mark.parametrize("mode", ["reparam", "raw"])
    def test_stacked_gradient_matches_central_differences(self, mode, grid):
        # one SGD step with no clipping moves every parameter by -lr * grad;
        # the loss of the whole stack, chained through layer_forward in the
        # field domain, is the oracle (raw taps start inside the stable region)
        rng = np.random.default_rng(sum(grid))
        inputs = rng.standard_normal((2,) + grid + (1,))
        targets = rng.standard_normal((2,) + grid + (1,))
        task = ToyTask(inputs, targets)
        config = small_config(steps=1, channel_sizes=(1, 2, 2, 1), learning_rate=1e-2,
                              clip_norm=1e9, seed=8, mode=mode, raw_tap_sum=0.5)
        before = initial_layers(config, np.random.default_rng(config.seed))
        after = train(task, config).layers
        names = ("w", "ar_f", "ar_g")

        def flat(layers):
            return np.concatenate([getattr(layer, name).ravel() for layer in layers for name in names])

        def unflat(theta):
            layers, cursor = [], 0
            for layer in before:
                parts = []
                for name in names:
                    shape = getattr(layer, name).shape
                    parts.append(theta[cursor:cursor + np.prod(shape)].reshape(shape))
                    cursor += parts[-1].size
                layers.append(LayerState(*parts, mode=config.mode))
            return layers

        def loss_fn(theta):
            y = FieldTensor(inputs)
            for layer in unflat(theta):
                y, _ = layer_forward(y, MaKernel(layer.w), layer.ar_kernel())
            return float(((y.data - targets) ** 2).sum() / (2.0 * len(inputs)))

        analytic = (flat(before) - flat(after)) / config.learning_rate
        numeric = finite_diff_grad(loss_fn, flat(before), h=1e-5)
        # criterion 4's measure: relative, floored at 1
        err = np.abs(analytic - numeric) / np.maximum.reduce(
            [np.abs(analytic), np.abs(numeric), np.ones_like(analytic)]
        )
        assert err.max() < 1e-5

    def test_reparam_kernels_built_once_per_step(self, monkeypatch):
        # the stability check reads the kernels each step solves with, plus
        # one check after the last update: steps * layers + layers builds
        task = ToyTask.wide_blur(samples=1, size=16, sigma=2.0, seed=5)
        built = []
        original = LayerState.ar_kernel

        def counted(self):
            built.append(1)
            return original(self)

        monkeypatch.setattr(LayerState, "ar_kernel", counted)
        train(task, small_config(steps=3))
        assert len(built) == 3 * 2 + 2

    @pytest.mark.parametrize("steps", [1, 3])
    def test_reparam_left_stable_region_is_refused(self, steps):
        # a huge rate saturates tanh(beta) to 1 in the first update, caught
        # after the last update (1 step) or at the top of the next (3 steps);
        # either way it raises rather than reporting divergence
        task = ToyTask.wide_blur(samples=2, size=32, sigma=2.0)
        with pytest.raises(ValueError, match="left the stable region: float64 rounding"):
            train(task, small_config(steps=steps, learning_rate=100))

    def test_kernel_larger_than_field_raises(self):
        # a kernel that does not fit the field is a setup error, not divergence
        task = ToyTask.zero_target(samples=1, size=2)
        with pytest.raises(ValueError, match="footprint"):
            train(task, small_config(steps=1))

    def test_channel_size_mismatch_rejected(self):
        task = ToyTask.zero_target(samples=1, size=16)
        with pytest.raises(ValueError):
            train(task, small_config(channel_sizes=(2, 1)))

    def test_trace_csv_round_trip(self):
        task = ToyTask.wide_blur(samples=1, size=24, sigma=2.0, seed=6)
        trace = train(task, small_config(steps=4))
        lines = trace.csv_text().strip().splitlines()
        assert lines[0] == "step,loss,max_abs_output,mean_abs_ar_sum"
        for row, line in zip(trace.rows, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == row[0]
            assert float(cells[1]) == row[1]  # 17 significant digits: lossless
            assert float(cells[2]) == row[2]
            assert float(cells[3]) == row[3]


def tanh_beta_histogram(layers):
    # 41 bins over [-1, 1] of every factor's bounded tap sum tanh(beta)
    beta = [p[..., 1].ravel() for layer in layers for p in (layer.ar_f, layer.ar_g)]
    return np.histogram(np.tanh(np.concatenate(beta)), bins=41, range=(-1.0, 1.0))


class TestCoefficientSummary:
    def test_blur_training_grows_coefficients(self):
        task = ToyTask.wide_blur(samples=2, size=48, sigma=6.0, seed=0)
        config = TrainConfig(
            channel_sizes=(1, 4, 1), steps=1000, learning_rate=1e-2, seed=0
        )
        trace = train(task, config)
        counts, edges = tanh_beta_histogram(trace.layers)
        centers = 0.5 * (edges[:-1] + edges[1:])
        wide = counts[np.abs(centers) > 0.5].sum()
        near_zero = counts[np.abs(centers) < 0.1].sum()
        assert wide > near_zero

    def test_identity_training_keeps_coefficients_small(self):
        task = ToyTask.identity_map(samples=2, size=48, seed=0)
        config = TrainConfig(
            channel_sizes=(1, 4, 1), steps=300, learning_rate=1e-2, seed=0
        )
        trace = train(task, config)
        counts, edges = tanh_beta_histogram(trace.layers)
        centers = 0.5 * (edges[:-1] + edges[1:])
        near_zero = counts[np.abs(centers) < 0.1].sum()
        wide = counts[np.abs(centers) > 0.5].sum()
        assert near_zero == counts.sum()
        assert wide == 0

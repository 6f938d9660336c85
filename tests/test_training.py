import dataclasses
import math

import numpy as np
import pytest

from armakit import arma, cli, training
from armakit.arma import layer_backward, layer_forward
from armakit.filters import materialize, reparam_gradient, stable_factors
from armakit.numerics import FieldTensor, MaKernel
from armakit.training import (
    LayerState,
    ToyTask,
    TrainConfig,
    finite_diff_grad,
    initial_layers,
    train,
)
from conftest import naive_circular_conv2, trace_ulp_spread


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda p: 0.5 * float(p[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(3.0, abs=1e-9)

    def test_flat_region(self):
        grad = finite_diff_grad(lambda p: 7.0, np.array([1.0, -2.0]))
        assert np.allclose(grad, 0.0)


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

    @pytest.mark.parametrize("make", [ToyTask.wide_blur, ToyTask.identity_map, ToyTask.zero_target])
    @pytest.mark.parametrize("name, value", [("samples", 0), ("samples", -2), ("size", 0), ("size", -5)])
    def test_refuses_sizes_below_one(self, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            make(**{name: value})

    def test_refuses_mismatched_targets(self):
        with pytest.raises(ValueError, match="matching shapes"):
            ToyTask(np.zeros((1, 4, 4, 1)), np.zeros((1, 4, 5, 1)))

    def test_channel_counts_may_differ(self):
        # train runs any S0 -> S_out stack, so a task may hold one
        task = ToyTask(np.zeros((2, 4, 5, 1)), np.zeros((2, 4, 5, 3)))
        assert task.samples == 2 and task.targets.shape[3] == 3

    def test_refuses_rank_3(self):
        with pytest.raises(ValueError, match=r"\(samples, height, width, channels\)"):
            ToyTask(np.zeros((4, 4, 1)), np.zeros((4, 4, 1)))

    def test_refuses_nan_target(self):
        targets = np.zeros((1, 4, 4, 1))
        targets[0, 2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ToyTask(np.zeros((1, 4, 4, 1)), targets)

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
        ("channel_sizes", (1, 0, 1)), ("channel_sizes", (1, -1, 1)), ("channel_sizes", (0, 1)),
    ])
    def test_refuses_numbers_that_break_training(self, name, value):
        # a negative clip ascends the loss, a zero one freezes it, and the
        # non-finite values end in a kernel or stability error mid-run; a
        # channel size below 1 ends in a ZeroDivisionError or in numpy's words
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
            assert not layer.ar[0].any()
            assert not layer.ar[1].any()

    def test_deterministic(self):
        task = ToyTask.wide_blur(samples=2, size=32, sigma=3.0, seed=2)
        a = train(task, small_config(steps=10))
        b = train(task, small_config(steps=10))
        assert a.rows == b.rows

    def test_first_loss_is_half_the_squared_error_per_sample(self):
        # the loss column's scale: sum of squared residuals / (2N), with the
        # residuals of a per-sample layer_forward chain, no moments
        task = ToyTask.wide_blur(samples=3, size=16, sigma=2.0, seed=7)
        config = small_config(steps=1)
        layers = initial_layers(config, np.random.default_rng(config.seed))
        total = 0.0
        for x, t in zip(task.inputs, task.targets):
            y = FieldTensor(x)
            for layer in layers:
                y, _ = layer_forward(y, MaKernel(layer.w), layer.ar_kernel())
            total += float(((y.data - t) ** 2).sum())
        loss = train(task, config).rows[0][1]
        assert abs(loss - total / (2 * task.samples)) <= 1e-12 * loss

    def test_loss_decreases_and_stays_stable(self):
        task = ToyTask.wide_blur(samples=2, size=32, sigma=3.0, seed=3)
        trace = train(task, small_config(steps=60))
        losses = [row[1] for row in trace.rows]
        assert not trace.diverged
        assert losses[-1] < losses[0]
        for layer in trace.layers:
            kernel = layer.ar_kernel()
            assert stable_factors(kernel.taps).all()

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
        original = training._spectral_backward

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            input_gradients.append(result[0] is not None)
            return result

        monkeypatch.setattr(training, "_spectral_backward", counted)
        task = ToyTask.wide_blur(samples=2, size=16, sigma=2.0, seed=5)
        train(task, small_config(steps=3, channel_sizes=(1, 2, 2, 1)))
        assert len(input_gradients) == 3 * 3
        assert sum(input_gradients) == 3 * 2

    def test_phase_caches_hold_every_matrix_of_a_run(self, monkeypatch):
        # the memoized phase matrices a run asks for are all built in its
        # first step, and none is evicted: no later step misses
        caches = (arma._phases, arma._inverse_phases)
        misses = []
        original = training._spectral_backward

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            misses.append(tuple(cache.cache_info().misses for cache in caches))
            return result

        monkeypatch.setattr(training, "_spectral_backward", counted)
        task = ToyTask.wide_blur(samples=2, size=16, sigma=2.0, seed=5)
        for cache in caches:
            cache.cache_clear()
        train(task, TrainConfig(steps=4))  # two layers, (1, 4, 1)
        assert len(misses) == 4 * 2 and min(misses[1]) > 0
        assert set(misses[1:]) == {misses[1]}

    @pytest.mark.parametrize("channel_sizes", [(1, 1), (1, 2, 2, 1)])
    def test_one_2d_transform_per_step(self, monkeypatch, channel_sizes):
        # the inputs and targets are transformed once per run; each step only
        # inverts the batch's output spectrum, whatever the number of layers
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
        assert calls == {"rfft2": 2, "irfft2": steps}

    @pytest.mark.parametrize("grid, in_channels", [
        pytest.param((6, 8), 1, id="grid0"), pytest.param((7, 5), 1, id="grid1"),
        pytest.param((6, 8), 2, id="grid0-2in"), pytest.param((7, 5), 2, id="grid1-2in"),
    ])
    @pytest.mark.parametrize("mode", ["reparam", "raw"])
    def test_stacked_gradient_matches_central_differences(self, mode, grid, in_channels):
        # one SGD step with no clipping moves every parameter by -lr * grad;
        # the loss of the whole stack, chained through layer_forward in the
        # field domain, is the oracle (raw taps start inside the stable region)
        rng = np.random.default_rng(sum(grid))
        inputs = rng.standard_normal((2,) + grid + (in_channels,))
        targets = rng.standard_normal((2,) + grid + (1,))
        task = ToyTask(inputs, targets)
        config = small_config(steps=1, channel_sizes=(in_channels, 2, 2, 1), learning_rate=1e-2,
                              clip_norm=1e9, seed=8, mode=mode, raw_tap_sum=0.5)
        before = initial_layers(config, np.random.default_rng(config.seed))
        after = train(task, config).layers
        names = ("w", "ar")

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
        numeric = finite_diff_grad(loss_fn, flat(before))
        # criterion 4's measure: relative, floored at 1
        err = np.abs(analytic - numeric) / np.maximum.reduce(
            [np.abs(analytic), np.abs(numeric), np.ones_like(analytic)]
        )
        assert err.max() < 1e-5

    @pytest.mark.parametrize("grid", [(6, 8), (7, 5)])
    @pytest.mark.parametrize("mode", ["reparam", "raw"])
    @pytest.mark.parametrize("samples, in_channels, out_channels, clip", [
        pytest.param(4, 1, 1, None, id="4-1-1"), pytest.param(3, 1, 1, None, id="3-1-1"),
        pytest.param(1, 2, 1, None, id="1-2-1"), pytest.param(2, 3, 2, None, id="2-3-2"),
        pytest.param(4, 1, 1, 0.25, id="4-1-1-clipped"),
        pytest.param(2, 3, 2, 0.25, id="2-3-2-clipped"),
    ])
    def test_step_matches_per_sample_reference(self, samples, in_channels, out_channels, clip,
                                               mode, grid):
        # the trainer sees the batch only through its second moments; the
        # reference never forms them: it chains layer_forward/layer_backward
        # one sample at a time, sums the gradients and takes the same step
        rng = np.random.default_rng(samples + 10 * in_channels + sum(grid))
        inputs = rng.standard_normal((samples,) + grid + (in_channels,))
        targets = rng.standard_normal((samples,) + grid + (out_channels,))
        config = small_config(steps=1, channel_sizes=(in_channels, 2, 2, out_channels),
                              clip_norm=1e9, seed=9, mode=mode, raw_tap_sum=0.5)
        layers = initial_layers(config, np.random.default_rng(config.seed))
        grads = [[0.0, 0.0, 0.0] for _ in layers]
        for x, t in zip(inputs, targets):
            y, caches = FieldTensor(x), []
            for layer in layers:
                y, cache = layer_forward(y, MaKernel(layer.w), layer.ar_kernel())
                caches.append(cache)
            d_y = FieldTensor((y.data - t) / samples)
            for cache, total in zip(reversed(caches), reversed(grads)):
                d_y, d_w, d_fg = layer_backward(d_y, cache)
                for i, g in enumerate((d_w, *d_fg[..., ::2])):
                    total[i] = total[i] + g
        if mode == "reparam":
            for before, total in zip(layers, grads):
                total[1] = reparam_gradient(before.ar[0], total[1])
                total[2] = reparam_gradient(before.ar[1], total[2])
        applied = [g for total in grads for g in total]
        # the clip scales the step by clip_norm over the norm of every
        # gradient it applies, (alpha, beta) or raw taps
        norm = np.sqrt(sum(float((g**2).sum()) for g in applied))
        if clip is not None:
            config = dataclasses.replace(config, clip_norm=clip * norm)
        scale = min(1.0, config.clip_norm / norm)
        after = train(ToyTask(inputs, targets), config).layers
        want = np.concatenate([config.learning_rate * scale * g.ravel() for g in applied])
        taken = np.concatenate([(b - a).ravel() for before, updated in zip(layers, after)
                                for b, a in zip((before.w, *before.ar), (updated.w, *updated.ar))])
        # exact in exact arithmetic, so every parameter's update agrees within
        # 1e-10 of the largest one (measured: under 2e-15), 1e5 times tighter
        # than the central-difference test's relative 1e-5
        assert np.max(np.abs(taken - want)) <= 1e-10 * np.max(np.abs(want))

    def test_reparam_kernels_built_once_per_step(self, monkeypatch):
        # one build per layer for the kernels each step solves with, and none
        # after the last update: a reparam factor is stable by construction
        task = ToyTask.wide_blur(samples=1, size=16, sigma=2.0, seed=5)
        built = []
        original = LayerState.ar_kernel

        def counted(self):
            built.append(1)
            return original(self)

        monkeypatch.setattr(LayerState, "ar_kernel", counted)
        train(task, small_config(steps=3))
        assert len(built) == 3 * 2

    @pytest.mark.parametrize("steps", [1, 3])
    def test_reparam_step_past_tanh_edge_stays_stable(self, steps):
        # a huge rate takes beta past math.tanh's edge in the first update; the
        # factors stay stable, but their spectra near zero, and the guard's
        # refusal at step 1 is recorded as divergence
        task = ToyTask.wide_blur(samples=2, size=32, sigma=2.0)
        trace = train(task, small_config(steps=steps, learning_rate=100))
        betas = np.concatenate([layer.ar[..., 1].ravel() for layer in trace.layers])
        assert any(abs(math.tanh(beta)) == 1.0 for beta in betas)
        assert all(stable_factors(materialize(layer.ar)).all() for layer in trace.layers)
        assert len(trace.rows) == min(steps, 2)
        assert trace.diverged is (steps == 3)
        assert trace.divergence_step == (1 if steps == 3 else None)

    def test_kernel_larger_than_field_raises(self):
        # a kernel that does not fit the field is a setup error, not divergence
        task = ToyTask.zero_target(samples=1, size=2)
        with pytest.raises(ValueError, match="footprint"):
            train(task, small_config(steps=1))

    def test_channel_size_mismatch_rejected(self):
        task = ToyTask.zero_target(samples=1, size=16)
        with pytest.raises(ValueError):
            train(task, small_config(channel_sizes=(2, 1)))
        with pytest.raises(ValueError, match="last channel size"):
            train(task, small_config(channel_sizes=(1, 2)))

    def test_trace_csv_round_trip(self, tmp_path):
        # the CLI's one table writer prints the trace
        task = ToyTask.wide_blur(samples=1, size=24, sigma=2.0, seed=6)
        trace = train(task, small_config(steps=4))
        path = tmp_path / "trace.csv"
        cli._write_csv_grid(trace.rows, path, training.TrainTrace.HEADER)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,max_abs_output,mean_abs_ar_sum"
        assert len(lines) == 1 + len(trace.rows) == 5
        for row, line in zip(trace.rows, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == row[0]
            assert float(cells[1]) == row[1]  # 17 significant digits: lossless
            assert float(cells[2]) == row[2]
            assert float(cells[3]) == row[3]


class TestTraceUlpSpread:
    def test_short_run(self):
        task = ToyTask.wide_blur(samples=2, size=16, sigma=2.0, seed=0)
        spread = trace_ulp_spread(task, small_config(steps=30))
        assert list(spread) == training.TrainTrace.HEADER.split(",")
        assert spread["step"] == 0.0
        # 1-ulp input nudges move every float column, by rounding only
        assert all(0.0 < spread[name] < 1e-12 for name in list(spread)[1:])
        assert trace_ulp_spread(task, small_config(steps=30)) == spread


def tanh_beta_histogram(layers):
    # 41 bins over [-1, 1] of every factor's bounded tap sum tanh(beta)
    beta = [p[..., 1].ravel() for layer in layers for p in (layer.ar[0], layer.ar[1])]
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

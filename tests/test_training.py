import numpy as np
import pytest

from armakit import training
from armakit.filters import SeparableArKernel, is_stable
from armakit.training import (
    ToyTask,
    TrainConfig,
    finite_diff_grad,
    learned_coefficient_summary,
    train,
)


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


def small_config(**overrides):
    base = dict(
        channel_sizes=(1, 2, 1), steps=20, learning_rate=1e-2,
        clip_norm=3.0, seed=0, mode="reparam",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_target_zero_kernels_is_fixed_point(self):
        task = ToyTask.zero_target(samples=2, size=16, seed=1)
        config = small_config(steps=5, ma_init="zeros")
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
        config = small_config(steps=1, mode="raw", ma_init="zeros")
        trace = train(task, config)
        assert trace.rows[0][3] == pytest.approx(1.1)

    def test_first_layer_input_gradient_is_skipped(self, monkeypatch):
        # three layers need two input gradients per step, not three
        input_gradients = []
        original = training.layer_backward

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            input_gradients.append(result[0] is not None)
            return result

        monkeypatch.setattr(training, "layer_backward", counted)
        task = ToyTask.wide_blur(samples=2, size=16, sigma=2.0, seed=5)
        train(task, small_config(steps=3, channel_sizes=(1, 2, 2, 1)))
        assert len(input_gradients) == 3 * 3
        assert sum(input_gradients) == 3 * 2

    def test_reparam_kernels_built_once_per_step(self, monkeypatch):
        # the stability check reads the kernels each step solves with, plus
        # one check after the last update: steps * layers + layers builds
        built = []
        original = SeparableArKernel.from_arrays.__func__

        def counted(cls, *args):
            built.append(1)
            return original(cls, *args)

        monkeypatch.setattr(SeparableArKernel, "from_arrays", classmethod(counted))
        task = ToyTask.wide_blur(samples=1, size=16, sigma=2.0, seed=5)
        train(task, small_config(steps=3))
        assert len(built) == 3 * 2 + 2

    @pytest.mark.parametrize("steps", [1, 3])
    def test_reparam_left_stable_region_is_a_bug(self, steps):
        # a huge rate saturates tanh(beta) to 1 in the first update, caught
        # after the last update (1 step) or at the top of the next (3 steps);
        # either way it raises rather than reporting divergence
        task = ToyTask.wide_blur(samples=2, size=32, sigma=2.0)
        with pytest.raises(AssertionError, match="left the stable region"):
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

    def test_trace_csv_round_trip(self, tmp_path):
        task = ToyTask.wide_blur(samples=1, size=24, sigma=2.0, seed=6)
        trace = train(task, small_config(steps=4))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,max_abs_output,mean_abs_ar_sum"
        for row, line in zip(trace.rows, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == row[0]
            assert float(cells[1]) == row[1]  # 17 significant digits: lossless
            assert float(cells[2]) == row[2]
            assert float(cells[3]) == row[3]


class TestCoefficientSummary:
    def test_untrained_mass_in_center_bin(self):
        task = ToyTask.zero_target(samples=1, size=16, seed=0)
        trace = train(task, small_config(steps=1, ma_init="zeros"))
        counts, edges = learned_coefficient_summary(trace.layers)
        assert counts.sum() == counts[20]  # 41 bins: index 20 straddles zero

    def test_raw_layers_rejected(self):
        task = ToyTask.zero_target(samples=1, size=16, seed=0)
        trace = train(task, small_config(steps=1, mode="raw", ma_init="zeros"))
        with pytest.raises(ValueError):
            learned_coefficient_summary(trace.layers)

    def test_blur_training_grows_coefficients(self):
        task = ToyTask.wide_blur(samples=2, size=48, sigma=6.0, seed=0)
        config = TrainConfig(
            channel_sizes=(1, 4, 1), steps=1000, learning_rate=1e-2, seed=0
        )
        trace = train(task, config)
        counts, edges = learned_coefficient_summary(trace.layers)
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
        counts, edges = learned_coefficient_summary(trace.layers)
        centers = 0.5 * (edges[:-1] + edges[1:])
        near_zero = counts[np.abs(centers) < 0.1].sum()
        wide = counts[np.abs(centers) > 0.5].sum()
        assert near_zero == counts.sum()
        assert wide == 0

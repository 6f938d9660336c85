"""Desk-scale learning harness for stacked ARMA layers.

Trains small stacks with plain SGD plus gradient clipping on a synthetic
wide-context regression task (targets are a Gaussian blur of the inputs whose
footprint far exceeds any single moving-average kernel, so the layers can only
fit it by learning nonzero autoregressive coefficients).  The whole batch
runs through each layer in one call, as an ``(N, H, W, C)`` field.  The stack
has no nonlinearity, so it runs on the layer's spectral core
(:func:`armakit.arma.spectral_forward`/:func:`~armakit.arma.spectral_backward`)
with one layer's output spectrum as the next one's input: the inputs are
transformed once per run, and each step takes two 2D transforms, an
``irfft2`` of the last layer's output for the loss and an ``rfft2`` of the
residual for the backward pass.  Two modes:

* ``reparam``: autoregressive factors live in unconstrained ``(alpha, beta)``
  coordinates, provably stable in exact arithmetic; a factor that float64
  rounding leaves unstable raises ``ValueError``;
* ``raw``: factor taps ``(fm1, fp1)`` are updated directly with no
  constraint, which lets the output recursively amplify itself once the taps
  leave the stable region.  Divergence is a recorded outcome, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .arma import layer_forward, spectral_backward, spectral_forward
from .filters import SeparableArKernel, materialize, reparam_gradient
from .numerics import FieldTensor, MaKernel, SingularSpectrumError

DIVERGENCE_OUTPUT_LIMIT = 1e6

#: Every layer has a ``MA_TAPS x MA_TAPS`` moving-average kernel and one
#: length-3 autoregressive factor per axis and channel.
MA_TAPS = 3


@dataclass(eq=False)
class ToyTask:
    """Paired input/target fields; the constructors draw the inputs from a seed."""

    inputs: np.ndarray  # (samples, size, size, 1)
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.shape != self.targets.shape:
            raise ValueError("inputs and targets must have matching shapes")

    @property
    def samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def size(self) -> int:
        return self.inputs.shape[1]

    @classmethod
    def wide_blur(cls, samples: int = 4, size: int = 64, sigma: float = 6.0, seed: int = 0):
        """Targets are a circular Gaussian blur of white-noise inputs.

        The blur half-width (three sigma) is much larger than a 3x3 kernel
        footprint, so matching it requires genuinely wide receptive fields.
        The blur profile is scaled to unit energy per axis, keeping the
        targets at unit variance: predicting zero is no shortcut, the shape
        of the blur itself has to be matched.  Each axis's blur is a layer
        with the identity autoregressive kernel.
        """
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be a finite positive number, got {sigma}")
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((samples, size, size, 1))
        reach = 3.0 * sigma  # inf for sigma above 6e307, and ceil(inf) raises
        radius = math.ceil(reach) if math.isfinite(reach) else reach
        if 2 * radius >= size:
            raise ValueError(f"blur radius {radius} does not fit a {size} grid")
        profile = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
        profile /= math.sqrt((profile**2).sum())
        identity = SeparableArKernel.identity(1)
        rows, _ = layer_forward(FieldTensor(inputs), MaKernel(profile[:, None, None, None]), identity)
        targets, _ = layer_forward(rows, MaKernel(profile[None, :, None, None]), identity)
        return cls(inputs, targets.data)

    @classmethod
    def identity_map(cls, samples: int = 4, size: int = 64, seed: int = 0):
        """Targets equal the inputs; the optimum needs no receptive field."""
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((samples, size, size, 1))
        return cls(inputs, inputs.copy())

    @classmethod
    def zero_target(cls, samples: int = 4, size: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((samples, size, size, 1))
        return cls(inputs, np.zeros_like(inputs))


@dataclass
class TrainConfig:
    """Knobs of the SGD loop.

    ``channel_sizes`` lists the field channel counts through the stack, e.g.
    ``(1, 4, 1)`` builds two layers.  In ``raw`` mode every autoregressive
    factor starts with tap sum ``raw_tap_sum`` (the default sits just outside
    the stable region, making the instability deterministic rather than
    seed-dependent); in ``reparam`` mode factors start at the identity.
    """

    channel_sizes: Tuple[int, ...] = (1, 4, 1)
    steps: int = 500
    learning_rate: float = 1e-2
    clip_norm: float = 3.0
    seed: int = 0
    mode: str = "reparam"
    raw_tap_sum: float = 1.1

    def __post_init__(self):
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value}")
        if not math.isfinite(self.raw_tap_sum):
            raise ValueError(f"raw_tap_sum must be a finite number, got {self.raw_tap_sum}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.mode not in ("reparam", "raw"):
            raise ValueError(f"mode must be 'reparam' or 'raw', got {self.mode!r}")
        if len(self.channel_sizes) < 2:
            raise ValueError("channel_sizes must describe at least one layer")


@dataclass(eq=False)
class LayerState:
    """Learnable parameters of one layer.

    ``ar_f``/``ar_g`` have shape ``(out_channels, 1, 2)``, as do their
    gradients: ``(alpha, beta)`` pairs in reparam mode, or raw ``(fm1, fp1)``
    taps (with the center tap fixed at 1) in raw mode.
    """

    w: np.ndarray
    ar_f: np.ndarray
    ar_g: np.ndarray
    mode: str

    def ar_kernel(self) -> SeparableArKernel:
        if self.mode == "reparam":
            return SeparableArKernel(materialize(self.ar_f), materialize(self.ar_g))
        # (fm1, fp1) -> (fm1, 1, fp1)
        return SeparableArKernel(
            np.insert(self.ar_f, 1, 1.0, axis=-1), np.insert(self.ar_g, 1, 1.0, axis=-1)
        )


@dataclass(eq=False)
class TrainTrace:
    """Per-step records plus the final parameter state."""

    rows: List[Tuple[int, float, float, float]] = field(default_factory=list)
    diverged: bool = False
    divergence_step: Optional[int] = None
    layers: List[LayerState] = field(default_factory=list)

    HEADER = "step,loss,max_abs_output,mean_abs_ar_sum"

    def csv_text(self) -> str:
        """The header and one row per step, floats to 17 significant digits."""
        lines = [self.HEADER] + [
            f"{step},{loss:.17g},{max_out:.17g},{ar_sum:.17g}"
            for step, loss, max_out, ar_sum in self.rows
        ]
        return "\n".join(lines) + "\n"


def initial_layers(config: TrainConfig, rng: np.random.Generator) -> List[LayerState]:
    layers = []
    k = MA_TAPS
    for s, t in zip(config.channel_sizes[:-1], config.channel_sizes[1:]):
        bound = math.sqrt(6.0 / (k * k * s + k * k * t))
        w = rng.uniform(-bound, bound, size=(k, k, t, s))
        ar_shape = (t, 1, 2)
        if config.mode == "reparam":
            ar_f = np.zeros(ar_shape)
            ar_g = np.zeros(ar_shape)
        else:
            ar_f = np.full(ar_shape, config.raw_tap_sum / 2.0)
            ar_g = np.full(ar_shape, config.raw_tap_sum / 2.0)
        layers.append(LayerState(w=w, ar_f=ar_f, ar_g=ar_g, mode=config.mode))
    return layers


def train(task: ToyTask, config: TrainConfig) -> TrainTrace:
    """SGD over the stack; returns the trace (divergence included, never raised).

    Each record holds the loss at the current parameters, the largest output
    magnitude over the batch, and the mean materialized ``|fm1 + fp1|`` over
    all autoregressive factors.  In reparam mode every factor is checked
    against the stability bound at every step.  That failure and others,
    such as a kernel that does not fit the field, are raised.
    """
    if config.channel_sizes[0] != task.inputs.shape[3]:
        raise ValueError(
            f"first channel size {config.channel_sizes[0]} does not match task "
            f"input channels {task.inputs.shape[3]}"
        )
    if config.channel_sizes[-1] != task.targets.shape[3]:
        raise ValueError("last channel size does not match task target channels")

    rng = np.random.default_rng(config.seed)
    layers = initial_layers(config, rng)
    trace = TrainTrace(layers=layers)
    n = task.samples
    grid = task.inputs.shape[1:3]
    inputs_hat = np.fft.rfft2(FieldTensor(task.inputs).data, axes=(1, 2))

    for step in range(config.steps):
        kernels = [(MaKernel(layer.w), layer.ar_kernel()) for layer in layers]
        if config.mode == "reparam":
            # the last update's result, checked on the kernels this step solves with
            _check_stable([ar for _, ar in kernels])
        ar_sums = [
            np.abs(taps[..., 0] + taps[..., 2]).ravel()
            for _, ar in kernels
            for taps in (ar.f_filters, ar.g_filters)
        ]
        mean_ar_sum = float(np.mean(np.concatenate(ar_sums)))

        # each layer's cache (its input spectrum included) for its backward pass
        caches = []
        y_hat, shape = inputs_hat, task.inputs.shape
        try:
            for ma, ar in kernels:
                y_hat, cache = spectral_forward(y_hat, shape, ma, ar)
                shape = cache.shape
                caches.append(cache)
        except SingularSpectrumError:
            # raw taps left the stable region and zeroed a spectral mode
            trace.rows.append((step, float("inf"), float("inf"), mean_ar_sum))
            trace.diverged = True
            trace.divergence_step = step
            return trace
        y = np.fft.irfft2(y_hat, s=grid, axes=(1, 2))
        residual = y - task.targets
        # total squared error per sample, averaged over the batch; the
        # large pixel sums are what make the gradient clip meaningful
        loss = float((residual**2).sum() / (2.0 * n))
        max_out = float(np.max(np.abs(y)))

        trace.rows.append((step, loss, max_out, mean_ar_sum))
        if not math.isfinite(loss) or max_out > DIVERGENCE_OUTPUT_LIMIT:
            trace.diverged = True
            trace.divergence_step = step
            return trace

        grads = []
        # with out=, the second axis is transformed in place, not into a new array
        grad = np.fft.rfft2(residual / n, axes=(1, 2), out=np.empty_like(y_hat))
        for index in reversed(range(len(kernels))):
            # nothing reads the first layer's input gradient
            grad, d_w, d_f, d_g = spectral_backward(grad, caches[index], input_gradient=index > 0)
            # the center tap is fixed at 1, so only (fm1, fp1) are learned
            d_f, d_g = d_f[..., ::2], d_g[..., ::2]
            if config.mode == "reparam":
                d_f = reparam_gradient(layers[index].ar_f, d_f)
                d_g = reparam_gradient(layers[index].ar_g, d_g)
            grads.insert(0, (d_w, d_f, d_g))

        norm = math.sqrt(sum(float((g**2).sum()) for entry in grads for g in entry))
        scale = 1.0
        if norm > config.clip_norm:
            scale = config.clip_norm / norm

        for layer, (d_w, d_f, d_g) in zip(layers, grads):
            layer.w -= config.learning_rate * scale * d_w
            layer.ar_f -= config.learning_rate * scale * d_f
            layer.ar_g -= config.learning_rate * scale * d_g

    if config.mode == "reparam":
        _check_stable([layer.ar_kernel() for layer in layers])
    return trace


def _check_stable(kernels: Sequence[SeparableArKernel]) -> None:
    # stable in exact arithmetic, not always in float64 (filters.materialize)
    for ar in kernels:
        unstable = ar.unstable_factor()
        if unstable is not None:
            raise ValueError(
                f"re-parameterized {unstable} left the stable region: float64 rounding "
                f"put |fm1 + fp1| at or above 1, which exact arithmetic never does"
            )


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient ``(L(p + h e) - L(p - h e)) / 2h`` per coordinate.

    The package's independent oracle for every analytic gradient.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped.flat[i] += h
        upper = loss_fn(bumped)
        bumped.flat[i] -= 2 * h
        lower = loss_fn(bumped)
        grad.flat[i] = (upper - lower) / (2.0 * h)
    return grad


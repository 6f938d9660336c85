"""Desk-scale learning harness for stacked ARMA layers.

Trains small stacks with plain SGD plus gradient clipping on a synthetic
wide-context regression task (targets are a Gaussian blur of the inputs whose
footprint far exceeds any single moving-average kernel, so the layers can only
fit it by learning nonzero autoregressive coefficients).  The whole batch
enters the stack only through per-frequency second moments.  The stack has
no nonlinearity, so it runs on the layer's spectral core
(:func:`armakit.arma.spectral_forward` and its adjoint) with one layer's
output spectrum as the next one's input, and per frequency it is one
transfer matrix ``M``.  The inputs and targets are transformed
once per run; each step runs one virtual sample per input channel through
the stack to get ``M``, and takes one 2D transform, the ``irfft2`` of the
batch's output spectrum for the loss.  Two modes:

* ``reparam``: autoregressive factors live in unconstrained ``(alpha, beta)``
  coordinates, and every step's factors are stable, in float64 too; a step
  that takes a factor's spectrum below the guard is recorded as divergence;
* ``raw``: factor taps ``(fm1, fp1)`` are updated directly with no
  constraint, which lets the output recursively amplify itself once the taps
  leave the stable region.  Divergence is a recorded outcome, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .arma import _spectral_backward, layer_forward, spectral_forward
from .filters import SeparableArKernel, reparam_gradient
from .numerics import FieldTensor, MaKernel, SingularSpectrumError

DIVERGENCE_OUTPUT_LIMIT = 1e6

#: Every layer has a ``MA_TAPS x MA_TAPS`` moving-average kernel and one
#: length-3 autoregressive factor per axis and channel.
MA_TAPS = 3


def _draw_inputs(samples: int, size: int, seed: int) -> np.ndarray:
    # white-noise inputs (samples, size, size, 1), drawn for every task the same way
    for name, value in (("samples", samples), ("size", size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    return np.random.default_rng(seed).standard_normal((samples, size, size, 1))


@dataclass(eq=False)
class ToyTask:
    """Paired input/target fields; the constructors draw the inputs from a seed
    and refuse ``samples`` or ``size`` below 1."""

    inputs: np.ndarray  # (samples, height, width, channels), finite
    targets: np.ndarray  # the same, with any channel count

    def __post_init__(self):
        # train runs any S0 -> S_out stack, so the channel counts may differ
        inputs, targets = (FieldTensor(a).data for a in (self.inputs, self.targets))
        if inputs.ndim != 4 or targets.ndim != 4 or inputs.shape[:3] != targets.shape[:3]:
            raise ValueError(
                f"inputs and targets must be (samples, height, width, channels) arrays of "
                f"matching shapes but for the channels, got {inputs.shape} and {targets.shape}"
            )
        self.inputs, self.targets = inputs, targets

    @property
    def samples(self) -> int:
        return self.inputs.shape[0]

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
        inputs = _draw_inputs(samples, size, seed)
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
        inputs = _draw_inputs(samples, size, seed)
        return cls(inputs, inputs.copy())

    @classmethod
    def zero_target(cls, samples: int = 4, size: int = 64, seed: int = 0):
        inputs = _draw_inputs(samples, size, seed)
        return cls(inputs, np.zeros_like(inputs))


@dataclass
class TrainConfig:
    """Knobs of the SGD loop.

    ``channel_sizes`` lists the field channel counts through the stack, each
    at least 1, e.g. ``(1, 4, 1)`` builds two layers.  In ``raw`` mode every
    autoregressive factor starts with tap sum ``raw_tap_sum`` (the default
    sits just outside the stable region, making the instability deterministic
    rather than seed-dependent); in ``reparam`` mode factors start at the
    identity.
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
        if min(self.channel_sizes) < 1:
            raise ValueError(f"channel_sizes must be at least 1 each, got {self.channel_sizes}")


@dataclass(eq=False)
class LayerState:
    """Learnable parameters of one layer.

    ``ar`` has shape ``(2, out_channels, 1, 2)``, the ``f`` factors then the
    ``g`` factors, as does its gradient: ``(alpha, beta)`` pairs in reparam
    mode, or raw ``(fm1, fp1)`` taps (with the center tap fixed at 1) in raw
    mode.
    """

    w: np.ndarray
    ar: np.ndarray
    mode: str

    def ar_kernel(self) -> SeparableArKernel:
        if self.mode == "reparam":
            return SeparableArKernel(params=self.ar)
        # (fm1, fp1) -> (fm1, 1, fp1)
        return SeparableArKernel(np.insert(self.ar, 1, 1.0, axis=-1))


@dataclass(eq=False)
class TrainTrace:
    """Per-step records plus the final parameter state."""

    rows: List[Tuple[int, float, float, float]] = field(default_factory=list)
    diverged: bool = False
    divergence_step: Optional[int] = None
    layers: List[LayerState] = field(default_factory=list)

    #: the names of a row's fields, the header of the CLI's trace CSV
    HEADER = "step,loss,max_abs_output,mean_abs_ar_sum"


def initial_layers(config: TrainConfig, rng: np.random.Generator) -> List[LayerState]:
    layers = []
    k = MA_TAPS
    for s, t in zip(config.channel_sizes[:-1], config.channel_sizes[1:]):
        bound = math.sqrt(6.0 / (k * k * s + k * k * t))
        w = rng.uniform(-bound, bound, size=(k, k, t, s))
        start = 0.0 if config.mode == "reparam" else config.raw_tap_sum / 2.0
        layers.append(LayerState(w=w, ar=np.full((2, t, 1, 2), start), mode=config.mode))
    return layers


def train(task: ToyTask, config: TrainConfig) -> TrainTrace:
    """SGD over the stack; returns the trace (divergence included, never raised).

    Each record holds the loss at the current parameters, the largest output
    magnitude over the batch, and the mean materialized ``|fm1 + fp1|`` over
    all autoregressive factors.  A setup error, such as a kernel that does
    not fit the field, is raised.
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
    inputs_hat = np.fft.rfft2(task.inputs, axes=(1, 2))
    targets_hat = np.fft.rfft2(task.targets, axes=(1, 2))
    # Per frequency the stack is one (T x S0) matrix M, and the layers below
    # layer l are M_l.  The backward pass reads the batch only through the
    # cross spectra sum_n dT_{l,n} Z_n^H, where Z_n is layer l's input M_l X_n
    # or output M_{l+1} X_n and dT_{l,n} = B_l (M X_n - T_n) / N for the linear
    # map B_l of the layers above.  So they equal B_l (M P - C) Z^H, with the
    # run-constant moments P = sum_n X_n X_n^H / N and C = sum_n T_n X_n^H / N
    # and Z = M_l or M_{l+1}.  The S0 virtual samples e_r, whose layer
    # inputs are the columns of M_l, give the same sums from the gradient
    # spectrum G[r] = sum_s M[s] P[s, r] - C[r].
    s0 = inputs_hat.shape[3]
    moments = np.einsum("nijs,nijr->ijsr", inputs_hat, inputs_hat.conj()) / n
    cross = np.einsum("nijt,nijr->rijt", targets_hat, inputs_hat.conj()) / n
    virtual_hat = np.broadcast_to(
        np.eye(s0, dtype=np.complex128)[:, None, None, :], (s0,) + inputs_hat.shape[1:]
    )
    virtual_shape = (s0,) + task.inputs.shape[1:]

    for step in range(config.steps):
        kernels = [(MaKernel(layer.w), layer.ar_kernel()) for layer in layers]
        ar_sums = [np.abs(ar.taps[..., 0] + ar.taps[..., 2]).ravel() for _, ar in kernels]
        mean_ar_sum = float(np.mean(np.concatenate(ar_sums)))

        # each layer's cache (its input spectrum included) for its backward pass
        caches = []
        m_hat, shape = virtual_hat, virtual_shape
        try:
            for ma, ar in kernels:
                m_hat, cache = spectral_forward(m_hat, shape, ma, ar)
                shape = cache.shape
                caches.append(cache)
        except SingularSpectrumError:
            # raw taps past the stable bound, or a reparam factor's tap sum
            # neared +-1: the guard refused a (nearly) zero spectral mode
            loss = max_out = float("inf")
        else:
            y_hat = np.einsum("nijs,sijt->nijt", inputs_hat, m_hat)
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
        grad = np.einsum("sijt,ijsr->rijt", m_hat, moments)
        grad -= cross
        for index in reversed(range(len(kernels))):
            # nothing reads the first layer's input gradient, and nothing
            # keeps grad, so the backward pass forms dT_hat in place in it
            grad, d_w, d_ar = _spectral_backward(grad, caches[index], index > 0)
            # the center tap is fixed at 1, so only (fm1, fp1) are learned
            d_ar = d_ar[..., ::2]
            if config.mode == "reparam":
                d_ar = reparam_gradient(layers[index].ar, d_ar)
            grads.insert(0, (d_w, d_ar))

        # f and g summed apart: one sum over both would regroup numpy's pairwise sum
        norm = math.sqrt(sum(float((g**2).sum()) for d_w, d_ar in grads for g in (d_w, *d_ar)))
        scale = 1.0
        if norm > config.clip_norm:
            scale = config.clip_norm / norm

        for layer, (d_w, d_ar) in zip(layers, grads):
            layer.w -= config.learning_rate * scale * d_w
            layer.ar -= config.learning_rate * scale * d_ar
    return trace


def finite_diff_grad(loss_fn: Callable[[np.ndarray], float], params: np.ndarray) -> np.ndarray:
    """Central-difference gradient ``(L(p + h e) - L(p - h e)) / 2h`` per coordinate, ``h = 1e-5``.

    The package's independent oracle for every analytic gradient.
    """
    h = 1e-5
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


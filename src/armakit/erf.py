"""Effective-receptive-field analysis for linear ARMA networks.

The effective receptive field (ERF) of a network is the normalized
distribution of output-to-input gradient magnitudes; its spread measures how
far an input pixel substantially influences an output.  For a linear network
of layers

    y[i] - a * y[i-1] = sum_{p=0}^{K-1} ((1-a)/K) * x[i - d*p]

(uniform moving-average taps with count ``K`` and dilation ``d``, one
autoregressive coefficient ``0 <= a < 1``), the squared ERF radius has the
closed form

    sum over layers of  d^2 (K^2 - 1) / 12  +  a / (1 - a)^2

This module provides that analytic radius, the moment machinery behind it, a
truncated-series oracle (the layer's exact infinite-tap equivalent filter cut
at a mass threshold), and empirical gradient-map ERFs: the composed layer
filters in 1D, the network's adjoint transfer function on a grid in 2D.

Offset convention: ERF offsets are input position minus output position, so a
purely causal network has its mass at non-positive offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Tuple

import numpy as np

from .arma import _ma_spectrum, ar_spectra
from .filters import SeparableArKernel
from .numerics import MaKernel

#: Mass threshold for truncating the geometric inverse filter.
DEFAULT_TRUNCATION = 1e-12

#: Longest geometric inverse filter or dilated moving-average support
#: ``d*(K-1)+1`` the ERF paths will build; every ``a <= 0.99`` fits at any
#: truncation a double can hold.
MAX_FILTER_TAPS = 2**20

#: Most multiply-adds, ``max(H, 1) * (d*(K-1)+1)``, of the direct convolution
#: that :func:`effective_filter_1d` will run: about a second.
MAX_FILTER_WORK = 2**30

#: Largest working set, in bytes, :func:`empirical_erf_2d` will build; its
#: estimate grows as ``grid^2`` and as ``channels^2`` times the composed
#: footprint squared.
MAX_WORKING_SET_BYTES = 2**30

#: An empirical 2D map is refused when more than this much of the composed
#: filter's mass cannot be represented on the grid without wrapping.
DEFAULT_WRAP_TOLERANCE = 1e-6


class WraparoundError(ValueError):
    """The requested grid is too small to hold the gradient map faithfully."""


@dataclass(frozen=True)
class LayerSpec1D:
    """One layer of the analyzed linear network: ``(K, d, a)``."""

    taps: int
    dilation: int = 1
    ar_coeff: float = 0.0

    def __post_init__(self):
        if self.taps < 1 or self.taps % 2 == 0:
            raise ValueError(f"tap count must be odd and positive, got {self.taps}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError(f"autoregressive coefficient must be in [0, 1), got {self.ar_coeff}")


@dataclass(frozen=True)
class LinearNetSpec:
    """Ordered stack of :class:`LayerSpec1D`."""

    layers: Tuple[LayerSpec1D, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("network needs at least one layer")


@dataclass(eq=False)
class ErfMap:
    """Normalized gradient-magnitude distribution over integer offsets.

    ``weights`` is 1D or 2D with nonnegative entries summing to 1;
    ``origin`` gives the index of offset zero per axis (it may lie outside
    the array when the representable window excludes offset zero).
    """

    weights: np.ndarray
    origin: Tuple[int, ...]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim not in (1, 2):
            raise ValueError(f"weights must be 1D or 2D, got shape {self.weights.shape}")
        self.origin = tuple(int(o) for o in self.origin)
        if len(self.origin) != self.weights.ndim:
            raise ValueError("origin must give one index per weight axis")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")

    def offsets(self, axis: int = 0) -> np.ndarray:
        """Integer offsets along one axis."""
        return np.arange(self.weights.shape[axis]) - self.origin[axis]

    def marginal(self, axis: int = 0) -> np.ndarray:
        """Weights summed over all other axes."""
        if self.weights.ndim == 1:
            return self.weights
        return self.weights.sum(axis=1 - axis)


def layer_variance_term(layer: LayerSpec1D) -> float:
    """Per-layer contribution to the squared ERF radius."""
    a = layer.ar_coeff
    return layer.dilation**2 * (layer.taps**2 - 1) / 12.0 + a / (1.0 - a) ** 2


def analytic_radius_arma(spec: LinearNetSpec) -> float:
    """Closed-form ERF radius of the linear network (per-axis standard deviation)."""
    return math.sqrt(sum(layer_variance_term(layer) for layer in spec.layers))


def layer_moments(layer: LayerSpec1D) -> Tuple[float, float]:
    """First and second moments of a layer's equivalent infinite filter.

    The layer acts as the convolution of the geometric inverse of its
    autoregressive part with its uniform dilated moving-average taps.  With
    ``r = a / (1 - a)``:

        M1 = r + d*(K-1)/2
        M2 = a*(1+a)/(1-a)^2 + 2*r*d*(K-1)/2 + d^2*(K-1)*(2K-1)/6

    and ``M2 - M1**2`` equals :func:`layer_variance_term` identically.  (The
    second moment of the geometric factor is ``a*(1+a)/(1-a)^2``; its square
    appears only inside ``M1**2``.)
    """
    a, d, k = layer.ar_coeff, layer.dilation, layer.taps
    geo_m1 = a / (1.0 - a)
    geo_m2 = a * (1.0 + a) / (1.0 - a) ** 2
    ma_m1 = d * (k - 1) / 2.0
    ma_m2 = d**2 * (k - 1) * (2 * k - 1) / 6.0
    m1 = geo_m1 + ma_m1
    m2 = geo_m2 + 2.0 * geo_m1 * ma_m1 + ma_m2
    return m1, m2


def effective_filter_1d(layer: LayerSpec1D, epsilon: float = DEFAULT_TRUNCATION) -> np.ndarray:
    """Truncated equivalent filter of one layer, taps at offsets ``0..len-1``.

    The inverse of the causal autoregressive factor ``(1, -a)`` is the
    geometric sequence ``a**p`` for ``p >= 0``, truncated at the horizon
    ``H = ceil(ln(epsilon)/ln(a))`` so the dropped tail has mass at most
    ``epsilon`` (``H = 0``, i.e. a bare delta, when ``a == 0``); it is then
    convolved with the uniform dilated moving-average taps ``(1-a)/K``.
    ``epsilon`` must lie in ``(0, 1)``, neither ``H`` nor the moving-average
    support ``d*(K-1)+1`` may exceed ``MAX_FILTER_TAPS``, nor ``max(H, 1)``
    times the support ``MAX_FILTER_WORK``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"truncation epsilon must be in (0, 1), got {epsilon!r}")
    support = layer.dilation * (layer.taps - 1) + 1
    if support > MAX_FILTER_TAPS:  # refused before allocating
        raise ValueError(
            f"moving-average taps {layer.taps} at dilation {layer.dilation} span "
            f"{support} taps; the limit is {MAX_FILTER_TAPS}"
        )
    a = layer.ar_coeff
    horizon = 0 if a == 0.0 else int(math.ceil(math.log(epsilon) / math.log(a)))
    if horizon > MAX_FILTER_TAPS:
        raise ValueError(
            f"autoregressive coefficient {a!r} needs {horizon} taps to reach "
            f"truncation {epsilon!r}; the limit is {MAX_FILTER_TAPS}"
        )
    length = max(horizon, 1)  # a bare delta when a == 0
    if length * support > MAX_FILTER_WORK:  # refused before either array is built
        raise ValueError(
            f"--layers entry {layer.taps},{layer.dilation},{a!r} convolves {length} inverse "
            f"taps with a {support}-tap support, about {length * support:.3g} multiply-adds; "
            f"the limit is {MAX_FILTER_WORK:.3g}"
        )
    inverse = a ** np.arange(length, dtype=np.float64)
    ma = np.zeros(support)
    ma[:: layer.dilation] = (1.0 - a) / layer.taps
    return np.convolve(inverse, ma)


def empirical_erf_1d(spec: LinearNetSpec, epsilon: float = DEFAULT_TRUNCATION) -> ErfMap:
    """Composed 1D ERF: convolve all layer filters, reverse, normalize.

    The gradient map of a linear network is the reversed composition of its
    layer filters, so the returned map lives on non-positive offsets and its
    variance approximates the sum of per-layer variance terms (exactly, up to
    the geometric truncation).
    """
    reversed_taps = _composed_filter(spec, epsilon)[::-1]
    return ErfMap(reversed_taps / reversed_taps.sum(), origin=(reversed_taps.size - 1,))


def _composed_filter(spec: LinearNetSpec, epsilon: float) -> np.ndarray:
    """Convolution of every layer's :func:`effective_filter_1d`, taps at offsets ``0..len-1``.

    One real FFT over the full linear length rounded up to a power of two
    (a length with a large prime factor transforms several times slower), so
    the cost grows as ``n log n`` in the taps rather than quadratically.
    Every layer filter is nonnegative, so roundoff negatives are clamped to 0.
    """
    layer_filters = [effective_filter_1d(layer, epsilon) for layer in spec.layers]
    length = sum(f.size - 1 for f in layer_filters) + 1
    size = 1 << (length - 1).bit_length()
    spectrum = np.ones(size // 2 + 1, dtype=np.complex128)
    for f in layer_filters:
        spectrum *= np.fft.rfft(f, size)
    return np.maximum(np.fft.irfft(spectrum, size)[:length], 0.0)


def erf_radius(erf_map: ErfMap) -> float:
    """Radial spread: ``sqrt(E[p1^2 + p2^2] - E[sqrt(p1^2 + p2^2)]^2)``.

    This measures deviation of the *radial distance* from its mean, so a
    ring-shaped map has radius zero; :func:`erf_axis_variance` gives the
    per-axis variance instead, which is the quantity the analytic radius
    formula describes.
    """
    if erf_map.weights.ndim == 1:
        radial = np.abs(erf_map.offsets(0)).astype(np.float64)
    else:
        p1 = erf_map.offsets(0)[:, None].astype(np.float64)
        p2 = erf_map.offsets(1)[None, :].astype(np.float64)
        radial = np.hypot(p1, p2)
    second = float((radial**2 * erf_map.weights).sum())
    first = float((radial * erf_map.weights).sum())
    return math.sqrt(max(second - first**2, 0.0))


def erf_axis_variance(erf_map: ErfMap, axis: int = 0) -> float:
    """Variance of the map's marginal along one axis."""
    marginal = erf_map.marginal(axis)
    p = erf_map.offsets(axis).astype(np.float64)
    mean = float((p * marginal).sum())
    return float((p**2 * marginal).sum()) - mean**2


def _layer_kernels(
    spec: LinearNetSpec, channels: int, kernel_mode: str, rng: Optional[np.random.Generator]
):
    """Materialize each layer's centered K-tap moving-average kernel.

    Supports are not checked again: :func:`_select_window` has checked
    every layer's, through :func:`effective_filter_1d`, before this runs.
    """
    kernels = []
    for layer in spec.layers:
        size = layer.taps
        if kernel_mode == "uniform":
            taps_1d = np.full(size, (1.0 - layer.ar_coeff) / size)
            data = np.outer(taps_1d, taps_1d)[:, :, None, None]
        else:  # "xavier"; empirical_erf_2d has rejected every other mode
            fan = size * size * channels
            bound = math.sqrt(6.0 / (fan + fan))
            data = rng.uniform(-bound, bound, size=(size, size, channels, channels))
        kernels.append(MaKernel(data, dilation=layer.dilation))
    return kernels


def _axis_mass_profile(spec: LinearNetSpec, epsilon: float):
    """Per-axis mass envelope of the composed filter with centered kernels.

    Returns ``(taps, start)`` with ``taps[i]`` the mass at forward offset
    ``start + i``, ``start`` half a footprint back per layer.  The uniform
    mode's profile is exact; the random mode uses a uniform-magnitude
    surrogate on the same support, which governs how much can wrap.
    """
    taps = _composed_filter(spec, epsilon)
    start = -sum(layer.dilation * (layer.taps - 1) // 2 for layer in spec.layers)
    return taps / taps.sum(), start


def _window_sums(taps: np.ndarray, grid: int) -> np.ndarray:
    """Sum of every ``grid``-wide window of ``taps``, from one cumulative sum."""
    cumulative = np.concatenate(([0.0], np.cumsum(taps)))
    return cumulative[grid:] - cumulative[:-grid]


def _select_window(spec: LinearNetSpec, grid: int, epsilon: float):
    """Choose the length-``grid`` offset window that best holds the composed filter.

    Returns the window's first forward offset ``w0`` (the reading window in
    ERF offsets is then ``[-(w0 + grid - 1), -w0]``).  Raises
    :class:`WraparoundError` when even the best window leaks at least
    :data:`DEFAULT_WRAP_TOLERANCE` of the mass, since the wrapped map would
    alias that mass to wrong offsets.
    """
    taps, start = _axis_mass_profile(spec, epsilon)
    if taps.size <= grid:
        # support fits; center it in the window
        return start - (grid - taps.size) // 2
    window_sums = _window_sums(taps, grid)
    best = int(np.argmax(window_sums))
    leak = float(1.0 - window_sums[best])
    if leak >= DEFAULT_WRAP_TOLERANCE:
        raise WraparoundError(
            f"composed filter leaks {leak:.3e} of its mass outside any "
            f"{grid}-wide window (tolerance {DEFAULT_WRAP_TOLERANCE:.1e}); use a larger grid"
        )
    return start + best


def empirical_erf_2d(
    spec: LinearNetSpec,
    grid: int,
    channels: int = 1,
    seed: Optional[int] = None,
    kernel_mode: str = "uniform",
    epsilon: float = DEFAULT_TRUNCATION,
) -> ErfMap:
    """Empirical 2D ERF of the network applied separably on both axes.

    Builds the linear network on a ``grid x grid`` field (moving-average
    kernels either the uniform idealization or Xavier-initialized random;
    autoregressive part the causal per-axis factor) and reads the gradient
    map of one output pixel (identical at every pixel of a circular network)
    off the adjoint network's transfer function, with no backward pass.
    Circular convolutions commute and every layer applies one causal factor
    to each channel along both axes, so the adjoint autoregressive part is
    one rank-1 filter ``outer(u, u)``, ``u = irfft(prod_l 1/conj(F_hat_l))``,
    with each ``F_hat_l`` taken from :func:`armakit.arma.ar_spectra`, which
    guards it.  The moving-average adjoints compose into one small kernel
    ``P[:, :, s, t]`` per channel pair: on the field that holds the composed
    footprint, the layers' adjoint spectra
    multiply per frequency, ``P_hat = W_1_hat^H @ .. @ W_L_hat^H``, and one
    ``irfft2`` inverts them.  The absolute maps ``U @ P[:, :, s, t] @ U.T``
    (``U`` holding rolled copies of ``u``) are summed over channel pairs and
    normalized.

    Both modes build centered ``K``-tap kernels.  The uniform mode's
    one-sided taps at offsets ``{0..K-1}`` are its kernel delayed by
    ``d*(K-1)/2``; delays commute, so its map is computed in the centered
    frame and the summed delay is added to the origin once, at the end.

    ``channels`` applies to the random mode; the uniform idealization is
    single-channel by construction.  A working set estimated over
    ``MAX_WORKING_SET_BYTES`` is refused before any of it is built.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    if channels < 1:
        raise ValueError(f"channels must be at least 1, got {channels}")
    if kernel_mode == "uniform":
        if channels != 1:
            raise ValueError("uniform kernel mode is single-channel; use xavier for channels > 1")
    elif kernel_mode == "xavier":
        if seed is None:
            raise ValueError("xavier kernel mode needs a seed")
    else:
        raise ValueError(f"unknown kernel mode {kernel_mode!r}")
    w0 = _select_window(spec, grid, epsilon)
    # P[:, :, s, t] over the offsets [-half, half] of the composed footprint
    half = sum(layer.dilation * (layer.taps - 1) // 2 for layer in spec.layers)
    n = 2 * half + 1
    # float64 slots: the kernels, P's two factor spectra, product, inverse and
    # shifted copy, U with its index and products, and three grid^2 arrays
    slots = channels**2 * (sum(layer.taps**2 for layer in spec.layers) + 6 * n * (n // 2 + 1))
    slots += 2 * channels**2 * n * n + grid * n * (channels + 2) + 4 * grid**2
    if 8 * slots > MAX_WORKING_SET_BYTES:
        raise ValueError(
            f"the 2D map needs about {8 * slots / 2**30:.3g} GiB for --grid {grid}, "
            f"--channels {channels} and --layers spanning {n} taps; the working-set "
            f"limit is {MAX_WORKING_SET_BYTES / 2**30:g} GiB"
        )

    rng = np.random.default_rng(seed) if kernel_mode == "xavier" else None
    ma_kernels = _layer_kernels(spec, channels, kernel_mode, rng)
    # a layer applies the causal factor (1, -a) to each channel along both
    # axes, so a kernel with one channel per layer gives every F_hat_l,
    # guarded as the layer guards it
    causal = np.array([[[0.0, 1.0, -layer.ar_coeff]] for layer in spec.layers])
    u_hat = np.ones(grid // 2 + 1, dtype=np.complex128)
    for f_hat in ar_spectra(SeparableArKernel([causal, causal]), grid, grid)[1].T:
        u_hat /= np.conj(f_hat)
    u = np.fft.irfft(u_hat, grid)

    p_hat = reduce(np.matmul, (_ma_spectrum(ma, n, n, adjoint=True) for ma in ma_kernels))
    kernels = np.fft.fftshift(np.fft.irfft2(p_hat, s=(n, n), axes=(0, 1)), axes=(0, 1))

    # the map is read in the offset window [q_low, -w0] directly: row x of U
    # holds u at ERF offset q_low + x minus P's offset i - half, wrapped
    q_low = -(w0 + grid - 1)
    rolled_u = u[(np.arange(grid)[:, None] + q_low + half - np.arange(n)) % grid]
    window = np.zeros((grid, grid))
    for out_channel in range(channels):
        left = np.tensordot(rolled_u, kernels[:, :, :, out_channel], axes=(1, 0))
        for in_channel in range(channels):
            window += np.abs(left[:, :, in_channel] @ rolled_u.T)
    # the uniform mode's one-sided taps delay the centered map by half
    origin = half - q_low if kernel_mode == "uniform" else -q_low
    return ErfMap(window / window.sum(), origin=(origin, origin))

"""Length-3 autoregressive factors: stability, re-parameterization, and
separable 2D composition.

A length-3 factor is a row ``(fm1, f0, fp1)`` of a ``(..., 3)`` tap array.
It acts on a sequence as the convolution constraint
``fm1*y[i+1] + f0*y[i] + fp1*y[i-1] = x[i]``.  Solving for ``y`` is a
bounded operation exactly when the zeros of the characteristic polynomial
``fm1*z^2 + f0*z + fp1`` straddle the unit circle, which for real taps
reduces to the strict inequality ``|fm1 + fp1| < f0``: :func:`stable_factors`
is that one test.

The unconstrained parameterization maps any ``(alpha, beta)`` pair into that
open stability region, with the center tap fixed to ``f0 = 1``, by routing
the constrained coordinate (the tap sum) through ``tanh``:

    fm1 + fp1 = tanh(beta)        (bounded)
    fp1 - fm1 = alpha             (free)

so gradient descent never steps outside the stable set.  :func:`materialize`
keeps that promise in float64 too, for every finite pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


# math.tanh elementwise: np.tanh rounds to 1.0 from beta ~ 18.99, while
# math.tanh stays below 1 up to beta ~ 19.06; materialize clamps it below 1
_TANH = np.frompyfunc(math.tanh, 1, 1)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _tanh(beta) -> np.ndarray:
    return np.array(_TANH(beta), dtype=np.float64)


def materialize(p) -> np.ndarray:
    """Map unconstrained ``(alpha, beta)`` onto a stable filter.

    ``p`` is a ``(..., 2)`` array of ``(alpha, beta)`` pairs; the result is
    the ``(..., 3)`` taps ``[fm1, f0, fp1]`` with the center tap fixed to
    ``f0 = 1`` (the overall scale of an ARMA layer can be absorbed by its
    moving-average kernel) and

        fm1 = (tanh(beta) - alpha) / 2,    fp1 = (tanh(beta) + alpha) / 2,

    hence ``|fm1 + fp1| = |tanh(beta)| < f0``.  In float64 too, every finite
    pair gives finite taps that pass :func:`stable_factors`: ``tanh(beta)`` is
    clamped to ``+-nextafter(1, 0)`` (``math.tanh`` rounds to 1 from ``|beta|``
    about 19.06), and where rounding still lifts the float sum to 1 in
    magnitude (a large ``|alpha|``), the smaller outer tap moves one ulp
    toward the stable side.
    """
    p = np.asarray(p, dtype=np.float64)
    alpha, tanh_beta = p[..., 0], np.clip(_tanh(p[..., 1]), -_BELOW_ONE, _BELOW_ONE)
    fm1, fp1 = 0.5 * (tanh_beta - alpha), 0.5 * (tanh_beta + alpha)
    tap_sum = fm1 + fp1
    reached = np.abs(tap_sum) >= 1.0
    if reached.any():
        stable_side = np.copysign(np.inf, -tap_sum)
        fm1_smaller = np.abs(fm1) < np.abs(fp1)
        fm1 = np.where(reached & fm1_smaller, np.nextafter(fm1, stable_side), fm1)
        fp1 = np.where(reached & ~fm1_smaller, np.nextafter(fp1, stable_side), fp1)
    return np.stack([fm1, np.ones_like(fm1), fp1], axis=-1)


def reparam_gradient(p, d_taps):
    """Chain a gradient w.r.t. ``(fm1, fp1)`` back to ``(alpha, beta)``.

    ``p`` is a ``(..., 2)`` array of ``(alpha, beta)`` pairs as
    :func:`materialize` takes it and ``d_taps`` a ``(..., 2)`` array of
    ``(d_fm1, d_fp1)`` pairs; the result is ``(d_alpha, d_beta)`` pairs in
    ``p``'s layout.  Note ``d_beta`` carries the ``tanh`` saturation factor
    ``1 - tanh(beta)^2`` and vanishes for large ``|beta|``.
    """
    tanh_beta = _tanh(np.asarray(p, dtype=np.float64)[..., 1])
    d_taps = np.asarray(d_taps, dtype=np.float64)
    d_fm1, d_fp1 = d_taps[..., 0], d_taps[..., 1]
    d_alpha = 0.5 * (d_fp1 - d_fm1)
    d_beta = 0.5 * (1.0 - tanh_beta**2) * (d_fm1 + d_fp1)
    return np.stack([d_alpha, d_beta], axis=-1)


def stable_factors(taps) -> np.ndarray:
    """``|fm1 + fp1| < f0`` per factor of a ``(..., 3)`` tap array.

    Equivalent to the zeros of ``fm1*z^2 + f0*z + fp1`` straddling the unit
    circle, so the inverse filter's region of convergence contains it.
    Raises ``ValueError`` if any center tap is not positive.
    """
    taps = np.asarray(taps, dtype=np.float64)
    f0 = taps[..., 1]
    if np.any(f0 <= 0):
        raise ValueError(f"center tap must be positive, got f0={float(f0[f0 <= 0][0])}")
    return np.abs(taps[..., 0] + taps[..., 2]) < f0


def compose_1d(filters) -> np.ndarray:
    """Convolve a cascade of length-3 factors into one tap array.

    ``filters`` is a ``(..., Q, 3)`` tap array; every cascade along the
    leading axes is composed at once.  Returns ``(..., 2Q + 1)`` taps
    indexed from offset ``-Q`` to ``+Q``.
    """
    factors = np.asarray(filters, dtype=np.float64)
    if factors.ndim < 2 or factors.shape[-2] < 1 or factors.shape[-1] != 3:
        raise ValueError(f"need a (..., depth >= 1, 3) tap array, got shape {factors.shape}")
    taps = factors[..., 0, :]
    for q in range(1, factors.shape[-2]):
        n = taps.shape[-1]
        product = np.zeros(taps.shape[:-1] + (n + 2,))
        for j in (2, 1, 0):
            product[..., j:j + n] += taps * factors[..., q, j, None]
        taps = product
    return taps


def _check_finite(names, array: np.ndarray) -> None:
    # entry (i, j, ...) of the array is named names[i][j]...
    if not np.isfinite(array).all():
        index = tuple(np.argwhere(~np.isfinite(array))[0])
        position = "".join(f"[{i}]" for i in index[1:])
        raise ValueError(f"{names[index[0]]}{position} is {array[index]}, not a finite number")


@dataclass(eq=False)
class SeparableArKernel:
    """Per-channel separable autoregressive kernel.

    Each channel's 2D kernel is the outer product of two composed 1D cascades
    (``Q`` length-3 factors per axis), ``f`` (columns) then ``g`` (rows).  It
    is built from one finite array: raw ``taps``, ``(2, channels, Q, 3)``
    factors ``[fm1, f0, fp1]`` with no stability guarantee, or ``params``,
    ``(2, channels, Q, 2)`` ``(alpha, beta)`` pairs, which it keeps for
    gradients and materializes into ``taps``, every factor stable.  Both are
    copied and composed once into ``composed``,
    ``(2, channels, 2Q + 1)``; all are read-only.
    """

    taps: Optional[np.ndarray] = None
    params: Optional[np.ndarray] = None
    composed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if (self.taps is None) == (self.params is None):
            raise ValueError("a kernel is built from exactly one of taps and params")
        given, width = ("taps", 3) if self.params is None else ("params", 2)
        array = np.array(getattr(self, given), dtype=np.float64)
        shape = array.shape
        if shape[:1] != (2,):
            raise ValueError(f"{given} must stack the f and g cascades, got shape {shape}")
        if len(shape) != 4 or shape[3] != width or min(shape) < 1:
            raise ValueError(
                f"f and g {given} must be (channels, depth, {width}) arrays with channels "
                f"and depth >= 1, got shape {shape[1:]}"
            )
        _check_finite("fg", array)
        if self.params is None:
            self.taps = array
        else:
            self.params, self.taps = array, materialize(array)
            self.params.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):  # ar_spectra refuses an overflow
            self.composed = compose_1d(self.taps)
        self.taps.flags.writeable = self.composed.flags.writeable = False

    @property
    def channels(self) -> int:
        return self.taps.shape[1]

    @property
    def depth(self) -> int:
        return self.taps.shape[2]

    @classmethod
    def from_arrays(cls, alpha_f, beta_f, alpha_g, beta_g) -> "SeparableArKernel":
        """Build from four ``(channels, depth)`` arrays of finite reparam coordinates."""
        arrays = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in
                  (alpha_f, beta_f, alpha_g, beta_g)]
        if len({a.shape for a in arrays}) != 1:
            raise ValueError("parameter arrays must share one (channels, depth) shape")
        coordinates = np.stack(arrays)
        _check_finite(("alpha_f", "beta_f", "alpha_g", "beta_g"), coordinates)
        # (alpha_f, beta_f, alpha_g, beta_g) -> (f or g, channels, depth, (alpha, beta))
        params = np.moveaxis(coordinates.reshape((2, 2) + coordinates.shape[1:]), 1, -1)
        return cls(params=params)

    @classmethod
    def identity(cls, channels: int, depth: int = 1) -> "SeparableArKernel":
        """Kernel whose every factor is the identity (a centered delta).

        Built at the origin of the re-parameterization, so it is a valid
        starting point for gradient descent.
        """
        zeros = np.zeros((channels, depth))
        return cls.from_arrays(zeros, zeros, zeros, zeros)


def materialize_2d(kernel: SeparableArKernel, channel: int) -> np.ndarray:
    """Materialize one channel's 2D taps, a ``(2Q+1) x (2Q+1)`` array.

    The ``f`` cascade runs along the horizontal (column) axis and ``g`` along
    the vertical (row) axis, so entry ``(p1, p2)`` equals ``G[p1] * F[p2]``
    exactly.
    """
    if not 0 <= channel < kernel.channels:
        raise ValueError(f"channel {channel} out of range [0, {kernel.channels})")
    return np.outer(kernel.composed[1, channel], kernel.composed[0, channel])

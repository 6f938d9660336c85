"""Length-3 autoregressive factors: stability, re-parameterization, and
separable 2D composition.

A length-3 factor ``(fm1, f0, fp1)`` acts on a sequence as the convolution
constraint ``fm1*y[i+1] + f0*y[i] + fp1*y[i-1] = x[i]``.  Solving for ``y``
is a bounded operation exactly when the zeros of the characteristic
polynomial ``fm1*z^2 + f0*z + fp1`` straddle the unit circle, which for real
taps reduces to the strict inequality ``|fm1 + fp1| < f0``.

The unconstrained parameterization maps any ``(alpha, beta)`` pair into that
open stability region, with the center tap fixed to ``f0 = 1``, by routing
the constrained coordinate (the tap sum) through ``tanh``:

    fm1 + fp1 = tanh(beta)        (bounded)
    fp1 - fm1 = alpha             (free)

so in exact arithmetic, gradient descent never steps outside the stable set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


class Length3Filter(NamedTuple):
    """Three-tap 1D autoregressive factor.

    ``fm1``/``fp1`` are the taps at offsets -1/+1 and ``f0`` the center tap,
    which is expected to be positive.  As a tuple it reads as the taps in
    offset order, so a nested sequence of factors is a ``(..., 3)`` tap array.
    """

    fm1: float
    f0: float
    fp1: float


# math.tanh elementwise: np.tanh rounds to 1.0 from beta ~ 18.99, while
# math.tanh stays below 1 up to beta ~ 19.06, the float64 edge of stability
_TANH = np.frompyfunc(math.tanh, 1, 1)


def _tanh(beta) -> np.ndarray:
    return np.array(_TANH(beta), dtype=np.float64)


def materialize(p) -> np.ndarray:
    """Map unconstrained ``(alpha, beta)`` onto a stable filter.

    ``p`` is a ``(..., 2)`` array of ``(alpha, beta)`` pairs; the result is
    the ``(..., 3)`` taps ``[fm1, f0, fp1]`` with the center tap fixed to
    ``f0 = 1`` (the overall scale of an ARMA layer can be absorbed by its
    moving-average kernel) and

        fm1 = (tanh(beta) - alpha) / 2,    fp1 = (tanh(beta) + alpha) / 2,

    hence ``|fm1 + fp1| = |tanh(beta)| < f0``.  In float64 the result passes
    :func:`is_stable` only while ``|beta|`` is below about 19 and ``|alpha|``
    small against ``(1 - |tanh beta|) / eps``: ``(1.5, 19)`` fails, as does
    ``|alpha|`` from about 6.7e7 at ``beta = 10`` (2.3e15 at ``beta = 1``).
    """
    p = np.asarray(p, dtype=np.float64)
    alpha, tanh_beta = p[..., 0], _tanh(p[..., 1])
    fm1, fp1 = 0.5 * (tanh_beta - alpha), 0.5 * (tanh_beta + alpha)
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

    Raises ``ValueError`` if any center tap is not positive.
    """
    taps = np.asarray(taps, dtype=np.float64)
    f0 = taps[..., 1]
    if np.any(f0 <= 0):
        raise ValueError(f"center tap must be positive, got f0={float(f0[f0 <= 0][0])}")
    return np.abs(taps[..., 0] + taps[..., 2]) < f0


def is_stable(f) -> bool:
    """Strict stability test ``|fm1 + fp1| < f0``.

    Equivalent to the zeros of ``fm1*z^2 + f0*z + fp1`` straddling the unit
    circle, so the inverse filter's region of convergence contains it.
    ``f`` is one :class:`Length3Filter` or a ``(..., 3)`` tap array; the
    result is True iff every factor passes.
    """
    return bool(np.all(stable_factors(f)))


def zeros_of(taps) -> np.ndarray:
    """Zeros ``(z1, z2)`` of ``fm1*z^2 + f0*z + fp1``, ordered ``|z1| <= |z2|``.

    ``taps`` is one :class:`Length3Filter` or a ``(..., 3)`` tap array; the
    result is a ``(..., 2)`` complex array.  Rows with ``fm1 != 0`` take the
    eigenvalues of their companion matrices ``[[-f0/fm1, -fp1/fm1], [1, 0]]``
    (the matrix ``np.roots`` builds), found in one call.  Linear rows
    (``fm1 == 0``) have the one zero ``-fp1/f0`` and complex infinity, so
    the straddle test reduces to ``|fp1| < f0``, as :func:`is_stable` does.
    """
    taps = np.asarray(taps, dtype=np.float64)
    fm1, f0, fp1 = taps.reshape(-1, 3).T
    if np.any((fm1 == 0.0) & (f0 == 0.0)):
        raise ValueError("filter with fm1 = f0 = 0 has no zeros")
    quadratic, linear = fm1 != 0.0, fm1 == 0.0
    companion = np.zeros((int(quadratic.sum()), 2, 2))
    companion[:, 0] = -np.stack([f0, fp1], axis=-1)[quadratic] / fm1[quadratic, None]
    companion[:, 1, 0] = 1.0
    roots = np.linalg.eigvals(companion)
    del companion  # freed early, as roots below: a scan then peaks at ~80 B a point
    zeros = np.empty(fm1.shape + (2,), dtype=complex)
    zeros[quadratic] = roots
    del roots
    zeros[linear, 0] = -fp1[linear] / f0[linear]
    zeros[linear, 1] = np.inf
    moduli = np.abs(zeros)
    swap = moduli[:, 0] > moduli[:, 1]  # a stable sort of each pair by modulus
    zeros[swap] = zeros[swap, ::-1]
    return zeros.reshape(taps.shape[:-1] + (2,))


def straddles_unit_circle(taps) -> np.ndarray:
    """``|z1| < 1 < |z2|``, the bounded-solve condition, per :func:`zeros_of` row."""
    moduli = np.abs(zeros_of(taps))
    return (moduli[..., 0] < 1.0) & (moduli[..., 1] > 1.0)


def compose_1d(filters) -> np.ndarray:
    """Convolve a cascade of length-3 factors into one tap array.

    ``filters`` is a ``(..., Q, 3)`` tap array (or a sequence of ``Q``
    :class:`Length3Filter`); every cascade along the leading axes is
    composed at once.  Returns ``(..., 2Q + 1)`` taps indexed from offset
    ``-Q`` to ``+Q``.
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


def _check_finite(name: str, array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        index = tuple(np.argwhere(~np.isfinite(array))[0])
        position = "".join(f"[{i}]" for i in index)
        raise ValueError(f"{name}{position} is {array[index]}, not a finite number")


@dataclass(eq=False)
class SeparableArKernel:
    """Per-channel separable autoregressive kernel.

    Each channel's 2D kernel is the outer product of two composed 1D cascades
    (``Q`` length-3 factors along each axis).  ``f_filters`` and
    ``g_filters`` are ``(channels, Q, 3)`` arrays of taps ``[fm1, f0, fp1]``;
    any nested sequence of that shape, :class:`Length3Filter` rows included,
    is accepted and copied, and every tap must be finite.  When built through
    :meth:`from_arrays` the generating ``(alpha, beta)`` pairs are kept as
    ``(channels, Q, 2)`` arrays ``f_params``/``g_params`` so gradients can be
    chained back to them; kernels built from raw factors carry no parameters
    and no stability guarantee.
    """

    f_filters: np.ndarray
    g_filters: np.ndarray
    f_params: Optional[np.ndarray] = None
    g_params: Optional[np.ndarray] = None

    def __post_init__(self):
        self.f_filters = np.array(self.f_filters, dtype=np.float64)
        self.g_filters = np.array(self.g_filters, dtype=np.float64)
        shape = self.f_filters.shape
        if shape != self.g_filters.shape or len(shape) != 3 or shape[2] != 3 or min(shape) < 1:
            raise ValueError(
                f"f and g must be (channels, depth, 3) tap arrays with channels and depth "
                f">= 1, got shapes {shape} and {self.g_filters.shape}"
            )
        _check_finite("f", self.f_filters)
        _check_finite("g", self.g_filters)

    @property
    def channels(self) -> int:
        return self.f_filters.shape[0]

    @property
    def depth(self) -> int:
        return self.f_filters.shape[1]

    @property
    def is_reparam(self) -> bool:
        return self.f_params is not None

    def unstable_factor(self) -> Optional[str]:
        """Axis, channel, cascade index and taps of the first factor, ``f``
        before ``g``, failing :func:`is_stable`; ``None`` if all pass."""
        factors = np.stack([self.f_filters, self.g_filters])
        unstable = ~stable_factors(factors)
        if not unstable.any():
            return None
        axis, t, q = np.argwhere(unstable)[0]
        return f"{'fg'[axis]} factor {q} of channel {t} with taps {factors[axis, t, q].tolist()}"

    @classmethod
    def from_arrays(cls, alpha_f, beta_f, alpha_g, beta_g) -> "SeparableArKernel":
        """Build from four ``(channels, depth)`` arrays of finite reparam coordinates."""
        arrays = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in
                  (alpha_f, beta_f, alpha_g, beta_g)]
        if len({a.shape for a in arrays}) != 1:
            raise ValueError("parameter arrays must share one (channels, depth) shape")
        for name, a in zip(("alpha_f", "beta_f", "alpha_g", "beta_g"), arrays):
            _check_finite(name, a)
        f_params = np.stack(arrays[:2], axis=-1)
        g_params = np.stack(arrays[2:], axis=-1)
        return cls(materialize(f_params), materialize(g_params), f_params, g_params)

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
    return np.outer(compose_1d(kernel.g_filters[channel]), compose_1d(kernel.f_filters[channel]))

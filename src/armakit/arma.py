"""The ARMA layer: moving-average forward/backward, autoregressive solve by
frequency-domain division, its analytic backward pass, and a dense solver
used as a small-instance oracle.

A layer with moving-average kernel ``W`` and per-channel autoregressive
kernel ``A`` maps an input field ``X`` to the output ``Y`` satisfying

    A[:, :, t] * Y[:, :, t] = sum_s W[:, :, t, s] * X[:, :, s]

with ``*`` denoting circular convolution.  The solve splits into a plain
convolution (``T = W * X``) followed by a per-channel deconvolution
(``A * Y = T``) carried out as an element-wise division of 2D spectra.
Every field is real, so every spectrum is a half spectrum
``(I1, I2//2 + 1, C)`` from ``rfft2`` and is inverted by ``irfft2``.  The
kernel ``A = outer(g, f)`` is separable, so its spectrum is the outer
product of two 1D DFTs and needs no 2D transform.
Fields may carry a leading sample axis ``(N, I1, I2, C)``; the kernels and
spectra are shared by all samples, so kernel gradients sum over the batch.

The backward pass solves two more systems of the same shape.  With ``dY``
the incoming gradient and ``a~`` the coordinate reversal of ``a``
(``a~[i1, i2] = a[-i1, -i2]``), the spatial contracts are

    a~ * dT = dY           a~ * dA = -(y~ * dY)

whose frequency realization for real signals divides by ``conj(A_hat)``.
Correctness of every gradient here is pinned by finite differences in the
test suite rather than by the algebra alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .filters import (
    Length3Filter,
    SeparableArKernel,
    compose_1d,
    is_stable,
    reparam_gradient,
)
from .numerics import (
    DEFAULT_EPSILON,
    FieldTensor,
    MaKernel,
    SingularSpectrumError,
    _check_footprint,
    embed_taps,
    guard_spectrum,
)

#: Largest grid (I1*I2) the dense oracle will assemble; beyond this the
#: quadratic-size matrix is an accident, not a test.
DENSE_SOLVE_LIMIT = 4096


@dataclass(eq=False)
class ArmaLayerParams:
    """Validated parameter bundle for one ARMA layer.

    Requires a stability-certified autoregressive kernel, i.e. one whose
    every materialized factor passes :func:`armakit.filters.is_stable`
    (anything built through the re-parameterization qualifies).
    """

    ma: MaKernel
    ar: SeparableArKernel

    def __post_init__(self):
        if self.ma.out_channels != self.ar.channels:
            raise ValueError(
                f"kernel channel mismatch: moving-average has {self.ma.out_channels} "
                f"output channels, autoregressive has {self.ar.channels}"
            )
        for rows in (self.ar.f_filters, self.ar.g_filters):
            for row in rows:
                for f in row:
                    if not is_stable(f):
                        raise ValueError(
                            f"autoregressive factor {f} violates |fm1 + fp1| < f0"
                        )

    @property
    def in_channels(self) -> int:
        return self.ma.in_channels

    @property
    def out_channels(self) -> int:
        return self.ma.out_channels


@dataclass(eq=False)
class LayerCache:
    """Forward-pass quantities reused by the backward pass."""

    ar: SeparableArKernel  # the kernel the forward pass solved with
    ar_spectrum: np.ndarray  # (I1, I2//2+1, T) complex, per-channel half A_hat
    output_spectrum: np.ndarray  # ([N,] I1, I2//2+1, T) complex, half Y_hat
    shape: Tuple[int, ...]  # ([N,] I1, I2, T), the forward field's shape


@dataclass(eq=False)
class ArGradients:
    """Gradients of the unconstrained autoregressive parameters.

    Arrays of shape ``(channels, depth)``, one entry per cascade factor.
    """

    alpha_f: np.ndarray
    beta_f: np.ndarray
    alpha_g: np.ndarray
    beta_g: np.ndarray


def _rolled_taps(
    field: np.ndarray, w: MaKernel, sign: int = 1, skip_zero: bool = True
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(k1, k2, rolled)`` for every tap of ``w``.

    ``rolled`` is ``field`` circularly shifted by ``sign`` times the tap's
    dilated offset ``(d*p1, d*p2)``; ``sign=-1`` gives the adjoint shift.
    With ``skip_zero``, taps whose ``(T, S)`` block is all zero are skipped:
    they add nothing to a convolution, though they still carry a kernel
    gradient.
    """
    half1 = (w.tap_height - 1) // 2
    half2 = (w.tap_width - 1) // 2
    for k1 in range(w.tap_height):
        for k2 in range(w.tap_width):
            if skip_zero and not w.data[k1, k2].any():
                continue
            shift = (sign * w.dilation * (k1 - half1), sign * w.dilation * (k2 - half2))
            yield k1, k2, np.roll(field, shift, axis=(-3, -2))


def ma_forward(x: FieldTensor, w: MaKernel) -> FieldTensor:
    """Multi-channel circular convolution ``T[:,:,t] = sum_s W[:,:,t,s] * X[:,:,s]``.

    Kernel offsets are scaled by ``w.dilation``.
    """
    if x.channels != w.in_channels:
        raise ValueError(
            f"input has {x.channels} channels but kernel expects {w.in_channels}"
        )
    _check_footprint(w.tap_height, w.tap_width, x.height, x.width, w.dilation)
    out = np.zeros(x.data.shape[:-1] + (w.out_channels,))
    for k1, k2, rolled in _rolled_taps(x.data, w):
        out += np.einsum("...ijs,ts->...ijt", rolled, w.data[k1, k2])
    return FieldTensor(out)


def ma_backward_input(d_t: FieldTensor, w: MaKernel) -> FieldTensor:
    """Input gradient of :func:`ma_forward`: ``dX[:,:,s] = sum_t W~[:,:,t,s] * dT[:,:,t]``.

    ``W~`` is the coordinate reversal of ``W`` (the adjoint of a circular
    convolution is convolution with the reversed kernel).
    """
    if d_t.channels != w.out_channels:
        raise ValueError(
            f"gradient has {d_t.channels} channels but kernel produces {w.out_channels}"
        )
    out = np.zeros(d_t.data.shape[:-1] + (w.in_channels,))
    for k1, k2, rolled in _rolled_taps(d_t.data, w, sign=-1):
        out += np.einsum("...ijt,ts->...ijs", rolled, w.data[k1, k2])
    return FieldTensor(out)


def ma_backward_kernel(d_t: FieldTensor, x: FieldTensor, w: MaKernel) -> np.ndarray:
    """Kernel gradient of :func:`ma_forward`.

    ``dW[p1, p2, t, s]`` is the circular cross-correlation of ``X`` channel
    ``s`` with ``dT`` channel ``t`` read at the dilated offset
    ``(d*p1, d*p2)``, summed over the samples of a batch.
    """
    d_w = np.zeros_like(w.data)
    # one contiguous (T, pixels) copy keeps every tap's product on BLAS
    d_t_rows = np.ascontiguousarray(d_t.data.reshape(-1, w.out_channels).T)
    for k1, k2, rolled in _rolled_taps(x.data, w, skip_zero=False):
        d_w[k1, k2] = d_t_rows @ rolled.reshape(-1, w.in_channels)
    return d_w


def ar_spectra(
    ar: SeparableArKernel, height: int, width: int, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Per-channel half spectra of the embedded autoregressive kernels, ``(I1, I2//2+1, T)``.

    The kernel is ``outer(g, f)``, so its spectrum is ``G_hat[k1] * F_hat[k2]``:
    the length-``I1`` DFT of the embedded ``g`` taps times the length-``I2``
    real DFT of the embedded ``f`` taps.  The spectrum is guarded once, here:
    every entry magnitude is at least ``epsilon``, so both the forward solve
    and its adjoint may divide by it (or its conjugate) without checking
    again.  Raises :class:`armakit.numerics.SingularSpectrumError` otherwise.
    """
    out = np.empty((height, width // 2 + 1, ar.channels), dtype=np.complex128)
    for t in range(ar.channels):
        g = embed_taps(compose_1d(ar.g_filters[t])[:, None], height, 1)[:, 0]
        f = embed_taps(compose_1d(ar.f_filters[t])[None, :], 1, width)[0]
        out[:, :, t] = np.outer(np.fft.fft(g), np.fft.rfft(f))
    guard_spectrum(out, epsilon)
    return out


def _nonzero_halfwidth(taps: np.ndarray) -> int:
    # largest |offset| carrying a nonzero tap; identity factors contribute 0
    half = (taps.size - 1) // 2
    nonzero = np.flatnonzero(taps)
    if nonzero.size == 0:
        return 0
    return int(max(abs(nonzero.min() - half), abs(nonzero.max() - half)))


def ar_forward(
    t: FieldTensor, ar: SeparableArKernel, epsilon: float = DEFAULT_EPSILON
) -> Tuple[FieldTensor, LayerCache]:
    """Solve ``A[:,:,c] * Y[:,:,c] = T[:,:,c]`` per channel by spectral division.

    The materialized kernel footprint (nonzero tap extent per axis, so
    identity factors cost nothing) must fit the grid.  Returns the output
    together with a :class:`LayerCache` for the backward pass.  Raises
    :class:`armakit.numerics.SingularSpectrumError` for degenerate kernels
    (``epsilon`` is the guard :func:`ar_spectra` applies).  Kernels
    materialized from the re-parameterization can trigger it too, although
    :func:`armakit.filters.is_stable` passes them: a factor's spectrum
    falls to ``1 - tanh|beta|`` at frequency 0 or pi, below the default
    epsilon once ``|beta|`` exceeds about 9.56 (measured on an 8x8 field,
    e.g. ``beta = 9.7`` or ``10``).  See ROADMAP item I.
    """
    if t.channels != ar.channels:
        raise ValueError(
            f"field has {t.channels} channels but kernel has {ar.channels}"
        )
    for ch in range(ar.channels):
        g_half = _nonzero_halfwidth(compose_1d(ar.g_filters[ch]))
        f_half = _nonzero_halfwidth(compose_1d(ar.f_filters[ch]))
        if 2 * g_half >= t.height or 2 * f_half >= t.width:
            raise ValueError(
                f"autoregressive footprint ({2 * g_half + 1}, {2 * f_half + 1}) "
                f"of channel {ch} does not fit a {t.height}x{t.width} field"
            )
    a_hat = ar_spectra(ar, t.height, t.width, epsilon)
    y_hat = np.fft.rfft2(t.data, axes=(-3, -2))
    y_hat /= a_hat
    y = FieldTensor(_irfft2(y_hat, t))
    return y, LayerCache(ar=ar, ar_spectrum=a_hat, output_spectrum=y_hat, shape=t.data.shape)


def _irfft2(spectrum: np.ndarray, like: FieldTensor) -> np.ndarray:
    # the half spectrum cannot tell width I2 from I2 + 1; the field can
    return np.fft.irfft2(spectrum, s=(like.height, like.width), axes=(-3, -2))


def ar_backward(
    d_y: FieldTensor, cache: LayerCache
) -> Tuple[FieldTensor, np.ndarray, np.ndarray]:
    """Backward pass of :func:`ar_forward`.

    Returns ``(dT, dF, dG)``: the input gradient, and the gradients of every
    length-3 factor's taps at offsets (-1, 0, +1) for the kernel
    ``cache.ar``, arrays of shape ``(channels, depth, 3)`` summed over the
    samples of a batch.  In the frequency domain:

        dT_hat = dY_hat / conj(A_hat)
        dA_hat = -conj(Y_hat) * dY_hat / conj(A_hat)

    ``dA`` is the gradient w.r.t. the embedded kernel grid, which carries tap
    ``(p1, p2)`` at grid index ``(p1 % I1, p2 % I2)``.  Taps sit only at
    offsets ``|p1|, |p2| <= depth``, so ``dA`` is read there alone: a direct
    inverse DFT of those rows, then an ``irfft`` along each row.  It is then
    factored through the outer product (``dF[p2] = sum_p1 G[p1] * dA[p1, p2]``,
    symmetrically for ``dG``) and through the cascade (the gradient of one
    factor is the correlation of the composition gradient with the remaining
    factors' composition).
    """
    if d_y.data.shape != cache.shape:
        raise ValueError(
            f"gradient shape {d_y.data.shape} does not match the forward output {cache.shape}"
        )
    ar = cache.ar
    d_t_hat = np.fft.rfft2(d_y.data, axes=(-3, -2))
    d_t_hat /= np.conj(cache.ar_spectrum)  # guarded when ar_spectra built it
    # inverted first, while the spectrum is still cached: inverting it after
    # the tap reads below took twice as long on a (4, 64, 64, 4) field
    d_t = FieldTensor(_irfft2(d_t_hat, d_y))
    d_a_hat = -np.conj(cache.output_spectrum) * d_t_hat
    if d_a_hat.ndim == 4:
        d_a_hat = d_a_hat.sum(axis=0)
    offsets = np.arange(-ar.depth, ar.depth + 1)
    inverse_rows = np.exp(2j * np.pi * np.outer(offsets, np.arange(d_y.height)) / d_y.height)
    rows = np.tensordot(inverse_rows / d_y.height, d_a_hat, axes=(1, 0))
    # Hermitian along the columns: the spectrum of a real correlation
    d_a_taps = np.fft.irfft(rows, n=d_y.width, axis=1)[:, offsets % d_y.width]
    d_f = np.zeros((ar.channels, ar.depth, 3))
    d_g = np.zeros((ar.channels, ar.depth, 3))
    for t in range(ar.channels):
        # the composed kernel is outer(G, F): rows follow g, columns follow f
        d_f_comp = compose_1d(ar.g_filters[t]) @ d_a_taps[:, :, t]
        d_g_comp = d_a_taps[:, :, t] @ compose_1d(ar.f_filters[t])
        for q in range(ar.depth):
            d_f[t, q] = _factor_gradient(d_f_comp, ar.f_filters[t], q)
            d_g[t, q] = _factor_gradient(d_g_comp, ar.g_filters[t], q)
    return d_t, d_f, d_g


def _factor_gradient(d_composition: np.ndarray, factors: Sequence[Length3Filter], q: int):
    # d(c_1 * ... * c_Q)/d(c_q) correlates the composition gradient with the
    # convolution of the remaining factors, leaving exactly 3 taps.
    rest = [f for j, f in enumerate(factors) if j != q]
    if not rest:
        return d_composition.copy()
    rest_taps = compose_1d(rest)
    return np.correlate(d_composition, rest_taps, mode="valid")


def ar_forward_dense(t: FieldTensor, taps_per_channel: Sequence[np.ndarray]) -> FieldTensor:
    """Dense-solver oracle for :func:`ar_forward`.

    Assembles the full ``(I1*I2) x (I1*I2)`` circulant system per channel and
    solves it by LU decomposition with partial pivoting.  Quadratic memory and
    cubic time; guarded to grids of at most ``DENSE_SOLVE_LIMIT`` pixels.
    """
    n = t.height * t.width
    if n > DENSE_SOLVE_LIMIT:
        raise ValueError(f"grid has {n} pixels, dense solve limited to {DENSE_SOLVE_LIMIT}")
    if len(taps_per_channel) != t.channels:
        raise ValueError(
            f"{len(taps_per_channel)} kernels supplied for {t.channels} channels"
        )
    out = np.empty_like(t.data)
    for c, taps in enumerate(taps_per_channel):
        matrix = dense_circulant_matrix(taps, t.height, t.width)
        try:
            solution = np.linalg.solve(matrix, t.data[:, :, c].ravel())
        except np.linalg.LinAlgError as exc:
            raise SingularSpectrumError((0, 0, c), 0.0, 0.0) from exc
        out[:, :, c] = solution.reshape(t.height, t.width)
    return FieldTensor(out)


def dense_circulant_matrix(taps, height: int, width: int, dilation: int = 1) -> np.ndarray:
    """Assemble the matrix of a circular convolution on a ``height x width`` grid.

    Row ``(i1*W + i2)`` expresses
    ``sum_p taps[p1, p2] * y[(i1 - d*p1) % I1, (i2 - d*p2) % I2]``.
    """
    taps = np.asarray(taps, dtype=np.float64)
    half1 = (taps.shape[0] - 1) // 2
    half2 = (taps.shape[1] - 1) // 2
    n = height * width
    matrix = np.zeros((n, n))
    for i1 in range(height):
        for i2 in range(width):
            row = i1 * width + i2
            for k1 in range(taps.shape[0]):
                for k2 in range(taps.shape[1]):
                    j1 = (i1 - dilation * (k1 - half1)) % height
                    j2 = (i2 - dilation * (k2 - half2)) % width
                    matrix[row, j1 * width + j2] += taps[k1, k2]
    return matrix


def arma_forward(
    x: FieldTensor, params: ArmaLayerParams, epsilon: float = DEFAULT_EPSILON
) -> Tuple[FieldTensor, LayerCache]:
    """Full layer: moving-average convolution followed by the deconvolution."""
    t = ma_forward(x, params.ma)
    return ar_forward(t, params.ar, epsilon)


def arma_backward(
    d_y: FieldTensor, x: FieldTensor, params: ArmaLayerParams, cache: LayerCache
) -> Tuple[FieldTensor, np.ndarray, ArGradients]:
    """Backward pass of :func:`arma_forward`.

    Returns ``(dX, dW, dAlphaBeta)``: the input gradient, the moving-average
    kernel gradient, and the gradients of the unconstrained ``(alpha, beta)``
    parameters of every autoregressive factor.
    """
    if not params.ar.is_reparam:
        raise ValueError(
            "autoregressive kernel carries no (alpha, beta) parameters; "
            "use ar_backward for the taps of raw kernels"
        )
    if cache.ar is not params.ar:
        raise ValueError("cache was not built by arma_forward with these params")
    d_t, d_f, d_g = ar_backward(d_y, cache)
    d_w = ma_backward_kernel(d_t, x, params.ma)
    d_x = ma_backward_input(d_t, params.ma)
    return d_x, d_w, ar_reparam_gradients(params.ar, d_f, d_g)


def ar_reparam_gradients(
    ar: SeparableArKernel, d_f: np.ndarray, d_g: np.ndarray
) -> ArGradients:
    """Chain per-factor tap gradients through the re-parameterization.

    ``d_f``/``d_g`` are ``(channels, depth, 3)`` arrays of tap gradients; the
    center-tap component is dropped because ``f0`` is fixed.
    """
    if not ar.is_reparam:
        raise ValueError("kernel carries no (alpha, beta) parameters")
    t_channels, depth = ar.channels, ar.depth
    grads = ArGradients(
        alpha_f=np.zeros((t_channels, depth)),
        beta_f=np.zeros((t_channels, depth)),
        alpha_g=np.zeros((t_channels, depth)),
        beta_g=np.zeros((t_channels, depth)),
    )
    for t in range(t_channels):
        for q in range(depth):
            grads.alpha_f[t, q], grads.beta_f[t, q] = reparam_gradient(
                ar.f_params[t][q], (d_f[t, q, 0], d_f[t, q, 2])
            )
            grads.alpha_g[t, q], grads.beta_g[t, q] = reparam_gradient(
                ar.g_params[t][q], (d_g[t, q, 0], d_g[t, q, 2])
            )
    return grads

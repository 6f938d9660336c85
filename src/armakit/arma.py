"""The ARMA layer: moving-average forward/backward, autoregressive solve by
frequency-domain division, its analytic backward pass, and a dense solver
used as a small-instance oracle.

A layer with moving-average kernel ``W`` and per-channel autoregressive
kernel ``A`` maps an input field ``X`` to the output ``Y`` satisfying

    A[:, :, t] * Y[:, :, t] = sum_s W[:, :, t, s] * X[:, :, s]

with ``*`` denoting circular convolution.  Every convolution is diagonal in
the frequency domain, so the layer is one fused spectral solve:

    Y_hat[k, t] = sum_s W_hat[k, t, s] * X_hat[k, s] / A_hat[k, t]

one ``rfft2`` of the input, a ``(T x S)`` product per frequency, the
division and one ``irfft2``.  Every field is real, so every spectrum is a
half spectrum ``(I1, I2//2 + 1, C)``.  ``W_hat`` is built from two small
phase matrices, ``I1 x K1`` and ``(I2//2+1) x K2``, at the dilated tap
offsets ``d*p``.  The kernel ``A = outer(g, f)`` is separable, so its
spectrum is the outer product of two 1D DFTs.  Neither needs a 2D
transform.  Fields may carry a leading sample axis ``(N, I1, I2, C)``; the
kernels and spectra are shared by all samples, so kernel gradients sum over
the batch.

The backward pass is the spectral adjoint.  With ``dY`` the incoming
gradient, ``dT_hat = dY_hat / conj(A_hat)`` stays in the frequency domain,
``dX_hat = W_hat^H . dT_hat`` is inverted by one ``irfft2``, and both
kernel gradients are batch-summed cross spectra read only at the kernel's
tap offsets by one primitive: ``dT_hat . conj(X_hat)`` gives ``dW`` and
``-conj(Y_hat) . dT_hat`` gives ``dA``.  Each read is a small inverse DFT
over the offset rows, then an ``irfft`` at the offset columns.
Correctness of every gradient here is pinned by finite differences in the
test suite rather than by the algebra alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .filters import SeparableArKernel, compose_1d, reparam_gradient
from .numerics import (
    DEFAULT_EPSILON,
    FieldTensor,
    MaKernel,
    SingularSpectrumError,
    _check_footprint,
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
    (anything built through the re-parameterization qualifies).  A refusal
    names the first unstable factor.
    """

    ma: MaKernel
    ar: SeparableArKernel

    def __post_init__(self):
        if self.ma.out_channels != self.ar.channels:
            raise ValueError(
                f"kernel channel mismatch: moving-average has {self.ma.out_channels} "
                f"output channels, autoregressive has {self.ar.channels}"
            )
        unstable = self.ar.unstable_factor()
        if unstable is not None:
            raise ValueError(f"autoregressive {unstable} violates |fm1 + fp1| < f0")

    @property
    def in_channels(self) -> int:
        return self.ma.in_channels

    @property
    def out_channels(self) -> int:
        return self.ma.out_channels


@dataclass(eq=False)
class LayerCache:
    """Forward-pass quantities reused by the backward pass."""

    ma: MaKernel  # the kernels the forward pass solved with
    ar: SeparableArKernel
    input_spectrum: np.ndarray  # ([N,] I1, I2//2+1, S) complex, half X_hat
    ar_spectrum: np.ndarray  # (I1, I2//2+1, T) complex, per-channel half A_hat
    output_spectrum: np.ndarray  # ([N,] I1, I2//2+1, T) complex, half Y_hat
    shape: Tuple[int, ...]  # ([N,] I1, I2, T), the forward output's shape


@dataclass(eq=False)
class ArGradients:
    """Gradients of the unconstrained autoregressive parameters.

    Arrays of shape ``(channels, depth)``, one entry per cascade factor.
    """

    alpha_f: np.ndarray
    beta_f: np.ndarray
    alpha_g: np.ndarray
    beta_g: np.ndarray


def _phases(count: int, offsets: np.ndarray, n: int) -> np.ndarray:
    """``exp(-2 pi i k m / n)`` for frequencies ``k < count`` (rows) and grid
    offsets ``m`` (columns), with ``k*m`` reduced mod ``n`` in integers first."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(count), offsets) % n) / n)


def _dilated_offsets(w: MaKernel) -> Tuple[np.ndarray, np.ndarray]:
    # tap k of an axis with K taps sits at offset d * (k - (K-1)//2)
    return tuple(
        w.dilation * (np.arange(taps) - (taps - 1) // 2) for taps in (w.tap_height, w.tap_width)
    )


def _ma_spectrum(w: MaKernel, height: int, width: int, adjoint: bool = False) -> np.ndarray:
    """Half spectrum of the embedded kernel, ``(I1, I2//2+1, T, S)``.

    ``W_hat[k1, k2] = sum_p E1[k1, p1] * E2[k2, p2] * W[p1, p2]`` with the
    phase matrices ``E1`` (``I1 x K1``) and ``E2`` (``(I2//2+1) x K2``) taken
    at the dilated offsets ``d*p``.  With ``adjoint`` it is the conjugate
    transpose ``W_hat^H``, ``(I1, I2//2+1, S, T)``: the spectrum of the
    reversed kernel with its channel roles swapped.
    """
    rows, cols = _dilated_offsets(w)
    e1, e2 = _phases(height, rows, height), _phases(width // 2 + 1, cols, width)
    taps = w.data
    if adjoint:
        e1, e2, taps = e1.conj(), e2.conj(), taps.transpose(0, 1, 3, 2)
    return np.tensordot(e1, np.tensordot(e2, taps, axes=(1, 1)), axes=(1, 1))


def _ma_product(field_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
    # one (out x in) matrix per frequency; einsum beat stacked matmul on the
    # 1->4 and 4->1 channel shapes, and lost by about 20% at 16->16
    return np.einsum("...ijs,ijts->...ijt", field_hat, w_hat)


def _read_taps(cross_hat: np.ndarray, rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """A real circular cross-correlation read only at the grid offsets ``rows x cols``.

    ``cross_hat`` is its half spectrum ``(I1, I2//2+1, ...)``.  The offset
    rows come from a direct inverse DFT over the ``I1`` frequencies; each is
    the spectrum of a real row, so one ``irfft`` per row gives its columns.
    Returns ``(len(rows), len(cols), ...)``.
    """
    height = cross_hat.shape[0]
    inverse_rows = _phases(height, rows, height).conj().T / height
    read = np.tensordot(inverse_rows, cross_hat, axes=(1, 0))
    return np.fft.irfft(read, n=width, axis=1)[:, cols % width]


def _samples(spectrum: np.ndarray) -> np.ndarray:
    # a view with a leading sample axis, of length 1 for a single field
    return spectrum.reshape((-1,) + spectrum.shape[-3:])


def _check_ma(x: FieldTensor, w: MaKernel) -> None:
    if x.channels != w.in_channels:
        raise ValueError(
            f"input has {x.channels} channels but kernel expects {w.in_channels}"
        )
    _check_footprint(w.tap_height, w.tap_width, x.height, x.width, w.dilation)


def _rfft2(field: FieldTensor) -> np.ndarray:
    return np.fft.rfft2(field.data, axes=(-3, -2))


def _irfft2(spectrum: np.ndarray, height: int, width: int) -> FieldTensor:
    # the half spectrum cannot tell width I2 from I2 + 1; the field can
    return FieldTensor(np.fft.irfft2(spectrum, s=(height, width), axes=(-3, -2)))


def ma_forward(x: FieldTensor, w: MaKernel) -> FieldTensor:
    """Multi-channel circular convolution ``T[:,:,t] = sum_s W[:,:,t,s] * X[:,:,s]``.

    Kernel offsets are scaled by ``w.dilation``.  Computed as
    ``T_hat = W_hat . X_hat``, one ``(T x S)`` product per frequency.
    """
    _check_ma(x, w)
    w_hat = _ma_spectrum(w, x.height, x.width)
    return _irfft2(_ma_product(_rfft2(x), w_hat), x.height, x.width)


def ar_spectra(
    ar: SeparableArKernel, height: int, width: int, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Per-channel half spectra of the embedded autoregressive kernels, ``(I1, I2//2+1, T)``.

    The kernel is ``outer(g, f)``, so its spectrum is ``G_hat[k1] * F_hat[k2]``:
    the length-``I1`` DFT of the composed ``g`` taps times the length-``I2``
    real DFT of the composed ``f`` taps, each a product with the phase
    matrix at the tap offsets ``-Q..Q`` (wrapped, as on the grid).  The
    spectrum is guarded once, here:
    every entry magnitude is at least ``epsilon``, so both the forward solve
    and its adjoint may divide by it (or its conjugate) without checking
    again.  Raises :class:`armakit.numerics.SingularSpectrumError` otherwise.
    Kernels materialized from the re-parameterization can trigger it too,
    although :func:`armakit.filters.is_stable` passes them: a factor's
    spectrum falls to ``1 - tanh|beta|`` at frequency 0 or pi, below the
    default epsilon once ``|beta|`` exceeds about 9.56 (measured on an 8x8
    field, e.g. ``beta = 9.7`` or ``10``).  See ROADMAP item I.
    """
    offsets = np.arange(-ar.depth, ar.depth + 1)
    g_hat = _phases(height, offsets, height) @ compose_1d(ar.g_filters).T
    f_hat = _phases(width // 2 + 1, offsets, width) @ compose_1d(ar.f_filters).T
    out = g_hat[:, None, :] * f_hat[None, :, :]
    guard_spectrum(out, epsilon)
    return out


def layer_forward(
    x: FieldTensor, ma: MaKernel, ar: SeparableArKernel, epsilon: float = DEFAULT_EPSILON
) -> Tuple[FieldTensor, LayerCache]:
    """The spectral core of every forward solve: ``Y_hat = (W_hat . X_hat) / A_hat``.

    One ``rfft2`` of the input, one ``(T x S)`` product per frequency with
    the moving-average spectrum, the per-channel division by ``A_hat`` and
    one ``irfft2``.  The autoregressive stage alone is the layer with a 1x1
    identity moving-average kernel, ``MaKernel(np.eye(T)[None, None])``.
    Checks shapes and footprints (identity factors widen none) but not the
    stability of ``ar``'s factors, so the trainer's raw mode can run
    unstable ones.  Raises :class:`armakit.numerics.SingularSpectrumError`
    as :func:`ar_spectra` does.
    """
    _check_ma(x, ma)
    if ma.out_channels != ar.channels:
        raise ValueError(
            f"moving-average kernel produces {ma.out_channels} channels "
            f"but autoregressive kernel has {ar.channels}"
        )
    # per channel, the largest |offset| of a nonzero composed tap (identity factors add none)
    offsets = np.abs(np.arange(-ar.depth, ar.depth + 1))
    g_half, f_half = (
        np.max(np.where(compose_1d(taps) != 0, offsets, 0), axis=-1)
        for taps in (ar.g_filters, ar.f_filters)
    )
    too_wide = (2 * g_half >= x.height) | (2 * f_half >= x.width)
    if too_wide.any():
        ch = int(np.argmax(too_wide))
        raise ValueError(
            f"autoregressive footprint ({2 * g_half[ch] + 1}, {2 * f_half[ch] + 1}) "
            f"of channel {ch} does not fit a {x.height}x{x.width} field"
        )
    a_hat = ar_spectra(ar, x.height, x.width, epsilon)
    x_hat = _rfft2(x)
    y_hat = _ma_product(x_hat, _ma_spectrum(ma, x.height, x.width))
    y_hat /= a_hat
    shape = x.data.shape[:-1] + (ar.channels,)
    cache = LayerCache(ma=ma, ar=ar, input_spectrum=x_hat, ar_spectrum=a_hat,
                       output_spectrum=y_hat, shape=shape)
    return _irfft2(y_hat, x.height, x.width), cache


def layer_backward(
    d_y: FieldTensor, cache: LayerCache, input_gradient: bool = True
) -> Tuple[Optional[FieldTensor], np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`layer_forward`.

    Returns ``(dX, dW, dF, dG)``: the input gradient (``None`` unless
    ``input_gradient``), the moving-average kernel gradient, and the
    gradients of every length-3 factor's taps at offsets (-1, 0, +1), arrays
    of shape ``(channels, depth, 3)``; kernel gradients sum over the samples
    of a batch.  In the frequency domain:

        dT_hat = dY_hat / conj(A_hat)
        dX_hat = W_hat^H . dT_hat
        dA_hat = -conj(Y_hat) . dT_hat

    ``dT_hat`` never leaves the frequency domain: ``dX_hat`` is inverted by
    one ``irfft2``, and ``dW`` and ``dA`` are the batch-summed cross spectra
    ``dT_hat . conj(X_hat)`` (from the forward's input spectrum) and
    ``dA_hat``, read only at the kernels' tap offsets.  ``dA`` is then
    chained through the outer product and the cascade to the factor taps.
    """
    if d_y.data.shape != cache.shape:
        raise ValueError(
            f"gradient shape {d_y.data.shape} does not match the forward output {cache.shape}"
        )
    ma, ar = cache.ma, cache.ar
    height, width = d_y.height, d_y.width
    d_t_hat = _rfft2(d_y)
    d_t_hat /= np.conj(cache.ar_spectrum)  # guarded when ar_spectra built it
    # spectra are dropped once read, so that at most one cross spectrum is alive
    offsets = np.arange(-ar.depth, ar.depth + 1)
    d_a_taps = -_read_taps(
        np.einsum("nijt,nijt->ijt", _samples(np.conj(cache.output_spectrum)), _samples(d_t_hat)),
        offsets, offsets, width,
    )
    # the composed kernel is outer(G, F): rows follow g, columns follow f;
    # f and g are stacked on a leading axis from here on
    factors = np.stack([ar.f_filters, ar.g_filters])
    f_comp, g_comp = compose_1d(factors)
    d_comp = np.stack([np.einsum("tp,pqt->tq", g_comp, d_a_taps),
                       np.einsum("pqt,tq->tp", d_a_taps, f_comp)])
    # d(c_1 * ... * c_Q)/d(c_q) correlates the composition gradient with the
    # convolution of the other factors, leaving exactly 3 taps
    windows = d_comp[..., np.arange(3)[:, None] + np.arange(2 * ar.depth - 1)]
    d_factors = np.empty(factors.shape)
    for q in range(ar.depth):
        rest = (compose_1d(np.delete(factors, q, axis=-2)) if ar.depth > 1
                else np.ones(factors.shape[:-2] + (1,)))
        d_factors[..., q, :] = np.einsum("...jk,...k->...j", windows, rest)
    d_x = None
    if input_gradient:
        w_hat = _ma_spectrum(ma, height, width, adjoint=True)
        d_x = _irfft2(_ma_product(d_t_hat, w_hat), height, width)
        del w_hat
    # dW[p, t, s] is the cross spectrum dT_hat . conj(X_hat), read one input
    # channel at a time, which keeps it at the size of dT_hat
    rows, cols = _dilated_offsets(ma)
    x_hat = _samples(cache.input_spectrum)
    d_w = np.empty_like(ma.data)
    for s in range(ma.in_channels):
        cross = np.einsum("nijt,nij->ijt", _samples(d_t_hat), np.conj(x_hat[..., s]))
        d_w[:, :, :, s] = _read_taps(cross, rows, cols, width)
    return d_x, d_w, d_factors[0], d_factors[1]


def ar_forward_dense(t: FieldTensor, taps_per_channel: Sequence[np.ndarray]) -> FieldTensor:
    """Dense-solver oracle for the autoregressive stage of :func:`layer_forward`.

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
    """Full layer: moving-average convolution followed by the deconvolution,
    fused into one spectral solve (:func:`layer_forward`)."""
    return layer_forward(x, params.ma, params.ar, epsilon)


def arma_backward(
    d_y: FieldTensor, x: FieldTensor, params: ArmaLayerParams, cache: LayerCache
) -> Tuple[FieldTensor, np.ndarray, ArGradients]:
    """Backward pass of :func:`arma_forward`.

    Returns ``(dX, dW, dAlphaBeta)``: the input gradient, the moving-average
    kernel gradient, and the gradients of the unconstrained ``(alpha, beta)``
    parameters of every autoregressive factor.  ``dW`` comes from the
    forward's input, whose spectrum ``cache`` holds, so ``x`` must have the
    forward input's shape.
    """
    if not params.ar.is_reparam:
        raise ValueError(
            "autoregressive kernel carries no (alpha, beta) parameters; "
            "use layer_backward for the taps of raw kernels"
        )
    if cache.ar is not params.ar or cache.ma is not params.ma:
        raise ValueError("cache was not built by arma_forward with these params")
    forward_shape = cache.shape[:-1] + (params.in_channels,)
    if x.data.shape != forward_shape:
        raise ValueError(
            f"input shape {x.data.shape} differs from the forward input's shape {forward_shape}"
        )
    d_x, d_w, d_f, d_g = layer_backward(d_y, cache)
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
    return ArGradients(
        *reparam_gradient(ar.f_params, d_f[..., ::2]),
        *reparam_gradient(ar.g_params, d_g[..., ::2]),
    )

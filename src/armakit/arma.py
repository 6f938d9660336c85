"""The ARMA layer: one spectral solve of the moving-average convolution and
the autoregressive deconvolution, its analytic backward pass, and a dense
solver used as a small-instance oracle.

A layer with moving-average kernel ``W`` and per-channel autoregressive
kernel ``A`` maps an input field ``X`` to the output ``Y`` satisfying

    A[:, :, t] * Y[:, :, t] = sum_s W[:, :, t, s] * X[:, :, s]

with ``*`` denoting circular convolution.  Every convolution is diagonal in
the frequency domain, and the kernel ``A = outer(g, f)`` is separable, so its
spectrum is ``A_hat[k1, k2, t] = G_hat[k1, t] * F_hat[k2, t]`` and the layer
is one spectral solve:

    Y_hat[k, t] = (sum_s W_hat[k, t, s] * X_hat[k, s]) / G_hat[k1, t] / F_hat[k2, t]

a ``(T x S)`` product per frequency, then a scaling by ``1/G_hat`` along the
rows and by ``1/F_hat`` along the columns.  ``A_hat`` itself is never
formed, and the singularity guard reads its margin off the two 1D spectra in
``O(I1 + I2)`` per channel.  Every field is real, so every field spectrum is
a half spectrum ``(I1, I2//2 + 1, C)``.  ``W_hat`` is built from two small
phase matrices, ``I1 x K1`` and ``(I2//2+1) x K2``, at the dilated tap
offsets ``d*p``; ``G_hat`` and ``F_hat`` from the same phase matrices at the
offsets ``-Q..Q`` of the composed ``g`` and ``f`` taps.  None needs a 2D
transform.  Fields may carry a leading sample axis ``(N, I1, I2, C)``; the
kernels and spectra are shared by all samples, so kernel gradients sum over
the batch.

The backward pass is the spectral adjoint.  With ``dY_hat`` the incoming
gradient's spectrum, ``dT_hat = dY_hat / conj(G_hat) / conj(F_hat)``, again
by broadcasting the 1D spectra, the input gradient's spectrum is ``dX_hat =
W_hat^H . dT_hat``, and both kernel gradients are batch-summed cross spectra
read only at the kernel's tap offsets by one primitive: ``dT_hat .
conj(X_hat)`` gives ``dW`` and ``-conj(Y_hat) . dT_hat`` gives ``dA``.  Each
read is a small inverse DFT over the offset rows, then an ``irfft`` at the
offset columns.

The layer is linear, so this core takes spectra in and gives spectra out
(:func:`spectral_forward`, :func:`spectral_backward`): one layer's output
spectrum is the next one's input spectrum, and a stack of layers needs no 2D
transform between them.  :func:`layer_forward` and :func:`layer_backward`
are the same core between field edges, one ``rfft2`` in and one ``irfft2``
out.  Either stage alone is the layer with the other stage's identity
kernel.  Correctness of every gradient here is pinned by finite differences in
the test suite rather than by the algebra alone.
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


@dataclass(eq=False)
class LayerCache:
    """Forward-pass quantities reused by the backward pass."""

    ma: MaKernel  # the kernels the forward pass solved with
    ar: SeparableArKernel
    input_spectrum: np.ndarray  # ([N,] I1, I2//2+1, S) complex, half X_hat
    ar_spectra: Tuple[np.ndarray, np.ndarray]  # G_hat (I1, T) and F_hat (I2//2+1, T), complex
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


def _check_ma(shape: Tuple[int, ...], w: MaKernel) -> None:
    # shape is the input field's, ([N,] I1, I2, S)
    if shape[-1] != w.in_channels:
        raise ValueError(
            f"input has {shape[-1]} channels but kernel expects {w.in_channels}"
        )
    _check_footprint(w.tap_height, w.tap_width, shape[-3], shape[-2], w.dilation)


def _half_shape(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    # the half spectrum's shape of a real field of this shape
    return shape[:-2] + (shape[-2] // 2 + 1, shape[-1])


def _rfft2(field: FieldTensor) -> np.ndarray:
    # with out=, the second axis is transformed in place, not into a new array
    out = np.empty(_half_shape(field.data.shape), dtype=np.complex128)
    return np.fft.rfft2(field.data, axes=(-3, -2), out=out)


def _irfft2(spectrum: np.ndarray, height: int, width: int) -> FieldTensor:
    # the half spectrum cannot tell width I2 from I2 + 1; the field can
    return FieldTensor(np.fft.irfft2(spectrum, s=(height, width), axes=(-3, -2)))


def ar_spectra(ar: SeparableArKernel, height: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The two 1D spectra of the embedded autoregressive kernels, ``(G_hat, F_hat)``.

    The kernel is ``outer(g, f)``, so its half spectrum is ``A_hat[k1, k2, t]
    = G_hat[k1, t] * F_hat[k2, t]``: ``G_hat`` ``(I1, T)`` is the length-``I1``
    DFT of the composed ``g`` taps and ``F_hat`` ``(I2//2+1, T)`` the
    length-``I2`` real DFT of the composed ``f`` taps, each a product with the
    phase matrix at the tap offsets ``-Q..Q`` (wrapped, as on the grid).
    ``A_hat`` is not formed.  The spectrum is guarded once, here: every
    entry magnitude ``|G_hat[k1]| * |F_hat[k2]|`` is at least
    ``DEFAULT_EPSILON`` (read from this module at call time), so both the
    forward solve and its adjoint may divide by the two spectra (or their
    conjugates) without checking again.  The check
    takes each channel's margin ``min|G_hat| * min|F_hat|``, ``O(I1 +
    I2)``.  Only when a margin is not above the threshold by a relative
    ``1e-12`` is the 2D magnitude built and checked, so that
    :class:`armakit.numerics.SingularSpectrumError` names the first
    ``(k1, k2, t)`` index below the threshold and its magnitude, as a check
    of the full product would.  Kernels materialized from the
    re-parameterization can trigger it too, although
    :func:`armakit.filters.is_stable` passes them: a factor's spectrum falls
    to ``1 - tanh|beta|`` at frequency 0 or pi, below the threshold once
    ``|beta|`` exceeds about 9.56 (measured on an 8x8 field, e.g. ``beta =
    9.7`` or ``10``).  See ROADMAP item I.
    """
    offsets = np.arange(-ar.depth, ar.depth + 1)
    g_hat = _phases(height, offsets, height) @ compose_1d(ar.g_filters).T
    f_hat = _phases(width // 2 + 1, offsets, width) @ compose_1d(ar.f_filters).T
    # |g * f| and |g| * |f| differ by a few ulps; the slack covers them, and
    # a margin it cannot prove (NaN included) is judged on the product itself
    margin = np.abs(g_hat).min(axis=0) * np.abs(f_hat).min(axis=0)
    if not np.all(margin >= DEFAULT_EPSILON * (1.0 + 1e-12)):
        guard_spectrum(g_hat[:, None, :] * f_hat[None, :, :], DEFAULT_EPSILON)
    return g_hat, f_hat


def spectral_forward(
    x_hat: np.ndarray,
    shape: Tuple[int, ...],
    ma: MaKernel,
    ar: SeparableArKernel,
) -> Tuple[np.ndarray, LayerCache]:
    """The spectral core of every forward solve: ``Y_hat = (W_hat . X_hat) / G_hat / F_hat``.

    ``x_hat`` is the half spectrum ``([N,] I1, I2//2+1, S)`` of a real input
    field of shape ``shape``, ``([N,] I1, I2, S)``; the width is needed
    because the half spectrum cannot tell ``I2`` from ``I2 + 1``.  One
    ``(T x S)`` product per frequency with the moving-average spectrum,
    then per channel the scaling by ``1/G_hat`` along the rows and by
    ``1/F_hat`` along the columns (:func:`ar_spectra`).  Returns the output
    half spectrum and the cache, whose ``shape`` is the output field's.  The
    autoregressive stage alone is the layer with a 1x1 identity
    moving-average kernel, ``MaKernel(np.eye(T)[None, None])``, and the
    moving-average stage alone the layer with
    ``SeparableArKernel.identity(T)``, whose spectra are exactly 1.  Checks
    shapes and footprints (identity factors widen none) but not the
    stability of ``ar``'s factors, so the trainer's raw mode can run
    unstable ones.  Raises :class:`armakit.numerics.SingularSpectrumError`
    as :func:`ar_spectra` does.
    """
    shape = tuple(shape)
    if x_hat.shape != _half_shape(shape):
        raise ValueError(
            f"spectrum shape {x_hat.shape} is not the half spectrum of a {shape} field"
        )
    _check_ma(shape, ma)
    if ma.out_channels != ar.channels:
        raise ValueError(
            f"moving-average kernel produces {ma.out_channels} channels "
            f"but autoregressive kernel has {ar.channels}"
        )
    height, width = shape[-3:-1]
    # per channel, the largest |offset| of a nonzero composed tap (identity factors add none)
    offsets = np.abs(np.arange(-ar.depth, ar.depth + 1))
    g_half, f_half = (
        np.max(np.where(compose_1d(taps) != 0, offsets, 0), axis=-1)
        for taps in (ar.g_filters, ar.f_filters)
    )
    too_wide = (2 * g_half >= height) | (2 * f_half >= width)
    if too_wide.any():
        ch = int(np.argmax(too_wide))
        raise ValueError(
            f"autoregressive footprint ({2 * g_half[ch] + 1}, {2 * f_half[ch] + 1}) "
            f"of channel {ch} does not fit a {height}x{width} field"
        )
    g_hat, f_hat = ar_spectra(ar, height, width)
    y_hat = _ma_product(x_hat, _ma_spectrum(ma, height, width))
    y_hat *= (1.0 / g_hat)[:, None, :]
    y_hat *= 1.0 / f_hat
    cache = LayerCache(ma=ma, ar=ar, input_spectrum=x_hat, ar_spectra=(g_hat, f_hat),
                       output_spectrum=y_hat, shape=shape[:-1] + (ar.channels,))
    return y_hat, cache


def spectral_backward(
    d_y_hat: np.ndarray, cache: LayerCache, input_gradient: bool = True
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`spectral_forward`, spectrum in and spectrum out.

    ``d_y_hat`` is the half spectrum of the gradient with respect to the
    forward output.  Returns ``(dX_hat, dW, dF, dG)``: the half spectrum of
    the input gradient (``None`` unless ``input_gradient``), the
    moving-average kernel gradient, and the gradients of every length-3
    factor's taps at offsets (-1, 0, +1), arrays of shape
    ``(channels, depth, 3)``; kernel gradients sum over the samples of a
    batch.  In the frequency domain:

        dT_hat = dY_hat / conj(G_hat) / conj(F_hat)
        dX_hat = W_hat^H . dT_hat
        dA_hat = -conj(Y_hat) . dT_hat

    ``dW`` and ``dA`` are the batch-summed cross spectra ``dT_hat .
    conj(X_hat)`` (from the forward's input spectrum) and ``dA_hat``, read
    only at the kernels' tap offsets.  ``dA`` is then chained through the
    outer product and the cascade to the factor taps.
    """
    if d_y_hat.shape != _half_shape(cache.shape):
        raise ValueError(
            f"gradient spectrum shape {d_y_hat.shape} does not match the forward "
            f"output's half spectrum {_half_shape(cache.shape)}"
        )
    ma, ar = cache.ma, cache.ar
    height, width = cache.shape[-3:-1]
    # guarded when ar_spectra built them
    g_hat, f_hat = cache.ar_spectra
    d_t_hat = d_y_hat * np.conj(1.0 / g_hat)[:, None, :]
    d_t_hat *= np.conj(1.0 / f_hat)
    # spectra are dropped once read, so that at most one cross spectrum is
    # alive; dY_hat too, when the caller keeps no reference (the field edge)
    del d_y_hat
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
    d_x_hat = None
    if input_gradient:
        d_x_hat = _ma_product(d_t_hat, _ma_spectrum(ma, height, width, adjoint=True))
    # dW[p, t, s] is the cross spectrum dT_hat . conj(X_hat), read one input
    # channel at a time, which keeps it at the size of dT_hat
    rows, cols = _dilated_offsets(ma)
    x_hat = _samples(cache.input_spectrum)
    d_w = np.empty_like(ma.data)
    for s in range(ma.in_channels):
        cross = np.einsum("nijt,nij->ijt", _samples(d_t_hat), np.conj(x_hat[..., s]))
        d_w[:, :, :, s] = _read_taps(cross, rows, cols, width)
    return d_x_hat, d_w, d_factors[0], d_factors[1]


def layer_forward(
    x: FieldTensor, ma: MaKernel, ar: SeparableArKernel
) -> Tuple[FieldTensor, LayerCache]:
    """:func:`spectral_forward` on a field: one ``rfft2`` of ``x`` in, one
    ``irfft2`` of ``Y_hat`` out.  Returns the output field and the cache."""
    y_hat, cache = spectral_forward(_rfft2(x), x.data.shape, ma, ar)
    return _irfft2(y_hat, x.height, x.width), cache


def layer_backward(
    d_y: FieldTensor, cache: LayerCache
) -> Tuple[FieldTensor, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`spectral_backward` on a field: one ``rfft2`` of ``dY`` in, one
    ``irfft2`` of ``dX_hat`` out.

    Returns ``(dX, dW, dF, dG)``: the input gradient, the moving-average
    kernel gradient, and the ``(channels, depth, 3)`` gradients of every
    length-3 factor's taps.
    """
    # checked on the field: widths I2 and I2 + 1 share one half spectrum
    if d_y.data.shape != cache.shape:
        raise ValueError(
            f"gradient shape {d_y.data.shape} does not match the forward output {cache.shape}"
        )
    d_x_hat, d_w, d_f, d_g = spectral_backward(_rfft2(d_y), cache)
    return _irfft2(d_x_hat, d_y.height, d_y.width), d_w, d_f, d_g


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


def arma_forward(x: FieldTensor, params: ArmaLayerParams) -> Tuple[FieldTensor, LayerCache]:
    """Full layer: moving-average convolution followed by the deconvolution,
    fused into one spectral solve (:func:`layer_forward`)."""
    return layer_forward(x, params.ma, params.ar)


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
    # the center tap f0 is fixed, so only (fm1, fp1) chain to (alpha, beta)
    d_f = reparam_gradient(params.ar.f_params, d_f[..., ::2])
    d_g = reparam_gradient(params.ar.g_params, d_g[..., ::2])
    return d_x, d_w, ArGradients(d_f[..., 0], d_f[..., 1], d_g[..., 0], d_g[..., 1])

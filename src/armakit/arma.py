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
formed: the singularity guard reads the least and largest entry magnitude of
each channel exactly off the two 1D spectra, in ``O(I1 + I2)``, and builds
the 2D magnitude only to name the entry it refuses.  Every field is real, so
every field spectrum is a half spectrum ``(I1, I2//2 + 1, C)``.  ``W_hat``,
``G_hat`` and ``F_hat`` are built from small phase matrices (``I1 x K`` and
``(I2//2+1) x K``), at the dilated tap offsets ``d*p`` of ``W`` and at the
offsets ``-Q..Q`` of the composed ``g`` and ``f`` taps; none needs a 2D
transform.  Fields may carry a leading sample axis ``(N, I1, I2, C)``; the
kernels and spectra are shared by all samples, so kernel gradients sum over
the batch.

The backward pass is the spectral adjoint.  With ``dY_hat`` the incoming
gradient's spectrum, ``dT_hat = dY_hat / conj(G_hat) / conj(F_hat)`` takes
its place (both callers, the field edge and the trainer, give it up), the
input gradient's spectrum is ``dX_hat = W_hat^H . dT_hat``, and both kernel
gradients are cross spectra, formed elementwise one sample at a time:
``dT_hat . conj(X_hat)`` gives ``dW`` and ``-conj(Y_hat) . dT_hat`` gives
``dA``.  Each is read only at the kernel's tap offsets by the adjoint of the
``W_hat`` build, two products with the conjugate phase matrices and no
inverse transform; the reads sum over a batch.  A layer's factor-tap
gradients are one array in the layout of the kernel's ``taps``.

The layer is linear, so this core takes spectra in and gives spectra out
(:func:`spectral_forward` and its adjoint): one layer's output
spectrum is the next one's input spectrum, and a stack of layers needs no 2D
transform between them.  :func:`layer_forward` and :func:`layer_backward`
are the same core between field edges, one ``rfft2`` in and one ``irfft2``
out.  Either stage alone is the layer with the other stage's identity
kernel.  Correctness of every gradient here is pinned by finite differences in
the test suite rather than by the algebra alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .filters import SeparableArKernel, compose_1d, reparam_gradient
from .numerics import DEFAULT_EPSILON, FieldTensor, MaKernel, SingularSpectrumError

#: Largest grid (I1*I2) the dense oracle will assemble; beyond this the
#: quadratic-size matrix is an accident, not a test.
DENSE_SOLVE_LIMIT = 4096


@dataclass(eq=False)
class ArmaLayerParams:
    """Validated parameter bundle for one ARMA layer.

    Requires an autoregressive kernel built from ``(alpha, beta)`` parameters,
    whose every factor is stable by construction.
    """

    ma: MaKernel
    ar: SeparableArKernel

    def __post_init__(self):
        if self.ar.params is None:
            raise ValueError(
                "autoregressive kernel carries no (alpha, beta) parameters; "
                "use layer_forward/layer_backward for raw kernels"
            )


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


@functools.lru_cache(maxsize=32)
def _phases(count: int, offsets: Tuple[int, ...], n: int) -> np.ndarray:
    """``exp(-2 pi i k m / n)`` for frequencies ``k < count`` (rows) and grid
    offsets ``m`` (columns), with ``k*m`` reduced mod ``n`` in integers first.

    The matrices depend only on the grid, so they are memoized (a training
    step asks for the same two or three over and over) and returned read-only.
    """
    phases = np.exp(-2j * np.pi * (np.outer(np.arange(count), offsets) % n) / n)
    phases.flags.writeable = False
    return phases


@functools.lru_cache(maxsize=32)
def _inverse_phases(count: int, offsets: Tuple[int, ...], n: int) -> np.ndarray:
    """``conj(_phases(count, offsets, n)).T / n``, memoized and read-only, row
    ``k`` weighted by the frequencies it stands for: itself, and ``-k mod n``
    when the rows lack it (a half spectrum's 1 at DC and Nyquist, 2 elsewhere)."""
    weights = 1 + (-np.arange(count) % n >= count)
    inverse = _phases(count, offsets, n).conj().T * (weights / n)
    inverse.flags.writeable = False
    return inverse


def _dilated_offsets(w: MaKernel) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    # tap k of an axis with K taps sits at offset d * (k - (K-1)//2)
    return tuple(
        tuple(w.dilation * (k - (taps - 1) // 2) for k in range(taps))
        for taps in (w.tap_height, w.tap_width)
    )


def _ma_spectrum(w: MaKernel, height: int, width: int, adjoint: bool = False) -> np.ndarray:
    """Half spectrum of the embedded kernel, ``(I1, I2//2+1, T, S)``.

    ``W_hat[k1, k2] = sum_p E1[k1, p1] * E2[k2, p2] * W[p1, p2]`` with the
    phase matrices ``E1`` (``I1 x K1``) and ``E2`` (``(I2//2+1) x K2``) taken
    at the dilated offsets ``d*p``: two ``@`` products, ``E2`` on each tap
    row, then ``E1`` on all of them at once.  With ``adjoint`` it is the
    conjugate transpose ``W_hat^H``, ``(I1, I2//2+1, S, T)``: the spectrum of
    the reversed kernel with its channel roles swapped.
    """
    rows, cols = _dilated_offsets(w)
    e1, e2 = _phases(height, rows, height), _phases(width // 2 + 1, cols, width)
    taps = w.data
    if adjoint:
        e1, e2, taps = e1.conj(), e2.conj(), taps.transpose(0, 1, 3, 2)
    w_hat = e1 @ (e2 @ taps.reshape(taps.shape[:2] + (-1,))).reshape(len(rows), -1)
    return w_hat.reshape((height, width // 2 + 1) + taps.shape[2:])


def _ma_product(field_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
    # one (out x in) matrix per frequency.  Best-of-5 ms of einsum against a
    # broadcast multiply accumulated over input channels (2-core x86-64,
    # numpy 2.4): with one input channel the multiply always wins (512x257
    # 1->4: 2.3 against 1.5; 4x64x33 1->4: 0.20 against 0.10); with two they
    # are even (512x257 2->1: 0.96 against 1.12, 2->4: 5.6 against 4.9);
    # from four on einsum wins on the larger grids (512x257 4->1: 2.0
    # against 3.9, 8->1: 3.2 against 10.0).  So one input channel, where
    # there is nothing to sum, is the bare broadcast multiply, and einsum
    # does the rest.  At 256x129 8->8, stacked matmul (3.7) beats einsum
    # (5.9) and the multiply (18.0), but no workload runs it.
    if w_hat.shape[-1] == 1:
        return field_hat * w_hat[..., 0]
    return np.einsum("...ijs,ijts->...ijt", field_hat, w_hat)


def _read_taps(
    cross_hat: np.ndarray, rows: Tuple[int, ...], cols: Tuple[int, ...], width: int
) -> np.ndarray:
    """A real circular cross-correlation read only at the grid offsets ``rows x cols``.

    ``cross_hat`` is its half spectrum ``(I1, I2//2+1, ...)``.  The read is
    the adjoint of :func:`_ma_spectrum`'s build, ``Re(E1^H . C . E2w^H) /
    (I1*I2)`` for every trailing index: two ``@`` products with the inverse
    phase matrices, whose Hermitian weights ``w`` on the half spectrum's
    columns make the real part the inverse real transform at those offsets.
    Returns ``(len(rows), len(cols), ...)``.
    """
    height, half = cross_hat.shape[:2]
    read = _inverse_phases(height, rows, height) @ cross_hat.reshape(height, -1)
    read = _inverse_phases(half, cols, width) @ read.reshape(len(rows), half, -1)
    return read.real.reshape((len(rows), len(cols)) + cross_hat.shape[2:])


def _check_ma(shape: Tuple[int, ...], w: MaKernel) -> None:
    # shape is the input field's, ([N,] I1, I2, S)
    if shape[-1] != w.in_channels:
        raise ValueError(
            f"input has {shape[-1]} channels but kernel expects {w.in_channels}"
        )
    height, width = shape[-3:-1]
    if w.dilation * (w.tap_height - 1) >= height or w.dilation * (w.tap_width - 1) >= width:
        raise ValueError(
            f"dilated kernel footprint {w.dilation}*({w.tap_height - 1}, {w.tap_width - 1}) "
            f"does not fit a {height}x{width} field"
        )


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
    length-``I2`` real DFT of the composed ``f`` taps (``ar.composed``), each
    a product with the phase matrix at the tap offsets ``-Q..Q`` (wrapped).
    ``A_hat`` is not formed.  The spectrum is guarded once, here: every
    ``|G_hat[k1, t]| * |F_hat[k2, t]|`` is finite and at least
    ``DEFAULT_EPSILON`` (read from this module at call time), so both the
    forward solve and its adjoint may divide by the two spectra (or their
    conjugates) without checking again.  Float products of non-negative
    numbers are monotone, so each channel's ``min|G_hat| * min|F_hat|`` and
    ``max|G_hat| * max|F_hat|`` are exactly the least and largest of those
    products, and the ``O(I1 + I2)`` check decides.  Otherwise
    :class:`armakit.numerics.SingularSpectrumError` names the first
    ``(k1, k2, t)`` entry that is not finite, else the first below the
    threshold.  Re-parameterized kernels can fail it too: a factor's
    spectrum falls to ``1 - tanh|beta|``, below the default threshold once
    ``|beta|`` exceeds about 9.56 (ROADMAP item I).
    """
    offsets = tuple(range(-ar.depth, ar.depth + 1))
    f_comp, g_comp = ar.composed
    # an overflow or NaN is refused below, with its index, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        g_hat = _phases(height, offsets, height) @ g_comp.T
        f_hat = _phases(width // 2 + 1, offsets, width) @ f_comp.T
        g_abs, f_abs = np.abs(g_hat), np.abs(f_hat)
        margin = g_abs.min(axis=0) * f_abs.min(axis=0)
        peak = g_abs.max(axis=0) * f_abs.max(axis=0)
        if not (np.all(margin >= DEFAULT_EPSILON) and np.all(np.isfinite(peak))):
            magnitude = g_abs[:, None, :] * f_abs[None, :, :]
            bad = ~np.isfinite(magnitude)
            if not bad.any():
                bad = magnitude < DEFAULT_EPSILON
            index = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise SingularSpectrumError(index, magnitude[index], DEFAULT_EPSILON)
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
    f_half, g_half = np.max(np.where(ar.composed != 0, offsets, 0), axis=-1)
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


def _spectral_backward(
    d_y_hat: np.ndarray, cache: LayerCache, input_gradient: bool
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Backward pass of :func:`spectral_forward`, spectrum in and spectrum out.

    ``d_y_hat`` is the half spectrum of the gradient with respect to the
    forward output; the caller gives it up and has checked its shape.
    Returns ``(dX_hat, dW, dFG)``: the half spectrum of the input gradient
    (``None`` unless ``input_gradient``), the moving-average kernel
    gradient, and the gradients of every length-3 factor's taps at offsets
    (-1, 0, +1), one ``(2, channels, depth, 3)`` array, the ``f`` cascades
    then the ``g`` cascades; kernel gradients sum over the samples of a batch.
    In the frequency domain:

        dT_hat = dY_hat / conj(G_hat) / conj(F_hat)
        dX_hat = W_hat^H . dT_hat
        dA_hat = -conj(Y_hat) . dT_hat

    ``dT_hat`` is formed in place in ``d_y_hat``.  The cross spectra
    ``dT_hat . conj(X_hat)`` (every channel pair at once) and ``dA_hat`` are
    read at the kernels' tap offsets once per sample and summed, then ``dA``
    is chained through the outer product and the cascade to the factor taps.
    """
    ma, ar = cache.ma, cache.ar
    height, width = cache.shape[-3:-1]
    # guarded when ar_spectra built them
    g_hat, f_hat = cache.ar_spectra
    d_t_hat = d_y_hat
    d_t_hat *= np.conj(1.0 / g_hat)[:, None, :]
    d_t_hat *= np.conj(1.0 / f_hat)
    d_x_hat = None
    if input_gradient:
        d_x_hat = _ma_product(d_t_hat, _ma_spectrum(ma, height, width, adjoint=True))
    # each sample's cross spectra, read and dropped in turn so that at most one is
    # alive: dA's -conj(Y_hat) . dT_hat, then dW's dT_hat . conj(X_hat) for every
    # (t, s), the size of W_hat^H, with X_hat conjugated into it (no temporary)
    offsets = tuple(range(-ar.depth, ar.depth + 1))
    d_a_taps = d_w = 0.0
    samples = (a.reshape((-1,) + a.shape[-3:])
               for a in (d_t_hat, cache.output_spectrum, cache.input_spectrum))
    for d_t, y_hat, x_hat in zip(*samples):
        cross = np.conj(y_hat)
        cross *= d_t
        d_a_taps = d_a_taps - _read_taps(cross, offsets, offsets, width)
        del cross
        cross = np.conj(np.broadcast_to(x_hat[..., None, :], d_t.shape + x_hat.shape[-1:]))
        cross *= d_t[..., None]
        d_w = d_w + _read_taps(cross, *_dilated_offsets(ma), width)
    del cross  # held to the return, it raised a 512^2 x 1->4 run's peak RSS by 6 MB
    # the composed kernel is outer(G, F): rows follow g, columns follow f
    f_comp, g_comp = ar.composed
    d_comp = np.empty(ar.composed.shape)
    d_comp[0] = np.einsum("tp,pqt->tq", g_comp, d_a_taps)
    d_comp[1] = np.einsum("pqt,tq->tp", d_a_taps, f_comp)
    # d(c_1 * ... * c_Q)/d(c_q) correlates the composition gradient with the
    # convolution of the other factors, leaving exactly 3 taps
    windows = d_comp[..., np.arange(3)[:, None] + np.arange(2 * ar.depth - 1)]
    d_factors = np.empty(ar.taps.shape)
    for q in range(ar.depth):
        rest = (compose_1d(np.delete(ar.taps, q, axis=-2)) if ar.depth > 1
                else np.ones(ar.taps.shape[:-2] + (1,)))
        d_factors[..., q, :] = np.einsum("...jk,...k->...j", windows, rest)
    return d_x_hat, d_w, d_factors


def layer_forward(
    x: FieldTensor, ma: MaKernel, ar: SeparableArKernel
) -> Tuple[FieldTensor, LayerCache]:
    """:func:`spectral_forward` on a field: one ``rfft2`` of ``x`` in, one
    ``irfft2`` of ``Y_hat`` out.  Returns the output field and the cache.
    Raises ``OverflowError`` if the output leaves float64's range."""
    with np.errstate(over="ignore", invalid="ignore"):
        y_hat, cache = spectral_forward(_rfft2(x), x.data.shape, ma, ar)
        try:  # the output field's finiteness check is the one pass over it
            return _irfft2(y_hat, x.height, x.width), cache
        except ValueError as exc:
            raise OverflowError("the layer output is beyond float64's range") from exc


def layer_backward(
    d_y: FieldTensor, cache: LayerCache
) -> Tuple[FieldTensor, np.ndarray, np.ndarray]:
    """The adjoint of :func:`spectral_forward` on a field: one ``rfft2`` of
    ``dY`` in, one ``irfft2`` of ``dX_hat`` out.  ``dT_hat`` is formed in
    place in that ``rfft2`` output, which nothing else holds.

    Returns ``(dX, dW, dFG)``: the input gradient, the moving-average
    kernel gradient, and the gradients of every length-3 factor's taps, the
    core's ``(2, channels, depth, 3)`` array in the layout of the kernel's
    ``taps`` (the ``f`` cascades, then the ``g`` cascades).
    """
    # checked on the field: widths I2 and I2 + 1 share one half spectrum
    if d_y.data.shape != cache.shape:
        raise ValueError(
            f"gradient shape {d_y.data.shape} does not match the forward output {cache.shape}"
        )
    # held until the irfft2 is done: freeing it before raised the peak RSS
    # of a 512^2 x 1->4 run by 4 MB, through the heap's layout
    d_y_hat = _rfft2(d_y)
    d_x_hat, d_w, d_factors = _spectral_backward(d_y_hat, cache, True)
    return _irfft2(d_x_hat, d_y.height, d_y.width), d_w, d_factors


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


def dense_circulant_matrix(taps, height: int, width: int) -> np.ndarray:
    """Assemble the matrix of a circular convolution on a ``height x width`` grid.

    Row ``(i1*W + i2)`` expresses
    ``sum_p taps[p1, p2] * y[(i1 - p1) % I1, (i2 - p2) % I2]``.
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
                    j1 = (i1 - (k1 - half1)) % height
                    j2 = (i2 - (k2 - half2)) % width
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
    if cache.ar is not params.ar or cache.ma is not params.ma:
        raise ValueError("cache was not built by arma_forward with these params")
    forward_shape = cache.shape[:-1] + (params.ma.in_channels,)
    if x.data.shape != forward_shape:
        raise ValueError(
            f"input shape {x.data.shape} differs from the forward input's shape {forward_shape}"
        )
    d_x, d_w, d_fg = layer_backward(d_y, cache)
    # the center tap f0 is fixed, so only (fm1, fp1) chain to (alpha, beta)
    d_ab = reparam_gradient(params.ar.params, d_fg[..., ::2])
    return d_x, d_w, ArGradients(*(d_ab[h, ..., k] for h in (0, 1) for k in (0, 1)))

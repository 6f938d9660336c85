"""Shared independent oracles for the test suite.

These deliberately avoid the library's own transform and solver code paths:
the DFT oracles are direct summations, and the convolution oracle and the
tap embedding are explicit index arithmetic, so agreement is evidence rather
than tautology.
"""

import numpy as np

from armakit.arma import layer_forward
from armakit.filters import SeparableArKernel
from armakit.numerics import MaKernel


def identity_ma(channels=1):
    """The 1x1 identity moving-average kernel: a layer with it is its autoregressive stage."""
    return MaKernel(np.eye(channels)[None, None])


def ma_stage(x, w):
    """The library's moving-average stage alone, not an oracle: the layer
    with the identity autoregressive kernel."""
    return layer_forward(x, w, SeparableArKernel.identity(w.out_channels))[0]


def naive_dft1(x):
    """O(N^2) direct-summation DFT."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return (x[None, :] * np.exp(-2j * np.pi * np.outer(k, k) / n)).sum(axis=1)


def naive_dft2(plane):
    """O(N^4) double-sum 2D DFT of one channel."""
    plane = np.asarray(plane, dtype=np.complex128)
    i1, i2 = plane.shape
    out = np.zeros((i1, i2), dtype=np.complex128)
    for k1 in range(i1):
        for k2 in range(i2):
            total = 0.0j
            for n1 in range(i1):
                for n2 in range(i2):
                    total += plane[n1, n2] * np.exp(
                        -2j * np.pi * (n1 * k1 / i1 + n2 * k2 / i2)
                    )
            out[k1, k2] = total
    return out


def naive_circular_conv2(plane, taps, dilation=1):
    """Direct circular summation with centered taps."""
    plane = np.asarray(plane, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    i1, i2 = plane.shape
    h1 = (taps.shape[0] - 1) // 2
    h2 = (taps.shape[1] - 1) // 2
    out = np.zeros_like(plane)
    for a in range(i1):
        for b in range(i2):
            total = 0.0
            for k1 in range(taps.shape[0]):
                for k2 in range(taps.shape[1]):
                    p1 = dilation * (k1 - h1)
                    p2 = dilation * (k2 - h2)
                    total += taps[k1, k2] * plane[(a - p1) % i1, (b - p2) % i2]
            out[a, b] = total
    return out


def naive_circular_correlation(a, b, m1, m2):
    """``sum_n a[n] * b[n - m]`` of two real planes on the circle, at the one
    offset ``m = (m1, m2)``, by direct summation."""
    i1, i2 = a.shape
    total = 0.0
    for n1 in range(i1):
        for n2 in range(i2):
            total += a[n1, n2] * b[(n1 - m1) % i1, (n2 - m2) % i2]
    return total


def _tap_offsets(tap_count):
    # taps are centered: index k holds the tap at offset k - (K-1)//2
    half = (tap_count - 1) // 2
    return range(-half, half + 1)


def embed_taps(taps, height, width, dilation=1):
    """Place centered kernel taps on a full-size grid, wrapping negative offsets.

    The tap at offset ``(p1, p2)`` lands at index
    ``((d*p1) % I1, (d*p2) % I2)``; all other entries are zero.  Convolving
    with the kernel is then an element-wise product with the embedded grid's
    spectrum.

    Performs no footprint check: taps landing on the same wrapped grid cell
    accumulate, which matches circular-convolution semantics for kernels
    whose zero padding overhangs a small grid.
    """
    taps = np.asarray(taps, dtype=np.float64)
    grid = np.zeros((height, width))
    rows = [(dilation * p) % height for p in _tap_offsets(taps.shape[0])]
    cols = [(dilation * p) % width for p in _tap_offsets(taps.shape[1])]
    for k1, r in enumerate(rows):
        for k2, c in enumerate(cols):
            grid[r, c] += taps[k1, k2]
    return grid


def exact_uniform_erf_2d(spec, grid, origin):
    """Long-double oracle for the uniform-kernel 2D ERF map on a ``grid``-point circle.

    Each layer's forward filter on the circle is the periodized geometric
    inverse ``a^m / (1 - a^grid)`` of its causal factor ``(1, -a)``,
    circularly convolved with ``K`` taps ``(1-a)/K`` at offsets ``d*p``,
    ``p = 0..K-1``; the network's filter ``h`` is their circular
    convolution, by direct summation.  The uniform kernel is separable, so
    the map is ``outer(h[-o], h[-o])`` at ERF offsets ``o = x - origin``,
    normalized.  Nothing here uses an FFT or the library's ERF code.
    """
    m = np.arange(grid)
    circulant = (m[:, None] - m[None, :]) % grid  # conv(h, f)[i] = sum_j h[j] f[i - j]
    h = np.zeros(grid, dtype=np.longdouble)
    h[0] = 1
    for layer in spec.layers:
        a = np.longdouble(layer.ar_coeff)
        inverse = a**m / (1 - a**grid)
        ma = np.zeros(grid, dtype=np.longdouble)
        np.add.at(ma, layer.dilation * np.arange(layer.taps) % grid, (1 - a) / layer.taps)
        for factor in (inverse, ma):
            h = (h[None, :] * factor[circulant]).sum(axis=1)
    reversed_h = h[(origin - m) % grid]
    plane = np.outer(reversed_h, reversed_h)
    return plane / plane.sum()


def quadratic_root_moduli(fm1, f0, fp1):
    """Root moduli ``(lo, hi)`` of ``fm1*z^2 + f0*z + fp1`` by the textbook
    quadratic formula in complex float64, elementwise: the straddle oracle.

    No scaling and no guard against cancellation, so it judges the
    algorithm (which zeros straddle the unit circle), not its rounding.
    """
    disc = np.sqrt(np.asarray(f0**2 - 4.0 * fm1 * fp1, dtype=complex))
    r1 = (-f0 + disc) / (2.0 * fm1)
    r2 = (-f0 - disc) / (2.0 * fm1)
    return np.minimum(np.abs(r1), np.abs(r2)), np.maximum(np.abs(r1), np.abs(r2))

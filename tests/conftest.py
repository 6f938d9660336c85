"""Shared independent oracles for the test suite.

These deliberately avoid the library's own transform and solver code paths:
the DFT oracles are direct summations, and the convolution oracle and the
tap embedding are explicit index arithmetic, so agreement is evidence rather
than tautology.
"""

import numpy as np

from armakit.numerics import MaKernel


def identity_ma(channels=1):
    """The 1x1 identity moving-average kernel: a layer with it is its autoregressive stage."""
    return MaKernel(np.eye(channels)[None, None])


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

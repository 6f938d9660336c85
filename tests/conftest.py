"""Shared independent oracles for the test suite.

These deliberately avoid the library's own transform and solver code paths:
the DFT oracles are direct summations, and the convolution oracle and the
tap embedding are explicit index arithmetic, so agreement is evidence rather
than tautology.
"""

import math
from fractions import Fraction

import numpy as np

from armakit.arma import layer_forward
from armakit.filters import SeparableArKernel
from armakit.numerics import MaKernel
from armakit.training import ToyTask, TrainTrace, train


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


def float_interval(value):
    """The reals that round to the float64 ``value``, ``(lo, hi)`` as exact
    Fractions: the half-ulp neighbours on either side (ties included)."""
    magnitude = Fraction(abs(value))
    away = Fraction(math.ulp(abs(value))) / 2
    # toward zero the gap is half as wide at a power of two, and as wide at 0
    toward = (magnitude - Fraction(math.nextafter(abs(value), 0.0))) / 2 or away
    lo, hi = magnitude - toward, magnitude + away
    return (lo, hi) if value >= 0.0 else (-hi, -lo)


def _signed_root_at_most(sign, square, bound):
    # sign * sqrt(square) <= bound, for square >= 0, by comparing squares
    if sign > 0:
        return bound >= 0 and square <= bound * bound
    return bound >= 0 or square >= bound * bound


def misrounded_zeros(taps, zeros, moduli):
    """The reported zeros ``[re, im]`` and moduli of ``fm1*z^2 + f0*z + fp1``
    (``f0 > 0``) that are not the float64 nearest their exact value; ``[]``
    if every one is.

    Exact rational arithmetic throughout.  With ``v = -f0/(2*fm1)`` and
    ``d2 = (f0^2 - 4*fm1*fp1)/(2*fm1)^2``, the zeros are the real pair
    ``v +- sqrt(d2)`` when ``d2 >= 0``, the one of smaller modulus first
    (``v + sign(fm1)*sqrt(d2)``), else the conjugate pair ``v +-
    i*sqrt(-d2)``, positive imaginary part first, of modulus
    ``sqrt(fp1/fm1)``; a linear factor (``fm1 = 0``) has the one zero
    ``-fp1/f0``.  A value is right when its exact counterpart lies in the
    reported float's :func:`float_interval`; a square root is placed there
    by comparing squares.  A real zero's imaginary part must be 0 and its
    modulus its absolute value.
    """
    fm1, f0, fp1 = (Fraction(t) for t in taps)
    count = 1 if fm1 == 0 else 2
    if len(zeros) != count or len(moduli) != count:
        return [f"{len(zeros)} zeros and {len(moduli)} moduli, not {count}"]
    wrong = []

    def check(name, value, inside):
        if not inside(*float_interval(value)):
            wrong.append(f"{name} = {value!r}")

    real = True
    if fm1 == 0:
        check("z1", zeros[0][0], lambda lo, hi: lo <= -fp1 / f0 <= hi)
    else:
        v, d2 = -f0 / (2 * fm1), (f0 * f0 - 4 * fm1 * fp1) / (2 * fm1) ** 2
        real = d2 >= 0
        first = 1 if fm1 > 0 else -1  # the sign of sqrt(d2) in the smaller zero
        for i, (name, (re, im)) in enumerate(zip(("z1", "z2"), zeros)):
            if real:  # v + s*sqrt(d2) in [lo, hi]
                s = first if i == 0 else -first
                check(name, re, lambda lo, hi: _signed_root_at_most(s, d2, hi - v)
                      and _signed_root_at_most(-s, d2, v - lo))
            else:
                check(f"re({name})", re, lambda lo, hi: lo <= v <= hi)
                check(f"|im({name})|", abs(im), lambda lo, hi: lo * lo <= -d2 <= hi * hi)
                check(f"|{name}|", moduli[i], lambda lo, hi: lo * lo <= fp1 / fm1 <= hi * hi)
        if not real and not (zeros[0][1] > 0 and zeros[1] == [zeros[0][0], -zeros[0][1]]):
            wrong.append(f"not a conjugate pair, positive imaginary part first: {zeros}")
    if real and (any(im != 0.0 for _, im in zeros) or moduli != [abs(re) for re, _ in zeros]):
        wrong.append(f"real zeros {zeros} with moduli {moduli}")
    return wrong


def trace_ulp_spread(task, config):
    """Each ``train`` trace column's spread under 1-ulp input nudges.

    Trains on ``task`` as given, then three times with every input moved one
    ulp by ``np.nextafter``, in a direction drawn per entry (seeds 0, 1 and
    2); the targets stay.  A column's spread is its largest move
    over the nudged runs and every step, relative to its largest magnitude in
    the run as given.  A change that moves a trace quotes the move as a
    multiple of this spread.  Meant for runs that do not diverge.  Returns
    ``{column name: spread}`` in the trace's column order.
    """
    base = np.array(train(task, config).rows)
    move = np.zeros(base.shape[1])
    for seed in range(3):
        direction = np.random.default_rng(seed).choice([-np.inf, np.inf], task.inputs.shape)
        nudged = ToyTask(np.nextafter(task.inputs, direction), task.targets)
        move = np.maximum(move, np.abs(np.array(train(nudged, config).rows) - base).max(axis=0))
    scale = np.abs(base).max(axis=0)
    spread = move / np.where(scale > 0, scale, 1.0)
    return dict(zip(TrainTrace.HEADER.split(","), spread.tolist()))

"""The benchmark's four workloads and their output checks.

Every input is generated from the run's seed.  A workload makes ``POOL``
distinct input sets and op ``i`` uses set ``i % POOL``; the warm-up runs one
op on each set.  ``op`` is the timed call; ``check`` judges its output
against references written here (direct roll-based convolutions, the
closed-form ERF variance, exact adjoint identities, central differences), not
against other outputs of the program, except for the README's promise that
same-seed runs are byte-identical.  ``check`` returns ``None`` or a failure
message.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from armakit import arma, erf, training
from armakit.filters import SeparableArKernel
from armakit.numerics import FieldTensor, MaKernel

POOL = 2

#: Relative tolerance of the residual ``A*Y - W*X`` and of the adjoint identities.
RESIDUAL_TOL = 1e-9
#: Relative tolerance of the central-difference check, as in the repo's gradcheck.
FD_TOL = 1e-5


def _pool_seeds(seed):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(POOL)]


# ------------------------------------------------- reference arithmetic ----


def _conv_axis(field, taps, axis):
    # circular y[i] = sum_p taps[p] * x[i - p], taps centered on offset 0
    half = (len(taps) - 1) // 2
    out = np.zeros_like(field)
    for k, tap in enumerate(taps):
        out += tap * np.roll(field, k - half, axis=axis)
    return out


def _ma_reference(x, w):
    # T[:, :, t] = sum_s W[:, :, t, s] * X[:, :, s] for a centered 2D kernel
    kh, kw, outs, _ = w.shape
    out = np.zeros(x.shape[:2] + (outs,))
    for k1 in range(kh):
        for k2 in range(kw):
            rolled = np.roll(x, (k1 - kh // 2, k2 - kw // 2), axis=(0, 1))
            out += rolled @ w[k1, k2].T
    return out


def _ar_taps(alpha, beta):
    # cascade of reparameterized factors [fm1, 1, fp1] at offsets -1, 0, +1
    taps = np.array([1.0])
    for a, b in zip(alpha, beta):
        sum_ = math.tanh(b)
        taps = np.convolve(taps, [0.5 * (sum_ - a), 1.0, 0.5 * (sum_ + a)])
    return taps


def _residual_error(x, w, ab, y):
    """``max|A*Y - W*X| / max|W*X|`` with A separable: g along rows, f along columns."""
    t = _ma_reference(x, w)
    worst = 0.0
    for c in range(y.shape[2]):
        f = _ar_taps(ab["alpha_f"][c], ab["beta_f"][c])
        g = _ar_taps(ab["alpha_g"][c], ab["beta_g"][c])
        a_y = _conv_axis(_conv_axis(y[:, :, c], f, axis=1), g, axis=0)
        worst = max(worst, float(np.max(np.abs(a_y - t[:, :, c]))))
    return worst / float(np.max(np.abs(t)))


def _relative(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _layer_inputs(rng, size, in_channels, out_channels, taps, depth):
    x = rng.standard_normal((size, size, in_channels))
    bound = math.sqrt(6.0 / (taps * taps * (in_channels + out_channels)))
    w = rng.uniform(-bound, bound, size=(taps, taps, out_channels, in_channels))
    ab = {
        name: rng.uniform(-1.0, 1.0, size=(out_channels, depth))
        for name in ("alpha_f", "beta_f", "alpha_g", "beta_g")
    }
    return x, w, ab


# ---------------------------------------------------------- workloads ----


class Train:
    """One ``training.train`` call on the CLI's default task, ``STEPS`` steps."""

    STEPS = 10
    shapes = "wide_blur 64x64, 4 samples, channels 1,4,1, 3x3 MA, depth-1 reparam AR, 10 steps"

    def __init__(self, seed, workdir):
        self.runs = [
            (training.ToyTask.wide_blur(samples=4, size=64, seed=s),
             training.TrainConfig(steps=self.STEPS, seed=s, mode="reparam"))
            for s in _pool_seeds(seed)
        ]
        self.reference = {}

    def op(self, i, tracer=None):
        return training.train(*self.runs[i % POOL])

    def check(self, i, trace):
        if trace.diverged or len(trace.rows) != self.STEPS:
            return f"op {i}: diverged or stopped after {len(trace.rows)} steps"
        if not all(math.isfinite(v) for row in trace.rows for v in row[1:]):
            return f"op {i}: non-finite trace entry"
        if not trace.rows[-1][1] < trace.rows[0][1]:
            return f"op {i}: loss did not decrease ({trace.rows[0][1]!r} -> {trace.rows[-1][1]!r})"
        text = "".join(f"{s},{l:.17g},{m:.17g},{a:.17g}\n" for s, l, m, a in trace.rows)
        if self.reference.setdefault(i % POOL, text) != text:
            return f"op {i}: trace differs from an earlier run with the same seed"
        return None


class LayerWide:
    """``arma_forward`` then ``arma_backward`` with ``dY = Y`` on a wide field."""

    SIZE, IN, OUT, TAPS, DEPTH = 512, 1, 4, 3, 2
    #: every FD_EVERY-th op also checks the AR gradient by central differences
    FD_EVERY = 8
    shapes = "512x512, 1->4 channels, 3x3 MA, depth-2 reparam AR"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.sets = []
        for _ in range(POOL):
            x, w, ab = _layer_inputs(rng, self.SIZE, self.IN, self.OUT, self.TAPS, self.DEPTH)
            direction = {name: rng.standard_normal(v.shape) for name, v in ab.items()}
            self.sets.append((x, w, ab, direction, FieldTensor(x), self._params(w, ab)))

    @staticmethod
    def _params(w, ab):
        ar = SeparableArKernel.from_arrays(ab["alpha_f"], ab["beta_f"], ab["alpha_g"], ab["beta_g"])
        return arma.ArmaLayerParams(ma=MaKernel(w), ar=ar)

    def op(self, i, tracer=None):
        *_, x, params = self.sets[i % POOL]
        y, cache = arma.arma_forward(x, params)
        return (y,) + tuple(arma.arma_backward(y, x, params, cache))

    def check(self, i, out):
        x, w, ab, direction, field, _ = self.sets[i % POOL]
        y, d_x, d_w, grads = (o.data if isinstance(o, FieldTensor) else o for o in out)
        residual = _residual_error(x, w, ab, y)
        if not residual <= RESIDUAL_TOL:
            return f"op {i}: forward residual {residual:.3e}"
        # 0.5*|Y|^2 is homogeneous of degree 2 in X and in W, so
        # <dX, X> = <dW, W> = |Y|^2 exactly
        energy = float(np.vdot(y, y))
        for label, grad, value in (("dX", d_x, x), ("dW", d_w, w)):
            if not _relative(float(np.vdot(grad, value)), energy) <= RESIDUAL_TOL:
                return f"op {i}: adjoint identity fails for {label}"
        if i % self.FD_EVERY == 0:
            h = 1e-5
            losses = []
            for sign in (1.0, -1.0):
                shifted = {k: ab[k] + sign * h * direction[k] for k in ab}
                y_shift, _ = arma.arma_forward(field, self._params(w, shifted))
                losses.append(0.5 * float(np.vdot(y_shift.data, y_shift.data)))
            numeric = (losses[0] - losses[1]) / (2 * h)
            analytic = sum(float(np.vdot(getattr(grads, k), direction[k])) for k in ab)
            if not _relative(numeric, analytic) <= FD_TOL:
                return f"op {i}: AR gradient {analytic!r} vs central difference {numeric!r}"
        return None


class Erf2d:
    """``erf.empirical_erf_2d`` of four ``3,1,0.5`` layers, xavier kernels."""

    SPEC = ((3, 1, 0.5),) * 4
    GRID, CHANNELS = 128, 8
    shapes = "layers 3,1,0.5 x4, xavier, 8 channels, grid 128"

    def __init__(self, seed, workdir):
        self.spec = erf.LinearNetSpec(tuple(erf.LayerSpec1D(*layer) for layer in self.SPEC))
        self.seeds = _pool_seeds(seed)
        self.reference = {}

    def op(self, i, tracer=None):
        return erf.empirical_erf_2d(
            self.spec, grid=self.GRID, channels=self.CHANNELS,
            seed=self.seeds[i % POOL], kernel_mode="xavier",
        )

    def check(self, i, erf_map):
        weights = erf_map.weights
        if weights.shape != (self.GRID, self.GRID) or not np.all(np.isfinite(weights)):
            return f"op {i}: map has shape {weights.shape} or non-finite entries"
        if (weights < 0).any() or not abs(float(weights.sum()) - 1.0) <= 1e-9:
            return f"op {i}: map is negative somewhere or does not sum to 1"
        if self.reference.setdefault(i % POOL, weights.tobytes()) != weights.tobytes():
            return f"op {i}: map differs from an earlier run with the same seed"
        return None

    def check_once(self):
        """The uniform-kernel map's axis variance is the closed-form radius squared."""
        erf_map = erf.empirical_erf_2d(self.spec, grid=self.GRID)
        expected = sum(d * d * (k * k - 1) / 12.0 + a / (1.0 - a) ** 2 for k, d, a in self.SPEC)
        for axis in (0, 1):
            marginal = erf_map.weights.sum(axis=1 - axis)
            offsets = np.arange(marginal.size) - erf_map.origin[axis]
            variance = float((offsets**2 * marginal).sum()) - float((offsets * marginal).sum()) ** 2
            if not _relative(variance, expected) <= 1e-6:
                return f"uniform ERF axis-{axis} variance {variance!r}, closed form {expected!r}"
        return None


class CliSolve:
    """One ``python -m armakit.cli solve`` subprocess on CSV files."""

    SIZE, TAPS, DEPTH = 256, 3, 2
    #: a child still running after this many seconds is killed
    CHILD_TIMEOUT = 60.0
    shapes = "256x256 field CSV, 3x3 kernel CSV, depth-2 reparam AR JSON, --out CSV"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(Path(erf.__file__).parent.parent))
        self.peak_rss_kb = 0
        self.sets = []
        for k in range(POOL):
            x, w, ab = _layer_inputs(rng, self.SIZE, 1, 1, self.TAPS, self.DEPTH)
            paths = [self.workdir / f"{stem}{k}.{ext}" for stem, ext in
                     (("x", "csv"), ("k", "csv"), ("ar", "json"), ("y", "csv"))]
            _write_csv(paths[0], x[:, :, 0])
            _write_csv(paths[1], w[:, :, 0, 0])
            spec = {"mode": "reparam", **{name: v.tolist() for name, v in ab.items()}}
            paths[2].write_text(json.dumps(spec))
            self.sets.append((x, w, ab, paths))

    def op(self, i, tracer=None):
        x_csv, k_csv, ar_json, y_csv = self.sets[i % POOL][3]
        y_csv.unlink(missing_ok=True)
        args = ["solve", "--input", str(x_csv), "--ma-kernel", str(k_csv),
                "--ar-config", str(ar_json), "--out", str(y_csv)]
        if tracer is None:
            return self._child([sys.executable, "-m", "armakit.cli"] + args)
        spans = self.workdir / "spans.json"
        spans.unlink(missing_ok=True)
        trace_py = str(Path(__file__).with_name("tracing.py"))
        code = self._child([sys.executable, trace_py, str(spans)] + args)
        tracer.adopt(json.loads(spans.read_text()), parent=tracer.stack[-1])
        return code

    def _child(self, command):
        with open(self.workdir / "child.log", "wb") as log:
            proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            watchdog = threading.Timer(self.CHILD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                # wait4 reaped the child; record that before the watchdog can fire
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, i, code):
        x, w, ab, paths = self.sets[i % POOL]
        if code != 0:
            log = (self.workdir / "child.log").read_text(errors="replace").strip()
            return f"op {i}: exit code {code}: {log[-300:]}"
        try:
            rows = [[float(v) for v in line.split(",")] for line in paths[3].read_text().splitlines()]
            y = np.array(rows)
        except (OSError, ValueError) as exc:
            return f"op {i}: output CSV does not parse: {exc}"
        if y.shape != (self.SIZE, self.SIZE):
            return f"op {i}: output has shape {y.shape}"
        residual = _residual_error(x, w, ab, y[:, :, None])
        if not residual <= RESIDUAL_TOL:
            return f"op {i}: forward residual {residual:.3e}"
        return None


def _write_csv(path, array):
    Path(path).write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in array) + "\n")


WORKLOADS = {"train": Train, "layer-wide": LayerWide, "erf2d": Erf2d, "cli-solve": CliSolve}

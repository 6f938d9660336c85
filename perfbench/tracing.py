"""Span tracing for the benchmark's traced run.

Wrappers are installed only in a traced run, by rebinding module attributes
from outside the program: every binding of a traced function inside the
``armakit`` modules (including names imported with ``from .x import y``) and
every ``numpy.fft`` entry point.  Each call records a span
``[name, start, end, parent, note]`` in memory; ``note`` is an optional
per-call detail (an FFT's shape and axes, a training run's step count).
A boundary the program no longer has is reported as absent, not as an
error.

Run as a script, this file is the traced child of the ``cli-solve``
workload::

    python perfbench/tracing.py SPANS.json solve --input x.csv ...

It times ``import armakit`` apart from ``import numpy``, runs
``armakit.cli.main`` with the wrappers installed, writes its spans to
``SPANS.json`` and exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "filters", "arma", "erf", "training", "cli")

# traced name -> (module, attribute path, optional note(args, kwargs, result))
BOUNDARIES = {
    "numerics.spectral_divide": ("armakit.numerics", "spectral_divide", None),
    "arma.ar_spectra": ("armakit.arma", "ar_spectra", None),
    "arma.ar_forward": ("armakit.arma", "ar_forward", None),
    "arma.ar_backward": ("armakit.arma", "ar_backward", None),
    "arma.ma_forward": ("armakit.arma", "ma_forward", None),
    "arma.ma_backward": ("armakit.arma", "ma_backward", None),
    "arma.ma_backward_input": ("armakit.arma", "ma_backward_input", None),
    "arma.ar_factor_tap_gradients": ("armakit.arma", "ar_factor_tap_gradients", None),
    "arma.ar_reparam_gradients": ("armakit.arma", "ar_reparam_gradients", None),
    "filters.materialize_2d": ("armakit.filters", "materialize_2d", None),
    "filters.compose_1d": ("armakit.filters", "compose_1d", None),
    "filters.is_stable": ("armakit.filters", "is_stable", None),
    "filters.from_arrays": ("armakit.filters", "SeparableArKernel.from_arrays", None),
    "training.train": ("armakit.training", "train", lambda args, kwargs, result: len(result.rows)),
    "erf.empirical_erf_2d": ("armakit.erf", "empirical_erf_2d", None),
    "cli.main": ("armakit.cli", "main", None),
}

FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ENTRY_POINTS = FFT_1D + ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")

def _fft_note(entry):
    # keep only what the flop count needs: (entry, input shape, n or s, axis or axes)
    size_key, axis_key = ("n", "axis") if entry in FFT_1D else ("s", "axes")

    def note(args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        size = args[1] if len(args) > 1 else kwargs.get(size_key)
        axes = args[2] if len(args) > 2 else kwargs.get(axis_key)
        return (entry, list(getattr(a, "shape", ())), size, axes)

    return note


def fft_flops(entry, shape, sizes, axes) -> float:
    """Computed flops of one numpy.fft call.

    ``5 N log2 N`` per complex transform of ``N`` points and ``2.5 N log2 N``
    per real one, times the number of transforms in the batch.
    """
    ndim = len(shape)
    if entry in FFT_1D:
        axes, sizes = [-1 if axes is None else axes], [sizes]
    else:
        if axes is None:
            if entry.endswith("2"):
                axes = (-2, -1)
            else:
                axes = range(-len(sizes), 0) if sizes is not None else range(ndim)
        axes = list(axes)
        sizes = list(sizes) if sizes is not None else [None] * len(axes)
    axes = [axis % ndim for axis in axes]
    real_output = entry in ("irfft", "irfft2", "irfftn", "hfft")
    points = 1
    for position, (axis, size) in enumerate(zip(axes, sizes)):
        if size is None:
            size = shape[axis]
            if real_output and position == len(axes) - 1:
                size = 2 * (size - 1)
        points *= size
    batch = math.prod(n for axis, n in enumerate(shape) if axis not in axes)
    per_point = 2.5 if entry.startswith(("r", "ir", "h", "ih")) else 5.0
    return batch * per_point * points * math.log2(max(points, 2))


def _resolve(module_name, path):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None, attr, None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it.

    Building it imports every traced module.  ``install`` and ``uninstall``
    swap the wrappers in and out, so traced and untraced calls can alternate
    within one process.
    """

    def __init__(self):
        import numpy.fft

        self.spans = []
        self.stack = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.absent = []
        self._patches = []  # (owner, attr, original value, wrapped value)
        resolved = {name: _resolve(module, path) for name, (module, path, _) in BOUNDARIES.items()}
        program = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "armakit"]
        for name, (owner, attr, original) in resolved.items():
            note = BOUNDARIES[name][2]
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, note))
                self._patches.append((owner, attr, original, wrapped))
            else:
                self._patch_everywhere(owner, attr, original, self._wrap(name, original, note), program)
        for entry in FFT_ENTRY_POINTS:
            original = getattr(numpy.fft, entry, None)
            if original is not None:
                wrapper = self._wrap("numerics.fft", original, _fft_note(entry))
                self._patch_everywhere(numpy.fft, entry, original, wrapper, program)

    def _patch_everywhere(self, owner, attr, original, wrapper, modules):
        self._patches.append((owner, attr, original, wrapper))
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original and (module, name) != (owner, attr):
                    self._patches.append((module, name, original, wrapper))

    def _wrap(self, name, fn, note):
        spans, stack, errors = self.spans, self.stack, self.errors
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, time.perf_counter(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # count an exception once per layer it escapes from
                if parent is None or spans[parent][0].split(".")[0] != layer:
                    errors[layer] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                record[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin(self, name):
        """Open a span that is not a wrapped call (the benchmark's op root)."""
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def adopt(self, dumped, parent):
        """Merge what a child process's tracer dumped, its spans under ``parent``."""
        offset = len(self.spans)
        for name, start, end, child_parent, note in dumped["spans"]:
            owner = parent if child_parent is None else child_parent + offset
            self.spans.append([name, start, end, owner, note])
        for layer, count in dumped["errors"].items():
            self.errors[layer] += count

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans,
                       "errors": self.errors, "absent": self.absent}, handle)


def summarize(spans, root="op"):
    """Per-layer metrics of the traced ops: per-op values, median over ops.

    ``<name>.ms`` is self time, a span's duration minus that of its direct
    children, so the self times within one op add up to the op's duration
    exactly; ``trace.unattributed_ms`` is the part no traced boundary covers.
    """
    child_time = [0.0] * len(spans)
    roots = [0] * len(spans)
    in_erf = [False] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        roots[index] = index if parent is None else roots[parent]
        in_erf[index] = name == "erf.empirical_erf_2d" or (parent is not None and in_erf[parent])
        if parent is not None:
            child_time[parent] += end - start
    ops = {i: defaultdict(float) for i, span in enumerate(spans) if span[0] == root and span[3] is None}
    for index, (name, start, end, parent, note) in enumerate(spans):
        op = ops.get(roots[index])
        if op is None:
            continue
        op[f"{name}.ms"] += (end - start - child_time[index]) * 1e3
        op[f"{name}.calls"] += 1
        op[f"{name}.span_ms"] += (end - start) * 1e3
        if name == "numerics.fft":
            op["numerics.fft.flops"] += fft_flops(*note)
        elif name == "training.train":
            op["training.steps"] += note
        elif name == "arma.ar_backward" and in_erf[index]:
            op["erf.backward_passes"] += 1
    for op in ops.values():
        maps = op["erf.empirical_erf_2d.calls"]
        op["erf.backward_passes"] = op["erf.backward_passes"] / maps if maps else 0.0
        op["cli.import_ms"] = op["cli.import.span_ms"]
        if op["cli.main.calls"]:
            op["cli.process_ms"] = op[f"{root}.span_ms"] - op["cli.main.span_ms"]
        op["trace.op_ms.traced"] = op[f"{root}.span_ms"]
        op["trace.unattributed_ms"] = op[f"{root}.ms"]
        op["trace.attributed_share"] = 1.0 - op[f"{root}.ms"] / op[f"{root}.span_ms"]
        op["trace.spans"] = sum(value for key, value in op.items() if key.endswith(".calls")) - 1
    keys = sorted({key for op in ops.values() for key in op})
    return {key: statistics.median(op[key] for op in ops.values()) for key in keys}


def _traced_cli(spans_path, argv) -> int:
    import numpy  # noqa: F401  (so that cli.import times armakit alone)

    numpy_done = time.perf_counter()
    import armakit
    import armakit.cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.spans.append(["cli.import", numpy_done, imported, None, None])
    tracer.install()
    try:
        return armakit.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))

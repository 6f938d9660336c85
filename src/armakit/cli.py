"""Command-line front end.

Subcommands: ``erf`` (analytic and empirical receptive-field analysis),
``gradcheck`` (analytic vs finite-difference gradients), ``stability``
(filter audits and re-parameterization scans), ``solve`` (single-layer
forward solve with optional dense oracle and timing), and ``train`` (the toy
training demo).

Exit codes: 0 success, 1 usage error, 2 numeric failure (singular spectrum,
wraparound rejection, tolerance breach), 3 divergence detected during
training.  Primary data and JSON go to stdout, diagnostics to stderr.
Every flag of a subcommand can instead be supplied through ``--config FILE``
(a flat JSON object keyed by flag name); explicit flags win, unknown keys are
rejected, and each value must have the JSON type of its flag: a bool for a
switch, an integer or number for a numeric flag, a string otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import arma, erf, filters, training
from .numerics import FieldTensor, MaKernel, SingularSpectrumError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_DIVERGED = 3

_UNSET = object()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for numeric failures, so argparse's
    # default error exit cannot be used
    def error(self, message):
        raise UsageError(message)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv_grid(rows, destination):
    text = "\n".join(",".join(_fmt(v) for v in row) for row in rows) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text)


def _read_csv_grid(path) -> np.ndarray:
    try:
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in Path(path).read_text().strip().splitlines()
            if line.strip()
        ]
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read numeric CSV {path}: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise UsageError(f"CSV {path} is empty or not rectangular")
    return np.array(rows)


def _parse_layers(text) -> erf.LinearNetSpec:
    layers = []
    try:
        for chunk in text.split(";"):
            k, d, a = chunk.split(",")
            layers.append(erf.LayerSpec1D(int(k), int(d), float(a)))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed layer list {text!r}: {exc}") from exc
    return erf.LinearNetSpec(tuple(layers))


def _parse_list(text, kind, count=None):
    noun = "integer" if kind is int else "number"
    try:
        values = [kind(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed {noun} list {text!r}") from exc
    if count is not None and len(values) != count:
        raise UsageError(f"expected {count} comma-separated {noun}s, got {text!r}")
    return values


def _check_config_value(action, value):
    # config values skip argparse, so check them against the flag's own type
    if action.const is True:
        expected, ok = "true or false", isinstance(value, bool)
    elif action.type is int:
        expected, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        expected = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        expected, ok = "a string", isinstance(value, str)
    if not ok:
        raise UsageError(f"config key {action.dest!r} must be {expected}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config key {action.dest!r} must be one of {list(action.choices)}, got {value!r}"
        )


def _resolve(args, defaults):
    """Merge flag values over config-file values over defaults."""
    settings = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {unknown}")
        actions = {action.dest: action for action in args.parser._actions}
        for key, value in loaded.items():
            _check_config_value(actions[key], value)
        settings.update(loaded)
    for key in defaults:
        value = getattr(args, key)
        if value is not _UNSET:
            settings[key] = value
    return settings


# ---------------------------------------------------------------- erf ----


ERF_DEFAULTS = {
    "layers": None,
    "mode": "analytic",
    "grid": 64,
    "out": None,
    "channels": 1,
    "seed": 0,
    "kernels": "uniform",
    "truncation": 1e-12,
}


def cmd_erf(args) -> int:
    opts = _resolve(args, ERF_DEFAULTS)
    if not opts["layers"]:
        raise UsageError("erf needs --layers (or a config file providing them)")
    spec = _parse_layers(opts["layers"])
    mode = opts["mode"]
    if mode == "analytic":
        lines = ["layer,taps,dilation,ar_coeff,variance_term,total_radius"]
        radius = erf.analytic_radius_arma(spec)
        for i, layer in enumerate(spec.layers, start=1):
            term = erf.layer_variance_term(layer)
            lines.append(
                f"{i},{layer.taps},{layer.dilation},{_fmt(layer.ar_coeff)},"
                f"{_fmt(term)},{_fmt(radius)}"
            )
        text = "\n".join(lines) + "\n"
        if opts["out"] is None:
            sys.stdout.write(text)
        else:
            Path(opts["out"]).write_text(text)
        return EXIT_OK
    if mode == "empirical-1d":
        erf_map = erf.empirical_erf_1d(spec, epsilon=opts["truncation"])
        summary = {
            "axis_variance": erf.erf_axis_variance(erf_map),
            "radial_radius": erf.erf_radius(erf_map),
        }
        if opts["out"] is not None:
            rows = list(zip(erf_map.offsets(0), erf_map.weights))
            _write_csv_grid(rows, opts["out"])
        print(json.dumps(summary))
        return EXIT_OK
    if mode == "empirical-2d":
        if opts["out"] is None:
            raise UsageError("empirical-2d writes a heatmap and needs --out")
        erf_map = erf.empirical_erf_2d(
            spec,
            grid=int(opts["grid"]),
            channels=int(opts["channels"]),
            seed=int(opts["seed"]),
            kernel_mode=opts["kernels"],
            epsilon=opts["truncation"],
        )
        _write_csv_grid(erf_map.weights, opts["out"])
        sidecar = {
            "radial_radius": erf.erf_radius(erf_map),
            "axis_variance_x": erf.erf_axis_variance(erf_map, axis=0),
            "axis_variance_y": erf.erf_axis_variance(erf_map, axis=1),
            "origin_row": erf_map.origin[0],
            "origin_col": erf_map.origin[1],
        }
        Path(opts["out"]).with_suffix(".json").write_text(json.dumps(sidecar) + "\n")
        print(json.dumps(sidecar))
        return EXIT_OK
    raise UsageError(f"unknown erf mode {mode!r}")


# ---------------------------------------------------------- gradcheck ----


GRADCHECK_DEFAULTS = {
    "size": 6,
    "channels": "1,1",
    "q": 1,
    "seed": 0,
    "tol": 1e-5,
}


def cmd_gradcheck(args) -> int:
    opts = _resolve(args, GRADCHECK_DEFAULTS)
    size = int(opts["size"])
    if size * size > arma.DENSE_SOLVE_LIMIT:
        raise UsageError(
            f"size {size} exceeds the {arma.DENSE_SOLVE_LIMIT}-pixel gradcheck guard"
        )
    s, t = _parse_list(opts["channels"], int, count=2)
    report, failures = gradcheck_report(
        size=size, in_channels=s, out_channels=t,
        depth=int(opts["q"]), seed=int(opts["seed"]), tol=float(opts["tol"]),
    )
    print(json.dumps(report))
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def gradcheck_report(size, in_channels, out_channels, depth, seed, tol):
    """Compare every analytic gradient group against central differences.

    Returns ``(per-group max relative error dict, failing coordinate lines)``.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size, size, in_channels))
    w = rng.standard_normal((3, 3, out_channels, in_channels)) * 0.5
    ab = {
        name: rng.uniform(-1.0, 1.0, size=(out_channels, depth))
        for name in ("alpha_f", "beta_f", "alpha_g", "beta_g")
    }

    sizes = {"x": x.size, "w": w.size}
    for name, arr in ab.items():
        sizes[name] = arr.size

    def unpack(theta):
        pieces = {}
        cursor = 0
        for name, count in sizes.items():
            pieces[name] = theta[cursor : cursor + count]
            cursor += count
        return pieces

    def build(theta):
        p = unpack(theta)
        ma = MaKernel(p["w"].reshape(w.shape))
        ar = filters.SeparableArKernel.from_arrays(
            *(p[name].reshape(out_channels, depth)
              for name in ("alpha_f", "beta_f", "alpha_g", "beta_g"))
        )
        return FieldTensor(p["x"].reshape(x.shape)), arma.ArmaLayerParams(ma=ma, ar=ar)

    def loss_fn(theta):
        field, params = build(theta)
        y, _ = arma.arma_forward(field, params)
        return 0.5 * float((y.data**2).sum())

    theta0 = np.concatenate(
        [x.ravel(), w.ravel()] + [ab[name].ravel() for name in ab]
    )
    field, params = build(theta0)
    y, cache = arma.arma_forward(field, params)
    d_x, d_w, ar_grads = arma.arma_backward(y, field, params, cache)
    analytic = {
        "x": d_x.data.ravel(),
        "w": d_w.ravel(),
        "alpha_f": ar_grads.alpha_f.ravel(),
        "beta_f": ar_grads.beta_f.ravel(),
        "alpha_g": ar_grads.alpha_g.ravel(),
        "beta_g": ar_grads.beta_g.ravel(),
    }
    numeric = unpack(training.finite_diff_grad(loss_fn, theta0, h=1e-5))

    report, failures = {}, []
    for name in sizes:
        a, f = analytic[name], numeric[name]
        err = np.abs(a - f) / np.maximum.reduce([np.abs(a), np.abs(f), np.ones_like(a)])
        report[name] = float(err.max())
        for i in np.flatnonzero(err > tol):
            failures.append(
                f"{name}[{i}]: analytic {a[i]:.12g} vs finite-difference "
                f"{f[i]:.12g} (rel err {err[i]:.3e} > tol {tol:g})"
            )
    return report, failures


# ---------------------------------------------------------- stability ----


STABILITY_DEFAULTS = {
    "filter": None,
    "reparam": None,
    "scan": None,
    "seed": 0,
}


def _filter_report(f: filters.Length3Filter) -> dict:
    zeros = filters.zeros_of(f)
    pairs = [[zeros.z1.real, zeros.z1.imag]]
    moduli = [abs(zeros.z1)]
    if np.isfinite(zeros.z2.real):
        pairs.append([zeros.z2.real, zeros.z2.imag])
        moduli.append(abs(zeros.z2))
    return {
        "stable": filters.is_stable(f),
        "sum": f.fm1 + f.fp1,
        "taps": [f.fm1, f.f0, f.fp1],
        "zeros": pairs,
        "moduli": moduli,
    }


def cmd_stability(args) -> int:
    opts = _resolve(args, STABILITY_DEFAULTS)
    chosen = [k for k in ("filter", "reparam", "scan") if opts[k] is not None]
    if len(chosen) != 1:
        raise UsageError("give exactly one of --filter, --reparam, --scan")
    if opts["filter"] is not None:
        fm1, f0, fp1 = _parse_list(opts["filter"], float, 3)
        try:
            report = _filter_report(filters.Length3Filter(fm1, f0, fp1))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        print(json.dumps(report))
        return EXIT_OK
    if opts["reparam"] is not None:
        alpha, beta = _parse_list(opts["reparam"], float, 2)
        report = _filter_report(filters.materialize(filters.ReparamFilter(alpha, beta)))
        print(json.dumps(report))
        return EXIT_OK
    count = int(opts["scan"])
    if count < 1:
        raise UsageError(f"scan count must be positive, got {count}")
    rng = np.random.default_rng(int(opts["seed"]))
    points = rng.uniform(-10.0, 10.0, size=(count, 2))
    bad = []
    for alpha, beta in points:
        f = filters.materialize(filters.ReparamFilter(alpha, beta))
        if not (filters.is_stable(f) and filters.zeros_of(f).straddle_unit_circle()):
            bad.append((alpha, beta))
    print(json.dumps({"scanned": count, "all_stable": not bad, "failures": len(bad)}))
    if bad:
        for alpha, beta in bad[:10]:
            print(f"unstable materialization at alpha={alpha!r} beta={beta!r}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -------------------------------------------------------------- solve ----


SOLVE_DEFAULTS = {
    "input": None,
    "ma_kernel": None,
    "ma_dilation": 1,
    "ar_config": None,
    "out": None,
    "oracle": False,
    "timing": False,
    "repeats": 5,
}


def _ar_from_config(path, channels) -> filters.SeparableArKernel:
    if path is None:
        return filters.SeparableArKernel.identity(channels)
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read AR config {path}: {exc}") from exc
    mode = spec.get("mode", "raw")
    try:
        if mode == "identity":
            return filters.SeparableArKernel.identity(channels, depth=int(spec.get("depth", 1)))
        if mode == "reparam":
            return filters.SeparableArKernel.from_arrays(
                spec["alpha_f"], spec["beta_f"], spec["alpha_g"], spec["beta_g"]
            )
        if mode == "raw":
            to_filters = lambda rows: tuple(
                tuple(filters.Length3Filter(*taps) for taps in row) for row in rows
            )
            return filters.SeparableArKernel(to_filters(spec["f"]), to_filters(spec["g"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed AR config {path}: {exc}") from exc
    raise UsageError(f"unknown AR config mode {mode!r}")


def cmd_solve(args) -> int:
    opts = _resolve(args, SOLVE_DEFAULTS)
    if opts["input"] is None:
        raise UsageError("solve needs --input")
    field = FieldTensor.from_2d(_read_csv_grid(opts["input"]))
    if opts["ma_kernel"] is None:
        ma = MaKernel(np.ones((1, 1, 1, 1)))
    else:
        taps = _read_csv_grid(opts["ma_kernel"])
        if taps.shape[0] % 2 == 0 or taps.shape[1] % 2 == 0:
            raise UsageError(f"kernel must be odd-sized, got {taps.shape}")
        ma = MaKernel(taps[:, :, None, None], dilation=int(opts["ma_dilation"]))
    ar = _ar_from_config(opts["ar_config"], channels=1)

    pre = arma.ma_forward(field, ma)
    y, _ = arma.ar_forward(pre, ar)
    summary = {}
    if opts["timing"]:
        best = None
        for _ in range(max(1, int(opts["repeats"]))):
            begin = time.perf_counter()
            arma.ar_forward(pre, ar)
            elapsed = time.perf_counter() - begin
            best = elapsed if best is None else min(best, elapsed)
        summary["ar_seconds"] = best
    if opts["oracle"]:
        taps_per_channel = [
            filters.materialize_2d(ar, t) for t in range(ar.channels)
        ]
        dense = arma.ar_forward_dense(pre, taps_per_channel)
        summary["max_deviation"] = float(np.max(np.abs(dense.data - y.data)))
    if summary and opts["out"] is None:
        raise UsageError("--oracle/--timing print JSON to stdout; write the field with --out")
    _write_csv_grid(y.plane(), opts["out"])
    if summary:
        print(json.dumps(summary))
    return EXIT_OK


# -------------------------------------------------------------- train ----


TRAIN_DEFAULTS = {
    "mode": "reparam",
    "steps": 500,
    "lr": 1e-2,
    "seed": 0,
    "out": None,
    "size": 64,
    "samples": 4,
    "sigma": 6.0,
    "task": "blur",
    "channels": "1,4,1",
    "clip": 3.0,
    "raw_sum": 1.1,
}


def cmd_train(args) -> int:
    opts = _resolve(args, TRAIN_DEFAULTS)
    tasks = {
        "blur": lambda: training.ToyTask.wide_blur(
            samples=int(opts["samples"]), size=int(opts["size"]),
            sigma=float(opts["sigma"]), seed=int(opts["seed"]),
        ),
        "identity": lambda: training.ToyTask.identity_map(
            samples=int(opts["samples"]), size=int(opts["size"]), seed=int(opts["seed"]),
        ),
        "zero": lambda: training.ToyTask.zero_target(
            samples=int(opts["samples"]), size=int(opts["size"]), seed=int(opts["seed"]),
        ),
    }
    if opts["task"] not in tasks:
        raise UsageError(f"unknown task {opts['task']!r}")
    try:
        config = training.TrainConfig(
            channel_sizes=tuple(_parse_list(opts["channels"], int)),
            steps=int(opts["steps"]),
            learning_rate=float(opts["lr"]),
            clip_norm=float(opts["clip"]),
            seed=int(opts["seed"]),
            mode=str(opts["mode"]),
            raw_tap_sum=float(opts["raw_sum"]),
        )
        task = tasks[opts["task"]]()
        trace = training.train(task, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if opts["out"] is None:
        sys.stdout.write(trace.HEADER + "\n")
        for step, loss, max_out, ar_sum in trace.rows:
            sys.stdout.write(f"{step},{_fmt(loss)},{_fmt(max_out)},{_fmt(ar_sum)}\n")
    else:
        trace.write_csv(opts["out"])
    if trace.diverged:
        print(f"diverged at step {trace.divergence_step}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# --------------------------------------------------------------- main ----


def _add_option(parser, name, **kwargs):
    parser.add_argument(name, default=_UNSET, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="armakit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("erf", help="receptive-field analysis")
    _add_option(p, "--layers", help='layer list "K,d,a;K,d,a;..."')
    p.add_argument("--config", help="JSON file mirroring the flags")
    _add_option(p, "--mode", choices=["analytic", "empirical-1d", "empirical-2d"])
    _add_option(p, "--grid", type=int)
    _add_option(p, "--out")
    _add_option(p, "--channels", type=int)
    _add_option(p, "--seed", type=int)
    _add_option(p, "--kernels", choices=["uniform", "xavier"])
    _add_option(p, "--truncation", type=float)
    p.set_defaults(handler=cmd_erf, parser=p)

    p = subs.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("--config", help="JSON file mirroring the flags")
    _add_option(p, "--size", type=int)
    _add_option(p, "--channels", help='"S,T"')
    _add_option(p, "--q", type=int)
    _add_option(p, "--seed", type=int)
    _add_option(p, "--tol", type=float)
    p.set_defaults(handler=cmd_gradcheck, parser=p)

    p = subs.add_parser("stability", help="filter stability audit")
    p.add_argument("--config", help="JSON file mirroring the flags")
    _add_option(p, "--filter", help='"fm1,f0,fp1"')
    _add_option(p, "--reparam", help='"alpha,beta"')
    _add_option(p, "--scan", type=int, help="sample N random reparam points")
    _add_option(p, "--seed", type=int)
    p.set_defaults(handler=cmd_stability, parser=p)

    p = subs.add_parser("solve", help="single-layer forward solve")
    p.add_argument("--config", help="JSON file mirroring the flags")
    _add_option(p, "--input", help="field CSV (rectangular, no header)")
    _add_option(p, "--ma-kernel", dest="ma_kernel", help="kernel CSV (odd-sized)")
    _add_option(p, "--ma-dilation", dest="ma_dilation", type=int)
    _add_option(p, "--ar-config", dest="ar_config", help="AR kernel JSON")
    _add_option(p, "--out")
    _add_option(p, "--oracle", action="store_const", const=True)
    _add_option(p, "--timing", action="store_const", const=True)
    _add_option(p, "--repeats", type=int)
    p.set_defaults(handler=cmd_solve, parser=p)

    p = subs.add_parser("train", help="toy training demo")
    p.add_argument("--config", help="JSON file mirroring the flags")
    _add_option(p, "--mode", choices=["reparam", "raw"])
    _add_option(p, "--steps", type=int)
    _add_option(p, "--lr", type=float)
    _add_option(p, "--seed", type=int)
    _add_option(p, "--out")
    _add_option(p, "--size", type=int)
    _add_option(p, "--samples", type=int)
    _add_option(p, "--sigma", type=float)
    _add_option(p, "--task", choices=["blur", "identity", "zero"])
    _add_option(p, "--channels", help='channel sizes, e.g. "1,4,1"')
    _add_option(p, "--clip", type=float)
    _add_option(p, "--raw-sum", dest="raw_sum", type=float)
    p.set_defaults(handler=cmd_train, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularSpectrumError, erf.WraparoundError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

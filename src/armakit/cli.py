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

Each flag is declared once, as a row of ``COMMANDS``; that row drives the
argparse option, the config default and the config type check.
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


def _emit(text, destination):
    """Send primary data to the ``--out`` file, or to stdout without one."""
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text)


def _write_csv_grid(rows, destination):
    rows = np.asarray(rows, dtype=np.float64)
    # one %-format per row of Python floats gives the text of _fmt per entry
    template = ",".join(["%.17g"] * rows.shape[1])
    _emit("\n".join(template % tuple(row.tolist()) for row in rows) + "\n", destination)


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


def _check_config_value(key, kind, choices, value):
    # config values skip argparse, so check them against the flag's table row
    if kind is bool:
        expected, ok = "true or false", isinstance(value, bool)
    elif kind is int:
        expected, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        expected = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        expected, ok = "a string", isinstance(value, str)
    if not ok:
        raise UsageError(f"config key {key!r} must be {expected}, got {value!r}")
    if choices is not None and value not in choices:
        raise UsageError(
            f"config key {key!r} must be one of {list(choices)}, got {value!r}"
        )


def _resolve(args):
    """Merge flag values over config-file values over the table's defaults."""
    rows = {row[0]: row for row in COMMANDS[args.command][2]}
    settings = {name: default for name, _, default, _, _ in rows.values()}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(rows))
        if unknown:
            raise UsageError(f"unknown config keys: {unknown}")
        for key, value in loaded.items():
            _, kind, _, choices, _ = rows[key]
            _check_config_value(key, kind, choices, value)
        settings.update(loaded)
    for key in rows:
        value = getattr(args, key)
        if value is not _UNSET:
            settings[key] = value
    return settings


# ---------------------------------------------------------------- erf ----


def cmd_erf(args) -> int:
    opts = _resolve(args)
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
        _emit("\n".join(lines) + "\n", opts["out"])
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
    if opts["out"] is None:
        raise UsageError("empirical-2d writes a heatmap and needs --out")
    erf_map = erf.empirical_erf_2d(
        spec,
        grid=opts["grid"],
        channels=opts["channels"],
        seed=opts["seed"],
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


# ---------------------------------------------------------- gradcheck ----


def cmd_gradcheck(args) -> int:
    opts = _resolve(args)
    size = opts["size"]
    if size * size > arma.DENSE_SOLVE_LIMIT:
        raise UsageError(
            f"size {size} exceeds the {arma.DENSE_SOLVE_LIMIT}-pixel gradcheck guard"
        )
    s, t = _parse_list(opts["channels"], int, count=2)
    report, failures = gradcheck_report(
        size=size, in_channels=s, out_channels=t,
        depth=opts["q"], seed=opts["seed"], tol=float(opts["tol"]),
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


# --scan draws at most this many points, tested as arrays: the points, their
# taps and the zero test's companion matrices take about 100 bytes a point
SCAN_LIMIT = 10**6


def _filter_report(f: filters.Length3Filter) -> dict:
    z1, z2 = filters.zeros_of(f)
    pairs = [[z1.real, z1.imag]]
    moduli = [abs(z1)]
    if np.isfinite(z2.real):
        pairs.append([z2.real, z2.imag])
        moduli.append(abs(z2))
    return {
        "stable": filters.is_stable(f),
        "sum": f.fm1 + f.fp1,
        "taps": [f.fm1, f.f0, f.fp1],
        "zeros": pairs,
        "moduli": moduli,
    }


def cmd_stability(args) -> int:
    opts = _resolve(args)
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
    count = opts["scan"]
    if not 1 <= count <= SCAN_LIMIT:
        raise UsageError(f"scan count must be between 1 and {SCAN_LIMIT}, got {count}")
    rng = np.random.default_rng(opts["seed"])
    points = rng.uniform(-10.0, 10.0, size=(count, 2))
    taps = filters.materialize(points)
    bad = points[~(filters.stable_factors(taps) & filters.straddles_unit_circle(taps))]
    print(json.dumps({"scanned": count, "all_stable": not len(bad), "failures": len(bad)}))
    if len(bad):
        for alpha, beta in bad[:10].tolist():  # Python floats, so !r prints bare numbers
            print(f"unstable materialization at alpha={alpha!r} beta={beta!r}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -------------------------------------------------------------- solve ----


def _ar_from_config(path, channels, max_depth) -> filters.SeparableArKernel:
    if path is None:
        return filters.SeparableArKernel.identity(channels)
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read AR config {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise UsageError(f"malformed AR config {path}: expected a JSON object, got {spec!r}")
    mode = spec.get("mode", "raw")
    try:
        if mode == "identity":
            # identity factors cost work per factor but widen nothing, so the
            # field size is the only scale that bounds the cascade
            depth = spec.get("depth", 1)
            if type(depth) is not int or not 1 <= depth <= max_depth:
                raise ValueError(f"depth must be an integer in [1, {max_depth}], got {depth!r}")
            return filters.SeparableArKernel.identity(channels, depth=depth)
        if mode == "reparam":
            return filters.SeparableArKernel.from_arrays(
                spec["alpha_f"], spec["beta_f"], spec["alpha_g"], spec["beta_g"]
            )
        if mode == "raw":
            return filters.SeparableArKernel(spec["f"], spec["g"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed AR config {path}: {exc}") from exc
    raise UsageError(f"unknown AR config mode {mode!r}")


def cmd_solve(args) -> int:
    opts = _resolve(args)
    if opts["input"] is None:
        raise UsageError("solve needs --input")
    if opts["repeats"] < 1:
        raise UsageError(f"repeats must be positive, got {opts['repeats']}")
    field = FieldTensor.from_2d(_read_csv_grid(opts["input"]))
    if opts["ma_kernel"] is None:
        ma = MaKernel(np.ones((1, 1, 1, 1)))
    else:
        taps = _read_csv_grid(opts["ma_kernel"])
        if taps.shape[0] % 2 == 0 or taps.shape[1] % 2 == 0:
            raise UsageError(f"kernel must be odd-sized, got {taps.shape}")
        ma = MaKernel(taps[:, :, None, None], dilation=opts["ma_dilation"])
    ar = _ar_from_config(opts["ar_config"], channels=1, max_depth=max(field.height, field.width))

    y, _ = arma.layer_forward(field, ma, ar)
    summary = {}
    if opts["timing"] or opts["oracle"]:
        # --timing and --oracle run the autoregressive stage alone, on its input
        pre = arma.ma_forward(field, ma)
    if opts["timing"]:
        identity = MaKernel(np.ones((1, 1, 1, 1)))  # the layer is then its AR stage
        best = float("inf")
        for _ in range(opts["repeats"]):
            begin = time.perf_counter()
            arma.layer_forward(pre, identity, ar)
            best = min(best, time.perf_counter() - begin)
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


def cmd_train(args) -> int:
    opts = _resolve(args)
    sizes = {"samples": opts["samples"], "size": opts["size"], "seed": opts["seed"]}
    make_task = {
        "blur": lambda: training.ToyTask.wide_blur(sigma=float(opts["sigma"]), **sizes),
        "identity": lambda: training.ToyTask.identity_map(**sizes),
        "zero": lambda: training.ToyTask.zero_target(**sizes),
    }[opts["task"]]
    try:
        config = training.TrainConfig(
            channel_sizes=tuple(_parse_list(opts["channels"], int)),
            steps=opts["steps"],
            learning_rate=float(opts["lr"]),
            clip_norm=float(opts["clip"]),
            seed=opts["seed"],
            mode=opts["mode"],
            raw_tap_sum=float(opts["raw_sum"]),
        )
        trace = training.train(make_task(), config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(trace.csv_text(), opts["out"])
    if trace.diverged:
        print(f"diverged at step {trace.divergence_step}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# --------------------------------------------------------------- main ----


# Each subcommand maps to (help, handler, flags), and each flag row is
# (name, type, default, choices, help).  The option is --name with
# underscores as hyphens; type bool makes it a switch.
COMMANDS = {
    "erf": ("receptive-field analysis", cmd_erf, (
        ("layers", str, None, None, 'layer list "K,d,a;K,d,a;..."'),
        ("mode", str, "analytic", ("analytic", "empirical-1d", "empirical-2d"), None),
        ("grid", int, 64, None, None),
        ("out", str, None, None, None),
        ("channels", int, 1, None, None),
        ("seed", int, 0, None, None),
        ("kernels", str, "uniform", ("uniform", "xavier"), None),
        ("truncation", float, 1e-12, None, None),
    )),
    "gradcheck": ("analytic vs finite-difference gradients", cmd_gradcheck, (
        ("size", int, 6, None, None),
        ("channels", str, "1,1", None, '"S,T"'),
        ("q", int, 1, None, None),
        ("seed", int, 0, None, None),
        ("tol", float, 1e-5, None, None),
    )),
    "stability": ("filter stability audit", cmd_stability, (
        ("filter", str, None, None, '"fm1,f0,fp1"'),
        ("reparam", str, None, None, '"alpha,beta"'),
        ("scan", int, None, None, "sample N random reparam points"),
        ("seed", int, 0, None, None),
    )),
    "solve": ("single-layer forward solve", cmd_solve, (
        ("input", str, None, None, "field CSV (rectangular, no header)"),
        ("ma_kernel", str, None, None, "kernel CSV (odd-sized)"),
        ("ma_dilation", int, 1, None, None),
        ("ar_config", str, None, None, "AR kernel JSON"),
        ("out", str, None, None, None),
        ("oracle", bool, False, None, None),
        ("timing", bool, False, None, None),
        ("repeats", int, 5, None, None),
    )),
    "train": ("toy training demo", cmd_train, (
        ("mode", str, "reparam", ("reparam", "raw"), None),
        ("steps", int, 500, None, None),
        ("lr", float, 1e-2, None, None),
        ("seed", int, 0, None, None),
        ("out", str, None, None, None),
        ("size", int, 64, None, None),
        ("samples", int, 4, None, None),
        ("sigma", float, 6.0, None, None),
        ("task", str, "blur", ("blur", "identity", "zero"), None),
        ("channels", str, "1,4,1", None, 'channel sizes, e.g. "1,4,1"'),
        ("clip", float, 3.0, None, None),
        ("raw_sum", float, 1.1, None, None),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring without its last paragraph, which is for
    # readers of this module
    parser = _Parser(prog="armakit", description=__doc__.rsplit("\n\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file mirroring the flags")
        for name, kind, _, choices, flag_help in flags:
            how = ({"action": "store_const", "const": True} if kind is bool
                   else {"type": kind, "choices": choices})
            p.add_argument("--" + name.replace("_", "-"), default=_UNSET, help=flag_help, **how)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command][1](args)
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

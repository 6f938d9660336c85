"""Run every workload over several seeds and write the result as a baseline.

From the root of a checkout::

    python3 perfbench/baseline.py --out perfbench/baseline

For each workload this makes one untraced run per seed (default seeds 1 to
10) and one traced run on the first seed, with ``run_seconds`` from
``BENCHMARK.json``.  It writes ``baseline.json`` (every run's result line,
and per end-to-end metric the median, the quartiles and their distance as a
share of the median) and ``BASELINE.md`` (the same as tables, with the
traced per-layer metrics).  A spread above a third of the metric's bound is
flagged; ``setup_s`` is judged on its median only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']}", file=sys.stderr)
    return info, result


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def measure(spec, seeds, seconds):
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        info, traced = run_once(name, seeds[0], seconds, 1)
        report["machine"] = info["machine"]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            stats = quartiles([result["metrics"][metric["name"]]["value"] for _, result in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"],
                         steady=metric["name"] == "setup_s" or stats["spread"] < metric["bound"] / 3)
            end_to_end[metric["name"]] = stats
        report["workloads"][name] = {
            "why": workload["why"],
            "op": info["op"],
            "shapes": info["shapes"],
            "correct": all(result["correct"] for _, result in runs) and traced["correct"],
            "attempted": sum(result["attempted"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "end_to_end": end_to_end,
            "per_layer": {key: m["value"] for key, m in traced["metrics"].items()},
            "absent": info.get("absent", []),
            "runs": [result for _, result in runs],
        }
    return report


def markdown(spec, report) -> str:
    workloads = list(report["workloads"])
    machine = report["machine"]
    lines = [
        "# Baseline",
        "",
        f"{machine['cpu']}, nproc {machine['nproc']}, Python {machine['python']}, "
        f"numpy {machine['numpy']}, BLAS {machine['blas']}; {len(report['seeds'])} runs "
        f"of {report['run_seconds']} s per workload, seeds {report['seeds']}.",
        "",
        "## End to end",
        "",
        "Median over runs, with the quartile distance as a share of the median.",
        "",
        "| workload | correct | failed/attempted | " + " | ".join(
            f"{m['name']} ({m['unit']}, bound {m['bound']})" for m in spec["end_to_end"]) + " |",
        "|---" * (3 + len(spec["end_to_end"])) + "|",
    ]
    for name in workloads:
        entry = report["workloads"][name]
        cells = [
            f"{s['median']:.4g} ± {s['spread']:.1%}" + ("" if s["steady"] else " (unsteady)")
            for s in (entry["end_to_end"][m["name"]] for m in spec["end_to_end"])
        ]
        lines.append(f"| {name} | {entry['correct']} | {entry['failed']}/{entry['attempted']} | "
                     + " | ".join(cells) + " |")
    lines += [
        "",
        "## Per layer (traced run, median over traced ops)",
        "",
        "`.ms` is self time per op, `.calls` calls per op; absent boundaries read 0.",
        "",
        "| metric | unit | " + " | ".join(workloads) + " |",
        "|---|---|" + "---|" * len(workloads),
    ]
    for metric in spec["per_layer"]:
        values = [report["workloads"][name]["per_layer"][metric["name"]] for name in workloads]
        lines.append(f"| {metric['name']} | {metric['unit']} | "
                     + " | ".join(f"{v:.4g}" for v in values) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for the two files")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = measure(spec, args.seeds, spec["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    (args.out / "BASELINE.md").write_text(markdown(spec, report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

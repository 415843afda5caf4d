"""Run one workload under several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload trials --seeds 0-9 [--seconds 20]

Each run is a fresh `run.py` process.  For every metric of the report line
(the end-to-end metrics, by name and unit) it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
IQR over median, as one JSON object; with `--trace` it also summarises the
per-layer metrics of one traced run per seed.  A failed run stops it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also one traced run per seed")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    layers: dict[str, list[float]] = {}
    units = {}
    for seed in range(lo, hi + 1):
        report, _ = one_run(args.workload, seed, args.seconds, 0)
        for key, metric in report["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
        if args.trace:
            _, traced = one_run(args.workload, seed, args.seconds, 1)
            for key, metric in traced["metrics"].items():
                layers.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in report["metrics"].items()}),
              file=sys.stderr, flush=True)
    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "env": report["env"],
        "end_to_end": {k: {"unit": units[k], **summarise(v)} for k, v in values.items()},
    }
    if layers:
        summary["per_layer"] = {k: {"unit": units[k], **summarise(v)} for k, v in layers.items()}
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload {family,trials,fano,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  After setup (repeated, median reported
as `setup_s`) it runs rounds of the workload's fixed work until the next
round would end past `--seconds`, at least one.  Every artifact of every
round is checked: SHA-256 digests against `digests.json` when the seed is
recorded there (else against the run's first round), plus seed-independent
invariants.  With `--trace 1` half the time goes to untraced rounds and one
round more runs with spans recorded around every layer call; the spans are
written to `perfbench/.out/` once at the end.

Standard output ends with two JSON lines: a report with every end-to-end
metric of the workload by name, unit and sample count, the environment and
any failures; then the result object whose metrics are those listed in
BENCHMARK.json.  Any failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
LAYER_MODULES = ("bounds", "cli", "estimator", "experiments", "fileio", "mixture")


def import_library() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"psne_learn.{m}") for m in LAYER_MODULES}
    return SimpleNamespace(**modules)


def cap_threads() -> int:
    """Keep harness workers at or below the CPUs this process may use."""
    from psne_learn.experiments import thread_count

    nproc = len(os.sched_getaffinity(0))
    if thread_count() > nproc:
        os.environ["PSNE_LEARN_THREADS"] = str(nproc)
    return thread_count()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def environment(threads: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "psne_learn").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
    }


def recorded_digests(workload: str, seed: int) -> dict | None:
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    return table.get(str(seed)) or table.get("*")


def check_digests(ops, expected: dict) -> None:
    """Charge each digest mismatch to the operation that made the artifact."""
    for op in ops:
        have = {k: hashlib.sha256(v).hexdigest() for k, v in op.artifacts.items()}
        want = {k: v for k, v in expected.items() if k.split("/", 1)[0] == op.name}
        for key in sorted(set(have) | set(want)):
            if have.get(key) != want.get(key):
                op.problems.append(
                    f"digest of {key}: {have.get(key)} != expected {want.get(key)}"
                )


def round_digests(ops) -> dict:
    return {
        k: hashlib.sha256(v).hexdigest() for op in ops for k, v in op.artifacts.items()
    }


def _run_round(workload, in_process: bool):
    try:
        return workload.round(in_process=True) if in_process else workload.round()
    except Exception as exc:  # a raising operation counts as failed, the loop goes on
        return [workloads.Op("round", 0.0, 0.0, problems=[f"raised {type(exc).__name__}: {exc}"])]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    spec: dict | None = None,
    expected: dict | None = None,
) -> tuple[dict, dict]:
    """Run one workload; return (report, result) as printed by `main`.

    Artifacts are checked against `expected` digests, else against those
    recorded for the seed when `spec` is the benchmark's own, else against
    the run's first round.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    lib = import_library()
    threads = cap_threads()
    cls = workloads.WORKLOADS[name]
    if spec is None:
        spec = workloads.SPECS[name]
        expected = expected or recorded_digests(name, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        setups, startups = [], []
        for rep in range(SETUP_REPEATS):
            workdir = Path(tmp) / f"setup{rep}"
            workdir.mkdir()
            t0 = time.perf_counter()
            startups.append(workloads.startup_s(workdir))
            workload = cls(lib, seed, workdir, spec)
            workload.setup()
            setups.append(time.perf_counter() - t0)

        # the traced pass compares like with like: cli drives main() in-process
        in_process = trace and name == "cli"
        budget = seconds / 2 if trace else seconds
        rounds, round_totals = [], []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(_run_round(workload, in_process))
            round_totals.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(round_totals) > budget:
                break
        traced_ops, tracer = None, None
        if trace:
            with spans.Tracer() as tracer:
                traced_ops = _run_round(workload, in_process)
            rounds.append(traced_ops)

        for ops in rounds:
            check_digests(ops, expected or round_digests(rounds[0]))

    ops = [op for r in rounds for op in r]
    failures = [f"{op.name}: {p}" for op in ops for p in op.problems]
    failed = sum(1 for op in ops if op.problems)
    untraced = rounds[:-1] if trace else rounds
    walls = [sum(op.seconds for op in r) for r in untraced]
    wall_s = statistics.median(walls)
    cpu_s = statistics.median(sum(op.cpu_s for op in r) for r in untraced)
    setup_s = statistics.median(setups)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "cli":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    peak_rss_mb = rss_kb / 1024.0

    report_metrics = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
        "wall_s": {"value": wall_s, "unit": "s", "samples": len(walls)},
        "cpu_s": {"value": cpu_s, "unit": "s", "samples": len(walls)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
        "failed_frac": {"value": failed / len(ops), "unit": "frac", "samples": len(ops)},
    }
    if workload.trials_per_round and wall_s:
        report_metrics["trials_per_s"] = {
            "value": workload.trials_per_round / wall_s,
            "unit": "1/s",
            "samples": len(walls),
        }
    op_names = [op.name for op in untraced[0]]
    for op_name in op_names:
        times = [op.seconds for r in untraced for op in r if op.name == op_name]
        if name == "family":
            key, unit, scale = f"{op_name}_s", "s", 1.0
        elif name == "cli":
            key, unit, scale = f"{op_name}_ms", "ms", 1e3
        else:
            key, unit, scale = f"{name}.{op_name}_s", "s", 1.0
        report_metrics[key] = {
            "value": statistics.median(times) * scale,
            "unit": unit,
            "samples": len(times),
        }

    env = environment(threads)
    if trace:
        layer = spans.layer_metrics(tracer.spans)
        traced_wall = sum(op.seconds for op in traced_ops)
        layer["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        layer["cli.startup_ms"] = statistics.median(startups) * 1e3
        metrics = {
            m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer"]
        }
        trace_path = OUT / f"trace-{name}-{seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": seed,
                    "env": env,
                    "metrics": layer,
                    "spans": [
                        {"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                         "parent": s[4], "extra": s[5]}
                        for s in tracer.spans
                    ],
                }
            )
        )
    else:
        metrics = {
            m["name"]: {"value": report_metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "env": env,
        "metrics": report_metrics,
        "failures": failures[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psne_learn" / "__init__.py").is_file():
        print(f"error: no psne_learn sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

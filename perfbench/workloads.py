"""The four benchmark workloads: family, trials, fano and cli.

Each workload is one closed-loop client.  `setup()` generates the inputs
from the seed and warms up; `round()` runs the workload's fixed work once
and returns one `Op` per timed operation, carrying the bytes of every
artifact the operation produced and the invariant violations found in
them.  Only the library call (or, for `cli`, the child process) is timed;
writing and checking the artifacts is not.  Every round of a run repeats
the same inputs, so its artifacts must repeat byte for byte.

`SPECS` holds the sizes the benchmark runs; the tests pass tiny ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GRID = (-1.0, 0.0, 1.0)

SPECS = {
    "family": {
        "builds": {
            "family_n4k3": {"n": 4, "k": 3, "actions": [2, 2, 2, 2], "size": 23704},
            "family_n3k2a322": {"n": 3, "k": 2, "actions": [3, 2, 2], "size": 2996},
        },
    },
    "trials": {
        "n": 3,
        "k": 2,
        "m_schedule": [10, 100, 1000, 10000, 100000],
        "trials": 100,
        "family_size": 224,
    },
    "fano": {
        "runs": {
            "fano_n16k2": {"n": 16, "k": 2, "m_schedule": [1000, 10000], "trials": 10},
            "fano_n6k1": {"n": 6, "k": 1, "m_schedule": [0, 6, 12, 18, 30], "trials": 500},
        },
    },
    "cli": {
        "actions": [3, 2, 2],
        "k": 1,
        "family_size": 1580,
        "m": 200000,
        "experiment": {"n": 3, "k": 2, "m_schedule": [10, 1000], "trials": 50},
    },
}


def child_env() -> dict[str, str]:
    """This environment with the absolute `src` first on PYTHONPATH."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def startup_s(cwd: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI, as every call pays."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import psne_learn.cli"],
        cwd=cwd,
        env=child_env(),
        check=True,
        capture_output=True,
    )
    return time.perf_counter() - start


@dataclass
class Op:
    name: str
    seconds: float
    cpu_s: float
    artifacts: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def clocks() -> tuple[float, float]:
    """(wall, CPU) now; CPU counts every thread and every waited-for child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() + children.ru_utime + children.ru_stime
    return time.perf_counter(), cpu


def _timed(fn, *args, **kwargs):
    wall, cpu = clocks()
    result = fn(*args, **kwargs)
    wall_end, cpu_end = clocks()
    return result, wall_end - wall, cpu_end - cpu


def _results_problems(
    text: bytes, m_schedule, metrics, trials: int, check_row
) -> list[str]:
    """One row per (m, metric), each with the run's trial count."""
    rows = list(csv.DictReader(io.StringIO(text.decode())))
    problems = []
    keys = [(int(r["m"]), r["metric"]) for r in rows]
    want = [(m, metric) for m in m_schedule for metric in metrics]
    if sorted(keys) != sorted(want):
        problems.append(f"result rows {keys} != one per (m, metric) {want}")
    for r in rows:
        if int(r["trials"]) != trials:
            problems.append(f"row {r} reports {r['trials']} trials, ran {trials}")
        problem = check_row(int(r["m"]), r["metric"], float(r["value"]))
        if problem:
            problems.append(problem)
    return problems


def _frequency(m, metric, value):
    if not 0.0 <= value <= 1.0:
        return f"{metric} at m={m} is {value}, not a frequency"
    return None


def _write_results(lib, workdir: Path, name: str, table) -> dict[str, bytes]:
    path = workdir / f"{name}.csv"
    lib.fileio.write_results(str(path), table, "csv")
    meta = Path(str(path) + ".meta.json")
    return {
        f"{name}/results.csv": path.read_bytes(),
        f"{name}/results.csv.meta.json": meta.read_bytes(),
    }


class Family:
    """Candidate-family builds: the n=4,k=3 binary and (3,2,(3,2,2)) families."""

    def __init__(self, lib, seed: int, workdir: Path, spec: dict):
        self.lib, self.workdir, self.spec = lib, workdir, spec
        self.trials_per_round = 0

    def setup(self) -> None:
        self.lib.estimator.enumerate_psne_sets(3, 1, (2, 2, 2), GRID)

    def round(self) -> list[Op]:
        ops = []
        for name, cfg in self.spec["builds"].items():
            family, seconds, cpu = _timed(
                self.lib.estimator.enumerate_psne_sets,
                cfg["n"],
                cfg["k"],
                tuple(cfg["actions"]),
                GRID,
            )
            path = self.workdir / f"{name}.json"
            self.lib.fileio.write_family(str(path), family)
            data = path.read_bytes()
            op = Op(name, seconds, cpu, {f"{name}/family.json": data})
            count = len(json.loads(data)["candidates"])
            if count != cfg["size"]:
                op.problems.append(f"{name}: {count} sets, expected {cfg['size']}")
            ops.append(op)
        return ops


class Trials:
    """Recovery then generalization-gap Monte Carlo trials, n=3, k=2."""

    def __init__(self, lib, seed: int, workdir: Path, spec: dict):
        self.lib, self.workdir, self.spec = lib, workdir, spec
        common = dict(
            n=spec["n"],
            k=spec["k"],
            m_schedule=tuple(spec["m_schedule"]),
            trials=spec["trials"],
            seed=seed,
        )
        config = lib.experiments.ExperimentConfig
        self.configs = {
            "recovery": config(kind="recovery", **common),
            "gap": config(kind="gap", **common),
        }
        self.trials_per_round = 2 * len(spec["m_schedule"]) * spec["trials"]

    def setup(self) -> None:
        config = self.lib.experiments.ExperimentConfig
        warm = dict(n=self.spec["n"], k=self.spec["k"], m_schedule=(10,), trials=2)
        self.lib.experiments.run_recovery(config(kind="recovery", **warm))
        self.lib.experiments.run_generalization_gap(config(kind="gap", **warm))

    def _row_check(self, m, metric, value):
        if metric == "gap_min" and value < 0.0:
            return f"gap_min at m={m} is negative: {value}"
        if metric in ("superset", "exact", "subset"):
            return _frequency(m, metric, value)
        return None

    def round(self) -> list[Op]:
        ex = self.lib.experiments
        ops = []
        for name, runner, metrics in (
            ("recovery", ex.run_recovery, ("superset", "exact", "subset")),
            ("gap", ex.run_generalization_gap, ("gap_mean", "gap_quantile", "gap_min")),
        ):
            config = self.configs[name]
            table, seconds, cpu = _timed(runner, config)
            artifacts = _write_results(self.lib, self.workdir, name, table)
            op = Op(name, seconds, cpu, artifacts)
            op.problems += _results_problems(
                artifacts[f"{name}/results.csv"],
                config.m_schedule,
                metrics,
                config.trials,
                self._row_check,
            )
            size = table.meta["derived"]["family_size"]
            if size != self.spec["family_size"]:
                op.problems.append(f"{name}: family of {size}, expected {self.spec['family_size']}")
            ops.append(op)
        return ops


class Fano:
    """MAP decoding on influence instances against the Fano floor."""

    def __init__(self, lib, seed: int, workdir: Path, spec: dict):
        self.lib, self.workdir, self.spec = lib, workdir, spec
        config = lib.experiments.ExperimentConfig
        self.configs = {
            name: config(
                kind="fano",
                n=cfg["n"],
                k=cfg["k"],
                m_schedule=tuple(cfg["m_schedule"]),
                trials=cfg["trials"],
                seed=seed,
            )
            for name, cfg in spec["runs"].items()
        }
        self.trials_per_round = sum(
            len(cfg["m_schedule"]) * cfg["trials"] for cfg in spec["runs"].values()
        )

    def setup(self) -> None:
        config = self.lib.experiments.ExperimentConfig
        self.lib.experiments.run_fano(
            config(kind="fano", n=4, k=1, m_schedule=(0, 10), trials=2)
        )

    def round(self) -> list[Op]:
        ops = []
        for name, config in self.configs.items():
            table, seconds, cpu = _timed(self.lib.experiments.run_fano, config)
            artifacts = _write_results(self.lib, self.workdir, name, table)
            size = 2**config.n
            q = 2.0 / size

            def check(m, metric, value, config=config, size=size, q=q):
                if metric == "fano_bound":
                    bound = self.lib.bounds.fano_error_lower_bound(
                        m, config.n, config.k, size, q
                    )
                    if value != bound:
                        return f"fano_bound at m={m} is {value!r}, formula gives {bound!r}"
                    return None
                return _frequency(m, metric, value)

            op = Op(name, seconds, cpu, artifacts)
            op.problems += _results_problems(
                artifacts[f"{name}/results.csv"],
                config.m_schedule,
                ("map_error", "fano_bound"),
                config.trials,
                check,
            )
            ops.append(op)
        return ops


class Cli:
    """The five subcommands run as a user runs them, one child each.

    Children get an absolute `src` on PYTHONPATH and run in a temp
    directory; stdout and stderr are captured apart.  `round(in_process=
    True)` drives `cli.main(argv)` in this process instead, which is what
    the traced pass uses so that `fileio` spans are visible.
    """

    def __init__(self, lib, seed: int, workdir: Path, spec: dict):
        self.lib, self.seed, self.workdir, self.spec = lib, seed, workdir, spec
        self.env = child_env()
        exp = spec["experiment"]
        self.trials_per_round = len(exp["m_schedule"]) * exp["trials"]

    def setup(self) -> None:
        spec = self.spec
        actions = tuple(spec["actions"])
        joint = int(np.prod(actions))
        self.family = self.lib.estimator.enumerate_psne_sets(
            len(actions), spec["k"], actions, GRID
        )
        rng = np.random.default_rng(self.seed)
        eligible = [i for i, c in enumerate(self.family.candidates) if len(c) >= 2]
        self.psne = eligible[int(rng.integers(len(eligible)))]
        r = len(self.family.candidates[self.psne])
        interval = self.lib.mixture.mixture_interval(r, joint)
        q = interval.lower + (interval.upper - interval.lower) * float(rng.uniform(0.2, 0.8))
        eps, delta = float(rng.uniform(0.05, 0.2)), float(rng.uniform(0.01, 0.2))
        m_theory, n = int(rng.integers(1, 100)), len(actions)
        b = self.lib.bounds
        self.theory_stdout = (
            json.dumps(
                {
                    "beta": b.superset_recovery_margin(r, q, joint),
                    "kl": b.fano_pair_kl(q, joint),
                    "m_sufficient": b.sufficient_samples(eps, delta, len(self.family)),
                    "fano_bound": b.fano_error_lower_bound(m_theory, n, spec["k"], joint, q),
                },
                sort_keys=True,
            )
            + "\n"
        ).encode()
        exp = spec["experiment"]
        self.commands = {
            "enumerate": [
                "enumerate", "--n", str(n), "--k", str(spec["k"]),
                "--actions", ",".join(map(str, actions)), "--out", "family.json",
            ],
            "sample": [
                "sample", "--family", "family.json", "--psne", str(self.psne),
                "--q", repr(q), "--m", str(spec["m"]), "--seed", str(self.seed),
                "--out", "data.csv",
            ],
            "fit": ["fit", "--family", "family.json", "--data", "data.csv", "--out", "fit.json"],
            "theory": [
                "theory", "--beta", "--r", str(r), "--q", repr(q), "--joint", str(joint),
                "--fano-kl", "--m-sufficient", "--eps", repr(eps), "--delta", repr(delta),
                "--d-h", str(len(self.family)), "--fano-bound", "--m", str(m_theory),
                "--n", str(n), "--k", str(spec["k"]),
            ],
            "experiment": [
                "experiment", "--kind", "recovery", "--n", str(exp["n"]), "--k", str(exp["k"]),
                "--m-schedule", ",".join(map(str, exp["m_schedule"])),
                "--trials", str(exp["trials"]), "--seed", str(self.seed),
                "--out", "results.csv",
            ],
        }
        self.outputs = {
            "enumerate": ["family.json"],
            "sample": ["data.csv"],
            "fit": ["fit.json"],
            "theory": [],
            "experiment": ["results.csv", "results.csv.meta.json"],
        }

    def _child(self, argv):
        proc, seconds, cpu = _timed(
            subprocess.run,
            [sys.executable, "-m", "psne_learn.cli", *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
        )
        return proc.returncode, proc.stdout, proc.stderr, seconds, cpu

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        absolute = [
            str(self.workdir / a) if a.endswith((".json", ".csv")) else a for a in argv
        ]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds, cpu = _timed(self.lib.cli.main, absolute)
        return code, out.getvalue().encode(), err.getvalue().encode(), seconds, cpu

    def round(self, in_process: bool = False) -> list[Op]:
        ops = []
        for sub, argv in self.commands.items():
            name = f"cli_{sub}"
            for filename in self.outputs[sub]:
                (self.workdir / filename).unlink(missing_ok=True)
            code, stdout, stderr, seconds, cpu = (
                self._in_process(argv) if in_process else self._child(argv)
            )
            op = Op(name, seconds, cpu, {f"{name}/stdout": stdout})
            if code != 0:
                op.problems.append(
                    f"{name} exited {code}: {stderr.decode(errors='replace')[-400:]}"
                )
                ops.append(op)
                continue
            for filename in self.outputs[sub]:
                op.artifacts[f"{name}/{filename}"] = (self.workdir / filename).read_bytes()
            op.problems += self._check(sub, op)
            ops.append(op)
        return ops

    def _check(self, sub: str, op: Op) -> list[str]:
        art = {key.split("/", 1)[1]: value for key, value in op.artifacts.items()}
        if sub == "theory":
            if art["stdout"] != self.theory_stdout:
                return [f"theory printed {art['stdout']!r}, library gives {self.theory_stdout!r}"]
            return []
        if art["stdout"]:
            return [f"{sub} wrote to stdout: {art['stdout'][:200]!r}"]
        if sub == "enumerate":
            count = len(json.loads(art["family.json"])["candidates"])
            if count != self.spec["family_size"]:
                return [f"enumerate wrote {count} sets, expected {self.spec['family_size']}"]
        elif sub == "sample":
            lines = art["data.csv"].decode().splitlines()
            actions = self.spec["actions"]
            header = ",".join(f"player_{p}" for p in range(1, len(actions) + 1))
            allowed = {
                ",".join(str(a + 1) for a in np.unravel_index(i, actions))
                for i in range(int(np.prod(actions)))
            }
            if lines[0] != header or len(lines) != self.spec["m"] + 1:
                return [f"data.csv has header {lines[0]!r} and {len(lines) - 1} rows"]
            if not set(lines[1:]) <= allowed:
                return ["data.csv holds actions outside the action space"]
        elif sub == "fit":
            fit = json.loads(art["fit.json"])
            sets = {tuple(c.indices) for c in self.family.candidates}
            if tuple(fit["psne"]) not in sets:
                return [f"fit chose {fit['psne']}, not a family member"]
            if not 0.0 < fit["q_hat"] < 1.0 or not 0.0 <= fit["objective"] <= 1.0:
                return [f"fit out of range: {fit}"]
        elif sub == "experiment":
            exp = self.spec["experiment"]
            return _results_problems(
                art["results.csv"],
                exp["m_schedule"],
                ("superset", "exact", "subset"),
                exp["trials"],
                _frequency,
            )
        return []


WORKLOADS = {"family": Family, "trials": Trials, "fano": Fano, "cli": Cli}

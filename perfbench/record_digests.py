"""Record the SHA-256 digest of every workload artifact for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME ...]

Runs setup and one round of each workload per seed and writes the digests
to `perfbench/digests.json`, which `run.py` compares every round against.
The table in the repository was recorded on the library as it stood when
the benchmark was added; record again only for a change that is meant to
alter output bytes, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(name: str, seed: int, lib) -> dict:
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix=f"record-{name}-") as tmp:
        workload = workloads.WORKLOADS[name](lib, seed, Path(tmp), workloads.SPECS[name])
        workload.setup()
        ops = workload.round()
    problems = [f"{op.name}: {p}" for op in ops for p in op.problems]
    if problems:
        raise SystemExit(f"{name} seed {seed} failed its checks: {problems}")
    return run.round_digests(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    lib = run.import_library()
    run.cap_threads()
    run.OUT.mkdir(exist_ok=True)
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        # the family builds take no seed: one entry serves every seed
        seeds = ["*"] if name == "family" else [str(s) for s in range(lo, hi + 1)]
        entry = table.setdefault(name, {})
        for seed in seeds:
            entry[seed] = record(name, 0 if seed == "*" else int(seed), lib)
            print(f"{name} {seed}", file=sys.stderr, flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

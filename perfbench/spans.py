"""In-memory span recording around calls into the psne_learn layers.

`Tracer.install()` replaces every public module-level function of each
layer module with a recording wrapper, under every name the package binds
it to (so `experiments.fit_mle`, `influence.enumerate_psne` and the
package-level re-exports all record), plus `MixtureModel.sample`.  Nothing
under `src/` changes: the wrapping lives only in the benchmark process and
`uninstall()` puts the originals back.

A span is (id, name, start_ns, end_ns, parent_id, extra).  Spans opened on
a harness worker thread with nothing open on that thread take as parent the
innermost span open on the thread that installed the tracer, which is the
harness call that dispatched the trial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time

import numpy as np

LAYERS = (
    "games",
    "mixture",
    "estimator",
    "bounds",
    "influence",
    "experiments",
    "fileio",
    "cli",
)


def _family_extra(args, kwargs, result):
    return {"family_size": len(result), "member_bytes": len(result) * result.space.joint_size}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _trials_extra(args, kwargs, result):
    config = args[0]
    return {"trials": len(config.m_schedule) * config.trials}


HARNESSES = ("run_recovery", "run_generalization_gap", "run_fano")

# span extras: computed after the span's end timestamp, so not in its time
EXTRAS = {
    **{f"experiments.{h}": _trials_extra for h in HARNESSES},
    "estimator.enumerate_psne_sets": _family_extra,
    "estimator.fit_mle": lambda a, k, r: {"clamped": bool(r.clamped)},
    "mixture.sample": lambda a, k, r: {"draws": int(a[1] if len(a) > 1 else k["m"])},
    "games.enumerate_psne": lambda a, k, r: {"joint": int(a[0].space.joint_size)},
    "influence.map_decoder": lambda a, k, r: {
        "distinct": int(np.unique(a[0].indices).size)
    },
    "fileio.write_family": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "fileio.write_dataset": lambda a, k, r: {"rows": int(a[1].m)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._home = threading.get_ident()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _wrap(self, name: str, fn, naming=None):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home) or [None]
                parent = home[-1] if threading.get_ident() != self._home else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            label = naming(args, kwargs) if naming else name
            info = extra(args, kwargs, result) if extra else None
            self.spans.append((span_id, label, start, end, parent, info))
            return result

        return traced

    def install(self) -> "Tracer":
        self._home = threading.get_ident()
        pkg = importlib.import_module("psne_learn")
        modules = {layer: importlib.import_module(f"psne_learn.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    naming = _cli_name if (layer, attr) == ("cli", "main") else None
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, naming)
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        model = modules["mixture"].MixtureModel
        self._patch(model, "sample", self._wrap("mixture.sample", model.sample))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered_ns(children.get(sid, []), start, end)
        for sid, _, start, end, _, _ in spans
    }


def _quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90); a single value is both, no values give zeros."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced round.

    Counts are exact; a layer the round never called reports zero.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(end - start for _, _, start, end, _, _ in by_name.get(name, ())) / 1e9

    def durations(name, unit):
        return [(end - start) / unit for _, _, start, end, _, _ in by_name.get(name, ())]

    def total(name, key):
        return sum(info[key] for *_, info in by_name.get(name, ()))

    def self_s(prefix):
        return sum(selfs[s[0]] for s in spans if s[1].startswith(prefix)) / 1e9

    out: dict[str, float] = {}
    out["estimator.enumerate_psne_sets.calls"] = calls("estimator.enumerate_psne_sets")
    out["estimator.enumerate_psne_sets.busy_s"] = busy("estimator.enumerate_psne_sets")
    out["estimator.family_size"] = total("estimator.enumerate_psne_sets", "family_size")
    out["estimator.member_matrix_bytes"] = total("estimator.enumerate_psne_sets", "member_bytes")
    fits = calls("estimator.fit_mle")
    out["estimator.fit_mle.calls"] = fits
    out["estimator.fit_mle.busy_s"] = busy("estimator.fit_mle")
    p50, p90 = _quantiles(durations("estimator.fit_mle", 1e3))
    out["estimator.fit_mle.p50_us"], out["estimator.fit_mle.p90_us"] = p50, p90
    out["estimator.fit_mle.clamp_rate"] = (
        total("estimator.fit_mle", "clamped") / fits if fits else 0.0
    )
    draws = total("mixture.sample", "draws")
    sample_busy = busy("mixture.sample")
    out["mixture.sample.calls"] = calls("mixture.sample")
    out["mixture.sample.busy_s"] = sample_busy
    out["mixture.sample.draws"] = draws
    out["mixture.sample.ns_per_draw"] = sample_busy * 1e9 / draws if draws else 0.0
    out["mixture.expected_nll.calls"] = calls("mixture.expected_nll")
    out["mixture.expected_nll.busy_s"] = busy("mixture.expected_nll")
    for harness in HARNESSES:
        out[f"experiments.{harness}.busy_s"] = busy(f"experiments.{harness}")
    out["experiments.self_s"] = self_s("experiments.")
    out["experiments.trials"] = sum(total(f"experiments.{h}", "trials") for h in HARNESSES)
    out["influence.influence_game.calls"] = calls("influence.influence_game")
    out["influence.influence_game.busy_s"] = busy("influence.influence_game")
    out["influence.influence_game.self_s"] = self_s("influence.influence_game")
    out["games.enumerate_psne.calls"] = calls("games.enumerate_psne")
    out["games.enumerate_psne.busy_s"] = busy("games.enumerate_psne")
    out["games.enumerate_psne.joint_swept"] = total("games.enumerate_psne", "joint")
    out["influence.map_decoder.calls"] = calls("influence.map_decoder")
    out["influence.map_decoder.busy_s"] = busy("influence.map_decoder")
    p50, p90 = _quantiles(durations("influence.map_decoder", 1e6))
    out["influence.map_decoder.p50_ms"], out["influence.map_decoder.p90_ms"] = p50, p90
    out["influence.map_decoder.distinct_obs"] = total("influence.map_decoder", "distinct")
    for fn in (
        "write_family",
        "read_family",
        "write_dataset",
        "read_dataset",
        "write_fit",
        "write_results",
    ):
        out[f"fileio.{fn}.busy_s"] = busy(f"fileio.{fn}")
    out["fileio.write_family.bytes"] = total("fileio.write_family", "bytes")
    out["fileio.write_dataset.rows"] = total("fileio.write_dataset", "rows")
    for sub in ("enumerate", "sample", "fit", "theory", "experiment"):
        out[f"cli.{sub}.self_ms"] = self_s(f"cli.{sub}") * 1e3
    out["bounds.calls"] = sum(len(v) for k, v in by_name.items() if k.startswith("bounds."))
    out["trace.spans"] = len(spans)
    return out

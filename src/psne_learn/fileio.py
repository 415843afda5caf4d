"""Readers and writers for games, datasets, families, fits, and results.

All writers are atomic (temp file in the target directory, then rename)
and deterministic: identical inputs produce identical bytes.  JSON is
written with sorted keys; floats round-trip through repr.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from typing import Mapping

import numpy as np

from .errors import ConfigError, InputError
from .estimator import CandidateFamily, FitResult
from .experiments import ExperimentConfig, ResultRow, ResultTable
from .games import ActionSpace, PolymatrixGame, PsneSet
from .mixture import Dataset

RESULT_COLUMNS = ("m", "metric", "value", "stderr", "trials")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        # name the path the caller asked for, not the random temp name
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextmanager
def _json_payload(path: str, kind: str):
    """Yield a JSON file's payload for the caller to build from.

    Malformed JSON, or a missing key or mistyped value met while building,
    becomes an InputError naming the file; a file that cannot be opened
    stays an OSError.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
        yield payload
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed {kind} file {path}: {exc}") from exc


def _read_lines(path: str, error: type[Exception]):
    """Yield a text file's lines; bytes that do not decode raise `error` naming it."""
    try:
        with open(path) as handle:
            yield from handle
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not readable text: {exc}") from None


# -- games -------------------------------------------------------------

def write_game(path: str, game: PolymatrixGame) -> None:
    n = game.n
    payload = {
        "n": n,
        "actions": list(game.space.counts),
        "neighbors": {str(i): list(game.neighbors(i)) for i in range(1, n + 1)},
        "unary": {str(i): list(game.unary_table(i)) for i in range(1, n + 1)},
        "pairwise": {
            f"{i},{j}": [float(v) for v in game.pairwise_table(i, j).ravel()]
            for i in range(1, n + 1)
            for j in game.neighbors(i)
        },
    }
    _atomic_write(path, _dump_json(payload))


def read_game(path: str) -> PolymatrixGame:
    with _json_payload(path, "game") as payload:
        n = int(payload["n"])
        sizes = [int(s) for s in payload["actions"]]
        if len(sizes) != n:
            raise InputError(f"{len(sizes)} action sizes for n={n}")
        neighbors = {int(i): [int(j) for j in js] for i, js in payload["neighbors"].items()}
        unary = {int(i): vals for i, vals in payload["unary"].items()}
        pairwise = {}
        for key, flat in payload.get("pairwise", {}).items():
            i, j = (int(t) for t in key.split(","))
            pairwise[(i, j)] = np.asarray(flat, dtype=float).reshape(
                sizes[i - 1], sizes[j - 1]
            )
    return PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)


# -- datasets ----------------------------------------------------------

def write_dataset(path: str, data: Dataset) -> None:
    header = ",".join(f"player_{p}" for p in range(1, data.space.n + 1))
    lines = [header]
    for row in data.actions_matrix():
        lines.append(",".join(str(int(a)) for a in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_dataset(path: str, space: ActionSpace | None = None) -> Dataset:
    """Parse an observations CSV; malformed content names its line number.

    Without an explicit action space, per-player sizes are inferred as the
    larger of 2 and the largest action seen in each column.
    """
    reader = csv.reader(_read_lines(path, InputError))
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path}:1: missing header row")
    n = len(header)
    expected = [f"player_{p}" for p in range(1, n + 1)]
    if header != expected or n == 0:
        raise InputError(f"{path}:1: header must be player_1..player_n, got {header}")
    if space is not None and space.n != n:
        raise InputError(f"{path}:1: header has {n} players, expected {space.n}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n:
            raise InputError(
                f"{path}:{lineno}: expected {n} cells, got {len(row)}"
            )
        try:
            actions = [int(cell) for cell in row]
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: non-integer action in {row}"
            ) from None
        for p, a in enumerate(actions, start=1):
            limit = space.counts[p - 1] if space is not None else None
            if a < 1 or (limit is not None and a > limit):
                raise InputError(
                    f"{path}:{lineno}: action {a} for player {p} out of range"
                )
        rows.append(actions)
    if space is None:
        arr = np.asarray(rows, dtype=np.int64)
        counts = (
            tuple(max(2, int(c)) for c in arr.max(axis=0)) if rows else (2,) * n
        )
        space = ActionSpace(counts)
    return Dataset.from_actions(space, rows)


# -- candidate families and fits ----------------------------------------

def write_family(path: str, family: CandidateFamily) -> None:
    payload = {
        "actions": list(family.space.counts),
        "provenance": family.provenance,
        "candidates": [list(c.indices) for c in family.candidates],
    }
    _atomic_write(path, _dump_json(payload))


def read_family(path: str) -> CandidateFamily:
    with _json_payload(path, "family") as payload:
        return CandidateFamily(
            ActionSpace(tuple(int(s) for s in payload["actions"])),
            [PsneSet(c) for c in payload["candidates"]],
            str(payload.get("provenance", "explicit list")),
        )


def write_fit(path: str, fit: FitResult) -> None:
    payload = {
        "psne": list(fit.psne.indices),
        "q_hat": fit.q_hat,
        "objective": fit.objective,
        "clamped": fit.clamped,
    }
    _atomic_write(path, _dump_json(payload))


def read_fit(path: str) -> FitResult:
    with _json_payload(path, "fit") as payload:
        return FitResult(
            psne=PsneSet(payload["psne"]),
            q_hat=float(payload["q_hat"]),
            objective=float(payload["objective"]),
            clamped=bool(payload["clamped"]),
        )


# -- result tables -------------------------------------------------------

def write_results(path: str, table: ResultTable, fmt: str = "csv") -> None:
    """Write a result table as CSV (plus .meta.json sidecar) or as JSON."""
    if fmt == "csv":
        lines = [",".join(RESULT_COLUMNS)]
        for row in table.rows:
            lines.append(
                f"{row.m},{row.metric},{row.value!r},{row.stderr!r},{row.trials}"
            )
        _atomic_write(path, "\n".join(lines) + "\n")
        _atomic_write(path + ".meta.json", _dump_json(table.meta))
    elif fmt == "json":
        payload = {"meta": table.meta, "rows": [asdict(row) for row in table.rows]}
        _atomic_write(path, _dump_json(payload))
    else:
        raise InputError(f"unknown results format {fmt!r}")


def read_results_json(path: str) -> ResultTable:
    with _json_payload(path, "results") as payload:
        rows = tuple(
            ResultRow(
                m=int(r["m"]),
                metric=str(r["metric"]),
                value=float(r["value"]),
                stderr=float(r["stderr"]),
                trials=int(r["trials"]),
            )
            for r in payload["rows"]
        )
        return ResultTable(rows, payload["meta"])


# -- experiment configuration --------------------------------------------

_LIST_KEYS = {"actions", "grid", "m_schedule", "truth_psne"}
_CONFIG_KEYS = {
    "kind": str,
    "n": int,
    "k": int,
    "actions": int,
    "grid": float,
    "q": float,
    "m_schedule": int,
    "trials": int,
    "seed": int,
    "delta": float,
    "truth_psne": int,
    "fano_q": float,
}
_FIELD_FOR_KEY = {
    "actions": "action_sizes",
    "q": "q_star",
}


def _parse_value(key: str, raw: str, problems: list[str]):
    caster = _CONFIG_KEYS[key]
    try:
        if key in _LIST_KEYS:
            return tuple(caster(part.strip()) for part in raw.split(",") if part.strip())
        return caster(raw.strip())
    except ValueError:
        problems.append(f"cannot parse {key}={raw!r} as {caster.__name__}")
        return None


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    problems: list[str] = []
    for lineno, line in enumerate(_read_lines(path, ConfigError), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            problems.append(f"{path}:{lineno}: expected key = value, got {text!r}")
            continue
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_KEYS:
            problems.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"{path}:{lineno}: duplicate key {key!r}")
            continue
        values[key] = raw
    if problems:
        raise ConfigError("; ".join(problems))
    return values


def parse_config(
    path: str | None = None, overrides: Mapping[str, object] | None = None
) -> ExperimentConfig:
    """Resolve a config from an optional file plus flag overrides.

    Overrides (already-typed values keyed like the file keys) win over
    file values.  All violations are reported together.
    """
    problems: list[str] = []
    fields: dict[str, object] = {}
    if path is not None:
        for key, raw in read_config_file(path).items():
            value = _parse_value(key, raw, problems)
            if value is not None:
                fields[_FIELD_FOR_KEY.get(key, key)] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _CONFIG_KEYS:
            problems.append(f"unknown configuration key {key!r}")
            continue
        fields[_FIELD_FOR_KEY.get(key, key)] = value
    if "kind" not in fields:
        problems.append("missing required key: kind")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**fields)

"""Readers and writers for games, datasets, families, fits, and results.

All writers are atomic (temp file in the target directory, then rename)
and deterministic: identical inputs produce identical bytes.  JSON is
written with sorted keys; floats round-trip through repr.
"""

from __future__ import annotations

import csv
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from typing import Mapping

import numpy as np

from .errors import ConfigError, InputError
from .estimator import CandidateFamily, FitResult
from .experiments import ExperimentConfig, ResultRow, ResultTable
from .games import ActionSpace, PolymatrixGame, PsneSet, _integer, bounded_joint_size
from .mixture import Dataset, check_joint_size

RESULT_COLUMNS = ("m", "metric", "value", "stderr", "trials")
# an action cell: ASCII digits after an optional sign, padded by ASCII
# whitespace at most; `int` alone also reads "1_0" as 10 and "\u0661" as 1
_ACTION_CELL = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


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
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
        n = _integer(payload["n"], "n")
        sizes = list(payload["actions"])
        if len(sizes) != n:
            raise InputError(f"{len(sizes)} action sizes for n={n}")
        neighbors = {int(i): js for i, js in payload["neighbors"].items()}
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
    """Write one CSV row of 1-based actions per observation, in sample order.

    Each distinct observed joint action is formatted once; the rows are
    then laid out by each observation's slot among the distinct ones.
    """
    header = ",".join(f"player_{p}" for p in range(1, data.space.n + 1))
    distinct, slots = np.unique(data.indices, return_inverse=True)
    texts = [
        ",".join(map(str, row))
        for row in Dataset(data.space, distinct).actions_matrix().tolist()
    ]
    lines = [header, *map(texts.__getitem__, slots.tolist())]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_dataset(path: str, space: ActionSpace | None = None) -> Dataset:
    """Parse an observations CSV; malformed content names its line number.

    Each distinct row is parsed and checked once, at its first appearance,
    so the first malformed row in file order is the one reported.  Without
    an explicit action space, per-player sizes are inferred as the larger
    of 2 and the largest action seen in each column.
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
    slot_of: dict[tuple[str, ...], int] = {}
    distinct: list[list[int]] = []
    slots: list[int] = []
    for row in reader:
        if not row:
            continue
        key = tuple(row)
        slot = slot_of.get(key)
        if slot is None:
            # reader.line_num is the row's last line, also after a quoted
            # cell that spans lines
            where = f"{path}:{reader.line_num}"
            if len(row) != n:
                raise InputError(f"{where}: expected {n} cells, got {len(row)}")
            if not all(map(_ACTION_CELL.fullmatch, row)):
                raise InputError(f"{where}: non-integer action in {row}")
            actions = [int(cell) for cell in row]
            for p, a in enumerate(actions, start=1):
                limit = space.counts[p - 1] if space is not None else None
                if a < 1 or (limit is not None and a > limit):
                    raise InputError(f"{where}: action {a} for player {p} out of range")
            slot = slot_of[key] = len(distinct)
            distinct.append(actions)
        slots.append(slot)
    if space is None:
        space = ActionSpace([max(2, *column) for column in zip(*distinct)] or (2,) * n)
    indices = Dataset.from_actions(space, distinct).indices
    return Dataset(space, indices[np.asarray(slots, dtype=np.int64)])


# -- candidate families and fits ----------------------------------------

def write_family(path: str, family: CandidateFamily) -> None:
    ends = family.offsets
    payload = {
        "actions": list(family.space.counts),
        "provenance": family.provenance,
        "candidates": [family.indices[a:b].tolist() for a, b in zip(ends, ends[1:])],
    }
    _atomic_write(path, _dump_json(payload))


def read_family(path: str) -> CandidateFamily:
    with _json_payload(path, "family") as payload:
        sizes = tuple(payload["actions"])
        check_joint_size(bounded_joint_size(len(sizes), sizes))
        return CandidateFamily(
            ActionSpace(sizes),
            payload["candidates"],
            str(payload.get("provenance", "explicit list")),
        )


def write_fit(path: str, fit: FitResult) -> None:
    payload = {
        "psne": fit.psne.indices.tolist(),
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

def parse_list(cast):
    """A parser of comma-separated `cast` values; blank parts are skipped."""

    def parse(text: str) -> tuple:
        return tuple(cast(part.strip()) for part in text.split(",") if part.strip())

    parse.__name__ = f"{cast.__name__} list"
    return parse


# every experiment setting: config-file key (also the `experiment` flag,
# with "_" written "-") -> (ExperimentConfig field, parser, help)
EXPERIMENT_KEYS = {
    "kind": ("kind", str, "recovery, gap, or fano"),
    "n": ("n", int, "number of players"),
    "k": ("k", int, "max parents per player"),
    "actions": ("action_sizes", parse_list(int), "action counts, e.g. 2,3,2 (default all 2)"),
    "grid": ("grid", parse_list(float), "payoff grid, e.g. -1,0,1"),
    "q": ("q_star", float, "true signal level"),
    "m_schedule": ("m_schedule", parse_list(int), "increasing sample sizes"),
    "trials": ("trials", int, "trials per sample size"),
    "seed": ("seed", int, "master seed"),
    "delta": ("delta", float, "gap quantile is 1 - delta"),
    "truth_psne": ("truth_psne", parse_list(int), "joint indices of the truth"),
    "fano_q": ("fano_q", float, "override the 2/|A| default"),
}


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
        if key not in EXPERIMENT_KEYS:
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
            field, parse, _ = EXPERIMENT_KEYS[key]
            try:
                fields[field] = parse(raw)
            except ValueError:
                problems.append(f"cannot parse {key}={raw!r} as {parse.__name__}")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in EXPERIMENT_KEYS:
            problems.append(f"unknown configuration key {key!r}")
            continue
        fields[EXPERIMENT_KEYS[key][0]] = value
    if "kind" not in fields:
        problems.append("missing required key: kind")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**fields)

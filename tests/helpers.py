"""Independent oracles shared across the test suite.

These deliberately re-derive results from first principles (raw table
lookups, exhaustive loops over the joint space) instead of calling the
library's equilibrium or likelihood code paths, so agreement is evidence
rather than tautology.
"""

import csv
import itertools
import math
import os
from pathlib import Path

import numpy as np

import psne_learn
from psne_learn import (
    ActionSpace,
    CandidateFamily,
    Dataset,
    InputError,
    MixtureModel,
    PolymatrixGame,
    PsneSet,
    ResultRow,
    all_influence_sets,
    count_grid_games,
    encode_joint_action,
    enumerate_psne_sets,
    expected_nll,
    fano_error_lower_bound,
    fit_counts,
    influence_psne,
)
from psne_learn import experiments
from psne_learn.errors import check_capacity
from psne_learn.estimator import (
    DEFAULT_GRID,
    GAME_CEILING,
    _check_class_params,
    _normalize_grid,
    _result,
    _scan,
)
from psne_learn.games import _best_response_grid

# the `src` directory of the package this process imported
SRC = Path(psne_learn.__file__).resolve().parent.parent
# the variables OpenBLAS reads its thread count from
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_pythonpath():
    """PYTHONPATH for a child process run from another directory: the
    absolute `src`, then any entries already set (a relative entry would
    resolve against the child's cwd)."""
    return os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def all_joint_actions(sizes):
    return itertools.product(*(range(1, s + 1) for s in sizes))


def brute_is_psne(game, x):
    """Equilibrium check straight off the potential tables."""
    sizes = game.space.counts
    for i in range(1, game.n + 1):

        def local(a):
            total = float(game.unary_table(i)[a - 1])
            for j in game.neighbors(i):
                total += float(game.pairwise_table(i, j)[a - 1, x[j - 1] - 1])
            return total

        played = local(x[i - 1])
        if any(local(a) > played for a in range(1, sizes[i - 1] + 1)):
            return False
    return True


def brute_psne_set(game):
    space = game.space
    return PsneSet(
        encode_joint_action(space, x)
        for x in all_joint_actions(space.counts)
        if brute_is_psne(game, x)
    )


def sweep_psne_set(game):
    """PSNE set by sweeping the full joint space: a boolean array of shape
    `space.counts`, ANDed with every player's `_best_response_grid`, whose
    surviving flat positions are the equilibria in ascending order.  The
    join in `enumerate_psne` must reproduce it."""
    ok = np.ones(game.space.counts, dtype=bool)
    for i in range(1, game.n + 1):
        tables = {j: game.pairwise_table(i, j) for j in game.neighbors(i)}
        ok &= _best_response_grid(game.space, i, game.unary_table(i), tables)
    return PsneSet(np.flatnonzero(ok))


def two_walk_phi(game):
    """`LinearPsneForm`'s coefficient matrices by two hand-kept offset walks:
    the potential prefix shared by every row (u_ii, then u_ij or zeros for
    each j != i, flattened), then each row's deviation slots (u_ii[a], then
    row a of u_ij or zeros).  `LinearPsneForm.from_game` must reproduce
    them byte for byte."""
    space = game.space
    n = space.n
    phis = []
    for i in range(1, n + 1):
        si = space.counts[i - 1]
        others = [j for j in range(1, n + 1) if j != i]
        dim = (1 + si) * (1 + sum(space.counts[j - 1] for j in others))
        phi = np.zeros((si, dim))
        nbrs = set(game.neighbors(i))
        theta = np.zeros(dim)
        theta[:si] = game.unary_table(i)
        off = si
        for j in others:
            sj = space.counts[j - 1]
            if j in nbrs:
                theta[off : off + si * sj] = game.pairwise_table(i, j).ravel()
            off += si * sj
        deviation_base = off  # the -1 slot, then -[x_j = c] slots
        phi[:, :deviation_base] = theta[None, :deviation_base]
        for ai in range(si):
            phi[ai, deviation_base] = game.unary_table(i)[ai]
            off = deviation_base + 1
            for j in others:
                sj = space.counts[j - 1]
                if j in nbrs:
                    phi[ai, off : off + sj] = game.pairwise_table(i, j)[ai, :]
                off += sj
        phis.append(phi)
    return phis


def two_walk_features(space, i, x):
    """y(i, x) by the same offset walk as `two_walk_phi`: indicators as
    played, then the -1 slot and the negated indicators of each x_j."""
    si = space.counts[i - 1]
    others = [j for j in range(1, space.n + 1) if j != i]
    dim = (1 + si) * (1 + sum(space.counts[j - 1] for j in others))
    y = np.zeros(dim)
    y[x[i - 1] - 1] = 1.0
    off = si
    for j in others:
        sj = space.counts[j - 1]
        y[off + (x[i - 1] - 1) * sj + (x[j - 1] - 1)] = 1.0
        off += si * sj
    y[off] = -1.0
    off += 1
    for j in others:
        sj = space.counts[j - 1]
        y[off + x[j - 1] - 1] = -1.0
        off += sj
    return y


def unique_map_decoder(space, indices, k):
    """MAP player set of one trial's joint indices, one trial at a time:
    `np.unique` counts each distinct index, one pass per player over all
    of them marks the candidates (every action 1 or 2, exactly k players
    on action 1), and the first maximal count wins, (1, ..., k) when no
    candidate was observed.  The row decoder in `influence` must
    reproduce it row by row."""
    observed, counts = np.unique(np.asarray(indices, dtype=np.int64), return_counts=True)
    valid = np.ones(observed.shape, dtype=bool)
    ones = np.zeros(observed.shape, dtype=np.int64)
    for p in range(1, space.n + 1):
        digit = space.digit(observed, p)
        valid &= digit <= 1
        ones += digit == 0
    score = np.where(valid & (ones == k), counts, 0)
    if not score.any():
        return tuple(range(1, k + 1))
    best = int(observed[np.argmax(score)])
    return tuple(p for p in range(1, space.n + 1) if space.digit(best, p) == 0)


def spin_psne_set(weights):
    """PSNE of a weight-matrix spin game, checked in spin coordinates."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    hits = []
    for spins in itertools.product((-1.0, 1.0), repeat=n):

        def pay(i, s):
            return w[i, i] * s + sum(
                w[i, j] * s * spins[j] for j in range(n) if j != i
            )

        if all(pay(i, spins[i]) >= pay(i, -spins[i]) for i in range(n)):
            hits.append(sum((1 << (n - 1 - p)) for p, s in enumerate(spins) if s > 0))
    return PsneSet(hits)


def random_grid_game(rng, n, k, sizes, grid):
    """A normalized grid game with random parent sets and potentials."""
    grid = list(grid)
    neighbors, unary, pairwise = {}, {}, {}
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        psize = int(rng.integers(0, k + 1))
        parents = (
            sorted(int(j) for j in rng.choice(others, size=psize, replace=False))
            if psize
            else []
        )
        neighbors[i] = parents
        u = np.zeros(sizes[i - 1])
        u[1:] = rng.choice(grid, size=sizes[i - 1] - 1)
        unary[i] = u
        for j in parents:
            t = np.zeros((sizes[i - 1], sizes[j - 1]))
            t[1:, :] = rng.choice(grid, size=(sizes[i - 1] - 1, sizes[j - 1]))
            pairwise[(i, j)] = t
    return PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)


def _normalized_stack(grid, si, sj):
    """Every (si, sj) table with a zero first row and its other entries
    from `grid`, in `itertools.product` order, as one stack."""
    vals = np.array(list(itertools.product(grid, repeat=(si - 1) * sj)), dtype=float)
    stack = np.zeros((len(vals), si, sj))
    stack[:, 1:, :] = vals.reshape(len(vals), si - 1, sj)
    return stack


def _potential_stacks(n, k, sizes, grid, i):
    """Yield (parents, unary, tables) per parent set of player i, normalized
    and read-only: `unary` stacks every potential vector with u_ii(1) = 0,
    and `tables` holds, per parent, a stack of every pairwise table with a
    zero first row, the all-zero table left out."""
    si = sizes[i - 1]
    others = [j for j in range(1, n + 1) if j != i]
    unary = _normalized_stack(grid, si, 1)[:, :, 0]
    unary.flags.writeable = False
    for psize in range(0, k + 1):
        for parents in itertools.combinations(others, psize):
            tables = []
            for j in parents:
                stack = _normalized_stack(grid, si, sizes[j - 1])
                tables.append(stack[stack.any(axis=(1, 2))])
                tables[-1].flags.writeable = False
            yield parents, unary, tables


def player_structures(n, k, sizes, grid, i):
    """Yield (parents, unary, {parent: table}) for one player, one
    normalized structure at a time."""
    for parents, unary, tables in _potential_stacks(n, k, sizes, grid, i):
        for u in unary:
            for combo in itertools.product(*tables):
                yield parents, u, dict(zip(parents, combo))


def enumerate_grid_games(
    n, k, action_sizes, grid=DEFAULT_GRID, *, ceiling=GAME_CEILING
):
    """Stream every normalized grid game with at most k parents per player.

    Raises CapacityError with the closed-form count when the stream would
    exceed `ceiling`.
    """
    sizes = _check_class_params(n, k, action_sizes)
    grid = _normalize_grid(grid)
    total = count_grid_games(n, k, sizes, grid)
    check_capacity("grid-game stream", total, ceiling, "games")
    per_player = [
        list(player_structures(n, k, sizes, grid, i)) for i in range(1, n + 1)
    ]
    for combo in itertools.product(*per_player):
        neighbors = {i: parents for i, (parents, _, _) in enumerate(combo, start=1)}
        unary = {i: u for i, (_, u, _) in enumerate(combo, start=1)}
        pairwise = {
            (i, j): table
            for i, (_, _, tabs) in enumerate(combo, start=1)
            for j, table in tabs.items()
        }
        yield PolymatrixGame(sizes, neighbors=neighbors, unary=unary, pairwise=pairwise)


def _cfg_best_response_table(unary, tables):
    """Boolean table br[..., a, cfg] over one player's parent configurations,
    for every choice of one table per parent at once.

    `unary` is the player's potential vector and `tables` holds one stack
    of (|A_i|, |A_j|) pairwise tables per parent, whose choices index the
    leading axes of br, one axis per parent; cfg enumerates the parents in
    that order, first parent most significant.  Returns (br, cfg strides).
    """
    m = math.prod(t.shape[-1] for t in tables)
    payoff = np.repeat(unary[:, None], m, axis=-1)
    stride = m
    cstrides = []
    for axis, table in enumerate(tables):
        sj = table.shape[-1]
        stride //= sj
        cstrides.append(stride)
        others = [a for a in range(len(tables)) if a != axis]
        payoff = payoff + np.expand_dims(table[..., (np.arange(m) // stride) % sj], others)
    return payoff == payoff.max(axis=-2, keepdims=True), cstrides


def _structure_rows(n, k, sizes, grid, i, space):
    """Player i's acceptance regions as bool rows over the joint space, in
    one block per parent set and unary choice: the best-response table of
    each pairwise-table choice over its parent configurations, looked up at
    every joint index through the mixed-radix digits of that index."""
    size = space.joint_size
    all_idx = np.arange(size, dtype=np.int64)
    digits = {j: space.digit(all_idx, j) for j in range(1, n + 1)}
    for parents, unary, tables in _potential_stacks(n, k, sizes, grid, i):
        for u in unary:
            br, cstrides = _cfg_best_response_table(u, tables)
            cfg = sum(
                (digits[j] * stride for j, stride in zip(parents, cstrides)),
                np.zeros(size, dtype=np.int64),
            )
            yield br[..., digits[i], cfg].reshape(-1, size)


def direct_player_regions(n, k, sizes, grid, i, space):
    """One player's distinct regions as int bitmasks (bit x is joint index
    x), from a best-response table per structure over its parent
    configurations: what the batched `estimator._player_regions`, built on
    the joint grid instead, must reproduce."""
    return {
        int.from_bytes(row.tobytes(), "little")
        for block in _structure_rows(n, k, sizes, grid, i, space)
        for row in np.unique(np.packbits(block, axis=1, bitorder="little"), axis=0)
    }


def games_psne_sets(n, k, sizes, grid):
    """The grid-game family the slow way: every game's own PSNE set.

    Maps the whole normalized game stream through the full joint-space
    sweep, the definition that region intersection in `enumerate_psne_sets`
    shortcuts.
    """
    space = ActionSpace(sizes)
    found = {}
    for game in enumerate_grid_games(n, k, sizes, grid):
        psne = sweep_psne_set(game)
        if 1 <= len(psne) <= space.joint_size - 1:
            found[tuple(psne)] = psne
    return CandidateFamily(space, list(found.values()), "grid-game stream")


def packed_player_regions(n, k, sizes, grid, i, space):
    """One player's distinct acceptance regions as packed uint8 rows."""
    rows = {
        row.tobytes()
        for block in _structure_rows(n, k, sizes, grid, i, space)
        for row in np.packbits(block, axis=1)
    }
    packed = np.frombuffer(b"".join(sorted(rows)), dtype=np.uint8)
    return packed.reshape(len(rows), -1)


def packed_intersect_all(partials, regions):
    """Every pairwise AND of two packed-row sets, deduplicated by row."""
    prod = partials[:, None, :] & regions[None, :, :]
    return np.unique(prod.reshape(-1, partials.shape[1]), axis=0)


def packed_psne_sets(n, k, sizes, grid):
    """The region-intersection family on packed byte rows.

    Regions are uint8 rows from `np.packbits`, each player round takes the
    full outer AND and dedupes it with `np.unique(axis=0)`, and rows decode
    through `np.unpackbits`: the same class as `enumerate_psne_sets`, built
    with none of its bitmask arithmetic.
    """
    space = ActionSpace(sizes)
    size = space.joint_size
    # packbits zero-fills the bits past joint_size, so rows compare cleanly
    partial = np.packbits(np.ones(size, dtype=bool))[None, :]
    for i in range(1, n + 1):
        regions = packed_player_regions(n, k, sizes, grid, i, space)
        partial = packed_intersect_all(partial, regions)
    candidates = []
    for row in partial:
        members = np.unpackbits(row, count=size).astype(bool)
        if 1 <= int(members.sum()) <= size - 1:
            candidates.append(PsneSet(np.flatnonzero(members)))
    return CandidateFamily(space, candidates, "packed rows")


def explicit_family(action_sizes, sets):
    """The family holding exactly the given PSNE sets."""
    space = ActionSpace(tuple(action_sizes))
    return CandidateFamily(space, [PsneSet(s) for s in sets], "explicit list")


def all_subsets_family(action_sizes, max_size):
    """Every PSNE set of 1..max_size joint actions, realizable or not."""
    space = ActionSpace(tuple(action_sizes))
    candidates = [
        PsneSet(combo)
        for s in range(1, max_size + 1)
        for combo in itertools.combinations(range(space.joint_size), s)
    ]
    return CandidateFamily(space, candidates, f"all-subsets(max_size={max_size})")


def member_matrix(family):
    """The family as an N x |A| bool matrix, one row per candidate, filled
    set by set from its `PsneSet`s."""
    mat = np.zeros((len(family), family.space.joint_size), dtype=bool)
    for row, cand in enumerate(family):
        mat[row, list(cand)] = True
    return mat


def matmul_in_set(members, per_index):
    """Per-candidate sums of an int vector over the joint space, by one
    int64 product with a `member_matrix`: what the fit's gather and
    per-set sum must equal."""
    return (members.astype(np.int64) @ per_index).astype(float)


def matmul_fit_counts(family, members, hist):
    """`fit_counts` with its in-set counts taken by `matmul_in_set`; the
    scan itself is the library's."""
    m = int(hist.sum())
    inside = matmul_in_set(members, hist)[None]
    return _result(family, _scan(family, inside, m - inside, float(m)))


def matmul_population_mle(family, members, truth):
    """`population_mle` with its overlaps taken by `matmul_in_set`."""
    indicator = np.zeros(family.space.joint_size, dtype=np.int64)
    indicator[list(truth.psne)] = 1
    overlap = matmul_in_set(members, indicator)
    mass = truth.mass(overlap, members.sum(axis=1).astype(float))[None]
    return _result(family, _scan(family, mass, 1.0 - mass, 1.0))


def random_model(rng, max_joint=256, max_psne=None):
    """A random valid mixture model on a random small action space."""
    while True:
        n = int(rng.integers(1, 5))
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(n))
        if math.prod(sizes) <= max_joint:
            break
    space = ActionSpace(sizes)
    size = space.joint_size
    cap = size - 1 if max_psne is None else min(max_psne, size - 1)
    r = int(rng.integers(1, cap + 1))
    psne = PsneSet(rng.choice(size, size=r, replace=False))
    lo, up = r / size, 1.0 - 1.0 / (2.0 * size)
    q = lo + (up - lo) * (0.05 + 0.9 * float(rng.random()))
    return MixtureModel(space, psne, q)


def _trial_words(master, m_index, trial_index, words):
    """Trial `trial_index`'s integer sub-seeds straight from numpy: the
    SeedSequence of spawn key (1, m_index, trial_index), its uint32 words
    read in pairs, high word first.  The seeding `experiments._seed_words`
    must reproduce."""
    state = np.random.SeedSequence(
        entropy=master, spawn_key=(1, m_index, trial_index)
    ).generate_state(2 * words)
    return [(int(state[2 * w]) << 32) | int(state[2 * w + 1]) for w in range(words)]


def trial_rngs(master, m_index, trials, streams):
    """Per trial, `default_rng` of each of its sub-seeds: the Generators
    `experiments._trial_rngs` must reproduce, one numpy call at a time."""
    for ti in range(trials):
        yield [np.random.default_rng(w) for w in _trial_words(master, m_index, ti, streams)]


def masked_sample_indices(model, m, seed):
    """The sampler's draw with boolean-mask gathers and a rank lookup per
    complement draw: the formula `MixtureModel.sample` must reproduce."""
    rng = np.random.default_rng(seed)
    signal = rng.random(m) < model.q
    pick = rng.random(m)
    idx = np.empty(m, dtype=np.int64)
    ne = model.psne.indices
    r = ne.size
    idx[signal] = ne[(pick[signal] * r).astype(np.int64)]
    ranks = (pick[~signal] * (model.space.joint_size - r)).astype(np.int64)
    shifted = ne - np.arange(r, dtype=np.int64)
    idx[~signal] = ranks + np.searchsorted(shifted, ranks, side="right")
    return idx


def per_trial_fits(config):
    """(family, truth, [(m, fits)]): every trial's FitResult in trial-index
    order, one `fit_counts(family, truth.tally(m, rng))` per trial.  The
    loop `experiments._fit_trials` runs a block of trials at a time."""
    family = enumerate_psne_sets(config.n, config.k, config.action_sizes, config.grid)
    truth = experiments._choose_truth(config, family)
    trials = []
    for mi, m in enumerate(config.m_schedule):
        rngs = experiments._trial_rngs(config.seed, mi, config.trials, 1)
        trials.append((m, [fit_counts(family, truth.tally(m, rng)) for (rng,) in rngs]))
    return family, truth, trials


def frequency_row(m, metric, hits):
    """The frequency of true hits over the trials, with its binomial stderr."""
    trials = len(hits)
    f = sum(bool(h) for h in hits) / trials
    return ResultRow(m, metric, f, math.sqrt(f * (1.0 - f) / trials), trials)


def _fit_table(config, family, truth, rows, **derived):
    meta = experiments._base_meta(config)
    meta["derived"] = {
        "family_size": len(family),
        "truth_psne": list(truth.psne),
        "q_star": truth.q,
        **derived,
    }
    return experiments._table(rows, meta)


def per_trial_recovery(config):
    """`run_recovery`'s table from `per_trial_fits`, each trial's fitted set
    compared with the truth as frozensets."""
    family, truth, trials = per_trial_fits(config)
    true = frozenset(truth.psne)
    rows = []
    for m, fits in trials:
        hats = [frozenset(fit.psne) for fit in fits]
        rows.append(frequency_row(m, "superset", [true <= h for h in hats]))
        rows.append(frequency_row(m, "exact", [h == true for h in hats]))
        rows.append(frequency_row(m, "subset", [h <= true for h in hats]))
    return _fit_table(config, family, truth, rows)


def per_trial_gap(config):
    """`run_generalization_gap`'s table from `per_trial_fits`."""
    family, truth, trials = per_trial_fits(config)
    baseline = expected_nll(truth, truth)
    level = 1.0 - config.delta
    rows = []
    for m, fits in trials:
        gaps = np.asarray(
            [
                expected_nll(MixtureModel(family.space, fit.psne, fit.q_hat), truth) - baseline
                for fit in fits
            ]
        )
        spread = float(gaps.std(ddof=1)) if config.trials > 1 else 0.0
        stderr = spread / math.sqrt(config.trials)
        quant = float(np.quantile(gaps, level, method="higher"))
        rows.append(ResultRow(m, "gap_mean", float(gaps.mean()), stderr, config.trials))
        rows.append(ResultRow(m, "gap_quantile", quant, 0.0, config.trials))
        rows.append(ResultRow(m, "gap_min", float(gaps.min()), 0.0, config.trials))
    return _fit_table(
        config, family, truth, rows, quantile_level=level, baseline_nll=baseline
    )


def per_trial_fano(config):
    """`run_fano`'s table one trial at a time: the hidden set from the
    trial's first stream, its m observations drawn by `MixtureModel.sample`
    around that set's equilibrium from the second, and `unique_map_decoder`
    on them.  `run_fano` draws and decodes a block of trials at a time."""
    space, q = ActionSpace(config.sizes), experiments._fano_q(config)
    count = math.comb(config.n, config.k)
    enumerated = count <= experiments.ENUMERATE_PI_LIMIT
    pis = all_influence_sets(config.n, config.k) if enumerated else None
    rows = []
    for mi, m in enumerate(config.m_schedule):
        errors = []
        for pi_rng, data_rng in experiments._trial_rngs(config.seed, mi, config.trials, 2):
            if enumerated:
                pi = pis[int(pi_rng.integers(count))]
            else:
                chosen = pi_rng.choice(config.n, size=config.k, replace=False) + 1
                pi = tuple(sorted(int(i) for i in chosen))
            index = encode_joint_action(space, influence_psne(pi, config.n))
            draw = MixtureModel(space, PsneSet([index]), q).sample(m, data_rng)
            errors.append(unique_map_decoder(space, draw.indices, config.k) != pi)
        bound = fano_error_lower_bound(m, config.n, config.k, space.joint_size, q)
        rows.append(frequency_row(m, "map_error", errors))
        rows.append(ResultRow(m, "fano_bound", bound, 0.0, config.trials))
    meta = experiments._base_meta(config)
    meta["derived"] = {"q": q, "hypothesis_count": count, "enumerated": enumerated}
    return experiments._table(rows, meta)


def exact_recovery(family, truth, m):
    """The exact law of the MLE over `family` at m draws from `truth`.

    The fit reads only the histogram of joint indices, which is
    multinomial, so each quantity is a finite sum over all
    C(m + |A| - 1, |A| - 1) histograms, weighted by their multinomial pmf
    (taken in log space from the truth's per-index probabilities, not from
    the library's sampler).  The in-set counts come from `member_matrix`;
    the scan is the library's.  Returns the superset, exact and subset
    recovery probabilities, and the mean and standard deviation of the
    population gap `expected_nll(fit, truth) - expected_nll(truth, truth)`.
    """
    size, r = family.space.joint_size, len(truth.psne)
    # stars and bars: size - 1 bar positions among m + size - 1 slots
    bars = np.array(list(itertools.combinations(range(m + size - 1), size - 1)))
    ends = np.full((len(bars), 1), m + size - 1)
    hists = np.diff(np.hstack([-np.ones_like(ends), bars, ends]), axis=1) - 1
    p = np.full(size, (1.0 - truth.q) / (size - r))
    p[list(truth.psne)] = truth.q / r
    log_fact = np.array([math.lgamma(c + 1) for c in range(m + 1)])
    weight = np.exp(log_fact[m] - log_fact[hists].sum(axis=1) + hists @ np.log(p))

    inside = (hists @ member_matrix(family).T.astype(np.int64)).astype(float)
    best, q_hat, _, _ = _scan(family, inside, m - inside, float(m))
    true = frozenset(truth.psne)
    hats = [frozenset(c) for c in family]
    flags = {
        "superset": np.array([true <= h for h in hats]),
        "exact": np.array([true == h for h in hats]),
        "subset": np.array([h <= true for h in hats]),
    }
    fits, which = np.unique(np.stack([best, q_hat], axis=1), axis=0, return_inverse=True)
    baseline = expected_nll(truth, truth)
    gap = np.array(
        [
            expected_nll(MixtureModel(family.space, family[int(b)], q), truth) - baseline
            for b, q in fits.tolist()
        ]
    )[which.ravel()]
    mean = float(weight @ gap)
    law = {name: float(weight @ hits[best]) for name, hits in flags.items()}
    law.update(gap_mean=mean, gap_sd=math.sqrt(max(float(weight @ gap**2) - mean**2, 0.0)))
    return law


def per_row_dataset_text(data):
    """The dataset CSV text formatted row by row, cell by cell: the bytes
    `write_dataset` must reproduce."""
    header = ",".join(f"player_{p}" for p in range(1, data.space.n + 1))
    lines = [header]
    for row in data.actions_matrix():
        lines.append(",".join(str(int(a)) for a in row))
    return "\n".join(lines) + "\n"


def plain_integer(cell):
    """Whether a CSV cell is ASCII digits after at most one sign, padded by
    ASCII whitespace at most: the only cells `read_dataset` reads as actions."""
    cell = cell.strip(" \t\n\r\f\v")
    digits = cell[1:] if cell[:1] in ("+", "-") else cell
    return digits != "" and all(c in "0123456789" for c in digits)


def per_row_read_dataset(path, space=None):
    """The dataset CSV parsed and range-checked row by row, with no cache:
    the result and the first error `read_dataset` must reproduce."""
    with open(path) as handle:
        reader = csv.reader(handle)
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
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != n:
                raise InputError(f"{path}:{lineno}: expected {n} cells, got {len(row)}")
            if not all(map(plain_integer, row)):
                raise InputError(f"{path}:{lineno}: non-integer action in {row}")
            actions = [int(cell) for cell in row]
            for p, a in enumerate(actions, start=1):
                limit = space.counts[p - 1] if space is not None else None
                if a < 1 or (limit is not None and a > limit):
                    raise InputError(
                        f"{path}:{lineno}: action {a} for player {p} out of range"
                    )
            rows.append(actions)
    if space is None:
        arr = np.asarray(rows, dtype=np.int64)
        counts = tuple(max(2, int(c)) for c in arr.max(axis=0)) if rows else (2,) * n
        space = ActionSpace(counts)
    return Dataset.from_actions(space, rows)


def brute_expected_nll(model, truth):
    """Population scaled NLL by full summation over the joint space."""
    idx = np.arange(truth.space.joint_size)
    return float(np.sum(truth.pmf(idx) * model.scaled_nll(idx)))


def brute_kl(p, r):
    """KL divergence by full summation, in nats."""
    idx = np.arange(p.space.joint_size)
    pv, rv = p.pmf(idx), r.pmf(idx)
    return float(np.sum(pv * (np.log(pv) - np.log(rv))))


def bimatrix_psne_sets(grid):
    """Distinct PSNE sets of all full-table 2-player binary games on a grid.

    The payoff tables are unconstrained over the grid (no unary/pairwise
    factorization), which covers every 2-player game.  Returns the set of
    frozensets of joint indices with 1 <= |NE| <= 3.
    """
    found = set()
    cells = list(itertools.product(grid, repeat=4))
    for u1 in cells:
        t1 = np.asarray(u1).reshape(2, 2)  # t1[a1, a2]
        for u2 in cells:
            t2 = np.asarray(u2).reshape(2, 2)  # t2[a2, a1]
            hits = []
            for a1 in range(2):
                for a2 in range(2):
                    if (
                        t1[a1, a2] >= t1[1 - a1, a2]
                        and t2[a2, a1] >= t2[1 - a2, a1]
                    ):
                        hits.append(2 * a1 + a2)
            if 1 <= len(hits) <= 3:
                found.add(frozenset(hits))
    return found

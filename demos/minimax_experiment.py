"""Monte Carlo: the strongest decoder still loses below the Fano floor.

Hides a random influential-player set, generates noisy equilibrium
observations, and lets the exact maximum-likelihood decoder guess.  Its
error frequency stays above the information-theoretic floor at every
sample size, which is the whole point of the floor.  A recovery run on
the sufficiency side closes the loop.

What the curve certifies: the floor reaches 1/2 at
m = (ln C(n, k) / 2 - ln 2) / KL, of order k ln(n/k) / KL, and at the
default q = 2/|A| the pairwise KL = ln(2(|A| - 1)/(|A| - 2)) / (|A| - 1)
is about ln 2 / (|A| - 1); here (n = 6, k = 1, |A| = 64) the floor crosses
1/2 near m = 18.  That is a necessary count for this influence family,
not the abstract's Omega(k n log^2 n) rate, which the curve does not show.
"""

from psne_learn import ExperimentConfig, run_fano, run_recovery

fano = run_fano(
    ExperimentConfig(
        kind="fano",
        n=6,
        k=1,
        m_schedule=(0, 6, 12, 18, 30, 60),
        trials=400,
        seed=13,
    )
)
errors = {r.m: r for r in fano.rows if r.metric == "map_error"}
bounds = dict(fano.values("fano_bound"))
print("MAP decoding error vs the minimax floor (6 players, 1 influential):")
for m, row in errors.items():
    print(
        f"  m={m:>3}: error {row.value:.3f} +/- {row.stderr:.3f}"
        f"   floor {bounds[m]:.3f}"
    )

recovery = run_recovery(
    ExperimentConfig(
        kind="recovery",
        n=3,
        k=2,
        action_sizes=(2, 2, 2),
        q_star=0.7,
        m_schedule=(1, 10, 100, 1000),
        trials=200,
        seed=29,
    )
)
print("\nMLE recovery frequency (3 binary players, k=2):")
print(f"  true equilibrium set: {recovery.meta['derived']['truth_psne']}")
for metric in ("superset", "exact"):
    series = ", ".join(f"m={m}: {v:.2f}" for m, v in recovery.values(metric))
    print(f"  {metric:>8}: {series}")

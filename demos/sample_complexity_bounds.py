"""The closed-form calculators behind the sample-size story.

Two sides of the same coin: how many samples are enough for the MLE to
cover the true equilibrium set (a union-bound/Hoeffding count driven by
the hypothesis count and the recovery margin), and how many are necessary
for any method at all (a Fano floor driven by the pairwise KL of the
hardest instance family).

The Fano floor reaches 1/2 at m = (ln C(n, k) / 2 - ln 2) / KL, of order
k ln(n/k) / KL; at the default q = 2/|A| the pairwise KL is
ln(2(|A| - 1)/(|A| - 2)) / (|A| - 1), about ln 2 / (|A| - 1).  So the
necessary side printed here is a count for the C(n, k)-member influence
family: it does not show the abstract's Omega(k n log^2 n) rate.
"""

from psne_learn import (
    enumerate_psne_sets,
    fano_error_lower_bound,
    fano_pair_kl,
    mixture_kl,
    sufficient_samples,
    superset_recovery_margin,
)
from psne_learn import ActionSpace, MixtureModel, PsneSet, nll_scale

# -- sufficiency ----------------------------------------------------------
joint = 16
q_star = 0.7
family = enumerate_psne_sets(n=4, k=3, action_sizes=(2, 2, 2, 2))
print(f"hypothesis count for 4 binary players, k=3: {len(family)}")

for r in (2, 3, 4):
    margin = superset_recovery_margin(r, q_star, joint)
    m = sufficient_samples(margin / 2, 0.1, len(family))
    print(
        f"|NE*|={r}: recovery margin {margin:.4f} -> "
        f"{m} samples suffice at eps=margin/2, delta=0.1"
    )

# The margin is exactly the scaled divergence cost of dropping one
# equilibrium, which is what makes it the right recovery threshold.
space = ActionSpace((4, 4))
full = MixtureModel(space, PsneSet([0, 1, 2]), q_star)
dropped = MixtureModel(space, PsneSet([0, 1]), q_star)
print(
    f"\ncheck: margin * scale = {superset_recovery_margin(3, q_star, 16) * nll_scale(space):.8f}"
    f" vs KL = {mixture_kl(full, dropped):.8f}"
)

# -- necessity ------------------------------------------------------------
n, k = 6, 1
joint = 2**n
kl = fano_pair_kl(2.0 / joint, joint)
print(f"\npairwise KL of the hard family at q=2/|A|: {kl:.6f} nats")
print("minimax error floor (any decoder):")
for m in (0, 6, 12, 18, 30, 60, 120):
    print(f"  m={m:>4}: error >= {fano_error_lower_bound(m, n, k, joint):.4f}")

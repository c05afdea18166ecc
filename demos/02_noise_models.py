"""Inject symmetric and class-conditional label noise, and estimate a
transition matrix from feature overlap.

The symmetric model flips an exact fraction of each class to uniformly
random other classes.  The class-conditional model redraws labels from a
transition matrix, here estimated by k-means on the features, so classes
that overlap in feature space exchange labels more often.
"""

import numpy as np

from ctxnoise import SyntheticConfig, estimate_transition, generate_synthetic, inject_nar, inject_ncar

config = SyntheticConfig(
    n_classes=3,
    n_features=6,
    instances_per_class=2000,
    concentration=0.8,
    separation=1.0,   # moderate overlap so the estimated matrix is not the identity
    noise_scale=1.0,
    links_per_instance=2,
    seed=1,
)
dataset, _ = generate_synthetic(config)
labels = dataset.labels
features = dataset.features

# symmetric noise: exact per-class counts, never flips to the original class
plan = inject_ncar(labels, config.n_classes, omega=0.3, seed=0)
per_class = [int(plan.flipped[labels == c].sum()) for c in range(3)]
print(f"symmetric noise at rate 0.3: flipped per class {per_class} of "
      f"{[int((labels == c).sum()) for c in range(3)]}")
assert (plan.assigned[plan.flipped] != labels[plan.flipped]).all()

# estimated transition matrix from feature-space overlap
transition = estimate_transition(features, labels, config.n_classes)
print("\nestimated transition matrix:")
print(np.round(transition.probs, 3))

# class-conditional noise drawn from those rows converges to them
plan = inject_nar(labels, transition, seed=0)
emp = np.stack(
    [np.bincount(plan.assigned[labels == c], minlength=3) / (labels == c).sum() for c in range(3)]
)
print("empirical assignment frequencies after injection:")
print(np.round(emp, 3))
print(f"max deviation: {np.abs(emp - transition.probs).max():.4f}")
print(f"realized flip rate: {plan.rate:.3f}")

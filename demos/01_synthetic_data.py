"""Generate a linked synthetic dataset and check it against its own ground truth.

Every instance gets class-conditional features, neighbours drawn from its
class's co-occurrence row, and (optionally) attribute observations.  Because
the generating quantities are returned alongside the data, empirical
statistics can be compared against them directly.
"""

import numpy as np

from ctxnoise import SyntheticConfig, generate_synthetic, load_synthetic, save_synthetic

config = SyntheticConfig(
    n_classes=4,
    n_features=8,
    instances_per_class=250,
    m_attribute_classes=5,
    concentration=0.8,
    separation=2.0,
    noise_scale=1.0,
    links_per_instance=4,
    attributes_per_instance=2,
    seed=42,
)
dataset, truth = generate_synthetic(config)

# row r of the dataset's arrays is instance dataset.ids[r]; links and
# attribute observations are CSR indexes over those rows
n_links = len(dataset.links.values) // 2
print(f"{len(dataset)} instances, {n_links} undirected links, "
      f"{len(dataset.attributes.values)} attribute observations")

# empirical neighbour-class frequencies vs the generating co-occurrence rows:
# one count per (row, neighbour row) entry of the link index
hist = np.zeros((config.n_classes, config.n_classes))
np.add.at(hist, (dataset.labels[dataset.links.owners()], dataset.labels[dataset.links.values]), 1)
rows = hist / hist.sum(axis=1, keepdims=True)

print("\ngenerating co-occurrence rows:")
print(np.round(truth.data_conditionals, 3))
print("empirical neighbour frequencies:")
print(np.round(rows, 3))
tv = 0.5 * np.abs(rows - truth.data_conditionals).sum(axis=1)
print(f"total-variation distance per class: {np.round(tv, 4)}")

# the text serialization round-trips exactly
save_synthetic(dataset, "/tmp/ctxnoise_demo_dataset.txt")
assert load_synthetic("/tmp/ctxnoise_demo_dataset.txt") == dataset
print("\nserialized to /tmp/ctxnoise_demo_dataset.txt and reloaded identically")

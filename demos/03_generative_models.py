"""The two sampling stories behind the likelihood losses.

The vase model draws items one by one with probability proportional to the
remaining weights: its ordering probabilities are exactly exp(-listmle).
The plank-dart model marks one plank from each end per stage (two darts,
re-thrown on a clash): its sequence probabilities are exactly
exp(-listfold) with log-weights as scores. So the analytic column below is
the loss itself, evaluated once over every ordering.
"""

import math

import numpy as np

from listfold import (
    SamplerSpec,
    plank_probability,
    sample_plank_dart,
    sample_vase,
    vase_probability,
)
from listfold.consistency import frequency_zscores

DRAWS = 100_000

print("== vase model, weights (2, 1, 0.5) ==")
weights = np.array([2.0, 1.0, 0.5])
counts = sample_vase(SamplerSpec("vase", weights, DRAWS, seed=1))
print(f"  {'ordering':<12} {'empirical':>10} {'exp(-listmle)':>14} {'z':>6}")
table = frequency_zscores(counts, DRAWS, lambda perms: vase_probability(weights, perms))
for perm in sorted(table):
    emp, analytic, z = table[perm]
    print(f"  {str(perm):<12} {emp:>10.4f} {analytic:>14.4f} {z:>6.2f}")
print()

print("== plank-dart model, widths (1.5, 1.0, 0.7, 0.4) ==")
widths = np.array([1.5, 1.0, 0.7, 0.4])
counts = sample_plank_dart(SamplerSpec("plank", widths, DRAWS, seed=2))
table = frequency_zscores(counts, DRAWS, lambda seqs: plank_probability(widths, seqs))
for perm in sorted(table)[:6]:
    emp, analytic, z = table[perm]
    print(f"  sequence {perm}: empirical {emp:.4f}, exp(-listfold) {analytic:.4f}, z {z:+.2f}")
worst = max(abs(z) for _, _, z in table.values())
print(f"  ... {len(table)} sequences total, max |z| = {worst:.2f} at {DRAWS} draws")
print()

print("== the single-pair closed form ==")
w = np.array([math.e, 1 / math.e])
print(f"  widths (e, 1/e): P(heavy marked first) = {plank_probability(w, (0, 1)):.6f}")
print(f"  analytic e^2/(e^2 + e^-2)             = {math.e**2 / (math.e**2 + math.e**-2):.6f}")

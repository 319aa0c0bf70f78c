"""Brute-force verification of what each transform's minimizer looks like.

Enumerates every permutation of small score multisets: the exponential
transform is minimized by the full descending order, the sigmoid transform
only pins down the top/bottom split (a whole pairing family ties at the
minimum). The randomized theorem checks and the counterexample search then
take their minimizers from an exact dynamic program over subsets, which
lists every order within 1e-9 of the least loss without enumerating the
orders; so the search below reaches lists of 12, where 12! orders could
not be enumerated.
"""

from listfold import (
    LossSpec,
    counterexample_search,
    enumerate_losses,
    exponential,
    order_sensitivity_probe,
    sigmoid,
    verify_theorem1,
    verify_theorem2,
)
from listfold.consistency import theorem1_minimizer_family

scores = [5.0, 4.0, 1.0, 0.0]

print("== exhaustive enumeration on {5, 4, 1, 0} ==")
for spec, label in [
    (LossSpec("listfold", exponential()), "exponential"),
    (LossSpec("listfold", sigmoid()), "sigmoid"),
]:
    rep = enumerate_losses(scores, spec)
    print(f"  {label}: min {rep.min_value:.4f}, classified {rep.classification}")
    for perm in sorted(rep.minimizers):
        print(f"    minimizer {perm}")
print("  predicted sigmoid family:", sorted(theorem1_minimizer_family(scores)))
print()

print("== order-sensitivity violations (exponential) ==")
records = order_sensitivity_probe(scores, LossSpec("listfold", exponential()))
print(f"  {len(records)} transpositions move toward the truth yet raise the loss;")
worst = max(records, key=lambda r: r.delta)
print(f"  biggest: {worst.permutation} swap {worst.swap} costs +{worst.delta:.3f}\n")

print("== randomized theorem checks ==")
t1 = verify_theorem1(trials=50, n_range=[1, 2, 3], seed=1)
print(" ", t1.summary().replace("\n", "\n  "))
t2 = verify_theorem2(trials=50, n_range=[1, 2, 3, 4], seed=1, restricted=True)
print(" ", t2.summary().replace("\n", "\n  "))
print()

print("== counterexample search for the global (unrestricted) claim ==")
for size in (4, 6, 8, 10, 12):
    witnesses = counterexample_search(budget=500, size=size, distribution="near-ties",
                                      seed=size)
    print(f"  size {size}, 500 adversarial near-tie samples: {len(witnesses)} witnesses")
print("no witness means the descending order survived as the global minimizer")
print("in every sample; absence of counterexamples is all this can establish.")

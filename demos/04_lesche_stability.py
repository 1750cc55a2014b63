"""Experimental robustness: Shannon entropy is Lesche-stable, Renyi is not.

A measure is experimentally robust when a small L1 perturbation of the
distribution moves the normalized value |M(P) - M(P')| / ln N by only a
small amount, uniformly in the number of states N.  Shannon-type measures
pass; Renyi measures of order q != 1 admit adversarial perturbation families
that break the bound as N grows.
"""

import numpy as np

from hypentropy import (
    SweepConfig,
    embed_real,
    perturbation_family,
    stability_ratio,
    stability_sweep,
)
from hypentropy.cli import records_to_csv

# ---------------------------------------------------------------------------
# The adversarial families at a glance
# ---------------------------------------------------------------------------
pair = perturbation_family("CertaintySpread", 3, 0.1)
print("CertaintySpread N=3 delta=0.1:")
print("  base     ", np.asarray(pair.base.p))
print("  perturbed", np.asarray(pair.perturbed.p))

pair = perturbation_family("UniformSpike", 2, 0.2)
print("UniformSpike N=2 delta=0.2:")
print("  base     ", np.asarray(pair.base.p))
print("  perturbed", np.asarray(pair.perturbed.p))

# ---------------------------------------------------------------------------
# Stability: Shannon's normalized response shrinks with N
# ---------------------------------------------------------------------------
print("\nShannon on CertaintySpread, delta = 1e-4:")
for n in (100, 1000, 10000, 100000):
    pair = perturbation_family("CertaintySpread", n, 1e-4)
    rec = stability_ratio("shannon", pair)
    print(f"  N = {n:>6}: ratio = {rec.ratio.x1:.3e}")

# ---------------------------------------------------------------------------
# Instability: Renyi q = 0.5 blows up on the same family
# ---------------------------------------------------------------------------
print("\nRenyi q = 0.5 on CertaintySpread, delta = 0.01:")
for n in (100, 1000, 10000, 100000):
    pair = perturbation_family("CertaintySpread", n, 0.01)
    rec = stability_ratio("renyi", pair, order=embed_real(0.5))
    print(f"  N = {n:>6}: ratio = {rec.ratio.x1:.4f}")

# ---------------------------------------------------------------------------
# A reproducible sweep, ready for plotting
# ---------------------------------------------------------------------------
config = SweepConfig(
    families=("CertaintySpread", "UniformSpike"),
    n_grid=(100, 1000, 10000),
    delta_grid=(0.01,),
    measures=(("shannon", None),
              ("renyi", embed_real(0.5)),
              ("strong_shannon_hyp", None)),
    seed=7,
)
records = stability_sweep(config)
print("\nsweep CSV (same seed gives byte-identical output):\n")
print(records_to_csv(records))

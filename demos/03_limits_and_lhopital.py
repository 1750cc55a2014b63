"""The order -> 1_D limit of the hyperbolic Renyi entropy.

The Renyi entropy is undefined at order 1 (its defining quotient becomes
0/0), but its limit recovers the Shannon entropy.  The hyperbolic version
inherits both facts, and the package checks them numerically two ways
through the hyperbolic L'Hopital rule: the F/G sequence limit and the F'/G'
derivative limit.
"""

import numpy as np

from hypentropy import (
    ONE,
    ComponentFunction,
    DifferentiableFunction,
    embed_real,
    lhopital_check,
    renyi_hyp,
    renyi_hyp_limit,
    strong_shannon_hyp,
    validate,
)

B = validate([(0.5, 0.25), (0.5, 0.75)])
S = strong_shannon_hyp(B)
print("target (strong hyperbolic Shannon entropy):", S)

# ---------------------------------------------------------------------------
# Watch the Renyi values close in on the entropy as the order approaches 1
# ---------------------------------------------------------------------------
print("\n   order            R_alpha e1-part        R_alpha e2-part")
for k in range(1, 7):
    for sign in (+1.0, -1.0):
        a = 1.0 + sign * 10.0 ** (-k)
        val = renyi_hyp(B, embed_real(a))
        print(f"  {a:.6f}   {val.x1:.17f}   {val.x2:.17f}")

# ---------------------------------------------------------------------------
# The packaged limit: F/G and F'/G' limits, cross-checked against S_f
# ---------------------------------------------------------------------------
lim = renyi_hyp_limit(B)
print("\nrenyi_hyp_limit:", lim)
print("difference from S_f:", max(abs(lim.x1 - S.x1), abs(lim.x2 - S.x2)))

# ---------------------------------------------------------------------------
# The L'Hopital quotient spelled out by hand
# ---------------------------------------------------------------------------
p1, p2 = B.p1, B.p2
F = DifferentiableFunction(ComponentFunction(
    lambda a: float(np.log((p1 ** a).sum())),
    lambda a: float(np.log((p2 ** a).sum())),
))
G = DifferentiableFunction(
    ComponentFunction.symmetric(lambda a: 1.0 - a),
    ComponentFunction.symmetric(lambda a: -1.0),
)
res = lhopital_check(F, G, ONE)
print("\nL'Hopital on Log(sum rho^alpha) / (1_D - alpha) at 1_D:")
print("  limit of F/G:  ", res.lhs)
print("  limit of F'/G':", res.rhs)
print("  sides agree:   ", res.agree)

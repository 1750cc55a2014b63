"""Hyperbolic (split-complex) calculus, hyperbolic entropy measures, and a
numerical Lesche-stability laboratory."""

from .calculus import (
    ComponentFunction,
    DifferentiableFunction,
    check_cauchy_riemann,
    concavity_probe,
    hyp_derivative,
    hyp_limit,
    lhopital_check,
)
from .distributions import (
    Case,
    HyperbolicDistribution,
    PerturbationPair,
    RealDistribution,
    embed,
    mix,
    perturbation_family,
    uniform,
    uniform_hyp,
    validate,
)
from .hyperbolic import (
    E1,
    E2,
    K,
    ONE,
    ZERO,
    HyperbolicInterval,
    HyperbolicNumber,
    Ordering,
    approx_eq,
    embed_real,
    from_unit_k,
    hyp_exp,
    hyp_log,
    hyp_pow,
    metric_dk,
    modulus_k,
    parse_hyperbolic,
    partial_cmp,
)
from .measures import (
    collision,
    collision_hyp,
    extropy,
    extropy_duality_check,
    hartley,
    hartley_hyp,
    renyi,
    renyi_extropy,
    renyi_extropy_hyp,
    renyi_hyp,
    renyi_hyp_limit,
    renyi_hyp_mixed,
    shannon,
    shannon_via_generating,
    strong_extropy_hyp,
    strong_shannon_hyp,
    strong_shannon_via_generating,
)
from .stability import (
    StabilityRecord,
    SweepConfig,
    lesche_norm,
    lesche_norm_hyp,
    stability_ratio,
    stability_sweep,
)

__version__ = "0.1.0"

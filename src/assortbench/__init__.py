"""Dynamic assortment planning under the multinomial-logit choice model:
instances and structural oracles, trisection policies and baselines, and a
seeded benchmark harness with a CLI front end."""

from .concentration import adaptive_ci, fixed_ci
from .core import (
    Instance,
    InvalidAssortmentError,
    PotentialProfile,
    PurchaseOutcome,
    build_potential_profile,
    brute_force_optimal,
    choice_probabilities,
    expected_revenue,
    kl_purchase_distributions,
    level_set,
    oracle_optimal,
    potential,
    sample_purchase,
)
from .harness import (
    AggregateSummary,
    EpisodeLog,
    RunConfig,
    derive_seed,
    fitted_exponent,
    generate_lower_bound,
    generate_synthetic,
    run_batch,
    run_episode,
)
from .policies import (
    AdaptiveTrisectionPolicy,
    GoldenRatioSearchPolicy,
    Policy,
    StaticPolicy,
    ThompsonPolicy,
    TrisectionPolicy,
    UcbPolicy,
    make_policy,
)

__version__ = "0.1.0"

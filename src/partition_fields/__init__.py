"""Random-partition random fields and their Gaussian scaling limits.

Simulates spin fields whose dependence is carried entirely by a random
partition of the index set (infinite urn scheme, heavy-tailed ancestral
forest, and their two-dimensional products), evaluates partial-sum fields
under the scaling normalizations, and statistically verifies the limits
against the fractional-Brownian-sheet covariance and exact finite-n
variance identities.
"""

__version__ = "0.1.0"

from .distributions import (
    FinitePmf,
    MarginalLaw,
    PmfKind,
    PowerLawPmf,
    make_hs_pmf,
    make_karlin_pmf,
)
from .fbs import HurstPair, fbm_cov, fbs_cov_matrix, sample_fbs
from .fields import (
    CornerGrid,
    ModelKind,
    ModelSpec,
    normalization,
    simulate,
)
from .partition1d import expected_occupancy
from .renewal import (
    RenewalSequence,
    WeightProfile,
    bn_sq_growth_constant,
    c_alpha,
    renewal_sequence,
    var_xstar,
    weights,
)
from .seeding import SCHEME_ID, normalize_seed, replicate_generator, seed_to_hex
from .stats import (
    IdentityRecord,
    ReplicateReport,
    empirical_cov,
    ks_normal,
    run_replicates,
)
from .suites import SUITES, SuiteReport, run_suite

__all__ = [
    "__version__",
    "CornerGrid",
    "FinitePmf",
    "HurstPair",
    "IdentityRecord",
    "MarginalLaw",
    "ModelKind",
    "ModelSpec",
    "PmfKind",
    "PowerLawPmf",
    "RenewalSequence",
    "ReplicateReport",
    "SCHEME_ID",
    "SUITES",
    "SuiteReport",
    "WeightProfile",
    "bn_sq_growth_constant",
    "c_alpha",
    "empirical_cov",
    "expected_occupancy",
    "fbm_cov",
    "fbs_cov_matrix",
    "ks_normal",
    "make_hs_pmf",
    "make_karlin_pmf",
    "normalization",
    "normalize_seed",
    "renewal_sequence",
    "replicate_generator",
    "run_replicates",
    "run_suite",
    "sample_fbs",
    "seed_to_hex",
    "simulate",
    "var_xstar",
    "weights",
]

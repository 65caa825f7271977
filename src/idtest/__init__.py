"""Sublinear identity testing for discrete distributions.

Given O(1) probability queries into a known distribution p on [n] and
i.i.d. samples from an unknown q, decide "q = p" versus
"||p - q||_1 >= eps" with 2/3 confidence using O(sqrt(n) * polylog)
samples, queries, and time. Exact O(n) oracles and a statistical harness
verify every threshold at desk scale.
"""

from .bucketing import (
    BucketScheme,
    bucket_indices,
    build_scheme,
    exact_bucket_masses,
)
from .coarse import (
    CASE1,
    CASE2,
    CoarseEstimates,
    CoarseVerdict,
    coarse_compare,
    coarse_decide,
    collect_heavy_support,
    estimate_q,
    phase_sizes,
    uniform_probe,
)
from .distributions import (
    AliasSampler,
    FileSampleStream,
    ProbabilityVector,
    SampleStream,
    advertised_distance,
    generate_instance,
    l1_distance,
    perturbed_pmf,
    point_mass_pmf,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from .harness import (
    Instance,
    TrialReport,
    lemma_check,
    make_instance,
    run_trials,
    scaling_experiment,
    shifted_bucket_pair,
    wilson_interval,
)
from .moment import (
    CollisionStats,
    MomentReport,
    collect_counts,
    moment_decide,
    moment_sample_size,
)
from .tester import (
    TesterConfig,
    Verdict,
    amplified_test,
    closed_form_budget,
    identity_test,
    query_audit,
)

__version__ = "0.1.0"

"""Sublinear identity testing for discrete distributions.

Given O(1) probability queries into a known distribution p on [n] and
i.i.d. samples from an unknown q, decide "q = p" versus
"||p - q||_1 >= eps" with 2/3 confidence using O(sqrt(n) * polylog)
samples, queries, and time. Exact O(n) oracles and a statistical harness
verify every threshold at desk scale.

The top level holds the tester and its inputs; the phases, the oracles
and the harness are imported from their modules.
"""

from .distributions import (
    AliasSampler,
    FileSampleStream,
    ProbabilityVector,
    SampleStream,
    validate_pmf,
)
from .tester import (
    TesterConfig,
    Verdict,
    amplified_test,
    identity_test,
    query_audit,
)

__version__ = "0.1.0"

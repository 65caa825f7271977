"""Implicit partition of [n] into probability buckets R_0 ... R_k.

Bucket membership is a pure function of the known probability p_i, so the
partition is never materialized. Bucket 0 holds every i with
p_i <= eps/(2n); bucket j > 0 holds p_i in
(base*(1+eps')^(j-1), base*(1+eps')^j] with base = eps/(2n) and
eps' = eps/C. Lower boundaries are strict, upper boundaries inclusive, and
the implementation evaluates membership against precomputed boundary
values so the convention holds bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ProbabilityVector
from .errors import BadParams, DomainMismatch


@dataclass(frozen=True, eq=False)
class BucketScheme:
    """Bucket boundaries for a domain size n and distance parameter eps.

    k satisfies k = ceil(log_{1+eps'}(2n/eps)) (bumped by one in the rare
    float shortfall case), so base*(1+eps')^k >= 1 and every probability
    in [0, 1] lands in some bucket. j_star is the bucket an element of
    probability 1/sqrt(n) would occupy: buckets >= j_star are "heavy"
    (learnable by coupon collection), buckets below are "light"
    (estimable by uniform probing).
    """

    n: int
    eps: float
    C: float
    eps_prime: float
    k: int
    base: float
    j_star: int
    # boundaries[j] = base * (1+eps')**j, the inclusive upper bound of R_j
    boundaries: np.ndarray = field(repr=False)

    @property
    def j_star_degenerate(self) -> bool:
        """True when 1/sqrt(n) fell in the bottom or top bucket.

        Flagged in diagnostics: with such parameters the heavy/light split
        is vacuous on one side.
        """
        return self.j_star == 0 or self.j_star == self.k


def build_scheme(n: int, eps: float, C: float) -> BucketScheme:
    """Build the bucket scheme; k is O((1/eps) * log(n/eps))."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise BadParams("n must be an integer >= 2")
    if not 0.0 < eps <= 2.0:
        raise BadParams("eps must be in (0, 2]")
    if C < 1.0:
        raise BadParams("C must be >= 1")
    eps_prime = eps / C
    base = eps / (2.0 * n)
    k = math.ceil(math.log(2.0 * n / eps) / math.log1p(eps_prime))
    boundaries = base * np.power(1.0 + eps_prime, np.arange(k + 1, dtype=np.float64))
    if boundaries[-1] < 1.0:
        # float shortfall of the ceiling; one more bucket restores coverage
        k += 1
        boundaries = np.append(boundaries, base * (1.0 + eps_prime) ** k)
    boundaries.flags.writeable = False
    j_star = int(np.searchsorted(boundaries, 1.0 / math.sqrt(n), side="left"))
    j_star = min(max(j_star, 0), k)
    return BucketScheme(
        n=int(n),
        eps=float(eps),
        C=float(C),
        eps_prime=eps_prime,
        k=int(k),
        base=base,
        j_star=j_star,
        boundaries=boundaries,
    )


def bucket_indices(scheme: BucketScheme, probs) -> np.ndarray:
    """Vectorized bucket lookup for probabilities in [0, 1].

    searchsorted against the exact boundary array implements
    "strict lower, inclusive upper" directly: the result is the first j
    with prob <= boundaries[j].
    """
    arr = np.asarray(probs, dtype=np.float64)
    j = np.searchsorted(scheme.boundaries, arr, side="left")
    # probs <= 1 <= boundaries[k] guarantees j <= k; clip is cheap insurance.
    # Clip in place and convert only where searchsorted's intp is not int64.
    return np.minimum(j, scheme.k, out=j).astype(np.int64, copy=False)


def exact_bucket_masses(
    scheme: BucketScheme,
    p: ProbabilityVector,
    weight_pmf: ProbabilityVector | None = None,
) -> np.ndarray:
    """O(n) oracle: total mass per bucket.

    Entry j sums p_i over all i with bucket(p_i) = j. When weight_pmf is
    given, its entries are summed instead, still grouped by p's buckets;
    this yields the unknown-side bucket masses for a synthetic q. Harness
    and oracle use only; the tester never calls this.
    """
    if p.n != scheme.n:
        raise DomainMismatch(f"pmf has n={p.n}, scheme has n={scheme.n}")
    weights = p.probs if weight_pmf is None else weight_pmf.probs
    if weights.shape[0] != scheme.n:
        raise DomainMismatch("weight pmf does not match the scheme domain")
    buckets = bucket_indices(scheme, p.probs)
    return np.bincount(buckets, weights=weights, minlength=scheme.k + 1)

"""Within-bucket second-moment (collision) test.

After the bucket masses of p and q are known to agree, the remaining way
for q to differ is an uneven shape inside some bucket. The number of
sample pairs colliding on the same element inside bucket j has expectation
C(S,2) * sum_{i in R_j} q_i^2, which for q matching p within the bucket is
at most C(S,2) * mass_j * upper_j. Any bucket whose collision count
strictly exceeds that bound with (1 + eps/4) slack is rejected.

Only indices drawn at least twice add to that count: an index drawn once
contributes C(1, 2) = 0. So p is queried, and a bucket looked up, only at
the repeated indices, typically a small share of the distinct ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bucketing import _BLOCK, BucketScheme, bucket_indices
from .distributions import SampleStream, _key_dtype, _sort_runs
from .errors import BadParams, DimensionMismatch, InvariantViolated


@dataclass(frozen=True, eq=False)
class CollisionStats:
    """Per-bucket collision statistic of S samples.

    per_bucket_stat[j] = sum over sampled i in bucket j of C(s_i, 2), with
    s_i the occurrences of i. Indices with s_i = 1 add exactly 0, so the sum
    runs over the indices with s_i >= 2 alone. The s_i (O(S) memory, never
    O(n)) are not kept; the query audit counts distinct p-queries by one
    sort per run.
    """

    total_samples: int
    per_bucket_stat: np.ndarray


def sample_pairs(s: int) -> float:
    """C(s, 2) in floating point, overflow-safe for large s."""
    return s * (s - 1) / 2.0


def collect_counts(
    source: SampleStream, p, scheme: BucketScheme, S: int
) -> CollisionStats:
    """Draw exactly S samples and build the sparse collision statistic.

    One p-query per index drawn at least twice, and none for an index drawn
    once, whose C(1, 2) = 0 leaves its bucket's statistic unchanged: adding
    +0.0 changes no float, and bincount adds the remaining weights in the
    same ascending index order. The samples are drawn in blocks of _BLOCK
    and narrowed block by block, so the sampler's temporaries stay O(_BLOCK)
    rather than O(S); a SampleStream yields the same draws however they are
    batched, so the result does not depend on the block size. The joined
    keys (4 bytes a sample) are sorted in place; beyond them the
    temporaries are boolean masks of one byte a sample, and the outputs
    are sized by the repeated indices.
    """
    if S < 2:
        raise BadParams("S must be >= 2")
    dtype = _key_dtype(source.n)
    draws = np.concatenate([
        source.draw_many(min(_BLOCK, S - a)).astype(dtype, copy=False)
        for a in range(0, S, _BLOCK)
    ])
    repeat = _sort_runs(draws)
    distinct = draws.size - int(np.count_nonzero(repeat))
    if distinct > S:  # sparsity: memory tracks S, not n
        raise InvariantViolated(f"{distinct} distinct indices from {S} samples")
    # a run of repeats rising at edge a and falling at edge b is one index
    # drawn b - a + 1 times, first at sorted position a
    rise, fall = np.flatnonzero(repeat[1:] != repeat[:-1]).reshape(-1, 2).T
    occ = fall - rise + 1
    buckets = bucket_indices(scheme, p.lookup(draws[rise]))
    pairs = occ * (occ - 1) / 2.0
    stat = np.bincount(buckets, weights=pairs, minlength=scheme.k + 1)
    return CollisionStats(total_samples=S, per_bucket_stat=stat)


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Per-bucket verdicts plus the overall accept/reject decision."""

    accept: bool
    triggering_bucket: int | None
    tested: np.ndarray  # bool per bucket
    rejected: np.ndarray  # bool per bucket
    thresholds: np.ndarray
    stats: np.ndarray
    mass_guard: float

    def to_dict(self) -> dict:
        idx = np.nonzero(self.tested)[0]
        return {
            "accept": self.accept,
            "triggering_bucket": self.triggering_bucket,
            "n_tested": int(self.tested.sum()),
            "n_skipped": int(len(self.tested) - self.tested.sum()),
            "mass_guard": self.mass_guard,
            "tested_buckets": {
                int(j): {
                    "stat": float(self.stats[j]),
                    "threshold": float(self.thresholds[j]),
                    "rejected": bool(self.rejected[j]),
                }
                for j in idx
            },
        }


def moment_decide(
    stats: CollisionStats,
    bucket_mass: np.ndarray,
    scheme: BucketScheme,
    eps: float,
) -> MomentReport:
    """Pure decision: reject any tested bucket whose statistic strictly
    exceeds its threshold.

    bucket_mass is whatever mass vector stands in for the true per-bucket
    p-masses: the exact oracle values, or the q_hat estimates in the
    efficient pipeline. Bucket 0 and buckets with mass <= eps/(4k+4) are
    skipped. The threshold is (1 + eps/4) * C(S,2) * mass_j * upper_j.
    """
    k = scheme.k
    mass = np.asarray(bucket_mass, dtype=np.float64)
    if mass.shape[0] != k + 1:
        raise DimensionMismatch(
            f"bucket_mass has length {mass.shape[0]}, expected {k + 1}"
        )
    guard = eps / (4 * k + 4)
    tested = mass > guard
    tested[0] = False
    thresholds = (
        (1.0 + eps / 4.0)
        * sample_pairs(stats.total_samples)
        * mass
        * scheme.boundaries
    )
    rejected = tested & (stats.per_bucket_stat > thresholds)
    bad = np.nonzero(rejected)[0]
    return MomentReport(
        accept=not bad.size,
        triggering_bucket=int(bad[0]) if bad.size else None,
        tested=tested,
        rejected=rejected,
        thresholds=thresholds,
        stats=stats.per_bucket_stat,
        mass_guard=guard,
    )

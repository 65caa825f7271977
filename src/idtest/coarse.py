"""Coarse bucket-mass comparator.

Distinguishes "p = q" (Case 1) from "the bucket-mass vectors of p and q
are at l1 distance >= delta" (Case 2) without ever computing the exact
per-bucket masses of p. Three estimation phases feed a pure decision:

  1. q-sampling: empirical bucket frequencies q_hat of the unknown side.
  2. heavy capture: enough q-samples that, when p = q, every element
     heavy enough to sit in a bucket >= j_star has been seen at least
     once; summing p over the distinct captured indices then gives the
     exact heavy bucket masses (and a lower bound otherwise).
  3. uniform probing: uniform indices from [n], each contributing
     p_i * n when its bucket is light, give unbiased estimates of the
     light bucket masses.

Heavy buckets are compared at tolerance delta/(8k+8), light buckets at
delta/(4k+4); the first strict exceedance (heavy checks first, then
light, each in increasing bucket order) yields Case 2.

Phases 1 and 3 stream their samples and probes in blocks of
bucketing._BLOCK, so a phase holds O(block) temporaries (a few MB) at any
size; only the index arrays given to p.lookup outlive their block. The
results are bit-equal to one pass over the whole phase: integer counts
add exactly, and np.add.at accumulates the probe contributions in input
order, as bincount(weights=) does.

identity_test does not run this stage on a constant p, which cannot fail
it (see tester); lemma_check's uniform Case-1 shape still runs it on one,
and that shape alone pays for the probe phase's one-value path: a block
that p answers with one value (a constant pmf's zero-stride lookup) is
bucketed, checked and scaled once, its probe sums bit-equal to the
element-wise ones, and the p-queries are still one per index. The other
phases have no branch of their own: bucket_indices answers a one-value
block with one scalar search, and the heavy phase returns zeros when no
draw is heavy, which a uniform p never is (1/n < 1/sqrt(n)).

coarse_compare runs the phases at the sizes of a tester.Plan. The module
holds no configuration and does no sizing of its own: callers size a run
once, with tester.plan_sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bucketing import _BLOCK, BucketScheme, _one_value, bucket_indices
from .errors import BadParams, InvariantViolated
from .distributions import SampleStream

if TYPE_CHECKING:
    from .tester import Plan

STEP_HEAVY = "heavy-check"
STEP_PROBE = "probe-check"
CASE1 = "case1"
CASE2 = "case2"


@dataclass(frozen=True, eq=False)
class CoarseEstimates:
    """Working state of one comparator run.

    q_hat[j]      empirical q-frequency of bucket j (sums to 1 exactly).
    heavy_mass[j] sum of p over the distinct captured indices in bucket j,
                  for j >= j_star; zero below. Never exceeds the true
                  bucket mass (each element counted once).
    probe_mass[j] unbiased uniform-probe estimate of bucket j's p-mass,
                  for j < j_star; zero at and above.
    """

    q_hat: np.ndarray
    heavy_mass: np.ndarray
    probe_mass: np.ndarray
    s2_size: int


@dataclass(frozen=True, eq=False)
class CoarseVerdict:
    case: str  # CASE1 | CASE2
    triggering_step: str | None  # STEP_HEAVY | STEP_PROBE | None
    triggering_bucket: int | None
    estimates: CoarseEstimates

    def to_dict(self) -> dict:
        nz = lambda v: {int(j): float(x) for j, x in enumerate(v) if x != 0.0}
        return {
            "case": self.case,
            "triggering_step": self.triggering_step,
            "triggering_bucket": self.triggering_bucket,
            "q_hat_nonzero": nz(self.estimates.q_hat),
            "heavy_mass_nonzero": nz(self.estimates.heavy_mass),
            "probe_mass_nonzero": nz(self.estimates.probe_mass),
            "s2_size": self.estimates.s2_size,
        }


def estimate_q(
    source: SampleStream, p, scheme: BucketScheme, m: int
) -> np.ndarray:
    """Empirical bucket frequencies from exactly m q-samples.

    Performs exactly m p-queries (one per sample, repeats included). The
    samples are drawn, looked up and counted in blocks of _BLOCK, so the
    temporaries stay O(_BLOCK) rather than O(m); the integer counts add up
    exactly, and a SampleStream yields the same draws however they are
    batched, so the result does not depend on the block size.
    """
    if m < 1:
        raise BadParams("m must be >= 1")
    counts = np.zeros(scheme.k + 1, dtype=np.int64)
    for a in range(0, m, _BLOCK):
        # draws stays bound until the next block's draws replace it: freeing
        # it right after the lookup made each call on a non-uniform p fault
        # its temporaries in again (3,688 against 864 faults at n = 400)
        draws = source.draw_many(min(_BLOCK, m - a))
        pv = p.lookup(draws)
        counts += np.bincount(bucket_indices(scheme, pv), minlength=scheme.k + 1)
    return counts / float(m)


def collect_heavy_support(
    source: SampleStream, p, scheme: BucketScheme, s1_size: int
) -> np.ndarray:
    """Deduplicated heavy-bucket p-mass from s1_size q-samples.

    Each distinct sampled index in a bucket >= j_star contributes its
    p-value once; entries below j_star stay zero. Always a lower bound
    on the true bucket mass. The masses are float64 zeros when no draw is
    heavy.
    """
    if s1_size < 1:
        raise BadParams("s1_size must be >= 1")
    # a FileSampleStream hands out a view of its buffer: only copies of the
    # draws are sorted
    draws = source.draw_many(s1_size)
    pv = p.lookup(draws)  # exactly one p-query per draw
    buckets = bucket_indices(scheme, pv)
    heavy = np.flatnonzero(buckets >= scheme.j_star)
    if not heavy.size:
        return np.zeros(scheme.k + 1)
    heavy = heavy[draws[heavy].argsort()]
    keys = draws[heavy]
    # one p-value per distinct heavy index, in index order
    pick = heavy[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return np.bincount(buckets[pick], weights=pv[pick], minlength=scheme.k + 1)


def uniform_probe(
    p,
    scheme: BucketScheme,
    s2_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Light-bucket p-mass estimates from uniform probes of [n].

    Draws s2_size indices uniformly with replacement and performs exactly
    that many p-queries. Each probe landing in a bucket below j_star
    contributes p_i * n, so the estimate is unbiased for the bucket mass.

    The probes run in blocks of _BLOCK, so the temporaries stay O(_BLOCK)
    rather than O(s2_size); only the index arrays handed to p.lookup
    outlive their block (a QueryCounter keeps them). The uniforms fill one
    reused buffer, which consumes rng exactly as one s2_size draw would. A
    probe in a heavy bucket contributes 0.0, so no compaction is needed,
    and np.add.at adds the contributions into one accumulator in input
    order, as bincount(weights=) does over the whole array: the sums are
    bit-equal to the unblocked ones.
    """
    if s2_size < 1:
        raise BadParams("s2_size must be >= 1")
    n = scheme.n
    # every light-bucket probe is worth at most ~1/sqrt(n): the top light
    # boundary sits below bucket j_star's upper bound
    limit = (1.0 + scheme.eps_prime) / math.sqrt(n) * (1.0 + 1e-12)
    total = np.zeros(scheme.k + 1)
    u = np.empty(min(s2_size, _BLOCK))
    for a in range(0, s2_size, _BLOCK):
        ub = rng.random(out=u[: min(_BLOCK, s2_size - a)])
        ub *= n
        idx = ub.astype(np.int64)  # fresh each block: p.lookup may keep it
        np.minimum(idx, n - 1, out=idx)
        pv = p.lookup(idx)
        if _one_value(pv):
            pv = pv[:1]  # one value: bucketed, checked and scaled once
        buckets = bucket_indices(scheme, pv)
        contrib = np.where(buckets < scheme.j_star, pv, 0.0)
        peak = float(contrib.max())
        if peak > limit:
            raise InvariantViolated(
                f"light-bucket probe contribution {peak} exceeds {limit}"
            )
        contrib *= n
        if buckets.size < idx.size:
            # a one-value block adds its contribution once per probe, in
            # order, through a zero-stride view of its one bucket
            buckets = np.ndarray(idx.shape, np.int64, buckets, 0, (0,))
        np.add.at(total, buckets, contrib)
    return total / float(s2_size)


def coarse_decide(
    estimates: CoarseEstimates, scheme: BucketScheme, delta: float
) -> CoarseVerdict:
    """Pure threshold decision over the collected estimates.

    Heavy buckets [j_star, k] are scanned first at tolerance
    delta/(8k+8), then light buckets [0, j_star) at delta/(4k+4), both
    in increasing bucket order; the first strict exceedance is reported.
    """
    k = scheme.k
    thr_heavy = delta / (8 * k + 8)
    thr_probe = delta / (4 * k + 4)
    q_hat = estimates.q_hat

    heavy_dev = np.abs(q_hat - estimates.heavy_mass)
    heavy_bad = np.nonzero(heavy_dev[scheme.j_star :] > thr_heavy)[0]
    if heavy_bad.size:
        j = int(scheme.j_star + heavy_bad[0])
        return CoarseVerdict(CASE2, STEP_HEAVY, j, estimates)

    probe_dev = np.abs(q_hat - estimates.probe_mass)
    probe_bad = np.nonzero(probe_dev[: scheme.j_star] > thr_probe)[0]
    if probe_bad.size:
        return CoarseVerdict(CASE2, STEP_PROBE, int(probe_bad[0]), estimates)

    return CoarseVerdict(CASE1, None, None, estimates)


def coarse_compare(
    source: SampleStream,
    p,
    scheme: BucketScheme,
    sizes: Plan,
    rng: np.random.Generator,
) -> CoarseVerdict:
    """Run all three phases at sizes m1, s1, s2 and decide at sizes.delta.

    Consumes m1 + s1 q-samples and performs m1 + s1 + s2 p-queries.
    """
    q_hat = estimate_q(source, p, scheme, sizes.m1)
    heavy = collect_heavy_support(source, p, scheme, sizes.s1)
    probe = uniform_probe(p, scheme, sizes.s2, rng)
    estimates = CoarseEstimates(
        q_hat=q_hat, heavy_mass=heavy, probe_mass=probe, s2_size=sizes.s2
    )
    return coarse_decide(estimates, scheme, sizes.delta)

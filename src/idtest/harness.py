"""Statistical validation and benchmarking.

Every probabilistic contract in the package is checked here with seeded
Monte Carlo trials and Wilson score intervals (never raw proportions):
accept/reject rates of the full tester, the coarse comparator's
Case 1 / Case 2 separation against exact oracles, estimator bias, query
budgets, and sample-complexity scaling. Every check runs at the tester's
sample-size constants, which are fixed in tester.py.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bucketing import bucket_indices, build_scheme, exact_bucket_masses
from .coarse import CASE1, CASE2, coarse_compare, estimate_q
from .distributions import (
    AliasSampler,
    ProbabilityVector,
    generate_instance,
    advertised_distance,
    l1_distance,
    perturbed_pmf,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from .errors import BadParams, InvariantViolated
from .moment import collect_counts, moment_decide
from .rng import TAG_PROBE, TAG_TRIAL, seed_sequence, spawn_rng
from .tester import (
    DECISION_ACCEPT,
    SCHEME_C,
    TesterConfig,
    identity_test,
    plan_sizes,
    query_audit,
)

WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int):
    """Wilson score interval for a binomial proportion, at WILSON_Z."""
    if trials <= 0:
        raise BadParams("trials must be positive")
    if not 0 <= successes <= trials:
        raise BadParams("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        WILSON_Z
        * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True, eq=False)
class Instance:
    """A (p, q) pair plus its oracle-confirmed l1 distance."""

    kind: str
    n: int
    seed: int
    params: dict
    p: ProbabilityVector
    q: ProbabilityVector
    distance: float

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "seed": self.seed,
            "params": self.params,
            "l1_distance": self.distance,
        }


def make_instance(kind: str, n: int, seed: int, **params) -> Instance:
    """Generate an instance and confirm its advertised distance exactly."""
    p, q = generate_instance(kind, n, seed, **params)
    dist = l1_distance(p, q)
    target = advertised_distance(kind, **params)
    if abs(dist - target) > 1e-9:
        raise InvariantViolated(
            f"{kind}: oracle distance {dist} != advertised {target}"
        )
    return Instance(kind, n, seed, dict(params), p, q, dist)


@dataclass(frozen=True)
class TrialReport:
    instance: dict
    trials: int
    accepts: int
    accept_rate: float
    wilson: tuple[float, float]
    mean_q_samples: float
    mean_p_queries: float
    audits_ok: bool
    master_seed: int


def _map_trials(worker, args: tuple, trials: int, jobs: int) -> list:
    """worker(*args, indices) over trial indices 0 .. trials-1.

    One chunk runs in this process when jobs <= 1; otherwise the indices
    are split into at most `jobs` chunks, run by at most one worker process
    per chunk and per CPU. Returns one result per chunk, in index order.
    """
    if jobs <= 1:
        return [worker(*args, range(trials))]
    chunks = [c.tolist() for c in np.array_split(np.arange(trials), jobs) if len(c)]
    workers = min(len(chunks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(partial(worker, *args), chunks))


def _trial_batch(p, q, config, path: tuple, indices) -> list:
    """Audited tester runs, (decision, AuditReport) per trial index t, each
    on the q-stream seeded (config.master_seed, TAG_TRIAL, *path, t)."""
    proto = AliasSampler(q, 0)
    out = []
    for t in indices:
        stream = proto.spawn(seed_sequence(config.master_seed, TAG_TRIAL, *path, t))
        v = identity_test(p, stream, config, trial_index=t)
        out.append((v.decision, query_audit(v, p.n, config)))
    return out


def run_trials(
    instance: Instance,
    config: TesterConfig,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> TrialReport:
    """Independent seeded tester runs with Wilson interval and audits.

    Deterministic given master_seed regardless of jobs: trial t always
    uses the stream seed (master_seed, TAG_TRIAL, t) and its own probe
    sub-seed.
    """
    if trials < 30:
        raise BadParams("need at least 30 trials for a meaningful interval")
    config = replace(config, master_seed=master_seed)
    batches = _map_trials(
        _trial_batch, (instance.p, instance.q, config, ()), trials, jobs
    )
    runs = [r for batch in batches for r in batch]
    accepts = sum(d == DECISION_ACCEPT for d, _ in runs)
    return TrialReport(
        instance=instance.descriptor(),
        trials=trials,
        accepts=accepts,
        accept_rate=accepts / trials,
        wilson=wilson_interval(accepts, trials),
        mean_q_samples=float(np.mean([a.q_samples_used for _, a in runs])),
        mean_p_queries=float(np.mean([a.p_queries_used for _, a in runs])),
        audits_ok=True,  # query_audit raises on violation
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Coarse comparator verification against exact oracles
# ---------------------------------------------------------------------------

# Reference scheme for comparator checks: the coarsest allowed partition
# keeps k small enough that the per-bucket tolerances delta/(8k+8) are
# reachable with desk-scale sample sizes.
LEMMA_SCHEME_EPS = 2.0
LEMMA_SCHEME_C = 1.0


def shifted_bucket_pair(
    base_pmf: ProbabilityVector,
    scheme,
    shift: float,
    donor_bucket: int,
    receiver_bucket: int,
) -> ProbabilityVector:
    """q equal to base_pmf with `shift` mass moved between two buckets.

    q is rescaled proportionally inside each bucket, so the bucket-mass
    vectors of p and q differ by exactly 2 * shift in l1 while q keeps
    p's shape within every bucket.
    """
    masses = exact_bucket_masses(scheme, base_pmf)
    pa, pb = masses[donor_bucket], masses[receiver_bucket]
    if shift > pa * (1 + 1e-12):
        raise BadParams(
            f"donor bucket {donor_bucket} mass {pa} too small for shift {shift}"
        )
    if pb <= 0:
        raise BadParams(f"receiver bucket {receiver_bucket} has no mass")
    buckets = bucket_indices(scheme, base_pmf.probs)
    q = base_pmf.probs.copy()
    q[buckets == donor_bucket] *= 1.0 - shift / pa
    q[buckets == receiver_bucket] *= 1.0 + shift / pb
    return validate_pmf(q)


def _comparator_batch(p, q, scheme, sizes, want_case, master_seed, indices) -> int:
    """Comparator runs for lemma_check; the number that decided want_case."""
    proto = AliasSampler(q, 0)
    successes = 0
    for t in indices:
        stream = proto.spawn(seed_sequence(master_seed, TAG_TRIAL, t))
        rng = spawn_rng(master_seed, TAG_PROBE, t)
        verdict = coarse_compare(stream, p, scheme, sizes, rng)
        successes += verdict.case == want_case
    return successes


def lemma_check(
    n: int,
    delta: float,
    trials: int = 300,
    master_seed: int = 0,
    include_gap: bool = True,
    jobs: int = 1,
) -> dict:
    """Verify the comparator's Case 1 / Case 2 separation statistically.

    The comparator runs at tolerance delta with the tester's multipliers,
    uncapped. A plan above MAX_BUDGET is refused with BadParams, as in the
    tester.

    Case 1 families are p = q over three pmf shapes. Case 2 families move
    delta/2 of q-mass between two buckets of a zipf base, one move into a
    heavy bucket and one between light buckets; each instance is gated by
    the exact oracle confirming ||P - Q||_1 >= delta (within 1e-9) before
    any trial runs. Gap instances (distance delta/2) are reported without
    a pass/fail judgement since no guarantee applies there.
    """
    if n > 10**4:
        raise BadParams("lemma check needs n <= 10^4 for the exact oracles")
    if not 0.0 < delta <= 2.0:
        raise BadParams("delta must be in (0, 2]")
    if trials < 1:
        raise BadParams("trials must be >= 1")
    scheme = build_scheme(n, LEMMA_SCHEME_EPS, LEMMA_SCHEME_C)
    if scheme.j_star < 2:
        raise BadParams(
            f"lemma check needs two light buckets; n={n} gives j_star={scheme.j_star}"
        )
    sizes = plan_sizes(scheme, delta, False)

    zipf = zipf_pmf(n)
    case1_pairs = {
        "uniform": (uniform_pmf(n),) * 2,
        "zipf": (zipf, zipf),
        "eps-perturbed-self": (perturbed_pmf(n, 0.5, master_seed),) * 2,
    }

    masses = exact_bucket_masses(scheme, zipf)
    heavy_j = int(np.argmax(masses[scheme.j_star :]) + scheme.j_star)
    donor, light_recv = (int(j) for j in np.argsort(masses[: scheme.j_star])[::-1][:2])

    def shifted(mass, receiver):  # q = zipf with `mass` moved out of the donor
        return zipf, shifted_bucket_pair(zipf, scheme, mass, donor, receiver)

    case2_pairs = {
        "shift-into-heavy": shifted(delta / 2, heavy_j),
        "shift-light-to-light": shifted(delta / 2, light_recv),
    }

    def run_pair(label, p, q, want, pair_trials, seed, gate):
        """(bucket l1, runs that decided want) of (p, q), gated on that l1."""
        P = exact_bucket_masses(scheme, p)
        Q = exact_bucket_masses(scheme, p, weight_pmf=q)
        bl1 = float(np.abs(P - Q).sum())
        if not gate(bl1):
            raise InvariantViolated(f"{label}: oracle gate failed, bucket l1 = {bl1}")
        args = (p, q, scheme, sizes, want, seed)
        return bl1, sum(_map_trials(_comparator_batch, args, pair_trials, jobs))

    def run_family(name, pairs, want, gate):
        per = max(1, trials // len(pairs))
        shapes, bucket_l1 = {}, {}
        for i, (sname, (p, q)) in enumerate(pairs.items()):
            label, seed = f"{name}/{sname}", master_seed + 7919 * (i + 1)
            bucket_l1[sname], succ = run_pair(label, p, q, want, per, seed, gate)
            shapes[sname] = {"trials": per, "successes": succ, "rate": succ / per,
                             "wilson_lo": wilson_interval(succ, per)[0]}
        succ, total = sum(s["successes"] for s in shapes.values()), per * len(pairs)
        lo, hi = wilson_interval(succ, total)
        return {
            "name": name,
            "trials": total,
            "successes": succ,
            "rate": succ / total,
            "wilson_lo": lo,
            "wilson_hi": hi,
            "shapes": shapes,
            "bucket_l1": bucket_l1,
        }

    case1 = run_family("case1", case1_pairs, CASE1, gate=lambda d: d <= 1e-12)
    case2 = run_family("case2", case2_pairs, CASE2, gate=lambda d: d >= delta - 1e-9)
    report = {
        "n": n,
        "delta": delta,
        "k": scheme.k,
        "j_star": scheme.j_star,
        "scheme_eps": LEMMA_SCHEME_EPS,
        "scheme_C": LEMMA_SCHEME_C,
        "master_seed": master_seed,
        "trials_requested": trials,
        "case1": case1,
        "case2": case2,
    }
    if include_gap:
        gap_trials = max(30, trials // 3)
        bl1, succ = run_pair("gap", *shifted(delta / 4, heavy_j), CASE1, gap_trials,
                             master_seed + 104729, gate=lambda d: True)
        report["gap"] = {
            "bucket_l1": bl1,
            "trials": gap_trials,
            "case1_rate": succ / gap_trials,
            "note": "distance inside the promise gap; no guarantee applies",
        }
    return report


# ---------------------------------------------------------------------------
# Baseline (explicit bucket masses) and scaling experiments
# ---------------------------------------------------------------------------


# The baseline's q-frequency and collision sample sizes: small constants,
# so its O(n) scan dominates its work. Read at each call.
BASELINE_M1 = BASELINE_S = 128


def baseline_identity_test(p: ProbabilityVector, source, eps: float) -> dict:
    """Explicit-P_j tester: O(n) scan + threshold checks.

    Builds the tester's scheme (SCHEME_C), estimates q's bucket masses from
    BASELINE_M1 samples and runs the collision test on BASELINE_S more.
    Its work counters are a formula, not a measurement: q_samples_used is
    the samples drawn, and p_queries_used is set to n, the scan, not
    counted. So a run that reaches the collision test reports
    n + BASELINE_M1 + BASELINE_S in all, and the scaling foil's slope is
    near 1 by construction.
    """
    m1, S = BASELINE_M1, BASELINE_S
    scheme = build_scheme(p.n, eps, SCHEME_C)
    masses = exact_bucket_masses(scheme, p)  # the O(n) step
    q_hat = estimate_q(source, p, scheme, m1)
    l1_bucket = float(np.abs(masses - q_hat).sum())
    q_used = m1
    p_queries = p.n
    if l1_bucket > eps / 4.0:
        return {
            "decision": "reject",
            "stage": "mass-compare",
            "q_samples_used": q_used,
            "p_queries_used": p_queries,
        }
    stats = collect_counts(source, p, scheme, S)
    report = moment_decide(stats, masses, scheme, eps)
    return {
        "decision": "accept" if report.accept else "reject",
        "stage": "none" if report.accept else "moment",
        "q_samples_used": q_used + S,
        "p_queries_used": p_queries,
    }


def fit_loglog_slope(ns, costs) -> float | None:
    """Least-squares slope of log(cost) on log(n); None below two distinct n."""
    if len(set(ns)) < 2:
        return None
    return float(np.polyfit(np.log(np.asarray(ns, float)),
                            np.log(np.asarray(costs, float)), 1)[0])


def scaling_experiment(
    n_grid,
    eps: float,
    trials_per_point: int = 3,
    master_seed: int = 0,
) -> dict:
    """Measure samples + queries across a geometric n grid and fit slopes.

    The efficient tester's fitted log-log slope lands near 0.5 (plus log
    drift); the baseline's near 1 because its O(n) scan dominates.
    slope_wall fits the tester's wall time per run (wall_ms) the same way.
    A row's budget is the p-query budget its runs are audited against.
    A grid with fewer than two distinct n gets no fit: each slope is None.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise BadParams("empty n grid")
    if trials_per_point < 1:
        raise BadParams("trials_per_point must be >= 1")
    config = TesterConfig(eps=eps, master_seed=master_seed)
    rows = []
    for n in n_grid:
        inst = make_instance("identical-uniform", n, seed=master_seed)
        t0 = time.perf_counter()
        runs = _trial_batch(inst.p, inst.q, config, (n,), range(trials_per_point))
        wall_ms = (time.perf_counter() - t0) * 1000.0 / trials_per_point
        q_used = np.array([a.q_samples_used for _, a in runs])
        p_used = np.array([a.p_queries_used for _, a in runs])
        bstream = AliasSampler(inst.q, seed_sequence(master_seed, TAG_TRIAL, n, 999))
        bres = baseline_identity_test(inst.p, bstream, eps)
        rows.append(
            {
                "n": n,
                "q_samples": float(q_used.mean()),
                "p_queries": float(p_used.mean()),
                "total": float((q_used + p_used).mean()),
                "budget": runs[0][1].p_query_budget,
                "baseline_total": bres["q_samples_used"] + bres["p_queries_used"],
                "wall_ms": wall_ms,
            }
        )
    ns = [r["n"] for r in rows]
    return {
        "eps": eps,
        "master_seed": master_seed,
        "rows": rows,
        "slope_total": fit_loglog_slope(ns, [r["total"] for r in rows]),
        "slope_baseline": fit_loglog_slope(ns, [r["baseline_total"] for r in rows]),
        "slope_wall": fit_loglog_slope(ns, [r["wall_ms"] for r in rows]),
    }

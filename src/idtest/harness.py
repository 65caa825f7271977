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
from .coarse import CASE1, CASE2, coarse_compare
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
from .rng import TAG_PROBE, TAG_TRIAL, seed_sequence, spawn_rng
from .tester import (
    DECISION_ACCEPT,
    SCHEME_C,
    TesterConfig,
    closed_form_budget,
    identity_test,
    plan_sizes,
    query_audit,
)

WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise BadParams("trials must be positive")
    if not 0 <= successes <= trials:
        raise BadParams("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (
        z
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


def _trial_batch(p, q, config, indices) -> list[tuple[bool, int, int]]:
    """Tester runs for run_trials; (accepted, q_used, p_used) per index."""
    proto = AliasSampler(q, 0)
    out = []
    for t in indices:
        stream = proto.spawn(seed_sequence(config.master_seed, TAG_TRIAL, t))
        v = identity_test(p, stream, config, trial_index=t)
        query_audit(v, p.n, config)
        out.append((v.decision == DECISION_ACCEPT, v.q_samples_used, v.p_queries_used))
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
        _trial_batch, (instance.p, instance.q, config), trials, jobs
    )
    results = [r for batch in batches for r in batch]
    accepts = sum(1 for acc, _, _ in results if acc)
    return TrialReport(
        instance=instance.descriptor(),
        trials=trials,
        accepts=accepts,
        accept_rate=accepts / trials,
        wilson=wilson_interval(accepts, trials),
        mean_q_samples=float(np.mean([q for _, q, _ in results])),
        mean_p_queries=float(np.mean([p for _, _, p in results])),
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
    sizes, _ = plan_sizes(scheme, delta, None)

    zipf = zipf_pmf(n)
    case1_shapes = {
        "uniform": uniform_pmf(n),
        "zipf": zipf,
        "eps-perturbed-self": perturbed_pmf(n, 0.5, master_seed),
    }

    masses = exact_bucket_masses(scheme, zipf)
    heavy_j = int(np.argmax(masses[scheme.j_star :]) + scheme.j_star)
    light = np.argsort(masses[: scheme.j_star])[::-1][:2]
    donor = int(light[0])
    light_recv = int(light[1])
    case2_shapes = {
        "shift-into-heavy": shifted_bucket_pair(zipf, scheme, delta / 2, donor, heavy_j),
        "shift-light-to-light": shifted_bucket_pair(
            zipf, scheme, delta / 2, donor, light_recv
        ),
    }

    def run_family(name, shapes, want, per_trials, gate):
        shape_stats, bucket_l1 = {}, {}
        total_succ = 0
        for i, (sname, q) in enumerate(shapes.items()):
            base_p = shapes[sname] if want == CASE1 else zipf
            P = exact_bucket_masses(scheme, base_p)
            Q = exact_bucket_masses(scheme, base_p, weight_pmf=q)
            bl1 = float(np.abs(P - Q).sum())
            bucket_l1[sname] = bl1
            if not gate(bl1):
                raise InvariantViolated(
                    f"{name}/{sname}: oracle gate failed, bucket l1 = {bl1}"
                )
            args = (base_p, q, scheme, sizes, want, master_seed + 7919 * (i + 1))
            succ = sum(_map_trials(_comparator_batch, args, per_trials, jobs))
            total_succ += succ
            shape_stats[sname] = {
                "trials": per_trials,
                "successes": succ,
                "rate": succ / per_trials,
                "wilson_lo": wilson_interval(succ, per_trials)[0],
            }
        total = per_trials * len(shapes)
        lo, hi = wilson_interval(total_succ, total)
        return {
            "name": name,
            "trials": total,
            "successes": total_succ,
            "rate": total_succ / total,
            "wilson_lo": lo,
            "wilson_hi": hi,
            "shapes": shape_stats,
            "bucket_l1": bucket_l1,
        }

    per1 = max(1, trials // len(case1_shapes))
    per2 = max(1, trials // len(case2_shapes))
    case1 = run_family(
        "case1", case1_shapes, CASE1, per1, gate=lambda d: d <= 1e-12
    )
    case2 = run_family(
        "case2", case2_shapes, CASE2, per2, gate=lambda d: d >= delta - 1e-9
    )
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
        gap_q = shifted_bucket_pair(zipf, scheme, delta / 4, donor, heavy_j)
        gap_trials = max(30, trials // 3)
        args = (zipf, gap_q, scheme, sizes, CASE1, master_seed + 104729)
        succ = sum(_map_trials(_comparator_batch, args, gap_trials, jobs))
        P = exact_bucket_masses(scheme, zipf)
        Q = exact_bucket_masses(scheme, zipf, weight_pmf=gap_q)
        report["gap"] = {
            "bucket_l1": float(np.abs(P - Q).sum()),
            "trials": gap_trials,
            "case1_rate": succ / gap_trials,
            "note": "distance inside the promise gap; no guarantee applies",
        }
    return report


# ---------------------------------------------------------------------------
# Baseline (explicit bucket masses) and scaling experiments
# ---------------------------------------------------------------------------


def baseline_identity_test(
    p: ProbabilityVector,
    source,
    eps: float,
    C: float,
    m1: int = 128,
    S: int = 128,
) -> dict:
    """Explicit-P_j tester: O(n) scan + threshold checks.

    Estimates q's bucket masses from m1 samples and runs the collision
    test on S more. Its cost is dominated by the n p-queries of the scan,
    so the scaling foil holds m1 and S at small constants, making the
    linear term visible; verdict cross-checks pass sizes matching the
    efficient pipeline. Returns decision plus exact work counters (bucket
    lookups for samples reuse the scanned table).
    """
    from .coarse import estimate_q
    from .moment import collect_counts, moment_decide

    scheme = build_scheme(p.n, eps, C)
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
    A grid with fewer than two distinct n gets no fit: each slope is None.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise BadParams("empty n grid")
    if trials_per_point < 1:
        raise BadParams("trials_per_point must be >= 1")
    config = TesterConfig(eps=eps)
    rows = []
    for n in n_grid:
        inst = make_instance("identical-uniform", n, seed=master_seed)
        proto = AliasSampler(inst.q, 0)
        totals, q_tot, p_tot = [], [], []
        t0 = time.perf_counter()
        for t in range(trials_per_point):
            stream = proto.spawn(seed_sequence(master_seed, TAG_TRIAL, n, t))
            cfg_t = replace(config, master_seed=master_seed + n + t)
            v = identity_test(inst.p, stream, cfg_t, trial_index=t)
            query_audit(v, n, cfg_t)
            q_tot.append(v.q_samples_used)
            p_tot.append(v.p_queries_used)
            totals.append(v.q_samples_used + v.p_queries_used)
        wall_ms = (time.perf_counter() - t0) * 1000.0 / trials_per_point
        bstream = proto.spawn(seed_sequence(master_seed, TAG_TRIAL, n, 999))
        bres = baseline_identity_test(inst.p, bstream, eps, SCHEME_C)
        b = closed_form_budget(n, config)
        rows.append(
            {
                "n": n,
                "q_samples": float(np.mean(q_tot)),
                "p_queries": float(np.mean(p_tot)),
                "total": float(np.mean(totals)),
                "budget": b["total"],
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

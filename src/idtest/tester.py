"""The composed sublinear identity tester.

Pipeline: build the bucket scheme, size the run once (a Plan), run the
coarse bucket-mass comparator with delta = eps / C_PRIME, reject
immediately on Case 2, otherwise run the collision test using the
comparator's q_hat estimates as the bucket masses. Work is
O(sqrt(n) * polylog): every coarse phase is capped at PHASE_CAP * sqrt(n),
and nothing in the pipeline ever scans the domain, which the query audit
enforces. TesterConfig is the package's only configuration object: it
holds eps, the amplification trial count and the seed; the sample-size
constants below are fixed, and plan_sizes alone turns them into sizes.

A constant p (ProbabilityVector.constant, such as the uniform pmf) skips
the coarse stage and runs at the plan's coarse-free form (Plan.coarse_free:
S samples, m1 = s1 = s2 = 0). The stage cannot use such a p: its value
c ~ 1/n lies in one bucket b < j_star (c < 1/sqrt(n) / (1 + eps')), so
q_hat is the unit vector e_b whatever q is, no bucket is heavy, and the
probe check could fail only on the rounding of n * c, rejecting a valid
p = q. The collision test gets e_b from one scalar bucket_indices call.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .bucketing import MAX_BUDGET, BucketScheme, bucket_indices, build_scheme
from .coarse import CASE2, CoarseVerdict, coarse_compare
from .distributions import ProbabilityVector, SampleStream, _key_dtype, _sort_runs
from .errors import BadParams, BudgetExceeded, DomainMismatch, InvariantViolated
from .moment import collect_counts, moment_decide
from .rng import TAG_PROBE, spawn_rng

DECISION_ACCEPT = "accept"
DECISION_REJECT = "reject"
STAGE_COARSE = "coarse"
STAGE_MOMENT = "moment"
STAGE_NONE = "none"

C_PRIME = 8.0  # the coarse stage runs at delta = eps / C_PRIME
PHASE_CAP = 150.0  # each coarse phase takes at most ceil(PHASE_CAP * sqrt(n))
# Bucket scheme constant (eps' = eps / SCHEME_C), coarse phase multipliers
# C1-C3 and collision sample multiplier C4 (see plan_sizes).
# calibration.json records the multiplier search that chose them.
SCHEME_C = 100.0
C1, C2, C3, C4 = 64.0, 4.0, 8.0, 3.0


@dataclass(frozen=True)
class TesterConfig:
    """Full tester configuration, and the only one in the package."""

    __test__ = False  # keep pytest from collecting this as a test class

    eps: float
    trials_for_amplification: int = 1
    master_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            integral = f.name != "eps"  # the trial count and the seed
            if (
                not isinstance(v, numbers.Integral if integral else numbers.Real)
                or isinstance(v, bool)
                or not (isinstance(v, numbers.Integral) or math.isfinite(v))
            ):
                what = "an integer" if integral else "a finite number"
                raise BadParams(f"{f.name} must be {what}, got {v!r}")
            if integral:  # a numpy integer is echoed as a JSON-ready int
                object.__setattr__(self, f.name, int(v))
        if not 0.0 < self.eps <= 2.0:
            raise BadParams("eps must be in (0, 2]")
        t = self.trials_for_amplification
        if t < 1 or t % 2 == 0:
            raise BadParams("amplification trials must be odd and >= 1")
        if self.master_seed < 0:
            raise BadParams("master_seed must be non-negative")


class QueryCounter:
    """Counting view of a pmf: total lookups and distinct indices touched.

    Single-consumer, one per tester run, with the narrow lookup interface
    of ProbabilityVector. lookup keeps each index array, which callers must
    not modify; distinct_count sorts them once per run: O(Q log Q) time
    and O(Q) memory for Q p-queries.
    """

    def __init__(self, pmf: ProbabilityVector):
        self._pmf = pmf
        self.total = 0
        self._queried: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    @property
    def distinct_count(self) -> int:
        queried = np.concatenate(self._queried, dtype=_key_dtype(self._pmf.n))
        return queried.size - int(np.count_nonzero(_sort_runs(queried)))

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        self.total += int(indices.size)
        self._queried.append(indices.reshape(-1))
        return self._pmf.lookup(indices)


@dataclass(frozen=True, eq=False)
class Verdict:
    """Decision plus full diagnostics and audited work counters."""

    decision: str  # accept | reject
    stage: str  # coarse | moment | none
    triggering_bucket: int | None
    q_samples_used: int
    p_queries_used: int
    distinct_p_queried: int
    sizes: dict
    k: int
    j_star: int
    j_star_degenerate: bool
    coarse: CoarseVerdict | None  # None when p is constant (stage skipped)
    moment: object | None  # MomentReport when the moment stage ran
    seed: int
    trial_index: int
    config: TesterConfig

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.coarse is not None:
            out["coarse"] = self.coarse.to_dict()
        if self.moment is not None:
            out["moment"] = self.moment.to_dict()
        out["config"] = asdict(self.config)
        return {"schema_version": 1, **out}


@dataclass(frozen=True)
class Plan:
    """Sample and query counts of one run, fixed before any sampling.

    m1, s1 and s2 size the three coarse phases, which decide at tolerance
    delta; S is the collision sample, 0 for the comparator alone. capped
    says which of m1, s1 and s2 the PHASE_CAP cap cut.
    """

    delta: float
    m1: int
    s1: int
    s2: int
    S: int
    capped: tuple[bool, bool, bool]

    @cached_property
    def coarse_free(self) -> Plan:
        """This plan without the coarse phases: the run of a constant p.

        Cached with the plan, as a run and its audit each read it.
        """
        return replace(self, m1=0, s1=0, s2=0, capped=(False, False, False))

    def to_dict(self) -> dict:
        """The sizes a Verdict reports."""
        return {"m1": self.m1, "s1": self.s1, "s2": self.s2, "S": self.S,
                "capped": list(self.capped)}

    @property
    def q_sample_budget(self) -> int:
        """m1 + s1 + S, the q-samples of a run that reaches the collision test."""
        return self.m1 + self.s1 + self.S

    @property
    def p_query_budget(self) -> int:
        """m1 + s1 + s2 + S, the work budget B(n, eps) of the paper."""
        return self.m1 + self.s1 + self.s2 + self.S


def plan_sizes(
    scheme: BucketScheme, delta: float, cap: bool, eps: float | None = None
) -> Plan:
    """Evaluate the phase sizes for a scheme, without sampling.

        m1 = ceil(C1 * (k/delta)^2 * ln(k+2))
        s1 = ceil(C2 * sqrt(n) * ln(n+1))
        s2 = ceil(C3 * (k/delta)^2 * sqrt(n) * ln(k+2))
        S  = ceil(C4 * sqrt(n) * ln(n+1) / eps^2), or 0 when eps is None

    s2 is quadratic in k/delta, where the classical statement is cubic: an
    additive Chernoff bound suffices for the light-bucket tolerance. With
    cap, m1, s1 and s2 are each capped at ceil(PHASE_CAP * sqrt(n)) so
    desk-scale runs stay feasible at large k; lemma_check runs uncapped
    with eps None. C1-C4 and PHASE_CAP are read at each call. Raises BadParams
    before any sampling when m1 + s1 + s2 (+ S) exceeds MAX_BUDGET or a
    size overflows a float, as a tiny eps or delta or an uncapped plan at
    large k makes it do, and when eps is given and S < 2, too few samples
    for a collision. TesterConfig validates eps, and lemma_check its delta.
    """
    n, k = scheme.n, scheme.k
    terms = "m1 + s1 + s2" if eps is None else "m1 + s1 + s2 + S"
    try:
        lk = math.log(k + 2)
        m1 = math.ceil(C1 * (k / delta) ** 2 * lk)
        s1 = math.ceil(C2 * math.sqrt(n) * math.log(n + 1))
        s2 = math.ceil(C3 * (k / delta) ** 2 * math.sqrt(n) * lk)
        capped = (False, False, False)
        if cap:
            top = math.ceil(PHASE_CAP * math.sqrt(n))
            capped = (m1 > top, s1 > top, s2 > top)
            m1, s1, s2 = min(m1, top), min(s1, top), min(s2, top)
        S = 0
        if eps is not None:
            S = math.ceil(C4 * math.sqrt(n) * math.log(n + 1) / eps**2)
        total = float(m1 + s1 + s2 + S)
    except OverflowError:  # a size or their sum beyond the float range
        total = math.inf
    if total > MAX_BUDGET:
        raise BadParams(
            f"the plan needs {terms} = {total:.3g} samples and "
            f"queries, more than the {MAX_BUDGET:.0e} allowed"
        )
    if eps is not None and S < 2:
        raise BadParams(f"the plan gives S = {S} collision samples; S must be >= 2")
    return Plan(delta=delta, m1=m1, s1=s1, s2=s2, S=S, capped=capped)


@lru_cache(maxsize=8)
def _plan(n: int, eps: float) -> tuple[BucketScheme, Plan]:
    """Bucket scheme and capped plan of a tester run at (n, eps).

    Cached on (n, eps), like build_scheme. A plan that raises BadParams is
    not cached, so it raises on every call.
    """
    scheme = build_scheme(n, eps, SCHEME_C)
    return scheme, plan_sizes(scheme, eps / C_PRIME, True, eps)


def plan(n: int, config: TesterConfig) -> Plan:
    """The sizes and work budget of one identity_test run, no sampling."""
    return _plan(n, config.eps)[1]


def identity_test(
    p: ProbabilityVector,
    source: SampleStream,
    config: TesterConfig,
    trial_index: int = 0,
) -> Verdict:
    """Decide "q = p" vs "||p - q||_1 >= eps" from samples of q.

    Accepts with probability >= 2/3 when q = p and rejects with
    probability >= 2/3 when the distance promise holds, at the shipped
    constants. Never performs O(n) work.
    """
    if source.n != p.n:
        raise DomainMismatch(f"source domain {source.n} != pmf domain {p.n}")
    scheme, sizes = _plan(p.n, config.eps)
    counter = QueryCounter(p)
    draws_before = source.draws
    if p.constant is None:
        probe_rng = spawn_rng(config.master_seed, TAG_PROBE, trial_index)
        cv = coarse_compare(source, counter, scheme, sizes, probe_rng)
        q_hat = cv.estimates.q_hat
    else:  # the coarse stage cannot use a constant p (module docstring)
        sizes, cv = sizes.coarse_free, None
        q_hat = np.zeros(scheme.k + 1)
        q_hat[int(bucket_indices(scheme, p.constant))] = 1.0
    report = None
    if cv is not None and cv.case == CASE2:  # immediate reject; no moment samples
        decision, stage, bucket = DECISION_REJECT, STAGE_COARSE, cv.triggering_bucket
    else:
        stats = collect_counts(source, counter, scheme, sizes.S)
        report = moment_decide(stats, q_hat, scheme, config.eps)
        if report.accept:
            decision, stage, bucket = DECISION_ACCEPT, STAGE_NONE, None
        else:
            decision, stage = DECISION_REJECT, STAGE_MOMENT
            bucket = report.triggering_bucket
    used = source.draws - draws_before
    expected = sizes.m1 + sizes.s1 + (0 if report is None else sizes.S)
    if used != expected:
        raise InvariantViolated(f"drew {used} q-samples, expected {expected}")
    return Verdict(
        decision=decision,
        stage=stage,
        triggering_bucket=bucket,
        q_samples_used=used,
        p_queries_used=counter.total,
        distinct_p_queried=counter.distinct_count,
        sizes=sizes.to_dict(),
        k=scheme.k,
        j_star=scheme.j_star,
        j_star_degenerate=scheme.j_star_degenerate,
        coarse=cv,
        moment=report,
        seed=config.master_seed,
        trial_index=trial_index,
        config=config,
    )


def amplified_test(
    p: ProbabilityVector, source: SampleStream, config: TesterConfig
) -> Verdict:
    """Majority vote over an odd number of independent tester runs.

    Each run that probes gets its own probe sub-stream; q-samples are
    consumed sequentially from the shared source. Counters are summed; the
    diagnostics come from the first run on the majority side.
    """
    trials = config.trials_for_amplification
    verdicts = [
        identity_test(p, source, config, trial_index=t) for t in range(trials)
    ]
    rejects = sum(1 for v in verdicts if v.decision == DECISION_REJECT)
    majority = DECISION_REJECT if rejects > trials / 2 else DECISION_ACCEPT
    lead = next(v for v in verdicts if v.decision == majority)
    return replace(
        lead,
        q_samples_used=sum(v.q_samples_used for v in verdicts),
        p_queries_used=sum(v.p_queries_used for v in verdicts),
        distinct_p_queried=max(v.distinct_p_queried for v in verdicts),
    )


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    q_samples_used: int
    p_queries_used: int
    distinct_p_queried: int
    q_sample_budget: int
    p_query_budget: int
    used_over_budget: float
    budget_over_n: float


def query_audit(verdict: Verdict, n: int, config: TesterConfig) -> AuditReport:
    """Assert the run stayed inside its closed-form work budget.

    The verdict's sizes must be the plan form its route implies:
    plan(n, config) when the coarse stage ran, and its coarse-free form
    (m1 = s1 = s2 = 0, the same S) when a constant p skipped it (coarse is
    None). Then, per amplification trial, at those sizes:
      - q-samples <= m1 + s1 + S
      - p-queries <= m1 + s1 + s2 + S and <= q-samples + s2
      - distinct p-indices touched <= q-samples + s2 (no domain scan)

    A violation raises BudgetExceeded: that is a tester bug, never an
    input condition.
    """
    budget, form = plan(n, config), "plan"
    if verdict.coarse is None:
        budget, form = budget.coarse_free, "plan's coarse-free form"
    if budget.to_dict() != verdict.sizes:
        raise BudgetExceeded(f"sizes {verdict.sizes} are not the {form} at n = {n}")
    trials = config.trials_for_amplification
    q_budget = budget.q_sample_budget * trials
    p_budget = budget.p_query_budget * trials
    s2_total = budget.s2 * trials
    failures = []
    if verdict.q_samples_used > q_budget:
        failures.append(
            f"q_samples {verdict.q_samples_used} > budget {q_budget}"
        )
    if verdict.p_queries_used > p_budget:
        failures.append(
            f"p_queries {verdict.p_queries_used} > budget {p_budget}"
        )
    if verdict.p_queries_used > verdict.q_samples_used + s2_total:
        failures.append("p_queries exceed q_samples + s2")
    if verdict.distinct_p_queried > verdict.q_samples_used + s2_total:
        failures.append("distinct p-indices exceed q_samples + s2")
    if failures:
        raise BudgetExceeded("; ".join(failures))
    used = verdict.q_samples_used + verdict.p_queries_used
    return AuditReport(
        ok=True,
        q_samples_used=verdict.q_samples_used,
        p_queries_used=verdict.p_queries_used,
        distinct_p_queried=verdict.distinct_p_queried,
        q_sample_budget=q_budget,
        p_query_budget=p_budget,
        used_over_budget=used / (q_budget + p_budget),
        budget_over_n=p_budget / n,
    )

"""Tests for the composed identity tester, amplification, and query audit."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idtest.bucketing import MAX_BUDGET, build_scheme
from idtest.coarse import CASE1, coarse_compare
from idtest.distributions import (
    AliasSampler,
    _key_dtype,
    _sort_runs,
    generate_instance,
    perturbed_pmf,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from idtest.errors import (
    BadParams,
    BudgetExceeded,
    DomainMismatch,
    InvariantViolated,
)
from idtest import tester
from idtest.moment import collect_counts, moment_decide
from idtest.rng import TAG_PROBE, TAG_TRIAL, seed_sequence, spawn_rng
from idtest.tester import (
    C1,
    C2,
    C3,
    C4,
    C_PRIME,
    PHASE_CAP,
    SCHEME_C,
    DECISION_ACCEPT,
    DECISION_REJECT,
    STAGE_COARSE,
    STAGE_MOMENT,
    STAGE_NONE,
    QueryCounter,
    TesterConfig,
    amplified_test,
    identity_test,
    plan,
    plan_sizes,
    query_audit,
)


def two_level_pmf(n):
    """p with two occupied buckets: masses 0.75 / 0.25."""
    return validate_pmf(
        np.concatenate([np.full(n // 2, 1.5 / n), np.full(n // 2, 0.5 / n)])
    )


class TestConfig:
    def test_delta_is_eps_over_c_prime(self):
        assert plan(400, TesterConfig(eps=0.5)).delta == pytest.approx(0.0625)
        assert plan(400, TesterConfig(eps=0.8)).delta == 0.8 / C_PRIME == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(BadParams):
            TesterConfig(eps=2.5)
        with pytest.raises(BadParams):
            TesterConfig(eps=0.5, trials_for_amplification=2)

    @pytest.mark.parametrize(
        "field,value",
        [
            (field, value)
            for field in ("eps", "trials_for_amplification", "master_seed")
            for value in (float("nan"), float("inf"), "64", None)
        ],
    )
    def test_non_finite_or_non_numeric_is_bad_params(self, field, value):
        with pytest.raises(BadParams, match=field):
            TesterConfig(**{"eps": 0.5, field: value})

    def test_negative_master_seed_is_bad_params(self):
        with pytest.raises(BadParams, match="master_seed"):
            TesterConfig(eps=0.5, master_seed=-1)
        with pytest.raises(BadParams, match="master_seed"):
            dataclasses.replace(TesterConfig(eps=0.5), master_seed=-1)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 2.0000001, 1e9])
    def test_eps_outside_range_is_bad_params(self, eps):
        with pytest.raises(BadParams, match=r"eps must be in \(0, 2\]"):
            TesterConfig(eps=eps)

    @pytest.mark.parametrize("trials", [0, -1, 2, 4])
    def test_even_or_non_positive_trials_is_bad_params(self, trials):
        with pytest.raises(BadParams, match="amplification trials"):
            TesterConfig(eps=0.5, trials_for_amplification=trials)

    @pytest.mark.parametrize("field", ["eps", "trials_for_amplification", "master_seed"])
    def test_bool_is_bad_params(self, field):
        with pytest.raises(BadParams, match=field):
            TesterConfig(**{"eps": 0.5, field: True})

    @pytest.mark.parametrize(
        "field, value", [("trials_for_amplification", 3.0), ("master_seed", 1.5)]
    )
    def test_non_integer_count_or_seed_is_bad_params(self, field, value):
        # a float trial count would fail later in range(), and a float seed
        # would be echoed as given while the streams are seeded with int()
        with pytest.raises(BadParams, match=f"{field} must be an integer"):
            TesterConfig(**{"eps": 0.5, field: value})

    def test_numpy_integers_are_accepted(self):
        p = uniform_pmf(64)
        runs = [
            amplified_test(p, AliasSampler(p, 0), TesterConfig(
                eps=0.5, trials_for_amplification=t, master_seed=seed))
            for t, seed in ((np.int64(3), np.int64(1)), (3, 1))
        ]
        assert json.dumps(runs[0].to_dict()) == json.dumps(runs[1].to_dict())

    @pytest.mark.parametrize("field", ["C", "c1", "c2", "c3", "c4"])
    def test_removed_multiplier_fields_are_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            TesterConfig(eps=0.5, **{field: 1.0})

    # calibration.json is the last run of the multiplier search; the
    # shipped multipliers are its recommendation
    CALIBRATION = Path(__file__).resolve().parent.parent / "calibration.json"

    @pytest.mark.parametrize("name, value", [("c1", C1), ("c2", C2), ("c3", C3), ("c4", C4)])
    def test_shipped_multiplier_is_the_calibration_record(self, name, value):
        record = json.loads(self.CALIBRATION.read_text())
        assert record["recommended"][name] == value


class TestIdentityTest:
    def run_once(self, p, q, seed=0, **kw):
        cfg = TesterConfig(eps=0.5, master_seed=seed, **kw)
        stream = AliasSampler(q, seed_sequence(seed, TAG_TRIAL, 0))
        v = identity_test(p, stream, cfg)
        return v, cfg

    def test_accepts_matching_uniform(self):
        p = uniform_pmf(400)
        v, cfg = self.run_once(p, p, seed=5)
        assert v.decision == DECISION_ACCEPT
        assert v.stage == STAGE_NONE
        assert v.triggering_bucket is None
        query_audit(v, 400, cfg)

    def test_rejects_bucket_mass_gap_at_coarse_stage(self):
        n = 400
        p = two_level_pmf(n)
        q = uniform_pmf(n)  # bucket masses 0.5/0.5 vs 0.75/0.25
        v, cfg = self.run_once(p, q, seed=6)
        assert v.decision == DECISION_REJECT
        assert v.stage == STAGE_COARSE

    def test_stage_separation_no_moment_samples_after_case2(self):
        n = 400
        p = two_level_pmf(n)
        q = uniform_pmf(n)
        cfg = TesterConfig(eps=0.5, master_seed=7)
        stream = AliasSampler(q, seed_sequence(7, TAG_TRIAL, 0))
        v = identity_test(p, stream, cfg)
        assert v.stage == STAGE_COARSE
        assert v.moment is None
        assert stream.draws == v.sizes["m1"] + v.sizes["s1"]

    def test_rejects_within_bucket_shape_at_moment_stage(self):
        n = 400
        p = uniform_pmf(n)
        q = validate_pmf(
            np.concatenate([np.full(n // 2, 1.5 / n), np.full(n // 2, 0.5 / n)])
        )
        v, _ = self.run_once(p, q, seed=8)
        assert v.decision == DECISION_REJECT
        assert v.stage == STAGE_MOMENT

    def test_counters_match_stream_and_queries(self):
        p = uniform_pmf(256)
        v, cfg = self.run_once(p, p, seed=9)
        sz = v.sizes
        assert v.q_samples_used == sz["m1"] + sz["s1"] + sz["S"]
        assert v.p_queries_used <= v.q_samples_used + sz["s2"]
        assert v.distinct_p_queried <= v.p_queries_used

    def test_determinism_identical_inputs(self):
        p = zipf_pmf(200)
        q = uniform_pmf(200)
        runs = []
        for _ in range(2):
            cfg = TesterConfig(eps=0.5, master_seed=13)
            stream = AliasSampler(q, seed_sequence(13, TAG_TRIAL, 0))
            runs.append(identity_test(p, stream, cfg).to_dict())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_constant_p_off_one_by_rounding_accepts_itself(self, seed):
        # n * c = 1 + 8e-10 is inside PMF_SUM_TOL but beyond the probe
        # tolerance delta/(4k+4), about 6.6e-10 at k = 190,027: a coarse
        # stage would reject this p = q at its probe check
        p = validate_pmf(np.full(4, 0.25 + 2e-10))
        assert p.constant is not None
        cfg = TesterConfig(eps=0.004, master_seed=seed)
        v = identity_test(p, AliasSampler(p, seed_sequence(seed, TAG_TRIAL, 0)), cfg)
        assert (v.decision, v.stage) == (DECISION_ACCEPT, STAGE_NONE)
        query_audit(v, 4, cfg)

    def test_domain_mismatch(self):
        p = uniform_pmf(10)
        stream = AliasSampler(uniform_pmf(11), seed=0)
        with pytest.raises(DomainMismatch):
            identity_test(p, stream, TesterConfig(eps=0.5))

    def test_reject_implies_stage(self):
        n = 400
        p = uniform_pmf(n)
        q = validate_pmf(
            np.concatenate([np.full(n // 2, 1.5 / n), np.full(n // 2, 0.5 / n)])
        )
        for seed in range(4):
            v, _ = self.run_once(p, q, seed=seed)
            if v.decision == DECISION_REJECT:
                assert v.stage != STAGE_NONE

    @pytest.mark.parametrize("stage", [STAGE_COARSE, STAGE_MOMENT])
    def test_draw_count_invariant(self, stage):
        class Leaky(AliasSampler):
            """Counts one draw more per batch than it returns."""

            def draw_many(self, m):
                self._draws += 1
                return super().draw_many(m)

        n = 400
        # two_level p against uniform q stops at the coarse stage (seed 6);
        # a uniform p skips it and draws the collision sample alone
        p = two_level_pmf(n) if stage == STAGE_COARSE else uniform_pmf(n)
        cfg = TesterConfig(eps=0.5, master_seed=6)
        b = plan(n, cfg)
        expected = b.m1 + b.s1 if stage == STAGE_COARSE else b.S
        stream = Leaky(uniform_pmf(n), seed_sequence(6, TAG_TRIAL, 0))
        with pytest.raises(InvariantViolated, match=f"expected {expected}$"):
            identity_test(p, stream, cfg)

    # (q_samples_used, p_queries_used, distinct_p_queried) per seed: the
    # audit counters are part of the seeded output and must not drift.
    # A uniform p skips the coarse stage: its counters are the stream's
    # draws and a QueryCounter's counts after collect_counts alone, at
    # S = 6,389 on a fresh stream of the same seed.
    GOLDEN = {
        ("uniform", 1): (6389, 1914, 1914),
        ("uniform", 2): (6389, 1884, 1884),
        ("uniform", 3): (6389, 1934, 1934),
        ("zipf", 1): (11730, 21330, 3935),
        ("zipf", 2): (11730, 21330, 3929),
        ("zipf", 3): (11730, 21330, 3925),
    }

    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN))
    def test_audit_counters_golden(self, kind, seed):
        n = 4096
        p = uniform_pmf(n) if kind == "uniform" else zipf_pmf(n)
        v, _ = self.run_once(p, p, seed=seed)
        got = (v.q_samples_used, v.p_queries_used, v.distinct_p_queried)
        assert got == self.GOLDEN[kind, seed]

    # SHA-256 of the verdict JSON (sort_keys) plus its query audit per seed:
    # seeded runs, decisions and diagnostics included, stay byte-identical.
    # Derivation: the tester that still had the config fields C_prime,
    # gamma, budget_scale and mode matched the digests pinned before; its
    # payloads with those four keys removed from "config" gave the next
    # digests. The tester that then still had the config fields C and
    # c1-c4 matched those; its payloads with these five keys removed from
    # "config" gave the next digests. The tester that still queried p at
    # every distinct collision index matched those; the uniform and
    # perturbed payloads with only the verdict's p_queries_used and
    # distinct_p_queried and the audit's p_queries_used, distinct_p_queried
    # and used_over_budget replaced by the values of the tester that queries
    # repeated indices alone hash to the next digests. The zipf runs stop
    # at the coarse stage and kept their digests. A uniform p (the uniform
    # and perturbed rows) then skipped the coarse stage; those six digests
    # are of payloads built by the direct route, without identity_test or
    # query_audit: collect_counts on a fresh stream of the same seed with a
    # QueryCounter, moment_decide on p's bucket unit vector e_b, the
    # verdict fields set by hand (coarse null, sizes m1 = s1 = s2 = 0 and
    # S = 6,389, capped all false) and the audit computed at S per trial.
    GOLDEN_JSON = {
        ("uniform", 1): "fc8e90bdd1f7562696846517c6047305e76ecbd505cfcbfb3c646629f2796fa5",
        ("uniform", 2): "cdfd10bdd2e5781a8545334d730e8837736738c6a5d4a79dc12f60b44d99a4a9",
        ("uniform", 3): "0bd2ce6fb2808a854b61c6d16a26165367f3114f76f1c8f7ad7a472ed6d0f715",
        ("zipf", 1): "2eeae7ef1991a1db4f35ae8e05dbd901d0ab2cec832da7538dd4990a85ff5da4",
        ("zipf", 2): "50d3938486f49f5eb764341b30716d62d41f56f82046d33eb068083be7e3ddfb",
        ("zipf", 3): "0075529626cd452a8f057215a6f2dad8d73a54f4268ef545af14f1646decd06b",
        ("perturbed", 1): "51d7693cef9acf78e1be346220e4b15b8cf9ac255616052236dcd517ae64efec",
        ("perturbed", 2): "30423fa9e02946ea09ae34fdbf1c0ad38e9daf8875ea1a9d2ef5072eaadc1d12",
        ("perturbed", 3): "f4834bb29f5d427f41ef3cf67081b3d840057d2f24f2fcefb8e918ac747f634a",
    }

    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN_JSON))
    def test_verdict_json_golden(self, kind, seed):
        n = 4096
        p = zipf_pmf(n) if kind == "zipf" else uniform_pmf(n)
        q = perturbed_pmf(n, 0.5, seed) if kind == "perturbed" else p
        v, cfg = self.run_once(p, q, seed=seed)
        payload = {
            "verdict": v.to_dict(),
            "audit": dataclasses.asdict(query_audit(v, n, cfg)),
        }
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_JSON[kind, seed]


class TestQueryCounter:
    @given(st.lists(st.lists(st.integers(0, 49), max_size=30), max_size=8))
    @example([])
    @example([[]])
    @example([[3, 3, 7], [], [7, 3], [49]])
    @settings(max_examples=200, deadline=None)
    def test_counts_match_set_semantics(self, batches):
        counter = QueryCounter(uniform_pmf(50))
        for batch in batches:
            counter.lookup(np.array(batch, dtype=np.int64))
        assert counter.total == sum(len(b) for b in batches)
        distinct = counter.distinct_count
        assert type(distinct) is int  # lands in the verdict JSON
        assert distinct == len({i for b in batches for i in b})

    def test_indices_beyond_int32_stay_distinct(self):
        # n > 2^31 keeps int64: narrowing would fold 2^32 + 5 onto 5
        class HugeStub:
            n = 2**33

            def lookup(self, indices):
                return np.zeros(np.shape(indices))

        counter = QueryCounter(HugeStub())
        counter.lookup(np.array([5, 2**32 + 5, 5], dtype=np.int64))
        assert counter.total == 3
        assert counter.distinct_count == 2

    def test_key_dtype_boundary(self):
        # the largest domain with int32 keys still holds its top index
        assert _key_dtype(2**31) is np.int32
        top = np.array([2**31 - 1, 0, 2**31 - 1]).astype(_key_dtype(2**31))
        assert top.max() == 2**31 - 1
        assert _key_dtype(2**31 + 1) is np.int64

    @given(
        st.lists(
            st.lists(
                st.integers(0, 9) | st.integers(2**31 - 10, 2**31 - 1),
                max_size=30,
            ),
            max_size=8,
        )
    )
    @example([])
    @example([[]])
    @example([[2**31 - 1, 0, 2**31 - 1]])
    @settings(max_examples=200, deadline=None)
    def test_sort_runs_sorts_pads_and_counts(self, batches):
        arrays = [np.array(b, dtype=np.int64) for b in batches]
        keys = np.concatenate(arrays + [np.empty(0, np.int64)], dtype=_key_dtype(2**31))
        values = [i for b in batches for i in b]
        repeat = _sort_runs(keys)
        assert keys.tolist() == sorted(values)
        assert repeat.size == keys.size + 1
        assert not repeat[0] and not repeat[-1]
        assert keys.size - np.count_nonzero(repeat) == len(set(values))


class TestAmplifiedTest:
    def test_single_trial_identical_to_identity_test(self):
        p = uniform_pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=3, trials_for_amplification=1)
        a = identity_test(p, AliasSampler(p, seed_sequence(3, TAG_TRIAL, 0)), cfg)
        b = amplified_test(p, AliasSampler(p, seed_sequence(3, TAG_TRIAL, 0)), cfg)
        assert a.to_dict() == b.to_dict()

    def test_majority_vote_and_summed_counters(self):
        n = 400
        p = uniform_pmf(n)
        q = validate_pmf(
            np.concatenate([np.full(n // 2, 1.5 / n), np.full(n // 2, 0.5 / n)])
        )
        cfg = TesterConfig(eps=0.5, master_seed=4, trials_for_amplification=3)
        single = TesterConfig(eps=0.5, master_seed=4)
        b1 = plan(n, single)
        v = amplified_test(p, AliasSampler(q, seed_sequence(4, TAG_TRIAL, 0)), cfg)
        assert v.decision == DECISION_REJECT
        # a uniform p skips the coarse stage: each trial draws S samples
        assert v.q_samples_used == 3 * b1.S
        query_audit(v, n, cfg)

    def test_nine_trial_majority_math(self):
        # binomial tail: a 2/3 tester amplified over 9 trials is right
        # with probability >= 0.855
        tail = sum(
            math.comb(9, t) * (2 / 3) ** t * (1 / 3) ** (9 - t) for t in range(5, 10)
        )
        assert tail == pytest.approx(16832 / 19683)
        assert tail >= 0.85

    def test_amplified_accept_rate_not_below_single(self):
        # monotone confidence on matching distributions (statistical,
        # fixed seeds, modest trial count; extremes make this stable)
        p = uniform_pmf(400)
        amp_accepts = one_accepts = 0
        for t in range(60):
            cfg1 = TesterConfig(eps=0.5, master_seed=100 + t)
            one = identity_test(
                p, AliasSampler(p, seed_sequence(100 + t, TAG_TRIAL, 0)), cfg1
            )
            one_accepts += one.decision == DECISION_ACCEPT
            cfg9 = TesterConfig(
                eps=0.5, master_seed=100 + t, trials_for_amplification=9
            )
            amp = amplified_test(
                p, AliasSampler(p, seed_sequence(100 + t, TAG_TRIAL, 1)), cfg9
            )
            amp_accepts += amp.decision == DECISION_ACCEPT
        assert amp_accepts >= one_accepts - 2  # allow tiny sampling slack


class TestQueryAudit:
    def test_budget_ratio_reflects_sqrt_scaling(self):
        cfg = TesterConfig(eps=0.5)
        b1 = plan(10**4, cfg).p_query_budget
        b2 = plan(4 * 10**4, cfg).p_query_budget
        assert 1.9 <= b2 / b1 <= 2.3

    def test_budget_over_n_decreases(self):
        cfg = TesterConfig(eps=0.5)
        ratios = [
            plan(n, cfg).p_query_budget / n
            for n in (2**10, 2**12, 2**14, 2**16, 2**18)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_budget_over_cap_is_bad_params(self):
        # eps = 0.0015 plans 1.51e7 at n = 16: refused before any sample is
        # drawn, not by a memory error
        p = uniform_pmf(16)
        cfg = TesterConfig(eps=0.0015)
        stream = AliasSampler(p, 1)
        with pytest.raises(BadParams, match=r"m1 \+ s1 \+ s2 \+ S"):
            identity_test(p, stream, cfg)
        assert stream.draws == 0
        # plans are cached, but a refused one is not: each call raises again
        for _ in range(2):
            with pytest.raises(BadParams, match=r"m1 \+ s1 \+ s2 \+ S"):
                plan(16, cfg)

    def test_plan_is_made_once_per_n_and_eps(self):
        # identity_test and query_audit share one plan across seeds
        tester._plan.cache_clear()
        p = uniform_pmf(400)
        for seed in (1, 2):
            cfg = TesterConfig(eps=0.5, master_seed=seed)
            v = identity_test(p, AliasSampler(p, seed_sequence(seed, TAG_TRIAL, 0)), cfg)
            query_audit(v, 400, cfg)
        assert tester._plan.cache_info().misses == 1

    @pytest.mark.parametrize("pmf", [uniform_pmf, zipf_pmf])
    def test_collision_sample_below_two_is_bad_params(self, pmf, monkeypatch):
        # no eps in (0, 2] gives S < 2 at the shipped C4, so the guard is
        # reached with a smaller one: S = ceil(0.0005 * 20 * ln 401 / 0.25)
        # = 1 is refused before any sample is drawn, whether or not p would
        # pass the coarse stage. Plans are cached on (n, eps): drop one made
        # at the shipped C4
        monkeypatch.setattr(tester, "C4", 0.0005)
        tester._plan.cache_clear()
        p = pmf(400)
        cfg = TesterConfig(eps=0.5)
        stream = AliasSampler(p, 1)
        with pytest.raises(BadParams, match="S = 1"):
            identity_test(p, stream, cfg)
        assert stream.draws == 0
        with pytest.raises(BadParams, match="S = 1"):
            plan(400, cfg)

    @pytest.mark.parametrize("n, eps", [(2, 2.0), (16, 0.5), (400, 0.5), (4096, 1.0), (2**20, 0.5)])
    def test_plan_uses_the_shipped_constants(self, n, eps):
        cfg = TesterConfig(eps=eps)
        scheme = build_scheme(n, eps, SCHEME_C)
        sizes = plan_sizes(scheme, eps / C_PRIME, True, eps)
        budget = plan(n, cfg)
        assert budget == sizes
        top = math.ceil(PHASE_CAP * math.sqrt(n))
        lk = math.log(scheme.k + 2)
        k_delta = (scheme.k / (eps / C_PRIME)) ** 2
        assert budget.m1 == min(math.ceil(C1 * k_delta * lk), top)
        assert budget.s1 == min(math.ceil(C2 * math.sqrt(n) * math.log(n + 1)), top)
        assert budget.s2 == min(math.ceil(C3 * k_delta * math.sqrt(n) * lk), top)
        assert budget.S == math.ceil(C4 * math.sqrt(n) * math.log(n + 1) / eps**2)

    def test_smallest_collision_sample_is_two(self):
        # S grows with n and shrinks with eps, and n >= 2, eps <= 2: the
        # smallest plan has S = ceil(3 * sqrt(2) * ln 3 / 4) = 2
        assert plan(2, TesterConfig(eps=2.0)).S == 2

    def test_largest_plan_in_use_fits_the_cap(self):
        # one n = 2^20 run at eps = 0.5 and the defaults, as in single-1m
        total = plan(2**20, TesterConfig(eps=0.5)).p_query_budget
        assert total == 534_331 <= MAX_BUDGET

    def test_violation_raises(self):
        p = uniform_pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=1)
        v = identity_test(p, AliasSampler(p, seed_sequence(1, TAG_TRIAL, 0)), cfg)
        bogus = dataclasses.replace(v, p_queries_used=10**9)
        with pytest.raises(BudgetExceeded):
            query_audit(bogus, 128, cfg)

    def test_distinct_indices_over_samples_raise(self):
        # a uniform run skips the coarse stage (s2 = 0): it can touch at most
        # one distinct p-index per q-sample
        p = uniform_pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=1)
        v = identity_test(p, AliasSampler(p, seed_sequence(1, TAG_TRIAL, 0)), cfg)
        query_audit(v, 128, cfg)
        bogus = dataclasses.replace(v, distinct_p_queried=v.q_samples_used + 1)
        with pytest.raises(BudgetExceeded, match="distinct p-indices exceed"):
            query_audit(bogus, 128, cfg)

    @pytest.mark.parametrize("pmf", [uniform_pmf, zipf_pmf])
    @pytest.mark.parametrize("field", ["m1", "s1", "s2", "S", "capped"])
    def test_sizes_off_the_plan_raise(self, pmf, field):
        p = pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=1)
        v = identity_test(p, AliasSampler(p, seed_sequence(1, TAG_TRIAL, 0)), cfg)
        query_audit(v, 128, cfg)
        size = v.sizes[field]
        tampered = [not size[0], *size[1:]] if field == "capped" else size + 1
        bogus = dataclasses.replace(v, sizes={**v.sizes, field: tampered})
        with pytest.raises(BudgetExceeded, match="are not the plan"):
            query_audit(bogus, 128, cfg)

    def test_constant_p_run_at_the_full_plan_raises(self):
        # 660 q-samples would pass a budget of m1 + s1 + S = 2,578: the
        # route (coarse stage skipped) fixes the form, not the sizes alone
        p = uniform_pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=1)
        v = identity_test(p, AliasSampler(p, seed_sequence(1, TAG_TRIAL, 0)), cfg)
        full = plan(128, cfg)
        assert v.coarse is None and v.q_samples_used == 660 < full.q_sample_budget == 2578
        bogus = dataclasses.replace(v, sizes=full.to_dict())
        with pytest.raises(BudgetExceeded, match="are not the plan's coarse-free form"):
            query_audit(bogus, 128, cfg)

    @pytest.mark.parametrize("field", ["q_samples_used", "p_queries_used"])
    def test_constant_p_run_over_its_collision_sample_raises(self, field):
        # a coarse-free verdict is audited against S per trial, not against
        # m1 + s1 + S
        p = uniform_pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=1, trials_for_amplification=3)
        v = amplified_test(p, AliasSampler(p, seed_sequence(1, TAG_TRIAL, 0)), cfg)
        b = plan(128, cfg)
        assert v.sizes["S"] == b.S and v.q_samples_used == 3 * b.S
        rep = query_audit(v, 128, cfg)
        assert rep.q_sample_budget == rep.p_query_budget == 3 * b.S
        over = dataclasses.replace(v, **{field: 3 * b.S + 1})
        assert 3 * b.S + 1 <= 3 * b.q_sample_budget
        with pytest.raises(BudgetExceeded, match=f"> budget {3 * b.S}"):
            query_audit(over, 128, cfg)

    def test_passing_report_fields(self):
        p = uniform_pmf(128)
        cfg = TesterConfig(eps=0.5, master_seed=2)
        v = identity_test(p, AliasSampler(p, seed_sequence(2, TAG_TRIAL, 0)), cfg)
        rep = query_audit(v, 128, cfg)
        assert rep.ok
        assert 0 < rep.used_over_budget <= 1.0
        assert rep.budget_over_n > 0


def unit_vector_of_constant(p, scheme):
    """e_b for p's constant value c, with b = min(searchsorted(c), k), the
    bucket contract itself."""
    b = min(int(np.searchsorted(scheme.boundaries, p.constant, side="left")), scheme.k)
    e_b = np.zeros(scheme.k + 1)
    e_b[b] = 1.0
    return e_b


def constant_p_instance(n, kind, seed):
    p = uniform_pmf(n)
    if kind == "self":
        return p, p
    if kind == "eps-perturbed":
        return p, perturbed_pmf(n, 0.5, seed)
    return p, generate_instance("random-half", n, seed)[1]


class TestConstantPmfPath:
    """A constant p skips the coarse stage: the stage could not reject it,
    and its q_hat is p's bucket unit vector whatever q is."""

    @pytest.mark.parametrize("n", [400, 1000, 4096])
    @pytest.mark.parametrize("kind", ["self", "eps-perturbed", "random-half"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_coarse_stage_is_vacuous_on_the_slow_path(self, n, kind, seed):
        # the stage run on the gathering pmf, as before the skip
        p, q = constant_p_instance(n, kind, seed)
        scheme, sizes = tester._plan(n, 0.5)
        cv = coarse_compare(
            AliasSampler(q, seed_sequence(seed, TAG_TRIAL, 0)),
            dataclasses.replace(p, constant=None),
            scheme,
            sizes,
            spawn_rng(seed, TAG_PROBE, 0),
        )
        assert cv.case == CASE1
        e_b = unit_vector_of_constant(p, scheme)
        assert cv.estimates.q_hat.tobytes() == e_b.tobytes()
        assert cv.estimates.heavy_mass.tobytes() == np.zeros(scheme.k + 1).tobytes()

    @pytest.mark.parametrize("n", [400, 1000, 4096])
    @pytest.mark.parametrize("kind", ["self", "eps-perturbed", "random-half"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_verdict_is_the_collision_test_on_the_unit_vector(self, n, kind, seed):
        p, q = constant_p_instance(n, kind, seed)
        cfg = TesterConfig(eps=0.5, master_seed=seed)
        v = identity_test(p, AliasSampler(q, seed_sequence(seed, TAG_TRIAL, 0)), cfg)
        # the direct route: collect_counts and moment_decide on e_b
        scheme, sizes = tester._plan(n, 0.5)
        stream = AliasSampler(q, seed_sequence(seed, TAG_TRIAL, 0))
        counter = QueryCounter(p)
        stats = collect_counts(stream, counter, scheme, sizes.S)
        report = moment_decide(stats, unit_vector_of_constant(p, scheme), scheme, 0.5)
        assert v.coarse is None
        assert json.dumps(v.moment.to_dict()) == json.dumps(report.to_dict())
        assert (v.q_samples_used, v.p_queries_used, v.distinct_p_queried) == (
            stream.draws, counter.total, counter.distinct_count
        )
        assert v.sizes == {"m1": 0, "s1": 0, "s2": 0, "S": sizes.S,
                           "capped": [False, False, False]}
        query_audit(v, n, cfg)

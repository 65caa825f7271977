"""Tests for the statistical harness: trials, comparator checks and
scaling."""

import hashlib
import json
import os

import numpy as np
import pytest

from idtest import harness
from idtest.bucketing import MAX_BUDGET, build_scheme, exact_bucket_masses
from idtest.distributions import uniform_pmf, zipf_pmf
from idtest.errors import BadParams, InvariantViolated
from idtest.harness import (
    LEMMA_SCHEME_C,
    LEMMA_SCHEME_EPS,
    baseline_identity_test,
    fit_loglog_slope,
    lemma_check,
    make_instance,
    run_trials,
    scaling_experiment,
    shifted_bucket_pair,
    wilson_interval,
)
from idtest.rng import TAG_TRIAL, seed_sequence
from idtest.distributions import AliasSampler
from idtest.tester import TesterConfig, plan, plan_sizes


class TestWilsonInterval:
    def test_known_value(self):
        # hand-computed Wilson interval at z = 1.96 for 200/300
        lo, hi = wilson_interval(200, 300)
        assert lo == pytest.approx(0.6110, abs=2e-3)
        assert hi == pytest.approx(0.7185, abs=2e-3)

    def test_brackets_the_estimate(self):
        for s, t in [(0, 50), (50, 50), (17, 123), (299, 300)]:
            lo, hi = wilson_interval(s, t)
            # 1e-12 absorbs float rounding at the 0 and 1 boundaries
            assert 0.0 <= lo <= s / t + 1e-12
            assert s / t - 1e-12 <= hi <= 1.0

    def test_zero_successes(self):
        lo, _ = wilson_interval(0, 100)
        assert lo <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(BadParams):
            wilson_interval(1, 0)
        with pytest.raises(BadParams):
            wilson_interval(5, 4)


class TestRunTrials:
    def test_minimum_trial_count(self):
        inst = make_instance("identical-uniform", 64, seed=0)
        with pytest.raises(BadParams):
            run_trials(inst, TesterConfig(eps=0.5), trials=10, master_seed=0)

    def test_negative_master_seed_is_bad_params(self):
        inst = make_instance("identical-uniform", 64, seed=0)
        with pytest.raises(BadParams, match="master_seed"):
            run_trials(inst, TesterConfig(eps=0.5), trials=30, master_seed=-1)

    def test_deterministic_given_seed(self):
        inst = make_instance("identical-uniform", 128, seed=0)
        cfg = TesterConfig(eps=0.5)
        a = run_trials(inst, cfg, trials=30, master_seed=5)
        b = run_trials(inst, cfg, trials=30, master_seed=5)
        assert a == b

    def test_jobs_do_not_change_results(self):
        inst = make_instance("identical-uniform", 128, seed=0)
        cfg = TesterConfig(eps=0.5)
        seq = run_trials(inst, cfg, trials=32, master_seed=6)
        par = run_trials(inst, cfg, trials=32, master_seed=6, jobs=2)
        assert seq == par

    @pytest.mark.parametrize("cpus, workers", [(4, 4), (64, 32), (None, 1)])
    def test_workers_capped_by_chunks_and_cpus(self, monkeypatch, cpus, workers):
        # a pool starts all of max_workers at once, so a huge jobs must not
        # reach it; an in-process pool records the request and starts nothing
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        inst = make_instance("identical-uniform", 128, seed=0)
        cfg = TesterConfig(eps=0.5)
        par = run_trials(inst, cfg, trials=32, master_seed=6, jobs=10_000)
        assert requested == [workers]
        assert par == run_trials(inst, cfg, trials=32, master_seed=6)

    def test_report_fields(self):
        inst = make_instance("random-half", 64, seed=1)
        rep = run_trials(inst, TesterConfig(eps=0.5), trials=40, master_seed=7)
        assert rep.trials == 40
        assert 0 <= rep.accepts <= 40
        assert rep.wilson[0] <= rep.accept_rate <= rep.wilson[1]
        assert rep.audits_ok
        assert rep.mean_q_samples > 0


class TestMakeInstance:
    def test_distance_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(
            "idtest.harness.advertised_distance", lambda kind, **params: 0.5
        )
        with pytest.raises(InvariantViolated, match="advertised 0.5"):
            make_instance("identical-uniform", 10, seed=0)


class TestShiftedBucketPair:
    def test_exact_bucket_distance(self):
        n = 400
        scheme = build_scheme(n, 2.0, 1.0)
        base = zipf_pmf(n)
        q = shifted_bucket_pair(base, scheme, 0.05, 0, 4)
        P = exact_bucket_masses(scheme, base)
        Q = exact_bucket_masses(scheme, base, weight_pmf=q)
        assert float(np.abs(P - Q).sum()) == pytest.approx(0.1, abs=1e-12)

    def test_donor_too_small(self):
        n = 100
        scheme = build_scheme(n, 2.0, 1.0)
        base = zipf_pmf(n)
        masses = exact_bucket_masses(scheme, base)
        small = int(np.argmin(np.where(masses > 0, masses, np.inf)))
        with pytest.raises(BadParams):
            shifted_bucket_pair(base, scheme, masses[small] * 1.5, small, 0)


class TestLemmaCheck:
    def test_structure_and_rates_small(self):
        rep = lemma_check(100, 0.4, trials=45, master_seed=0)
        assert rep["k"] >= 1
        for fam in ("case1", "case2"):
            f = rep[fam]
            assert f["trials"] >= 30
            assert 0.0 <= f["rate"] <= 1.0
            assert f["rate"] >= 0.8  # loose gate; acceptance pins 0.85
        assert "gap" in rep
        assert rep["gap"]["bucket_l1"] == pytest.approx(0.2, abs=1e-9)

    def test_deterministic(self):
        a = lemma_check(100, 0.4, trials=45, master_seed=3)
        b = lemma_check(100, 0.4, trials=45, master_seed=3)
        assert a == b

    @pytest.mark.parametrize(
        "include_gap, digest",
        [
            (True, "cba32d3d1db91cb724746625c3970c4d0f6e6f61d794e0405f4a4544d92a7a47"),
            (False, "a720905c73d0fb4d3843552f75dd39d72ab271a7780ddb1da993c6199a5f0077"),
        ],
    )
    def test_report_is_pinned(self, include_gap, digest):
        # every seed, count and oracle value of the report, byte for byte
        rep = lemma_check(100, 0.4, trials=45, master_seed=3, include_gap=include_gap)
        text = json.dumps(rep, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_jobs_do_not_change_results(self):
        a = lemma_check(100, 0.4, trials=40, master_seed=4, jobs=2)
        b = lemma_check(100, 0.4, trials=40, master_seed=4)
        assert a == b

    def test_oracle_gate_on_case2(self):
        rep = lemma_check(100, 0.4, trials=45, master_seed=1, include_gap=False)
        for dist in rep["case2"]["bucket_l1"].values():
            assert dist >= 0.4 - 1e-9

    def test_oracle_gate_failure_raises(self, monkeypatch):
        # a case-2 "shift" that moves nothing leaves bucket l1 at 0 < delta
        monkeypatch.setattr(
            "idtest.harness.shifted_bucket_pair", lambda base, *args: base
        )
        with pytest.raises(InvariantViolated, match="case2/.*oracle gate failed"):
            lemma_check(100, 0.4, trials=3, master_seed=0, include_gap=False)

    def test_oracle_feasibility_precondition(self):
        with pytest.raises(BadParams):
            lemma_check(10**5, 0.1, trials=45)

    def test_no_trials_is_bad_params(self):
        with pytest.raises(BadParams, match="trials"):
            lemma_check(100, 0.4, trials=0)

    def test_runs_the_tester_multipliers_uncapped(self, monkeypatch):
        seen = []
        compare = harness.coarse_compare

        def spy(source, p, scheme, sizes, rng):
            seen.append(sizes)
            return compare(source, p, scheme, sizes, rng)

        monkeypatch.setattr(harness, "coarse_compare", spy)
        lemma_check(100, 0.4, trials=6, include_gap=False)
        scheme = build_scheme(100, LEMMA_SCHEME_EPS, LEMMA_SCHEME_C)
        want = plan_sizes(scheme, 0.4, False)
        assert want != plan_sizes(scheme, 0.4, True)
        assert len(seen) == 12 and all(sizes == want for sizes in seen)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 2.5, float("nan")])
    def test_delta_outside_range_is_bad_params(self, delta):
        with pytest.raises(BadParams, match="delta"):
            lemma_check(100, delta, trials=3)

    @pytest.mark.parametrize(
        "n, delta", [(10**4, 0.01), (400, 1e-300)], ids=["over-cap", "overflow"]
    )
    def test_plan_over_cap_is_bad_params(self, n, delta):
        # refused before any trial runs, as the tester refuses its plan
        with pytest.raises(BadParams, match=r"m1 \+ s1 \+ s2 ="):
            lemma_check(n, delta, trials=3)

    def test_largest_plan_in_use_fits_the_cap(self):
        # n = 400, delta = 0.1: acceptance criterion 3 and comparator-400
        scheme = build_scheme(400, LEMMA_SCHEME_EPS, LEMMA_SCHEME_C)
        sizes = plan_sizes(scheme, 0.1, False)
        total = sizes.m1 + sizes.s1 + sizes.s2
        assert (total, sizes.S) == (1_677_343, 0)
        assert total <= MAX_BUDGET


class TestBaseline:
    def test_verdict_agreement_on_reference_suite(self, monkeypatch):
        # explicit-mass baseline and the sublinear pipeline agree on the
        # extreme instances when given matching collision sample sizes
        monkeypatch.setattr(harness, "BASELINE_M1", 2000)
        monkeypatch.setattr(harness, "BASELINE_S", 1439)
        n = 400
        for kind, want in [("identical-uniform", "accept"), ("random-half", "reject")]:
            inst = make_instance(kind, n, seed=2)
            agree = 0
            for t in range(25):
                stream = AliasSampler(inst.q, seed_sequence(50 + t, TAG_TRIAL, 0))
                res = baseline_identity_test(inst.p, stream, 0.5)
                agree += res["decision"] == want
            assert agree >= 23

    def test_baseline_counts_linear_scan(self):
        inst = make_instance("identical-uniform", 512, seed=0)
        stream = AliasSampler(inst.q, seed_sequence(1, TAG_TRIAL, 0))
        res = baseline_identity_test(inst.p, stream, 0.5)
        assert res["p_queries_used"] == 512

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mass_compare_rejects_before_the_collision_sample(self, seed):
        # zipf's bucket masses are far from uniform q's 128-sample estimate:
        # the baseline rejects on them and draws no collision sample
        res = baseline_identity_test(
            zipf_pmf(400), AliasSampler(uniform_pmf(400), seed), 0.5
        )
        assert res == {
            "decision": "reject",
            "stage": "mass-compare",
            "q_samples_used": 128,
            "p_queries_used": 400,
        }


class TestScalingExperiment:
    def test_tiny_grid(self):
        out = scaling_experiment([256, 1024], 0.5, trials_per_point=1, master_seed=0)
        assert len(out["rows"]) == 2
        assert out["slope_total"] is not None
        for row in out["rows"]:
            assert row["q_samples"] > 0 and row["p_queries"] > 0
            assert row["baseline_total"] >= row["n"]

    def test_work_columns_are_pinned(self):
        out = scaling_experiment([256, 1024], 0.5, trials_per_point=1, master_seed=2)
        got = [(r["q_samples"], r["p_queries"], r["baseline_total"]) for r in out["rows"]]
        assert got == [(1066.0, 237.0, 512), (2663.0, 738.0, 1280)]

    def test_budget_is_the_audited_budget(self):
        # the grid is uniform, so each run is audited against S alone
        cfg = TesterConfig(eps=0.5)
        out = scaling_experiment([256, 1024], 0.5, trials_per_point=1, master_seed=2)
        for row in out["rows"]:
            assert row["budget"] == plan(row["n"], cfg).S
            assert row["p_queries"] <= row["budget"]

    def test_singleton_grid_no_fit(self):
        out = scaling_experiment([512], 0.5, trials_per_point=1, master_seed=0)
        assert len(out["rows"]) == 1
        assert out["slope_total"] is None
        assert out["slope_wall"] is None

    def test_wall_slope_fits_wall_ms(self):
        out = scaling_experiment([256, 1024], 0.5, trials_per_point=1, master_seed=0)
        ns = [r["n"] for r in out["rows"]]
        want = fit_loglog_slope(ns, [r["wall_ms"] for r in out["rows"]])
        assert out["slope_wall"] == want

    def test_empty_grid(self):
        with pytest.raises(BadParams):
            scaling_experiment([], 0.5)

    def test_fit_helper(self):
        ns = [2**e for e in range(8, 13)]
        assert fit_loglog_slope(ns, [n for n in ns]) == pytest.approx(1.0)
        assert fit_loglog_slope(ns, [n**0.5 for n in ns]) == pytest.approx(0.5)
        assert fit_loglog_slope([64], [10]) is None
        assert fit_loglog_slope([64, 64], [10, 12]) is None

"""Tests for the collision statistic and its threshold decision."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idtest.bucketing import _BLOCK, bucket_indices, build_scheme, exact_bucket_masses
from idtest.distributions import (
    AliasSampler,
    FileSampleStream,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from idtest.errors import BadParams, DimensionMismatch, InvariantViolated
from idtest.moment import (
    CollisionStats,
    collect_counts,
    moment_decide,
    sample_pairs,
)
from idtest.rng import TAG_TRIAL, seed_sequence
from idtest.tester import QueryCounter, TesterConfig, plan


class TestCollectCounts:
    def test_small_example(self):
        # [7, 7, 9]: occurrences {7: 2, 9: 1}; C(2,2) + C(1,2) = 1 collision.
        # Two distinct indices and one collision among three samples leave
        # only the split (2, 1). Only 7, drawn twice, is queried.
        n = 12
        p = uniform_pmf(n)
        counter = QueryCounter(p)
        s = build_scheme(n, 2.0, 1.0)
        stream = FileSampleStream(np.array([7, 7, 9]), n=n)
        stats = collect_counts(stream, counter, s, 3)
        assert counter.total == counter.distinct_count == 1
        j = bucket_indices(s, [1.0 / n])[0]
        assert stats.per_bucket_stat[j] == pytest.approx(1.0)
        assert stats.per_bucket_stat.sum() == pytest.approx(1.0)

    def test_indices_beyond_int32_stay_distinct(self):
        # n > 2^31 keeps int64 keys: narrowing would fold 2^32 + 5 onto 5,
        # leaving one distinct index with C(3, 2) = 3 collisions; 5 is the
        # one index drawn twice, so the one query
        n = 2**33

        class HugeStub:
            def lookup(self, indices):
                return np.full(np.shape(indices), 1.0 / n)

        counter = QueryCounter(HugeStub())
        s = build_scheme(n, 2.0, 1.0)
        stream = FileSampleStream(np.array([5, 2**32 + 5, 5]), n=n)
        stats = collect_counts(stream, counter, s, 3)
        assert counter.total == 1
        assert stats.per_bucket_stat.sum() == 1.0

    def test_all_distinct_no_collisions(self):
        n = 50
        p = uniform_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        stream = FileSampleStream(np.arange(20), n=n)
        stats = collect_counts(stream, p, s, 20)
        assert np.all(stats.per_bucket_stat == 0.0)

    def test_all_equal_maximal_collisions(self):
        n = 10
        p = uniform_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        S = 15
        counter = QueryCounter(p)
        stream = FileSampleStream(np.full(S, 4), n=n)
        stats = collect_counts(stream, counter, s, S)
        j = bucket_indices(s, [0.1])[0]
        assert stats.per_bucket_stat[j] == sample_pairs(S)
        assert stats.total_samples == S
        assert counter.total == 1  # all S samples on one index

    def test_occurrences_sum_to_s(self):
        # the statistic equals C(s_i, 2) summed per bucket over occurrence
        # counts of the same 500 draws, which sum to 500
        p = zipf_pmf(80)
        s = build_scheme(80, 2.0, 1.0)
        counter = QueryCounter(p)
        stats = collect_counts(AliasSampler(p, 3), counter, s, 500)
        replay = AliasSampler(p, 3).draw_many(500)
        distinct, occ = np.unique(replay, return_counts=True)
        assert occ.sum() == stats.total_samples == 500
        expected = np.bincount(
            bucket_indices(s, p.lookup(distinct)),
            weights=occ * (occ - 1) / 2.0,
            minlength=s.k + 1,
        )
        np.testing.assert_array_equal(stats.per_bucket_stat, expected)
        # sparse: one query per index drawn at least twice, never O(n)
        assert counter.total == np.count_nonzero(occ >= 2) <= 500 // 2

    @pytest.mark.parametrize("S", [_BLOCK - 1, _BLOCK, 2 * _BLOCK + 5])
    def test_blocked_draws_equal_one_batch(self, S):
        # collect_counts draws in blocks of _BLOCK; the stream is batch
        # invariant, so the statistic and the queries equal one batch's
        p = zipf_pmf(1000)
        s = build_scheme(1000, 2.0, 1.0)
        counter = QueryCounter(p)
        stream = AliasSampler(p, 3)
        stats = collect_counts(stream, counter, s, S)
        assert stream.draws == S
        distinct, occ = np.unique(AliasSampler(p, 3).draw_many(S), return_counts=True)
        expected = np.bincount(
            bucket_indices(s, p.lookup(distinct)),
            weights=occ * (occ - 1) / 2.0,
            minlength=s.k + 1,
        )
        assert stats.per_bucket_stat.tobytes() == expected.tobytes()
        repeated = np.count_nonzero(occ >= 2)
        assert counter.total == counter.distinct_count == repeated

    def test_one_query_per_distinct_index(self):
        p = uniform_pmf(30)
        s = build_scheme(30, 2.0, 1.0)
        counter = QueryCounter(p)
        stream = FileSampleStream(np.array([1, 1, 2, 2, 2, 9]), n=30)
        collect_counts(stream, counter, s, 6)
        assert counter.total == 2  # repeated indices only: 9 is drawn once
        assert counter.distinct_count == 2

    @given(st.lists(st.integers(0, 39), min_size=2, max_size=60))
    @example(list(range(40)))  # all distinct: no query at all
    @example([5] * 7 + [6, 6, 39])
    @settings(max_examples=200, deadline=None)
    def test_queries_only_repeated_indices(self, samples):
        # the statistic is the all-distinct formula's to the bit, and p is
        # queried once per index drawn at least twice
        n, S = 40, len(samples)
        p = zipf_pmf(n)
        s = build_scheme(n, 0.5, 1.0)
        counter = QueryCounter(p)
        stream = FileSampleStream(np.array(samples), n=n)
        stats = collect_counts(stream, counter, s, S)
        distinct, occ = np.unique(samples, return_counts=True)
        expected = np.bincount(
            bucket_indices(s, p.lookup(distinct)),
            weights=occ * (occ - 1) / 2.0,
            minlength=s.k + 1,
        )
        assert stats.per_bucket_stat.tobytes() == expected.tobytes()
        repeated = int(np.count_nonzero(occ >= 2))
        assert counter.total == counter.distinct_count == repeated <= S // 2

    def test_precondition(self):
        p = uniform_pmf(4)
        s = build_scheme(4, 2.0, 1.0)
        with pytest.raises(BadParams):
            collect_counts(AliasSampler(p, 0), p, s, 1)

    def test_more_distinct_than_samples_raises(self):
        class Overdrawing(FileSampleStream):
            """Returns one sample more than asked for."""

            def draw_many(self, m):
                return super().draw_many(m + 1)

        p = uniform_pmf(30)
        s = build_scheme(30, 2.0, 1.0)
        stream = Overdrawing(np.arange(10), n=30)
        with pytest.raises(InvariantViolated, match="5 distinct indices from 4"):
            collect_counts(stream, p, s, 4)

    def test_unbiasedness_five_standard_errors(self):
        # E[stat_j] = C(S,2) * sum_{i in R_j} q_i^2, checked over 1e4 trials
        n, S, trials = 100, 60, 10**4
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        q = validate_pmf(np.random.default_rng(12).dirichlet(np.ones(n)))
        buckets = bucket_indices(s, p.probs)
        expected = sample_pairs(S) * np.bincount(
            buckets, weights=q.probs**2, minlength=s.k + 1
        )
        proto = AliasSampler(q, 0)
        stats_matrix = np.empty((trials, s.k + 1))
        for t in range(trials):
            stream = proto.spawn(seed_sequence(41, TAG_TRIAL, t))
            stats_matrix[t] = collect_counts(stream, p, s, S).per_bucket_stat
        mean = stats_matrix.mean(axis=0)
        se = stats_matrix.std(axis=0, ddof=1) / math.sqrt(trials)
        occupied = expected > 0
        assert np.all(np.abs(mean - expected)[occupied] <= 5 * se[occupied])


class TestMomentDecide:
    def make(self, n=100):
        p = uniform_pmf(n)
        s = build_scheme(n, 0.5, 100.0)
        masses = exact_bucket_masses(s, p)
        return p, s, masses

    def stats_with(self, s, bucket, value, S=100):
        stat = np.zeros(s.k + 1)
        stat[bucket] = value
        return CollisionStats(total_samples=S, per_bucket_stat=stat)

    def threshold(self, s, masses, j):
        return moment_decide(self.stats_with(s, j, 0.0), masses, s, 0.5).thresholds[j]

    def test_zero_stats_accept(self):
        _, s, masses = self.make()
        stats = CollisionStats(100, np.zeros(s.k + 1))
        assert moment_decide(stats, masses, s, 0.5).accept

    def test_exact_threshold_accepts(self):
        # rejection requires strict exceedance
        _, s, masses = self.make()
        j = int(np.nonzero(masses)[0][0])
        thr = self.threshold(s, masses, j)
        report = moment_decide(self.stats_with(s, j, thr), masses, s, 0.5)
        assert report.accept
        nudged = self.stats_with(s, j, thr * (1 + 1e-9))
        assert not moment_decide(nudged, masses, s, 0.5).accept

    def test_small_mass_buckets_skipped(self):
        _, s, _ = self.make()
        guard = 0.5 / (4 * s.k + 4)
        masses = np.zeros(s.k + 1)
        masses[5] = guard  # not strictly above the guard
        masses[7] = guard * 1.01
        report = moment_decide(
            self.stats_with(s, 5, 1e9), masses, s, 0.5
        )
        assert report.accept  # bucket 5 skipped, huge stat ignored
        assert not report.tested[5]
        assert report.tested[7]

    def test_bucket_zero_always_skipped(self):
        _, s, _ = self.make()
        masses = np.zeros(s.k + 1)
        masses[0] = 1.0
        report = moment_decide(self.stats_with(s, 0, 1e9), masses, s, 0.5)
        assert report.accept
        assert not report.tested[0]

    def test_monotonicity_more_collisions_never_unreject(self):
        _, s, masses = self.make()
        j = int(np.nonzero(masses)[0][0])
        thr = self.threshold(s, masses, j)
        lo = moment_decide(self.stats_with(s, j, thr * 1.5), masses, s, 0.5)
        hi = moment_decide(self.stats_with(s, j, thr * 3.0), masses, s, 0.5)
        assert not lo.accept and not hi.accept
        assert np.all(lo.rejected <= hi.rejected)

    def test_dimension_mismatch(self):
        _, s, _ = self.make()
        stats = CollisionStats(10, np.zeros(s.k + 1))
        with pytest.raises(DimensionMismatch):
            moment_decide(stats, np.zeros(s.k), s, 0.5)

    def test_matching_q_accepts_with_high_probability(self):
        # p = q = uniform: expected stat sits below the threshold by the
        # (1 + eps/4) slack; accept in >= 95% of 200 seeded trials
        n = 400
        p = uniform_pmf(n)
        s = build_scheme(n, 0.5, 100.0)
        masses = exact_bucket_masses(s, p)
        S = plan(n, TesterConfig(eps=0.5)).S  # C4 = 3
        proto = AliasSampler(p, 0)
        accepts = 0
        for t in range(200):
            stream = proto.spawn(seed_sequence(43, TAG_TRIAL, t))
            stats = collect_counts(stream, p, s, S)
            accepts += moment_decide(stats, masses, s, 0.5).accept
        assert accepts >= 190

    def test_sample_size_formula(self):
        # S = ceil(C4 * sqrt(n) * ln(n+1) / eps^2), C4 = 3
        assert plan(400, TesterConfig(eps=0.5)).S == math.ceil(
            3.0 * 20.0 * math.log(401) / 0.25
        )

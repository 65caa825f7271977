"""Tests for the coarse bucket-mass comparator."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtest import bucketing, coarse, tester
from idtest.bucketing import (
    _BLOCK,
    MAX_BUDGET,
    bucket_indices,
    build_scheme,
    exact_bucket_masses,
)
from idtest.coarse import (
    CASE1,
    CASE2,
    STEP_HEAVY,
    STEP_PROBE,
    CoarseEstimates,
    coarse_compare,
    coarse_decide,
    collect_heavy_support,
    estimate_q,
    uniform_probe,
)
from idtest.distributions import (
    AliasSampler,
    FileSampleStream,
    ProbabilityVector,
    point_mass_pmf,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from idtest.errors import BadParams, InvariantViolated, SampleExhausted
from idtest.harness import LEMMA_SCHEME_C, LEMMA_SCHEME_EPS
from idtest.rng import TAG_PROBE, TAG_TRIAL, seed_sequence, spawn_rng
from idtest.tester import (
    C1,
    C2,
    C3,
    QueryCounter,
    TesterConfig,
    identity_test,
    plan_sizes,
    query_audit,
)


def sizes_at(scheme, delta, c1=C1, c2=C2, c3=C3, cap=True):
    """Comparator plan, at the tester's multipliers and cap unless given."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("C1", c1), ("C2", c2), ("C3", c3)):
            mp.setattr(tester, name, value)
        return plan_sizes(scheme, delta, cap)


class TestPhaseSizes:
    def test_uncapped_formulas(self):
        s = build_scheme(16, 2.0, 1.0)  # k = 3
        sz = sizes_at(s, 1.0, 1.0, 1.0, 1.0, cap=False)
        lk = math.log(s.k + 2)
        assert sz.m1 == math.ceil((s.k / 1.0) ** 2 * lk)
        assert sz.s1 == math.ceil(math.sqrt(16) * math.log(17))
        assert sz.s2 == math.ceil((s.k / 1.0) ** 2 * math.sqrt(16) * lk)
        assert sz.capped == (False, False, False)
        assert sz.delta == 1.0
        assert sz.S == 0  # the comparator alone draws no collision sample

    def test_quadratic_s2_and_cap(self):
        s = build_scheme(400, 0.5, 100.0)  # large k
        sz = sizes_at(s, 0.0625)
        cap = math.ceil(150.0 * math.sqrt(400))
        assert sz.m1 == cap and sz.s2 == cap
        assert sz.capped[0] and sz.capped[2]
        assert not sz.capped[1]  # s1 formula is already sqrt-scale
        # uncapped, s2 is quadratic in k/delta: on a plan under the budget
        # (k = 6 at C = 1); this one asks for 9.2e11 and is refused with its total
        small = build_scheme(400, 2.0, 1.0)
        uncapped = sizes_at(small, 0.5, cap=False)
        assert uncapped.s2 == math.ceil(
            8.0 * (small.k / 0.5) ** 2 * math.sqrt(400) * math.log(small.k + 2)
        )
        assert uncapped.m1 + uncapped.s1 + uncapped.s2 <= MAX_BUDGET
        with pytest.raises(BadParams, match=r"m1 \+ s1 \+ s2 = 9\.17e\+11 samples"):
            sizes_at(s, 0.0625, cap=False)

    def test_config_validation(self):
        with pytest.raises(BadParams):
            TesterConfig(eps=0.0)


# Block-boundary sizes for the streamed phases: one probe, one short of a
# block, exactly one block, one over, and two blocks plus a partial third.
STREAM_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
STREAM_N = 2**18  # large enough that reused index buffers change distinct counts
STREAM_PMFS = {
    "uniform": lambda: uniform_pmf(STREAM_N),
    "zipf": lambda: zipf_pmf(STREAM_N),
    "point-mass": lambda: point_mass_pmf(STREAM_N, 5),
}


def reference_estimate_q(source, p, scheme, m):
    """estimate_q as one m-sized draw, lookup and bincount."""
    draws = source.draw_many(m)
    buckets = bucket_indices(scheme, p.lookup(draws))
    return np.bincount(buckets, minlength=scheme.k + 1) / float(m)


def reference_uniform_probe(p, scheme, s2_size, rng):
    """uniform_probe as one s2-sized pass with boolean compaction."""
    n = scheme.n
    u = rng.random(s2_size)
    idx = np.minimum((u * n).astype(np.int64), n - 1)
    pv = p.lookup(idx)
    buckets = bucket_indices(scheme, pv)
    mask = buckets < scheme.j_star
    return np.bincount(
        buckets[mask], weights=pv[mask] * float(n), minlength=scheme.k + 1
    ) / float(s2_size)


class TestStreamedPhasesBitEqual:
    """The block-streamed phases equal their single-array references."""

    @pytest.fixture(scope="class")
    def pmfs(self):
        return {name: make() for name, make in STREAM_PMFS.items()}

    @pytest.fixture(scope="class")
    def scheme(self):
        return build_scheme(STREAM_N, 2.0, 1.0)

    @pytest.mark.parametrize("kind", sorted(STREAM_PMFS))
    @pytest.mark.parametrize("size", STREAM_SIZES)
    def test_uniform_probe(self, pmfs, scheme, kind, size):
        p = pmfs[kind]
        got_counter, ref_counter = QueryCounter(p), QueryCounter(p)
        got = uniform_probe(got_counter, scheme, size, spawn_rng(11, TAG_PROBE))
        ref = reference_uniform_probe(ref_counter, scheme, size, spawn_rng(11, TAG_PROBE))
        assert got.dtype == ref.dtype == np.float64
        assert np.array_equal(got, ref)
        assert got_counter.total == ref_counter.total == size
        assert got_counter.distinct_count == ref_counter.distinct_count

    @pytest.mark.parametrize("kind", sorted(STREAM_PMFS))
    @pytest.mark.parametrize("size", STREAM_SIZES)
    def test_estimate_q_alias(self, pmfs, scheme, kind, size):
        p = pmfs[kind]
        proto = AliasSampler(p, 0)
        got_src = proto.spawn(seed_sequence(12, TAG_TRIAL, 0))
        ref_src = proto.spawn(seed_sequence(12, TAG_TRIAL, 0))
        got_counter, ref_counter = QueryCounter(p), QueryCounter(p)
        got = estimate_q(got_src, got_counter, scheme, size)
        ref = reference_estimate_q(ref_src, ref_counter, scheme, size)
        assert np.array_equal(got, ref)
        assert got_src.draws == ref_src.draws == size
        assert got_counter.total == ref_counter.total == size
        assert got_counter.distinct_count == ref_counter.distinct_count

    @pytest.mark.parametrize("size", STREAM_SIZES)
    def test_estimate_q_file_stream(self, pmfs, scheme, size):
        p = pmfs["zipf"]
        samples = np.random.default_rng(13).integers(0, STREAM_N, size + 7)
        before = samples.copy()
        got_src = FileSampleStream(samples, n=STREAM_N)
        got_src.draw_many(2)  # start mid-buffer
        got_counter, ref_counter = QueryCounter(p), QueryCounter(p)
        got = estimate_q(got_src, got_counter, scheme, size)
        ref_src = FileSampleStream(samples, n=STREAM_N)
        ref_src.draw_many(2)
        ref = reference_estimate_q(ref_src, ref_counter, scheme, size)
        assert np.array_equal(got, ref)
        assert got_src.remaining == 5  # the cursor moved by exactly size
        assert got_src.draws == size + 2
        assert np.array_equal(samples, before)
        assert got_counter.total == size
        assert got_counter.distinct_count == ref_counter.distinct_count


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    # the block size bounds temporaries only: comparator estimates and the
    # JSON of seeded verdicts (coarse reject on zipf, moment stage on
    # uniform) are the same with phases of one block and of many
    n = STREAM_N
    scheme = build_scheme(n, 2.0, 1.0)
    sizes = sizes_at(scheme, 0.1)
    assert min(sizes.m1, sizes.s2) > 2**16
    cfg = TesterConfig(eps=0.5, master_seed=4)
    pmfs = [zipf_pmf(n), uniform_pmf(n)]
    samplers = [AliasSampler(p, 0) for p in pmfs]
    results = []
    for block in (2**10, 2**14, 2**16):
        monkeypatch.setattr(bucketing, "_BLOCK", block)
        monkeypatch.setattr(coarse, "_BLOCK", block)
        stream = samplers[0].spawn(seed_sequence(5, TAG_TRIAL, 0))
        est = coarse_compare(stream, pmfs[0], scheme, sizes, spawn_rng(5, TAG_PROBE)).estimates
        got = [est.q_hat.tobytes(), est.heavy_mass.tobytes(), est.probe_mass.tobytes()]
        for p, sampler in zip(pmfs, samplers):
            stream = sampler.spawn(seed_sequence(4, TAG_TRIAL, 0))
            v = identity_test(p, stream, cfg)
            audit = dataclasses.asdict(query_audit(v, n, cfg))
            got.append(json.dumps([v.to_dict(), audit], sort_keys=True))
        results.append(got)
    assert json.loads(results[0][3])[0]["stage"] == "coarse"
    assert json.loads(results[0][4])[0]["moment"] is not None
    assert results[0] == results[1] == results[2]


class TestEstimateQ:
    def test_single_bucket_concentration(self):
        n = 50
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        stream = FileSampleStream(np.full(30, 2), n=n)
        q_hat = estimate_q(stream, p, s, 30)
        j = bucket_indices(s, p.probs[[2]])[0]
        assert q_hat[j] == 1.0
        assert q_hat.sum() == pytest.approx(1.0)

    def test_exact_query_count(self):
        p = uniform_pmf(20)
        s = build_scheme(20, 1.0, 2.0)
        counter = QueryCounter(p)
        stream = AliasSampler(p, seed=0)
        estimate_q(stream, counter, s, 123)
        assert counter.total == 123
        assert stream.draws == 123

    def test_precondition(self):
        p = uniform_pmf(4)
        s = build_scheme(4, 1.0, 2.0)
        with pytest.raises(BadParams):
            estimate_q(AliasSampler(p, 0), p, s, 0)

    def test_monte_carlo_accuracy_vs_oracle(self):
        # with q = p, the max per-bucket deviation stays within
        # delta/(8k+8) in >= 99% of seeded trials at the uncapped size
        n, delta = 100, 0.2
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)  # k = 5
        m = sizes_at(s, delta, 128.0, 1.0, 1.0, cap=False).m1
        tol = delta / (8 * s.k + 8)
        truth = exact_bucket_masses(s, p)
        proto = AliasSampler(p, 0)
        good = 0
        trials = 200
        for t in range(trials):
            stream = proto.spawn(seed_sequence(17, TAG_TRIAL, t))
            q_hat = estimate_q(stream, p, s, m)
            good += np.max(np.abs(q_hat - truth)) <= tol
        assert good >= 198  # 99% of 200


def reference_heavy_support(source, p, scheme, s1_size):
    """The np.unique(return_index=True) formulation of collect_heavy_support."""
    draws = source.draw_many(s1_size)
    pv = p.lookup(draws)
    _, first_pos = np.unique(draws, return_index=True)
    upv = pv[first_pos]
    buckets = np.minimum(np.searchsorted(scheme.boundaries, upv), scheme.k)
    mask = buckets >= scheme.j_star
    return np.bincount(buckets[mask], weights=upv[mask], minlength=scheme.k + 1)


class TestCollectHeavySupport:
    @given(
        st.integers(2, 300),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_unique_reference(self, n, seed, us):
        # same heavy masses bit for bit, same p-queries, buffer untouched
        rng = np.random.default_rng(seed)
        p = validate_pmf(rng.dirichlet(np.full(n, 0.3)))
        s = build_scheme(n, 2.0, 1.0)
        samples = np.minimum((np.array(us) * n).astype(np.int64), n - 1)
        kept = samples.copy()
        got_counter, want_counter = QueryCounter(p), QueryCounter(p)
        stream = FileSampleStream(samples, n=n)
        got = collect_heavy_support(stream, got_counter, s, samples.size)
        want = reference_heavy_support(
            FileSampleStream(kept, n=n), want_counter, s, kept.size
        )
        assert got.tobytes() == want.tobytes()
        assert got_counter.total == want_counter.total == samples.size
        assert got_counter.distinct_count == want_counter.distinct_count
        assert np.array_equal(stream._samples, kept)

    @pytest.mark.parametrize("constant", [True, False])
    def test_all_light_is_float64_zeros(self, constant):
        # a uniform p is all light (1/n < 1/sqrt(n)): zeros, as float64
        n = 1024
        p = uniform_pmf(n)
        if not constant:
            p = dataclasses.replace(p, constant=None)
        s = build_scheme(n, 0.5, 100.0)
        samples = np.arange(n, dtype=np.int64)[::-1].copy()
        streams = [AliasSampler(p, 3), FileSampleStream(samples, n=n)]
        for stream in streams:
            heavy = collect_heavy_support(stream, p, s, n)
            assert heavy.dtype == np.float64
            assert heavy.shape == (s.k + 1,)
            assert not heavy.any()
        assert np.array_equal(samples, np.arange(n)[::-1])

    def test_deduplication(self):
        # repeated index counted once
        n = 10
        probs = np.full(n, 0.02)
        probs[5] = 0.82
        p = validate_pmf(probs)
        s = build_scheme(n, 2.0, 1.0)
        j5 = bucket_indices(s, [0.82])[0]
        assert j5 >= s.j_star
        stream = FileSampleStream(np.array([5, 5, 5]), n=n)
        heavy = collect_heavy_support(stream, p, s, 3)
        assert heavy[j5] == pytest.approx(0.82)
        assert heavy.sum() == pytest.approx(0.82)

    def test_entries_below_j_star_zero(self):
        n = 100
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        stream = AliasSampler(p, seed=3)
        heavy = collect_heavy_support(stream, p, s, 500)
        assert np.all(heavy[: s.j_star] == 0.0)

    def test_exact_query_count(self):
        p = zipf_pmf(64)
        s = build_scheme(64, 2.0, 1.0)
        counter = QueryCounter(p)
        collect_heavy_support(AliasSampler(p, 1), counter, s, 77)
        assert counter.total == 77

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_underestimate_property_all_seeds(self, seed):
        # heavy_mass never exceeds the true bucket mass, whatever q is
        n = 60
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        q = validate_pmf(np.random.default_rng(seed).dirichlet(np.ones(n)))
        stream = AliasSampler(q, seed=seed)
        heavy = collect_heavy_support(stream, p, s, 200)
        truth = exact_bucket_masses(s, p)
        assert np.all(heavy <= truth + 1e-12)

    def test_coupon_collection_captures_heavy_support(self):
        # q = p: every bucket >= j_star is learned exactly in >= 97%
        # of 300 seeded trials at the formula size
        n = 400
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        s1 = sizes_at(s, 0.1).s1
        truth = exact_bucket_masses(s, p)
        heavy_truth = truth.copy()
        heavy_truth[: s.j_star] = 0.0
        proto = AliasSampler(p, 0)
        hits = 0
        for t in range(300):
            stream = proto.spawn(seed_sequence(23, TAG_TRIAL, t))
            heavy = collect_heavy_support(stream, p, s, s1)
            hits += np.allclose(heavy, heavy_truth, atol=1e-12)
        assert hits >= 291  # 97% of 300


class TestUniformProbe:
    def test_point_mass_all_zero(self):
        # the only occupied bucket is the top one, at or above j_star
        n = 16
        p = point_mass_pmf(n, 1)
        s = build_scheme(n, 2.0, 1.0)
        probe = uniform_probe(p, s, 500, spawn_rng(0, TAG_PROBE))
        assert np.all(probe == 0.0)

    def test_uniform_pmf_exact(self):
        # every probe contributes p_i * n = 1, so the estimate is exact
        n = 128
        p = uniform_pmf(n)
        s = build_scheme(n, 0.5, 100.0)
        probe = uniform_probe(p, s, 1000, spawn_rng(1, TAG_PROBE))
        b = bucket_indices(s, [1.0 / n])[0]
        assert b < s.j_star
        assert probe[b] == pytest.approx(1.0)
        assert probe.sum() == pytest.approx(1.0)

    def test_exact_query_count(self):
        p = zipf_pmf(40)
        s = build_scheme(40, 2.0, 1.0)
        counter = QueryCounter(p)
        uniform_probe(counter, s, 333, spawn_rng(2, TAG_PROBE))
        assert counter.total == 333

    def test_unbiasedness_five_standard_errors(self):
        # empirical mean of probe_mass over 1e4 trials matches the oracle
        # within 5 standard errors on every light bucket
        n = 100
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        truth = exact_bucket_masses(s, p)
        trials, s2 = 10**4, 200
        rng = spawn_rng(3, TAG_PROBE)
        samples = np.empty((trials, s.j_star))
        for t in range(trials):
            samples[t] = uniform_probe(p, s, s2, rng)[: s.j_star]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(trials)
        for j in range(s.j_star):
            assert abs(mean[j] - truth[j]) <= 5 * max(se[j], 1e-12)

    def test_contribution_bound_holds(self):
        # every light-bucket contribution is below (1+eps')/sqrt(n)
        n = 400
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        light_max = s.boundaries[s.j_star - 1]
        assert light_max <= (1.0 + s.eps_prime) / math.sqrt(n)
        uniform_probe(p, s, 10**4, spawn_rng(6, TAG_PROBE))  # must not raise

    def test_contribution_bound_violation_raises(self):
        # a scheme whose j_star is past the top bucket counts p_0 = 0.97 as
        # light, far above (1+eps')/sqrt(n)
        n = 4
        p = validate_pmf(np.array([0.97, 0.01, 0.01, 0.01]))
        s = build_scheme(n, 0.5, 100.0)
        broken = dataclasses.replace(s, j_star=s.k + 1)
        with pytest.raises(InvariantViolated, match="light-bucket probe"):
            uniform_probe(p, broken, 200, spawn_rng(7, TAG_PROBE))


    def test_contribution_bound_checked_in_every_block(self):
        # the only light probe above the bound is the last probe of the
        # second block: a check on the first block alone would miss it
        n = 400
        s = build_scheme(n, 2.0, 1.0)
        broken = dataclasses.replace(s, j_star=s.k + 1)  # every bucket light

        class LateSpike:
            """p-values 1/n, except a 0.97 at the end of the second lookup."""

            n = 400

            def __init__(self):
                self.calls = 0

            def lookup(self, indices):
                self.calls += 1
                pv = np.full(indices.shape, 1.0 / n)
                if self.calls == 2:
                    pv[-1] = 0.97
                return pv

        spike = LateSpike()
        with pytest.raises(InvariantViolated, match="contribution 0.97 exceeds"):
            uniform_probe(spike, broken, _BLOCK + 1, spawn_rng(8, TAG_PROBE))
        assert spike.calls == 2

    def test_temporaries_stay_block_sized(self):
        # s2 of lemma_check(400, 0.1) on the lemma scheme; one array of that
        # many float64 values alone is 9.6 MB
        s = build_scheme(400, LEMMA_SCHEME_EPS, LEMMA_SCHEME_C)
        p = zipf_pmf(400)
        rng = spawn_rng(9, TAG_PROBE)
        tracemalloc.start()
        try:
            uniform_probe(p, s, 1_197_759, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


ONE_VALUE_SIZES = (1, _BLOCK, 2 * _BLOCK + 3)


class TestOneValuePathsBitEqual:
    """A constant p's phases, run on its one value, equal the element-wise
    phases on the same pmf with its constant cleared."""

    @pytest.fixture(scope="class")
    def pmfs(self):
        p = uniform_pmf(STREAM_N)
        assert p.constant is not None
        assert bucketing._one_value(p.lookup(np.zeros(2, dtype=np.int64)))
        return p, dataclasses.replace(p, constant=None)

    @pytest.fixture(scope="class", params=["scheme", "all-light", "all-heavy"])
    def scheme(self, request):
        s = build_scheme(STREAM_N, 2.0, 1.0)
        # bucket 0 holds values up to eps/(2n), so 1/n is light in s itself
        assert bucket_indices(s, [1.0 / STREAM_N])[0] < s.j_star
        j_star = {"scheme": s.j_star, "all-light": s.k + 1, "all-heavy": 0}
        return dataclasses.replace(s, j_star=j_star[request.param])

    def run_both(self, pmfs, phase):
        """phase(counting pmf) for the constant p and the element-wise p."""
        results = []
        for p in pmfs:
            counter = QueryCounter(p)
            out = phase(counter)
            results.append((out.dtype, out.tobytes(), counter.total, counter.distinct_count))
        assert results[0] == results[1]
        return results[0]

    def stream(self, pmfs):
        return AliasSampler(pmfs[0], 0).spawn(seed_sequence(14, TAG_TRIAL, 0))

    @pytest.mark.parametrize("size", ONE_VALUE_SIZES)
    def test_estimate_q(self, pmfs, scheme, size):
        streams = iter([self.stream(pmfs), self.stream(pmfs)])
        _, _, total, _ = self.run_both(
            pmfs, lambda p: estimate_q(next(streams), p, scheme, size)
        )
        assert total == size

    @pytest.mark.parametrize("size", ONE_VALUE_SIZES)
    def test_collect_heavy_support(self, pmfs, scheme, size):
        streams = iter([self.stream(pmfs), self.stream(pmfs)])
        _, heavy, total, _ = self.run_both(
            pmfs, lambda p: collect_heavy_support(next(streams), p, scheme, size)
        )
        assert total == size
        assert (np.frombuffer(heavy).sum() > 0) == (scheme.j_star == 0)

    @pytest.mark.parametrize("size", ONE_VALUE_SIZES)
    def test_uniform_probe(self, pmfs, scheme, size):
        _, probe, total, _ = self.run_both(
            pmfs, lambda p: uniform_probe(p, scheme, size, spawn_rng(15, TAG_PROBE))
        )
        assert total == size
        assert (np.frombuffer(probe).sum() > 0) == (scheme.j_star > 0)

    def test_contribution_bound_violation_message(self):
        # the broken scheme of test_contribution_bound_violation_raises; a
        # valid constant pmf never breaks the bound (1/n < 1/sqrt(n)), so
        # this one is built without validation
        n = 4
        s = build_scheme(n, 0.5, 100.0)
        broken = dataclasses.replace(s, j_star=s.k + 1)
        one = ProbabilityVector(np.full(n, 0.97), constant=0.97)
        messages = []
        for p in (one, dataclasses.replace(one, constant=None)):
            with pytest.raises(InvariantViolated, match="light-bucket probe") as exc:
                uniform_probe(p, broken, 200, spawn_rng(7, TAG_PROBE))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def synthetic_estimates(scheme, q_hat=None, heavy=None, probe=None):
    z = np.zeros(scheme.k + 1)
    return CoarseEstimates(
        q_hat=z if q_hat is None else np.asarray(q_hat, float),
        heavy_mass=z if heavy is None else np.asarray(heavy, float),
        probe_mass=z if probe is None else np.asarray(probe, float),
        s2_size=100,
    )


class TestCoarseDecide:
    # scheme with k = 9 so delta = 0.8 gives thresholds 0.01 and 0.02
    def scheme9(self):
        s = build_scheme(10**4, 2.0, 1.0)
        assert s.k == 9
        return s

    def test_componentwise_equal_is_case1(self):
        s = self.scheme9()
        v = np.zeros(s.k + 1)
        v[s.j_star] = 0.6
        v[0] = 0.4
        est = synthetic_estimates(s, q_hat=v, heavy=v, probe=v)
        out = coarse_decide(est, s, 0.8)
        assert out.case == CASE1 and out.triggering_step is None

    def test_heavy_violation(self):
        s = self.scheme9()
        q_hat = np.zeros(s.k + 1)
        heavy = np.zeros(s.k + 1)
        q_hat[s.j_star] = 0.5
        heavy[s.j_star] = 0.48  # deviation 0.02 > 0.8/80 = 0.01
        out = coarse_decide(
            synthetic_estimates(s, q_hat=q_hat, heavy=heavy), s,
            0.8,
        )
        assert out.case == CASE2
        assert out.triggering_step == STEP_HEAVY
        assert out.triggering_bucket == s.j_star

    def test_probe_below_threshold_is_case1(self):
        s = self.scheme9()
        q_hat = np.zeros(s.k + 1)
        probe = np.zeros(s.k + 1)
        q_hat[1] = 0.5
        probe[1] = 0.5 - 0.019  # 0.019 < 0.8/40 = 0.02
        out = coarse_decide(
            synthetic_estimates(s, q_hat=q_hat, probe=probe), s,
            0.8,
        )
        assert out.case == CASE1

    def test_first_violation_in_increasing_order(self):
        s = self.scheme9()
        q_hat = np.zeros(s.k + 1)
        probe = np.zeros(s.k + 1)
        q_hat[0], q_hat[2] = 0.5, 0.5
        probe[0], probe[2] = 0.4, 0.4
        out = coarse_decide(
            synthetic_estimates(s, q_hat=q_hat, probe=probe), s,
            0.8,
        )
        assert out.triggering_bucket == 0
        assert out.triggering_step == STEP_PROBE

    def test_heavy_checked_before_probe(self):
        s = self.scheme9()
        q_hat = np.zeros(s.k + 1)
        heavy = np.zeros(s.k + 1)
        probe = np.zeros(s.k + 1)
        q_hat[0], probe[0] = 0.5, 0.1  # probe violation at bucket 0
        q_hat[s.j_star], heavy[s.j_star] = 0.5, 0.1  # heavy violation too
        out = coarse_decide(
            synthetic_estimates(s, q_hat=q_hat, heavy=heavy, probe=probe), s,
            0.8,
        )
        assert out.triggering_step == STEP_HEAVY

    def test_deterministic_and_pure(self):
        s = self.scheme9()
        est = synthetic_estimates(s, q_hat=np.full(s.k + 1, 0.1))
        a = coarse_decide(est, s, 0.8)
        b = coarse_decide(est, s, 0.8)
        assert (a.case, a.triggering_step, a.triggering_bucket) == (
            b.case, b.triggering_step, b.triggering_bucket,
        )


class TestCoarseCompare:
    def test_work_accounting(self):
        n = 200
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        sz = sizes_at(s, 0.5, c1=2.0, c3=0.01, cap=False)
        counter = QueryCounter(p)
        stream = AliasSampler(p, seed=5)
        coarse_compare(stream, counter, s, sz, spawn_rng(5, TAG_PROBE))
        assert stream.draws == sz.m1 + sz.s1
        assert counter.total == sz.m1 + sz.s1 + sz.s2

    def test_identical_uniform_case1(self):
        n = 400
        p = uniform_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        sz = sizes_at(s, 0.1, c1=1.0, c3=0.1, cap=False)
        proto = AliasSampler(p, 0)
        for t in range(25):
            stream = proto.spawn(seed_sequence(31, TAG_TRIAL, t))
            out = coarse_compare(stream, p, s, sz, spawn_rng(31, TAG_PROBE, t))
            assert out.case == CASE1  # uniform estimates are exact

    def test_far_bucket_masses_case2(self):
        # p two-level, q uniform: bucket masses differ by 0.5 >> delta
        n = 400
        p = validate_pmf(np.concatenate([np.full(200, 1.5 / n), np.full(200, 0.5 / n)]))
        q = uniform_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        sz = sizes_at(s, 0.1, c1=4.0, c3=1.0, cap=False)
        proto = AliasSampler(q, 0)
        for t in range(25):
            stream = proto.spawn(seed_sequence(37, TAG_TRIAL, t))
            out = coarse_compare(stream, p, s, sz, spawn_rng(37, TAG_PROBE, t))
            assert out.case == CASE2

    def test_exhausted_source_no_verdict(self):
        n = 100
        p = uniform_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        sz = sizes_at(s, 0.5)
        stream = FileSampleStream(np.zeros(10, dtype=np.int64), n=n)
        with pytest.raises(SampleExhausted):
            coarse_compare(stream, p, s, sz, spawn_rng(0, TAG_PROBE))

    def test_q_hat_sums_to_one_invariant(self):
        n = 150
        p = zipf_pmf(n)
        s = build_scheme(n, 2.0, 1.0)
        sz = sizes_at(s, 0.3, c1=1.0, c3=0.1, cap=False)
        stream = AliasSampler(p, seed=9)
        out = coarse_compare(stream, p, s, sz, spawn_rng(9, TAG_PROBE))
        assert abs(out.estimates.q_hat.sum() - 1.0) <= 1e-9
        assert np.all(out.estimates.q_hat >= 0.0)

"""Tests for the implicit bucket partition and its exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtest import bucketing
from idtest.bucketing import (
    _BLOCK,
    MAX_K,
    bucket_indices,
    build_scheme,
    exact_bucket_masses,
)
from idtest.distributions import (
    perturbed_pmf,
    point_mass_pmf,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from idtest.errors import BadParams, DomainMismatch
from idtest.harness import LEMMA_SCHEME_C, LEMMA_SCHEME_EPS
from idtest.tester import SCHEME_C


def membership_predicate(scheme, prob, j):
    """The defining predicate, written independently of bucket_indices."""
    if j == 0:
        return prob <= scheme.boundaries[0]
    return scheme.boundaries[j - 1] < prob <= scheme.boundaries[j]


class TestBuildScheme:
    def test_reference_parameters(self):
        s = build_scheme(1024, 0.5, 100.0)
        assert s.eps_prime == pytest.approx(0.005)
        assert s.k == 1668  # ceil(ln 4096 / ln 1.005)
        assert s.j_star == 973  # bucket of 1/32, ratio 2*sqrt(n)/eps = 128
        assert s.boundaries[0] == pytest.approx(0.5 / 2048)

    def test_k_matches_formula(self):
        for n, eps, C in [(1024, 0.5, 100.0), (400, 2.0, 1.0), (10**4, 0.1, 10.0)]:
            s = build_scheme(n, eps, C)
            want = math.ceil(math.log(2 * n / eps) / math.log1p(eps / C))
            assert s.k == want

    def test_top_boundary_covers_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 10**6))
            eps = float(rng.uniform(0.01, 2.0))
            C = float(rng.uniform(1.0, 200.0))
            s = build_scheme(n, eps, C)
            assert s.boundaries[s.k] >= 1.0
            assert bucket_indices(s, [1.0])[0] == s.k
            assert 0 <= s.j_star <= s.k

    def test_cached_read_only(self):
        s = build_scheme(1024, 0.5, 100.0)
        assert build_scheme(np.int64(1024), np.float64(0.5), 100) is s
        for arr in (s.boundaries, s.cell_bucket, s.cell_upper):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(BadParams):
            build_scheme(1024, 0.5, float("nan"))

    def test_bad_params(self):
        with pytest.raises(BadParams):
            build_scheme(1, 0.5, 100.0)
        with pytest.raises(BadParams):
            build_scheme(10, 0.0, 100.0)
        with pytest.raises(BadParams):
            build_scheme(10, 2.5, 100.0)
        with pytest.raises(BadParams):
            build_scheme(10, 0.5, 0.5)

    @pytest.mark.parametrize("C", [float("inf"), 1e300, 1e12, 1e7])
    def test_too_many_buckets_is_bad_params(self, C):
        # raised before any array is allocated (C = 1e12 would take 60 TiB)
        with pytest.raises(BadParams, match="buckets"):
            build_scheme(16, 0.5, C)

    def test_largest_scheme_in_use_builds(self):
        s = build_scheme(10**7, 0.01, 200.0)
        assert s.k == 428_339 <= MAX_K


class TestBucketIndex:
    def test_zero_is_bucket_zero(self):
        s = build_scheme(100, 0.5, 10.0)
        assert bucket_indices(s, [0.0])[0] == 0

    def test_boundary_inclusivity(self):
        # upper boundaries belong to their bucket: base -> 0,
        # base*(1+eps') -> 1
        s = build_scheme(100, 0.5, 10.0)
        assert bucket_indices(s, [s.boundaries[0], s.boundaries[0] * (1.0 + s.eps_prime)]).tolist() == [0, 1]

    def test_reference_upper_value(self):
        s = build_scheme(1024, 0.5, 100.0)
        up = s.boundaries[973]
        assert up == pytest.approx(0.031276, rel=1e-4)
        assert up > 1 / 32
        assert bucket_indices(s, [1 / 32])[0] == 973

    def test_boundary_exactness(self):
        # the upper boundary of bucket j lands in j and a nudge above in j+1
        s = build_scheme(512, 0.7, 20.0)
        js = [1, 2, 3, s.k // 3, s.k // 2, s.k - 1, s.k]
        for j in js:
            up = s.boundaries[j]
            assert bucket_indices(s, [up])[0] == j
            if j < s.k and up * (1 + 1e-12) <= 1.0:
                assert bucket_indices(s, [up * (1 + 1e-12)])[0] == j + 1

    @pytest.mark.parametrize("n,eps,C", [(400, 2.0, 1.0), (1024, 0.5, 100.0)])
    def test_int64_equals_clipped_searchsorted(self, n, eps, C):
        # every boundary and both float neighbours; those above the top
        # boundary exercise the clip to k
        s = build_scheme(n, eps, C)
        b = s.boundaries
        probs = np.concatenate(
            [[0.0, 1.0], b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)]
        )
        got = bucket_indices(s, probs)
        assert got.dtype == np.int64
        want = np.minimum(np.searchsorted(b, probs, side="left"), s.k)
        assert np.array_equal(got, want)

    @given(
        st.integers(2, 10**7),
        st.floats(0.01, 2.0, exclude_min=True),
        st.floats(1.0, 200.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cell_table_equals_clipped_searchsorted(self, n, eps, C, seed):
        s = build_scheme(n, eps, C)
        b = s.boundaries
        rng = np.random.default_rng(seed)
        probs = np.concatenate([
            [0.0, -0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0)],
            b, np.nextafter(b, 0.0), np.nextafter(b, np.inf),
            rng.random(500),
            np.exp(rng.uniform(np.log(s.boundaries[0] / 4), np.log(2.0), 500)),
        ])
        want = np.minimum(np.searchsorted(b, probs, side="left"), s.k)
        assert np.array_equal(bucket_indices(s, probs), want)
        # exactly one block, and more than two blocks with a partial last one
        for size in (_BLOCK, 2 * _BLOCK + 3):
            tiled = np.resize(probs, size)
            assert np.array_equal(bucket_indices(s, tiled), np.resize(want, size))

    def test_cell_upper_is_the_cell_buckets_boundary(self):
        # the top cell alone reads +inf, so nothing climbs past bucket k
        for n, eps, C in [(400, 2.0, 1.0), (1024, 0.5, 100.0), (10**7, 0.01, 200.0)]:
            s = build_scheme(n, eps, C)
            assert s.cell_bucket[-1] == s.k
            assert np.array_equal(s.cell_upper[:-1], s.boundaries[s.cell_bucket[:-1]])
            assert s.cell_upper[-1] == np.inf
            assert bucket_indices(s, [np.inf, 2.0]).tolist() == [s.k, s.k]

    def test_cell_table_is_o_of_k(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            n = int(np.exp(rng.uniform(np.log(2), np.log(10**7))))
            s = build_scheme(n, float(rng.uniform(0.01, 2.0)), float(rng.uniform(1.0, 200.0)))
            worst = max(worst, s.cell_bucket.size / (s.k + 1))
        assert worst <= 8.0

    def test_blocks_and_shape(self):
        # more than one lookup block, and the input's shape is kept
        s = build_scheme(4096, 0.5, 100.0)
        probs = np.random.default_rng(5).random((3, 70_000)) / 4096
        want = np.minimum(np.searchsorted(s.boundaries, probs, side="left"), s.k)
        got = bucket_indices(s, probs)
        assert got.shape == probs.shape
        assert np.array_equal(got, want)
        assert bucket_indices(s, 1.0 / 4096).shape == ()
        assert np.array_equal(bucket_indices(s, probs[0, ::3]), want[0, ::3])

    def test_monotonicity(self):
        s = build_scheme(2048, 0.3, 50.0)
        probs = np.sort(np.random.default_rng(3).random(5000))
        buckets = bucket_indices(s, probs)
        assert np.all(np.diff(buckets) >= 0)

    @given(st.integers(2, 10**5), st.floats(0.05, 2.0), st.floats(1.0, 150.0))
    @settings(max_examples=40, deadline=None)
    def test_partition_property_random_schemes(self, n, eps, C):
        s = build_scheme(n, eps, C)
        probs = np.random.default_rng(n).random(200)
        buckets = bucket_indices(s, probs)
        for prob, j in zip(probs, buckets):
            assert membership_predicate(s, prob, j)

    def test_partition_property_bulk(self):
        # exactly one bucket satisfies the predicate, and it is the one
        # returned; checked over 1e5 random probabilities
        s = build_scheme(1024, 0.5, 100.0)
        probs = np.random.default_rng(8).random(10**5)
        buckets = bucket_indices(s, probs)
        lowers = np.concatenate([[-np.inf], s.boundaries[:-1]])
        ok = (probs > lowers[buckets]) & (probs <= s.boundaries[buckets])
        assert ok.all()
        # neighbors both fail, so membership is unique
        above = buckets + 1
        mask = above <= s.k
        bad_above = probs[mask] > lowers[above[mask]]
        assert not np.any(bad_above & (probs[mask] <= s.boundaries[above[mask]]))


class TestBucketUpper:
    def test_j_zero_is_base(self):
        s = build_scheme(64, 1.0, 4.0)
        assert s.boundaries[0] == 1.0 / 128  # eps/(2n)


def brute_force_masses(scheme, p):
    """Two-loop oracle evaluating the membership predicate directly."""
    out = np.zeros(scheme.k + 1)
    for i in range(p.n):
        prob = p.probs[i]
        for j in range(scheme.k + 1):
            if membership_predicate(scheme, prob, j):
                out[j] += prob
                break
    return out


class TestExactBucketMasses:
    def test_uniform_single_bucket(self):
        s = build_scheme(100, 0.5, 10.0)
        masses = exact_bucket_masses(s, uniform_pmf(100))
        j = bucket_indices(s, [0.01])[0]
        assert masses[j] == pytest.approx(1.0)
        assert np.count_nonzero(masses) == 1

    def test_point_mass_in_top_bucket(self):
        s = build_scheme(50, 0.5, 10.0)
        masses = exact_bucket_masses(s, point_mass_pmf(50, 7))
        assert masses[s.k] == pytest.approx(1.0)
        assert masses.sum() == pytest.approx(1.0)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(4)
        s = build_scheme(200, 0.8, 30.0)
        for _ in range(5):
            p = validate_pmf(rng.dirichlet(np.ones(200)))
            assert abs(exact_bucket_masses(s, p).sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 400, 1000])
    def test_agrees_with_brute_force(self, n):
        s = build_scheme(n, 0.5, 8.0)
        pmfs = [uniform_pmf(n), zipf_pmf(n), point_mass_pmf(n, n // 2)]
        if n >= 4:
            pmfs.append(perturbed_pmf(n, 0.5, seed=n))
        pmfs.append(validate_pmf(np.random.default_rng(n).dirichlet(np.ones(n))))
        for p in pmfs:
            assert np.allclose(
                exact_bucket_masses(s, p), brute_force_masses(s, p), atol=1e-12
            )

    def test_weight_pmf_groups_by_p_buckets(self):
        # q's mass lands in the buckets of p's probabilities
        n = 6
        s = build_scheme(n, 1.0, 2.0)
        p = validate_pmf([0.4, 0.3, 0.1, 0.1, 0.05, 0.05])
        q = validate_pmf([0.05, 0.05, 0.1, 0.1, 0.3, 0.4])
        got = exact_bucket_masses(s, p, weight_pmf=q)
        buckets = bucket_indices(s, p.probs)
        want = np.zeros(s.k + 1)
        for i in range(n):
            want[buckets[i]] += q.probs[i]
        assert np.allclose(got, want)
        assert got.sum() == pytest.approx(1.0)

    def test_domain_mismatch(self):
        s = build_scheme(10, 0.5, 10.0)
        with pytest.raises(DomainMismatch):
            exact_bucket_masses(s, uniform_pmf(11))
        with pytest.raises(DomainMismatch):
            exact_bucket_masses(s, uniform_pmf(10), weight_pmf=uniform_pmf(11))


class TestZeroStrideLookup:
    """A zero-stride input is looked up once; it equals the element-wise path."""

    def test_equals_elementwise_at_every_edge(self):
        s = build_scheme(400, 0.5, 100.0)
        b = s.boundaries
        values = np.concatenate([
            b,
            np.nextafter(b, 0.0),
            np.nextafter(b, np.inf),
            [0.0, -0.0, 5e-324, 2.0 * b[-1]],
        ])
        want = np.minimum(np.searchsorted(b, values, side="left"), s.k)
        for v, j in zip(values.tolist(), want.tolist()):
            for shape in ((7,), (2, 3)):
                view = np.broadcast_to(np.float64(v), shape)
                got = bucket_indices(s, view)
                assert got.shape == shape
                assert np.array_equal(got, bucket_indices(s, np.full(shape, v)))
                assert (got == j).all()
                assert got.flags.writeable


class TestOneValueSearch:
    """A one-value input (size 1 or zero-stride) takes one scalar search;
    it equals the cell-table path on the same values."""

    @pytest.mark.parametrize(
        "n, eps, C",
        [(400, LEMMA_SCHEME_EPS, LEMMA_SCHEME_C), (400, 0.5, SCHEME_C),
         (2**20, 0.5, SCHEME_C)],
        ids=["lemma-400", "tester-400", "tester-2^20"],
    )
    def test_equals_cell_table_at_every_edge(self, n, eps, C):
        s = build_scheme(n, eps, C)
        b = s.boundaries
        values = np.concatenate([
            b,
            np.nextafter(b, 0.0),
            np.nextafter(b, np.inf),
            [0.0, -0.0, 5e-324, np.nextafter(b[-1], np.inf), 2.0 * b[-1]],
        ])
        table = bucket_indices(s, values)  # many values: the cell table
        assert not bucketing._one_value(values)
        assert np.array_equal(
            table, np.minimum(np.searchsorted(b, values, side="left"), s.k)
        )
        for v, j in zip(values.tolist(), table.tolist()):
            zero_stride = np.ndarray((5,), float, np.float64(v), 0, (0,))
            for one in (np.array([v]), np.float64(v), zero_stride):
                got = bucket_indices(s, one)
                assert got.shape == np.shape(one)
                assert got.dtype == np.int64
                assert (got == j).all()

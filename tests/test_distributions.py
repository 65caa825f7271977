"""Tests for pmf validation, sampling streams, and instance generators."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtest import distributions
from idtest.distributions import (
    AliasSampler,
    _ALIAS_ROW,
    _build_alias_tables,
    FileSampleStream,
    generate_instance,
    advertised_distance,
    l1_distance,
    perturbed_pmf,
    point_mass_pmf,
    uniform_pmf,
    validate_pmf,
    zipf_pmf,
)
from idtest.errors import (
    BadParams,
    DomainMismatch,
    IndexOutOfRange,
    NegativeEntry,
    SampleExhausted,
    SumOutOfTolerance,
)
from idtest.io import read_pmf, write_pmf


class TestValidatePmf:
    def test_uniform_two(self):
        p = validate_pmf([0.5, 0.5])
        assert p.n == 2
        assert p.probs[0] == 0.5

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance) as exc:
            validate_pmf([0.5, 0.6])
        assert exc.value.actual_sum == pytest.approx(1.1)

    def test_negative_entry_no_tolerance(self):
        # even -1e-12 is rejected; the offender's index is reported
        with pytest.raises(NegativeEntry) as exc:
            validate_pmf([1.0, -1e-12, 1e-12])
        assert exc.value.index == 1

    def test_empty_rejected(self):
        with pytest.raises(BadParams):
            validate_pmf([])

    def test_nan_rejected(self):
        with pytest.raises(BadParams):
            validate_pmf([0.5, float("nan"), 0.5])

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=50))
    def test_normalized_weights_validate(self, weights):
        arr = np.asarray(weights)
        p = validate_pmf(arr / arr.sum())
        assert abs(p.probs.sum() - 1.0) <= 1e-9

    def test_immutable(self):
        src = np.array([0.25, 0.75])
        p = validate_pmf(src)
        with pytest.raises(ValueError):
            p.probs[0] = 1.0
        src[0] = 1.0  # the pmf holds a private copy, not the caller's array
        assert p.probs[0] == 0.25


class TestL1Distance:
    def test_identical_is_zero(self):
        p = zipf_pmf(37)
        assert l1_distance(p, p) == 0.0

    def test_uniform_vs_point_mass(self):
        # |0.5 - 1| + |0.5 - 0| = 1.0
        assert l1_distance(uniform_pmf(2), point_mass_pmf(2, 0)) == pytest.approx(1.0)

    def test_uniform_vs_fixed_half(self):
        # independent oracle: direct summation over entries
        n = 40
        p = uniform_pmf(n)
        q = np.zeros(n)
        q[: n // 2] = 2.0 / n
        qv = validate_pmf(q)
        expected = sum(abs(p.probs[i] - qv.probs[i]) for i in range(n))
        assert expected == pytest.approx(1.0)
        assert l1_distance(p, qv) == pytest.approx(expected)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            l1_distance(uniform_pmf(4), uniform_pmf(5))

    @given(st.integers(2, 30), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_range_and_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        a = validate_pmf(rng.dirichlet(np.ones(n)))
        b = validate_pmf(rng.dirichlet(np.ones(n)))
        d = l1_distance(a, b)
        assert 0.0 <= d <= 2.0
        assert d == l1_distance(b, a)


def reference_alias_tables(probs):
    """Vose's construction one numpy scalar at a time, as first written.

    The reference for the vectorized builder: seeded draw streams depend
    on the tables, so the two must agree bit for bit.
    """
    n = probs.shape[0]
    scaled = probs * n
    accept = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    for i in small + large:
        accept[i] = 1.0
        alias[i] = i
    return accept, alias


def assert_table_matches_reference(probs):
    table = _build_alias_tables(probs)
    want_accept, want_alias = reference_alias_tables(probs.copy())
    assert table.dtype.names == ("accept", "alias")
    for got, want in ((table["accept"], want_accept), (table["alias"], want_alias)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# n in [2, 5000] where (1/n) * n rounds below 1, so every entry is "small"
UNIFORM_ROUNDS_LOW = [n for n in range(2, 5001) if (1.0 / n) * n < 1.0]


def _normalized(weights):
    arr = np.asarray(weights, dtype=np.float64)
    return validate_pmf(arr / arr.sum())


alias_pmfs = st.one_of(
    st.integers(2, 5000).map(uniform_pmf),
    st.sampled_from(UNIFORM_ROUNDS_LOW).map(uniform_pmf),
    st.integers(2, 500).flatmap(
        lambda n: st.integers(0, n - 1).map(lambda i: point_mass_pmf(n, i))
    ),
    st.tuples(st.integers(2, 5000), st.sampled_from([0.5, 1.0, 2.0])).map(
        lambda t: zipf_pmf(*t)
    ),
    st.tuples(
        st.integers(50, 5000), st.floats(0.05, 1.9), st.integers(0, 10**6)
    ).map(lambda t: perturbed_pmf(*t)),
    st.lists(st.floats(1e-6, 10.0), min_size=2, max_size=300).map(_normalized),
    st.lists(st.just(0.0) | st.floats(1e-6, 10.0), min_size=2, max_size=300)
    .filter(lambda w: sum(w) > 0)
    .map(_normalized),
)


class TestAliasSampler:
    def test_point_mass_every_draw(self):
        s = AliasSampler(point_mass_pmf(10, 3), seed=99)
        assert np.all(s.draw_many(500) == 3)

    def test_determinism_same_seed(self):
        a = AliasSampler(uniform_pmf(4), seed=1).draw_many(1000)
        b = AliasSampler(uniform_pmf(4), seed=1).draw_many(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = AliasSampler(uniform_pmf(100), seed=1).draw_many(1000)
        b = AliasSampler(uniform_pmf(100), seed=2).draw_many(1000)
        assert not np.array_equal(a, b)

    def test_batch_invariance(self):
        # two sub-generators (index, acceptance) make draw sequences
        # independent of how draws are batched
        s1 = AliasSampler(zipf_pmf(50), seed=5)
        s2 = AliasSampler(zipf_pmf(50), seed=5)
        a = np.concatenate([s1.draw_many(10), s1.draw_many(7), s1.draw_many(3)])
        b = s2.draw_many(20)
        assert np.array_equal(a, b)

    def test_uniform_frequencies_concentrate(self):
        # binomial concentration: per-index freq is 0.01 +/- 20 sigma
        # (sigma ~ 1e-4 at m = 1e6), so [0.008, 0.012] is certain
        s = AliasSampler(uniform_pmf(100), seed=7)
        counts = np.bincount(s.draw_many(10**6), minlength=100)
        freqs = counts / 1e6
        assert freqs.min() >= 0.008 and freqs.max() <= 0.012

    @pytest.mark.parametrize("pmf_fn", [uniform_pmf, zipf_pmf])
    def test_empirical_tv_distance(self, pmf_fn):
        n, m = 100, 10**6
        p = pmf_fn(n)
        s = AliasSampler(p, seed=11)
        emp = np.bincount(s.draw_many(m), minlength=n) / m
        tv = 0.5 * np.abs(emp - p.probs).sum()
        assert tv <= 3.0 * np.sqrt(n / m)

    def test_draw_counter(self):
        s = AliasSampler(uniform_pmf(10), seed=0)
        s.draw_many(10)
        s.draw_many(1)
        s.draw_many(5)
        assert s.draws == 16

    @given(alias_pmfs)
    @settings(max_examples=300, deadline=None)
    def test_tables_match_reference_bit_for_bit(self, p):
        assert_table_matches_reference(p.probs)

    @pytest.mark.parametrize(
        "n", [2**15 - 1, 2**15, 2**15 + 1, 2 * 2**15 + 3]
    )
    @pytest.mark.parametrize(
        "make_pmf",
        [uniform_pmf, zipf_pmf, lambda n: perturbed_pmf(n, 0.5, 3)],
        ids=["uniform", "zipf", "perturbed"],
    )
    def test_tables_match_reference_across_fill_blocks(self, make_pmf, n):
        # no row may be dropped or repeated at sizes that straddle a power of two
        assert_table_matches_reference(make_pmf(n).probs)

    @pytest.mark.parametrize(
        "make_pmf,digest",
        [
            (
                lambda: zipf_pmf(4096),
                "4d5bae656c04f4d855eaa033a89074ea8fd157a3e54b1618f9c5c5301d8c3eee",
            ),
            (
                lambda: perturbed_pmf(4096, 0.5, 3),
                "6099a024ab76039d2869894fd972ce3f6e4b4e64c44aa7d7a6e18ef28be19bbd",
            ),
            # the uniform digests were taken with the full identity table
            (
                lambda: uniform_pmf(4096),
                "a00301a527c80ac4d96cc23f0efc4efb2dcd09dc929f5e336ad7d02e38d47229",
            ),
            (
                lambda: uniform_pmf(UNIFORM_ROUNDS_LOW[0]),
                "d6b76cc1654c0268714b0141a1a5be0e1a6bc0379a28a046cc32428150c6655b",
            ),
        ],
        ids=["zipf-4096", "perturbed-4096", "uniform-4096", "uniform-49"],
    )
    def test_seeded_draws_pinned(self, make_pmf, digest):
        # SHA-256 of the first 10^4 draws as built by the scalar Vose loop
        draws = AliasSampler(make_pmf(), 7).draw_many(10**4)
        assert hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [2, 4096, UNIFORM_ROUNDS_LOW[0], 1000])
    def test_uniform_sampler_holds_no_table(self, n, monkeypatch):
        s = AliasSampler(uniform_pmf(n), seed=0)
        assert s._table.size == 0 and s._table.dtype == _ALIAS_ROW

        def no_build(*_):
            raise AssertionError("spawn rebuilt the table")

        monkeypatch.setattr(distributions, "_build_alias_tables", no_build)
        child = s.spawn(seed=1)
        assert child._table is s._table  # passed along, not None

    @pytest.mark.parametrize("n", [2, 4096, UNIFORM_ROUNDS_LOW[0], 1000])
    def test_uniform_draws_equal_identity_table(self, n):
        p = uniform_pmf(n)
        table = _build_alias_tables(p.probs)
        assert table.size == n

        def pair(seed):
            return AliasSampler(p, seed), AliasSampler(p, seed, _tables=table)

        for a, b in (pair(5), pair(5)[::-1]):
            got = np.concatenate([a.draw_many(10), a.draw_many(7), a.draw_many(3)])
            assert np.array_equal(got, b.draw_many(20))
        a, b = pair(5)
        a.draw_many(4)
        a, b = a.spawn(9), b.spawn(9)
        assert b._table is table
        assert np.array_equal(a.draw_many(10**4), b.draw_many(10**4))

    @pytest.mark.parametrize("n", [2, 4096])
    def test_constant_sampler_holds_no_acceptance_generator(self, n):
        # no generator for coins the identity table never draws; the
        # sub-stream is still spawned, so the draws match the full table's
        p = uniform_pmf(n)
        table = _build_alias_tables(p.probs)
        seeds = [np.random.SeedSequence(5), np.random.SeedSequence(5)]
        a, b = AliasSampler(p, seeds[0]), AliasSampler(p, seeds[1], _tables=table)
        assert seeds[0].n_children_spawned == seeds[1].n_children_spawned == 2
        for child_seed in (None, 9, 10):
            if child_seed is not None:
                a, b = a.spawn(child_seed), b.spawn(child_seed)
            assert a._acc_rng is None
            assert isinstance(b._acc_rng, np.random.Generator)
            assert np.array_equal(a.draw_many(1000), b.draw_many(1000))

    @pytest.mark.parametrize("n", [4096, UNIFORM_ROUNDS_LOW[0]])
    def test_near_uniform_builds_full_table(self, n):
        # two entries moved a few ulps to opposite sides of 1/n: not one-sided
        probs = np.full(n, 1.0 / n)
        for i, toward in ((0, 0.0), (1, 1.0)):
            for _ in range(4):
                probs[i] = np.nextafter(probs[i], toward)
        assert probs[0] * n < 1.0 <= probs[1] * n
        s = AliasSampler(validate_pmf(probs), seed=0)
        assert s._table.size == n
        assert s._table.tobytes() == _build_alias_tables(probs).tobytes()

    def test_spawn_shares_tables_fresh_counter(self):
        s = AliasSampler(zipf_pmf(30), seed=0)
        s.draw_many(5)
        child = s.spawn(seed=1)
        assert child.draws == 0
        assert child.n == 30
        assert child._table is s._table


class TestFileSampleStream:
    def test_replay_and_counter(self):
        st_ = FileSampleStream(np.array([3, 1, 4, 1, 5]), n=6)
        assert st_.draw_many(1).tolist() == [3]
        assert np.array_equal(st_.draw_many(2), [1, 4])
        assert st_.draws == 3
        assert st_.remaining == 2

    def test_exhaustion(self):
        st_ = FileSampleStream(np.array([0, 1]), n=2)
        with pytest.raises(SampleExhausted):
            st_.draw_many(3)

    @pytest.mark.parametrize("samples", [[-1, 3], [2, 7], [0, 5]])
    def test_index_outside_domain_rejected(self, samples):
        # -1 would wrap to n-1 in p.lookup; n and above would raise IndexError
        with pytest.raises(IndexOutOfRange, match=r"outside \[0, 5\)"):
            FileSampleStream(np.array(samples), n=5)


class TestGenerateInstance:
    def test_identical_uniform(self):
        p, q = generate_instance("identical-uniform", 10, seed=0)
        assert np.allclose(p.probs, 0.1)
        assert l1_distance(p, q) == 0.0

    def test_random_half_small(self):
        p, q = generate_instance("random-half", 4, seed=123)
        assert np.sort(q.probs)[::-1][:2] == pytest.approx([0.5, 0.5])
        assert np.count_nonzero(q.probs) == 2
        assert l1_distance(p, q) == pytest.approx(1.0)

    def test_eps_perturbed_exact_distance(self):
        p, q = generate_instance("eps-perturbed", 10, seed=1, eps=0.5)
        assert abs(l1_distance(p, q) - 0.5) <= 1e-12

    def test_zipf_pair_identical(self):
        p, q = generate_instance("zipf-pair", 20, seed=0, a=1.5)
        assert l1_distance(p, q) == 0.0
        assert p.probs[0] > p.probs[-1]

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("identical-uniform", {}),
            ("random-half", {}),
            ("eps-perturbed", {"eps": 0.3}),
            ("eps-perturbed", {"eps": 1.3}),
            ("zipf-pair", {}),
        ],
    )
    def test_advertised_distance_confirmed_by_oracle(self, kind, params):
        for seed in (0, 7, 91):
            p, q = generate_instance(kind, 100, seed=seed, **params)
            want = advertised_distance(kind, **params)
            assert abs(l1_distance(p, q) - want) <= 1e-9

    def test_seeded_determinism(self):
        a = generate_instance("random-half", 50, seed=5)[1]
        b = generate_instance("random-half", 50, seed=5)[1]
        assert np.array_equal(a.probs, b.probs)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate_instance("random-half", 7, seed=0)  # odd n
        with pytest.raises(BadParams):
            generate_instance("eps-perturbed", 10, seed=0)  # missing eps
        with pytest.raises(BadParams):
            generate_instance("no-such-kind", 10, seed=0)
        with pytest.raises(BadParams):
            generate_instance("identical-uniform", 1, seed=0)


class TestConstantPmf:
    """A pmf whose entries are all equal is noted as constant, exactly."""

    @pytest.mark.parametrize("n", [2, 3, 400, 1000, 2**20])
    def test_set_for_uniform_and_read_back(self, n, tmp_path):
        p = uniform_pmf(n)
        assert p.constant is not None
        assert np.float64(p.constant).tobytes() == p.probs[:1].tobytes()
        for binary in (True, False):
            path = tmp_path / f"u{int(binary)}.pmf"
            write_pmf(path, p, binary=binary)
            back = read_pmf(path)
            assert np.float64(back.constant).tobytes() == p.probs[:1].tobytes()

    def test_none_unless_every_entry_is_equal(self):
        off = np.full(1000, 1.0 / 1000)
        off[7] = np.nextafter(off[7], 1.0)  # one ulp: still a valid pmf
        signed_zero = np.array([-0.0, 0.5, 0.5])
        for p in (
            zipf_pmf(1000),
            perturbed_pmf(1000, 0.5, seed=1),
            validate_pmf(off),
            validate_pmf(signed_zero),
        ):
            assert p.constant is None

    def test_error_precedence(self):
        with pytest.raises(BadParams, match="finite"):
            validate_pmf([0.5, float("nan"), -1.0, 1.5])
        with pytest.raises(BadParams, match="finite"):
            validate_pmf([-float("inf"), 0.5, 0.5])
        with pytest.raises(NegativeEntry) as exc:
            validate_pmf([1.0, -1e-12, 1e-12])
        assert exc.value.index == 1

    @pytest.mark.parametrize(
        "idx",
        [
            np.empty(0, dtype=np.int64),
            np.array([0, 5, 5, 399], dtype=np.int64),
            np.arange(12, dtype=np.int64).reshape(3, 4) * 33,
        ],
    )
    def test_lookup_is_bit_equal_to_the_gather(self, idx):
        p = uniform_pmf(400)
        got, want = p.lookup(idx), p.probs[idx]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_alias_sampler_skips_the_scan(self, monkeypatch):
        p = uniform_pmf(1000)

        def no_build(probs):
            raise AssertionError("a constant pmf built an alias table")

        monkeypatch.setattr(distributions, "_build_alias_tables", no_build)
        fast = AliasSampler(p, 3)
        monkeypatch.undo()
        slow = AliasSampler(dataclasses.replace(p, constant=None), 3)
        assert slow._table.size == 1000  # the full identity table
        assert np.array_equal(fast.draw_many(5000), slow.draw_many(5000))

"""Known distributions, sample access to unknown ones, and exact oracles.

The known distribution p is a dense probability vector with O(1) indexed
queries. The unknown distribution q is only ever reached through a
SampleStream, which yields i.i.d. indices and never exposes probabilities.
Synthetic q sources are backed by an alias table so a draw is O(1) and the
harness cost never masks the tester cost. A uniform q (every entry on one
side of 1/n) needs no table: its draw is the uniform index alone.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    DomainMismatch,
    IndexOutOfRange,
    NegativeEntry,
    SampleExhausted,
    SumOutOfTolerance,
)
from .rng import TAG_INSTANCE, seed_sequence

# Sum tolerance: n up to ~1e7 accumulates at most ~n * machine-epsilon
# of rounding in a well-formed pmf, which stays well below 1e-9.
PMF_SUM_TOL = 1e-9

INSTANCE_KINDS = ("identical-uniform", "random-half", "eps-perturbed", "zipf-pair")


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A validated pmf over the domain [n] (stored 0-indexed)."""

    probs: np.ndarray

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized query: p_i for each index in `indices`."""
        return self.probs[indices]


def validate_pmf(probs) -> ProbabilityVector:
    """Validate a sequence of reals as a pmf.

    Raises NegativeEntry for the first negative entry (exact sign check,
    no tolerance) and SumOutOfTolerance when the total is not 1 +/- 1e-9.
    The pmf keeps a private read-only copy of the values.
    """
    return _checked_pmf(np.array(probs, dtype=np.float64))


def _checked_pmf(arr: np.ndarray) -> ProbabilityVector:
    """validate_pmf without the copy, for a float64 array no code can write."""
    if arr.ndim != 1 or arr.size == 0:
        raise BadParams("pmf must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise BadParams("pmf entries must be finite")
    neg = np.nonzero(arr < 0.0)[0]
    if neg.size:
        i = int(neg[0])
        raise NegativeEntry(i, float(arr[i]))
    total = float(arr.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise SumOutOfTolerance(total, PMF_SUM_TOL)
    arr.flags.writeable = False
    return ProbabilityVector(arr)


def l1_distance(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Exact l1 distance sum_i |p_i - q_i|, in [0, 2].

    O(n) oracle; used by the harness and the `oracle` CLI command only,
    never by the tester itself.
    """
    if p.n != q.n:
        raise DomainMismatch(f"domain sizes differ: {p.n} vs {q.n}")
    return float(np.abs(p.probs - q.probs).sum())


class SampleStream(ABC):
    """I.i.d. sample access to an unknown distribution on [n].

    Single-consumer: draws mutate the counter. Identical seeds produce
    identical draw sequences regardless of how draws are batched.
    """

    n: int

    def __init__(self):
        self._draws = 0

    @property
    def draws(self) -> int:
        """Number of samples drawn so far."""
        return self._draws

    @abstractmethod
    def draw_many(self, m: int) -> np.ndarray:
        """Draw m independent samples (0-indexed)."""


# One alias-table row: a draw of index i reads accept[i] and alias[i] from
# the same 16 bytes, so it costs one gather and one cache line, not two.
_ALIAS_ROW = np.dtype([("accept", "<f8"), ("alias", "<i8")])

# Rows written per block by _build_alias_tables and classified per block by
# _one_sided: a block of 2^15 rows (512 KB) and its temporaries stay in cache.
_FILL_BLOCK = 2**15

# The table of a pmf whose entries all fall on one side of 1/n. Its full
# form is the identity table (accept 1.0, alias i), under which every draw
# keeps its index; zero rows stand for it, as a real table has n >= 1 rows.
_IDENTITY = np.empty(0, dtype=_ALIAS_ROW)


def _one_sided(probs: np.ndarray) -> bool:
    """True when probs * n < 1 holds for every entry or for none.

    These pmfs, the uniform one whichever way 1/n rounds, have the identity
    as alias table. The count runs in blocks of _FILL_BLOCK with no O(n)
    temporary and stops at the first block that shows both kinds, so a
    non-uniform pmf usually costs one block.
    """
    n = probs.shape[0]
    n_small = 0
    for lo in range(0, n, _FILL_BLOCK):
        hi = min(lo + _FILL_BLOCK, n)
        n_small += int(np.count_nonzero(probs[lo:hi] * n < 1.0))
        if 0 < n_small < hi:
            return False
    return True


def _build_alias_tables(probs: np.ndarray) -> np.ndarray:
    """Vose alias construction, O(n), as one array of _ALIAS_ROW rows.

    Row i is (accept[i], alias[i]): a draw of i keeps i when its
    acceptance coin falls below accept[i] and returns alias[i] otherwise.
    Blocks of _FILL_BLOCK rows are first written as the identity (accept
    1.0, alias to itself), with no O(n) temporary, and a one-sided pmf
    (see _one_sided) keeps that table. Otherwise the small (scaled =
    probs * n < 1) and large entries are paired: the Python pairing loop
    runs on plain lists and floats, and its results are written back with
    one fancy assignment per column. An entry left over when either side
    runs dry is 1.0 up to rounding and keeps its initial row.
    """
    n = probs.shape[0]
    table = np.empty(n, dtype=_ALIAS_ROW)
    accept, alias = table["accept"], table["alias"]
    for lo in range(0, n, _FILL_BLOCK):
        hi = min(lo + _FILL_BLOCK, n)
        accept[lo:hi] = 1.0
        alias[lo:hi] = np.arange(lo, hi)
    if _one_sided(probs):
        return table
    scaled = probs * n
    is_small = scaled < 1.0
    small = np.flatnonzero(is_small).tolist()
    large = np.flatnonzero(~is_small).tolist()
    sc = scaled.tolist()
    paired, paired_alias = [], []
    while small and large:
        s = small.pop()
        g = large.pop()
        paired.append(s)
        paired_alias.append(g)
        sc[g] = (sc[g] + sc[s]) - 1.0
        if sc[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # A paired entry has left both lists, so sc[s] still holds the value it
    # had when it was paired.
    idx = np.asarray(paired, dtype=np.int64)
    accept[idx] = np.asarray(sc)[idx]
    alias[idx] = paired_alias
    return table


class AliasSampler(SampleStream):
    """O(1)-per-draw sampler for a known pmf (synthetic q source).

    Table construction is O(n); that is harness setup, not tester work.
    The table is one array of _ALIAS_ROW rows (see _build_alias_tables), so
    a batch of draws makes a single gather of 16-byte rows, where separate
    accept and alias arrays would take two gathers and, at large n, two
    cache and TLB misses per draw. Index and acceptance randomness come
    from two independent sub-streams of the seed so that draw sequences
    are invariant under batching.

    A one-sided pmf (see _one_sided), such as the uniform one, would build
    the identity table, under which every acceptance coin falls below 1.0
    and every draw keeps its index. Such a sampler holds the zero-row
    _IDENTITY instead of n rows and returns the index draws alone: the
    same draws, bit for bit, without the table, the coins or the gather.
    """

    def __init__(self, pmf: ProbabilityVector, seed, _tables=None):
        super().__init__()
        self.n = pmf.n
        self._pmf = pmf
        if _tables is None:
            probs = pmf.probs
            _tables = _IDENTITY if _one_sided(probs) else _build_alias_tables(probs)
        self._table = _tables
        ss = seed if isinstance(seed, np.random.SeedSequence) else seed_sequence(seed)
        idx_ss, acc_ss = ss.spawn(2)
        self._idx_rng = np.random.default_rng(idx_ss)
        self._acc_rng = np.random.default_rng(acc_ss)

    def spawn(self, seed) -> "AliasSampler":
        """Fresh stream over the same pmf, sharing the O(n) table."""
        return AliasSampler(self._pmf, seed, _tables=self._table)

    def draw_many(self, m: int) -> np.ndarray:
        if m < 0:
            raise BadParams("draw count must be non-negative")
        # in place where the values allow: each m-sized temporary saved is
        # memory a large batch need not fault in
        u = self._idx_rng.random(m)
        u *= self.n
        idx = u.astype(np.int64)
        np.minimum(idx, self.n - 1, out=idx)
        self._draws += m
        if not self._table.size:  # identity table: every draw keeps idx
            return idx
        v = self._acc_rng.random(out=u)  # u is spent; reuse its buffer
        rows = self._table[idx]
        return np.where(v < rows["accept"], idx, rows["alias"])


class FileSampleStream(SampleStream):
    """Replays a finite recorded sample sequence (0-indexed internally)."""

    def __init__(self, samples: np.ndarray, n: int):
        super().__init__()
        self.n = int(n)
        self._samples = np.asarray(samples, dtype=np.int64)
        bad = np.flatnonzero((self._samples < 0) | (self._samples >= self.n))
        if bad.size:
            i = int(bad[0])
            raise IndexOutOfRange(
                f"sample {i} is {int(self._samples[i])}, outside [0, {self.n})"
            )
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return int(self._samples.size - self._cursor)

    def draw_many(self, m: int) -> np.ndarray:
        if m < 0:
            raise BadParams("draw count must be non-negative")
        if self._cursor + m > self._samples.size:
            raise SampleExhausted(
                f"needed {m} samples but only {self.remaining} remain"
            )
        out = self._samples[self._cursor : self._cursor + m]
        self._cursor += m
        self._draws += m
        return out


def uniform_pmf(n: int) -> ProbabilityVector:
    return validate_pmf(np.full(n, 1.0 / n))


def zipf_pmf(n: int, a: float = 1.0) -> ProbabilityVector:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** a
    return validate_pmf(w / w.sum())


def point_mass_pmf(n: int, index: int) -> ProbabilityVector:
    arr = np.zeros(n)
    arr[index] = 1.0
    return validate_pmf(arr)


def perturbed_pmf(n: int, eps: float, seed: int) -> ProbabilityVector:
    """Uniform pmf with l1-mass exactly eps moved between two index sets.

    A seeded permutation picks the loser set; each full loser drops to 0,
    at most one partial loser absorbs the remainder, and the gainers share
    eps/2 equally, so ||uniform - result||_1 = eps up to float rounding.
    """
    if not 0.0 < eps < 2.0:
        raise BadParams("eps-perturbed requires 0 < eps < 2")
    unit = 1.0 / n
    half = eps / 2.0
    m_full = int(half / unit)  # full losers, each losing exactly 1/n
    r = half - m_full * unit
    n_losers = m_full + (1 if r > 0 else 0)
    if n_losers + 1 > n:
        raise BadParams(f"eps={eps} needs more loser indices than n={n} allows")
    order = np.random.default_rng(
        seed_sequence(seed, TAG_INSTANCE)
    ).permutation(n)
    q = np.full(n, unit)
    q[order[:m_full]] = 0.0
    if r > 0:
        # max() guards the r ~ unit rounding edge from going negative
        q[order[m_full]] = max(unit - r, 0.0)
    gainers = order[n_losers:]
    q[gainers] += half / gainers.size
    return validate_pmf(q)


def generate_instance(
    kind: str, n: int, seed: int, **params
) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Build a (p, q) pair with a known exact l1 distance.

    Kinds:
      identical-uniform  p = q = uniform on [n]          distance 0
      random-half        p uniform, q uniform on a seeded
                         random half of [n]              distance 1
      eps-perturbed      p uniform, q = perturbed_pmf    distance params["eps"]
      zipf-pair          p = q = zipf(params.get("a"))   distance 0
    """
    if n < 2:
        raise BadParams("n must be at least 2")
    if kind == "identical-uniform":
        p = uniform_pmf(n)
        return p, p
    if kind == "random-half":
        if n % 2 != 0:
            raise BadParams("random-half requires even n")
        p = uniform_pmf(n)
        rng = np.random.default_rng(seed_sequence(seed, TAG_INSTANCE))
        chosen = rng.permutation(n)[: n // 2]
        q = np.zeros(n)
        q[chosen] = 2.0 / n
        return p, validate_pmf(q)
    if kind == "eps-perturbed":
        if "eps" not in params:
            raise BadParams("eps-perturbed requires an eps parameter")
        return uniform_pmf(n), perturbed_pmf(n, float(params["eps"]), seed)
    if kind == "zipf-pair":
        p = zipf_pmf(n, float(params.get("a", 1.0)))
        return p, p
    raise BadParams(f"unknown instance kind {kind!r}; choose from {INSTANCE_KINDS}")


def advertised_distance(kind: str, **params) -> float:
    """The exact l1 distance a generated instance is constructed to have."""
    if kind in ("identical-uniform", "zipf-pair"):
        return 0.0
    if kind == "random-half":
        return 1.0
    if kind == "eps-perturbed":
        return float(params["eps"])
    raise BadParams(f"unknown instance kind {kind!r}")

"""Implicit partition of [n] into probability buckets R_0 ... R_k.

Bucket membership is a pure function of the known probability p_i, so the
partition is never materialized. Bucket 0 holds every i with
p_i <= eps/(2n); bucket j > 0 holds p_i in
(base*(1+eps')^(j-1), base*(1+eps')^j] with base = eps/(2n) and
eps' = eps/C. Lower boundaries are strict, upper boundaries inclusive, and
the implementation evaluates membership against precomputed boundary
values so the convention holds bit-exactly.

Lookup reads the bucket off the float's bits. For non-negative doubles the
int64 bit pattern is monotone in the value, so `bits >> shift` cuts the line
into cells, each narrower than 2^-B of its own lowest value, with
2^-B <= eps'/2. Consecutive boundaries differ by the ratio 1 + eps', so a
cell holds at most one of them: every value in a cell lies in the bucket of
the cell's lowest value or in the next one, and one comparison with that
bucket's upper boundary decides. The cell table covers the cells from
boundaries[0] to boundaries[k], O(k) entries; values outside it (negative
numbers, -0.0, subnormals, anything above boundaries[k]) are clamped to an
end cell and the same comparison places them.

Beside each cell's bucket the table stores that bucket's upper boundary,
+inf in the top cell so that nothing climbs past k. A lookup is then a
shift, a clamp, two gathers that do not depend on each other, and one
comparison. The cells are computed in the output array and replaced in
place by their buckets, so a lookup allocates one work array beside its
output. Inputs run in blocks of _BLOCK = 2^16 values that reuse one
512 KiB work array, so the temporaries stay O(_BLOCK) however many values
are looked up. An input of one value, a size-1 array or a zero-stride one
such as a constant pmf's lookup, skips the table: one scalar search of the
boundaries, the contract itself, gives its bucket, which is filled in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distributions import ProbabilityVector
from .errors import BadParams, DomainMismatch


@dataclass(frozen=True, eq=False)
class BucketScheme:
    """Bucket boundaries for a domain size n and distance parameter eps.

    k satisfies k = ceil(log_{1+eps'}(2n/eps)) (bumped by one in the rare
    float shortfall case), so base*(1+eps')^k >= 1 and every probability
    in [0, 1] lands in some bucket. j_star is the bucket an element of
    probability 1/sqrt(n) would occupy: buckets >= j_star are "heavy"
    (learnable by coupon collection), buckets below are "light"
    (estimable by uniform probing).
    """

    n: int
    eps_prime: float
    k: int
    j_star: int
    # boundaries[j] = base * (1+eps')**j, the inclusive upper bound of R_j
    boundaries: np.ndarray = field(repr=False)
    # float64 bits >> cell_shift is a value's cell; cell_bucket[c - cell_lo]
    # is the bucket of the lowest value of cell c, and cell_upper[c - cell_lo]
    # that bucket's upper boundary (+inf in the top cell)
    cell_shift: int = field(repr=False)
    cell_lo: int = field(repr=False)
    cell_bucket: np.ndarray = field(repr=False)
    cell_upper: np.ndarray = field(repr=False)

    @property
    def j_star_degenerate(self) -> bool:
        """True when 1/sqrt(n) fell in the bottom or top bucket.

        Flagged in diagnostics: with such parameters the heavy/light split
        is vacuous on one side.
        """
        return self.j_star == 0 or self.j_star == self.k


# Largest bucket count build_scheme accepts. Its arrays take O(k) memory
# (the cell table up to about 6k entries); the largest scheme in use, n = 10^7,
# eps = 0.01, C = 200, has k = 428,339.
MAX_K = 10**6

# Largest work budget m1 + s1 + s2 + S that tester.plan_sizes accepts.
# A run holds its samples and queried indices, about 17-21 bytes per unit of
# budget at peak RSS beyond the interpreter and the pmf, so this bounds a run
# near 210 MB plus its pmf. Measured on uniform p = q (`idtest test --q self
# --seed 1`): 9.2 million at n = 9, eps = 0.0015 peaked 152 MB over the 30 MB
# of an idle interpreter, 8.5 million at n = 2^22, eps = 0.11 peaked 169 MB
# over that and the 32 MB pmf. The largest plan in use, n = 2^20 at
# eps = 0.5 and the default constants, is 534,331.
MAX_BUDGET = 10**7


def build_scheme(n: int, eps: float, C: float) -> BucketScheme:
    """Build the bucket scheme; k is O((C/eps) * log(n/eps)).

    Parameters needing more than MAX_K buckets raise BadParams before any
    array is allocated.

    Schemes are cached on (n, eps, C): equal arguments return the same
    object, whose arrays are read-only.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise BadParams("n must be an integer >= 2")
    if not 0.0 < eps <= 2.0:
        raise BadParams("eps must be in (0, 2]")
    if not C >= 1.0:
        raise BadParams("C must be >= 1")
    # k = ceil(log(2n/eps) / log1p(eps/C)), compared without dividing so
    # that C = inf (eps' = 0) is caught too
    if math.log(2.0 * n / eps) > MAX_K * math.log1p(eps / C):
        raise BadParams(
            f"n={n}, eps={eps}, C={C} need more than {MAX_K} buckets"
        )
    return _build_scheme(int(n), float(eps), float(C))


@lru_cache(maxsize=8)
def _build_scheme(n: int, eps: float, C: float) -> BucketScheme:
    eps_prime = eps / C
    base = eps / (2.0 * n)
    k = math.ceil(math.log(2.0 * n / eps) / math.log1p(eps_prime))
    boundaries = base * np.power(1.0 + eps_prime, np.arange(k + 1, dtype=np.float64))
    if boundaries[-1] < 1.0:
        # float shortfall of the ceiling; one more bucket restores coverage
        k += 1
        boundaries = np.append(boundaries, base * (1.0 + eps_prime) ** k)
    boundaries.flags.writeable = False
    j_star = int(np.searchsorted(boundaries, 1.0 / math.sqrt(n), side="left"))
    j_star = min(max(j_star, 0), k)
    # a cell of 2^shift ulps, shift = 52 - B with B = ceil(log2(1/eps')) + 1,
    # is at most 2^-B <= eps'/2 of its lowest value wide: one boundary at most
    shift = 52 - (math.ceil(math.log2(1.0 / eps_prime)) + 1)
    lo, hi = (boundaries[[0, -1]].view(np.int64) >> shift).tolist()
    lowest = (np.arange(lo, hi + 1, dtype=np.int64) << shift).view(np.float64)
    cell_bucket = np.searchsorted(boundaries, lowest, side="left")
    # only the top cell can hold values above boundaries[k]; every other
    # cell lies below the top cell's lowest value, itself <= boundaries[k]
    cell_upper = boundaries[cell_bucket]
    cell_upper[-1] = np.inf
    cell_bucket.flags.writeable = False
    cell_upper.flags.writeable = False
    return BucketScheme(
        n=n,
        eps_prime=eps_prime,
        k=int(k),
        j_star=j_star,
        boundaries=boundaries,
        cell_shift=shift,
        cell_lo=lo,
        cell_bucket=cell_bucket,
        cell_upper=cell_upper,
    )


_BLOCK = 1 << 16  # lookup block: temporaries stay O(_BLOCK), not O(len(probs))


def _one_value(arr: np.ndarray) -> bool:
    """True for a zero-stride array of more than one element (a constant
    pmf's lookup): it holds one value."""
    return arr.size > 1 and not any(arr.strides)


def bucket_indices(scheme: BucketScheme, probs) -> np.ndarray:
    """Vectorized bucket lookup: the first j with prob <= boundaries[j].

    Equal to min(searchsorted(boundaries, probs, "left"), k) for every
    non-NaN double. A value's cell (float64 bits >> cell_shift, clamped to
    the table) gives the bucket j of the cell's lowest value; the cell holds
    at most one boundary, so the answer is j + (prob > cell_upper), where
    cell_upper is boundaries[j], or +inf in the top cell so that values
    above the top boundary stay at k. An input of one value (size 1, or
    zero-stride) is answered by that searchsorted itself, on the value once.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.size == 1 or _one_value(arr):
        # one value: a scalar search costs less than the table's dozen calls
        j = min(int(scheme.boundaries.searchsorted(arr.item(0))), scheme.k)
        return np.full(arr.shape, j, dtype=np.int64)
    flat = arr.reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    upper = np.empty(min(flat.size, _BLOCK))
    for a in range(0, flat.size, _BLOCK):
        x = flat[a : a + _BLOCK]
        # the cells are computed in out and each one is replaced by its
        # bucket by the last gather, which passes the cells as take's
        # indices and as its output. That relies on numpy behaviour its
        # documentation does not promise: take reads index i before it
        # writes element i, and it checks out for overlap with the table
        # only, not with the indices (checked on numpy 2.4.6).
        # test_cell_table_equals_clipped_searchsorted guards it; re-run it
        # after a numpy upgrade.
        cell = out[a : a + _BLOCK]
        np.right_shift(x.view(np.int64), scheme.cell_shift, out=cell)
        cell -= scheme.cell_lo
        np.maximum(cell, 0, out=cell)
        np.minimum(cell, scheme.cell_bucket.size - 1, out=cell)
        # the clamped cells are in range, so "wrap" never wraps; it skips the
        # per-element bound handling of "clip" and the buffered copy that
        # "raise" makes with out=
        u = scheme.cell_upper.take(cell, mode="wrap", out=upper[: x.size])
        scheme.cell_bucket.take(cell, mode="wrap", out=cell)
        cell += x > u
    return out.reshape(arr.shape)


def exact_bucket_masses(
    scheme: BucketScheme,
    p: ProbabilityVector,
    weight_pmf: ProbabilityVector | None = None,
) -> np.ndarray:
    """O(n) oracle: total mass per bucket.

    Entry j sums p_i over all i with bucket(p_i) = j. When weight_pmf is
    given, its entries are summed instead, still grouped by p's buckets;
    this yields the unknown-side bucket masses for a synthetic q. Harness
    and oracle use only; the tester never calls this.
    """
    if p.n != scheme.n:
        raise DomainMismatch(f"pmf has n={p.n}, scheme has n={scheme.n}")
    weights = p.probs if weight_pmf is None else weight_pmf.probs
    if weights.shape[0] != scheme.n:
        raise DomainMismatch("weight pmf does not match the scheme domain")
    # the definition itself, independent of the cell table of bucket_indices
    buckets = np.minimum(
        np.searchsorted(scheme.boundaries, p.probs, side="left"), scheme.k
    )
    return np.bincount(buckets, weights=weights, minlength=scheme.k + 1)

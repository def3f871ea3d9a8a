"""Minimum-cost assignment of magnitudes to probability-ranked types.

The central fact this module implements and tests against an exhaustive
oracle: over all ways of drawing V magnitudes from a given multiset, the
mean cost sum(p_i * g(l_i)) is minimized exactly by the V smallest
magnitudes placed in nondecreasing order, and this holds simultaneously
for every strictly increasing cost transform g.  Correlation diagnostics
(concordant/discordant pair counts, Kendall tau, Pearson r) quantify how
far a given assignment is from that optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankedDistribution",
    "MagnitudeMultiset",
    "CostFunction",
    "Assignment",
    "mean_cost",
    "optimal_assignment",
    "unconstrained_optimum",
    "brute_force_minimum",
    "pair_counts",
    "kendall_tau",
    "pearson_r",
    "is_optimal",
]

# Inputs whose total is further than this from 1 are rejected instead of
# being silently rescaled.
PROBABILITY_SUM_TOL = 1e-9

# Hard caps for the exhaustive search; |pool|! / (|pool| - V)! orderings.
BRUTE_FORCE_MAX_V = 8
BRUTE_FORCE_MAX_POOL = 10


def _finite(x, what: str) -> float:
    """x as a float; ValueError "<what> must be finite" if it is nan or +-inf."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite")
    return x


def _frozen_vector(values, what: str, dtype=float) -> np.ndarray:
    """A fresh read-only 1-D copy of `values` in `dtype`: the one constructor
    of every array a value class holds.  ValueError naming `what` unless the
    input is nonempty, 1-D, finite and within the dtype's range, and for an
    integer dtype unless the cast keeps every value."""
    try:
        with np.errstate(invalid="ignore"):  # a float cast to garbage fails the test below
            arr = np.array(values, dtype=dtype, copy=True)
    except (OverflowError, ValueError):  # a list holding nan, inf or a value past the range
        arr = None
    if arr is None or arr.dtype.kind == "i" and not np.array_equal(arr, values):
        raise ValueError(f"{what} must {_cast_fault(values, dtype)}")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


def _cast_fault(values, dtype) -> str:
    """Why `values` has no exact copy in `dtype`: "be finite", "be integers" or
    "fit in <dtype>", in that order.  The float copy only names the fault."""
    try:
        f = np.array(values, dtype=float)
    except OverflowError:  # an int past the float range
        return f"fit in {np.dtype(dtype)}"
    if not np.all(np.isfinite(f)):
        return "be finite"
    if np.any(f != np.floor(f)):
        return "be integers"
    return f"fit in {np.dtype(dtype)}"


@dataclass(frozen=True, eq=False)
class RankedDistribution:
    """Probability vector over ranks 1..V, sorted nonincreasingly.

    Totals off from 1 by at most 1e-9 are rescaled; anything worse is an
    error.  The stored array is read-only, so instances are safe to share.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = _frozen_vector(self.probs, "probs")
        if np.any(p < 0):
            raise ValueError("probs must be nonnegative")
        if np.any(p[:-1] < p[1:]):
            raise ValueError("probs must be sorted nonincreasingly (rank 1 first)")
        total = float(p.sum())
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(
                f"probs sum to {total!r}; must be 1 within {PROBABILITY_SUM_TOL}"
            )
        object.__setattr__(self, "probs", _frozen_vector(p / total, "probs"))

    @classmethod
    def from_weights(cls, weights) -> "RankedDistribution":
        """Build a distribution from nonnegative weights: sort descending, normalize."""
        w = _frozen_vector(weights, "weights")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        return cls(np.sort(w)[::-1] / total)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True, eq=False)
class MagnitudeMultiset:
    """Multiset of candidate magnitudes (string lengths, durations, ...).

    Values are stored sorted ascending; multiplicity matters, order does not.
    Zero magnitudes model the degenerate "empty string" regime and must be
    enabled explicitly.
    """

    values: np.ndarray
    allow_zero: bool = False

    def __post_init__(self):
        v = _frozen_vector(self.values, "magnitudes")
        lower_ok = np.all(v >= 0) if self.allow_zero else np.all(v > 0)
        if not lower_ok:
            bound = ">= 0 (allow_zero)" if self.allow_zero else "> 0"
            raise ValueError(f"magnitudes must be {bound}")
        object.__setattr__(self, "values", _frozen_vector(np.sort(v), "magnitudes"))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class CostFunction:
    """Strictly increasing transform of a magnitude into an energetic cost.

    Kinds: "identity" (g(x) = x), "power" (g(x) = x**k, k > 0) and
    "exponential" (g(x) = base**x, base > 1).  All are strictly increasing
    on the positive reals, which is the property the optimality result needs.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind == "identity":
            if self.param is not None:
                raise ValueError("identity cost takes no parameter")
        elif self.kind == "power":
            if self.param is None or _finite(self.param, "power cost exponent") <= 0:
                raise ValueError("power cost needs exponent k > 0")
        elif self.kind == "exponential":
            if self.param is None or _finite(self.param, "exponential cost base") <= 1:
                raise ValueError("exponential cost needs base > 1")
        else:
            raise ValueError(f"unknown cost kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "CostFunction":
        return cls("identity")

    @classmethod
    def power(cls, k: float) -> "CostFunction":
        return cls("power", float(k))

    @classmethod
    def exponential(cls, base: float) -> "CostFunction":
        return cls("exponential", float(base))

    def __call__(self, x):
        if self.kind == "identity":
            return np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        if self.kind == "power":
            return np.power(x, self.param) if np.ndim(x) else float(x) ** self.param
        return np.power(self.param, x) if np.ndim(x) else self.param ** float(x)


@dataclass(frozen=True, eq=False)
class Assignment:
    """Magnitudes l_1..l_V assigned to ranks (index 0 holds the top rank's)."""

    magnitudes: np.ndarray

    def __post_init__(self):
        m = _frozen_vector(self.magnitudes, "magnitudes")
        if np.any(m < 0):
            raise ValueError("assigned magnitudes must be nonnegative")
        object.__setattr__(self, "magnitudes", m)

    def __len__(self) -> int:
        return int(self.magnitudes.size)

    def __iter__(self):
        return iter(self.magnitudes.tolist())


def _check_sizes(dist: RankedDistribution, asg: Assignment) -> None:
    if len(asg) != dist.size:
        raise ValueError(
            f"distribution has {dist.size} ranks but assignment has {len(asg)} magnitudes"
        )


def mean_cost(dist: RankedDistribution, asg: Assignment, g: CostFunction) -> float:
    """Mean energetic cost sum(p_i * g(l_i)).

    With the identity transform and integer lengths this is the familiar
    mean code length.
    """
    _check_sizes(dist, asg)
    return float(np.einsum("i,i", dist.probs, g(asg.magnitudes)))


def optimal_assignment(dist: RankedDistribution, ms: MagnitudeMultiset) -> Assignment:
    """The V smallest magnitudes of the pool, in nondecreasing order.

    This single assignment minimizes the mean cost for *every* strictly
    increasing cost transform at once.  Ties among equal magnitudes make
    other permutations of the tied values co-optimal; the stable sorted
    pick is the canonical representative.
    """
    V = dist.size
    if ms.size < V:
        raise ValueError(f"pool of {ms.size} magnitudes cannot cover {V} ranks")
    return Assignment(ms.values[:V])


def unconstrained_optimum(dist: RankedDistribution, l_min: float = 0.0) -> Assignment:
    """With no pool constraint every rank takes the minimum magnitude l_min."""
    if l_min < 0:
        raise ValueError("l_min must be nonnegative")
    return Assignment(np.full(dist.size, float(l_min)))


def brute_force_minimum(
    dist: RankedDistribution, ms: MagnitudeMultiset, g: CostFunction
) -> float:
    """Exact minimum mean cost over all ordered selections of V pool elements.

    Exhaustive oracle for `optimal_assignment`; guarded to V <= 8 and pool
    size <= 10 because the search space is |pool|!/(|pool|-V)! orderings.
    """
    V = dist.size
    if V > BRUTE_FORCE_MAX_V or ms.size > BRUTE_FORCE_MAX_POOL:
        raise ValueError(
            f"exhaustive search guard exceeded: need V <= {BRUTE_FORCE_MAX_V} "
            f"and pool <= {BRUTE_FORCE_MAX_POOL}"
        )
    if ms.size < V:
        raise ValueError(f"pool of {ms.size} magnitudes cannot cover {V} ranks")
    best = math.inf
    perms = itertools.permutations(ms.values.tolist(), V)
    while chunk := list(itertools.islice(perms, 1 << 16)):
        best = min(best, float(np.einsum("ij,j", g(np.array(chunk)), dist.probs).min()))
    return best


def _tied_pairs(run_lengths: np.ndarray) -> int:
    """Pairs inside runs of the given lengths: the sum of C(k, 2)."""
    k = run_lengths.astype(np.int64)
    return int(np.einsum("i,i", k, k - 1)) // 2


def _stable_order(runs: np.ndarray, codes: np.ndarray, bits: int) -> np.ndarray:
    """Stable argsort by (run, code), for codes below 2**bits.  The key goes
    to its narrowest unsigned type, because numpy sorts 8- and 16-bit keys
    by radix."""
    key = (runs << bits) | codes
    return np.argsort(key.astype(np.min_scalar_type(int(key.max()))), kind="stable")


def _cross_run_inversions(runs: np.ndarray, codes: np.ndarray, weights: np.ndarray,
                          bits: int) -> int:
    """Weighted pairs i < j with codes[i] > codes[j], each counted
    weights[i] * weights[j] times, for integer codes below 2**bits.

    `runs` numbers consecutive stretches 0, 1, 2, ... in order, and the
    codes never decrease within a stretch.  Bottom-up merge sort of the
    runs: each level merges runs 2k and 2k + 1 with one stable sort by
    (k, code).  Item i stands for weights[i] equal elements, starting at
    the expanded position sum(weights[:i]).  An item of the right run moves
    left past exactly the left-run items it is inverted with, and no item
    of the left run moves left, so the level's weighted inversions are the
    sum of weight times how far each item's expanded start moved left.
    """
    start = np.cumsum(weights) - weights
    total = 0
    while runs[-1] > 0:
        pair = runs >> 1
        src = _stable_order(pair, codes, bits)
        weights = weights[src]
        moved = start[src]
        start = np.cumsum(weights)
        start -= weights
        moved -= start
        np.maximum(moved, 0, out=moved)  # a left-run item moves right or stays
        total += int(np.einsum("i,i", moved, weights))
        codes = codes[src]
        runs = pair  # the sort keeps every merged run in its place
    return total


def pair_counts(dist: RankedDistribution, asg: Assignment) -> tuple[int, int]:
    """Exact counts (n_c, n_d) of concordant and discordant pairs.

    A pair i < j is concordant when sign(p_i - p_j) * sign(l_i - l_j) = +1
    and discordant when it is -1; pairs tied in either coordinate count
    toward neither.  Knight's method (JASA 61, 1966): with the ranks sorted
    by probability-tie group and, inside a group, by magnitude, n_c is the
    number of strict inversions of the magnitudes, counted by merging the
    G sorted groups, and n_d = C(V, 2) - T_p - T_m + T_pm - n_c, where
    T_p, T_m and T_pm count the pairs tied in probability, in magnitude
    and in both.  The merge runs over the K runs of ranks tied in both,
    each one item weighted by its size: an O(V log V) sort, then
    ceil(log2 G) merge levels of O(K log K).  No int64 sum exceeds
    V (V - 1), so the counts are exact Python ints for V up to 3e9.
    """
    _check_sizes(dist, asg)
    p = dist.probs
    V = p.size
    values, codes = np.unique(asg.magnitudes, return_inverse=True)
    bits = (values.size - 1).bit_length()
    new_group = np.r_[True, p[:-1] > p[1:]]
    group = np.cumsum(new_group) - 1
    codes = codes[_stable_order(group, codes, bits)]  # `group` is already sorted
    run_starts = np.flatnonzero(new_group | np.r_[True, codes[1:] != codes[:-1]])
    run_sizes = np.diff(np.r_[run_starts, V])
    t_p = _tied_pairs(np.diff(np.flatnonzero(np.r_[new_group, True])))
    t_m = _tied_pairs(np.bincount(codes))
    t_pm = _tied_pairs(run_sizes)
    n_c = _cross_run_inversions(group[run_starts], codes[run_starts], run_sizes, bits)
    n_d = V * (V - 1) // 2 - t_p - t_m + t_pm - n_c
    return n_c, n_d


def kendall_tau(dist: RankedDistribution, asg: Assignment) -> float:
    """Kendall tau between probabilities and magnitudes: (n_c - n_d) / C(V, 2)."""
    V = dist.size
    if V < 2:
        raise ValueError("Kendall tau needs at least 2 ranks")
    n_c, n_d = pair_counts(dist, asg)
    return (n_c - n_d) / (V * (V - 1) / 2)


def pearson_r(p, lam) -> float:
    """Pearson correlation with population moments.

    r = (mean(p * lam) - mean(p) * mean(lam)) / (std(p) * std(lam)), with
    population (not sample) standard deviations.  At fixed means and
    deviations this is an affine function of the scalar product p . lam,
    so minimizing the mean cost and minimizing r are the same problem.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if p.shape != lam.shape or p.ndim != 1 or p.size < 2:
        raise ValueError("pearson_r needs two equal-length vectors of size >= 2")
    sp = p.std()
    sl = lam.std()
    if sp == 0.0 or sl == 0.0:
        raise ValueError("correlation is not defined when a standard deviation is zero")
    cov = (p * lam).mean() - p.mean() * lam.mean()
    return float(cov / (sp * sl))


def is_optimal(
    dist: RankedDistribution, asg: Assignment, ms: MagnitudeMultiset
) -> bool:
    """True iff the assignment holds the pool's V smallest values in nondecreasing order.

    Works on sorted arrays in O(V log(V + |pool|)) time and O(V) extra
    memory.  Each distinct assigned value must occur in the pool at least
    as often as in the assignment (its pool count is the span between the
    left and right `searchsorted` positions), else ValueError.  The
    assignment is then optimal exactly when its sorted values equal the
    pool's first V, which are its V smallest, and it never decreases.
    """
    _check_sizes(dist, asg)
    m = asg.magnitudes
    pool = ms.values
    values, used = np.unique(m, return_counts=True)
    avail = np.searchsorted(pool, values, "right") - np.searchsorted(pool, values, "left")
    if np.any(used > avail):
        raise ValueError("assignment is not a sub-multiset of the magnitude pool")
    if not np.array_equal(np.sort(m), pool[: dist.size]):
        return False
    return bool(np.all(m[:-1] <= m[1:]))

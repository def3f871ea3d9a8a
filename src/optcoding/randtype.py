"""Random typing: letters at random, a word boundary with probability p_s.

Every word of length l has the same probability, so word probability is a
closed function of length alone, rank probability is a closed function of
rank (through the enumeration length law), and the process turns out to be
an optimal non-singular code for its own output distribution.  The module
provides those closed forms, a seeded generator, and the optimality check.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import codebook
from .assign import _frozen_vector

__all__ = [
    "RandomTypingParams",
    "AbbreviationLaw",
    "word_probability",
    "rank_probability",
    "rank_probabilities",
    "abbreviation_law",
    "generate",
    "word_ranks",
    "OptimalityReport",
    "verify_optimality",
    "figure2_data",
]


@dataclass(frozen=True, eq=False)
class RandomTypingParams:
    """Alphabet size N, stop probability p_s in (0, 1), minimum length l_min.

    p_s = 0 never terminates a word and p_s = 1 pins every word at l_min,
    so both are rejected.  An optional letter bias (length-N probability
    vector) applies to generation only; the closed-form laws hold for
    uniform letters.
    """

    N: int
    p_s: float
    l_min: int = 1
    letter_bias: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "N", operator.index(self.N))
        object.__setattr__(self, "l_min", operator.index(self.l_min))
        if self.N < 1:
            raise ValueError("alphabet size N must be >= 1")
        if not 0.0 < self.p_s < 1.0:
            raise ValueError("p_s must be strictly between 0 and 1")
        if self.l_min < 0:
            raise ValueError("l_min must be nonnegative")
        if self.letter_bias is not None:
            bias = _frozen_vector(self.letter_bias, "letter_bias")
            if bias.size != self.N:
                raise ValueError(f"letter_bias must have length {self.N}")
            if np.any(bias <= 0):
                raise ValueError("letter_bias entries must be positive")
            total = float(bias.sum())
            if abs(total - 1.0) > 1e-9:
                raise ValueError("letter_bias must sum to 1")
            object.__setattr__(self, "letter_bias", _frozen_vector(bias / total, "letter_bias"))


def _require_uniform(params: RandomTypingParams) -> None:
    if params.letter_bias is not None:
        raise ValueError(
            "closed-form laws assume uniform letters; letter bias is supported "
            "by generate() only"
        )


def _scale(params: RandomTypingParams) -> float:
    """p_s / (1 - p_s)^l_min, the word law's factor; ValueError unless it is a
    finite float (so l_min is in the float range and the power not 0.0)."""
    power = (1.0 - params.p_s) ** params.l_min if params.l_min <= sys.float_info.max else 0.0
    if power == 0.0 or math.isinf(params.p_s / power):
        raise ValueError(f"p_s / (1 - p_s)**l_min overflows a float at "
                         f"p_s = {params.p_s!r}, l_min = {params.l_min}")
    return params.p_s / power


def _ratio(params: RandomTypingParams) -> float:
    """(1 - p_s) / N, the word law's factor per letter; ValueError unless N
    converts to a float."""
    try:
        return (1.0 - params.p_s) / params.N
    except OverflowError:
        raise ValueError(f"alphabet size N overflows a float at N = {params.N}") from None


def word_probability(params: RandomTypingParams, l):
    """Probability of one specific word of length l, an int (giving a float)
    or an int array: p_s (1 - p_s)^(l - l_min) / N^l = scale * ((1 - p_s) / N)^l.
    Both forms take one array power, so they agree bit for bit (numpy squares
    a lone exponent 2 exactly, where the array power may differ).  Where
    ((1 - p_s) / N)^l is below the smallest normal float, the law is taken
    as (p_s N^-l_min) ((1 - p_s) / N)^(l - l_min) instead, whose factors are
    no smaller than the probability, unless N^l_min leaves the float range."""
    _require_uniform(params)
    scale = _scale(params)
    if (shortest := np.min(l)) < params.l_min:
        raise ValueError(f"word length {shortest} is below l_min={params.l_min}")
    if np.max(l) > sys.float_info.max:
        raise ValueError("word length overflows a float")
    ratio, lengths = _ratio(params), np.atleast_1d(l)
    power = ratio ** lengths
    probs = scale * power
    low = np.flatnonzero(power < sys.float_info.min)
    if low.size and params.l_min * math.log(params.N) < 709:  # N^l_min < e^709
        head = params.p_s * float(params.N) ** -params.l_min
        probs[low] = head * ratio ** (lengths[low] - params.l_min)
    return probs if np.ndim(l) else float(probs[0])


def rank_probability(params: RandomTypingParams, i):
    """Probability of the rank-i word, for a rank or an int array of ranks: the
    word law at the enumeration length of rank i."""
    return word_probability(params, codebook.code_length_for_rank(params.N, params.l_min, i))


def rank_probabilities(params: RandomTypingParams, i_max: int) -> np.ndarray:
    """Vector of rank probabilities for ranks 1..i_max."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    return rank_probability(params, np.arange(1, i_max + 1))


def _log_probability_ratios(params: RandomTypingParams, lengths: np.ndarray) -> np.ndarray:
    """log(p_i / p_1) of the rank law at the given code lengths."""
    return (lengths - params.l_min) * (math.log1p(-params.p_s) - math.log(params.N))


@dataclass(frozen=True)
class AbbreviationLaw:
    """Linear law length = a * log(probability) + b_const, with a < 0.

    Inverts the word-probability law exactly (natural logarithm), so more
    probable words are shorter by construction.
    """

    a: float
    b_const: float

    def __post_init__(self):
        if not self.a < 0:
            raise ValueError("slope a must be negative")

    def predict_length(self, p: float) -> float:
        if not 0 < p <= 1:
            raise ValueError("probability must be in (0, 1]")
        return self.a * math.log(p) + self.b_const


def abbreviation_law(params: RandomTypingParams) -> AbbreviationLaw:
    """Constants of the exact length-vs-log-probability line."""
    _require_uniform(params)
    a = 1.0 / math.log(_ratio(params))
    b_const = -a * math.log(_scale(params))
    return AbbreviationLaw(a, b_const)


def generate(params: RandomTypingParams, seed, n_words: int) -> list[str]:
    """n_words i.i.d. words: l_min forced letters, then stop with p_s per position.

    Letters are lowercase latin (so N <= 26 here), uniform unless
    letter_bias is set.  Deterministic per seed.  The words' letters are
    drawn at once, so more than `codebook.MAX_TABLE_CHARS` of them in
    total raise ValueError before any letter is drawn.
    """
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    codebook.Alphabet.latin(params.N)  # rejects N > 26
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(params.p_s, n_words)
    # Counted in a float and Python ints: int64 draws saturate at 2**63 - 1 for
    # tiny p_s, and their int64 sum (or l_min + draw - 1) would wrap.  An
    # accepted count is exact: every partial sum is an integer below 2**53.
    letters = int(lengths.sum(dtype=float)) + n_words * (params.l_min - 1)
    if letters > codebook.MAX_TABLE_CHARS:
        raise ValueError(f"random typing of {n_words} words needs {letters} letters at "
                         f"p_s = {params.p_s!r}; the limit is {codebook.MAX_TABLE_CHARS}")
    lengths += params.l_min - 1
    if params.letter_bias is None:
        codes = rng.integers(0, params.N, letters)
    else:
        codes = rng.choice(params.N, size=letters, p=params.letter_bias)
    # The letters with a space between words: split(" ") keeps the empty
    # words of l_min = 0 (repeated insert positions), where split() would drop them.
    text = np.insert((codes + ord("a")).astype(np.uint8), np.cumsum(lengths)[:-1], ord(" "))
    return text.tobytes().decode("ascii").split(" ")


def word_ranks(params: RandomTypingParams, words) -> np.ndarray:
    """Enumeration rank of each word (inverse of the i-th-string map).

    Words must be over the first N lowercase letters and at least l_min
    long.  Ranks are int64 while every word of the longest length fits;
    beyond that they are exact Python ints in an object array.
    """
    alphabet = codebook.Alphabet.latin(params.N)  # rejects N > 26
    return codebook.ranks_of_strings(alphabet, params.l_min, words)


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the analytic optimality checks up to a maximum rank."""

    i_max: int
    checks: dict
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# The failure message of each `verify_optimality` check.
_FAILURES = {
    "equal_length_equiprobable": "words of equal length are not equally probable",
    "probability_nonincreasing": "rank probabilities do not decrease stepwise",
    "assignment_optimal": "length assignment violates the optimality conditions",
    "all_strings_of_used_lengths": "some available strings of a used length are unused",
}


def _shortest_in_order(N: int, l_min: int, lengths: np.ndarray) -> bool:
    """True iff the int lengths start at l_min or above, never decrease and are,
    as a multiset, the len(lengths) shortest string lengths >= l_min over N symbols."""
    in_order = lengths[0] >= l_min and bool(np.all(lengths[:-1] <= lengths[1:]))
    return in_order and np.array_equal(np.bincount(lengths - l_min),
                                       codebook.block_counts(N, l_min, lengths.size))


def _uses_every_string(N: int, l_min: int, top: int, blocks) -> bool:
    """True iff `blocks` (as from `codebook.string_digits`) hold one digit
    matrix per length l_min..top, their rows are distinct strings over N
    symbols, and every length l below `top` has all N**l of its strings."""
    if [digits.shape[1] for digits in blocks] != list(range(l_min, top + 1)):
        return False
    for digits in blocks:
        count, length = digits.shape
        if length < top and count != N**length:
            return False
        if np.any(digits < 0) or np.any(digits >= N):
            return False
        if count > 1:  # distinct: no two neighbours are equal once sorted
            # on the positions that vary (none: all rows equal); the compare
            # is laid out along the longer axis, so `any` runs in long loops
            differs = np.not_equal(digits, digits[0], order="F" if count > length else "C")
            keys = digits.T[differs.any(axis=0)]
            if not len(keys):
                return False
            ordered = np.take(keys, np.lexsort(keys), axis=1)
            if np.any(np.all(ordered[:, 1:] == ordered[:, :-1], axis=0)):
                return False
    return True


def verify_optimality(params: RandomTypingParams, i_max: int) -> OptimalityReport:
    """Check that random typing behaves as an optimal non-singular code.

    Builds the analytic rank table up to i_max and verifies: words of equal
    length are equally probable; probability never increases with rank and
    drops strictly across length boundaries; the induced lengths are
    optimal; and every complete length block uses all of its N**l distinct
    strings.  The probability checks compare log(p_i / p_1): finite where
    p_i underflows, and free of log(p_1), whose rounding can hide a step.

    Optimal means the lengths are the V = i_max smallest of the pool of all
    string lengths, in nondecreasing order.  The pool, sorted, is the block
    order itself: N**l copies of each length l from l_min up.  Its first V
    entries therefore count `codebook.block_counts(N, l_min, V)` copies of
    each length, so the check compares that closed form with the bincount
    of the lengths and never builds the pool, whose size grows as N**l.
    The strings are checked as the symbol-index rows of
    `codebook.string_digits`, so the check runs for any N and forms no
    `str`; the digit table holds one small integer per character, which
    `codebook.check_table_size` caps.  Time grows as O(i_max log i_max).
    """
    _require_uniform(params)
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    N, l_min = params.N, params.l_min
    codebook.check_table_size(N, l_min, i_max)
    lengths = codebook.code_length_for_rank(N, l_min, np.arange(1, i_max + 1))
    log_ratios = _log_probability_ratios(params, lengths)
    order = np.argsort(lengths, kind="stable")
    l_sorted, r_sorted = lengths[order], log_ratios[order]
    tied = l_sorted[1:] == l_sorted[:-1]
    same = bool(np.all(r_sorted[1:][tied] == r_sorted[:-1][tied]))
    steps = np.diff(log_ratios)
    boundary = np.flatnonzero(np.diff(lengths) > 0)
    decreasing = not (np.any(steps > 0) or np.any(steps[boundary] >= 0))
    blocks = codebook.string_digits(N, l_min, i_max)
    top = int(lengths.max())
    checks = {
        "equal_length_equiprobable": same,
        "probability_nonincreasing": decreasing,
        "assignment_optimal": _shortest_in_order(N, l_min, lengths),
        "all_strings_of_used_lengths": _uses_every_string(N, l_min, top, blocks),
    }
    failures = tuple(_FAILURES[name] for name, ok in checks.items() if not ok)
    return OptimalityReport(i_max, checks, failures)


def figure2_data(
    params: RandomTypingParams, i_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rank, probability) series of the exact rank law for ranks 1..i_max.

    The series is a step function: plateaus span the rank blocks that share
    a length, with boundaries at the cumulative string counts.
    """
    probs = rank_probabilities(params, i_max)
    return np.arange(1, i_max + 1, dtype=np.int64), probs

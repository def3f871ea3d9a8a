"""String enumeration and non-singular code tables.

Strings over an N-symbol alphabet are enumerated by length, ties broken
lexicographically by symbol index.  The length of the i-th string obeys a
closed form (`code_length_for_rank`), and assigning the i-th string to the
i-th most probable type yields the non-singular code table with minimal
mean length.  `classify` places a table in the singular / non-singular /
uniquely-decodable / instantaneous hierarchy, deciding unique decodability
with the Sardinas-Patterson procedure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .assign import RankedDistribution

__all__ = [
    "Alphabet",
    "CodeTable",
    "CodeClass",
    "MAX_TABLE_CHARS",
    "string_count_through_length",
    "block_counts",
    "code_length_for_rank",
    "nth_string",
    "string_digits",
    "rank_of_string",
    "ranks_of_strings",
    "check_table_size",
    "optimal_nonsingular_code",
    "uniquely_decodable_lengths",
    "classify",
    "segmentations",
    "mean_code_length",
]

# Most characters, summed over all codes, of a table that
# `optimal_nonsingular_code` builds; a larger request is a ValueError
# instead of an out-of-memory kill.
MAX_TABLE_CHARS = 10**8


@dataclass(frozen=True, eq=False)
class Alphabet:
    """Ordered sequence of distinct single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        syms = tuple(self.symbols)
        if not syms:
            raise ValueError("alphabet must have at least one symbol")
        if any(not isinstance(s, str) or len(s) != 1 for s in syms):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_index", {s: k for k, s in enumerate(syms)})

    @classmethod
    def from_string(cls, s: str) -> "Alphabet":
        return cls(tuple(s))

    @classmethod
    def latin(cls, n: int) -> "Alphabet":
        """The first n lowercase latin letters."""
        if not 1 <= n <= 26:
            raise ValueError("latin alphabet supports 1..26 symbols")
        return cls(tuple("abcdefghijklmnopqrstuvwxyz"[:n]))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index


@dataclass(frozen=True, eq=False)
class CodeTable:
    """Mapping from rank 1..V to a code string over a fixed alphabet."""

    codes: tuple[str, ...]
    alphabet: Alphabet

    def __post_init__(self):
        codes = tuple(self.codes)
        if not codes:
            raise ValueError("code table must have at least one entry")
        if not set("".join(codes)) <= set(self.alphabet.symbols):
            c = next(c for c in codes if any(ch not in self.alphabet for ch in c))
            raise ValueError(f"code {c!r} uses symbols outside the alphabet")
        object.__setattr__(self, "codes", codes)

    @property
    def size(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return self.size

    def code(self, rank: int) -> str:
        if not 1 <= rank <= self.size:
            raise ValueError(f"rank must be in 1..{self.size}")
        return self.codes[rank - 1]

    def lengths(self) -> np.ndarray:
        return np.array([len(c) for c in self.codes], dtype=np.int64)

    def items(self):
        """(rank, code) pairs in rank order."""
        return list(enumerate(self.codes, start=1))


@dataclass(frozen=True)
class CodeClass:
    """Flags of the code-class hierarchy: instantaneous implies uniquely
    decodable implies non-singular."""

    non_singular: bool
    uniquely_decodable: bool
    instantaneous: bool

    def __post_init__(self):
        if self.instantaneous and not self.uniquely_decodable:
            raise ValueError("instantaneous codes are uniquely decodable")
        if self.uniquely_decodable and not self.non_singular:
            raise ValueError("uniquely decodable codes are non-singular")

    @property
    def singular(self) -> bool:
        return not self.non_singular

    @property
    def label(self) -> str:
        """The tightest class the table belongs to."""
        if self.instantaneous:
            return "instantaneous"
        if self.uniquely_decodable:
            return "uniquely decodable"
        if self.non_singular:
            return "non-singular"
        return "singular"


def string_count_through_length(N: int, l_min: int, l: int) -> int:
    """Number of distinct strings with length in [l_min, l] over N symbols."""
    N, l_min, l = map(operator.index, (N, l_min, l))
    if N < 1:
        raise ValueError("alphabet size must be >= 1")
    if l < l_min:
        return 0
    if N == 1:
        return l - l_min + 1
    return (N ** (l + 1) - N**l_min) // (N - 1)


def block_counts(N: int, l_min: int, V: int) -> list[int]:
    """How many of the first V strings have length l_min, l_min + 1, ..., in order.

    Every length below the longest one used holds its whole block of N**l
    strings and the longest holds the rest.  The one enumeration of length
    blocks, in O(number of lengths) exact integers: N, l_min and V are
    taken with `operator.index`, so a numpy integer never wraps in N**l.
    """
    N, l_min, V = map(operator.index, (N, l_min, V))
    if N < 1:
        raise ValueError("alphabet size must be >= 1")
    if l_min < 0:
        raise ValueError("l_min must be nonnegative")
    if V < 1:
        raise ValueError("rank must be >= 1")
    if N == 1:
        return [1] * V
    if l_min >= V.bit_length():  # N**l_min > V: every rank has length l_min
        return [V]
    blocks, size = [], N**l_min
    while V > size:
        blocks.append(size)
        V -= size
        size *= N
    return blocks + [V]


def code_length_for_rank(N: int, l_min: int, i):
    """Length of the i-th string in length-then-lexicographic order.

    Equals ceil(log_N((1 - 1/N) * i + N**(l_min - 1))) for N > 1 and
    i + l_min - 1 for N = 1.  `i` is a rank or an integer array of ranks:
    a rank gives a Python int (exact at any size), an array gives int64.
    Lengths are read off the `block_counts` of the largest rank, so a rank
    exactly filling all strings of a length never suffers float rounding.
    """
    scalar, l_min = np.ndim(i) == 0, operator.index(l_min)
    ranks = operator.index(i) if scalar else np.asarray(i, dtype=np.int64)
    low, top = (ranks, ranks) if scalar else (ranks.min(initial=1), int(ranks.max(initial=1)))
    blocks = block_counts(N, l_min, 1 if N == 1 else top)  # also validates N and l_min
    if low < 1:
        raise ValueError("rank must be >= 1")
    longest = l_min + (top if N == 1 else len(blocks)) - 1
    if scalar:
        return longest
    if longest >= 2**63:
        raise ValueError("code lengths beyond the int64 range")
    if N == 1:
        return ranks + (l_min - 1)
    # The block sums run up to the largest rank, so they fit in int64.
    return l_min + np.searchsorted(np.cumsum(blocks, dtype=np.int64), ranks)


def nth_string(alphabet: Alphabet, l_min: int, i: int) -> str:
    """The i-th string of length >= l_min, ordered by length then lexicographically."""
    N = alphabet.size
    if N == 1:
        return alphabet.symbols[0] * code_length_for_rank(N, l_min, i)
    blocks = block_counts(N, l_min, i)
    length, offset = l_min + len(blocks) - 1, blocks[-1] - 1
    digits = []
    for _ in range(length):
        offset, d = divmod(offset, N)
        digits.append(alphabet.symbols[d])
    return "".join(reversed(digits))


def string_digits(N: int, l_min: int, V: int) -> list[np.ndarray]:
    """Symbol indices of the first V strings of length >= l_min over N symbols.

    One (count, length) matrix per length block, lengths l_min, l_min + 1,
    ... up to the longest used: row j of a block is the string at offset
    j within it, as its base-N digits, most significant first: the string
    that `nth_string` reads off the same `block_counts` at the rank that
    ends at that row.  Each block takes one `np.divmod`
    over its offsets per significant digit; digits above those are 0.
    """
    blocks = []
    dtype = np.min_scalar_type(N - 1)
    for length, count in enumerate(block_counts(N, l_min, V), start=l_min):
        digits = np.zeros((count, length), dtype=dtype)
        rest = np.arange(count, dtype=np.int64)
        place, col = 1, length
        while place < count:  # offsets below `place` need no further digit
            col -= 1
            rest, digits[:, col] = np.divmod(rest, N)
            place *= N
        blocks.append(digits)
    return blocks


def ranks_of_strings(alphabet: Alphabet, l_min: int, strings) -> np.ndarray:
    """Enumeration rank of each string: the inverse of `nth_string`, as an array.

    The result is int64 when every string of the longest given length has
    a rank below 2**63, and an object array of exact Python ints otherwise.
    """
    N = alphabet.size
    strings = list(strings)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    short = lengths < l_min
    if np.any(short):
        s = strings[int(np.argmax(short))]
        raise ValueError(f"string {s!r} is shorter than l_min={l_min}")
    top = int(lengths.max(initial=l_min))
    dtype = np.int64 if string_count_through_length(N, l_min, top) < 2**63 else object
    text = "".join(strings).encode("utf-32-le", "surrogatepass")
    chars, where = np.unique(np.frombuffer(text, dtype=np.uint32), return_inverse=True)
    digits = np.array([alphabet.index(chr(c)) for c in chars.tolist()], dtype=dtype)[where]
    # Horner's rule over character position k, for every string longer than k.
    starts = np.cumsum(lengths) - lengths
    values = np.zeros(len(strings), dtype=dtype)
    for k in range(top):
        live = np.flatnonzero(lengths > k)
        values[live] = values[live] * N + digits[starts[live] + k]
    bases = np.array(
        [string_count_through_length(N, l_min, l - 1) for l in range(top + 1)],
        dtype=dtype,
    )
    return bases[lengths] + values + 1


def rank_of_string(alphabet: Alphabet, l_min: int, s: str) -> int:
    """Inverse of `nth_string`: the enumeration rank of a given string."""
    return int(ranks_of_strings(alphabet, l_min, [s])[0])


def _require_l_min(l_min: int, allow_empty: bool = False) -> None:
    if l_min < 0:
        raise ValueError("l_min must be nonnegative")
    if l_min == 0 and not allow_empty:
        raise ValueError("l_min = 0 (empty code string) requires allow_empty=True")


def check_table_size(N: int, l_min: int, V: int) -> None:
    """Raise ValueError if the first V strings (length >= l_min, over N
    symbols) hold more than MAX_TABLE_CHARS characters in total.

    The total comes in closed form from the block counts, so the check
    costs nothing even for tables far too large to build.
    """
    N, l_min, V = map(operator.index, (N, l_min, V))
    _require_l_min(l_min, allow_empty=True)
    if N == 1:
        chars = V * l_min + V * (V - 1) // 2
    else:
        chars = sum(l * c for l, c in enumerate(block_counts(N, l_min, V), start=l_min))
    if chars > MAX_TABLE_CHARS:
        raise ValueError(
            f"a table of {V} codes needs {chars} characters; "
            f"the limit is {MAX_TABLE_CHARS}"
        )


def optimal_nonsingular_code(
    dist: RankedDistribution,
    alphabet: Alphabet,
    l_min: int = 1,
    *,
    allow_empty: bool = False,
) -> CodeTable:
    """Shortest-strings-to-highest-ranks table: rank i gets the i-th string.

    The result is non-singular by construction and has minimal mean length
    among all non-singular tables for the distribution.  The empty string
    (l_min = 0) must be enabled explicitly; it then occupies rank 1.
    Tables above MAX_TABLE_CHARS characters are refused (`check_table_size`).
    """
    _require_l_min(l_min, allow_empty)
    check_table_size(alphabet.size, l_min, dist.size)
    points = np.array([ord(c) for c in alphabet.symbols], dtype=np.uint32)
    codes: list[str] = []
    for digits in string_digits(alphabet.size, l_min, dist.size):
        count, length = digits.shape
        text = points[digits].tobytes().decode("utf-32-le", "surrogatepass")
        codes += [text[k * length:(k + 1) * length] for k in range(count)]
    return CodeTable(tuple(codes), alphabet)


def uniquely_decodable_lengths(dist: RankedDistribution, N: int) -> np.ndarray:
    """Shannon code lengths ceil(-log_N p_i); they satisfy the Kraft inequality.

    The ceiling is resolved with rational comparisons against N**-k, so
    dyadic probabilities land on the integer instead of next to it.  A
    probability within 1e-12 relative of N**-k counts as reaching it: that
    absorbs the representation error of values like 1/3 that have no exact
    float, at the price of the Kraft sum exceeding 1 by at most the same
    sliver for inputs deliberately placed just under a boundary.  N is taken
    with `operator.index`, so a numpy integer never wraps in N**k.
    """
    N = operator.index(N)
    if N < 2:
        raise ValueError("uniquely decodable lengths need an alphabet of size >= 2")
    if np.any(dist.probs <= 0):
        raise ValueError("all probabilities must be positive")
    log_n = math.log(N)
    snap = 1 + Fraction(1, 10**12)
    lengths = np.empty(dist.size, dtype=np.int64)
    for idx, p in enumerate(dist.probs.tolist()):
        k = max(0, math.ceil(-math.log(p) / log_n))
        fp = Fraction(p) * snap
        while k > 0 and Fraction(1, N ** (k - 1)) <= fp:
            k -= 1
        while Fraction(1, N**k) > fp:
            k += 1
        lengths[idx] = k
    return lengths


def _is_prefix_free(codes: tuple[str, ...]) -> bool:
    ordered = sorted(codes)
    return not any(
        ordered[k + 1].startswith(ordered[k]) for k in range(len(ordered) - 1)
    )


def _dangling_suffixes(prefixes, words) -> set[str]:
    out = set()
    for a in prefixes:
        for b in words:
            if b != a and b.startswith(a):
                out.add(b[len(a):])
    return out


def _is_uniquely_decodable(codes: tuple[str, ...]) -> bool:
    """Sardinas-Patterson test.

    Iteratively derive dangling suffixes from the codeword set; the code
    fails exactly when some derived suffix is itself a codeword.  All
    suffixes are substrings of codewords, so the visited set makes the
    iteration terminate.
    """
    words = set(codes)
    frontier = _dangling_suffixes(words, words)
    seen: set[str] = set()
    while frontier:
        if frontier & words:
            return False
        seen |= frontier
        nxt: set[str] = set()
        nxt |= _dangling_suffixes(frontier, words)
        nxt |= _dangling_suffixes(words, frontier)
        frontier = nxt - seen
    return True


def classify(table: CodeTable) -> CodeClass:
    """Tightest class of the table in the code hierarchy."""
    codes = table.codes
    non_singular = len(set(codes)) == len(codes)
    if not non_singular:
        return CodeClass(False, False, False)
    if "" in codes:
        # An empty codeword disappears under concatenation, so segmentation
        # is never unique.
        return CodeClass(True, False, False)
    ud = _is_uniquely_decodable(codes)
    inst = _is_prefix_free(codes)
    return CodeClass(True, ud, inst)


def segmentations(
    message: str, table: CodeTable, cap: int = 100
) -> list[tuple[int, ...]]:
    """All parses of the message into table codes, as rank tuples, up to `cap`.

    An empty list means the message is unparseable; two or more parses are a
    direct witness that the table is not uniquely decodable.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if any(ch not in table.alphabet for ch in message):
        raise ValueError("message uses symbols outside the table's alphabet")
    if "" in table.codes:
        raise ValueError("tables containing the empty code admit unbounded parse families")
    entries = table.items()
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def walk(pos: int) -> None:
        if pos == len(message):
            out.append(tuple(stack))
            return
        for rank, code in entries:
            if message.startswith(code, pos):
                stack.append(rank)
                walk(pos + len(code))
                stack.pop()
                if len(out) >= cap:
                    return

    walk(0)
    return out


def mean_code_length(table: CodeTable, dist: RankedDistribution) -> float:
    """Mean length sum(p_i * len(code_i)) of the table under the distribution."""
    if table.size != dist.size:
        raise ValueError(
            f"table has {table.size} entries but distribution has {dist.size} ranks"
        )
    return float(np.einsum("i,i", dist.probs, table.lengths()))

"""Corpus pipeline: frequency tables, abbreviation testing, optimal recoding.

Tokenizes plain text into a frequency table carrying one magnitude per
type (character count by default, durations via a sidecar), measures the
frequency-magnitude Kendall tau, computes the frequency spectrum, fits
rank distributions, and rebuilds the vocabulary as an optimal
non-singular code to compare actual versus minimal mean length.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, count, filterfalse, repeat
from operator import index, is_, methodcaller, mul
from typing import Iterable, Mapping

import numpy as np

from . import assign, codebook, maxent

__all__ = [
    "FrequencyTable",
    "AbbreviationResult",
    "RecodingResult",
    "AnalysisReport",
    "tokenize",
    "build_table",
    "table_from_tokens",
    "abbreviation_analysis",
    "optimal_recoding",
    "frequency_spectrum",
    "rank_frequency_fit",
    "analyze",
    "read_text",
    "read_magnitudes",
    "read_rank_counts",
]

ABBREVIATION_NOTE = (
    "tau <= 0 is a necessary condition for optimal coding; "
    "a non-significant tau does not rule out efficient coding"
)

# The ASCII characters of Unicode category P*: what an ASCII chunk can strip.
_ASCII_PUNCT = "!\"#%&'()*,-./:;?@[\\]_{}"

# Models with fewer distinct ranks than this are flagged as fitted on
# too little data for a meaningful comparison.
SPARSE_FIT_THRESHOLD = 5


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Types with frequencies (nonincreasing) and magnitudes, plus the token total.

    Rank ties are broken by first occurrence in the source, so the table is
    identical however the counting is chunked.
    """

    types: tuple[str, ...]
    frequencies: np.ndarray
    magnitudes: np.ndarray
    total_tokens: int

    def __post_init__(self):
        types = tuple(self.types)
        if not types:
            raise ValueError("frequency table must not be empty")
        freqs = assign._frozen_vector(self.frequencies, "frequencies", np.int64)
        mags = assign._frozen_vector(self.magnitudes, "magnitudes")
        if freqs.size != len(types) or mags.size != len(types):
            raise ValueError("types, frequencies and magnitudes must align")
        if np.any(freqs < 1):
            raise ValueError("frequencies must be positive")
        if np.any(freqs[:-1] < freqs[1:]):
            raise ValueError("frequencies must be sorted nonincreasingly")
        if np.any(mags < 0):
            raise ValueError("magnitudes must be nonnegative")
        if int(freqs.sum()) != self.total_tokens:
            raise ValueError("frequencies must sum to total_tokens")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "magnitudes", mags)

    @property
    def size(self) -> int:
        return len(self.types)

    def ranked_distribution(self) -> assign.RankedDistribution:
        return assign.RankedDistribution(self.frequencies / self.total_tokens)


def tokenize(text: str, *, lowercase: bool = False, strip_punctuation: bool = True) -> list[str]:
    """Whitespace tokenization with optional case folding and punctuation strip.

    Punctuation stripping removes leading and trailing characters whose
    Unicode category is P*; tokens empty after stripping are dropped.

    Casefolding the whole text first gives the same tokens as folding each
    stripped token: casefold maps every P* and whitespace character to
    itself and no other character to one (or to nothing), so the split
    points, the stripped ends and the empty tokens stay where they were.
    Stripping with P* characters absent from the text changes nothing, so
    the strip uses only the P* characters the text holds (for ASCII text,
    those of `_ASCII_PUNCT` it contains), and a text with none is not
    stripped at all: no token is then empty either.
    """
    if lowercase:
        text = text.casefold()
    tokens = text.split()
    if not strip_punctuation:
        return tokens
    if text.isascii():
        punct = "".join(filter(text.__contains__, _ASCII_PUNCT))
    else:
        punct = "".join(c for c in set(text) if unicodedata.category(c).startswith("P"))
    if not punct:
        return tokens
    return list(filter(None, map(str.strip, tokens, repeat(punct))))


def _grapheme_count(token: str) -> int:
    import regex

    return len(regex.findall(r"\X", token))


_MEASURES = {"chars": len, "graphemes": _grapheme_count}


def table_from_tokens(
    tokens: Iterable[str],
    *,
    magnitude: str = "chars",
    magnitudes: Mapping[str, float] | None = None,
) -> FrequencyTable:
    """Frequency table from an already-tokenized stream: frequency descending,
    ties in first-seen order.

    Magnitude defaults to the character count of each type ("graphemes"
    counts extended grapheme clusters instead); a sidecar mapping overrides
    the default per type.
    """
    measure = _MEASURES.get(magnitude)
    if measure is None:
        raise ValueError(f"unknown magnitude mode {magnitude!r}")
    counts = Counter(tokens)
    if not counts:
        raise ValueError("empty input: no tokens")
    # Counter keeps first-seen order, which the stable sort keeps among ties
    seen = list(counts)
    freqs = np.fromiter(counts.values(), dtype=np.int64, count=len(seen))
    order = np.argsort(-freqs, kind="stable")
    ordered = tuple(map(seen.__getitem__, order.tolist()))
    freqs = freqs[order]
    if magnitudes:
        found = list(map(magnitudes.get, ordered))  # None where the sidecar has no entry
        misses = list(compress(range(len(found)), map(is_, found, repeat(None))))
        mags = np.array(found, dtype=float)
        mags[misses] = np.fromiter(map(measure, map(ordered.__getitem__, misses)), float)
    else:
        mags = np.fromiter(map(measure, ordered), float, len(ordered))
    return FrequencyTable(ordered, freqs, mags, int(freqs.sum()))


def build_table(
    source,
    *,
    lowercase: bool = False,
    strip_punctuation: bool = True,
    magnitude: str = "chars",
    magnitudes: Mapping[str, float] | None = None,
) -> FrequencyTable:
    """Frequency table from raw text (a string or an iterable of lines)."""
    if isinstance(source, str):
        source = [source]
    tokens = chain.from_iterable(
        tokenize(chunk, lowercase=lowercase, strip_punctuation=strip_punctuation) for chunk in source
    )
    return table_from_tokens(tokens, magnitude=magnitude, magnitudes=magnitudes)


@dataclass(frozen=True)
class AbbreviationResult:
    """Kendall tau between frequency and magnitude, with raw pair counts.

    z_score is the normal-approximation score for tau, reported as a
    descriptive statistic only.
    """

    tau: float
    n_c: int
    n_d: int
    z_score: float
    note = ABBREVIATION_NOTE


def abbreviation_analysis(table: FrequencyTable) -> AbbreviationResult:
    """Frequency-vs-magnitude concordance of the table."""
    if table.size < 2:
        raise ValueError("abbreviation analysis needs at least 2 types")
    dist = table.ranked_distribution()
    asg = assign.Assignment(table.magnitudes)
    n_c, n_d = assign.pair_counts(dist, asg)
    v = table.size
    tau = (n_c - n_d) / (v * (v - 1) / 2)  # as assign.kendall_tau, without recounting
    z = (n_c - n_d) / math.sqrt(v * (v - 1) * (2 * v + 5) / 18.0)
    return AbbreviationResult(tau, n_c, n_d, z)


@dataclass(frozen=True, eq=False)
class RecodingResult:
    """Mean magnitude before and after optimal non-singular recoding of a
    table; the recoded `code_table` itself is built on first access."""

    l_actual: float
    l_optimal: float
    table: FrequencyTable = field(repr=False)
    alphabet: codebook.Alphabet = field(repr=False)
    l_min: int = 1

    @cached_property
    def code_table(self) -> codebook.CodeTable:
        dist = self.table.ranked_distribution()
        return codebook.optimal_nonsingular_code(dist, self.alphabet, self.l_min)

    @property
    def efficiency_ratio(self) -> float:
        return self.l_optimal / self.l_actual


def optimal_recoding(
    table: FrequencyTable, alphabet: codebook.Alphabet, l_min: int = 1
) -> RecodingResult:
    """Recode every type with the shortest available distinct string.

    l_actual weighs the current magnitudes by type probability; l_optimal
    is the mean length of the optimal non-singular table over the given
    alphabet.  l_optimal <= l_actual is guaranteed only when the current
    magnitudes are character counts over the same alphabet.
    """
    l_min = index(l_min)  # an exact int: a numpy integer would wrap in the sum below
    codebook._require_l_min(l_min)
    blocks = codebook.block_counts(alphabet.size, l_min, table.size)
    # l_optimal is exact at any l_min: a length block's token count times its
    # length, in Python ints.
    n = table.total_tokens
    l_actual = float((table.frequencies * table.magnitudes).sum()) / n
    block_tokens = np.add.reduceat(table.frequencies, list(accumulate(blocks[:-1], initial=0)))
    try:
        l_optimal = sum(map(mul, block_tokens.tolist(), count(l_min))) / n
    except OverflowError:
        raise ValueError(f"mean code length overflows a float at l_min = {l_min}") from None
    return RecodingResult(l_actual, l_optimal, table, alphabet, l_min)


def frequency_spectrum(table: FrequencyTable) -> dict[int, int]:
    """n_f: how many types occur exactly f times, keyed by ascending f."""
    values, counts = np.unique(table.frequencies, return_counts=True)
    return {int(f): int(n) for f, n in zip(values, counts)}


def rank_frequency_fit(table: FrequencyTable) -> tuple[maxent.FitResult, ...]:
    """Fit every rank-distribution family to the table, best likelihood first."""
    observed = maxent.RankCounts(np.arange(1, table.size + 1), table.frequencies)
    return maxent.fit_ranked(observed, maxent.FAMILIES)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Full corpus report: the concordance, recoding and fit stage results."""

    abbreviation: AbbreviationResult
    recoding: RecodingResult
    fits: tuple[maxent.FitResult, ...]
    fit_warning: str | None


def analyze(
    table: FrequencyTable, alphabet: codebook.Alphabet, l_min: int = 1
) -> AnalysisReport:
    """Run the whole pipeline on a prepared frequency table."""
    abbrev = abbreviation_analysis(table)
    recoding = optimal_recoding(table, alphabet, l_min)
    fits = rank_frequency_fit(table)
    fit_warning = None
    if table.size < SPARSE_FIT_THRESHOLD:
        fit_warning = (
            f"only {table.size} distinct ranks: too few for a meaningful "
            "model comparison"
        )
    return AnalysisReport(abbrev, recoding, fits, fit_warning)


def read_text(path) -> str:
    """Read a UTF-8 text file without its byte-order mark, if it has one;
    undecodable bytes raise with their offset in the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"undecodable byte at offset {exc.start} in {path}: {exc.reason}"
        ) from exc


# The line boundaries of str.splitlines besides "\n".
_OTHER_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Every byte but tab and newline: what `_row_cells` deletes to see the row shape.
_NOT_TAB_OR_NEWLINE = bytes(b for b in range(256) if b not in b"\t\n")


def read_magnitudes(path) -> dict[str, float]:
    """Sidecar TSV of per-type magnitudes: `type<TAB>magnitude` per line.

    Blank lines and lines starting with '#' are skipped; a row without
    exactly one tab, a duplicate type, or a magnitude that is not a
    positive finite number raises ValueError naming its file and line.
    """
    return _read_rows(path, _parse_magnitudes, _magnitude_row, methodcaller("startswith", "#"),
                      "no magnitude entries")


def read_rank_counts(path) -> maxent.RankCounts:
    """Table of observed rank counts, as `fit --input` takes it: `rank count`
    rows of integers, separated by a tab, a comma or spaces, after an
    optional header row (a first row whose first cell is not a number).

    Blank lines and lines whose stripped text starts with '#' are skipped; a
    row that is not two integer cells, a rank or count below 1, or a
    duplicate rank raises ValueError naming its file and line.
    """
    counts = _read_rows(path, _rank_columns, _rank_row, lambda line: line.lstrip().startswith("#"),
                        "no rank counts found", header=_is_header)
    return maxent._as_rank_counts(counts)  # a walked dict; a value past int64 raises here


def _read_rows(path, parse, row, comment, empty: str, header=None):
    """The value of a two-column file, in up to three passes: `parse` of the
    whole text, where that has no '#' and no line break but "\\n"; `parse` of
    its data lines (neither blank nor `comment`) joined with "\\n"; else the
    key -> value map of row(line, map so far) over the data lines but a first
    one that is a `header`.  A line that `row` refuses with _BadRow, or an
    empty map, raises ValueError naming the file (and the line)."""
    text = read_text(path)
    plain = "#" not in text and not any(map(text.__contains__, _OTHER_BREAKS))
    out = parse(text) if plain else None
    if out is None:  # comments, blank lines, other line ends, or a fault
        lines = text.splitlines()
        rows = filterfalse(comment, filter(str.strip, lines))
        out = parse("\n".join(rows) + "\n")
    if out is not None:
        return out
    rows = [(n, line) for n, line in enumerate(lines, 1) if line.strip() and not comment(line)]
    if header and rows and header(rows[0][1]):
        del rows[0]
    out = {}
    for lineno, line in rows:
        try:
            key, value = row(line, out)
        except _BadRow as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        out[key] = value
    if not out:
        raise ValueError(f"{path}: {empty}")
    return out


class _BadRow(ValueError):
    """A data line's fault: `_read_rows` names its file and line."""


def _row_cells(text: str) -> list[str] | None:
    """The cells of a text that is nothing but `cell<TAB>cell\\n` rows, two
    per row in row order, or None if it is anything else or has no rows."""
    marks = text.encode().translate(None, _NOT_TAB_OR_NEWLINE)
    rows = len(marks) // 2
    if not rows or marks != b"\t\n" * rows or not text.endswith("\n"):  # "a\t1\nb" too
        return None
    cells = text.replace("\n", "\t").split("\t")
    cells.pop()  # the empty tail after the last row
    return cells


def _parse_magnitudes(text: str) -> dict[str, float] | None:
    """The magnitudes of a text that is nothing but `type<TAB>magnitude\\n`
    rows, or None if it is anything else, has no rows, repeats a type, or
    has a magnitude that is not a positive finite number."""
    cells = _row_cells(text)
    if cells is None:
        return None
    try:
        values = list(map(float, cells[1::2]))
    except ValueError:
        return None
    out = dict(zip(cells[0::2], values))  # a duplicate type leaves it short
    checked = np.fromiter(values, float, len(values))
    if len(out) == len(values) and np.all((checked > 0) & np.isfinite(checked)):
        return out
    return None


def _magnitude_row(line: str, seen) -> tuple[str, float]:
    """The type and magnitude of one sidecar line, or _BadRow saying why not."""
    parts = line.split("\t")
    if len(parts) != 2:
        raise _BadRow("expected `type<TAB>magnitude`")
    t, m = parts
    if t in seen:
        raise _BadRow(f"duplicate type {t!r}")
    try:
        value = float(m)
    except ValueError:
        raise _BadRow(f"magnitude {m!r} is not a number") from None
    if not value > 0 or not math.isfinite(value):
        raise _BadRow("magnitude must be positive and finite")
    return t, value


def _int_or_none(cell: str) -> int | None:
    """int(cell), or None if the cell is not an integer literal."""
    try:
        return int(cell)
    except ValueError as exc:
        if not str(exc).startswith("invalid literal"):
            raise  # an integer past int()'s digit limit keeps int()'s message
        return None


def _is_header(line: str) -> bool:
    """Whether a first row is a header: its first cell is not a number to float()."""
    parts = line.replace(",", "\t").split()
    if parts:
        try:
            float(parts[0])
        except ValueError:
            return True
    return False


def _rank_columns(text: str) -> maxent.RankCounts | None:
    """The rank counts of a text of `rank<TAB>count\\n` rows (a comma or a
    space for the tab, and a header row, allowed), or None where a row is
    spelled otherwise, a cell is not an integer in int64 or is below 1, or a
    rank repeats."""
    text = text.replace(",", "\t").replace(" ", "\t")
    head, _, body = text.partition("\n")
    cells = _row_cells(body if _is_header(head) else text)
    if cells is None:
        return None
    try:
        ranks = np.fromiter(map(int, cells[0::2]), np.int64, len(cells) // 2)
        counts = np.fromiter(map(int, cells[1::2]), np.int64, len(cells) // 2)
    except (ValueError, OverflowError):  # a value past int64 is worded by RankCounts
        return None
    if np.any(ranks[:-1] >= ranks[1:]):
        order = np.argsort(ranks)
        ranks, counts = ranks[order], counts[order]
    if ranks[0] < 1 or counts.min() < 1 or np.any(ranks[:-1] == ranks[1:]):
        return None  # the walk names the line
    return maxent.RankCounts(ranks, counts)


def _rank_row(line: str, seen) -> tuple[int, int]:
    """The rank and count of one line of a rank-count table, or _BadRow
    saying why not.  A comma-separated row with an empty or blank cell
    (`1,,70`) has more than two cells, though `split()` would drop it."""
    parts = line.replace(",", "\t").split()
    if len(parts) != 2 or not all(map(str.strip, line.split(","))):
        raise _BadRow("expected `rank<TAB>count`")
    try:
        rank, count = int(parts[0]), int(parts[1])
    except ValueError:
        named = zip(("rank", "count"), parts)
        what, cell = next((w, c) for w, c in named if _int_or_none(c) is None)
        raise _BadRow(f"{what} {cell!r} is not an integer") from None
    if rank < 1 or count < 1:
        raise _BadRow(f"{'rank' if rank < 1 else 'count'} must be >= 1")
    if rank in seen:
        raise _BadRow(f"duplicate rank {rank}")
    return rank, count

import itertools
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerated_strings
from optcoding import cli
from optcoding.assign import RankedDistribution
from optcoding.codebook import (
    Alphabet,
    CodeClass,
    CodeTable,
    block_counts,
    check_table_size,
    classify,
    code_length_for_rank,
    mean_code_length,
    nth_string,
    optimal_nonsingular_code,
    rank_of_string,
    ranks_of_strings,
    segmentations,
    string_count_through_length,
    string_digits,
    uniquely_decodable_lengths,
)

AB = Alphabet.from_string("ab")
ABC = Alphabet.from_string("abc")

# the three 6-entry tables used throughout: repeated codes, shortest
# distinct strings in a suboptimal order, and self-delimiting codes
REPEATED = CodeTable(("a", "a", "a", "b", "b", "b"), AB)
SHUFFLED_NONSINGULAR = CodeTable(("aa", "ab", "a", "b", "ba", "bb"), AB)
SELF_DELIMITING = CodeTable(("b", "aba", "abb", "aabaa", "aabab", "aabba"), AB)

UNIFORM6 = RankedDistribution(np.full(6, 1 / 6))


def uniform(v):
    return RankedDistribution(np.full(v, 1.0 / v))


class TestAlphabet:
    def test_distinct_single_chars(self):
        with pytest.raises(ValueError):
            Alphabet.from_string("aa")
        with pytest.raises(ValueError):
            Alphabet(("ab",))
        assert Alphabet.latin(3).symbols == ("a", "b", "c")

    def test_index(self):
        assert AB.index("b") == 1
        with pytest.raises(ValueError):
            AB.index("z")


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: Alphabet(()), "alphabet must have at least one symbol"),
        (lambda: Alphabet.latin(0), "latin alphabet supports 1..26 symbols"),
        (lambda: Alphabet.latin(27), "latin alphabet supports 1..26 symbols"),
        (lambda: CodeTable((), AB), "code table must have at least one entry"),
        (lambda: CodeTable(("a", "ac"), AB), "code 'ac' uses symbols outside the alphabet"),
        (lambda: REPEATED.code(0), "rank must be in 1..6"),
        (lambda: REPEATED.code(7), "rank must be in 1..6"),
        (lambda: string_count_through_length(0, 1, 3), "alphabet size must be >= 1"),
        (lambda: code_length_for_rank(2, -1, 1), "l_min must be nonnegative"),
        (lambda: ranks_of_strings(AB, 2, ["ab", "a"]), "string 'a' is shorter than l_min=2"),
        (lambda: check_table_size(2, -1, 3), "l_min must be nonnegative"),
        (lambda: uniquely_decodable_lengths(UNIFORM6, 1),
         "uniquely decodable lengths need an alphabet of size >= 2"),
        (lambda: segmentations("ab", SELF_DELIMITING, cap=0), "cap must be >= 1"),
        (lambda: segmentations("ab", CodeTable(("", "a", "b"), AB)),
         "tables containing the empty code admit unbounded parse families"),
    ])
    def test_rejected_with_its_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_table_code_and_length(self):
        assert len(SELF_DELIMITING) == 6
        assert [SELF_DELIMITING.code(r) for r in (1, 6)] == ["b", "aabba"]


class TestEnumeration:
    def test_binary_sequence(self):
        assert nth_string(AB, 1, 1) == "a"
        assert nth_string(AB, 1, 3) == "aa"
        assert nth_string(AB, 1, 7) == "aaa"

    def test_first_eleven_binary(self):
        want = ["a", "b", "aa", "ab", "ba", "bb", "aaa", "aab", "aba", "abb", "baa"]
        got = [nth_string(AB, 1, i) for i in range(1, 12)]
        assert got == want

    def test_unary(self):
        assert nth_string(Alphabet.from_string("a"), 1, 3) == "aaa"

    def test_ternary_thirteenth(self):
        # 3 strings of length 1 + 9 of length 2 precede it
        assert nth_string(ABC, 1, 13) == "aaa"

    def test_empty_string_ranks_first_when_allowed(self):
        assert nth_string(AB, 0, 1) == ""
        assert nth_string(AB, 0, 2) == "a"

    def test_rank_of_string_inverts(self):
        for alphabet in (AB, ABC, Alphabet.from_string("a")):
            for l_min in (0, 1, 2):
                for i in range(1, 200):
                    s = nth_string(alphabet, l_min, i)
                    assert rank_of_string(alphabet, l_min, s) == i


class TestStringDigits:
    @pytest.mark.parametrize("n", [1, 2, 3, 26])
    @pytest.mark.parametrize("l_min", [0, 1, 2])
    def test_every_rank_matches_nth_string(self, n, l_min):
        # some full blocks and two ranks into the next one
        full = {1: 40, 26: 2}.get(n, 3)
        v = string_count_through_length(n, l_min, l_min + full - 1) + 2
        alphabet = Alphabet.latin(n)
        blocks = string_digits(n, l_min, v)
        assert [d.shape[1] for d in blocks] == list(range(l_min, l_min + len(blocks)))
        assert sum(d.shape[0] for d in blocks) == v
        got = ["".join(alphabet.symbols[k] for k in row) for d in blocks for row in d.tolist()]
        assert got == [nth_string(alphabet, l_min, i) for i in range(1, v + 1)]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5), l_min=st.integers(0, 3), v=st.integers(1, 400))
    def test_block_edges(self, n, l_min, v):
        blocks = string_digits(n, l_min, v)
        alphabet = Alphabet.latin(n)
        start = 1
        for d in blocks:
            for i in {start, start + d.shape[0] - 1}:  # first and last rank of the block
                row = d[i - start].tolist()
                assert "".join(alphabet.symbols[k] for k in row) == nth_string(alphabet, l_min, i)
            start += d.shape[0]

    def test_long_strings_have_leading_zero_digits(self):
        # offsets stay small even where N**length is far past int64
        (block,) = string_digits(26, 20, 3)
        assert block.shape == (3, 20)
        assert block[:, :19].max() == 0 and block[:, 19].tolist() == [0, 1, 2]

    def test_tables_share_the_helper(self):
        # symbols that are awkward as text: NUL, a lone surrogate, a non-BMP character
        alphabet = Alphabet(("\x00", "\ud800", "\U0001f600", "z"))
        for l_min in (0, 1, 2):
            table = optimal_nonsingular_code(uniform(100), alphabet, l_min, allow_empty=True)
            assert table.codes == tuple(nth_string(alphabet, l_min, i) for i in range(1, 101))

    def test_codes_never_call_nth_string(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("nth_string called")

        monkeypatch.setattr("optcoding.codebook.nth_string", refuse)
        assert optimal_nonsingular_code(UNIFORM6, AB, 1).codes[-1] == "bb"


class TestLengthForRank:
    def test_known_rows(self):
        assert code_length_for_rank(2, 1, 6) == 2
        assert code_length_for_rank(2, 1, 7) == 3  # ceil(log2(4.5))
        assert code_length_for_rank(2, 0, 1) == 0

    def test_matches_float_formula_away_from_boundaries(self):
        for n, l_min, i in [(2, 1, 5), (3, 1, 100), (5, 2, 1234), (26, 1, 999)]:
            expect = math.ceil(math.log((1 - 1 / n) * i + n ** (l_min - 1), n))
            assert code_length_for_rank(n, l_min, i) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 26])
    @pytest.mark.parametrize("l_min", [0, 1, 2])
    def test_length_law_matches_enumeration(self, n, l_min):
        lengths = [len(s) for s in itertools.islice(enumerated_strings(n, l_min), 1999)]
        assert [code_length_for_rank(n, l_min, i) for i in range(1, 2000)] == lengths
        assert code_length_for_rank(n, l_min, np.arange(1, 2000)).tolist() == lengths

    @pytest.mark.parametrize("n", [2, 3, 5, 26])
    @pytest.mark.parametrize("l_min", [0, 1, 2])
    def test_step_boundaries(self, n, l_min):
        # the largest rank of length l is the cumulative string count
        for l in range(l_min, l_min + 4):
            boundary = string_count_through_length(n, l_min, l)
            assert code_length_for_rank(n, l_min, boundary) == l
            assert code_length_for_rank(n, l_min, boundary + 1) == l + 1

    def test_unary_case(self):
        assert code_length_for_rank(1, 1, 7) == 7
        assert code_length_for_rank(1, 0, 7) == 6

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 26),
        st.integers(0, 3),
        st.lists(st.integers(1, 2**62), max_size=12),
        st.lists(st.integers(0, 8), max_size=4),
        st.integers(2**63, 2**90),
    )
    def test_array_scalar_and_enumeration_agree(self, n, l_min, ranks, blocks, big):
        if n == 1:  # unary strings are as long as their rank
            ranks = [r % 300 + 1 for r in ranks]
        # block ends and the rank one past each, where float formulas slip
        for l in blocks:
            end = string_count_through_length(n, l_min, l_min + l)
            ranks = ranks + [end, end + 1]
        lengths = code_length_for_rank(n, l_min, np.array(ranks, dtype=np.int64))
        assert lengths.dtype == np.int64
        assert lengths.tolist() == [code_length_for_rank(n, l_min, i) for i in ranks]

        def bracketed(i, l):  # the strings shorter than l end before rank i, those through l reach it
            through = string_count_through_length
            return through(n, l_min, l - 1) < i <= through(n, l_min, l)

        assert all(map(bracketed, ranks, lengths.tolist()))
        assert bracketed(big, code_length_for_rank(n, l_min, big))  # exact beyond int64

    @pytest.mark.parametrize("n", [2, 3, 26])
    @pytest.mark.parametrize("l_min", [10**6, 2**63 - 1])
    def test_lmin_past_every_rank_is_every_length(self, n, l_min):
        # N**l_min exceeds every rank, so no block bound is computed
        lengths = code_length_for_rank(n, l_min, np.array([1, 2, 2**62]))
        assert lengths.dtype == np.int64 and lengths.tolist() == [l_min] * 3
        assert code_length_for_rank(n, 10**19, 2**70) == 10**19
        with pytest.raises(ValueError, match="int64"):
            code_length_for_rank(n, 2**63, np.array([1, 3]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_lmin_at_the_rank_bit_length(self, n):
        for l_min in range(1, 14):
            ranks = [1, 2**l_min - 1, n**l_min, n**l_min + 1]
            expect = [len(nth_string(Alphabet.latin(n), l_min, i)) for i in ranks]
            assert code_length_for_rank(n, l_min, np.array(ranks)).tolist() == expect
            assert [code_length_for_rank(n, l_min, i) for i in ranks] == expect

    def test_array_edge_cases(self):
        assert code_length_for_rank(2, 1, np.array([], dtype=np.int64)).dtype == np.int64
        with pytest.raises(ValueError):
            code_length_for_rank(2, 1, np.array([3, 0]))
        with pytest.raises(ValueError):  # int64 lengths would wrap around
            code_length_for_rank(1, 2**63 - 2, np.array([1, 3]))


class TestAgainstEnumeration:
    """Every reader of the length blocks against `enumerated_strings`, which
    lists the strings with `itertools.product` and shares no code with them."""

    @pytest.mark.parametrize("n, top", [(1, 40), (2, 11), (3, 7), (4, 6), (26, 3)])
    @pytest.mark.parametrize("l_min", [0, 1, 2])
    def test_every_rank_through_a_length(self, n, top, l_min):
        strings = list(itertools.takewhile(lambda s: len(s) <= top, enumerated_strings(n, l_min)))
        v, lengths = len(strings), [len(s) for s in strings]
        alphabet = Alphabet.latin(n)
        assert string_count_through_length(n, l_min, top) == v
        assert [code_length_for_rank(n, l_min, i) for i in range(1, v + 1)] == lengths
        assert code_length_for_rank(n, l_min, np.arange(1, v + 1)).tolist() == lengths
        texts = ["".join(alphabet.symbols[k] for k in s) for s in strings]
        assert [nth_string(alphabet, l_min, i) for i in range(1, v + 1)] == texts
        assert [tuple(row) for d in string_digits(n, l_min, v) for row in d.tolist()] == strings
        counts = []  # how many of the first i listed strings have each length
        for i, length in enumerate(lengths, start=1):
            if i > 1 and length == lengths[i - 2]:
                counts[-1] += 1
            else:
                counts.append(1)
            assert block_counts(n, l_min, i) == counts


# Each call with its integer arguments wrapped in I: run as Python ints and as
# numpy int64, the two must give the same value or the same error.  A child
# process runs them under a timeout: an int64 that wraps in N**l can keep a
# loop over lengths from ever ending.
NUMPY_TWIN_SCRIPT = """
import sys
import numpy as np
from optcoding import corpus
from optcoding.assign import RankedDistribution
from optcoding.codebook import *
from optcoding.maxent import CodeLength
from optcoding.randtype import *

def outcome(I):
    try:
        value = eval(sys.argv[1], globals(), {"I": I})
        return repr(value.tolist() if isinstance(value, np.ndarray) else value)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

print(outcome(int))
print(outcome(np.int64))
"""


class TestNumpyIntegers:
    @pytest.mark.parametrize("call", [
        "code_length_for_rank(I(26), 1, 10**18)",
        "code_length_for_rank(I(26), I(1), np.array([1, 10**18]))",
        "CodeLength(I(10), 1)(10**19 - 1)",
        "CodeLength(I(10), I(1)).min_length",
        "string_count_through_length(I(10), 1, 20)",
        "block_counts(I(10), I(1), 10**19)",
        "nth_string(Alphabet.latin(26), I(1), 10**18)",
        "check_table_size(1, I(2**40), I(2**40))",
        "uniquely_decodable_lengths(RankedDistribution([0.5, 0.5 - 1e-12, 1e-12]), I(10))",
        "generate(RandomTypingParams(2, 0.5, I(2**61)), 0, 8)",
        "rank_probability(RandomTypingParams(I(26), 0.18), 10**18)",
        "corpus.optimal_recoding(corpus.table_from_tokens(['ab', 'ab', 'c']),"
        " Alphabet.latin(3), I(2**62)).l_optimal",
    ])
    def test_same_outcome_as_python_ints(self, call):
        out = subprocess.run([sys.executable, "-c", NUMPY_TWIN_SCRIPT, call],
                             capture_output=True, text=True, timeout=60, check=True)
        as_int, as_numpy = out.stdout.splitlines()
        assert as_numpy == as_int


class TestOptimalTable:
    def test_six_binary_codes(self):
        table = optimal_nonsingular_code(UNIFORM6, AB, 1)
        assert table.codes == ("a", "b", "aa", "ab", "ba", "bb")

    def test_single_rank(self):
        table = optimal_nonsingular_code(uniform(1), ABC, 1)
        assert table.codes == ("a",)

    def test_unary_alphabet(self):
        table = optimal_nonsingular_code(UNIFORM6, Alphabet.from_string("a"), 1)
        assert table.codes == ("a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa")

    def test_empty_string_gate(self):
        with pytest.raises(ValueError):
            optimal_nonsingular_code(UNIFORM6, AB, 0)
        table = optimal_nonsingular_code(UNIFORM6, AB, 0, allow_empty=True)
        assert table.codes[0] == ""

    def test_never_emits_duplicates(self):
        for n, v in [(2, 100), (3, 50), (26, 60)]:
            table = optimal_nonsingular_code(uniform(v), Alphabet.latin(n), 1)
            assert len(set(table.codes)) == v

    def test_tables_past_the_character_cap_are_refused(self):
        unary = Alphabet.from_string("a")
        # 14142 unary codes hold 100,005,153 characters
        optimal_nonsingular_code(uniform(2), unary, 1)
        with pytest.raises(ValueError, match="characters"):
            optimal_nonsingular_code(uniform(14_142), unary, 1)
        check_table_size(1, 1, 14_141)
        with pytest.raises(ValueError, match="characters"):
            check_table_size(2, 1, 10**12)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5), l_min=st.integers(0, 3), v=st.integers(1, 300))
    def test_character_count_is_the_closed_form(self, n, l_min, v):
        chars = sum(len(nth_string(Alphabet.latin(n), l_min, i)) for i in range(1, v + 1))
        with pytest.MonkeyPatch.context() as m:
            m.setattr("optcoding.codebook.MAX_TABLE_CHARS", chars)
            check_table_size(n, l_min, v)
            m.setattr("optcoding.codebook.MAX_TABLE_CHARS", chars - 1)
            with pytest.raises(ValueError, match=f"needs {chars} characters"):
                check_table_size(n, l_min, v)

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_nonsingular_tables(self, seed):
        rng = np.random.default_rng(seed)
        v = 12
        d = RankedDistribution.from_weights(rng.random(v) + 1e-3)
        best = optimal_nonsingular_code(d, AB, 1)
        l_best = mean_code_length(best, d)
        lengths = best.lengths()
        for _ in range(1000):
            perm = rng.permutation(v)
            l_perm = float(d.probs @ lengths[perm])
            assert l_best <= l_perm + 1e-15
            # lengthened variant: push one rank further down the enumeration
            k = int(rng.integers(0, v))
            longer = lengths.astype(float).copy()
            longer[k] = len(nth_string(AB, 1, v + 1 + int(rng.integers(0, 50))))
            assert l_best <= float(d.probs @ longer) + 1e-15


class TestShannonLengths:
    def test_uniform_over_alphabet(self):
        d = uniform(3)
        assert uniquely_decodable_lengths(d, 3).tolist() == [1, 1, 1]

    def test_dyadic_is_exact(self):
        d = RankedDistribution(np.array([0.5, 0.25, 0.125, 0.125]))
        lengths = uniquely_decodable_lengths(d, 2)
        assert lengths.tolist() == [1, 2, 3, 3]
        assert sum(Fraction(1, 2**k) for k in lengths.tolist()) == 1

    def test_float_estimate_past_a_dyadic_length_is_snapped_back(self):
        # -log(2**-29) / log(2) is 29.000000000000004 in floats, so the
        # estimate for the last two ranks is 30 and must come down to 29.
        probs = [2.0**-k for k in range(1, 30)] + [2.0**-29]
        assert math.ceil(-math.log(probs[-1]) / math.log(2)) == 30
        lengths = uniquely_decodable_lengths(RankedDistribution(np.array(probs)), 2)
        assert lengths.tolist() == list(range(1, 30)) + [29]
        assert sum(Fraction(1, 2**k) for k in lengths.tolist()) == 1

    def test_skewed_pair(self):
        d = RankedDistribution(np.array([0.9, 0.1]))
        assert uniquely_decodable_lengths(d, 2).tolist() == [1, 4]

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            uniquely_decodable_lengths(RankedDistribution(np.array([1.0, 0.0])), 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_kraft_inequality_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = RankedDistribution.from_weights(rng.random(int(rng.integers(2, 30))) + 1e-9)
        lengths = uniquely_decodable_lengths(d, n)
        assert sum(Fraction(1, n**int(k)) for k in lengths) <= 1


class TestClassify:
    def test_repeated_codes_are_singular(self):
        assert classify(REPEATED).label == "singular"

    def test_shuffled_shortest_strings(self):
        c = classify(SHUFFLED_NONSINGULAR)
        assert c.non_singular and not c.uniquely_decodable
        assert c.label == "non-singular"

    def test_self_delimiting_codes_decode_uniquely(self):
        c = classify(SELF_DELIMITING)
        assert c.uniquely_decodable

    def test_suffix_code_is_ud_but_not_instantaneous(self):
        c = classify(CodeTable(("b", "ba"), AB))
        assert c.uniquely_decodable and not c.instantaneous
        assert c.label == "uniquely decodable"

    def test_fixed_length_is_instantaneous(self):
        c = classify(CodeTable(("aa", "ab", "ba", "bb"), AB))
        assert c.instantaneous
        assert c.label == "instantaneous"

    def test_empty_code_breaks_unique_decoding(self):
        c = classify(CodeTable(("", "a"), AB))
        assert c.non_singular and not c.uniquely_decodable

    def test_hierarchy_enforced(self):
        with pytest.raises(ValueError):
            CodeClass(non_singular=False, uniquely_decodable=True, instantaneous=False)
        with pytest.raises(ValueError):
            CodeClass(non_singular=True, uniquely_decodable=False, instantaneous=True)

    @pytest.mark.parametrize("seed", range(20))
    def test_hierarchy_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        codes = []
        for _ in range(int(rng.integers(2, 7))):
            length = int(rng.integers(1, 4))
            codes.append("".join(AB.symbols[d] for d in rng.integers(0, 2, length)))
        c = classify(CodeTable(tuple(codes), AB))
        if c.instantaneous:
            assert c.uniquely_decodable
        if c.uniquely_decodable:
            assert c.non_singular
        # cross-check non-singularity directly
        assert c.non_singular == (len(set(codes)) == len(codes))

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_sardinas_patterson_against_short_message_search(self, v):
        """Every non-UD verdict must come with colliding concatenations and
        every UD verdict must survive an exhaustive short-message search."""
        rng = np.random.default_rng(v)
        for _ in range(30):
            codes = tuple(
                "".join(AB.symbols[d] for d in rng.integers(0, 2, rng.integers(1, 4)))
                for _ in range(v)
            )
            if len(set(codes)) != len(codes):
                continue
            table = CodeTable(codes, AB)
            ud = classify(table).uniquely_decodable
            collision = _has_colliding_concatenation(codes, depth=6)
            assert ud == (not collision)


def _has_colliding_concatenation(codes, depth):
    """Two distinct codeword sequences producing one message, up to `depth` words."""
    seen = {}
    frontier = {("", ())}
    for _ in range(depth):
        nxt = set()
        for prefix, seq in frontier:
            for k, c in enumerate(codes):
                msg, s = prefix + c, seq + (k,)
                if msg in seen and seen[msg] != s:
                    return True
                seen[msg] = s
                nxt.add((msg, s))
        frontier = nxt
    return False


class TestSegmentations:
    def test_ambiguous_message(self):
        parses = segmentations("baba", SHUFFLED_NONSINGULAR, cap=50)
        assert (4, 3, 4, 3) in parses
        assert (5, 5) in parses
        assert len(parses) >= 2

    def test_unique_message(self):
        assert segmentations("baba", SELF_DELIMITING, cap=50) == [(1, 2)]

    def test_empty_message_has_one_empty_parse(self):
        assert segmentations("", SELF_DELIMITING) == [()]

    def test_unparseable(self):
        assert segmentations("a", CodeTable(("aa", "ab"), AB)) == []

    def test_cap(self):
        table = CodeTable(("a", "aa"), AB)
        assert len(segmentations("a" * 12, table, cap=5)) == 5

    def test_foreign_symbols_rejected(self):
        with pytest.raises(ValueError):
            segmentations("xyz", SHUFFLED_NONSINGULAR)


class TestMeanCodeLength:
    def test_optimal_table_uniform(self):
        table = optimal_nonsingular_code(UNIFORM6, AB, 1)
        assert mean_code_length(table, UNIFORM6) == pytest.approx(5 / 3, abs=1e-15)

    def test_single_entry(self):
        table = CodeTable(("abc",), ABC)
        assert mean_code_length(table, uniform(1)) == 3.0

    def test_self_delimiting_uniform(self):
        assert mean_code_length(SELF_DELIMITING, UNIFORM6) == pytest.approx(11 / 3, abs=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mean_code_length(SELF_DELIMITING, uniform(5))


class TestSerialization:
    def test_json_carries_alphabet(self, capsys):
        assert cli.main(["codes", "--alphabet", "abc", "--ranks", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": "codes/1",
            "alphabet": ["a", "b", "c"],
            "codes": ["a", "b"],
        }

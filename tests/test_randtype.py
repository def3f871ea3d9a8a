import itertools
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optcoding import randtype
from optcoding.assign import Assignment, RankedDistribution, kendall_tau, pair_counts
from optcoding.codebook import (
    Alphabet,
    block_counts,
    code_length_for_rank,
    nth_string,
    rank_of_string,
    ranks_of_strings,
    string_count_through_length,
)
from optcoding.maxent import GeometricParams, geometric_pmf
from optcoding.randtype import (
    AbbreviationLaw,
    RandomTypingParams,
    _shortest_in_order,
    abbreviation_law,
    figure2_data,
    generate,
    rank_probabilities,
    rank_probability,
    verify_optimality,
    word_probability,
    word_ranks,
)

MILLER = RandomTypingParams(26, 0.18, 1)
BINARY = RandomTypingParams(2, 0.18, 1)


def tail_mass_beyond_length(params, l):
    """Closed form for the probability of words longer than l."""
    return (1.0 - params.p_s) ** (l - params.l_min + 1)


def length_pool(N, l_min, top):
    """Every string length from l_min through top, N**l copies of length l."""
    return np.repeat(np.arange(l_min, top + 1), [N**l for l in range(l_min, top + 1)])


def pool_optimality(N, l_min, lengths):
    """Reference for the block-count check: sorted lengths against the head
    of the explicit pool through one length past the longest used, with the
    Counter multiset test (foreign lengths count as not optimal)."""
    pool = length_pool(N, l_min, int(lengths.max()) + 1)
    used = Counter(lengths.tolist())
    if used - Counter(pool.tolist()) or used != Counter(pool[: lengths.size].tolist()):
        return False
    return bool(np.all(lengths[:-1] <= lengths[1:]))


class TestParams:
    def test_degenerate_stop_probabilities_rejected(self):
        with pytest.raises(ValueError):
            RandomTypingParams(2, 0.0, 1)
        with pytest.raises(ValueError):
            RandomTypingParams(2, 1.0, 1)

    def test_bias_validation(self):
        with pytest.raises(ValueError):
            RandomTypingParams(2, 0.5, 1, np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            RandomTypingParams(2, 0.5, 1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            RandomTypingParams(3, 0.5, 1, np.array([0.5, 0.5]))
        ok = RandomTypingParams(2, 0.5, 1, np.array([0.7, 0.3]))
        assert ok.letter_bias.tolist() == [0.7, 0.3]

    def test_bias_blocks_analytic_laws(self):
        biased = RandomTypingParams(2, 0.5, 1, np.array([0.7, 0.3]))
        with pytest.raises(ValueError):
            word_probability(biased, 1)
        with pytest.raises(ValueError):
            rank_probability(biased, 1)
        with pytest.raises(ValueError):
            abbreviation_law(biased)


class TestWordProbability:
    @pytest.mark.parametrize("p_s", [0.1, 0.18, 0.5])
    def test_binary_lengths_one_two_three(self, p_s):
        params = RandomTypingParams(2, p_s, 1)
        assert word_probability(params, 1) == pytest.approx(p_s / 2, abs=1e-15)
        assert word_probability(params, 2) == pytest.approx(
            (1 - p_s) * p_s / 4, abs=1e-15
        )
        assert word_probability(params, 3) == pytest.approx(
            (1 - p_s) ** 2 * p_s / 8, abs=1e-15
        )

    def test_below_minimum_length_rejected(self):
        with pytest.raises(ValueError):
            word_probability(RandomTypingParams(2, 0.5, 2), 1)

    @pytest.mark.parametrize("l_min", [1030, 2000, 10**6, pytest.param(10**400, id="1e400")])
    def test_scale_past_the_float_range_is_a_value_error(self, l_min):
        # p_s / (1 - p_s)**l_min is inf at 1030 (and 0.5**2000 is 0.0): the
        # table was nan, or the division raised ZeroDivisionError; 10**400
        # is past the float range itself, where float ** int raised
        # OverflowError, and abbreviation_law took log(0.0) from 10**6 on
        params = RandomTypingParams(2, 0.5, l_min)
        with pytest.raises(ValueError, match="overflows a float"):
            word_probability(params, l_min)
        with pytest.raises(ValueError, match="overflows a float"):
            rank_probability(params, 1)
        with pytest.raises(ValueError, match="overflows a float"):
            abbreviation_law(params)
        # past int64 the array of lengths is refused before the scale
        with pytest.raises(ValueError, match="overflows a float" if l_min < 2**63 else "int64"):
            rank_probabilities(params, 3)

    def test_length_past_the_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows a float"):
            word_probability(RandomTypingParams(2, 0.5, 1), 10**400)

    def test_largest_finite_scale_is_accepted(self):
        # 0.5 / 0.5**1024 = 2**1023, the largest power of two that is a float;
        # unary rank 1 has length l_min and probability p_s
        params = RandomTypingParams(1, 0.5, 1024)
        assert rank_probabilities(params, 2).tolist() == [0.5, 0.25]
        assert word_probability(params, 1024) == 0.5
        with pytest.raises(ValueError, match="overflows a float"):
            rank_probabilities(RandomTypingParams(1, 0.5, 1025), 2)


class TestRankProbability:
    def test_fourth_rank_binary(self):
        p_s = 0.3
        params = RandomTypingParams(2, p_s, 1)
        assert rank_probability(params, 4) == pytest.approx((1 - p_s) * p_s / 4, abs=1e-15)

    def test_rank_one_miller_parameters(self):
        # length 1, so ((1-ps)/26) * ps/(1-ps) = ps/26
        assert rank_probability(MILLER, 1) == pytest.approx(0.18 / 26, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 26])
    @pytest.mark.parametrize("p_s", [0.1, 0.18, 0.5])
    def test_total_mass_is_one(self, n, p_s):
        """Per-rank head summed exactly, plus the closed-form tail."""
        params = RandomTypingParams(n, p_s, 1)
        depth = 4 if n > 2 else 14
        head_ranks = string_count_through_length(n, 1, depth)
        head = float(rank_probabilities(params, head_ranks).sum())
        assert head + tail_mass_beyond_length(params, depth) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_vectorized_matches_scalar(self):
        # bit for bit: at N = 3, p_s = 0.5 numpy's power of a lone exponent 2
        # and its array power differ in the last bit
        ranks = np.arange(1, 201, dtype=np.int64)
        for n, l_min, p_s in itertools.product([1, 2, 3, 26], [0, 1, 3], [0.18, 0.5]):
            params = RandomTypingParams(n, p_s, l_min)
            lengths = code_length_for_rank(n, l_min, ranks)
            probs = rank_probabilities(params, 200)
            assert rank_probability(params, ranks).tobytes() == probs.tobytes()
            assert word_probability(params, lengths).tobytes() == probs.tobytes()
            assert [rank_probability(params, i) for i in ranks.tolist()] == probs.tolist()
            assert [word_probability(params, l) for l in lengths.tolist()] == probs.tolist()
        assert type(rank_probability(MILLER, 1)) is float

    def test_nonincreasing(self):
        probs = rank_probabilities(BINARY, 500)
        assert np.all(np.diff(probs) <= 0)


class TestAbbreviationLaw:
    @pytest.mark.parametrize("n", [1, 2, 5, 26])
    @pytest.mark.parametrize("p_s", [0.1, 0.18, 0.5, 0.9])
    @pytest.mark.parametrize("l_min", [0, 1, 3])
    def test_round_trip_inverts_word_probability(self, n, p_s, l_min):
        params = RandomTypingParams(n, p_s, l_min)
        law = abbreviation_law(params)
        assert law.a < 0
        for l in range(l_min, l_min + 21):
            p = word_probability(params, l)
            assert law.predict_length(p) == pytest.approx(l, abs=1e-12)

    def test_slope_value(self):
        law = abbreviation_law(RandomTypingParams(2, 0.5, 1))
        assert law.a == pytest.approx(1.0 / math.log(0.25), abs=1e-15)

    def test_positive_slope_rejected(self):
        with pytest.raises(ValueError):
            AbbreviationLaw(0.5, 1.0)


# The generator's word split before it wrote spaces into the letter buffer:
# one Python slice per word.
def oracle_generate(params, seed, n_words):
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(params.p_s, n_words) + (params.l_min - 1)
    if params.letter_bias is None:
        codes = rng.integers(0, params.N, int(lengths.sum()))
    else:
        codes = rng.choice(params.N, size=int(lengths.sum()), p=params.letter_bias)
    text = (codes + ord("a")).astype(np.uint8).tobytes().decode("ascii")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return [text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]


class TestGenerate:
    def test_high_stop_probability_pins_length(self):
        params = RandomTypingParams(2, 0.999, 1)
        words = generate(params, 5, 10_000)
        short = sum(1 for w in words if len(w) == 1)
        assert short >= 9900

    def test_letter_frequency_within_binomial_ci(self):
        params = RandomTypingParams(2, 0.5, 1)
        n = 1_000_000
        words = generate(params, 7, n)
        p_a = word_probability(params, 1)  # probability of the word "a"
        sigma = math.sqrt(p_a * (1 - p_a) / n)
        freq = sum(1 for w in words if w == "a") / n
        assert abs(freq - p_a) <= 3 * sigma

    def test_byte_identical_per_seed(self):
        params = RandomTypingParams(5, 0.4, 2)
        assert generate(params, 123, 5000) == generate(params, 123, 5000)

    def test_minimum_length_forced(self):
        params = RandomTypingParams(3, 0.6, 3)
        words = generate(params, 1, 2000)
        assert min(len(w) for w in words) >= 3

    def test_bias_shifts_letters(self):
        params = RandomTypingParams(2, 0.5, 1, np.array([0.9, 0.1]))
        words = generate(params, 11, 20_000)
        letters = "".join(words)
        share_a = letters.count("a") / len(letters)
        assert 0.88 < share_a < 0.92

    def test_empty_words_when_lmin_zero(self):
        params = RandomTypingParams(2, 0.5, 0)
        words = generate(params, 3, 1000)
        assert any(w == "" for w in words)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 26),
        st.floats(0.05, 0.95),
        st.sampled_from([0, 1, 3]),
        st.one_of(st.just(1), st.integers(1, 400)),
        st.booleans(),
        st.data(),
    )
    def test_matches_the_slicing_oracle(self, N, p_s, l_min, n_words, biased, data):
        bias = None
        if biased:
            w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=N, max_size=N)))
            bias = w / w.sum()
        params = RandomTypingParams(N, p_s, l_min, bias)
        seed = data.draw(st.integers(0, 2**32 - 1))
        assert generate(params, seed, n_words) == oracle_generate(params, seed, n_words)

    @pytest.mark.parametrize("l_min", [0, 1, 3])
    def test_letter_cap_is_inclusive(self, monkeypatch, l_min):
        params = RandomTypingParams(4, 0.3, l_min)
        words = generate(params, 9, 500)
        letters = sum(map(len, words))
        monkeypatch.setattr(randtype.codebook, "MAX_TABLE_CHARS", letters)
        assert generate(params, 9, 500) == words
        monkeypatch.setattr(randtype.codebook, "MAX_TABLE_CHARS", letters - 1)
        with pytest.raises(ValueError, match=f"needs {letters} letters"):
            generate(params, 9, 500)

    @pytest.mark.parametrize("p_s, l_min, n_words", [
        (1e-13, 1, 1), (1e-9, 1, 3), (1e-300, 2, 1),  # 1e-300: draws saturate at 2**63 - 1
        (1e-300, 1, 2),  # two saturated draws wrap an int64 sum
        (0.5, 10**400, 1),  # past the float range
    ])
    def test_too_many_letters_refused_before_drawing_them(self, p_s, l_min, n_words):
        with pytest.raises(ValueError, match="the limit is 100000000"):
            generate(RandomTypingParams(2, p_s, l_min), 0, n_words)


class TestWordRanks:
    def test_inverts_enumeration(self):
        from optcoding.codebook import Alphabet, nth_string

        alphabet = Alphabet.latin(3)
        params = RandomTypingParams(3, 0.5, 1)
        words = [nth_string(alphabet, 1, i) for i in range(1, 400)]
        assert word_ranks(params, words).tolist() == list(range(1, 400))

    def test_huge_ranks_exact(self):
        params = RandomTypingParams(26, 0.5, 1)
        word = "z" * 40  # rank far beyond int64
        ranks = word_ranks(params, [word, "a"])
        value = 0  # recompute directly with Python ints
        for ch in word:
            value = value * 26 + (ord(ch) - ord("a"))
        assert ranks[0] == string_count_through_length(26, 1, 39) + value + 1
        assert ranks[1] == 1

    def test_foreign_letters_rejected(self):
        params = RandomTypingParams(2, 0.5, 1)
        with pytest.raises(ValueError):
            word_ranks(params, ["c"])

    def test_no_words(self):
        ranks = word_ranks(RandomTypingParams(3, 0.5, 1), [])
        assert ranks.dtype == np.int64 and ranks.size == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 26),
        st.integers(0, 2),
        st.lists(st.integers(1, 2**90), min_size=1, max_size=12),
    )
    def test_round_trip_through_enumeration(self, n, l_min, ranks):
        if n == 1:  # unary strings are as long as their rank
            ranks = [r % 300 + 1 for r in ranks]
        alphabet = Alphabet.latin(n)
        words = [nth_string(alphabet, l_min, r) for r in ranks]
        got = word_ranks(RandomTypingParams(n, 0.5, l_min), words)
        assert got.tolist() == ranks
        assert ranks_of_strings(alphabet, l_min, words).tolist() == ranks
        assert [rank_of_string(alphabet, l_min, w) for w in words] == ranks
        longest = max(len(w) for w in words)
        exact = string_count_through_length(n, l_min, longest) >= 2**63
        assert got.dtype == (object if exact else np.int64)


class TestVerifyOptimality:
    def test_binary_miller(self):
        report = verify_optimality(RandomTypingParams(2, 0.18, 1), 100)
        assert report.passed
        assert all(report.checks.values())

    def test_unary_reduces_to_geometric(self):
        params = RandomTypingParams(1, 0.3, 1)
        report = verify_optimality(params, 50)
        assert report.passed
        geo = GeometricParams(0.3)
        for i in range(1, 50):
            assert rank_probability(params, i) == pytest.approx(
                geometric_pmf(geo, i), abs=1e-15
            )

    def test_full_alphabet_and_mean_length_consistency(self):
        report = verify_optimality(MILLER, 1000)
        assert report.passed
        probs = rank_probabilities(MILLER, 1000)
        lengths = np.array(
            [code_length_for_rank(26, 1, i) for i in range(1, 1001)], dtype=float
        )
        # mean length over the (renormalized) head equals the weighted sum
        d = RankedDistribution(probs / probs.sum())
        assert float(d.probs @ lengths) == pytest.approx(
            sum(p * l for p, l in zip(d.probs, lengths)), rel=1e-12
        )

    def test_unary_and_empty_string_tables(self):
        for params in (RandomTypingParams(1, 0.3, 0), RandomTypingParams(3, 0.4, 0),
                       RandomTypingParams(2, 0.5, 2)):
            report = verify_optimality(params, 200)
            assert report.passed, report.checks

    def test_unary_table_past_the_size_cap_is_refused(self):
        with pytest.raises(ValueError, match="characters"):
            verify_optimality(RandomTypingParams(1, 0.3, 1), 10**6)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_paper_scale_runs_in_bounded_memory(self):
        # The explicit pool of every string length through one past the
        # table is 26**5 entries here and needed about 750 MB.  The child's
        # ru_maxrss would also count the test runner's own peak, which the
        # kernel carries over at exec, so the child reports its VmHWM.
        script = (
            "import re\n"
            "from optcoding.randtype import RandomTypingParams, verify_optimality\n"
            "report = verify_optimality(RandomTypingParams(26, 0.18), 200_000)\n"
            "assert report.passed and len(report.checks) == 4, report\n"
            "status = open('/proc/self/status').read()\n"
            "print(int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)) // 1024)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True)
        assert int(out.stdout) < 300

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_long_minimum_length_runs_in_bounded_memory(self):
        # Five strings of 300,000 letters: a sort key per letter position
        # peaked near 830 MB, and the length check built l_min zeros; the
        # child reports its own VmHWM, as above
        script = (
            "import re\n"
            "from optcoding.randtype import RandomTypingParams, verify_optimality\n"
            "report = verify_optimality(RandomTypingParams(2, 0.5, 3 * 10**5), 5)\n"
            "assert report.passed and len(report.checks) == 4, report\n"
            "status = open('/proc/self/status').read()\n"
            "print(int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)) // 1024)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=60)
        assert int(out.stdout) < 200

    @pytest.mark.parametrize("blocks, distinct", [
        ([np.zeros((2, 0), np.uint8)], False),  # the empty string twice
        ([np.zeros((2, 3), np.uint8)], False),  # no position varies
        ([np.array([[0, 1, 1], [0, 1, 0]], np.uint8)], True),
        ([np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], np.uint8)], False),
    ])
    def test_distinct_rows_need_a_varying_position(self, blocks, distinct):
        length = blocks[0].shape[1]
        assert randtype._uses_every_string(2, length, length, blocks) == distinct

    @pytest.mark.parametrize("n", [1, 30, 64])
    def test_every_alphabet_size_reports_all_four_checks(self, n):
        for l_min in (0, 1, 2):
            report = verify_optimality(RandomTypingParams(n, 0.3, l_min), 200 if n == 1 else 5000)
            assert len(report.checks) == 4 and report.passed, (l_min, report)

    @pytest.mark.parametrize("i_max", [3000, 4000, 14000])
    def test_unary_law_past_float_underflow(self, i_max):
        # 0.82**l is subnormal near l = 3,745 and 0.0 beyond; 14000 is below
        # the unary table's size cap of 14142 ranks
        report = verify_optimality(RandomTypingParams(1, 0.18), i_max)
        assert report.passed, report.failures

    @pytest.mark.parametrize("p_s", [1e-17, 1e-15, 1 - 1e-12])
    def test_unary_law_at_extreme_stop_probabilities(self, p_s):
        # 1 - 1e-17 rounds to 1.0; 1e-12**l underflows after a few dozen letters
        report = verify_optimality(RandomTypingParams(1, p_s), 200)
        assert report.passed, report.failures

    @pytest.mark.parametrize("params, i_max", [
        (RandomTypingParams(1, 0.18), 14000),
        (RandomTypingParams(3, 0.4, 0), 5000),
        (MILLER, 20000),
    ])
    def test_log_ratios_give_the_rank_law(self, params, i_max):
        probs = rank_probabilities(params, i_max)
        lengths = code_length_for_rank(params.N, params.l_min, np.arange(1, i_max + 1))
        log_ratios = randtype._log_probability_ratios(params, lengths)
        assert np.all(np.isfinite(log_ratios)) and log_ratios[0] == 0.0
        law = np.exp(math.log(probs[0]) + log_ratios)
        normal = probs >= np.finfo(float).tiny
        assert normal.sum() >= min(i_max, 3000)
        np.testing.assert_allclose(law[normal], probs[normal], rtol=1e-12, atol=0)

    def test_injected_fault_fails_both_probability_checks(self, monkeypatch):
        real = randtype._log_probability_ratios

        def swapped(params, lengths):
            faulty = lengths.copy()
            faulty[[0, -1]] = faulty[[-1, 0]]  # no longer nondecreasing
            return real(params, faulty)

        monkeypatch.setattr(randtype, "_log_probability_ratios", swapped)
        report = verify_optimality(BINARY, 30)
        assert not report.checks["equal_length_equiprobable"]
        assert not report.checks["probability_nonincreasing"]
        assert report.checks["assignment_optimal"]
        assert report.checks["all_strings_of_used_lengths"]
        assert report.failures == (
            "words of equal length are not equally probable",
            "rank probabilities do not decrease stepwise",
        )

    def test_never_builds_strings(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("nth_string called")

        monkeypatch.setattr("optcoding.codebook.nth_string", refuse)
        assert verify_optimality(MILLER, 2000).passed

    @pytest.mark.parametrize("corrupt", ["duplicate", "drop", "foreign", "no block", "reorder"])
    def test_corrupted_digit_table(self, monkeypatch, corrupt):
        from optcoding import codebook

        real = codebook.string_digits

        def corrupted(N, l_min, V):
            blocks = real(N, l_min, V)
            d = blocks[1]  # the complete block of the two-letter strings
            if corrupt == "duplicate":
                d[5] = d[4]
            elif corrupt == "drop":
                blocks[1] = np.delete(d, 5, axis=0)
            elif corrupt == "foreign":
                d[5, 0] = N
            elif corrupt == "no block":
                del blocks[1]
            else:  # a permutation of the block still holds every string
                blocks[1] = d[::-1]
            return blocks

        monkeypatch.setattr(codebook, "string_digits", corrupted)
        report = verify_optimality(RandomTypingParams(3, 0.3, 1), 30)
        assert report.checks["all_strings_of_used_lengths"] == (corrupt == "reorder")
        assert report.checks["assignment_optimal"]
        assert report.passed == (corrupt == "reorder")

    def test_report_is_structured(self):
        report = verify_optimality(BINARY, 20)
        assert set(report.checks) == {
            "equal_length_equiprobable",
            "probability_nonincreasing",
            "assignment_optimal",
            "all_strings_of_used_lengths",
        }
        assert report.failures == ()


class TestBlockCountCheck:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), l_min=st.integers(0, 2), v=st.integers(1, 60))
    def test_block_counts_are_the_head_of_the_pool(self, n, l_min, v):
        top = code_length_for_rank(n, l_min, v)
        head = np.bincount(length_pool(n, l_min, top + 1)[:v] - l_min)
        assert block_counts(n, l_min, v) == head.tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 4),
        l_min=st.integers(0, 2),
        v=st.integers(1, 60),
        mutation=st.sampled_from(["none", "swap", "bump", "drop", "shorten"]),
        where=st.tuples(st.integers(0, 59), st.integers(0, 59)),
    )
    def test_agrees_with_the_explicit_pool(self, n, l_min, v, mutation, where):
        lengths = code_length_for_rank(n, l_min, np.arange(1, v + 1))
        i, j = where[0] % v, where[1] % v
        if mutation == "swap":
            lengths[i], lengths[j] = lengths[j], lengths[i]
        elif mutation == "bump":
            lengths[i] += 1
        elif mutation == "drop":  # a string of the next block instead
            lengths[i] = lengths.max() + 1
        elif mutation == "shorten" and lengths[i] > 0:
            lengths[i] -= 1
        assert _shortest_in_order(n, l_min, lengths) == pool_optimality(n, l_min, lengths)

    def test_detects_a_length_past_the_boundary(self):
        lengths = code_length_for_rank(2, 1, np.arange(1, 7))  # 1 1 2 2 2 2
        assert _shortest_in_order(2, 1, lengths)
        lengths[-1] = 3
        assert not _shortest_in_order(2, 1, lengths)
        lengths = np.array([1, 2, 1, 2, 2, 2])
        assert not _shortest_in_order(2, 1, lengths)


class TestFigureData:
    def test_row_count_and_first_plateau(self):
        ranks, probs = figure2_data(MILLER, 1000)
        assert len(ranks) == len(probs) == 1000
        assert np.ptp(probs[:26]) == 0.0  # first 26 values equal
        assert probs[26] < probs[25]

    def test_binary_plateau_widths(self):
        _, probs = figure2_data(RandomTypingParams(2, 0.18, 1), 1000)
        # plateaus of widths 2, 4, 8, ... at cumulative boundaries
        edges = np.flatnonzero(np.diff(probs) < 0) + 1
        expected = np.cumsum([2**l for l in range(1, 10)])
        assert edges.tolist() == expected[expected < 1000].tolist()

    def test_single_row(self):
        ranks, probs = figure2_data(MILLER, 1)
        assert ranks.tolist() == [1]
        assert probs[0] == rank_probability(MILLER, 1)


class TestStepLaw:
    @pytest.mark.parametrize("n,p_s,l_min", [(2, 0.18, 1), (3, 0.4, 0), (26, 0.18, 1)])
    def test_constant_on_length_blocks_strict_across(self, n, p_s, l_min):
        params = RandomTypingParams(n, p_s, l_min)
        i_max = 1500
        probs = rank_probabilities(params, i_max)
        lengths = np.array(
            [code_length_for_rank(n, l_min, i) for i in range(1, i_max + 1)]
        )
        for l in np.unique(lengths):
            block = probs[lengths == l]
            assert np.ptp(block) == 0.0
        boundaries = np.flatnonzero(np.diff(lengths) > 0)
        assert np.all(np.diff(probs)[boundaries] < 0)


class TestEmpiricalConvergence:
    def test_chi_square_against_exact_law(self):
        """Seeded medium-size corpus versus the analytic rank law."""
        from scipy import stats

        params = MILLER
        n = 200_000
        words = generate(params, 1, n)
        probs = rank_probabilities(params, 2000)
        kmax = int(np.flatnonzero(n * probs >= 50)[-1]) + 1
        max_len = code_length_for_rank(26, 1, kmax)
        short = [w for w in words if len(w) <= max_len]
        ranks = word_ranks(params, short)
        obs_head = np.bincount(ranks, minlength=kmax + 1)[1 : kmax + 1]
        obs = np.append(obs_head, n - obs_head.sum())
        exp_head = n * probs[:kmax]
        exp = np.append(exp_head, n - exp_head.sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        p_value = float(stats.chi2.sf(stat, len(obs) - 1))
        assert p_value > 0.001

    def test_kendall_tau_of_analytic_law_has_no_concordant_pairs(self):
        probs = rank_probabilities(BINARY, 300)
        lengths = np.array(
            [code_length_for_rank(2, 1, i) for i in range(1, 301)], dtype=float
        )
        d = RankedDistribution(probs / probs.sum())
        n_c, n_d = pair_counts(d, Assignment(lengths))
        assert n_c == 0
        assert kendall_tau(d, Assignment(lengths)) <= 0

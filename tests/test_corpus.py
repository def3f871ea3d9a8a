import json
import math
import re
import unicodedata

import numpy as np
import pytest
import regex
from hypothesis import given, settings
from hypothesis import strategies as st

from optcoding import cli, corpus
from optcoding.assign import Assignment, kendall_tau
from optcoding.codebook import Alphabet, code_length_for_rank, mean_code_length
from optcoding.corpus import (
    FrequencyTable,
    abbreviation_analysis,
    analyze,
    build_table,
    frequency_spectrum,
    optimal_recoding,
    rank_frequency_fit,
    read_magnitudes,
    read_text,
    table_from_tokens,
    tokenize,
)
from optcoding.maxent import FAMILIES, GeometricParams, ZetaParams, fit_mle, sample

AB = Alphabet.from_string("ab")
LATIN = Alphabet.latin(26)


def zeta_token_table(alpha, seed, n):
    ranks = sample(ZetaParams(alpha), seed, n)
    return table_from_tokens(f"t{int(v)}" for v in ranks.tolist())


class TestTokenizer:
    def test_whitespace_split(self):
        assert tokenize("a b  b\nc\tc c") == ["a", "b", "b", "c", "c", "c"]

    def test_case_folding(self):
        assert tokenize("The the THE", lowercase=True) == ["the", "the", "the"]

    def test_punctuation_strip_keeps_internal_marks(self):
        text = "Hello, world! \"Quoted\" (parens) end... don't -- dash"
        assert tokenize(text) == [
            "Hello", "world", "Quoted", "parens", "end", "don't", "dash",
        ]

    def test_punctuation_kept_on_request(self):
        assert tokenize("wait!", strip_punctuation=False) == ["wait!"]

    def test_chunk_that_casefolds_to_ascii(self):
        # KELVIN SIGN and LONG S fold to ASCII letters, so the folded chunk
        # strips with the ASCII punctuation constant
        text = "(\u212a), \u017fo! \u212a\u017f..."
        assert tokenize(text, lowercase=True) == oracle_tokenize(text, lowercase=True)
        assert tokenize(text, lowercase=True) == ["k", "so", "ks"]

    def test_casefold_keeps_punctuation_and_whitespace_in_place(self):
        # Why the tokenizer may casefold a whole chunk before splitting and
        # stripping it: no code point that casefold changes is P* or
        # whitespace, and each folds to a nonempty string holding neither.
        def stop(c):
            return c.isspace() or unicodedata.category(c).startswith("P")

        changed = [c for c in map(chr, range(0x110000)) if c.casefold() != c]
        assert len(changed) > 1000
        for c in changed:
            folded = c.casefold()
            assert folded and not stop(c) and not any(map(stop, folded)), hex(ord(c))

    def test_ascii_punctuation_constant(self):
        ascii_p = [c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")]
        assert sorted(corpus._ASCII_PUNCT) == ascii_p


class TestBuildTable:
    def test_counts_and_order(self):
        table = build_table("a b b c c c")
        assert table.types == ("c", "b", "a")
        assert table.frequencies.tolist() == [3, 2, 1]
        assert table.magnitudes.tolist() == [1.0, 1.0, 1.0]
        assert table.total_tokens == 6

    def test_case_folding_merges(self):
        table = build_table("The the THE", lowercase=True)
        assert table.types == ("the",)
        assert table.frequencies.tolist() == [3]

    def test_mixed_punctuation_golden(self):
        text = "Stop! stop. STOP? go -- go_now (go)"
        table = build_table(text, lowercase=True)
        assert table.types == ("stop", "go", "go_now")
        assert table.frequencies.tolist() == [3, 2, 1]
        assert table.magnitudes.tolist() == [4.0, 2.0, 6.0]

    def test_tie_order_is_first_occurrence(self):
        table = build_table("zz aa zz aa mm")
        assert table.types == ("zz", "aa", "mm")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_table("")
        with pytest.raises(ValueError):
            build_table("... ---")  # everything stripped away

    def test_streaming_lines_match_single_string(self):
        lines = ["a b b\n", "c c c\n"]
        assert build_table(lines).types == build_table("a b b c c c").types

    def test_counts_through_table_from_tokens_once(self, monkeypatch):
        # one counting path: every chunk reaches the public function, once
        calls = []
        counting = corpus.table_from_tokens

        def wrapper(tokens, **kwargs):
            calls.append(kwargs)
            return counting(tokens, **kwargs)

        monkeypatch.setattr(corpus, "table_from_tokens", wrapper)
        table = build_table(["a b b\n", "c c c\n"], magnitudes={"b": 2.5})
        assert calls == [{"magnitude": "chars", "magnitudes": {"b": 2.5}}]
        assert table.types == ("c", "b", "a")
        assert table.magnitudes.tolist() == [1.0, 2.5, 1.0]

    def test_sidecar_magnitudes_override(self):
        table = build_table("a b b", magnitudes={"b": 2.5})
        assert table.types == ("b", "a")
        assert table.magnitudes.tolist() == [2.5, 1.0]

    def test_grapheme_mode_counts_clusters(self):
        word = "café"  # combining accent: 5 chars, 4 graphemes
        chars = build_table(word)
        clusters = build_table(word, magnitude="graphemes")
        assert chars.magnitudes.tolist() == [5.0]
        assert clusters.magnitudes.tolist() == [4.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyTable(("a", "b"), np.array([1, 2]), np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError):
            FrequencyTable(("a",), np.array([2]), np.array([1.0]), 3)

    @pytest.mark.parametrize("types, freqs, mags, message", [
        ((), [], [], "frequency table must not be empty"),
        (("a", "b"), [2], [1.0, 1.0], "types, frequencies and magnitudes must align"),
        (("a", "b"), [2, 1], [1.0], "types, frequencies and magnitudes must align"),
        (("a", "b"), [2, 0], [1.0, 1.0], "frequencies must be positive"),
        (("a", "b"), [2, 1], [1.0, math.nan], "magnitudes must be finite"),
        (("a", "b"), [2**63, 1], [1.0, 1.0], "frequencies must fit in int64"),
        (("a", "b"), [2.9, 1.5], [1.0, 1.0], "frequencies must be integers"),
        (("a", "b"), [2, 1], [1.0, -1.0], "magnitudes must be nonnegative"),
    ])
    def test_validation_message(self, types, freqs, mags, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FrequencyTable(types, freqs, np.array(mags), sum(freqs))


# Reference implementations: the per-character stripper and the
# first-seen sort key that `tokenize` and the table builder replaced.
def oracle_tokenize(text, *, lowercase=False, strip_punctuation=True):
    tokens = []
    for raw in text.split():
        tok = raw
        if strip_punctuation:
            start, end = 0, len(tok)
            while start < end and unicodedata.category(tok[start]).startswith("P"):
                start += 1
            while end > start and unicodedata.category(tok[end - 1]).startswith("P"):
                end -= 1
            tok = tok[start:end]
        if lowercase:
            tok = tok.casefold()
        if tok:
            tokens.append(tok)
    return tokens


def oracle_table(tokens, magnitude="chars", magnitudes=None):
    counts = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    first_seen = {t: k for k, t in enumerate(counts)}
    ordered = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    measure = {"chars": len, "graphemes": lambda t: len(regex.findall(r"\X", t))}[magnitude]
    mags = [
        float(magnitudes[t]) if magnitudes is not None and t in magnitudes else float(measure(t))
        for t in ordered
    ]
    return tuple(ordered), [counts[t] for t in ordered], mags


# Letters, digits, every P* category (Pc Pd Ps Pe Pi Pf Po), S* symbols,
# combining marks, Unicode whitespace and casefold expanders.
CHARS = (
    list("aZé7")
    + list("_\u203f-\u2013([{)]}\u00ab\u2018\u00bb\u2019!.,\u00bf")
    + list("$+\u00a9\u20ac^\u02da")
    + ["\u0301", "\u0308"]
    + list(" \t\n\u00a0\u2003\u3000\u2028\x85")
    + list("\u00df\ufb01\u0130\u212a\u017f")
)
TEXT = st.text(alphabet=st.sampled_from(CHARS), max_size=60)
FLAGS = st.booleans()


def assert_matches_oracle(table, tokens, magnitude="chars", magnitudes=None):
    types, freqs, mags = oracle_table(tokens, magnitude, magnitudes)
    assert table.types == types
    assert table.frequencies.tolist() == freqs
    assert table.magnitudes.tolist() == mags
    assert table.total_tokens == len(tokens)


class TestAgainstOracles:
    def test_every_punctuation_category_is_covered(self):
        cats = {unicodedata.category(c) for c in CHARS}
        assert {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Mn"} <= cats
        assert {c for c in cats if c.startswith("S")} and {c for c in cats if c.startswith("Z")}

    @settings(max_examples=300, deadline=None)
    @given(TEXT, FLAGS, FLAGS)
    def test_tokenize(self, text, lowercase, strip):
        assert tokenize(text, lowercase=lowercase, strip_punctuation=strip) == oracle_tokenize(
            text, lowercase=lowercase, strip_punctuation=strip
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(TEXT, st.lists(TEXT, max_size=4)),
        FLAGS,
        FLAGS,
        st.sampled_from(["chars", "graphemes"]),
        st.data(),
    )
    def test_build_table(self, source, lowercase, strip, magnitude, data):
        chunks = [source] if isinstance(source, str) else source
        tokens = [
            tok
            for chunk in chunks
            for tok in oracle_tokenize(chunk, lowercase=lowercase, strip_punctuation=strip)
        ]
        kwargs = dict(lowercase=lowercase, strip_punctuation=strip, magnitude=magnitude)
        if not tokens:
            with pytest.raises(ValueError, match="no tokens"):
                build_table(source, **kwargs)
            return
        covered = data.draw(st.sets(st.sampled_from(sorted(set(tokens)))))
        sidecar = {t: 0.5 + k for k, t in enumerate(sorted(covered))}
        table = build_table(source, magnitudes=sidecar, **kwargs)
        assert_matches_oracle(table, tokens, magnitude, sidecar)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "ab", "\u00df", "e\u0301", "\U0001f44d\U0001f3fd"])),
        st.sampled_from(["chars", "graphemes"]),
    )
    def test_table_from_tokens(self, tokens, magnitude):
        if not tokens:
            with pytest.raises(ValueError, match="no tokens"):
                table_from_tokens(tokens, magnitude=magnitude)
            return
        table = table_from_tokens(iter(tokens), magnitude=magnitude)
        assert_matches_oracle(table, tokens, magnitude)

    def test_unknown_magnitude_mode_raises_with_a_full_sidecar(self):
        full = {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError, match="bogus"):
            table_from_tokens(["a", "b", "b"], magnitude="bogus", magnitudes=full)
        with pytest.raises(ValueError, match="bogus"):
            build_table("a b b", magnitude="bogus", magnitudes=full)


class TestReadHelpers:
    def test_read_text_reports_bad_byte_offset(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"good text \xff\xfe more")
        with pytest.raises(ValueError, match="offset 10"):
            read_text(p)

    def test_read_text_drops_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbfthe cat\n\xef\xbb\xbf")
        assert read_text(p) == "the cat\n\ufeff"  # only the leading mark

    def test_bad_byte_after_a_byte_order_mark_keeps_its_file_offset(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"\xef\xbb\xbfgood \xff more")
        with pytest.raises(ValueError, match="offset 8 "):
            read_text(p)

    def test_read_magnitudes(self, tmp_path):
        p = tmp_path / "mags.tsv"
        p.write_text("# duration data\nthe\t0.21\nof\t0.18\n")
        assert read_magnitudes(p) == {"the": 0.21, "of": 0.18}

    def test_read_magnitudes_rejects_duplicates_and_garbage(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text("a\t1.0\na\t2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_magnitudes(p)
        p2 = tmp_path / "neg.tsv"
        p2.write_text("a\t-1.0\n")
        with pytest.raises(ValueError):
            read_magnitudes(p2)

    def test_read_magnitudes_names_an_unparseable_value(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("a\t1\nb\tx\n")
        with pytest.raises(ValueError) as exc:
            read_magnitudes(p)
        assert str(exc.value) == f"{p}:2: magnitude 'x' is not a number"

    @pytest.mark.parametrize("text, want", [
        ("a\t1\nb\t2", {"a": 1.0, "b": 2.0}),
        ("a\t1\n#b\t2\n", {"a": 1.0}),
        (" \t 5\n", {" ": 5.0}),
        (" #a\t1\n", {" #a": 1.0}),  # only a first character '#' makes a comment here
    ])
    def test_read_magnitudes_reads(self, tmp_path, text, want):
        p = tmp_path / "ok.tsv"
        p.write_bytes(text.encode())
        assert read_magnitudes(p) == want

    def test_read_magnitudes_after_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "bom.tsv"
        p.write_bytes("\ufeffthe\t0.5\nof\t2\n".encode())
        assert read_magnitudes(p) == {"the": 0.5, "of": 2.0}

    @pytest.mark.parametrize("text, message", [
        # tab counts 2 and 1 that realign into numeric pairs in one split
        ("a\t1\t2\n5\t3\n", ":1: expected `type<TAB>magnitude`"),
        ("a\t1\t\n2\n", ":1: expected `type<TAB>magnitude`"),
        ("a\t1\nb\n", ":2: expected `type<TAB>magnitude`"),
        ("a\t1\nb", ":2: expected `type<TAB>magnitude`"),  # was read as {"a": 1.0}
        ("# x\n\na\t1\r\na\t2\n", ":4: duplicate type 'a'"),
        ("a\t1\nb\t\n", ":2: magnitude '' is not a number"),
        ("a\tnan\nb\tx\n", ":1: magnitude must be positive and finite"),
        ("a\t1\nb\tinf\n", ":2: magnitude must be positive and finite"),
        ("# a\t1\n \t \n", ": no magnitude entries"),
        # line ends a split at "\n" alone would read as part of the type
        *(
            (f"a{end}b\t1\n", ":1: expected `type<TAB>magnitude`")
            for end in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        ),
    ])
    def test_read_magnitudes_reports_the_first_bad_line(self, tmp_path, text, message):
        p = tmp_path / "bad.tsv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_magnitudes(p)
        assert str(exc.value) == f"{p}{message}"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_read_magnitudes_matches_the_line_walk(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "sidecar.tsv"
        path.write_bytes(data.draw(SIDECAR).encode())
        try:
            want = list(oracle_read_magnitudes(path).items())
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_magnitudes(path)
            assert str(got.value) == str(exc)
        else:
            assert list(read_magnitudes(path).items()) == want


# The line-by-line sidecar reader that `read_magnitudes` replaced, with the
# message for a value float() rejects.
def oracle_read_magnitudes(path):
    out = {}
    text = read_text(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected `type<TAB>magnitude`")
        t, m = parts
        if t in out:
            raise ValueError(f"{path}:{lineno}: duplicate type {t!r}")
        try:
            value = float(m)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: magnitude {m!r} is not a number") from None
        if not value > 0 or not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: magnitude must be positive and finite")
        out[t] = value
    if not out:
        raise ValueError(f"{path}: no magnitude entries")
    return out


# Sidecar texts: mostly valid rows, with blank and comment lines, rows of 0
# or 2 tabs, repeated types, values float() rejects or the reader refuses,
# and line endings splitlines() splits at, the last one sometimes left off.
# Half the files end every line with "\n" alone, the shape the reader parses
# without splitting lines first.
SIDE_TYPE = st.text(alphabet="abc1\u00e9# \u00a0", max_size=4)
SIDE_ROW = st.builds(
    "{}\t{}".format, SIDE_TYPE, st.floats(min_value=1e-3, max_value=1e6).map(repr)
)
SIDE_NOISE = st.one_of(
    st.sampled_from(["", "  ", " \t ", " \t 5", "#", "# a\t1", "#\t\t", "a", "a\t1\t", "\t"]),
    st.builds(
        "{}\t{}".format,
        SIDE_TYPE,
        st.sampled_from(["1", "0", "-1", "-0", "inf", "nan", "1_0", " 2 ", "x", "", "0x1"]),
    ),
    st.builds("#{}".format, SIDE_ROW),
)
SIDE_ENDS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]
SIDECAR = st.builds(
    lambda bom, rows, ends, ended: bom + "".join(
        map(str.__add__, rows, ends[: len(rows) - 1] + [ends[-1] * ended])
    ),
    st.sampled_from(["", "\ufeff"]),
    st.one_of(
        st.lists(SIDE_ROW, min_size=1, max_size=8, unique_by=lambda row: row.split("\t")[0]),
        st.lists(st.one_of(SIDE_ROW, SIDE_NOISE), max_size=8),
    ),
    st.one_of(
        st.just(["\n"] * 8),
        st.lists(st.sampled_from(SIDE_ENDS), min_size=8, max_size=8),
    ),
    st.booleans(),
)


class TestAbbreviationAnalysis:
    def test_partial_anti_order(self):
        table = table_from_tokens(["aa"] * 1 + ["b"] * 2 + ["c"] * 3)
        # frequencies (3,2,1) with magnitudes (1,1,2)
        res = abbreviation_analysis(table)
        assert res.tau == pytest.approx(-2 / 3)
        assert (res.n_c, res.n_d) == (0, 2)

    def test_equal_magnitudes_give_zero(self):
        table = table_from_tokens(["a"] * 3 + ["b"] * 2 + ["c"] * 1)
        assert abbreviation_analysis(table).tau == 0.0

    def test_perfect_anti_order(self):
        table = table_from_tokens(["a"] * 3 + ["bb"] * 2 + ["ccc"] * 1)
        assert abbreviation_analysis(table).tau == -1.0

    def test_single_type_rejected(self):
        with pytest.raises(ValueError):
            abbreviation_analysis(table_from_tokens(["a", "a"]))

    def test_matches_assign_kendall_tau_bit_for_bit(self):
        rng = np.random.default_rng(8)
        tokens = [f"w{int(v)}" * int(rng.integers(1, 4)) for v in rng.integers(0, 40, 2000)]
        table = table_from_tokens(tokens)
        res = abbreviation_analysis(table)
        direct = kendall_tau(table.ranked_distribution(), Assignment(table.magnitudes))
        assert res.tau == direct

    def test_note_attached(self):
        table = table_from_tokens(["a", "a", "bb"])
        assert "necessary condition" in abbreviation_analysis(table).note


class TestOptimalRecoding:
    def test_already_optimal_vocabulary_is_a_fixed_point(self):
        tokens = ["a"] * 4 + ["b"] * 3 + ["aa"] * 2 + ["ab"] * 1
        res = optimal_recoding(table_from_tokens(tokens), AB, 1)
        assert res.l_actual == res.l_optimal
        assert res.efficiency_ratio == 1.0

    def test_hand_computed_lengths(self):
        tokens = ["the"] * 3 + ["of"] * 2 + ["xylophone"] * 1
        res = optimal_recoding(table_from_tokens(tokens), LATIN, 1)
        assert res.l_actual == pytest.approx(22 / 6, abs=1e-15)
        assert res.l_optimal == pytest.approx(1.0, abs=1e-15)
        assert res.code_table.codes == ("a", "b", "c")

    def test_single_type_gets_lmin(self):
        res = optimal_recoding(table_from_tokens(["word", "word"]), AB, 1)
        assert res.l_optimal == 1.0

    def test_equals_formula_and_table_mean(self):
        table = zeta_token_table(2.0, 5, 5000)
        res = optimal_recoding(table, AB, 1)
        dist = table.ranked_distribution()
        formula = float(
            dist.probs
            @ np.array([code_length_for_rank(2, 1, i) for i in range(1, table.size + 1)])
        )
        assert abs(res.l_optimal - formula) < 1e-12
        assert abs(res.l_optimal - mean_code_length(res.code_table, dist)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_beats_random_rank_permutations(self, seed):
        rng = np.random.default_rng(seed)
        table = zeta_token_table(1.8, 40 + seed, 3000)
        res = optimal_recoding(table, AB, 1)
        lengths = res.code_table.lengths().astype(float)
        probs = table.ranked_distribution().probs
        for _ in range(1000):
            perm = rng.permutation(table.size)
            assert res.l_optimal <= float(probs @ lengths[perm]) + 1e-15

    @pytest.mark.parametrize("n_symbols", [1, 2, 3, 26])
    @pytest.mark.parametrize("l_min", [1, 2, 5])
    def test_means_are_exact_token_averages(self, n_symbols, l_min):
        table = zeta_token_table(1.8, 3, 50000)
        res = optimal_recoding(table, Alphabet.latin(n_symbols), l_min)
        freqs, n = table.frequencies.tolist(), table.total_tokens
        lengths = [code_length_for_rank(n_symbols, l_min, i) for i in range(1, table.size + 1)]
        assert res.l_actual == sum(f * len(t) for f, t in zip(freqs, table.types)) / n
        assert res.l_optimal == sum(f * l for f, l in zip(freqs, lengths)) / n

    def test_optimal_mean_at_an_l_min_near_the_int64_limit(self):
        table = table_from_tokens(["a", "b", "b", "c", "c", "c"])
        assert optimal_recoding(table, LATIN, 2**62).l_optimal == 2.0**62

    @pytest.mark.parametrize("alphabet", [AB, Alphabet.latin(1)], ids=["ab", "a"])
    def test_l_min_past_the_float_range_is_a_value_error(self, alphabet):
        # the exact mean code length divided to a float with OverflowError
        table = table_from_tokens(["a", "b", "b"])
        with pytest.raises(ValueError, match="overflows a float at l_min"):
            optimal_recoding(table, alphabet, 2**1030)

    def test_empty_code_rejected_at_call_time(self):
        with pytest.raises(ValueError, match="allow_empty"):
            optimal_recoding(table_from_tokens(["a", "b"]), AB, 0)

    def test_character_count_verification(self):
        table = build_table("the of of", magnitudes={"the": 9.0})
        res = optimal_recoding(table, LATIN, 1)  # durations are not checked against lengths
        assert res.l_actual == pytest.approx((2 * 2 + 9.0) / 3)


class TestFrequencySpectrum:
    def test_small_example(self):
        table = table_from_tokens(["a"] * 3 + ["b"] * 3 + ["c"])
        assert frequency_spectrum(table) == {1: 1, 3: 2}

    def test_all_distinct_frequencies(self):
        table = table_from_tokens(["a"] * 3 + ["b"] * 2 + ["c"])
        assert frequency_spectrum(table) == {1: 1, 2: 1, 3: 1}

    @pytest.mark.parametrize("seed", range(5))
    def test_conservation_laws(self, seed):
        rng = np.random.default_rng(seed)
        tokens = [f"t{int(v)}" for v in rng.integers(0, 60, 800)]
        table = table_from_tokens(tokens)
        spec = frequency_spectrum(table)
        assert sum(spec.values()) == table.size
        assert sum(f * n for f, n in spec.items()) == table.total_tokens

    def test_power_law_spectrum_slope(self):
        """Rank exponent alpha implies spectrum exponent 1 + 1/alpha; an
        exponent near 1 puts the slope near the classic value 2.  Regression
        is restricted to the reliable low-frequency region."""

        def fitted_slope(alpha, seed):
            spec = frequency_spectrum(zeta_token_table(alpha, seed, 100_000))
            f = np.array(sorted(spec), dtype=float)
            nf = np.array([spec[int(k)] for k in f], dtype=float)
            keep = nf >= 5
            return -np.polyfit(np.log(f[keep]), np.log(nf[keep]), 1)[0]

        assert abs(fitted_slope(2.0, 21) - 1.5) <= 0.3
        assert abs(fitted_slope(1.25, 21) - 2.0) <= 0.3


class TestRankFrequencyFit:
    def test_geometric_data_prefers_geometric(self):
        ranks = sample(GeometricParams(0.25), 31, 30_000)
        table = table_from_tokens(f"t{int(v)}" for v in ranks.tolist())
        assert rank_frequency_fit(table)[0].family == "geometric"

    def test_power_law_data_prefers_power_law(self):
        table = zeta_token_table(2.0, 32, 30_000)
        assert rank_frequency_fit(table)[0].family in ("zeta", "zipf-mandelbrot")

    def test_two_types_fit_with_warning(self):
        table = table_from_tokens(["a", "a", "b"])
        assert len(rank_frequency_fit(table)) == 3
        assert analyze(table, AB, 1).fit_warning is not None

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            rank_frequency_fit(table_from_tokens(["a"]))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 5000), min_size=2, max_size=40))
    def test_fits_equal_separate_fits_on_the_rank_counts(self, freqs):
        freqs = sorted(freqs, reverse=True)
        table = FrequencyTable(
            tuple(f"t{k}" for k in range(len(freqs))), freqs, [1.0] * len(freqs), sum(freqs)
        )
        observed = dict(enumerate(freqs, start=1))
        separate = sorted((fit_mle(observed, f) for f in FAMILIES),
                          key=lambda r: r.log_likelihood, reverse=True)
        assert list(rank_frequency_fit(table)) == separate


class TestAnalyze:
    def test_report_fields_and_json(self, tmp_path, capsys):
        table = build_table("a a a a bb bb cc ddd")
        report = analyze(table, AB, 1)
        assert report.recoding.l_optimal <= report.recoding.l_actual
        assert 0 < report.recoding.efficiency_ratio <= 1
        text = tmp_path / "corpus.txt"
        text.write_text("a a a a bb bb cc ddd\n")
        assert cli.main(["analyze", "--input", str(text), "--alphabet", "ab"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "analysis/1"
        assert payload["tau"] == report.abbreviation.tau
        assert len(payload["fits"]) == 3
        assert payload["l_actual"] == report.recoding.l_actual

    def test_analysis_matches_components(self):
        table = zeta_token_table(2.0, 33, 2000)
        report = analyze(table, LATIN, 1)
        assert report.abbreviation.tau == abbreviation_analysis(table).tau
        assert report.recoding.l_optimal == optimal_recoding(table, LATIN, 1).l_optimal

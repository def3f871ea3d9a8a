import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optcoding import cli, codebook, corpus, maxent
from optcoding.codebook import block_counts, code_length_for_rank, string_count_through_length
from optcoding.randtype import RandomTypingParams, figure2_data, rank_probability

CLI = [sys.executable, "-m", "optcoding"]


def run(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kwargs
    )


class TestCodes:
    def test_six_binary_codes_tsv(self):
        out = run("codes", "--alphabet", "ab", "--ranks", "6")
        assert out.returncode == 0
        assert out.stdout == "rank\tcode\n1\ta\n2\tb\n3\taa\n4\tab\n5\tba\n6\tbb\n"

    def test_csv_format(self):
        out = run("codes", "--alphabet", "ab", "--ranks", "2", "--format", "csv")
        assert out.stdout == "rank,code\n1,a\n2,b\n"

    def test_json_format(self):
        out = run("codes", "--alphabet", "xyz", "--ranks", "4", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload == {
            "schema": "codes/1",
            "alphabet": ["x", "y", "z"],
            "codes": ["x", "y", "z", "xx"],
        }

    def test_empty_string_needs_flag(self):
        bad = run("codes", "--alphabet", "ab", "--ranks", "3", "--lmin", "0")
        assert bad.returncode == 3
        # the message names the flag, not the library's allow_empty keyword
        assert bad.stderr == (
            "optcoding: error: --lmin 0 (the empty code string) needs --allow-empty\n"
        )
        assert bad.stdout == ""
        good =run("codes", "--alphabet", "ab", "--ranks", "3", "--lmin", "0",
                   "--allow-empty")
        assert good.stdout.splitlines()[1] == "1\t"


    def test_no_ranks_is_a_domain_error(self, capsys):
        assert cli.main(["codes", "--alphabet", "ab", "--ranks", "0"]) == 3
        assert capsys.readouterr() == ("", "optcoding: error: --ranks must be >= 1\n")

    @pytest.mark.parametrize("alphabet", ["ab", "a"])
    def test_table_too_large_to_build_is_a_domain_error(self, tmp_path, alphabet):
        target = tmp_path / "codes.tsv"
        res = run("codes", "--alphabet", alphabet, "--ranks", "1000000000000",
                  "--output", str(target))
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "characters" in res.stderr
        assert list(tmp_path.iterdir()) == []


class TestLengths:
    def test_header_and_values(self):
        out = run("lengths", "--N", "2", "--imax", "7")
        lines = out.stdout.splitlines()
        assert lines[0] == "i\tl_i"
        assert lines[1:] == ["1\t1", "2\t1", "3\t2", "4\t2", "5\t2", "6\t2", "7\t3"]

    def test_invalid_alphabet_size(self):
        assert run("lengths", "--N", "0", "--imax", "5").returncode == 3

    def test_large_lmin_is_every_length(self):
        out = run("lengths", "--N", "2", "--lmin", "1000000", "--imax", "3", timeout=30)
        assert out.stdout == "i\tl_i\n1\t1000000\n2\t1000000\n3\t1000000\n"


def one_line_error(*args):
    """Run a command that must fail within seconds with a one-line diagnostic."""
    res = run(*args, timeout=30)
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr, res.stderr
    assert res.stdout == ""
    return res


LMIN_COMMANDS = pytest.mark.parametrize("argv", [
    ("lengths", "--N", "2", "--imax", "3"),
    ("figure", "--N", "2", "--ps", "0.5", "--imax", "3"),
    ("codes", "--alphabet", "ab", "--ranks", "3"),
], ids=lambda argv: argv[0])


class TestLargeLmin:
    # N**l_min as an exact integer hung these commands; a scale past the
    # float range printed nan (or raised ZeroDivisionError) in `figure`
    @LMIN_COMMANDS
    def test_lmin_past_int64_is_a_domain_error(self, argv):
        assert one_line_error(*argv, "--lmin", str(10**19)).returncode == 3

    @LMIN_COMMANDS
    def test_negative_lmin_names_the_flag(self, tmp_path, argv):
        # the library's message named its l_min parameter, not the flag
        target = tmp_path / "out.tsv"
        res = one_line_error(*argv, "--lmin", "-1", "--output", str(target))
        assert res.returncode == 3
        assert res.stderr == "optcoding: error: --lmin must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lmin", ["1030", "2000"])
    def test_figure_scale_past_the_float_range(self, lmin):
        res = one_line_error("figure", "--N", "2", "--ps", "0.5", "--lmin", lmin, "--imax", "3")
        assert res.returncode == 3 and "overflows a float" in res.stderr

    @pytest.mark.parametrize("argv", [
        ("lengths", "--N", "1"), ("figure", "--N", "1", "--ps", "0.5"),
    ], ids=lambda argv: argv[0])
    def test_fault_past_the_first_chunk_writes_nothing(self, tmp_path, capsys, argv):
        # At N = 1 the lengths pass the int64 range at rank 70,002, in the
        # second 2**16-rank chunk of the law: the fault must come before any row
        argv = [*argv, "--lmin", str(2**63 - 70_001), "--imax", "100000"]
        for output in ([], ["--output", str(tmp_path / "out.txt")]):
            assert cli.main([*argv, *output]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err == "optcoding: error: code lengths beyond the int64 range\n"
        assert list(tmp_path.iterdir()) == []


# Values that the library refused with a message naming no flag, such as
# "expected non-negative integer" or "could not convert string to float: 'a'"
FLAG_ERRORS = [
    (["simulate", "--N", "3", "--ps", "0.2", "--words", "10", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["oracle", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["simulate", "--N", "2", "--ps", "0.2", "--words", "10", "--bias", "a,b"],
     "--bias must be 2 comma-separated numbers, got 'a,b'"),
    (["simulate", "--N", "2", "--ps", "0.2", "--words", "10", "--bias", "0.5"],
     "--bias must be 2 comma-separated numbers, got '0.5'"),
    (["lengths", "--N", "0", "--imax", "3"], "--N must be >= 1, got 0"),
    (["figure", "--N", "0", "--ps", "0.5", "--imax", "3"], "--N must be >= 1, got 0"),
    (["simulate", "--N", "0", "--ps", "0.2", "--words", "10"], "--N must be in 1..26, got 0"),
    (["simulate", "--N", "27", "--ps", "0.2", "--words", "10"], "--N must be in 1..26, got 27"),
    *[(["simulate", "--N", "2", "--ps", "0.2", "--words", "10", "--bias", bias],
       f"--bias entries must be positive and finite, got '{bias}'")
      for bias in ["0.5,-0.5", "0.5,nan", "0.5,inf"]],
    *[(["simulate", "--N", "2", "--ps", "0.2", "--words", "10", "--bias", bias],
       f"--bias must sum to 1, got '{bias}'") for bias in ["0.3,0.3", "1,1"]],
    (["figure", "--N", "2", "--ps", "1.5", "--imax", "3"],
     "--ps must be strictly between 0 and 1, got 1.5"),
    (["figure", "--N", "2", "--ps", "nan", "--imax", "3"],
     "--ps must be strictly between 0 and 1, got nan"),
    (["simulate", "--N", "2", "--ps", "0", "--words", "10"],
     "--ps must be strictly between 0 and 1, got 0.0"),
    (["codes", "--alphabet", "aa", "--ranks", "3"],
     "--alphabet must be one or more distinct symbols, got 'aa'"),
    (["codes", "--alphabet", "", "--ranks", "3"],
     "--alphabet must be one or more distinct symbols, got ''"),
    (["analyze", "--input", "absent.txt", "--alphabet", "aa"],
     "--alphabet must be one or more distinct symbols, got 'aa'"),
    # a code holding the separator or a line break would split its row
    (["codes", "--alphabet", ",a", "--ranks", "4", "--format", "csv"],
     "--alphabet must hold no csv separator or line break, got ',a'"),
    (["codes", "--alphabet", "a\tb", "--ranks", "4"],
     "--alphabet must hold no tsv separator or line break, got 'a\\tb'"),
    *[(["codes", "--alphabet", f"a{brk}", "--ranks", "4", "--format", fmt],
       f"--alphabet must hold no {fmt} separator or line break, got {f'a{brk}'!r}")
      for brk in ["\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"] for fmt in ["tsv", "csv"]],
]


class TestFlagErrors:
    @pytest.mark.parametrize("argv, message", FLAG_ERRORS,
                             ids=[" ".join(argv) for argv, _ in FLAG_ERRORS])
    def test_message_names_the_flag(self, tmp_path, capsys, argv, message):
        assert cli.main([*argv, "--output", str(tmp_path / "out.txt")]) == 3
        assert capsys.readouterr() == ("", f"optcoding: error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestPastTheFloatRange:
    # an N or l_min that does not convert to a float raised OverflowError
    def test_figure_alphabet_size(self):
        big = str(2**1030)
        res = one_line_error("figure", "--N", big, "--ps", "0.5", "--imax", "2")
        assert res.returncode == 3 and "alphabet size N overflows a float" in res.stderr
        assert run("lengths", "--N", big, "--imax", "2").stdout == "i\tl_i\n1\t1\n2\t1\n"

    @pytest.mark.parametrize("alphabet", [(), ("--alphabet", "a")], ids=["latin", "a"])
    def test_analyze_lmin(self, tmp_path, alphabet):
        (tmp_path / "t.txt").write_text("a b b c\n")
        res = one_line_error("analyze", "--input", str(tmp_path / "t.txt"), *alphabet,
                             "--lmin", str(2**1030), "--table-out", str(tmp_path / "table.tsv"))
        assert res.returncode == 3 and "overflows a float at l_min" in res.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]


class TestFigure:
    def test_csv_contract(self):
        out = run("figure", "--N", "26", "--ps", "0.18", "--lmin", "1",
                  "--imax", "30")
        lines = out.stdout.splitlines()
        assert lines[0] == "i,p_i"
        assert len(lines) == 31
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.18 / 26)

    def test_round_trip_floats(self):
        out = run("figure", "--N", "2", "--ps", "0.18", "--imax", "5")
        values = [line.split(",")[1] for line in out.stdout.splitlines()[1:]]
        # shortest repr: parsing back gives the same float, re-printing the
        # same string
        assert all(str(float(v)) == v for v in values)

    def test_determinism(self):
        args = ("figure", "--N", "2", "--ps", "0.3", "--imax", "100")
        assert run(*args).stdout == run(*args).stdout

    def test_domain_validation(self):
        assert run("figure", "--N", "2", "--ps", "1.5", "--imax", "5").returncode == 3

    def test_power_below_the_normal_range_prints_the_probability(self, capsys):
        # ((1 - p_s) / N)**l is 0.0 or subnormal here; these rows printed 0.0
        assert cli.main(["figure", "--N", "1", "--ps", "0.5", "--lmin", "1000", "--imax", "80"]) == 0
        rows = [f"{i},{2.0**-i}" for i in range(1, 81)]
        assert capsys.readouterr().out == "\n".join(["i,p_i", *rows]) + "\n"
        assert cli.main(["figure", "--N", "2", "--ps", "0.5", "--lmin", "1000", "--imax", "1"]) == 0
        assert capsys.readouterr().out == f"i,p_i\n1,{0.5 * 2.0**-1000}\n"


    @pytest.mark.parametrize("n", [1, 2, 3, 26])
    @pytest.mark.parametrize("lmin", [0, 1])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_bytes_match_per_row_formatting(self, capsys, n, lmin, fmt):
        params = RandomTypingParams(n, 0.3, lmin)
        ranks, probs = figure2_data(params, 700)
        sep = "," if fmt == "csv" else "\t"
        rows = [f"{i}{sep}{str(p)}" for i, p in zip(ranks.tolist(), probs.tolist())]
        expected = "\n".join([f"i{sep}p_i", *rows]) + "\n"
        argv = ["figure", "--N", str(n), "--ps", "0.3", "--lmin", str(lmin),
                "--imax", "700", "--format", fmt]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected


def last_block_end(n, lmin, limit=2000):
    """S(l) of the longest length block that ends at or below `limit`."""
    length = lmin
    while string_count_through_length(n, lmin, length + 1) <= limit:
        length += 1
    return string_count_through_length(n, lmin, length)


class TestRankTableBlocks:
    """`lengths` and `figure` print the bytes of per-row formatting at and
    around the ranks where one length block ends and the next begins."""

    @pytest.mark.parametrize("n", [1, 2, 3, 26])
    @pytest.mark.parametrize("lmin", [0, 1])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("command", ["lengths", "figure"])
    def test_bytes_match_per_row_reference(self, capsys, command, offset, fmt, lmin, n):
        imax = 1 if offset is None else last_block_end(n, lmin) + offset
        sep = "," if fmt == "csv" else "\t"
        if command == "lengths":
            header, flags = "l_i", []
            values = [code_length_for_rank(n, lmin, i) for i in range(1, imax + 1)]
        else:
            header, flags = "p_i", ["--ps", "0.3"]
            values = figure2_data(RandomTypingParams(n, 0.3, lmin), imax)[1].tolist()
        rows = [f"{i}{sep}{v}" for i, v in enumerate(values, start=1)]
        expected = "\n".join([f"i{sep}{header}", *rows]) + "\n"
        argv = [command, "--N", str(n), "--lmin", str(lmin), "--imax", str(imax),
                "--format", fmt, *flags]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("imax", [65_535, 65_536, 65_537])
    @pytest.mark.parametrize("command", ["lengths", "figure"])
    def test_rows_across_a_chunk_edge(self, capsys, command, imax):
        # at N = 1 the law is read 2**16 ranks at a time: its values must be
        # those of one read over every rank, SIMD remainder loops included
        ranks = np.arange(1, imax + 1)
        if command == "lengths":
            header, flags, values = "i\tl_i", [], code_length_for_rank(1, 1, ranks)
        else:
            params = RandomTypingParams(1, 0.3, 1)
            header, flags, values = "i,p_i", ["--ps", "0.3"], rank_probability(params, ranks)
        sep = header[1]
        rows = [f"{i}{sep}{v!r}" for i, v in enumerate(values.tolist(), start=1)]
        assert cli.main([command, "--N", "1", "--imax", str(imax), *flags]) == 0
        assert capsys.readouterr().out.split("\n") == [header, *rows, ""]

    @pytest.mark.parametrize("n, lmin, imax", [
        (26, 1, 250_000), (2, 0, 1500), (3, 5, 10), (1, 1, 30), (1, 1, 131_073),
    ])
    @pytest.mark.parametrize("command", ["lengths", "figure"])
    def test_law_evaluated_once_per_block(self, monkeypatch, capsys, command, n, lmin, imax):
        # the law is constant on a length block: 4 blocks hold 250,000 ranks at
        # N = 26; at N = 1, where every rank is its own block, it is read at the
        # last rank, then 2**16 ranks at a time
        sizes, law = [], codebook.code_length_for_rank

        def spy(N, l_min, i):
            if np.ndim(i):  # the law's array calls, not the table's scalar shape check
                sizes.append(np.size(i))
            return law(N, l_min, i)

        monkeypatch.setattr(codebook, "code_length_for_rank", spy)
        flags = ["--ps", "0.3"] if command == "figure" else []
        argv = [command, "--N", str(n), "--lmin", str(lmin), "--imax", str(imax), *flags]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\n") == imax + 1
        if n > 1:
            assert sizes == [len(block_counts(n, lmin, imax))]
        else:
            assert sizes[0] == 1 and max(sizes[1:]) <= 2**16 and sum(sizes[1:]) == imax

    @pytest.mark.parametrize("run", [1, 20, 40])  # runs of one row, then longer runs
    def test_signed_zeros_stay_apart(self, run):
        # 0.0 == -0.0, so a table keyed or split by value would merge them
        cells = ["0.0"] * run + ["-0.0"] * run + ["0.0"] * run
        ends, values = np.array([run, 2 * run, 3 * run]), np.array([0.0, -0.0, 0.0])
        rows = [f"{i},{c}" for i, c in enumerate(cells, start=1)]
        text = "".join(cli._rank_table_text(("i", "v"), ends, values, "csv"))
        assert text == "\n".join(["i,v", *rows]) + "\n"
        assert list(cli._cells(np.array(list(map(float, cells))))) == cells

    def test_lengths_across_the_seventh_rank_digit(self, capsys):
        # rank 10**6 falls inside the length-19 block of N = 2
        assert cli.main(["lengths", "--N", "2", "--imax", "1000001"]) == 0
        lengths = code_length_for_rank(2, 1, np.arange(1, 1_000_002)).tolist()
        rows = [f"{i}\t{v}" for i, v in enumerate(lengths, start=1)]
        # lines, not one string: pytest's diff of two long strings takes minutes
        assert capsys.readouterr().out.split("\n") == ["i\tl_i", *rows, ""]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["csv", "tsv"]))
    def test_bytes_match_per_row_formatting(self, data, fmt):
        # runs of one row and longer, and run lengths on either side of 10**k
        lengths = st.integers(1, 12) | st.sampled_from([9, 10, 11, 89, 90, 91, 899, 900, 901])
        if data.draw(st.booleans(), "floats"):
            cells = st.floats() | st.sampled_from([0.0, -0.0])
            dtype = np.float64
        else:
            cells, dtype = st.integers(-(2**63), 2**63 - 1), np.int64
        runs = data.draw(st.lists(st.tuples(cells, lengths), min_size=1, max_size=20), "runs")
        values = np.array([v for v, _ in runs], dtype=dtype)
        ends = np.cumsum([run for _, run in runs])
        sep = cli._SEP[fmt]
        per_row = (v for v, run in runs for _ in range(run))
        rows = [f"{i}{sep}{v!r}" for i, v in enumerate(per_row, start=1)]
        text = "".join(cli._rank_table_text(("i", "v"), ends, values, fmt))
        assert text.split("\n") == [f"i{sep}v", *rows, ""]


class TestSimulate:
    @pytest.mark.parametrize("n", [1, 2, 2**16, 2**16 + 1, 2**17 + 3])
    def test_words_joined_a_chunk_at_a_time(self, n):
        words = [f"w{k}" for k in range(n)]
        assert "".join(cli._words_text(words)) == " ".join(words) + "\n"

    def test_deterministic_json(self):
        args = ("simulate", "--N", "5", "--ps", "0.4", "--words", "500",
                "--seed", "7")
        a, b = run(*args), run(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert payload["schema"] == "simulate/1"
        assert payload["n_words"] == 500
        assert payload["tau"] <= 0 or payload["tau"] is None

    @pytest.mark.parametrize("command", ["simulate", "analyze", "fit"])
    def test_bytes_do_not_follow_the_blas_thread_count(self, tmp_path, command):
        # 11,114 types: enough for OpenBLAS to split a dot product over two threads
        simulate = ["simulate", "--N", "5", "--ps", "0.3", "--words", "50000", "--seed", "7"]
        text, table, counts = (tmp_path / name for name in ("typed.txt", "table.tsv", "counts.tsv"))
        if command != "simulate":
            report = str(tmp_path / "report.json")
            assert cli.main([*simulate, "--text-out", str(text), "--output", report]) == 0
            assert cli.main(["analyze", "--input", str(text), "--table-out", str(table),
                             "--output", report]) == 0
            rows = table.read_text().splitlines()[1:]
            counts.write_text("".join(f"{i}\t{row.split()[1]}\n" for i, row in enumerate(rows, 1)))
        args = {"simulate": simulate, "analyze": ["analyze", "--input", str(text)],
                "fit": ["fit", "--input", str(counts)]}[command]
        one, two = (run(*args, env={**os.environ, "OPENBLAS_NUM_THREADS": t}) for t in "12")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_text_out_writes_corpus(self, tmp_path):
        corpus_path = tmp_path / "typed.txt"
        run("simulate", "--N", "3", "--ps", "0.5", "--words", "50",
            "--seed", "1", "--text-out", str(corpus_path))
        words = corpus_path.read_text().split()
        assert len(words) == 50

    def test_invalid_ps_no_output_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        res = run("simulate", "--N", "2", "--ps", "1.5", "--words", "10",
                  "--output", str(out_path))
        assert res.returncode == 3
        assert res.stderr.strip().count("\n") == 0  # single-line diagnostic
        assert not out_path.exists()

    @pytest.mark.parametrize("lmin", ["0", "-1"])
    def test_lmin_below_one_rejected_before_drawing(self, tmp_path, monkeypatch, capsys, lmin):
        def no_words(*args):
            raise AssertionError("words drawn")

        monkeypatch.setattr(cli.randtype, "generate", no_words)
        text_path = tmp_path / "typed.txt"
        code = cli.main(["simulate", "--N", "3", "--ps", "0.3", "--words", "2000",
                         "--seed", "5", "--lmin", lmin, "--text-out", str(text_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "--lmin" in err and err.count("\n") == 1
        assert not text_path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_lmin_zero_through_the_command(self, tmp_path):
        text_path = tmp_path / "typed.txt"
        res = run("simulate", "--N", "3", "--ps", "0.3", "--words", "2000",
                  "--seed", "5", "--lmin", "0", "--text-out", str(text_path))
        assert res.returncode == 3
        assert "--lmin" in res.stderr and "Traceback" not in res.stderr
        assert not text_path.exists()

    def test_alphabet_past_the_latin_letters(self, tmp_path, capsys):
        text_path = tmp_path / "typed.txt"
        assert cli.main(["simulate", "--N", "27", "--ps", "0.5", "--words", "10",
                         "--text-out", str(text_path)]) == 3
        assert capsys.readouterr() == ("", "optcoding: error: --N must be in 1..26, got 27\n")
        assert list(tmp_path.iterdir()) == []

    def test_bias_flag(self):
        out = run("simulate", "--N", "2", "--ps", "0.5", "--words", "200",
                  "--seed", "3", "--bias", "0.9,0.1")
        assert out.returncode == 0


class TestFit:
    def test_fit_single_family(self, tmp_path):
        data = tmp_path / "counts.tsv"
        data.write_text("rank\tcount\n1\t70\n2\t20\n3\t10\n")
        out = run("fit", "--input", str(data), "--family", "geometric")
        payload = json.loads(out.stdout)
        assert payload["family"] == "geometric"
        assert payload["n"] == 100
        assert payload["params"]["q"] == pytest.approx(1 / 1.4)

    def test_fit_all_ranked_by_likelihood(self, tmp_path):
        data = tmp_path / "counts.tsv"
        rows = "\n".join(f"{i}\t{max(1, int(1000 / i ** 2))}" for i in range(1, 40))
        data.write_text(rows + "\n")
        out = run("fit", "--input", str(data))
        payload = json.loads(out.stdout)
        lls = [r["log_likelihood"] for r in payload["results"]]
        assert lls == sorted(lls, reverse=True)

    @staticmethod
    def assert_each_family_prints_its_entry_of_all(path: Path, out_dir: Path):
        """`fit --family F` gives the F entry of `fit --family all`."""
        keys = ("n", "support", "params", "log_likelihood")

        def fit(family):
            out = out_dir / f"{family}.json"
            assert cli.main(["fit", "--input", str(path), "--family", family,
                             "--output", str(out)]) == 0
            return json.loads(out.read_text())

        entries = {r["family"]: {k: r[k] for k in keys} for r in fit("all")["results"]}
        for family in maxent.FAMILIES:
            single = fit(family)
            assert single["family"] == family
            assert {k: single[k] for k in keys} == entries[family], family

    @pytest.mark.parametrize("text", [
        "1\t70\n2\t20\n3\t10\n",
        "rank,count\n1,70\n2,20\n3,10\n",
        "# counts\r\n1\t70\r\n\r\n2\t20\r\n3\t10",
        "1 70\n2 20\n3 10\n",
    ], ids=["tab", "csv", "crlf", "space"])
    def test_each_family_prints_its_entry_of_all(self, tmp_path, text):
        path = tmp_path / "counts.tsv"
        path.write_bytes(text.encode())
        self.assert_each_family_prints_its_entry_of_all(path, tmp_path)

    @settings(max_examples=15, deadline=None)
    @given(st.dictionaries(st.integers(1, 3000), st.integers(1, 10**5), min_size=2, max_size=30))
    def test_each_family_prints_its_entry_of_all_on_drawn_tables(self, tmp_path_factory, observed):
        out_dir = tmp_path_factory.mktemp("fit")
        path = out_dir / "counts.tsv"
        path.write_text("".join(f"{r}\t{c}\n" for r, c in observed.items()))
        self.assert_each_family_prints_its_entry_of_all(path, out_dir)

    def test_header_after_comment(self, tmp_path):
        data = tmp_path / "counts.tsv"
        data.write_text("# comment\n\nrank\tcount\n1\t70\n2\t20\n3\t10\n")
        out = run("fit", "--input", str(data), "--family", "geometric")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["n"] == 100

    @pytest.mark.parametrize("top", [100, 1000])
    def test_steep_two_rank_data_fits_a_normalized_law(self, tmp_path, top):
        # The Zipf-Mandelbrot search reaches alpha near 64 and b > 1, where
        # the normalizer is far below 1.
        data = tmp_path / "counts.tsv"
        data.write_text(f"1\t{top}\n2\t2\n")
        out = run("fit", "--input", str(data))
        assert out.returncode == 0, out.stderr
        lls = {r["family"]: r["log_likelihood"] for r in json.loads(out.stdout)["results"]}
        assert all(ll <= 0.0 for ll in lls.values()), lls
        assert lls["zipf-mandelbrot"] >= lls["zeta"], lls

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        data = tmp_path / "counts.tsv"
        data.write_bytes("\ufeff1\t50\n2\t20\n3\t5\n".encode())
        out = run("fit", "--input", str(data), "--family", "geometric")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert (payload["n"], payload["support"]) == (75, [1, 3])

    def test_signed_first_row_is_data_not_a_header(self, tmp_path, capsys):
        # int() reads "+1" as 1, so the row is data; it was once dropped as a
        # header, which gave n = 7 on support [2, 3].
        data = tmp_path / "counts.tsv"
        data.write_text("+1\t10\n2\t5\n3\t2\n")
        assert cli.main(["fit", "--input", str(data), "--family", "geometric"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["n"], payload["support"]) == (17, [1, 3])

    def test_first_row_past_the_int_digit_limit_is_not_a_header(self, tmp_path, capsys):
        data = tmp_path / "counts.tsv"
        data.write_text("9" * 5000 + "\t3\n2\t5\n3\t1\n")
        assert cli.main(["fit", "--input", str(data), "--family", "geometric"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rows, line, cell", [
        ("1\t10\n2\tabc\n", 2, "count 'abc'"),
        ("rank\tcount\n1\t10\n\n2.5\t3\n", 4, "rank '2.5'"),
        ("# note\n1\tx1\n", 2, "count 'x1'"),
        # a number that is not an integer is a bad first row, not a header:
        # this one was dropped, which left n = 40 of 540 on support [2, 3]
        ("1.0\t500\n2\t30\n3\t10\n", 1, "rank '1.0'"),
        ("1e0\t500\n2\t30\n", 1, "rank '1e0'"),
        ("# note\n\n2.5\t3\n4\t1\n", 3, "rank '2.5'"),
    ])
    def test_bad_cell_names_its_line(self, tmp_path, capsys, rows, line, cell):
        data = tmp_path / "counts.tsv"
        data.write_text(rows)
        message = f"{data}:{line}: {cell} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            corpus.read_rank_counts(data)
        assert cli.main(["fit", "--input", str(data)]) == 3
        assert capsys.readouterr() == ("", f"optcoding: error: {message}\n")

    @pytest.mark.parametrize("rows, message", [
        ("1\t10\t3\n2\t5\n", "{path}:1: expected `rank<TAB>count`"),
        # an empty or blank CSV cell is a cell: these rows have three
        ("1,,70\n2,20\n", "{path}:1: expected `rank<TAB>count`"),
        ("rank,count\n1,70\n2, ,20\n", "{path}:3: expected `rank<TAB>count`"),
        ("1\t10\n1\t5\n", "{path}:2: duplicate rank 1"),
        ("1\t70\n0\t5\n", "{path}:2: rank must be >= 1"),
        ("1\t70\n2\t0\n", "{path}:2: count must be >= 1"),
        ("rank,count\n1,70\n2,-5\n", "{path}:3: count must be >= 1"),
        ("# counts\r\n1 -5\r\n", "{path}:2: count must be >= 1"),
        ("# only\n\n# comments\n", "{path}: no rank counts found"),
    ])
    def test_bad_table_is_a_domain_error(self, tmp_path, capsys, rows, message):
        data = tmp_path / "counts.tsv"
        data.write_text(rows)
        assert cli.main(["fit", "--input", str(data)]) == 3
        assert capsys.readouterr() == ("", f"optcoding: error: {message.format(path=data)}\n")

    def test_alpha_domain_error(self, tmp_path):
        data = tmp_path / "counts.tsv"
        data.write_text("1\t50\n")  # single rank: degenerate
        assert run("fit", "--input", str(data), "--family", "zeta").returncode == 3

    def test_missing_file_is_io_error(self):
        assert run("fit", "--input", "/nonexistent/x.tsv").returncode == 4

    @pytest.mark.parametrize("rows, message", [
        ("9223372036854775808\t3\n2\t5\n", "ranks must fit in int64"),
        ("1\t9223372036854775808\n2\t5\n", "counts must fit in int64"),
        # each count fits in int64, their sum does not
        ("1\t5000000000000000000\n2\t5000000000000000000\n",
         "the total count must fit in int64"),
    ])
    @pytest.mark.parametrize("family", ["all", "geometric", "zeta"])
    def test_past_int64_is_a_domain_error(self, tmp_path, capsys, rows, message, family):
        data = tmp_path / "counts.tsv"
        data.write_text(rows)
        target = tmp_path / "fit.json"
        code = cli.main(["fit", "--input", str(data), "--family", family,
                         "--output", str(target)])
        assert code == 3
        assert capsys.readouterr() == ("", f"optcoding: error: {message}\n")
        assert not target.exists()

    def test_total_past_int64_through_the_command(self, tmp_path):
        # once printed "n": -8446744073709551616 and exited 0
        data = tmp_path / "counts.tsv"
        data.write_text("1\t5000000000000000000\n2\t5000000000000000000\n")
        res = run("fit", "--input", str(data), "--family", "zeta")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == "optcoding: error: the total count must fit in int64\n"


# The line-by-line reader that the whole-file `corpus.read_rank_counts`
# replaced, as it was, but refusing a row with an empty or blank
# comma-separated cell, or a rank or count below 1:
# a rank -> count dict, made `RankCounts` by `fit_ranked`.
def oracle_read_rank_counts(path) -> dict[int, int]:
    text = corpus.read_text(path)
    rows = [
        (lineno, line, line.replace(",", "\t").split())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if rows and rows[0][2]:
        try:
            float(rows[0][2][0])
        except ValueError:
            rows = rows[1:]  # header: a first row whose first cell is not a number
    out: dict[int, int] = {}
    for lineno, line, parts in rows:
        # an empty or blank cell between commas, or before or after one
        if len(parts) != 2 or re.search(r"(^|,)\s*(,|$)", line):
            raise ValueError(f"{path}:{lineno}: expected `rank<TAB>count`")
        try:
            rank, count = int(parts[0]), int(parts[1])
        except ValueError:
            named = zip(("rank", "count"), parts)
            what, cell = next((w, c) for w, c in named if corpus._int_or_none(c) is None)
            raise ValueError(f"{path}:{lineno}: {what} {cell!r} is not an integer") from None
        if rank < 1 or count < 1:
            what = "rank" if rank < 1 else "count"
            raise ValueError(f"{path}:{lineno}: {what} must be >= 1")
        if rank in out:
            raise ValueError(f"{path}:{lineno}: duplicate rank {rank}")
        out[rank] = count
    if not out:
        raise ValueError(f"{path}: no rank counts found")
    return out


def read_outcome(read, path):
    """The rank and count lists `read(path)` gives as `RankCounts`, or the
    type and text of the error it raises."""
    try:
        observed = maxent._as_rank_counts(read(path))
    except ValueError as exc:
        return type(exc), str(exc)
    return observed.ranks.tolist(), observed.counts.tolist()


# `fit` tables in every spelling the reader accepts, and some it refuses:
# integers as int() reads them (signs, underscores, Unicode digits, values
# past int64) or not at all, cells split by tabs, commas or spaces, headers,
# comments (indented too), blank lines and every line break splitlines() knows.
FIT_INT = st.one_of(
    st.integers(-2, 60).map(str),
    st.sampled_from(["+5", "1_000", "\u0661\u0662", "\uff17", "007", str(2**63), str(2**64 + 3),
                     "9" * 19, "-0", "1.0", "1e0", "x", "0x1", "", "--1"]),
)
FIT_SEP = st.sampled_from(["\t", "\t", ",", " ", "  ", ", ", "\t\t", " \t", ",,"])
FIT_ROW = st.builds(lambda r, sep, c, pad: pad + r + sep + c, FIT_INT, FIT_SEP, FIT_INT,
                    st.sampled_from(["", "", " "]))
FIT_PLAIN_ROW = st.builds("{}\t{}".format, st.integers(1, 40), st.integers(1, 99))
FIT_NOISE = st.sampled_from([
    "", "  ", "\t", "# note", "  # indented note", "#1\t5", "1", "1\t2\t3", ",", "rank\tcount",
])
FIT_HEADER = st.sampled_from(["", "", "rank\tcount", "rank,count", "i count", "rank", "1.5\tx"])
FIT_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def fit_table(bom, header, rows, ends, ended):
    lines = [header, *rows] if header else rows
    return bom + "".join(map(str.__add__, lines, ends[: len(lines) - 1] + [ends[-1] * ended]))


FIT_TABLE = st.builds(
    fit_table,
    st.sampled_from(["", "\ufeff"]),
    FIT_HEADER,
    st.one_of(
        st.lists(FIT_PLAIN_ROW, min_size=1, max_size=8, unique_by=lambda row: row.split("\t")[0]),
        st.lists(st.one_of(FIT_PLAIN_ROW, FIT_ROW, FIT_NOISE), max_size=8),
    ),
    st.one_of(
        st.just(["\n"] * 9),
        st.lists(st.sampled_from(FIT_ENDS), min_size=9, max_size=9),
    ),
    st.booleans(),
)


class TestRankCountsReader:
    @settings(max_examples=400, deadline=None)
    @given(table=FIT_TABLE)
    def test_same_rank_counts_or_error_as_the_line_walk(self, tmp_path_factory, table):
        path = tmp_path_factory.getbasetemp() / "counts.tsv"
        path.write_bytes(table.encode())
        want = read_outcome(oracle_read_rank_counts, path)
        assert read_outcome(corpus.read_rank_counts, path) == want

    @pytest.mark.parametrize("text", [
        "1\t70\n2\t20\n3\t10\n",
        "rank,count\n1,70\n2,20\n3,10\n",
        "# counts\r\n1\t70\r\n\r\n2\t20\r\n3\t10",
        "  # indented comment\n3\t10\n1\t70\n2\t20\n",
        "1 70\n2 20\n3 10\n",
    ])
    def test_every_spelling_reads_the_same_table(self, tmp_path, monkeypatch, text):
        def walk(*args):
            raise AssertionError("a good table was read line by line")

        monkeypatch.setattr(corpus, "_rank_row", walk)  # the walk only names a bad line
        path = tmp_path / "counts.tsv"
        path.write_bytes(text.encode())
        observed = corpus.read_rank_counts(path)
        assert isinstance(observed, maxent.RankCounts)
        assert (observed.ranks.tolist(), observed.counts.tolist()) == ([1, 2, 3], [70, 20, 10])

    @pytest.mark.parametrize("text", [
        "1 70\n2 20\n3 10\n",
        "rank,count\n1, 70\n2 ,20\n3 , 10\n",
        "rank count\n1, 70\n2\t20\n3  10\n",
    ])
    def test_padded_cells_and_spaces_are_read(self, tmp_path, text):
        # blank CSV cells are refused; spaces around a nonblank cell are not
        path = tmp_path / "counts.tsv"
        path.write_text(text)
        observed = corpus.read_rank_counts(path)
        assert (observed.ranks.tolist(), observed.counts.tolist()) == ([1, 2, 3], [70, 20, 10])


class TestAnalyze:
    def test_end_to_end(self, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_text("the cat sat on the mat the cat on on the\n")
        out = run("analyze", "--input", str(text), "--lowercase")
        payload = json.loads(out.stdout)
        assert payload["schema"] == "analysis/1"
        assert payload["l_optimal"] <= payload["l_actual"]
        assert 0 < payload["efficiency_ratio"] <= 1

    def test_table_out(self, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_text("b a a\n")
        table_path = tmp_path / "table.tsv"
        run("analyze", "--input", str(text), "--table-out", str(table_path))
        assert table_path.read_text() == (
            "type\tfrequency\tmagnitude\na\t2\t1.0\nb\t1\t1.0\n"
        )

    def test_lmin_zero_fails_without_table(self, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_text("b a a\n")
        table_path = tmp_path / "table.tsv"
        res = run("analyze", "--input", str(text), "--lmin", "0",
                  "--table-out", str(table_path))
        assert res.returncode == 3
        assert "--lmin" in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == [text]

    @pytest.mark.parametrize("lmin", ["0", "-1"])
    def test_lmin_below_one_rejected_before_reading(self, tmp_path, monkeypatch, capsys, lmin):
        def no_text(*args):
            raise AssertionError("corpus read")

        monkeypatch.setattr(cli.corpus, "read_text", no_text)
        text = tmp_path / "corpus.txt"
        text.write_text("b a a\n")
        table_path = tmp_path / "table.tsv"
        code = cli.main(["analyze", "--input", str(text), "--lmin", lmin,
                         "--table-out", str(table_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "--lmin" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [text]

    def test_alphabet_checked_before_reading(self, tmp_path):
        res = one_line_error("analyze", "--input", str(tmp_path / "missing.txt"),
                             "--alphabet", "aa")
        assert res.returncode == 3 and "distinct" in res.stderr

    def test_magnitude_sidecar(self, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_text("bird bird song\n")
        side = tmp_path / "durations.tsv"
        side.write_text("bird\t0.5\nsong\t1.25\n")
        out = run("analyze", "--input", str(text), "--magnitudes", str(side))
        payload = json.loads(out.stdout)
        assert payload["l_actual"] == pytest.approx((2 * 0.5 + 1.25) / 3)

    def test_byte_order_marks_are_not_data(self, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_bytes("\ufeffthe cat the\n".encode())
        side = tmp_path / "durations.tsv"
        side.write_bytes("\ufeffthe\t0.5\ncat\t1.25\n".encode())
        table_path = tmp_path / "table.tsv"
        out = run("analyze", "--input", str(text), "--magnitudes", str(side),
                  "--table-out", str(table_path))
        assert out.returncode == 0, out.stderr
        assert table_path.read_text() == (
            "type\tfrequency\tmagnitude\nthe\t2\t0.5\ncat\t1\t1.25\n"
        )
        assert json.loads(out.stdout)["l_actual"] == pytest.approx((2 * 0.5 + 1.25) / 3)

    def test_agrees_with_simulate_on_its_corpus(self, tmp_path, capsys):
        text_path = tmp_path / "c.txt"
        assert cli.main(["simulate", "--N", "26", "--ps", "0.18", "--words", "20000",
                         "--seed", "3", "--text-out", str(text_path)]) == 0
        simulated = json.loads(capsys.readouterr().out)
        assert cli.main(["analyze", "--input", str(text_path)]) == 0
        analyzed = json.loads(capsys.readouterr().out)
        shared = ("tau", "n_c", "n_d", "z_score", "l_actual", "l_optimal", "efficiency_ratio")
        assert [analyzed[k] for k in shared] == [simulated[k] for k in shared]

    @pytest.mark.parametrize("types, warned", [(4, True), (5, False)])
    def test_fit_warning_below_five_types(self, tmp_path, capsys, types, warned):
        text = tmp_path / "corpus.txt"
        text.write_text(" ".join("abcde"[k] * (k + 1) for k in range(types)) + "\n")
        assert cli.main(["analyze", "--input", str(text)]) == 0
        warning = json.loads(capsys.readouterr().out)["fit_warning"]
        if warned:
            assert warning == f"only {types} distinct ranks: too few for a meaningful model comparison"
        else:
            assert warning is None

    def test_undecodable_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok \xff bad")
        res = run("analyze", "--input", str(bad))
        assert res.returncode == 3  # ValueError with offset from the reader
        assert "offset" in res.stderr

    def test_undecodable_byte_after_a_byte_order_mark(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xef\xbb\xbfok \xff bad")
        res = run("analyze", "--input", str(bad))
        assert res.returncode == 3
        assert res.stderr.startswith("optcoding: error: undecodable byte at offset 6 in ")


class TestSizeCap:
    @pytest.mark.parametrize("argv, stage", [
        (["lengths", "--N", "2", "--imax", "1000000000000"], "codebook.block_counts"),
        (["figure", "--N", "2", "--ps", "0.3", "--imax", "1000000000000"],
         "codebook.block_counts"),
        (["simulate", "--N", "2", "--ps", "0.3", "--words", "100000000000",
          "--text-out", "typed.txt"], "randtype.generate"),
        (["oracle", "--instances", "100000000000"], "assign.optimal_assignment"),
    ])
    def test_refused_before_any_array(self, tmp_path, monkeypatch, capsys, argv, stage):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{stage} called")

        module, name = stage.split(".")
        monkeypatch.setattr(getattr(cli, module), name, refuse)
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--output", "out.txt"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(cli.MAX_SIZE) in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ps, lmin, words", [
        ("1e-13", "1", "1"), ("1e-9", "1", "3"), ("1e-300", "2", "1"), ("0.5", "1" * 400, "1"),
    ])
    def test_letters_past_the_table_cap_refused(self, tmp_path, ps, lmin, words):
        res = run("simulate", "--N", "2", "--ps", ps, "--lmin", lmin, "--words", words,
                  "--text-out", str(tmp_path / "typed.txt"))
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("optcoding: error: random typing of")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_through_the_command(self, tmp_path):
        target = tmp_path / "fig.csv"
        res = run("figure", "--N", "2", "--ps", "0.3", "--imax", "1000000000000",
                  "--output", str(target))
        assert res.returncode == 3
        assert res.stderr == "optcoding: error: --imax must be in 1..10000000, got 1000000000000\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    @pytest.mark.parametrize("argv, header, bound", [
        # At N = 1 every rank is its own block.  Its law made at every rank at
        # once peaked at 75 MB (`lengths`) and 139 MB (`figure`) here; made
        # 2**16 ranks at a time, both peak near 40 MB.
        (["lengths", "--N", "1"], "i\tl_i\n", 60),
        (["figure", "--N", "1", "--ps", "0.18"], "i,p_i\n", 60),
        # The whole table in one byte buffer, then in a str, peaked at 146 MB
        # here; written 2**16 rows at a time, 38 MB.
        (["figure", "--N", "3", "--ps", "0.18"], "i,p_i\n", 80),
    ], ids=["lengths-N1", "figure-N1", "figure-N3"])
    def test_table_in_bounded_memory(self, tmp_path, argv, header, bound):
        # Peaks in MB at 2 * 10**6 rows written to a file (x86-64 Linux,
        # Python 3.11).  The child reports its own VmHWM: its ru_maxrss would
        # also count the test runner's peak, which the kernel carries over at exec.
        target = tmp_path / "table.txt"
        script = (
            "import re, sys\n"
            "from optcoding import cli\n"
            "assert cli.main([*sys.argv[2:], '--imax', str(2 * 10**6), '--output', sys.argv[1]]) == 0\n"
            "status = open('/proc/self/status').read()\n"
            "print(int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)) // 1024)\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(target), *argv],
                             capture_output=True, text=True, check=True, timeout=120)
        with target.open() as fh:
            assert fh.readline() == header
            assert sum(1 for _ in fh) == 2 * 10**6
        assert int(out.stdout) < bound

    @pytest.mark.parametrize("argv", [
        ["lengths", "--N", "2", "--imax"],
        ["figure", "--N", "2", "--ps", "0.3", "--imax"],
        ["simulate", "--N", "2", "--ps", "0.3", "--words"],
        ["oracle", "--instances"],
    ])
    def test_cap_is_inclusive(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "MAX_SIZE", 5)
        assert cli.main([*argv, "5"]) == 0
        capsys.readouterr()
        assert cli.main([*argv, "6"]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_help_states_the_cap(self):
        for command in ("lengths", "figure", "simulate"):
            assert f"at most {cli.MAX_SIZE}" in run(command, "--help").stdout


class TestOracle:
    def test_all_instances_pass(self):
        out = run("oracle", "--instances", "25", "--seed", "5")
        assert out.returncode == 0
        assert "oracle: 25/25 ok" in out.stdout

    def test_no_instances_is_a_domain_error(self, capsys):
        assert cli.main(["oracle", "--instances", "0"]) == 3
        assert capsys.readouterr() == (
            "", f"optcoding: error: --instances must be in 1..{cli.MAX_SIZE}, got 0\n")

    def test_disagreement_prints_its_fail_lines(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.assign, "brute_force_minimum", lambda *args: -1.0)
        target = tmp_path / "oracle.txt"
        assert cli.main(["oracle", "--instances", "2", "--output", str(target)]) == 3
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 3 and all("FAIL sorted=" in line for line in lines[:2])
        assert lines[0].endswith(" exhaustive=-1.0") and lines[2] == "oracle: 0/2 ok"
        assert err == "optcoding: error: oracle failed on 2 of 2 instances\n"
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self):
        a = run("oracle", "--instances", "10", "--seed", "9").stdout
        b = run("oracle", "--instances", "10", "--seed", "9").stdout
        assert a == b


class TestUsageErrors:
    def test_unknown_flag(self):
        res = run("codes", "--alphabet", "ab", "--ranks", "3", "--frobnicate")
        assert res.returncode == 2
        assert res.stderr.strip().count("\n") == 0

    def test_missing_required_flag(self):
        assert run("codes", "--alphabet", "ab").returncode == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate").returncode == 2

    def test_output_naming_a_directory_is_an_io_error(self, tmp_path, capsys):
        target = tmp_path / "out"
        target.mkdir()
        assert cli.main(["codes", "--alphabet", "ab", "--ranks", "3", "--output", str(target)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("optcoding: i/o error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [target]  # no out.tmp.<pid> left behind
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("command, side", [
        (["simulate", "--N", "2", "--ps", "0.5", "--words", "10", "--text-out"], "typed.txt"),
        (["analyze", "--input", "corpus.txt", "--table-out"], "t.tsv"),
    ])
    @pytest.mark.parametrize("output", ["missing/out.json", "existing"])
    def test_failed_output_write_removes_the_side_file(self, tmp_path, monkeypatch, capsys,
                                                      command, side, output):
        monkeypatch.chdir(tmp_path)
        Path("corpus.txt").write_text("b a a\n")
        Path("existing").mkdir()
        assert cli.main([*command, side, "--output", output]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("optcoding: i/o error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "existing"]
        assert list(Path("existing").iterdir()) == []

    def test_shared_side_and_output_path_holds_the_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--N", "2", "--ps", "0.5", "--words", "10", "--text-out"]
        assert cli.main([*argv, "./same.txt", "--output", "same.txt"]) == 0
        assert cli.main(argv[:-1]) == 0
        assert capsys.readouterr().out == Path("same.txt").read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["same.txt"]

    def test_error_inside_the_chunks_leaves_no_file(self, tmp_path):
        def failing():
            yield "i\tv\n"
            raise RuntimeError("midway")

        outputs = {str(tmp_path / "side.txt"): ["whole\n"], str(tmp_path / "out.tsv"): failing()}
        with pytest.raises(RuntimeError, match="midway"):
            cli._write_outputs(outputs)
        assert list(tmp_path.iterdir()) == []

    def test_output_file_written_atomically(self, tmp_path):
        target = tmp_path / "codes.tsv"
        run("codes", "--alphabet", "ab", "--ranks", "3", "--output", str(target))
        assert target.read_text() == "rank\tcode\n1\ta\n2\tb\n3\taa\n"
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []


# Flag values for the fuzz test.  Each invocation may swap one value for a
# bad one, which any flag must survive.
BAD = ["x", "-1", "", str(2**63), str(2**1030)]


def count(top):
    return st.integers(0, top).map(str)


def maybe(values):
    return st.one_of(st.none(), values)


SWITCH = st.sampled_from([None, True])
ALPHABET_SIZE = st.integers(0, 27).map(str)
LMIN = maybe(st.sampled_from(["0", "1", "2", "5", "1000"]))
PS = st.one_of(st.sampled_from(["0.5", "0.18", "0.01"]),
               st.sampled_from(["0", "1", "1.5", "nan", "1e-300"]))
SEED = maybe(st.sampled_from(["0", "7"]))
FORMAT = maybe(st.sampled_from(["csv", "tsv", "json", "x"]))
FLAGS = {
    "codes": [("--alphabet", st.sampled_from(["ab", "a", "aa", "", "xyz"])),
              ("--ranks", count(200)), ("--lmin", LMIN), ("--allow-empty", SWITCH),
              ("--format", FORMAT)],
    "lengths": [("--N", ALPHABET_SIZE), ("--lmin", LMIN), ("--imax", count(2000)),
                ("--format", FORMAT)],
    "figure": [("--N", ALPHABET_SIZE), ("--ps", PS), ("--lmin", LMIN), ("--imax", count(2000)),
               ("--format", FORMAT)],
    "simulate": [("--N", ALPHABET_SIZE), ("--ps", PS), ("--lmin", LMIN), ("--words", count(2000)),
                 ("--seed", SEED),
                 ("--bias", st.sampled_from([None, None, None, "0.5,0.5", "0.9,0.1", "1"])),
                 ("--text-out", maybe(st.just("text.txt")))],
    "fit": [("--input", st.just("in.txt")),
            ("--family", maybe(st.sampled_from([*maxent.FAMILIES, "all", "x"])))],
    "analyze": [("--input", st.just("in.txt")), ("--magnitudes", maybe(st.just("side.tsv"))),
                ("--alphabet", maybe(st.sampled_from(["ab", "aa", ""]))), ("--lmin", LMIN),
                ("--lowercase", SWITCH), ("--keep-punctuation", SWITCH), ("--graphemes", SWITCH),
                ("--table-out", maybe(st.just("table.tsv")))],
    "oracle": [("--instances", count(3)), ("--seed", SEED)],  # the default, 200, takes seconds
}
OUTPUTS = ("out.txt", "text.txt", "table.tsv")
# An --output the run cannot write: a missing directory, or the test's directory itself.
UNWRITABLE = ("missing/out.txt", ".")
PATH_FLAGS = ("--input", "--magnitudes", "--output", "--text-out", "--table-out")
# Input files: rank counts, or corpus text and sidecar rows, after an
# optional byte-order mark and odd first line, before an optional bad byte.
LINES = st.one_of(
    st.lists(st.sampled_from(["1\t5", "2\t3", "3,1", "4\t1", "5\t1"]), max_size=5, unique=True),
    st.lists(st.sampled_from(["the cat sat", "a cat, the Cat!", "the\t0.5", "cat\t1.25"]),
             max_size=4),
)
FIRST = maybe(st.sampled_from(["rank\tcount", "# note", "", "x\ty", "1\t2\t3", "9" * 30 + "\t1",
                               "1\t2", "cat\t-1", "\ufeffthe"]))
FILE = maybe(st.builds(
    lambda bom, first, lines, bad: (b"\xef\xbb\xbf" if bom else b"")
    + "\n".join(([] if first is None else [first]) + lines).encode() + (b"\xff" if bad else b""),
    st.booleans(), FIRST, LINES, st.sampled_from([False, False, False, True]),
))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = [*FLAGS[command], ("--output", maybe(st.sampled_from(["out.txt", *UNWRITABLE])))]
    # a bad path would name a file outside the test's directory
    spoiled = draw(maybe(st.sampled_from([flag for flag, _ in flags if flag not in PATH_FLAGS])))
    argv = [command]
    for flag, values in flags:
        value = draw(st.sampled_from(BAD) if flag == spoiled else values)
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    return argv


class TestFuzz:
    """Any flags and small input files: a documented exit code, no traceback,
    and no output file left behind by a failed run."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=invocations(), corpus_bytes=FILE, sidecar_bytes=FILE)
    def test_every_input_exits_with_a_documented_code(self, argv, corpus_bytes, sidecar_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name, data in (("in.txt", corpus_bytes), ("side.tsv", sidecar_bytes)):
                if data is not None:
                    (d / name).write_bytes(data)
            names = {"in.txt", "side.tsv", *OUTPUTS, *UNWRITABLE}
            argv = [str(d / a) if a in names else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 3, 4), (argv, code)
            assert "Traceback" not in err.getvalue()
            written = {p.name for p in d.iterdir()} - {"in.txt", "side.tsv"}
            if code:
                assert not written, (argv, written)
                assert out.getvalue() == "", argv
            else:
                named = {Path(a).name for a in argv if Path(a).name in OUTPUTS}
                assert written == named, (argv, written)

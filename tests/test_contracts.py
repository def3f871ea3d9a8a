"""The CLI output contracts: JSON key order, table headers, --table-out bytes.

Every output format is written by `optcoding.cli`; these tests pin the
parts of it that a reader of the outputs depends on and that no value
comparison would notice: the order of keys in each JSON payload, the
header line of each table, and the exact bytes of a frequency table.
"""

import json
from collections import Counter

import pytest

from optcoding import cli
from optcoding.randtype import RandomTypingParams, generate

FIT_KEYS = ["schema", "family", "params", "log_likelihood", "n", "support"]


def pairs(capsys, argv):
    """Run the command in-process; parse its stdout keeping every key order."""
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out, object_pairs_hook=list)


def keys(obj):
    return [k for k, _ in obj]


def value(obj, key):
    return dict(obj)[key]


@pytest.fixture
def counts(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_text("rank\tcount\n1\t70\n2\t20\n3\t10\n4\t4\n")
    return str(path)


class TestJsonKeyOrder:
    def test_codes(self, capsys):
        payload = pairs(capsys, ["codes", "--alphabet", "ab", "--ranks", "3",
                                 "--format", "json"])
        assert payload == [("schema", "codes/1"), ("alphabet", ["a", "b"]),
                           ("codes", ["a", "b", "aa"])]

    def test_fit_single_family(self, capsys, counts):
        payload = pairs(capsys, ["fit", "--input", counts, "--family", "zeta"])
        assert keys(payload) == FIT_KEYS
        assert value(payload, "schema") == "fit/1"
        assert keys(value(payload, "params")) == ["alpha"]

    def test_fit_results(self, capsys, counts):
        payload = pairs(capsys, ["fit", "--input", counts])
        assert keys(payload) == ["schema", "results"]
        assert value(payload, "schema") == "fit/1"
        results = value(payload, "results")
        assert len(results) == 3
        assert all(keys(r) == FIT_KEYS for r in results)
        params = {value(r, "family"): keys(value(r, "params")) for r in results}
        assert params == {"geometric": ["q"], "zeta": ["alpha"],
                          "zipf-mandelbrot": ["alpha", "b"]}

    def test_analysis(self, capsys, tmp_path):
        text = tmp_path / "corpus.txt"
        text.write_text("the cat sat on the mat the cat on on the\n")
        payload = pairs(capsys, ["analyze", "--input", str(text)])
        assert keys(payload) == [
            "schema", "tau", "n_c", "n_d", "z_score", "note", "l_actual",
            "l_optimal", "efficiency_ratio", "fits", "fit_warning",
        ]
        assert value(payload, "schema") == "analysis/1"
        assert all(keys(f) == FIT_KEYS for f in value(payload, "fits"))

    @pytest.mark.parametrize("words", ["500", "1"])
    def test_simulate(self, capsys, words):
        payload = pairs(capsys, ["simulate", "--N", "3", "--ps", "0.4",
                                 "--words", words, "--seed", "7"])
        assert keys(payload) == [
            "schema", "N", "p_s", "l_min", "seed", "n_words", "n_types", "tau",
            "n_c", "n_d", "z_score", "l_actual", "l_optimal", "efficiency_ratio",
        ]
        assert value(payload, "schema") == "simulate/1"
        concordance = [value(payload, k) for k in ("tau", "n_c", "n_d", "z_score")]
        if words == "1":  # one type: no pairs to count
            assert concordance == [None] * 4
        else:
            assert None not in concordance


class TestHeaders:
    @pytest.mark.parametrize("argv, header", [
        (["lengths", "--N", "2", "--imax", "3"], "i\tl_i"),
        (["lengths", "--N", "2", "--imax", "3", "--format", "csv"], "i,l_i"),
        (["figure", "--N", "2", "--ps", "0.3", "--imax", "3"], "i,p_i"),
        (["figure", "--N", "2", "--ps", "0.3", "--imax", "3", "--format", "tsv"],
         "i\tp_i"),
        (["codes", "--alphabet", "ab", "--ranks", "3", "--format", "csv"], "rank,code"),
        (["codes", "--alphabet", "ab", "--ranks", "3"], "rank\tcode"),
    ])
    def test_header_line(self, capsys, argv, header):
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] == header
        assert len(lines) == 5 and lines[-1] == ""  # three rows, final newline


class TestTableOut:
    def run(self, capsys, tmp_path, text, *flags):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        table = tmp_path / "table.tsv"
        argv = ["analyze", "--input", str(corpus), "--table-out", str(table), *flags]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "analysis/1"
        return table.read_bytes()

    def test_sidecar_magnitudes(self, capsys, tmp_path):
        side = tmp_path / "durations.tsv"
        side.write_text("bird\t0.1\nsong\t1e-05\ncat\t2.5\n")
        out = self.run(capsys, tmp_path, "bird song cat cat bird cat ox\n",
                       "--magnitudes", str(side))
        assert out == (
            b"type\tfrequency\tmagnitude\n"
            b"cat\t3\t2.5\n"
            b"bird\t2\t0.1\n"
            b"song\t1\t1e-05\n"
            b"ox\t1\t2.0\n"
        )

    def test_graphemes(self, capsys, tmp_path):
        # "e" + combining acute is one grapheme of two characters
        accent = "e\u0301"
        text = f"{accent}t{accent} cat {accent}t{accent} flag\U0001F1EB\U0001F1F7\n"
        out = self.run(capsys, tmp_path, text, "--graphemes")
        assert out == (
            "type\tfrequency\tmagnitude\n"
            f"{accent}t{accent}\t2\t3.0\n"
            "cat\t1\t3.0\n"
            "flag\U0001F1EB\U0001F1F7\t1\t5.0\n"
        ).encode("utf-8")

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_simulated_corpus_matches_per_row_reference(self, capsys, tmp_path, sidecar):
        words = generate(RandomTypingParams(26, 0.18), 11, 20_000)
        counts = Counter(words)
        types = sorted(counts, key=counts.__getitem__, reverse=True)  # stable: first seen
        # every other type a distinct float such as 1e-05 or 3.0000000000000004e-05
        durations = {t: (k + 1) * 1e-05 for k, t in enumerate(types[::2])} if sidecar else {}
        flags = []
        if durations:
            side = tmp_path / "durations.tsv"
            side.write_text("".join(f"{t}\t{d!r}\n" for t, d in durations.items()))
            flags = ["--magnitudes", str(side)]
        rows = [f"{t}\t{counts[t]}\t{float(durations.get(t, len(t)))}" for t in types]
        expected = "\n".join(["type\tfrequency\tmagnitude", *rows]) + "\n"
        assert self.run(capsys, tmp_path, " ".join(words) + "\n", *flags) == expected.encode()

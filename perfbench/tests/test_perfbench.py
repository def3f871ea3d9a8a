"""Tests of the benchmark itself, at small input sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import gauge
import oracle
import run
import spans
import workloads
import worker

import optcoding
import optcoding.cli

SMALL = {
    "typing-corpus": {"words": 3000},
    "zipf-durations": {"tokens": 6000, "vocab": 900},
    "rank-laws": {
        "figure_imax": 2000, "lengths_imax": 700, "verify_imax": 300, "sample_n": 400,
        "entropy_truncation": 20000, "fit_draws": 3000, "fit_ranks": 400,
    },
}


def run_small(name, seed, workdir, sequences=1):
    spec = workloads.prepare(name, seed, workdir, SMALL[name])
    state = {"attempted": 0, "failed": 0, "messages": []}
    for _ in range(sequences):
        worker.run_sequence(spec["ops"], workdir, state)
    return state


def tree(tmp_path_factory, name, seed):
    path = tmp_path_factory.mktemp(f"{name}-{seed}")
    spec = workloads.prepare(name, seed, path, SMALL[name])
    files = {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return json.dumps(spec, sort_keys=True), files


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_byte_identical_per_seed(tmp_path_factory, name):
    first = tree(tmp_path_factory, name, 5)
    assert tree(tmp_path_factory, name, 5) == first
    assert tree(tmp_path_factory, name, 6) != first


ZM_STOPS_SHORT = pytest.mark.xfail(
    strict=True,
    reason="optcoding's Zipf-Mandelbrot L-BFGS-B stops about 2.8 nats short of the "
           "likelihood its own objective reaches at the MLE on this 3,000-word corpus",
)


@pytest.mark.parametrize("name", [
    pytest.param("typing-corpus", marks=ZM_STOPS_SHORT), "zipf-durations", "rank-laws"])
def test_every_operation_passes_at_this_commit(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    state = run_small(name, 3, tmp_path)
    assert state["failed"] == 0, state["messages"]
    assert state["attempted"] == len(workloads.prepare(name, 3, tmp_path, SMALL[name])["ops"])


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    true_pair_counts = optcoding.assign.pair_counts

    def off_by_one(dist, asg):
        n_c, n_d = true_pair_counts(dist, asg)
        return n_c + 1, n_d

    monkeypatch.setattr(optcoding.assign, "pair_counts", off_by_one)
    state = run_small("typing-corpus", 3, tmp_path)
    assert state["attempted"] == 2
    assert state["failed"] == 2  # simulate and analyze both report n_c
    assert any(m.startswith("simulate: n_c") for m in state["messages"])
    assert any(m.startswith("analyze: n_c") for m in state["messages"])
    worker = {**state, "op_walls": {"op": [1.0]}, "gauge_walls": [1.0], "peak_rss_mb": 1.0}
    ok_frac = run.end_to_end(worker, [(1.0, 1.0)])["ok_frac"]
    assert ok_frac == (0.0, "frac")


def test_corrupted_table_file_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = optcoding.cli._write_output

    def truncating(text, path):
        real(text[:-2] + "\n" if path else text, path)

    monkeypatch.setattr(optcoding.cli, "_write_output", truncating)
    state = run_small("typing-corpus", 3, tmp_path)
    assert state["failed"] == 1
    assert "analyze: table.tsv differs from the expected table" in state["messages"]


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7];
    # e [10, 12] recurses into e [10.5, 11.5].
    tree = [
        ["a", -1, 0.0, 10.0, False],
        ["b", 0, 1.0, 4.0, False],
        ["c", 0, 5.0, 9.0, True],
        ["d", 2, 6.0, 7.0, False],
        ["e", -1, 10.0, 12.0, False],
        ["e", 4, 10.5, 11.5, False],
    ]
    m = spans.span_metrics(tree)
    assert m["a.self_s"] == pytest.approx(3.0)
    assert m["c.self_s"] == pytest.approx(3.0)
    assert m["b.self_s"] == m["b.s"] == pytest.approx(3.0)
    assert m["a.s"] == pytest.approx(10.0)
    assert m["e.s"] == pytest.approx(2.0)  # the recursive call is not counted twice
    assert m["e.self_s"] == pytest.approx(2.0)
    assert m["e.calls"] == 2
    assert m["trace.spans"] == 6
    assert m["trace.raised"] == 1


def test_overlapping_children_are_covered_once():
    tree = [["p", -1, 0.0, 10.0, False], ["x", 0, 2.0, 6.0, False], ["y", 0, 4.0, 8.0, False]]
    assert spans.span_metrics(tree)["p.self_s"] == pytest.approx(4.0)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    originals = (optcoding.maxent.code_length_for_rank, optcoding.corpus.abbreviation_analysis,
                 optcoding.pair_counts)
    tracer = spans.Tracer()
    tracer.install(optcoding)
    try:
        assert optcoding.maxent.code_length_for_rank is not originals[0]
        assert optcoding.corpus.abbreviation_analysis is not originals[1]
        assert optcoding.pair_counts is optcoding.assign.pair_counts is not originals[2]
        state = run_small("typing-corpus", 3, tmp_path)
    finally:
        tracer.uninstall()
    assert (optcoding.maxent.code_length_for_rank, optcoding.corpus.abbreviation_analysis,
            optcoding.pair_counts) == originals
    assert state["attempted"] == 2
    m = tracer.metrics()
    assert m["corpus.abbreviation_analysis.calls"] == 2
    assert m["assign.pair_counts.calls"] == 4  # two per analysis: the duplicate pass
    assert m["assign.pair_counts.calls_per_analyze"] == 2
    assert m["corpus.tokens"] == SMALL["typing-corpus"]["words"]
    assert m["codebook.nth_string.calls"] > 0
    assert m["assign.pair_counts.cells"] > 0
    assert m["cli.main.calls"] == 2


def test_strict_inversions_match_brute_force():
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 7, 64, 300):
        a = rng.integers(0, 5, n).astype(float)
        brute = sum(a[i] > a[j] for i, j in itertools.combinations(range(n), 2))
        assert oracle.strict_inversions(a) == brute


def test_pair_counts_match_the_definition_on_ties():
    rng = np.random.default_rng(1)
    f = np.sort(rng.integers(1, 6, 200))[::-1]
    m = rng.integers(1, 8, 200).astype(float)
    n_c = n_d = 0
    for i, j in itertools.combinations(range(200), 2):
        s = np.sign(f[i] - f[j]) * np.sign(m[i] - m[j])
        n_c += s > 0
        n_d += s < 0
    assert oracle.pair_counts(f, m) == (n_c, n_d)


def test_block_lengths_match_enumeration():
    want = [len(s) for s in itertools.islice(
        ("".join(p) for k in itertools.count(1) for p in itertools.product("ab", repeat=k)), 100)]
    assert oracle.block_lengths(2, 1, 100).tolist() == want


def test_importtime_breakdown_sums_a_lazily_loaded_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.optimize._a",
        "import time:       200 |        300 |       scipy.optimize._b",
        "import time:        50 |        50 |         scipy.optimize._b._c",
        "import time:      1000 |       2000 |     optcoding.maxent",
        "import time:        10 |       3000 | optcoding",
    ])
    got = run.importtime_cumulative(stderr)
    assert got["optcoding"] == pytest.approx(0.003)
    assert got["scipy.optimize"] == pytest.approx(0.0004)


def test_sample_check_allows_one_rank_only_in_the_far_tail():
    want = [3.0, 5e6, 1e30]
    assert checks.check_sample(np.array([3, 5_000_001, 1e30 * (1 + 1e-12)]), {"ranks": want}) == []
    assert checks.check_sample(np.array([4, 5e6, 1e30]), {"ranks": want})
    assert checks.check_sample(np.array([3, 5_000_002, 1e30]), {"ranks": want})


def test_times_are_rescaled_to_the_nominal_gauge_speed():
    walls = {"figure": [2.0, 1.5, 3.0], "fit": [0.2, 0.4], "entropy": [1.0]}
    nominal = gauge.NOMINAL_S
    worker = {"attempted": 6, "failed": 0, "op_walls": walls,
              "gauge_walls": [2 * nominal, nominal, 3 * nominal],  # host at half speed
              "peak_rss_mb": 1.0}
    setup = [(0.9, 3 * nominal), (0.7, nominal), (0.8, 2 * nominal)]  # each with its gauge
    e2e = run.end_to_end(worker, setup)
    assert e2e["setup_s"][1] == e2e["wall_s"][1] == "s"
    assert math.isclose(e2e["setup_s"][0], 0.4)  # median of 0.3, 0.7 and 0.4
    assert math.isclose(e2e["wall_s"][0], (2.0 + 0.3 + 1.0) / 2.0)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in spec["per_layer"]} == set(spans.PER_LAYER)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == spans.PER_LAYER
    worker = {"attempted": 1, "failed": 0, "op_walls": {"op": [1.0]}, "gauge_walls": [1.0],
              "peak_rss_mb": 1.0}
    e2e = run.end_to_end(worker, [(1.0, 1.0)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}


def test_refuses_to_run_without_the_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "rank-laws", "--seed", "1", "--seconds", "1"]) == 2
    assert not (tmp_path / ".perfbench").exists()

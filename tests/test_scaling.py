"""Scaling guards: the exact counts at sizes where a quadratic or per-group
method would take many seconds.

Nothing here asserts a wall time.  The group sweep `pair_counts` used
before Knight's method took about 15 s on the pair-count input below and
the per-string `verify_optimality` check about 8 s at i_max = 10**6, so
a return to either shows up as a jump in the suite's runtime.  Likewise a
tokenizer pass sized by each chunk's largest code point (a bincount over
it, say) would take 40 to 90 s on the 200k one-line chunks below.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from optcoding.assign import Assignment, RankedDistribution, pair_counts
from optcoding.corpus import build_table, tokenize
from optcoding.randtype import RandomTypingParams, verify_optimality


def tied_pairs(values) -> int:
    _, k = np.unique(values, return_counts=True)
    return sum(c * (c - 1) // 2 for c in k.tolist())


def test_pair_counts_match_kendall_tau_b_at_two_hundred_thousand_types():
    v = 200_000
    freqs = 20_000_000 // np.arange(1, v + 1)  # Zipf-like: 8,844 distinct frequencies
    mags = np.random.default_rng(20260).lognormal(0.0, 0.5, v)
    n_c, n_d = pair_counts(RankedDistribution(freqs / freqs.sum()), Assignment(mags))
    assert type(n_c) is int and type(n_d) is int
    n0 = v * (v - 1) // 2
    n1, n2 = tied_pairs(freqs), tied_pairs(mags)
    tau_b = (n_c - n_d) / math.sqrt((n0 - n1) * (n0 - n2))
    expected = stats.kendalltau(freqs, mags).statistic
    assert tau_b == pytest.approx(expected, rel=1e-12)


def test_verify_optimality_at_a_million_ranks():
    report = verify_optimality(RandomTypingParams(26, 0.18), 10**6)
    assert report.passed and len(report.checks) == 4, report


def test_build_table_on_two_hundred_thousand_non_ascii_lines():
    lines = [
        f"W{k % 9000}, \u00c9t\u00e9{k % 7}! \u00ab\U0001f600{k % 3}\u00bb\n"
        for k in range(200_000)
    ]
    table = build_table(lines, lowercase=True)
    counts = Counter(tokenize("".join(lines), lowercase=True))
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])  # stable: first seen
    assert list(zip(table.types, table.frequencies.tolist())) == ranked
    assert table.total_tokens == 600_000

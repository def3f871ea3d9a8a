"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a `criterion N (<name>): PASS` line on success; run with
`pytest tests/test_acceptance.py -s` to see them as they complete.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

import optcoding as oc
from conftest import enumerated_strings
from optcoding.corpus import table_from_tokens

OK = "criterion {} ({}): PASS"


def done(num, name):
    print(OK.format(num, name))


class TestCriterion1:
    def test_oracle_equivalence(self):
        """Sorted-smallest assignment equals the exhaustive minimum on 200
        seeded instances (V <= 7, pool <= 9, all three cost kinds)."""
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        costs = [
            oc.CostFunction.identity(),
            oc.CostFunction.power(2.0),
            oc.CostFunction.exponential(float(np.e)),
        ]
        for k in range(200):
            v = int(rng.integers(2, 8))
            pool = int(rng.integers(v, 10))
            dist = oc.RankedDistribution.from_weights(rng.random(v) + 1e-3)
            ms = oc.MagnitudeMultiset(rng.uniform(0.1, 10.0, pool))
            g = costs[k % 3]
            best = oc.optimal_assignment(dist, ms)
            lhs = oc.mean_cost(dist, best, g)
            rhs = oc.brute_force_minimum(dist, ms, g)
            assert abs(lhs - rhs) <= 1e-12, (k, lhs, rhs)
            assert oc.is_optimal(dist, best, ms)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        done(1, "oracle equivalence")


class TestCriterion2:
    def test_length_rank_law(self):
        """Closed-form length, for a rank and for an array of ranks, and the
        length of `nth_string` equal the length of the string that an
        `itertools.product` enumeration lists at that rank, for N in
        {1,2,3,5,26}, l_min in {0,1,2}, ranks up to 10**4."""
        start = time.monotonic()
        ranks = range(1, 10_001)
        for n in (1, 2, 3, 5, 26):
            alphabet = oc.Alphabet.latin(n)
            for l_min in (0, 1, 2):
                listed = [len(s) for s in itertools.islice(enumerated_strings(n, l_min), len(ranks))]
                assert [oc.code_length_for_rank(n, l_min, i) for i in ranks] == listed
                assert oc.code_length_for_rank(n, l_min, np.array(ranks)).tolist() == listed
                assert [len(oc.nth_string(alphabet, l_min, i)) for i in ranks] == listed
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
        done(2, "length-rank law")


class TestCriterion3:
    def test_six_binary_codes_byte_exact(self):
        out = subprocess.run(
            [sys.executable, "-m", "optcoding", "codes", "--alphabet", "ab",
             "--ranks", "6"],
            capture_output=True,
        )
        assert out.returncode == 0
        assert out.stdout == b"rank\tcode\n1\ta\n2\tb\n3\taa\n4\tab\n5\tba\n6\tbb\n"
        done(3, "binary code table reproduction")


class TestCriterion4:
    @pytest.mark.parametrize("p_s", [0.1, 0.18, 0.5])
    def test_binary_rank_probability_column(self, p_s):
        params = oc.RandomTypingParams(2, p_s, 1)
        assert abs(oc.rank_probability(params, 1) - p_s / 2) < 1e-12
        assert abs(oc.rank_probability(params, 2) - p_s / 2) < 1e-12
        for i in (3, 4, 5, 6):
            assert abs(oc.rank_probability(params, i) - (1 - p_s) * p_s / 4) < 1e-12
        # The reference table prints length 2 for rank 7, but its own
        # probability column carries the cube (1-p_s)^2 p_s / 8, i.e. a
        # length-3 word: rank 7 is the first string of length 3 (the
        # printed 2 is a typo).  The length law settles it.
        assert oc.code_length_for_rank(2, 1, 7) == 3
        assert abs(oc.rank_probability(params, 7) - (1 - p_s) ** 2 * p_s / 8) < 1e-12

    def test_done(self):
        done(4, "binary rank-probability table reproduction")


class TestCriterion5:
    @pytest.mark.parametrize("n", [1, 2, 26])
    @pytest.mark.parametrize("p_s", [0.1, 0.18, 0.5])
    def test_total_mass(self, n, p_s):
        """Per-rank head plus the closed-form tail (words longer than the
        head's last length carry (1-p_s)^(L - l_min + 1) mass)."""
        params = oc.RandomTypingParams(n, p_s, 1)
        depth = 4 if n == 26 else 14
        head_ranks = oc.string_count_through_length(n, 1, depth)
        head = float(oc.rank_probabilities(params, head_ranks).sum())
        tail = (1 - p_s) ** depth  # l_min = 1
        assert abs(head + tail - 1.0) < 1e-9

    def test_done(self):
        done(5, "rank-law normalization")


class TestCriterion6:
    @pytest.mark.parametrize("n", [26, 2])
    def test_step_series_and_plateaus(self, n):
        params = oc.RandomTypingParams(n, 0.18, 1)
        ranks, probs = oc.figure2_data(params, 1000)
        assert len(ranks) == 1000
        assert np.all(np.diff(probs) <= 0)
        drops = set((np.flatnonzero(np.diff(probs) < 0) + 1).tolist())
        boundaries = []
        total, l = 0, 1
        while total < 1000:
            total += n**l
            boundaries.append(total)
            l += 1
        expected = {b for b in boundaries if b < 1000}
        assert drops == expected
        assert np.ptp(probs[:n]) == 0.0  # first plateau spans exactly N ranks
        assert probs[n] < probs[n - 1]

    def test_done(self):
        done(6, "step-series reproduction")


class TestCriterion7:
    def test_generated_corpus_matches_exact_law(self):
        params = oc.RandomTypingParams(26, 0.18, 1)
        n = 1_000_000
        words = oc.generate(params, 1, n)

        probs = oc.rank_probabilities(params, 5000)
        kmax = int(np.flatnonzero(n * probs >= 50)[-1]) + 1
        max_len = oc.code_length_for_rank(26, 1, kmax)
        short = [w for w in words if len(w) <= max_len]
        obs_head = np.bincount(
            oc.word_ranks(params, short), minlength=kmax + 1
        )[1 : kmax + 1]
        obs = np.append(obs_head, n - obs_head.sum())
        exp_head = n * probs[:kmax]
        exp = np.append(exp_head, n - exp_head.sum())
        statistic = float(((obs - exp) ** 2 / exp).sum())
        p_value = float(stats.chi2.sf(statistic, len(obs) - 1))
        assert p_value > 0.001

        table = oc.build_table(" ".join(words))
        result = oc.abbreviation_analysis(table)
        assert result.tau <= 0
        done(7, "statistical convergence")


class TestCriterion8:
    def test_maxent_identities(self):
        for alpha in (0.1, 0.5, 1.0, 2.0):
            q = 1.0 - math.exp(-alpha)
            r = math.exp(-alpha)
            geo = oc.GeometricParams(q)
            for i in range(1, 101):
                exponential_form = (1.0 - r) / r * r**i
                assert abs(oc.geometric_pmf(geo, i) - exponential_form) < 1e-12
        for alpha in (1.5, 2.0, 3.0, 4.0):
            assert abs(oc.hurwitz_zeta(alpha, 1.0) - oc.riemann_zeta(alpha)) < 1e-10
        assert abs(oc.riemann_zeta(2.0) - math.pi**2 / 6) < 1e-10
        assert abs(oc.riemann_zeta(4.0) - math.pi**4 / 90) < 1e-10
        done(8, "maxent identities")


class TestCriterion9:
    def test_maxent_reproduces_families(self):
        for alpha in (0.1, 0.5, 1.0, 2.0):
            spec = oc.MaxentSpec(alpha, oc.LinearLength())
            geo = oc.GeometricParams(1.0 - math.exp(-alpha))
            for i in range(1, 101):
                assert abs(oc.maxent_pmf(spec, i) - oc.geometric_pmf(geo, i)) < 1e-12
        for alpha in (1.5, 2.0, 3.0):
            spec = oc.MaxentSpec(alpha, oc.LogLength())
            zp = oc.ZetaParams(alpha)
            for i in range(1, 101):
                assert abs(oc.maxent_pmf(spec, i) - oc.zeta_pmf(zp, i)) < 1e-10
        done(9, "maxent-family bridges")


def _fixture_corpora():
    """20 deterministic corpora: sampled rank data, crafted texts, and
    random-word mixtures."""
    tables = []
    for seed in range(8):
        ranks = oc.sample(oc.ZetaParams(1.6 + 0.1 * seed), seed, 4000)
        tables.append(table_from_tokens(f"t{int(v)}" for v in ranks.tolist()))
    for seed in range(8, 14):
        ranks = oc.sample(oc.GeometricParams(0.15 + 0.05 * (seed - 8)), seed, 3000)
        tables.append(table_from_tokens(f"w{int(v)}" for v in ranks.tolist()))
    tables.append(oc.build_table("to be or not to be that is the question"))
    tables.append(oc.build_table("a bb ccc dddd eeeee " * 10 + "a a a bb bb ccc"))
    rng = np.random.default_rng(99)
    for _ in range(4):
        toks = [
            "".join("abcdef"[d] for d in rng.integers(0, 6, rng.integers(1, 7)))
            for _ in range(2500)
        ]
        tables.append(table_from_tokens(toks))
    return tables


class TestCriterion10:
    def test_recoding_optimality_on_fixtures(self):
        corpora = _fixture_corpora()
        assert len(corpora) == 20
        alphabet = oc.Alphabet.from_string("ab")
        rng = np.random.default_rng(7)
        for table in corpora:
            res = oc.optimal_recoding(table, alphabet, 1)
            dist = table.ranked_distribution()
            formula = float(
                dist.probs
                @ np.array(
                    [oc.code_length_for_rank(2, 1, i) for i in range(1, table.size + 1)]
                )
            )
            assert abs(res.l_optimal - formula) < 1e-12
            lengths = res.code_table.lengths().astype(float)
            strict_probs = bool(np.all(np.diff(dist.probs) < 0))
            for _ in range(1000):
                perm = rng.permutation(table.size)
                permuted = float(dist.probs @ lengths[perm])
                assert res.l_optimal <= permuted + 1e-15
                if strict_probs and np.any(lengths[perm] != lengths):
                    assert res.l_optimal < permuted
        done(10, "recoding optimality")


class TestCriterion11:
    def test_code_classification_and_segmentation(self):
        ab = oc.Alphabet.from_string("ab")
        repeated = oc.CodeTable(("a", "a", "a", "b", "b", "b"), ab)
        shuffled = oc.CodeTable(("aa", "ab", "a", "b", "ba", "bb"), ab)
        gamma = oc.CodeTable(("b", "aba", "abb", "aabaa", "aabab", "aabba"), ab)

        assert oc.classify(repeated).singular
        shuffled_class = oc.classify(shuffled)
        assert shuffled_class.non_singular and not shuffled_class.uniquely_decodable
        assert oc.classify(gamma).uniquely_decodable

        parses = oc.segmentations("baba", shuffled, cap=100)
        assert (4, 3, 4, 3) in parses
        assert (5, 5) in parses
        assert oc.segmentations("baba", gamma, cap=100) == [(1, 2)]
        done(11, "code classification")


class TestCriterion12:
    def test_fit_recovery(self):
        zeta_ranks = oc.sample(oc.ZetaParams(2.0), 12, 100_000)
        alpha_hat = oc.fit_mle(zeta_ranks, "zeta").params["alpha"]
        assert 1.95 <= alpha_hat <= 2.05

        geo_ranks = oc.sample(oc.GeometricParams(0.3), 11, 100_000)
        q_hat = oc.fit_mle(geo_ranks, "geometric").params["q"]
        assert 0.29 <= q_hat <= 0.31
        done(12, "fit recovery")

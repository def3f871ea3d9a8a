import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optcoding.assign import (
    Assignment,
    CostFunction,
    MagnitudeMultiset,
    RankedDistribution,
    brute_force_minimum,
    is_optimal,
    kendall_tau,
    mean_cost,
    optimal_assignment,
    pair_counts,
    pearson_r,
    unconstrained_optimum,
)

IDENTITY = CostFunction.identity()


def dist(*p):
    return RankedDistribution(np.array(p))


def asg(*l):
    return Assignment(np.array(l, dtype=float))


def pool(*v, allow_zero=False):
    return MagnitudeMultiset(np.array(v, dtype=float), allow_zero=allow_zero)


def brute_pair_counts(p, l):
    """O(V^2) reference for pair_counts."""
    n_c = n_d = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            s = np.sign(p[i] - p[j]) * np.sign(l[i] - l[j])
            if s > 0:
                n_c += 1
            elif s < 0:
                n_d += 1
    return n_c, n_d


def oracle_pair_counts(p, l):
    """The group sweep pair_counts used before Knight's method: walk the
    probability-tie groups in order, keeping per-magnitude counts of the
    ranks seen so far.  O(groups x distinct magnitudes)."""
    _, codes = np.unique(l, return_inverse=True)
    n_bins = int(codes.max()) + 1
    seen = np.zeros(n_bins, dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, p[:-1] > p[1:]])
    ends = np.r_[starts[1:], p.size]
    n_c = n_d = 0
    for s, e in zip(starts, ends):
        grp = np.bincount(codes[s:e], minlength=n_bins)
        cum = np.cumsum(seen)
        n_c += int(grp @ (cum[-1] - cum))  # seen before, magnitude strictly above
        n_d += int(grp @ (cum - seen))  # seen before, strictly below
        seen += grp
    return n_c, n_d


def counter_is_optimal(d, a, ms):
    """Reference for is_optimal: the explicit multiset comparison with Counters."""
    if len(a) != d.size:
        raise ValueError("size mismatch")
    used = Counter(a.magnitudes.tolist())
    avail = Counter(ms.values.tolist())
    if used - avail:
        raise ValueError("assignment is not a sub-multiset of the magnitude pool")
    if used != Counter(ms.values[: d.size].tolist()):
        return False
    m = a.magnitudes
    return bool(np.all(m[:-1] <= m[1:]))


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError:
        return "raises"


class TestRankedDistribution:
    def test_rescales_tiny_sum_error(self):
        d = RankedDistribution(np.array([0.5, 0.3, 0.2 + 5e-10]))
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_rejects_large_sum_error(self):
        with pytest.raises(ValueError):
            RankedDistribution(np.array([0.5, 0.3, 0.3]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RankedDistribution(np.array([0.3, 0.5, 0.2]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RankedDistribution(np.array([1.1, -0.1]))

    def test_from_weights_sorts_and_normalizes(self):
        d = RankedDistribution.from_weights([1.0, 3.0, 2.0])
        assert np.allclose(d.probs, [0.5, 1 / 3, 1 / 6])

    def test_immutability(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: RankedDistribution(np.ones((1, 1))), "probs must be a nonempty 1-D vector"),
        (lambda: RankedDistribution([]), "probs must be a nonempty 1-D vector"),
        (lambda: RankedDistribution([math.nan]), "probs must be finite"),
        (lambda: RankedDistribution([10**400]), "probs must fit in float64"),
        (lambda: RankedDistribution.from_weights([[1.0]]), "weights must be a nonempty 1-D vector"),
        (lambda: RankedDistribution.from_weights([]), "weights must be a nonempty 1-D vector"),
        (lambda: RankedDistribution.from_weights([1.0, -1.0]), "weights must be nonnegative"),
        (lambda: RankedDistribution.from_weights([1.0, math.inf]), "weights must be finite"),
        (lambda: RankedDistribution.from_weights([0.0, 0.0]), "weights must not all be zero"),
        # The shared array constructor words these alike for each class, so
        # their ids name the class and case.
        pytest.param(lambda: MagnitudeMultiset(np.ones((1, 1))),
                     "magnitudes must be a nonempty 1-D vector", id="MagnitudeMultiset-2-D"),
        pytest.param(lambda: MagnitudeMultiset([]), "magnitudes must be a nonempty 1-D vector",
                     id="MagnitudeMultiset-empty"),
        (lambda: MagnitudeMultiset([1.0, math.nan]), "magnitudes must be finite"),
        (lambda: MagnitudeMultiset([10**400]), "magnitudes must fit in float64"),
        pytest.param(lambda: Assignment(np.ones((1, 1))),
                     "magnitudes must be a nonempty 1-D vector", id="Assignment-2-D"),
        pytest.param(lambda: Assignment([]), "magnitudes must be a nonempty 1-D vector",
                     id="Assignment-empty"),
        pytest.param(lambda: Assignment([1.0, math.inf]), "magnitudes must be finite",
                     id="Assignment-inf"),
        (lambda: Assignment([1.0, -1.0]), "assigned magnitudes must be nonnegative"),
        (lambda: CostFunction("identity", 1.0), "identity cost takes no parameter"),
        pytest.param(lambda: CostFunction.power(math.nan), "power cost exponent must be finite",
                     id="CostFunction-power-nan"),
        pytest.param(lambda: CostFunction.power(math.inf), "power cost exponent must be finite",
                     id="CostFunction-power-inf"),
        pytest.param(lambda: CostFunction.exponential(math.nan),
                     "exponential cost base must be finite", id="CostFunction-exponential-nan"),
        pytest.param(lambda: CostFunction.exponential(math.inf),
                     "exponential cost base must be finite", id="CostFunction-exponential-inf"),
        (lambda: brute_force_minimum(dist(0.5, 0.5), pool(1.0), IDENTITY),
         "pool of 1 magnitudes cannot cover 2 ranks"),
        (lambda: pearson_r([0.5, 0.5], [1.0, 2.0, 3.0]),
         "pearson_r needs two equal-length vectors of size >= 2"),
        (lambda: pearson_r([[0.5, 0.5]], [[1.0, 2.0]]),
         "pearson_r needs two equal-length vectors of size >= 2"),
        (lambda: pearson_r([1.0], [2.0]), "pearson_r needs two equal-length vectors of size >= 2"),
    ])
    def test_rejected_with_its_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_sizes_and_iteration(self):
        assert len(dist(0.5, 0.3, 0.2)) == 3
        assert len(pool(2.0, 1.0)) == 2
        assert len(asg(1, 2)) == 2
        assert list(asg(1, 2)) == [1.0, 2.0]


class TestCostFunction:
    def test_kinds_evaluate(self):
        assert CostFunction.identity()(3.0) == 3.0
        assert CostFunction.power(2.0)(3.0) == 9.0
        assert CostFunction.exponential(2.0)(3.0) == 8.0

    @pytest.mark.parametrize(
        "g",
        [CostFunction.identity(), CostFunction.power(2.0), CostFunction.power(0.5),
         CostFunction.exponential(math.e)],
    )
    def test_strictly_increasing_on_positives(self, g):
        xs = np.sort(np.random.default_rng(1).uniform(0.01, 50.0, 64))
        ys = g(xs)
        assert np.all(np.diff(ys) > 0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.power(0.0)
        with pytest.raises(ValueError):
            CostFunction.exponential(1.0)
        with pytest.raises(ValueError):
            CostFunction("nope")


class TestMeanCost:
    def test_uniform_equal_lengths(self):
        assert mean_cost(dist(0.5, 0.5), asg(1, 1), IDENTITY) == 1.0

    def test_direct_evaluation(self):
        assert mean_cost(dist(0.5, 0.3, 0.2), asg(1, 1, 2), IDENTITY) == pytest.approx(1.2, abs=1e-15)

    def test_power_cost(self):
        assert mean_cost(dist(0.5, 0.5), asg(1, 2), CostFunction.power(2.0)) == 2.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mean_cost(dist(0.5, 0.5), asg(1, 1, 1), IDENTITY)


class TestOptimalAssignment:
    def test_binary_string_lengths(self):
        # lengths of the shortest binary strings: 1,1,2,2,2,2,3,...
        ms = pool(1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
        out = optimal_assignment(dist(*([1 / 6] * 6)), ms)
        assert out.magnitudes.tolist() == [1, 1, 2, 2, 2, 2]

    def test_single_smallest(self):
        out = optimal_assignment(dist(1.0), pool(5, 3, 9))
        assert out.magnitudes.tolist() == [3.0]

    def test_matches_brute_force_on_random_instance(self):
        rng = np.random.default_rng(42)
        d = RankedDistribution.from_weights(rng.random(5))
        ms = MagnitudeMultiset(rng.uniform(0.0, 10.0, 8) + 1e-6)
        for g in (IDENTITY, CostFunction.power(2.0), CostFunction.exponential(math.e)):
            assert mean_cost(d, optimal_assignment(d, ms), g) == pytest.approx(
                brute_force_minimum(d, ms, g), abs=1e-12
            )

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            optimal_assignment(dist(0.5, 0.5), pool(1.0))


class TestUnconstrainedOptimum:
    def test_zero_floor(self):
        out = unconstrained_optimum(dist(0.5, 0.3, 0.2), 0.0)
        assert out.magnitudes.tolist() == [0.0, 0.0, 0.0]
        assert mean_cost(dist(0.5, 0.3, 0.2), out, IDENTITY) == 0.0

    def test_unit_floor_matches_repeated_codes(self):
        out = unconstrained_optimum(dist(*([1 / 6] * 6)), 1.0)
        assert out.magnitudes.tolist() == [1.0] * 6

    def test_real_floor(self):
        assert unconstrained_optimum(dist(1.0), 2.5).magnitudes.tolist() == [2.5]

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            unconstrained_optimum(dist(1.0), -1.0)


class TestBruteForce:
    def test_two_orderings_by_hand(self):
        assert brute_force_minimum(dist(0.7, 0.3), pool(1, 2), IDENTITY) == pytest.approx(
            1.3, abs=1e-15
        )

    def test_symmetric_ties(self):
        d = dist(1 / 3, 1 / 3, 1 / 3)
        assert brute_force_minimum(d, pool(1, 2, 3), IDENTITY) == pytest.approx(2.0, abs=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_minimum(dist(*([0.1] * 10)), pool(*range(1, 12)), IDENTITY)


class TestPairCounts:
    def test_perfect_anti_order(self):
        assert pair_counts(dist(0.5, 0.3, 0.2), asg(1, 2, 3)) == (0, 3)

    def test_all_length_ties(self):
        assert pair_counts(dist(0.5, 0.3, 0.2), asg(2, 2, 2)) == (0, 0)

    def test_hand_enumeration(self):
        # pairs: (1,2) length tie, (1,3) discordant, (2,3) discordant
        assert pair_counts(dist(0.5, 0.3, 0.2), asg(1, 1, 2)) == (0, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_quadratic_reference(self, seed):
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, 40))
        p = np.sort(rng.choice(np.arange(1, 8), v).astype(float))[::-1]
        p = p / p.sum()
        l = rng.choice(np.arange(1.0, 6.0), v)
        d = RankedDistribution(p)
        assert pair_counts(d, Assignment(l)) == brute_pair_counts(d.probs, l)


    @settings(max_examples=300, deadline=None)
    @given(
        n_probs=st.integers(1, 4),
        n_mags=st.integers(1, 4),
        v=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tie_heavy_inputs_match_the_oracles(self, n_probs, n_mags, v, seed):
        rng = np.random.default_rng(seed)
        weights = rng.choice(np.arange(1.0, 9.0), n_probs, replace=False)
        d = RankedDistribution.from_weights(rng.choice(weights, v))
        l = rng.choice(np.arange(1.0, 9.0), n_mags, replace=False)[rng.integers(0, n_mags, v)]
        got = pair_counts(d, Assignment(l))
        assert got == oracle_pair_counts(d.probs, l)
        assert all(type(n) is int for n in got)
        if v <= 60:
            assert got == brute_pair_counts(d.probs, l)

    @pytest.mark.parametrize("v", [1, 2, 3, 17, 64, 65, 300])
    def test_all_tied(self, v):
        d = RankedDistribution(np.full(v, 1.0 / v))
        assert pair_counts(d, Assignment(np.arange(1.0, v + 1))) == (0, 0)
        d = RankedDistribution.from_weights(np.arange(v, 0, -1.0))
        assert pair_counts(d, Assignment(np.full(v, 3.0))) == (0, 0)

    def test_one_and_two_ranks(self):
        assert pair_counts(dist(1.0), asg(4)) == (0, 0)
        assert pair_counts(dist(0.6, 0.4), asg(2, 1)) == (1, 0)
        assert pair_counts(dist(0.6, 0.4), asg(1, 2)) == (0, 1)
        assert pair_counts(dist(0.5, 0.5), asg(1, 2)) == (0, 0)
        assert pair_counts(dist(0.6, 0.4), asg(2, 2)) == (0, 0)

    @pytest.mark.parametrize("v", [2, 63, 64, 65, 1000, 4097])
    def test_distinct_values_at_block_widths(self, v):
        # sizes around powers of two, where the last merge block is partial
        rng = np.random.default_rng(v)
        d = RankedDistribution.from_weights(rng.permutation(v) + 1.0)
        l = rng.random(v)
        n_c, n_d = pair_counts(d, Assignment(l))
        assert (n_c, n_d) == oracle_pair_counts(d.probs, l)
        assert n_c + n_d == v * (v - 1) // 2


class TestKendallTau:
    def test_all_discordant(self):
        assert kendall_tau(dist(0.5, 0.3, 0.2), asg(1, 2, 3)) == -1.0

    def test_all_tied(self):
        assert kendall_tau(dist(0.4, 0.35, 0.25), asg(2, 2, 2)) == 0.0

    def test_partial(self):
        assert kendall_tau(dist(0.5, 0.3, 0.2), asg(1, 1, 2)) == pytest.approx(-2 / 3)

    def test_needs_two_ranks(self):
        with pytest.raises(ValueError):
            kendall_tau(dist(1.0), asg(1))


class TestPearson:
    def test_positive_affine(self):
        p = np.array([0.5, 0.3, 0.2])
        assert pearson_r(p, 2 * p + 3) == pytest.approx(1.0, abs=1e-12)

    def test_negative_affine(self):
        p = np.array([0.5, 0.3, 0.2])
        assert pearson_r(p, -p) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_moments(self):
        # E[pl] = 0.4, means 1/3 and 4/3, stds sqrt(14)/30 and sqrt(2)/3
        # => r = -(2/45) / (sqrt(28)/90) = -2/sqrt(7)
        assert pearson_r([0.5, 0.3, 0.2], [1.0, 1.0, 2.0]) == pytest.approx(
            -2 / math.sqrt(7), abs=1e-12
        )

    def test_zero_deviation_rejected(self):
        with pytest.raises(ValueError):
            pearson_r([0.5, 0.3, 0.2], [1.0, 1.0, 1.0])


class TestIsOptimal:
    def test_shortest_strings_assignment(self):
        ms = pool(1, 1, 2, 2, 2, 2, 3, 3, 3, 3)
        d = dist(0.3, 0.25, 0.2, 0.1, 0.1, 0.05)
        assert is_optimal(d, asg(1, 1, 2, 2, 2, 2), ms)

    def test_self_delimiting_lengths_are_suboptimal(self):
        # lengths 1,3,3,5,5,5 drawn from the binary-string length pool
        ms = pool(*([1, 1] + [2] * 4 + [3] * 8 + [4] * 16 + [5] * 32))
        d = dist(0.3, 0.25, 0.2, 0.1, 0.1, 0.05)
        assert not is_optimal(d, asg(1, 3, 3, 5, 5, 5), ms)

    def test_reversed_order_is_suboptimal(self):
        ms = pool(1, 2, 3)
        assert not is_optimal(dist(0.5, 0.3, 0.2), asg(3, 2, 1), ms)

    def test_foreign_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            is_optimal(dist(0.5, 0.5), asg(1, 7), pool(1, 2, 3))


    def test_pool_smaller_than_the_assignment_is_foreign(self):
        with pytest.raises(ValueError):
            is_optimal(dist(0.4, 0.3, 0.3), asg(1, 1, 2), pool(1, 2))


# Mutations of the optimal assignment: swap two ranks, bump one magnitude
# up by a step, or drop a magnitude for another pool value (across a block
# boundary when the two differ).
MUTATION = st.tuples(
    st.sampled_from(["swap", "bump", "drop"]),
    st.integers(0, 20),
    st.integers(0, 20),
)


class TestIsOptimalAgainstCounterOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(0, 4), min_size=1, max_size=14),
        v=st.integers(1, 15),
        mutations=st.lists(MUTATION, max_size=3),
        half_steps=st.booleans(),
    )
    def test_agrees_on_tie_heavy_pools(self, values, v, mutations, half_steps):
        scale = 0.5 if half_steps else 1.0
        ms = MagnitudeMultiset(np.array(values) * scale, allow_zero=True)
        m = list(ms.values[:v]) + [ms.values[-1]] * max(0, v - ms.size)
        for kind, i, j in mutations:
            i, j = i % v, j % v
            if kind == "swap":
                m[i], m[j] = m[j], m[i]
            elif kind == "bump":
                m[i] += scale
            else:
                m[i] = ms.values[j % ms.size]
        d = RankedDistribution(np.full(v, 1.0 / v))
        a = Assignment(np.array(m, dtype=float))
        assert outcome(is_optimal, d, a, ms) == outcome(counter_is_optimal, d, a, ms)

    @settings(max_examples=100, deadline=None)
    @given(
        used=st.lists(st.integers(0, 5), min_size=1, max_size=10),
        avail=st.lists(st.integers(0, 5), min_size=1, max_size=12),
    )
    def test_agrees_on_arbitrary_draws(self, used, avail):
        ms = MagnitudeMultiset(np.array(avail, dtype=float), allow_zero=True)
        d = RankedDistribution(np.full(len(used), 1.0 / len(used)))
        a = Assignment(np.array(used, dtype=float))
        assert outcome(is_optimal, d, a, ms) == outcome(counter_is_optimal, d, a, ms)


class TestOptimalityInvariants:
    """Consequences of the sorted-smallest optimum, swept over random instances."""

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence_and_no_concordant_pairs(self, seed):
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, 8))
        ms = MagnitudeMultiset(rng.uniform(0.1, 10.0, int(rng.integers(v, 10))))
        d = RankedDistribution.from_weights(rng.random(v) + 1e-3)
        opt = optimal_assignment(d, ms)
        for g in (IDENTITY, CostFunction.power(2.0), CostFunction.exponential(math.e)):
            assert mean_cost(d, opt, g) == pytest.approx(
                brute_force_minimum(d, ms, g), abs=1e-12
            )
        n_c, n_d = pair_counts(d, opt)
        assert n_c == 0
        tau = kendall_tau(d, opt)
        assert tau <= 0
        assert (tau == 0) == (n_d == 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_exchange_property(self, seed):
        """Swapping a concordant pair lowers the cost by exactly
        (p_i - p_j) * (g(l_j) - g(l_i))."""
        rng = np.random.default_rng(100 + seed)
        v = 6
        p = np.sort(rng.random(v))[::-1]
        d = RankedDistribution(p / p.sum())
        l = rng.uniform(0.5, 9.0, v)
        g = CostFunction.power(2.0)
        base = mean_cost(d, Assignment(l), g)
        for i in range(v):
            for j in range(i + 1, v):
                if np.sign(d.probs[i] - d.probs[j]) * np.sign(l[i] - l[j]) == 1:
                    swapped = l.copy()
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    delta = (d.probs[i] - d.probs[j]) * (g(l[j]) - g(l[i]))
                    assert delta < 0
                    assert mean_cost(d, Assignment(swapped), g) == pytest.approx(
                        base + delta, rel=1e-12
                    )

    def test_tie_invariance_to_the_last_bit(self):
        # swapping magnitudes across tied probabilities changes cost by
        # (p_i - p_j)(g(l_j) - g(l_i)) = 0, exactly
        d = dist(0.4, 0.2, 0.2, 0.2)
        g = CostFunction.exponential(math.e)
        base = mean_cost(d, asg(1.0, 2.0, 3.0, 4.0), g)
        assert mean_cost(d, asg(1.0, 4.0, 3.0, 2.0), g) == base
        assert mean_cost(d, asg(1.0, 3.0, 2.0, 4.0), g) == base

    @pytest.mark.parametrize("seed", range(10))
    def test_g_invariance_of_argmin(self, seed):
        """The sorted-smallest assignment wins under every cost kind."""
        rng = np.random.default_rng(200 + seed)
        v = int(rng.integers(2, 6))
        ms = MagnitudeMultiset(rng.uniform(0.1, 10.0, int(rng.integers(v, 8))))
        d = RankedDistribution.from_weights(rng.random(v) + 1e-2)
        opt = optimal_assignment(d, ms)
        for g in (IDENTITY, CostFunction.power(2.0), CostFunction.exponential(math.e)):
            assert mean_cost(d, opt, g) <= brute_force_minimum(d, ms, g) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_shrinking_a_pool_element_never_hurts(self, seed):
        rng = np.random.default_rng(300 + seed)
        v = int(rng.integers(2, 6))
        vals = rng.uniform(0.5, 10.0, int(rng.integers(v, 9)))
        d = RankedDistribution.from_weights(rng.random(v) + 1e-2)
        before = mean_cost(d, optimal_assignment(d, MagnitudeMultiset(vals)), IDENTITY)
        k = int(rng.integers(0, vals.size))
        shrunk = vals.copy()
        shrunk[k] *= rng.uniform(0.05, 0.95)
        after = mean_cost(d, optimal_assignment(d, MagnitudeMultiset(shrunk)), IDENTITY)
        assert after <= before + 1e-15


class TestZeroMagnitudes:
    def test_zero_needs_flag(self):
        with pytest.raises(ValueError):
            pool(0.0, 1.0)
        assert pool(0.0, 1.0, allow_zero=True).values.tolist() == [0.0, 1.0]

    def test_negative_always_rejected(self):
        with pytest.raises(ValueError):
            pool(-1.0, 1.0, allow_zero=True)

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optcoding import cli, corpus, maxent, randtype
from optcoding.maxent import (
    CodeLength,
    EntropyValue,
    LengthLaw,
    GeometricParams,
    LinearLength,
    LogLength,
    MaxentSpec,
    RankCounts,
    ZetaParams,
    ZipfMandelbrotParams,
    entropy,
    fit_mle,
    fit_ranked,
    geometric_pmf,
    hurwitz_zeta,
    maxent_pmf,
    riemann_zeta,
    sample,
    zeta_pmf,
    zipf_mandelbrot_pmf,
)

# high-precision references (mpmath, 30 digits)
ZETA_15 = 2.61237534868548834334856756792
ZETA_3 = 1.20205690315959428539973816151
HURWITZ_25_03 = 21.0692392022477230269553583241


def oracle_power_family_ranks(alpha, b, u):
    """The per-draw inversion the vectorized tail replaced: doubling, then
    integer bisection on hurwitz_zeta(alpha, r + b) <= (1 - u) Z, one draw
    at a time.  A rank past 2**1023 ends in OverflowError from `hi + b`."""
    head_size = maxent._SAMPLE_HEAD
    z = hurwitz_zeta(alpha, b)
    head = (np.arange(head_size) + b) ** -alpha
    cdf = np.cumsum(head) / z
    ranks = (np.searchsorted(cdf, u, side="left") + 1).astype(np.int64)
    oversized = {}
    for idx in np.flatnonzero(u > cdf[-1]):
        target = (1.0 - u[idx]) * z
        lo = head_size
        hi = lo * 2
        while hurwitz_zeta(alpha, hi + b) > target:
            lo = hi
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if hurwitz_zeta(alpha, mid + b) <= target:
                hi = mid
            else:
                lo = mid + 1
        if lo < 2**63:
            ranks[idx] = lo
        else:
            oversized[int(idx)] = lo
    if oversized:
        out = ranks.astype(object)
        for idx, r in oversized.items():
            out[idx] = r
        return out
    return ranks


class TestRiemannZeta:
    def test_basel_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-10)

    def test_against_independent_bracketed_summation(self):
        # descending-order head sum plus pure integral bracket of the tail:
        # integral from M+1 brackets below, integral from M brackets above
        alpha, m = 1.5, 20_000_000
        head = float(np.sum(np.arange(m, 0, -1, dtype=float) ** -alpha))
        lo = head + (m + 1) ** (1 - alpha) / (alpha - 1)
        hi = head + m ** (1 - alpha) / (alpha - 1)
        ours = riemann_zeta(alpha)
        assert lo - 1e-10 <= ours <= hi + 1e-10
        assert ours == pytest.approx(ZETA_15, abs=1e-10)

    def test_high_precision_reference(self):
        assert riemann_zeta(3.0) == pytest.approx(ZETA_3, abs=1e-12)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)
        with pytest.raises(ValueError):
            riemann_zeta(0.5)


class TestHurwitzZeta:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_offset_one_is_riemann(self, alpha):
        assert hurwitz_zeta(alpha, 1.0) == pytest.approx(riemann_zeta(alpha), abs=1e-10)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_index_shift(self, alpha):
        assert hurwitz_zeta(alpha, 2.0) == pytest.approx(
            riemann_zeta(alpha) - 1.0, abs=1e-10
        )

    def test_half_offset_closed_form(self):
        # sum (k + 1/2)^-2 = 4 * sum over odds 1/m^2 = pi^2 / 2
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2, abs=1e-10)

    def test_against_bracketed_summation(self):
        alpha, b, m = 2.5, 0.3, 200_000
        head = float(np.sum((np.arange(m, dtype=float) + b) ** -alpha))
        lo = head + (m + b) ** (1 - alpha) / (alpha - 1)
        hi = head + (m - 1 + b) ** (1 - alpha) / (alpha - 1)
        ours = hurwitz_zeta(alpha, b)
        assert lo - 1e-10 <= ours <= hi + 1e-10
        assert ours == pytest.approx(HURWITZ_25_03, abs=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(0.9, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, -3.0)


class TestHurwitzZetaRange:
    # The corners of fit_mle's Zipf-Mandelbrot search box, and a point of
    # the box where the sum is a subnormal float with few significant bits.
    POINTS = [(a, b) for a in (1.0 + 1e-6, 64.0) for b in (1e-6, 1e6)] + [(64.0, 1e5)]

    @pytest.mark.parametrize("alpha,b", POINTS)
    def test_box_corners_against_mpmath_without_warnings(self, alpha, b):
        exact = mpmath.zeta(alpha, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = hurwitz_zeta(alpha, b)
            log_z = maxent._log_hurwitz_zeta(alpha, b)
        # float(exact) is inf past the largest float and 0.0 below the smallest
        assert z == pytest.approx(float(exact), rel=1e-10)
        assert log_z == pytest.approx(float(mpmath.log(exact)), rel=1e-12)

    @pytest.mark.parametrize("alpha,b", [(1.3, 2.5), (2.0, 0.5), (64.0, 0.5), (1.0 + 1e-6, 1e-6)])
    def test_log_inside_the_float_range_is_the_direct_log(self, alpha, b):
        assert maxent._log_hurwitz_zeta(alpha, b) == math.log(hurwitz_zeta(alpha, b))

    @pytest.mark.parametrize("alpha", [1.0 + 1e-6, 1.05, 1.2, 2.0, 2.5, 10.0, 30.0, 64.0])
    def test_relative_accuracy_against_mpmath_on_a_grid(self, alpha):
        # A sum far below 1 (large alpha and b) must be accurate relative to
        # itself; an absolute target there left hurwitz_zeta(64, 2) negative.
        # mpmath's own zeta needs ~300 digits at alpha=64, b=1e3 to be exact.
        for b in (1e-6, 0.5, 1.0, 1.5, 2.0, 10.0, 1e3, 1e6):
            with mpmath.workdps(300):
                exact = mpmath.zeta(alpha, b)
                log_exact = float(mpmath.log(exact))
            if sys.float_info.min <= exact < sys.float_info.max:
                assert hurwitz_zeta(alpha, b) == pytest.approx(float(exact), rel=1e-12), b
            assert maxent._log_hurwitz_zeta(alpha, b) == pytest.approx(
                log_exact, rel=1e-15, abs=1e-12
            ), b


class TestPowerLawsAtTheBoxCorners:
    # At these corners of the Zipf-Mandelbrot fit's search box the normalizer
    # hurwitz_zeta(alpha, b) is inf (b = 1e-6) or 0.0 (b = 1e6); the pmf once
    # raised OverflowError or ZeroDivisionError there, and `sample` warned and
    # drew rank 1 every time at (64, 1e6), whose median rank is about 11,000.
    CORNERS = [(64.0, 1e-6), (64.0, 1e6)]

    @pytest.mark.parametrize("alpha,b", CORNERS)
    def test_pmf_against_mpmath(self, alpha, b):
        params = ZipfMandelbrotParams(alpha, b)
        for i in (0, 1, 10, 1000, 10**5, 10**7, 2**1024, 10**400):
            with mpmath.workdps(300):
                exact = (i + mpmath.mpf(b)) ** -alpha / mpmath.zeta(alpha, b)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = zipf_mandelbrot_pmf(params, i)
            if exact >= sys.float_info.min:
                assert got == pytest.approx(float(exact), rel=1e-10), i
            else:
                assert got == 0.0, i

    @pytest.mark.parametrize("alpha,b,truncation", [(64.0, 1e-6, 10), (64.0, 1e6, 300_000)])
    def test_entropy_against_mpmath(self, alpha, b, truncation):
        # H = -alpha zeta'(alpha, b) / zeta(alpha, b) + log zeta(alpha, b); the
        # mass past the truncation is below 1e-7
        params = ZipfMandelbrotParams(alpha, b)
        with mpmath.workdps(300):
            z = mpmath.zeta(alpha, b)
            exact = float(-alpha * mpmath.zeta(alpha, b, 1) / z + mpmath.log(z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = entropy(lambda i: zipf_mandelbrot_pmf(params, i - 1), truncation)
        assert h.value == pytest.approx(exact, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("alpha,b", CORNERS + [(64.0, 1e5)])  # (64, 1e5): subnormal
    def test_sample_names_alpha_and_b(self, alpha, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"at alpha={alpha!r} \(b={b!r}\)$"):
                sample(ZipfMandelbrotParams(alpha, b), 1, 1000)

    def test_zeta_rank_past_the_float_range(self):
        params = ZetaParams(2.0)
        assert zeta_pmf(params, 10**400) == 0.0
        assert zeta_pmf(params, 2**1024) == 0.0
        assert zeta_pmf(params, 2**1000) == 2.0**-2000 / riemann_zeta(2.0)


class TestNormalizersComputedOnce:
    def test_pmfs_bit_identical_to_the_per_call_formula(self):
        for alpha in (1.05, 2.5):
            p = ZetaParams(alpha)
            for i in range(1, 2001):
                assert zeta_pmf(p, i) == i**-alpha / riemann_zeta(alpha)
        for alpha, b in ((1.3, 2.5), (2.0, 0.5)):
            p = ZipfMandelbrotParams(alpha, b)
            for i in range(0, 2000):
                assert zipf_mandelbrot_pmf(p, i) == (i + b) ** -alpha / hurwitz_zeta(alpha, b)
        law, alpha, t = math.sqrt, 0.7, 300
        spec = MaxentSpec(alpha, law, truncation=t)
        z = float(np.exp(-alpha * np.array([law(j) for j in range(1, t + 1)])).sum())
        for i in range(1, t + 1):
            assert maxent_pmf(spec, i) == math.exp(-alpha * law(i)) / z

    def test_entropy_bit_identical_to_the_per_call_formula(self):
        alpha = 2.5
        p = ZetaParams(alpha)
        cached = entropy(lambda i: zeta_pmf(p, i), 25_000)
        per_call = entropy(lambda i: i**-alpha / riemann_zeta(alpha), 25_000)
        assert cached == per_call

    def test_zeta_normalizer_is_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(maxent, "riemann_zeta", lambda a: calls.append(a) or 1.5)
        p = ZetaParams(2.0)
        assert [zeta_pmf(p, i) for i in (1, 2)] == [1 / 1.5, 0.25 / 1.5]
        assert calls == [2.0]

    def test_truncated_spec_evaluates_its_length_law_once_per_rank(self):
        calls = []

        def law(i):
            calls.append(i)
            return math.sqrt(i)

        t = 200
        spec = MaxentSpec(0.7, law, truncation=t)
        sample(spec, 1, 50)
        assert len(calls) == 2 * t  # the partition sum, then the pmf table
        entropy(lambda i: maxent_pmf(spec, i), t)
        assert len(calls) == 3 * t


class TestMaxentPmf:
    def test_linear_law_is_geometric_half(self):
        spec = MaxentSpec(math.log(2.0), LinearLength())
        assert maxent_pmf(spec, 1) == pytest.approx(0.5, abs=1e-12)
        assert maxent_pmf(spec, 2) == pytest.approx(0.25, abs=1e-12)

    def test_log_law_is_zeta(self):
        spec = MaxentSpec(2.0, LogLength())
        assert maxent_pmf(spec, 1) == pytest.approx(6 / math.pi**2, abs=1e-10)

    def test_vanishing_multiplier_gives_uniform(self):
        spec = MaxentSpec(1e-12, LinearLength(), truncation=3)
        for i in (1, 2, 3):
            assert maxent_pmf(spec, i) == pytest.approx(1 / 3, abs=1e-9)

    def test_arbitrary_law_needs_truncation(self):
        spec = MaxentSpec(1.0, lambda i: math.sqrt(i))
        with pytest.raises(ValueError):
            maxent_pmf(spec, 1)
        truncated = MaxentSpec(1.0, lambda i: math.sqrt(i), truncation=100)
        assert maxent_pmf(truncated, 1) > 0

    def test_beyond_truncation_carries_no_mass(self):
        spec = MaxentSpec(0.5, LinearLength(), truncation=4)
        assert maxent_pmf(spec, 5) == 0.0

    def test_code_length_law_partition(self):
        # each length-l block holds 2^l ranks of equal weight, so the
        # partition collapses to a geometric series in 2 e^-alpha
        alpha = 1.0
        z_blocks = sum(2**l * math.exp(-alpha * l) for l in range(1, 400))
        assert CodeLength(2, 1).partition(alpha) == pytest.approx(z_blocks, rel=1e-12)
        # per-rank head must agree with the block head
        law = CodeLength(2, 1)
        head_ranks = sum(math.exp(-alpha * law(i)) for i in range(1, 2**11 - 1))
        head = np.arange(1, 2**11 - 1)
        assert law(head).tolist() == [law(i) for i in head.tolist()]
        head_blocks = sum(2**l * math.exp(-alpha * l) for l in range(1, 11))
        assert head_ranks == pytest.approx(head_blocks, rel=1e-12)
        with pytest.raises(ValueError):
            CodeLength(3, 1).partition(1.0)  # needs alpha > ln 3


class TestFamilies:
    def test_zeta_values(self):
        p = ZetaParams(2.0)
        assert zeta_pmf(p, 1) == pytest.approx(6 / math.pi**2, abs=1e-10)
        assert zeta_pmf(p, 2) == pytest.approx(6 / math.pi**2 / 4, abs=1e-10)

    def test_zeta_normalization_tail_bounded(self):
        alpha, m = 2.0, 40_000
        z = riemann_zeta(alpha)
        head = float(np.sum(np.arange(1, m + 1, dtype=float) ** -alpha)) / z
        # the head is the pmf summed term by term
        assert zeta_pmf(ZetaParams(alpha), 1) == pytest.approx(1.0 / z, abs=1e-15)
        tail_lo = (m + 1) ** (1 - alpha) / (alpha - 1) / z
        tail_hi = m ** (1 - alpha) / (alpha - 1) / z
        assert head + tail_lo - 1e-9 <= 1.0 <= head + tail_hi + 1e-9

    def test_zipf_mandelbrot_support_starts_at_zero(self):
        p = ZipfMandelbrotParams(2.0, 0.5)
        assert zipf_mandelbrot_pmf(p, 1) == pytest.approx(
            1.5**-2 / hurwitz_zeta(2.0, 0.5), abs=1e-12
        )
        with pytest.raises(ValueError):
            zipf_mandelbrot_pmf(p, -1)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_unit_offset_reduces_to_zeta_with_rank_shift(self, alpha):
        # pmf(i) = (i+1)^-alpha / hurwitz(alpha, 1) = zeta_pmf(i + 1)
        p = ZipfMandelbrotParams(alpha, 1.0)
        assert hurwitz_zeta(alpha, 1.0) == pytest.approx(riemann_zeta(alpha), abs=1e-10)
        for i in range(0, 50):
            assert zipf_mandelbrot_pmf(p, i) == pytest.approx(
                zeta_pmf(ZetaParams(alpha), i + 1), abs=1e-12
            )

    def test_zipf_mandelbrot_normalization(self):
        alpha, b, m = 2.0, 0.5, 40_000
        z = hurwitz_zeta(alpha, b)
        head = float(np.sum((np.arange(m, dtype=float) + b) ** -alpha)) / z
        tail_lo = (m + b) ** (1 - alpha) / (alpha - 1) / z
        tail_hi = (m - 1 + b) ** (1 - alpha) / (alpha - 1) / z
        assert head + tail_lo - 1e-9 <= 1.0 <= head + tail_hi + 1e-9

    def test_geometric_values(self):
        p = GeometricParams(0.5)
        assert geometric_pmf(p, 1) == 0.5
        assert geometric_pmf(p, 3) == 0.125

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_geometric_exponential_equivalence(self, alpha):
        # (1 - e^-a)/e^-a * (e^-a)^i  ==  q (1-q)^(i-1)  with q = 1 - e^-a
        q = 1.0 - math.exp(-alpha)
        params = GeometricParams(q)
        r = math.exp(-alpha)
        for i in range(1, 101):
            exponential_form = (1.0 - r) / r * r**i
            assert abs(geometric_pmf(params, i) - exponential_form) < 1e-12

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            ZetaParams(1.0)
        with pytest.raises(ValueError):
            ZipfMandelbrotParams(2.0, 0.0)
        with pytest.raises(ValueError):
            GeometricParams(0.0)
        with pytest.raises(ValueError):
            GeometricParams(1.0)


class UnsummedLength(LengthLaw):
    def __call__(self, i):
        return float(i)


ZETA_2 = ZetaParams(2.0)


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: MaxentSpec(1.0, UnsummedLength()).partition(),
         "no closed partition sum for this length law; set a truncation"),
        (lambda: LinearLength().partition(0), "linear length law needs alpha > 0"),
        (lambda: LogLength(1), "log length law needs base > 1"),
        (lambda: LogLength()(0), "rank must be >= 1"),
        (lambda: LogLength().partition(1.0), "partition sum diverges: effective exponent 1.0 <= 1"),
        (lambda: CodeLength(0), "base_size must be >= 1"),
        (lambda: CodeLength(2, -1), "min_length must be nonnegative"),
        (lambda: MaxentSpec(0.0, LinearLength()), "alpha must be positive"),
        (lambda: MaxentSpec(1.0, LinearLength(), 0), "truncation must be >= 1"),
        (lambda: maxent_pmf(MaxentSpec(1.0, LinearLength()), 0), "rank must be >= 1"),
        (lambda: zeta_pmf(ZETA_2, 0), "rank must be >= 1"),
        (lambda: geometric_pmf(GeometricParams(0.5), 0), "rank must be >= 1"),
        (lambda: ZipfMandelbrotParams(1.0, 1.0), "Zipf-Mandelbrot needs alpha > 1"),
        (lambda: entropy(lambda i: zeta_pmf(ZETA_2, i), 0), "truncation must be >= 1"),
        (lambda: sample(ZETA_2, 0, 0), "n must be >= 1"),
        # the mean rounds to 1.0 in floats, so q = 1
        (lambda: fit_mle({1: 2**62, 2: 1}, "geometric"), "geometric MLE is degenerate for this data"),
        # Non-finite parameters and fractional counts; the ids name the class and case.
        pytest.param(lambda: hurwitz_zeta(math.nan, 1.0), "alpha must be finite",
                     id="hurwitz_zeta-alpha-nan"),
        pytest.param(lambda: hurwitz_zeta(math.inf, 1.0), "alpha must be finite",
                     id="hurwitz_zeta-alpha-inf"),
        pytest.param(lambda: hurwitz_zeta(2.0, math.nan), "b must be finite", id="hurwitz_zeta-b-nan"),
        pytest.param(lambda: ZetaParams(math.nan), "alpha must be finite", id="ZetaParams-nan"),
        pytest.param(lambda: ZetaParams(math.inf), "alpha must be finite", id="ZetaParams-inf"),
        pytest.param(lambda: ZipfMandelbrotParams(math.nan, 1.0), "alpha must be finite",
                     id="ZipfMandelbrotParams-alpha-nan"),
        pytest.param(lambda: ZipfMandelbrotParams(2.0, math.nan), "b must be finite",
                     id="ZipfMandelbrotParams-b-nan"),
        pytest.param(lambda: ZipfMandelbrotParams(2.0, math.inf), "b must be finite",
                     id="ZipfMandelbrotParams-b-inf"),
        pytest.param(lambda: MaxentSpec(math.nan, LinearLength()), "alpha must be finite",
                     id="MaxentSpec-nan"),
        pytest.param(lambda: MaxentSpec(math.inf, LinearLength()), "alpha must be finite",
                     id="MaxentSpec-inf"),
        pytest.param(lambda: LogLength(math.nan), "base must be finite", id="LogLength-nan"),
        pytest.param(lambda: LogLength(math.inf), "base must be finite", id="LogLength-inf"),
        pytest.param(lambda: EntropyValue(math.nan, "nats"), "entropy must be finite",
                     id="EntropyValue-nan"),
        pytest.param(lambda: EntropyValue(math.inf, "bits"), "entropy must be finite",
                     id="EntropyValue-inf"),
        pytest.param(lambda: RankCounts([1.9, 2.2], [1, 1.99]), "ranks must be integers",
                     id="RankCounts-fractional-ranks"),
        pytest.param(lambda: RankCounts([1, 2], [1, 1.99]), "counts must be integers",
                     id="RankCounts-fractional-counts"),
        pytest.param(lambda: fit_mle([1.5, 2.7, 2.2], "geometric"), "ranks must be integers",
                     id="fit_mle-fractional-ranks"),
        # The message names the fault whatever the form of the input.
        pytest.param(lambda: RankCounts([1, math.nan], [1, 1]), "ranks must be finite",
                     id="RankCounts-list-nan"),
        pytest.param(lambda: fit_mle([1, math.nan], "geometric"), "ranks must be finite",
                     id="fit_mle-list-nan"),
        pytest.param(lambda: RankCounts(np.array([1.0, math.nan]), [1, 1]), "ranks must be finite",
                     id="RankCounts-array-nan"),
        pytest.param(lambda: RankCounts(np.array([1.0, math.inf]), [1, 1]), "ranks must be finite",
                     id="RankCounts-array-inf"),
        pytest.param(lambda: RankCounts(np.array([1.0, 1e19]), [1, 1]),
                     "ranks must fit in int64", id="RankCounts-array-1e19"),
        pytest.param(lambda: RankCounts([1.0, 1e19], [1, 1]), "ranks must fit in int64",
                     id="RankCounts-list-1e19"),
    ])
    def test_rejected_with_its_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_bare_length_law_is_not_callable(self):
        with pytest.raises(NotImplementedError):
            LengthLaw()(1)


class TestStepLawSandwich:
    @pytest.mark.parametrize("n,alpha", [(2, 1.0), (2, 1.5), (3, 1.4)])
    def test_exact_length_law_between_power_laws(self, n, alpha):
        """The step pmf from the exact enumeration length sits between two
        power laws with the same effective exponent alpha / ln N."""
        a_eff = alpha / math.log(n)
        assert a_eff > 1
        spec = MaxentSpec(alpha, CodeLength(n, 1))
        z = spec.partition()
        lower_const = math.exp(-alpha) * (2 - 1 / n) ** -a_eff
        upper_const = (1 - 1 / n) ** -a_eff
        prev = math.inf
        for i in range(1, 1001):
            p = maxent_pmf(spec, i)
            assert lower_const * i**-a_eff / z <= p <= upper_const * i**-a_eff / z
            assert p <= prev  # monotone steps
            prev = p


class TestEntropy:
    def test_uniform_in_bits(self):
        h = entropy(lambda i: 1 / 8, truncation=8, unit="bits")
        assert h.value == pytest.approx(3.0, abs=1e-12)
        assert h.unit == "bits"

    def test_point_mass(self):
        h = entropy(lambda i: 1.0 if i == 1 else 0.0, truncation=5)
        assert h.value == 0.0

    def test_geometric_half_two_bits(self):
        params = GeometricParams(0.5)
        h = entropy(lambda i: geometric_pmf(params, i), truncation=50, unit="bits")
        assert h.value == pytest.approx(2.0, abs=1e-9)

    def test_nats_default_and_unit_conversion(self):
        in_nats = entropy(lambda i: 1 / 4, truncation=4)
        assert in_nats.unit == "nats"
        assert in_nats.value == pytest.approx(math.log(4), abs=1e-12)

    def test_unnormalized_rejected(self):
        params = ZetaParams(2.0)
        with pytest.raises(ValueError):
            entropy(lambda i: zeta_pmf(params, i), truncation=10)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            entropy(lambda i: 0.25, truncation=4, unit="bit")

    def test_entropy_value_validation(self):
        with pytest.raises(ValueError):
            EntropyValue(1.0, "kilobits")
        with pytest.raises(ValueError):
            EntropyValue(-1.0, "nats")


class TestSampling:
    def test_geometric_head_mass(self):
        ranks = sample(GeometricParams(0.5), 7, 100_000)
        assert abs((ranks == 1).mean() - 0.5) < 0.01

    def test_zeta_head_mass(self):
        ranks = sample(ZetaParams(2.0), 12, 100_000)
        assert abs((ranks == 1).mean() - 6 / math.pi**2) < 0.01

    def test_single_draw_reproducible(self):
        a = sample(ZetaParams(2.0), 99, 1)
        b = sample(ZetaParams(2.0), 99, 1)
        assert a.tolist() == b.tolist()

    def test_heavy_tail_goes_beyond_the_cached_table(self):
        head_size = maxent._SAMPLE_HEAD
        ranks = sample(ZipfMandelbrotParams(1.5, 1.0), 13, 20_000)
        assert (ranks > head_size).sum() > 20  # exercised the tail inversion
        # empirical tail fraction matches the analytic tail probability (4 sigma)
        p_tail = hurwitz_zeta(1.5, head_size + 1.0) / hurwitz_zeta(1.5, 1.0)
        assert abs((ranks > head_size).mean() - p_tail) < 0.0016

    def test_zipf_mandelbrot_rank_one_mass(self):
        params = ZipfMandelbrotParams(2.0, 0.5)
        ranks = sample(params, 5, 50_000)
        assert abs((ranks == 1).mean() - zipf_mandelbrot_pmf(params, 0)) < 0.01

    def test_maxent_spec_sampling_routes(self):
        geometric_like = sample(MaxentSpec(math.log(2), LinearLength()), 3, 2000)
        assert abs((geometric_like == 1).mean() - 0.5) < 0.05
        truncated = sample(MaxentSpec(0.1, LinearLength(), truncation=5), 3, 100)
        assert truncated.max() <= 5

    @pytest.mark.parametrize("base", [math.e, 2.0])
    def test_log_length_spec_samples_its_zeta_law(self, base):
        spec = MaxentSpec(1.5, LogLength(base))
        ranks = sample(spec, 17, 5000)
        assert ranks.tolist() == sample(ZetaParams(1.5 / math.log(base)), 17, 5000).tolist()

    @pytest.mark.parametrize("n", [5, 1000])
    @pytest.mark.parametrize("spec, equal, kwargs", [
        (MaxentSpec(math.log(2), LinearLength()), lambda _: GeometricParams(0.5), {}),
        (MaxentSpec(1.5, LogLength(2.0)), lambda _: ZetaParams(1.5 / math.log(2.0)), {}),
        (MaxentSpec(0.7, math.sqrt, truncation=300),
         lambda spec: lambda i: maxent_pmf(spec, i), {"truncation": 300}),
    ], ids=["linear", "log2", "truncated"])
    def test_spec_draws_its_uniforms_once(self, spec, equal, kwargs, n):
        # The linear spec once re-entered `sample`, which took n more uniforms
        # from a Generator seed and returned ranks from that second batch.
        g1, g2 = np.random.default_rng(5), np.random.default_rng(5)
        want = sample(equal(spec), g2, n, **kwargs)
        assert sample(spec, g1, n).tolist() == want.tolist()
        assert g1.random() == g2.random()

    @pytest.mark.parametrize("values", [
        (0.75, -0.25, 0.5), (0.0, 0.0, 0.0), (0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
    ])
    def test_negative_or_massless_pmf_rejected_by_sample_and_entropy(self, values):
        pmf = lambda i: values[i - 1]  # noqa: E731
        with pytest.raises(ValueError, match="nonnegative and not all zero"):
            sample(pmf, 1, 10, truncation=3)
        with pytest.raises(ValueError, match="nonnegative and not all zero"):
            entropy(pmf, 3)

    def test_int_parameters_draw_as_their_floats(self):
        # The int table (np.arange(m) + 1) ** -2 once raised "Integers to
        # negative integer powers are not allowed"; most draws here are tail draws.
        want = sample(ZipfMandelbrotParams(2.0, 1e6), 3, 2000)
        assert np.count_nonzero(want > maxent._SAMPLE_HEAD) > 1000
        assert sample(ZipfMandelbrotParams(2, 10**6), 3, 2000).tolist() == want.tolist()
        assert sample(ZipfMandelbrotParams(2, 1), 3, 50).tolist() == sample(ZETA_2, 3, 50).tolist()

    def test_geometric_rank_past_int64_is_refused(self):
        # most draws at q = 1e-19 pass 2**63, where the int64 cast wrapped
        with pytest.raises(ValueError, match=r"^a sampled rank exceeds the int64 range at q=1e-19$"):
            sample(GeometricParams(1e-19), 1, 4)

    def test_geometric_ranks_below_2_63_are_int64_and_unchanged(self):
        # at q = 1e-17 every draw is at most -ln(2**-53) / q < 2**63
        ranks = sample(GeometricParams(1e-17), 1, 6)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [
            71707441676109232, 300504947066252736, 15567138368438282,
            296907957610747328, 37372148850921744, 55047894203183608,
        ]

    def test_untruncated_code_length_spec_cannot_be_sampled(self):
        with pytest.raises(ValueError, match="cannot sample .* without a truncation"):
            sample(MaxentSpec(4.0, CodeLength(26)), 1, 10)

    @pytest.mark.parametrize("family", [
        ZetaParams(2.0), GeometricParams(0.01), ZipfMandelbrotParams(1.5, 2.0),
        MaxentSpec(0.7, LinearLength()), MaxentSpec(0.1, LinearLength(), truncation=5),
    ], ids=["zeta", "geometric", "zipf-mandelbrot", "spec", "truncated-spec"])
    def test_truncation_is_for_a_bare_pmf_only(self, family):
        # it was silently ignored: zeta(2) with truncation=100 drew ranks up to 2,911
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=r"^truncation applies to a bare pmf only$"):
            sample(family, rng, 2000, truncation=100)
        assert rng.random() == np.random.default_rng(3).random()  # refused before drawing

    def test_non_family_rejected(self):
        with pytest.raises(TypeError, match="cannot sample from str"):
            sample("zeta", 1, 10)

    def test_bare_pmf_needs_truncation(self):
        params = GeometricParams(0.5)
        pmf = lambda i: geometric_pmf(params, i)  # noqa: E731
        with pytest.raises(ValueError):
            sample(pmf, 1, 10)
        ranks = sample(pmf, 1, 1000, truncation=64)
        assert ranks.min() >= 1 and ranks.max() <= 64


def rank_digest(ranks) -> str:
    """sha256 of the ranks written as comma-joined decimal integers."""
    return hashlib.sha256(",".join(map(str, ranks.tolist())).encode()).hexdigest()


# Seeded streams of `sample` at n = 3,000, recorded before the families drew
# their own ranks: per route, the dtype and the rank_digest at seeds 0, 1 and 12.
GOLDEN_STREAMS = [
    pytest.param(GeometricParams(0.3), {}, "int64", (
        "e5220955dc87f31a81c80d2bd55349e79a1a52f315d4242db6e98a27bfaad16c",
        "22eed47e5a734b98a178505796ec38577c9a1243de3b72b67ac70ada6a4353e9",
        "196cb9bde7d62b8606d26a8daaa65203a91856da4d879c0238e59ec6257ecd97"), id="geometric"),
    pytest.param(ZetaParams(1.05), {}, "object", (  # tail ranks past 2**63
        "ee30c15019ca7af2aa97a5c6d52f5fe3a0df104a074b1aa498b2d2aa9d06b5d4",
        "e468923c483da99e5ec8460d4851065413fb1fea3b363c0577ca80c36fea3a25",
        "d68a1995ebb74cad05ee75cbed45719537151bd98572fe2447e000333b73edc9"), id="zeta-1.05"),
    pytest.param(ZetaParams(2.5), {}, "int64", (
        "d301b0bb9eeac36afc00a5f45572ecd0e6161cb8fd30fe0ff9d2be276404e5cd",
        "7ea0cde47db1a9440d374f20a72734911289b6fc9b6a38e834013b84d8cf1677",
        "f177a0537febd0de4d2eda99699fbdcdfbf0bd76594ae4e7a039a78ae3903aa8"), id="zeta-2.5"),
    pytest.param(ZipfMandelbrotParams(1.3, 2.5), {}, "int64", (
        "c797d4d47492a6b18880b84603c33e43f33c3968a4631dce3b5a26c330aab461",
        "bec3be565c44c8ae774c5e0d43da43b34593818ea9f77c1da6ca94a946b55654",
        "1a3d9436c567187897ec268bc4d6436bf015e50ef7bc1914e946fd9a7e62f2c3"), id="zipf-mandelbrot"),
    pytest.param(MaxentSpec(0.7, LinearLength()), {}, "int64", (
        "4d1b14a022dba020bc1cce40adc9bb6dff5fbda34fa4ef3b8836f35765f6d5ba",
        "aa3e25a3a95b1902de576f9720cbba2854a191f3e6a4725026dceb1958d5e8e5",
        "6d48c0590bfc960eff17f5497ff3a62eab48c4d764dc36d4815c1c7c9fb6b33c"), id="linear-spec"),
    pytest.param(MaxentSpec(2.0, LogLength(2.0)), {}, "int64", (
        "c84ea934b15a31a6ee725dc33e38fbdc603486365d7df09d9bc481c7b09b8017",
        "28cc8e96bb110529ba05bd6c25a3583b42661d19a615370098ab286240e189d0",
        "38f54bbdf7bcb6fc32af3a53008b0b40c63637ef33bd21e9e34fb0e7ede81a14"), id="log-spec"),
    pytest.param(MaxentSpec(1.2, CodeLength(2), truncation=500), {}, "int64", (
        "fde88d8df2da9141fdb138dfe4c44210bb60ba239c9a0d668249619f879e4841",
        "6195e82144d4262d014cc901d8723717ef0a48631a1bd64f573efa90fbf77c12",
        "3d0203e76c980b62af45fa04a9f6734d821f9c9b8fc5ccca24fa9d21a24ee900"), id="code-spec"),
    pytest.param(lambda i: i ** -1.5, {"truncation": 1000}, "int64", (
        "86e3ba13d5362f1f9a3570915eb46a6ade88655d57ad3bbbd739a0a16613a90d",
        "0661cd9452997420fb60da3e1cc29620f4e4ccb335162242d64c1ba46a24e0b4",
        "940c0205d439f3d708cd5a24c069cd206c0f54f6d981ccbefafb129f82d2f903"), id="bare-pmf"),
]

class TestGoldenStreams:
    @pytest.mark.parametrize("family, kwargs, dtype, digests", GOLDEN_STREAMS)
    def test_seeded_stream_is_unchanged(self, family, kwargs, dtype, digests):
        for seed, digest in zip((0, 1, 12), digests):
            ranks = sample(family, seed, 3000, **kwargs)
            assert (ranks.dtype, rank_digest(ranks)) == (np.dtype(dtype), digest), seed


class TestTailInversion:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.02, 8.0, exclude_min=True),
        b=st.floats(1e-6, 1e6),
        u=st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_max=True),
                st.integers(1, 16).map(lambda k: 1.0 - 10.0**-k),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_ranks_equal_the_scalar_bisection(self, alpha, b, u):
        u = np.array(u)
        try:
            want = oracle_power_family_ranks(alpha, b, u)
        except OverflowError:
            with pytest.raises(ValueError, match="2\\*\\*1023"):
                maxent._power_family_ranks(alpha, b, u)
            return
        got = maxent._power_family_ranks(alpha, b, u)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_object_dtype_ranks_equal_the_scalar_bisection(self):
        ranks = sample(ZetaParams(1.05), 11, 5000)
        u = np.random.default_rng(11).random(5000)
        want = oracle_power_family_ranks(1.05, 1.0, u)
        assert ranks.dtype == want.dtype == object
        assert max(ranks) >= 2**63
        assert ranks.tolist() == want.tolist()

    @pytest.mark.parametrize("alpha,b", [(1.2, 2.0), (1.45, 0.5), (1.75, 1.0)])
    def test_draw_just_past_the_table_can_settle_on_its_last_rank(self, alpha, b):
        # The table's last CDF value rounds low here, so the next float u is
        # a tail draw whose predicate already holds at rank 2^16.
        head_size = maxent._SAMPLE_HEAD
        cdf = np.cumsum((np.arange(head_size) + b) ** -alpha) / hurwitz_zeta(alpha, b)
        u = np.array([np.nextafter(cdf[-1], 1.0)])
        assert oracle_power_family_ranks(alpha, b, u).tolist() == [head_size]
        assert maxent._power_family_ranks(alpha, b, u).tolist() == [head_size]
        t = (1.0 - float(u[0])) * hurwitz_zeta(alpha, b)
        for guess in (head_size + 1, head_size + 1000):  # galloping down past the table
            assert maxent._settle_rank(alpha, b, t, guess) == head_size

    @pytest.mark.parametrize(
        "near", [2**63 - 2**40, 2**63 + 2**40, 3 * 2**1021, 3 * 2**1022],
        ids=["below-2^63", "above-2^63", "below-2^1023", "above-2^1023"],
    )
    def test_ranks_at_the_dtype_and_float_limits(self, near):
        alpha, b = 1.03, 1.0
        z = hurwitz_zeta(alpha, b)
        u = np.array([0.5, 1.0 - hurwitz_zeta(alpha, near + b) / z])
        if near > maxent._RANK_LIMIT:
            with pytest.raises(OverflowError):
                oracle_power_family_ranks(alpha, b, u)
            with pytest.raises(ValueError, match="alpha=1.03"):
                maxent._power_family_ranks(alpha, b, u)
            return
        want = oracle_power_family_ranks(alpha, b, u)
        got = maxent._power_family_ranks(alpha, b, u)
        assert abs(want[1] / near - 1) < 1e-5
        assert want.dtype == (object if near > 2**63 else np.int64)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_a_few_hurwitz_zeta_calls_per_tail_draw(self, monkeypatch):
        calls, tails = [], []
        scalar, tail = maxent.hurwitz_zeta, maxent._em_tail

        def counted(alpha, b):
            calls.append(b)
            return scalar(alpha, b)

        def counted_tail(alpha, x):
            if np.ndim(x) == 0:
                tails.append(x)
            return tail(alpha, x)

        monkeypatch.setattr(maxent, "hurwitz_zeta", counted)
        monkeypatch.setattr(maxent, "_em_tail", counted_tail)
        ranks = sample(ZetaParams(1.05), 12, 2000)
        n_tail = int(np.count_nonzero(ranks > maxent._SAMPLE_HEAD))
        assert n_tail > 500
        assert len(calls) < 3 * n_tail  # the per-draw bisection made about 73
        # the settle starts at the inverse of the tail's leading terms
        assert len(tails) < 5 * n_tail

    def test_tail_formula_is_hurwitz_zeta_past_the_table(self):
        # The settle tests _em_tail(alpha, x) in place of hurwitz_zeta(alpha, x)
        # for x >= 2^16 + b.  The grid crosses alpha ~ 2490, where the head
        # length leaves 0 and both sides have underflowed to 0.0.
        with_head = 0
        for alpha in (1 + 1e-9, 1.05, 2.0, 69.0, 71.0, 2000.0, 2480.0, 2500.0, 5000.0, 3.2e4):
            for b in (1e-6, 1.0, 1e4, 1e12):
                for x in (maxent._SAMPLE_HEAD + b, 1.5 * maxent._SAMPLE_HEAD + b,
                          2.0**40 + b, 2.0**200, 2.0**1000):
                    with_head += maxent._head_length(alpha, x) > 0
                    assert hurwitz_zeta(alpha, x) == maxent._em_tail(alpha, x)
        assert with_head > 0

    @pytest.mark.parametrize("alpha,b", [(1.05, 1.0), (1.3, 1e-6), (2.0, 1e6)])
    def test_settle_from_any_guess(self, alpha, b):
        # From the head (the start when the empty-head check fails) or from
        # a guess far off either side, the settle lands on the oracle's rank.
        z = hurwitz_zeta(alpha, b)
        p_tail = hurwitz_zeta(alpha, maxent._SAMPLE_HEAD + b) / z
        u = 1.0 - p_tail * np.logspace(-0.5, -7.0, 8)
        wanted = oracle_power_family_ranks(alpha, b, u)
        for u_i, want in zip(u.tolist(), wanted.tolist()):
            assert want > maxent._SAMPLE_HEAD
            t = (1.0 - u_i) * z
            for guess in (maxent._SAMPLE_HEAD, want - 1, want, want + 1,
                          3 * want, want // 3, maxent._RANK_LIMIT):
                assert maxent._settle_rank(alpha, b, t, guess) == want

    @pytest.mark.parametrize(
        "family", [ZetaParams(1.01), ZipfMandelbrotParams(1.01, 2.0)], ids=["zeta", "zm"]
    )
    def test_rank_past_the_float_range_raises_value_error(self, family):
        with pytest.raises(ValueError, match="2\\*\\*1023.*alpha=1.01"):
            sample(family, 4, 5000)



# The settle that probed through a memo of the floats it had seen, as it
# was: it calls maxent._em_tail, so a patched one sees its probes.
def oracle_settle_rank(alpha, b, t, guess):
    seen = {}

    def holds(r):
        x = float(r + b)
        if x not in seen:
            seen[x] = maxent._em_tail(alpha, x) <= t
        return seen[x]

    r = min(max(guess, maxent._SAMPLE_HEAD), maxent._RANK_LIMIT)
    step = max(1, int(math.ulp(r)))
    if holds(r):
        hi, lo = r, r - step
        while lo >= maxent._SAMPLE_HEAD and holds(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, maxent._SAMPLE_HEAD - 1)
    else:
        lo = r
        while not holds(hi := min(lo + step, maxent._RANK_LIMIT)):
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestSettleAgainstTheMemoSettle:
    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(1.0001, 1.3),
        b=st.floats(1e-6, 1e6),
        exponent=st.integers(53, 1000),
        fraction=st.floats(1.0, 2.0, exclude_max=True),
        nudge=st.sampled_from([1.0, 1.0 + 2**-52, 1.0 - 2**-53]),
    )
    def test_far_tail_ranks_are_unchanged(self, alpha, b, exponent, fraction, nudge):
        # a target at a rank from 2^53 to 2^1000, where neighbouring ranks share a float
        t = maxent._em_tail(alpha, float(int(fraction * 2.0**53) << (exponent - 53)) + b) * nudge
        want = oracle_settle_rank(alpha, b, t, maxent._SAMPLE_HEAD)
        for guess in (want - 1, want, want + 1, 3 * want, want // 3,
                      maxent._SAMPLE_HEAD, maxent._RANK_LIMIT):
            assert maxent._settle_rank(alpha, b, t, guess) == want
            assert oracle_settle_rank(alpha, b, t, guess) == want

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(1.0001, 3.0),
        log_b=st.floats(10.0, 30.0),
        log_rank=st.floats(0.0, 25.0),
        nudge=st.sampled_from([1.0, 1.0 + 2**-52, 1.0 - 2**-53]),
    )
    def test_ranks_near_the_head_at_an_offset_past_2_53(self, alpha, log_b, log_rank, nudge):
        # r + b shares its float with ranks below the head, which no draw may take
        b = 10.0**log_b
        t = maxent._em_tail(alpha, float(maxent._SAMPLE_HEAD + int(10.0**log_rank) + b)) * nudge
        want = oracle_settle_rank(alpha, b, t, maxent._SAMPLE_HEAD)
        for guess in (want - 1, want + 1, 3 * want, maxent._SAMPLE_HEAD, maxent._RANK_LIMIT):
            assert maxent._settle_rank(alpha, b, t, guess) == oracle_settle_rank(alpha, b, t, guess)

    def test_the_same_tail_probes_in_the_same_order(self, monkeypatch):
        tail = maxent._em_tail
        runs = {}
        for name, settle in (("memo", oracle_settle_rank), ("now", maxent._settle_rank)):
            probes = runs[name] = []

            def recorded(alpha, x):
                if np.ndim(x) == 0:
                    probes.append(x)
                return tail(alpha, x)

            monkeypatch.setattr(maxent, "_em_tail", recorded)
            monkeypatch.setattr(maxent, "_settle_rank", settle)
            runs[name + " ranks"] = sample(ZetaParams(1.05), 12, 3000).tolist()
        assert runs["now ranks"] == runs["memo ranks"]
        assert max(runs["now ranks"]) > 2**63
        assert len(runs["now"]) > 3000
        assert runs["now"] == runs["memo"]


class TestLazyOptimizeImport:
    @staticmethod
    def fit_in_a_new_process(family: str, key: str, loads_optimize: bool) -> float:
        """params[key] of a fit_mle in a new interpreter, which asserts that
        `import optcoding` leaves scipy.optimize out and the fit loads it iff asked."""
        script = (
            "import sys\n"
            "import optcoding\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            f"fit = optcoding.maxent.fit_mle({{1: 70, 2: 20, 3: 10}}, {family!r})\n"
            f"assert ('scipy.optimize' in sys.modules) is {loads_optimize}\n"
            f"print(fit.params[{key!r}])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        return float(out.stdout)

    def test_import_leaves_scipy_optimize_out_until_a_fit(self):
        alpha = self.fit_in_a_new_process("zeta", "alpha", True)
        assert alpha == fit_mle({1: 70, 2: 20, 3: 10}, "zeta").params["alpha"]

    def test_geometric_fit_leaves_scipy_optimize_out(self):
        q = self.fit_in_a_new_process("geometric", "q", False)
        assert q == fit_mle({1: 70, 2: 20, 3: 10}, "geometric").params["q"]


class TestFitting:
    def test_geometric_closed_form_recovery(self):
        ranks = sample(GeometricParams(0.3), 11, 100_000)
        fit = fit_mle(ranks, "geometric")
        assert abs(fit.params["q"] - 0.3) < 0.01
        # closed form is exactly 1/mean
        assert fit.params["q"] == pytest.approx(1.0 / ranks.mean(), abs=1e-12)

    def test_zeta_recovery(self):
        ranks = sample(ZetaParams(2.0), 12, 100_000)
        fit = fit_mle(ranks, "zeta")
        assert abs(fit.params["alpha"] - 2.0) < 0.05

    def test_zipf_mandelbrot_nests_zeta(self):
        ranks = sample(ZetaParams(2.0), 12, 20_000)
        ll_zeta = fit_mle(ranks, "zeta").log_likelihood
        ll_zm = fit_mle(ranks, "zipf-mandelbrot").log_likelihood
        assert ll_zm >= ll_zeta - 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 2000), min_size=2, max_size=6))
    def test_nesting_and_likelihoods_at_most_zero(self, counts):
        # Zipf-Mandelbrot at b=1 is the zeta law, and every pmf value is at
        # most 1; a large-alpha fit once reported ZM log-likelihood +379.
        observed = dict(enumerate(counts, start=1))
        fits = {f: fit_mle(observed, f).log_likelihood for f in maxent.FAMILIES}
        assert all(ll <= 0.0 for ll in fits.values()), fits
        assert fits["zipf-mandelbrot"] >= fits["zeta"] - 1e-9 * abs(fits["zeta"]), fits

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.integers(1, 500), st.integers(1, 3000), min_size=2, max_size=12))
    def test_ranked_fits_equal_separate_fits(self, observed):
        # fit_ranked converts once and fits every family on the same arrays;
        # each result must equal, bit for bit, a fit_mle call on the mapping
        separate = sorted((fit_mle(observed, f) for f in maxent.FAMILIES),
                          key=lambda r: r.log_likelihood, reverse=True)
        assert list(fit_ranked(observed, maxent.FAMILIES)) == separate
        counts = RankCounts(sorted(observed), [observed[r] for r in sorted(observed)])
        assert list(fit_ranked(counts, maxent.FAMILIES)) == separate

    def test_rank_counts_validation(self):
        counts = RankCounts([2, 5, 9], [4, 1, 1])
        assert fit_mle(counts, "zeta") == fit_mle({9: 1, 2: 4, 5: 1}, "zeta")
        assert fit_mle(counts, "geometric") == fit_mle([2, 2, 5, 2, 9, 2], "geometric")
        with pytest.raises(ValueError):
            counts.ranks[0] = 1  # read-only
        for ranks, cnts, message in [
            ([], [], "ranks must be a nonempty 1-D vector"),
            ([0, 1], [1, 1], "ranks must be >= 1"),
            ([1, 2], [1, 0], "counts must be >= 1"),
            ([2, 1], [1, 1], "strictly increasing"),
            ([1, 1], [1, 1], "strictly increasing"),
            ([1, 2], [1], "aligned"),
        ]:
            with pytest.raises(ValueError, match=message):
                RankCounts(ranks, cnts)

    @pytest.mark.parametrize("observed, message", [
        ({2**63: 1, 1: 2}, "ranks must fit in int64"),
        ({1: 2**63, 2: 1}, "counts must fit in int64"),
        ({1: 5 * 10**18, 2: 5 * 10**18}, "the total count must fit in int64"),
    ])
    def test_int64_overflow_is_a_value_error(self, observed, message):
        # each count of the last case fits in int64, their sum does not
        items = sorted(observed.items())
        with pytest.raises(ValueError, match=message):
            RankCounts([r for r, _ in items], [c for _, c in items])
        for family in maxent.FAMILIES:
            with pytest.raises(ValueError, match=message):
                fit_mle(observed, family)
        if message.startswith("ranks"):
            with pytest.raises(ValueError, match=message):
                fit_mle([2**63, 1, 1], "zeta")

    def test_largest_int64_total_is_accepted(self):
        top = np.iinfo(np.int64).max
        counts = RankCounts([1, 2], [top - 1, 1])
        assert int(counts.counts.sum()) == top
        assert type(counts.total) is int and counts.total == top  # the exact sum, kept

    def test_accepts_rank_count_mapping(self):
        fit = fit_mle({1: 70, 2: 20, 3: 10}, "geometric")
        assert fit.n == 100
        assert fit.support == (1, 3)

    def test_log_likelihood_is_the_data_likelihood(self):
        observed = {1: 5, 2: 3, 7: 2}
        fit = fit_mle(observed, "zeta")
        params = ZetaParams(fit.params["alpha"])
        direct = sum(c * math.log(zeta_pmf(params, r)) for r, c in observed.items())
        assert fit.log_likelihood == pytest.approx(direct, abs=1e-8)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError):
            fit_mle({3: 50}, "zeta")
        with pytest.raises(ValueError):
            fit_mle([], "geometric")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown family 'lognormal'$"):
            fit_mle({1: 2, 2: 1}, "lognormal")
        with pytest.raises(ValueError, match=r"^unknown family \['zeta'\]$"):
            fit_mle({1: 2, 2: 1}, ["zeta"])  # unhashable: still unknown, not a TypeError
        # the data check runs before the family lookup
        with pytest.raises(ValueError, match="need at least 2 distinct observed ranks"):
            fit_mle({3: 50}, "lognormal")

    def test_families_come_from_the_one_registry(self):
        assert maxent.FAMILIES == ("zeta", "zipf-mandelbrot", "geometric")
        assert maxent.FAMILIES == tuple(maxent._FAMILIES)

    @pytest.mark.parametrize("family, params, log_likelihood", [
        ("zeta", {"alpha": 1.9948974472587957}, -4940.063712719619),
        # re-recorded when the objective's sum became an einsum: L-BFGS-B stops
        # where its tolerance ends it, and that moves with the sum's rounding
        ("zipf-mandelbrot", {"alpha": 2.035982049689102, "b": 1.0620133771753468},
         -4939.527987648882),
        ("geometric", {"q": 0.20503007107709129}, -7422.769786400733),
    ])
    def test_fit_on_a_seeded_table_is_unchanged(self, family, params, log_likelihood):
        # Recorded before each family fit itself; every bit must stay.  On this
        # table q = n / sum(r c) differs from 1 / mean in the last bit.
        ranks = sample(ZetaParams(2.0), 7, 3000)
        want = maxent.FitResult(family, params, log_likelihood, 3000, (1, 1068))
        assert fit_mle(ranks, family) == want

    def test_json_payload(self, tmp_path, capsys):
        data = tmp_path / "counts.tsv"
        data.write_text("1\t70\n2\t20\n3\t10\n")
        assert cli.main(["fit", "--input", str(data), "--family", "geometric"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "fit/1"
        assert set(payload) == {"schema", "family", "params", "log_likelihood", "n", "support"}


def fit_with_fresh_sums(observed) -> maxent.FitResult:
    """The Zipf-Mandelbrot fit as it was before it kept S(b): the same search,
    on an objective that evaluates S(b) afresh at every call."""
    from scipy import optimize

    counts = maxent._as_rank_counts(observed)
    n = int(counts.counts.sum())

    def nll(theta):
        a, b = theta
        s = maxent._log_offset_sums(counts)(b)
        return a * s + n * maxent._log_hurwitz_zeta(a, b)

    res = optimize.minimize(nll, x0=[fit_mle(counts, "zeta").params["alpha"], 1.0],
                            method="L-BFGS-B", bounds=[(1.0 + 1e-6, 64.0), (1e-6, 1e6)])
    params = {"alpha": float(res.x[0]), "b": float(res.x[1])}
    support = (int(counts.ranks[0]), int(counts.ranks[-1]))
    return maxent.FitResult("zipf-mandelbrot", params, -float(res.fun), n, support)


def zeta_fit_by_the_riemann_formula(observed) -> maxent.FitResult:
    """The zeta fit as it was written before it shared the Zipf-Mandelbrot
    objective: a bounded search on a * S(1) + n * log(riemann_zeta(a))."""
    from scipy import optimize

    counts = maxent._as_rank_counts(observed)
    n = int(counts.counts.sum())
    s = maxent._log_offset_sums(counts)(1.0)
    res = optimize.minimize_scalar(lambda a: a * s + n * math.log(riemann_zeta(a)),
                                   bounds=(1.0 + 1e-9, 64.0), method="bounded",
                                   options={"xatol": 1e-10})
    support = (int(counts.ranks[0]), int(counts.ranks[-1]))
    return maxent.FitResult("zeta", {"alpha": float(res.x)}, -float(res.fun), n, support)


class TestOnePowerLawObjective:
    """The zeta fit is the Zipf-Mandelbrot objective's search at b = 1."""

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(1, 5000), st.integers(1, 10**6), min_size=2, max_size=40))
    def test_zeta_fit_equals_the_riemann_formula(self, observed):
        assert fit_mle(observed, "zeta") == zeta_fit_by_the_riemann_formula(observed)

    def test_fit_ranked_builds_two_sums_and_no_riemann_zeta(self, monkeypatch):
        # one S(b) per power-law family: the Zipf-Mandelbrot fit's zeta start
        # searches its own objective
        observed = random_typing_counts(5_000, 2)
        want = fit_ranked(observed, maxent.FAMILIES)
        builds = []
        real = maxent._log_offset_sums

        def counted(counts):
            builds.append(counts)
            return real(counts)

        def refused(alpha):
            raise AssertionError("a fit called riemann_zeta")

        monkeypatch.setattr(maxent, "_log_offset_sums", counted)
        monkeypatch.setattr(maxent, "riemann_zeta", refused)
        assert fit_ranked(observed, maxent.FAMILIES) == want
        assert builds == [observed, observed]


def random_typing_counts(n_words: int, seed: int) -> RankCounts:
    words = randtype.generate(randtype.RandomTypingParams(26, 0.18), seed, n_words)
    table = corpus.table_from_tokens(words)
    return RankCounts(np.arange(1, table.size + 1), table.frequencies)


class TestZipfMandelbrotKeptSum:
    """The fit keeps S(b) for the last b; every bit must match the fresh sum."""

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(1, 5000), st.integers(1, 3000), min_size=2, max_size=40))
    def test_fit_equals_the_fresh_objective(self, observed):
        assert fit_mle(observed, "zipf-mandelbrot") == fit_with_fresh_sums(observed)

    def test_fit_on_a_random_typing_table(self, monkeypatch):
        observed = random_typing_counts(25_000, 3)
        assert observed.ranks.size > 10_000
        calls = []
        real = maxent.hurwitz_zeta

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(maxent, "hurwitz_zeta", counted)
        got = fit_mle(observed, "zipf-mandelbrot")
        kept_calls = calls.copy()
        calls.clear()
        assert got == fit_with_fresh_sums(observed)
        assert kept_calls == calls  # one normalizer per objective call, as before

    def test_kept_sum_equals_the_fresh_sum(self):
        observed = random_typing_counts(20_000, 5)
        bs = np.geomspace(1e-6, 1e6, 1000)
        np.random.default_rng(0).shuffle(bs)
        log_offset_sum = maxent._log_offset_sums(observed)
        for b in [*bs[:500], *np.repeat(bs[500:], 2)]:  # fresh, then kept, sums
            fresh = maxent._log_offset_sums(observed)(b)
            assert log_offset_sum(b).hex() == fresh.hex(), b


def per_rank_terms(observed: RankCounts, b: float) -> list[float]:
    """c log(r - 1 + b) for every observed rank, one `math.log` each."""
    pairs = zip(observed.ranks.tolist(), observed.counts.tolist())
    return [c * math.log(r - 1 + b) for r, c in pairs]


@st.composite
def tables_with_long_runs(draw) -> RankCounts:
    """Rank counts made of stretches of consecutive ranks with one count,
    with gaps between some of them, and at least one run of 64 or more ranks."""
    stretches = draw(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 400),
                                        st.integers(1, 10**6)), min_size=1, max_size=8))
    long_at = draw(st.integers(0, len(stretches) - 1))
    gap, _, count = stretches[long_at]
    stretches[long_at] = (gap, draw(st.integers(64, 5000)), count)
    ranks, counts, top = [], [], 0
    for gap, size, count in stretches:
        ranks += range(top + gap + 1, top + gap + size + 1)
        counts += [count] * size
        top += gap + size
    return RankCounts(ranks, counts)


class TestLogOffsetSumsOnRuns:
    """S(b) adds each run of 64 or more ranks in closed form and every other
    rank one by one; both must agree with the per-rank sum."""

    def test_runs(self):
        counts = RankCounts([1, 2, 3, 5, 6, 7, 8], [9, 4, 4, 4, 4, 1, 1])
        runs = counts.runs
        assert [x.tolist() for x in runs] == [[1, 2, 5, 7], [1, 3, 6, 8], [9, 4, 4, 1]]
        assert counts.runs is runs  # made once
        assert [x.tolist() for x in RankCounts([4], [2]).runs] == [[4], [4], [2]]

    @settings(max_examples=200, deadline=None)
    @given(tables_with_long_runs(), st.lists(st.floats(-6, 6), min_size=1, max_size=5))
    def test_equals_the_per_rank_fsum(self, observed, log_bs):
        lo, hi, _ = observed.runs
        assert (hi - lo + 1).max() >= maxent._LONG_RUN
        for b in [10.0**x for x in log_bs]:
            terms = per_rank_terms(observed, b)
            scale = math.fsum(map(abs, terms))  # S(b) itself may cancel to near 0
            got = maxent._log_offset_sums(observed)(b)
            assert abs(got - math.fsum(terms)) <= 1e-12 * scale, b

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(1, 3000), st.integers(1, 3), min_size=1, max_size=300),
           st.floats(-6, 6))
    def test_without_long_runs_it_is_the_per_rank_einsum(self, observed, log_b):
        # a table whose runs are all short is summed rank by rank, bit for bit
        counts = maxent._as_rank_counts(observed)
        lo, hi, _ = counts.runs
        assert (hi - lo + 1).max() < maxent._LONG_RUN
        b = 10.0**log_b
        rf, cf = counts.ranks.astype(float), counts.counts.astype(float)
        want = float(np.einsum("i,i", np.log(rf - 1.0 + b), cf))
        assert maxent._log_offset_sums(counts)(b).hex() == want.hex()

    @pytest.mark.parametrize("b", [1e-6, 0.5, 1.0, 41.0, 3e3, 1e6])
    def test_against_mpmath(self, b):
        observed = random_typing_counts(20_000, 5)
        lo, hi, _ = observed.runs
        assert (hi - lo + 1).max() >= 1000
        with mpmath.workdps(40):
            exact = mpmath.fsum(c * mpmath.log(r - 1 + mpmath.mpf(b))
                                for r, c in zip(observed.ranks.tolist(), observed.counts.tolist()))
        got = maxent._log_offset_sums(observed)(b)
        assert got == pytest.approx(float(exact), rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [1e-6, 0.3, 1.0, 63.9, 64.0, 100.5, 1e4, 7e5, 1e6 + 5, 1e9])
    @pytest.mark.parametrize("m", [64, 65, 1000, 10**6])
    def test_log_rising_against_mpmath(self, x, m):
        with mpmath.workdps(40):
            exact = mpmath.loggamma(mpmath.mpf(x) + m) - mpmath.loggamma(mpmath.mpf(x))
        assert maxent._log_rising(x, m) == pytest.approx(float(exact), rel=4e-15, abs=0)

    def test_rank_laws_shaped_table_fits_to_the_same_bytes(self):
        # the analytic workload's `fit` table: every run is under 64 ranks, so
        # every fit equals, bit for bit, the one recorded before runs
        rng = np.random.default_rng(1)
        w = (np.arange(1, 20_001) + 2.5) ** -1.3
        counts = np.bincount(rng.choice(20_000, 200_000, p=w / w.sum()), minlength=20_000)
        ranks = np.flatnonzero(counts) + 1
        observed = RankCounts(ranks, counts[ranks - 1])
        lo, hi, _ = observed.runs
        assert (hi - lo + 1).max() < maxent._LONG_RUN
        support = (1, 19993)
        assert list(fit_ranked(observed, maxent.FAMILIES)) == [
            maxent.FitResult("zipf-mandelbrot",
                             {"alpha": 1.4332038405787042, "b": 5.35840325486246},
                             -1145843.136192483, 200_000, support),
            maxent.FitResult("zeta", {"alpha": 1.2495929369257897}, -1173276.170208927, 200_000,
                             support),
            maxent.FitResult("geometric", {"q": 0.0015359671986217706}, -1495565.324489573,
                             200_000, support),
        ]


class TestMaxentFamilyBridges:
    """The maxent construction reproduces the closed families exactly."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_linear_law_equals_geometric(self, alpha):
        spec = MaxentSpec(alpha, LinearLength())
        params = GeometricParams(1.0 - math.exp(-alpha))
        for i in range(1, 101):
            assert abs(maxent_pmf(spec, i) - geometric_pmf(params, i)) < 1e-12

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_natural_log_law_equals_zeta(self, alpha):
        spec = MaxentSpec(alpha, LogLength())
        params = ZetaParams(alpha)
        for i in range(1, 101):
            assert abs(maxent_pmf(spec, i) - zeta_pmf(params, i)) < 1e-10

    def test_log_base_exposes_effective_exponent(self):
        law = LogLength(base=2.0)
        assert law.effective_exponent(2.0) == pytest.approx(2.0 / math.log(2.0))
        spec = MaxentSpec(2.0, law)
        a_eff = law.effective_exponent(2.0)
        for i in (1, 2, 5, 17):
            assert maxent_pmf(spec, i) == pytest.approx(
                zeta_pmf(ZetaParams(a_eff), i), abs=1e-10
            )

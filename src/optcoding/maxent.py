"""Maximum-entropy rank distributions built from length-vs-rank laws.

Maximizing rank entropy subject to a mean-cost constraint yields
p_i = exp(-alpha * l_i) / Z.  The three length laws of interest give the
classic families: l_i = i yields the geometric distribution, l_i = log i
yields the zeta (power-law) distribution, and the exact enumeration
length yields a step-shaped power law.  The Zipf-Mandelbrot family and
the Hurwitz/Riemann zeta normalizers are provided alongside sampling and
maximum-likelihood fitting.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping

import numpy as np

from .assign import _finite, _frozen_vector
from .codebook import code_length_for_rank

__all__ = [
    "riemann_zeta",
    "hurwitz_zeta",
    "LengthLaw",
    "LinearLength",
    "LogLength",
    "CodeLength",
    "MaxentSpec",
    "ZetaParams",
    "ZipfMandelbrotParams",
    "GeometricParams",
    "EntropyValue",
    "maxent_pmf",
    "zeta_pmf",
    "zipf_mandelbrot_pmf",
    "geometric_pmf",
    "entropy",
    "sample",
    "FitResult",
    "RankCounts",
    "FAMILIES",
    "fit_mle",
    "fit_ranked",
]

_LOG_TAIL_BOUND = math.log(1e-13)
_LOG_30240 = math.log(30240.0)  # 6! / B_6, of the first omitted correction
_SAMPLE_HEAD = 1 << 16
_RANK_LIMIT = 1 << 1023  # largest sampled rank: the last power of two in float range


def _head_length(alpha: float, b: float) -> int:
    """Smallest head length M in 0, 16, 64, ... whose Euler-Maclaurin tail
    error bound, the first omitted correction, is below 1e-13 * min(1, L),
    where L = max(b^-alpha, b^(1-alpha)/(alpha-1)) <= the sum (L >= 1 if b <= 1)."""
    log_factor = (
        math.log(alpha)
        + math.log1p(alpha)
        + math.log(alpha + 2)
        + math.log(alpha + 3)
        + math.log(alpha + 4)
        - _LOG_30240
    )
    log_b = math.log(b)
    log_target = _LOG_TAIL_BOUND
    log_lower = (1 - alpha) * log_b - math.log(alpha - 1)
    if log_lower < 0 < log_b:  # else L >= 1
        log_target += max(log_lower, -alpha * log_b)
    m, log_x = 0, log_b
    while log_factor - (alpha + 5) * log_x >= log_target:
        m = max(16, m * 4)
        if m > 1 << 26:  # unreachable for alpha > 1, b > 0 in float range
            break
        log_x = math.log(m + b)
    return m


def hurwitz_zeta(alpha: float, b: float) -> float:
    """sum_{i>=0} (i + b)^(-alpha), relative error well below 1e-10.

    Direct summation of the first M terms plus the Euler-Maclaurin tail
    (integral, half-term and two Bernoulli corrections).  The first
    omitted correction bounds the truncation error; M is the smallest
    head length that drives that bound below 1e-13 of the sum (of 1
    where the sum exceeds 1), so calls with a large offset b cost almost
    nothing.  A sum past the largest float (tiny b, large alpha) is inf,
    without an overflow warning; its logarithm is still finite in
    `_log_hurwitz_zeta`.
    """
    alpha, b = _finite(alpha, "alpha"), _finite(b, "b")
    if alpha <= 1:
        raise ValueError("hurwitz_zeta diverges for alpha <= 1")
    if b <= 0:
        raise ValueError("hurwitz_zeta requires b > 0")
    m = _head_length(alpha, b)
    head = 0.0
    if m:
        with np.errstate(over="ignore"):  # a term past the float range makes the sum inf
            head = float(np.sum((np.arange(m) + b) ** -alpha))
    return head + _em_tail(alpha, m + b)


def _em_tail(alpha: float, x):
    """Euler-Maclaurin tail sum_{i>=0} (i + x)^(-alpha): the integral, the
    half-term and two Bernoulli corrections.  x may be an array."""
    return (
        x ** (1 - alpha) / (alpha - 1)
        + 0.5 * x**-alpha
        + alpha * x ** (-alpha - 1) / 12.0
        - alpha * (alpha + 1) * (alpha + 2) * x ** (-alpha - 3) / 720.0
    )


def _log_hurwitz_zeta(alpha: float, b: float) -> float:
    """log hurwitz_zeta(alpha, b), also where the sum itself leaves the float range.

    Where the sum is a normal float this is math.log of it, bit for bit.
    Otherwise (inf, or below the smallest normal float) it is
    -alpha log b + log S, where S is the same head and tail divided by the
    first term b^-alpha.  Each of its M head terms is at most 1 and the
    first is 1, so S lies between about 1/2 and M + 1 + (M + b) / (alpha - 1):
    well inside the float range.
    """
    z = hurwitz_zeta(alpha, b)
    if sys.float_info.min <= z < math.inf:
        return math.log(z)
    alpha, b = float(alpha), float(b)
    m = _head_length(alpha, b)
    x = m + b
    head = float(np.sum((1.0 + np.arange(m) / b) ** -alpha))
    corrections = alpha / (12.0 * x) - alpha * (alpha + 1) * (alpha + 2) / (720.0 * x**3)
    tail = (x / b) ** -alpha * (x / (alpha - 1) + 0.5 + corrections)
    return -alpha * math.log(b) + math.log(head + tail)


def riemann_zeta(alpha: float) -> float:
    """sum_{j>=1} j^(-alpha), relative error well below 1e-10."""
    return hurwitz_zeta(alpha, 1.0)


class LengthLaw:
    """A length-vs-rank law: callable rank -> magnitude.

    A law whose infinite-support partition sum has a closed (or zeta) form
    defines `partition(alpha)`; an untruncated `MaxentSpec` needs one.
    """

    def __call__(self, i: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearLength(LengthLaw):
    """l_i = i.  Partition sum is a geometric series; converges for alpha > 0."""

    def __call__(self, i: int) -> float:
        return float(i)

    def partition(self, alpha: float) -> float:
        if alpha <= 0:
            raise ValueError("linear length law needs alpha > 0")
        r = math.exp(-alpha)
        return r / (1.0 - r)


@dataclass(frozen=True)
class LogLength(LengthLaw):
    """l_i = log(i) / log(base).

    exp(-alpha * log_base i) = i^(-alpha / ln base), so the effective
    power-law exponent is alpha / ln(base) and must exceed 1 for the
    partition sum to converge.
    """

    base: float = math.e

    def __post_init__(self):
        if _finite(self.base, "base") <= 1:
            raise ValueError("log length law needs base > 1")

    def __call__(self, i: int) -> float:
        if i < 1:
            raise ValueError("rank must be >= 1")
        return math.log(i) / math.log(self.base)

    def effective_exponent(self, alpha: float) -> float:
        return alpha / math.log(self.base)

    def partition(self, alpha: float) -> float:
        a_eff = self.effective_exponent(alpha)
        if a_eff <= 1:
            raise ValueError(
                f"partition sum diverges: effective exponent {a_eff!r} <= 1"
            )
        return riemann_zeta(a_eff)


@dataclass(frozen=True)
class CodeLength(LengthLaw):
    """Exact enumeration length of the rank-i string over `base_size` symbols.

    Ranks sharing a length form blocks of base_size**l strings, so the
    partition sum collapses to a geometric series in base_size * exp(-alpha);
    convergence needs alpha > ln(base_size).
    """

    base_size: int
    min_length: int = 1

    def __post_init__(self):
        object.__setattr__(self, "base_size", operator.index(self.base_size))
        object.__setattr__(self, "min_length", operator.index(self.min_length))
        if self.base_size < 1:
            raise ValueError("base_size must be >= 1")
        if self.min_length < 0:
            raise ValueError("min_length must be nonnegative")

    def __call__(self, i):
        """Length of rank i as a float; an array of ranks gives a float array."""
        lengths = code_length_for_rank(self.base_size, self.min_length, i)
        return lengths.astype(float) if np.ndim(lengths) else float(lengths)

    def partition(self, alpha: float) -> float:
        r = self.base_size * math.exp(-alpha)
        if r >= 1:
            raise ValueError(
                f"partition sum diverges: need alpha > ln({self.base_size})"
            )
        return r**self.min_length / (1.0 - r)


@dataclass(frozen=True)
class MaxentSpec:
    """Maximum-entropy rank distribution p_i = exp(-alpha * l_i) / Z."""

    alpha: float
    length_law: Callable[[int], float]
    truncation: int | None = None

    def __post_init__(self):
        if _finite(self.alpha, "alpha") <= 0:
            raise ValueError("alpha must be positive")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation must be >= 1")

    def partition(self) -> float:
        """Normalizer Z, computed on first use and then reused."""
        return self._partition

    @cached_property
    def _partition(self) -> float:
        if self.truncation is not None:
            lengths = np.array(
                [self.length_law(j) for j in range(1, self.truncation + 1)]
            )
            return float(np.exp(-self.alpha * lengths).sum())
        partition = getattr(self.length_law, "partition", None)
        if partition is None:
            raise ValueError("no closed partition sum for this length law; set a truncation")
        return partition(self.alpha)

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF ranks of the uniforms u: a truncated spec by its table,
        an untruncated linear or log law as the geometric or zeta family it equals."""
        if self.truncation is not None:
            return _table_ranks(partial(maxent_pmf, self), self.truncation, u)
        if isinstance(self.length_law, LinearLength):
            return GeometricParams(1.0 - math.exp(-self.alpha))._ranks(u)
        if isinstance(self.length_law, LogLength):
            return ZetaParams(self.length_law.effective_exponent(self.alpha))._ranks(u)
        raise ValueError("cannot sample this maxent spec without a truncation")


def maxent_pmf(spec: MaxentSpec, i: int) -> float:
    """Probability of rank i under the maximum-entropy distribution."""
    if i < 1:
        raise ValueError("rank must be >= 1")
    if spec.truncation is not None and i > spec.truncation:
        return 0.0
    z = spec.partition()
    return math.exp(-spec.alpha * spec.length_law(i)) / z


@dataclass(frozen=True)
class ZetaParams:
    """Zeta (discrete power-law) distribution p_i = i^(-alpha) / zeta(alpha)."""

    alpha: float

    def __post_init__(self):
        if _finite(self.alpha, "alpha") <= 1:
            raise ValueError("zeta distribution needs alpha > 1")

    @cached_property
    def normalizer(self) -> float:
        """riemann_zeta(alpha), computed on first use and then reused."""
        return riemann_zeta(self.alpha)

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        return _power_family_ranks(self.alpha, 1.0, u)

    @classmethod
    def _fit(cls, observed: RankCounts) -> tuple[dict, float]:
        """MLE (params, log-likelihood) of rank counts: `_zeta_search`."""
        return _zeta_search(_power_nll(observed))


@dataclass(frozen=True)
class ZipfMandelbrotParams:
    """Shifted power law p_i = (i + b)^(-alpha) / hurwitz_zeta(alpha, b)."""

    alpha: float
    b: float

    def __post_init__(self):
        if _finite(self.alpha, "alpha") <= 1:
            raise ValueError("Zipf-Mandelbrot needs alpha > 1")
        if _finite(self.b, "b") <= 0:
            raise ValueError("Zipf-Mandelbrot needs offset b > 0")

    @cached_property
    def normalizer(self) -> float:
        """hurwitz_zeta(alpha, b), computed on first use and then reused."""
        return hurwitz_zeta(self.alpha, self.b)

    @cached_property
    def _log_normalizer(self) -> float:
        """log hurwitz_zeta(alpha, b), for a normalizer that is not a normal float."""
        return _log_hurwitz_zeta(self.alpha, self.b)

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        return _power_family_ranks(self.alpha, self.b, u)

    @classmethod
    def _fit(cls, observed: RankCounts) -> tuple[dict, float]:
        """MLE (params, log-likelihood) of rank counts: L-BFGS-B on (alpha, b),
        started from the zeta search's alpha at b = 1 on the same objective."""
        from scipy import optimize  # imported here: it is most of `import optcoding`

        nll = _power_nll(observed)
        res = optimize.minimize(lambda theta: nll(*theta), x0=[_zeta_search(nll)[0]["alpha"], 1.0],
                                method="L-BFGS-B", bounds=[(1.0 + 1e-6, 64.0), (1e-6, 1e6)])
        return {"alpha": float(res.x[0]), "b": float(res.x[1])}, -float(res.fun)


def _power_nll(observed: RankCounts) -> Callable[[float, float], float]:
    """(alpha, b) -> alpha S(b) + n log hurwitz_zeta(alpha, b), the negative
    log-likelihood of the Zipf-Mandelbrot law and at b = 1 of the zeta law.
    S(b) from `_log_offset_sums` is kept for the last b: the finite-difference
    probe (alpha + h, b) after (alpha, b) costs one `_log_hurwitz_zeta` call."""
    log_offset_sum, n = _log_offset_sums(observed), observed.total
    return lambda alpha, b: alpha * log_offset_sum(b) + n * _log_hurwitz_zeta(alpha, b)


def _zeta_search(nll: Callable[[float, float], float]) -> tuple[dict, float]:
    """The zeta law's (params, log-likelihood): a bounded search of nll(alpha, 1.0)."""
    from scipy import optimize  # imported here: it is most of `import optcoding`

    res = optimize.minimize_scalar(lambda a: nll(a, 1.0), bounds=(1.0 + 1e-9, 64.0),
                                   method="bounded", options={"xatol": 1e-10})
    return {"alpha": float(res.x)}, -float(res.fun)


# A run of at least this many ranks is summed in closed form: two lgamma
# calls, or a log and a log1p, replace at least 64 logarithms, and the
# per-probe time was flat for cutoffs from 32 to 128.
_LONG_RUN = 64


def _log_offset_sums(observed: RankCounts) -> Callable[[float], float]:
    """b -> S(b) = sum c log(r - 1 + b) over the observed ranks r with counts
    c, remembering the last b and its sum.  Rank r sits at support index
    r - 1, so this is the Zipf-Mandelbrot sum; S(1) is the zeta sum c log r.

    Each run of `_LONG_RUN` or more ranks (see `RankCounts.runs`) adds
    c * log Gamma(hi + b) / Gamma(lo - 1 + b), from `_log_rising`.  The ranks
    of shorter runs are summed one by one, as float(np.einsum("i,i",
    np.log(r - 1.0 + b), c)) in rank order; one buffer takes every b's
    offsets and their logarithms in place.  The two parts are added with
    `math.fsum`, so a table with no long run gets that einsum bit for bit."""
    lo, hi, c = observed.runs
    size = hi - lo + 1
    long = size >= _LONG_RUN
    short = ~np.repeat(long, size)
    offsets = observed.ranks[short] - 1.0
    cf = observed.counts[short].astype(float)
    long_runs = list(zip((lo[long] - 1.0).tolist(), size[long].tolist(), c[long].tolist()))
    buf = np.empty_like(offsets)
    last_b, last_sum = None, 0.0

    def log_offset_sum(b: float) -> float:
        nonlocal last_b, last_sum
        if b != last_b:
            np.add(offsets, b, out=buf)
            head = float(np.einsum("i,i", np.log(buf, out=buf), cf))
            runs = [k * _log_rising(x + b, m) for x, m, k in long_runs]
            last_b, last_sum = b, math.fsum([head, *runs])
        return last_sum

    return log_offset_sum


def _log_rising(x: float, m: int) -> float:
    """log Gamma(x + m) - log Gamma(x) = sum_{k<m} log(x + k), for x > 0 and
    a run length m >= `_LONG_RUN`, to a few units in the last place.

    Below x = 64 it is the difference of two `math.lgamma` values, the
    smaller of which is at most lgamma(64) ~ 201, so little cancels.  From
    x = 64 up two lgammas near x log x would cancel (at x = 1e6 and m = 64,
    to about 4e-12 relative), so it is Stirling's series, arranged so that
    no two large terms cancel: (x - 1/2) log1p(m / x) + m (log(x + m) - 1)
    + phi(x + m) - phi(x), with the first four Bernoulli corrections phi,
    whose first omitted term is below 2e-19 at x = 64."""
    if x < 64.0:
        return math.lgamma(x + m) - math.lgamma(x)
    y = x + m
    return ((x - 0.5) * math.log1p(m / x) + m * (math.log(y) - 1.0)
            + _stirling_corrections(y) - _stirling_corrections(x))


def _stirling_corrections(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x >= 64:
    1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7)."""
    u = 1.0 / (x * x)
    return (1.0 / 12.0 - u * (1.0 / 360.0 - u * (1.0 / 1260.0 - u / 1680.0))) / x


@dataclass(frozen=True)
class GeometricParams:
    """Geometric distribution p_i = q * (1 - q)^(i - 1) on ranks 1, 2, ..."""

    q: float

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("geometric distribution needs q in (0, 1)")

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        k = np.ceil(np.log1p(-u) / math.log1p(-self.q))
        if k.max() >= 2**63:
            raise ValueError(f"a sampled rank exceeds the int64 range at q={self.q!r}")
        return np.maximum(k, 1.0).astype(np.int64)

    @classmethod
    def _fit(cls, observed: RankCounts) -> tuple[dict, float]:
        """MLE (params, log-likelihood) of rank counts: the closed form q = 1/mean."""
        n = observed.total
        rank_sum = float(np.einsum("i,i", observed.ranks.astype(float), observed.counts.astype(float)))
        q = 1.0 / (rank_sum / n)
        if not 0 < q < 1:
            raise ValueError("geometric MLE is degenerate for this data")
        return {"q": q}, n * math.log(q) + (rank_sum - n) * math.log1p(-q)


# The rank-distribution families `fit_mle` knows, in their default order; the
# only place their names are spelled.
_FAMILIES = {"zeta": ZetaParams, "zipf-mandelbrot": ZipfMandelbrotParams,
             "geometric": GeometricParams}
FAMILIES = tuple(_FAMILIES)


def zeta_pmf(params: ZetaParams, i: int) -> float:
    """i^(-alpha) / zeta(alpha); a rank past the float range gives 0.0."""
    if i < 1:
        raise ValueError("rank must be >= 1")
    if i > sys.float_info.max:  # i^(-alpha) < 1 / i is below the float range
        return 0.0
    return i ** -params.alpha / params.normalizer


def zipf_mandelbrot_pmf(params: ZipfMandelbrotParams, i: int) -> float:
    """Probability at support index i >= 0.

    The support index starts at 0, matching the normalizer
    hurwitz_zeta(alpha, b) = sum_{i>=0} (i + b)^(-alpha); the type of
    frequency rank r corresponds to index i = r - 1.  With b = 1 the law
    is exactly the zeta distribution under that rank shift:
    pmf(i) = (i + 1)^(-alpha) / hurwitz_zeta(alpha, 1) = zeta_pmf(i + 1).

    Where the normalizer is not a normal float (inf, or below the smallest
    normal float, as at corners of the fit's search box) the pmf is
    exp(-alpha log(i + b) - `_log_hurwitz_zeta`(alpha, b)).  An index past
    the float range gives 0.0.
    """
    if i < 0:
        raise ValueError("support index must be >= 0")
    if i > sys.float_info.max:  # the pmf is below the float range
        return 0.0
    z = params.normalizer
    if sys.float_info.min <= z < math.inf:
        return (i + params.b) ** -params.alpha / z
    return math.exp(-params.alpha * math.log(i + params.b) - params._log_normalizer)


def geometric_pmf(params: GeometricParams, i: int) -> float:
    if i < 1:
        raise ValueError("rank must be >= 1")
    return params.q * (1.0 - params.q) ** (i - 1)


@dataclass(frozen=True)
class EntropyValue:
    """Entropy with its unit spelled out ("nats" or "bits")."""

    value: float
    unit: str

    def __post_init__(self):
        if self.unit not in ("nats", "bits"):
            raise ValueError("unit must be 'nats' or 'bits'")
        if _finite(self.value, "entropy") < -1e-12:
            raise ValueError("entropy must be nonnegative")


def _pmf_table(pmf: Callable[[int], float], truncation: int) -> np.ndarray:
    """pmf(1), ..., pmf(truncation) as a float array, one call per rank;
    nan, inf, negative values or a table with no mass raise ValueError."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    p = np.array([pmf(i) for i in range(1, truncation + 1)], dtype=float)
    if not np.all((p >= 0) & (p < math.inf)) or not p.any():
        raise ValueError("pmf values must be finite, nonnegative and not all zero")
    return p


def entropy(
    pmf: Callable[[int], float], truncation: int, unit: str = "nats"
) -> EntropyValue:
    """H = -sum p_i log p_i over ranks 1..truncation, with 0 log 0 = 0.

    The truncated mass must be within 1e-6 of 1; pick the truncation so the
    missing tail is negligible for the family at hand.
    """
    if unit not in ("nats", "bits"):
        raise ValueError("unit must be 'nats' or 'bits'")
    p = _pmf_table(pmf, truncation)
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(
            f"pmf mass over the truncation is {total!r}; not normalized within 1e-6"
        )
    pos = p[p > 0]
    h = float(-(pos * np.log(pos)).sum())
    return EntropyValue(h / math.log(2.0) if unit == "bits" else h, unit)


def _power_family_ranks(alpha: float, b: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF ranks for P(rank r) = (r - 1 + b)^(-alpha) / hurwitz_zeta(alpha, b).

    A cumulative table covers the first 2^16 ranks.  A draw u past it gets
    the smallest rank r >= 2^16 with hurwitz_zeta(alpha, r + b) <= (1 - u) Z.
    Each such draw starts from the closed-form inverse of the tail's
    integral plus half-term, (x - 1/2)^(1-alpha) / (alpha - 1), and is
    settled exactly on the scalar predicate, so the same u always gives the
    same rank.  Ranks of 2^63 or more make the result an object array.  A
    normalizer that is not a normal float raises ValueError naming alpha and b.
    """
    alpha = float(alpha)
    z = hurwitz_zeta(alpha, b)
    if not sys.float_info.min <= z < math.inf:
        raise ValueError(
            f"the normalizer hurwitz_zeta(alpha, b) = {z!r} is not a normal float, "
            f"so the law cannot be sampled, at alpha={alpha!r} (b={b!r})"
        )
    head = (np.arange(_SAMPLE_HEAD) + b) ** -alpha
    cdf = np.cumsum(head) / z
    ranks = (np.searchsorted(cdf, u, side="left") + 1).astype(np.int64)
    tail = np.flatnonzero(u > cdf[-1])
    if not tail.size:
        return ranks
    targets = (1.0 - u[tail]) * z
    if hurwitz_zeta(alpha, _RANK_LIMIT + b) > targets.min():
        raise ValueError(
            f"a sampled rank exceeds 2**1023, the float range of the offset "
            f"r + b, at alpha={alpha!r} (b={b!r})"
        )
    with np.errstate(over="ignore", divide="ignore"):  # a start past 2**1023 is clipped
        x0 = ((alpha - 1) * targets) ** (1 / (1 - alpha)) + 0.5
    guesses = np.ceil(np.clip(x0, float(_SAMPLE_HEAD + b), float(_RANK_LIMIT + b)) - b).tolist()
    settled = [
        _settle_rank(alpha, b, t, int(g)) for t, g in zip(targets.tolist(), guesses)
    ]
    out = ranks if max(settled) < 2**63 else ranks.astype(object)
    out[tail] = settled
    return out


def _settle_rank(alpha: float, b: float, t: float, guess: int) -> int:
    """Smallest rank r >= 2^16 with hurwitz_zeta(alpha, r + b) <= t, found from a guess.

    The test is _em_tail(alpha, r + b) <= t, the same bit for bit at a float
    alpha: past 2^16 the head length is 0 below alpha ~ 2490, so hurwitz_zeta
    is 0.0 + _em_tail, and above alpha ~ 70 every term of both is 0.0.
    Gallops from the guess to a bracket, then bisects it.  Past 2^53
    neighbouring ranks share the float r + b, so steps start at its spacing
    and each distinct float is evaluated once: a rank whose float is the
    bracket's x_lo (fails) or x_hi (holds) is decided without a probe.
    Needs the predicate to hold at _RANK_LIMIT.
    """
    r = min(max(guess, _SAMPLE_HEAD), _RANK_LIMIT)
    step = max(1, int(math.ulp(r)))
    x = float(r + b)
    if _em_tail(alpha, x) <= t:
        hi, x_hi, lo, x_lo = r, x, r - step, -math.inf  # -inf: no float yet known to fail
        while lo >= _SAMPLE_HEAD:
            x = float(lo + b)
            if x != x_hi and _em_tail(alpha, x) > t:  # the float x_hi holds
                x_lo = x
                break
            hi, x_hi, step = lo, x, 2 * step
            lo = hi - step
        lo = max(lo, _SAMPLE_HEAD - 1)  # no rank below the head qualifies
    else:
        lo, x_lo = r, x
        while True:
            hi = min(lo + step, _RANK_LIMIT)
            x_hi = float(hi + b)
            if x_hi != x_lo and _em_tail(alpha, x_hi) <= t:  # the float x_lo fails
                break
            lo, x_lo, step = hi, x_hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = float(mid + b)
        if x == x_hi or x != x_lo and _em_tail(alpha, x) <= t:
            hi, x_hi = mid, x
        else:
            lo, x_lo = mid, x
    return hi


def sample(family, seed, n: int, *, truncation: int | None = None) -> np.ndarray:
    """Draw n i.i.d. ranks (>= 1) by inverse CDF; deterministic per seed.

    Accepts GeometricParams, ZetaParams, ZipfMandelbrotParams, a MaxentSpec,
    or a bare pmf callable; each family and spec draws its own ranks.  An
    untruncated MaxentSpec with a linear or log length law is sampled as the
    geometric or zeta family it equals; other specs need their own
    truncation.  A bare pmf needs `truncation`, and its table is
    renormalized over it; `truncation` with anything but a bare pmf raises
    ValueError before any draw.  Every route inverts the same n uniforms,
    drawn once.  For the Zipf-Mandelbrot family the returned rank r
    corresponds to support index r - 1.

    Zeta, Zipf-Mandelbrot and log-length draws invert the first 2^16 ranks
    by table; a later draw starts from the closed-form inverse of the tail
    and is settled on the tail formula, so the same u always gives the same
    rank.  Ranks of 2^63 or more come back in an object array, and a draw
    whose rank would exceed 2**1023 (the float range of the offset r + b)
    raises ValueError naming alpha, as does a Zipf-Mandelbrot law whose
    normalizer is not a normal float; a geometric rank of 2**63 or more, past
    int64, raises ValueError naming q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if truncation is not None and hasattr(family, "_ranks"):
        raise ValueError("truncation applies to a bare pmf only")
    u = np.random.default_rng(seed).random(n)
    if hasattr(family, "_ranks"):
        return family._ranks(u)
    if not callable(family):
        raise TypeError(f"cannot sample from {type(family).__name__}")
    if truncation is None:
        raise ValueError("sampling a bare pmf needs a truncation")
    return _table_ranks(family, truncation, u)


def _table_ranks(pmf: Callable[[int], float], truncation: int, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF ranks of the uniforms u under pmf(1..truncation), renormalized."""
    p = _pmf_table(pmf, truncation)
    return (np.searchsorted(np.cumsum(p) / p.sum(), u, side="left") + 1).astype(np.int64)


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit of one family to observed rank counts."""

    family: str
    params: dict
    log_likelihood: float
    n: int
    support: tuple[int, int]


@dataclass(frozen=True, eq=False)
class RankCounts:
    """Observed rank counts as aligned int64 arrays: `ranks` strictly increasing
    and >= 1, `counts` >= 1 and summing within int64 to `total`, an exact int.
    Every fit works on this form; `fit_mle` and `fit_ranked` take it as is.
    Its `runs` of tied counts, made on first use and kept, let the zeta and
    Zipf-Mandelbrot sums cost O(runs) per parameter, not O(ranks)."""

    ranks: np.ndarray
    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        ranks = _frozen_vector(self.ranks, "ranks", np.int64)
        counts = _frozen_vector(self.counts, "counts", np.int64)
        if ranks.shape != counts.shape:
            raise ValueError("ranks and counts must be aligned 1-D arrays")
        if np.any(ranks < 1):
            raise ValueError("ranks must be >= 1")
        if np.any(counts < 1):
            raise ValueError("counts must be >= 1")
        if np.any(ranks[:-1] >= ranks[1:]):
            raise ValueError("ranks must be strictly increasing")
        object.__setattr__(self, "total", sum(counts.tolist()))
        if self.total > np.iinfo(np.int64).max:
            raise ValueError("the total count must fit in int64")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, count) int64 arrays, one entry per run: a longest stretch
        of consecutive ranks lo, lo + 1, ..., hi with one count.  A table may
        skip ranks, and a skipped rank ends a run.  Corpus tables are mostly
        ties, so they have few runs (76 for 152,190 random-typing types)."""
        ends = np.flatnonzero((np.diff(self.ranks) != 1) | (np.diff(self.counts) != 0))
        starts = np.r_[0, ends + 1]
        return self.ranks[starts], self.ranks[np.r_[ends, self.ranks.size - 1]], self.counts[starts]


def _as_rank_counts(observed) -> RankCounts:
    if isinstance(observed, RankCounts):
        return observed
    if isinstance(observed, Mapping):
        items = sorted(observed.items())
        return RankCounts([r for r, _ in items], [c for _, c in items])
    return RankCounts(*np.unique(_frozen_vector(observed, "ranks", np.int64), return_counts=True))


def fit_mle(observed, family: str) -> FitResult:
    """Maximum-likelihood parameters for one of FAMILIES.

    `observed` is a mapping rank -> count, a sequence of observed ranks or
    a `RankCounts`.  The geometric MLE is the closed form q = 1/mean; the power-law
    families use bracketed numerical search.  Needs at least two distinct
    observed ranks.
    """
    observed = _as_rank_counts(observed)
    ranks = observed.ranks
    if ranks.size < 2:
        raise ValueError("need at least 2 distinct observed ranks")
    if family not in FAMILIES:  # the tuple: an unhashable name is unknown, not a TypeError
        raise ValueError(f"unknown family {family!r}")
    params, ll = _FAMILIES[family]._fit(observed)
    return FitResult(family, params, ll, observed.total, (int(ranks[0]), int(ranks[-1])))


def fit_ranked(observed, families) -> tuple[FitResult, ...]:
    """Fit each family to `observed`, best log-likelihood first (stable on ties).

    `observed` takes the forms `fit_mle` does and is converted to
    `RankCounts` once for all the families."""
    observed = _as_rank_counts(observed)
    fits = [fit_mle(observed, fam) for fam in families]
    return tuple(sorted(fits, key=lambda r: r.log_likelihood, reverse=True))

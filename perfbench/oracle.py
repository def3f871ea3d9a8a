"""Reference values the benchmark checks the program's outputs against.

Everything here is written independently of `optcoding`: pair counts come
from a merge-sort inversion count, normalizers from `scipy.special.zeta`,
and fits from scipy's optimizers over those normalizers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

# Sampled ranks below this value must match exactly.  Above it, two
# correct normalizers (they differ by a few 1e-15 relative) can put a draw
# on either side of a rank boundary, so ranks may differ by one, or by
# RANK_RTOL relative where ranks are beyond float resolution.
EXACT_RANK_LIMIT = 1 << 20
RANK_RTOL = 1e-9


def strict_inversions(a) -> int:
    """Number of pairs i < j with a[i] > a[j], by bottom-up merging in numpy."""
    a = np.asarray(a)
    n = a.size
    if n < 2:
        return 0
    _, r = np.unique(a, return_inverse=True)
    r = r.astype(np.int64).ravel()
    span = n + 1  # exceeds every dense rank, so pair * span + rank sorts by pair first
    pos = np.arange(n, dtype=np.int64)
    total = 0
    width = 1
    while width < n:
        block = pos // width
        pair = block // 2
        is_right = (block & 1) == 1
        keys = pair * span + r  # sorted within each block of `width`
        left = keys[~is_right]
        right = keys[is_right]
        right_pair = pair[is_right]
        not_greater = np.searchsorted(left, right, side="right")
        pair_end = np.searchsorted(left, (right_pair + 1) * span, side="left")
        total += int((pair_end - not_greater).sum())
        r = np.sort(keys, kind="stable") - pair * span
        width *= 2
    return total


def pair_counts(freqs, mags) -> tuple[int, int]:
    """(n_c, n_d) over pairs untied in both frequency and magnitude.

    Concordant: the more frequent type has the larger magnitude.
    """
    f = np.asarray(freqs, dtype=np.int64)
    m = np.asarray(mags, dtype=float)
    by_m_up = np.lexsort((m, -f))  # within a frequency tie, no pair is inverted
    by_m_down = np.lexsort((-m, -f))
    return strict_inversions(m[by_m_up]), strict_inversions(-m[by_m_down])


def block_lengths(N: int, l_min: int, n_ranks: int) -> np.ndarray:
    """Length of the i-th string (length-then-lexicographic order), i = 1..n_ranks."""
    if N == 1:
        return np.arange(l_min, l_min + n_ranks, dtype=np.int64)
    bounds = []
    count, length = 0, l_min
    while count < n_ranks:
        count += N**length
        bounds.append(count)
        length += 1
    ranks = np.arange(1, n_ranks + 1, dtype=np.int64)
    return l_min + np.searchsorted(np.array(bounds, dtype=np.int64), ranks, side="left")


def corpus_summary(freqs, mags, *, N: int = 26, l_min: int = 1) -> dict:
    """Expected concordance and recoding figures of a frequency table."""
    f = np.sort(np.asarray(freqs, dtype=np.int64))[::-1]
    order = np.argsort(-np.asarray(freqs, dtype=np.int64), kind="stable")
    m = np.asarray(mags, dtype=float)[order]
    v = int(f.size)
    n_c, n_d = pair_counts(f, m)
    p = f / f.sum()
    l_actual = float(p @ m)
    l_optimal = float(p @ block_lengths(N, l_min, v))
    return {
        "n_types": v,
        "n_tokens": int(f.sum()),
        "n_c": n_c,
        "n_d": n_d,
        "tau": (n_c - n_d) / (v * (v - 1) / 2),
        "z_score": (n_c - n_d) / math.sqrt(v * (v - 1) * (2 * v + 5) / 18.0),
        "l_actual": l_actual,
        "l_optimal": l_optimal,
        "efficiency_ratio": l_optimal / l_actual,
    }


def zeta_loglik(alpha: float, log_rank_sum: float, n: int) -> float:
    return -(alpha * log_rank_sum + n * math.log(special.zeta(alpha, 1.0)))


def zipf_mandelbrot_loglik(alpha: float, b: float, ranks, counts) -> float:
    """Rank r sits at support index r - 1 with weight (r - 1 + b)^(-alpha)."""
    rf = np.asarray(ranks, dtype=float)
    cf = np.asarray(counts, dtype=float)
    n = float(cf.sum())
    return -(alpha * float(np.log(rf - 1.0 + b) @ cf) + n * math.log(special.zeta(alpha, b)))


def geometric_loglik(q: float, ranks, counts) -> float:
    rf = np.asarray(ranks, dtype=float)
    cf = np.asarray(counts, dtype=float)
    return float(cf.sum()) * math.log(q) + float((rf - 1.0) @ cf) * math.log1p(-q)


def fit_summary(ranks, counts) -> dict:
    """Maximum-likelihood optima of the three families over the same search boxes."""
    rf = np.asarray(ranks, dtype=float)
    cf = np.asarray(counts, dtype=float)
    n = int(cf.sum())
    q = n / float(rf @ cf)
    s = float(np.log(rf) @ cf)
    zeta = optimize.minimize_scalar(
        lambda a: -zeta_loglik(a, s, n), bounds=(1.0 + 1e-9, 64.0),
        method="bounded", options={"xatol": 1e-10},
    )
    zm = optimize.minimize(
        lambda t: -zipf_mandelbrot_loglik(t[0], t[1], rf, cf),
        x0=[float(zeta.x), 1.0], method="L-BFGS-B",
        bounds=[(1.0 + 1e-6, 64.0), (1e-6, 1e6)],
    )
    return {
        "n": n,
        "support": [int(rf.min()), int(rf.max())],
        "geometric": {"q": q, "log_likelihood": geometric_loglik(q, rf, cf)},
        "zeta": {"alpha": float(zeta.x), "log_likelihood": -float(zeta.fun)},
        "zipf-mandelbrot": {
            "alpha": float(zm.x[0]), "b": float(zm.x[1]),
            "log_likelihood": -float(zm.fun),
        },
    }


def zeta_sample_ranks(alpha: float, u: np.ndarray, head: int = 1 << 16) -> np.ndarray:
    """Inverse-CDF ranks of the zeta law as floats: smallest r with CDF(r) >= u.

    Heads come from a cumulative table; tails solve zeta(alpha, r + 1) =
    (1 - u) zeta(alpha) by bisection in log r, then settle the integer
    exactly wherever it lies below EXACT_RANK_LIMIT.
    """
    z = float(special.zeta(alpha, 1.0))
    cdf = np.cumsum((np.arange(head) + 1.0) ** -alpha) / z
    ranks = (np.searchsorted(cdf, u, side="left") + 1).astype(float)
    tail = np.flatnonzero(u > cdf[-1])
    if tail.size:
        target = (1.0 - u[tail]) * z
        lo = np.full(tail.size, math.log(head))
        hi = np.full(tail.size, 700.0)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            above = special.zeta(alpha, np.exp(mid) + 1.0) > target
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        r = np.ceil(np.exp(hi))
        small = r < EXACT_RANK_LIMIT
        ri = r[small]
        t = target[small]
        for _ in range(4):  # settle the boundary integer: zeta(r+1) <= t < zeta(r)
            ri = np.where(special.zeta(alpha, ri + 1.0) > t, ri + 1.0, ri)
            ri = np.where((ri > head) & (special.zeta(alpha, ri) <= t), ri - 1.0, ri)
        r[small] = ri
        ranks[tail] = r
    return ranks


def zeta_entropy(alpha: float, truncation: int) -> float:
    """-sum p log p of the zeta law over ranks 1..truncation, in nats."""
    p = np.arange(1, truncation + 1, dtype=float) ** -alpha / float(special.zeta(alpha, 1.0))
    return float(-(p * np.log(p)).sum())

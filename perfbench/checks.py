"""Output checks.  Each returns a list of failure messages; empty means correct.

Integers, schema tags, digests and sampled ranks must match exactly.
Floats that an optimisation may legitimately move in their last bits
(fitted parameters, log-likelihoods, means) are compared with a relative
tolerance.  Structural checks hold for any correct program: the optimal
recoding is never longer than the actual lengths when magnitudes are
character counts, and Zipf-Mandelbrot fits at least as well as zeta.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import oracle

FLOAT_RTOL = 1e-9  # sums and closed forms whose evaluation order may change
ALPHA_RTOL = 1e-5  # a bounded 1-D search, against an independent normalizer
LOGLIK_RTOL = 1e-7  # optimum reached by an iterative search
FAMILIES = {"zeta", "zipf-mandelbrot", "geometric"}


def close(a, b, rtol) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _exact(out: dict, expect: dict, keys) -> list[str]:
    return [f"{k}: got {out.get(k)!r}, expected {expect[k]!r}" for k in keys if out.get(k) != expect[k]]


def _near(out: dict, expect: dict, keys, rtol=FLOAT_RTOL) -> list[str]:
    return [f"{k}: got {out.get(k)!r}, expected {expect[k]!r}" for k in keys
            if not close(out.get(k), expect[k], rtol)]


def check_fits(fits: list, expect: dict, data: np.ndarray) -> list[str]:
    """Fitted families against the oracle's optima and the fitted data."""
    bad = []
    by_family = {f.get("family"): f for f in fits}
    if set(by_family) != FAMILIES or len(fits) != len(FAMILIES):
        return [f"fit families {sorted(map(str, by_family))}"]
    lls = [f.get("log_likelihood") for f in fits]
    if lls != sorted(lls, reverse=True):
        bad.append("fits not ranked by log-likelihood")
    for fam, fit in by_family.items():
        if fit.get("schema") != "fit/1":
            bad.append(f"{fam}: schema {fit.get('schema')!r}")
        if fit.get("n") != expect["n"] or fit.get("support") != expect["support"]:
            bad.append(f"{fam}: n/support {fit.get('n')!r} {fit.get('support')!r}")
    ranks, counts = data
    geo, zeta, zm = by_family["geometric"], by_family["zeta"], by_family["zipf-mandelbrot"]
    q = geo["params"].get("q")
    if not close(q, expect["geometric"]["q"], FLOAT_RTOL):
        bad.append(f"geometric q {q!r}, expected {expect['geometric']['q']!r}")
    bad += _near(geo, expect["geometric"], ["log_likelihood"])
    alpha = zeta["params"].get("alpha")
    if not close(alpha, expect["zeta"]["alpha"], ALPHA_RTOL):
        bad.append(f"zeta alpha {alpha!r}, expected {expect['zeta']['alpha']!r}")
    bad += ["zeta " + m for m in _near(zeta, expect["zeta"], ["log_likelihood"], LOGLIK_RTOL)]
    a, b = zm["params"].get("alpha"), zm["params"].get("b")
    at_params = oracle.zipf_mandelbrot_loglik(a, b, ranks, counts)
    if not close(zm.get("log_likelihood"), at_params, FLOAT_RTOL):
        bad.append(f"zipf-mandelbrot log-likelihood {zm.get('log_likelihood')!r} "
                   f"is not that of its parameters ({at_params!r})")
    bad += ["zipf-mandelbrot " + m
            for m in _near(zm, expect["zipf-mandelbrot"], ["log_likelihood"], LOGLIK_RTOL)]
    tol = FLOAT_RTOL * abs(zeta["log_likelihood"])
    if not zm["log_likelihood"] >= zeta["log_likelihood"] - tol:
        bad.append("zipf-mandelbrot log-likelihood below zeta's")
    return bad


def _load_fit_data(expect: dict, workdir: Path) -> np.ndarray:
    return np.load(workdir / expect["fits"]["data"])


def check_corpus(out: dict, expect: dict, workdir: Path, schema: str) -> list[str]:
    bad = [] if out.get("schema") == schema else [f"schema {out.get('schema')!r}"]
    bad += _exact(out, expect, ["n_c", "n_d"])
    bad += _near(out, expect, ["tau", "z_score", "l_actual", "l_optimal", "efficiency_ratio"])
    if expect["lengths_are_chars"] and not out.get("l_optimal", math.inf) <= out.get("l_actual", 0):
        bad.append("l_optimal > l_actual with character-count magnitudes")
    if "fits" in expect:
        bad += check_fits(out.get("fits", []), expect["fits"], _load_fit_data(expect, workdir))
    return bad


def check_simulate(stdout: str, expect: dict, workdir: Path) -> list[str]:
    out = json.loads(stdout)
    bad = check_corpus(out, expect, workdir, "simulate/1")
    return bad + _exact(out, expect, ["n_types"])


def check_analyze(stdout: str, expect: dict, workdir: Path) -> list[str]:
    return check_corpus(json.loads(stdout), expect, workdir, "analysis/1")


def check_fit(stdout: str, expect: dict, workdir: Path) -> list[str]:
    out = json.loads(stdout)
    bad = [] if out.get("schema") == "fit/1" else [f"schema {out.get('schema')!r}"]
    return bad + check_fits(out.get("results", []), expect["fits"], _load_fit_data(expect, workdir))


def check_digest(stdout: str, expect: dict, workdir: Path) -> list[str]:
    got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return [] if got == expect["sha256"] else [f"stdout sha256 {got[:12]} differs from expected"]


CLI_CHECKS = {
    "simulate": check_simulate,
    "analyze": check_analyze,
    "fit": check_fit,
    "digest": check_digest,
}


def check_files(expect: dict, workdir: Path) -> list[str]:
    bad = []
    for name, digest in expect.get("files", {}).items():
        path = workdir / name
        if not path.exists():
            bad.append(f"{name} was not written")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            bad.append(f"{name} differs from the expected table")
    return bad


def check_sample(ranks, expect: dict) -> list[str]:
    got = np.asarray(ranks, dtype=float)
    want = np.asarray(expect["ranks"], dtype=float)
    if got.shape != want.shape:
        return [f"sample shape {got.shape}, expected {want.shape}"]
    exact = want < oracle.EXACT_RANK_LIMIT
    bad = []
    n_exact = int(np.count_nonzero(got[exact] != want[exact]))
    if n_exact:
        bad.append(f"{n_exact} sampled ranks below {oracle.EXACT_RANK_LIMIT} differ")
    far = ~exact
    slack = np.maximum(1.0, oracle.RANK_RTOL * want[far])
    n_far = int(np.count_nonzero(np.abs(got[far] - want[far]) > slack))
    if n_far:
        bad.append(f"{n_far} far-tail sampled ranks differ by more than one rank "
                   f"or rtol {oracle.RANK_RTOL}")
    return bad


def check_entropy(value, expect: dict) -> list[str]:
    if getattr(value, "unit", None) != "nats":
        return [f"entropy unit {getattr(value, 'unit', None)!r}"]
    if not close(value.value, expect["nats"], FLOAT_RTOL):
        return [f"entropy {value.value!r}, expected {expect['nats']!r}"]
    return []


def check_verify(report, expect: dict) -> list[str]:
    if not report.passed or not all(report.checks.values()):
        return [f"verify_optimality failed: {list(report.failures)} {report.checks}"]
    return []

"""One measured process: import optcoding, run a workload's operations, check them.

Started by run.py with the library on PYTHONPATH:

    python perfbench/worker.py SPEC.json

It imports `optcoding` first, before numpy or any other benchmark module
(only the dependency-free host gauge runs before it), so the import is
timed as a user's fresh process pays it.  It then repeats the
workload's operation sequence, one operation at a time on one thread,
until the next sequence would end after the spec's `seconds`.  Only the
operations are timed, each on its own; output checks run between them.
Before the import and before each untraced operation the host gauge
(gauge.py) is timed, so the run knows how fast the host was.
A traced run alternates traced and untraced sequences, traced first.  The
last line of stdout is one JSON object with the samples.
"""

import sys
import time

from gauge import host_gauge, median_gauge

IMPORT_GAUGE_S = median_gauge()
_t0 = time.perf_counter()
import optcoding  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import optcoding.cli  # noqa: E402  (the CLI entry point imports it; not part of set-up)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import stamp  # noqa: E402
from spans import Tracer  # noqa: E402

MAX_MESSAGES = 20
GAUGE_PER_OP = 3


def run_op(op: dict):
    """Run one operation; return (seconds, outcome) with the output untouched."""
    kind = op["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            code = optcoding.cli.main(list(op["argv"]))
            dt = time.perf_counter() - t
        return dt, (code, out.getvalue(), err.getvalue())
    if kind == "sample":
        t = time.perf_counter()
        ranks = optcoding.maxent.sample(optcoding.maxent.ZetaParams(op["alpha"]), op["seed"], op["n"])
        return time.perf_counter() - t, ranks
    if kind == "entropy":
        maxent = optcoding.maxent
        params = maxent.ZetaParams(op["alpha"])
        t = time.perf_counter()
        value = maxent.entropy(lambda i: maxent.zeta_pmf(params, i), op["truncation"])
        return time.perf_counter() - t, value
    if kind == "verify_optimality":
        params = optcoding.randtype.RandomTypingParams(op["N"], op["ps"])
        t = time.perf_counter()
        report = optcoding.randtype.verify_optimality(params, op["imax"])
        return time.perf_counter() - t, report
    raise ValueError(f"unknown operation kind {kind!r}")


def check_op(op: dict, outcome, workdir: Path) -> list[str]:
    kind, expect = op["kind"], op["expect"]
    if kind == "cli":
        code, stdout, stderr = outcome
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        bad = checks.CLI_CHECKS[op["check"]](stdout, expect, workdir)
        return bad + checks.check_files(expect, workdir)
    if kind == "sample":
        return checks.check_sample(outcome, expect)
    if kind == "entropy":
        return checks.check_entropy(outcome, expect)
    return checks.check_verify(outcome, expect)


def output_bytes(op: dict, outcome, workdir: Path) -> int:
    if op["kind"] != "cli":
        return 0
    files = sum((workdir / name).stat().st_size for name in op["expect"].get("files", {})
                if (workdir / name).exists())
    return len(outcome[1].encode("utf-8")) + files


def run_sequence(ops, workdir: Path, state: dict, tracer=None, timing=None) -> float:
    """Run every operation once; return the summed operation time.

    With `timing`, the host gauge runs before each operation and its times
    are appended to timing["gauge"]; each operation's time is appended
    under its name in timing["ops"].
    """
    wall = 0.0
    for op in ops:
        for name in op["expect"].get("files", {}):
            (workdir / name).unlink(missing_ok=True)
        state["attempted"] += 1
        if timing is not None:
            timing["gauge"] += [host_gauge() for _ in range(GAUGE_PER_OP)]
        try:
            dt, outcome = run_op(op)
        except Exception:
            state["failed"] += 1
            state["messages"].append(f"{op['name']}: raised {traceback.format_exc(limit=3)}")
            continue
        wall += dt
        if timing is not None:
            timing["ops"].setdefault(op["name"], []).append(dt)
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += output_bytes(op, outcome, workdir)
        try:
            bad = check_op(op, outcome, workdir)
        except Exception:
            bad = [f"check raised {traceback.format_exc(limit=3)}"]
        if bad:
            state["failed"] += 1
            state["messages"] += [f"{op['name']}: {m}" for m in bad]
        del outcome
    return wall


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])
    os.chdir(workdir)  # relative input paths, and outputs land in the work directory
    ops, seconds, traced = spec["ops"], spec["seconds"], spec["trace"]
    state = {"attempted": 0, "failed": 0, "messages": []}
    tracer = Tracer() if traced else None
    walls, traced_walls, layer_samples = [], [], []
    timing = {"ops": {}, "gauge": []}
    start = time.perf_counter()
    while True:
        use_trace = traced and len(traced_walls) <= len(walls)
        if use_trace:
            tracer.reset()
            tracer.install(optcoding)
            try:
                traced_walls.append(run_sequence(ops, workdir, state, tracer))
            finally:
                tracer.uninstall()
            layer_samples.append(tracer.metrics())
        else:
            walls.append(run_sequence(ops, workdir, state, timing=timing))
        elapsed = time.perf_counter() - start
        need_more = traced and not (walls and traced_walls)
        per_seq = elapsed / (len(walls) + len(traced_walls))
        if not need_more and elapsed + per_seq > seconds:
            break
    result = {
        "import_s": IMPORT_S,
        "import_gauge_s": IMPORT_GAUGE_S,
        "walls": walls,
        "traced_walls": traced_walls,
        "op_walls": timing["ops"],
        "gauge_walls": timing["gauge"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "messages": state["messages"][:MAX_MESSAGES],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stamp": stamp.process_stamp(),
    }
    if traced:
        keys = set().union(*layer_samples)
        result["layers"] = {k: statistics.median(s.get(k, 0) for s in layer_samples) for k in keys}
        # rss growth is only seen by the first traced sequence, before the peak is reached
        key = "randtype.verify_optimality.rss_growth_mb"
        result["layers"][key] = max(s.get(key, 0) for s in layer_samples)
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

"""Benchmark of optcoding's CLI and library, run from the root of a checkout.

    python3 perfbench/run.py --workload typing-corpus --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from --seed into .perfbench/ (removed
afterwards), times `import optcoding` in several fresh processes, then
starts one fresh worker process that repeats the workload's operations
for --seconds and checks every output.  Operations run one at a time in a
closed loop with a single caller.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are end to end: set-up time
and the wall time of one operation sequence, both rescaled to a nominal
host speed, the worker's peak RSS and the share of operations that passed
their checks.  With --trace 1 they are per layer, from wrappers the worker
installs around the library's public functions and from
`python -X importtime`.  The line before it is the run record: commit,
versions, machine, seed and every sample.

The rescaling: on a shared host the processor's speed drifts by up to a
factor of two over minutes, longer than a run, so raw times of the same
code spread past any useful bound across runs.  Every measured process
therefore times a fixed integer loop, the host gauge (gauge.py), right
before each import and each operation.  `setup_s` is the median over
processes of the import time rescaled by that process's gauge; `wall_s`
is the sequence time (each operation at its median over the run, summed)
rescaled by the worker's median gauge.  Both are the times on a host
where the gauge takes gauge.NOMINAL_S.  The gauge is the benchmark's own
code, so a faster program still reads faster.  The raw times and the
gauge times are in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402

SETUP_SAMPLES = 6  # fresh processes that only import optcoding, besides the worker
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170  # whole run, inputs and checks included
IMPORT_SNIPPET = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); from gauge import median_gauge; "
    "g = median_gauge(); t = time.perf_counter(); import optcoding; "
    "print(time.perf_counter() - t, g)"
)


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def library_env(root: Path) -> dict:
    """The measured processes' environment: the checkout's library, one BLAS thread.

    A second BLAS thread only spins on a two-vCPU host, and it competes with
    the caller for a processor that other tenants share as well.
    """
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_samples(root: Path, env: dict, traced: bool) -> list:
    """`import optcoding` in fresh processes: (seconds, gauge seconds), or importtime breakdowns."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        if traced:
            out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import optcoding"],
                                 cwd=root, env=env, capture_output=True, text=True, timeout=60,
                                 check=True)
            samples.append(importtime_cumulative(out.stderr))
        else:
            out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=root, env=env,
                                 capture_output=True, text=True, timeout=60, check=True)
            seconds, gauge_s = out.stdout.strip().splitlines()[-1].split()
            samples.append((float(seconds), float(gauge_s)))
    return samples


def importtime_cumulative(stderr: str) -> dict:
    """Cumulative seconds per top-level import of a package, from `-X importtime`.

    A package that is reached through a lazy loader (scipy.optimize) has no
    line of its own; its submodules at the shallowest nesting are summed.
    """
    lines = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                indent = len(name) - len(name.lstrip())
                lines.append((indent, name.strip(), int(cumulative) / 1e6))
    out = {}
    for package in ("optcoding", "scipy.optimize"):
        mine = [(i, c) for i, n, c in lines if n == package or n.startswith(package + ".")]
        if mine:
            top = min(i for i, _ in mine)
            out[package] = sum(c for i, c in mine if i == top)
    return out


def run_worker(spec_path: Path, root: Path, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sequence_wall(op_walls: dict) -> float:
    """Seconds of one operation sequence, each operation at its median."""
    return sum(statistics.median(times) for times in op_walls.values())


def end_to_end(worker: dict, setup: list) -> dict:
    ok = (worker["attempted"] - worker["failed"]) / worker["attempted"]
    wall = sequence_wall(worker["op_walls"])
    return {
        "setup_s": (statistics.median(gauge.rescaled(s, g) for s, g in setup), "s"),
        "wall_s": (gauge.rescaled(wall, statistics.median(worker["gauge_walls"])), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "ok_frac": (ok, "frac"),
    }


def per_layer(worker: dict, setup: list) -> dict:
    from spans import PER_LAYER

    layers = dict(worker["layers"])
    layers["setup.import.optcoding_s"] = statistics.median(s.get("optcoding", 0.0) for s in setup)
    layers["setup.import.scipy_optimize_s"] = statistics.median(
        s.get("scipy.optimize", 0.0) for s in setup)
    out = {}
    for name, unit in PER_LAYER.items():
        value = layers.get(name, 0)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "optcoding" / "__init__.py").is_file():
        print("perfbench: run from the root of an optcoding checkout (no src/optcoding here)",
              file=sys.stderr)
        return 2

    import stamp
    import workloads

    started = time.perf_counter()
    traced = bool(args.trace)
    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        spec = workloads.prepare(args.workload, args.seed, workdir)
        prepare_s = time.perf_counter() - started
        spec.update(workdir=str(workdir), seconds=args.seconds, trace=traced)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = library_env(root)
        setup = import_samples(root, env, traced)
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        worker = run_worker(spec_path, root, env, timeout=max(remaining, 1.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not traced:
        setup.append((worker["import_s"], worker["import_gauge_s"]))
    metrics = per_layer(worker, setup) if traced else end_to_end(worker, setup)

    record = {
        **stamp.run_stamp(root, args.workload, args.seed, traced),
        **worker.pop("stamp"),
        "seconds": args.seconds,
        "prepare_s": prepare_s,
        "setup_samples": setup,
        "samples": {"setup_s": len(setup), "wall_s": len(worker["walls"]),
                    "gauge_s": len(worker["gauge_walls"]),
                    "traced_wall_s": len(worker["traced_walls"])},
        "failed_frac": worker["failed"] / worker["attempted"],
        "raw_setup_s": None if traced else statistics.median(s for s, _ in setup),
        "raw_wall_s": sequence_wall(worker["op_walls"]),
        "gauge_s": statistics.median(worker["gauge_walls"]),
        **{k: v for k, v in worker.items() if k != "layers"},
    }
    for message in worker["messages"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

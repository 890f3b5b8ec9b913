"""stforge benchmark: run one workload, or all, and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload prep|score|augment|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]

Inputs are generated from ``--seed`` (see ``corpus.py``) and cached under
``.perfbench/cache`` before any timing starts. Each iteration runs in a
fresh worker process (``worker.py``) that drives the real stforge CLI
stages in process, one after another (a closed loop of one client) at
``--jobs 1``. Iterations repeat until ``--seconds`` is spent; every metric
is the median over them.

End-to-end metrics (``--trace 0``):
  norm_wall_s  stage sequence wall time, first stage start to last
               artifact, scaled to the nominal machine speed by a probe of
               the workload's kind of work, sampled every 0.05 s while it
               runs (``speed.py``); the raw wall time is printed as
               ``wall_s`` next to it
  peak_rss_mb  the worker's own peak RSS (ru_maxrss)
  setup_s      launch until stforge.cli is imported, config loaded and
               parser built; measured in extra set-up-only processes too
  pass_rate    share of stage invocations that exited 0 and whose outputs
               passed every check: 1 - error_rate

With ``--trace 1`` one more iteration runs with spans around stforge's
public functions (``spans.py``) and the per-layer metrics are printed
instead; ``trace.overhead_s`` is its ``norm_wall_s`` minus the untraced
median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits with
code 2, printing no result, when the checkout holds no stforge sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("prep", "score", "augment")
DEFAULT_SEED = 1
SETUP_PROBES = 3
CACHE_KEEP = 6
# a run must end within 180 s: no iteration starts that would end past
# RUN_LIMIT_S, and a worker still running at HARD_LIMIT_S is killed
RUN_LIMIT_S = 150.0
HARD_LIMIT_S = 175.0
GOLDENS = os.path.join(HERE, "goldens.json")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def _git_revision(checkout: str) -> str:
    head = os.path.join(checkout, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(checkout, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def ensure_corpus(checkout: str, workload: str, seed: int, scale: str) -> tuple[str, dict]:
    """Generated inputs for (workload, seed, scale), made once and cached."""
    cache = os.path.join(checkout, ".perfbench", "cache")
    # the generator's own source is part of the key, so editing it regenerates
    with open(corpus.__file__, "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:10]
    path = os.path.join(cache, f"{workload}-{scale}-{seed}-{version}")
    meta_path = os.path.join(path, "sizes.json")
    if not os.path.isfile(meta_path):
        tmp = os.path.join(cache, f"tmp-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        sizes = corpus.GENERATORS[workload](tmp, seed, scale)
        with open(os.path.join(tmp, "sizes.json"), "w", encoding="utf-8") as fh:
            json.dump(sizes, fh, sort_keys=True)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    os.utime(path)
    entries = sorted((os.path.join(cache, n) for n in os.listdir(cache)), key=os.path.getmtime)
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    with open(meta_path, encoding="utf-8") as fh:
        return path, json.load(fh)


def _worker_env(checkout: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("STFORGE_")}
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    return env


def run_worker(checkout: str, argv: list, timeout: float) -> tuple[float, dict | None]:
    """(set-up seconds, parsed result or None) of one worker process.

    The worker is always reaped before this returns, killed first if it
    outlives ``timeout`` or this process is interrupted.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=checkout, env=_worker_env(checkout), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return 0.0, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready":
        return 0.0, None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup, None
    return setup, json.loads(lines[-1])


def _check_sources(checkout: str) -> None:
    for rel in (("src", "stforge", "cli.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(checkout, *rel)):
            raise BenchError(f"{os.path.join(*rel)} not found under {checkout}: run from a stforge checkout")


def _load_goldens() -> dict:
    try:
        with open(GOLDENS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_workload(checkout: str, workload: str, seed: int, seconds: float, trace: bool, scale: str,
                 record_goldens: bool, started: float) -> dict:
    inputs, sizes = ensure_corpus(checkout, workload, seed, scale)
    work_root = os.path.join(checkout, ".perfbench", "work")
    goldens = _load_goldens()
    use_goldens = seed == DEFAULT_SEED and scale == goldens.get("scale") and not record_goldens
    golden = goldens.get("workloads", {}).get(workload, {}) if use_goldens else {}

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    def iteration(n: int, trace_path: str | None) -> dict:
        work = os.path.join(work_root, f"{workload}-{os.getpid()}-{n}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        argv = ["--workload", workload, "--inputs", inputs, "--work", work, "--seed", str(seed)]
        if trace_path:
            argv += ["--trace", trace_path]
        try:
            setup, result = run_worker(checkout, argv, remaining())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        names = [s.name for s in workloads.stages(workload, inputs, work)]
        if result is None:
            return {"setup_s": setup, "stages": [{"name": n, "errors": ["worker failed"]} for n in names]}
        for stage in result["stages"]:
            for rel, digest in golden.get(stage["name"], {}).items():
                if result["digests"][stage["name"]].get(rel) != digest:
                    stage["errors"].append(f"{rel}: digest differs from the recorded golden")
        result["setup_s"] = setup
        return result

    # warm the bytecode and file caches, then time set-up alone
    run_worker(checkout, ["--setup-only"], remaining())
    setups = [run_worker(checkout, ["--setup-only"], remaining())[0] for _ in range(SETUP_PROBES)]

    runs = []
    measure_start = time.perf_counter()
    while True:
        runs.append(iteration(len(runs), None))
        elapsed = time.perf_counter() - measure_start
        per_run = elapsed / len(runs)
        # a traced iteration follows, and costs about two untraced ones
        reserve = per_run * (3 if trace else 1)
        if elapsed + per_run > seconds or time.perf_counter() - started + reserve > RUN_LIMIT_S:
            break

    timed = [r for r in runs if "wall_s" in r]
    traced = None
    if trace:
        trace_dir = os.path.join(checkout, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        traced = iteration(len(runs), os.path.join(trace_dir, f"{workload}.spans.jsonl"))
        runs.append(traced)

    all_stages = [s for r in runs for s in r["stages"]]
    failures = [f"{s['name']}: {e}" for s in all_stages for e in s["errors"]]
    attempted = len(all_stages)
    failed = sum(1 for s in all_stages if s["errors"])
    setups += [r["setup_s"] for r in runs if r["setup_s"] > 0]
    summary = {
        "workload": workload,
        "sizes": sizes,
        "iterations": len(timed),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": {
            "norm_wall_s": [r["norm_wall_s"] for r in timed],
            "wall_s": [r["wall_s"] for r in timed],
            "probe_s": [r["probe_s"] for r in timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            "setup_s": setups,
        },
    }
    if timed:
        wall = statistics.median(r["norm_wall_s"] for r in timed)
        summary["raw_wall_s"] = statistics.median(r["wall_s"] for r in timed)
        summary["end_to_end"] = {
            "norm_wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "pass_rate": (1.0 - failed / attempted, "ratio"),
        }
        if traced is not None and "layers" in traced:
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["norm_wall_s"] - wall
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            summary["per_layer"] = {name: (layers[name], units[name]) for name in units}
    if record_goldens and failed == 0 and "digests" in runs[0]:
        goldens = {"seed": seed, "scale": scale, "workloads": {**_load_goldens().get("workloads", {})}}
        goldens["workloads"][workload] = runs[0]["digests"]
        with open(GOLDENS, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return summary


def _print_summary(summary: dict, meta: dict) -> None:
    print(f"== workload {summary['workload']}: {json.dumps(summary['sizes'], sort_keys=True)}")
    print("   " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"   iterations={summary['iterations']}  invocations={summary['attempted']}  failed={summary['failed']}"
          f"  error_rate={summary['failed'] / max(summary['attempted'], 1):.4f}")
    for failure in summary["failures"][:20]:
        print(f"   FAIL {failure}")
    for name, values in summary["samples"].items():
        print(f"   {name:<12} samples " + " ".join(f"{v:.4f}" for v in values))
    if "raw_wall_s" in summary:
        print(f"   {'wall_s (raw, not scaled)':<28} {summary['raw_wall_s']:>16.6f} s")
    for name, (value, unit) in summary.get("end_to_end", {}).items():
        print(f"   {name:<28} {value:>16.6f} {unit}")
    for name, (value, unit) in summary.get("per_layer", {}).items():
        moves, where, bypass = spans.MOVES[name.split(".")[0]]
        print(f"   {name:<28} {value:>16.6f} {unit:<6} moves {moves} on {where}; bypassed by {bypass}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(corpus.SCALES), default="full")
    parser.add_argument("--record-goldens", action="store_true",
                        help="store this run's artifact digests as the goldens (default seed only)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # turn SIGTERM into SystemExit, so the worker is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checkout = os.getcwd()
    try:
        _check_sources(checkout)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record_goldens and args.seed != DEFAULT_SEED:
        parser.error(f"goldens are recorded at the default seed {DEFAULT_SEED}")

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    meta = {
        "revision": _git_revision(checkout), **_versions(), "nproc": os.cpu_count(),
        "jobs": workloads.JOBS, "seed": args.seed, "scale": args.scale,
    }
    summaries = []
    for workload in chosen:
        # each workload gets the time limits of a run of its own
        summary = run_workload(checkout, workload, args.seed, args.seconds, bool(args.trace), args.scale,
                               args.record_goldens, started if len(chosen) == 1 else time.perf_counter())
        _print_summary(summary, meta)
        summaries.append(summary)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        for name, (value, unit) in summary.get(section, {}).items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    complete = all(section in s for s in summaries)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark iteration in a fresh process.

Usage: worker.py --workload W --inputs DIR --work DIR --seed N [--trace FILE]
       worker.py --setup-only

The parent starts this script with ``src`` of the checkout on PYTHONPATH
and times it from launch until the ``ready`` line: that interval is the
program's set-up (interpreter start, ``stforge.cli`` import, config load,
parser build). The worker then runs the workload's stforge stages in
process, timing them from the first stage's start until its last artifact
is written, checks every output, and prints one JSON line with the
results. A speed probe (``speed.py``) samples the machine's speed all the
while, so the wall time can also be given at the probe's nominal speed.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tracemalloc


def _setup():
    """The program's own start-up: what every stforge invocation pays first."""
    import stforge.cli as cli
    from stforge import config as config_mod

    cli.build_parser()
    config_mod.load_config(None, dict(os.environ))
    return cli


def _run_stage(cli, argv: list) -> tuple:
    """(exit code, captured stdout) of one in-process stforge invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _alloc_peak(cli, argv: list) -> tuple:
    """(exit code, tracemalloc peak in MB) of one invocation."""
    tracemalloc.start()
    try:
        rc, _ = _run_stage(cli, argv)
        return rc, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    cli = _setup()
    print("ready", flush=True)
    if sys.argv[1:] == ["--setup-only"]:
        return 0

    # the benchmark's own modules load after the timed set-up
    import spans
    import speed
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    checkout = os.getcwd()
    src = os.path.join(checkout, "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"stforge imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()

    stage_list = workloads.stages(args.workload, args.inputs, args.work)
    codes = []
    with speed.SpeedSampler(workloads.PROBE[args.workload]) as sampler:
        for stage in stage_list:
            rc, captured = _run_stage(cli, workloads.program_argv(stage))
            codes.append(rc)
            path = workloads.stdout_path(args.work, stage)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(captured)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stages = []
    for stage, rc in zip(stage_list, codes):
        errors = [] if rc == 0 else [f"exit code {rc}"]
        errors += workloads.check(stage, args.inputs, args.work, args.seed, checkout)
        stages.append({"name": stage.name, "errors": errors})
    result = {
        "wall_s": sampler.wall_s,
        "norm_wall_s": sampler.scaled_s,
        "probe_s": statistics.median(sampler.samples),
        "peak_rss_mb": peak_rss_mb,
        "stages": stages,
        "digests": workloads.digests(args.work, stage_list),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        tracer.dump(args.trace)
        # tracemalloc slows pure-Python stages many-fold, so allocation
        # peaks come from re-running the stages that report one, untimed
        for stage in workloads.stages(args.workload, args.inputs, os.path.join(args.work, "alloc-pass")):
            if stage.name in spans.ALLOC_STAGES:
                rc, peak = _alloc_peak(cli, workloads.program_argv(stage))
                if rc != 0:
                    next(s for s in stages if s["name"] == stage.name)["errors"].append(f"allocation pass exit {rc}")
                layers[spans.ALLOC_STAGES[stage.name]] = peak
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

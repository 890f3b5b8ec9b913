"""The benchmark's own tests: tiny-scale smoke runs and non-vacuous checks.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"norm_wall_s", "peak_rss_mb", "setup_s", "pass_rate"}


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "score", "--seed", "3", "--seconds", "1", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}
    assert metrics["evalign.reseg_calls"]["value"] == 4  # score once, sweep-score per segmentation
    assert metrics["cli.score_s"]["value"] > 0 and metrics["augment.clips"]["value"] == 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]


def test_without_sources_it_fails_without_a_result(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py") or name.endswith(".json"):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench" / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Tiny inputs and the real outputs of every workload, checked once."""
    root = tmp_path_factory.mktemp("bench")
    made = {}
    for workload in run.WORKLOADS:
        inp, out = root / f"{workload}-in", root / f"{workload}-out"
        os.makedirs(inp)
        os.makedirs(out)
        corpus.GENERATORS[workload](str(inp), 5, "tiny")
        env = dict(os.environ, PYTHONPATH=os.path.join(CHECKOUT, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--inputs", str(inp), "--work", str(out), "--seed", "5"],
            cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert all(not s["errors"] for s in result["stages"]), result["stages"]
        made[workload] = (str(inp), str(out))
    return made


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(edit(lines)))


def _corrupt_unaugmented_clip(out):
    aug = os.path.join(out, "aug")
    with open(os.path.join(aug, "augment_log.tsv"), encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh]
    name = next(r[0] for r in rows if r[1] == "0")
    with open(os.path.join(aug, name + ".wav"), "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(bytes([byte[0] ^ 1]))


CORRUPTIONS = {
    "sweep": lambda out: _rewrite(os.path.join(out, "segdir", "max_seg_len_9.yaml"), lambda ls: ls[:-1]),
    "segment": lambda out: _rewrite(os.path.join(out, "segments.yaml"), lambda ls: [ls[1], ls[0], *ls[2:]]),
    "filter": lambda out: _rewrite(os.path.join(out, "dropped.tsv"), lambda ls: ls[1:]),
    "sample": lambda out: _rewrite(os.path.join(out, "epoch.tsv"), lambda ls: ls[:-1]),
    "batch": lambda out: _rewrite(os.path.join(out, "batches.jsonl"), lambda ls: ls[:-1]),
    "score": lambda out: _rewrite(os.path.join(out, "stdout", "score.txt"),
                                  lambda ls: [ls[0].replace("hyp_len = ", "hyp_len = 1")]),
    "sweep_score": lambda out: _rewrite(os.path.join(out, "curve.tsv"), lambda ls: ls[1:]),
    "augment": _corrupt_unaugmented_clip,
}


@pytest.mark.parametrize("stage_name", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails_its_check(outputs, stage_name, tmp_path):
    workload = next(w for w in run.WORKLOADS if stage_name in {s.name for s in workloads.stages(w, "", "")})
    inp, out = outputs[workload]
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    stage = next(s for s in workloads.stages(workload, inp, copy) if s.name == stage_name)
    assert workloads.check(stage, inp, copy, 5, CHECKOUT) == []
    CORRUPTIONS[stage_name](copy)
    assert workloads.check(stage, inp, copy, 5, CHECKOUT) != []


def test_golden_mismatch_counts_in_the_error_rate(tmp_path, monkeypatch):
    goldens = tmp_path / "goldens.json"
    goldens.write_text(json.dumps({
        "seed": run.DEFAULT_SEED, "scale": "tiny",
        "workloads": {"score": {"sweep_score": {"curve.tsv": "0" * 64}}},
    }))
    monkeypatch.setattr(run, "GOLDENS", str(goldens))
    monkeypatch.chdir(CHECKOUT)
    summary = run.run_workload(CHECKOUT, "score", run.DEFAULT_SEED, 0.1, False, "tiny", False,
                               run.time.perf_counter())
    assert summary["failed"] == summary["iterations"] >= 1
    assert summary["end_to_end"]["pass_rate"][0] == 1 - summary["failed"] / summary["attempted"] < 1

"""Stage sequences of the three workloads and the checks on their outputs.

A workload is a list of :class:`Stage` values, each one ``stforge``
invocation with the artifacts it owns. ``check(stage, ...)`` returns the
failures found in one stage's outputs; a stage with any failure counts as
failed in the benchmark's error accounting. The checks use only the standard
library and ``tests/oracles.py``, never the code under test.
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import json
import math
import os
import re
import wave
from dataclasses import dataclass

# one worker thread: stforge's --jobs threads share one GIL, and on a
# 2-vCPU host a second busy thread makes every timing depend on the
# scheduler and the neighbours rather than on the program
JOBS = 1
# the speed probe (speed.py) that matches the work each workload spends its time in
PROBE = {"prep": "interpreter", "score": "interpreter", "augment": "array"}
PROGRAM_SEED = 1
FRAME_S = 0.02
SWEEP = (5, 25, 1)
SEGMENT_CAP = 22.0
MIN_GAP = 0.2
MAX_SAMPLES = 400_000
MAX_BATCH_SAMPLES = 440_000
MAX_TGT_TOKENS = 1024
RATIOS = {"MuST-C-train": 1.0, "EuroparlST-train": 1.0, "EuroparlST-dev": 1.0,
          "CoVoST-train": 0.3, "CoVoST-dev": 0.3}
DROP_REASONS = {"too_long", "empty_after_filtering", "asr_wer"}
# |len(out) - len(in)/tempo| bound: the acceptance gate allows two WSOLA
# windows per time-stretch, and an augmented clip is stretched twice
# (tempo, then the duration restore inside pitch).
WSOLA_WINDOW = 480
TEMPO_TOLERANCE = 4 * WSOLA_WINDOW

_YAML_LINE = re.compile(
    r"^- \{duration: ([0-9.]+), offset: ([0-9.]+), speaker_id: (\S+), wav: (\S+)\}$"
)
_BLEU_LINE = re.compile(r"^BLEU = ([0-9.]+) .*hyp_len = (\d+), ref_len = (\d+)\)")


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple
    outputs: tuple  # paths relative to the work dir; a directory owns its files


def stages(workload: str, inp: str, out: str) -> list[Stage]:
    """The stforge invocations of one workload, in order."""
    i = lambda name: os.path.join(inp, name)  # noqa: E731
    o = lambda name: os.path.join(out, name)  # noqa: E731
    lo, hi, step = SWEEP
    if workload == "prep":
        return [
            Stage("sweep", ("sweep", "--transcripts", i("frames.jsonl"), "--lo", str(lo), "--hi", str(hi),
                            "--step", str(step), "--out", o("counts.tsv"), "--seg-dir", o("segdir")),
                  ("counts.tsv", "segdir")),
            Stage("segment", ("segment", "--transcripts", i("frames.jsonl"), "--max-seg-len", f"{SEGMENT_CAP:g}",
                              "--out", o("segments.yaml")), ("segments.yaml",)),
            Stage("filter", ("filter", "--manifest", i("all.tsv"), "--asr-hyps", i("hyps.tsv"),
                             "--out", o("kept.tsv"), "--report", o("dropped.tsv")), ("kept.tsv", "dropped.tsv")),
            Stage("sample", ("sample", "--manifest", o("kept.tsv"), "--epoch", "1", "--out", o("epoch.tsv")),
                  ("epoch.tsv",)),
            Stage("batch", ("batch", "--in", o("epoch.tsv"), "--out", o("batches.jsonl")), ("batches.jsonl",)),
        ]
    if workload == "score":
        return [
            Stage("score", ("score", "--hyp", i("system.txt"), "--ref", i("ref.txt"), "--resegment"), ()),
            Stage("sweep_score", ("sweep-score", "--segdir", i("segdir"), "--trans", i("trans"),
                                  "--ref", i("ref.txt"), "--out", o("curve.tsv")), ("curve.tsv",)),
        ]
    if workload == "augment":
        return [
            Stage("augment", ("augment", "--in", i("clips.tsv"), "--audio-root", i("wavs"), "--out", o("aug")),
                  ("aug",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def program_argv(stage: Stage) -> list[str]:
    """Global flags shared by every invocation, then the stage's own."""
    return ["--jobs", str(JOBS), "--seed", str(PROGRAM_SEED), *stage.argv]


def stdout_path(out: str, stage: Stage) -> str:
    return os.path.join(out, "stdout", stage.name + ".txt")


# -- digests ------------------------------------------------------------------

def _files_under(out: str, rel: str) -> list[str]:
    path = os.path.join(out, rel)
    if not os.path.isdir(path):
        return [rel]
    found = []
    for dirpath, _, names in os.walk(path):
        for name in names:
            found.append(os.path.relpath(os.path.join(dirpath, name), out))
    return sorted(found)


def digests(out: str, stage_list: list[Stage]) -> dict:
    """{stage: {relative artifact path: sha256}}, stdout included."""
    result = {}
    for stage in stage_list:
        rels = [os.path.relpath(stdout_path(out, stage), out)]
        for rel in stage.outputs:
            rels.extend(_files_under(out, rel))
        table = {}
        for rel in sorted(rels):
            path = os.path.join(out, rel)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    table[rel] = hashlib.sha256(fh.read()).hexdigest()
            else:
                table[rel] = None
        result[stage.name] = table
    return result


# -- checks -------------------------------------------------------------------

def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _yaml_segments(path: str) -> list[tuple]:
    """(wav, offset text, duration text) per line of a stforge segment YAML."""
    segments = []
    for lineno, line in enumerate(_lines(path), start=1):
        m = _YAML_LINE.match(line)
        if not m:
            raise ValueError(f"{os.path.basename(path)}:{lineno}: unexpected line {line[:80]!r}")
        segments.append((m.group(4), m.group(2), m.group(1)))
    return segments


def _tiling_errors(name: str, segments: list, frames: dict) -> list[str]:
    """Each recording is covered in order, without gaps or overlaps."""
    errors = []
    by_wav = collections.defaultdict(list)
    for wav, offset, duration in segments:
        by_wav[wav].append((float(offset), float(duration)))
    if set(by_wav) != set(frames):
        errors.append(f"{name}: recordings {sorted(by_wav)} != {sorted(frames)}")
    for wav, segs in by_wav.items():
        cursor = 0.0
        for offset, duration in segs:
            if abs(offset - cursor) > 2e-6 or duration <= 0:
                errors.append(f"{name}: {wav} segment at {offset} does not continue {cursor}")
                break
            cursor = offset + duration
        else:
            if wav in frames and abs(cursor - frames[wav] * FRAME_S) > 2e-6:
                errors.append(f"{name}: {wav} covered to {cursor}, not {frames[wav] * FRAME_S}")
    return errors


def _load_oracles(checkout: str):
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", os.path.join(checkout, "tests", "oracles.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _manifest(path: str) -> list[list[str]]:
    return [line.split("\t") for line in _lines(path)[1:] if line]


def _talks(inp: str) -> list[dict]:
    return [json.loads(line) for line in _lines(os.path.join(inp, "frames.jsonl")) if line]


def _check_sweep(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    frames = {t["audio"]: len(t["tokens"]) for t in _talks(inp)}
    lo, hi, step = SWEEP
    values = [float(v) for v in range(lo, hi + 1, step)]
    counts = {float(v): int(c) for v, c in (line.split("\t") for line in _lines(os.path.join(out, "counts.tsv")))}
    if sorted(counts) != values:
        errors.append(f"counts.tsv has values {sorted(counts)}")
    for a, b in zip(values, values[1:]):
        if counts.get(b, 0) > counts.get(a, 0):
            errors.append(f"segment count rises from cap {a:g} to cap {b:g}")
    for v in values:
        name = f"max_seg_len_{v:g}.yaml"
        segments = _yaml_segments(os.path.join(out, "segdir", name))
        errors.extend(_tiling_errors(name, segments, frames))
        if len(segments) != counts.get(v):
            errors.append(f"{name}: {len(segments)} segments, counts.tsv says {counts.get(v)}")
    return errors


def _check_segment(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    talks = _talks(inp)
    segments = _yaml_segments(os.path.join(out, "segments.yaml"))
    errors = _tiling_errors("segments.yaml", segments, {t["audio"]: len(t["tokens"]) for t in talks})
    talk = talks[seed % len(talks)]
    spans = _load_oracles(checkout).segment_spans(talk["tokens"], talk["frame_ms"], SEGMENT_CAP, MIN_GAP)
    want = [(f"{a * FRAME_S:.6f}", f"{(b - a) * FRAME_S:.6f}") for a, b in spans]
    got = [(offset, duration) for wav, offset, duration in segments if wav == talk["audio"]]
    if got != want:
        errors.append(f"{talk['audio']}: {len(got)} segments differ from the oracle's {len(want)}")
    return errors


def _check_filter(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    rows = _manifest(os.path.join(inp, "all.tsv"))
    kept_ids = [r[0] for r in _manifest(os.path.join(out, "kept.tsv"))]
    dropped = [line.split("\t") for line in _lines(os.path.join(out, "dropped.tsv")) if line]
    if sorted(kept_ids + [d[0] for d in dropped]) != sorted(r[0] for r in rows):
        errors.append("kept and dropped ids do not partition the input ids")
    reasons = {d[1] for d in dropped}
    if not reasons <= DROP_REASONS:
        errors.append(f"unknown drop reasons {sorted(reasons - DROP_REASONS)}")
    samples = {r[0]: int(r[2]) for r in rows}
    if any(samples.get(i, 0) > MAX_SAMPLES for i in kept_ids):
        errors.append("an entry over the sample cap was kept")
    return errors


def _check_sample(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    kept = _manifest(os.path.join(out, "kept.tsv"))
    epoch_ids = [r[0] for r in _manifest(os.path.join(out, "epoch.tsv"))]
    if len(set(epoch_ids)) != len(epoch_ids) or not set(epoch_ids) <= {r[0] for r in kept}:
        errors.append("epoch ids are not distinct kept ids")
    split_of = {r[0]: r[4] for r in kept}
    drawn = collections.Counter(split_of.get(i) for i in epoch_ids)
    for split, n in collections.Counter(split_of.values()).items():
        want = math.floor(round(RATIOS[split] * n, 9))
        if drawn[split] != want:
            errors.append(f"{split}: {drawn[split]} drawn, floor(r*N) = {want}")
    return errors


def _check_batch(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    epoch = _manifest(os.path.join(out, "epoch.tsv"))
    usable = {r[0]: int(r[2]) for r in epoch if int(r[2]) <= MAX_SAMPLES and int(r[3]) <= MAX_TGT_TOKENS}
    packed = []
    for index, line in enumerate(_lines(os.path.join(out, "batches.jsonl"))):
        batch = json.loads(line)
        total = sum(usable.get(i, 0) for i in batch["ids"])
        if batch["index"] != index or batch["n_entries"] != len(batch["ids"]) or batch["total_samples"] != total:
            errors.append(f"batch {index}: inconsistent fields")
        if total > MAX_BATCH_SAMPLES:
            errors.append(f"batch {index}: {total} samples over the cap")
        packed.extend(batch["ids"])
    if sorted(packed) != sorted(usable):
        errors.append("batches do not partition the epoch")
    return errors


def _whitespace_tokens(path: str) -> int:
    return sum(len(line.split()) for line in _lines(path))


def _check_score(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    score_out = _lines(os.path.join(out, "stdout", "score.txt"))
    m = _BLEU_LINE.match(score_out[0]) if score_out else None
    if not m:
        return [f"no BLEU line in {score_out[:1]}"]
    bleu, hyp_len, ref_len = float(m.group(1)), int(m.group(2)), int(m.group(3))
    if not 0 < bleu <= 100:
        errors.append(f"BLEU {bleu} out of range")
    # resegmentation regroups the hypothesis without losing a token
    if hyp_len != _whitespace_tokens(os.path.join(inp, "system.txt")):
        errors.append(f"hyp_len {hyp_len} != system tokens")
    if ref_len != _whitespace_tokens(os.path.join(inp, "ref.txt")):
        errors.append(f"ref_len {ref_len} != reference tokens")
    return errors


def _check_sweep_score(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    caps = sorted(float(n[len("max_seg_len_"):-len(".yaml")]) for n in os.listdir(os.path.join(inp, "segdir")))
    curve = [line.split("\t") for line in _lines(os.path.join(out, "curve.tsv"))]
    if [float(v) for v, _ in curve] != caps:
        errors.append(f"curve values {[v for v, _ in curve]} != {caps}")
    if any(not 0 < float(b) <= 100 for _, b in curve):
        errors.append("BLEU out of range in curve.tsv")
    return errors


def _wav_frames(path: str) -> tuple:
    with wave.open(path, "rb") as wf:
        return wf.getnframes(), wf.getframerate(), wf.getnchannels()


def _check_augment(inp: str, out: str, seed: int, checkout: str) -> list[str]:
    errors = []
    ids = [r[0] for r in _manifest(os.path.join(inp, "clips.tsv"))]
    aug = os.path.join(out, "aug")
    wavs = sorted(n for n in os.listdir(aug) if n.endswith(".wav"))
    if wavs != sorted(i + ".wav" for i in ids):
        errors.append(f"{len(wavs)} output WAVs for {len(ids)} ids")
    log = [line.split("\t") for line in _lines(os.path.join(aug, "augment_log.tsv"))]
    if [row[0] for row in log] != ids:
        errors.append("augment_log.tsv rows do not match the manifest ids")
    for row in log:
        src, dst = os.path.join(inp, "wavs", row[0] + ".wav"), os.path.join(aug, row[0] + ".wav")
        if not os.path.isfile(dst):
            continue
        if row[1] == "0":
            with open(src, "rb") as a, open(dst, "rb") as b:
                if a.read() != b.read():
                    errors.append(f"{row[0]}: unaugmented clip differs from its input")
        else:
            n_in, _, _ = _wav_frames(src)
            n_out, rate, channels = _wav_frames(dst)
            expected = n_in / float(row[2])
            if rate != 16000 or channels != 1 or abs(n_out - expected) > TEMPO_TOLERANCE:
                errors.append(f"{row[0]}: {n_out} samples at {rate} Hz, tempo law wants {expected:.0f}")
    return errors


_CHECKS = {
    "sweep": _check_sweep, "segment": _check_segment, "filter": _check_filter, "sample": _check_sample,
    "batch": _check_batch, "score": _check_score, "sweep_score": _check_sweep_score, "augment": _check_augment,
}


def check(stage: Stage, inp: str, out: str, seed: int, checkout: str) -> list[str]:
    """Failures found in one stage's outputs; empty when they are right.

    A check that cannot read an artifact fails the stage, so a missing or
    truncated output is never a pass.
    """
    try:
        return _CHECKS[stage.name](inp, out, seed, checkout)
    except (OSError, ValueError, KeyError, IndexError, wave.Error) as exc:
        return [f"cannot check the outputs: {exc!r}"]

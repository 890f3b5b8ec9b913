"""Spans and counters around stforge's public functions, for the traced run.

:class:`Tracer` replaces each listed function by a wrapper in every
stforge module that holds a reference to it (the defining module's
attribute, so intra-module calls are caught, and the names ``cli``
imported). Each call records a span: name, start, end, parent, thread and
run id. Self time is a span's duration minus its same-thread children.
Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_metrics` turns the spans and counters into the per-layer
metrics of ``BENCHMARK.json``. Counts marked computed there come from the
sizes of arguments and results at the wrapped boundary, never from inside
the program.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

# Public functions wrapped per module. Per-token helpers such as
# segmenter.is_transcribable are left out: they run once per frame, and a
# span each would cost more than the work it measures.
TRACED = {
    "cli": ("cmd_sweep", "cmd_segment", "cmd_filter", "cmd_sample", "cmd_batch",
            "cmd_score", "cmd_sweep_score", "cmd_augment"),
    "config": ("load_config",),
    "segmenter": ("parse_frame_transcript", "sweep_max_seg_len", "split_recursive",
                  "write_segments_yaml", "parse_segments_yaml"),
    "textfilter": ("clean_target", "strip_speaker_prefix", "remove_events", "normalize_thousands",
                   "normalize_for_asr", "number_to_words", "filter_pair", "word_error_rate"),
    "sampler": ("read_manifest", "write_manifest", "epoch_sample", "filter_lengths",
                "build_batches", "batch_stats"),
    "evalign": ("tokenize_13a", "resegment_mwer", "alignment_cost", "score_segmentation", "corpus_bleu"),
    "audio": ("load_wav", "write_wav"),
    "augment": ("sample_params", "apply_augmentation", "tempo", "pitch", "echo"),
}

# metric -> span names whose self times it sums
SELF_TIME = {
    "config.load_s": ("config.load_config",),
    "segmenter.parse_s": ("segmenter.parse_frame_transcript",),
    "segmenter.sweep_s": ("segmenter.sweep_max_seg_len",),
    "segmenter.split_s": ("segmenter.split_recursive",),
    "segmenter.yaml_write_s": ("segmenter.write_segments_yaml",),
    "segmenter.yaml_parse_s": ("segmenter.parse_segments_yaml",),
    "textfilter.clean_s": ("textfilter.clean_target", "textfilter.strip_speaker_prefix",
                           "textfilter.remove_events", "textfilter.normalize_thousands"),
    "textfilter.normalize_s": ("textfilter.normalize_for_asr", "textfilter.number_to_words"),
    "textfilter.filter_s": ("textfilter.filter_pair",),
    "textfilter.wer_s": ("textfilter.word_error_rate",),
    "sampler.read_s": ("sampler.read_manifest",),
    "sampler.write_s": ("sampler.write_manifest",),
    "sampler.epoch_s": ("sampler.epoch_sample",),
    "sampler.pack_s": ("sampler.filter_lengths", "sampler.build_batches", "sampler.batch_stats"),
    "evalign.tokenize_s": ("evalign.tokenize_13a",),
    "evalign.reseg_s": ("evalign.resegment_mwer", "evalign.alignment_cost", "evalign.score_segmentation"),
    "evalign.bleu_s": ("evalign.corpus_bleu",),
    "audio.load_s": ("audio.load_wav",),
    "audio.write_s": ("audio.write_wav",),
    "augment.tempo_s": ("augment.tempo",),
    "augment.pitch_s": ("augment.pitch",),
    "augment.echo_s": ("augment.echo",),
}

# metric -> span whose per-call durations give p50 and the tail percentile
DISTRIBUTIONS = {
    "segmenter.split": "segmenter.split_recursive",
    "textfilter.wer": "textfilter.word_error_rate",
    "augment.pitch": "augment.pitch",
}
MIN_CALLS_FOR_PERCENTILES = 20
TAIL_SAMPLES = 10

STAGE_METRICS = {
    "cli.sweep_s": "cli.cmd_sweep", "cli.segment_s": "cli.cmd_segment", "cli.filter_s": "cli.cmd_filter",
    "cli.sample_s": "cli.cmd_sample", "cli.batch_s": "cli.cmd_batch", "cli.score_s": "cli.cmd_score",
    "cli.sweep_score_s": "cli.cmd_sweep_score", "cli.augment_s": "cli.cmd_augment",
}

# stage whose tracemalloc peak is reported -> its metric. sweep-score runs
# the score stage's alignment once per segmentation, so the score stage
# stands for both.
ALLOC_STAGES = {"score": "evalign.alloc_peak_mb", "augment": "augment.alloc_peak_mb"}


def _segments_over_cap(args, result) -> int:
    cfg = args[1]
    return sum(1 for seg in result if seg.duration > cfg.max_seg_len + 1e-9)


# span name -> fn(args, result) -> {counter: increment}
COUNTERS = {
    "segmenter.split_recursive": lambda a, r: {
        "segmenter.frames_scanned": len(a[0].tokens),
        "segmenter.segments": len(r),
        "segmenter.over_cap": _segments_over_cap(a, r),
    },
    "textfilter.word_error_rate": lambda a, r: {"textfilter.wer_cells": len(a[0]) * len(a[1])},
    "textfilter.filter_pair": lambda a, r: {"textfilter.pairs": 1, "textfilter.kept": int(r.keep)},
    "sampler.build_batches": lambda a, r: {
        "sampler.entries": len(a[0]),
        "sampler.batches": len(r),
        "sampler.packed_samples": sum(e.n_samples for e in a[0]),
        "sampler.capacity": len(r) * a[1].max_batch_samples,
    },
    "evalign.resegment_mwer": lambda a, r: {
        "evalign.reseg_calls": 1,
        "evalign.dp_cells": len(a[0]) * sum(len(seg) for seg in a[1]),
    },
    "audio.load_wav": lambda a, r: {"audio.samples_in": len(r)},
    "audio.write_wav": lambda a, r: {"audio.samples_out": len(a[1])},
    "augment.sample_params": lambda a, r: {"augment.clips": 1, "augment.augmented": int(r is not None)},
}

# module -> (end-to-end metrics its per-layer metrics should move, workloads
# where they should move, workloads that bypass it and predict no change)
MOVES = {
    "cli": ("norm_wall_s", "the workload running the stage", "the other two"),
    "config": ("setup_s", "all", "-"),
    "segmenter": ("norm_wall_s", "prep (YAML parse: score)", "augment"),
    "textfilter": ("norm_wall_s", "prep", "score, augment"),
    "sampler": ("norm_wall_s", "prep", "score, augment"),
    "evalign": ("norm_wall_s, peak_rss_mb", "score", "prep, augment"),
    "audio": ("norm_wall_s", "augment", "prep, score"),
    "augment": ("norm_wall_s, peak_rss_mb", "augment", "prep, score"),
    "ioutil": ("norm_wall_s", "prep (sweep YAMLs), augment (WAVs)", "score"),
    "trace": ("-", "all", "-"),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(m, "s", "lower") for m in STAGE_METRICS]
    + [("cli.augment_overlap", "ratio", "higher"), ("config.load_s", "s", "lower")]
    + [(m, "s", "lower") for m in SELF_TIME if not m.startswith("config.")]
    + [
        ("segmenter.split_calls", "count", "lower"),
        ("segmenter.frames_scanned", "count", "lower"),
        ("segmenter.segments", "count", "lower"),
        ("segmenter.over_cap", "count", "lower"),
        ("textfilter.wer_calls", "count", "lower"),
        ("textfilter.wer_cells", "count", "lower"),
        ("textfilter.kept_ratio", "ratio", "higher"),
        ("sampler.entries", "count", "higher"),
        ("sampler.batches", "count", "lower"),
        ("sampler.fill_ratio", "ratio", "higher"),
        ("evalign.reseg_calls", "count", "lower"),
        ("evalign.dp_cells", "count", "lower"),
        ("evalign.alloc_peak_mb", "MB", "lower"),
        ("audio.samples_in", "count", "lower"),
        ("audio.samples_out", "count", "lower"),
        ("augment.clips", "count", "higher"),
        ("augment.augmented_ratio", "ratio", "higher"),
        ("augment.pitch_calls", "count", "lower"),
        ("augment.alloc_peak_mb", "MB", "lower"),
        ("ioutil.files_written", "count", "lower"),
        ("ioutil.bytes_written", "bytes", "lower"),
    ]
    + [
        item
        for prefix in DISTRIBUTIONS
        for item in ((f"{prefix}_p50_ms", "ms", "lower"), (f"{prefix}_ptail_ms", "ms", "lower"),
                     (f"{prefix}_ptail_pct", "%", "higher"))
    ]
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, self_s)
        self.counts: dict = defaultdict(int)
        self._lock = threading.Lock()  # guards counts
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.stage_span = None  # parent for spans opened on pool threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        is_stage = name in STAGE_METRICS.values()
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else tracer.stage_span
            frame = [span_id, 0.0]  # id, time covered by same-thread children
            stack.append(frame)
            if is_stage:
                tracer.stage_span = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_stage:
                    tracer.stage_span = None
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), end - start - frame[1])
                )
            if count is not None:
                increments = count(args, result)
                with tracer._lock:
                    for key, value in increments.items():
                        tracer.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_atomic_write(self, fn):
        tracer = self

        @contextlib.contextmanager
        def traced(path, *args, **kwargs):
            with fn(path, *args, **kwargs) as fh:
                yield fh
            size = os.path.getsize(path)
            with tracer._lock:
                tracer.counts["ioutil.files_written"] += 1
                tracer.counts["ioutil.bytes_written"] += size

        return traced

    def install(self) -> None:
        """Swap the wrappers into every loaded stforge module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "stforge" or n.startswith("stforge.")]
        swaps = {}
        for short, names in TRACED.items():
            module = sys.modules[f"stforge.{short}"]
            for name in names:
                fn = getattr(module, name)
                swaps[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        write = sys.modules["stforge.ioutil"].atomic_write
        swaps[id(write)] = (write, self._wrap_atomic_write(write))
        for module in modules:
            for attr, value in list(vars(module).items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    setattr(module, attr, swap[1])

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "thread", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = dict(zip(keys, span))
                row["run"] = self.run_id
                fh.write(json.dumps(row) + "\n")


def tail_percentile(n: int) -> float:
    """Highest percentile (one decimal) with at least TAIL_SAMPLES calls above it."""
    return math.floor(1000.0 * (n - TAIL_SAMPLES) / n) / 10.0


def _nearest_rank(sorted_values: list, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric but the tracing overhead and allocation peaks.

    A layer the workload never calls reads 0.
    """
    self_time = defaultdict(float)
    inclusive = defaultdict(float)
    durations = defaultdict(list)
    for _, name, start, end, _, _, self_s in tracer.spans:
        self_time[name] += self_s
        inclusive[name] += end - start
        durations[name].append(end - start)
    counts = tracer.counts
    metrics = {m: inclusive[span] for m, span in STAGE_METRICS.items()}
    metrics.update({m: sum(self_time[s] for s in spans) for m, spans in SELF_TIME.items()})

    clip_busy = sum(inclusive[s] for s in ("audio.load_wav", "augment.sample_params", "augment.apply_augmentation"))
    metrics["cli.augment_overlap"] = clip_busy / metrics["cli.augment_s"] if metrics["cli.augment_s"] else 0.0
    for key in ("segmenter.frames_scanned", "segmenter.segments", "segmenter.over_cap", "textfilter.wer_cells",
                "sampler.entries", "sampler.batches", "evalign.reseg_calls", "evalign.dp_cells",
                "audio.samples_in", "audio.samples_out", "augment.clips",
                "ioutil.files_written", "ioutil.bytes_written"):
        metrics[key] = counts[key]
    metrics["segmenter.split_calls"] = len(durations["segmenter.split_recursive"])
    metrics["textfilter.wer_calls"] = len(durations["textfilter.word_error_rate"])
    metrics["augment.pitch_calls"] = len(durations["augment.pitch"])
    metrics["textfilter.kept_ratio"] = counts["textfilter.kept"] / counts["textfilter.pairs"] if counts["textfilter.pairs"] else 0.0
    metrics["sampler.fill_ratio"] = counts["sampler.packed_samples"] / counts["sampler.capacity"] if counts["sampler.capacity"] else 0.0
    metrics["augment.augmented_ratio"] = counts["augment.augmented"] / counts["augment.clips"] if counts["augment.clips"] else 0.0
    for metric in ALLOC_STAGES.values():
        metrics[metric] = 0.0  # filled in by the worker's allocation pass

    for prefix, span in DISTRIBUTIONS.items():
        values = sorted(durations[span])
        if len(values) >= MIN_CALLS_FOR_PERCENTILES:
            pct = tail_percentile(len(values))
            metrics[f"{prefix}_p50_ms"] = 1000.0 * _nearest_rank(values, 50.0)
            metrics[f"{prefix}_ptail_ms"] = 1000.0 * _nearest_rank(values, pct)
            metrics[f"{prefix}_ptail_pct"] = pct
        else:
            metrics[f"{prefix}_p50_ms"] = metrics[f"{prefix}_ptail_ms"] = metrics[f"{prefix}_ptail_pct"] = 0.0
    return metrics

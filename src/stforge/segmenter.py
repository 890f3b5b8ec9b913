"""ASR-driven audio segmentation.

Splits each audio file recursively on the largest untranscribable period
in a frame-level ASR token stream. Frames are untranscribable when their
token contains no ASCII letter, which is why the interchange format encodes
the CTC blank as "" and the word separator as "|". The gap chosen for a
span does not depend on the maximum segment length, so each transcript has
one split tree. A segmentation is a cut of it, stopping at spans that fit
the cap or have no usable gap; a sweep cuts one tree once per cap.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np
import yaml

LETTER_RE = re.compile(r"[A-Za-z]")


@dataclass(frozen=True)
class FrameTranscript:
    """Per-file sequence of ASR token predictions at a fixed frame step."""

    audio_id: str
    frame_ms: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.frame_ms <= 0:
            raise ValueError(f"{self.audio_id}: frame_ms must be positive, got {self.frame_ms}")
        if not self.tokens:
            raise ValueError(f"{self.audio_id}: empty transcript")
        object.__setattr__(self, "tokens", tuple(self.tokens))

    @property
    def duration(self) -> float:
        """Covered duration in seconds."""
        return len(self.tokens) * self.frame_ms / 1000.0


@dataclass(frozen=True)
class Gap:
    """Maximal run of untranscribable frames."""

    start_frame: int
    num_frames: int


@dataclass(frozen=True)
class Segment:
    """One (wav, offset, duration) unit of a segmentation, in seconds."""

    wav: str
    offset: float
    duration: float
    speaker_id: str

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.duration <= 0:
            raise ValueError(f"non-positive duration {self.duration}")


@dataclass(frozen=True)
class SegmentationConfig:
    max_seg_len: float = 22.0
    min_gap: float = 0.2

    def __post_init__(self):
        if not self.max_seg_len > self.min_gap > 0:
            raise ValueError(
                f"need max_seg_len > min_gap > 0, got {self.max_seg_len}, {self.min_gap}"
            )


def parse_frame_transcript(stream: str) -> list[FrameTranscript]:
    """Parse JSON-lines frame transcripts.

    One object per audio file: {"audio": str, "frame_ms": int, "tokens": [str...]}.
    Audio ids must be unique.
    """
    out = []
    first_line = {}
    for lineno, line in enumerate(stream.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: malformed JSON ({exc})") from exc
        for field in ("audio", "frame_ms", "tokens"):
            if field not in obj:
                raise ValueError(f"line {lineno}: missing field {field!r}")
        if not isinstance(obj["tokens"], list):
            raise ValueError(f"line {lineno}: tokens must be a list")
        try:
            out.append(
                FrameTranscript(
                    audio_id=str(obj["audio"]),
                    frame_ms=int(obj["frame_ms"]),
                    tokens=tuple(str(t) for t in obj["tokens"]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        seen = first_line.setdefault(out[-1].audio_id, lineno)
        if seen != lineno:
            raise ValueError(f"line {lineno}: duplicate audio {out[-1].audio_id!r} (first on line {seen})")
    return out


def is_transcribable(token: str) -> bool:
    """True iff the token contains at least one ASCII letter."""
    return LETTER_RE.search(token) is not None


def _min_gap_frames(min_gap: float, frame_ms: int) -> int:
    # Smallest frame count whose duration reaches min_gap; the epsilon
    # absorbs float noise so a run of exactly min_gap seconds qualifies.
    return max(1, math.ceil(min_gap * 1000.0 / frame_ms - 1e-9))


def find_gaps(t: FrameTranscript, min_gap: float) -> list[Gap]:
    """All maximal untranscribable runs lasting at least ``min_gap`` seconds."""
    if min_gap <= 0:
        raise ValueError(f"min_gap must be positive, got {min_gap}")
    threshold = _min_gap_frames(min_gap, t.frame_ms)
    starts, ends = _gap_runs(t)
    return [Gap(int(s), int(e - s)) for s, e in zip(starts, ends) if e - s >= threshold]


def _gap_runs(t: FrameTranscript) -> tuple[np.ndarray, np.ndarray]:
    """Start and end frames of each maximal untranscribable run, one pass."""
    silent = {tok for tok in set(t.tokens) if not is_transcribable(tok)}
    flags = np.array([tok in silent for tok in t.tokens], dtype=np.int8)
    edges = np.diff(np.pad(flags, 1))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _split_tree(t: FrameTranscript, min_gap: float):
    """Memoized ``split(start, end)``: the frame to split [start, end) at, or None.

    Gap runs are clipped to the span, so a child holds half of the gap its
    parent split as a run of its own. The longest clipped run of at least
    min_gap wins, then the midpoint closest to the span center, then the
    leftmost. None means the span has no usable gap.
    """
    starts, ends = _gap_runs(t)
    threshold = _min_gap_frames(min_gap, t.frame_ms)

    @functools.cache
    def split(start: int, end: int):
        lo = np.searchsorted(ends, start, side="right")
        hi = np.searchsorted(starts, end)
        run_start = np.maximum(starts[lo:hi], start)
        run_len = np.minimum(ends[lo:hi], end) - run_start
        mid = run_start + run_len // 2
        usable = (run_len >= threshold) & (mid > start)
        if not usable.any():
            return None
        # |2*mid - (start+end)| ranks midpoints by distance to the span
        # center without floats; lexsort is stable, so the leftmost wins ties.
        mid, dist = mid[usable], np.abs(2 * mid[usable] - (start + end))
        return int(mid[np.lexsort((dist, -run_len[usable]))[0]])

    return split


def _cut(t: FrameTranscript, split, max_seg_len: float) -> list[Segment]:
    """Frontier of the split tree: spans no longer than max_seg_len, or unsplittable."""
    frame_s = t.frame_ms / 1000.0
    max_frames = int(math.floor(max_seg_len * 1000.0 / t.frame_ms + 1e-9))
    speaker = os.path.basename(t.audio_id).rsplit(".", 1)[0]
    segments: list[Segment] = []
    stack = [(0, len(t.tokens))]
    while stack:
        start, end = stack.pop()
        mid = None if end - start <= max_frames else split(start, end)
        if mid is None:
            segments.append(Segment(t.audio_id, start * frame_s, (end - start) * frame_s, speaker))
        else:
            # Right first so the left half is processed next (ordered output).
            stack.append((mid, end))
            stack.append((start, mid))
    return segments


def split_recursive(t: FrameTranscript, cfg: SegmentationConfig) -> list[Segment]:
    """Recursively split a transcript on its largest untranscribable period.

    One cut of the transcript's split tree (:func:`_split_tree`): a span no
    longer than max_seg_len is emitted as one segment, a longer one is split
    at the midpoint of its largest qualifying gap. A span with no usable gap
    is emitted whole even when over-length: that is the algorithm's
    termination clause. Output segments are sorted, non-overlapping, and
    cover [0, file duration).
    """
    return _cut(t, _split_tree(t, cfg.min_gap), cfg.max_seg_len)


def sweep_max_seg_len(
    transcripts: list[FrameTranscript],
    lo: float,
    hi: float,
    step: float = 1.0,
    min_gap: float = 0.2,
) -> dict[float, list[Segment]]:
    """Segment every transcript at each max_seg_len value in [lo, hi].

    One split tree per transcript, cut once per value: the sweep costs about
    one segmentation, and counts cannot rise as the value grows. Returns
    {max_seg_len: segments over all transcripts, in input order}.
    """
    if lo > hi:
        raise ValueError(f"lo must not exceed hi, got {lo} > {hi}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    result: dict[float, list[Segment]] = {}
    k = 0
    while (value := round(lo + k * step, 9)) <= hi + 1e-9:
        SegmentationConfig(max_seg_len=value, min_gap=min_gap)  # validates the value
        result[value] = []
        k += 1
    for t in transcripts:
        split = _split_tree(t, min_gap)
        for value, segments in result.items():
            segments.extend(_cut(t, split, value))
    return result


_PLAIN_YAML = re.compile(r"^[A-Za-z0-9_./-]+$")
_RESOLVER = yaml.resolver.Resolver()  # the implicit scalar typing of SafeLoader and CSafeLoader


@functools.lru_cache(maxsize=4096)  # a segment list repeats a few speaker ids and wav names many times
def _yaml_str(value: str) -> str:
    # plain only when the loader reads it back as this same string; it would read yes, 007 or 1.50 as bool, int, float
    if _PLAIN_YAML.match(value) and _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == "tag:yaml.org,2002:str":
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_segments_yaml(segments: list[Segment]) -> str:
    """Segment list as YAML: one flow mapping per line, 6-decimal times."""
    lines = [
        "- {duration: %.6f, offset: %.6f, speaker_id: %s, wav: %s}"
        % (s.duration, s.offset, _yaml_str(s.speaker_id), _yaml_str(s.wav))
        for s in segments
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# libyaml's loader builds the same objects several times faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def parse_segments_yaml(text: str) -> list[Segment]:
    """Inverse of :func:`write_segments_yaml`; validates every entry."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed segment YAML: {exc}") from exc
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ValueError("segment YAML must be a list of mappings")
    segments = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i}: not a mapping")
        missing = {"duration", "offset", "speaker_id", "wav"} - entry.keys()
        if missing:
            raise ValueError(f"entry {i}: missing keys {sorted(missing)}")
        segments.append(
            Segment(
                wav=str(entry["wav"]),
                offset=float(entry["offset"]),
                duration=float(entry["duration"]),
                speaker_id=str(entry["speaker_id"]),
            )
        )
    return segments

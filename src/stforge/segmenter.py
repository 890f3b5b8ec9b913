"""ASR-driven audio segmentation.

Splits each audio file recursively on the largest untranscribable period
in a frame-level ASR token stream. Frames are untranscribable when their
token contains no ASCII letter, which is why the interchange format encodes
the CTC blank as "" and the word separator as "|". The gap chosen for a
span does not depend on the maximum segment length, so each transcript has
one split tree. A segmentation is a cut of it, stopping at spans that fit
the cap or have no usable gap; a sweep walks the tree once for all caps,
emitting each span once for the range of caps whose cut holds it.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np
import yaml

from .ioutil import split_lines

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
        if not 0 <= self.offset < math.inf:  # also rejects nan
            raise ValueError(f"offset must be finite and non-negative, got {self.offset}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and positive, got {self.duration}")


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

    One object per audio file: {"audio": str, "frame_ms": int, "tokens": [str...]},
    with exactly those JSON types. Audio ids must be unique.
    """
    out = []
    first_line = {}
    for lineno, line in enumerate(split_lines(stream), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: malformed JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"line {lineno}: expected a JSON object")
        for field in ("audio", "frame_ms", "tokens"):
            if field not in obj:
                raise ValueError(f"line {lineno}: missing field {field!r}")
        audio, frame_ms, tokens = obj["audio"], obj["frame_ms"], obj["tokens"]
        if not isinstance(audio, str):
            raise ValueError(f"line {lineno}: audio must be a string, got {audio!r}")
        if type(frame_ms) is not int:  # bool is an int subclass; 20.9 is not truncated
            raise ValueError(f"line {lineno}: frame_ms must be an integer, got {frame_ms!r}")
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ValueError(f"line {lineno}: tokens must be a list of strings")
        try:
            out.append(FrameTranscript(audio_id=audio, frame_ms=frame_ms, tokens=tokens))
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


def _frontiers(t: FrameTranscript, min_gap: float, caps: list[float]) -> list[list[Segment]]:
    """Frontier of the split tree under each of the ascending caps, in one walk.

    A span reached under caps [0, reach) is one Segment in the lists of those
    that hold it whole (all of them if it has no usable gap); the rest split it.
    """
    split = _split_tree(t, min_gap)
    frame_s = t.frame_ms / 1000.0
    limits = [int(math.floor(cap * 1000.0 / t.frame_ms + 1e-9)) for cap in caps]
    speaker = os.path.basename(t.audio_id).rsplit(".", 1)[0]
    frontiers: list[list[Segment]] = [[] for _ in caps]
    stack = [(0, len(t.tokens), len(caps))]  # a span and the caps [0, reach) it is reached under
    while stack:
        start, end, reach = stack.pop()
        # caps [fits, reach) hold the span whole; fits <= reach, as a half is shorter than its parent
        fits = bisect.bisect_left(limits, end - start)
        mid = split(start, end) if fits else None
        if mid is None:
            fits = 0
        else:  # right first, so the left half is processed next (ordered output)
            stack += ((mid, end, fits), (start, mid, fits))
        if fits < reach:
            segment = Segment(t.audio_id, start * frame_s, (end - start) * frame_s, speaker)
            for segments in frontiers[fits:reach]:
                segments.append(segment)
    return frontiers


def split_recursive(t: FrameTranscript, cfg: SegmentationConfig) -> list[Segment]:
    """Recursively split a transcript on its largest untranscribable period.

    One cut of the transcript's split tree (:func:`_split_tree`): a span no
    longer than max_seg_len is emitted as one segment, a longer one is split
    at the midpoint of its largest qualifying gap. A span with no usable gap
    is emitted whole even when over-length: that is the algorithm's
    termination clause. Output segments are sorted, non-overlapping, and
    cover [0, file duration).
    """
    return _frontiers(t, cfg.min_gap, [cfg.max_seg_len])[0]


def sweep_max_seg_len(
    transcripts: list[FrameTranscript],
    lo: float,
    hi: float,
    step: float = 1.0,
    min_gap: float = 0.2,
) -> dict[float, list[Segment]]:
    """Segment every transcript at each max_seg_len value in [lo, hi].

    One split tree per transcript, walked once for all values: the sweep
    costs about one segmentation, and counts cannot rise as the value grows.
    Returns {max_seg_len: segments over all transcripts, in input order}.
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
        for segments, frontier in zip(result.values(), _frontiers(t, min_gap, list(result))):
            segments.extend(frontier)
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
        for key in ("wav", "speaker_id"):
            if not isinstance(entry[key], str):  # YAML reads unquoted null, yes or 5 as non-strings
                raise ValueError(f"entry {i}: {key} must be a string, got {entry[key]!r}")
        for key in ("offset", "duration"):
            if isinstance(entry[key], bool):  # float(True) would be a 1 s time
                raise ValueError(f"entry {i}: {key} must be a number, got {entry[key]!r}")
        try:
            segments.append(
                Segment(
                    wav=entry["wav"],
                    offset=float(entry["offset"]),
                    duration=float(entry["duration"]),
                    speaker_id=entry["speaker_id"],
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {i}: {exc}") from None
    return segments

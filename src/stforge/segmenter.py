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

from .ioutil import parse_rows, record, split_lines

LETTER_RE = re.compile(r"[A-Za-z]")
MAX_FRAME_MS = 60_000  # a minute per frame; any frame step an ASR model emits is far below it
MAX_SWEEP_STEPS = 10_000  # steps of one sweep's grid loop; 5-25 s by 1 s, the paper's sweep, takes 21


class FrameTranscript(record("FrameTranscript", "audio_id frame_ms tokens")):
    """Per-file sequence of ASR token predictions at a fixed frame step."""

    __slots__ = ()

    def __new__(cls, audio_id, frame_ms, tokens):
        if not frame_ms > 0:
            raise ValueError(f"{audio_id}: frame_ms must be positive, got {frame_ms}")
        if frame_ms > MAX_FRAME_MS:  # a huge one would overflow float seconds when segmenting
            raise ValueError(f"{audio_id}: frame_ms must be at most {MAX_FRAME_MS}, got {frame_ms}")
        if not tokens:
            raise ValueError(f"{audio_id}: empty transcript")
        return tuple.__new__(cls, (audio_id, frame_ms, tuple(tokens)))

    @property
    def duration(self) -> float:
        """Covered duration in seconds."""
        return len(self.tokens) * self.frame_ms / 1000.0


class Gap(record("Gap", "start_frame num_frames")):
    """Maximal run of untranscribable frames."""

    __slots__ = ()


class Segment(record("Segment", "wav offset duration speaker_id")):
    """One (wav, offset, duration) unit of a segmentation, in seconds."""

    __slots__ = ()

    def __new__(cls, wav, offset, duration, speaker_id):
        if not 0 <= offset < math.inf:  # also rejects nan
            raise ValueError(f"offset must be finite and non-negative, got {offset}")
        if not 0 < duration < math.inf:
            raise ValueError(f"duration must be finite and positive, got {duration}")
        return tuple.__new__(cls, (wav, offset, duration, speaker_id))


class SegmentationConfig(record("SegmentationConfig", "max_seg_len min_gap")):
    """The segment-length cap and the shortest gap worth splitting at, in seconds."""

    __slots__ = ()

    def __new__(cls, max_seg_len=22.0, min_gap=0.2):
        if not math.inf > max_seg_len > min_gap > 0:  # also rejects nan
            raise ValueError(f"need finite max_seg_len > min_gap > 0, got {max_seg_len}, {min_gap}")
        return tuple.__new__(cls, (max_seg_len, min_gap))


def _transcript_row(line: str) -> tuple:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for field in ("audio", "frame_ms", "tokens"):
        if field not in obj:
            raise ValueError(f"missing field {field!r}")
    audio, frame_ms, tokens = obj["audio"], obj["frame_ms"], obj["tokens"]
    if not isinstance(audio, str):
        raise ValueError(f"audio must be a string, got {audio!r}")
    try:
        audio.encode("utf-8")  # a \ud800 escape decodes to a lone surrogate, which no output file can hold
    except UnicodeEncodeError:
        raise ValueError(f"audio must be valid Unicode, got {audio!r}") from None
    if type(frame_ms) is not int:  # bool is an int subclass; 20.9 is not truncated
        raise ValueError(f"frame_ms must be an integer, got {frame_ms!r}")
    try:  # one C-level pass over the tokens; a non-list is joined as [None], which fails the same way
        "".join(tokens if isinstance(tokens, list) else [None])
    except TypeError:
        raise ValueError("tokens must be a list of strings") from None
    return audio, FrameTranscript(audio_id=audio, frame_ms=frame_ms, tokens=tokens)


def parse_frame_transcript(stream: str) -> list[FrameTranscript]:
    """Parse JSON-lines frame transcripts.

    One object per audio file: {"audio": str, "frame_ms": int, "tokens": [str...]},
    with exactly those JSON types. Audio ids must be unique. Only empty
    lines are skipped; errors read ``line N: ...``.
    """
    return [row for _, row in parse_rows(split_lines(stream), _transcript_row)]


def is_transcribable(token: str) -> bool:
    """True iff the token contains at least one ASCII letter."""
    return LETTER_RE.search(token) is not None


def _min_gap_frames(min_gap: float, t: FrameTranscript) -> int:
    # Smallest frame count whose duration reaches min_gap; the epsilon
    # absorbs float noise so a run of exactly min_gap seconds qualifies.
    # A min_gap longer than the transcript needs more frames than it has.
    return max(1, math.ceil(min(min_gap * 1000.0 / t.frame_ms - 1e-9, len(t.tokens) + 1)))


def find_gaps(t: FrameTranscript, min_gap: float) -> list[Gap]:
    """All maximal untranscribable runs lasting at least ``min_gap`` seconds."""
    if not 0 < min_gap < math.inf:  # also rejects nan
        raise ValueError(f"min_gap must be positive and finite, got {min_gap}")
    return [Gap(start, end - start) for start, end in _gap_runs(t, _min_gap_frames(min_gap, t))]


def _gap_runs(t: FrameTranscript, threshold: int) -> list[tuple[int, int]]:
    """(start, end) frames of each maximal untranscribable run of at least threshold frames."""
    flag = {tok: "1" if is_transcribable(tok) else "0" for tok in set(t.tokens)}
    flags = "".join(map(flag.__getitem__, t.tokens))
    # the lookbehind starts a match only at a run's first frame, so each run is read once
    return [m.span() for m in re.finditer(f"(?<!0)0{{{threshold},}}", flags)]


def _split_tree(t: FrameTranscript, min_gap: float):
    """``split(start, end)``: the frame to split [start, end) at, or None.

    Gap runs are clipped to the span, so a child holds half of the gap its
    parent split as a run of its own. The longest clipped run of at least
    min_gap wins, then the midpoint closest to the span center, then the
    leftmost. None means the span has no usable gap.
    """
    threshold = _min_gap_frames(min_gap, t)
    runs = _gap_runs(t, threshold)

    def split(start: int, end: int):
        best_key, best_mid = None, None
        first = bisect.bisect_right(runs, start, key=lambda run: run[1])  # the first run ending after start
        for run_start, run_end in runs[first : bisect.bisect_left(runs, end, key=lambda run: run[0])]:
            run_start, run_end = max(run_start, start), min(run_end, end)
            mid = (run_start + run_end) // 2
            # |2*mid - (start+end)| ranks midpoints by distance to the span center without floats
            key = (run_start - run_end, abs(2 * mid - start - end))
            if run_end - run_start >= threshold and mid > start and (best_key is None or key < best_key):
                best_key, best_mid = key, mid
        return best_mid

    return split


def _frontiers(t: FrameTranscript, min_gap: float, caps: list[float]) -> list[list[Segment]]:
    """Frontier of the split tree under each of the ascending caps, in one walk.

    A span reached under caps [0, reach) is one Segment in the lists of those
    that hold it whole (all of them if it has no usable gap); the rest split it.
    """
    split = _split_tree(t, min_gap)
    frame_s = t.frame_ms / 1000.0
    # a cap's frame count, at most the transcript's: a longer cap holds it whole
    limits = [math.floor(min(cap * 1000.0 / t.frame_ms + 1e-9, len(t.tokens))) for cap in caps]
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

    The grid is computed exactly over the shortest decimals of lo, step
    and hi: value k is lo + k * step, rounded once to a float, while it is
    at most hi + 1e-9. So 0.1 + 2 * 0.1 is 0.3, and value 0 is lo as given:
    no digit of lo is lost to rounding.
    """
    from fractions import Fraction

    if not -math.inf < lo <= hi < math.inf:  # also rejects nan
        raise ValueError(f"need finite lo <= hi, got {lo}, {hi}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    # the loop below takes k up to about (hi - lo + 1e-9) / step
    if not (hi - lo + 2e-9) / step < MAX_SWEEP_STEPS:
        raise ValueError(f"a grid from {lo} to {hi} by {step} takes over {MAX_SWEEP_STEPS} steps")
    start, stride, end = (Fraction(repr(float(x))) for x in (lo, step, hi))
    end += Fraction(1, 10**9)
    result: dict[float, list[Segment]] = {}
    k = 0
    while (exact := start + k * stride) <= end:  # exact: the first value past hi may be past the largest float
        value = float(exact)
        SegmentationConfig(max_seg_len=value, min_gap=min_gap)  # validates the value
        result[value] = []
        k += 1
    for t in transcripts:
        for segments, frontier in zip(result.values(), _frontiers(t, min_gap, list(result))):
            segments.extend(frontier)
    return result


_PLAIN_YAML = re.compile(r"[A-Za-z0-9_./-]+")
# YAML 1.1's implicit scalar types as far as _PLAIN_YAML's alphabet can spell
# them: no sign +, no sexagesimal or time-of-day :, no ~, << or =. A loader reads a
# plain scalar that matches as a non-string: yes, null, 007, 0x1F, 1_000, 1.50, .inf
_YAML_TYPED = re.compile(
    r"(?P<bool>yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF)"
    r"|(?P<null>null|Null|NULL)"
    r"|(?P<int>-?(?:0b[01_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+))"
    r"|(?P<float>-?[0-9][0-9_]*\.[0-9_]*(?:[eE]-[0-9]+)?|\.[0-9][0-9_]*(?:[eE]-[0-9]+)?"
    r"|-?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))"
    r"|(?P<timestamp>[0-9]{4}-[0-9]{2}-[0-9]{2})"
)
# What a double-quoted YAML scalar cannot hold as itself: \ and ", a line break
# (a loader folds it to a space) and a non-printable character (a loader refuses
# the file). Every character above U+FFFF is printable, so \xXX and \uXXXX suffice.
_ESCAPED = r'\x00-\x08\n-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff\\"'
_YAML_ESCAPE = re.compile(f"[{_ESCAPED}]")
_ESCAPE_CODE = r'\\(?:x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}|[\\"])'  # the writer's escapes, the only ones read
_YAML_UNESCAPE = re.compile(_ESCAPE_CODE)

# The line dialect: write_segments_yaml's line, and each line parse_segments_yaml reads.
# A time is an unsigned decimal that YAML reads as the number float() reads: an
# integer has no leading zero, since YAML reads 010 as octal 8 and 08 as a string.
_SEGMENT_LINE = "- {duration: %.6f, offset: %.6f, speaker_id: %s, wav: %s}"
_SEGMENT_KEYS = ("duration", "offset", "speaker_id", "wav")
_TIME_RE = re.compile(r"[0-9]+\.[0-9]*|0|[1-9][0-9]*")
_VALUE = rf'{_PLAIN_YAML.pattern}|"(?:[^{_ESCAPED}]|{_ESCAPE_CODE})*"'
_ITEM_RE = re.compile(rf"([A-Za-z_][A-Za-z0-9_]*): ({_VALUE})")


def _yaml_escape(match: re.Match) -> str:
    char = match.group()
    if char in '\\"':
        return "\\" + char
    return f"\\x{ord(char):02X}" if ord(char) < 0x100 else f"\\u{ord(char):04X}"


@functools.lru_cache(maxsize=4096)  # a segment list repeats a few speaker ids and wav names many times
def _yaml_str(value: str) -> str:
    # plain when a loader reads value unquoted as this same string
    if _PLAIN_YAML.fullmatch(value) and not _YAML_TYPED.fullmatch(value):
        return value
    return '"' + _YAML_ESCAPE.sub(_yaml_escape, value) + '"'


def write_segments_yaml(segments: list[Segment]) -> str:
    """Segment list as YAML: one flow mapping per line, 6-decimal times."""
    lines = [
        _SEGMENT_LINE % (s.duration, s.offset, _yaml_str(s.speaker_id), _yaml_str(s.wav))
        for s in segments
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _yaml_unescape(match: re.Match) -> str:
    code = match.group()[1:]
    return code if len(code) == 1 else chr(int(code[1:], 16))


@functools.lru_cache(maxsize=4096)
def _read_id(key: str, value: str) -> str:
    if value[0] == '"':
        return _YAML_UNESCAPE.sub(_yaml_unescape, value[1:-1])
    if typed := _YAML_TYPED.fullmatch(value):
        raise ValueError(f"{key} must be a string, got {value} (a YAML {typed.lastgroup}; quote it)")
    return value


def _segment_row(line: str) -> tuple:
    # a flow mapping tokenizes into its own items, so a line is one exactly when its items spell it back
    items = _ITEM_RE.findall(line)
    if line != "- {" + ", ".join(map(": ".join, items)) + "}":
        raise ValueError(f"expected a flow mapping - {{key: value, ...}}, got {line[:80]!r}")
    keys = [key for key, _ in items]
    if repeated := [key for key in _SEGMENT_KEYS if keys.count(key) > 1]:
        raise ValueError(f"duplicate key {repeated[0]!r}")
    for key, value in items:
        if key in ("duration", "offset") and not _TIME_RE.fullmatch(value):
            raise ValueError(f"{key} must be an unsigned decimal, got {value}")
    fields = dict(items)
    if missing := [key for key in _SEGMENT_KEYS if key not in fields]:
        raise ValueError(f"missing keys {missing}")
    # a time too long for a float is inf, which Segment refuses
    wav, offset = _read_id("wav", fields["wav"]), float(fields["offset"])
    return (wav, offset), Segment(wav, offset, float(fields["duration"]), _read_id("speaker_id", fields["speaker_id"]))


def parse_segments_yaml(text: str) -> list[Segment]:
    """Inverse of :func:`write_segments_yaml`: the segments of a text in the line dialect.

    Every non-empty line is ``- {``, zero or more ``key: value`` items joined by
    ``, ``, and ``}``: a Segment's four keys in any order, others (MuST-C's
    ``rW``, ``uW``) ignored. A value is a plain ``[A-Za-z0-9_./-]+`` scalar or a
    double-quoted one with the writer's escapes. ``line N: ...`` names a line's
    first fault in this order: another shape (any other YAML), a repeated segment
    key, a time that is no unsigned decimal, missing keys, a plain id that YAML
    1.1 types as a non-string; or a second segment at the same (wav, offset).
    """
    return [row for _, row in parse_rows(split_lines(text), _segment_row)]

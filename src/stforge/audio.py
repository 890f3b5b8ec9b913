"""Audio container, WAV file I/O, resampling, and per-clip normalization.

All functions are pure: they take and return immutable :class:`AudioClip`
values and never mutate their inputs, so callers may parallelize over files.
Pipeline-internal audio is mono; integer WAV data is scaled to [-1, 1] on
load by dividing by 32768.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

INT16_SCALE = 32768.0  # symmetric choice: -32768 maps to exactly -1.0
RESAMPLE_TAPS = 64
RESAMPLE_BLOCK = 4096  # output rows per kernel block: about 2 MB per (rows x taps) matrix
_WAVE_DTYPES = {(1, 16): "<i2", (3, 32): "<f4"}  # (format tag, bits per sample): PCM16, IEEE float32
_PCM16_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")  # RIFF, fmt (tag, channels, rate, byte rate, align, bits), data


class AudioError(Exception):
    """Unreadable or unsupported audio input."""


def _as_readonly(samples: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(samples, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1] and a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        arr = np.asarray(self.samples)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "samples", _as_readonly(arr))

    @property
    def duration(self) -> float:
        """Length in seconds (exact by definition)."""
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def load_wav(path) -> AudioClip:
    """Read a mono RIFF WAV file holding 16-bit PCM or 32-bit float samples.

    Chunks other than ``fmt `` and ``data`` are skipped, and an extensible
    format is read by its sub-format tag. Integer samples are scaled to
    [-1, 1] by dividing by 32768. Raises :class:`AudioError` naming the
    path for unreadable, truncated or malformed files, non-mono data,
    unsupported encodings and a zero sample rate.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise AudioError(f"{path}: no such file")
    try:
        with open(path, "rb") as fh:
            raw = memoryview(fh.read())
    except OSError as exc:
        raise AudioError(f"{path}: not a readable WAV file ({exc})") from exc
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioError(f"{path}: not a RIFF/WAVE file")
    chunks, pos = {}, 12
    while pos + 8 <= len(raw) and not (b"fmt " in chunks and b"data" in chunks):
        cid, size = struct.unpack_from("<4sI", raw, pos)
        if pos + 8 + size > len(raw):
            raise AudioError(f"{path}: {cid.decode('latin-1')!r} chunk runs past the end of the file")
        chunks.setdefault(cid, raw[pos + 8 : pos + 8 + size])
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    for cid in (b"fmt ", b"data"):
        if cid not in chunks:
            raise AudioError(f"{path}: no {cid.decode()!r} chunk")
    fmt, data = chunks[b"fmt "], chunks[b"data"]
    if len(fmt) < 16:
        raise AudioError(f"{path}: 'fmt ' chunk of {len(fmt)} bytes is too short")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == 0xFFFE and len(fmt) >= 26:  # WAVE_FORMAT_EXTENSIBLE: the real tag opens the sub-format GUID
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if channels != 1:
        raise AudioError(f"{path}: non-mono ({channels} channels)")
    if (tag, bits) not in _WAVE_DTYPES:
        raise AudioError(f"{path}: unsupported encoding (format tag {tag}, {bits} bits) (need int16 or float32)")
    if rate == 0:
        raise AudioError(f"{path}: sample rate 0")
    samples = np.frombuffer(data, _WAVE_DTYPES[tag, bits], count=len(data) // (bits // 8)).astype(np.float64)
    if tag == 1:
        samples /= INT16_SCALE
    return AudioClip(samples, rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as a mono 16-bit PCM RIFF WAV file with a 44-byte header.

    Samples are multiplied by 32768, rounded and clipped to the int16
    range, so a clip loaded from a 16-bit file round-trips bit-exactly.
    ``path`` may be an open binary file object.
    """
    ints = np.clip(np.round(clip.samples * INT16_SCALE), -32768, 32767).astype("<i2")
    rate, size = clip.sample_rate, ints.nbytes
    header = _PCM16_HEADER.pack(b"RIFF", 36 + size, b"WAVE", b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16, b"data", size)
    if hasattr(path, "write"):
        path.write(header + ints.tobytes())
    else:
        with open(path, "wb") as fh:
            fh.write(header + ints.tobytes())


def _sinc_resample(x: np.ndarray, in_rate: float, out_rate: float) -> np.ndarray:
    """Band-limited resampling with a fixed 64-tap windowed-sinc kernel.

    Output length is round(len(x) * out_rate / in_rate). The kernel is a
    Hann-windowed sinc, low-passed at min(in, out) Nyquist, with per-output
    normalization to unity DC gain. Rates may be fractional; only their
    ratio matters. Output rows are computed RESAMPLE_BLOCK at a time, so
    memory stays bounded on long inputs.
    """
    n = len(x)
    ratio = out_rate / in_rate
    out_len = int(np.floor(n * ratio + 0.5))
    if out_len == 0 or n == 0:
        return np.zeros(0)
    cutoff = min(1.0, ratio)
    half = RESAMPLE_TAPS // 2
    offsets = np.arange(-half + 1, half + 1)
    padded = np.concatenate([np.zeros(half), x, np.zeros(half + 1)])
    out = np.empty(out_len)
    for lo in range(0, out_len, RESAMPLE_BLOCK):
        # Input-time positions of this block's output samples, and the tap grid around them.
        t = np.arange(lo, min(lo + RESAMPLE_BLOCK, out_len)) / ratio
        idx = np.floor(t).astype(np.int64)[:, None] + offsets[None, :]
        delta = idx - t[:, None]
        kernel = cutoff * np.sinc(cutoff * delta)
        kernel *= 0.5 + 0.5 * np.cos(np.pi * delta / half)
        kernel /= kernel.sum(axis=1, keepdims=True)
        out[lo : lo + len(t)] = np.einsum("ot,ot->o", kernel, padded[idx + half])
    return out


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Resample to ``target_rate`` Hz via windowed-sinc interpolation."""
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    return AudioClip(_sinc_resample(clip.samples, clip.sample_rate, target_rate), target_rate)


def normalize_zero_mean_unit_var(clip: AudioClip) -> AudioClip:
    """Normalize to zero mean and unit (population) variance.

    Constant clips come out all-zero: silent segments occur in real
    corpora and must not error.
    """
    if len(clip) < 2:
        raise ValueError(f"need at least 2 samples to normalize, got {len(clip)}")
    centered = clip.samples - clip.samples.mean()
    std = np.sqrt(np.mean(centered**2))
    if std < 1e-12:
        return AudioClip(np.zeros(len(clip)), clip.sample_rate)
    return AudioClip(centered / std, clip.sample_rate)


def extract_segment(clip: AudioClip, offset: float, duration: float) -> AudioClip:
    """Cut [offset, offset+duration) seconds out of a clip.

    The request may overshoot the clip end by at most one sample.
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    if duration < 0:
        raise ValueError(f"negative duration {duration}")
    if offset + duration > clip.duration + 1.0 / clip.sample_rate:
        raise ValueError(
            f"segment [{offset:.6f}, {offset + duration:.6f}) out of range for a {clip.duration:.6f} s clip"
        )
    start = int(np.floor(offset * clip.sample_rate + 0.5))
    end = int(np.floor((offset + duration) * clip.sample_rate + 0.5))
    end = min(end, len(clip))
    return AudioClip(clip.samples[start:end].copy(), clip.sample_rate)

"""Waveform augmentation: tempo, pitch, and echo.

Each training clip is augmented with probability p_aug; when it is, all
three effects are applied with parameters drawn uniformly from the
policy ranges. Tempo uses waveform-similarity overlap-add so pitch is
preserved (lag search by direct normalized cross-correlation); pitch
shifting resamples and then restores the duration with the same
machinery; echo is a single normalized delay tap. numpy is imported by
the functions that use it, so importing this module does not load it.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from .audio import AudioClip, _owned, _sinc_resample
from .ioutil import record

if TYPE_CHECKING:
    import numpy as np

WINDOW_MS = 30.0
SEARCH_MS = 10.0
WSOLA_BLOCK = 32  # frames per batch of energies, score scales and overlap-add; 64 measured 1.1 MB more peak RSS
# Scores lie in +-||natural||; a tolerance on that scale, unlike one relative
# to the best score, also ties lags whose correlation is exactly 0.
TIE_RTOL = 1e-9

# each effect parameter's limits as messages print them, and a test of one value that is false for nan
LIMITS = {
    "tempo_range": ("[0.5, 2]", lambda v: 0.5 <= v <= 2.0),
    "pitch_range_cents": ("[-1200, 1200]", lambda v: -1200.0 <= v <= 1200.0),
    "echo_delay_ms_range": ("[0, inf)", lambda v: 0.0 <= v < math.inf),
    "echo_decay_range": ("[0, 1)", lambda v: 0.0 <= v < 1.0),
}


class AugmentPolicy(
    record("AugmentPolicy", "p_aug tempo_range pitch_range_cents echo_delay_ms_range echo_decay_range")
):
    """Ranges for the three effects plus the per-clip augmentation rate."""

    __slots__ = ()

    def __new__(cls, p_aug=0.8, tempo_range=(0.85, 1.3), pitch_range_cents=(-300.0, 300.0),
                echo_delay_ms_range=(20.0, 200.0), echo_decay_range=(0.05, 0.2)):
        if not 0.0 <= p_aug <= 1.0:
            raise ValueError(f"p_aug must be in [0, 1], got {p_aug}")
        self = tuple.__new__(cls, (p_aug, tempo_range, pitch_range_cents, echo_delay_ms_range, echo_decay_range))
        # uniform() can return either end, so both ends must suit the effect
        for name, (legal, within) in LIMITS.items():
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: min {lo} exceeds max {hi}")
            if not (within(lo) and within(hi)):
                raise ValueError(f"{name} must lie within {legal}, got ({lo}, {hi})")
        return self


class EffectParams(record("EffectParams", "tempo pitch_cents echo_delay_ms echo_decay")):
    """One clip's drawn effect parameters."""

    __slots__ = ()


def sample_params(policy: AugmentPolicy, rng: random.Random):
    """Draw effect parameters, or None for the unaugmented case.

    With probability p_aug the clip is augmented, in which case all
    three effects apply and each parameter is uniform over its range.
    """
    if rng.random() >= policy.p_aug:
        return None
    return EffectParams(
        tempo=rng.uniform(*policy.tempo_range),
        pitch_cents=rng.uniform(*policy.pitch_range_cents),
        echo_delay_ms=rng.uniform(*policy.echo_delay_ms_range),
        echo_decay=rng.uniform(*policy.echo_decay_range),
    )


def _window_len(rate: int) -> int:
    w = int(round(rate * WINDOW_MS / 1000.0))
    return max(w + (w % 2), 2)  # even, so half-overlap adds to unity


def _wsola(x: np.ndarray, rate: int, factor: float) -> np.ndarray:
    """Time-scale x by 1/factor without changing pitch.

    30 ms periodic-Hann windows at 50% synthesis overlap; each analysis
    window may slide within a +-10 ms tolerance to the lag that best
    continues the previous output window. x is padded by tol zeros in front,
    so frame k's search segment is row k of one strided view. Per block of
    frames, the segments' running energies (a cumsum of x^2 each) and score
    scales (1 / root energy; 0 without energy, so round-off next to silence
    cannot outrank a real lag) take one call each. A frame's normalized
    cross-correlation is then one np.correlate of its segment with the
    natural continuation, over the lags from x[0] on. That is O(tol * w):
    about half an FFT search's time at 16 kHz, but slower at 44.1 kHz.
    Lags within TIE_RTOL * ||natural|| of the best score tie and the
    earliest wins, so the choice does not hang on summation order. Each
    block's chosen windows are overlap-added after its search.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    w = _window_len(rate)
    hs = w // 2
    ha = int(round(hs * factor))
    n = len(x)
    if n <= w or ha <= 0:
        return x.copy()  # shorter than one window: within tolerance as-is
    tol = int(round(rate * SEARCH_MS / 1000.0))
    n_frames = (n - w) // ha + 1
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(w) / w)
    xp = np.concatenate([np.zeros(tol), x, np.zeros(w + hs + tol)])
    segments = sliding_window_view(xp, 2 * tol + w)[::ha]  # row k starts tol before frame k's target
    src = tol
    starts = np.full(n_frames, tol)  # chosen window starts in xp
    acc = np.zeros((n_frames + 1, hs))  # row j: first half of window j plus second half of window j - 1
    for b0 in range(0, n_frames, WSOLA_BLOCK):
        seg = segments[b0 : min(b0 + WSOLA_BLOCK, n_frames)]
        csum = np.cumsum(np.pad(seg * seg, ((0, 0), (1, 0))), axis=1)
        energy = np.maximum(csum[:, w:] - csum[:, : 2 * tol + 1], 0.0)
        scale = np.divide(1.0, np.sqrt(energy) + 1e-12, out=np.zeros_like(energy), where=energy > 0)
        for k in range(max(b0, 1), b0 + len(seg)):
            skip = max(tol - k * ha, 0)  # lags before x[0]
            natural = xp[src + hs : src + hs + w]
            score = np.correlate(seg[k - b0, skip:], natural)
            score *= scale[k - b0, skip:]
            tie = TIE_RTOL * math.sqrt(natural @ natural)
            src = starts[k] = k * ha + skip + (score >= score.max() - tie).argmax()
        chosen = sliding_window_view(xp, w)[starts[b0 : b0 + len(seg)]]
        acc[b0 : b0 + len(seg)] += chosen[:, :hs] * win[:hs]
        acc[b0 + 1 : b0 + 1 + len(seg)] += chosen[:, hs:] * win[hs:]
    # renormalize the window taper; keep near-zero-weight edges silent
    for rows, den in ((acc[:1], win[:hs]), (acc[1:-1], win[hs:] + win[:hs]), (acc[-1:], win[hs:])):
        np.divide(rows, den, out=rows, where=den > 1e-3)
    return acc.reshape(-1)


def tempo(clip: AudioClip, factor: float) -> AudioClip:
    """Change speed by ``factor`` (duration becomes 1/factor) at fixed pitch."""
    if not LIMITS["tempo_range"][1](factor):
        raise ValueError(f"tempo factor must be in [0.5, 2], got {factor}")
    if factor == 1.0:
        return clip
    return AudioClip(_owned(_wsola(clip.samples, clip.sample_rate, factor)), clip.sample_rate)


def pitch(clip: AudioClip, cents: float) -> AudioClip:
    """Shift pitch by ``cents`` (100 per semitone) at fixed duration.

    Resamples by 2^(cents/1200), which scales both pitch and duration,
    then time-stretches the duration back.
    """
    if not LIMITS["pitch_range_cents"][1](cents):
        raise ValueError(f"pitch shift must be within +-1200 cents, got {cents}")
    if cents == 0:
        return clip
    factor = 2.0 ** (cents / 1200.0)
    shifted = _sinc_resample(clip.samples, factor, 1.0)  # length /factor, pitch *factor
    restored = _wsola(shifted, clip.sample_rate, 1.0 / factor)
    return AudioClip(_owned(restored), clip.sample_rate)


def echo(clip: AudioClip, delay_ms: float, decay: float) -> AudioClip:
    """Mix in one delayed copy: y[n] = (x[n] + decay*x[n-D]) / (1 + decay)."""
    if not LIMITS["echo_delay_ms_range"][1](delay_ms):
        raise ValueError(f"delay must be >= 0 ms, got {delay_ms}")
    if not LIMITS["echo_decay_range"][1](decay):
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    d = int(round(min(delay_ms * clip.sample_rate / 1000.0, len(clip.samples))))  # past the end: no copy
    y = clip.samples.copy()
    if decay != 0.0:
        if d == 0:
            y += decay * clip.samples
        elif d < len(y):
            y[d:] += decay * clip.samples[:-d]
        y /= 1.0 + decay
    return AudioClip(_owned(y), clip.sample_rate)


def apply_augmentation(clip: AudioClip, params: EffectParams) -> AudioClip:
    """Apply tempo, then pitch, then echo; None passes the clip through.

    Echo comes last so the simulated room acts on the already-warped
    utterance. Deterministic given params.
    """
    if params is None:
        return clip
    out = tempo(clip, params.tempo)
    out = pitch(out, params.pitch_cents)
    return echo(out, params.echo_delay_ms, params.echo_decay)

"""Waveform augmentation: tempo, pitch, and echo.

Each training clip is augmented with probability p_aug; when it is, all
three effects are applied with parameters drawn uniformly from the
policy ranges. Tempo uses waveform-similarity overlap-add so pitch is
preserved (normalized cross-correlation lag search, by FFT and a running
energy sum); pitch shifting resamples and then restores the duration
with the same machinery; echo is a single normalized delay tap.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, _sinc_resample

WINDOW_MS = 30.0
SEARCH_MS = 10.0
# Scores lie in +-||natural||; a tolerance on that scale, unlike one relative
# to the best score, also ties lags whose correlation is exactly 0.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class AugmentPolicy:
    """Ranges for the three effects plus the per-clip augmentation rate."""

    p_aug: float = 0.8
    tempo_range: tuple = (0.85, 1.3)
    pitch_range_cents: tuple = (-300.0, 300.0)
    echo_delay_ms_range: tuple = (20.0, 200.0)
    echo_decay_range: tuple = (0.05, 0.2)

    def __post_init__(self):
        if not 0.0 <= self.p_aug <= 1.0:
            raise ValueError(f"p_aug must be in [0, 1], got {self.p_aug}")
        # uniform() can return either end, so both ends must suit the effect
        for name, low, high, legal in (
            ("tempo_range", 0.5, 2.0, "[0.5, 2]"),
            ("pitch_range_cents", -1200.0, 1200.0, "[-1200, 1200]"),
            ("echo_delay_ms_range", 0.0, math.inf, "[0, inf)"),
            ("echo_decay_range", 0.0, math.nextafter(1.0, 0.0), "[0, 1)"),
        ):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: min {lo} exceeds max {hi}")
            if not low <= lo <= hi <= high:
                raise ValueError(f"{name} must lie within {legal}, got ({lo}, {hi})")


@dataclass(frozen=True)
class EffectParams:
    tempo: float
    pitch_cents: float
    echo_delay_ms: float
    echo_decay: float


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
    continues the previous output window. The score is normalized
    cross-correlation: an FFT correlation with the natural continuation
    over the root of each window's energy, a difference of one cumsum of
    x^2 over the search segment. A window without energy scores exactly
    0, so FFT round-off next to silence cannot outrank a real lag. Lags
    within TIE_RTOL * ||natural|| of the best score tie and the earliest
    wins, so the choice does not hang on summation order.
    """
    w = _window_len(rate)
    hs = w // 2
    ha = int(round(hs * factor))
    n = len(x)
    if n <= w or ha <= 0:
        return x.copy()  # shorter than one window: within tolerance as-is
    tol = int(round(rate * SEARCH_MS / 1000.0))
    nfft = 1 << (2 * tol + w - 1).bit_length()  # holds a whole segment: no wrap-around
    n_frames = (n - w) // ha + 1
    out_len = (n_frames - 1) * hs + w
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(w) / w)
    acc = np.zeros(out_len)
    den = np.zeros(out_len)
    xp = np.concatenate([x, np.zeros(w + hs + tol)])
    src = 0
    for k in range(n_frames):
        target = k * ha
        if k > 0:
            natural = xp[src + hs : src + hs + w]
            lo = max(target - tol, 0)
            seg = xp[lo : target + tol + w]
            m = len(seg) - w + 1
            spec = np.fft.rfft(seg, nfft) * np.fft.rfft(natural, nfft).conj()
            corr = np.fft.irfft(spec, nfft)[:m]
            csum = np.concatenate(([0.0], np.cumsum(seg * seg)))
            energy = np.maximum(csum[w:] - csum[:m], 0.0)
            score = np.where(energy > 0, corr / (np.sqrt(energy) + 1e-12), 0.0)
            tie = TIE_RTOL * np.sqrt(natural @ natural)
            src = lo + int(np.argmax(score >= score.max() - tie))
        frame = xp[src : src + w]
        acc[k * hs : k * hs + w] += frame * win
        den[k * hs : k * hs + w] += win
    # renormalize the window taper; keep near-zero-weight edges silent
    safe = den > 1e-3
    acc[safe] /= den[safe]
    return acc


def tempo(clip: AudioClip, factor: float) -> AudioClip:
    """Change speed by ``factor`` (duration becomes 1/factor) at fixed pitch."""
    if not 0.5 <= factor <= 2.0:
        raise ValueError(f"tempo factor must be in [0.5, 2], got {factor}")
    if factor == 1.0:
        return clip
    return AudioClip(_wsola(clip.samples, clip.sample_rate, factor), clip.sample_rate)


def pitch(clip: AudioClip, cents: float) -> AudioClip:
    """Shift pitch by ``cents`` (100 per semitone) at fixed duration.

    Resamples by 2^(cents/1200), which scales both pitch and duration,
    then time-stretches the duration back.
    """
    if abs(cents) > 1200:
        raise ValueError(f"pitch shift must be within +-1200 cents, got {cents}")
    if cents == 0:
        return clip
    factor = 2.0 ** (cents / 1200.0)
    shifted = _sinc_resample(clip.samples, factor, 1.0)  # length /factor, pitch *factor
    restored = _wsola(shifted, clip.sample_rate, 1.0 / factor)
    return AudioClip(restored, clip.sample_rate)


def echo(clip: AudioClip, delay_ms: float, decay: float) -> AudioClip:
    """Mix in one delayed copy: y[n] = (x[n] + decay*x[n-D]) / (1 + decay)."""
    if delay_ms < 0:
        raise ValueError(f"delay must be >= 0 ms, got {delay_ms}")
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    d = int(round(delay_ms * clip.sample_rate / 1000.0))
    y = clip.samples.copy()
    if decay != 0.0:
        if d == 0:
            y += decay * clip.samples
        elif d < len(y):
            y[d:] += decay * clip.samples[:-d]
        y /= 1.0 + decay
    return AudioClip(y, clip.sample_rate)


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

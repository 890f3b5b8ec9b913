"""Tempo, pitch, and echo effects plus the random augmentation policy."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stforge import audio, augment
from stforge.audio import AudioClip, extract_segment, load_wav, normalize_zero_mean_unit_var, resample, write_wav
from stforge.augment import (
    SEARCH_MS,
    WINDOW_MS,
    WSOLA_BLOCK,
    AugmentPolicy,
    EffectParams,
    _window_len,
    _wsola,
    apply_augmentation,
    echo,
    pitch,
    sample_params,
    tempo,
)

from oracles import fft_peak_hz, wsola_reference

RATE = 16000
WINDOW_S = WINDOW_MS / 1000.0


def sine(freq=440.0, seconds=1.0, amp=0.5, rate=RATE):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def noise(seconds=1.0, seed=0, rate=RATE):
    rng = np.random.default_rng(seed)
    return AudioClip(0.2 * rng.standard_normal(int(seconds * rate)), rate)


class TestTempo:
    def test_factor_one_is_identity(self):
        clip = sine()
        assert tempo(clip, 1.0) is clip

    def test_duration_law(self):
        clip = sine(seconds=2.0)
        for factor in (0.85, 0.95, 1.1, 1.3, 2.0, 0.5):
            out = tempo(clip, factor)
            assert abs(out.duration - clip.duration / factor) <= 2 * WINDOW_S, factor

    def test_reference_duration_window(self):
        out = tempo(sine(seconds=2.0), 1.3)
        assert 1.478 <= out.duration <= 1.598

    def test_pitch_is_preserved(self):
        clip = sine(440.0, seconds=2.0)
        for factor in (0.85, 1.3):
            out = tempo(clip, factor)
            assert abs(fft_peak_hz(out.samples, RATE) - 440.0) < 10.0, factor

    def test_rate_unchanged(self):
        out = tempo(sine(), 1.2)
        assert out.sample_rate == RATE

    def test_tiny_clip_passthrough(self):
        short = AudioClip(np.ones(100) * 0.1, RATE)  # under one window
        out = tempo(short, 1.3)
        np.testing.assert_array_equal(out.samples, short.samples)

    def test_factor_bounds(self):
        with pytest.raises(ValueError):
            tempo(sine(), 0.4)
        with pytest.raises(ValueError):
            tempo(sine(), 2.5)

    def test_deterministic(self):
        clip = noise(seconds=1.0)
        a = tempo(clip, 1.17)
        b = tempo(clip, 1.17)
        np.testing.assert_array_equal(a.samples, b.samples)


def wsola_input(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "sine":  # 400 Hz: lags one 40-sample period apart tie exactly
        return 0.5 * np.sin(2 * np.pi * np.arange(n) / 40)
    x = 0.2 * rng.standard_normal(n)
    if kind == "gaps":  # silent lead-in, tail and stretches inside
        x[: rng.integers(0, 2000)] = 0.0
        x[n - rng.integers(0, 2000) :] = 0.0
        for start in rng.integers(0, n, size=3):
            x[start : start + rng.integers(0, 3000)] = 0.0
    return x


class TestWsolaSearch:
    @given(
        st.sampled_from(["noise", "gaps", "zeros", "sine"]),
        st.sampled_from([8000, 16000, 22050, 44100]),  # window and tolerance both change
        st.integers(1, 20000),
        st.floats(0.5, 2.0),
        st.integers(0, 2**32 - 1),
    )
    # beside silence: frames whose correlations are all exactly 0, and all-zero windows
    @example(kind="gaps", rate=RATE, n=8000, factor=1.75, seed=4)
    @example(kind="sine", rate=RATE, n=16000, factor=1.3, seed=0)
    @example(kind="zeros", rate=RATE, n=4000, factor=0.5, seed=0)
    @example(kind="noise", rate=RATE, n=480, factor=2.0, seed=0)  # one window: passed through
    @settings(max_examples=60, deadline=None)
    def test_matches_candidate_matrix_reference(self, kind, rate, n, factor, seed):
        x = wsola_input(kind, n, seed)
        assert np.array_equal(_wsola(x, rate, factor), wsola_reference(x, rate, factor))

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
    @pytest.mark.parametrize("factor", [0.5, 0.55, 0.6, 0.66])
    def test_search_that_starts_before_the_signal(self, rate, factor):
        hs = _window_len(rate) // 2
        lead = int(round(rate * SEARCH_MS / 1000.0)) - int(round(hs * factor))
        assert lead > 0  # frame 1's search would start lead samples before x[0]
        # noise repeating every hs + lead samples at 0.95 of the level before,
        # silent for the last lead samples of each period: the window that
        # starts lead samples before x[0], zero-filled, is the natural
        # continuation over 0.95, ties it and, as the earliest lag, would win
        # if it were a candidate
        period = wsola_input("noise", hs + lead, seed=int(100 * factor))
        period[hs:] = 0.0
        x = np.resize(period, rate) * 0.95 ** (np.arange(rate) // (hs + lead))
        assert np.array_equal(_wsola(x, rate, factor), wsola_reference(x, rate, factor))

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_frame_counts_at_block_boundaries(self, blocks, extra):
        # w = 480, hop 264 at factor 1.1: n_frames = (n - w) // 264 + 1
        n_frames = blocks * WSOLA_BLOCK + extra
        x = wsola_input("gaps", 480 + (n_frames - 1) * 264 + 100, seed=n_frames)
        assert np.array_equal(_wsola(x, RATE, 1.1), wsola_reference(x, RATE, 1.1))

    def test_block_size_does_not_change_output(self, monkeypatch):
        x = wsola_input("gaps", 3 * WSOLA_BLOCK * 240 + 7, seed=5)
        for factor in (0.5, 0.9, 1.3, 2.0):
            blocked = _wsola(x, RATE, factor)
            for block in (1, 7, 16 * len(x)):
                with monkeypatch.context() as m:
                    m.setattr(augment, "WSOLA_BLOCK", block)
                    np.testing.assert_array_equal(_wsola(x, RATE, factor), blocked)

    @pytest.mark.parametrize("factor, bound", [(0.5, 4.0), (1.3, 2.5)])
    def test_memory_stays_near_input_plus_output(self, factor, bound):
        # 60 s in, 2x or 0.77x out: the padded input, the output and per-block
        # buffers, with no (frames x window) array
        x = noise(seconds=60.0, seed=9).samples
        tracemalloc.start()
        try:
            _wsola(x, RATE, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * x.nbytes


class TestPitch:
    def test_zero_cents_is_identity(self):
        clip = sine()
        assert pitch(clip, 0.0) is clip

    def test_up_300_cents(self):
        out = pitch(sine(440.0, seconds=2.0), 300.0)
        want = 440.0 * 2 ** (300 / 1200)  # 523.25 Hz
        assert abs(fft_peak_hz(out.samples, RATE) - want) <= 0.02 * want

    def test_down_300_cents(self):
        out = pitch(sine(440.0, seconds=2.0), -300.0)
        want = 440.0 * 2 ** (-300 / 1200)  # 369.99 Hz
        assert abs(fft_peak_hz(out.samples, RATE) - want) <= 0.02 * want

    def test_octave_up(self):
        out = pitch(sine(300.0, seconds=2.0), 1200.0)
        assert abs(fft_peak_hz(out.samples, RATE) - 600.0) <= 12.0

    def test_duration_approximately_preserved(self):
        clip = sine(seconds=2.0)
        for cents in (-300.0, -100.0, 150.0, 300.0):
            out = pitch(clip, cents)
            assert abs(out.duration - clip.duration) <= 2 * WINDOW_S, cents

    def test_cents_bounds(self):
        with pytest.raises(ValueError):
            pitch(sine(), 1300.0)
        with pytest.raises(ValueError):
            pitch(sine(), -1201.0)

    def test_nan_cents_rejected(self):
        # used to fail as "cannot convert float NaN to integer" in the resampler
        with pytest.raises(ValueError, match="^pitch shift must be within [+]-1200 cents, got nan$"):
            pitch(sine(), math.nan)


class TestEcho:
    def test_impulse_response(self):
        imp = np.zeros(4000)
        imp[0] = 1.0
        out = echo(AudioClip(imp, RATE), delay_ms=100.0, decay=0.2)
        # direct path plus one reflection, renormalized by 1 + decay
        assert out.samples[0] == pytest.approx(1.0 / 1.2)
        assert out.samples[1600] == pytest.approx(0.2 / 1.2)
        assert np.count_nonzero(out.samples) == 2

    def test_zero_decay_is_exact_identity(self):
        clip = noise(seconds=0.5, seed=3)
        out = echo(clip, delay_ms=80.0, decay=0.0)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_amplitude_never_grows(self):
        clip = noise(seconds=0.5, seed=4)
        for delay, decay in ((20.0, 0.05), (100.0, 0.2), (200.0, 0.5)):
            out = echo(clip, delay, decay)
            assert np.max(np.abs(out.samples)) <= np.max(np.abs(clip.samples)) + 1e-12

    def test_length_unchanged(self):
        clip = noise(seconds=0.3, seed=5)
        assert len(echo(clip, 50.0, 0.1)) == len(clip)

    def test_delay_longer_than_clip(self):
        clip = noise(seconds=0.1, seed=6)  # 1600 samples, delay 3200
        out = echo(clip, 200.0, 0.2)
        np.testing.assert_allclose(out.samples, clip.samples / 1.2)

    @pytest.mark.parametrize("delay_ms", [1e300, 1e308, 1.7976931348623157e308])
    def test_huge_finite_delay_adds_no_copy(self, delay_ms):
        # delay_ms * rate overflowed to inf, and rounding it to a sample count raised OverflowError
        clip = noise(seconds=0.1, seed=6)
        np.testing.assert_array_equal(echo(clip, delay_ms, 0.2).samples, clip.samples / 1.2)

    def test_delay_rounding_at_the_clip_end(self):
        clip = noise(seconds=0.1, seed=6)  # 1600 samples; 1 ms is 16 of them
        near = echo(clip, 1599.4 / 16, 0.2).samples  # rounds to 1599: one delayed sample
        np.testing.assert_array_equal(near[:-1], clip.samples[:-1] / 1.2)
        assert near[-1] == (clip.samples[-1] + 0.2 * clip.samples[0]) / 1.2
        np.testing.assert_array_equal(echo(clip, 1599.6 / 16, 0.2).samples, clip.samples / 1.2)  # rounds to 1600

    @pytest.mark.parametrize("delay_ms", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay_ms):
        # nan failed converting to a sample count, inf overflowed it
        with pytest.raises(ValueError, match=f"^delay must be >= 0 ms, got {delay_ms}$"):
            echo(noise(seconds=0.1), delay_ms, 0.1)

    def test_linearity_in_input(self):
        clip = noise(seconds=0.2, seed=7)
        doubled = AudioClip(clip.samples * 2.0, RATE)
        a = echo(doubled, 60.0, 0.15)
        b = echo(clip, 60.0, 0.15)
        # scaling by a power of two is exact in floating point
        np.testing.assert_array_equal(a.samples, b.samples * 2.0)


class TestPolicy:
    def test_defaults_match_operating_point(self):
        p = AugmentPolicy()
        assert p.p_aug == 0.8
        assert p.tempo_range == (0.85, 1.3)
        assert p.pitch_range_cents == (-300, 300)
        assert p.echo_delay_ms_range == (20, 200)
        assert p.echo_decay_range == (0.05, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentPolicy(p_aug=1.5)
        with pytest.raises(ValueError):
            AugmentPolicy(tempo_range=(1.3, 0.85))
        with pytest.raises(ValueError):
            AugmentPolicy(tempo_range=(0.0, 1.0))

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("tempo_range", (1.0, 2.05)),
            ("tempo_range", (0.45, 1.0)),
            ("tempo_range", (2.1, 2.5)),
            ("pitch_range_cents", (-1300.0, 0.0)),
            ("pitch_range_cents", (0.0, 1200.5)),
            ("echo_delay_ms_range", (-5.0, 20.0)),
            ("echo_decay_range", (0.0, 1.02)),
            ("echo_decay_range", (0.1, 1.0)),  # uniform() can return the high end
            ("echo_decay_range", (-0.1, 0.2)),
            ("tempo_range", (math.nan, 1.0)),
            ("echo_delay_ms_range", (0.0, math.inf)),  # its message says [0, inf); an inf delay overflowed
        ],
    )
    def test_range_outside_effect_limits_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            AugmentPolicy(**{field: bad})

    def test_ranges_at_effect_limits_accepted(self):
        AugmentPolicy(
            tempo_range=(0.5, 2.0),
            pitch_range_cents=(-1200.0, 1200.0),
            echo_delay_ms_range=(0.0, 1e6),
            echo_decay_range=(0.0, 0.999),
        )

    def test_sample_none_when_skipped(self):
        never = AugmentPolicy(p_aug=0.0)
        rng = random.Random(0)
        assert all(sample_params(never, rng) is None for _ in range(50))

    def test_sampled_params_in_range(self):
        policy = AugmentPolicy(p_aug=1.0)
        rng = random.Random(1)
        for _ in range(500):
            params = sample_params(policy, rng)
            assert 0.85 <= params.tempo <= 1.3
            assert -300 <= params.pitch_cents <= 300
            assert 20 <= params.echo_delay_ms <= 200
            assert 0.05 <= params.echo_decay <= 0.2

    def test_empirical_rate_near_p_aug(self):
        policy = AugmentPolicy()
        rng = random.Random(2)
        hits = sum(sample_params(policy, rng) is not None for _ in range(10_000))
        assert 0.78 <= hits / 10_000 <= 0.82

    def test_same_rng_state_same_draw(self):
        policy = AugmentPolicy()
        a = sample_params(policy, random.Random(42))
        b = sample_params(policy, random.Random(42))
        assert a == b


class TestApplyAugmentation:
    def test_none_params_passthrough(self):
        clip = sine()
        assert apply_augmentation(clip, None) is clip

    def test_neutral_params_identity(self):
        clip = sine()
        neutral = EffectParams(tempo=1.0, pitch_cents=0.0, echo_delay_ms=50.0, echo_decay=0.0)
        out = apply_augmentation(clip, neutral)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_chain_changes_duration_by_tempo_only(self):
        clip = sine(seconds=2.0)
        params = EffectParams(tempo=1.25, pitch_cents=150.0, echo_delay_ms=40.0, echo_decay=0.1)
        out = apply_augmentation(clip, params)
        # pitch and echo are duration-neutral up to WSOLA window slack
        assert abs(out.duration - 2.0 / 1.25) <= 4 * WINDOW_S

    def test_deterministic(self):
        clip = noise(seconds=1.0, seed=8)
        params = EffectParams(tempo=0.9, pitch_cents=-120.0, echo_delay_ms=90.0, echo_decay=0.12)
        a = apply_augmentation(clip, params)
        b = apply_augmentation(clip, params)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_amplitude_stays_bounded(self):
        clip = sine(amp=0.8, seconds=1.5)
        rng = random.Random(9)
        policy = AugmentPolicy(p_aug=1.0)
        for _ in range(20):
            out = apply_augmentation(clip, sample_params(policy, rng))
            assert np.max(np.abs(out.samples)) <= 1.0

    def test_fresh_outputs_reach_the_clip_read_only(self, monkeypatch, tmp_path):
        # each producer freezes the array it has just computed, so AudioClip shares it instead of copying it
        clip, silence, path = noise(seconds=0.5), AudioClip(np.zeros(800), RATE), tmp_path / "a.wav"
        write_wav(path, clip)
        params = EffectParams(tempo=1.1, pitch_cents=200.0, echo_delay_ms=50.0, echo_decay=0.1)
        producers = {
            "load_wav": lambda: load_wav(path),
            "resample": lambda: resample(clip, 8000),
            "normalize": lambda: normalize_zero_mean_unit_var(clip),
            "normalize silence": lambda: normalize_zero_mean_unit_var(silence),
            "extract_segment": lambda: extract_segment(clip, 0.1, 0.2),
            "tempo": lambda: tempo(clip, 1.1),
            "pitch": lambda: pitch(clip, 200.0),
            "echo": lambda: echo(clip, 50.0, 0.1),
            "apply_augmentation": lambda: apply_augmentation(clip, params),
        }
        writable, as_readonly = [], audio._as_readonly

        def spy(samples):
            writable.append(samples.flags.writeable)
            return as_readonly(samples)

        monkeypatch.setattr(audio, "_as_readonly", spy)
        for name, produce in producers.items():
            writable.clear()
            produce()
            assert writable and not any(writable), name

"""Audio container, WAV round-trips, resampling, normalization, cutting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stforge.audio import (
    RESAMPLE_BLOCK,
    AudioClip,
    AudioError,
    extract_segment,
    load_wav,
    normalize_zero_mean_unit_var,
    resample,
    write_wav,
    _sinc_resample,
)

from oracles import fft_peak_hz, sinc_resample


def sine(freq=440.0, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


class TestAudioClip:
    def test_samples_are_float64_and_readonly(self):
        clip = AudioClip(np.array([0.0, 0.5, -0.5], dtype=np.float32), 8000)
        assert clip.samples.dtype == np.float64
        with pytest.raises(ValueError):
            clip.samples[0] = 1.0

    def test_duration(self):
        assert AudioClip(np.zeros(16000), 16000).duration == 1.0
        assert AudioClip(np.zeros(8000), 16000).duration == 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros((2, 100)), 16000)
        with pytest.raises(ValueError):
            AudioClip(np.zeros(100), 0)

    def test_len(self):
        assert len(AudioClip(np.zeros(123), 16000)) == 123


class TestWavIO:
    def test_pcm16_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        # quantize first so the round trip has no rounding left to do
        quantized = np.round(rng.uniform(-1, 1, 4000) * 32768).clip(-32768, 32767) / 32768.0
        path = tmp_path / "q.wav"
        write_wav(path, AudioClip(quantized, 16000))
        back = load_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, quantized)

    def test_float32_roundtrip(self, tmp_path):
        clip = sine(seconds=0.25)
        path = tmp_path / "f.wav"
        write_wav(path, clip, encoding="float32")
        back = load_wav(path)
        np.testing.assert_allclose(back.samples, clip.samples, atol=1e-7)

    def test_write_accepts_file_object(self, tmp_path):
        clip = sine(seconds=0.1)
        path = tmp_path / "obj.wav"
        with open(path, "wb") as fh:
            write_wav(fh, clip)
        assert load_wav(path).sample_rate == clip.sample_rate

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioError, match="no such file"):
            load_wav(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(AudioError):
            load_wav(path)

    def test_unknown_encoding_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="encoding"):
            write_wav(tmp_path / "x.wav", sine(seconds=0.1), encoding="pcm24")


class TestResample:
    def test_same_rate_is_identity(self):
        clip = sine()
        assert resample(clip, clip.sample_rate) is clip

    def test_output_length(self):
        clip = sine(seconds=1.0, rate=16000)
        assert len(resample(clip, 8000)) == 8000
        assert len(resample(clip, 22050)) == 22050

    def test_tone_survives_downsampling(self):
        clip = sine(440.0, seconds=1.0, rate=16000)
        down = resample(clip, 8000)
        assert abs(fft_peak_hz(down.samples, 8000) - 440.0) < 5.0

    def test_tone_survives_upsampling(self):
        clip = sine(440.0, seconds=1.0, rate=8000)
        up = resample(clip, 16000)
        assert abs(fft_peak_hz(up.samples, 16000) - 440.0) < 5.0

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            resample(sine(), -1)

    @given(
        st.sampled_from([RESAMPLE_BLOCK - 1, RESAMPLE_BLOCK, RESAMPLE_BLOCK + 1, 3 * RESAMPLE_BLOCK + 7]),
        st.sampled_from([(16000, 16000), (16000, 8000), (8000, 16000), (16000, 22050), (44100, 16000)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_blocked_matches_one_block_reference(self, out_len, rates, seed):
        in_rate, out_rate = rates
        n = round(out_len * in_rate / out_rate)  # output length within one row of out_len
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        got = _sinc_resample(x, in_rate, out_rate)
        assert abs(len(got) - out_len) <= 1
        np.testing.assert_array_equal(got, sinc_resample(x, in_rate, out_rate))


class TestNormalize:
    def test_zero_mean_unit_var(self):
        rng = np.random.default_rng(1)
        clip = AudioClip(rng.uniform(-0.3, 0.7, 5000), 16000)
        out = normalize_zero_mean_unit_var(clip)
        assert abs(out.samples.mean()) < 1e-12
        assert abs(np.mean(out.samples**2) - 1.0) < 1e-12

    def test_constant_clip_becomes_silence(self):
        out = normalize_zero_mean_unit_var(AudioClip(np.full(100, 0.25), 16000))
        np.testing.assert_array_equal(out.samples, np.zeros(100))

    def test_too_short(self):
        with pytest.raises(ValueError):
            normalize_zero_mean_unit_var(AudioClip(np.zeros(1), 16000))


class TestExtractSegment:
    def test_cuts_expected_samples(self):
        clip = AudioClip(np.arange(16000, dtype=np.float64) / 16000.0, 16000)
        seg = extract_segment(clip, 0.25, 0.5)
        assert len(seg) == 8000
        np.testing.assert_array_equal(seg.samples, clip.samples[4000:12000])

    def test_full_clip(self):
        clip = sine(seconds=0.5)
        seg = extract_segment(clip, 0.0, clip.duration)
        np.testing.assert_array_equal(seg.samples, clip.samples)

    def test_out_of_range(self):
        clip = sine(seconds=0.5)
        with pytest.raises(ValueError, match="out of range"):
            extract_segment(clip, 0.4, 0.2)
        with pytest.raises(ValueError):
            extract_segment(clip, -0.1, 0.1)

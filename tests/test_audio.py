"""Audio container, WAV round-trips, resampling, normalization, cutting."""

import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stforge import audio
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

    @pytest.mark.parametrize(
        "rate",
        [16000.5, 16000.0, np.float64(16000), True, np.True_, "16000"],
        ids=["fraction", "float", "numpy-float", "bool", "numpy-bool", "str"],
    )
    def test_rejects_non_integer_rate(self, rate):
        # a fractional rate used to pass here and fail later, in write_wav, as a bare struct.error
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            AudioClip(np.zeros(10), rate)

    @pytest.mark.parametrize("rate", [np.int16(8000), np.int64(16000), np.uint32(44100)])
    def test_numpy_integer_rate_is_stored_as_int(self, tmp_path, rate):
        clip = AudioClip(np.zeros(10), rate)
        assert type(clip.sample_rate) is int and clip.sample_rate == rate
        path = tmp_path / "rate.wav"
        write_wav(path, clip)
        assert struct.unpack_from("<I", path.read_bytes(), 24) == (rate,)

    def test_len(self):
        assert len(AudioClip(np.zeros(123), 16000)) == 123

    def test_does_not_freeze_or_alias_callers_array(self):
        a = np.zeros(10)
        clip = AudioClip(a, 16000)
        assert a.flags.writeable
        a[0] = 1.0
        assert clip.samples[0] == 0.0

    def test_read_only_float64_samples_are_shared(self):
        clip = AudioClip(np.arange(5.0), 16000)
        assert AudioClip(clip.samples, 8000).samples is clip.samples


def riff(*chunks):
    """A RIFF/WAVE file from (id, payload) chunks, each padded to even length."""
    body = b"WAVE" + b"".join(
        struct.pack("<4sI", cid, len(payload)) + payload + b"\0" * (len(payload) % 2) for cid, payload in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt(tag=1, channels=1, rate=16000, bits=16, extra=b""):
    align = channels * bits // 8
    byte_rate = rate * align % 2**32  # wraps for rates no writer could store
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, byte_rate, align, bits) + extra


# WAVE_FORMAT_EXTENSIBLE tail: cbSize, valid bits, channel mask, then the KSDATAFORMAT_SUBTYPE_PCM GUID
EXTENSIBLE_PCM16 = struct.pack("<HHI", 22, 16, 4) + bytes.fromhex("0100000000001000800000aa00389b71")
PCM16 = struct.pack("<4h", 0, 16384, -32768, 32767)


class TestWavIO:
    @given(st.integers(0, 5000), st.sampled_from([8000, 16000, 22050, 44100, 48000]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pcm16_roundtrip_bit_exact(self, n, rate, seed):
        # int16-quantized samples, extremes included: the round trip has no rounding left to do
        ints = np.random.default_rng(seed).integers(-32768, 32768, n)
        ints[:2] = [-32768, 32767][:n]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "q.wav")
            write_wav(path, AudioClip(ints / 32768.0, rate))
            back = load_wav(path)
        assert back.sample_rate == rate
        np.testing.assert_array_equal(back.samples * 32768.0, ints)

    def test_writer_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "pinned.wav"
        write_wav(path, AudioClip(np.array([0.5, -1.5, 1.0]), 16000))
        assert path.read_bytes() == (
            b"RIFF*\x00\x00\x00WAVEfmt \x10\x00\x00\x00\x01\x00\x01\x00\x80>\x00\x00\x00}\x00\x00"
            b"\x02\x00\x10\x00data\x06\x00\x00\x00\x00@\x00\x80\xff\x7f"
        )

    def test_float32_roundtrip(self, tmp_path):
        clip = sine(seconds=0.25)
        payload = clip.samples.astype("<f4").tobytes()
        path = tmp_path / "f.wav"
        # float fmt carries a cbSize field; fact and an odd-sized LIST chunk come before data
        path.write_bytes(
            riff(fmt(tag=3, bits=32, extra=b"\0\0"), (b"fact", struct.pack("<I", len(clip))),
                 (b"LIST", b"INFOISFT\x03\0\0\0ab\0"), (b"data", payload))
        )
        back = load_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, clip.samples.astype(np.float32))

    def test_extensible_pcm16(self, tmp_path):
        path = tmp_path / "ext.wav"
        path.write_bytes(riff(fmt(tag=0xFFFE, extra=EXTENSIBLE_PCM16), (b"data", PCM16)))
        np.testing.assert_array_equal(load_wav(path).samples, [0.0, 0.5, -1.0, 32767 / 32768])

    @pytest.mark.parametrize(
        "body, message",
        [
            (riff(fmt(channels=2), (b"data", PCM16)), "non-mono \\(2 channels\\)"),
            (riff(fmt(bits=24), (b"data", PCM16[:6])), "unsupported encoding .* \\(need int16 or float32\\)"),
            (riff(fmt(), (b"data", PCM16))[:-3], "'data' chunk runs past the end of the file"),
            (riff(fmt(rate=0), (b"data", PCM16)), "sample rate 0"),
            (riff(fmt(rate=2**31), (b"data", PCM16)), "sample rate 2147483648 outside 1 \\.\\. 2147483647 Hz"),
            (riff(fmt(rate=3_000_000_000), (b"data", PCM16)), "sample rate 3000000000 outside"),
            (riff(fmt(tag=3, bits=32), (b"data", struct.pack("<2f", 0.5, float("nan")))), "non-finite float samples"),
            (riff(fmt(), (b"LIST", b"INFO")), "no 'data' chunk"),
            (riff((b"data", PCM16)), "no 'fmt ' chunk"),
        ],
        ids=["stereo", "24-bit", "truncated-data", "rate-0", "rate-2^31", "rate-3e9", "float-nan", "no-data", "no-fmt"],
    )
    def test_malformed_file_names_path(self, tmp_path, body, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(body)
        with pytest.raises(AudioError, match=re.escape(str(path)) + ": " + message):
            load_wav(path)

    def test_largest_rate_writes_back(self, tmp_path):
        path = tmp_path / "fast.wav"
        path.write_bytes(riff(fmt(rate=2**31 - 1), (b"data", PCM16)))
        back = tmp_path / "back.wav"
        write_wav(back, load_wav(path))
        assert back.read_bytes() == path.read_bytes()

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "clip.wav"
        write_wav(path, sine(seconds=0.1))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_wav(path, sine(freq=880.0, seconds=0.2))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["clip.wav"]  # no .tmp- file left behind

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite_samples(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        clip = AudioClip(np.array([0.0, bad, 0.5]), 16000)
        with pytest.raises(AudioError, match=re.escape(str(path)) + ": non-finite samples"):
            write_wav(path, clip)
        assert not path.exists()

    def test_write_rejects_rate_above_header_range(self, tmp_path):
        # 2 * rate is the header's uint32 byte rate; this used to fail as a bare struct.error
        path = tmp_path / "fast.wav"
        clip = AudioClip(np.zeros(4), 2**31)
        with pytest.raises(AudioError, match=re.escape(f"{path}: sample rate 2147483648 outside 1 .. 2147483647 Hz")):
            write_wav(path, clip)
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioError, match="no such file"):
            load_wav(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(AudioError):
            load_wav(path)


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

    @pytest.mark.parametrize("rate", [8000.5, 8000.0, True])
    def test_rejects_non_integer_target_rate(self, rate):
        with pytest.raises(ValueError, match="target_rate must be a positive integer"):
            resample(sine(), rate)

    def test_numpy_integer_target_rate(self):
        down = resample(sine(), np.int32(8000))
        assert type(down.sample_rate) is int and len(down) == 8000

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
        # the reference evaluates sinc and cos per tap; the kernel's angle-sum tables agree to rounding
        np.testing.assert_allclose(got, sinc_resample(x, in_rate, out_rate), rtol=0, atol=1e-12)

    def test_block_size_does_not_change_output(self, monkeypatch):
        x = np.random.default_rng(3).uniform(-1, 1, 3 * RESAMPLE_BLOCK + 7)
        for rates in [(16000, 16000), (16000, 8000), (8000, 16000), (16000, 22050), (44100, 16000)]:
            blocked = _sinc_resample(x, *rates)
            with monkeypatch.context() as m:
                m.setattr(audio, "RESAMPLE_BLOCK", 16 * len(x))
                np.testing.assert_array_equal(_sinc_resample(x, *rates), blocked)

    @given(
        st.one_of(
            st.tuples(st.integers(1000, 48000), st.integers(1000, 48000)),
            # small integer ratios put many output rows at an exact integer input time
            st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda pq: (4000 * pq[0], 4000 * pq[1])),
        ).filter(lambda r: 0.25 <= r[1] / r[0] <= 4),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    @example(rates=(16000, 8000), n=1000, seed=0)  # cutoff 0.5, every row at an integer time
    @example(rates=(8000, 16000), n=1000, seed=0)  # cutoff 1, every other row at an integer time
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_kernel(self, rates, n, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        np.testing.assert_allclose(_sinc_resample(x, *rates), sinc_resample(x, *rates), rtol=0, atol=1e-12)

    def test_output_time_just_below_an_integer(self):
        # row 324 of 16 kHz -> 10.8 kHz sits at t = 480 - 6e-14: a phase measured from floor(t)
        # cancels in the sinc's numerator there and is off by about 1e-3
        assert 479.9999 < 324 / (10800 / 16000) < 480
        x = np.random.default_rng(0).uniform(-1, 1, 3985)
        np.testing.assert_allclose(_sinc_resample(x, 16000, 10800), sinc_resample(x, 16000, 10800), rtol=0, atol=1e-12)

    @given(
        st.sampled_from([RESAMPLE_BLOCK - 1, RESAMPLE_BLOCK, RESAMPLE_BLOCK + 1, 3 * RESAMPLE_BLOCK + 7]),
        st.tuples(st.integers(1000, 48000), st.integers(1000, 48000)).filter(lambda r: 0.25 <= r[1] / r[0] <= 4),
        st.floats(-1, 1),
    )
    @example(out_len=RESAMPLE_BLOCK, rates=(16000, 8000), level=0.5)  # every row at an integer time
    @example(out_len=RESAMPLE_BLOCK + 1, rates=(8000, 32000), level=-1.0)  # every fourth row
    @settings(max_examples=40, deadline=None)
    def test_constant_input_keeps_its_level(self, out_len, rates, level):
        # each row's kernel is normalised to unity DC gain, so a constant passes unchanged
        # wherever all 64 taps floor(t) - 31 .. floor(t) + 32 lie inside the input
        in_rate, out_rate = rates
        n = round(out_len * in_rate / out_rate)
        got = _sinc_resample(np.full(n, level), in_rate, out_rate)
        base = np.floor(np.arange(len(got)) / (out_rate / in_rate))  # t as the resampler computes it
        inside = (base >= 31) & (base + 32 <= n - 1)
        assert inside.any()
        np.testing.assert_allclose(got[inside], level, rtol=0, atol=1e-13)

    # pitch() resamples by rates (2 ** (cents / 1200), 1); +-1200 cents are the policy limits, where
    # every row (2, 1) or every other row (0.5, 1) sits at an exact integer input time
    @pytest.mark.parametrize(
        "rates",
        [(2 ** (300 / 1200), 1.0), (2 ** (-250 / 1200), 1.0), (16000, 8000), (16000, 22050), (2.0, 1.0), (0.5, 1.0)],
    )
    def test_int16_output_equals_reference(self, rates):
        # speech-like: a gliding voiced harmonic series under a syllable-rate envelope, plus noise
        rng = np.random.default_rng(5)
        t = np.arange(48000) / 16000
        f0 = 120 + 30 * np.sin(2 * np.pi * 0.7 * t)
        phase = 2 * np.pi * np.cumsum(f0) / 16000
        voiced = sum(np.sin(h * phase) / h for h in range(1, 12))
        x = 0.3 * voiced * (0.5 + 0.5 * np.sin(2 * np.pi * 4 * t) ** 2) + 0.01 * rng.standard_normal(len(t))
        x = np.round(x * 32768) / 32768
        quantize = lambda y: np.clip(np.round(y * 32768), -32768, 32767)
        np.testing.assert_array_equal(quantize(_sinc_resample(x, *rates)), quantize(sinc_resample(x, *rates)))


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

"""Every record type is a validated named tuple built on ioutil.record: each way of building one runs its checks."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

import stforge
from stforge.audio import AudioClip
from stforge.augment import AugmentPolicy, EffectParams
from stforge.config import PipelineConfig
from stforge.coupling import AdapterParams, LengthAdaptorParams, ParamEntry, ParamInventory, TriStageConfig
from stforge.evalign import BleuScore
from stforge.sampler import BatchSpec, ManifestEntry, SamplingSpec
from stforge.segmenter import FrameTranscript, Gap, Segment, SegmentationConfig
from stforge.textfilter import FilterConfig, FilterDecision, TranscriptPair

NAN = float("nan")

# one valid record of each type, and for a checked type one field change its checks refuse, with their message
RECORDS = [
    (AudioClip(np.zeros(4), 16000), {"sample_rate": 0}, "sample_rate must be a positive integer"),
    (AugmentPolicy(), {"p_aug": 1.5}, r"p_aug must be in \[0, 1\]"),
    (EffectParams(1.1, 20.0, 50.0, 0.1), None, None),
    (PipelineConfig(), None, None),
    (BleuScore(50.0, (0.5,) * 4, 1.0, 8, 8), None, None),
    (ManifestEntry("u1", "u1.wav", 16000, 3, "MuST-C-train"), {"split": "LibriSpeech"}, "unknown split"),
    (SamplingSpec(), {"ratios": {"CoVoST-train": 0.0}}, r"must be in \(0, 1\]"),
    (BatchSpec(), {"max_src_samples": 500000}, "exceeds max_batch_samples"),
    (FrameTranscript("a.wav", 20, ("ja", "")), {"tokens": ()}, "empty transcript"),
    (Gap(3, 5), None, None),
    (Segment("a.wav", 1.5, 2.0, "spk"), {"duration": 0.0}, "duration must be finite and positive"),
    (SegmentationConfig(), {"max_seg_len": -1.0}, "need finite max_seg_len > min_gap > 0"),
    (TranscriptPair("p", 100, "src", "tgt"), {"n_samples": -1}, "negative n_samples"),
    (FilterConfig(), {"wer_threshold": 0.0}, "wer_threshold must be positive"),
    (FilterDecision(False, "asr_wer"), None, None),
    (AdapterParams.zeros(4, 2), {"b_up": np.zeros(3)}, "w_up: expected shape"),
    (LengthAdaptorParams.zeros(2), {"biases": ()}, "exactly 3 layers"),
    (ParamEntry("w", (2, 3), True), None, None),
    (ParamInventory([ParamEntry("w", (2, 3))]), {"entries": [ParamEntry("w", (2,))] * 2}, "duplicate parameter"),
    (TriStageConfig(100), {"ratios": (0.5, 0.5, 0.5)}, "must sum to 1"),
]
IDS = [type(rec).__name__ for rec, _, _ in RECORDS]


def test_every_exported_record_is_covered():
    exported = {name for name in stforge.__all__ if isinstance(getattr(stforge, name), type)
                and issubclass(getattr(stforge, name), tuple)}
    assert exported == set(IDS)


@pytest.mark.parametrize("rec, bad, message", RECORDS, ids=IDS)
def test_record_is_a_read_only_named_tuple(rec, bad, message):
    cls = type(rec)
    assert isinstance(rec, tuple) and tuple(rec) == tuple(getattr(rec, f) for f in cls._fields)
    assert type(cls._make(rec)) is cls and repr(cls._make(rec)) == repr(rec)
    assert repr(rec).startswith(f"{cls.__name__}({cls._fields[0]}=")
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], getattr(rec, cls._fields[0]))
    with pytest.raises(AttributeError):
        rec.note = "no per-record dict"
    loaded = pickle.loads(pickle.dumps(rec))  # rebuilt through the class, so checked again
    assert type(loaded) is cls and len(tuple(loaded)) == len(cls._fields)


CHECKED = [(name, row) for name, row in zip(IDS, RECORDS) if row[1]]


@pytest.mark.parametrize("rec, bad, message", [row for _, row in CHECKED], ids=[name for name, _ in CHECKED])
def test_replace_and_make_run_the_checks(rec, bad, message):
    assert repr(rec._replace()) == repr(rec)
    with pytest.raises(ValueError, match=message):
        rec._replace(**bad)
    with pytest.raises(ValueError, match=message):
        type(rec)._make(bad.get(f, getattr(rec, f)) for f in rec._fields)
    with pytest.raises(ValueError, match="unexpected field names"):
        rec._replace(no_such_field=1)


def test_records_are_tuples_of_their_values():
    # equal to a plain tuple of the same values, and ordered as tuples are
    assert Gap(3, 5) == (3, 5) and Gap(3, 5) < Gap(4, 0)
    assert Segment("a.wav", 1.5, 2.0, "spk") == ("a.wav", 1.5, 2.0, "spk")
    assert [*FilterDecision(True)] == [True, None]


def test_coercions_are_kept():
    assert FrameTranscript("a.wav", 20, ["ja", ""]).tokens == ("ja", "")
    assert FrameTranscript("a.wav", 20, ["ja"])._replace(tokens=["x"]).tokens == ("x",)
    assert FilterConfig(event_lexicon=["Musik"]).event_lexicon == frozenset({"Musik"})
    clip = AudioClip(np.arange(3, dtype=np.int16), np.int64(8))
    assert clip.samples.dtype == np.float64 and not clip.samples.flags.writeable
    assert type(clip.sample_rate) is int
    assert len(clip) == 3 and clip.duration == 3 / 8
    assert len(clip._replace(samples=[0.0] * 5)) == 5


def test_audio_clip_copies_without_a_slot_per_sample():
    # copy and pickle take a record's fields from __getnewargs__, which for a named tuple is tuple(self):
    # sized by len(), that allocated a slot per sample, 8 MB here
    clip = AudioClip(np.zeros(1_000_000), 16000)
    tracemalloc.start()
    try:
        twin = copy.copy(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert twin.samples is clip.samples and twin.sample_rate == 16000


def test_defaults_are_fresh_on_each_call():
    a, b = SamplingSpec(), SamplingSpec()
    assert a == b and a.ratios is not b.ratios
    c, d = PipelineConfig(), PipelineConfig()
    assert c == d and c.sampling is not d.sampling and c.sampling.ratios is not d.sampling.ratios


@pytest.mark.parametrize("build, message", [
    (lambda: FilterConfig(max_samples=NAN), "max_samples must be positive"),
    (lambda: BatchSpec(max_batch_samples=NAN, max_src_samples=NAN), "max_batch_samples must be positive"),
    (lambda: BatchSpec(max_src_samples=NAN), "max_src_samples must be positive"),
    (lambda: BatchSpec(max_tgt_tokens=NAN), "max_tgt_tokens must be positive"),
    (lambda: ManifestEntry("u", "u.wav", NAN, 3, "MuST-C-train"), "u: n_samples must be positive"),
    (lambda: ManifestEntry("u", "u.wav", 16000, NAN, "MuST-C-train"), "u: n_tgt_tokens must be >= 0"),
    (lambda: TranscriptPair("p", NAN, "src", "tgt"), "p: negative n_samples"),
    (lambda: TriStageConfig(NAN), "total_steps must be positive"),
    (lambda: TriStageConfig(100, base_lr=NAN), "base_lr must be positive"),
    (lambda: TriStageConfig(100, ratios=(NAN, 0.5, 0.5)), "need 3 nonnegative phase ratios"),
], ids=["FilterConfig.max_samples", "BatchSpec.max_batch_samples", "BatchSpec.max_src_samples",
        "BatchSpec.max_tgt_tokens", "ManifestEntry.n_samples", "ManifestEntry.n_tgt_tokens",
        "TranscriptPair.n_samples", "TriStageConfig.total_steps", "TriStageConfig.base_lr",
        "TriStageConfig.ratios"])
def test_counts_and_caps_reject_nan(build, message):
    with pytest.raises(ValueError, match=message):
        build()


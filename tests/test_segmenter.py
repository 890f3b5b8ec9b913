"""Segmentation: gap finding, recursive splitting, sweep, YAML interchange."""

import json
import math
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stforge import segmenter
from stforge.segmenter import (
    FrameTranscript,
    Gap,
    Segment,
    SegmentationConfig,
    find_gaps,
    is_transcribable,
    parse_frame_transcript,
    parse_segments_yaml,
    split_recursive,
    sweep_max_seg_len,
    write_segments_yaml,
)

from oracles import segment_spans

FRAME_MS = 20  # ASR emits one token per 20 ms frame


def transcript(tokens, frame_ms=FRAME_MS, audio_id="talk.wav"):
    return FrameTranscript(audio_id, frame_ms, tuple(tokens))


def spans_of(segments, frame_ms=FRAME_MS):
    """Back out integer frame spans from emitted (offset, duration) pairs."""
    frame_s = frame_ms / 1000.0
    return [
        (round(s.offset / frame_s), round((s.offset + s.duration) / frame_s))
        for s in segments
    ]


def random_tokens(rng, n_frames, gappiness=0.3):
    """Speech/silence runs; silence tokens are "" or "|", speech is a letter."""
    tokens = []
    while len(tokens) < n_frames:
        run = rng.randint(1, 40)
        if rng.random() < gappiness:
            tokens.extend(rng.choice(["", "|"]) for _ in range(run))
        else:
            tokens.extend(rng.choice("abcdefg") for _ in range(run))
    return tokens[:n_frames]


class TestTranscribability:
    def test_letters_count(self):
        assert is_transcribable("a")
        assert is_transcribable("Hello")
        assert is_transcribable("x|")

    def test_blank_separator_punctuation_do_not(self):
        for token in ("", "|", " ", "...", "123", "?"):
            assert not is_transcribable(token)


class TestFindGaps:
    def test_finds_maximal_runs(self):
        t = transcript(["a"] * 10 + [""] * 10 + ["b"] * 5 + ["|"] * 12 + ["c"] * 3)
        gaps = find_gaps(t, min_gap=0.2)
        assert gaps == [Gap(10, 10), Gap(25, 12)]

    def test_short_runs_filtered(self):
        t = transcript(["a"] * 10 + [""] * 9 + ["b"] * 10)
        # 9 frames x 20 ms = 0.18 s, just under the 0.2 s default
        assert find_gaps(t, min_gap=0.2) == []
        assert find_gaps(t, min_gap=0.18) == [Gap(10, 9)]

    def test_boundary_runs_count(self):
        t = transcript([""] * 15 + ["a"] * 5 + [""] * 15)
        assert find_gaps(t, min_gap=0.2) == [Gap(0, 15), Gap(20, 15)]

    def test_min_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            find_gaps(transcript(["a"]), 0.0)


class TestSplitRecursive:
    def test_short_input_is_one_segment(self):
        t = transcript(["a"] * 50)  # 1 s
        cfg = SegmentationConfig(max_seg_len=5.0)
        segs = split_recursive(t, cfg)
        assert len(segs) == 1
        assert segs[0] == Segment("talk.wav", 0.0, 1.0, "talk")

    def test_splits_at_largest_gap_midpoint(self):
        # 2 s speech, 0.4 s gap, 2 s speech; cap at 3 s forces one split
        t = transcript(["a"] * 100 + [""] * 20 + ["b"] * 100)
        segs = split_recursive(t, SegmentationConfig(max_seg_len=3.0))
        assert spans_of(segs) == [(0, 110), (110, 220)]

    def test_gapless_overlength_span_emitted_whole(self):
        t = transcript(["a"] * 400)  # 8 s of continuous speech
        segs = split_recursive(t, SegmentationConfig(max_seg_len=3.0))
        assert len(segs) == 1
        assert segs[0].duration == 8.0

    def test_largest_gap_wins(self):
        t = transcript(["a"] * 50 + [""] * 10 + ["b"] * 50 + [""] * 30 + ["c"] * 50)
        segs = split_recursive(t, SegmentationConfig(max_seg_len=2.0))
        spans = spans_of(segs)
        # the 30-frame gap at 110..140 splits first, at frame 125
        assert (0, 125) in spans or any(e == 125 for _, e in spans)

    def test_tie_breaks_toward_center(self):
        # equal 20-frame gaps at 40..60 and 140..160; span center is 100,
        # so distances are equal and the leftmost gap must win
        t = transcript(["a"] * 40 + [""] * 20 + ["b"] * 80 + [""] * 20 + ["c"] * 40)
        segs = split_recursive(t, SegmentationConfig(max_seg_len=3.5))
        assert spans_of(segs)[0][1] == 50

    def test_output_is_sorted_and_covers_input(self):
        rng = random.Random(5)
        t = transcript(random_tokens(rng, 2500))
        segs = split_recursive(t, SegmentationConfig(max_seg_len=6.0))
        spans = spans_of(segs)
        assert spans[0][0] == 0
        assert spans[-1][1] == 2500
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c and a < b

    def test_matches_recursive_oracle_on_random_inputs(self):
        rng = random.Random(99)
        for trial in range(300):
            n = rng.randint(1, 100)
            tokens = random_tokens(rng, n, gappiness=0.5)
            max_len = rng.choice([0.5, 1.0, 1.5, 2.0])
            got = spans_of(split_recursive(transcript(tokens), SegmentationConfig(max_len)))
            want = segment_spans(tokens, FRAME_MS, max_len, 0.2)
            assert got == want, f"trial {trial}: {tokens}"

    def test_deterministic(self):
        rng = random.Random(7)
        t = transcript(random_tokens(rng, 3000))
        cfg = SegmentationConfig(max_seg_len=8.0)
        assert split_recursive(t, cfg) == split_recursive(t, cfg)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants_hold_for_any_input(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 400)
        t = transcript(random_tokens(rng, n, gappiness=0.5))
        cfg = SegmentationConfig(max_seg_len=rng.choice([1.0, 2.0, 4.0]))
        spans = spans_of(split_recursive(t, cfg))
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))
        assert all(a < b for a, b in spans)

    def test_segment_count_bounded_by_gap_count(self):
        # with every gap shorter than twice the qualifying threshold, a
        # split consumes its gap entirely and neither half can re-qualify,
        # so segments never exceed gaps + 1
        rng = random.Random(13)
        threshold = 10  # 0.2 s at 20 ms frames
        for _ in range(50):
            pieces, n_gaps = [], 0
            for _ in range(rng.randint(1, 8)):
                pieces.extend(rng.choice("ab") for _ in range(rng.randint(5, 120)))
                gap_len = rng.randint(threshold, 2 * threshold - 2)
                pieces.extend([""] * gap_len)
                n_gaps += 1
            pieces.extend("c" for _ in range(rng.randint(5, 120)))
            segs = split_recursive(transcript(pieces), SegmentationConfig(max_seg_len=1.0))
            assert len(segs) <= n_gaps + 1

    def test_child_splits_in_clipped_half_of_parent_gap(self):
        # The 60-frame gap at 100..160 splits the root at 130. The right
        # child [130, 372) starts with the gap's 30-frame right half, longer
        # than the 12-frame gap at 260..272, so it splits at 145, then on
        # the 15 frames left of that half at 152. Seen unclipped, the half
        # would be the whole gap with its midpoint on the span's edge.
        tokens = ["a"] * 100 + [""] * 60 + ["b"] * 100 + ["|"] * 12 + ["c"] * 100
        segs = split_recursive(transcript(tokens), SegmentationConfig(max_seg_len=3.0))
        want = [(0, 130), (130, 145), (145, 152), (152, 266), (266, 372)]
        assert spans_of(segs) == want
        assert segment_spans(tokens, FRAME_MS, 3.0, 0.2) == want


class TestSweep:
    def test_count_non_increasing_over_grid(self):
        rng = random.Random(3)
        transcripts = [
            transcript(random_tokens(rng, rng.randint(500, 3000)), audio_id=f"t{i}.wav")
            for i in range(5)
        ]
        swept = sweep_max_seg_len(transcripts, 5, 25, 1)
        values = sorted(swept)
        assert values[0] == 5 and values[-1] == 25 and len(values) == 21
        counts = [len(swept[v]) for v in values]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_cap_is_a_cut_of_one_tree(self, seed):
        rng = random.Random(seed)
        transcripts = []
        for i in range(rng.randint(1, 3)):
            tokens = []
            for _ in range(rng.randint(1, 30)):
                tokens.extend(rng.choice("abc") for _ in range(rng.randint(1, 80)))
                # gaps from one frame to several times the 10-frame threshold
                tokens.extend(rng.choice(["", "|"]) for _ in range(rng.choice([1, 5, 9, 10, 11, 19, 20, 35, 60])))
            transcripts.append(transcript(tokens, audio_id=f"t{i}.wav"))
        # steps under one frame give several caps the same frame limit
        lo, step = rng.choice([0.25, 0.5, 1.0]), rng.choice([0.01, 0.05, 0.25, 0.3, 0.5, 1.0])
        swept = sweep_max_seg_len(transcripts, lo, lo + rng.randint(0, 12) * step, step)
        counts = []
        for cap in sorted(swept, reverse=True):
            assert swept[cap] == [seg for t in transcripts for seg in split_recursive(t, SegmentationConfig(cap))]
            for t in transcripts:
                spans = spans_of([seg for seg in swept[cap] if seg.wav == t.audio_id])
                assert spans == segment_spans(list(t.tokens), FRAME_MS, cap, 0.2)
            counts.append(len(swept[cap]))
        assert counts == sorted(counts)  # segment counts never fall as the cap falls

    def test_fractional_step(self):
        t = transcript(random_tokens(random.Random(1), 600))
        swept = sweep_max_seg_len([t], 1.0, 2.0, 0.25)
        assert sorted(swept) == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_bad_grid(self):
        t = transcript(["a"] * 10)
        with pytest.raises(ValueError):
            sweep_max_seg_len([t], 10, 5)
        with pytest.raises(ValueError):
            sweep_max_seg_len([t], 5, 10, 0)


class TestInterchange:
    def test_jsonl_parsing(self):
        line1 = json.dumps({"audio": "a.wav", "frame_ms": 20, "tokens": ["a", "", "b"]})
        line2 = json.dumps({"audio": "b.wav", "frame_ms": 10, "tokens": ["x"]})
        out = parse_frame_transcript(line1 + "\n\n" + line2 + "\n")
        assert [t.audio_id for t in out] == ["a.wav", "b.wav"]
        assert out[0].tokens == ("a", "", "b")
        assert out[1].frame_ms == 10

    def test_jsonl_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_frame_transcript('{"audio": "a", "frame_ms": 20, "tokens": ["a"]}\n{bad\n')
        with pytest.raises(ValueError, match="missing field"):
            parse_frame_transcript('{"audio": "a", "tokens": ["a"]}\n')

    @pytest.mark.parametrize("fields, message", [
        ({"frame_ms": 20.9}, "frame_ms must be an integer"),
        ({"frame_ms": True}, "frame_ms must be an integer"),
        ({"frame_ms": "20"}, "frame_ms must be an integer"),
        ({"audio": None}, "audio must be a string"),
        ({"audio": 7}, "audio must be a string"),
        ({"tokens": ["b", None]}, "tokens must be a list of strings"),
        ({"tokens": "b"}, "tokens must be a list of strings"),
    ])
    def test_jsonl_fields_keep_their_types(self, fields, message):
        good = json.dumps({"audio": "a.wav", "frame_ms": 20, "tokens": ["a"]})
        bad = json.dumps({"audio": "b.wav", "frame_ms": 20, "tokens": ["b"], **fields})
        with pytest.raises(ValueError, match=f"line 2: {message}"):
            parse_frame_transcript(f"{good}\n{bad}\n")

    def test_jsonl_line_must_be_an_object(self):
        with pytest.raises(ValueError, match="line 1: expected a JSON object"):
            parse_frame_transcript("[1, 2]\n")

    def test_jsonl_only_a_line_feed_ends_a_line(self):
        line = json.dumps({"audio": "a\u2028b.wav", "frame_ms": 20, "tokens": ["a", "\x85"]}, ensure_ascii=False)
        (t,) = parse_frame_transcript(line + "\n")
        assert t.audio_id == "a\u2028b.wav" and t.tokens == ("a", "\x85")

    def test_jsonl_rejects_duplicate_audio(self):
        line = json.dumps({"audio": "a.wav", "frame_ms": 20, "tokens": ["a"]})
        other = json.dumps({"audio": "b.wav", "frame_ms": 20, "tokens": ["b"]})
        with pytest.raises(ValueError, match=r"line 4: duplicate audio 'a.wav' \(first on line 1\)"):
            parse_frame_transcript(f"{line}\n{other}\n\n{line}\n")

    def test_yaml_roundtrip(self, monkeypatch):
        segs = [
            Segment("ted_1096.wav", 0.0, 21.4, "ted_1096"),
            Segment("ted_1096.wav", 21.4, 3.25, "ted_1096"),
            Segment("weird name.wav", 1.5, 2.0, 'quote"d'),
        ]
        # plain YAML 1.1 would read these back as bool, None, int or float
        segs += [Segment(v, 0.0, 1.0, v) for v in ["yes", "null", "007", "0x1F", "1_000", "1.50", "Off", ".inf"]]
        text = write_segments_yaml(segs)
        for loader in (yaml.SafeLoader, segmenter._YAML_LOADER):
            monkeypatch.setattr(segmenter, "_YAML_LOADER", loader)
            back = parse_segments_yaml(text)
            assert len(back) == len(segs)
            for orig, parsed in zip(segs, back):
                assert parsed.wav == orig.wav
                assert parsed.speaker_id == orig.speaker_id
                assert math.isclose(parsed.offset, orig.offset, abs_tol=1e-6)
                assert math.isclose(parsed.duration, orig.duration, abs_tol=1e-6)

    def test_yaml_leaves_plain_ids_unquoted(self):
        text = write_segments_yaml([Segment("test3.wav", 0.0, 1.0, "talk0")])
        assert text == "- {duration: 1.000000, offset: 0.000000, speaker_id: talk0, wav: test3.wav}\n"

    def test_yaml_loader_matches_pure_python_safe_loader(self, monkeypatch):
        # the libyaml loader, when present, must build the same segments
        segs = [
            Segment("ted_1096.wav", 0.0, 21.4, "ted_1096"),
            Segment("weird name.wav", 1.5, 2.0, 'quote"d'),
            Segment("a.wav", 3.0, 0.5, "back\\slash: ünï"),
            Segment("b.wav", 4.25, 1.0, "1.50"),
            Segment("b.wav", 5.0, 1.0, "yes"),
        ]
        text = write_segments_yaml(segs)
        fast = parse_segments_yaml(text)
        monkeypatch.setattr(segmenter, "_YAML_LOADER", yaml.SafeLoader)
        assert fast == parse_segments_yaml(text)
        assert [s.speaker_id for s in fast[:3]] == ["ted_1096", 'quote"d', "back\\slash: ünï"]

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, segmenter._YAML_LOADER])
    def test_malformed_yaml_raises_value_error(self, monkeypatch, loader):
        monkeypatch.setattr(segmenter, "_YAML_LOADER", loader)
        with pytest.raises(ValueError, match="malformed segment YAML"):
            parse_segments_yaml("- {duration: 1.0, offset: [0.0\n")

    def test_yaml_empty(self):
        assert write_segments_yaml([]) == ""
        assert parse_segments_yaml("") == []

    def test_yaml_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="missing keys"):
            parse_segments_yaml("- {offset: 0.0, duration: 1.0, wav: a.wav}")
        with pytest.raises(ValueError, match="list"):
            parse_segments_yaml("offset: 3")

    @pytest.mark.parametrize("times, message", [
        ("duration: 1.0, offset: .nan", "offset must be finite and non-negative, got nan"),
        ("duration: 1.0, offset: -.inf", "offset must be finite"),
        ("duration: 1.0, offset: -1.0", "offset must be finite and non-negative, got -1.0"),
        ("duration: .inf, offset: 0.0", "duration must be finite and positive, got inf"),
        ("duration: .nan, offset: 0.0", "duration must be finite"),
        ("duration: 1.0, offset: abc", "could not convert"),
        ("duration: null, offset: 0.0", "NoneType"),
        ("duration: true, offset: 0.0", "duration must be a number, got True"),
        ("duration: 1.0, offset: false", "offset must be a number, got False"),
    ])
    def test_yaml_errors_name_the_entry(self, times, message):
        good = "- {duration: 1.0, offset: 0.0, speaker_id: s, wav: a.wav}\n"
        with pytest.raises(ValueError, match=f"entry 1: .*{message}"):
            parse_segments_yaml(f"{good}- {{{times}, speaker_id: s, wav: a.wav}}\n")

    @pytest.mark.parametrize("key", ["speaker_id", "wav"])
    @pytest.mark.parametrize("value, shown", [("true", "True"), ("null", "None"), ("5", "5"), ("1.5", "1.5")])
    def test_yaml_ids_must_be_strings(self, key, value, shown):
        # unquoted, YAML reads these as bool, None, int and float; "None" or "5" would be a made-up id
        fields = {"speaker_id": "s", "wav": "a.wav", key: value}
        text = f"- {{duration: 1.0, offset: 0.0, speaker_id: {fields['speaker_id']}, wav: {fields['wav']}}}\n"
        with pytest.raises(ValueError, match=f"entry 0: {key} must be a string, got {shown}$"):
            parse_segments_yaml(text)


class TestConfigValidation:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SegmentationConfig(max_seg_len=0.1, min_gap=0.2)
        with pytest.raises(ValueError):
            SegmentationConfig(max_seg_len=5.0, min_gap=0.0)

    def test_defaults_match_tuned_operating_point(self):
        cfg = SegmentationConfig()
        assert cfg.max_seg_len == 22.0
        assert cfg.min_gap == 0.2

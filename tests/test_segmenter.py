"""Segmentation: gap finding, recursive splitting, sweep, YAML interchange."""

import json
import math
import random
import re

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

from oracles import segment_spans, segments_yaml

FRAME_MS = 20  # ASR emits one token per 20 ms frame
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])  # the oracle's loaders


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


def random_frame_ms_and_min_gap(rng):
    """A frame step and a min_gap whose threshold runs from 1 frame to about 4x the default's."""
    frame_ms = rng.choice([10, 20, 40])
    # whole frame counts put min_gap on a threshold's boundary; 0.001 s is under any frame
    min_gap = rng.choice([0.001, rng.randint(1, 800 // frame_ms) * frame_ms / 1000, rng.uniform(0.001, 0.8)])
    return frame_ms, min_gap


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

    @pytest.mark.parametrize("min_gap", [math.nan, math.inf])
    def test_min_gap_must_be_finite(self, min_gap):
        # nan and inf used to fail in math.ceil with a bare "cannot convert float ... to integer"
        with pytest.raises(ValueError, match=f"^min_gap must be positive and finite, got {min_gap}$"):
            find_gaps(transcript(["a"]), min_gap)


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
            frame_ms, min_gap = random_frame_ms_and_min_gap(rng)
            max_len = min_gap + rng.choice([0.1, 0.5, 1.0, 1.5])
            t = transcript(tokens, frame_ms)
            got = spans_of(split_recursive(t, SegmentationConfig(max_len, min_gap)), frame_ms)
            want = segment_spans(tokens, frame_ms, max_len, min_gap)
            assert got == want, f"trial {trial}: {frame_ms} ms, min_gap {min_gap}, {tokens}"

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
        frame_ms, min_gap = random_frame_ms_and_min_gap(rng)
        transcripts = []
        for i in range(rng.randint(1, 3)):
            tokens = []
            for _ in range(rng.randint(1, 30)):
                tokens.extend(rng.choice("abc") for _ in range(rng.randint(1, 80)))
                # gaps from one frame to several times the largest threshold drawn below
                tokens.extend(rng.choice(["", "|"]) for _ in range(rng.randint(1, 90)))
            transcripts.append(transcript(tokens, frame_ms, audio_id=f"t{i}.wav"))
        # steps under one frame give several caps the same frame limit
        lo, step = min_gap + rng.choice([0.05, 0.25, 0.5, 1.0]), rng.choice([0.01, 0.05, 0.25, 0.3, 0.5, 1.0])
        swept = sweep_max_seg_len(transcripts, lo, lo + rng.randint(0, 12) * step, step, min_gap)
        counts = []
        for cap in sorted(swept, reverse=True):
            cfg = SegmentationConfig(cap, min_gap)
            assert swept[cap] == [seg for t in transcripts for seg in split_recursive(t, cfg)]
            for t in transcripts:
                spans = spans_of([seg for seg in swept[cap] if seg.wav == t.audio_id], frame_ms)
                assert spans == segment_spans(list(t.tokens), frame_ms, cap, min_gap)
            counts.append(len(swept[cap]))
        assert counts == sorted(counts)  # segment counts never fall as the cap falls

    def test_fractional_step(self):
        t = transcript(random_tokens(random.Random(1), 600))
        swept = sweep_max_seg_len([t], 1.0, 2.0, 0.25)
        assert sorted(swept) == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_lo_just_above_min_gap_is_swept_as_given(self):
        # each value was rounded to 9 decimals before its check: 0.2000000001 became 0.2 and was refused
        swept = sweep_max_seg_len([], 0.2000000001, 1.0, 0.1, 0.2)
        assert list(swept) == [0.2000000001, 0.3000000001, 0.4000000001, 0.5000000001, 0.6000000001,
                               0.7000000001, 0.8000000001, 0.9000000001, 1.0000000001]  # the last within hi + 1e-9

    def test_grid_ending_next_to_the_largest_float_runs(self):
        # 1e308 + 8 * 1e307 is past the largest float; only values up to hi are converted
        assert len(sweep_max_seg_len([], 1e308, 1.7e308, 1e307, min_gap=1e306)) == 8

    def test_refused_lo_is_named_as_given(self):
        # rounded first, 1e-300 was reported as 0.0
        with pytest.raises(ValueError, match=r"^need finite max_seg_len > min_gap > 0, got 1e-300, 0\.2$"):
            sweep_max_seg_len([], 1e-300, 1.0, 0.1, 0.2)

    def test_bad_grid(self):
        t = transcript(["a"] * 10)
        with pytest.raises(ValueError):
            sweep_max_seg_len([t], 10, 5)
        with pytest.raises(ValueError):
            sweep_max_seg_len([t], 5, 10, 0)

    @pytest.mark.parametrize("lo, hi, step, message", [
        (5, math.inf, 1, "need finite lo <= hi, got 5, inf"),
        (math.nan, 25, 1, "need finite lo <= hi, got nan, 25"),
        (5, math.nan, 1, "need finite lo <= hi, got 5, nan"),
        (10, 5, 1, "need finite lo <= hi, got 10, 5"),
        (5, 25, math.nan, "step must be positive and finite, got nan"),
        (5, 25, math.inf, "step must be positive and finite, got inf"),
        (5, 25, 1e-3, "a grid from 5 to 25 by 0.001 takes over 10000 steps"),
        (5, 5, 1e-15, "a grid from 5 to 5 by 1e-15 takes over 10000 steps"),
    ])
    def test_grid_is_bounded_before_the_loop(self, lo, hi, step, message):
        # inf never ended; a nan bound, or an inf step (0 * inf is nan), gave an empty grid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep_max_seg_len([transcript(["a"] * 10)], lo, hi, step)

    def test_largest_grid_runs(self):
        swept = sweep_max_seg_len([transcript(["a"] * 10)], 1, 1.9999, 1e-4)
        assert len(swept) == segmenter.MAX_SWEEP_STEPS and min(swept) == 1 and max(swept) == 1.9999


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
        ({"audio": "\ud800.wav"}, "audio must be valid Unicode"),
    ])
    def test_jsonl_fields_keep_their_types(self, fields, message):
        good = json.dumps({"audio": "a.wav", "frame_ms": 20, "tokens": ["a"]})
        bad = json.dumps({"audio": "b.wav", "frame_ms": 20, "tokens": ["b"], **fields})
        with pytest.raises(ValueError, match=f"line 2: {message}"):
            parse_frame_transcript(f"{good}\n{bad}\n")

    def test_jsonl_whitespace_line_is_not_blank(self):
        # only an empty line is skipped, as in every line-oriented input
        good = json.dumps({"audio": "a.wav", "frame_ms": 20, "tokens": ["a"]})
        with pytest.raises(ValueError, match=r"^line 2: malformed JSON \(Expecting value"):
            parse_frame_transcript(f"{good}\n  \n")

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
        with pytest.raises(ValueError, match=r"^line 4: duplicate id 'a.wav' \(first on line 1\)$"):
            parse_frame_transcript(f"{line}\n{other}\n\n{line}\n")

    def test_yaml_roundtrip(self):
        segs = [
            Segment("ted_1096.wav", 0.0, 21.4, "ted_1096"),
            Segment("ted_1096.wav", 21.4, 3.25, "ted_1096"),
            Segment("weird name.wav", 1.5, 2.0, 'quote"d'),
        ]
        # plain YAML 1.1 would read these back as bool, None, int or float
        segs += [Segment(v, 0.0, 1.0, v) for v in ["yes", "null", "007", "0x1F", "1_000", "1.50", "Off", ".inf"]]
        text = write_segments_yaml(segs)
        for back in [parse_segments_yaml(text)] + [segments_yaml(text, loader) for loader in LOADERS]:
            assert len(back) == len(segs)
            for orig, parsed in zip(segs, back):
                assert parsed.wav == orig.wav
                assert parsed.speaker_id == orig.speaker_id
                assert math.isclose(parsed.offset, orig.offset, abs_tol=1e-6)
                assert math.isclose(parsed.duration, orig.duration, abs_tol=1e-6)

    def test_yaml_leaves_plain_ids_unquoted(self):
        text = write_segments_yaml([Segment("test3.wav", 0.0, 1.0, "talk0")])
        assert text == "- {duration: 1.000000, offset: 0.000000, speaker_id: talk0, wav: test3.wav}\n"

    def test_yaml_loader_matches_pure_python_safe_loader(self):
        # the line reader builds the segments PyYAML builds, with libyaml's loader when present too
        segs = [
            Segment("ted_1096.wav", 0.0, 21.4, "ted_1096"),
            Segment("weird name.wav", 1.5, 2.0, 'quote"d'),
            Segment("a.wav", 3.0, 0.5, "back\\slash: ünï"),
            Segment("b.wav", 4.25, 1.0, "1.50"),
            Segment("b.wav", 5.0, 1.0, "yes"),
        ]
        text = write_segments_yaml(segs)
        ours = parse_segments_yaml(text)
        for loader in LOADERS:
            assert segments_yaml(text, loader) == ours
        assert [s.speaker_id for s in ours[:3]] == ["ted_1096", 'quote"d', "back\\slash: ünï"]

    @pytest.mark.parametrize("loader", LOADERS)
    def test_malformed_yaml_raises_value_error(self, loader):
        # what PyYAML cannot parse is outside the line dialect too
        text = "- {duration: 1.0, offset: [0.0\n"
        with pytest.raises(ValueError, match="malformed segment YAML"):
            segments_yaml(text, loader)
        with pytest.raises(ValueError, match=r"^line 1: expected a flow mapping - \{key: value, ...\}, got "):
            parse_segments_yaml(text)

    def test_yaml_empty(self):
        assert write_segments_yaml([]) == ""
        assert parse_segments_yaml("") == []

    def test_yaml_rejects_bad_entries(self):
        with pytest.raises(ValueError, match=r"^line 1: missing keys \['speaker_id'\]$"):
            parse_segments_yaml("- {offset: 0.0, duration: 1.0, wav: a.wav}")
        with pytest.raises(ValueError, match="^line 1: expected a flow mapping"):
            parse_segments_yaml("offset: 3")
        with pytest.raises(ValueError, match="^line 1: duplicate key 'wav'$"):
            parse_segments_yaml("- {duration: 1.0, offset: 0.0, wav: a.wav, speaker_id: s, wav: b.wav}")

    def test_yaml_keys_in_any_order_and_extra_keys_ignored(self):
        text = "- {wav: ted_1.wav, uW: 0, speaker_id: spk.1, offset: 14.36, rW: 17, duration: 3.55}\n"
        assert parse_segments_yaml(text) == [Segment("ted_1.wav", 14.36, 3.55, "spk.1")]

    def test_yaml_repeated_segment_names_both_lines(self):
        line = "- {duration: 1.0, offset: 2.0, speaker_id: s, wav: a.wav}\n"
        other = "- {duration: 1.0, offset: 3.0, speaker_id: s, wav: a.wav}\n"
        with pytest.raises(ValueError, match=r"^line 3: duplicate id \('a.wav', 2.0\) \(first on line 1\)$"):
            parse_segments_yaml(line + other + line.replace("duration: 1.0", "duration: 5"))

    @pytest.mark.parametrize("times, message", [
        ("duration: 1.0, offset: .nan", "offset must be finite and non-negative, got nan"),
        ("duration: 1.0, offset: -.inf", "offset must be finite"),
        ("duration: 1.0, offset: -1.0", "offset must be finite and non-negative, got -1.0"),
        ("duration: .inf, offset: 0.0", "duration must be finite and positive, got inf"),
        ("duration: .nan, offset: 0.0", "duration must be finite"),
        ("duration: 1.0, offset: abc", "could not convert"),
        ("duration: null, offset: 0.0", "NoneType"),
        ("duration: " + "9" * 400 + ", offset: 0.0", "int too large to convert to float"),
        ("duration: true, offset: 0.0", "duration must be a number, got True"),
        ("duration: 1.0, offset: false", "offset must be a number, got False"),
    ])
    def test_yaml_errors_name_the_entry(self, times, message):
        # PyYAML's reading refuses the entry for message; the line reader refuses its line
        good = "- {duration: 1.0, offset: 0.0, speaker_id: s, wav: a.wav}\n"
        text = f"{good}- {{{times}, speaker_id: s, wav: a.wav}}\n"
        for loader in LOADERS:
            with pytest.raises(ValueError, match=f"entry 1: .*{message}"):
                segments_yaml(text, loader)
        key = next(k for k, v in (f.split(": ") for f in times.split(", ")) if v not in ("1.0", "0.0"))
        with pytest.raises(ValueError, match=f"^line 2: {key} must be (an unsigned decimal|finite)"):
            parse_segments_yaml(text)

    @pytest.mark.parametrize("key", ["speaker_id", "wav"])
    @pytest.mark.parametrize("value, shown", [("true", "True"), ("null", "None"), ("5", "5"), ("1.5", "1.5")])
    def test_yaml_ids_must_be_strings(self, key, value, shown):
        # unquoted, YAML reads these as bool, None, int and float; "None" or "5" would be a made-up id
        fields = {"speaker_id": "s", "wav": "a.wav", key: value}
        text = f"- {{duration: 1.0, offset: 0.0, speaker_id: {fields['speaker_id']}, wav: {fields['wav']}}}\n"
        for loader in LOADERS:
            with pytest.raises(ValueError, match=f"^entry 0: {key} must be a string, got {re.escape(shown)}$"):
                segments_yaml(text, loader)
        with pytest.raises(ValueError, match=rf"^line 1: {key} must be a string, got {re.escape(value)} \(a YAML "):
            parse_segments_yaml(text)


# ids the writer leaves plain; field values a loader types, unquotes, refuses or reads as a structure
PLAIN_IDS = ["talk0", "test3.wav", "ted_1096.wav", "a/b.wav", "-", "-a", ".", "...", "---", "0o17", "y", "n"]
SPECIAL_FIELDS = ["yes", "null", "~", "007", "1.50", ".inf", ".nan", "-1.000000", "+1.000000", "0.000000",
                  "-0.000000", "1" * 400 + ".000000", "1e5", "1_0.000000", '"a.wav"', "'a.wav'", "a b", "[1]",
                  "{a: 1}", "true", "", "&x", "*x", "!!str 5", "010", "08", "1.", "12"]
INSERTED = [" ", "\t", "\r", "#", ",", ":", "\x85", "\u2028", "\x07", '"', "'", "\n", "{", "}", "rW: 17, ", "- ", "\\"]
SEGMENT_FIELD = re.compile(r"[^\s{},:]+")  # an id, a time or a key


# pieces of YAML 1.1's typed forms within the plain alphabet, so generated ids hit them
ID_PIECES = ["0", "1", "7", "9", "_", ".", "-", "e", "E", "x", "b", "a", "F", "inf", "nan", "Inf", "NaN", "yes",
             "No", "ON", "off", "true", "FALSE", "null", "Null", "2024", "01", "12"]
# ids at the edges of YAML 1.1's typed forms
TYPED_EDGES = ["2001-12-14", "2001-1-14", "._1", "._", ".5", "1.e-5", "1e-5", "1.0e5", "0b", "0b_1", "0x", "-0x_f",
               "0_", "-_", "-.inf", "-.nan", "0o7", "Y", "oN", "NULL", "nULL", "1_000.5"]
RESOLVER = yaml.resolver.Resolver()


def resolver_reads_as_itself(value):
    """True when value is in the writer's plain alphabet and PyYAML's resolver reads it plain as a string."""
    return bool(re.fullmatch(r"[A-Za-z0-9_./-]+", value)) and (
        RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == "tag:yaml.org,2002:str")


def outcome(parse, text):
    """parse(text), or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_reads_as_pyyaml(text):
    """parse_segments_yaml reads text as PyYAML does with each loader, or refuses it naming a line.

    The line dialect is a subset of YAML: what the line reader takes, PyYAML
    reads as the same segments, and what PyYAML refuses, the line reader refuses.
    """
    ours = outcome(parse_segments_yaml, text)
    if isinstance(ours, str):
        assert re.match(r"ValueError: line \d+: ", ours), (ours, text)
    else:
        for loader in LOADERS:
            assert segments_yaml(text, loader) == ours, (loader, text)


def assert_equals_pyyaml(text):
    ours = parse_segments_yaml(text)
    for loader in LOADERS:
        assert segments_yaml(text, loader) == ours, (loader, text)


@st.composite
def canonical_texts(draw):
    times = st.integers(0, 10**12).map(lambda n: n / 10**6)
    ids = st.sampled_from(PLAIN_IDS)
    segments = draw(st.lists(st.builds(Segment, ids, times, times.filter(bool), ids), max_size=6,
                             unique_by=lambda s: (s.wav, s.offset)))
    return write_segments_yaml(segments)


@st.composite
def mustc_texts(draw):
    """MuST-C's lines: rW and uW keys, times to two decimals or whole seconds, keys in any order."""
    times = st.one_of(st.integers(0, 10**7).map(str), st.integers(0, 10**9).map(lambda n: f"{n / 100:.2f}"),
                      st.integers(0, 10**5).map(lambda n: f"{n}."), st.integers(0, 10**12).map(lambda n: f"{n / 10**6:.6f}"))
    ids = st.one_of(st.sampled_from(PLAIN_IDS), st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
    lines, seen = [], set()
    for _ in range(draw(st.integers(0, 6))):
        wav, offset = segmenter._yaml_str(draw(ids)), draw(times)
        if (wav, float(offset)) in seen:
            continue
        seen.add((wav, float(offset)))
        fields = [("duration", draw(times.filter(lambda t: float(t) > 0))), ("offset", offset),
                  ("rW", str(draw(st.integers(0, 300)))), ("uW", str(draw(st.integers(0, 30)))),
                  ("speaker_id", segmenter._yaml_str(draw(ids))), ("wav", wav)]
        lines.append("- {" + ", ".join(f"{k}: {v}" for k, v in draw(st.permutations(fields))) + "}\n")
    return "".join(lines)


@st.composite
def mutated_texts(draw):
    text = draw(st.one_of(canonical_texts(), mustc_texts()))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["field", "insert", "drop", "duplicate", "truncate"]))
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        fields = list(SEGMENT_FIELD.finditer(text))
        if kind == "field" and fields:
            f = fields[draw(st.integers(0, len(fields) - 1))]
            text = text[: f.start()] + draw(st.sampled_from(SPECIAL_FIELDS)) + text[f.end():]
        elif kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(INSERTED)) + text[at:]
        elif kind == "drop":
            text = "\n".join(lines[:i] + lines[i + 1:])
        elif kind == "duplicate":
            text = "\n".join(lines[: i + 1] + lines[i:])
        elif kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
    return text


NOT_A_LINE = "^line 1: expected a flow mapping - \\{key: value, ...\\}, got "
# forms PyYAML reads, and the line reader's error for those it refuses: other YAML, or an invalid entry
OTHER_FORMS = {
    "- {duration: 1.000000, offset: 0.000000, speaker_id: yes, wav: a.wav}\n":
        r"^line 1: speaker_id must be a string, got yes \(a YAML bool; quote it\)$",
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: 007}\n":
        r"^line 1: wav must be a string, got 007 \(a YAML int; quote it\)$",
    "- {duration: 1.000000, offset: 0.000000, speaker_id: \"s\", wav: a.wav}\n": None,
    "- {duration: 3.550000, offset: 14.360000, rW: 17, uW: 0, speaker_id: spk.1, wav: ted_1.wav}\n": None,
    "- duration: 1.000000\n  offset: 0.000000\n  speaker_id: s\n  wav: a.wav\n": NOT_A_LINE + "'- duration: 1.000000'$",
    "# cut at 5 s\n- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav}\n": NOT_A_LINE + "'# cut at 5 s'$",
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav}\n\n": None,
    "- {duration: 0.000000, offset: 0.000000, speaker_id: s, wav: a.wav}\n":
        "^line 1: duration must be finite and positive, got 0.0$",
    "- {duration: 1" + "0" * 400 + ".000000, offset: 0.000000, speaker_id: s, wav: a.wav}\n":
        "^line 1: duration must be finite and positive, got inf$",
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav}\r\n": NOT_A_LINE,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav}": None,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav} # x\n": NOT_A_LINE,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav}}\n": NOT_A_LINE,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav} x\n": NOT_A_LINE,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: s, wav: a.wav, }\n": NOT_A_LINE,
    "- {duration: 1.000000, offset: 010, speaker_id: s, wav: a.wav}\n": "^line 1: offset must be an unsigned decimal, got 010$",
    "- {duration: 08, offset: 0, speaker_id: s, wav: a.wav}\n": "^line 1: duration must be an unsigned decimal, got 08$",
    "- {duration: 1., offset: 0, speaker_id: s, wav: a.wav}\n": None,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: \"a\\nb\", wav: a.wav}\n": NOT_A_LINE,
    "- {duration: 1.000000, offset: 0.000000, speaker_id: \"a\\x41\\u00e9\\\\\\\"\", wav: a.wav}\n": None,
    "- {}\n": r"^line 1: missing keys \['duration', 'offset', 'speaker_id', 'wav'\]$",
    "- { }\n": NOT_A_LINE,
    "": None,
    "\n": None,
}


# values that put a fault in a line: a time that is no unsigned decimal, an id that YAML 1.1 types
BAD_TIMES = ['"1.000000"', '"0"', "010", "08", "1.5x", "-1.0", "-0", ".5", "1e5", "1_0", ".inf", "null", "0x1F", "1.5.2"]
TYPED_IDS = ["yes", "No", "null", "007", "1.50", ".inf", "0x1F", "2001-12-14", "-1", "true", "1_000"]
# a line that breaks the shape: its opening, its closing brace, one ", " or one ": " changed
SHAPE_BREAKS = [("open", "-{"), ("open", "{"), ("open", "- { "), ("close", ""), ("close", "}}"), ("close", ", }"),
                ("close", " }"), ("sep", ","), ("sep", " , "), ("sep", ";  "), ("colon", ":"), ("colon", " : ")]
# the documented reasons for refusing a line, in the order the reader checks them
REASONS = {
    "shape": r"expected a flow mapping - \{key: value, \.\.\.\}, got .+",
    "duplicate": r"duplicate key '(duration|offset|speaker_id|wav)'",
    "time": r"(duration|offset) must be an unsigned decimal, got \S+",
    "missing": r"missing keys \[('(duration|offset|speaker_id|wav)'(, )?)+\]",
    "id": r"(speaker_id|wav) must be a string, got \S+ \(a YAML (bool|null|int|float|timestamp); quote it\)",
}
SEGMENT_KEYS = ("duration", "offset", "speaker_id", "wav")


@st.composite
def faulty_lines(draw):
    """A writer or MuST-C line with faults put in, and the reason it must be refused for (None: read it)."""
    mustc = draw(st.booleans())
    times = st.integers(0, 10**12).map(lambda n: f"{n / 10**6:.6f}")
    if mustc:
        times = st.one_of(times, st.integers(0, 10**7).map(str), st.integers(0, 10**5).map(lambda n: f"{n}."))
    ids = st.one_of(st.sampled_from(PLAIN_IDS), st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
    values = {"duration": times.filter(lambda t: float(t) > 0), "offset": times, "speaker_id": ids.map(segmenter._yaml_str)}
    values["wav"] = values["speaker_id"]
    items = [(key, draw(values[key])) for key in SEGMENT_KEYS]
    if mustc:
        items = draw(st.permutations(items + [("rW", str(draw(st.integers(0, 300)))), ("uW", str(draw(st.integers(0, 30))))]))
    shape = None
    kinds = st.sampled_from(["unknown", "time", "id", "drop", "clear", "shape", "repeat"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        at = draw(st.integers(0, len(items)))
        if kind == "repeat" and (present := sorted({k for k, _ in items} & set(SEGMENT_KEYS))):
            key = draw(st.sampled_from(present))
            items.insert(at, (key, draw(values[key])))
        elif kind == "drop":
            key = draw(st.sampled_from(SEGMENT_KEYS))
            items = [item for item in items if item[0] != key]
        elif kind == "clear":  # "- {}" is a flow mapping with every segment key missing
            items = []
        elif kind in ("time", "id"):
            keys, bad = (SEGMENT_KEYS[:2], BAD_TIMES) if kind == "time" else (SEGMENT_KEYS[2:], TYPED_IDS)
            if spots := [i for i, (key, _) in enumerate(items) if key in keys]:
                i = draw(st.sampled_from(spots))
                items[i] = (items[i][0], draw(st.sampled_from(bad)))
        elif kind == "unknown":
            items.insert(at, (draw(st.sampled_from(["rW", "uW", "speaker", "wav_id", "_x"])),
                              draw(st.sampled_from(["0", "17", "x.wav", '"a b"']))))
        elif kind == "shape":
            shape = draw(st.sampled_from(SHAPE_BREAKS))
    part = {"open": "- {", "close": "}", "sep": ", ", "colon": ": "}
    seps, colons = [part["sep"]] * max(len(items) - 1, 0), [part["colon"]] * len(items)
    if shape is not None:
        where, broken = shape
        if where in ("open", "close"):
            part[where] = broken
        elif where == "sep" and seps:
            seps[draw(st.integers(0, len(seps) - 1))] = broken
        elif where == "colon" and colons:
            colons[draw(st.integers(0, len(colons) - 1))] = broken
        else:
            shape = None
    line = part["open"] + "".join(sep + key + colon + value for sep, (key, value), colon in
                                  zip([""] + seps, items, colons)) + part["close"]
    keys = [key for key, _ in items]
    if shape is not None:
        reason = "shape"
    elif any(keys.count(key) > 1 for key in SEGMENT_KEYS):
        reason = "duplicate"
    elif any(value in BAD_TIMES for key, value in items if key in SEGMENT_KEYS[:2]):
        reason = "time"
    elif not set(SEGMENT_KEYS) <= set(keys):
        reason = "missing"
    elif any(value in TYPED_IDS for key, value in items if key in SEGMENT_KEYS[2:]):
        reason = "id"
    else:
        reason = None
    return line, reason


class TestSegmentLineReader:
    """The line reader of segment YAML against PyYAML's reading of the same text."""

    @settings(max_examples=300, deadline=None)
    @given(text=mutated_texts())
    def test_reads_as_pyyaml(self, text):
        assert_reads_as_pyyaml(text)

    @pytest.mark.parametrize("text", list(OTHER_FORMS))
    def test_other_forms_read_as_pyyaml(self, text):
        if OTHER_FORMS[text] is None:
            assert_equals_pyyaml(text)
        else:
            with pytest.raises(ValueError, match=OTHER_FORMS[text]):
                parse_segments_yaml(text)

    @settings(max_examples=500, deadline=None)
    @given(faulty_lines())
    def test_refusal_names_the_first_fault(self, case):
        # exactly one documented reason per refused line, for the fault the reader checks first
        line, reason = case
        if reason is None:
            assert_equals_pyyaml(line + "\n")
            return
        with pytest.raises(ValueError) as refused:
            parse_segments_yaml(line + "\n")
        message = str(refused.value)
        assert message.startswith("line 1: "), message
        named = [name for name, pattern in REASONS.items() if re.fullmatch(pattern, message[len("line 1: "):])]
        assert named == [reason], (line, message)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(canonical_texts(), mustc_texts()))
    def test_canonical_text_takes_the_line_reader(self, text):
        # the writer's lines and MuST-C's are in the dialect: read, and read as PyYAML reads them
        assert_equals_pyyaml(text)

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.lists(st.text(st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=4),
        micros=st.lists(st.integers(0, 10**12), min_size=2, max_size=2),
    )
    def test_any_id_round_trips(self, ids, micros):
        # a surrogate-free id is any audio id a frame transcript may hold
        offset, duration = micros[0] / 10**6, (micros[1] + 1) / 10**6
        segments = [Segment(wav, offset, duration, speaker) for wav, speaker in zip(ids, ids[::-1])]
        segments = list({s.wav: s for s in segments}.values())  # one segment per (wav, offset)
        text = write_segments_yaml(segments)
        assert parse_segments_yaml(text) == segments
        for loader in LOADERS:
            assert segments_yaml(text, loader) == segments

    @pytest.mark.parametrize("value", PLAIN_IDS + SPECIAL_FIELDS + TYPED_EDGES)
    def test_plain_id_table_matches_the_resolver(self, value):
        assert (segmenter._yaml_str(value) == value) == resolver_reads_as_itself(value)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True),
                     st.lists(st.sampled_from(ID_PIECES), min_size=1, max_size=6).map("".join)))
    def test_plain_id_table_matches_the_resolver_on_any_id(self, value):
        assert (segmenter._yaml_str(value) == value) == resolver_reads_as_itself(value)

    @pytest.mark.parametrize("value, written", [
        ("talk\u0085a.wav", '"talk\\x85a.wav"'),
        ("talk\u0007.wav", '"talk\\x07.wav"'),
        ("a.wav\n", '"a.wav\\x0A"'),
        ("a\u2028b\r", '"a\\u2028b\\x0D"'),
        ("\ufffe", '"\\uFFFE"'),
        ('q"\\ \t\u00fc', '"q\\"\\\\ \t\u00fc"'),
    ])
    def test_breaks_and_control_characters_are_escaped(self, value, written):
        text = write_segments_yaml([Segment(value, 0.0, 1.0, "s")])
        assert text == f"- {{duration: 1.000000, offset: 0.000000, speaker_id: s, wav: {written}}}\n"


class TestConfigValidation:
    def test_frame_ms_bound_holds_for_the_library(self):
        # seconds = frames * frame_ms / 1000 would overflow as a bare OverflowError in the split walk
        with pytest.raises(ValueError, match=r"^a.wav: frame_ms must be at most 60000, got 1000+$"):
            split_recursive(FrameTranscript("a.wav", 10**400, ("a",)), SegmentationConfig())
        with pytest.raises(ValueError, match="^a.wav: frame_ms must be positive, got nan$"):
            FrameTranscript("a.wav", math.nan, ("a",))
        assert FrameTranscript("a.wav", 60_000, ("a",)).duration == 60.0

    @pytest.mark.parametrize("max_seg_len, min_gap", [(math.inf, 0.2), (math.nan, 0.2), (22.0, math.nan)])
    def test_rejects_non_finite_lengths(self, max_seg_len, min_gap):
        # an infinite cap used to fail in the split walk as a bare OverflowError
        with pytest.raises(ValueError, match="^need finite max_seg_len > min_gap > 0, got "):
            SegmentationConfig(max_seg_len=max_seg_len, min_gap=min_gap)

    def test_huge_finite_lengths_run(self):
        # cap * 1000 / frame_ms overflowed to inf, and math.floor/ceil of it raised a bare OverflowError
        tokens = ["a"] * 50 + [""] * 20 + ["b"] * 50
        t = transcript(tokens)
        whole = [Segment("talk.wav", 0.0, 2.4, "talk")]
        assert split_recursive(t, SegmentationConfig(max_seg_len=1e306)) == whole
        assert split_recursive(t, SegmentationConfig(max_seg_len=3.0, min_gap=1.5)) == whole
        assert split_recursive(t, SegmentationConfig(max_seg_len=1e307, min_gap=1e306)) == whole
        assert find_gaps(t, 1e306) == [] and find_gaps(t, 2.4) == [] and find_gaps(t, 0.4) == [Gap(50, 20)]
        swept = sweep_max_seg_len([t], 1e307, 1e308, 1e305, min_gap=1e306)
        assert len(swept) == 901 and all(segments == whole for segments in swept.values())

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SegmentationConfig(max_seg_len=0.1, min_gap=0.2)
        with pytest.raises(ValueError):
            SegmentationConfig(max_seg_len=5.0, min_gap=0.0)

    def test_defaults_match_tuned_operating_point(self):
        cfg = SegmentationConfig()
        assert cfg.max_seg_len == 22.0
        assert cfg.min_gap == 0.2

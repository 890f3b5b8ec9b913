"""End-to-end behavior of every subcommand through cli.main()."""

import argparse
import contextlib
import io
import json
import os
import random
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stforge import cli, evalign, textfilter
from stforge.audio import AudioClip, load_wav, write_wav
from stforge.cli import EPOCH_SEED_STRIDE, build_parser, main
from stforge.config import config_from_dict
from stforge.ioutil import read_lines, read_text, split_lines
from stforge.sampler import ManifestEntry, SamplingSpec, epoch_sample, read_manifest, write_manifest
from stforge.segmenter import Segment, parse_segments_yaml, write_segments_yaml
from stforge.textfilter import FilterConfig, TranscriptPair, clean_target, filter_pair, normalize_for_asr


def jsonl_line(audio, tokens, frame_ms=100):
    return json.dumps({"audio": audio, "frame_ms": frame_ms, "tokens": tokens})


@pytest.fixture
def frames_file(tmp_path):
    """Two recordings: speech, a 1.2 s silence, speech (13.2 s at 100 ms frames)."""
    tokens = ["ja"] * 60 + [""] * 12 + ["ja"] * 60
    path = tmp_path / "frames.jsonl"
    path.write_text(
        jsonl_line("a.wav", tokens) + "\n" + jsonl_line("b.wav", tokens) + "\n",
        encoding="utf-8",
    )
    return path


def manifest_text(entries):
    lines = []

    class Buf:
        def write(self, s):
            lines.append(s)

    write_manifest(entries, Buf())
    return "".join(lines)


@pytest.fixture
def filter_fixture(tmp_path):
    entries = [
        ManifestEntry("m0", "m0.wav", 16000, 3, "MuST-C-train",
                      "Guten Morgen allerseits", "Good morning everyone"),
        ManifestEntry("m1", "m1.wav", 16000, 3, "MuST-C-train",
                      "Das ist ein Test", "This is a test"),
        ManifestEntry("m2", "m2.wav", 25000, 3, "MuST-C-train",
                      "Zu lange Aufnahme", "Recording too long"),
        ManifestEntry("e0", "e0.wav", 16000, 3, "EuroparlST-train",
                      "Wir haben 10 000 Stimmen", "We got 10 000 votes"),
    ]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(manifest_text(entries), encoding="utf-8")
    hyps = tmp_path / "hyps.tsv"
    hyps.write_text(
        "m0\tguten morgen allerseits\n"
        "m1\tvöllig anderes zeug hier gesprochen\n"
        "m2\tzu lange aufnahme\n"
        "e0\twir haben zehntausend stimmen\n",
        encoding="utf-8",
    )
    return manifest, hyps


def tone_wav(path, freq=440.0, seconds=0.5, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    write_wav(path, AudioClip(0.5 * np.sin(2 * np.pi * freq * t), rate))


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_jobs_accepts_only_1(self):
        assert main(["--jobs", "1", "params-report"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", "params-report"])
        assert exc.value.code == 2
        assert "--jobs" not in build_parser().format_help()

    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--out", str(tmp_path / "x.yaml")])
        assert exc.value.code == 2


class TestSegment:
    def test_writes_parseable_yaml(self, frames_file, tmp_path):
        out = tmp_path / "segments.yaml"
        assert main(["segment", "--transcripts", str(frames_file), "--out", str(out)]) == 0
        segments = parse_segments_yaml(out.read_text(encoding="utf-8"))
        # 13.2 s fits under the default 22 s cap: one segment per file
        assert len(segments) == 2
        assert {s.wav for s in segments} == {"a.wav", "b.wav"}

    def test_max_seg_len_flag_forces_split(self, frames_file, tmp_path):
        out = tmp_path / "segments.yaml"
        rc = main([
            "segment", "--transcripts", str(frames_file),
            "--max-seg-len", "8", "--out", str(out),
        ])
        assert rc == 0
        segments = parse_segments_yaml(out.read_text(encoding="utf-8"))
        assert len(segments) == 4  # each file split at its silence

    @pytest.mark.parametrize("lengths", [["--max-seg-len", "1e306"], ["--min-gap", "1e306", "--max-seg-len", "1e307"]])
    def test_huge_finite_lengths_keep_each_file_whole(self, frames_file, tmp_path, lengths):
        # these exited 1 with a bare "cannot convert float infinity to integer"
        out = tmp_path / "segments.yaml"
        assert main(["segment", "--transcripts", str(frames_file), *lengths, "--out", str(out)]) == 0
        segments = parse_segments_yaml(out.read_text(encoding="utf-8"))
        assert [(s.wav, s.offset, s.duration) for s in segments] == [("a.wav", 0.0, 13.2), ("b.wav", 0.0, 13.2)]

    @pytest.mark.parametrize("audio", ["talk\u0085a.wav", "talk\u0007.wav", "talk.wav\n", "a\u2028b\r\t.wav"])
    def test_ids_with_breaks_and_control_characters_round_trip(self, tmp_path, audio):
        # a break used to read back as a space, a control character as an unreadable file
        frames, out = tmp_path / "frames.jsonl", tmp_path / "segments.yaml"
        frames.write_text(jsonl_line(audio, ["ja"] * 10) + "\n", encoding="utf-8")
        assert main(["segment", "--transcripts", str(frames), "--out", str(out)]) == 0
        (segment,) = read_text(out, parse_segments_yaml)
        assert segment.wav == audio and segment.speaker_id == audio.rsplit(".", 1)[0]

    def test_malformed_transcript_exits_1(self, tmp_path):
        bad = tmp_path / "frames.jsonl"
        bad.write_text("{not json}\n", encoding="utf-8")
        rc = main(["segment", "--transcripts", str(bad), "--out", str(tmp_path / "o.yaml")])
        assert rc == 1

    def test_missing_input_file_exits_1(self, tmp_path):
        rc = main([
            "segment", "--transcripts", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "o.yaml"),
        ])
        assert rc == 1


class TestSweep:
    def test_counts_tsv(self, frames_file, tmp_path):
        out = tmp_path / "sweep.tsv"
        rc = main([
            "sweep", "--transcripts", str(frames_file),
            "--lo", "5", "--hi", "25", "--step", "5", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r[0] for r in rows] == ["5", "10", "15", "20", "25"]
        counts = [int(r[1]) for r in rows]
        assert counts[0] >= counts[-1]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_seg_dir_written_per_value(self, frames_file, tmp_path):
        segdir = tmp_path / "segs"
        rc = main([
            "sweep", "--transcripts", str(frames_file),
            "--lo", "8", "--hi", "10", "--step", "1",
            "--out", str(tmp_path / "sweep.tsv"), "--seg-dir", str(segdir),
        ])
        assert rc == 0
        names = sorted(p.name for p in segdir.iterdir())
        assert names == ["max_seg_len_10.yaml", "max_seg_len_8.yaml", "max_seg_len_9.yaml"]
        for name in names:
            parse_segments_yaml((segdir / name).read_text(encoding="utf-8"))

    def test_min_gap_is_checked_against_the_swept_caps(self, frames_file, tmp_path):
        # 25 s exceeds the default segmenter.max_seg_len of 22 s, but the
        # sweep's --min-gap only has to stay below the swept caps
        out = tmp_path / "sweep.tsv"
        rc = main([
            "sweep", "--transcripts", str(frames_file),
            "--lo", "30", "--hi", "32", "--min-gap", "25", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "30\t2\n31\t2\n32\t2\n"

    def test_lo_just_above_min_gap_runs(self, frames_file, tmp_path):
        # this exited 1 with "got 0.2, 0.2": the grid value was rounded to 9 decimals before its check;
        # each cap is lo + k * step, written with every digit, as "0.2" would read back as another value
        out = tmp_path / "sweep.tsv"
        rc = main(["sweep", "--transcripts", str(frames_file), "--lo", "0.2000000001", "--hi", "0.5",
                   "--step", "0.1", "--min-gap", "0.2", "--out", str(out)])
        assert rc == 0
        assert [line.split("\t")[0] for line in out.read_text(encoding="utf-8").splitlines()] == [
            "0.2000000001", "0.3000000001", "0.4000000001", "0.5000000001"]

    def test_huge_finite_grid_runs(self, frames_file, tmp_path):
        # this exited 1 with a bare "cannot convert float infinity to integer"
        out = tmp_path / "sweep.tsv"
        rc = main(["sweep", "--transcripts", str(frames_file), "--lo", "1e307", "--hi", "1e308", "--step", "1e305",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 901 and lines[0] == "1e+307\t2" and lines[-1] == "1e+308\t2"

    @pytest.mark.parametrize("lo, hi, step, caps", [
        ("20", "20.000003", "0.000001", [20.0, 20.000001, 20.000002, 20.000003]),
        ("1234567", "1234567", "1", [1234567.0]),
    ])
    def test_caps_keep_their_digits(self, frames_file, tmp_path, lo, hi, step, caps):
        # %g kept six digits: the fine grid wrote four "20" rows into one YAML file, and 1234567 read back as 1234570
        counts, segdir, transdir, curve = (tmp_path / n for n in ("counts.tsv", "segs", "trans", "curve.tsv"))
        assert main(["sweep", "--transcripts", str(frames_file), "--lo", lo, "--hi", hi, "--step", step,
                     "--out", str(counts), "--seg-dir", str(segdir)]) == 0
        shown = [line.split("\t")[0] for line in counts.read_text(encoding="utf-8").splitlines()]
        assert [float(cap) for cap in shown] == caps
        assert sorted(p.name for p in segdir.iterdir()) == sorted(f"max_seg_len_{cap}.yaml" for cap in shown)
        transdir.mkdir()
        for cap in shown:
            (transdir / f"max_seg_len_{cap}.txt").write_text("ja\nja\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("ja\nja\n", encoding="utf-8")
        assert main(["sweep-score", "--segdir", str(segdir), "--trans", str(transdir),
                     "--ref", str(tmp_path / "ref.txt"), "--out", str(curve)]) == 0
        assert [line.split("\t")[0] for line in curve.read_text(encoding="utf-8").splitlines()] == shown

    @pytest.mark.parametrize("flag, value, shown", [("--hi", "inf", "5.0, inf"), ("--lo", "nan", "nan, 25.0"),
                                                    ("--hi", "nan", "5.0, nan")])
    def test_non_finite_bound_exits_1(self, frames_file, tmp_path, caplog, flag, value, shown):
        # --hi inf never ended; a nan bound wrote an empty counts file and exited 0
        out = tmp_path / "sweep.tsv"
        rc = main(["sweep", "--transcripts", str(frames_file), "--lo", "5", "--hi", "25", flag, value,
                   "--out", str(out)])  # the later flag wins
        assert rc == 1
        assert f"need finite lo <= hi, got {shown}" in caplog.text
        assert not out.exists()


class TestFilter:
    def test_keeps_drops_and_reports(self, filter_fixture, tmp_path):
        manifest, hyps = filter_fixture
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--max-samples", "20000", "--out", str(out), "--report", str(report),
        ])
        assert rc == 0
        kept = read_lines(out, read_manifest)
        assert [e.id for e in kept] == ["m0", "e0"]
        report_rows = dict(
            line.split("\t") for line in report.read_text(encoding="utf-8").splitlines()
        )
        assert report_rows == {"m1": "asr_wer", "m2": "too_long"}

    def test_cleans_each_text_once_per_row(self, filter_fixture, tmp_path, monkeypatch):
        # the source and the target once each: the gate reads the cleaned target as it is
        manifest, hyps = filter_fixture
        entries = read_lines(manifest, read_manifest)
        entries.append(ManifestEntry("a0", "a0.wav", 16000, 3, "MuST-C-train", "Guten Morgen", "(Applaus)"))
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        hyps.write_text(hyps.read_text(encoding="utf-8") + "a0\tguten morgen\n", encoding="utf-8")
        calls = []

        def counting(sentence, *args):
            calls.append(sentence)
            return clean_target(sentence, *args)

        monkeypatch.setattr(cli, "clean_target", counting)
        monkeypatch.setattr(textfilter, "clean_target", counting)
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main(["filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
                   "--max-samples", "20000", "--out", str(out), "--report", str(report)])
        assert rc == 0
        assert len(calls) == 2 * len(entries) == 10
        assert "a0\tempty_after_filtering\n" in report.read_text(encoding="utf-8")

    def test_europarl_thousands_joined_in_output(self, filter_fixture, tmp_path):
        manifest, hyps = filter_fixture
        out = tmp_path / "kept.tsv"
        main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--max-samples", "20000", "--out", str(out),
            "--report", str(tmp_path / "r.tsv"),
        ])
        by_id = {e.id: e for e in read_lines(out, read_manifest)}
        assert by_id["e0"].src_text == "Wir haben 10,000 Stimmen"
        assert by_id["e0"].tgt_text == "We got 10,000 votes"

    def test_wer_threshold_flag(self, filter_fixture, tmp_path):
        manifest, hyps = filter_fixture
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--wer-threshold", "0.1",
            "--out", str(out), "--report", str(report),
        ])
        assert rc == 0
        kept = read_lines(out, read_manifest)
        # e0 (WER 0.4) now falls with m1; only near-exact matches survive
        assert [e.id for e in kept] == ["m0", "m2"]

    def test_missing_hypothesis_exits_1(self, filter_fixture, tmp_path, caplog):
        manifest, _ = filter_fixture
        empty_hyps = tmp_path / "none.tsv"
        empty_hyps.write_text("", encoding="utf-8")
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(empty_hyps),
            "--out", str(tmp_path / "o.tsv"), "--report", str(tmp_path / "r.tsv"),
        ])
        assert rc == 1
        assert f"{manifest}: line 2: no ASR hypothesis for id 'm0' in {empty_hyps}\n" in caplog.text

    def test_duplicate_hypothesis_id_exits_1(self, filter_fixture, tmp_path, caplog):
        manifest, hyps = filter_fixture
        with hyps.open("a", encoding="utf-8") as fh:
            fh.write("m1\tdas ist ein test\n")
        out = tmp_path / "o.tsv"
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--out", str(out), "--report", str(tmp_path / "r.tsv"),
        ])
        assert rc == 1
        assert not out.exists()
        assert f"{hyps}: line 5: duplicate id 'm1' (first on line 2)" in caplog.text

    def test_crlf_inputs_read_like_lf(self, filter_fixture, tmp_path):
        # inputs are read in universal-newline mode; only "\n" ends a line after that
        manifest, hyps = filter_fixture
        outs = []
        for name in ("lf", "crlf"):
            if name == "crlf":
                for path in (manifest, hyps):
                    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            out = tmp_path / f"{name}.tsv"
            rc = main([
                "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
                "--max-samples", "20000", "--out", str(out), "--report", str(tmp_path / f"{name}-r.tsv"),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0]
        assert b"\r" not in outs[0]

    def test_hypothesis_may_hold_a_unicode_line_separator(self, filter_fixture, tmp_path):
        manifest, hyps = filter_fixture
        text = hyps.read_text(encoding="utf-8").replace("guten morgen", "guten\u2028morgen")
        hyps.write_text(text, encoding="utf-8")
        out = tmp_path / "kept.tsv"
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--max-samples", "20000", "--out", str(out), "--report", str(tmp_path / "r.tsv"),
        ])
        assert rc == 0
        assert [e.id for e in read_lines(out, read_manifest)] == ["m0", "e0"]


    def test_judges_the_target_it_writes(self, tmp_path):
        # a second speaker marker was left in the written target, and a
        # target whose written form was "CA:" was dropped as empty
        entries = [ManifestEntry("s0", "s0.wav", 16000, 3, "MuST-C-train", "Guten Morgen", "DG: CA: Hallo"),
                   ManifestEntry("s1", "s1.wav", 16000, 3, "MuST-C-train", "Guten Morgen", "DG: CA:")]
        manifest, hyps = tmp_path / "m.tsv", tmp_path / "h.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        hyps.write_text("s0\tguten morgen\ns1\tguten morgen\n", encoding="utf-8")
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main(["filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
                   "--out", str(out), "--report", str(report)])
        assert rc == 0
        assert [e.tgt_text for e in read_lines(out, read_manifest)] == ["Hallo"]
        assert report.read_text(encoding="utf-8") == "s1\tempty_after_filtering\n"

    def test_first_error_in_file_order_is_reported(self, filter_fixture, tmp_path, caplog):
        # rows stream: a bad row read before an invalid byte is the error,
        # and no output is written; text is decoded in blocks of 8 KiB, so
        # the byte lies further on
        manifest, hyps = filter_fixture
        lines = manifest.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"16000", b"16k")
        lines[3] += b" " + b"x" * 50000 + b"\xff"
        manifest.write_bytes(b"\n".join(lines))
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main(["filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
                   "--out", str(out), "--report", str(report)])
        assert rc == 1
        assert f"{manifest}: line 2: n_samples must be a non-negative integer, got '16k'" in caplog.text
        assert not out.exists() and not report.exists()


def reference_filter(entries, hyps, cfg):
    """The filter stage as one clean_target + filter_pair call per entry."""
    kept, dropped = [], []
    for e in entries:
        fix = e.split.startswith("EuroparlST")
        src = clean_target(e.src_text, cfg.event_lexicon, fix)
        tgt = clean_target(e.tgt_text, cfg.event_lexicon, fix)
        decision = filter_pair(TranscriptPair(e.id, e.n_samples, src, tgt), normalize_for_asr(hyps[e.id]), cfg)
        if decision.keep:
            kept.append(ManifestEntry(e.id, e.audio, e.n_samples, e.n_tgt_tokens, e.split, src, tgt))
        else:
            dropped.append(f"{e.id}\t{decision.reason}\n")
    return manifest_text(kept), "".join(dropped)


class TestFilterAtScale:
    """2,000 rows, checked against the per-pair loop."""

    WORDS = "wir haben das ist ein test guten morgen zehn stimmen".split()
    SRC_EXTRAS = ["", " 10 000", " (Applaus)", " 25"]
    # three of every ten targets are empty after cleaning; "Anna: Bob:" only after the second pass
    TARGETS = ["We got 10 000 votes"] * 4 + ["DG: (Musik) yes", "Fine (Gelächter) thanks", "Hello",
                                            "Anna: Bob:", "(Applaus)", "(Musik)"]

    @pytest.fixture
    def big(self, tmp_path):
        rng = random.Random(11)
        entries, hyp_lines = [], []
        for i in range(2000):
            src = " ".join(rng.choice(self.WORDS) for _ in range(rng.randint(0, 25))) + rng.choice(self.SRC_EXTRAS)
            if i % 50 == 7:
                src = "... !!"  # normalizes to no words
            split = rng.choice(["MuST-C-train", "EuroparlST-train", "CoVoST-train"])
            entries.append(ManifestEntry(f"u{i:04d}", f"u{i}.wav", rng.randint(1000, 24000), 3, split,
                                         src, rng.choice(self.TARGETS)))
            hyp = normalize_for_asr(src)
            for _ in range(rng.randint(0, 6)):  # substitutions and deletions
                if hyp:
                    hyp[rng.randrange(len(hyp))] = rng.choice(["zeug", ""])
            hyp_lines.append(f"u{i:04d}\t{' '.join(w for w in hyp if w)}\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        hyps = tmp_path / "hyps.tsv"
        hyps.write_text("".join(hyp_lines), encoding="utf-8")
        return entries, manifest, hyps

    def test_matches_per_pair_loop(self, big, tmp_path):
        entries, manifest, hyps = big
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--max-samples", "20000", "--out", str(out), "--report", str(report),
        ])
        assert rc == 0
        hyp_text = dict(line.split("\t") for line in hyps.read_text(encoding="utf-8").splitlines())
        want_kept, want_dropped = reference_filter(entries, hyp_text, FilterConfig(max_samples=20000))
        assert out.read_text(encoding="utf-8") == want_kept
        assert report.read_text(encoding="utf-8") == want_dropped
        reasons = [line.split("\t")[1] for line in want_dropped.splitlines()]
        assert {"too_long", "empty_after_filtering", "asr_wer"} == set(reasons)
        assert "10,000" in want_kept
        # a second pass of clean_target strips "Bob:" as well
        anna = [e.id for e in entries if e.tgt_text == "Anna: Bob:" and e.n_samples <= 20000]
        assert anna and all(f"{ident}\tempty_after_filtering\n" in want_dropped for ident in anna)

    def test_missing_hypothesis_late_in_manifest_writes_nothing(self, big, tmp_path):
        _, manifest, hyps = big
        lines = hyps.read_text(encoding="utf-8").splitlines(keepends=True)
        hyps.write_text("".join(lines[:1200] + lines[1201:]), encoding="utf-8")
        out, report = tmp_path / "kept.tsv", tmp_path / "report.tsv"
        rc = main([
            "filter", "--manifest", str(manifest), "--asr-hyps", str(hyps),
            "--out", str(out), "--report", str(report),
        ])
        assert rc == 1
        assert not out.exists() and not report.exists()


def run_filter(entries, hyp_lines):
    """Run the filter stage over entries; (header, kept rows, report rows), rows by id in output order."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest, hyps = os.path.join(tmp, "m.tsv"), os.path.join(tmp, "h.tsv")
        out, report = os.path.join(tmp, "kept.tsv"), os.path.join(tmp, "report.tsv")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest_text(entries))
        with open(hyps, "w", encoding="utf-8") as fh:
            fh.write("".join(hyp_lines))
        assert main(["filter", "--manifest", manifest, "--asr-hyps", hyps, "--max-samples", "20000",
                     "--out", out, "--report", report]) == 0
        with open(out, encoding="utf-8") as fh:
            header, *kept = fh.read().splitlines(keepends=True)
        with open(report, encoding="utf-8") as fh:
            dropped = fh.read().splitlines(keepends=True)
    return header, [(line.split("\t", 1)[0], line) for line in kept], [(line.split("\t", 1)[0], line) for line in dropped]


@st.composite
def filter_row(draw, ident):
    """One manifest entry and its hypothesis line; every outcome is likely."""
    words = TestFilterAtScale.WORDS
    src = " ".join(draw(st.lists(st.sampled_from(words), max_size=8))) + draw(st.sampled_from(TestFilterAtScale.SRC_EXTRAS))
    entry = ManifestEntry(ident, f"{ident}.wav", draw(st.sampled_from([8000, 16000, 20000, 24000])), 3,
                          draw(st.sampled_from(["MuST-C-train", "EuroparlST-train"])), src,
                          draw(st.sampled_from(TestFilterAtScale.TARGETS)))
    hyp = [draw(st.sampled_from([w, w, w, "zeug", ""])) for w in normalize_for_asr(src)]  # substitutions, deletions
    hyp = " ".join(w for w in hyp if w)
    return entry, f"{ident}\t{hyp}\n"


filter_rows = st.integers(1, 10).flatmap(lambda n: st.tuples(*(filter_row(f"u{i}") for i in range(n))))


class TestFilterRelations:
    """Each row's decision and bytes depend on that row alone."""

    @given(filter_rows, st.data())
    @settings(max_examples=40, deadline=None)
    def test_permuting_rows_permutes_kept_and_report_rows_alike(self, rows, data):
        perm = data.draw(st.permutations(range(len(rows))))
        header, kept, dropped = run_filter(*zip(*rows))
        moved = [rows[i] for i in perm]
        ids = [entry.id for entry, _ in moved]
        header2, kept2, dropped2 = run_filter(*zip(*moved))
        assert header2 == header
        assert kept2 == sorted(kept, key=lambda row: ids.index(row[0]))
        assert dropped2 == sorted(dropped, key=lambda row: ids.index(row[0]))

    @given(filter_rows, filter_row("new"), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_row_with_a_new_id_leaves_every_other_row_alone(self, rows, new, data):
        at = data.draw(st.integers(0, len(rows)))
        header, kept, dropped = run_filter(*zip(*rows))
        header2, kept2, dropped2 = run_filter(*zip(*rows[:at], new, *rows[at:]))
        assert header2 == header
        assert [row for row in kept2 if row[0] != "new"] == kept
        assert [row for row in dropped2 if row[0] != "new"] == dropped
        assert len(kept2) + len(dropped2) == len(rows) + 1


class TestMemory:
    """Each stage holds what it must keep, not copies of its inputs' text: one row per stage.

    A row's bound is the tracemalloc peak of one cli.main call per byte of
    the inputs it reads, on 3,000 rows shaped like a MuST-C manifest.
    Measured in a fresh process: filter 3.2x when it held the whole text,
    its lines and every entry, and 0.9x streaming row by row; sample 4.6x,
    and 2.1x once it no longer holds the text beside the rows.

    Stages not yet in the table, with the ROADMAP item that adds each:
    segment and sweep (14), score and sweep-score (1), augment (5), and
    batch (none yet).
    """

    SYLLABLES = "ka ri to na me su lo ve ber ung sch ein da gen".split()
    SPLITS = ["MuST-C-train", "EuroparlST-train", "EuroparlST-dev", "CoVoST-train", "CoVoST-dev"]
    # stage: (argv, where {input} and {out} stand for an input's path and the output directory; the inputs
    # the stage reads; the bound on its peak bytes per input byte)
    STAGES = {
        "filter": ("filter --manifest {manifest} --asr-hyps {hyps} --out {out}/kept.tsv --report {out}/r.tsv",
                   ("manifest", "hyps"), 2.0),
        "sample": ("sample --manifest {manifest} --out {out}/e.tsv", ("manifest",), 3.3),
    }

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        rng = random.Random(3)
        vocab = ["".join(rng.choice(self.SYLLABLES) for _ in range(rng.randint(2, 4))) for _ in range(800)]
        entries, hyp_lines = [], []
        for i in range(3000):
            src = [rng.choice(vocab) for _ in range(max(3, min(45, int(rng.gauss(18, 8)))))]
            tgt = " ".join(rng.choice(vocab) for _ in src).capitalize() + "."
            entries.append(ManifestEntry(f"utt{i:06d}", f"wav/utt{i:06d}.wav", rng.randint(8000, 420000), len(src),
                                         rng.choice(self.SPLITS), " ".join(src), "DG: " * (i % 20 == 0) + tgt))
            hyp = [rng.choice(vocab) if rng.random() < 0.15 else w for w in src]
            hyp_lines.append(f"utt{i:06d}\t{' '.join(hyp)}\n")
        root = tmp_path_factory.mktemp("memory")
        manifest, hyps = root / "all.tsv", root / "hyps.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        hyps.write_text("".join(hyp_lines), encoding="utf-8")
        return {"manifest": manifest, "hyps": hyps}

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_peak_per_input_byte(self, corpus, tmp_path, stage):
        argv, reads, bound = self.STAGES[stage]
        argv = [arg.format(out=tmp_path, **corpus) for arg in argv.split()]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / sum(corpus[name].stat().st_size for name in reads)
        assert ratio < bound, ratio


class TestManifestNumbers:
    """Every manifest reader takes only str(int) numbers and names the file."""

    ARGS = {
        "filter": ["--asr-hyps", "{d}/hyps.tsv", "--out", "{d}/kept.tsv", "--report", "{d}/r.tsv"],
        "sample": ["--out", "{d}/epoch.tsv"],
        "batch": ["--out", "{d}/batches.jsonl"],
        "augment": ["--out", "{d}/aug"],
    }

    def run(self, tmp_path, command, n_samples="16000", n_tgt_tokens="3"):
        manifest = tmp_path / "m.tsv"
        row = ["u0", "u0.wav", n_samples, n_tgt_tokens, "MuST-C-train", "hallo", "hello"]
        manifest.write_text(manifest_text([]) + "\t".join(row) + "\n", encoding="utf-8")
        (tmp_path / "hyps.tsv").write_text("u0\thallo\n", encoding="utf-8")
        flag = "--manifest" if command in ("filter", "sample") else "--in"
        args = [a.format(d=tmp_path) for a in self.ARGS[command]]
        return manifest, main([command, flag, str(manifest), *args])

    @pytest.mark.parametrize("value", [" 7", "7 ", "+7", "-7", "07", "00", "7_000", "\u0667", "\uff17", "\u00b2", "1e400", "7.0", ""])
    def test_non_canonical_number_rejected(self, tmp_path, caplog, value):
        manifest, rc = self.run(tmp_path, "filter", n_samples=value)
        assert rc == 1
        assert f"{manifest}: line 2: n_samples must be a non-negative integer, got {value!r}" in caplog.text
        assert not (tmp_path / "kept.tsv").exists()

    @pytest.mark.parametrize("command", ["filter", "sample", "batch", "augment"])
    def test_every_reader_names_the_file(self, tmp_path, caplog, command):
        manifest, rc = self.run(tmp_path, command, n_tgt_tokens="03")
        assert rc == 1
        assert f"{manifest}: line 2: n_tgt_tokens must be a non-negative integer, got '03'" in caplog.text


class TestInputErrorsNameTheFile:
    """A bad input fails with exit 1, one ERROR line that starts with its path, and no output."""

    def run(self, caplog, argv, path, out):
        assert main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"{path}: "), errors
        assert not out.exists()
        return errors[0]

    @pytest.mark.parametrize("command", ["segment", "sweep"])
    def test_frame_transcript_error(self, tmp_path, caplog, command):
        path = tmp_path / "frames.jsonl"
        path.write_text(jsonl_line("x.wav", ["a"]) + "\n" + jsonl_line("y.wav", ["a"], frame_ms=0) + "\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        message = self.run(caplog, [command, "--transcripts", str(path), "--out", str(out)], path, out)
        assert message == f"{path}: line 2: y.wav: frame_ms must be positive, got 0"

    @pytest.mark.parametrize("command", ["segment", "sweep"])
    def test_frame_ms_above_bound(self, tmp_path, caplog, command):
        # seconds = frames * frame_ms / 1000 used to overflow as a bare "int too large to convert to float"
        path = tmp_path / "frames.jsonl"
        path.write_text(jsonl_line("x.wav", ["a"], frame_ms=60_000) + "\n"
                        + jsonl_line("y.wav", ["a"], frame_ms=10**400) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        message = self.run(caplog, [command, "--transcripts", str(path), "--out", str(out)], path, out)
        assert message == f"{path}: line 2: y.wav: frame_ms must be at most 60000, got {10**400}"

    @pytest.mark.parametrize("reader", ["transcripts", "manifest", "hyps", "ref", "config", "segments"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, caplog, filter_fixture, frames_file, reader):
        manifest, hyps = filter_fixture
        ref = tmp_path / "ref.txt"
        ref.write_text("the cat\nsat\n", encoding="utf-8")
        config = tmp_path / "run.toml"
        config.write_text("[seeds]\nseed = 3\n", encoding="utf-8")
        segdir, trans = tmp_path / "segs", tmp_path / "trans"
        segdir.mkdir()
        trans.mkdir()
        segments = segdir / "max_seg_len_5.yaml"
        segments.write_text(write_segments_yaml([Segment("a.wav", 0.0, 1.0, "a"), Segment("a.wav", 1.0, 1.0, "a")]),
                            encoding="utf-8")
        (trans / "max_seg_len_5.txt").write_text("the cat\nsat\n", encoding="utf-8")
        out = tmp_path / "out"
        argv, path = {
            "config": (["--config", str(config), "sample", "--manifest", str(manifest), "--out", str(out)], config),
            "segments": (["sweep-score", "--segdir", str(segdir), "--trans", str(trans), "--ref", str(ref),
                          "--out", str(out)], segments),
            "transcripts": (["segment", "--transcripts", str(frames_file), "--out", str(out)], frames_file),
            "manifest": (["sample", "--manifest", str(manifest), "--out", str(out)], manifest),
            "hyps": (["filter", "--manifest", str(manifest), "--asr-hyps", str(hyps), "--out", str(out),
                      "--report", str(out)], hyps),
            "ref": (["score", "--hyp", str(ref), "--ref", str(ref)], ref),
        }[reader]
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
        path.write_bytes(b"\n".join(lines))
        message = self.run(caplog, argv, path, out)
        assert message.startswith(f"{path}: line 2: invalid UTF-8 (invalid start byte at byte ")


class TestAugment:
    def test_single_wav_runs_deterministically(self, tmp_path):
        wav = tmp_path / "clip.wav"
        tone_wav(wav)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        for out in (out1, out2):
            rc = main([
                "--seed", "11", "augment", "--in", str(wav),
                "--p-aug", "1.0", "--out", str(out),
            ])
            assert rc == 0
        assert (out1 / "clip.wav").read_bytes() == (out2 / "clip.wav").read_bytes()
        log1 = (out1 / "augment_log.tsv").read_text(encoding="utf-8")
        assert log1 == (out2 / "augment_log.tsv").read_text(encoding="utf-8")
        fields = log1.splitlines()[0].split("\t")
        assert fields[0] == "clip" and fields[1] == "1"
        assert 0.85 <= float(fields[2]) <= 1.3

    def test_p_aug_zero_passes_audio_through(self, tmp_path):
        wav = tmp_path / "clip.wav"
        tone_wav(wav)
        out = tmp_path / "out"
        rc = main(["augment", "--in", str(wav), "--p-aug", "0.0", "--out", str(out)])
        assert rc == 0
        log = (out / "augment_log.tsv").read_text(encoding="utf-8")
        assert log == "clip\t0\t-\t-\t-\t-\n"
        original = load_wav(wav)
        copied = load_wav(out / "clip.wav")
        np.testing.assert_array_equal(copied.samples, original.samples)

    def test_manifest_mode_with_audio_root(self, tmp_path):
        audio_dir = tmp_path / "audio"
        audio_dir.mkdir()
        for ident in ("u0", "u1"):
            tone_wav(audio_dir / f"{ident}.wav")
        entries = [
            ManifestEntry("u0", "u0.wav", 8000, 2, "MuST-C-train", "a", "b"),
            ManifestEntry("u1", "u1.wav", 8000, 2, "MuST-C-train", "c", "d"),
        ]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        out = tmp_path / "out"
        rc = main([
            "--seed", "4", "augment", "--in", str(manifest),
            "--audio-root", str(audio_dir), "--out", str(out),
        ])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["augment_log.tsv", "u0.wav", "u1.wav"]

    def test_missing_audio_exits_1(self, tmp_path):
        rc = main(["augment", "--in", str(tmp_path / "no.wav"), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize(
        "flag, lo, hi, field",
        [
            ("--tempo", "1.0", "2.05", "tempo_range"),
            ("--tempo", "2.1", "2.5", "tempo_range"),
            ("--pitch", "-1300", "0", "pitch_range_cents"),
            ("--echo-delay", "-5", "20", "echo_delay_ms_range"),
            ("--echo-decay", "0.0", "1.02", "echo_decay_range"),
        ],
    )
    def test_range_outside_effect_limits_exits_1_before_writing(self, tmp_path, caplog, flag, lo, hi, field):
        wav = tmp_path / "clip.wav"
        tone_wav(wav)
        out = tmp_path / "out"
        rc = main(["augment", "--in", str(wav), "--p-aug", "1.0", flag, lo, hi, "--out", str(out)])
        assert rc == 1
        assert field in caplog.text
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/dir"])
    def test_id_that_leaves_out_dir_exits_1(self, tmp_path, caplog, bad_id):
        audio_dir = tmp_path / "audio"
        audio_dir.mkdir()
        tone_wav(audio_dir / "u0.wav")
        entries = [
            ManifestEntry("u0", "u0.wav", 8000, 2, "MuST-C-train", "a", "b"),
            ManifestEntry(bad_id, "u0.wav", 8000, 2, "MuST-C-train", "c", "d"),
        ]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        out = tmp_path / "trav" / "out" / "aug"
        (out / "sub").mkdir(parents=True)
        rc = main([
            "augment", "--in", str(manifest), "--audio-root", str(audio_dir), "--out", str(out),
        ])
        assert rc == 1
        assert f"{manifest}: id {bad_id!r}" in caplog.text
        assert [p for p in (tmp_path / "trav").rglob("*") if p.is_file()] == []


class TestSample:
    def entries(self):
        return [
            ManifestEntry(f"c{i}", f"c{i}.wav", 16000, 4, "CoVoST-train")
            for i in range(10)
        ]

    def test_matches_library_with_derived_seed(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(self.entries()), encoding="utf-8")
        out = tmp_path / "epoch.tsv"
        rc = main([
            "--seed", "7", "sample", "--manifest", str(manifest),
            "--epoch", "2", "--out", str(out),
        ])
        assert rc == 0
        got = [e.id for e in read_lines(out, read_manifest)]
        want = [
            e.id for e in epoch_sample(self.entries(), SamplingSpec(), 7 * EPOCH_SEED_STRIDE + 2)
        ]
        assert got == want
        assert len(got) == 3  # floor(0.3 * 10)

    def test_epochs_vary_the_draw(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(self.entries()), encoding="utf-8")
        picks = []
        for epoch in range(6):
            out = tmp_path / f"e{epoch}.tsv"
            main(["sample", "--manifest", str(manifest), "--epoch", str(epoch), "--out", str(out)])
            picks.append(tuple(e.id for e in read_lines(out, read_manifest)))
        assert len(set(picks)) > 1


class TestBatch:
    def test_packs_and_prints_stats(self, tmp_path, capsys):
        entries = [
            ManifestEntry(f"x{i}", f"x{i}.wav", 16000, 4, "MuST-C-train") for i in range(5)
        ]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        cfg = tmp_path / "st.toml"
        cfg.write_text("[batch]\nmax_src_samples = 33000\n", encoding="utf-8")
        out = tmp_path / "batches.jsonl"
        rc = main([
            "--config", str(cfg), "batch",
            "--in", str(manifest), "--max-batch", "33000", "--out", str(out),
        ])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["index"] for r in rows] == list(range(len(rows)))
        assert all(r["total_samples"] <= 33000 for r in rows)
        assert sorted(i for r in rows for i in r["ids"]) == [f"x{i}" for i in range(5)]
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_entries"] == 5
        assert stats["num_batches"] == len(rows)

    def test_overlong_entries_dropped_before_packing(self, tmp_path):
        entries = [
            ManifestEntry("ok", "ok.wav", 16000, 4, "MuST-C-train"),
            ManifestEntry("huge", "huge.wav", 500_000, 4, "MuST-C-train"),
        ]
        manifest = tmp_path / "m.tsv"
        manifest.write_text(manifest_text(entries), encoding="utf-8")
        out = tmp_path / "batches.jsonl"
        assert main(["batch", "--in", str(manifest), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["ids"] for r in rows] == [["ok"]]


class TestScore:
    def test_identity_line_format(self, tmp_path, capsys):
        text = "the cat sat on the mat\n"
        (tmp_path / "hyp.txt").write_text(text, encoding="utf-8")
        (tmp_path / "ref.txt").write_text(text, encoding="utf-8")
        rc = main(["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")])
        assert rc == 0
        line = capsys.readouterr().out.rstrip("\n")
        assert line == (
            "BLEU = 100.00 100.0/100.0/100.0/100.0 (bp = 1.000, hyp_len = 6, ref_len = 6)"
        )

    def test_line_count_mismatch_needs_resegment(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("the cat sat on the mat\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("the cat sat\non the mat\n", encoding="utf-8")
        args = ["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")]
        assert main(args) == 1
        assert main(args + ["--resegment"]) == 0
        line = capsys.readouterr().out.rstrip("\n")
        # perfect alignment, but 3-token segments have no 4-grams, so the
        # smoothed p4 is 50% and the score lands at 100 * 0.5 ** 0.25
        assert line == (
            "BLEU = 84.09 100.0/100.0/100.0/50.0 (bp = 1.000, hyp_len = 6, ref_len = 6)"
        )

    def test_empty_hypothesis_flagged(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("some reference text\n", encoding="utf-8")
        rc = main([
            "score", "--hyp", str(tmp_path / "hyp.txt"),
            "--ref", str(tmp_path / "ref.txt"), "--resegment",
        ])
        assert rc == 0
        assert capsys.readouterr().out.rstrip("\n").endswith(" [empty hypothesis]")

    @pytest.mark.parametrize("resegment", [[], ["--resegment"]])
    def test_only_a_line_feed_ends_a_reference(self, tmp_path, capsys, resegment):
        # U+0085 and U+2028 are whitespace inside a line, not line ends
        (tmp_path / "hyp.txt").write_text("das ist gut wirklich schön\nnoch mehr davon\n", encoding="utf-8")
        lines = []
        for sep in (" ", "\x85 ", "\u2028"):
            (tmp_path / "ref.txt").write_text(f"das ist gut{sep}wirklich schön\nnoch mehr davon\n", encoding="utf-8")
            rc = main(["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"), *resegment])
            assert rc == 0
            lines.append(capsys.readouterr().out)
        assert lines[1] == lines[2] == lines[0]


class TestSweepScore:
    def seed_dir(self, tmp_path, translations_by_value):
        segdir = tmp_path / "segs"
        transdir = tmp_path / "trans"
        segdir.mkdir()
        transdir.mkdir()
        segments = [
            Segment("a.wav", 0.0, 2.0, "spk"),
            Segment("a.wav", 2.0, 2.0, "spk"),
        ]
        for value, lines in translations_by_value.items():
            stem = f"max_seg_len_{value:g}"
            (segdir / f"{stem}.yaml").write_text(
                write_segments_yaml(segments), encoding="utf-8"
            )
            (transdir / f"{stem}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
        return segdir, transdir

    def test_scores_each_value(self, tmp_path):
        segdir, transdir = self.seed_dir(tmp_path, {
            8: ["guten morgen meine damen", "und sehr geehrte herren"],
            12: ["guten morgen meine damen", "völlig andere worte hier"],
        })
        ref = tmp_path / "ref.txt"
        ref.write_text("guten morgen meine damen\nund sehr geehrte herren\n", encoding="utf-8")
        out = tmp_path / "curve.tsv"
        rc = main([
            "sweep-score", "--segdir", str(segdir), "--trans", str(transdir),
            "--ref", str(ref), "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r[0] for r in rows] == ["8", "12"]
        assert float(rows[0][1]) == 100.0
        assert float(rows[1][1]) < 100.0

    def test_unparseable_value_in_name_exits_1(self, tmp_path):
        segdir = tmp_path / "segs"
        segdir.mkdir()
        (segdir / "oops.yaml").write_text(
            write_segments_yaml([Segment("a.wav", 0.0, 1.0, "s")]), encoding="utf-8"
        )
        transdir = tmp_path / "trans"
        transdir.mkdir()
        ref = tmp_path / "ref.txt"
        ref.write_text("x\n", encoding="utf-8")
        rc = main([
            "sweep-score", "--segdir", str(segdir), "--trans", str(transdir),
            "--ref", str(ref), "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("name", ["x_nan.yaml", "y_NaN.yaml", "z_inf.yaml", "w_-inf.yml", "v_0.yaml", "u_-5.yaml"])
    def test_non_finite_or_non_positive_value_in_name_exits_1(self, tmp_path, caplog, name):
        segdir, transdir = self.seed_dir(tmp_path, {8: ["a", "b"]})
        (segdir / name).write_text((segdir / "max_seg_len_8.yaml").read_text(encoding="utf-8"), encoding="utf-8")
        (transdir / (name.rsplit(".", 1)[0] + ".txt")).write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a\nb\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        rc = main([
            "sweep-score", "--segdir", str(segdir), "--trans", str(transdir),
            "--ref", str(tmp_path / "ref.txt"), "--out", str(out),
        ])
        assert rc == 1
        assert f"{segdir / name}: max_seg_len" in caplog.text
        assert "not a positive finite number" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("names", [
        ("max_seg_len_5.yaml", "max_seg_len_5.0.yaml"),
        ("x_5.yaml", "x_5.yml"),
    ])
    def test_two_files_for_one_value_exit_1(self, tmp_path, caplog, names):
        segdir, transdir = tmp_path / "segs", tmp_path / "trans"
        segdir.mkdir()
        transdir.mkdir()
        for name in names:
            (segdir / name).write_text(
                write_segments_yaml([Segment("a.wav", 0.0, 1.0, "s")]), encoding="utf-8"
            )
            (transdir / (name.rsplit(".", 1)[0] + ".txt")).write_text("x\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("x\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        rc = main([
            "sweep-score", "--segdir", str(segdir), "--trans", str(transdir),
            "--ref", str(tmp_path / "ref.txt"), "--out", str(out),
        ])
        assert rc == 1
        assert all(name in caplog.text for name in names)
        assert not out.exists()

    def test_non_finite_time_names_the_file_and_entry(self, tmp_path, caplog):
        segdir, transdir = self.seed_dir(tmp_path, {8: ["a", "b"]})
        path = segdir / "max_seg_len_8.yaml"
        path.write_text(path.read_text(encoding="utf-8").replace("offset: 2.000000", "offset: .nan"), encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a\nb\n", encoding="utf-8")
        rc = main([
            "sweep-score", "--segdir", str(segdir), "--trans", str(transdir),
            "--ref", str(tmp_path / "ref.txt"), "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 1
        assert f"{path}: line 2: offset must be an unsigned decimal, got .nan\n" in caplog.text

    def test_empty_segdir_exits_1(self, tmp_path):
        (tmp_path / "segs").mkdir()
        (tmp_path / "trans").mkdir()
        (tmp_path / "ref.txt").write_text("x\n", encoding="utf-8")
        rc = main([
            "sweep-score", "--segdir", str(tmp_path / "segs"), "--trans", str(tmp_path / "trans"),
            "--ref", str(tmp_path / "ref.txt"), "--out", str(tmp_path / "o.tsv"),
        ])
        assert rc == 1


SWEEP_WORDS = "guten morgen meine damen und herren wie geht es euch".split()


@st.composite
def sweep_talks(draw):
    """2-4 talks, each (reference lines, {swept value: translations}).

    A talk's translations are its reference words, two of them perhaps
    replaced, cut into segments at points drawn anew for each value.
    """
    talks = []
    for _ in range(draw(st.integers(2, 4))):
        refs = draw(st.lists(st.lists(st.sampled_from(SWEEP_WORDS), min_size=4, max_size=6).map(" ".join),
                             min_size=1, max_size=3))
        words = " ".join(refs).split()
        for i in draw(st.sets(st.integers(0, len(words) - 1), max_size=2)):
            words[i] = "falsch"
        cuts = {value: sorted(draw(st.sets(st.integers(1, len(words) - 1), max_size=3))) for value in (5, 10)}
        talks.append((refs, {value: [" ".join(words[a:b]) for a, b in zip([0, *c], [*c, len(words)])]
                             for value, c in cuts.items()}))
    return talks


def sweep_curve(talks, wavs, perms=None):
    """curve.tsv of sweep-score over talks named wavs, the segment lines
    of talk k at value v in the order perms[k, v] (default: by offset)."""
    with tempfile.TemporaryDirectory() as tmp:
        segdir, transdir = os.path.join(tmp, "segs"), os.path.join(tmp, "trans")
        os.mkdir(segdir)
        os.mkdir(transdir)
        for value in (5, 10):
            segments, translations = [], []
            for k, (wav, (_, by_value)) in enumerate(zip(wavs, talks)):
                chunks = by_value[value]
                for i in (perms or {}).get((k, value), range(len(chunks))):
                    segments.append(Segment(wav, float(i), 1.0, "spk"))
                    translations.append(chunks[i] + "\n")
            with open(os.path.join(segdir, f"max_seg_len_{value}.yaml"), "w", encoding="utf-8") as fh:
                fh.write(write_segments_yaml(segments))
            with open(os.path.join(transdir, f"max_seg_len_{value}.txt"), "w", encoding="utf-8") as fh:
                fh.write("".join(translations))
        ref, out = os.path.join(tmp, "ref.txt"), os.path.join(tmp, "curve.tsv")
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for refs, _ in talks for line in refs))
        assert main(["sweep-score", "--segdir", segdir, "--trans", transdir, "--ref", ref, "--out", out]) == 0
        with open(out, "rb") as fh:
            return fh.read()


class TestSweepScoreRelations:
    """The curve depends on the talks' order in the candidate, not on their names or line order."""

    @given(sweep_talks(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_injective_wav_rename_leaves_the_curve_unchanged(self, talks, data):
        names = st.lists(st.integers(0, 10_000).map(lambda n: f"talk{n}.wav"), min_size=len(talks),
                         max_size=len(talks), unique=True)
        assert sweep_curve(talks, data.draw(names)) == sweep_curve(talks, data.draw(names))

    @given(sweep_talks(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_shuffling_lines_within_a_talk_leaves_the_curve_unchanged(self, talks, data):
        wavs = [f"talk{10 - k}.wav" for k in range(len(talks))]
        perms = {(k, value): data.draw(st.permutations(range(len(chunks))))
                 for k, (_, by_value) in enumerate(talks) for value, chunks in by_value.items()}
        assert sweep_curve(talks, wavs, perms) == sweep_curve(talks, wavs)


@st.composite
def frame_talks(draw, min_size=1):
    """1-4 frame transcripts with distinct ids: runs of speech and silence, long enough to split under 1-4 s caps."""
    runs = st.lists(st.tuples(st.sampled_from(["ja", "", "ja"]), st.integers(1, 15)), min_size=1, max_size=10)
    n = draw(st.integers(min_size, 4))
    return [(f"talk{k}.wav", draw(st.sampled_from([20, 40, 100])),
             [token for token, length in draw(runs) for _ in range(length)]) for k in range(n)]


def segment_outputs(talks):
    """(segment's YAML at a 2 s cap, sweep's counts TSV over caps 1-4 s, {file name: text} of sweep's YAMLs)."""
    with tempfile.TemporaryDirectory() as tmp:
        frames, yaml, counts, segdir = (os.path.join(tmp, name) for name in ("f.jsonl", "s.yaml", "c.tsv", "segs"))
        with open(frames, "w", encoding="utf-8") as fh:
            fh.write("".join(jsonl_line(audio, tokens, frame_ms) + "\n" for audio, frame_ms, tokens in talks))
        assert main(["segment", "--transcripts", frames, "--max-seg-len", "2", "--out", yaml]) == 0
        assert main(["sweep", "--transcripts", frames, "--lo", "1", "--hi", "4", "--out", counts,
                     "--seg-dir", segdir]) == 0
        swept = {name: read_text(os.path.join(segdir, name)) for name in sorted(os.listdir(segdir))}
        return read_text(yaml), read_text(counts), swept


class TestSegmentRelations:
    """A talk's segments depend on that talk alone, and its id only names them."""

    @given(frame_talks(min_size=2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_talks_a_then_b_give_a_then_b(self, talks, data):
        at = data.draw(st.integers(1, len(talks) - 1))
        yaml, counts, swept = segment_outputs(talks)
        yaml_a, counts_a, swept_a = segment_outputs(talks[:at])
        yaml_b, counts_b, swept_b = segment_outputs(talks[at:])
        assert yaml == yaml_a + yaml_b
        assert swept.keys() == swept_a.keys() == swept_b.keys()
        assert all(swept[name] == swept_a[name] + swept_b[name] for name in swept)
        rows, rows_a, rows_b = ([line.split("\t") for line in split_lines(c)] for c in (counts, counts_a, counts_b))
        assert [value for value, _ in rows] == [value for value, _ in rows_a] == [value for value, _ in rows_b]
        assert [int(n) for _, n in rows] == [int(a) + int(b) for (_, a), (_, b) in zip(rows_a, rows_b)]

    @given(frame_talks(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_injective_id_rename_changes_only_wav_and_speaker(self, talks, data):
        names = st.tuples(st.text(st.sampled_from("ab9 ._-/é"), min_size=1, max_size=6),
                          st.sampled_from([".wav", ".flac", ""])).map("".join)
        new_ids = data.draw(st.lists(names, min_size=len(talks), max_size=len(talks), unique=True))
        rename = {audio: new for (audio, _, _), new in zip(talks, new_ids)}
        before = segment_outputs(talks)
        after = segment_outputs([(rename[audio], frame_ms, tokens) for audio, frame_ms, tokens in talks])
        assert after[1] == before[1]  # the counts
        assert after[2].keys() == before[2].keys()
        for old_text, new_text in [(before[0], after[0]), *((before[2][n], after[2][n]) for n in before[2])]:
            old, new = parse_segments_yaml(old_text), parse_segments_yaml(new_text)
            assert [rename[s.wav] for s in old] == [s.wav for s in new]
            assert len({(s.wav, s.speaker_id) for s in new}) == len({s.wav for s in new})  # one speaker per id
            # every byte but the two fields' is the old file's
            assert write_segments_yaml([s._replace(wav=n.wav, speaker_id=n.speaker_id) for s, n in zip(old, new)]) \
                == new_text


def augment_outputs(rows, seed=7):
    """{file name: bytes} that augment writes for manifest rows [(id, seconds, tone Hz)] of 8 kHz tones."""
    with tempfile.TemporaryDirectory() as tmp:
        audio, out, manifest = (os.path.join(tmp, name) for name in ("audio", "out", "m.tsv"))
        os.mkdir(audio)
        for ident, seconds, freq in rows:
            tone_wav(os.path.join(audio, f"{ident}.wav"), freq=freq, seconds=seconds, rate=8000)
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest_text([ManifestEntry(ident, f"{ident}.wav", 8000, 2, "MuST-C-train", "a", "b")
                                    for ident, _, _ in rows]))
        assert main(["--seed", str(seed), "augment", "--in", manifest, "--p-aug", "0.7", "--audio-root", audio,
                     "--out", out]) == 0
        files = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return files


clip_rows = st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "u3", "x"]), st.sampled_from([0.1, 0.25]),
                               st.sampled_from([220.0, 440.0, 1000.0])), min_size=1, max_size=3,
                     unique_by=lambda row: row[0])


class TestAugmentRelations:
    """A clip's draw and bytes depend on its id and seed alone."""

    @given(clip_rows, st.tuples(st.just("new"), st.sampled_from([0.1, 0.25]), st.sampled_from([300.0, 500.0])),
           st.data())
    @settings(max_examples=15, deadline=None)
    def test_a_row_with_a_new_id_leaves_every_other_clip_alone(self, rows, new, data):
        at = data.draw(st.integers(0, len(rows)))
        before = augment_outputs(rows)
        after = augment_outputs([*rows[:at], new, *rows[at:]])
        log = after.pop("augment_log.tsv").decode().splitlines(keepends=True)
        assert [line for line in log if not line.startswith("new\t")] == \
            before.pop("augment_log.tsv").decode().splitlines(keepends=True)
        assert after.pop("new.wav") and after == before


def score_line(pairs):
    """score's BLEU line for (hypothesis, reference) line pairs, without --resegment."""
    with tempfile.TemporaryDirectory() as tmp:
        hyp, ref = os.path.join(tmp, "hyp.txt"), os.path.join(tmp, "ref.txt")
        for path, lines in ((hyp, [h for h, _ in pairs]), (ref, [r for _, r in pairs])):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["score", "--hyp", hyp, "--ref", ref]) == 0
        return buf.getvalue()


score_pairs = st.lists(st.tuples(*[st.lists(st.sampled_from(SWEEP_WORDS + ["falsch", "."]), min_size=size,
                                             max_size=8).map(" ".join) for size in (0, 1)]), min_size=1, max_size=8)


class TestScoreRelations:
    @given(score_pairs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_permuting_line_pairs_leaves_the_bleu_line_unchanged(self, pairs, data):
        perm = data.draw(st.permutations(pairs))
        assert score_line(perm) == score_line(pairs)


class TestOneScoringPath:
    @given(st.lists(st.lists(st.sampled_from(SWEEP_WORDS + ["falsch", "."]), max_size=8).map(" ".join),
                    min_size=1, max_size=6),
           st.lists(st.lists(st.sampled_from(SWEEP_WORDS + ["."]), min_size=1, max_size=8).map(" ".join),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_score_resegment_prints_the_bleu_line_of_sweep_score(self, lines, refs):
        # score --resegment on lines L and sweep-score on one YAML whose segments carry L in order run one path
        results = []

        def spy(*args):
            results.append(evalign.score_segmentation(*args))
            return results[-1]

        with tempfile.TemporaryDirectory() as tmp:
            hyp, ref, curve = (os.path.join(tmp, n) for n in ("hyp.txt", "ref.txt", "curve.tsv"))
            segdir, transdir = os.path.join(tmp, "segs"), os.path.join(tmp, "trans")
            os.mkdir(segdir)
            os.mkdir(transdir)
            for path, text in ((hyp, lines), (ref, refs), (os.path.join(transdir, "max_seg_len_5.txt"), lines)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("".join(line + "\n" for line in text))
            with open(os.path.join(segdir, "max_seg_len_5.yaml"), "w", encoding="utf-8") as fh:
                fh.write(write_segments_yaml([Segment("talk.wav", float(i), 1.0, "spk") for i in range(len(lines))]))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["score", "--hyp", hyp, "--ref", ref, "--resegment"]) == 0
            with mock.patch.object(cli, "score_segmentation", spy):
                assert main(["sweep-score", "--segdir", segdir, "--trans", transdir, "--ref", ref, "--out", curve]) == 0
            with open(curve, encoding="utf-8") as fh:
                assert fh.read() == f"5\t{results[0].score:.4f}\n"
        assert buf.getvalue() == cli._bleu_line(results[0]) + "\n"


class TestParamsReport:
    def test_totals(self, capsys):
        assert main(["params-report"]) == 0
        out = capsys.readouterr().out
        assert "total parameters: 791,888,384" in out
        assert "decoder.embed_tokens" in out
        assert "256,000,000" in out
        assert "trainable" not in out

    def test_lna_summary(self, capsys):
        assert main(["params-report", "--lna"]) == 0
        out = capsys.readouterr().out
        assert "trainable parameters: 169,164,800" in out
        assert "trainable fraction: 0.2136" in out


def _all_actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _all_actions(sub)


# a value each flag's type accepts that passes the config's range checks
_SAMPLE_VALUE = {float: 1.0, int: 1_000_000, None: "x"}


def test_every_dotted_flag_dest_is_a_config_key():
    dotted = [a for a in _all_actions(build_parser()) if "." in a.dest]
    assert len(dotted) == 12
    for action in dotted:
        section, key = action.dest.split(".", 1)
        # a pair inside every augment range's legal limits (tempo needs >= 0.5)
        value = [0.6, 0.7] if action.nargs == 2 else _SAMPLE_VALUE[action.type]
        config_from_dict({section: {key: value}})
        assert action.metavar is not None, action.dest


class TestConfigPrecedence:
    def test_config_file_applies(self, frames_file, tmp_path):
        cfg = tmp_path / "st.toml"
        cfg.write_text("[segmenter]\nmax_seg_len = 8\n", encoding="utf-8")
        out = tmp_path / "o.yaml"
        rc = main([
            "--config", str(cfg), "segment",
            "--transcripts", str(frames_file), "--out", str(out),
        ])
        assert rc == 0
        assert len(parse_segments_yaml(out.read_text(encoding="utf-8"))) == 4

    def test_env_overrides_file(self, frames_file, tmp_path, monkeypatch):
        cfg = tmp_path / "st.toml"
        cfg.write_text("[segmenter]\nmax_seg_len = 8\n", encoding="utf-8")
        monkeypatch.setenv("STFORGE_SEGMENTER_MAX_SEG_LEN", "22")
        out = tmp_path / "o.yaml"
        rc = main([
            "--config", str(cfg), "segment",
            "--transcripts", str(frames_file), "--out", str(out),
        ])
        assert rc == 0
        assert len(parse_segments_yaml(out.read_text(encoding="utf-8"))) == 2

    def test_flag_overrides_env(self, frames_file, tmp_path, monkeypatch):
        monkeypatch.setenv("STFORGE_SEGMENTER_MAX_SEG_LEN", "22")
        out = tmp_path / "o.yaml"
        rc = main([
            "segment", "--transcripts", str(frames_file),
            "--max-seg-len", "8", "--out", str(out),
        ])
        assert rc == 0
        assert len(parse_segments_yaml(out.read_text(encoding="utf-8"))) == 4

    def test_config_parse_error_names_the_file(self, tmp_path, caplog):
        cfg = tmp_path / "run.toml"
        cfg.write_text("[x]\na = 1\na = 2\n", encoding="utf-8")
        assert main(["--config", str(cfg), "params-report"]) == 1
        assert "run.toml" in caplog.text and "line 3" in caplog.text

    def test_infinite_flag_value_names_the_key(self, frames_file, tmp_path, caplog):
        rc = main([
            "segment", "--transcripts", str(frames_file),
            "--max-seg-len", "inf", "--out", str(tmp_path / "o.yaml"),
        ])
        assert rc == 1
        assert "segmenter.max_seg_len must be a finite number, got inf" in caplog.text

    def test_bad_config_exits_1(self, frames_file, tmp_path):
        cfg = tmp_path / "st.toml"
        cfg.write_text("[filter]\nevents = [1]\n", encoding="utf-8")
        rc = main([
            "--config", str(cfg), "segment",
            "--transcripts", str(frames_file), "--out", str(tmp_path / "o.yaml"),
        ])
        assert rc == 1

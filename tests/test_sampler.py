"""Epoch sampling ratios, batch packing, manifest serialization."""

import io
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stforge.sampler import (
    DEFAULT_RATIOS,
    MANIFEST_COLUMNS,
    TRAINING_SPLITS,
    BatchSpec,
    ManifestEntry,
    SamplingSpec,
    batch_stats,
    build_batches,
    epoch_sample,
    filter_lengths,
    read_manifest,
    write_manifest,
)

from oracles import first_fit


def entry(ident, n_samples=16000, split="MuST-C-train", n_tgt=5):
    return ManifestEntry(ident, f"{ident}.wav", n_samples, n_tgt, split)


def corpus(counts):
    """counts: {split: N} -> entries with per-split sequential ids."""
    out = []
    for split, n in counts.items():
        tag = split.split("-")[0].lower()
        out.extend(entry(f"{tag}{i}", split=split) for i in range(n))
    return out


class TestManifestEntry:
    def test_validates_fields(self):
        with pytest.raises(ValueError, match="n_samples"):
            entry("a", n_samples=0)
        with pytest.raises(ValueError, match="n_tgt_tokens"):
            entry("a", n_tgt=-1)
        with pytest.raises(ValueError, match="unknown split"):
            entry("a", split="LibriSpeech")
        with pytest.raises(ValueError, match="n_samples"):
            ManifestEntry(id="a", audio="a.wav", n_samples=0, n_tgt_tokens=1, split="MuST-C-train")

    def test_value_semantics(self):
        a = ManifestEntry("u1", "a.wav", 16000, 7, "MuST-C-train", "x", "y")
        b = ManifestEntry(id="u1", audio="a.wav", n_samples=16000, n_tgt_tokens=7, split="MuST-C-train",
                          src_text="x", tgt_text="y")
        assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != ManifestEntry("u1", "a.wav", 16000, 7, "MuST-C-train", "x", "z")
        assert ManifestEntry._fields == MANIFEST_COLUMNS
        assert (a.n_samples, a.split, a.tgt_text) == (16000, "MuST-C-train", "y")
        assert entry("u2").src_text == entry("u2").tgt_text == ""
        with pytest.raises(AttributeError):
            a.n_samples = 1
        with pytest.raises(AttributeError):
            a.note = "no per-row dict"
        with pytest.raises(TypeError):
            a[2] = 1


class TestEpochSample:
    def test_ratio_one_splits_kept_whole(self):
        entries = corpus({"MuST-C-train": 20, "EuroparlST-train": 7})
        out = epoch_sample(entries, SamplingSpec(), epoch_seed=0)
        assert len(out) == 27
        assert sorted(e.id for e in out) == sorted(e.id for e in entries)

    def test_fractional_split_contributes_floor(self):
        for n in (1, 3, 9, 10, 50, 333):
            entries = corpus({"CoVoST-train": n})
            out = epoch_sample(entries, SamplingSpec(), epoch_seed=1)
            assert len(out) == math.floor(round(0.3 * n, 9)), f"N={n}"

    def test_mixed_corpus_counts(self):
        entries = corpus({"MuST-C-train": 40, "CoVoST-train": 10, "CoVoST-dev": 7})
        out = epoch_sample(entries, SamplingSpec(), epoch_seed=5)
        by_split = Counter(e.split for e in out)
        assert by_split["MuST-C-train"] == 40
        assert by_split["CoVoST-train"] == 3
        assert by_split["CoVoST-dev"] == 2

    def test_same_seed_same_epoch(self):
        entries = corpus({"MuST-C-train": 15, "CoVoST-train": 30})
        a = epoch_sample(entries, SamplingSpec(), epoch_seed=99)
        b = epoch_sample(entries, SamplingSpec(), epoch_seed=99)
        assert [e.id for e in a] == [e.id for e in b]

    def test_different_epochs_differ(self):
        entries = corpus({"MuST-C-train": 15, "CoVoST-train": 30})
        a = epoch_sample(entries, SamplingSpec(), epoch_seed=1)
        b = epoch_sample(entries, SamplingSpec(), epoch_seed=2)
        assert [e.id for e in a] != [e.id for e in b]

    def test_sampling_is_without_replacement(self):
        entries = corpus({"CoVoST-train": 50})
        out = epoch_sample(entries, SamplingSpec(), epoch_seed=3)
        ids = [e.id for e in out]
        assert len(ids) == len(set(ids))

    def test_unknown_split_ratio_rejected(self):
        spec = SamplingSpec({"MuST-C-train": 1.0})
        with pytest.raises(ValueError, match="no sampling ratio"):
            epoch_sample(corpus({"CoVoST-train": 2}), spec, epoch_seed=0)

    def test_every_entry_eventually_sampled(self):
        # over many epochs a 0.3 ratio must not starve any entry
        entries = corpus({"CoVoST-train": 10})
        seen = set()
        for epoch in range(200):
            seen.update(e.id for e in epoch_sample(entries, SamplingSpec(), epoch))
        assert seen == {e.id for e in entries}

    def test_default_ratios(self):
        assert DEFAULT_RATIOS["MuST-C-train"] == 1.0
        assert DEFAULT_RATIOS["CoVoST-train"] == 0.3
        assert DEFAULT_RATIOS["CoVoST-dev"] == 0.3

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            SamplingSpec({"MuST-C-train": 0.0})
        with pytest.raises(ValueError):
            SamplingSpec({"MuST-C-train": 1.5})


class TestFilterLengths:
    def test_drops_over_caps(self):
        spec = BatchSpec()
        keep = entry("ok", n_samples=400_000, n_tgt=1024)
        long_audio = entry("audio", n_samples=400_001)
        long_text = entry("text", n_tgt=1025)
        assert filter_lengths([keep, long_audio, long_text], spec) == [keep]


class TestBuildBatches:
    def test_first_fit_reference_trace(self):
        entries = [
            entry("a", n_samples=400_000),
            entry("b", n_samples=40_000),
            entry("c", n_samples=40_000),
        ]
        batches = build_batches(entries, BatchSpec())
        assert [[e.id for e in b] for b in batches] == [["a", "b"], ["c"]]

    def test_partitions_input(self):
        rng = random.Random(17)
        entries = [entry(f"e{i}", n_samples=rng.randint(1, 440_000)) for i in range(300)]
        batches = build_batches(entries, BatchSpec())
        flat = sorted(e.id for b in batches for e in b)
        assert flat == sorted(e.id for e in entries)

    def test_every_batch_under_cap(self):
        rng = random.Random(18)
        spec = BatchSpec()
        entries = [entry(f"e{i}", n_samples=rng.randint(1, 400_000)) for i in range(500)]
        for batch in build_batches(entries, spec):
            assert sum(e.n_samples for e in batch) <= spec.max_batch_samples

    def test_sorted_descending_within_run(self):
        entries = [entry(f"e{i}", n_samples=s) for i, s in enumerate([100, 300, 200])]
        spec = BatchSpec(max_batch_samples=600, max_src_samples=600)
        batches = build_batches(entries, spec)
        assert [e.n_samples for e in batches[0]] == [300, 200, 100]

    def test_oversize_entry_rejected(self):
        with pytest.raises(ValueError, match="batch cap"):
            build_batches([entry("big", n_samples=440_001)], BatchSpec())

    def test_deterministic(self):
        rng = random.Random(19)
        entries = [entry(f"e{i}", n_samples=rng.randint(1, 200_000)) for i in range(100)]
        a = build_batches(entries, BatchSpec())
        b = build_batches(entries, BatchSpec())
        assert [[e.id for e in batch] for batch in a] == [[e.id for e in batch] for batch in b]

    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=60), st.integers(1000, 3000))
    @settings(max_examples=100, deadline=None)
    def test_packing_invariants(self, sizes, cap):
        spec = BatchSpec(max_batch_samples=cap, max_src_samples=min(cap, 1000))
        entries = [entry(f"e{i}", n_samples=s) for i, s in enumerate(sizes)]
        batches = build_batches(entries, spec)
        assert sorted(e.id for b in batches for e in b) == sorted(e.id for e in entries)
        assert all(sum(e.n_samples for e in b) <= cap for b in batches)
        assert all(b for b in batches)

    @given(
        st.lists(st.sampled_from([1, 2, 3, 250, 499, 500, 501, 999, 1000]), max_size=200),
        st.integers(1000, 2000),
    )
    @settings(max_examples=150, deadline=None)
    def test_max_tree_matches_linear_first_fit(self, sizes, cap):
        # duplicates and entries exactly at the cap included
        sizes = sizes + [cap] * (len(sizes) % 3)
        spec = BatchSpec(max_batch_samples=cap, max_src_samples=cap)
        entries = [entry(f"e{i}", n_samples=s) for i, s in enumerate(sizes)]
        assert build_batches(entries, spec) == first_fit(entries, spec)


class TestBatchStats:
    def test_reports_effective_multiplier(self):
        entries = [entry("a", n_samples=1000), entry("b", n_samples=500)]
        stats = batch_stats(build_batches(entries, BatchSpec()))
        assert stats["effective_batch_multiplier"] == 64
        assert stats["num_entries"] == 2
        assert stats["num_batches"] == 1
        assert stats["max_batch_samples"] == 1500

    def test_empty(self):
        stats = batch_stats([])
        assert stats["num_batches"] == 0
        assert stats["max_batch_samples"] == 0


class TestManifestIO:
    def test_roundtrip(self):
        entries = [
            ManifestEntry("u1", "a/b.wav", 16000, 7, "MuST-C-train", "hi there", "hallo"),
            ManifestEntry("u2", "c.wav", 8000, 3, "CoVoST-dev", "", ""),
        ]
        buf = io.StringIO()
        write_manifest(entries, buf)
        assert read_manifest(buf.getvalue()) == entries

    field = st.text(st.characters(exclude_characters="\t\n\r"))  # any other code point, Unicode line breaks included
    rows = st.lists(
        st.builds(ManifestEntry, field, field, st.integers(1, 10**20), st.integers(0, 10**6),
                  st.sampled_from(TRAINING_SPLITS), field, field),
        max_size=8,
        unique_by=lambda e: e.id,
    )

    @given(rows)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_any_valid_rows(self, rows):
        buf = io.StringIO()
        write_manifest(rows, buf)
        assert read_manifest(buf.getvalue()) == rows

    @pytest.mark.parametrize("value", ["0", "7", "10", "400000", "123456789012345678901234567890"])
    def test_canonical_numbers_read(self, value):
        row = ["u1", "a.wav", "1", value, "MuST-C-train", "x", "y"]
        [e] = read_manifest("\t".join(MANIFEST_COLUMNS) + "\n" + "\t".join(row) + "\n")
        assert e.n_tgt_tokens == int(value) and str(e.n_tgt_tokens) == value

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            read_manifest("u1\ta.wav\t1\t1\tMuST-C-train\tx\ty\n")
        with pytest.raises(ValueError, match="empty manifest"):
            read_manifest("")

    def test_errors_carry_line_numbers(self):
        text = "\t".join(
            ("id", "audio", "n_samples", "n_tgt_tokens", "split", "src_text", "tgt_text")
        )
        with pytest.raises(ValueError, match="line 2"):
            read_manifest(text + "\nu1\ta.wav\tnot_a_number\t1\tMuST-C-train\tx\ty\n")
        with pytest.raises(ValueError, match="line 3"):
            read_manifest(
                text
                + "\nu1\ta.wav\t10\t1\tMuST-C-train\tx\ty\nu2\tshort\trow\n"
            )

    def test_duplicate_id_rejected_with_line_numbers(self):
        buf = io.StringIO()
        write_manifest([entry("u1"), entry("u2"), entry("u1")], buf)
        with pytest.raises(ValueError, match=r"manifest line 4: duplicate id 'u1' \(first on line 2\)"):
            read_manifest(buf.getvalue())

    def test_tabs_in_fields_rejected_on_write(self):
        bad = ManifestEntry("u1", "a.wav", 1, 1, "MuST-C-train", "has\ttab", "y")
        with pytest.raises(ValueError, match="tabs"):
            write_manifest([bad], io.StringIO())

    def test_carriage_return_in_field_rejected_on_write(self):
        # a file read in universal-newline mode would end the line there
        bad = ManifestEntry("u1", "a.wav", 1, 1, "MuST-C-train", "x", "has\rreturn")
        with pytest.raises(ValueError, match="line breaks"):
            write_manifest([bad], io.StringIO())

    def test_only_a_line_feed_ends_a_row(self):
        entries = [
            ManifestEntry("u1", "a.wav", 16000, 7, "MuST-C-train", "eins\u2028zwei", "one\x85two\x0cthree\x1c"),
            entry("u2"),
        ]
        buf = io.StringIO()
        write_manifest(entries, buf)
        assert read_manifest(buf.getvalue()) == entries

    def test_blank_lines_skipped(self):
        entries = [entry("u1")]
        buf = io.StringIO()
        write_manifest(entries, buf)
        assert read_manifest(buf.getvalue() + "\n\n") == entries

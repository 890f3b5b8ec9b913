"""13a tokenization, mWER resegmentation, corpus BLEU, segmentation scoring."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stforge.evalign import (
    BleuScore,
    alignment_cost,
    corpus_bleu,
    resegment_mwer,
    score_segmentation,
    segment_stats,
    strip_shared_ends,
    tokenize_13a,
    word_edit_distance,
)
from stforge.segmenter import Segment

import oracles
from oracles import bleu_recount, edit_distance, mwer_dp, mwer_exhaustive


class TestTokenize13a:
    """Frozen expectations match the mteval-v13a tokenizer output."""

    def test_basic_punctuation(self):
        assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_decimal_and_unit(self):
        assert tokenize_13a("3.5 km") == ["3.5", "km"]

    def test_german_sentence(self):
        got = tokenize_13a("Der Preis betrug 1,5 Mio. Euro (2019).")
        assert got == ["Der", "Preis", "betrug", "1,5", "Mio", ".", "Euro", "(", "2019", ")", "."]

    def test_dash_splits_only_after_digit(self):
        assert tokenize_13a("A--B 7-8 x-y") == ["A--B", "7", "-", "8", "x-y"]

    def test_apostrophe_kept(self):
        assert tokenize_13a("don't stop") == ["don't", "stop"]

    def test_entities_and_numbers(self):
        got = tokenize_13a("Danke schön! (Applaus) 100.000,5")
        assert got == ["Danke", "schön", "!", "(", "Applaus", ")", "100.000,5"]
        assert tokenize_13a("a &amp; b &lt;c&gt;") == ["a", "&", "b", "<", "c", ">"]

    def test_whitespace_only(self):
        assert tokenize_13a("") == []
        assert tokenize_13a("   \n  ") == []

    # every rule-1 character, the characters of the other rules, digits,
    # entities, the strings removed first, other whitespace and non-ASCII
    # letters
    PIECES = [
        *' !"#$%&()*+/:;<=>?@[\\]^_`{|}~', *"0123456789", ".", ",", "-", "'",
        "&quot;", "&amp;", "&lt;", "&gt;", "<skipped>", "-\n", "\t", "\n", "\u00a0",
        "a", "Z", "ä", "ß", "é", "Ж", "语",
    ]

    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_four_regex_reference(self, text):
        assert tokenize_13a(text) == oracles.tokenize_13a(text)

    # runs of periods and commas beside ASCII and non-ASCII digits: the
    # period/comma rule pairs marks left to right within each run
    @given(st.text(alphabet="0189٣१１.,- a", max_size=40))
    @example(".,.,1,,.٣..a,. ,")
    @settings(max_examples=400, deadline=None)
    def test_marks_beside_digits_match_four_regex_reference(self, text):
        assert tokenize_13a(text) == oracles.tokenize_13a(text)


class TestResegment:
    def test_reference_example(self):
        groups = resegment_mwer(["a", "x", "c"], [["a", "b"], ["c"]])
        assert groups == [["a", "x"], ["c"]]
        assert alignment_cost(["a", "x", "c"], [["a", "b"], ["c"]]) == 1

    def test_identity_when_already_aligned(self):
        refs = [["der", "hund"], ["läuft", "schnell", "weg"]]
        hyp = ["der", "hund", "läuft", "schnell", "weg"]
        assert resegment_mwer(hyp, refs) == refs

    def test_empty_hypothesis_yields_empty_groups(self):
        groups = resegment_mwer([], [["a"], ["b", "c"]])
        assert groups == [[], []]
        assert alignment_cost([], [["a"], ["b", "c"]]) == 3

    def test_single_segment_takes_everything(self):
        hyp = ["x", "y", "z"]
        assert resegment_mwer(hyp, [["x", "q"]]) == [hyp]

    def test_groups_partition_hypothesis(self):
        hyp = "a b c d e f g".split()
        groups = resegment_mwer(hyp, [["a", "b"], ["q"], ["f", "g"]])
        assert [w for g in groups for w in g] == hyp

    def test_keys_ignore_case_and_punctuation(self):
        # "Hello," aligns as "hello": the split lands between the segments
        groups = resegment_mwer(["Hello,", "World!"], [["hello"], ["world"]])
        assert groups == [["Hello,"], ["World!"]]

    def test_ties_fall_toward_earlier_boundaries(self):
        # ["a"] against two "a" segments costs 1 either way; the earliest
        # boundary must win, leaving the first group empty
        groups = resegment_mwer(["a"], [["a"], ["a"]])
        assert groups == [[], ["a"]]
        want_cost, want_ends = mwer_exhaustive(["a"], [["a"], ["a"]])
        assert alignment_cost(["a"], [["a"], ["a"]]) == want_cost == 1
        assert want_ends == [0, 1]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d"]
        for trial in range(400):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            nseg = rng.randint(1, 4)
            refs = [
                [rng.choice(vocab) for _ in range(rng.randint(0, 4))] for _ in range(nseg)
            ]
            groups = resegment_mwer(hyp, refs)
            got_cost = alignment_cost(hyp, refs)
            want_cost, want_ends = mwer_exhaustive(hyp, refs)
            assert mwer_dp(hyp, refs) == (want_cost, want_ends), f"trial {trial}: oracles disagree"
            assert got_cost == want_cost, f"trial {trial}"
            got_ends = []
            pos = 0
            for g in groups:
                pos += len(g)
                got_ends.append(pos)
            assert got_ends == want_ends, f"trial {trial}: {hyp} vs {refs}"

    def test_200_segments_match_the_oracle_with_an_int32_suffix_table(self):
        rng = random.Random(5)
        # boundaries: 200 segments of 0-1 words over 32 words, in mwer_dp's
        # reach; most groups are empty, so the tie rule decides them
        hyp = [rng.choice("abc") for _ in range(32)]
        refs = [[rng.choice("abc") for _ in range(rng.randint(0, 1))] for _ in range(200)]
        _, want_ends = mwer_dp(hyp, refs)
        assert list(itertools.accumulate(len(g) for g in resegment_mwer(hyp, refs))) == want_ends
        # memory: 200 segments over about 2k words, where the suffix table
        # dominates; an int64 table alone is (S+1)(H+1)*8 bytes
        vocab = [f"w{i}" for i in range(50)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(0, 20))] for _ in range(200)]
        hyp = [w for ref in refs for w in ref if rng.random() > 0.1]
        tracemalloc.start()
        try:
            groups = resegment_mwer(hyp, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * (len(refs) + 1) * (len(hyp) + 1) * 8
        assert [w for g in groups for w in g] == hyp
        assert sum(edit_distance(g, r) for g, r in zip(groups, refs)) == alignment_cost(hyp, refs)

    @given(
        st.lists(st.sampled_from("abc"), max_size=120),
        st.lists(st.lists(st.sampled_from("abc"), max_size=25), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_is_edit_distance_to_the_concatenated_references(self, hyp, refs):
        # any alignment to the concatenation induces a split, and any split gives one
        assert alignment_cost(hyp, refs) == edit_distance(hyp, [w for ref in refs for w in ref])

    @given(
        st.lists(st.sampled_from("abc"), min_size=60, max_size=80),
        st.lists(st.lists(st.sampled_from("abc"), max_size=20), min_size=2, max_size=5),
    )
    # OOV-heavy talks: two words in three, or every word, in no reference
    @example(
        hyp=["abc"[i // 3 % 3] if i % 3 == 0 else f"oov{i % 7}" for i in range(70)],
        refs=[list("abcab"), list("cabbac"), list("bca"), list("aabbcc")],
    )
    @example(hyp=[f"oov{i % 9}" for i in range(64)], refs=[list("ab"), [], list("cab")])
    @settings(max_examples=6, deadline=None)
    def test_matches_boundary_dp_oracle_at_70_words(self, hyp, refs):
        # windows and suffix columns span several 30-bit int digits
        want_cost, want_ends = mwer_dp(hyp, refs)
        groups = resegment_mwer(hyp, refs)
        assert alignment_cost(hyp, refs) == want_cost
        assert list(itertools.accumulate(len(g) for g in groups)) == want_ends

    def test_1000_segments_keep_suffix_costs_in_2_bits_a_cell(self):
        rng = random.Random(13)
        vocab = [f"w{i}" for i in range(400)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(0, 40))] for _ in range(1000)]
        hyp = [w for ref in refs for w in ref if rng.random() > 0.1]
        hyp[::50] = ["oov"] * len(hyp[::50])
        tracemalloc.start()
        try:
            groups = resegment_mwer(hyp, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4 bits a cell; an int32 suffix table alone would take 32. The
        # suffix columns take 2, and the bit sets of the 401 distinct
        # hypothesis words at most V / S = 0.4
        assert 17_000 < len(hyp) < 19_000
        assert peak < (len(refs) + 1) * (len(hyp) + 1) / 2
        assert [w for g in groups for w in g] == hyp
        assert sum(word_edit_distance(g, r) for g, r in zip(groups, refs)) == alignment_cost(hyp, refs)

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError):
            resegment_mwer(["a"], [])

    @given(
        st.lists(st.sampled_from("abcd"), max_size=10),
        st.lists(st.lists(st.sampled_from("abcd"), max_size=3), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_cost_agrees_with_exhaustive_enumeration(self, hyp, refs):
        want_cost, _ = mwer_exhaustive(hyp, refs)
        assert alignment_cost(hyp, refs) == want_cost

    @given(
        st.lists(st.sampled_from("abc"), min_size=12, max_size=40),
        st.lists(st.lists(st.sampled_from("abc"), max_size=8), min_size=1, max_size=6),
    )
    # the boundary walk's edges: it stops at once (an empty group), or at
    # the window's last end k = n, where n is cut by the hypothesis end
    # (segment 1) or by len(ref) + total - used (segment 0)
    @example(hyp=list("abababababab"), refs=[["c"], list("abababab"), list("abab")])
    @example(hyp=list("aaaaaaaaaaaa"), refs=[list("aaaaaaaa"), list("aaaa"), ["c"]])
    @example(hyp=list("aab") + ["c"] * 9, refs=[list("ab"), ["c"] * 8, ["c"]])
    @settings(max_examples=60, deadline=None)
    def test_matches_boundary_dp_oracle_at_mid_size(self, hyp, refs):
        # sizes beyond mwer_exhaustive's reach; a 3-word vocabulary makes ties common
        want_cost, want_ends = mwer_dp(hyp, refs)
        groups = resegment_mwer(hyp, refs)
        assert alignment_cost(hyp, refs) == want_cost
        assert list(itertools.accumulate(len(g) for g in groups)) == want_ends
        assert sum(edit_distance(g, r) for g, r in zip(groups, refs)) == want_cost


class TestWordEditDistances:
    """The bit-parallel kernel, run over each pair's differing middle, against the full-matrix oracle."""

    words = st.lists(st.sampled_from("abcde"), max_size=12)

    @given(st.lists(st.tuples(words, words), max_size=40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, pairs, data):
        if pairs:  # repeat some pairs
            pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=10))
        got = [word_edit_distance(a, b) for a, b in pairs]
        assert got == [edit_distance(*pair) for pair in pairs]

    def test_empty_sides_and_no_pairs(self):
        assert [word_edit_distance(a, b) for a, b in []] == []
        pairs = [([], []), ([], ["a", "b"]), (["a"], []), ([], []), (["a", "b", "c"], ["b"])]
        assert [word_edit_distance(a, b) for a, b in pairs] == [0, 2, 1, 0, 2]

    def test_many_blocks_come_back_in_input_order(self):
        # 1,300 pairs with lengths that do not follow input order; either
        # side may be the shorter one, which takes the steps
        rng = random.Random(7)
        vocab = ["w%d" % i for i in range(6)]
        pairs = [
            ([rng.choice(vocab) for _ in range(rng.randint(0, 30))],
             [rng.choice(vocab) for _ in range((i * 37) % 23)])
            for i in range(1300)
        ]
        assert [word_edit_distance(a, b) for a, b in pairs] == [edit_distance(*pair) for pair in pairs]

    @given(st.lists(st.sampled_from("ab"), max_size=300), st.lists(st.sampled_from("ab"), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_long_two_letter_sequences_match_oracle(self, a, b):
        # bit sets of up to 300 bits span ten 30-bit int digits, and a
        # 2-letter vocabulary makes long carry runs that cross them
        assert word_edit_distance(a, b) == word_edit_distance(b, a) == edit_distance(a, b)

    @given(words, words, words, words, st.booleans())
    @settings(max_examples=300, deadline=None)
    @example([], [], [], [], False)
    @example(["a", "b"], ["c"], [], [], False)  # one side a prefix of the other
    @example([], ["b", "c"], [], ["a", "a"], False)  # one side a suffix of the other
    @example(["a", "b"], ["c"], ["d"], ["e"], True)  # equal sequences
    @example(["a"], ["a", "b"], ["b"], ["b"], False)  # the shared runs reach into the middles
    def test_shared_prefix_and_suffix_match_oracle(self, prefix, mid_a, mid_b, suffix, equal):
        # each side is prefix + middle + suffix; either middle may be
        # empty, and both argument orders must agree with the oracle
        a = prefix + mid_a + suffix
        b = a if equal else prefix + mid_b + suffix
        assert word_edit_distance(a, b) == word_edit_distance(b, a) == edit_distance(a, b)

    def test_one_pair_form(self):
        assert word_edit_distance(["a", "x", "c"], ["a", "b", "c", "d"]) == 2
        assert word_edit_distance([], []) == 0

    @given(words, words)
    @settings(max_examples=300, deadline=None)
    def test_stripped_middles_keep_the_distance_and_differ_at_both_ends(self, a, b):
        mid_a, mid_b = strip_shared_ends(a, b)
        assert edit_distance(mid_a, mid_b) == edit_distance(a, b)
        if mid_a and mid_b:
            assert mid_a[0] != mid_b[0] and mid_a[-1] != mid_b[-1]
        # what was taken off is one prefix and one suffix that a and b share
        cut = len(a) - len(mid_a)
        assert len(b) - len(mid_b) == cut
        assert any(a[:lo] == b[:lo] and a[lo + len(mid_a):] == b[lo + len(mid_b):]
                   and a[lo:lo + len(mid_a)] == mid_a and b[lo:lo + len(mid_b)] == mid_b for lo in range(cut + 1))


class TestCorpusBleu:
    def test_identity_scores_100(self):
        segs = [["das", "ist", "ein", "test"], ["noch", "ein", "satz"]]
        result = corpus_bleu(segs, segs)
        assert result.score == 100.0
        assert result.precisions == (1.0, 1.0, 1.0, 1.0)
        assert result.brevity_penalty == 1.0

    def test_three_token_example(self):
        # hyp "the cat" vs ref "the cat sat": p1=2/2, p2=1/1, smoothed
        # p3=1/2, p4=1/4; bp=exp(1-3/2)
        result = corpus_bleu([["the", "cat"]], [["the", "cat", "sat"]])
        assert abs(result.precisions[0] - 1.0) < 1e-6
        assert abs(result.precisions[1] - 1.0) < 1e-6
        assert abs(result.precisions[2] - 0.5) < 1e-6
        assert abs(result.precisions[3] - 0.25) < 1e-6
        assert abs(result.brevity_penalty - math.exp(-0.5)) < 1e-6
        want = 100.0 * math.exp(-0.5) * math.exp(math.log(1 * 1 * 0.5 * 0.25) / 4)
        assert abs(result.score - want) < 1e-6

    def test_empty_hypothesis_flagged(self):
        result = corpus_bleu([[], []], [["a", "b"], ["c"]])
        assert result.score == 0.0
        assert result.brevity_penalty == 0.0
        assert result.empty_hyp
        assert result.ref_len == 3

    def test_brevity_penalty_only_for_short_hyps(self):
        long_hyp = corpus_bleu([["a", "b", "c", "d"]], [["a", "b"]])
        assert long_hyp.brevity_penalty == 1.0

    def test_segment_counts_must_match(self):
        with pytest.raises(ValueError, match="mismatch"):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_all_empty_references_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [[]])

    def test_matches_independent_recount(self):
        # several hypothesis sets per reference set, one reference list in
        # several segments, and references mutated in place between calls:
        # reference counts are cached on content, so none may go stale
        rng = random.Random(23)
        vocab = ["der", "die", "das", "hund", "katze", "läuft", "schnell"]

        def hyp_for(ref):
            if rng.random() < 0.5:
                return [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            return [w if rng.random() < 0.8 else rng.choice(vocab) for w in ref if rng.random() < 0.9]

        def check(hyps, refs, trial):
            result = corpus_bleu(hyps, refs)
            want_p, want_bp, want_score, _ = bleu_recount(hyps, refs)
            if result.empty_hyp:
                assert want_score == 0.0
                return
            assert result.precisions == pytest.approx(want_p, abs=1e-12), f"trial {trial}"
            assert result.brevity_penalty == pytest.approx(want_bp, abs=1e-12)
            assert result.score == pytest.approx(want_score, abs=1e-9)

        for trial in range(200):
            nseg = rng.randint(1, 5)
            pool = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
                for _ in range(rng.randint(1, nseg))
            ]
            refs = [rng.choice(pool) for _ in range(nseg)]
            for _ in range(3):
                check([hyp_for(ref) for ref in refs], refs, trial)
            hyps = [hyp_for(ref) for ref in refs]
            check(hyps, refs, trial)
            ref = rng.choice(refs)
            ref[rng.randrange(len(ref))] = rng.choice(vocab)
            ref.append(rng.choice(vocab))
            check(hyps, refs, trial)

    @given(st.lists(st.tuples(*[st.lists(st.sampled_from(["a", "b", "c"]), max_size=7)] * 2), max_size=6))
    @settings(max_examples=300, deadline=None)
    @example([([], [])])
    @example([([], ["a"]), (["a", "a"], [])])
    def test_summed_segment_stats_match_the_oracle_counts(self, pairs):
        # empty hypotheses and empty references included: the counts are defined for any pair
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        summed = tuple(map(sum, zip(*map(segment_stats, hyps, refs)))) or (0,) * 10
        assert summed == bleu_recount(hyps, refs)[3]

    def test_score_bounded(self):
        rng = random.Random(31)
        for _ in range(100):
            refs = [[rng.choice("ab") for _ in range(rng.randint(1, 6))]]
            hyps = [[rng.choice("ab") for _ in range(rng.randint(1, 6))]]
            result = corpus_bleu(hyps, refs)
            assert 0.0 <= result.score <= 100.0


class TestScoreSegmentation:
    # every reference holds at least 4 tokens so a perfect match has
    # real 4-grams and scores exactly 100
    REFS = [
        ["guten", "morgen", "meine", "damen"],
        ["wie", "geht", "es", "euch", "heute"],
    ]

    def test_perfect_translations_score_100(self):
        segments = [
            Segment("a.wav", 0.0, 2.0, "a"),
            Segment("a.wav", 2.0, 2.0, "a"),
        ]
        result = score_segmentation(
            segments, ["guten morgen meine damen", "wie geht es euch heute"], self.REFS
        )
        assert result.score == 100.0

    def test_translation_order_follows_audio_order(self):
        # same texts attached to segments given out of order still line up
        segments = [
            Segment("a.wav", 2.0, 2.0, "a"),
            Segment("a.wav", 0.0, 2.0, "a"),
        ]
        result = score_segmentation(
            segments, ["wie geht es euch heute", "guten morgen meine damen"], self.REFS
        )
        assert result.score == 100.0

    def test_boundary_drift_does_not_matter(self):
        # a 3-way split with shifted boundaries carries the same stream
        segments = [
            Segment("a.wav", 0.0, 1.0, "a"),
            Segment("a.wav", 1.0, 1.0, "a"),
            Segment("a.wav", 2.0, 1.0, "a"),
        ]
        result = score_segmentation(
            segments,
            ["guten morgen", "meine damen wie", "geht es euch heute"],
            self.REFS,
        )
        assert result.score == 100.0

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_segmentation([Segment("a.wav", 0.0, 1.0, "a")], ["x", "y"], self.REFS)

    def test_talks_follow_the_candidates_order_not_the_string_order_of_wav_names(self):
        # talk2 comes first in the references and the candidate, but
        # "talk10.wav" < "talk2.wav" as strings: sorting by name paired
        # each talk's words with the other talk's references
        refs = [["guten", "morgen", "meine", "damen"], ["wie", "geht", "es", "euch", "heute"],
                ["das", "wetter", "ist", "heute", "schön"], ["wir", "sehen", "uns", "morgen", "wieder"]]
        segments = [Segment("talk2.wav", 0.0, 2.0, "a"), Segment("talk2.wav", 2.0, 2.0, "a"),
                    Segment("talk10.wav", 0.0, 2.0, "b"), Segment("talk10.wav", 2.0, 2.0, "b")]
        translations = [" ".join(ref) for ref in refs]
        assert score_segmentation(segments, translations, refs).score == 100.0
        # the order of first appearance sets the talk order, offsets the order within a talk
        shuffled = [3, 0, 2, 1]
        result = score_segmentation([segments[i] for i in shuffled], [translations[i] for i in shuffled], refs)
        assert result.score < 100.0
        reordered = [0, 3, 2, 1]
        result = score_segmentation([segments[i] for i in reordered], [translations[i] for i in reordered], refs)
        assert result.score == 100.0


class TestEditDistanceOracleSelfCheck:
    """The shared oracle must itself be right; pin a few known values."""

    def test_known_distances(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance([], ["a", "b"]) == 2
        assert edit_distance(["a", "b"], ["a", "b"]) == 0
        assert edit_distance(["a", "x", "c"], ["a", "b", "c", "d"]) == 2

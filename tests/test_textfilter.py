"""Transcript cleanup, ASR-style normalization, WER, and the keep/drop gate."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stforge import textfilter
from stforge.textfilter import (
    DEFAULT_EVENT_LEXICON,
    DROP_EMPTY,
    DROP_TOO_LONG,
    DROP_WER,
    FilterConfig,
    TranscriptPair,
    clean_target,
    filter_pair,
    normalize_for_asr,
    normalize_thousands,
    number_to_words,
    remove_events,
    strip_speaker_prefix,
    word_error_rate,
)

from oracles import remove_events as remove_events_oracle
from oracles import wer as wer_oracle


class TestSpeakerPrefix:
    def test_strips_full_name(self):
        got = strip_speaker_prefix("David Gallo: Das ist Bill Lange. Ich bin Dave Gallo.")
        assert got == "Das ist Bill Lange. Ich bin Dave Gallo."

    def test_strips_single_name_and_initials(self):
        assert strip_speaker_prefix("Mann: Lauf!") == "Lauf!"
        assert strip_speaker_prefix("DG: Genau.") == "Genau."

    def test_leaves_ordinary_colons_alone(self):
        assert strip_speaker_prefix("Das ist: gut") == "Das ist: gut"
        assert strip_speaker_prefix("Es gibt drei Dinge: A, B und C.") == (
            "Es gibt drei Dinge: A, B und C."
        )

    def test_leaves_lowercase_starts_alone(self):
        assert strip_speaker_prefix("und dann: los") == "und dann: los"

    def test_at_most_one_prefix_per_call(self):
        # nested speaker-like prefixes exist in dialogue quotes; only the
        # outermost is removed per application
        once = strip_speaker_prefix("Anna: Bob: hi")
        assert once == "Bob: hi"
        assert strip_speaker_prefix(once) == "hi"


class TestRemoveEvents:
    def test_removes_lexicon_events(self):
        assert remove_events("(Gelächter) Das war lustig.") == "Das war lustig."
        assert remove_events("Danke. (Applaus)") == "Danke."

    def test_removes_empty_and_single_word_groups(self):
        assert remove_events("Er kam () an.") == "Er kam an."
        assert remove_events("Er sagte (leise) hallo.") == "Er sagte hallo."

    def test_keeps_multiword_asides(self):
        text = "Er kam (wie immer viel zu spät) an."
        assert remove_events(text) == text

    def test_unwraps_quoted_speaker_turn(self):
        assert remove_events("(Mann: Lauf!)") == "Lauf!"

    def test_event_deletion_exposes_secondary_speaker(self):
        assert remove_events("(Video) Mann: Lauf!") == "Lauf!"

    def test_nested_groups_resolve_innermost_first(self):
        assert remove_events("Na ((Musik)) gut.") == "Na gut."

    def test_no_groups_returns_input_unchanged(self):
        text = "Keine Klammern hier."
        assert remove_events(text) is text

    def test_punctuation_spacing_repaired(self):
        assert remove_events("Danke (Applaus) !") == "Danke!"

    def test_custom_lexicon(self):
        lex = frozenset({"Husten"})
        assert remove_events("Oh (Husten) je.", lex) == "Oh je."
        # multiword content not in the lexicon survives under a custom one too
        assert remove_events("Oh (zwei Worte) je.", lex) == "Oh (zwei Worte) je."

    def test_lexicon_case_and_container_do_not_matter(self):
        # the casefolded lexicon is cached per frozenset; a set or list works too
        for lex in ({"HUSTEN"}, ["husten"], frozenset({"Husten"})):
            assert remove_events("Oh (husten leise) je. (Husten)", lex) == "Oh (husten leise) je."

    def test_idempotent_on_mustc_like_lines(self):
        lines = [
            "(Gelächter) (Applaus) Danke.",
            "(Video) Erzähler: Es beginnt.",
            "Bleibt (so) stehen.",
            "((Beifall)) Ende.",
        ]
        for line in lines:
            once = remove_events(line)
            assert remove_events(once) == once

    # words, lexicon entries in two cases, speaker prefixes (one too long to
    # count), and parentheses that nest, stay empty or go unbalanced
    PIECES = ["Danke", "gut", "so", "Applaus", "applaus", "Musik", "Mann:", "DG:", "ABCDE:", "David Gallo:",
              "Erzähler: ", "(", ")", "()", "( )", " ", "  ", "\t", ".", ",", "!", "x y"]

    @settings(max_examples=400, deadline=None)
    @given(
        pieces=st.lists(st.sampled_from(PIECES), max_size=24),
        lexicon=st.sampled_from([DEFAULT_EVENT_LEXICON, frozenset({"gut", "Danke"})]),
    )
    def test_matches_stack_oracle(self, pieces, lexicon):
        text = "".join(pieces)
        expected = remove_events_oracle(text, lexicon, textfilter.SPEAKER_PREFIX_RE)
        assert remove_events(text, lexicon) == expected


class TestNumbers:
    def test_thousands_normalization(self):
        assert normalize_thousands("10 000") == "10,000"
        assert normalize_thousands("1 234 567 Euro") == "1,234,567 Euro"
        assert normalize_thousands("Raum 1 000 000") == "Raum 1,000,000"

    def test_thousands_leaves_small_groups(self):
        assert normalize_thousands("12 34") == "12 34"
        assert normalize_thousands("2021 2022") == "2021 2022"
        assert normalize_thousands("1234 5678") == "1234 5678"

    def test_spelled_out_small(self):
        assert number_to_words("0") == "zero"
        assert number_to_words("7") == "seven"
        assert number_to_words("13") == "thirteen"
        assert number_to_words("25") == "twenty five"
        assert number_to_words("40") == "forty"
        assert number_to_words("101") == "one hundred one"
        assert number_to_words("999") == "nine hundred ninety nine"

    def test_spelled_out_thousands(self):
        assert number_to_words("1000") == "one thousand"
        assert number_to_words("1984") == "one thousand nine hundred eighty four"
        assert number_to_words("400000") == "four hundred thousand"

    def test_huge_runs_go_digit_by_digit(self):
        assert number_to_words("1234567") == "one two three four five six seven"


class TestNormalizeForAsr:
    def test_lowercase_and_punctuation(self):
        assert normalize_for_asr("Hello, World!") == ["hello", "world"]

    def test_numbers_spelled_out(self):
        assert normalize_for_asr("25 cats") == ["twenty", "five", "cats"]

    def test_apostrophes_survive(self):
        assert normalize_for_asr("don't stop") == ["don't", "stop"]

    def test_unicode_stripped(self):
        assert normalize_for_asr("naïve café") == ["na", "ve", "caf"]

    def test_empty(self):
        assert normalize_for_asr("") == []
        assert normalize_for_asr("...!?") == []

    def test_non_ascii_digits_dropped_not_spelled(self):
        # the digit pass runs after the non-ASR pass; run first, it would spell "٣" as "three"
        assert normalize_for_asr("a٣b 12") == ["a", "b", "twelve"]


class TestTriggerGuards:
    """Each pass skipped on text without its trigger character returns what the unguarded pass does."""

    # the trigger characters, digits that \d does and does not match, and
    # pieces that make speaker prefixes and lexicon events
    PIECES = [*":()0123456789", "٣", "²", "Ä", "ä", "a", "B", " ", ".", "'", "-", "DG", "Mann", "David Gallo",
              "Applaus", "x y", "ÄÖ"]
    texts = st.lists(st.sampled_from(PIECES), max_size=20).map("".join)

    @staticmethod
    def normalize_unguarded(text):
        text = text.lower()
        text = re.sub(r"[^a-z0-9' ]", " ", text)
        text = re.sub(r"\d+", lambda m: " " + number_to_words(m.group()) + " ", text)
        return text.split()

    @given(texts)
    @settings(max_examples=400, deadline=None)
    def test_strip_speaker_prefix(self, text):
        assert strip_speaker_prefix(text) == textfilter.SPEAKER_PREFIX_RE.sub("", text, count=1)

    @given(texts)
    @settings(max_examples=400, deadline=None)
    def test_remove_events(self, text):
        expected = remove_events_oracle(text, DEFAULT_EVENT_LEXICON, textfilter.SPEAKER_PREFIX_RE)
        assert remove_events(text) == expected

    @given(texts)
    @settings(max_examples=400, deadline=None)
    def test_normalize_for_asr(self, text):
        assert normalize_for_asr(text) == self.normalize_unguarded(text)

    @given(texts)
    @example("1 000 und 12 345 678, 1234 567 oder 7 7")
    @example("\u0663 000")
    @settings(max_examples=400, deadline=None)
    def test_normalize_thousands(self, text):
        unguarded = textfilter._THOUSANDS_RE.sub(lambda m: m.group(1).replace(" ", ","), text)
        assert normalize_thousands(text) == unguarded


class TestWordErrorRate:
    def test_reference_example(self):
        assert word_error_rate(["a", "x", "c"], ["a", "b", "c", "d"]) == 0.5

    def test_identity_is_zero(self):
        words = "the quick brown fox".split()
        assert word_error_rate(words, words) == 0.0

    def test_empty_hypothesis_all_deletions(self):
        assert word_error_rate([], ["a", "b"]) == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            word_error_rate(["a"], [])

    def test_can_exceed_one(self):
        assert word_error_rate(["a", "b", "c"], ["x"]) == 3.0

    def test_matches_full_matrix_oracle(self):
        rng = random.Random(4)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(1000):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            assert word_error_rate(hyp, ref) == wer_oracle(hyp, ref)

    @given(
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, hyp, ref):
        rate = word_error_rate(hyp, ref)
        assert rate >= 0.0
        # distance symmetry: d(h, r) = d(r, h), rates differ by length only
        if hyp:
            assert rate * len(ref) == word_error_rate(ref, hyp) * len(hyp)


class TestCleanTarget:
    def test_composes_prefix_and_events(self):
        assert clean_target("David Gallo: Das ist Bill Lange.") == "Das ist Bill Lange."
        assert clean_target("(Video) Mann: Lauf!") == "Lauf!"

    def test_thousands_only_when_requested(self):
        assert clean_target("Es kostet 10 000 Euro.") == "Es kostet 10 000 Euro."
        got = clean_target("Es kostet 10 000 Euro.", fix_thousands=True)
        assert got == "Es kostet 10,000 Euro."

    def test_event_only_line_empties(self):
        assert clean_target("(Gelächter)") == ""
        assert clean_target("(Applaus) (Musik)") == ""


class TestFilterPair:
    CFG = FilterConfig()

    def pair(self, src="a b c d", tgt="etwas", n_samples=16000):
        return TranscriptPair("utt", n_samples, src, tgt)

    def test_keeps_good_pair(self):
        decision = filter_pair(self.pair(), ["a", "b", "c", "d"], self.CFG)
        assert decision.keep and decision.reason is None

    def test_wer_exactly_half_kept(self):
        # 2 errors over 4 reference words: at the threshold, not over it
        decision = filter_pair(self.pair(), ["a", "x", "y", "d"], self.CFG)
        assert decision.keep

    def test_wer_above_half_dropped(self):
        decision = filter_pair(self.pair(), ["x", "y", "z"], self.CFG)
        assert not decision.keep and decision.reason == DROP_WER

    def test_too_long_dropped_first(self):
        # over-length wins even when everything else would also fail
        decision = filter_pair(
            self.pair(tgt="(Applaus)", n_samples=400_001), ["zzz"], self.CFG
        )
        assert decision.reason == DROP_TOO_LONG

    def test_max_length_boundary(self):
        decision = filter_pair(self.pair(n_samples=400_000), ["a", "b", "c", "d"], self.CFG)
        assert decision.keep

    def test_empty_target_after_cleanup(self):
        decision = filter_pair(self.pair(tgt="(Gelächter)"), ["a", "b", "c", "d"], self.CFG)
        assert decision.reason == DROP_EMPTY

    def test_unpronounceable_source_counts_as_wer_failure(self):
        decision = filter_pair(self.pair(src="... !!"), ["a"], self.CFG)
        assert decision.reason == DROP_WER

    def test_custom_threshold(self):
        strict = FilterConfig(wer_threshold=0.2)
        decision = filter_pair(self.pair(), ["a", "x", "c", "d"], strict)
        assert decision.reason == DROP_WER

    def test_source_normalization_applied_before_wer(self):
        # "25 cats!" vs ASR "twenty five cats" match after normalization
        p = TranscriptPair("utt", 100, "25 cats!", "fünfundzwanzig Katzen")
        decision = filter_pair(p, ["twenty", "five", "cats"], self.CFG)
        assert decision.keep


class TestDefaults:
    def test_lexicon_covers_common_stage_events(self):
        assert {"Gelächter", "Applaus", "Musik"} <= DEFAULT_EVENT_LEXICON

    def test_config_defaults(self):
        cfg = FilterConfig()
        assert cfg.wer_threshold == 0.5
        assert cfg.max_samples == 400_000

    @pytest.mark.parametrize("kwargs", [{"wer_threshold": 0.0}, {"wer_threshold": -1.0},
                                        {"wer_threshold": float("nan")}, {"max_samples": 0}])
    def test_config_rejects_non_positive_and_nan(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            FilterConfig(**kwargs)

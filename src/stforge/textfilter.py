"""Transcript text filtering, ASR-side normalization, and WER-based gating.

Covers the three keep/drop rules for training pairs: source audio over the
sample cap, target text empty once speaker prefixes and parenthesized
events are removed, and ASR hypothesis WER above the threshold.
``filter_pair`` decides one pair.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .evalign import word_edit_distance

DEFAULT_EVENT_LEXICON = frozenset({"Gelächter", "Applaus", "Musik", "Video", "Beifall"})

DROP_TOO_LONG = "too_long"
DROP_EMPTY = "empty_after_filtering"
DROP_WER = "asr_wer"

# A speaker prefix is either a run of capitalized words ("David Gallo") or
# 2-4 uppercase initials ("DG"), followed by a colon. The initials cap
# keeps acronym-initial sentences longer than 4 letters intact.
_CAPWORD = r"(?:[A-ZÄÖÜ][a-zäöüß]+)+(?:-(?:[A-ZÄÖÜ][a-zäöüß]+)+)?"
SPEAKER_PREFIX_RE = re.compile(rf"^(?:{_CAPWORD}(?: {_CAPWORD})*|[A-ZÄÖÜ]{{2,4}}): *")

_INNER_GROUP_RE = re.compile(r"\(([^()]*)\)")
_SPACE_RUN_RE = re.compile(r"\s+")
_SPACE_BEFORE_PUNCT_RE = re.compile(r" ([.,!?;:])")
_NON_ASR_CHAR_RE = re.compile(r"[^a-z0-9' ]")
# Runs after _NON_ASR_CHAR_RE, so only ASCII digits are left to match. A
# pattern that opens with a bare character class lets re skip ahead to
# the next digit; "\d+" or "[0-9]+" makes it try a match at every
# position, which took about three times as long on digit-free text.
_DIGITS_RE = re.compile(r"[0-9][0-9]*")


@dataclass(frozen=True)
class TranscriptPair:
    """One training example: source audio stats plus its texts."""

    id: str
    n_samples: int
    src_text: str
    tgt_text: str

    def __post_init__(self):
        if self.n_samples < 0:
            raise ValueError(f"{self.id}: negative n_samples")


@dataclass(frozen=True)
class FilterConfig:
    event_lexicon: frozenset = DEFAULT_EVENT_LEXICON
    wer_threshold: float = 0.5
    max_samples: int = 400000

    def __post_init__(self):
        if not self.wer_threshold > 0:  # also rejects nan, which no WER would exceed
            raise ValueError(f"wer_threshold must be positive, got {self.wer_threshold}")
        if self.max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {self.max_samples}")
        object.__setattr__(self, "event_lexicon", frozenset(self.event_lexicon))


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    reason: str | None = None


_KEEP = FilterDecision(True)
_DROP = {reason: FilterDecision(False, reason) for reason in (DROP_TOO_LONG, DROP_EMPTY, DROP_WER)}


def strip_speaker_prefix(sentence: str) -> str:
    """Remove one leading "Name:" / "DG:" style speaker marker, if present.

    Text without a colon cannot hold one and is returned as it is.
    """
    if ":" not in sentence:
        return sentence
    return SPEAKER_PREFIX_RE.sub("", sentence, count=1)


@functools.cache
def _casefolded(lexicon: frozenset) -> frozenset:
    return frozenset(w.casefold() for w in lexicon)


def remove_events(sentence: str, lexicon: frozenset = DEFAULT_EVENT_LEXICON) -> str:
    """Delete parenthesized non-textual events; unwrap quoted speakers.

    A balanced group is deleted when its trimmed inner text is in the
    lexicon or is a single non-speaker word; a group whose inner text
    starts with a speaker prefix is unwrapped with the prefix stripped.
    Other groups, and anything with unbalanced parentheses, stay
    untouched. When a deletion at the very start of the sentence exposes
    a "Name:" marker (a secondary-speaker utterance), that marker is
    stripped as well. Text without a "(" holds no group and is returned
    as it is.
    """
    if "(" not in sentence:
        return sentence
    lex = _casefolded(frozenset(lexicon))
    deleted_at_start = False

    def replace(m):
        nonlocal deleted_at_start
        inner = m.group(1).strip()
        if inner.casefold() in lex or inner == "":
            replacement = ""
        elif SPEAKER_PREFIX_RE.match(inner):
            replacement = strip_speaker_prefix(inner)
        elif " " not in inner:
            replacement = ""
        else:
            return m.group(0)
        if replacement == "" and not m.string[: m.start()].strip():
            deleted_at_start = True
        return replacement

    # every replacement is shorter than its group, so a pass that changes
    # nothing is the fixed point, and text is sentence if none ever did
    text = sentence
    while (cleaned := _INNER_GROUP_RE.sub(replace, text)) != text:
        text = cleaned
    if text is sentence:
        return sentence
    text = _SPACE_RUN_RE.sub(" ", text).strip()
    text = _SPACE_BEFORE_PUNCT_RE.sub(r"\1", text)
    if deleted_at_start:
        text = strip_speaker_prefix(text)
    return text


_THOUSANDS_RE = re.compile(r"(?<!\d)(\d{1,3}(?: \d{3})+)(?!\d)")
# every thousands group holds one; _THOUSANDS_RE's lookbehind makes re try every position
_DIGIT_SPACE_DIGIT_RE = re.compile(r"\d \d")


def normalize_thousands(sentence: str) -> str:
    """Turn space-separated thousands groups into comma-separated ones.

    Text without a digit, a space and a digit in a row is returned as it is.
    """
    if not _DIGIT_SPACE_DIGIT_RE.search(sentence):
        return sentence
    return _THOUSANDS_RE.sub(lambda m: m.group(1).replace(" ", ","), sentence)


_ONES = "zero one two three four five six seven eight nine".split()
_TEENS = "ten eleven twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen".split()
_TENS = "zero ten twenty thirty forty fifty sixty seventy eighty ninety".split()


def _spell_under_1000(n: int) -> list[str]:
    words = []
    if n >= 100:
        words += [_ONES[n // 100], "hundred"]
        n %= 100
    if n >= 20:
        words.append(_TENS[n // 10])
        n %= 10
        if n:
            words.append(_ONES[n])
    elif n >= 10:
        words.append(_TEENS[n - 10])
    elif n:
        words.append(_ONES[n])
    return words


def number_to_words(digits) -> str:
    """Spell out a digit run; space-joined, no hyphens, no "and".

    Values under a million are spelled in full ("twenty five"); longer
    runs fall back to digit-by-digit ("one two three ...").
    """
    digits = str(digits)
    n = int(digits)
    if n >= 1_000_000:
        return " ".join(_ONES[int(d)] for d in digits)
    if n == 0:
        return "zero"
    words = []
    if n >= 1000:
        words += _spell_under_1000(n // 1000) + ["thousand"]
        n %= 1000
    if n:
        words += _spell_under_1000(n)
    return " ".join(words)


def normalize_for_asr(text: str) -> list[str]:
    """Lowercase, strip punctuation, and spell out numbers for WER scoring.

    Mirrors what the ASR vocabulary can produce: only [a-z'] word
    characters survive; apostrophes stay because contractions are ASR
    words. Numbers are spelled only in text that still holds a digit
    once the other characters are gone; that pass runs last, so a
    non-ASCII digit such as "٣" is dropped, not spelled.
    """
    text = text.lower()
    text = _NON_ASR_CHAR_RE.sub(" ", text)
    if _DIGITS_RE.search(text):
        text = _DIGITS_RE.sub(lambda m: " " + number_to_words(m.group()) + " ", text)
    return text.split()


def word_error_rate(hyp: list[str], ref: list[str]) -> float:
    """Word-level Levenshtein distance divided by the reference length."""
    if not ref:
        raise ValueError("empty reference")
    return word_edit_distance(hyp, ref) / len(ref)


def clean_target(sentence: str, lexicon: frozenset = DEFAULT_EVENT_LEXICON, fix_thousands: bool = False) -> str:
    """Full target-side cleanup: speaker prefix, events, optional thousands fix."""
    out = strip_speaker_prefix(sentence)
    out = remove_events(out, lexicon)
    if fix_thousands:
        out = normalize_thousands(out)
    return out


def filter_pair(pair: TranscriptPair, asr_hyp: list[str], cfg: FilterConfig) -> FilterDecision:
    """Keep/drop decision for one training pair.

    A pair is any object with n_samples, src_text and tgt_text, such as a
    TranscriptPair or a manifest entry. Checks run in order: source
    duration cap, empty-after-filtering target, ASR WER strictly above
    the threshold. A source that normalizes to no words cannot be
    verified against the hypothesis and is dropped under the WER reason.
    """
    if pair.n_samples > cfg.max_samples:
        return _DROP[DROP_TOO_LONG]
    if not clean_target(pair.tgt_text, cfg.event_lexicon).strip():
        return _DROP[DROP_EMPTY]
    ref = normalize_for_asr(pair.src_text)
    if not ref or word_error_rate(asr_hyp, ref) > cfg.wer_threshold:
        return _DROP[DROP_WER]
    return _KEEP

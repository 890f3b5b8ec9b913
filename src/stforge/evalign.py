"""Scoring for re-segmented translation output.

Aligns a hypothesis word stream to reference segments by minimum total
edit distance, tokenizes text the way the mteval-13a scorer does, and
computes corpus BLEU-4 with exponential smoothing. Together these score
a candidate audio segmentation against sentence-level references.

All edit distances, textfilter's WER included, come from one
bit-parallel step, ``_steps`` (Myers, JACM 1999, in Hyyrö's form): a DP
column over one side's words is kept as two Python-int bit sets, and one
step per word of the other side costs about 16 int operations. For S
reference segments of R words in all against H hypothesis words, the
mWER optimum is the edit distance between the hypothesis and the
concatenated references, so aligning costs one run of R steps: O(R * H
/ w) digit operations, with w = 30 bits per CPython int digit.
Resegmentation keeps its suffix costs as one column per segment, 2 bits
a cell, and finds each boundary by a walk over column bits that stops at
the boundary. A pair's WER runs the step over the pair's differing
middle only, once the shared prefix and suffix are stripped.

A sweep scores many hypotheses against one reference set, so BLEU
counts each distinct reference's n-grams once per process, cached on its
tokens, and clips a segment's matches by taking one from a copy of those
counts for each hypothesis n-gram. The 13a rules are one str.translate
pass plus two conditional regex passes: the period/comma substitutions
run only on text holding a period or comma, the digit-dash one only on
text holding a dash.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import string
from collections import Counter
from types import MappingProxyType

from .ioutil import record

NGRAM_ORDER = 4


class BleuScore(record("BleuScore", "score precisions brevity_penalty hyp_len ref_len empty_hyp", defaults=(False,))):
    """Corpus BLEU with its components; precisions are ratios in [0, 1]."""

    __slots__ = ()


# mteval-13a's first rule pads [{-~[-` -&(-+:-@/] with spaces: every ASCII
# punctuation mark but the apostrophe, comma, dash and period, and the
# space. Padding a space only lengthens a run of spaces, which leaves
# every other character's neighbours, and so the later rules and the
# tokens, as they were; the table leaves spaces out, as mapping them
# makes translate about five times slower on prose.
_PAD_13A = str.maketrans({c: f" {c} " for c in set(string.punctuation) - set("',-.")})

_MARKS_RE = re.compile(r"[.,]+")


def _split_marks(run: re.Match) -> str:
    """13a's ([^0-9])([.,]) -> "\\1 \\2 " on one run of periods and commas, pairing left to right."""
    marks = run.group()
    if run.string[run.start() - 1] not in "0123456789":  # ASCII digits only; the text is space-padded
        if len(marks) == 1:
            return f" {marks} "
        marks = ["", *marks]  # the first mark pairs with the character before the run
    pairs = "".join(f"{a} {b} " for a, b in zip(marks[::2], marks[1::2]))
    return pairs + marks[-1] if len(marks) % 2 else pairs


def tokenize_13a(text: str) -> list[str]:
    """Tokenize like mteval-v13a: split out punctuation, keep numbers whole.

    Periods and commas stay attached only between digits; a dash splits
    only after a digit. HTML entities are mapped back to characters
    first. The first rule is one str.translate; the period/comma and
    digit-dash rules run only on text holding their characters.
    """
    norm = text
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = f" {norm} ".translate(_PAD_13A)
    if "." in norm or "," in norm:
        norm = _MARKS_RE.sub(_split_marks, norm)
        norm = re.sub(r"([\.,])([^0-9])", " \\1 \\2", norm)
    if "-" in norm:
        norm = re.sub(r"([0-9])(-)", "\\1 \\2 ", norm)
    return norm.split()


_NON_WORD_RE = re.compile(r"[^\w']")


def _align_key(word: str) -> str:
    # lowercased, punctuation-stripped comparison key; pure-punctuation
    # tokens keep their casefolded form so they stay distinguishable
    stripped = _NON_WORD_RE.sub("", word.casefold())
    return stripped if stripped else word.casefold()


def _position_bits(words, vocab=None) -> dict:
    """word -> bit set of the positions where it occurs in words.

    With a vocab, only words in it get a set: the others are never
    looked up.
    """
    positions = enumerate(words)
    if vocab is not None:
        positions = ((i, w) for i, w in positions if w in vocab)
    bits = {}
    for i, w in positions:
        bits[w] = bits.get(w, 0) | 1 << i
    return bits


def _steps(eqs, mask: int, pv: int, mv: int) -> tuple[int, int]:
    """Advance a DP column by one Myers/Hyyrö step per match set in eqs.

    The column runs over the bit side's positions: bit j of pv (mv)
    marks a rise (fall) of one from row j to row j + 1, and bit j of an
    eq marks the bit-side word j equal to the step's word. The top row
    rises by one per step. ``^ mask`` stands in for ``~`` so the ints
    stay non-negative; bits above the mask never reach lower bits, so
    they are cleared once, on return.
    """
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        ph = ph << 1 | 1
        pv = mh << 1 | ((xv | ph) ^ mask)
        mv = ph & xv
    return pv & mask, mv & mask


def strip_shared_ends(a: list, b: list) -> tuple[list, list]:
    """a and b without their shared prefix and suffix, which never change
    the edit distance (Ukkonen, 1985)."""
    lo = 0
    for x, y in zip(a, b):
        if x != y:
            break
        lo += 1
    end_a, end_b = len(a), len(b)
    while end_a > lo and end_b > lo and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    return a[lo:end_a], b[lo:end_b]


def word_edit_distance(a: list, b: list) -> int:
    """Word-level Levenshtein distance between two token sequences.

    The kernel runs over the differing middles left by strip_shared_ends
    only: one bit-parallel step per word of the shorter middle, over a
    bit set as long as the longer one.
    """
    a, b = strip_shared_ends(a, b)
    if not a or not b:
        return len(a) + len(b)
    if len(a) < len(b):
        a, b = b, a
    mask = (1 << len(a)) - 1
    bits = _position_bits(a)
    pv, mv = _steps((bits.get(w, 0) for w in b), mask, mask, 0)
    return len(b) + pv.bit_count() - mv.bit_count()


def _align_keys(hyp_words: list, ref_segments: list):
    """(hyp keys, ref keys per segment, the set of ref keys)."""
    if not ref_segments:
        raise ValueError("need at least one reference segment")
    key = {w: _align_key(w) for w in set(itertools.chain(hyp_words, *ref_segments))}
    refs = [[key[w] for w in seg] for seg in ref_segments]
    return [key[w] for w in hyp_words], refs, set(itertools.chain(*refs))


def _suffix_columns(hyp: list, refs: list, vocab: set):
    """Yield (top, pv, mv) after each segment of one reversed run.

    The run steps the reversed concatenated references against the
    reversed hypothesis, so the k-th column yielded holds, at row m, the
    min cost of assigning the last m hypothesis words to the last k
    segments. Chaining segments needs no extra step: extending k
    segments by one takes, at each row, the minimum over earlier rows
    plus one per skipped word, and as every column rises by at most one
    per row, that minimum is the column itself.
    """
    mask = (1 << len(hyp)) - 1
    bits = _position_bits(hyp[::-1], vocab)
    top, pv, mv = 0, mask, 0
    for ref in reversed(refs):
        pv, mv = _steps((bits.get(w, 0) for w in reversed(ref)), mask, pv, mv)
        top += len(ref)
        yield top, pv, mv


def alignment_cost(hyp_words: list, ref_segments: list) -> int:
    """Minimum total edit distance achievable by resegment_mwer.

    It equals the edit distance between the hypothesis and the
    concatenated references: any alignment induces a split and any
    split gives an alignment.
    """
    for top, pv, mv in _suffix_columns(*_align_keys(hyp_words, ref_segments)):
        pass  # keep only the last column
    return top + pv.bit_count() - mv.bit_count()


def resegment_mwer(hyp_words: list, ref_segments: list) -> list:
    """Split hyp_words into len(ref_segments) contiguous groups minimizing
    the summed word-level edit distance to the references.

    Comparison runs on lowercased, punctuation-stripped keys; the
    returned groups keep the original tokens. Among optimal splits the
    boundary vector is the lexicographically smallest, so ties fall
    toward earlier boundaries.

    Cost: one reversed run of bit-parallel steps, one per reference
    word over the H-bit hypothesis, O(R * H / w) digit operations for R
    reference words, then a forward run per boundary over the window
    where it can fall, walked to its first optimal end. Suffix costs are
    one (top, pv, mv) column per segment, 2 bits a cell; each distinct
    hypothesis word that some reference holds adds one H-bit set.
    """
    hyp, refs, vocab = _align_keys(hyp_words, ref_segments)
    nhyp = len(hyp)
    # suffix[s][m]: the min cost of assigning the last m words to segments s, s+1, ...
    suffix = list(_suffix_columns(hyp, refs, vocab))[::-1]
    top, pv, mv = suffix[0]
    total = top + pv.bit_count() - mv.bit_count()
    bits = _position_bits(hyp, vocab)
    groups = []
    start = 0
    used = 0
    for s, ref in enumerate(refs[:-1]):
        # a later end cannot be optimal: dist >= k - len(ref), suffix >= 0
        n = min(nhyp - start, len(ref) + total - used)
        window = (1 << n) - 1
        # row k of (len(ref), pv, mv): the edit distance of hyp[start:start+k] vs ref
        pv, mv = _steps(((bits.get(w, 0) >> start) & window for w in ref), window, window, 0)
        # suffix[s + 1] at rows nhyp-start-n .. nhyp-start, the cost of the words after an end at k = n .. 0
        top, after_pv, after_mv = suffix[s + 1]
        lo, rows = nhyp - start - n, (1 << nhyp - start) - 1
        after = top + (after_pv & rows).bit_count() - (after_mv & rows).bit_count()
        after_pv, after_mv = after_pv >> lo & window, after_mv >> lo & window
        # the first end k whose split stays optimal: each step moves dist down and after up a row
        k, dist = 0, len(ref)
        while used + dist + after != total:
            if k == n:  # unreachable if the DP is consistent
                raise AssertionError("boundary recovery failed")
            dist += (pv >> k & 1) - (mv >> k & 1)
            after -= (after_pv >> n - 1 - k & 1) - (after_mv >> n - 1 - k & 1)
            k += 1
        groups.append(list(hyp_words[start:start + k]))
        used += dist
        start += k
    # with no segment left, the last one takes every remaining word
    groups.append(list(hyp_words[start:]))
    return groups


def _ngrams(tokens) -> list:
    """The 1- to NGRAM_ORDER-grams of tokens, one list per order.

    Unigrams are the (string) tokens themselves and longer n-grams
    tuples of them, so no two orders share a key.
    """
    return [tokens] + [list(zip(*(tokens[i:] for i in range(n)))) for n in range(2, NGRAM_ORDER + 1)]


@functools.lru_cache(maxsize=8192)
def _reference_ngrams(ref: tuple) -> MappingProxyType:
    """n-gram -> count over every order of one reference, read-only:
    every call with these tokens gets the same mapping."""
    return MappingProxyType(dict(Counter(itertools.chain.from_iterable(_ngrams(ref)))))


def segment_stats(hyp: list, ref: list) -> tuple:
    """BLEU's ten counts for one segment pair: the clipped n-gram matches
    and the hypothesis n-gram totals for orders 1 to 4, then len(hyp) and
    len(ref). A clipped match is a hypothesis n-gram that takes one from a
    copy of the reference's counts, made once per process per reference.
    """
    correct = [0] * NGRAM_ORDER
    orders = _ngrams(hyp)
    if hyp:
        left = _reference_ngrams(tuple(ref)).copy()
        for n, grams in enumerate(orders):
            for g in grams:
                c = left.get(g)
                if c:
                    left[g] = c - 1
                    correct[n] += 1
    return (*correct, *map(len, orders), len(hyp), len(ref))


def corpus_bleu(hyp_segments: list, ref_segments: list) -> BleuScore:
    """Corpus BLEU-4 over parallel segment lists, from their summed segment_stats.

    Precisions with zero matches are exponentially smoothed: the k-th
    zero order scores 1/(2^k * denominator), with the denominator
    clamped to at least 1 so orders longer than the hypothesis still
    contribute a finite penalty. Brevity penalty is exp(1 - ref/hyp)
    for short hypotheses; an empty hypothesis corpus scores 0 with the
    penalty reported as 0 and flagged.
    """
    if len(hyp_segments) != len(ref_segments):
        raise ValueError(
            f"segment count mismatch: {len(hyp_segments)} hyp vs {len(ref_segments)} ref"
        )
    if not any(ref_segments):
        raise ValueError("need at least one nonempty reference segment")

    stats = [sum(column) for column in zip(*map(segment_stats, hyp_segments, ref_segments))]
    correct, total, (hyp_len, ref_len) = stats[:NGRAM_ORDER], stats[NGRAM_ORDER:-2], stats[-2:]
    if hyp_len == 0:
        return BleuScore(0.0, (0.0,) * NGRAM_ORDER, 0.0, 0, ref_len, empty_hyp=True)

    precisions = []
    smooth = 1.0
    for n in range(NGRAM_ORDER):
        if correct[n] == 0:
            smooth *= 2.0
            precisions.append(1.0 / (smooth * max(total[n], 1)))
        else:
            precisions.append(correct[n] / total[n])

    brevity_penalty = 1.0
    if hyp_len < ref_len:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    geo_mean = math.exp(sum(math.log(p) for p in precisions) / NGRAM_ORDER)
    score = 100.0 * brevity_penalty * geo_mean
    return BleuScore(score, tuple(precisions), brevity_penalty, hyp_len, ref_len)


def resegment_talks(talks) -> list:
    """Per (hypothesis lines, 13a-tokenized reference segments) talk, the
    resegment_mwer groups of the lines' joined 13a tokens."""
    return [resegment_mwer([tok for line in lines for tok in tokenize_13a(line)], refs) for lines, refs in talks]


def score_segmentation(segments: list, translations: list, refs: list) -> BleuScore:
    """BLEU of per-segment translations against reference segments.

    Translations are concatenated talk by talk, in the order each wav
    first appears in segments, and by offset within a talk, so the
    candidate segmentation's boundaries drop out; the stream is re-split
    against the references by resegment_talks, as one talk, and scored.
    refs are 13a-tokenized reference segments, assumed to list the talks
    in the candidate's talk order: the order segment and sweep write them.
    """
    if len(segments) != len(translations):
        raise ValueError(
            f"{len(segments)} segments but {len(translations)} translations"
        )
    talk = {wav: k for k, wav in enumerate(dict.fromkeys(s.wav for s in segments))}
    order = sorted(range(len(segments)), key=lambda i: (talk[segments[i].wav], segments[i].offset))
    (groups,) = resegment_talks([([translations[i] for i in order], refs)])
    return corpus_bleu(groups, refs)

"""Scoring for re-segmented translation output.

Aligns a hypothesis word stream to reference segments by minimum total
edit distance, tokenizes text the way the mteval-13a scorer does, and
computes corpus BLEU-4 with exponential smoothing. Together these score
a candidate audio segmentation against sentence-level references.

All edit distances, textfilter's WER included, come from one numpy
column step, ``_column_step``. Aligning H hypothesis words to S segments
of R words in total costs O(H * R) cells, run as R column steps over the
hypothesis axis per pass, and holds an (S+1) x (H+1) int32 table of
suffix costs. ``word_edit_distances`` runs the same step over a block of
up to 512 independent pairs at once, as a 2-D array: one step per
reference word of the block's longest reference, with memory bounded by
the block.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

NGRAM_ORDER = 4


@dataclass(frozen=True)
class BleuScore:
    """Corpus BLEU with its components; precisions are ratios in [0, 1]."""

    score: float
    precisions: tuple
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    empty_hyp: bool = False


def tokenize_13a(text: str) -> list[str]:
    """Tokenize like mteval-v13a: split out punctuation, keep numbers whole.

    Periods and commas stay attached only between digits; a dash splits
    only after a digit. HTML entities are mapped back to characters
    first.
    """
    norm = text
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = f" {norm} "
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", " \\1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", "\\1 \\2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", " \\1 \\2", norm)
    norm = re.sub(r"([0-9])(-)", "\\1 \\2 ", norm)
    return norm.split()


_NON_WORD_RE = re.compile(r"[^\w']")


def _align_key(word: str) -> str:
    # lowercased, punctuation-stripped comparison key; pure-punctuation
    # tokens keep their casefolded form so they stay distinguishable
    stripped = _NON_WORD_RE.sub("", word.casefold())
    return stripped if stripped else word.casefold()


def _word_ids(*sequences) -> list:
    """Integer id arrays for word sequences that share one vocabulary."""
    vocab = {}
    return [np.array([vocab.setdefault(w, len(vocab)) for w in seq], dtype=np.int64) for seq in sequences]


def _padded_ids(sequences: list, vocab: dict):
    """(rows, lengths): word ids in a 2-D array, each row padded with -1."""
    lens = np.array([len(seq) for seq in sequences], dtype=np.int64)
    rows = np.full((len(sequences), lens.max(initial=0)), -1, dtype=np.int64)
    rows[np.arange(rows.shape[1]) < lens[:, None]] = [vocab.setdefault(w, len(vocab)) for seq in sequences for w in seq]
    return rows, lens


def _column_step(c: np.ndarray, b: np.ndarray, match: np.ndarray) -> None:
    """Advance c, a DP row kept as row - idx, by one reference word, in place.

    Works on the last axis, so c may hold one row or a block of rows; b
    is scratch of c's shape, and match flags the hypothesis words equal
    to the reference word. A run of hypothesis-word insertions collapses
    to one running minimum: row = idx + minimum.accumulate(b - idx).
    """
    # reference-word deletion from c[j], match or substitution from c[j-1]
    np.add(c, 1, out=b)
    np.minimum(b[..., 1:], c[..., :-1] - match, out=b[..., 1:])
    np.minimum.accumulate(b, axis=-1, out=c)


def _extend(d_prev: np.ndarray, hyp: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """out[j] = min over i <= j of d_prev[i] + dist(hyp[i:j], ref).

    One column step over the hypothesis axis per reference word. With
    d_prev = idx, out[j] is plain dist(hyp[:j], ref).
    """
    idx = np.arange(len(hyp) + 1)
    c = np.minimum.accumulate(d_prev - idx)
    b = np.empty_like(c)
    for match in ref[:, None] == hyp:
        _column_step(c, b, match)
    return c + idx


def _chain_costs(hyp: np.ndarray, ref_segments: list):
    """Rows D[0], ..., D[S]: D[s][j] is the min total edit distance of
    assigning the first j hypothesis words to the first s segments."""
    # zero segments consume zero words; 1 << 30 marks the unreachable rest.
    # Only this row holds it: every later row is at most H + R, so all rows
    # fit in int32 while the arithmetic on them stays in int64
    row = np.full(len(hyp) + 1, 1 << 30, dtype=np.int64)
    row[0] = 0
    yield row
    for ref in ref_segments:
        row = _extend(row, hyp, ref)
        yield row


def _align_ids(hyp_words: list, ref_segments: list) -> list:
    if not ref_segments:
        raise ValueError("need at least one reference segment")
    return _word_ids(*([_align_key(w) for w in seq] for seq in (hyp_words, *ref_segments)))


BLOCK_PAIRS = 512


def word_edit_distances(pairs) -> list[int]:
    """Word-level Levenshtein distance of each (hyp, ref) pair, in input order.

    Pairs run in blocks of up to BLOCK_PAIRS through _column_step, the
    step _extend takes, as a 2-D array with one row per pair. A block
    sorts its pairs by reference length, longest first, so the rows
    still active at reference word k are a prefix and step k works on
    c[:n].
    Hypotheses are padded with an id no word has; the step at column j
    reads only columns up to j, so each row's distance is read at its
    own hypothesis length. Cost: one column step per reference word of
    the block's longest reference, over (pairs x longest hypothesis)
    cells, with memory bounded by the block.
    """
    pairs = list(pairs)
    out = [0] * len(pairs)
    for lo in range(0, len(pairs), BLOCK_PAIRS):
        block = sorted(range(lo, min(lo + BLOCK_PAIRS, len(pairs))), key=lambda i: -len(pairs[i][1]))
        vocab = {}
        hyp, hyp_lens = _padded_ids([pairs[i][0] for i in block], vocab)
        ref, ref_lens = _padded_ids([pairs[i][1] for i in block], vocab)
        # active[k]: the rows whose reference is longer than k
        active = np.searchsorted(-ref_lens, -np.arange(ref.shape[1]))
        c = np.zeros((len(block), hyp.shape[1] + 1), dtype=np.int64)
        b = np.empty_like(c)
        for k, n in enumerate(active.tolist()):
            _column_step(c[:n], b[:n], ref[:n, k, None] == hyp[:n])
        dists = c[np.arange(len(block)), hyp_lens] + hyp_lens
        for i, d in zip(block, dists.tolist()):
            out[i] = d
    return out


def word_edit_distance(a: list, b: list) -> int:
    """Word-level Levenshtein distance between two token sequences."""
    return word_edit_distances([(a, b)])[0]


def alignment_cost(hyp_words: list, ref_segments: list) -> int:
    """Minimum total edit distance achievable by resegment_mwer."""
    hyp, *refs = _align_ids(hyp_words, ref_segments)
    for row in _chain_costs(hyp, refs):
        pass  # keep only the last row
    return int(row[-1])


def resegment_mwer(hyp_words: list, ref_segments: list) -> list:
    """Split hyp_words into len(ref_segments) contiguous groups minimizing
    the summed word-level edit distance to the references.

    Comparison runs on lowercased, punctuation-stripped keys; the
    returned groups keep the original tokens. Among optimal splits the
    boundary vector is the lexicographically smallest, so ties fall
    toward earlier boundaries.

    Cost: two passes of O(H * sum of reference lengths) cells, as one
    numpy column step per reference word, and an (S+1) x (H+1) int32
    table of suffix costs.
    """
    hyp, *refs = _align_ids(hyp_words, ref_segments)
    nhyp, nseg = len(hyp), len(refs)

    # suffix costs via the same DP on the reversed problem: rev[k][m] is
    # the min cost of assigning the last m words to the last k segments
    rev = [row.astype(np.int32) for row in _chain_costs(hyp[::-1], [seg[::-1] for seg in refs[::-1]])]
    total = rev[nseg][nhyp]
    groups = []
    start = 0
    used = 0
    for s, ref in enumerate(refs):
        # dist[k] = edit distance of hyp[start:start+k] vs ref
        dist = _extend(np.arange(nhyp - start + 1), hyp[start:], ref)
        # the first end e whose split stays optimal: used + dist + suffix(e, s+1)
        hits = np.flatnonzero(used + dist + rev[nseg - s - 1][nhyp - start :: -1] == total)
        if not hits.size:  # unreachable if the DP is consistent
            raise AssertionError("boundary recovery failed")
        end = start + int(hits[0])
        groups.append(list(hyp_words[start:end]))
        used += int(dist[end - start])
        start = end
    return groups


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hyp_segments: list, ref_segments: list) -> BleuScore:
    """Corpus BLEU-4 over parallel segment lists.

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

    correct = [0] * NGRAM_ORDER
    total = [0] * NGRAM_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyp_segments, ref_segments):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, NGRAM_ORDER + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += max(len(hyp) - n + 1, 0)
            correct[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())

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


def score_segmentation(segments: list, translations: list, refs: list) -> BleuScore:
    """BLEU of per-segment translations against reference segments.

    Translations are concatenated in (wav, offset) order so the
    candidate segmentation's boundaries drop out, re-split against the
    references by resegment_mwer, and scored. refs are 13a-tokenized
    reference segments.
    """
    if len(segments) != len(translations):
        raise ValueError(
            f"{len(segments)} segments but {len(translations)} translations"
        )
    order = sorted(range(len(segments)), key=lambda i: (segments[i].wav, segments[i].offset))
    hyp_tokens = []
    for i in order:
        hyp_tokens.extend(tokenize_13a(translations[i]))
    hyp_groups = resegment_mwer(hyp_tokens, refs)
    return corpus_bleu(hyp_groups, refs)

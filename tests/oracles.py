"""Independent reference implementations used to cross-check the package.

Each oracle deliberately uses a different algorithm than the code under
test: full-matrix DP instead of two rows, exhaustive enumeration instead
of chained DP, plain recursion instead of an explicit stack. Slow is fine
here; oracles only ever see small inputs.
"""

import itertools
import math
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def edit_distance_matrix(a, b):
    """Full (len(a)+1) x (len(b)+1) Levenshtein matrix."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d


def edit_distance(a, b):
    return edit_distance_matrix(a, b)[len(a)][len(b)]


def wer(hyp, ref):
    return edit_distance(hyp, ref) / len(ref)


def mwer_exhaustive(hyp, ref_segments):
    """Optimal hypothesis segmentation by trying every boundary vector.

    Returns (total_cost, ends) where ends[k] is the exclusive end index
    of segment k in hyp; among optima, ends is lexicographically
    smallest. Exponential, so keep hyp and ref_segments tiny.
    """
    h, s = len(hyp), len(ref_segments)
    best = None
    for cuts in itertools.combinations_with_replacement(range(h + 1), s - 1):
        ends = list(cuts) + [h]
        starts = [0] + list(cuts)
        cost = sum(
            edit_distance(hyp[a:b], seg)
            for a, b, seg in zip(starts, ends, ref_segments)
        )
        if best is None or (cost, ends) < best:
            best = (cost, ends)
    return best


def mwer_dp(hyp, ref_segments):
    """Optimal hypothesis segmentation by a boundary DP over every slice.

    best[j] holds (cost, ends) for assigning hyp[:j] to the segments seen
    so far, minimized as a tuple, so ties keep the lexicographically
    smallest ends. Each slice is scored by a fresh edit_distance call:
    O(S * H^2) full-matrix DPs, polynomial where mwer_exhaustive is not.
    Returns the same (total_cost, ends) as mwer_exhaustive.
    """
    h = len(hyp)
    best = [(0, [])] + [None] * h  # zero segments consume zero words
    for seg in ref_segments:
        best = [
            min(
                (best[i][0] + edit_distance(hyp[i:j], seg), best[i][1] + [j])
                for i in range(j + 1)
                if best[i] is not None
            )
            for j in range(h + 1)
        ]
    return best[h]


_LETTER = re.compile(r"[A-Za-z]")


def segment_spans(tokens, frame_ms, max_seg_len, min_gap):
    """Recursive largest-gap splitting, returned as (start, end) frame pairs."""
    max_frames = math.floor(max_seg_len * 1000.0 / frame_ms + 1e-9)
    threshold = max(1, math.ceil(min_gap * 1000.0 / frame_ms - 1e-9))

    def gap_runs(start, end):
        runs = []
        i = start
        while i < end:
            if _LETTER.search(tokens[i]) is None:
                j = i
                while j < end and _LETTER.search(tokens[j]) is None:
                    j += 1
                runs.append((i, j - i))
                i = j
            else:
                i += 1
        return runs

    def rec(start, end):
        if end - start <= max_frames:
            return [(start, end)]
        candidates = []
        for run_start, run_len in gap_runs(start, end):
            if run_len < threshold:
                continue
            mid = run_start + run_len // 2
            if not start < mid < end:
                continue
            candidates.append((-run_len, abs(2 * mid - (start + end)), mid))
        if not candidates:
            return [(start, end)]
        mid = min(candidates)[2]
        return rec(start, mid) + rec(mid, end)

    return rec(0, len(tokens))


def first_fit(entries, spec):
    """Length-sorted first-fit packing by a linear scan of every open batch."""
    ordered = sorted(entries, key=lambda e: -e.n_samples)
    batches, loads = [], []
    for entry in ordered:
        for i, load in enumerate(loads):
            if load + entry.n_samples <= spec.max_batch_samples:
                batches[i].append(entry)
                loads[i] += entry.n_samples
                break
        else:
            batches.append([entry])
            loads.append(entry.n_samples)
    return batches


def sinc_resample(x, in_rate, out_rate, taps=64):
    """Windowed-sinc resampling with every (out_len x taps) matrix built at once."""
    ratio = out_rate / in_rate
    out_len = int(np.floor(len(x) * ratio + 0.5))
    if out_len == 0 or len(x) == 0:
        return np.zeros(0)
    cutoff = min(1.0, ratio)
    half = taps // 2
    t = np.arange(out_len) / ratio
    base = np.floor(t).astype(np.int64)
    offsets = np.arange(-half + 1, half + 1)
    idx = base[:, None] + offsets[None, :]
    delta = idx - t[:, None]
    kernel = cutoff * np.sinc(cutoff * delta)
    kernel *= 0.5 + 0.5 * np.cos(np.pi * delta / half)
    kernel /= kernel.sum(axis=1, keepdims=True)
    padded = np.concatenate([np.zeros(half), x, np.zeros(half + 1)])
    return np.einsum("ot,ot->o", kernel, padded[idx + half])


def wsola_reference(x, rate, factor):
    """WSOLA whose lag search scores a strided candidate matrix directly.

    Correlation by one matrix-vector product and window norms by an
    einsum over every candidate, against the per-frame np.correlate and
    the running energy of augment._wsola; scores within
    1e-9 * ||natural|| of the best tie and the earliest lag wins, as
    there.
    """
    w = int(round(rate * 30 / 1000))
    w = max(w + w % 2, 2)
    hs = w // 2
    ha = int(round(hs * factor))
    n = len(x)
    if n <= w or ha <= 0:
        return x.copy()
    tol = int(round(rate * 10 / 1000))
    n_frames = (n - w) // ha + 1
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(w) / w)
    acc = np.zeros((n_frames - 1) * hs + w)
    den = np.zeros_like(acc)
    xp = np.concatenate([x, np.zeros(w + hs + tol)])
    src = 0
    for k in range(n_frames):
        if k > 0:
            natural = xp[src + hs : src + hs + w]
            lo = max(k * ha - tol, 0)
            cands = sliding_window_view(xp[lo : k * ha + tol + w], w)
            corr = cands @ natural
            score = corr / (np.sqrt(np.einsum("ij,ij->i", cands, cands)) + 1e-12)
            src = lo + int(np.argmax(score >= score.max() - 1e-9 * np.linalg.norm(natural)))
        acc[k * hs : k * hs + w] += xp[src : src + w] * win
        den[k * hs : k * hs + w] += win
    safe = den > 1e-3
    acc[safe] /= den[safe]
    return acc


def fft_peak_hz(samples, rate):
    """Dominant frequency of a waveform via a Hann-windowed FFT."""
    w = np.hanning(len(samples))
    spectrum = np.abs(np.fft.rfft(samples * w))
    freqs = np.fft.rfftfreq(len(samples), 1.0 / rate)
    return float(freqs[int(np.argmax(spectrum))])


def central_difference(fn, x, eps=1e-4):
    """Numerical gradient of scalar fn at array x by central differences."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = np.array(x, dtype=np.float64)
        xm = np.array(x, dtype=np.float64)
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return g


def bleu_recount(hyp_segments, ref_segments):
    """Corpus BLEU recomputed with separate counting code.

    Same smoothing convention as the scorer under test (halved floor on
    zero-match orders, denominator clamped to 1); the point of the oracle
    is independent n-gram clipping and accumulation. Returns (precisions,
    brevity penalty, score, counts), counts being the per-order clipped
    matches, the per-order totals, then the hypothesis and reference
    lengths: ten ints.
    """
    from collections import Counter

    correct = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyp_segments, ref_segments):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += sum(hyp_counts.values())
            correct[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    counts = (*correct, *total, hyp_len, ref_len)
    if hyp_len == 0:
        return (0.0, 0.0, 0.0, 0.0), 0.0, 0.0, counts
    precisions = []
    smooth = 1.0
    for n in range(4):
        if correct[n] > 0:
            precisions.append(correct[n] / total[n])
        else:
            smooth *= 2.0
            precisions.append(1.0 / (smooth * max(total[n], 1)))
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return tuple(precisions), bp, score, counts


def tokenize_13a(text):
    """mteval-v13a tokenization as four regex substitutions, one per rule.

    The package pads the first rule's characters with one str.translate
    and skips the other rules on text without their characters.
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


def remove_events(sentence, lexicon, speaker_prefix):
    """Event removal by one left-to-right scan with a stack of open groups.

    Each ")" closes the nearest open "(" as in ordinary bracket matching,
    and a group is judged once its inner groups are resolved; one that
    still holds a parenthesis stays as it is. The package instead rewrites
    innermost groups pass by pass. speaker_prefix is the compiled
    "Name: " pattern, which has tests of its own.
    """
    lex = {w.casefold() for w in lexicon}
    stack = [""]  # stack[0]: top-level text so far; stack[k]: text of the k-th open group
    changed = deleted_at_start = False
    for ch in sentence:
        if ch == "(":
            stack.append("")
            continue
        if ch != ")" or len(stack) == 1:
            stack[-1] += ch
            continue
        inner = stack.pop()
        word = inner.strip()
        if "(" in inner or ")" in inner:
            out = None
        elif word == "" or word.casefold() in lex:
            out = ""
        elif speaker_prefix.match(word):
            out = speaker_prefix.sub("", word, count=1)
        elif " " not in word:
            out = ""
        else:
            out = None
        if out is None:
            stack[-1] += "(" + inner + ")"
            continue
        changed = True
        if out == "" and len(stack) == 1 and not stack[0].strip():
            deleted_at_start = True
        stack[-1] += out
    if not changed:
        return sentence
    text = " ".join("(".join(stack).split())
    kept = [c for i, c in enumerate(text) if not (c == " " and i + 1 < len(text) and text[i + 1] in ".,!?;:")]
    text = "".join(kept)
    if deleted_at_start:
        text = speaker_prefix.sub("", text, count=1)
    return text


def segments_yaml(text, loader):
    """The segments PyYAML reads from a segment YAML with ``loader``, entry by entry.

    Any YAML the loader takes is read, block style and comments included; an
    entry must be a mapping with string ids and non-bool numeric (or numeric
    string) times. Errors read ``entry N: ...``. PyYAML and stforge are
    imported here so that loading this module needs neither.
    """
    import yaml

    from stforge.segmenter import Segment

    try:
        raw = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed segment YAML: {exc}") from exc
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ValueError("segment YAML must be a list of mappings")
    segments = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i}: not a mapping")
        missing = {"duration", "offset", "speaker_id", "wav"} - entry.keys()
        if missing:
            raise ValueError(f"entry {i}: missing keys {sorted(missing)}")
        for key in ("wav", "speaker_id"):
            if not isinstance(entry[key], str):
                raise ValueError(f"entry {i}: {key} must be a string, got {entry[key]!r}")
        for key in ("offset", "duration"):
            if isinstance(entry[key], bool):
                raise ValueError(f"entry {i}: {key} must be a number, got {entry[key]!r}")
        try:
            segments.append(Segment(entry["wav"], float(entry["offset"]), float(entry["duration"]), entry["speaker_id"]))
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a 400-digit YAML int overflows
            raise ValueError(f"entry {i}: {exc}") from None
    return segments

"""Epoch composition and batch packing for the training corpus.

Each epoch re-draws a subset of the over-represented splits at a fixed
ratio, drops over-length examples, and packs the rest into size-capped
batches. Everything is deterministic given the epoch seed.
"""

from __future__ import annotations

import math
import random

from .ioutil import parse_rows, record

DEFAULT_RATIOS = {
    "MuST-C-train": 1.0,
    "EuroparlST-train": 1.0,
    "EuroparlST-dev": 1.0,
    "CoVoST-train": 0.3,
    "CoVoST-dev": 0.3,
}
TRAINING_SPLITS = tuple(DEFAULT_RATIOS)
_SPLIT_NAMES = {name: name for name in TRAINING_SPLITS}  # every row shares one string per split

MANIFEST_COLUMNS = ("id", "audio", "n_samples", "n_tgt_tokens", "split", "src_text", "tgt_text")


class ManifestEntry(record("ManifestEntry", MANIFEST_COLUMNS)):
    """One training example's bookkeeping row: a named tuple, checked when built."""

    __slots__ = ()

    def __new__(cls, id, audio, n_samples, n_tgt_tokens, split, src_text="", tgt_text=""):
        if not n_samples > 0:  # also rejects nan
            raise ValueError(f"{id}: n_samples must be positive, got {n_samples}")
        if not n_tgt_tokens >= 0:
            raise ValueError(f"{id}: n_tgt_tokens must be >= 0, got {n_tgt_tokens}")
        if (name := _SPLIT_NAMES.get(split)) is None:
            raise ValueError(f"{id}: unknown split {split!r}")
        return tuple.__new__(cls, (id, audio, n_samples, n_tgt_tokens, name, src_text, tgt_text))


class SamplingSpec(record("SamplingSpec", "ratios")):
    """Each split's sampling ratio; left out, a fresh copy of DEFAULT_RATIOS."""

    __slots__ = ()

    def __new__(cls, ratios=None):
        ratios = dict(DEFAULT_RATIOS) if ratios is None else ratios
        for split, ratio in ratios.items():
            if not 0 < ratio <= 1:
                raise ValueError(f"ratio for {split} must be in (0, 1], got {ratio}")
        return tuple.__new__(cls, (ratios,))


class BatchSpec(record("BatchSpec", "max_batch_samples max_src_samples max_tgt_tokens")):
    """Caps on a batch's summed samples and on one entry's samples and target tokens."""

    __slots__ = ()

    def __new__(cls, max_batch_samples=440000, max_src_samples=400000, max_tgt_tokens=1024):
        self = tuple.__new__(cls, (max_batch_samples, max_src_samples, max_tgt_tokens))
        for name, value in zip(self._fields, self):
            if not value > 0:  # also rejects nan
                raise ValueError(f"{name} must be positive, got {value}")
        if max_src_samples > max_batch_samples:
            raise ValueError(f"max_src_samples {max_src_samples} exceeds max_batch_samples {max_batch_samples}")
        return self


def _sample_count(ratio: float, n: int) -> int:
    # floor of the exact product; the tiny rounding step keeps decimal
    # ratios like 0.3 from landing one below an integer product
    return math.floor(round(ratio * n, 9))


def epoch_sample(manifest: list, spec: SamplingSpec, epoch_seed: int) -> list:
    """Draw one epoch's worth of entries.

    Ratio-1.0 splits are included whole; a ratio-r split contributes
    floor(r * N) entries drawn uniformly without replacement. The draw
    and the final order are functions of epoch_seed alone.
    """
    groups: dict = {}
    for entry in manifest:
        if entry.split not in spec.ratios:
            raise ValueError(f"{entry.id}: no sampling ratio for split {entry.split!r}")
        groups.setdefault(entry.split, []).append(entry)

    rng = random.Random(epoch_seed)
    chosen = []
    for split, group in groups.items():  # insertion order: first appearance
        ratio = spec.ratios[split]
        if ratio == 1.0:
            chosen.extend(group)
        else:
            chosen.extend(rng.sample(group, _sample_count(ratio, len(group))))
    rng.shuffle(chosen)
    return chosen


def filter_lengths(entries: list, spec: BatchSpec) -> list:
    """Drop entries over the source-sample or target-token caps."""
    return [
        e
        for e in entries
        if e.n_samples <= spec.max_src_samples and e.n_tgt_tokens <= spec.max_tgt_tokens
    ]


def build_batches(entries: list, spec: BatchSpec) -> list:
    """Pack entries into batches of at most max_batch_samples summed samples.

    Entries are sorted by n_samples descending (stable) and placed
    first-fit, so batches hold similar-length examples and padding waste
    stays bounded. The result is a partition of the input.

    First fit runs in O(N log N) on a max-tree over the remaining capacity
    of every batch, opened or not (Johnson, 1974): descending into the left
    child whenever it can hold the entry finds the leftmost batch that fits.
    """
    ordered = sorted(entries, key=lambda e: -e.n_samples)
    cap = spec.max_batch_samples
    size = 1 << max(len(ordered) - 1, 0).bit_length()  # leaves: one batch per entry at most
    room = [cap] * (2 * size)  # room[i] = max(room[2i], room[2i+1]); leaves from size
    batches: list = []
    for entry in ordered:
        if entry.n_samples > spec.max_batch_samples:
            raise ValueError(
                f"{entry.id}: {entry.n_samples} samples exceed the "
                f"{spec.max_batch_samples}-sample batch cap; run filter_lengths first"
            )
        need = entry.n_samples
        node = 1
        while node < size:
            node = 2 * node if room[2 * node] >= need else 2 * node + 1
        index = node - size
        if index == len(batches):
            batches.append([])
        batches[index].append(entry)
        room[node] -= need
        while node > 1:
            node //= 2
            top = max(room[2 * node], room[2 * node + 1])
            if top == room[node]:
                break  # nothing above can change either
            room[node] = top
    return batches


def batch_stats(batches: list, accumulation: int = 16, world_size: int = 4) -> dict:
    """Summary numbers for a packed epoch.

    Gradient accumulation and data parallelism are reported as the
    effective-batch multiplier only; nothing here simulates training.
    """
    sizes = [sum(e.n_samples for e in batch) for batch in batches]
    return {
        "num_batches": len(batches),
        "num_entries": sum(len(b) for b in batches),
        "max_batch_samples": max(sizes) if sizes else 0,
        "mean_batch_samples": sum(sizes) / len(sizes) if sizes else 0.0,
        "effective_batch_multiplier": accumulation * world_size,
    }


def _count(text: str, column: str) -> int:
    # str(int) form only: ASCII digits, no sign, space, underscore or leading zero
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        return int(text)
    raise ValueError(f"{column} must be a non-negative integer, got {text!r}")


def _manifest_row(line: str, judge=None) -> tuple:
    parts = line.split("\t")
    if len(parts) != len(MANIFEST_COLUMNS):
        raise ValueError(f"expected {len(MANIFEST_COLUMNS)} fields, got {len(parts)}")
    ident, audio, n_samples, n_tgt_tokens, split, src_text, tgt_text = parts
    entry = ManifestEntry(ident, audio, _count(n_samples, "n_samples"), _count(n_tgt_tokens, "n_tgt_tokens"), split,
                          src_text, tgt_text)
    return ident, entry if judge is None else judge(entry, line)


def manifest_rows(lines, judge=None):
    """Yield each row's entry from a manifest's lines, or judge(entry, the row's line) when judge is given.

    Columns are MANIFEST_COLUMNS under that header: no quoting, no tab or line break in a field, numbers
    as str(int) writes them, unique ids. Errors, judge's too, read ``line N: ...`` on reaching the line.
    """
    lines = iter(lines)
    if (header := next(lines, None)) is None:
        raise ValueError("line 1: empty manifest: missing header")
    if tuple(header.split("\t")) != MANIFEST_COLUMNS:
        raise ValueError(f"line 1: bad manifest header: {header!r}")
    yield from (entry for _, entry in parse_rows(lines, lambda line: _manifest_row(line, judge), start=2))


def read_manifest(lines) -> list:
    """The entries of a manifest's lines (see manifest_rows), as a list."""
    return list(manifest_rows(lines))


def manifest_line(e: ManifestEntry) -> str:
    """One entry in the standard tab-separated layout, line feed included."""
    line = "\t".join((e.id, e.audio, str(e.n_samples), str(e.n_tgt_tokens), e.split, e.src_text, e.tgt_text))
    if line.count("\t") != len(MANIFEST_COLUMNS) - 1 or "\n" in line or "\r" in line:
        raise ValueError(f"{e.id}: manifest fields must not contain tabs or line breaks")
    return line + "\n"


def write_manifest(entries: list, stream) -> None:
    """Serialize entries under the standard header; no entries write the header alone."""
    stream.write("\t".join(MANIFEST_COLUMNS) + "\n")
    for e in entries:
        stream.write(manifest_line(e))

"""Epoch composition and batch packing for the training corpus.

Each epoch re-draws a subset of the over-represented splits at a fixed
ratio, drops over-length examples, and packs the rest into size-capped
batches. Everything is deterministic given the epoch seed.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass, field

from .ioutil import split_lines

TRAINING_SPLITS = (
    "MuST-C-train",
    "EuroparlST-train",
    "EuroparlST-dev",
    "CoVoST-train",
    "CoVoST-dev",
)

DEFAULT_RATIOS = {
    "MuST-C-train": 1.0,
    "EuroparlST-train": 1.0,
    "EuroparlST-dev": 1.0,
    "CoVoST-train": 0.3,
    "CoVoST-dev": 0.3,
}

MANIFEST_COLUMNS = ("id", "audio", "n_samples", "n_tgt_tokens", "split", "src_text", "tgt_text")


class ManifestEntry(collections.namedtuple("ManifestEntry", MANIFEST_COLUMNS)):
    """One training example's bookkeeping row: a named tuple, checked when built."""

    __slots__ = ()

    def __new__(cls, id, audio, n_samples, n_tgt_tokens, split, src_text="", tgt_text=""):
        if n_samples <= 0:
            raise ValueError(f"{id}: n_samples must be positive, got {n_samples}")
        if n_tgt_tokens < 0:
            raise ValueError(f"{id}: n_tgt_tokens must be >= 0, got {n_tgt_tokens}")
        if split not in TRAINING_SPLITS:
            raise ValueError(f"{id}: unknown split {split!r}")
        return tuple.__new__(cls, (id, audio, n_samples, n_tgt_tokens, split, src_text, tgt_text))


@dataclass(frozen=True)
class SamplingSpec:
    ratios: dict = field(default_factory=lambda: dict(DEFAULT_RATIOS))

    def __post_init__(self):
        for split, ratio in self.ratios.items():
            if not 0 < ratio <= 1:
                raise ValueError(f"ratio for {split} must be in (0, 1], got {ratio}")


@dataclass(frozen=True)
class BatchSpec:
    max_batch_samples: int = 440000
    max_src_samples: int = 400000
    max_tgt_tokens: int = 1024

    def __post_init__(self):
        if self.max_batch_samples <= 0 or self.max_src_samples <= 0 or self.max_tgt_tokens <= 0:
            raise ValueError("batch limits must be positive")
        if self.max_src_samples > self.max_batch_samples:
            raise ValueError(
                f"max_src_samples {self.max_src_samples} exceeds "
                f"max_batch_samples {self.max_batch_samples}"
            )


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


def read_manifest(text: str) -> list:
    """Parse a tab-separated manifest with the standard header.

    Columns: id, audio, n_samples, n_tgt_tokens, split, src_text,
    tgt_text. No quoting; fields must not contain tabs or line breaks,
    and a line ends at a line feed only. Numbers are written as str(int)
    writes them. Ids must be unique.
    """
    lines = split_lines(text)
    if not lines:
        raise ValueError("empty manifest: missing header")
    header = lines[0]
    cols = tuple(header.split("\t"))
    if cols != MANIFEST_COLUMNS:
        raise ValueError(f"bad manifest header: {header!r}")
    entries = []
    first_line = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_COLUMNS):
            raise ValueError(f"manifest line {lineno}: expected {len(MANIFEST_COLUMNS)} fields, got {len(parts)}")
        ident, audio, n_samples, n_tgt_tokens, split, src_text, tgt_text = parts
        seen = first_line.setdefault(ident, lineno)
        if seen != lineno:
            raise ValueError(f"manifest line {lineno}: duplicate id {ident!r} (first on line {seen})")
        try:
            entries.append(ManifestEntry(ident, audio, _count(n_samples, "n_samples"),
                                         _count(n_tgt_tokens, "n_tgt_tokens"), split, src_text, tgt_text))
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: {exc}") from None
    return entries


def write_manifest(entries: list, stream) -> None:
    """Serialize entries in the standard tab-separated layout."""
    stream.write("\t".join(MANIFEST_COLUMNS) + "\n")
    for e in entries:
        line = "\t".join((e.id, e.audio, str(e.n_samples), str(e.n_tgt_tokens), e.split, e.src_text, e.tgt_text))
        if line.count("\t") != len(MANIFEST_COLUMNS) - 1 or "\n" in line or "\r" in line:
            raise ValueError(f"{e.id}: manifest fields must not contain tabs or line breaks")
        stream.write(line + "\n")

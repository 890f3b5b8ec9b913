"""Seeded synthetic inputs for the three benchmark workloads.

Every generator is a pure function of (seed, scale): the same pair gives
byte-identical files. The program under test only ever sees the files
written here, never the seed.

Sizes at ``full`` scale follow the workload definitions in
``BENCHMARK.json``; ``tiny`` keeps the same shape at a fraction of the
size, for the benchmark's own smoke tests.
"""

from __future__ import annotations

import json
import math
import os
import random
import wave

import numpy as np

RATE = 16000
FRAME_MS = 20
SPLITS = ("MuST-C-train", "EuroparlST-train", "EuroparlST-dev", "CoVoST-train", "CoVoST-dev")
SPLIT_WEIGHTS = (0.40, 0.20, 0.05, 0.30, 0.05)
MANIFEST_HEADER = "id\taudio\tn_samples\tn_tgt_tokens\tsplit\tsrc_text\ttgt_text\n"

SCALES = {
    "full": {
        "talks": 4, "talk_s": 450, "rows": 7000,
        "ref_segments": 64, "ref_words": 15, "test_talks": 2, "seg_caps": (6, 10, 14, 18, 22),
        "clips": 12, "clip_s": (2.0, 5.0),
    },
    "tiny": {
        "talks": 2, "talk_s": 120, "rows": 400,
        "ref_segments": 12, "ref_words": 8, "test_talks": 2, "seg_caps": (6, 10, 14),
        "clips": 6, "clip_s": (1.0, 3.0),
    },
}

_SRC_SYLLABLES = "ba be di do fa ge hi ka ko la li ma mo na ne po ra ri sa so ta te vi wu ze".split()
_TGT_SYLLABLES = "bau ber dan der ein fel gen hal ich keit lich mei nach sch sei ten ung ver wie zu".split()
_SPEAKERS = ("David Gallo: ", "Chris Anderson: ", "DG: ", "CA: ")
_EVENTS = ("(Applaus)", "(Gelächter)", "(Musik)", "(Video)", "(Beifall)")


def _vocab(rng: random.Random, syllables, n: int) -> list[str]:
    words = set()
    while len(words) < n:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(1, 3))))
    return sorted(words)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- prep ---------------------------------------------------------------------

def _talk_tokens(rng: random.Random, n_frames: int) -> list[str]:
    """CTC-style frame tokens: speech stretches split by blank gaps.

    Gaps run from 3 to 60 frames (60 ms to 1.2 s) in whole-frame steps, so
    many are below the 0.2 s split threshold and equal-length gaps (split
    ties) are common.
    """
    tokens: list[str] = []
    letters = "abcdefghijklmnopqrstuvwxyz"
    while len(tokens) < n_frames:
        for _ in range(rng.randint(3, 30)):  # words in this stretch
            for _ in range(rng.randint(4, 14)):
                tokens.append(rng.choice(letters) if rng.random() < 0.6 else "")
            tokens.append("|")
        tokens.extend([""] * rng.randint(3, 60))
    return tokens[:n_frames]


def _number(rng: random.Random, europarl: bool) -> str:
    if europarl and rng.random() < 0.5:
        # EuroparlST writes thousands with a space separator
        return f"{rng.randint(1, 999)} {rng.randint(0, 999):03d}"
    return str(rng.choice((rng.randint(2, 99), rng.randint(100, 2030))))


def _noisy(rng: random.Random, words: list[str], p_err: float, vocab: list[str]) -> list[str]:
    """Substitute, delete or insert words at rate ``p_err``."""
    out = []
    for w in words:
        if rng.random() >= p_err:
            out.append(w)
            continue
        kind = rng.random()
        if kind < 0.6:
            out.append(rng.choice(vocab))
        elif kind < 0.8:
            continue
        else:
            out.extend((w, rng.choice(vocab)))
    return out or [rng.choice(vocab)]


def gen_prep(root: str, seed: int, scale: str) -> dict:
    s = SCALES[scale]
    rng = random.Random(f"prep:{seed}")
    frames = []
    total_frames = 0
    for k in range(s["talks"]):
        tokens = _talk_tokens(rng, s["talk_s"] * 1000 // FRAME_MS)
        total_frames += len(tokens)
        frames.append(json.dumps({"audio": f"talk{k}.wav", "frame_ms": FRAME_MS, "tokens": tokens}))
    _write(os.path.join(root, "frames.jsonl"), "\n".join(frames) + "\n")

    src_vocab = _vocab(rng, _SRC_SYLLABLES, 3000)
    tgt_vocab = _vocab(rng, _TGT_SYLLABLES, 3000)
    rows, hyps = [], []
    words_total = 0
    for i in range(s["rows"]):
        split = rng.choices(SPLITS, SPLIT_WEIGHTS)[0]
        europarl = split.startswith("EuroparlST")
        n = max(3, min(45, int(rng.gauss(18, 8))))
        src = [rng.choice(src_vocab) for _ in range(n)]
        if rng.random() < 0.15:
            src.insert(rng.randrange(n), str(rng.randint(2, 2030)))
        tgt = [rng.choice(tgt_vocab) for _ in range(n + rng.randint(-2, 3))]
        if rng.random() < 0.15:
            tgt.insert(rng.randrange(len(tgt) + 1), _number(rng, europarl))
        tgt_text = " ".join(tgt).capitalize() + "."
        r = rng.random()
        if r < 0.01:
            tgt_text = rng.choice(_EVENTS)  # nothing left after filtering
        elif r < 0.06:
            tgt_text = rng.choice(_SPEAKERS) + tgt_text
        elif r < 0.11:
            tgt_text = tgt_text + " " + rng.choice(_EVENTS)
        seconds = n * rng.uniform(0.3, 0.5) + 0.5
        if rng.random() < 0.02:
            seconds = rng.uniform(25.5, 30.0)  # over the 400k-sample cap
        # ASR errors: about 15 % word errors, with a tail above the 0.5 gate
        p_err = 0.7 if rng.random() < 0.06 else rng.uniform(0.05, 0.25)
        hyp = _noisy(rng, [w.lower() for w in src], p_err, src_vocab)
        ident = f"utt{i:06d}"
        rows.append(
            f"{ident}\t{ident}.wav\t{int(seconds * RATE)}\t{len(tgt_text.split())}\t{split}"
            f"\t{' '.join(src).capitalize()}.\t{tgt_text}\n"
        )
        hyps.append(f"{ident}\t{' '.join(hyp)}\n")
        words_total += n
    _write(os.path.join(root, "all.tsv"), MANIFEST_HEADER + "".join(rows))
    _write(os.path.join(root, "hyps.tsv"), "".join(hyps))
    return {"frames": total_frames, "recordings": s["talks"], "rows": s["rows"], "src_words": words_total}


# -- score --------------------------------------------------------------------

def _yaml_line(wav: str, offset: float, duration: float) -> str:
    speaker = wav.rsplit(".", 1)[0]
    return "- {duration: %.6f, offset: %.6f, speaker_id: %s, wav: %s}\n" % (duration, offset, speaker, wav)


def gen_score(root: str, seed: int, scale: str) -> dict:
    """References, one unsegmented system output, and candidate segmentations.

    Reference words carry timestamps on their test talk, so each candidate
    segmentation of the talks maps to per-segment translations: the words
    whose midpoint falls inside the segment, with fresh translation noise.
    Tokens are whitespace-separated 13a tokens, so token counts are known.
    """
    s = SCALES[scale]
    rng = random.Random(f"score:{seed}")
    vocab = _vocab(rng, _TGT_SYLLABLES, 2000)
    refs = []
    # (talk, start, end, token) for every reference token
    timed = []
    # a fixed multiset of segment lengths, shuffled, keeps the alignment
    # work (hypothesis words x reference words) the same for every seed
    n_refs, mean = s["ref_segments"], s["ref_words"]
    lengths = [max(3, round(mean * (0.4 + 1.2 * k / (n_refs - 1)))) for k in range(n_refs)]
    rng.shuffle(lengths)
    per_talk = math.ceil(n_refs / s["test_talks"])
    for talk in range(s["test_talks"]):
        t = rng.uniform(0.5, 2.0)
        for n in lengths[talk * per_talk:(talk + 1) * per_talk]:
            words = [rng.choice(vocab) for _ in range(n)]
            if len(refs) % 3 == 0:
                words.insert(rng.randrange(1, n), ",")
            words.append(".")
            refs.append(" ".join(words))
            for w in words:
                d = rng.uniform(0.3, 0.6)
                timed.append((talk, t, t + d, w))
                t += d
            t += rng.uniform(0.2, 1.5)
    _write(os.path.join(root, "ref.txt"), "\n".join(refs) + "\n")

    # unsegmented system output: the whole stream, noisy, broken anywhere
    stream = _noisy(rng, [w for _, _, _, w in timed], 0.2, vocab)
    lines, i = [], 0
    while i < len(stream):
        step = rng.randint(8, 30)
        lines.append(" ".join(stream[i:i + step]))
        i += step
    _write(os.path.join(root, "system.txt"), "\n".join(lines) + "\n")

    talk_end = {}
    for talk, _, end, _ in timed:
        talk_end[talk] = end + 1.0
    os.makedirs(os.path.join(root, "segdir"))
    os.makedirs(os.path.join(root, "trans"))
    n_candidate_segments = 0
    for cap in s["seg_caps"]:
        yaml_lines, trans = [], []
        for talk in range(s["test_talks"]):
            wav = f"test{talk}.wav"
            words = [(a, b, w) for k, a, b, w in timed if k == talk]
            start, j = 0.0, 0
            while start < talk_end[talk] - 1e-9:
                end = min(start + rng.uniform(0.5, 1.0) * cap, talk_end[talk])
                if talk_end[talk] - end < 0.5:
                    end = talk_end[talk]
                inside = []
                while j < len(words) and (words[j][0] + words[j][1]) / 2 < end:
                    inside.append(words[j][2])
                    j += 1
                yaml_lines.append(_yaml_line(wav, start, end - start))
                trans.append(" ".join(_noisy(rng, inside, 0.2, vocab)) if inside else "")
                start = end
        stem = f"max_seg_len_{cap:g}"
        _write(os.path.join(root, "segdir", stem + ".yaml"), "".join(yaml_lines))
        _write(os.path.join(root, "trans", stem + ".txt"), "\n".join(trans) + "\n")
        n_candidate_segments += len(yaml_lines)
    return {
        "ref_segments": len(refs),
        "ref_words": len(timed),
        "hyp_words": len(stream),
        "segmentations": len(s["seg_caps"]),
        "candidate_segments": n_candidate_segments,
    }


# -- augment ------------------------------------------------------------------

def _speech_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Voiced harmonics under a gliding f0 and a syllable-rate envelope."""
    t = np.arange(n) / RATE
    f0 = rng.uniform(100, 200) * (1 + 0.15 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t))
    phase = 2 * np.pi * np.cumsum(f0) / RATE
    x = np.zeros(n)
    for h in range(1, 9):
        x += rng.uniform(0.3, 1.0) / h * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    envelope = np.clip(np.sin(2 * np.pi * rng.uniform(3, 5) * t + rng.uniform(0, 6)), 0, None) ** 0.5
    x = x * envelope + 0.01 * rng.standard_normal(n)
    return 0.45 * x / np.max(np.abs(x))


def _write_pcm16(path: str, samples: np.ndarray) -> None:
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(RATE)
        wf.writeframes(ints.tobytes())


def gen_augment(root: str, seed: int, scale: str) -> dict:
    """Speech-like 16 kHz clips; the first is always the longest, which sets peak memory.

    Names and lengths are the same for every seed, and so, with the program
    seed fixed, are the augmentation parameters each clip draws.
    """
    s = SCALES[scale]
    rng = np.random.default_rng([seed, 7])
    lo, hi = s["clip_s"]
    # lengths are evenly spaced and in a fixed order, so the seed changes
    # the waveforms but not the amount of work
    n = s["clips"]
    lengths = [hi - (hi - lo) * ((k * 7) % n) / (n - 1) for k in range(n)]
    os.makedirs(os.path.join(root, "wavs"))
    rows = []
    total = 0
    for k, seconds in enumerate(lengths):
        samples = int(seconds * RATE)
        ident = f"clip{k:03d}"
        _write_pcm16(os.path.join(root, "wavs", ident + ".wav"), _speech_like(rng, samples))
        rows.append(f"{ident}\t{ident}.wav\t{samples}\t8\tMuST-C-train\tsource text\tZieltext\n")
        total += samples
    _write(os.path.join(root, "clips.tsv"), MANIFEST_HEADER + "".join(rows))
    return {"clips": len(lengths), "clip_seconds": round(total / RATE, 3), "max_clip_seconds": hi}


GENERATORS = {"prep": gen_prep, "score": gen_score, "augment": gen_augment}

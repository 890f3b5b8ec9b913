"""Command-line entry point: every pipeline stage as a subcommand.

Shared behavior: a flag that sets a config value has its ``section.key``
as dest, and ``config.load_config`` merges it over the ``STFORGE_*``
environment over the ``--config`` file; stages read the typed result.
``--seed`` pins all randomness, outputs are written atomically, and reruns
with identical inputs produce byte-identical artifacts. Exit codes: 0
success, 1 processing error, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import json
import logging
import math
import os
import random
import sys

from . import config as config_mod
from .audio import load_wav, write_wav
from .augment import apply_augmentation, sample_params
from .evalign import corpus_bleu, resegment_talks, score_segmentation, tokenize_13a
from .ioutil import atomic_write, is_plain_file_name, parse_rows, read_lines, read_text, split_lines
from .sampler import (ManifestEntry, batch_stats, build_batches, epoch_sample, filter_lengths, manifest_line,
                      manifest_rows, read_manifest, write_manifest)
from .segmenter import (
    parse_frame_transcript,
    parse_segments_yaml,
    split_recursive,
    sweep_max_seg_len,
    write_segments_yaml,
)
from .textfilter import clean_target, filter_pair, normalize_for_asr

logger = logging.getLogger("stforge.cli")

EPOCH_SEED_STRIDE = 1_000_003  # epoch_seed = seed * stride + epoch


def cmd_segment(args, cfg: config_mod.PipelineConfig) -> int:
    transcripts = read_text(args.transcripts, parse_frame_transcript)
    segments = [seg for t in transcripts for seg in split_recursive(t, cfg.segmentation)]
    with atomic_write(args.out) as fh:
        fh.write(write_segments_yaml(segments))
    logger.info("segmented %d files into %d segments", len(transcripts), len(segments))
    return 0


def _cap_text(value: float) -> str:
    """A swept cap as written in rows and file names: %g when that reads back as the value, else its repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def cmd_sweep(args, cfg: config_mod.PipelineConfig) -> int:
    transcripts = read_text(args.transcripts, parse_frame_transcript)
    # a sweep parameter like --lo/--hi: checked against each swept cap only
    min_gap = cfg.segmentation.min_gap if args.min_gap is None else args.min_gap
    swept = sweep_max_seg_len(transcripts, args.lo, args.hi, args.step, min_gap)
    with atomic_write(args.out) as fh:
        for value in sorted(swept):
            fh.write(f"{_cap_text(value)}\t{len(swept[value])}\n")
    if args.seg_dir:
        for value, segments in sorted(swept.items()):
            path = os.path.join(args.seg_dir, f"max_seg_len_{_cap_text(value)}.yaml")
            with atomic_write(path) as fh:
                fh.write(write_segments_yaml(segments))
    logger.info("swept %d max_seg_len values", len(swept))
    return 0


def _hyp_row(line: str) -> tuple:
    ident, tab, text = line.partition("\t")
    if not tab:
        raise ValueError("expected id<TAB>text")
    return ident, text


def cmd_filter(args, cfg: config_mod.PipelineConfig) -> int:
    hyps = read_lines(args.asr_hyps, lambda lines: dict(parse_rows(lines, _hyp_row)))
    lexicon = cfg.filter.event_lexicon
    def keep_or_drop(e, line: str) -> bool:
        if e.id not in hyps:
            raise ValueError(f"no ASR hypothesis for id {e.id!r} in {args.asr_hyps}")
        # the length and WER gates judge the cleaned pair, the one written; thousands separators are a EuroparlST quirk
        fix = e.split.startswith("EuroparlST")
        src, tgt = clean_target(e.src_text, lexicon, fix), clean_target(e.tgt_text, lexicon, fix)
        if src != e.src_text or tgt != e.tgt_text:  # an unchanged row is written back as its own line
            e, line = ManifestEntry(e.id, e.audio, e.n_samples, e.n_tgt_tokens, e.split, src, tgt), None
        decision = filter_pair(e, normalize_for_asr(hyps[e.id]), cfg.filter, target_cleaned=True)
        if decision.keep:
            out.write(manifest_line(e) if line is None else line + "\n")
        else:
            report.write(f"{e.id}\t{decision.reason}\n")
        return decision.keep

    with atomic_write(args.out) as out, atomic_write(args.report) as report:
        write_manifest((), out)  # the header; each kept row follows as it is judged
        kept = read_lines(args.manifest, lambda lines: collections.Counter(manifest_rows(lines, keep_or_drop)))
    logger.info("kept %d of %d entries (%d dropped)", kept[True], kept.total(), kept[False])
    return 0


def cmd_augment(args, cfg: config_mod.PipelineConfig) -> int:
    if args.input.endswith(".tsv"):
        entries = read_lines(args.input, read_manifest)
        items = [(e.id, os.path.join(cfg.audio_root, e.audio)) for e in entries]
    else:
        stem = os.path.splitext(os.path.basename(args.input))[0]
        items = [(stem, args.input)]
    # read_manifest rejects duplicate ids; an id must also name a file
    # directly under --out
    for name, _ in items:
        if not is_plain_file_name(name):
            raise ValueError(f"{args.input}: id {name!r} is not a plain file name")

    # each clip is written as soon as it is made; only its parameters are kept
    log = []
    for name, path in items:
        clip = load_wav(path)
        # per-clip stream: a clip's draw does not depend on the others
        rng = random.Random(f"{cfg.seed}:{name}")
        params = sample_params(cfg.augment_policy, rng)
        clip = apply_augmentation(clip, params)
        write_wav(os.path.join(args.out, f"{name}.wav"), clip)
        log.append((name, params))
    with atomic_write(os.path.join(args.out, "augment_log.tsv")) as fh:
        for name, params in log:
            if params is None:
                fh.write(f"{name}\t0\t-\t-\t-\t-\n")
            else:
                fh.write(
                    f"{name}\t1\t{params.tempo:.6f}\t{params.pitch_cents:.6f}"
                    f"\t{params.echo_delay_ms:.6f}\t{params.echo_decay:.6f}\n"
                )
    logger.info("augmented %d of %d clips", sum(1 for _, p in log if p), len(log))
    return 0


def cmd_sample(args, cfg: config_mod.PipelineConfig) -> int:
    entries = read_lines(args.manifest, read_manifest)
    chosen = epoch_sample(entries, cfg.sampling, cfg.seed * EPOCH_SEED_STRIDE + args.epoch)
    with atomic_write(args.out) as fh:
        write_manifest(chosen, fh)
    logger.info("epoch %d: sampled %d of %d entries", args.epoch, len(chosen), len(entries))
    return 0


def cmd_batch(args, cfg: config_mod.PipelineConfig) -> int:
    entries = read_lines(args.input, read_manifest)
    usable = filter_lengths(entries, cfg.batch)
    if len(usable) < len(entries):
        logger.info("dropped %d over-length entries", len(entries) - len(usable))
    batches = build_batches(usable, cfg.batch)
    with atomic_write(args.out) as fh:
        for i, batch in enumerate(batches):
            row = {
                "index": i,
                "n_entries": len(batch),
                "total_samples": sum(e.n_samples for e in batch),
                "ids": [e.id for e in batch],
            }
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
    print(json.dumps(batch_stats(batches), sort_keys=True))
    return 0


def _bleu_line(result) -> str:
    p = "/".join(f"{100.0 * x:.1f}" for x in result.precisions)
    line = (
        f"BLEU = {result.score:.2f} {p} (bp = {result.brevity_penalty:.3f}, "
        f"hyp_len = {result.hyp_len}, ref_len = {result.ref_len})"
    )
    if result.empty_hyp:
        line += " [empty hypothesis]"
    return line


def _references(text: str) -> list[list[str]]:
    """13a tokens of each reference line; BLEU needs a word in at least one."""
    refs = [tokenize_13a(line) for line in split_lines(text)]
    if not any(refs):
        raise ValueError("line 1: no reference words")
    return refs


def cmd_score(args, cfg: config_mod.PipelineConfig) -> int:
    hyp_lines = split_lines(read_text(args.hyp))
    refs = read_text(args.ref, _references)
    if args.resegment:
        (groups,) = resegment_talks([(hyp_lines, refs)])
    else:
        if len(hyp_lines) != len(refs):
            raise ValueError(
                f"{args.hyp}: {len(hyp_lines)} hypothesis lines vs {len(refs)} references; "
                "use --resegment for unaligned output"
            )
        groups = [tokenize_13a(line) for line in hyp_lines]
    print(_bleu_line(corpus_bleu(groups, refs)))
    return 0


def _sweep_value(path: str) -> float:
    stem = os.path.splitext(os.path.basename(path))[0]
    tail = stem.rsplit("_", 1)[-1]
    try:
        value = float(tail)
    except ValueError:
        raise ValueError(f"{path}: cannot read a max_seg_len value from file name {stem!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{path}: max_seg_len {tail!r} in the file name is not a positive finite number")
    return value


def cmd_sweep_score(args, cfg: config_mod.PipelineConfig) -> int:
    refs = read_text(args.ref, _references)
    names = sorted(n for n in os.listdir(args.segdir) if n.endswith((".yaml", ".yml")))
    if not names:
        raise ValueError(f"no segmentation YAML files in {args.segdir}")
    by_value = {}
    for name in names:
        value = _sweep_value(os.path.join(args.segdir, name))
        if value in by_value:
            raise ValueError(f"{args.segdir}: {by_value[value]} and {name} both give max_seg_len {_cap_text(value)}")
        by_value[value] = name
    rows = []
    for value, name in sorted(by_value.items()):
        segments = read_text(os.path.join(args.segdir, name), parse_segments_yaml)
        trans_path = os.path.join(args.trans, os.path.splitext(name)[0] + ".txt")
        translations = split_lines(read_text(trans_path))
        if len(translations) != len(segments):
            raise ValueError(f"{trans_path}: {len(translations)} translations for {len(segments)} segments")
        result = score_segmentation(segments, translations, refs)
        rows.append((value, result.score))
    with atomic_write(args.out) as fh:
        for value, score in rows:
            fh.write(f"{_cap_text(value)}\t{score:.4f}\n")
    logger.info("scored %d segmentations", len(rows))
    return 0


def cmd_params_report(args, cfg: config_mod.PipelineConfig) -> int:
    from .coupling import build_reference_inventory, group_counts, lna_trainable_mask  # numpy: this command only

    inv = build_reference_inventory()
    if args.lna:
        inv = lna_trainable_mask(inv)
    groups = group_counts(inv)
    name_width = max(len(g) for g in groups)
    header = f"{'group':<{name_width}}  {'params':>12}"
    if args.lna:
        header += f"  {'trainable':>12}"
    print(header)
    for group, (total, trainable) in groups.items():
        line = f"{group:<{name_width}}  {total:>12,}"
        if args.lna:
            line += f"  {trainable:>12,}"
        print(line)
    print(f"total parameters: {inv.total_params():,}")
    if args.lna:
        print(f"trainable parameters: {inv.trainable_params():,}")
        print(f"trainable fraction: {inv.trainable_fraction():.4f}")
    return 0


def _config_flag(sub, name: str, key: str, metavar, help_text: str) -> None:
    """A flag whose dest is the config key it sets, with that key's type and arity."""
    kind = config_mod.KEYS[key][0]
    sub.add_argument(name, dest=key, type=kind.flag_type, nargs=kind.nargs, metavar=metavar, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stforge",
        description="Corpus engineering and evaluation for end-to-end speech translation.",
    )
    parser.add_argument("--config", default=None, help="configuration file (TOML)")
    _config_flag(parser, "--seed", "seeds.seed", "N", "seed controlling all randomness")
    # every stage runs on one thread; the benchmark's argv still passes
    # --jobs 1, and the flag goes once it stops
    parser.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    parser.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("segment", help="split audio at untranscribable periods")
    p.add_argument("--transcripts", required=True, help="frame-transcript JSONL")
    _config_flag(p, "--max-seg-len", "segmenter.max_seg_len", "SECONDS", "max segment seconds")
    _config_flag(p, "--min-gap", "segmenter.min_gap", "SECONDS", "min splittable gap seconds")
    p.add_argument("--out", required=True, help="segment YAML output")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("sweep", help="segment once per max_seg_len value")
    p.add_argument("--transcripts", required=True, help="frame-transcript JSONL")
    p.add_argument("--lo", type=float, default=5.0, help="first max_seg_len value")
    p.add_argument("--hi", type=float, default=25.0, help="last max_seg_len value")
    p.add_argument("--step", type=float, default=1.0, help="grid step")
    p.add_argument("--min-gap", type=float, default=None, metavar="SECONDS",
                   help="min splittable gap seconds (default: segmenter.min_gap)")
    p.add_argument("--out", required=True, help="TSV of (max_seg_len, segment count)")
    p.add_argument("--seg-dir", default=None, help="also write one segment YAML per value here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("filter", help="keep/drop training pairs")
    p.add_argument("--manifest", required=True, help="input manifest TSV")
    p.add_argument("--asr-hyps", required=True, help="TSV of id<TAB>ASR hypothesis")
    _config_flag(p, "--wer-threshold", "filter.wer_threshold", "WER", "drop pairs above this WER")
    _config_flag(p, "--max-samples", "filter.max_samples", "SAMPLES", "drop longer sources")
    p.add_argument("--out", required=True, help="kept-entries manifest TSV")
    p.add_argument("--report", required=True, help="TSV of id<TAB>drop reason")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("augment", help="tempo/pitch/echo augmentation")
    p.add_argument("--in", dest="input", required=True, help="WAV file or manifest TSV")
    _config_flag(p, "--p-aug", "augment.p_aug", "P", "per-clip augmentation probability")
    _config_flag(p, "--tempo", "augment.tempo", ("LO", "HI"), "tempo factor range")
    _config_flag(p, "--pitch", "augment.pitch_cents", ("LO", "HI"), "pitch shift range in cents")
    _config_flag(p, "--echo-delay", "augment.echo_delay_ms", ("LO", "HI"), "echo delay range in ms")
    _config_flag(p, "--echo-decay", "augment.echo_decay", ("LO", "HI"), "echo decay range")
    _config_flag(p, "--audio-root", "paths.audio_root", "DIR", "base dir for manifest audio paths")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("sample", help="draw one epoch with per-split ratios")
    p.add_argument("--manifest", required=True, help="input manifest TSV")
    p.add_argument("--epoch", type=int, default=0, help="epoch number (varies the draw)")
    p.add_argument("--out", required=True, help="epoch manifest TSV")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("batch", help="pack entries into size-capped batches")
    p.add_argument("--in", dest="input", required=True, help="epoch manifest TSV")
    _config_flag(p, "--max-batch", "batch.max_batch_samples", "SAMPLES", "summed-samples cap per batch")
    p.add_argument("--out", required=True, help="batches JSONL")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("score", help="corpus BLEU, optionally resegmenting first")
    p.add_argument("--hyp", required=True, help="hypothesis text, one segment per line")
    p.add_argument("--ref", required=True, help="reference text, one segment per line")
    p.add_argument("--resegment", action="store_true", help="realign hypothesis to references")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sweep-score", help="BLEU per swept segmentation")
    p.add_argument("--segdir", required=True, help="directory of *_<value>.yaml segmentations")
    p.add_argument("--trans", required=True, help="directory of matching .txt translations")
    p.add_argument("--ref", required=True, help="reference text, one segment per line")
    p.add_argument("--out", required=True, help="TSV of (max_seg_len, BLEU)")
    p.set_defaults(func=cmd_sweep_score)

    p = sub.add_parser("params-report", help="architecture parameter inventory")
    p.add_argument("--lna", action="store_true", help="mark the fine-tuned subset")
    p.set_defaults(func=cmd_params_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        flags = {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}
        cfg = config_mod.load_config(args.config, dict(os.environ), flags)
        return args.func(args, cfg)
    except Exception as exc:
        logger.error("%s", exc)
        if args.verbose:
            logger.exception("traceback")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Pipeline configuration: one key/value document for every constant.

The file is standard TOML, read by the standard library's ``tomllib``.
Environment variables prefixed ``STFORGE_`` override file values, and
command-line flags override both.
"""

from __future__ import annotations

import math
import tomllib
from dataclasses import dataclass, field

from .augment import AugmentPolicy
from .ioutil import read_text
from .sampler import BatchSpec, SamplingSpec
from .segmenter import SegmentationConfig
from .textfilter import FilterConfig

ENV_PREFIX = "STFORGE_"


class ConfigError(ValueError):
    """Malformed configuration text or unknown keys."""


def parse_config_text(text: str) -> dict:
    """Parse a TOML document into nested dicts.

    TOML rejects a key set twice, a key that would replace a table and a
    table declared twice, so a later line never silently replaces an
    earlier one. Errors name the line and column.
    """
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None


def _set(data: dict, section: str, key: str, value, source: str) -> None:
    table = data.setdefault(section, {})
    if not isinstance(table, dict):
        raise ConfigError(f"{source}: {section} is not a table")
    table[key] = value


def apply_env_overrides(data: dict, environ: dict) -> dict:
    """Fold STFORGE_<SECTION>_<KEY> variables into the config dict.

    The first underscore after the prefix splits section from key, so
    only top-level scalar keys are addressable this way. A value is the
    TOML value of the document ``v = <value>`` when that document holds
    just the key ``v``, and the raw string otherwise.
    """
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        section, _, key = rest.partition("_")
        if not section or not key:
            raise ConfigError(f"{name}: expected {ENV_PREFIX}<SECTION>_<KEY>")
        try:
            parsed = tomllib.loads(f"v = {raw}")
        except tomllib.TOMLDecodeError:
            parsed = {}
        value = parsed["v"] if parsed.keys() == {"v"} else raw
        _set(data, section.lower(), key.lower(), value, name)
    return data


@dataclass(frozen=True)
class PipelineConfig:
    """Typed view of the whole pipeline's knobs with their defaults."""

    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    augment_policy: AugmentPolicy = field(default_factory=AugmentPolicy)
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    batch: BatchSpec = field(default_factory=BatchSpec)
    audio_root: str = "."
    seed: int = 0


def _table(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a table, got {value!r}")
    return dict(value)


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a finite number, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _words(value, name: str) -> frozenset:
    if not isinstance(value, list) or not all(isinstance(w, str) for w in value):
        raise ConfigError(f"{name} must be an array of strings, got {value!r}")
    return frozenset(value)


def _pair(value, name: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be a 2-element array")
    return (_number(value[0], name), _number(value[1], name))


def _ratios(value, name: str) -> dict:
    return {str(k): _number(v, f"{name}.{k}") for k, v in _table(value, name).items()}


class _Section:
    """One table of the config dict; get() pops a key and checks its type."""

    def __init__(self, data: dict, name: str):
        self.name = name
        self.table = _table(data.pop(name, {}), name)

    def get(self, key: str, convert, default):
        if key not in self.table:
            return default
        return convert(self.table.pop(key), f"{self.name}.{key}")


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a PipelineConfig, defaulting every omitted key.

    Unknown sections or keys are errors: a typo must not silently fall
    back to a default. So is a value of the wrong type, named by its key.
    """
    data = dict(data)
    d = PipelineConfig()
    seg, flt, aug, smp, bat, paths, seeds = sections = [
        _Section(data, name) for name in ("segmenter", "filter", "augment", "sampler", "batch", "paths", "seeds")
    ]

    config = PipelineConfig(
        segmentation=SegmentationConfig(
            max_seg_len=seg.get("max_seg_len", _number, d.segmentation.max_seg_len),
            min_gap=seg.get("min_gap", _number, d.segmentation.min_gap),
        ),
        filter=FilterConfig(
            event_lexicon=flt.get("event_lexicon", _words, d.filter.event_lexicon),
            wer_threshold=flt.get("wer_threshold", _number, d.filter.wer_threshold),
            max_samples=flt.get("max_samples", _integer, d.filter.max_samples),
        ),
        augment_policy=AugmentPolicy(
            p_aug=aug.get("p_aug", _number, d.augment_policy.p_aug),
            tempo_range=aug.get("tempo", _pair, d.augment_policy.tempo_range),
            pitch_range_cents=aug.get("pitch_cents", _pair, d.augment_policy.pitch_range_cents),
            echo_delay_ms_range=aug.get("echo_delay_ms", _pair, d.augment_policy.echo_delay_ms_range),
            echo_decay_range=aug.get("echo_decay", _pair, d.augment_policy.echo_decay_range),
        ),
        sampling=SamplingSpec(smp.get("ratios", _ratios, d.sampling.ratios)),
        batch=BatchSpec(
            max_batch_samples=bat.get("max_batch_samples", _integer, d.batch.max_batch_samples),
            max_src_samples=bat.get("max_src_samples", _integer, d.batch.max_src_samples),
            max_tgt_tokens=bat.get("max_tgt_tokens", _integer, d.batch.max_tgt_tokens),
        ),
        audio_root=paths.get("audio_root", _string, d.audio_root),
        seed=seeds.get("seed", _integer, d.seed),
    )

    leftovers = [f"{section.name}.{k}" for section in sections for k in section.table]
    leftovers.extend(str(k) for k in data)
    if leftovers:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(leftovers))}")
    return config


def load_config(path=None, environ: dict | None = None, flags: dict | None = None) -> PipelineConfig:
    """Merge defaults, the config file, env overrides and flags; return typed config.

    ``flags`` maps ``section.key`` to a command-line value; it is the last
    layer, so flags override env, which overrides the file.
    """
    data: dict = {}
    if path is not None:
        try:
            data = read_text(path, parse_config_text)
        except ValueError as exc:  # read_text has put the path first
            raise ConfigError(str(exc)) from None
    if environ:
        apply_env_overrides(data, environ)
    for dest, value in (flags or {}).items():
        section, _, key = dest.partition(".")
        _set(data, section, key, value, dest)
    return config_from_dict(data)

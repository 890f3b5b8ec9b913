"""Pipeline configuration: one key/value document for every constant.

The file is standard TOML, read by the standard library's ``tomllib``,
which is imported only when a file or an ``STFORGE_*`` value is parsed.
Environment variables prefixed ``STFORGE_`` override file values, and
command-line flags override both.
"""

from __future__ import annotations

import collections
import math

from .augment import AugmentPolicy
from .ioutil import read_text, record
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
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from None


def _set(data: dict, section: str, key: str, value, source: str) -> None:
    table = data.setdefault(section, {})
    if not isinstance(table, dict):
        raise ConfigError(f"{source}: {section} is not a table")
    table[key] = value


# each PipelineConfig field that holds a spec, and the spec's type
_SPECS = {"segmentation": SegmentationConfig, "filter": FilterConfig, "augment_policy": AugmentPolicy,
         "sampling": SamplingSpec, "batch": BatchSpec}


class PipelineConfig(record("PipelineConfig", (*_SPECS, "audio_root", "seed"))):
    """Typed view of the whole pipeline's knobs with their defaults; a spec left out is built afresh."""

    __slots__ = ()

    def __new__(cls, segmentation=None, filter=None, augment_policy=None, sampling=None, batch=None,
                audio_root=".", seed=0):
        given = (segmentation, filter, augment_policy, sampling, batch)
        specs = [make() if spec is None else spec for spec, make in zip(given, _SPECS.values())]
        return tuple.__new__(cls, (*specs, audio_root, seed))


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


# a key's kind: check(value, "section.key") gives the typed value or raises ConfigError;
# a flag that sets the key parses with flag_type (None: its text as it is) and takes nargs values
_Kind = collections.namedtuple("_Kind", "check flag_type nargs", defaults=(None, None))

_NUMBER, _INTEGER, _STRING = _Kind(_number, float), _Kind(_integer, int), _Kind(_string)
_RANGE, _WORDS, _RATIOS = _Kind(_pair, float, 2), _Kind(_words), _Kind(_ratios)

# every config key: its kind, and the PipelineConfig field (field.sub-field) it sets
KEYS = {
    "segmenter.max_seg_len": (_NUMBER, "segmentation.max_seg_len"),
    "segmenter.min_gap": (_NUMBER, "segmentation.min_gap"),
    "filter.event_lexicon": (_WORDS, "filter.event_lexicon"),
    "filter.wer_threshold": (_NUMBER, "filter.wer_threshold"),
    "filter.max_samples": (_INTEGER, "filter.max_samples"),
    "augment.p_aug": (_NUMBER, "augment_policy.p_aug"),
    "augment.tempo": (_RANGE, "augment_policy.tempo_range"),
    "augment.pitch_cents": (_RANGE, "augment_policy.pitch_range_cents"),
    "augment.echo_delay_ms": (_RANGE, "augment_policy.echo_delay_ms_range"),
    "augment.echo_decay": (_RANGE, "augment_policy.echo_decay_range"),
    "sampler.ratios": (_RATIOS, "sampling.ratios"),
    "batch.max_batch_samples": (_INTEGER, "batch.max_batch_samples"),
    "batch.max_src_samples": (_INTEGER, "batch.max_src_samples"),
    "batch.max_tgt_tokens": (_INTEGER, "batch.max_tgt_tokens"),
    "paths.audio_root": (_STRING, "audio_root"),
    "seeds.seed": (_INTEGER, "seed"),
}


def apply_env_overrides(data: dict, environ: dict) -> dict:
    """Fold STFORGE_<SECTION>_<KEY> variables into the config dict.

    The first underscore after the prefix splits section from key, so
    only top-level scalar keys are addressable this way. A string key's
    value is the variable's text as it is. Any other value is the TOML
    value of the document ``v = <value>`` when that document holds just
    the key ``v``, and the raw string otherwise.
    """
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        section, _, key = name[len(ENV_PREFIX):].lower().partition("_")
        if not section or not key:
            raise ConfigError(f"{name}: expected {ENV_PREFIX}<SECTION>_<KEY>")
        value = raw
        if KEYS.get(f"{section}.{key}", (None,))[0] is not _STRING:
            import tomllib

            try:
                parsed = tomllib.loads(f"v = {raw}")
            except tomllib.TOMLDecodeError:
                parsed = {}
            value = parsed["v"] if parsed.keys() == {"v"} else raw
        _set(data, section, key, value, name)
    return data


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a PipelineConfig, defaulting every omitted key.

    Unknown sections or keys are errors: a typo must not silently fall
    back to a default. So is a value of the wrong type, named by its key.
    """
    sections = dict.fromkeys(name.partition(".")[0] for name in KEYS)
    tables = {section: _table(data[section], section) for section in sections if section in data}
    changes: dict = {}  # PipelineConfig field ("" for PipelineConfig itself) -> {its field: value}
    for name, (kind, target) in KEYS.items():
        section, _, key = name.partition(".")
        if key in tables.get(section, {}):
            owner, _, attr = target.rpartition(".")
            changes.setdefault(owner, {})[attr] = kind.check(tables[section].pop(key), name)
    fields = changes.pop("", {})
    for owner, values in changes.items():
        fields[owner] = _SPECS[owner](**values)
    config = PipelineConfig(**fields)

    leftovers = [f"{section}.{k}" for section, table in tables.items() for k in table]
    leftovers.extend(str(k) for k in data if k not in tables)
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

"""Pipeline configuration: one key/value document for every constant.

The file format is a small TOML subset: ``[dotted.section]`` headers,
``key = value`` lines with string/number/boolean/array values, and ``#``
comments. Environment variables prefixed ``STFORGE_`` override file
values, and command-line flags override both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .augment import AugmentPolicy
from .sampler import BatchSpec, SamplingSpec
from .segmenter import SegmentationConfig
from .textfilter import FilterConfig

ENV_PREFIX = "STFORGE_"

_BARE_KEY_RE = re.compile(r"[A-Za-z0-9_-]+")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.\d*([eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+([eE][+-]?\d+)?|\d+)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


class ConfigError(ValueError):
    """Malformed configuration text or unknown keys."""


def _parse_string(text: str, pos: int, lineno: int):
    # pos points at the opening quote
    out = []
    i = pos + 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _ESCAPES:
                raise ConfigError(f"line {lineno}: bad escape in string")
            out.append(_ESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    raise ConfigError(f"line {lineno}: unterminated string")


def _parse_value(text: str, pos: int, lineno: int):
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    if pos >= len(text):
        raise ConfigError(f"line {lineno}: missing value")
    ch = text[pos]
    if ch == '"':
        return _parse_string(text, pos, lineno)
    if ch == "[":
        items = []
        pos += 1
        while True:
            while pos < len(text) and text[pos] in " \t":
                pos += 1
            if pos >= len(text):
                raise ConfigError(f"line {lineno}: unterminated array")
            if text[pos] == "]":
                return items, pos + 1
            value, pos = _parse_value(text, pos, lineno)
            items.append(value)
            while pos < len(text) and text[pos] in " \t":
                pos += 1
            if pos < len(text) and text[pos] == ",":
                pos += 1
    if text.startswith("true", pos):
        return True, pos + 4
    if text.startswith("false", pos):
        return False, pos + 5
    m = _NUMBER_RE.match(text, pos)
    if m:
        token = m.group()
        value = int(token) if re.fullmatch(r"[+-]?\d+", token) else float(token)
        return value, m.end()
    raise ConfigError(f"line {lineno}: cannot parse value at {text[pos:pos + 20]!r}")


def _parse_key(text: str, pos: int, lineno: int):
    if text[pos] == '"':
        return _parse_string(text, pos, lineno)
    m = _BARE_KEY_RE.match(text, pos)
    if not m:
        raise ConfigError(f"line {lineno}: bad key at {text[pos:pos + 20]!r}")
    return m.group(), m.end()


def parse_config_text(text: str) -> dict:
    """Parse the TOML-subset document into nested dicts.

    A key defined twice in one table is an error, even across reopened
    section headers: a later line must not silently replace an earlier one.
    """
    root: dict = {}
    section = root
    path: tuple = ()
    first_line: dict = {}  # (section path..., key) -> line that defined it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            section, path = root, ()
            for part in line[1:-1].strip().split("."):
                part = part.strip()
                if not _BARE_KEY_RE.fullmatch(part):
                    raise ConfigError(f"line {lineno}: bad section name {part!r}")
                path += (part,)
                first_line.setdefault(path, lineno)
                section = section.setdefault(part, {})
                if not isinstance(section, dict):
                    raise ConfigError(f"line {lineno}: section {part!r} collides with a value")
            continue
        key, pos = _parse_key(line, 0, lineno)
        while pos < len(line) and line[pos] in " \t":
            pos += 1
        if pos >= len(line) or line[pos] != "=":
            raise ConfigError(f"line {lineno}: expected '=' after key {key!r}")
        value, pos = _parse_value(line, pos + 1, lineno)
        rest = line[pos:].strip()
        if rest and not rest.startswith("#"):
            raise ConfigError(f"line {lineno}: trailing junk {rest!r}")
        if key in section:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {first_line[path + (key,)]})")
        first_line[path + (key,)] = lineno
        section[key] = value
    return root


def _set(data: dict, section: str, key: str, value, source: str) -> None:
    table = data.setdefault(section, {})
    if not isinstance(table, dict):
        raise ConfigError(f"{source}: {section} is not a table")
    table[key] = value


def apply_env_overrides(data: dict, environ: dict) -> dict:
    """Fold STFORGE_<SECTION>_<KEY> variables into the config dict.

    The first underscore after the prefix splits section from key, so
    only top-level scalar keys are addressable this way.
    """
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        section, _, key = rest.partition("_")
        if not section or not key:
            raise ConfigError(f"{name}: expected {ENV_PREFIX}<SECTION>_<KEY>")
        try:
            value, pos = _parse_value(raw, 0, 0)
            if raw[pos:].strip():
                value = raw
        except ConfigError:
            value = raw
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
    return float(value)


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
        with open(path, encoding="utf-8") as fh:
            data = parse_config_text(fh.read())
    if environ:
        apply_env_overrides(data, environ)
    for dest, value in (flags or {}).items():
        section, _, key = dest.partition(".")
        _set(data, section, key, value, dest)
    return config_from_dict(data)

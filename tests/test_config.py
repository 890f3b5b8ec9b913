"""Config file parsing, environment overrides, and typed defaults."""

import argparse
import math
import pathlib
import re

import pytest

from stforge.cli import build_parser
from stforge.config import (
    KEYS,
    ConfigError,
    PipelineConfig,
    apply_env_overrides,
    config_from_dict,
    load_config,
    parse_config_text,
)
from stforge.sampler import DEFAULT_RATIOS
from stforge.textfilter import DEFAULT_EVENT_LEXICON


class TestParseConfigText:
    def test_sections_and_scalars(self):
        data = parse_config_text(
            "[segmenter]\n"
            "max_seg_len = 12.5\n"
            "min_gap = 0.2\n"
            "\n"
            "[batch]\n"
            "max_batch_samples = 440000\n"
        )
        assert data == {
            "segmenter": {"max_seg_len": 12.5, "min_gap": 0.2},
            "batch": {"max_batch_samples": 440000},
        }

    def test_value_types(self):
        data = parse_config_text(
            "[x]\n"
            "an_int = -3\n"
            "a_float = 2.5e-1\n"
            "yes = true\n"
            "no = false\n"
            's = "hi there"\n'
            "arr = [0.85, 1.3]\n"
        )
        x = data["x"]
        assert x["an_int"] == -3 and isinstance(x["an_int"], int)
        assert x["a_float"] == 0.25
        assert x["yes"] is True and x["no"] is False
        assert x["s"] == "hi there"
        assert x["arr"] == [0.85, 1.3]

    def test_dotted_section_nests(self):
        data = parse_config_text("[sampler.ratios]\nMuST-C-train = 1.0\n")
        assert data == {"sampler": {"ratios": {"MuST-C-train": 1.0}}}

    def test_quoted_keys_and_escapes(self):
        data = parse_config_text('[x]\n"a key" = "tab\\there \\"quoted\\" \\\\ \\n"\n')
        assert data["x"]["a key"] == 'tab\there "quoted" \\ \n'

    def test_comments_and_blank_lines(self):
        data = parse_config_text(
            "# leading comment\n"
            "\n"
            "[seeds]\n"
            "seed = 7  # trailing comment\n"
        )
        assert data == {"seeds": {"seed": 7}}

    def test_top_level_keys_allowed(self):
        assert parse_config_text("k = 1\n") == {"k": 1}

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[x]\nkey 12\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("[x\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[x]\na = 1\nb = @@\n")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[x]\na = 1 extra\n")

    def test_unterminated_string(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text('[x]\na = "oops\n')

    def test_bad_escape(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text('[x]\na = "\\q"\n')

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"Cannot overwrite a value \(at line 3"):
            parse_config_text("[x]\na = 1\na = 2\n")

    def test_duplicate_key_across_reopened_section(self):
        with pytest.raises(ConfigError, match=r"Cannot declare \('x',\) twice \(at line 4"):
            parse_config_text("[x]\na = 1\n[y]\n[x]\na = 2\n")

    def test_key_replacing_section_rejected(self):
        with pytest.raises(ConfigError, match=r"Cannot overwrite a value \(at line 4"):
            parse_config_text("[sampler.ratios]\nA = 1.0\n[sampler]\nratios = 5\n")

    def test_same_key_in_different_tables_allowed(self):
        assert parse_config_text("[x]\na = 1\n[y]\na = 2\n") == {"x": {"a": 1}, "y": {"a": 2}}

    def test_standard_toml_forms(self):
        data = parse_config_text("[x]\nlit = 'C:\\wavs'\nhex = 0xff\nbig = 1_000\nt = { a = 1 }\n")
        assert data == {"x": {"lit": "C:\\wavs", "hex": 255, "big": 1000, "t": {"a": 1}}}


class TestEnvOverrides:
    def test_typed_override(self):
        data = apply_env_overrides({}, {"STFORGE_SEGMENTER_MAX_SEG_LEN": "12.5"})
        assert data == {"segmenter": {"max_seg_len": 12.5}}

    def test_merges_into_existing_section(self):
        data = {"segmenter": {"min_gap": 0.3}}
        apply_env_overrides(data, {"STFORGE_SEGMENTER_MAX_SEG_LEN": "9"})
        assert data["segmenter"] == {"min_gap": 0.3, "max_seg_len": 9}

    def test_unprefixed_names_ignored(self):
        assert apply_env_overrides({}, {"PATH": "/bin", "HOME": "/root"}) == {}

    def test_unparseable_value_stays_string(self):
        data = apply_env_overrides({}, {"STFORGE_PATHS_AUDIO_ROOT": "/data/wavs"})
        assert data["paths"]["audio_root"] == "/data/wavs"

    @pytest.mark.parametrize("text", ["2024", "true", "1e3", "2024-01-01", '"wavs"'])
    def test_string_key_takes_the_text_as_it_is(self, text):
        # read as TOML, these were an int, a bool, a float, a date and a string without its quotes
        assert load_config(None, {"STFORGE_PATHS_AUDIO_ROOT": text}).audio_root == text

    def test_malformed_name_rejected(self):
        with pytest.raises(ConfigError):
            apply_env_overrides({}, {"STFORGE_SEED": "1"})


class TestConfigFromDict:
    def test_empty_gives_documented_defaults(self):
        cfg = config_from_dict({})
        assert cfg.segmentation.max_seg_len == 22.0
        assert cfg.segmentation.min_gap == 0.2
        assert cfg.filter.wer_threshold == 0.5
        assert cfg.filter.max_samples == 400_000
        assert cfg.filter.event_lexicon == DEFAULT_EVENT_LEXICON
        assert cfg.augment_policy.p_aug == 0.8
        assert cfg.augment_policy.tempo_range == (0.85, 1.3)
        assert cfg.sampling.ratios == DEFAULT_RATIOS
        assert cfg.batch.max_batch_samples == 440_000
        assert cfg.batch.max_src_samples == 400_000
        assert cfg.batch.max_tgt_tokens == 1024
        assert cfg.seed == 0
        assert cfg.audio_root == "."

    def test_partial_section_keeps_other_defaults(self):
        cfg = config_from_dict({"filter": {"wer_threshold": 0.3}})
        assert cfg.filter.wer_threshold == 0.3
        assert cfg.filter.max_samples == 400_000

    def test_event_lexicon_replaces_default(self):
        cfg = config_from_dict({"filter": {"event_lexicon": ["Lachen", "Husten"]}})
        assert cfg.filter.event_lexicon == frozenset({"Lachen", "Husten"})

    def test_sampler_ratios_replace_whole_table(self):
        cfg = config_from_dict({"sampler": {"ratios": {"MyCorpus": 0.5}}})
        assert cfg.sampling.ratios == {"MyCorpus": 0.5}

    def test_augment_ranges_from_arrays(self):
        cfg = config_from_dict({"augment": {"tempo": [0.9, 1.1], "p_aug": 0.5}})
        assert cfg.augment_policy.tempo_range == (0.9, 1.1)
        assert cfg.augment_policy.p_aug == 0.5
        assert cfg.augment_policy.pitch_range_cents == (-300.0, 300.0)

    def test_bad_range_shape(self):
        with pytest.raises(ConfigError, match="2-element"):
            config_from_dict({"augment": {"tempo": [0.9]}})

    def test_unknown_keys_are_errors(self):
        with pytest.raises(ConfigError, match="unknown config keys: filter.events"):
            config_from_dict({"filter": {"events": ["x"]}})
        with pytest.raises(ConfigError, match="segmenter.max_len"):
            config_from_dict({"segmenter": {"max_len": 5}})
        with pytest.raises(ConfigError, match="typo_section"):
            config_from_dict({"typo_section": {"a": 1}})

    def test_input_dict_not_mutated(self):
        data = {"filter": {"wer_threshold": 0.4}}
        config_from_dict(data)
        assert data == {"filter": {"wer_threshold": 0.4}}

    def test_invalid_values_surface_dataclass_errors(self):
        with pytest.raises(ValueError):
            config_from_dict({"segmenter": {"max_seg_len": 0.1, "min_gap": 0.2}})


class TestLoadConfig:
    def test_file_plus_env_precedence(self, tmp_path):
        path = tmp_path / "st.toml"
        path.write_text(
            "[segmenter]\nmax_seg_len = 10\n[seeds]\nseed = 3\n", encoding="utf-8"
        )
        cfg = load_config(path, {"STFORGE_SEGMENTER_MAX_SEG_LEN": "15"})
        assert cfg.segmentation.max_seg_len == 15.0
        assert cfg.seed == 3

    def test_no_file_no_env(self):
        assert load_config() == PipelineConfig()

    def test_env_only(self):
        cfg = load_config(None, {"STFORGE_BATCH_MAX_TGT_TOKENS": "2048"})
        assert cfg.batch.max_tgt_tokens == 2048

    def test_flags_are_the_last_layer(self, tmp_path):
        path = tmp_path / "st.toml"
        path.write_text("[segmenter]\nmax_seg_len = 10\nmin_gap = 0.5\n", encoding="utf-8")
        cfg = load_config(
            path, {"STFORGE_SEGMENTER_MAX_SEG_LEN": "15"}, {"segmenter.max_seg_len": 8.0, "seeds.seed": 4}
        )
        assert cfg.segmentation.max_seg_len == 8.0
        assert cfg.segmentation.min_gap == 0.5
        assert cfg.seed == 4

    def test_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("[x]\na = 1\na = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: Cannot overwrite a value (at line 3")):
            load_config(path)

    def test_flags_get_the_file_checks(self):
        with pytest.raises(ConfigError, match="unknown config keys: segmenter.max_len"):
            load_config(None, None, {"segmenter.max_len": 8.0})
        with pytest.raises(ValueError, match="max_seg_len > min_gap"):
            load_config(None, None, {"segmenter.max_seg_len": 0.1})


def _from_file(tmp_path, text):
    path = tmp_path / "st.toml"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


class TestWrongValueTypes:
    """Each wrong type is an error naming its key, from the file and from the env."""

    def test_event_lexicon_string(self, tmp_path):
        with pytest.raises(ConfigError, match="filter.event_lexicon must be an array of strings"):
            _from_file(tmp_path, '[filter]\nevent_lexicon = "Applaus"\n')
        with pytest.raises(ConfigError, match="filter.event_lexicon must be an array of strings"):
            load_config(None, {"STFORGE_FILTER_EVENT_LEXICON": "Applaus"})

    def test_event_lexicon_array_from_env(self):
        cfg = load_config(None, {"STFORGE_FILTER_EVENT_LEXICON": '["Applaus"]'})
        assert cfg.filter.event_lexicon == frozenset({"Applaus"})

    def test_scalar_section(self, tmp_path):
        with pytest.raises(ConfigError, match="segmenter must be a table"):
            _from_file(tmp_path, "segmenter = 5\n")
        with pytest.raises(ConfigError, match="STFORGE_SEGMENTER_MAX_SEG_LEN: segmenter is not a table"):
            load_config(tmp_path / "st.toml", {"STFORGE_SEGMENTER_MAX_SEG_LEN": "9"})

    def test_scalar_ratios(self, tmp_path):
        with pytest.raises(ConfigError, match="sampler.ratios must be a table"):
            _from_file(tmp_path, "[sampler]\nratios = 5\n")
        with pytest.raises(ConfigError, match="sampler.ratios must be a table"):
            load_config(None, {"STFORGE_SAMPLER_RATIOS": "5"})

    def test_ratio_value_not_a_number(self, tmp_path):
        with pytest.raises(ConfigError, match="sampler.ratios.A must be a number"):
            _from_file(tmp_path, '[sampler.ratios]\nA = "half"\n')

    def test_boolean_number(self, tmp_path):
        with pytest.raises(ConfigError, match="segmenter.max_seg_len must be a number, got True"):
            _from_file(tmp_path, "[segmenter]\nmax_seg_len = true\n")
        with pytest.raises(ConfigError, match="segmenter.max_seg_len must be a number, got True"):
            load_config(None, {"STFORGE_SEGMENTER_MAX_SEG_LEN": "true"})

    def test_integer_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="batch.max_tgt_tokens must be an integer, got 2.5"):
            _from_file(tmp_path, "[batch]\nmax_tgt_tokens = 2.5\n")
        with pytest.raises(ConfigError, match="seeds.seed must be an integer, got 'abc'"):
            load_config(None, {"STFORGE_SEEDS_SEED": "abc"})

    def test_string_key(self, tmp_path):
        with pytest.raises(ConfigError, match="paths.audio_root must be a string"):
            _from_file(tmp_path, "[paths]\naudio_root = [1]\n")

    def test_range_element(self, tmp_path):
        with pytest.raises(ConfigError, match="augment.tempo must be a number"):
            _from_file(tmp_path, '[augment]\ntempo = [0.9, "fast"]\n')

    def test_non_finite_numbers(self, tmp_path):
        with pytest.raises(ConfigError, match="filter.wer_threshold must be a finite number, got nan"):
            load_config(None, None, {"filter.wer_threshold": math.nan})
        with pytest.raises(ConfigError, match="filter.wer_threshold must be a finite number, got nan"):
            _from_file(tmp_path, "[filter]\nwer_threshold = nan\n")
        with pytest.raises(ConfigError, match="segmenter.max_seg_len must be a finite number, got inf"):
            load_config(None, {"STFORGE_SEGMENTER_MAX_SEG_LEN": "inf"})
        with pytest.raises(ConfigError, match="augment.tempo must be a finite number, got -inf"):
            _from_file(tmp_path, "[augment]\ntempo = [-inf, 1.3]\n")

    def test_integer_too_large_for_a_float(self):
        message = "must be a finite number, got an integer too large for a float"
        with pytest.raises(ConfigError, match=f"filter.wer_threshold {message}"):
            load_config(None, {"STFORGE_FILTER_WER_THRESHOLD": "1" + "0" * 400})
        with pytest.raises(ConfigError, match=f"segmenter.max_seg_len {message}"):
            load_config(None, None, {"segmenter.max_seg_len": 10**400})

    def test_output_dir_is_gone(self):
        with pytest.raises(ConfigError, match="unknown config keys: paths.output_dir"):
            config_from_dict({"paths": {"output_dir": "out"}})


# a value other than the default for every key, as TOML text
KEY_SAMPLES = {
    "segmenter.max_seg_len": "12.5",
    "segmenter.min_gap": "0.5",
    "filter.event_lexicon": '["Lachen", "Husten"]',
    "filter.wer_threshold": "0.3",
    "filter.max_samples": "300000",
    "augment.p_aug": "0.5",
    "augment.tempo": "[0.9, 1.1]",
    "augment.pitch_cents": "[-100, 200]",
    "augment.echo_delay_ms": "[10, 50]",
    "augment.echo_decay": "[0.1, 0.3]",
    "sampler.ratios": "{ MuST-C-train = 0.5 }",
    "batch.max_batch_samples": "500000",
    "batch.max_src_samples": "300000",
    "batch.max_tgt_tokens": "2048",
    "paths.audio_root": '"2024"',
    "seeds.seed": "7",
}
# the arguments each subcommand with a config flag requires
REQUIRED_ARGS = {
    "segment": ["--transcripts", "t", "--out", "o"],
    "filter": ["--manifest", "m", "--asr-hyps", "h", "--out", "o", "--report", "r"],
    "augment": ["--in", "i", "--out", "o"],
    "batch": ["--in", "i", "--out", "o"],
}


def _config_flag_argv():
    """{config key: argv before and after its flag's values} for every flag whose dest is a config key."""
    parser = build_parser()
    argv = {a.dest: ([a.option_strings[-1]], ["params-report"]) for a in parser._actions if "." in a.dest}
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command, sub in commands.items():
        for a in sub._actions:
            if "." in a.dest:
                argv[a.dest] = ([command, *REQUIRED_ARGS[command], a.option_strings[-1]], [])
    return argv


def test_every_key_reads_alike_from_file_env_and_flag(tmp_path):
    assert KEY_SAMPLES.keys() == KEYS.keys()
    flag_argv = _config_flag_argv()
    assert len(flag_argv) == 12 and flag_argv.keys() <= KEYS.keys()
    for name, text in KEY_SAMPLES.items():
        section, key = name.split(".")
        value = parse_config_text(f"v = {text}")["v"]
        by_file = _from_file(tmp_path, f"[{section}]\n{key} = {text}\n")
        assert by_file != PipelineConfig(), name
        env_text = value if isinstance(value, str) else text
        assert load_config(None, {f"STFORGE_{section}_{key}".upper(): env_text}) == by_file, name
        if name in flag_argv:
            before, after = flag_argv[name]
            values = value if isinstance(value, list) else [value]
            args = build_parser().parse_args(before + [str(v) for v in values] + after)
            flags = {dest: v for dest, v in vars(args).items() if "." in dest and v is not None}
            assert load_config(None, None, flags) == by_file, name


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_loads(tmp_path):
    """The README's example config is a valid file and reads as documented."""
    block = re.search(r"```toml\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    cfg = _from_file(tmp_path, block)
    assert cfg.segmentation.max_seg_len == 22.0
    assert cfg.filter.event_lexicon == frozenset({"Gelächter", "Applaus", "Musik", "Video", "Beifall"})
    assert cfg.augment_policy.pitch_range_cents == (-300.0, 300.0)
    assert cfg.sampling.ratios == {"MuST-C-train": 1.0, "CoVoST-train": 0.3}
    assert cfg.batch.max_tgt_tokens == 1024
    assert cfg.audio_root == "."

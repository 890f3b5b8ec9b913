"""stforge: corpus engineering and evaluation toolkit for end-to-end speech translation.

The package covers the data side of a speech translation system: ASR-driven
audio segmentation, transcript filtering, waveform augmentation, epoch
sampling and batch packing, resegmentation-based BLEU scoring, and numeric
reference implementations of the encoder-decoder coupling modules and the
fine-tuning parameter selection.

The names below are re-exported lazily (PEP 562): ``import stforge`` loads
no submodule, and ``stforge.X`` imports the module that defines X on first
use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "audio": ("AudioClip", "extract_segment", "load_wav", "normalize_zero_mean_unit_var", "resample",
              "write_wav"),
    "augment": ("AugmentPolicy", "EffectParams", "apply_augmentation", "echo", "pitch", "sample_params",
                "tempo"),
    "config": ("ConfigError", "PipelineConfig", "load_config", "parse_config_text"),
    "coupling": ("AdapterParams", "LengthAdaptorParams", "ParamEntry", "ParamInventory", "TriStageConfig",
                 "adapter_backward", "adapter_forward", "adapter_param_count", "average_checkpoints",
                 "build_reference_inventory", "feature_mask", "group_counts", "label_smoothed_ce",
                 "length_adaptor_forward", "length_adaptor_output_length", "lna_trainable_mask",
                 "read_checkpoint", "tri_stage_lr", "write_checkpoint"),
    "evalign": ("BleuScore", "corpus_bleu", "resegment_mwer", "score_segmentation", "tokenize_13a"),
    "sampler": ("BatchSpec", "ManifestEntry", "SamplingSpec", "batch_stats", "build_batches", "epoch_sample",
                "filter_lengths", "read_manifest", "write_manifest"),
    "segmenter": ("FrameTranscript", "Gap", "Segment", "SegmentationConfig", "find_gaps", "is_transcribable",
                  "parse_frame_transcript", "parse_segments_yaml", "split_recursive", "sweep_max_seg_len",
                  "write_segments_yaml"),
    "textfilter": ("FilterConfig", "FilterDecision", "TranscriptPair", "clean_target", "filter_pair",
                   "normalize_for_asr", "number_to_words", "remove_events", "strip_speaker_prefix",
                   "word_error_rate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

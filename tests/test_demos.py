"""Smoke tests: the command line runs end to end in a fresh interpreter."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from stforge.sampler import MANIFEST_COLUMNS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args, cwd=None):
    # the command's flags, not stray STFORGE_* settings, must decide its config
    env = {k: v for k, v in os.environ.items() if not k.startswith("STFORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
                          cwd=cwd)


def test_cli_pipeline_demo_exits_0():
    proc = _run(str(ROOT / "demos" / "08_cli_pipeline.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_python_m_stforge_cli_runs_the_cli():
    proc = _run("-m", "stforge.cli", "params-report")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "total parameters: 791,888,384" in proc.stdout


def test_cli_import_does_not_load_scipy():
    # every command pays the CLI's import time, and none of them needs scipy
    proc = _run("-c", "import stforge.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_does_not_load_numpy():
    # stforge re-exports lazily: the package alone imports none of its modules
    proc = _run("-c", "import stforge, sys; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'stforge')))")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "['stforge']"


# Every command starts in a fresh process, and numpy alone was about a third
# of its set-up; audio and augment import it in the functions that use it,
# evalign not at all, and stforge.coupling loads for params-report only.
# Records are named tuples, so dataclasses, and the inspect it imports, stay
# unloaded too: together they were about a sixth of the rest.
_LOADED = ("; import sys; print(sorted(m for m in sys.modules"
           " if m.split('.')[0] in ('numpy', 'tomllib', 'dataclasses', 'inspect') or m.startswith('stforge.')))")


def _loaded_after(code, cwd=None):
    """The numpy, tomllib, dataclasses, inspect and stforge.* modules loaded after code runs in a fresh interpreter."""
    proc = _run("-c", code + _LOADED, cwd=cwd)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_cli_start_up_loads_no_numpy():
    # the benchmark's tracer reads each stage module from sys.modules, so cli still imports them all;
    # no numpy, dataclasses or inspect is among them
    loaded = _loaded_after("from stforge import cli, config; cli.build_parser(); config.load_config(None, {})")
    assert loaded == [f"stforge.{m}" for m in ("audio", "augment", "cli", "config", "evalign", "ioutil", "sampler",
                                               "segmenter", "textfilter")]


@pytest.mark.parametrize("module", ["config", "audio", "augment", "evalign", "segmenter", "textfilter", "sampler"])
def test_import_does_not_load_numpy(module):
    loaded = _loaded_after(f"import stforge.{module}")
    assert "numpy" not in loaded and "tomllib" not in loaded and "stforge.coupling" not in loaded, loaded
    assert "dataclasses" not in loaded, loaded


def test_coupling_import_does_not_load_dataclasses():
    # numpy itself loads inspect, so only dataclasses is asserted here
    assert "dataclasses" not in _loaded_after("import stforge.coupling")


def test_text_stages_run_without_numpy(tmp_path):
    # segment, filter, sample and batch never touch audio samples
    frames = json.dumps({"audio": "a.wav", "frame_ms": 100, "tokens": ["ja"] * 60 + [""] * 12 + ["ja"] * 60})
    (tmp_path / "frames.jsonl").write_text(frames + "\n", encoding="utf-8")
    rows = [("m0", "m0.wav", "16000", "3", "MuST-C-train", "Guten Morgen", "Good morning"),
            ("m1", "m1.wav", "24000", "4", "MuST-C-train", "Das ist ein Test", "This is a test")]
    (tmp_path / "manifest.tsv").write_text(
        "".join("\t".join(row) + "\n" for row in [MANIFEST_COLUMNS, *rows]), encoding="utf-8")
    (tmp_path / "hyps.tsv").write_text("m0\tguten morgen\nm1\tdas ist ein test\n", encoding="utf-8")
    stages = [["segment", "--transcripts", "frames.jsonl", "--out", "segs.yaml"],
              ["filter", "--manifest", "manifest.tsv", "--asr-hyps", "hyps.tsv", "--out", "kept.tsv",
               "--report", "report.tsv"],
              ["sample", "--manifest", "kept.tsv", "--out", "epoch.tsv"],
              ["batch", "--in", "epoch.tsv", "--out", "batches.jsonl"]]
    loaded = _loaded_after(f"from stforge.cli import main; assert [main(a) for a in {stages!r}] == [0, 0, 0, 0]",
                           cwd=tmp_path)
    assert "numpy" not in loaded, loaded
    assert (tmp_path / "batches.jsonl").read_text(encoding="utf-8").count("m1") == 1


def test_sweep_score_runs_without_pyyaml(tmp_path):
    # PyYAML is a test dependency only: reading and scoring segment YAML must not import it;
    # resegmenting works on Python ints, so neither scoring stage loads numpy
    (tmp_path / "segs").mkdir()
    (tmp_path / "trans").mkdir()
    (tmp_path / "segs" / "max_seg_len_5.yaml").write_text(
        "- {duration: 1.000000, offset: 0.000000, rW: 2, uW: 0, speaker_id: spk.1, wav: ted_1.wav}\n"
        "- {duration: 2.000000, offset: 1.000000, speaker_id: \"spk 1\", wav: ted_1.wav}\n", encoding="utf-8")
    (tmp_path / "trans" / "max_seg_len_5.txt").write_text("das ist\ngut so\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("das ist\ngut so\n", encoding="utf-8")
    (tmp_path / "hyp.txt").write_text("das ist gut so\n", encoding="utf-8")
    stages = [["score", "--hyp", "hyp.txt", "--ref", "ref.txt", "--resegment"],
              ["sweep-score", "--segdir", "segs", "--trans", "trans", "--ref", "ref.txt", "--out", "c.tsv"]]
    code = ("import sys; from stforge.cli import main; "
            f"rc = [main(a) for a in {stages!r}]; "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'yaml')))")
    proc = _run("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "c.tsv").read_text(encoding="utf-8").startswith("5\t")


def test_augment_runs_without_numpy_fft(tmp_path):
    # WSOLA scores its lags by direct correlation, so augmenting every clip never loads numpy.fft
    import numpy as np

    from stforge.audio import AudioClip, write_wav

    (tmp_path / "wavs").mkdir()
    rng = np.random.default_rng(0)
    rows = []
    for name in ("c0", "c1"):
        write_wav(str(tmp_path / "wavs" / f"{name}.wav"), AudioClip(0.3 * rng.standard_normal(8000), 16000))
        rows.append((name, f"{name}.wav", "8000", "3", "MuST-C-train", "Guten Morgen", "Good morning"))
    (tmp_path / "clips.tsv").write_text(
        "".join("\t".join(row) + "\n" for row in [MANIFEST_COLUMNS, *rows]), encoding="utf-8")
    args = ["augment", "--in", "clips.tsv", "--audio-root", "wavs", "--out", "aug", "--p-aug", "1"]
    code = ("import sys; from stforge.cli import main; "
            f"rc = main({args!r}); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('numpy.fft')), 'numpy' in sys.modules)")
    proc = _run("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 [] True"
    log = (tmp_path / "aug" / "augment_log.tsv").read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[:2] for row in log] == [["c0", "1"], ["c1", "1"]]

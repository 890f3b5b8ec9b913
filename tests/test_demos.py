"""Smoke tests: the command line runs end to end in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

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


def test_segmenter_import_does_not_load_numpy():
    # the gap search runs on Python lists and one regular expression
    proc = _run("-c", "import stforge.segmenter, sys; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "False"


def test_sweep_score_runs_without_pyyaml(tmp_path):
    # PyYAML is a test dependency only: reading and scoring segment YAML must not import it
    (tmp_path / "segs").mkdir()
    (tmp_path / "trans").mkdir()
    (tmp_path / "segs" / "max_seg_len_5.yaml").write_text(
        "- {duration: 1.000000, offset: 0.000000, rW: 2, uW: 0, speaker_id: spk.1, wav: ted_1.wav}\n"
        "- {duration: 2.000000, offset: 1.000000, speaker_id: \"spk 1\", wav: ted_1.wav}\n", encoding="utf-8")
    (tmp_path / "trans" / "max_seg_len_5.txt").write_text("das ist\ngut so\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("das ist\ngut so\n", encoding="utf-8")
    code = ("import sys; from stforge.cli import main; "
            "rc = main(['sweep-score', '--segdir', 'segs', '--trans', 'trans', '--ref', 'ref.txt', '--out', 'c.tsv']); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))")
    proc = _run("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert (tmp_path / "c.tsv").read_text(encoding="utf-8").startswith("5\t")

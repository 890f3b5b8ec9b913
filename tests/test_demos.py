"""Smoke tests: the command line runs end to end in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args):
    # the command's flags, not stray STFORGE_* settings, must decide its config
    env = {k: v for k, v in os.environ.items() if not k.startswith("STFORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


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

"""Smoke runs of the experiment scripts, so that a renamed or deleted public
name they import cannot break them unnoticed."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_print_bound_tables():
    proc = run_script("print_bound_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize(
    "name, args",
    [
        ("run_noiseless_table.py",
         ["--trials", 1, "--ranks", 2, "--orders", 3, "--max-sweeps", 5]),
        ("run_sampled_trend.py", ["--sizes", 300, "--trials", 1]),
    ],
)
def test_experiment_script_writes_outputs(tmp_path, name, args):
    out = tmp_path / "result"
    proc = run_script(name, *args, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "result.json").is_file()
    assert (tmp_path / "result.csv").is_file()

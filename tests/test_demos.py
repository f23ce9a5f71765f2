"""The demos run: 01-03 end to end; 04, a degree-9 closure of 20 s or
more, only compiles."""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", [d for d in DEMOS if d.name[:2] <= "03"],
                         ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_closure_demo_compiles(tmp_path):
    demo = ROOT / "demos" / "04_degree9_closure.py"
    py_compile.compile(str(demo), cfile=str(tmp_path / "demo.pyc"),
                       doraise=True)


def test_every_demo_is_covered():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]

"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demos whose full stdout is pinned by a file in tests/data.
GOLDEN = {
    name: ROOT / "tests" / "data" / name.replace(".py", ".txt")
    for name in (
        "endomorphism_atlas.py", "group_zoo.py", "holomorph_tour.py", "orbit_engine.py",
        "pair_graph_gallery.py", "witness_hunt.py",
    )
}


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script.name in GOLDEN:
        assert proc.stdout == GOLDEN[script.name].read_text()

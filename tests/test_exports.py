"""Every public name a module of the package lists in ``__all__`` exists,
and a process loads the holomorph and power-lemma modules only on use."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hopfgalois

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["hopfgalois"] + [
    f"hopfgalois.{info.name}" for info in pkgutil.iter_modules(hopfgalois.__path__)
]
# The package names that only the holomorph cross-checks use, by module.
DEFERRED = {
    "hopfgalois.holomorph": (
        "Holomorph",
        "byott_translate",
        "enumerate_regular_subgroups",
        "fpf_pair_to_subgroup",
        "holomorph_of",
        "regular_subgroups_oracle",
    ),
    "hopfgalois.powerlemmas": ("run_power_lemma_suite",),
}
# Imported by neither ``import hopfgalois`` nor the counting commands.
UNLOADED = ("fractions", *DEFERRED)
# Imports the package and the modules named in argv[2], runs the command
# line in argv[3:] (if any) with its output dropped, and prints the modules
# named in argv[1] it left loaded.
PROBE = """
import contextlib, importlib, io, sys
import hopfgalois
watched, imported, argv = sys.argv[1].split(","), sys.argv[2].split(","), sys.argv[3:]
for module in filter(None, imported):
    importlib.import_module(module)
if argv:
    from hopfgalois.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(*sorted(set(watched) & set(sys.modules)))
"""
S3_CUBE_PAIR = "n=3\ntheta_f=0,1,2\nphi_f=-,0,3\ntheta_g=1,3,0\nphi_g=2,0,-\n"


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_deferred_names_are_the_submodule_objects_and_stay_bound():
    for module, names in DEFERRED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert name in hopfgalois.__all__
            assert getattr(hopfgalois, name) is getattr(mod, name)
            # bound on the first read, so later reads skip __getattr__
            assert vars(hopfgalois)[name] is getattr(mod, name)
    assert set(hopfgalois.__all__) <= set(dir(hopfgalois))
    assert not hasattr(hopfgalois, "no_such_name")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["census", "formula", "--aut-order", "6", "--n", "2"],
        ["census", "brute", "--group", "a5", "--n", "1", "--mode", "fpf"],
        ["trees", "count", "--n", "4"],
        ["fpf", "check", "--group", "s3", "--pair", "{pair}"],
    ],
    ids=["import", "census-formula", "census-brute", "trees-count", "fpf-check"],
)
def test_counting_runs_leave_the_holomorph_modules_unloaded(argv, tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text(S3_CUBE_PAIR)
    assert _probe(UNLOADED, (), [arg.format(pair=pair) for arg in argv]) == []


def test_holomorph_runs_leave_fractions_unloaded():
    argv = ["hol", "regulars", "--group", "s3"]
    assert _probe(["fractions"], ["hopfgalois.holomorph"], argv) == []


def _probe(watched, imported, argv):
    """The modules of ``watched`` that a fresh process running PROBE left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(watched), ",".join(imported), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()

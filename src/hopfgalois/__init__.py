"""Counting Hopf-Galois structures on direct powers of a finite group.

The package is organized around one pipeline: multiplication-table groups
(:mod:`.groups`), the structured endomorphism monoid of a direct power
(:mod:`.endomorphisms`), the pair graphs attached to an endomorphism pair
(:mod:`.pairgraphs`), fixed-point-freeness verdicts (:mod:`.fpf`),
holomorph regular-subgroup enumeration (:mod:`.holomorph`), and the
closed-form versus brute-force censuses that tie everything together
(:mod:`.census`).  The structure lemmas on direct powers are checked by
:mod:`.powerlemmas`, which builds on the pipeline.  The ``hopfgalois``
CLI exposes the same operations.

``import hopfgalois`` loads the counting pipeline: groups,
endomorphisms, pair graphs, fpf verdicts and the census.  The holomorph
names and ``run_power_lemma_suite`` are resolved on first access, which
imports :mod:`.holomorph` or :mod:`.powerlemmas` then and binds the name
here, so a run that never reads them never loads either module.
"""

import importlib

from .census import (
    brute_F,
    formula_Einn,
    formula_F,
    run_verification,
    tree_weighted_F,
)
from .endomorphisms import (
    StructuredEndo,
    count_aut0,
    count_end0,
    enumerate_aut0,
    enumerate_end0,
    parse_pair_file,
)
from .fpf import (
    FpfVerdict,
    check_path_conditions,
    construct_witness,
    decide_fpf,
    is_fpf_bruteforce,
    is_fpf_by_tree,
)
from .groups import (
    BudgetError,
    FiniteGroup,
    GroupValidationError,
    has_fpf_automorphism,
    load_group,
    power_group,
)
from .pairgraphs import (
    build_undirected,
    enumerate_labelled_trees,
    is_tree,
)

__all__ = [
    "BudgetError",
    "FiniteGroup",
    "FpfVerdict",
    "GroupValidationError",
    "Holomorph",
    "StructuredEndo",
    "brute_F",
    "build_undirected",
    "byott_translate",
    "check_path_conditions",
    "construct_witness",
    "count_aut0",
    "count_end0",
    "decide_fpf",
    "enumerate_aut0",
    "enumerate_end0",
    "enumerate_labelled_trees",
    "enumerate_regular_subgroups",
    "formula_Einn",
    "formula_F",
    "fpf_pair_to_subgroup",
    "has_fpf_automorphism",
    "holomorph_of",
    "is_fpf_bruteforce",
    "is_fpf_by_tree",
    "is_tree",
    "load_group",
    "parse_pair_file",
    "power_group",
    "regular_subgroups_oracle",
    "run_power_lemma_suite",
    "run_verification",
    "tree_weighted_F",
]

__version__ = "0.1.0"

# Read on first access, by ``__getattr__`` below: name -> submodule.
_DEFERRED = {
    **dict.fromkeys(
        ("Holomorph", "byott_translate", "enumerate_regular_subgroups",
         "fpf_pair_to_subgroup", "holomorph_of", "regular_subgroups_oracle"),
        "holomorph",
    ),
    "run_power_lemma_suite": "powerlemmas",
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value  # later reads are plain namespace hits
    return value


def __dir__():
    return sorted({*globals(), *__all__})

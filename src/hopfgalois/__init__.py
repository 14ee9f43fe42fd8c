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
"""

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
from .holomorph import (
    Holomorph,
    byott_translate,
    enumerate_regular_subgroups,
    fpf_pair_to_subgroup,
    holomorph_of,
    regular_subgroups_oracle,
)
from .pairgraphs import (
    build_undirected,
    enumerate_labelled_trees,
    is_tree,
)
from .powerlemmas import run_power_lemma_suite

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

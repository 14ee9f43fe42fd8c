"""Command-line front end.

Output is tab-separated key/value or table rows so it pipes cleanly.
Exit codes: 0 on success (and on every check passing), 2 when a
verification or cross-check fails, 1 on usage or input errors.
The ``hol`` commands import the holomorph and power-lemma modules when
they run, so the other commands start without them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .census import (
    brute_F,
    formula_Einn,
    formula_F,
    run_verification,
    tree_degree_counts,
    tree_weighted_F,
)
from .endomorphisms import parse_pair_file
from .fpf import decide_fpf
from .groups import BudgetError, find_isomorphism, has_fpf_automorphism, load_group
from .pairgraphs import (
    build_undirected,
    count_trees_root_degree,
    dump_lines,
    enumerate_labelled_trees,
)

USAGE_ERROR = 1
CHECK_FAILED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; this tool reserves 2 for failed
    # mathematical checks, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _emit(rows):
    for row in rows:
        print("\t".join(str(c) for c in row))


# ── census ───────────────────────────────────────────────────────────────


def _cmd_census_formula(args):
    _emit(
        [
            ("aut_order", args.aut_order),
            ("n", args.n),
            ("F", formula_F(args.aut_order, args.n)),
            ("Einn", formula_Einn(args.aut_order, args.n)),
        ]
    )
    return 0


def _cmd_census_weighted(args):
    total = tree_weighted_F(args.aut_order, args.n, method=args.method)
    counts = tree_degree_counts(args.n, method=args.method)
    rows = [("aut_order", args.aut_order), ("n", args.n)]
    for d in sorted(counts):
        rows.append((f"trees_degree_{d}", counts[d]))
    rows.append(("weighted_F", total))
    _emit(rows)
    return 0


def _cmd_census_brute(args):
    T = load_group(args.group)
    kwargs = {"budget": args.budget} if args.budget is not None else {}
    count = brute_F(T, args.n, mode=args.mode, **kwargs)
    rows = [("group", T.name), ("n", args.n), ("mode", args.mode), ("brute_F", count)]
    if has_fpf_automorphism(T):  # formula_F assumes T has none
        _emit(rows + [("formula_F", "n/a"),
                      ("match", f"n/a: {T.name} admits a fixed-point-free automorphism")])
        return 0
    expected = formula_F(len(T.automorphisms()), args.n)
    _emit(rows + [("formula_F", expected), ("match", "true" if count == expected else "false")])
    return 0 if count == expected else CHECK_FAILED


# ── trees ────────────────────────────────────────────────────────────────


def _cmd_trees_count(args):
    if args.degree is not None:
        _emit([(args.n, args.degree, count_trees_root_degree(args.n, args.degree))])
        return 0
    counts = tree_degree_counts(args.n, method="formula")
    rows = [(args.n, d, counts[d]) for d in sorted(counts)]
    rows.append((args.n, "-", sum(counts.values())))
    _emit(rows)
    return 0


def _cmd_trees_enumerate(args):
    for index, (seq, edges) in enumerate(enumerate_labelled_trees(args.n)):
        seq_text = ",".join(str(s) for s in seq) if seq else "-"
        edge_text = " ".join(f"{u}-{v}" for u, v in edges)
        print(f"{index}\t{seq_text}\t{edge_text}")
    return 0


# ── fpf ──────────────────────────────────────────────────────────────────


def _cmd_fpf_check(args):
    T = load_group(args.group)
    text = Path(args.pair).read_text()
    f, g = parse_pair_file(text, T)
    verdict = decide_fpf(f, g)
    witness = (
        ",".join(str(x) for x in verdict.witness) if verdict.witness else "-"
    )
    print(f"{'fpf' if verdict.is_fpf else 'not-fpf'}\t{verdict.method}\t{witness}")
    if args.dump_graph:
        und = build_undirected(f.theta, g.theta)
        _emit([line.split("\t") for line in dump_lines(und)])
    return 0


# ── hol ──────────────────────────────────────────────────────────────────


def _cmd_hol_regulars(args):
    from .holomorph import (
        classify_inn_out,
        enumerate_regular_subgroups,
        holomorph_of,
        regular_subgroups_oracle,
    )

    G = load_group(args.group)
    iso = load_group(args.iso) if args.iso else None
    if iso is None or find_isomorphism(iso, G) is not None:
        subs = enumerate_regular_subgroups(G)
        rows = [(len(s.elements), s.classification) for s in subs]
    else:
        # The pair search only ever produces subgroups isomorphic to G,
        # so a cross-type query needs the exhaustive subgroup walk.
        keys = regular_subgroups_oracle(G, iso_type=iso)
        rows = [(len(k), classify_inn_out(holomorph_of(G), k)) for k in keys]
    for i, (order, cls) in enumerate(rows):
        print(f"{i}\t{order}\ttrue\t{cls}")
    print(f"total\t{len(rows)}")
    return 0


def _cmd_hol_verify_s3_lemmas(args):
    from .powerlemmas import run_power_lemma_suite

    T = load_group("s3")
    results = run_power_lemma_suite(T, n=2)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for res in results:
        line = f"{res.name}\t{res.status}"
        if res.detail:
            line += f"\t{res.detail}"
        print(line)
        counts[res.status] += 1
    print(f"total\t{len(results)}\tpass={counts['pass']}"
          f"\tfail={counts['fail']}\tskipped={counts['skipped']}")
    return CHECK_FAILED if counts["fail"] else 0


# ── verify ───────────────────────────────────────────────────────────────


def _cmd_verify(args):
    rows = run_verification(level=args.level)
    for target, n, check, ok in rows:
        print(f"{target}\tn={n}\t{check}\t{'pass' if ok else 'FAIL'}")
    failed = not all(ok for *_, ok in rows)
    print(f"result\t{'fail' if failed else 'pass'}")
    return CHECK_FAILED if failed else 0


# ── wiring ───────────────────────────────────────────────────────────────


def build_parser():
    p = _Parser(prog="hopfgalois", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", help="pair counts by formula or enumeration")
    csub = census.add_subparsers(dest="subcommand", required=True)

    cf = csub.add_parser("formula", help="closed-form counts from |Aut T| alone")
    cf.add_argument("--aut-order", type=int, required=True)
    cf.add_argument("--n", type=int, required=True)
    cf.set_defaults(func=_cmd_census_formula)

    cw = csub.add_parser("weighted", help="tree-degree weighted count")
    cw.add_argument("--aut-order", type=int, required=True)
    cw.add_argument("--n", type=int, required=True)
    cw.add_argument("--method", choices=("auto", "enumerate", "formula"),
                    default="auto")
    cw.set_defaults(func=_cmd_census_weighted)

    cb = csub.add_parser("brute", help="visit every endomorphism pair of a real group")
    cb.add_argument("--group", required=True)
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--mode", choices=("tree", "fpf"), default="tree")
    cb.add_argument("--budget", type=int, default=None)
    cb.set_defaults(func=_cmd_census_brute)

    trees = sub.add_parser("trees", help="labelled trees on {0..n}")
    tsub = trees.add_subparsers(dest="subcommand", required=True)

    tc = tsub.add_parser("count", help="tree counts by degree of vertex 0")
    tc.add_argument("--n", type=int, required=True)
    tc.add_argument("--degree", type=int, default=None)
    tc.set_defaults(func=_cmd_trees_count)

    te = tsub.add_parser("enumerate", help="all trees via Pruefer sequences")
    te.add_argument("--n", type=int, required=True)
    te.set_defaults(func=_cmd_trees_enumerate)

    fpf = sub.add_parser("fpf", help="fixed point free pair checks")
    fsub = fpf.add_subparsers(dest="subcommand", required=True)

    fc = fsub.add_parser("check", help="decide one pair from a pair file")
    fc.add_argument("--group", required=True)
    fc.add_argument("--pair", required=True, help="pair file path")
    fc.add_argument("--dump-graph", action="store_true")
    fc.set_defaults(func=_cmd_fpf_check)

    hol = sub.add_parser("hol", help="holomorph regular subgroups")
    hsub = hol.add_subparsers(dest="subcommand", required=True)

    hr = hsub.add_parser("regulars", help="regular subgroups of Hol(G) by type")
    hr.add_argument("--group", required=True)
    hr.add_argument("--iso", default=None,
                    help="isomorphism type to keep (default: the group itself)")
    hr.set_defaults(func=_cmd_hol_regulars)

    hv = hsub.add_parser("verify-s3-lemmas",
                         help="structure lemmas exercised over the square of s3")
    hv.set_defaults(func=_cmd_hol_verify_s3_lemmas)

    vf = sub.add_parser("verify", help="cross-validate every counting route")
    vf.add_argument("--level", choices=("quick", "full"), default="quick")
    vf.set_defaults(func=_cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetError, ValueError, OSError) as exc:  # table and pair-file errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

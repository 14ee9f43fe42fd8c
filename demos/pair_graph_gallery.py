"""Render a few pair graphs as text and show how their shape decides
fixed-point-freeness over a base group with no fpf automorphism."""

from hopfgalois.endomorphisms import StructuredEndo
from hopfgalois.fpf import decide_fpf
from hopfgalois.groups import load_group
from hopfgalois.pairgraphs import build_undirected, dump_lines, is_tree


def show(title, f, g):
    und = build_undirected(f.theta, g.theta)
    print(f"== {title} ==")
    print(f"  theta_f = {f.theta}, theta_g = {g.theta}")
    for line in dump_lines(und):
        print(f"  {line}")
    verdict = decide_fpf(f, g)
    print(f"  tree: {is_tree(und)}   fpf: {verdict.is_fpf} ({verdict.method})")
    print()


def main():
    s3 = load_group("s3")

    # A spanning tree on {0, 1, 2}: both source maps hit fresh coordinates.
    f = StructuredEndo(s3, 2, theta=(0, 1), phis=(None, 0))
    g = StructuredEndo(s3, 2, theta=(1, 2), phis=(0, 0))
    show("tree pair", f, g)

    # Both maps share the same theta, so vertex 2 is isolated and the
    # doubled edge at 1 makes a cycle.
    f = StructuredEndo(s3, 2, theta=(1, 1), phis=(0, 0))
    g = StructuredEndo(s3, 2, theta=(1, 1), phis=(0, 0))
    show("doubled-edge pair", f, g)

    # Fully collapsing maps: every edge is a loop at the root.
    f = StructuredEndo(s3, 2, theta=(0, 0), phis=(None, None))
    g = StructuredEndo(s3, 2, theta=(0, 0), phis=(None, None))
    show("all-loops pair", f, g)


if __name__ == "__main__":
    main()

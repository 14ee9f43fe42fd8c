"""The benchmark's three workloads: set-up, the op list of one pass, and
the check of every answer against a reference that the package did not
compute by the same route (see references.json for the source of each).

Every call into the package sits inside a span named after its layer, the
modules under src/hopfgalois.  The seed only orders and samples inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter

import numpy as np

import hopfgalois as hg
from hopfgalois.pairgraphs import components

from hostspeed import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = json.loads((HERE / "references.json").read_text())
GOLDEN_S3 = ROOT / "tests" / "data" / "hol_s3_regulars.json"

ZOO = ("s3", "c6", "d4", "q8", "a4", "d5", "s4", "a5", "s5")
ZOO_NO_ENUMERATION = {"s5"}          # enumerate_regular_subgroups takes about 64 s
ZOO_ORACLE = {"s3", "c6", "d4"}      # |Hol N| <= 100
POWER_SAMPLES = 256

LAYERS = ("groups", "endomorphisms", "pairgraphs", "fpf", "holomorph", "census")


class Mismatch(Exception):
    """An answer differs from its reference."""


def check(ok, message):
    if not ok:
        raise Mismatch(message)


def evaluate(auts, e, x):
    """f(x) for a structured endomorphism, written out from its definition."""
    return tuple(0 if t == 0 else auts[p][x[t - 1]] for t, p in zip(e.theta, e.phis))


def component_shape(mu, nu):
    """Sorted (vertices, edge count) of each component of the pair graph
    with edges {mu[i], nu[i]}, from a union-find kept apart from the
    package's."""
    n = len(mu)
    root = list(range(n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in zip(mu, nu):
        root[find(u)] = find(v)
    verts, edges = {}, {}
    for v in range(n + 1):
        verts.setdefault(find(v), []).append(v)
    for u, _ in zip(mu, nu):
        edges[find(u)] = edges.get(find(u), 0) + 1
    return sorted((tuple(vs), edges.get(r, 0)) for r, vs in verts.items())


def run_pass(workload, tracer, sampler):
    """Run one pass of the workload's op list, one op at a time, with the
    host-speed probe timed before the first op and after each op.

    Returns (per-op reference seconds, probe seconds, failure messages);
    see hostspeed.py.  An op fails on a wrong answer or on any exception,
    a BudgetError refusal included.
    """
    latencies, failures = [], []
    probes = [probe()]
    for op_id, (label, fn, args) in enumerate(workload.ops()):
        t = perf_counter()
        with tracer.op(op_id, label):
            try:
                fn(*args)
            except Exception as exc:  # the loop must go on and count it
                failures.append(f"op {op_id} {label}: {type(exc).__name__}: {exc}")
        end = perf_counter()
        probes.append(probe())
        latencies.append(sampler.scaled(t, end, probes[-2], probes[-1]))
    return latencies, probes, failures


# ── census-a5 and census-s3cube ─────────────────────────────────────────


class Census:
    """Rows of (f, seeded sample of g) pairs over End0(T^n), plus two
    whole counts checked against the closed formula."""

    def __init__(self, tracer, seed, group, n, aut_order, rows, row_widths,
                 tree_rank, fpf_rank, graph_checks):
        self.tracer = tracer
        span = tracer.span
        with span("groups.load"):
            self.T = hg.load_group(group)
        with span("groups.automorphisms"):
            self.auts = self.T.automorphisms()
        with span("endomorphisms.enumerate_end0"):
            self.endos = list(hg.enumerate_end0(self.T, n))
        tracer.count("endomorphisms.endos", len(self.endos))
        self.graph_checks = graph_checks
        self.identity = (0,) * n
        self.scan_size = self.T.order ** n
        rng = random.Random(seed)
        # Row widths spread evenly over row_widths, the same for every seed,
        # so that the seed picks the pairs but not how much work a pass has.
        lo, hi = row_widths
        widths = [lo + i * (hi - lo) // (rows - 1) for i in range(rows)]
        rng.shuffle(widths)
        plan = []
        for width in widths:
            f = rng.randrange(len(self.endos))
            gs = rng.sample(range(len(self.endos)), width)
            sigmas = [
                tuple(rng.randrange(self.T.order) for _ in range(n)) for _ in gs
            ]
            plan.append(("row", self.row, (f, gs, sigmas)))
        # The reference is formula_F at the textbook |Aut T|, never the
        # package's own automorphism count.
        self.expected = {}
        for label, rank, mode in (("census.brute_tree", tree_rank, "tree"),
                                  ("census.brute_fpf", fpf_rank, "fpf")):
            self.expected[label] = hg.formula_F(aut_order, rank)
            plan.insert(rng.randrange(len(plan) + 1), (label, self.count, (label, rank, mode)))
        self.brute_fpf_pairs = (1 + fpf_rank * aut_order) ** (2 * fpf_rank)
        self.plan = plan

    def ops(self):
        return self.plan

    def check_witness(self, f, g, w, route):
        check(w is not None and w != self.identity, f"{route}: witness {w} is the identity")
        check(
            evaluate(self.auts, f, w) == evaluate(self.auts, g, w),
            f"{route}: f(w) != g(w) at w = {w} for {f} / {g}",
        )

    def row(self, fi, gis, sigmas):
        tr = self.tracer
        span = tr.span
        f = self.endos[fi]
        for gi, sigma in zip(gis, sigmas):
            g = self.endos[gi]
            with span("fpf.tree"):
                by_tree = hg.is_fpf_by_tree(f, g)
            with span("fpf.scan"):
                by_scan = hg.is_fpf_bruteforce(f, g)
            tr.count("fpf.pairs")
            agree = by_tree.is_fpf == by_scan.is_fpf
            tr.count("fpf.agree", agree)
            check(agree, f"tree says {by_tree.is_fpf}, scan says {by_scan.is_fpf} on {f} / {g}")
            if not by_scan.is_fpf:
                self.check_witness(f, g, by_scan.witness, "is_fpf_bruteforce")
            if not by_tree.is_fpf:
                self.check_witness(f, g, by_tree.witness, "is_fpf_by_tree")
                # T has no fpf automorphism, so every non-tree pair graph
                # has a usable component and a WitnessError is a failure.
                tr.count("fpf.witness.attempts")
                with span("fpf.witness"):
                    w = hg.construct_witness(f, g)
                tr.count("fpf.witness.built")
                self.check_witness(f, g, w, "construct_witness")
            if self.graph_checks:
                self.graph_row(f, g, sigma, by_tree.is_fpf)

    def graph_row(self, f, g, sigma, tree_verdict):
        tr = self.tracer
        span = tr.span
        with span("fpf.path"):
            holds = hg.check_path_conditions(f, g, sigma)
        direct = evaluate(self.auts, f, sigma) == evaluate(self.auts, g, sigma)
        check(holds == direct, f"path conditions say {holds} at {sigma}, f(x) = g(x) is {direct}")
        with span("pairgraphs"):
            und = hg.build_undirected(f.theta, g.theta)
        with span("pairgraphs"):
            comps = components(und)
        with span("pairgraphs"):
            tree = hg.is_tree(und)
        tr.count("pairgraphs.tree_tests")
        tr.count("pairgraphs.trees", tree)
        shape = component_shape(f.theta, g.theta)
        got = sorted((tuple(sorted(c.vertices)), c.edge_count) for c in comps)
        check(got == shape, f"components {got} != {shape} for {f.theta} / {g.theta}")
        check(tree == (len(shape) == 1), f"is_tree says {tree} for {len(shape)} components")
        check(tree == tree_verdict, "is_tree and is_fpf_by_tree disagree")

    def count(self, label, rank, mode):
        with self.tracer.span(label):
            got = hg.brute_F(self.T, rank, mode)
        check(got == self.expected[label], f"brute_F({rank}, {mode}) = {got}, formula says {self.expected[label]}")


def census_a5(tracer, seed):
    return Census(tracer, seed, "a5", 1, 120, rows=100, row_widths=(16, 32),
                  tree_rank=1, fpf_rank=1, graph_checks=False)


def census_s3cube(tracer, seed):
    return Census(tracer, seed, "s3", 3, 6, rows=120, row_widths=(128, 128),
                  tree_rank=3, fpf_rank=2, graph_checks=True)


# ── holomorph-zoo ───────────────────────────────────────────────────────


def _element_keys(elements):
    return frozenset((e.trans, e.aut) for e in elements)


class HolomorphZoo:
    """Every pass loads each group afresh from a Cayley-table file and
    runs the holomorph layer on it.  Groups of one pass are dropped when
    the pass ends, so nothing outside the package keeps them alive."""

    def __init__(self, tracer, seed, table_dir):
        self.tracer = tracer
        span = tracer.span
        table_dir.mkdir(parents=True, exist_ok=True)
        self.tables, self.paths = {}, {}
        for name in ZOO:
            with span("groups.load"):
                G = hg.load_group(name)
            self.tables[name] = G.mul
            path = table_dir / f"{name}.txt"
            rows = "\n".join(" ".join(map(str, row)) for row in G.mul)
            path.write_text(f"{G.order}\n{rows}\n")
            self.paths[name] = path

        # The 240 fpf pairs of A5 are the pairs whose graph is a tree.
        a5 = hg.load_group("a5")
        with span("endomorphisms.enumerate_end0"):
            endos = list(hg.enumerate_end0(a5, 1))
        tracer.count("endomorphisms.endos", len(endos))
        pairs = []
        for f in endos:
            for g in endos:
                with span("pairgraphs"):
                    und = hg.build_undirected(f.theta, g.theta)
                with span("pairgraphs"):
                    tree = hg.is_tree(und)
                tracer.count("pairgraphs.tree_tests")
                tracer.count("pairgraphs.trees", tree)
                if tree:
                    pairs.append((f.theta, f.phis, g.theta, g.phis))
        if len(pairs) != hg.formula_F(120, 1):
            raise RuntimeError(f"set-up found {len(pairs)} tree pairs of A5, not 240")

        rng = random.Random(seed)
        self.order = list(ZOO)
        rng.shuffle(self.order)
        rng.shuffle(pairs)
        self.pair_specs = pairs
        s3 = self.tables["s3"]
        self.power_expected = []
        for _ in range(POWER_SAMPLES):
            a = tuple(rng.randrange(6) for _ in range(3))
            b = tuple(rng.randrange(6) for _ in range(3))
            self.power_expected.append((a, b, tuple(s3[x][y] for x, y in zip(a, b))))
        golden = json.loads(GOLDEN_S3.read_text())
        self.golden_s3 = {
            frozenset(map(tuple, sub["elements"])): sub["classification"]
            for sub in golden["regular_iso_s3"]
        }
        self.golden_s3_stats = (golden["order6_subgroups"], golden["regular_order6"])
        self.aut_order = REFERENCES["aut_order"]["values"]
        self.regular_pinned = REFERENCES["regular_subgroups"]["values"]
        self.suite_pinned = REFERENCES["lemma_suite_s3_n2"]["statuses"]
        self.scan_size = 0
        self.brute_fpf_pairs = 0

    def ops(self):
        live = {}  # this pass's groups and answers
        for name in self.order:
            yield "groups.load", self.load, (live, name)
            yield "groups.automorphisms", self.automorphisms, (live, name)
            if name not in ZOO_NO_ENUMERATION:
                yield "holomorph.regular_subgroups", self.regulars, (live, name)
            if name in ZOO_ORACLE:
                yield "holomorph.oracle", self.oracle, (live, name)
            if name == "s3":
                yield "groups.power_group", self.power, (live,)
                yield "holomorph.lemma_suite", self.suite, (live,)
            if name == "a5":
                live["pair_subgroups"] = set()
                last = len(self.pair_specs) - 1
                for i, spec in enumerate(self.pair_specs):
                    yield "holomorph.pair_subgroup", self.pair, (live, spec, i == last)

    def load(self, live, name):
        with self.tracer.span("groups.load"):
            G = hg.load_group(self.paths[name])
        live[name] = G
        check(G.mul == self.tables[name], f"{name}: loaded table differs from the file written")

    def automorphisms(self, live, name):
        G = live[name]
        with self.tracer.span("groups.automorphisms"):
            auts = G.automorphisms()
        want = self.aut_order[name]
        check(len(auts) == want, f"{name}: {len(auts)} automorphisms, expected {want}")
        check(len(set(auts)) == len(auts), f"{name}: repeated automorphisms")
        mul = np.array(self.tables[name], dtype=np.intp)
        ident = np.arange(G.order)
        for a in auts:
            a = np.array(a, dtype=np.intp)
            check((np.sort(a) == ident).all(), f"{name}: {tuple(a)} is not a bijection")
            check((a[mul] == mul[a[:, None], a[None, :]]).all(), f"{name}: {tuple(a)} is not a homomorphism")

    def translations(self, name, G):
        """lambda(N) and rho(N) in (trans, aut) coordinates, where (t, i)
        is x -> aut_i(x) t^-1: rho(s) = (s, id), lambda(s) = (s^-1, conj_s)."""
        mul = self.tables[name]
        m = len(mul)
        inv = [row.index(0) for row in mul]
        aut_id = {a: i for i, a in enumerate(G.automorphisms())}
        rho = frozenset((s, aut_id[tuple(range(m))]) for s in range(m))
        lam = frozenset(
            (inv[s], aut_id[tuple(mul[mul[s][x]][inv[s]] for x in range(m))]) for s in range(m)
        )
        return {lam, rho}

    def regulars(self, live, name):
        G = live[name]
        with self.tracer.span("holomorph.regular_subgroups"):
            subs = hg.enumerate_regular_subgroups(G)
        self.tracer.count("holomorph.regular_subgroups.found", len(subs))
        found = {_element_keys(s.elements): s.classification for s in subs}
        live["regulars", name] = set(found)
        if name == "s3":
            check(found == self.golden_s3, "s3: regular subgroups differ from the golden file")
        elif name == "a5":
            want = hg.formula_Einn(120, 1)
            check(len(found) == want, f"a5: {len(found)} regular subgroups, formula_Einn says {want}")
            live["translations"] = self.translations(name, G)
            check(set(found) == live["translations"], "a5: regular subgroups are not lambda and rho")
        else:
            want = self.regular_pinned[name]
            check(len(found) == want, f"{name}: {len(found)} regular subgroups, pinned {want}")
            check(set(found.values()) == {"inn"}, f"{name}: a regular subgroup of outer type")

    def oracle(self, live, name):
        with self.tracer.span("holomorph.oracle"):
            kept, stats = hg.regular_subgroups_oracle(live[name], with_stats=True)
        got = set(map(_element_keys, kept))
        check(got == live["regulars", name], f"{name}: oracle and enumeration disagree")
        if name == "s3":
            seen = (stats["subgroups_of_order"], stats["regular"])
            check(seen == self.golden_s3_stats, f"s3: oracle stats {seen}, golden {self.golden_s3_stats}")

    def power(self, live):
        with self.tracer.span("groups.power_group"):
            P = hg.power_group(live["s3"], 3)
        check(P.order == 216, f"S3^3 has order {P.order}")
        for a, b, ab in self.power_expected:
            got = P.mul[_power_index(a)][_power_index(b)]
            check(got == _power_index(ab), f"S3^3: {a}*{b} is {got}, not {ab}")

    def suite(self, live):
        with self.tracer.span("holomorph.lemma_suite"):
            rows = hg.run_power_lemma_suite(live["s3"], 2)
        self.tracer.count("holomorph.lemma_suite.checks", len(rows))
        statuses = {}
        for r in rows:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        check("fail" not in statuses, "lemma suite: a row failed")
        check(statuses == self.suite_pinned, f"lemma suite statuses {statuses}, pinned {self.suite_pinned}")

    def pair(self, live, spec, last):
        a5 = live["a5"]
        tf, pf, tg, pg = spec
        f = hg.StructuredEndo(a5, 1, tf, pf)
        g = hg.StructuredEndo(a5, 1, tg, pg)
        with self.tracer.span("holomorph.pair_subgroup"):
            sub = hg.fpf_pair_to_subgroup(f, g)
        key = _element_keys(sub)
        check(key in live["translations"], f"pair {spec} gives neither lambda(A5) nor rho(A5)")
        live["pair_subgroups"].add(key)
        if last:
            check(live["pair_subgroups"] == live["regulars", "a5"],
                  "pair-built subgroups differ from the enumeration output")


def _power_index(coords):
    k = 0
    for c in coords:
        k = k * 6 + c
    return k


def holomorph_zoo(tracer, seed):
    return HolomorphZoo(tracer, seed, HERE / "out" / "tables")


WORKLOADS = {
    "census-a5": census_a5,
    "census-s3cube": census_s3cube,
    "holomorph-zoo": holomorph_zoo,
}


# ── Per-layer metrics from the traced set-up and pass ───────────────────


def layer_metrics(tracer, workload, overhead_s):
    """Per-layer figures over the set-up and the one traced pass.  A
    layer a workload does not exercise reads 0."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "groups.load.calls": (calls("groups.load"), "count"),
        "groups.load.busy_s": (busy("groups.load"), "s"),
        "groups.automorphisms.busy_s": (busy("groups.automorphisms"), "s"),
        "groups.power_group.busy_s": (busy("groups.power_group"), "s"),
        "endomorphisms.enumerate_end0.busy_s": (busy("endomorphisms.enumerate_end0"), "s"),
        "endomorphisms.endos": (counts["endomorphisms.endos"], "count"),
        "pairgraphs.calls": (calls("pairgraphs"), "count"),
        "pairgraphs.busy_s": (busy("pairgraphs"), "s"),
        "pairgraphs.tree_ratio": (ratio(counts["pairgraphs.trees"], counts["pairgraphs.tree_tests"]), "ratio"),
        "fpf.tree.calls": (calls("fpf.tree"), "count"),
        "fpf.tree.busy_s": (busy("fpf.tree"), "s"),
        "fpf.tree.mean_us": (ratio(busy("fpf.tree"), calls("fpf.tree")) * 1e6, "us"),
        "fpf.scan.calls": (calls("fpf.scan"), "count"),
        "fpf.scan.busy_s": (busy("fpf.scan"), "s"),
        "fpf.scan.elements": (calls("fpf.scan") * workload.scan_size, "count-computed"),
        "fpf.witness.calls": (calls("fpf.witness"), "count"),
        "fpf.witness.busy_s": (busy("fpf.witness"), "s"),
        "fpf.witness.yield": (ratio(counts["fpf.witness.built"], counts["fpf.witness.attempts"]), "ratio"),
        "fpf.path.calls": (calls("fpf.path"), "count"),
        "fpf.path.busy_s": (busy("fpf.path"), "s"),
        "fpf.agree_ratio": (ratio(counts["fpf.agree"], counts["fpf.pairs"]), "ratio"),
        "census.brute_tree.busy_s": (busy("census.brute_tree"), "s"),
        "census.brute_fpf.busy_s": (busy("census.brute_fpf"), "s"),
        "census.brute_fpf.pairs_per_s": (ratio(workload.brute_fpf_pairs, busy("census.brute_fpf")), "1/s"),
        "holomorph.regular_subgroups.calls": (calls("holomorph.regular_subgroups"), "count"),
        "holomorph.regular_subgroups.busy_s": (busy("holomorph.regular_subgroups"), "s"),
        "holomorph.regular_subgroups.found": (counts["holomorph.regular_subgroups.found"], "count"),
        "holomorph.oracle.busy_s": (busy("holomorph.oracle"), "s"),
        "holomorph.pair_subgroup.calls": (calls("holomorph.pair_subgroup"), "count"),
        "holomorph.pair_subgroup.busy_s": (busy("holomorph.pair_subgroup"), "s"),
        "holomorph.lemma_suite.busy_s": (busy("holomorph.lemma_suite"), "s"),
        "holomorph.lemma_suite.checks": (counts["holomorph.lemma_suite.checks"], "count"),
    }
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in spans.items() if k == layer or k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (own, "s")
    m["bench.self_s"] = (sum(v["self_s"] for k, v in spans.items() if k.startswith("op.")), "s")
    m["bench.trace_overhead_s"] = (overhead_s, "s")
    return m

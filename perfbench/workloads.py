"""The four workloads: one round of operations each, made from a seed.

An operation is one graphclean command line with the check its output
must pass.  Every round of a run repeats the same operations.  The seed
picks instances and relabels vertices, but each round's make-up (how
many operations of which size) is the same for every seed, so the
cost of a round does not depend on the seed:

* solve-dp: DP time depends only on the vertex count, so each of the
  40 slots has a fixed vertex count (15-20) and the seed picks the
  family or pool graph filling it and relabels it.  The slots keep
  their order: peak RSS depends on the order of the operations.
* solve-bnb: fixed tori and K_m x P_n products and the 40 random pool
  graphs, each relabelled by the seed (the search visits the same
  number of nodes, within about 1%, under any labelling), and three
  bad-hint operations on fixed graphs that fail on every round, in a
  fixed order.
* report-sweep: fixed report commands; the seed orders them and the
  instances inside each --instances list.
* verify-reduce: fixed instance sizes; the benchmark writes each
  optimal cleaning moved by a seeded automorphism (a torus shift, a
  clique relabelling), so the reductions start from other vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
from reference import adjacency, named, value_of


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[int, str], "str | None"]
    known_fault: bool = False  # fails on every round because of a named program fault


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    warmup: list[str]  # one tiny operation that runs the workload's lazy set-up


def _relabel(g, rng):
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _graph_file(work, name, g, rng):
    path = work / f"{name}.graph"
    checks.write_graph(path, g, rng)
    return str(path)


def _warm_graph(work):
    path = work / "warm.graph"
    checks.write_graph(path, named("C5"))
    return str(path)


# ------------------------------------------------------------ solve-dp

DP_SLOTS = {15: 7, 16: 7, 17: 10, 18: 8, 19: 5, 20: 3}
DP_FAMILIES = {
    15: ["C3xC5", "K3xP5", "K5xP3", "K3xC5", "K5xC3", "C15"],
    16: ["C4xC4", "K4xP4", "K2xP8", "K4xC4", "K2xC8", "C16"],
    17: ["C17"],
    18: ["C3xC6", "K3xP6", "K6xP3", "K3xC6", "K6xC3", "K2xP9", "K2xC9", "C18"],
    19: ["C19"],
    20: ["C4xC5", "K4xP5", "K5xP4", "K4xC5", "K5xC4", "K2xP10", "K2xC10", "C20"],
}


def solve_dp(seed, work, ref):
    rng = random.Random(f"solve-dp/{seed}")
    ops = []
    for n, count in DP_SLOTS.items():
        choices = [(named(f), value_of(f, ref["products"])) for f in DP_FAMILIES[n]]
        choices += [((m, edges), value) for m, edges, value in ref["dp_pool"] if m == n]
        for _ in range(count):
            g, value = rng.choice(choices)
            g = _relabel(g, rng)
            path = _graph_file(work, f"dp{len(ops)}", g, rng)
            ops.append(Op(["solve", path, "--method", "dp"], checks.solve_check(g, value)))
    return Workload(ops, ["solve", _warm_graph(work), "--method", "dp"])


# ----------------------------------------------------------- solve-bnb

BNB_FAMILIES = [
    "C3xC5", "C4xC4", "C3xC6", "C4xC5", "C3xC7", "C5xC5",
    "K3xP5", "K4xP4", "K5xP3", "K3xP6", "K6xP3",
]


def solve_bnb(seed, work, ref):
    rng = random.Random(f"solve-bnb/{seed}")
    picks = [(named(f), value_of(f, ref["products"])) for f in BNB_FAMILIES]
    picks += [((n, edges), value) for n, edges, value in ref["bnb_pool"]]
    ops = []
    for g, value in picks:
        g = _relabel(g, rng)
        path = _graph_file(work, f"bnb{len(ops)}", g, rng)
        ops.append(Op(["solve", path, "--method", "bnb"], checks.solve_check(g, value)))
    # The bad-hint fault: an upper hint one below b(G) on graphs where
    # the greedy first incumbent is above b(G).  These inputs do not
    # depend on the seed, so the failed share is the same in every run.
    for k, (n, edges, value) in enumerate(ref["bad_hint"]):
        g = (n, edges)
        path = _graph_file(work, f"badhint{k}", g, None)
        argv = ["solve", path, "--method", "bnb", "--upper-hint", str(value - 1)]
        ops.append(Op(argv, checks.bad_hint_check(g, value), known_fault=True))
    return Workload(ops, ["solve", _warm_graph(work), "--method", "bnb"])


# -------------------------------------------------------- report-sweep

TORUS_SINGLES = ["3x3", "3x4", "3x5", "4x3", "4x4", "5x3"]
KM_PN_GROUPS = [
    ["2x2", "3x2", "4x2"], ["5x2", "6x2"], ["7x2", "8x2"], ["2x3", "3x3"],
    ["4x3", "5x3"], ["2x4", "3x4", "4x4"], ["2x5", "3x5"], ["2x6", "2x7", "2x8"],
]
KM_CN_GROUPS = [["2x3", "2x4", "2x5"], ["2x6", "2x7"], ["3x3", "3x4"], ["3x5", "4x3"], ["4x4", "5x3"]]
# (order, factor); box --order 5 --factor P3 (7-8 s alone) is left out
BOX = (
    [(2, f) for f in ("P4", "C5", "K4")]
    + [(3, f) for f in ("P2", "P3", "P4", "P5", "C3", "C4", "C5", "K3", "K4", "K5")]
    + [(4, f) for f in ("P2", "P3", "C3", "K3")]
    + [(5, "P2")]
)
REPORT_DEFAULTS = {
    "torus": [(m, n) for m in (3, 4) for n in (3, 4, 5)],
    "km-pn": [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)],
    "km-cn": [(3, 3), (3, 4), (4, 3)],
}


def _pairs(group):
    return [tuple(int(x) for x in item.split("x")) for item in group]


def _family_op(suite, instances, products, explicit=True):
    argv = ["report", suite, "--jobs", "1"]
    if explicit:
        argv[2:2] = ["--instances", ",".join(f"{m}x{n}" for m, n in instances)]
    if suite == "km-cn":
        return Op(argv, checks.report_km_cn_check(instances, products))
    return Op(argv, checks.report_family_check(suite, instances))


def report_sweep(seed, work, ref):
    rng = random.Random(f"report-sweep/{seed}")
    products = ref["products"]
    ops = [_family_op(s, REPORT_DEFAULTS[s], products, explicit=False) for s in REPORT_DEFAULTS]
    groups = [("torus", [i]) for i in TORUS_SINGLES]
    groups += [("km-pn", g) for g in KM_PN_GROUPS] + [("km-cn", g) for g in KM_CN_GROUPS]
    for suite, group in groups:
        instances = _pairs(group)
        rng.shuffle(instances)
        ops.append(_family_op(suite, instances, products))
    for order, factor in BOX:
        argv = ["report", "box", "--order", str(order), "--factor", factor, "--jobs", "1"]
        ops.append(Op(argv, checks.report_box_check(order, factor, products)))
    rng.shuffle(ops)
    return Workload(ops, ["report", "torus", "--instances", "3x3", "--jobs", "1"])


# ------------------------------------------------------- verify-reduce

TORI = [(100, 100), (60, 50), (40, 30), (25, 20), (12, 15), (6, 8)]
KM_PN = [(12, 300), (10, 100), (8, 60), (6, 40), (4, 100)]  # even m only


def torus_cleaning(m, n):
    """The corner layout: 4 brushes at (0, 0), 2 along the rest of row 0
    and column 0 short of their far ends; row-major order."""
    counts = [0] * (m * n)
    counts[0] = 4
    for j in range(1, n - 1):
        counts[j] = 2
    for i in range(1, m - 1):
        counts[i * n] = 2
    return counts, list(range(m * n))


def km_pn_cleaning(m, n):
    """Column layout for even m: clique vertex i holds m - 2i brushes in
    the first column, m - 1 - 2i in the middle ones and m - 2 - 2i in
    the last (never below 0); cleaned column by column."""
    counts = [0] * (m * n)
    for i in range(m):
        for j in range(n):
            top = m if j == 0 else m - 2 if j == n - 1 else m - 1
            counts[i * n + j] = max(0, top - 2 * i)
    return counts, [i * n + j for j in range(n) for i in range(m)]


def _moved(counts, order, sigma):
    moved = [0] * len(counts)
    for v, c in enumerate(counts):
        moved[sigma[v]] = c
    return moved, [sigma[v] for v in order]


def verify_reduce(seed, work, ref):
    rng = random.Random(f"verify-reduce/{seed}")
    ops = []
    cases = [("torus", m, n) for m, n in TORI] + [("km-pn", m, n) for m, n in KM_PN]
    for family, m, n in cases:
        tag = f"{'t' if family == 'torus' else 'k'}{m}x{n}"
        g = named(f"C{m}xC{n}" if family == "torus" else f"K{m}xP{n}")
        if family == "torus":
            a, b = rng.randrange(m), rng.randrange(n)
            sigma = [((i + a) % m) * n + (j + b) % n for i in range(m) for j in range(n)]
            counts, order = _moved(*torus_cleaning(m, n), sigma)
        else:
            perm = list(range(m))
            rng.shuffle(perm)
            sigma = [perm[i] * n + j for i in range(m) for j in range(n)]
            counts, order = _moved(*km_pn_cleaning(m, n), sigma)
        if not checks.cleans(adjacency(g), counts, order):
            raise RuntimeError(f"the benchmark's own {tag} cleaning does not clean")
        cfg, src, red = (str(work / f"{kind}-{tag}") for kind in ("cfg", "in", "red"))
        checks.write_graph(f"{src}.graph", g, rng)
        checks.write_config(f"{src}.config", counts)
        checks.write_sequence(f"{src}.sequence", order)
        files = [f"{src}.graph", f"{src}.config"]
        reduce = ["reduce", "torus-rows" if family == "torus" else "clique-layer", str(m), str(n),
                  "--config", f"{src}.config", "--sequence", f"{src}.sequence", "--out-prefix", red]
        reduce_check = (checks.reduce_torus_check if family == "torus" else checks.reduce_clique_check)
        ops += [
            Op(["config", family, str(m), str(n), "--out-prefix", cfg],
               checks.config_check(family, m, n, cfg)),
            Op(["verify", *files, "--sequence", f"{src}.sequence"],
               checks.verify_sequence_check(m * n, sum(counts))),
            Op(["verify", *files], checks.verify_greedy_check(g, counts)),
            Op(reduce, reduce_check(m, n, red)),
            Op(["verify", f"{red}.graph", f"{red}.config", "--sequence", f"{red}.sequence"],
               checks.verify_written_check(red)),
        ]
    return Workload(ops, ["config", "torus", "4", "4", "--out-prefix", str(work / "warm")])


WORKLOADS = {
    "solve-dp": solve_dp,
    "solve-bnb": solve_bnb,
    "report-sweep": report_sweep,
    "verify-reduce": verify_reduce,
}

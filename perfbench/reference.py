"""Reference values for the benchmark, computed apart from graphclean.

Nothing here imports graphclean.  The module holds the benchmark's own
graph constructions, the closed forms of the paper and of the elementary
families, a small exact solver, and the generator of the stored
reference file.  Regenerate that file (a few minutes) with

    python3 perfbench/reference.py

The exact solver is a forward subset DP: every set S of vertices cleaned
so far, taken in increasing bitmask order, pushes its cost to S + v at
the price max(0, deg v - 2 |N(v) & S|), the brushes v must hold when
cleaned after S.  It is pure Python and meant for at most 20 vertices.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REGENERATE = "python3 perfbench/reference.py"


# ------------------------------------------------------------ graphs
# A graph is (n, edges) with edges a sorted list of (u, v), u < v.


def path(k):
    return k, [(i, i + 1) for i in range(k - 1)]


def cycle(k):
    return k, sorted((min(i, (i + 1) % k), max(i, (i + 1) % k)) for i in range(k))


def clique(k):
    return k, [(u, v) for u in range(k) for v in range(u + 1, k)]


FACTORS = {"P": path, "C": cycle, "K": clique}


def product(g, h):
    """Cartesian product; vertex (i, j) of g x h has id i * |h| + j."""
    (m, ge), (n, he) = g, h
    edges = [(i * n + a, i * n + b) for i in range(m) for a, b in he]
    edges += [(a * n + j, b * n + j) for a, b in ge for j in range(n)]
    return m * n, sorted(edges)


def named(name):
    """Graph for a name such as "C15", "K4" or "K3xC5"."""
    parts = name.split("x")
    g = FACTORS[parts[0][0]](int(parts[0][1:]))
    for part in parts[1:]:
        g = product(g, FACTORS[part[0]](int(part[1:])))
    return g


def adjacency(g):
    n, edges = g
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def connected(g):
    n, _ = g
    adj = adjacency(g)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def random_connected(n, p, rng):
    """G(n, p) drawn again until it is connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if connected((n, edges)):
            return n, edges


# ------------------------------------------------------- closed forms


def torus_value(m, n):
    return 2 * (m + n - 2)


def km_pn_value(m, n):
    return n * (m * m // 4) + (m % 2)


def closed_form(name):
    """b(G) from a closed form, or None when the family has none here."""
    parts = name.split("x")
    kinds = "".join(p[0] for p in parts)
    sizes = [int(p[1:]) for p in parts]
    if kinds == "P":
        return 0 if sizes[0] == 1 else 1
    if kinds == "C":
        return 2
    if kinds == "K":
        return sizes[0] * sizes[0] // 4
    if kinds == "CC":
        return torus_value(*sizes)
    if kinds == "KP":
        return km_pn_value(*sizes)
    if kinds == "PK":
        return km_pn_value(sizes[1], sizes[0])
    return None


# ------------------------------------------------------ exact solver


def brush_number(g):
    n, edges = g
    nbr, deg = [0] * n, [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    full = (1 << n) - 1
    best = [1 << 30] * (full + 1)
    best[0] = 0
    for mask in range(full):
        here = best[mask]
        rest = full ^ mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            step = deg[v] - 2 * (nbr[v] & mask).bit_count()
            cost = here + step if step > 0 else here
            if cost < best[mask | low]:
                best[mask | low] = cost
            rest ^= low
    return best[full]


def greedy_value(g):
    """Cost of the order that always cleans the cheapest vertex next
    (lowest id on ties): the first incumbent of a prefix search."""
    n, _ = g
    adj = adjacency(g)
    done, total = set(), 0
    for _ in range(n):
        cost, v = min(
            (max(0, len(adj[v]) - 2 * sum(u in done for u in adj[v])), v)
            for v in range(n)
            if v not in done
        )
        total += cost
        done.add(v)
    return total


# ---------------------------------------------------- stored values

# Random graphs for solve-dp, by vertex count: how many and G(n, p).
DP_POOL = {
    15: (4, (0.25,)), 16: (4, (0.25,)), 17: (6, (0.22,)),
    18: (4, (0.22,)), 19: (6, (0.2,)), 20: (4, (0.2,)),
}
# Random graphs for solve-bnb: eight per vertex count, half at each p.
BNB_POOL = {n: (8, (0.2, 0.3)) for n in range(14, 19)}
BAD_HINT_COUNT = 3

# Products without a closed form here, solved by brush_number.
PRODUCTS = (
    # solve-dp
    ["K3xC5", "K5xC3", "K4xC4", "K2xC8", "K3xC6", "K6xC3", "K2xC9", "K4xC5", "K5xC4", "K2xC10"]
    # report km-cn
    + [f"K2xC{n}" for n in range(3, 8)]
    + ["K3xC3", "K3xC4", "K4xC3"]
    # report box: path and clique ends of each sweep
    + ["P2xP3", "P2xP4", "P2xC3", "P2xC4", "P2xC5", "K2xK3", "K2xK4", "K2xK5"]
    + [f"P3x{h}" for h in ("P2", "P3", "P4", "P5", "C3", "C4", "C5")]
    + ["K3xK3", "K3xK4", "K3xK5"]
    + ["P4xP2", "P4xP3", "P4xC3", "K4xK3", "P5xP2"]
)


def _pool(name, n, p, count):
    # p is a tuple of edge probabilities, used in turn
    rng = random.Random(f"{name}/{n}")
    return [random_connected(n, p[k % len(p)], rng) for k in range(count)]


def regenerate():
    out = {"regenerate": REGENERATE, "dp_pool": [], "bnb_pool": [], "bad_hint": [], "products": {}}
    for n, (count, p) in DP_POOL.items():
        for g in _pool("dp", n, p, count):
            out["dp_pool"].append({"n": n, "edges": g[1], "value": brush_number(g)})
        print(f"dp pool n={n}", file=sys.stderr)
    for n, (count, p) in BNB_POOL.items():
        for g in _pool("bnb", n, p, count):
            out["bnb_pool"].append({"n": n, "edges": g[1], "value": brush_number(g)})
    rng = random.Random("bad-hint")
    while len(out["bad_hint"]) < BAD_HINT_COUNT:
        g = random_connected(10, 0.4, rng)
        value = brush_number(g)
        if greedy_value(g) > value:
            out["bad_hint"].append({"n": 10, "edges": g[1], "value": value})
    for name in PRODUCTS:
        out["products"][name] = brush_number(named(name))
    # the solver must agree with every closed form it can be held to
    for name in ("C3xC5", "C4xC4", "C3xC6", "K3xP5", "K4xP4", "K5xP3", "P3xK4", "C9", "K7", "P6"):
        if brush_number(named(name)) != closed_form(name):
            raise SystemExit(f"reference solver disagrees with the closed form on {name}")
    REFERENCE_FILE.write_text(json.dumps(out, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE_FILE.name}", file=sys.stderr)


def load():
    data = json.loads(REFERENCE_FILE.read_text())
    for key in ("dp_pool", "bnb_pool", "bad_hint"):
        data[key] = [(e["n"], [tuple(x) for x in e["edges"]], e["value"]) for e in data[key]]
    return data


def value_of(name, products):
    """b(G) for a family name: closed form first, stored value otherwise."""
    value = closed_form(name)
    return products[name] if value is None else value


if __name__ == "__main__":
    regenerate()

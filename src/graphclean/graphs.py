"""Simple undirected graphs, products, automorphisms and edge-list text I/O.

Vertices are the integers 0..vertex_count-1 throughout.  Graphs are
immutable once built and always simple (no loops, no parallel edges):
constructors validate every edge they are given, and a product of two
simple graphs is simple by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidParameterError, ParseError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph as a tuple of neighbour sets."""

    vertex_count: int
    adjacency: tuple[frozenset[int], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in sorted order."""
        out = [
            (u, v)
            for u in range(self.vertex_count)
            for v in self.adjacency[u]
            if u < v
        ]
        out.sort()
        return out

    def vertices(self) -> range:
        return range(self.vertex_count)


def graph_from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge iterable.

    Rejects self-loops, duplicate edges (in either order) and endpoints
    outside 0..vertex_count-1.
    """
    if vertex_count < 0:
        raise InvalidParameterError(f"vertex count must be non-negative, got {vertex_count}")
    nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidParameterError(
                f"edge ({u}, {v}) leaves the vertex range 0..{vertex_count - 1}"
            )
        if u == v:
            raise InvalidParameterError(f"self-loop at vertex {u}")
        if v in nbrs[u]:
            raise InvalidParameterError(f"duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(vertex_count, tuple(frozenset(s) for s in nbrs))


def make_path(k: int) -> Graph:
    """Path on k >= 1 vertices, edges i-(i+1)."""
    if k < 1:
        raise InvalidParameterError(f"path needs at least 1 vertex, got {k}")
    return graph_from_edges(k, ((i, i + 1) for i in range(k - 1)))


def make_cycle(k: int) -> Graph:
    """Cycle on k >= 3 vertices."""
    if k < 3:
        raise InvalidParameterError(f"cycle needs at least 3 vertices, got {k}")
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def make_clique(k: int) -> Graph:
    """Complete graph on k >= 1 vertices."""
    if k < 1:
        raise InvalidParameterError(f"clique needs at least 1 vertex, got {k}")
    return graph_from_edges(k, ((u, v) for u in range(k) for v in range(u + 1, k)))


def is_connected(g: Graph) -> bool:
    """Depth-first reachability from vertex 0; the empty graph counts."""
    if g.vertex_count == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for u in g.adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.vertex_count


def automorphisms(g: Graph, limit: int, deadline: float | None = None) -> np.ndarray:
    """Up to limit automorphisms of g, as the rows of an int64 array whose
    entry [a, v] is the image of v under the a-th automorphism.

    Colours start from the degrees and are refined by the multiset of
    neighbour colours until no class splits.  Vertices are mapped in BFS
    order: an image has the vertex's colour, is a neighbour of the
    parent's image (any free vertex for a component's root), and keeps
    adjacency and non-adjacency to every vertex mapped before it.  The
    group G_j fixing the first j vertices of the order is built from
    the last j up: it is G_(j+1) together with t G_(j+1) for one t in
    G_j per other image of vertex j, found by a backtrack.  Past the
    time.monotonic() deadline the groups built so far are returned.
    The identity comes first, and the order depends on g alone.
    """
    n = g.vertex_count
    colour = [g.degree(v) for v in range(n)]
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in g.adjacency[v]))) for v in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(ids) == len(set(colour)):
            break
        colour = [ids[s] for s in sig]
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    nbrs = [sorted(a) for a in g.adjacency]
    order: list[int] = []
    parent: list[int] = []  # position of the BFS parent, -1 for a root
    pos = [-1] * n
    for root in range(n):
        if pos[root] < 0:
            head = pos[root] = len(order)
            order.append(root)
            parent.append(-1)
            while head < len(order):
                for u in nbrs[order[head]]:
                    if pos[u] < 0:
                        pos[u] = len(order)
                        order.append(u)
                        parent.append(head)
                head += 1
    earlier = [[pos[u] for u in nbrs[v] if pos[u] < i] for i, v in enumerate(order)]

    def candidates(img: list[int], used: int) -> list[int]:
        # images allowed for the next position, given img of those before
        i = len(img)
        need = sum(1 << img[j] for j in earlier[i])
        pool = range(n) if parent[i] < 0 else nbrs[img[parent[i]]]
        want = colour[order[i]]
        return [c for c in pool if not used >> c & 1 and colour[c] == want and adj[c] & used == need]

    def extend(img: list[int], used: int) -> list[int] | None:
        # the first full map that extends img, as images by vertex
        base = len(img)
        branches = [iter(candidates(img, used))]
        while branches and (deadline is None or time.monotonic() <= deadline):
            c = next(branches[-1], None)
            if c is None:
                branches.pop()
                if len(img) > base:
                    used ^= 1 << img.pop()
                continue
            img.append(c)
            used |= 1 << c
            if len(img) == n:
                return [img[pos[v]] for v in range(n)]
            branches.append(iter(candidates(img, used)))
        return None

    group = np.arange(n, dtype=np.int64)[None, :]
    for j in reversed(range(n)):
        if len(group) >= limit or (deadline is not None and time.monotonic() > deadline):
            break
        fixed = order[:j]
        used = sum(1 << v for v in fixed)
        reps = []
        for r in candidates(fixed, used):
            if len(group) * (len(reps) + 1) >= limit:
                break
            t = None if r == order[j] else extend(fixed + [r], used | 1 << r)
            if t is not None:
                reps.append(t)
        if reps:
            # (t o s)(v) = t[s[v]] for every rep t and every s in G_(j+1)
            products = np.array(reps, dtype=np.int64)[:, group].reshape(-1, n)
            group = np.concatenate([group, products])[:limit]
    return group[:limit]


@dataclass(frozen=True)
class ProductLabeling:
    """Coordinate map for a product graph: (i, j) <-> flat id i*n + j.

    m is the order of the left factor, n of the right factor.
    """

    m: int
    n: int

    def id(self, i: int, j: int) -> int:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise InvalidParameterError(f"coordinate ({i}, {j}) outside {self.m}x{self.n}")
        return i * self.n + j

    def pair(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.m * self.n:
            raise InvalidParameterError(f"vertex {v} outside 0..{self.m * self.n - 1}")
        return divmod(v, self.n)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for i in range(self.m):
            for j in range(self.n):
                yield (i, j)


def cartesian_product(g: Graph, h: Graph) -> tuple[Graph, ProductLabeling]:
    """Cartesian product of two graphs.

    Vertex (i, j) is adjacent to (i', j) when i~i' in g and to (i, j')
    when j~j' in h.  Returns the product plus the coordinate labeling.
    """
    # a product of simple graphs is simple, so no edge needs validating
    n = h.vertex_count
    adjacency = []
    for i, left in enumerate(g.adjacency):
        column_ids = [k * n for k in left]
        row = i * n
        for j, right in enumerate(h.adjacency):
            adjacency.append(frozenset([c + j for c in column_ids] + [row + k for k in right]))
    return Graph(g.vertex_count * n, tuple(adjacency)), ProductLabeling(g.vertex_count, n)


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    # strips comments ('#' to end of line) and blank lines, keeps 1-based numbers
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _read_header(text: str, tag: str) -> tuple[Iterator[tuple[int, str]], int]:
    """Check the "<tag> N" header of a text format; return the remaining
    numbered data lines and N."""
    lines = _data_lines(text)
    try:
        no, header = next(lines)
    except StopIteration:
        raise ParseError(1, f"missing '{tag} <vertex_count>' header") from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != tag:
        raise ParseError(no, f"expected '{tag} <vertex_count>', got {header!r}")
    try:
        vertex_count = int(parts[1])
    except ValueError:
        raise ParseError(no, f"vertex count {parts[1]!r} is not an integer") from None
    if vertex_count < 0:
        raise ParseError(no, f"vertex count must be non-negative, got {vertex_count}")
    return lines, vertex_count


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a "p N" header, then one "u v" line per edge."""
    lines, vertex_count = _read_header(text, "p")

    nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
    for no, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(no, f"non-integer endpoint in {line!r}") from None
        if u == v:
            raise ParseError(no, f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ParseError(no, f"edge ({u}, {v}) leaves the vertex range")
        if v in nbrs[u]:
            raise ParseError(no, f"duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(vertex_count, tuple(frozenset(s) for s in nbrs))


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: header plus (min, max)-sorted edge lines."""
    out = [f"p {g.vertex_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"

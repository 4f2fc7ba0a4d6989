"""Simple undirected graphs, products, automorphisms and edge-list text I/O.

Vertices are the integers 0..vertex_count-1 throughout.  Graphs are
immutable once built and always simple (no loops, no parallel edges):
constructors validate every edge they are given, and a product of two
simple graphs is simple by construction.
"""

from __future__ import annotations

import time
import warnings
from bisect import bisect
from itertools import accumulate, pairwise, repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InvalidParameterError, ParseError, TooLargeError

if TYPE_CHECKING:
    import numpy as np

# larger header counts are refused unallocated ("p 1000000" alone peaks at 44 MB in solve),
# as built graphs past it or 4x it in arcs are (C1000 x C1000 has 4 * 10^6: 344 MB in config)
MAX_HEADER_VERTICES = 10**6


class Record:
    """Base of the immutable value types.  It stands in for frozen
    dataclasses, whose module (with the inspect module it loads) and
    generated methods took most of the package's import time.

    A subclass's own annotated names, in order, are its fields, and a
    class attribute of the same name is that field's default.  Records
    are built by position or by name and then run __post_init__; they
    compare and hash by class and field values and refuse assignment
    and deletion.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # not the all-positional call
            name = self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
            for key in kwargs:
                if key not in fields:
                    raise TypeError(f"{name}() has no field {key!r}")
                if fields.index(key) < len(args):
                    raise TypeError(f"{name}() got field {key!r} twice")
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            missing = [f for f in fields if f not in values]
            if missing:
                raise TypeError(f"{name}() missing field {missing[0]!r}")
            args = [values[f] for f in fields]
        # one field at a time: filling self.__dict__ in one update would
        # make CPython keep a separate dict and read every field slower
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """Undirected simple graph: adjacency[v] is the tuple of v's
    neighbours in ascending order."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in sorted order."""
        return [(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v]

    def vertices(self) -> range:
        return range(self.vertex_count)


def graph_from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge iterable.

    Rejects self-loops, duplicate edges (in either order) and endpoints
    outside 0..vertex_count-1.
    """
    import numpy as np
    if vertex_count < 0:
        raise InvalidParameterError(f"vertex count must be non-negative, got {vertex_count}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidParameterError(
                f"edge ({u}, {v}) leaves the vertex range 0..{vertex_count - 1}"
            )
        if u == v:
            raise InvalidParameterError(f"self-loop at vertex {u}")
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise InvalidParameterError(f"duplicate edge ({u}, {v})")
        seen.add(edge)
    ends = np.array(list(seen), dtype=np.int64).reshape(-1, 2)
    return Graph(vertex_count, _arc_adjacency(vertex_count, ends))


def _arc_adjacency(vertex_count: int, ends: np.ndarray) -> tuple[tuple[int, ...], ...] | None:
    """Ascending neighbour tuples of the graph whose edges are the rows
    (u, v) of the int64 array ends, or None if a row is a self-loop,
    leaves 0..vertex_count-1 or repeats another row in either order."""
    import numpy as np
    # viewed as unsigned, a negative end lies past every vertex count
    if len(ends) and ends.view(np.uint64).max() >= vertex_count:
        return None
    # arc keys tail * n + head for both directions: sorted, they list the
    # tails in order and each tail's heads ascending; a repeated key is a
    # repeated edge or a self-loop
    arcs = np.sort((ends * vertex_count + ends[:, ::-1]).ravel())
    if (arcs[1:] == arcs[:-1]).any():
        return None
    heads = (arcs % vertex_count).tolist()
    bounds = [0, *accumulate(np.bincount(ends.ravel(), minlength=vertex_count).tolist())]
    return tuple(tuple(heads[a:b]) for a, b in pairwise(bounds))


def _check_order(family: str, k: int, low: int) -> None:
    """Refuse a family member on fewer than low vertices."""
    if k < low:
        raise InvalidParameterError(
            f"{family} needs at least {low} {'vertex' if low == 1 else 'vertices'}, got {k}"
        )


def _check_size(vertices: int, arcs: int) -> None:
    """Refuse a graph to be built with more than MAX_HEADER_VERTICES
    vertices or 4 * MAX_HEADER_VERTICES arcs (twice its edges)."""
    if vertices > MAX_HEADER_VERTICES:
        raise TooLargeError(f"{vertices} vertices exceed the limit of {MAX_HEADER_VERTICES}")
    if arcs > 4 * MAX_HEADER_VERTICES:
        raise TooLargeError(f"{arcs} arcs exceed the limit of {4 * MAX_HEADER_VERTICES}")


def make_path(k: int) -> Graph:
    """Path on k >= 1 vertices, edges i-(i+1)."""
    _check_order("path", k, 1)
    _check_size(k, 2 * k - 2)
    return Graph(k, tuple(tuple(u for u in (v - 1, v + 1) if 0 <= u < k) for v in range(k)))


def make_cycle(k: int) -> Graph:
    """Cycle on k >= 3 vertices."""
    _check_order("cycle", k, 3)
    _check_size(k, 2 * k)
    return Graph(k, tuple(tuple(sorted([(v - 1) % k, (v + 1) % k])) for v in range(k)))


def make_clique(k: int) -> Graph:
    """Complete graph on k >= 1 vertices."""
    _check_order("clique", k, 1)
    _check_size(k, k * (k - 1))
    return Graph(k, tuple(tuple(u for u in range(k) if u != v) for v in range(k)))


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
    import numpy as np
    n = g.vertex_count
    colour = [g.degree(v) for v in range(n)]
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in g.adjacency[v]))) for v in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(ids) == len(set(colour)):
            break
        colour = [ids[s] for s in sig]
    adj = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
    nbrs = g.adjacency
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


class ProductLabeling(Record):
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
    # a product of simple graphs is simple, so no edge needs validating;
    # (i, j)'s neighbours k*n + j with k < i (column j of rows k zipped),
    # then the row i*n + k, then those with k > i, are already ascending
    m, n = g.vertex_count, h.vertex_count
    _check_size(m * n, sum(map(len, g.adjacency)) * n + sum(map(len, h.adjacency)) * m)
    adjacency = []
    for i, left in enumerate(g.adjacency):
        split = bisect(left, i)
        row = i * n
        columns = [range(k * n, k * n + n) for k in left]
        below = zip(*columns[:split]) if split else repeat(())
        above = zip(*columns[split:]) if split < len(left) else repeat(())
        right = [tuple([row + k for k in r]) for r in h.adjacency]
        adjacency += map(tuple.__add__, map(tuple.__add__, below, right), above)
    return Graph(m * n, tuple(adjacency)), ProductLabeling(m, n)


def _data_lines(lines: list[str], start: int) -> Iterator[tuple[int, str]]:
    # lines[start:] numbered from start + 1, without comments ('#' to end
    # of line) and blank lines
    for no in range(start, len(lines)):
        line = lines[no].split("#", 1)[0].strip()
        if line:
            yield no + 1, line


def _read_header(text: str, tag: str) -> tuple[list[str], int, int]:
    """Split text into lines where str.splitlines breaks them and check
    the "<tag> N" header among them; return the lines, N and the index
    of the first line after the header."""
    lines = text.splitlines()
    no, header = next(_data_lines(lines, 0), (0, ""))
    if not header:
        raise ParseError(1, f"missing '{tag} <vertex_count>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != tag:
        raise ParseError(no, f"expected '{tag} <vertex_count>', got {header!r}")
    try:
        vertex_count = int(parts[1])
    except ValueError:
        raise ParseError(no, f"vertex count {parts[1]!r} is not an integer") from None
    if vertex_count < 0:
        raise ParseError(no, f"vertex count must be non-negative, got {vertex_count}")
    if vertex_count > MAX_HEADER_VERTICES:
        raise TooLargeError(f"line {no}: {vertex_count} vertices exceed the limit of {MAX_HEADER_VERTICES}")
    return lines, vertex_count, no


def _bulk_edges(lines: list[str]) -> np.ndarray | None:
    """The "u v" lines as an (E, 2) int64 array, read in one numpy pass;
    None where that read refuses them."""
    import numpy as np
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            ends = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    return ends.reshape(-1, 2) if ends.size == 0 or ends.shape[1] == 2 else None


def _line_edges(lines: Iterator[tuple[int, str]], vertex_count: int) -> np.ndarray:
    # one line at a time: raises ParseError at the first bad line
    import numpy as np
    seen: set[tuple[int, int]] = set()
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
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise ParseError(no, f"duplicate edge ({u}, {v})")
        seen.add(edge)
    return np.array(list(seen), dtype=np.int64).reshape(-1, 2)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a "p N" header, then one "u v" line per edge.

    The lines after the header are read in one numpy pass.  They are read
    one at a time instead when that pass refuses them, when the graph it
    gives is refused, or when the text is not ASCII (numpy 2.4's loadtxt
    turns some non-ASCII tokens into arbitrary integers, or crashes,
    instead of refusing them); that loop names the first bad line.
    """
    lines, vertex_count, body = _read_header(text, "p")
    ends = _bulk_edges(lines[body:]) if text.isascii() else None
    adjacency = None if ends is None else _arc_adjacency(vertex_count, ends)
    if adjacency is None:
        ends = _line_edges(_data_lines(lines, body), vertex_count)
        adjacency = _arc_adjacency(vertex_count, ends)
    return Graph(vertex_count, adjacency)


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: header plus (min, max)-sorted edge lines."""
    out = [f"p {g.vertex_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"

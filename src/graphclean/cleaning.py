"""Cleaning process semantics: configurations, sequences, traces.

The model: every vertex starts with a number of brushes; a vertex may be
cleaned only while it holds at least as many brushes as it has dirty
incident edges, and cleaning it sends exactly one brush along each dirty
edge (surplus brushes stay behind).  A vertex with no dirty incident
edges may always be cleaned, at zero cost.

Positions alone fix each firing of a complete sequence, so the rule
lives in check_cleaning, which moves no brush.  cleaning_order, config
and the constructions' self-checks only need its verdict; fire runs it
first and then reads each step from the positions, for simulate's
CleaningTrace and verify --sequence's step lines.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sized

from .errors import (
    InfeasibleStepError,
    InvalidInputError,
    InvalidSequenceError,
    ParseError,
)
from .graphs import Graph, Record, _data_lines, _read_header


class BrushConfig(Record):
    """Per-vertex brush counts."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise InvalidInputError("brush counts must be non-negative")

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, v: int) -> int:
        return self.counts[v]

    @property
    def total(self) -> int:
        return sum(self.counts)


class CleaningSequence(Record):
    """Order in which vertices are cleaned; a permutation or a prefix of one."""

    order: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise InvalidSequenceError("cleaning sequence repeats a vertex")

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)


class CleaningStep(Record):
    """One firing: which vertex cleaned, what it held, where brushes went."""

    vertex: int
    brushes_before: int
    cleaned_edges: tuple[tuple[int, int], ...]
    forwarded_to: tuple[int, ...]


class CleaningTrace(Record):
    steps: tuple[CleaningStep, ...]
    final_brushes: tuple[int, ...]

    @property
    def total_brushes(self) -> int:
        return sum(self.final_brushes)


def _check_sizes(n: int, counts: Sized, seq: CleaningSequence | None = None) -> None:
    """Refuse counts, and seq when given, unless they cover n vertices,
    with check_cleaning's errors but without a graph."""
    if len(counts) != n:
        raise InvalidInputError(f"config covers {len(counts)} vertices, graph has {n}")
    if seq is not None and len(seq) != n:
        _positions(n, seq)  # refuses seq before it allocates


def _positions(n: int, seq: CleaningSequence) -> list[int]:
    """pos[v] = k when seq fires v k-th; InvalidSequenceError unless seq visits all n vertices."""
    if len(seq) == n:  # a CleaningSequence repeats no vertex
        pos = [0] * n
        for k, v in enumerate(seq.order):
            if not 0 <= v < n:
                break
            pos[v] = k
        else:
            return pos
    raise InvalidSequenceError(f"sequence must visit each of the {n} vertices exactly once")


def minimal_config_for_sequence(g: Graph, seq: CleaningSequence) -> BrushConfig:
    """Fewest brushes per vertex that let seq clean g: each vertex's
    neighbours fired after it less those fired before it, or 0.

    That is max(0, outdegree - indegree) when every edge points from
    its earlier-fired end to its later one (Messinger, Nowakowski and
    Prałat, TCS 2008).
    """
    pos = _positions(g.vertex_count, seq)
    counts = []
    for v, nbrs in enumerate(g.adjacency):
        later = 0
        for u in nbrs:
            if pos[u] > pos[v]:
                later += 1
        counts.append(max(0, 2 * later - len(nbrs)))
    return BrushConfig(tuple(counts))


def fire(
    g: Graph, brushes: list[int], seq: CleaningSequence
) -> Iterator[tuple[int, int, list[int]]]:
    """Fire a complete sequence in order, updating brushes in place.

    Runs check_cleaning first, so it raises InfeasibleStepError, before
    any step, at the first vertex fired with fewer brushes than dirty
    incident edges.  Then yields (vertex, brushes before, sorted
    dirty neighbours) per firing, read from the positions, and leaves
    each vertex its final brushes as it fires.
    """
    pos = check_cleaning(g, BrushConfig(tuple(brushes)), seq)
    adjacency = g.adjacency
    for k, v in enumerate(seq.order):
        nbrs = adjacency[v]
        dirty = [u for u in nbrs if pos[u] > k]
        have = brushes[v] + len(nbrs) - len(dirty)
        brushes[v] = have - len(dirty)
        yield v, have, dirty


def check_cleaning(g: Graph, w0: BrushConfig, seq: CleaningSequence) -> list[int]:
    """Raise InfeasibleStepError unless seq cleans g from w0, else return
    the positions (pos[v] = k when seq fires v k-th).  Moves no brush:
    the vertex v fired k-th holds w0[v] plus one brush per neighbour
    fired before it (each fired while the edge to v was dirty; v sends
    none before it fires) and owes one to each neighbour fired after it,
    so this raises the (vertex, have, need) of the first short vertex in
    seq's order."""
    _check_sizes(g.vertex_count, w0)
    pos = _positions(g.vertex_count, seq)
    adjacency, counts = g.adjacency, w0.counts
    for k, v in enumerate(seq.order):
        need = 0
        nbrs = adjacency[v]
        for u in nbrs:
            if pos[u] > k:
                need += 1
        have = counts[v] + len(nbrs) - need
        if have < need:
            raise InfeasibleStepError(v, have, need)
    return pos


def simulate(g: Graph, w0: BrushConfig, seq: CleaningSequence) -> CleaningTrace:
    """Run fire along a complete sequence and record every step; raises as fire does."""
    brushes = list(w0.counts)
    steps = tuple(
        CleaningStep(v, have, tuple([(v, u) if v < u else (u, v) for u in dirty]), tuple(dirty))
        for v, have, dirty in fire(g, brushes, seq)
    )
    return CleaningTrace(steps, tuple(brushes))


def can_clean(
    g: Graph, w0: BrushConfig
) -> tuple[bool, CleaningSequence | frozenset[int]]:
    """Decide whether some order cleans g from w0.

    Greedy saturation: once a vertex holds at least its dirty degree it
    stays satisfiable (brushes only arrive, dirty edges only disappear),
    so repeatedly firing any satisfiable vertex finds an order exactly
    when one exists.  Returns (True, sequence) or (False, stuck vertices).
    """
    _check_sizes(g.vertex_count, w0)
    n = g.vertex_count
    brushes = list(w0.counts)
    dirty_deg = [g.degree(v) for v in range(n)]
    cleaned = [False] * n
    order: list[int] = []
    ready = [v for v in range(n) if brushes[v] >= dirty_deg[v]]
    heapq.heapify(ready)  # lowest id first, deterministic
    while ready:
        v = heapq.heappop(ready)
        cleaned[v] = True
        order.append(v)
        for u in g.adjacency[v]:
            if not cleaned[u]:
                brushes[u] += 1
                dirty_deg[u] -= 1
                # brushes - dirty rises by 2 a step: 0 or 1 just as u turns ready
                if 0 <= brushes[u] - dirty_deg[u] <= 1:
                    heapq.heappush(ready, u)
    if len(order) == n:
        return True, CleaningSequence(tuple(order))
    return False, frozenset(v for v in range(n) if not cleaned[v])


def cleaning_order(
    g: Graph, w0: BrushConfig, preferred: CleaningSequence
) -> CleaningSequence | None:
    """preferred if it cleans g from w0, else can_clean's greedy order,
    else None when no order cleans."""
    try:
        check_cleaning(g, w0, preferred)
        return preferred
    except InfeasibleStepError:
        ok, found = can_clean(g, w0)
        return found if ok else None  # type: ignore[return-value]


def parse_brush_config(text: str) -> BrushConfig:
    """Parse the config format: "b N" header, then "v count" lines."""
    lines, vertex_count, body = _read_header(text, "b")

    counts = [0] * vertex_count
    seen: set[int] = set()
    for no, line in _data_lines(lines, body):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, f"expected 'vertex count', got {line!r}")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(no, f"non-integer field in {line!r}") from None
        if not 0 <= v < vertex_count:
            raise ParseError(no, f"vertex {v} outside 0..{vertex_count - 1}")
        if v in seen:
            raise ParseError(no, f"vertex {v} listed twice")
        if c < 0:
            raise ParseError(no, f"negative brush count at vertex {v}")
        seen.add(v)
        counts[v] = c
    return BrushConfig(tuple(counts))


def serialize_brush_config(w0: BrushConfig) -> str:
    out = [f"b {len(w0)}"]
    out.extend(f"{v} {c}" for v, c in enumerate(w0.counts) if c)
    return "\n".join(out) + "\n"


def parse_sequence(text: str) -> CleaningSequence:
    """Parse the sequence format: "s N" header, then whitespace-separated ids."""
    lines, vertex_count, body = _read_header(text, "s")

    ids: list[int] = []
    seen: set[int] = set()
    for no, line in _data_lines(lines, body):
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(no, f"non-integer id {tok!r}") from None
            if not 0 <= v < vertex_count:
                raise ParseError(no, f"vertex {v} outside 0..{vertex_count - 1}")
            if v in seen:
                raise ParseError(no, f"vertex {v} repeated")
            seen.add(v)
            ids.append(v)
    return CleaningSequence(tuple(ids))


def serialize_sequence(seq: CleaningSequence, vertex_count: int | None = None) -> str:
    n = len(seq) if vertex_count is None else vertex_count
    body = " ".join(str(v) for v in seq.order)
    return f"s {n}\n{body}\n" if body else f"s {n}\n"

"""Cleaning process semantics: configurations, sequences, orientations, traces.

The model: every vertex starts with a number of brushes; a vertex may be
cleaned only while it holds at least as many brushes as it has dirty
incident edges, and cleaning it sends exactly one brush along each dirty
edge (surplus brushes stay behind).  A vertex with no dirty incident
edges may always be cleaned, at zero cost.

The rule lives in one loop, fire.  simulate records its firings as a
CleaningTrace and verify --sequence prints them; check_cleaning,
cleaning_order, config and the constructions' self-checks only need
the loop to finish, so they build no steps.
"""

from __future__ import annotations

import graphlib
import heapq
from collections import deque
from collections.abc import Iterator, Sized

from .errors import (
    InfeasibleStepError,
    InvalidInputError,
    InvalidOrientationError,
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


class Orientation(Record):
    """A direction (tail, head) for every edge of a host graph."""

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]

    def out_degrees(self) -> list[int]:
        out = [0] * self.vertex_count
        for tail, _ in self.arcs:
            out[tail] += 1
        return out

    def in_degrees(self) -> list[int]:
        out = [0] * self.vertex_count
        for _, head in self.arcs:
            out[head] += 1
        return out


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


def _check_sizes(g: Graph, counts: Sized) -> None:
    if len(counts) != g.vertex_count:
        raise InvalidInputError(
            f"config covers {len(counts)} vertices, graph has {g.vertex_count}"
        )


def _check_complete(g: Graph, seq: CleaningSequence) -> None:
    if len(seq) != g.vertex_count or not all(
        0 <= v < g.vertex_count for v in seq.order
    ):
        raise InvalidSequenceError(
            f"sequence must visit each of the {g.vertex_count} vertices exactly once"
        )


def orientation_from_sequence(g: Graph, seq: CleaningSequence) -> Orientation:
    """Direct every edge from its earlier-cleaned endpoint to the later one."""
    _check_complete(g, seq)
    pos = {v: k for k, v in enumerate(seq.order)}
    arcs = tuple(
        (u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges()
    )
    return Orientation(g.vertex_count, arcs)


def verify_acyclic(o: Orientation) -> bool:
    """True when the oriented edges admit a topological order."""
    preds: dict[int, list[int]] = {v: [] for v in range(o.vertex_count)}
    for tail, head in o.arcs:
        preds[head].append(tail)
    try:
        list(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError:
        return False
    return True


def brush_cost(g: Graph, o: Orientation) -> int:
    """Sum over vertices of max(0, outdegree - indegree)."""
    undirected = {(min(t, h), max(t, h)) for t, h in o.arcs}
    if len(undirected) != len(o.arcs) or undirected != set(g.edges()):
        raise InvalidOrientationError("orientation does not match the graph's edge set")
    outs, ins = o.out_degrees(), o.in_degrees()
    return sum(max(0, d_out - d_in) for d_out, d_in in zip(outs, ins))


def minimal_config_for_sequence(g: Graph, seq: CleaningSequence) -> BrushConfig:
    """Fewest brushes per vertex that let seq clean g.

    Equals max(0, outdegree - indegree) under the orientation induced
    by the sequence.
    """
    o = orientation_from_sequence(g, seq)
    outs, ins = o.out_degrees(), o.in_degrees()
    return BrushConfig(
        tuple(max(0, d_out - d_in) for d_out, d_in in zip(outs, ins))
    )


def fire(
    g: Graph, brushes: list[int], seq: CleaningSequence
) -> Iterator[tuple[int, int, list[int]]]:
    """Fire a complete sequence in order, updating brushes in place.

    Yields (vertex, brushes before, sorted dirty neighbours) per firing.
    Raises InfeasibleStepError at the first vertex fired with fewer
    brushes than dirty incident edges.
    """
    _check_sizes(g, brushes)
    _check_complete(g, seq)
    adjacency = g.adjacency
    cleaned = [False] * g.vertex_count
    for v in seq:
        dirty = [u for u in adjacency[v] if not cleaned[u]]
        have, need = brushes[v], len(dirty)
        if have < need:
            raise InfeasibleStepError(v, have, need)
        for u in dirty:
            brushes[u] += 1
        brushes[v] -= need
        cleaned[v] = True
        yield v, have, dirty


def check_cleaning(g: Graph, w0: BrushConfig, seq: CleaningSequence) -> None:
    """Raise InfeasibleStepError unless seq cleans g from w0; builds no steps."""
    deque(fire(g, list(w0.counts), seq), maxlen=0)


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
    _check_sizes(g, w0)
    n = g.vertex_count
    brushes = list(w0.counts)
    dirty_deg = [g.degree(v) for v in range(n)]
    cleaned = [False] * n
    order: list[int] = []
    ready = [v for v in range(n) if brushes[v] >= dirty_deg[v]]
    heapq.heapify(ready)  # lowest id first, deterministic
    queued = set(ready)
    while ready:
        v = heapq.heappop(ready)
        cleaned[v] = True
        order.append(v)
        for u in g.adjacency[v]:
            if not cleaned[u]:
                brushes[u] += 1
                dirty_deg[u] -= 1
                if brushes[u] >= dirty_deg[u] and u not in queued:
                    heapq.heappush(ready, u)
                    queued.add(u)
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

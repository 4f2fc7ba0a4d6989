"""Brush bookkeeping: the orientation oracle, simulation, the greedy
cleanability test, and the two small file formats.

The exhaustive searcher at the bottom is the reference for can_clean:
it tries every firing order, so greedy agreeing with it on random
instances certifies that firing order never matters for success.
"""

import graphlib
from collections import deque
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from graphclean import (
    BrushConfig,
    CleaningSequence,
    InfeasibleStepError,
    InvalidInputError,
    InvalidSequenceError,
    ParseError,
    can_clean,
    cartesian_product,
    graph_from_edges,
    make_clique,
    make_cycle,
    make_path,
    minimal_config_for_sequence,
    parse_brush_config,
    parse_sequence,
    serialize_brush_config,
    serialize_sequence,
    simulate,
    torus_config,
    torus_sequence,
)
from graphclean.cleaning import check_cleaning, fire


@st.composite
def graphs(draw, min_vertices=1, max_vertices=7):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


@st.composite
def graph_with_sequence(draw, max_vertices=7):
    g = draw(graphs(max_vertices=max_vertices))
    order = draw(st.permutations(range(g.vertex_count)))
    return g, CleaningSequence(tuple(order))


# ------------------------------------------------- the orientation oracle
# A complete order directs every edge from its earlier-fired end to its
# later one; the brushes the order needs are the sum of max(0, out - in)
# over that acyclic orientation (Messinger, Nowakowski and Prałat, TCS
# 2008).  The library computes them from positions alone.

def orient(g, seq):
    pos = {v: k for k, v in enumerate(seq.order)}
    return [(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges()]


def acyclic(n, arcs):
    preds = {v: [] for v in range(n)}
    for tail, head in arcs:
        preds[head].append(tail)
    try:
        list(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError:
        return False
    return True


def imbalance(n, arcs):
    """out(v) - in(v) for every vertex v."""
    diff = [0] * n
    for tail, head in arcs:
        diff[tail] += 1
        diff[head] -= 1
    return diff


def brush_cost(n, arcs):
    return sum(max(0, d) for d in imbalance(n, arcs))


def test_orientation_path():
    assert set(orient(make_path(3), CleaningSequence((0, 1, 2)))) == {(0, 1), (1, 2)}


def test_orientation_triangle():
    arcs = orient(make_cycle(3), CleaningSequence((0, 1, 2)))
    assert set(arcs) == {(0, 1), (0, 2), (1, 2)}


def test_orientation_square_interleaved():
    arcs = orient(make_cycle(4), CleaningSequence((0, 2, 1, 3)))
    assert set(arcs) == {(0, 1), (0, 3), (2, 1), (2, 3)}


def test_sequence_rejects_repeats():
    with pytest.raises(InvalidSequenceError):
        CleaningSequence((0, 1, 1))


def test_orientation_rejects_wrong_length():
    for order in (0, 1), (0, 1, 3):
        with pytest.raises(InvalidSequenceError):
            minimal_config_for_sequence(make_path(3), CleaningSequence(order))


@given(graph_with_sequence())
def test_sequence_orientations_are_acyclic(gs):
    g, seq = gs
    assert acyclic(g.vertex_count, orient(g, seq))


def test_cyclic_orientations_detected():
    assert not acyclic(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not acyclic(3, [(0, 1), (1, 2), (2, 0)])


# ------------------------------------------------------------ brush cost

def test_brush_cost_clique_order():
    # frozen from a direct count of later-minus-earlier neighbors
    g = make_clique(4)
    seq = CleaningSequence((0, 1, 2, 3))
    assert brush_cost(4, orient(g, seq)) == 4
    assert minimal_config_for_sequence(g, seq).counts == (3, 1, 0, 0)


def test_minimal_config_path():
    cfg = minimal_config_for_sequence(make_path(3), CleaningSequence((0, 1, 2)))
    assert cfg.counts == (1, 0, 0)


@given(graph_with_sequence())
def test_minimal_config_is_the_orientation_imbalance(gs):
    g, seq = gs
    diff = imbalance(g.vertex_count, orient(g, seq))
    assert minimal_config_for_sequence(g, seq).counts == tuple(max(0, d) for d in diff)


@given(graph_with_sequence())
def test_cost_equals_half_total_imbalance(gs):
    g, seq = gs
    diff = imbalance(g.vertex_count, orient(g, seq))
    assert 2 * minimal_config_for_sequence(g, seq).total == sum(abs(d) for d in diff)


# ------------------------------------------------------------ simulation

def test_simulate_path_forwarding():
    g = make_path(3)
    trace = simulate(g, BrushConfig((1, 0, 0)), CleaningSequence((0, 1, 2)))
    assert trace.total_brushes == 1
    assert trace.steps[1].vertex == 1
    assert trace.steps[1].brushes_before == 1
    assert trace.steps[1].forwarded_to == (2,)


def test_simulate_rejects_empty_config():
    with pytest.raises(InfeasibleStepError) as info:
        simulate(make_path(3), BrushConfig((0, 0, 0)), CleaningSequence((0, 1, 2)))
    assert info.value.vertex == 0 and info.value.need == 1


def test_simulate_torus_canonical():
    g, _ = cartesian_product(make_cycle(3), make_cycle(3))
    trace = simulate(g, torus_config(3, 3), torus_sequence(3, 3))
    assert trace.total_brushes == 8


@given(graph_with_sequence())
def test_simulation_conserves_brushes(gs):
    g, seq = gs
    w0 = minimal_config_for_sequence(g, seq)
    trace = simulate(g, w0, seq)
    assert sum(trace.final_brushes) == w0.total
    cleaned = [e for step in trace.steps for e in step.cleaned_edges]
    assert sorted(cleaned) == g.edges()



def _reference_run(g, w0, seq):
    """Fire seq by counting alone: a vertex holds its brushes plus one per
    earlier neighbour and owes one per later neighbour.  Returns the
    first short (vertex, have, need), or None, and the final brushes."""
    pos = {v: k for k, v in enumerate(seq)}
    earlier = [sum(1 for u in g.adjacency[v] if pos[u] < pos[v]) for v in range(g.vertex_count)]
    short = next(
        (
            (v, w0[v] + earlier[v], g.degree(v) - earlier[v])
            for v in seq
            if w0[v] + earlier[v] < g.degree(v) - earlier[v]
        ),
        None,
    )
    final = tuple(w0[v] + 2 * earlier[v] - g.degree(v) for v in range(g.vertex_count))
    return short, final


@given(graph_with_sequence(max_vertices=9), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_firing_paths_agree(gs, stocked, data):
    # stocked configs add to the sequence's minimal config and always
    # clean; the others are drawn freely and mostly stop at a short vertex
    g, seq = gs
    floor = minimal_config_for_sequence(g, seq).counts if stocked else (0,) * g.vertex_count
    w0 = BrushConfig(
        tuple(
            floor[v] + data.draw(st.integers(0, max(1, g.degree(v))), label=f"w0[{v}]")
            for v in range(g.vertex_count)
        )
    )
    short, final = _reference_run(g, w0, seq)
    brushes = list(w0.counts)
    runs = [
        lambda: check_cleaning(g, w0, seq),
        lambda: deque(fire(g, brushes, seq), maxlen=0),
        lambda: simulate(g, w0, seq),
    ]
    if short is None:
        for run in runs:
            run()
        assert tuple(brushes) == simulate(g, w0, seq).final_brushes == final
        assert can_clean(g, w0)[0]
    else:
        assert not stocked
        for run in runs:
            with pytest.raises(InfeasibleStepError) as info:
                run()
            assert (info.value.vertex, info.value.have, info.value.need) == short


def test_config_rejects_negative():
    with pytest.raises(InvalidInputError):
        BrushConfig((1, -1))


# ------------------------------------------------------- greedy cleaning

def test_can_clean_fully_stocked():
    g = make_clique(5)
    ok, seq = can_clean(g, BrushConfig(tuple(g.degree(v) for v in g.vertices())))
    assert ok and len(seq) == 5


def test_can_clean_square():
    # frozen from the exact solver: b(C4) = 2
    ok, seq = can_clean(make_cycle(4), BrushConfig((2, 0, 0, 0)))
    assert ok
    simulate(make_cycle(4), BrushConfig((2, 0, 0, 0)), seq)

    ok, blocked = can_clean(make_cycle(4), BrushConfig((1, 1, 0, 0)))
    assert not ok and blocked == frozenset({0, 1, 2, 3})


def test_can_clean_reports_blocked():
    ok, blocked = can_clean(make_path(3), BrushConfig((0, 0, 0)))
    assert not ok and blocked == frozenset({0, 1, 2})


def _cleanable_exhaustive(g, w0):
    """Try every firing order, memoizing on the set of fired vertices."""
    n = g.vertex_count
    full = (1 << n) - 1
    seen = set()

    def fired_ok(v, mask):
        have = w0[v] + sum(1 for u in g.adjacency[v] if mask >> u & 1)
        dirty = sum(1 for u in g.adjacency[v] if not mask >> u & 1)
        return have >= dirty

    def walk(mask):
        if mask == full:
            return True
        if mask in seen:
            return False
        seen.add(mask)
        return any(
            fired_ok(v, mask) and walk(mask | 1 << v)
            for v in range(n)
            if not mask >> v & 1
        )

    return walk(0)


@given(graphs(max_vertices=6), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_matches_exhaustive(g, data):
    counts = tuple(
        data.draw(st.integers(0, max(1, g.degree(v))), label=f"w0[{v}]")
        for v in range(g.vertex_count)
    )
    ok, _ = can_clean(g, BrushConfig(counts))
    assert ok == _cleanable_exhaustive(g, BrushConfig(counts))


def _greedy_reference(g, w0):
    """Fire the lowest-id unfired vertex holding at least its dirty edges,
    rescanning every vertex each step; returns the order and the rest."""
    brushes = list(w0.counts)
    dirty = [g.degree(v) for v in g.vertices()]
    left = set(g.vertices())
    order = []
    while True:
        ready = [v for v in sorted(left) if brushes[v] >= dirty[v]]
        if not ready:
            return order, frozenset(left)
        v = ready[0]
        left.remove(v)
        order.append(v)
        for u in g.adjacency[v]:
            if u in left:
                brushes[u] += 1
                dirty[u] -= 1


@given(graphs(max_vertices=8), st.data())
@settings(max_examples=300, deadline=None)
def test_can_clean_fires_lowest_ready_vertex(g, data):
    counts = tuple(
        data.draw(st.integers(0, max(1, g.degree(v))), label=f"w0[{v}]")
        for v in range(g.vertex_count)
    )
    order, stuck = _greedy_reference(g, BrushConfig(counts))
    ok, found = can_clean(g, BrushConfig(counts))
    if ok:
        assert not stuck and found.order == tuple(order)
    else:
        assert stuck and found == stuck


@given(graph_with_sequence(max_vertices=6))
def test_minimal_config_is_cleanable(gs):
    g, seq = gs
    ok, _ = can_clean(g, minimal_config_for_sequence(g, seq))
    assert ok


# ----------------------------------------------------------- file formats

def test_config_round_trip_examples():
    cfg = BrushConfig((0, 3, 0, 1))
    text = serialize_brush_config(cfg)
    assert text.splitlines() == ["b 4", "1 3", "3 1"]
    assert parse_brush_config(text) == cfg


def test_sequence_round_trip_examples():
    seq = CleaningSequence((2, 0, 1))
    text = serialize_sequence(seq, 3)
    assert text.splitlines() == ["s 3", "2 0 1"]
    assert parse_sequence(text) == seq


@given(st.lists(st.integers(0, 9), min_size=1, max_size=12))
def test_config_round_trip(counts):
    cfg = BrushConfig(tuple(counts))
    assert parse_brush_config(serialize_brush_config(cfg)) == cfg


@given(st.permutations(list(range(9))))
def test_sequence_round_trip(order):
    seq = CleaningSequence(tuple(order))
    assert parse_sequence(serialize_sequence(seq, 9)) == seq


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_brush_config("b 2\n0 1\n1 -2\n")
    assert info.value.line_no == 3
    with pytest.raises(ParseError) as info:
        parse_sequence("s 3\n0 1 1\n")
    assert info.value.line_no == 2


def test_parse_sequence_repeat_names_its_line():
    with pytest.raises(ParseError) as info:
        parse_sequence("s 5\n0 1\n# comment\n2 3 1\n")
    assert info.value.line_no == 4
    assert info.value.message == "vertex 1 repeated"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("b 3\n0 1\n1\n", 3, "expected 'vertex count', got '1'"),
        ("b 3\n0 1 2\n", 2, "expected 'vertex count', got '0 1 2'"),
        ("b 3\n# note\n0 x\n", 3, "non-integer field in '0 x'"),
        ("b 3\n3 1\n", 2, "vertex 3 outside 0..2"),
        ("b 3\n-1 1\n", 2, "vertex -1 outside 0..2"),
        ("b 3\n0 1\n2 1\n0 2\n", 4, "vertex 0 listed twice"),
    ],
)
def test_parse_brush_config_errors_name_their_line(text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse_brush_config(text)
    assert (info.value.line_no, info.value.message) == (line_no, message)


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("s 3\n0 1\nx\n", 3, "non-integer id 'x'"),
        ("s 3\n0 3\n", 2, "vertex 3 outside 0..2"),
        ("s 3\n\n-1\n", 3, "vertex -1 outside 0..2"),
    ],
)
def test_parse_sequence_errors_name_their_line(text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse_sequence(text)
    assert (info.value.line_no, info.value.message) == (line_no, message)


def _permutation_min(g):
    best = None
    for order in permutations(range(g.vertex_count)):
        cost = minimal_config_for_sequence(g, CleaningSequence(order)).total
        best = cost if best is None else min(best, cost)
    return best


def test_triangle_orders_all_cost_two():
    # every one of the 3! orders lands on the same total
    g = make_cycle(3)
    totals = {
        minimal_config_for_sequence(g, CleaningSequence(order)).total
        for order in permutations(range(3))
    }
    assert totals == {2}
    assert _permutation_min(g) == 2

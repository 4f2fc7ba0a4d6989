"""Exact solvers against each other and against frozen small values.

brute_force_permutations is the ground truth here: it tries every
cleaning order outright.  The DP must reproduce it everywhere, and
branch-and-bound must reproduce the DP.
"""

import random
import tracemalloc
from itertools import combinations
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphclean import (
    BoxConjectureReport,
    CleaningSequence,
    InvalidParameterError,
    TooLargeError,
    automorphisms,
    brush_number_bnb,
    brush_number_dp,
    brute_force_permutations,
    cartesian_product,
    check_box_conjecture,
    graph_from_edges,
    is_connected,
    make_clique,
    make_cycle,
    make_path,
    minimal_config_for_sequence,
    parity_lower_bound,
    simulate,
    solve,
)
from graphclean import solver
from graphclean.constructions import FAMILIES

SOLVERS = {
    "dp": brush_number_dp,
    "bnb": brush_number_bnb,
    "brute": brute_force_permutations,
}


@st.composite
def graphs(draw, min_vertices=1, max_vertices=7):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


def random_graph(rng, n, p=0.5):
    return graph_from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


# ----------------------------------------------------------- fixed values

FROZEN = [
    (make_path(5), 1),
    (make_path(4), 1),
    (make_clique(5), 6),
    (make_clique(6), 9),
    (make_cycle(3), 2),
    (make_cycle(5), 2),  # frozen from the 5! permutation sweep
    (make_cycle(6), 2),
    (graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]), 2),  # star: not every tree is 1
]


@pytest.mark.parametrize("g,expected", FROZEN)
def test_known_values_dp(g, expected):
    assert brush_number_dp(g).value == expected


@pytest.mark.parametrize("g,expected", [(g, e) for g, e in FROZEN if g.vertex_count <= 6])
def test_known_values_brute(g, expected):
    assert brute_force_permutations(g).value == expected


def test_known_product_values():
    g, _ = cartesian_product(make_cycle(3), make_cycle(4))
    assert brush_number_dp(g).value == 10
    g, _ = cartesian_product(make_clique(4), make_path(2))
    assert brush_number_dp(g).value == 8


def test_empty_and_single_vertex():
    assert brush_number_dp(graph_from_edges(1, [])).value == 0
    assert brush_number_dp(make_path(2)).value == 1


# --------------------------------------------------------- cross checks

def test_dp_matches_brute_seeded():
    rng = random.Random(1009)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8))
        assert brush_number_dp(g).value == brute_force_permutations(g).value


@given(graphs(max_vertices=6))
@settings(max_examples=80, deadline=None)
def test_dp_matches_brute(g):
    assert brush_number_dp(g).value == brute_force_permutations(g).value


@given(graphs(max_vertices=7))
@settings(max_examples=60, deadline=None)
def test_bnb_matches_dp(g):
    dp = brush_number_dp(g)
    assert brush_number_bnb(g).value == dp.value
    # a hint equal to the optimum must not break exactness
    assert brush_number_bnb(g, dp.value).value == dp.value


@st.composite
def symmetric_or_random_graphs(draw):
    # 8-12 vertices: a random graph, or a random left factor times K2, P3
    # or C3, whose group has at least two automorphisms to key by
    if draw(st.booleans()):
        return draw(graphs(min_vertices=8, max_vertices=12))
    right = draw(st.sampled_from([make_path(2), make_path(3), make_cycle(3)]))
    k = right.vertex_count
    left = draw(graphs(min_vertices=-(-8 // k), max_vertices=12 // k))
    return cartesian_product(left, right)[0]


@given(symmetric_or_random_graphs(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_bnb_matches_dp_past_brute_reach(g, orbit_keys):
    # zero-cost vertices are forced moves: the search must still reach
    # b(G) on plain and orbit keys, and prove it under upper_hint = b(G)
    b = brush_number_dp(g).value
    # a least group of 1 keys every search by orbits; one above the most
    # automorphisms the search reads keys none
    least_group = 1 if orbit_keys else solver.ORBIT_MAX_GROUP + 1
    with patch.object(solver, "ORBIT_MIN_GROUP", least_group):
        for hint in (None, b):
            result = brush_number_bnb(g, hint, timeout=None)
            assert (result.value, result.complete) == (b, True)
            assert minimal_config_for_sequence(g, result.witness).total == b


@given(graphs(max_vertices=7))
def test_parity_bound_holds(g):
    assert parity_lower_bound(g) <= brush_number_dp(g).value


def test_parity_bound_examples():
    assert parity_lower_bound(make_cycle(6)) == 0
    assert parity_lower_bound(make_path(5)) == 1
    assert parity_lower_bound(make_clique(4)) == 2


@pytest.mark.parametrize("method", list(SOLVERS))
@given(g=graphs(min_vertices=1, max_vertices=6))
@settings(max_examples=40, deadline=None)
def test_witness_achieves_value(method, g):
    result = SOLVERS[method](g)
    w0 = minimal_config_for_sequence(g, result.witness)
    assert w0.total == result.value
    simulate(g, w0, result.witness)


@given(graphs(min_vertices=2, max_vertices=6))
def test_isolated_vertex_is_free(g):
    padded = graph_from_edges(g.vertex_count + 1, g.edges())
    assert brush_number_dp(padded).value == brush_number_dp(g).value


def test_witness_deterministic():
    # the DP splits off S, the lowest mask of floor(n/2) vertices with the
    # least f(S) + f(V - S) - cut(S); each half is walked back from its
    # full set, removing the lowest vertex id the table allows, and the
    # witness is S's order followed by the reverse of V - S's order
    assert brush_number_dp(make_cycle(5)).witness.order == (1, 0, 2, 3, 4)
    assert brush_number_dp(make_cycle(6)).witness.order == (2, 1, 0, 3, 4, 5)


# ------------------------------------------------ the reversal identity

@given(st.data())
@settings(max_examples=100, deadline=None)
def test_reversed_order_costs_the_same(data):
    # the half-depth DP rests on this: reversing an order swaps in- and
    # out-degrees, and sum(max(0, out - in)) = sum(max(0, in - out))
    g = data.draw(graphs(max_vertices=10))
    order = tuple(data.draw(st.permutations(range(g.vertex_count))))
    forward = minimal_config_for_sequence(g, CleaningSequence(order)).total
    backward = minimal_config_for_sequence(g, CleaningSequence(order[::-1])).total
    assert forward == backward


def full_subset_dp(g):
    """f(V) of the subset DP with every layer filled, no reversal."""
    n = g.vertex_count
    nbrs = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    f = [0] * (1 << n)
    for s in range(1, 1 << n):
        f[s] = min(
            f[s ^ 1 << v] + max(0, g.degree(v) - 2 * (nbrs[v] & s).bit_count())
            for v in range(n)
            if s >> v & 1
        )
    return f[-1]


@pytest.mark.parametrize("n", range(13))
def test_dp_matches_full_table_dp(n):
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = random_graph(rng, n, p)
        # every vertex id divisible by 3 isolated, vertex 0 included
        sparse = graph_from_edges(n, [(u, w) for u, w in g.edges() if u % 3 and w % 3])
        for h in (g, sparse):
            assert brush_number_dp(h).value == full_subset_dp(h)


PRODUCTS_15_TO_20 = [
    ("torus", m, n) for m, n in [(3, 5), (4, 4), (3, 6), (4, 5)]
] + [("km-pn", m, n) for m, n in [(3, 5), (5, 3), (4, 4), (3, 6), (6, 3), (4, 5), (5, 4)]]


@pytest.mark.parametrize("family, m, n", PRODUCTS_15_TO_20)
def test_witness_rescores_on_products(family, m, n):
    g = FAMILIES[family].build(m, n)
    result = brush_number_dp(g)
    assert result.value == FAMILIES[family].formula(m, n)
    assert minimal_config_for_sequence(g, result.witness).total == result.value


# ------------------------------------- pruned DP against the unpruned one

def unpruned_half_dp(g):
    """(value, order) of the half-depth DP with every set of at most
    ceil(n/2) vertices filled: the lowest mask wins the split, and the
    walk-back takes off the lowest vertex id that the table accounts for."""
    n = g.vertex_count
    nbrs = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    full, half = (1 << n) - 1, n // 2

    def step(v, s):
        return max(0, g.degree(v) - 2 * (nbrs[v] & s).bit_count())

    f = {0: 0}
    for s in range(1, full + 1):
        if s.bit_count() <= n - half:
            f[s] = min(f[s ^ 1 << v] + step(v, s ^ 1 << v) for v in range(n) if s >> v & 1)

    def cut(s):
        return sum((nbrs[v] & ~s).bit_count() for v in range(n) if s >> v & 1)

    value, s = min(
        (f[s] + f[full ^ s] - cut(s), s) for s in range(full + 1) if s.bit_count() == half
    )

    def walk_back(s):
        seq = []
        while s:
            seq.append(next(
                v for v in range(n)
                if s >> v & 1 and f[s] == f[s ^ 1 << v] + step(v, s ^ 1 << v)
            ))
            s ^= 1 << seq[-1]
        return seq

    return value, tuple(walk_back(s)[::-1] + walk_back(full ^ s))


def seeded_cases():
    # the edgeless graph and K9 prune nothing and their greedy order is
    # optimal; the BAD_HINT_EDGES graph's greedy order costs 8 > b = 7
    cases = [graph_from_edges(10, []), make_clique(9), graph_from_edges(10, BAD_HINT_EDGES)]
    rng = random.Random(13)
    return cases + [random_graph(rng, n, p) for n in range(11) for p in (0.2, 0.4, 0.6, 0.8)]


def test_pruned_dp_matches_unpruned_seeded():
    for g in seeded_cases():
        result = brush_number_dp(g)
        assert (result.value, result.witness.order) == unpruned_half_dp(g)


@given(graphs(max_vertices=10))
@settings(max_examples=80, deadline=None)
def test_pruned_dp_matches_unpruned(g):
    result = brush_number_dp(g)
    assert (result.value, result.witness.order) == unpruned_half_dp(g)


# f is uint8 with 255 as unreached, and no order on the DP's 31 vertices
# costs over 240; a looser cap only prunes less, so the value and
# witness stay those of the full table

@pytest.mark.parametrize("cap", [126, 127, 200, 240])
def test_loose_caps_match_unpruned_seeded(monkeypatch, cap):
    greedy = solver._greedy_order
    monkeypatch.setattr(solver, "_greedy_order", lambda g: (greedy(g)[0], cap))
    for g in seeded_cases():
        result = brush_number_dp(g)
        assert (result.value, result.witness.order) == unpruned_half_dp(g)


@pytest.mark.parametrize("n", [22, 23])
def test_clique_join_sums_past_int8(n):
    # K22: f(S) + f(V - S) = 121 + 121 on a uint8 table; K23: cap 132,
    # and 2h(S) = -132 on the half layer leaves int8
    g = make_clique(n)
    result = brush_number_dp(g, max_vertices=23)
    assert result.value == n * n // 4
    assert minimal_config_for_sequence(g, result.witness).total == result.value


# At the default chunk size no layer of a graph on at most 10 vertices
# spans two chunks; with 3 sets a chunk, a set reached from parents in
# two chunks is new in the first and must keep the lower cost of both.

def test_small_chunks_match_unpruned_seeded(monkeypatch):
    monkeypatch.setattr(solver, "DP_CHUNK_ROWS", 3)
    for g in seeded_cases():
        result = brush_number_dp(g)
        assert (result.value, result.witness.order) == unpruned_half_dp(g)


@given(graphs(max_vertices=10))
@settings(max_examples=80, deadline=None)
def test_small_chunks_match_unpruned(g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "DP_CHUNK_ROWS", 3)
        result = brush_number_dp(g)
    assert (result.value, result.witness.order) == unpruned_half_dp(g)


# (value, witness order) on 15 to 20 vertices, where the unpruned DP is
# too slow to compare against, recorded from the set-major kernel that
# carried full deficits: a new layout of the layer loop must match them
GOLDEN_DP = {
    ("torus", 3, 5): (12, (6, 5, 4, 3, 0, 1, 2, 7, 8, 9, 10, 11, 12, 13, 14)),
    ("torus", 4, 4): (12, (7, 6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15)),
    ("torus", 3, 6): (14, (8, 7, 6, 5, 4, 0, 1, 2, 3, 9, 10, 11, 12, 13, 14, 15, 16, 17)),
    ("torus", 4, 5): (
        14, (9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
    ),
    ("km-pn", 3, 5): (11, (6, 5, 4, 3, 0, 1, 2, 7, 8, 9, 10, 11, 12, 13, 14)),
    ("km-pn", 5, 3): (19, (6, 5, 4, 3, 2, 0, 1, 7, 8, 9, 10, 11, 12, 13, 14)),
    ("km-pn", 4, 4): (16, (7, 6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15)),
    ("km-pn", 3, 6): (13, (8, 7, 6, 5, 4, 0, 1, 2, 3, 9, 10, 11, 12, 13, 14, 15, 16, 17)),
    ("km-pn", 6, 3): (27, (8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 10, 11, 12, 13, 14, 15, 16, 17)),
    ("km-pn", 4, 5): (
        20, (9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
    ),
    ("km-pn", 5, 4): (
        25, (9, 8, 7, 6, 5, 4, 3, 0, 1, 2, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
    ),
    # G(n, 0.3) drawn by random_graph(random.Random(n), n, 0.3)
    ("gnp", 18, 46): (14, (16, 15, 14, 3, 13, 8, 9, 4, 5, 11, 1, 0, 2, 6, 7, 10, 12, 17)),
    ("gnp", 20, 70): (
        23, (17, 13, 11, 9, 1, 7, 6, 0, 5, 3, 10, 15, 19, 4, 2, 8, 12, 14, 16, 18)
    ),
}


@pytest.mark.parametrize("key", GOLDEN_DP, ids=lambda k: "{}-{}-{}".format(*k))
def test_dp_matches_golden(key):
    kind, m, n = key
    if kind == "gnp":
        g = random_graph(random.Random(m), m, 0.3)
        assert g.edge_count == n
    else:
        g = FAMILIES[kind].build(m, n)
    result = brush_number_dp(g)
    assert (result.value, result.witness.order) == GOLDEN_DP[key]


# ------------------------------------------------------------ size guards

def test_unreached_is_the_uint8_max_above_every_cost():
    # the DP's 31 vertices: no order costs over floor(31^2/4) = 240
    assert solver._UNREACHED == np.iinfo(np.uint8).max > 31 * 31 // 4


@given(graphs(max_vertices=12), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_every_order_costs_at_most_a_quarter_square(g, rng):
    n = g.vertex_count
    order = list(range(n))
    rng.shuffle(order)
    total = minimal_config_for_sequence(g, CleaningSequence(tuple(order))).total
    assert total <= n * n // 4
    assert minimal_config_for_sequence(make_clique(n), CleaningSequence(tuple(order))).total == n * n // 4


def test_dp_cap():
    with pytest.raises(TooLargeError):
        brush_number_dp(make_clique(23))
    brush_number_dp(make_clique(12), max_vertices=12)
    with pytest.raises(TooLargeError):
        brush_number_dp(make_clique(13), max_vertices=12)


def test_dp_refuses_more_vertices_than_its_set_masks_hold():
    with pytest.raises(TooLargeError):
        brush_number_dp(make_cycle(32), max_vertices=32)


def test_dp_memory_guard():
    # the vertex cap is the largest whose tables fit in 1 GB
    cap = solver.DP_MAX_VERTICES
    assert solver.DP_BYTES_PER_STATE << cap <= 2**30 < solver.DP_BYTES_PER_STATE << (cap + 1)
    with pytest.raises(TooLargeError, match=f"^{cap + 1} vertices exceed the DP cap of {cap}$"):
        brush_number_dp(graph_from_edges(cap + 1, []), max_vertices=31)


def test_dp_memory_estimate_bounds_traced_peak():
    # the edgeless graph and K16 prune nothing, the worst case; C16
    # prunes most sets
    estimate = solver.DP_BYTES_PER_STATE << 16
    cases = [(graph_from_edges(16, []), True), (make_clique(16), True), (make_cycle(16), False)]
    for g, worst in cases:
        tracemalloc.start()
        try:
            brush_number_dp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate
        assert peak >= estimate // 2 or not worst


def test_brute_cap():
    with pytest.raises(TooLargeError):
        brute_force_permutations(make_clique(10))


@pytest.mark.parametrize("timeout", [float("nan"), -1.0])
def test_bnb_refuses_a_timeout_it_cannot_keep(timeout):
    # no deadline check passes a NaN deadline, so the search would never stop
    with pytest.raises(InvalidParameterError):
        brush_number_bnb(make_cycle(8), timeout=timeout)
    with pytest.raises(InvalidParameterError):
        solve(make_cycle(8), "bnb", timeout=timeout)


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_solve_runs_the_named_method(method):
    for g in (make_cycle(7), make_clique(5), cartesian_product(make_path(2), make_cycle(4))[0]):
        direct, via = SOLVERS[method](g), solve(g, method)
        assert (via.method, via.value, via.witness, via.states) == (
            method, direct.value, direct.witness, direct.states,
        )


def test_solve_without_a_method_picks_by_vertex_count():
    assert solve(make_cycle(8), max_vertices=8).method == "dp"
    assert solve(make_cycle(9), max_vertices=8).method == "bnb"
    # a cap past the DP's own limit of 26 vertices leaves the rest to the BnB
    assert solve(make_cycle(27), max_vertices=30).method == "bnb"
    with pytest.raises(InvalidParameterError, match="unknown method 'greedy'"):
        solve(make_cycle(8), "greedy")


def test_bnb_timeout_flags_incomplete():
    g, _ = cartesian_product(make_cycle(4), make_cycle(5))
    result = brush_number_bnb(g, timeout=0.01)
    if not result.complete:
        assert result.value >= brush_number_dp(g).value
    # a generous budget on a small graph always completes
    assert brush_number_bnb(make_cycle(5), timeout=30).complete


# a G(10, 0.4) graph whose greedy first order costs 8 against b(G) = 7
BAD_HINT_EDGES = [
    (0, 2), (0, 8), (0, 9), (1, 3), (1, 7), (1, 8), (1, 9), (2, 3), (2, 5), (2, 8),
    (3, 4), (3, 7), (3, 8), (4, 5), (4, 7), (4, 9), (5, 9), (6, 7), (7, 9), (8, 9),
]


def test_bnb_hint_below_optimum_is_incomplete():
    g = graph_from_edges(10, BAD_HINT_EDGES)
    assert brush_number_dp(g).value == 7
    below = brush_number_bnb(g, 6)
    assert not below.complete and below.value > 6
    exact = brush_number_bnb(g, 7)
    assert exact.complete and exact.value == 7


def test_bnb_hint_below_optimum_proves_hint_plus_one():
    # a search under hint 6 that ends with nothing that cheap proves
    # b(G) >= 7, above the parity bound of 3
    g = graph_from_edges(10, BAD_HINT_EDGES)
    assert parity_lower_bound(g) == 3
    result = brush_number_bnb(g, 6, timeout=None)
    assert (result.complete, result.lower_bound) == (False, 7)


# exact node counts and witnesses of the search, which visits children
# cheapest marginal cost first, ties to the lower vertex id; any other
# visiting order changes them
BNB_PINS = [
    pytest.param(
        cartesian_product(make_cycle(3), make_cycle(5))[0], None,
        12, 85, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), True, id="C3xC5",
    ),
    pytest.param(
        cartesian_product(make_clique(3), make_path(5))[0], None,
        11, 261, (0, 5, 10, 1, 6, 11, 2, 7, 12, 3, 8, 13, 4, 9, 14), True, id="K3xP5",
    ),
    pytest.param(
        random_graph(random.Random(7), 12, 0.4), None,
        11, 173, (9, 11, 4, 0, 3, 7, 8, 2, 5, 1, 6, 10), True, id="gnp-12-seed7",
    ),
    pytest.param(
        graph_from_edges(10, BAD_HINT_EDGES), 6,
        8, 31, (6, 0, 2, 5, 8, 9, 1, 3, 4, 7), False, id="bad-hint-6",
    ),
    pytest.param(
        graph_from_edges(10, BAD_HINT_EDGES), 7,
        7, 45, (6, 5, 4, 7, 9, 1, 3, 2, 0, 8), True, id="bad-hint-7",
    ),
    # plain keys with deep backtracks: the prefix state is undone and redone
    pytest.param(
        random_graph(random.Random(2), 17, 0.35), None,
        15, 952, (2, 3, 0, 12, 4, 5, 7, 16, 1, 6, 13, 9, 8, 10, 11, 14, 15), True,
        id="gnp-17-seed2",
    ),
    pytest.param(
        random_graph(random.Random(2), 17, 0.35), 13,
        15, 613, (2, 3, 0, 12, 4, 5, 7, 16, 1, 6, 13, 9, 8, 10, 11, 14, 15), False,
        id="gnp-17-seed2-hint-13",
    ),
    pytest.param(
        cartesian_product(make_clique(4), make_path(4))[0], None,
        16, 354, (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15), True, id="K4xP4",
    ),
]


@pytest.mark.parametrize("g, hint, value, states, order, complete", BNB_PINS)
def test_bnb_search_is_pinned(g, hint, value, states, order, complete):
    result = brush_number_bnb(g, hint, timeout=None)
    assert (result.value, result.states, result.witness.order, result.complete) == (
        value,
        states,
        order,
        complete,
    )


def test_bnb_stops_at_budget_past_recursion_depth():
    g, _ = cartesian_product(make_clique(3), make_path(400))
    result = brush_number_bnb(g, timeout=0.5)
    assert not result.complete
    assert result.seconds < 10
    assert result.value >= 801  # b(K3 x P400) by the closed form
    assert minimal_config_for_sequence(g, result.witness).total == result.value


def _greedy_by_scan(g):
    # the O(n^2) form of solver._greedy_order: scan every uncleaned vertex
    # at each step for the least max(0, marginal cost), lowest id first
    n = g.vertex_count
    cleaned, seq, cost = set(), [], 0
    for _ in range(n):
        marg, v = min(
            (max(0, g.degree(v) - 2 * len(cleaned.intersection(g.adjacency[v]))), v)
            for v in range(n)
            if v not in cleaned
        )
        cleaned.add(v)
        seq.append(v)
        cost += marg
    return tuple(seq), cost


@given(graphs(min_vertices=0, max_vertices=24))
@settings(max_examples=300, deadline=None)
def test_greedy_order_matches_scan(g):
    assert solver._greedy_order(g) == _greedy_by_scan(g)


@pytest.mark.parametrize(
    "kind, m, n", [("torus", 4, 5), ("km-pn", 5, 4), ("km-cn", 4, 5), ("km-pn", 3, 400)]
)
def test_greedy_order_matches_scan_on_products(kind, m, n):
    g = FAMILIES[kind].build(m, n)
    assert solver._greedy_order(g) == _greedy_by_scan(g)


def test_bnb_greedy_start_fits_the_timeout():
    # the incumbent of C100 x C100 comes from the greedy order, which must
    # not use up the budget before the search reads the clock
    g = FAMILIES["torus"].build(100, 100)
    result = brush_number_bnb(g, timeout=0.5)
    assert not result.complete
    assert result.seconds < 10


@pytest.mark.parametrize("n", [0, 1])
def test_bnb_tiny_graphs(n):
    result = brush_number_bnb(graph_from_edges(n, []))
    assert (result.value, result.witness.order, result.complete) == (0, tuple(range(n)), True)
    if n == 0:
        assert result.states == 1


# ----------------------------------------------------- orbit-keyed memo

def _family_instances(max_vertices):
    for kind, m_min, n_min in (("torus", 3, 3), ("km-pn", 2, 2), ("km-cn", 2, 3)):
        for m in range(m_min, max_vertices // n_min + 1):
            for n in range(n_min, max_vertices // m + 1):
                yield pytest.param(FAMILIES[kind].build(m, n), id=FAMILIES[kind].label.format(m, n))


def _circulant(n, steps):
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return graph_from_edges(n, sorted(edges))


# hubs 2 and 4, joined to each other and to 0, with leaves 1, 5 on hub 2
# and 3, 6 on hub 4: |Aut| = 8, b = 2, and the greedy first order costs 3
TWO_HUBS_EDGES = [(0, 2), (0, 4), (1, 2), (2, 4), (2, 5), (3, 4), (4, 6)]

# symmetric graphs whose greedy first incumbent is above b(G), so the
# orbit-keyed memo has to prune soundly to reach b(G)
GREEDY_ABOVE_OPTIMUM = [
    pytest.param(graph_from_edges(7, TWO_HUBS_EDGES), id="two-hubs"),
    pytest.param(_circulant(11, (1, 4)), id="C11(1,4)"),
    pytest.param(_circulant(13, (1, 4)), id="C13(1,4)"),
    pytest.param(_circulant(13, (1, 3, 5)), id="C13(1,3,5)"),
]


@pytest.mark.parametrize("g", list(_family_instances(20)) + GREEDY_ABOVE_OPTIMUM)
def test_orbit_bnb_matches_dp(g):
    dp = brush_number_dp(g)
    result = brush_number_bnb(g, timeout=None)
    assert (result.value, result.complete) == (dp.value, True)
    assert minimal_config_for_sequence(g, result.witness).total == dp.value


def test_orbit_key_needs_true_automorphisms(monkeypatch):
    g = graph_from_edges(7, TWO_HUBS_EDGES)
    real = solver.automorphisms
    assert len(real(g, solver.ORBIT_MAX_GROUP)) == solver.ORBIT_MIN_GROUP
    assert brush_number_bnb(g).value == 2
    # swapping leaf 3 of hub 4 with leaf 5 of hub 2 is no automorphism;
    # keyed by it, the memo cuts every optimal order
    wrong = np.array([0, 1, 2, 5, 4, 3, 6])
    monkeypatch.setattr(
        solver,
        "automorphisms",
        lambda g, limit, deadline=None: np.vstack([real(g, limit, deadline), wrong]),
    )
    assert brush_number_bnb(g).value == 3


def test_plain_key_below_min_group():
    # gnp-12-seed7's group is trivial, so its pinned search keeps the plain key
    g = random_graph(random.Random(7), 12, 0.4)
    assert automorphisms(g, solver.ORBIT_MAX_GROUP).tolist() == [list(range(12))]


@pytest.mark.parametrize(
    "g, exact, floor, timeout",
    [
        # the parity bound is 0, but every prefix on the stack has
        # cleaned a vertex of degree 4
        pytest.param(FAMILIES["torus"].build(8, 8), 28, 4, 0.2, id="C8xC8"),
        pytest.param(FAMILIES["km-pn"].build(4, 8), 32, 0, 0.2, id="K4xP8"),
        pytest.param(random_graph(random.Random(1), 20, 0.4), None, 0, 0.01, id="gnp-20-seed1"),
    ],
)
def test_bnb_timeout_lower_bound_is_proven(g, exact, floor, timeout):
    result = brush_number_bnb(g, timeout=timeout)
    assert not result.complete
    exact = brush_number_dp(g).value if exact is None else exact
    assert max(floor, parity_lower_bound(g)) <= result.lower_bound <= exact <= result.value


# with timeout=0 the search stops at its first clock reading, the 256th
# pop, so the bound read from the stack's running minimum is fixed
@pytest.mark.parametrize(
    "kind, m, n, lower",
    [("torus", 5, 7, 4), ("km-pn", 4, 8, 14), ("torus", 4, 8, 4)],
    ids=["C5xC7", "K4xP8", "C4xC8"],
)
def test_bnb_timeout_lower_bound_is_pinned(kind, m, n, lower):
    result = brush_number_bnb(FAMILIES[kind].build(m, n), timeout=0)
    assert (result.complete, result.states, result.lower_bound) == (False, 256, lower)


@pytest.mark.parametrize(
    "kind, m, n, value, states",
    [
        ("torus", 5, 7, 20, 7112),
        ("torus", 4, 8, 20, 5371),
        ("km-pn", 3, 10, 21, 70243),
        ("torus", 4, 10, 24, 61940),
    ],
    ids=["C5xC7", "C4xC8", "K3xP10", "C4xC10"],
)
def test_bnb_completes_past_dp_cap(kind, m, n, value, states):
    # 30 to 40 vertices, out of the DP's reach; value by the closed form
    g = FAMILIES[kind].build(m, n)
    result = brush_number_bnb(g, timeout=30)
    assert (result.value, result.complete, result.states) == (value, True, states)
    assert minimal_config_for_sequence(g, result.witness).total == value


# ------------------------------------------------------------- box sweep

def test_box_sweep_order_three():
    report = check_box_conjecture(make_path(2), 3)
    assert report.path_value == 3 and report.clique_value == 5
    assert report.graphs_checked == 8 and report.connected_checked == 4
    assert report.min_value == 3 and report.max_value == 5
    assert report.holds


def test_box_sweep_order_two_trivial():
    report = check_box_conjecture(make_path(3), 2)
    assert report.path_value == report.clique_value
    assert report.holds


def test_box_sweep_guards():
    with pytest.raises(TooLargeError):
        check_box_conjecture(make_clique(5), 5)
    with pytest.raises(InvalidParameterError):
        check_box_conjecture(make_path(2), 6)


def labeled_box_sweep(h, m, solve):
    """The box sweep by definition: one solve per connected labeled factor."""
    pairs = list(combinations(range(m), 2))
    path = solve(cartesian_product(make_path(m), h)[0]).value
    clique = solve(cartesian_product(make_clique(m), h)[0]).value
    rows = []
    for bits in range(1 << len(pairs)):
        edges = tuple(pair for i, pair in enumerate(pairs) if bits >> i & 1)
        left = graph_from_edges(m, edges)
        if is_connected(left):
            rows.append((edges, solve(cartesian_product(left, h)[0]).value))
    # min and max keep the first row that attains them, as the sweep does
    low = min(rows, key=lambda row: row[1])
    high = max(rows, key=lambda row: row[1])
    return BoxConjectureReport(
        path_value=path,
        clique_value=clique,
        min_value=low[1],
        max_value=high[1],
        min_edges=low[0],
        max_edges=high[0],
        graphs_checked=1 << len(pairs),
        connected_checked=len(rows),
        violations=tuple(row for row in rows if not path <= row[1] <= clique),
    )


BOX_FACTORS = {"P2": make_path(2), "P3": make_path(3), "C3": make_cycle(3), "K3": make_clique(3)}


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("factor", sorted(BOX_FACTORS))
def test_box_sweep_matches_labeled_sweep(m, factor):
    h = BOX_FACTORS[factor]
    assert check_box_conjecture(h, m) == labeled_box_sweep(h, m, brush_number_dp)


def test_box_sweep_violations_match_labeled_sweep(monkeypatch):
    # an isomorphism-invariant stand-in for b that breaks the sandwich,
    # so the violation list and the min/max attainers are exercised
    def fake(g, **_):
        return SimpleNamespace(value=sum(g.degree(v) ** 2 for v in range(g.vertex_count)) % 7)

    expected = labeled_box_sweep(make_path(2), 4, fake)
    assert expected.violations
    monkeypatch.setattr(solver, "brush_number_dp", fake)
    assert check_box_conjecture(make_path(2), 4) == expected


@pytest.mark.parametrize("m, classes", [(4, 6), (5, 21)])
def test_box_sweep_one_dp_per_isomorphism_class(monkeypatch, m, classes):
    calls = []

    def counted(g, **kwargs):
        calls.append(g.vertex_count)
        return brush_number_dp(g, **kwargs)

    monkeypatch.setattr(solver, "brush_number_dp", counted)
    report = check_box_conjecture(make_path(2), m)
    assert report.connected_checked == {4: 38, 5: 728}[m]
    assert len(calls) == classes  # connected graphs on m vertices

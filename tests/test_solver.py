"""Exact solvers against each other and against frozen small values.

brute_force_permutations is the ground truth here: it tries every
cleaning order outright.  The DP must reproduce it everywhere, and
branch-and-bound must reproduce the DP.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graphclean import (
    InvalidParameterError,
    ResourceLimitError,
    TooLargeError,
    brush_number_bnb,
    brush_number_dp,
    brute_force_permutations,
    cartesian_product,
    check_box_conjecture,
    graph_from_edges,
    make_clique,
    make_cycle,
    make_path,
    minimal_config_for_sequence,
    parity_lower_bound,
    simulate,
)

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
    # reconstruction walks back from the full set taking the lowest id,
    # so a symmetric graph gets the descending order, every run
    g = make_cycle(5)
    assert brush_number_dp(g).witness.order == (4, 3, 2, 1, 0)


# ------------------------------------------------------------ size guards

def test_dp_cap():
    with pytest.raises(TooLargeError):
        brush_number_dp(make_clique(23))
    brush_number_dp(make_clique(12), max_vertices=12)
    with pytest.raises(TooLargeError):
        brush_number_dp(make_clique(13), max_vertices=12)


def test_dp_memory_guard():
    with pytest.raises(ResourceLimitError):
        brush_number_dp(make_clique(22), memory_limit_mb=1)


def test_brute_cap():
    with pytest.raises(TooLargeError):
        brute_force_permutations(make_clique(10))


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

"""Closed-form configurations for the structured families, the row-merge
reduction on torus cleanings, and the clique-layer deletion."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from graphclean import (
    BrushConfig,
    CleaningSequence,
    InvalidInputError,
    InvalidParameterError,
    PreconditionViolationError,
    ProductLabeling,
    brush_number_dp,
    can_clean,
    cartesian_product,
    classify_boundary_pairs,
    clique_config,
    clique_sequence,
    combine_torus_rows,
    cycle_config,
    cycle_sequence,
    delete_clique_layer,
    graph_from_edges,
    km_pn_brush_number,
    km_pn_config,
    km_pn_config_odd,
    km_pn_sequence,
    make_clique,
    make_cycle,
    make_path,
    minimal_config_for_sequence,
    path_config,
    path_sequence,
    reduce_torus,
    simulate,
    torus_brush_number,
    torus_config,
    torus_sequence,
)
from graphclean.cleaning import check_cleaning


def torus(m, n):
    return cartesian_product(make_cycle(m), make_cycle(n))


def clique_path(m, n):
    return cartesian_product(make_clique(m), make_path(n))


def dp_cleaning(g):
    res = brush_number_dp(g)
    return minimal_config_for_sequence(g, res.witness), res.witness, res.value


# ------------------------------------------------------------- families

def test_line_families():
    assert path_config(7).total == 1
    assert cycle_config(6).total == 2
    assert clique_config(5).counts == (4, 2, 0, 0, 0)
    assert clique_config(5).total == 6
    simulate(make_path(7), path_config(7), path_sequence(7))
    simulate(make_cycle(6), cycle_config(6), cycle_sequence(6))
    simulate(make_clique(5), clique_config(5), clique_sequence(5))


@given(st.integers(1, 30), st.integers(3, 30), st.integers(1, 14))
@settings(deadline=None)
def test_line_families_clean(p, c, k):
    simulate(make_path(p), path_config(p), path_sequence(p))
    simulate(make_cycle(c), cycle_config(c), cycle_sequence(c))
    simulate(make_clique(k), clique_config(k), clique_sequence(k))
    assert clique_config(k).total == k * k // 4


@pytest.mark.parametrize(
    "config, sequence, k",
    [
        (path_config, path_sequence, 0),
        (clique_config, clique_sequence, 0),
        (cycle_config, cycle_sequence, 2),
    ],
    ids=["path-0", "clique-0", "cycle-2"],
)
def test_line_sequences_refuse_what_their_configs_refuse(config, sequence, k):
    with pytest.raises(InvalidParameterError) as refused:
        config(k)
    with pytest.raises(InvalidParameterError) as refused_too:
        sequence(k)
    assert str(refused_too.value) == str(refused.value)


def test_torus_formula():
    assert torus_brush_number(3, 3) == 8
    assert torus_brush_number(3, 4) == 10
    assert torus_brush_number(3, 5) == 12
    assert torus_brush_number(4, 4) == 12  # frozen from the 16-vertex DP
    assert torus_brush_number(4, 5) == 14
    with pytest.raises(InvalidParameterError):
        torus_brush_number(2, 5)


def test_torus_config_entries():
    cfg = torus_config(3, 3)
    lab = ProductLabeling(3, 3)
    entries = {lab.pair(v): c for v, c in enumerate(cfg.counts) if c}
    assert entries == {(0, 0): 4, (0, 1): 2, (1, 0): 2}
    assert cfg.total == 8


@given(st.integers(3, 9), st.integers(3, 9))
@settings(deadline=None)
def test_torus_config_cleans(m, n):
    g, _ = torus(m, n)
    trace = simulate(g, torus_config(m, n), torus_sequence(m, n))
    assert trace.total_brushes == 2 * (m + n - 2)


def test_km_pn_formula():
    assert km_pn_brush_number(4, 2) == 8
    assert km_pn_brush_number(4, 3) == 12
    assert km_pn_brush_number(6, 2) == 18
    assert km_pn_brush_number(2, 5) == 5
    assert km_pn_brush_number(3, 2) == 5
    assert km_pn_brush_number(3, 3) == 7
    assert km_pn_brush_number(3, 4) == 9
    assert km_pn_brush_number(5, 2) == 13  # frozen from the 10-vertex DP
    with pytest.raises(InvalidParameterError):
        km_pn_brush_number(1, 3)
    with pytest.raises(InvalidParameterError):
        km_pn_brush_number(4, 1)


def test_km_pn_even_column_sums():
    cfg = km_pn_config(4, 2)
    lab = ProductLabeling(4, 2)
    cols = [0, 0]
    for v, c in enumerate(cfg.counts):
        cols[lab.pair(v)[1]] += c
    assert cols == [6, 2] and cfg.total == 8
    # the first-copy lower bound is met with equality at n=2
    assert cfg.total >= 4 * 4 // 2


def test_km_pn_parity_split():
    with pytest.raises(InvalidParameterError):
        km_pn_config(3, 2)
    with pytest.raises(InvalidParameterError):
        km_pn_config_odd(4, 3)
    assert km_pn_config_odd(3, 2).total == 5
    assert km_pn_config(4, 3).total == 12


@given(st.integers(2, 7), st.integers(2, 5))
@settings(deadline=None)
def test_km_pn_config_cleans(m, n):
    g, _ = clique_path(m, n)
    cfg = km_pn_config(m, n) if m % 2 == 0 else km_pn_config_odd(m, n)
    trace = simulate(g, cfg, km_pn_sequence(m, n))
    assert trace.total_brushes == km_pn_brush_number(m, n)


# ------------------------------------------------------------ row merges

def test_merge_canonical_rows():
    lab = ProductLabeling(4, 3)
    g2, lab2, w2, s2 = combine_torus_rows(lab, torus_config(4, 3), torus_sequence(4, 3), 2)
    assert (lab2.m, lab2.n) == (3, 3)
    assert w2.total == torus_config(4, 3).total == 10
    trace = simulate(g2, w2, s2)
    assert trace.total_brushes == 10


def test_merge_zero_row_keeps_column_totals():
    # the last canonical row carries no brushes; folding it into its
    # predecessor must not move anything between columns
    m, n = 5, 3
    lab = ProductLabeling(m, n)
    w0 = torus_config(m, n)
    assert all(w0[lab.id(m - 1, j)] == 0 for j in range(n))
    g2, lab2, w2, _ = combine_torus_rows(lab, w0, torus_sequence(m, n), m - 2)
    for j in range(n):
        before = sum(w0[lab.id(i, j)] for i in range(m))
        after = sum(w2[lab2.id(i, j)] for i in range(m - 1))
        assert before == after


def test_merge_optimal_cleaning_any_row():
    g, lab = torus(4, 4)
    w0, seq, value = dp_cleaning(g)
    assert value == 12
    for row in range(lab.m - 1):
        g2, _, w2, s2 = combine_torus_rows(lab, w0, seq, row)
        assert simulate(g2, w2, s2).total_brushes == 12


def _shifted_canonical(m, n, a, b):
    # the canonical torus cleaning moved by the automorphism (i, j) -> (i + a, j + b)
    sigma = [((i + a) % m) * n + (j + b) % n for i in range(m) for j in range(n)]
    counts = [0] * (m * n)
    for v, c in enumerate(torus_config(m, n).counts):
        counts[sigma[v]] = c
    order = tuple(sigma[v] for v in torus_sequence(m, n))
    return BrushConfig(tuple(counts)), CleaningSequence(order)


@pytest.mark.parametrize("cleaning", ["dp", "shifted"])
def test_merge_keeps_first_occurrence_order(cleaning):
    g, lab = torus(4, 4)
    w0, seq = dp_cleaning(g)[:2] if cleaning == "dp" else _shifted_canonical(4, 4, 2, 1)
    for row in range(lab.m - 1):
        _, lab2, w2, s2 = combine_torus_rows(lab, w0, seq, row)

        def merged(v):
            i, j = lab.pair(v)
            return lab2.id(i if i <= row else i - 1, j)

        expected_counts = [0] * (lab2.m * lab2.n)
        for v, c in enumerate(w0.counts):
            expected_counts[merged(v)] += c
        expected_order = []
        for v in seq:
            if merged(v) not in expected_order:
                expected_order.append(merged(v))
        assert w2.counts == tuple(expected_counts)
        assert s2.order == tuple(expected_order)


def test_merge_rejects_bad_inputs():
    lab = ProductLabeling(4, 3)
    w0, seq = torus_config(4, 3), torus_sequence(4, 3)
    with pytest.raises(InvalidParameterError):
        combine_torus_rows(ProductLabeling(3, 3), torus_config(3, 3), torus_sequence(3, 3), 0)
    with pytest.raises(InvalidParameterError):
        combine_torus_rows(lab, w0, seq, 3)
    short = BrushConfig(w0.counts[:-1])
    with pytest.raises(InvalidInputError):
        combine_torus_rows(lab, short, seq, 0)


# ----------------------------------------------------- two-brush removal

@pytest.mark.parametrize(
    "m,n,reduced_value",
    [
        (4, 4, 10),  # C4xC4 -> some C4xC3 / C3xC4, b = 10
        (4, 3, 8),  # C4xC3 -> C3xC3, b = 8
    ],
)
def test_reduce_reaches_smaller_optimum(m, n, reduced_value):
    g, lab = torus(m, n)
    w0, seq, value = dp_cleaning(g)
    red = reduce_torus(lab, w0, seq)
    assert w0.total == value
    assert red.config.total == value - 2 == reduced_value
    trace = simulate(red.graph, red.config, red.sequence)
    assert trace.total_brushes == reduced_value
    exact = brush_number_dp(red.graph).value
    assert red.config.total == exact


@pytest.mark.parametrize(
    "m,n,order,axis,pair,removed_at,counts,greedy",
    [
        # a spare-brush vertex outside the primary candidates is removed from
        (3, 4, (0, 8, 9, 3, 11, 1, 2, 10, 6, 5, 4, 7), "cols", (0, 1), 6,
         (4, 0, 2, 0, 0, 0, 2, 0, 0), False),
        # the merged order stops cleaning; can_clean supplies one
        (3, 4, (9, 3, 5, 1, 2, 0, 10, 8, 11, 6, 7, 4), "cols", (2, 3), 4,
         (0, 0, 4, 0, 0, 0, 0, 4, 0), True),
        # wrapped rows, folded onto row 0, with can_clean's order
        (4, 3, (9, 4, 5, 3, 0, 1, 10, 11, 8, 6, 7, 2), "rows", (3, 0), 5,
         (4, 0, 0, 0, 4, 0, 0, 0, 0), True),
        # wrapped columns, folded onto column 0
        (3, 4, (11, 7, 8, 9, 4, 10, 0, 1, 2, 6, 3, 5), "cols", (3, 0), 6,
         (0, 0, 0, 2, 0, 0, 4, 2, 0), False),
    ],
)
def test_reduce_fallbacks_and_wrapped_pairs(m, n, order, axis, pair, removed_at, counts, greedy):
    seq = CleaningSequence(order)
    g, lab = torus(m, n)
    w0 = minimal_config_for_sequence(g, seq)
    assert w0.total == torus_brush_number(m, n)
    red = reduce_torus(lab, w0, seq)
    assert (red.axis, red.pair) == (axis, pair)
    assert red.removed_at == removed_at
    shorter = (m - 1, n) if axis == "rows" else (m, n - 1)
    assert (red.labeling.m, red.labeling.n) == shorter
    assert red.config.counts == counts
    assert simulate(red.graph, red.config, red.sequence).total_brushes == red.config.total
    if greedy:  # lowest-id greedy order, in the output labelling
        assert red.sequence == can_clean(red.graph, red.config)[1]


def test_reduce_torus_reports_adjacent_correct_rows():
    g, lab = torus(4, 4)
    w0, seq, _ = dp_cleaning(g)
    red = reduce_torus(lab, w0, seq)
    a, b = red.pair
    size = lab.m if red.axis == "rows" else lab.n
    assert b == (a + 1) % size
    assert red.axis in ("rows", "cols")


def test_reduce_requires_optimal_total():
    g, lab = torus(4, 3)
    heavy = BrushConfig(tuple(g.degree(v) for v in g.vertices()))
    seq = torus_sequence(4, 3)
    with pytest.raises(PreconditionViolationError):
        reduce_torus(lab, heavy, seq)


def test_reduce_requires_reducible_axis():
    g, lab = torus(3, 3)
    w0, seq, _ = dp_cleaning(g)
    with pytest.raises(InvalidParameterError):
        reduce_torus(lab, w0, seq)


# ------------------------------------------------------- boundary classes

def test_classify_canonical_counts():
    # frozen from running the classifier on the canonical K4xP2 cleaning
    lab = ProductLabeling(4, 2)
    counts = classify_boundary_pairs(lab, km_pn_config(4, 2), km_pn_sequence(4, 2))
    assert (counts.a, counts.b, counts.f) == (1, 1, 2)
    assert counts.c == counts.d == counts.e == counts.g == counts.h == 0
    assert counts.total == 4


def test_classify_all_first_copy_first():
    g, lab = clique_path(4, 2)
    stocked = BrushConfig(tuple(g.degree(v) for v in g.vertices()))
    first_copy_first = CleaningSequence(tuple(lab.id(i, j) for j in (0, 1) for i in range(4)))
    counts = classify_boundary_pairs(lab, stocked, first_copy_first)
    assert counts.a == 4 and counts.total == 4
    assert all(getattr(counts, k) == 0 for k in "bcdefgh")


def test_classify_optimal_never_mixes_d_and_e():
    for m in (2, 4, 6):
        g, lab = clique_path(m, 2)
        w0, seq, _ = dp_cleaning(g)
        counts = classify_boundary_pairs(lab, w0, seq)
        assert counts.d * counts.e == 0
        assert counts.total == m


@pytest.mark.parametrize("reduction", [classify_boundary_pairs, delete_clique_layer])
def test_clique_layer_steps_each_refuse_a_failed_cleaning(reduction):
    lab = ProductLabeling(4, 3)
    w0, seq = km_pn_config(4, 3), km_pn_sequence(4, 3)
    emptied = BrushConfig((0,) + w0.counts[1:])  # vertex 0 cleans first and holds 4
    with pytest.raises(InvalidInputError):
        reduction(lab, emptied, seq)


# --------------------------------------------------------- layer deletion

def test_delete_layer_canonical():
    lab = ProductLabeling(4, 3)
    red = delete_clique_layer(lab, km_pn_config(4, 3), km_pn_sequence(4, 3))
    assert (red.labeling.m, red.labeling.n) == (4, 2)
    assert red.config.total == 8
    ok, _ = can_clean(red.graph, red.config)
    assert ok


def test_delete_layer_optimal_input():
    g, lab = clique_path(4, 3)
    w0, seq, value = dp_cleaning(g)
    assert value == 12
    red = delete_clique_layer(lab, w0, seq)
    assert red.config.total <= value - 4  # one layer costs at least a quarter-square
    ok, _ = can_clean(red.graph, red.config)
    assert ok
    assert brush_number_dp(red.graph).value == 8


def test_delete_layer_base_mode():
    g, lab = clique_path(2, 3)
    w0, seq, value = dp_cleaning(g)
    assert value == 3
    red = delete_clique_layer(lab, w0, seq)
    assert (red.labeling.m, red.labeling.n) == (2, 2)
    assert red.config.total <= 2
    ok, _ = can_clean(red.graph, red.config)
    assert ok


def _assert_layer_deletion_cleans_clique(lab, w0, seq):
    red = delete_clique_layer(lab, w0, seq)
    assert (red.labeling.m, red.labeling.n) == (lab.m, 1)
    assert red.config.total == lab.m * lab.m // 4  # b(K_m)
    assert can_clean(red.graph, red.config)[0]


@pytest.mark.parametrize("m", [2, 4, 6])
def test_delete_layer_n2_closed_form_and_dp(m):
    # for n = 2 and even m the half-way vertex of the second copy gains
    # the brush it needs: without it K2, K4 and K6 come out with 0, 3
    # and 8 brushes, and none of them cleans
    g, lab = clique_path(m, 2)
    _assert_layer_deletion_cleans_clique(lab, km_pn_config(m, 2), km_pn_sequence(m, 2))
    w0, seq, value = dp_cleaning(g)
    assert value == m * m // 2
    _assert_layer_deletion_cleans_clique(lab, w0, seq)


def test_delete_layer_n2_every_optimal_k4_order():
    g, lab = clique_path(4, 2)
    optimal = fires = 0
    for order in permutations(range(8)):
        seq = CleaningSequence(order)
        w0 = minimal_config_for_sequence(g, seq)
        if w0.total != 8:  # b(K4 x P2)
            continue
        optimal += 1
        second_copy = [v for v in order if lab.pair(v)[1] == 1]
        fires += w0[second_copy[1]] == 0  # the half-way vertex holds no brush
        _assert_layer_deletion_cleans_clique(lab, w0, seq)
    assert (optimal, fires) == (12384, 7632)


EVEN_KM_PN = [(m, n) for m in range(2, 11, 2) for n in range(2, 11) if m * n <= 20]


def _relabelled_dp_cleaning(g, rng):
    # a DP witness breaks ties toward low ids, so solving a relabelled
    # copy and mapping its witness back gives another optimal cleaning
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    copy = graph_from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])
    res = brush_number_dp(copy)
    back = {p: v for v, p in enumerate(perm)}
    seq = CleaningSequence(tuple(back[p] for p in res.witness))
    return minimal_config_for_sequence(g, seq), seq, res.value


@pytest.mark.parametrize("m, n", EVEN_KM_PN, ids=[f"K{m}xP{n}" for m, n in EVEN_KM_PN])
def test_delete_layer_even_order_returns_a_checked_cleaning(m, n):
    g, lab = clique_path(m, n)
    rng = random.Random(f"K{m}xP{n}")
    cleanings = []
    for _ in range(3):  # the closed form, moved by a clique relabelling
        perm = list(range(m))
        rng.shuffle(perm)
        sigma = [perm[i] * n + j for i in range(m) for j in range(n)]
        counts = [0] * (m * n)
        for v, c in enumerate(km_pn_config(m, n).counts):
            counts[sigma[v]] = c
        order = tuple(sigma[v] for v in km_pn_sequence(m, n))
        cleanings.append((BrushConfig(tuple(counts)), CleaningSequence(order)))
    for _ in range(3):
        w0, seq, value = _relabelled_dp_cleaning(g, rng)
        assert value == km_pn_brush_number(m, n)
        cleanings.append((w0, seq))
    for w0, seq in cleanings:
        red = delete_clique_layer(lab, w0, seq)
        assert red.sequence is not None
        check_cleaning(red.graph, red.config, red.sequence)
        assert red.config.total == (n - 1) * m * m // 4  # b(K_m x P_{n-1}), b(K_m) for n = 2
        assert red.classes == classify_boundary_pairs(lab, w0, seq)


@pytest.mark.parametrize("m, n", [(3, 4), (5, 4)])
def test_delete_layer_odd_closed_form_finds_no_order(m, n):
    # one brush short of b(K_m x P_{n-1}): no order cleans the output
    red = delete_clique_layer(ProductLabeling(m, n), km_pn_config_odd(m, n), km_pn_sequence(m, n))
    assert red.config.total == km_pn_brush_number(m, n - 1) - 1
    assert red.sequence is None


def test_odd_config_matches_dp_value():
    for m, n in ((3, 2), (3, 3), (5, 2)):
        g, _ = clique_path(m, n)
        assert km_pn_config_odd(m, n).total == brush_number_dp(g).value

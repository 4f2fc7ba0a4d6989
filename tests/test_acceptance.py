"""Acceptance suite: nine end-to-end criteria, one test each.

Every assertion is exact (integers, tolerance zero).  Each test prints a
single criterion line so a transcript of this module reads as a
checklist; pytest's own PASSED/FAILED markers carry the same verdicts.
"""

import random
from itertools import combinations

from graphclean import (
    BrushConfig,
    brush_number_bnb,
    brush_number_dp,
    brute_force_permutations,
    can_clean,
    cartesian_product,
    check_box_conjecture,
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
    parity_lower_bound,
    reduce_torus,
    simulate,
    torus_config,
    torus_sequence,
)
from graphclean.cli import main


def _torus(m, n):
    return cartesian_product(make_cycle(m), make_cycle(n))


def _clique_path(m, n):
    return cartesian_product(make_clique(m), make_path(n))


def _optimal_cleaning(g):
    res = brush_number_dp(g)
    return minimal_config_for_sequence(g, res.witness), res.witness, res.value


def _report(label, ok):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


TORUS_INSTANCES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5)]

KM_PN_INSTANCES = [
    (2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
    (4, 4), (5, 2), (6, 2), (5, 3), (4, 5), (6, 3),
]


def test_criterion_1_torus_exact_values():
    checked = []
    for m, n in TORUS_INSTANCES:
        g, _ = _torus(m, n)
        result = brush_number_dp(g)
        assert result.value == 2 * (m + n - 2), (m, n, result.value)
        if g.vertex_count <= 16:
            assert brush_number_bnb(g, result.value).value == result.value, (m, n)
        checked.append((m, n))
    _report("1 (torus exact values)", checked == TORUS_INSTANCES)


def test_criterion_2_clique_path_exact_values():
    for m, n in KM_PN_INSTANCES:
        g, _ = _clique_path(m, n)
        expected = km_pn_brush_number(m, n)
        assert g.vertex_count <= 20
        result = brush_number_dp(g)
        assert result.value == expected, (m, n, result.value, expected)
        if g.vertex_count <= 16:
            assert brush_number_bnb(g, result.value).value == expected, (m, n)
    _report("2 (clique-path exact values)", True)


def test_criterion_3_closed_form_configs_clean():
    for m in range(3, 13):
        for n in range(3, 13):
            g, _ = _torus(m, n)
            trace = simulate(g, torus_config(m, n), torus_sequence(m, n))
            assert trace.total_brushes == 2 * (m + n - 2), (m, n)
    for m in range(2, 9):
        for n in range(2, 7):
            g, _ = _clique_path(m, n)
            cfg = km_pn_config(m, n) if m % 2 == 0 else km_pn_config_odd(m, n)
            trace = simulate(g, cfg, km_pn_sequence(m, n))
            assert trace.total_brushes == km_pn_brush_number(m, n), (m, n)
    _report("3 (closed-form configs clean)", True)


def test_criterion_4_endpoint_values():
    for k in range(2, 21):
        assert brush_number_dp(make_path(k)).value == 1, k
    for m in range(2, 17):
        assert brush_number_dp(make_clique(m)).value == m * m // 4, m
    _report("4 (path and clique endpoints)", True)


def test_criterion_5_torus_reduction_savings():
    for m, n in ((4, 4), (4, 3)):
        g, lab = _torus(m, n)
        w0, seq, value = _optimal_cleaning(g)
        red = reduce_torus(lab, w0, seq)
        assert red.config.total == value - 2, (m, n)
        trace = simulate(red.graph, red.config, red.sequence)
        assert trace.total_brushes == red.config.total
        assert red.config.total == brush_number_dp(red.graph).value, (m, n)
    _report("5 (two-brush reduction)", True)


def test_criterion_6_layer_deletion():
    g, lab = _clique_path(4, 3)
    w0, seq, value = _optimal_cleaning(g)
    assert value == 12
    red = delete_clique_layer(lab, w0, seq)
    assert (red.labeling.m, red.labeling.n) == (4, 2)
    assert red.config.total <= 12 - 4
    ok, _ = can_clean(red.graph, red.config)
    assert ok
    assert brush_number_dp(red.graph).value == 8
    _report("6 (clique-layer deletion)", True)


def test_criterion_7_oracle_cross_validation():
    rng = random.Random(8128)
    for _ in range(200):
        n = rng.randint(4, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        dp = brush_number_dp(g)
        assert dp.value == brute_force_permutations(g).value, edges
        assert parity_lower_bound(g) <= dp.value, edges

    def exhaustive(g, w0):
        full = (1 << g.vertex_count) - 1
        seen = set()

        def walk(mask):
            if mask == full:
                return True
            if mask in seen:
                return False
            seen.add(mask)
            for v in range(g.vertex_count):
                if mask >> v & 1:
                    continue
                have = w0[v] + sum(1 for u in g.adjacency[v] if mask >> u & 1)
                dirty = sum(1 for u in g.adjacency[v] if not mask >> u & 1)
                if have >= dirty and walk(mask | 1 << v):
                    return True
            return False

        return walk(0)

    for _ in range(200):
        n = rng.randint(2, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        w0 = BrushConfig(tuple(rng.randint(0, max(1, g.degree(v))) for v in range(n)))
        assert can_clean(g, w0)[0] == exhaustive(g, w0), (edges, w0.counts)
    _report("7 (solver and greedy oracles)", True)


def test_criterion_8_box_conjecture_spot_check():
    cases = [
        (3, make_path(2)),
        (3, make_path(3)),
        (3, make_cycle(3)),
        (4, make_path(2)),
    ]
    for m, h in cases:
        report = check_box_conjecture(h, m)
        assert report.holds, (m, h.vertex_count, report.violations)
    _report("8 (box conjecture spot-check)", True)


def test_criterion_9_clique_cycle_remark(capsys):
    code = main(["report", "km-cn", "--instances", "3x3,3x4,4x3"])
    out = capsys.readouterr().out
    assert code == 0
    for required in ("K3xC3", "K3xC4", "K4xC3", "fixed", "scaled", "conclusion="):
        assert required in out
    with capsys.disabled():
        _report("9 (clique-cycle remark report)", True)

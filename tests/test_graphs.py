"""Graph construction, products, automorphisms and the edge-list format."""

import time
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphclean import (
    InvalidParameterError,
    ParseError,
    ProductLabeling,
    TooLargeError,
    automorphisms,
    cartesian_product,
    graph_from_edges,
    is_connected,
    make_clique,
    make_cycle,
    make_path,
    parse_edge_list,
    serialize_edge_list,
)


@st.composite
def graphs(draw, min_vertices=1, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


def test_path_small():
    g = make_path(2)
    assert g.vertex_count == 2 and g.edges() == [(0, 1)]
    g = make_path(5)
    assert g.edge_count == 4
    assert [g.degree(v) for v in g.vertices()] == [1, 2, 2, 2, 1]


def test_cycle_small():
    g = make_cycle(3)
    assert g.edge_count == 3 and all(g.degree(v) == 2 for v in g.vertices())
    assert make_cycle(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    g = make_cycle(6)
    assert g.vertex_count == 6 and g.edge_count == 6


def test_clique_small():
    assert make_clique(2).edges() == [(0, 1)]
    g = make_clique(4)
    assert g.edge_count == 6 and all(g.degree(v) == 3 for v in g.vertices())
    assert make_clique(6).edge_count == 15


def test_builder_rejects_degenerate_sizes():
    with pytest.raises(InvalidParameterError):
        make_path(0)
    with pytest.raises(InvalidParameterError):
        make_cycle(2)
    with pytest.raises(InvalidParameterError):
        make_clique(0)


def test_builders_refuse_past_the_size_limit(monkeypatch):
    # at a limit of 100 vertices and 400 arcs, C10 x C10 is the largest torus
    monkeypatch.setattr("graphclean.graphs.MAX_HEADER_VERTICES", 100)
    assert cartesian_product(make_cycle(10), make_cycle(10))[0].edge_count == 200
    assert make_path(100).vertex_count == make_cycle(100).vertex_count == 100
    assert make_clique(20).edge_count == 190
    # 101 vertices twice, 420 arcs, 110 vertices, and 590 arcs on 100 vertices
    for build in (
        lambda: make_path(101),
        lambda: make_cycle(101),
        lambda: make_clique(21),
        lambda: cartesian_product(make_cycle(10), make_path(11)),
        lambda: cartesian_product(make_clique(5), make_path(20)),
    ):
        with pytest.raises(TooLargeError):
            build()


def test_graph_from_edges_validation():
    with pytest.raises(InvalidParameterError):
        graph_from_edges(-1, [])
    with pytest.raises(InvalidParameterError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(InvalidParameterError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(InvalidParameterError):
        graph_from_edges(3, [(0, 1), (1, 0)])


def test_product_clique_path():
    g, lab = cartesian_product(make_clique(4), make_path(2))
    assert g.vertex_count == 8 and g.edge_count == 16
    assert lab.id(2, 1) == 5 and lab.pair(5) == (2, 1)
    for outside in (lambda: lab.id(4, 0), lambda: lab.id(0, 2), lambda: lab.pair(8), lambda: lab.pair(-1)):
        with pytest.raises(InvalidParameterError):
            outside()


def test_product_torus_regular():
    g, _ = cartesian_product(make_cycle(3), make_cycle(4))
    assert g.vertex_count == 12
    assert all(g.degree(v) == 4 for v in g.vertices())


def test_product_adjacency_rule():
    # (a,b) ~ (c,d) iff equal in one coordinate, adjacent in the other
    g, lab = cartesian_product(make_path(3), make_cycle(3))
    for i, j in lab:
        for k, l in lab:
            expected = (i == k and make_cycle(3).has_edge(j, l)) or (
                j == l and make_path(3).has_edge(i, k)
            )
            assert g.has_edge(lab.id(i, j), lab.id(k, l)) == expected


@given(graphs(min_vertices=0, max_vertices=6), graphs(min_vertices=0, max_vertices=6))
def test_product_matches_edge_construction(g, h):
    # reference: list the product's edges by the definition and validate them
    n = h.vertex_count
    edges = [(i * n + j, i * n + k) for i in g.vertices() for j, k in h.edges()]
    edges += [(i * n + j, k * n + j) for i, k in g.edges() for j in h.vertices()]
    prod, lab = cartesian_product(g, h)
    assert prod == graph_from_edges(g.vertex_count * n, edges)
    assert lab == ProductLabeling(g.vertex_count, n)
    assert _ascending(prod)


@given(graphs(max_vertices=6), graphs(max_vertices=4))
def test_product_degree_additivity(g, h):
    prod, lab = cartesian_product(g, h)
    assert prod.vertex_count == g.vertex_count * h.vertex_count
    for i, j in lab:
        assert prod.degree(lab.id(i, j)) == g.degree(i) + h.degree(j)


@given(st.integers(1, 40))
def test_handshake(k):
    g = make_clique(k)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count


def test_parse_single_edge():
    g = parse_edge_list("p 2\n0 1\n")
    assert g.vertex_count == 2 and g.edges() == [(0, 1)]


def test_parse_comments_and_blanks():
    g = parse_edge_list("# generated\np 3\n\n0 1  # inline\n1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError) as info:
        parse_edge_list("p 2\n0 0\n")
    assert info.value.line_no == 2


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n",  # missing header
        "p x\n",  # bad count
        "p 2\n0 1\n0 1\n",  # duplicate edge
        "p 2\n0 2\n",  # out of range
        "p 2\nnope\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_parse_rejects_reversed_duplicate():
    with pytest.raises(ParseError) as info:
        parse_edge_list("p 3\n0 1\n1 2\n1 0\n")
    assert info.value.line_no == 4
    assert info.value.message == "duplicate edge (1, 0)"


def _ascending(g):
    edges = g.edges()
    return all(list(nbrs) == sorted(set(nbrs)) for nbrs in g.adjacency) and edges == sorted(edges)


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g
    assert _ascending(g)


def _parse_by_lines(text):
    """The edge-list reader as a plain line loop over str.splitlines()."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((no, line))
    if not lines:
        raise ParseError(1, "missing 'p <vertex_count>' header")
    (no, header), body = lines[0], lines[1:]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "p":
        raise ParseError(no, f"expected 'p <vertex_count>', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(no, f"vertex count {parts[1]!r} is not an integer") from None
    if n < 0:
        raise ParseError(no, f"vertex count must be non-negative, got {n}")
    nbrs = [set() for _ in range(n)]
    for no, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(no, f"non-integer endpoint in {line!r}") from None
        if u == v:
            raise ParseError(no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(no, f"edge ({u}, {v}) leaves the vertex range")
        if v in nbrs[u]:
            raise ParseError(no, f"duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return n, [sorted(s) for s in nbrs]


@st.composite
def _tokens(draw, n):
    x = draw(st.integers(-1, n + 1))
    return draw(
        st.sampled_from(
            [
                str(x),
                f"+{x}",
                f"0_{x}",
                str(x).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
                str(2**63 + x),
                "x",
            ]
        )
    )


@st.composite
def _edge_list_texts(draw):
    n = draw(st.integers(1, 6))
    plain = draw(st.booleans())  # texts that the bulk read takes, up to a bad edge
    breaks = st.sampled_from(
        ["\n"] if plain else ["\n", "\r\n", "\x0b", "\x0c", "\x85", "\u2028"]
    )
    # mostly edges in range, so that duplicates come up
    ends = st.sampled_from([*range(n)] * 4 + [-1, n]).map(str) if plain else _tokens(n)
    edge = st.tuples(ends, ends).map(" ".join)
    line = st.one_of(
        edge,
        edge,
        edge,
        st.tuples(ends, ends).map(lambda e: f"{e[0]}\t{e[1]}  # c"),
        st.lists(ends, min_size=1, max_size=3).map(" ".join),
        st.sampled_from(["", "# comment", "  "]),
    )
    lead = draw(st.lists(st.sampled_from(["", "# head", " "]), max_size=2))
    header = draw(st.sampled_from([f"p {n}"] * 12 + ["p 0", "p -1", "q 3", "p"]))
    body = draw(st.lists(line, max_size=10))
    lines = lead + [header] + body
    seps = [draw(breaks) for _ in lines]
    return "".join(text + sep for text, sep in zip(lines, seps))[: None if draw(st.booleans()) else -1]


def _assert_reads_as_by_lines(text):
    try:
        n, nbrs = _parse_by_lines(text)
    except ParseError as expected:
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert (info.value.line_no, info.value.message) == (expected.line_no, expected.message)
    else:
        g = parse_edge_list(text)
        assert g.vertex_count == n and [list(a) for a in g.adjacency] == nbrs


@given(_edge_list_texts())
@settings(max_examples=400)
def test_bulk_read_matches_line_reading(text):
    _assert_reads_as_by_lines(text)


# ten edge lists with two slots each, between, inside and around the
# header, the tokens, a comment and the line breaks; the test below puts
# one character in both slots
LINE_SHAPES = [
    "p 3{0}0 1{1}1 2\n",
    "p 3\n0{0}1{1}\n",
    "{0}p 3\n{1}0 1\n",
    "p 3\n0 1{0}# c{1}\n1 2\n",
    "p{0}3\n1 2{1}",
    "p 3\n{0}1 2{1}0 2\n",
    "p 3\n0 1\n1{0}{1}2\n",
    "p 3\r\n0 1{0}\r\n{1}2 1\r\n",
    "p 2{0}{1}0 1",
    "p 3\n0 {0}1\n2 {1}0\n",
]


@pytest.mark.parametrize("shape", LINE_SHAPES)
def test_every_ascii_character_reads_as_by_lines(shape):
    for c in map(chr, range(128)):
        _assert_reads_as_by_lines(shape.format(c, c))


def test_bulk_read_skips_the_line_loop(monkeypatch):
    import graphclean.graphs as graphs_module

    def refuse(lines, vertex_count):
        raise AssertionError("read line by line")

    monkeypatch.setattr(graphs_module, "_line_edges", refuse)
    text = "# made by hand\r\np 4\r\n0 1\r\n3 1 # inline\r\n\r\n+2 0\r\n"
    assert parse_edge_list(text).edges() == [(0, 1), (0, 2), (1, 3)]
    assert parse_edge_list("p 0\n").vertex_count == 0
    # ASCII breaks of str.splitlines other than "\n" and "\r\n"
    text = "p 5\r0 1\x0b1 2\x0c2 3 # c\x1c3 4\n"
    assert parse_edge_list(text).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_non_ascii_text_reads_line_by_line(monkeypatch):
    import graphclean.graphs as graphs_module

    calls = []
    line_edges = graphs_module._line_edges
    monkeypatch.setattr(
        graphs_module, "_line_edges", lambda *args: calls.append(1) or line_edges(*args)
    )
    text = "# café — by hand\np 4\n0 1  # é\n3 1\n2 0\n"
    ascii_twin = "# cafe - by hand\np 4\n0 1  # e\n3 1\n2 0\n"
    g = parse_edge_list(text)
    assert calls == [1]
    assert g == parse_edge_list(ascii_twin)
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


def test_serialize_sorted_canonical():
    g = graph_from_edges(4, [(3, 2), (1, 0), (2, 0)])
    assert serialize_edge_list(g).splitlines() == ["p 4", "0 1", "0 2", "2 3"]


def test_is_connected():
    assert is_connected(make_cycle(5))
    assert is_connected(make_path(1))
    assert is_connected(graph_from_edges(0, []))
    assert not is_connected(graph_from_edges(3, []))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))


# ------------------------------------------------------------ automorphisms

def _assert_automorphisms(g, group):
    edges = set(g.edges())
    for p in group.tolist():
        assert sorted(p) == list(range(g.vertex_count))
        assert {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} == edges
    assert len({tuple(p) for p in group.tolist()}) == len(group)


def _brute_force_group_order(g):
    """Counts the vertex permutations that map every edge to an edge."""
    n = g.vertex_count
    perms = np.array(list(permutations(range(n))), dtype=np.int8)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = True
    keep = np.ones(len(perms), dtype=bool)
    for u, v in g.edges():
        keep &= adj[perms[:, u], perms[:, v]]
    return int(keep.sum())


def _product(left, right):
    return cartesian_product(left, right)[0]


GROUP_ORDERS = [
    pytest.param(_product(make_cycle(3), make_cycle(5)), 60, id="C3xC5"),
    pytest.param(_product(make_cycle(4), make_cycle(4)), 384, id="C4xC4"),
    pytest.param(_product(make_cycle(5), make_cycle(5)), 200, id="C5xC5"),
] + [
    pytest.param(_product(make_clique(m), make_path(n)), 2 * factorial(m), id=f"K{m}xP{n}")
    for m in range(3, 7)
    for n in range(2, 5)
]


@pytest.mark.parametrize("g, order", GROUP_ORDERS)
def test_automorphism_group_orders(g, order):
    group = automorphisms(g, 10**6)
    assert len(group) == order
    assert group[0].tolist() == list(range(g.vertex_count))
    _assert_automorphisms(g, group)


@pytest.mark.parametrize(
    "g",
    [
        _product(make_cycle(3), make_cycle(3)),
        _product(make_clique(3), make_path(3)),
        _product(make_path(3), make_path(3)),
        _product(make_cycle(4), make_path(2)),
        _product(make_clique(4), make_path(2)),
        make_cycle(9),
        graph_from_edges(9, [(0, 1), (2, 3), (4, 5), (5, 6)]),
    ],
    ids=["C3xC3", "K3xP3", "P3xP3", "C4xP2", "K4xP2", "C9", "forest"],
)
def test_automorphisms_match_brute_force_named(g):
    group = automorphisms(g, 10**6)
    assert len(group) == _brute_force_group_order(g)
    _assert_automorphisms(g, group)


@given(graphs(max_vertices=7))
@settings(max_examples=60, deadline=None)
def test_automorphisms_match_brute_force(g):
    group = automorphisms(g, 10**6)
    assert len(group) == _brute_force_group_order(g)
    _assert_automorphisms(g, group)


def test_automorphisms_stop_at_limit():
    start = time.perf_counter()
    group = automorphisms(graph_from_edges(12, []), 500)
    assert time.perf_counter() - start < 1
    assert len(group) == 500
    _assert_automorphisms(graph_from_edges(12, []), group)


def test_automorphisms_stop_at_deadline():
    # past the deadline only the identity is returned
    g = _product(make_cycle(5), make_cycle(5))
    group = automorphisms(g, 10**6, deadline=time.monotonic() - 1)
    assert group.tolist() == [list(range(25))]


def test_automorphisms_of_tiny_graphs():
    assert automorphisms(graph_from_edges(0, []), 10).shape == (1, 0)
    assert automorphisms(graph_from_edges(2, []), 10).tolist() == [[0, 1], [1, 0]]

"""Closed-form brush configurations for graph families, plus the two
structural reductions: merging adjacent torus rows and deleting a clique
layer from a clique-path product.

Conventions.  Torus C_m x C_n: row index i from the left cycle, column
index j from the right cycle, flat id i*n + j.  Clique-path product
K_m x P_n: clique index i, path index j, same flat id rule.
"""

from __future__ import annotations

from typing import Callable

from .cleaning import BrushConfig, CleaningSequence, _check_sizes, check_cleaning, cleaning_order
from .errors import (
    InfeasibleStepError,
    InternalInconsistencyError,
    InvalidInputError,
    InvalidParameterError,
    PreconditionViolationError,
)
from .graphs import (
    Graph, ProductLabeling, Record, _check_order, cartesian_product, make_clique, make_cycle, make_path
)


# ---------------------------------------------------------------- families

def path_config(k: int) -> BrushConfig:
    """One brush at the left endpoint; total 1."""
    _check_order("path", k, 1)
    return BrushConfig((1,) + (0,) * (k - 1))


def path_sequence(k: int) -> CleaningSequence:
    _check_order("path", k, 1)
    return CleaningSequence(tuple(range(k)))


def cycle_config(k: int) -> BrushConfig:
    """Two brushes at vertex 0; total 2."""
    _check_order("cycle", k, 3)
    return BrushConfig((2,) + (0,) * (k - 1))


def cycle_sequence(k: int) -> CleaningSequence:
    _check_order("cycle", k, 3)
    return CleaningSequence(tuple(range(k)))


def clique_config(m: int) -> BrushConfig:
    """Vertex i holds max(0, m - 1 - 2i); total floor(m^2/4)."""
    _check_order("clique", m, 1)
    return BrushConfig(tuple(max(0, m - 1 - 2 * i) for i in range(m)))


def clique_sequence(m: int) -> CleaningSequence:
    _check_order("clique", m, 1)
    return CleaningSequence(tuple(range(m)))


def torus_brush_number(m: int, n: int) -> int:
    """2(m + n - 2) for the torus C_m x C_n, m, n >= 3."""
    _check_torus_dims(m, n)
    return 2 * (m + n - 2)


def torus_config(m: int, n: int) -> BrushConfig:
    """Brush-heavy corner layout: 4 at (0,0), 2 along the rest of row 0
    and column 0 except their far ends, 0 elsewhere."""
    _check_torus_dims(m, n)
    counts = [0] * (m * n)
    counts[0] = 4
    for j in range(1, n - 1):
        counts[j] = 2
    for i in range(1, m - 1):
        counts[i * n] = 2
    return BrushConfig(tuple(counts))


def torus_sequence(m: int, n: int) -> CleaningSequence:
    """Row-major from the brush-heavy corner."""
    _check_torus_dims(m, n)
    return CleaningSequence(tuple(range(m * n)))


def km_pn_brush_number(m: int, n: int) -> int:
    """n * m^2/4 for even m, n * floor(m^2/4) + 1 for odd m."""
    _check_km_pn_dims(m, n)
    if m % 2 == 0:
        return n * m * m // 4
    return n * (m * m // 4) + 1


def km_pn_config(m: int, n: int) -> BrushConfig:
    """Column layout for even m: clique position i holds max(0, m - 2i)
    in the first column, max(0, m - 1 - 2i) in middle columns and
    max(0, m - 2 - 2i) in the last; total n * m^2/4."""
    _check_km_pn_dims(m, n)
    if m % 2:
        raise InvalidParameterError(
            f"clique order must be even here, got {m}; use km_pn_config_odd"
        )
    return _km_pn_column_layout(m, n)


def km_pn_config_odd(m: int, n: int) -> BrushConfig:
    """Same column layout for odd m >= 3; total n * floor(m^2/4) + 1.

    The layout cleans along km_pn_sequence for every m, n >= 2: vertex
    (i, j) fires holding its own brushes plus i + [j > 0] received,
    against m - 1 - i + [j < n - 1] dirty edges.
    """
    _check_km_pn_dims(m, n)
    if m % 2 == 0:
        raise InvalidParameterError(f"clique order must be odd here, got {m}")
    return _km_pn_column_layout(m, n)


def km_pn_sequence(m: int, n: int) -> CleaningSequence:
    """Column by column, ascending clique index."""
    _check_km_pn_dims(m, n)
    return CleaningSequence(tuple(i * n + j for j in range(n) for i in range(m)))


def _km_pn_column_layout(m: int, n: int) -> BrushConfig:
    counts = []
    for i in range(m):
        for j in range(n):
            if j == 0:
                c = m - 2 * i
            elif j == n - 1:
                c = m - 2 - 2 * i
            else:
                c = m - 1 - 2 * i
            counts.append(max(0, c))
    return BrushConfig(tuple(counts))


def _check_torus_dims(m: int, n: int) -> None:
    if m < 3 or n < 3:
        raise InvalidParameterError(f"torus needs both cycles >= 3, got {m} x {n}")


def _check_km_pn_dims(m: int, n: int) -> None:
    if m < 2 or n < 2:
        raise InvalidParameterError(
            f"clique-path product needs m >= 2 and n >= 2, got {m} x {n}"
        )


def _check_km_cn_dims(m: int, n: int) -> None:
    if m < 2 or n < 3:
        raise InvalidParameterError(
            f"clique-cycle product needs m >= 2 and n >= 3, got {m} x {n}"
        )


def _product(
    check: Callable[[int, int], None], left: Callable[[int], Graph], right: Callable[[int], Graph]
) -> Callable[[int, int], Graph]:
    def build(m: int, n: int) -> Graph:
        check(m, n)
        return cartesian_product(left(m), right(n))[0]

    return build


class Family(Record):
    """A graph family: label names an instance with one {} per integer
    parameter; build checks the parameters and makes the graph; config,
    sequence and formula give the closed-form optimal cleaning and the
    brush number, where known.  The table's lambdas look the closed
    forms up by name at call time, so rebinding a module attribute (as
    a tracer does) is seen."""

    label: str
    build: Callable[..., Graph]
    config: Callable[..., BrushConfig] | None = None
    sequence: Callable[..., CleaningSequence] | None = None
    formula: Callable[..., int] | None = None

    @property
    def arity(self) -> int:
        return self.label.count("{}")


FAMILIES: dict[str, Family] = {
    "path": Family(
        "P{}", make_path, lambda k: path_config(k), lambda k: path_sequence(k), lambda k: 1
    ),
    "cycle": Family(
        "C{}", make_cycle, lambda k: cycle_config(k), lambda k: cycle_sequence(k), lambda k: 2
    ),
    "clique": Family(
        "K{}",
        make_clique,
        lambda k: clique_config(k),
        lambda k: clique_sequence(k),
        lambda k: k * k // 4,
    ),
    "torus": Family(
        "C{}xC{}",
        _product(_check_torus_dims, make_cycle, make_cycle),
        lambda m, n: torus_config(m, n),
        lambda m, n: torus_sequence(m, n),
        lambda m, n: torus_brush_number(m, n),
    ),
    "km-pn": Family(
        "K{}xP{}",
        _product(_check_km_pn_dims, make_clique, make_path),
        lambda m, n: km_pn_config(m, n) if m % 2 == 0 else km_pn_config_odd(m, n),
        lambda m, n: km_pn_sequence(m, n),
        lambda m, n: km_pn_brush_number(m, n),
    ),
    "km-cn": Family("K{}xC{}", _product(_check_km_cn_dims, make_clique, make_cycle)),
}


# ------------------------------------------------------- torus row merging

def combine_torus_rows(
    labeling: ProductLabeling,
    w0: BrushConfig,
    seq: CleaningSequence,
    row: int,
) -> tuple[Graph, ProductLabeling, BrushConfig, CleaningSequence]:
    """Merge rows row and row+1 of a cleanable torus vertex-wise.

    Each merged vertex inherits the pair's brush sum and the earlier of
    the pair's cleaning positions, so the output cleans C_{m-1} x C_n
    with the same total.  Requires m >= 4 and a valid input cleaning.
    """
    m, n = labeling.m, labeling.n
    _check_torus_dims(m, n)
    if m < 4:
        raise InvalidParameterError(f"merging rows needs m >= 4, got {m}")
    if not 0 <= row <= m - 2:
        raise InvalidParameterError(f"row must be in 0..{m - 2}, got {row}")
    _simulate_or_invalid("torus", m, n, w0, seq)
    return _merge_lines(labeling, w0, seq, "rows", row)[:4]


def _merge_lines(
    labeling: ProductLabeling,
    w0: BrushConfig,
    seq: CleaningSequence,
    axis: str,
    low: int,
) -> tuple[Graph, ProductLabeling, BrushConfig, CleaningSequence, list[int], list[int]]:
    """Merge line low with the next line along axis ("rows" or "cols"),
    keeping the input's labelling.

    Line k maps to (k - (k > low)) % (length - 1), so the wrapped pair
    (length - 1, 0) folds onto line 0.  Returns the merged torus, its
    labelling, config, first-occurrence sequence and its positions, and
    the vertex map as a list indexed by input vertex.  The input must
    already have been simulated, which checks that every id is in range.
    """
    m, n = labeling.m, labeling.n
    if axis == "rows":
        new_lab = ProductLabeling(m - 1, n)
        vmap = [(i - (i > low)) % (m - 1) * n + j for i in range(m) for j in range(n)]
    else:
        new_lab = ProductLabeling(m, n - 1)
        vmap = [i * (n - 1) + (j - (j > low)) % (n - 1) for i in range(m) for j in range(n)]
    counts = [0] * (new_lab.m * new_lab.n)
    for v, c in enumerate(w0.counts):
        counts[vmap[v]] += c
    new_g = FAMILIES["torus"].build(new_lab.m, new_lab.n)
    new_w0 = BrushConfig(tuple(counts))
    # dict keys keep each merged vertex at its first position in seq
    new_seq = CleaningSequence(tuple(dict.fromkeys(vmap[v] for v in seq)))
    try:
        new_pos = check_cleaning(new_g, new_w0, new_seq)
    except InfeasibleStepError as exc:  # ruled out for valid inputs
        raise InternalInconsistencyError(
            f"merged cleaning failed at vertex {exc.vertex}"
        ) from exc
    return new_g, new_lab, new_w0, new_seq, new_pos, vmap


class TorusReduction(Record):
    """A merged torus cleaning with two brushes removed.

    axis ("rows" or "cols") and pair name the adjacent lines that were
    merged; pair is ordered along the cycle, so it may wrap (e.g.
    (m-1, 0)).  target is the vertex whose brush deficit locates the
    savings: the first vertex in cleaning order holding fewer than four
    brushes.
    """

    graph: Graph
    labeling: ProductLabeling
    config: BrushConfig
    sequence: CleaningSequence
    axis: str
    pair: tuple[int, int]
    target: int
    removed_at: int


def reduce_torus(
    labeling: ProductLabeling, w0: BrushConfig, seq: CleaningSequence
) -> TorusReduction:
    """Merge the correct rows and remove two brushes; full artifact.

    Scans the cleaning order for the first vertex with fewer than four
    initial brushes; that vertex has an earlier-cleaned neighbour, and
    the two lines through the pair are the candidates.  Only axes of
    length >= 4 are usable (the merged cycle must keep length >= 3), so
    when the primary pair lies along a length-3 axis the scan continues
    with later deficient vertices, validating each candidate by
    simulation.  Requires an optimal input cleaning, which is simulated
    once.

    The merge keeps the input's labelling: a row merge gives
    C_{m-1} x C_n, a column merge C_m x C_{n-1}, and the wrapped pair
    (last, 0) folds onto line 0.  Two brushes come off the merged
    target if it holds six, else off the later-cleaned of the target
    and each earlier neighbour, else, as a last resort, off any vertex
    holding two, latest-cleaned first.  The merged order is kept when
    it still cleans; otherwise can_clean's greedy lowest-id order (in
    the output labelling) is used.  Both the last-resort candidates and
    the greedy order are reached on tori with a length-3 axis.
    """
    m, n = labeling.m, labeling.n
    _check_torus_dims(m, n)
    if m < 4 and n < 4:
        raise InvalidParameterError(f"no axis of {m} x {n} can be shortened")
    g, pos = _simulate_or_invalid("torus", m, n, w0, seq)
    if w0.total != torus_brush_number(m, n):
        raise PreconditionViolationError(
            f"input total {w0.total} is not the optimal {torus_brush_number(m, n)}"
        )
    for t in seq:
        if w0[t] >= 4:
            continue
        earlier = sorted(
            (u for u in g.adjacency[t] if pos[u] < pos[t]), key=pos.__getitem__
        )
        for p in earlier:
            axis, pair = _axis_pair(labeling, t, p)
            if (m if axis == "rows" else n) < 4:
                continue
            reduction = _attempt_reduction(labeling, w0, seq, axis, pair, t, earlier)
            if reduction is not None:
                return reduction
    raise InternalInconsistencyError(
        "no adjacent row or column pair frees two brushes; "
        "this contradicts the structure of an optimal torus cleaning"
    )


def _axis_pair(
    labeling: ProductLabeling, t: int, p: int
) -> tuple[str, tuple[int, int]]:
    # t and p are torus neighbours, so they share a row or a column and
    # their other coordinates are adjacent along that cycle
    ti, tj = labeling.pair(t)
    pi, pj = labeling.pair(p)
    if tj == pj:
        axis, a, b, length = "rows", pi, ti, labeling.m
    else:
        axis, a, b, length = "cols", pj, tj, labeling.n
    return axis, (a, b) if (a + 1) % length == b else (b, a)


def _attempt_reduction(
    labeling: ProductLabeling,
    w0: BrushConfig,
    seq: CleaningSequence,
    axis: str,
    pair: tuple[int, int],
    target: int,
    earlier: list[int],
) -> TorusReduction | None:
    merged_g, merged_lab, merged_cfg, merged_seq, merged_pos, vmap = _merge_lines(
        labeling, w0, seq, axis, pair[0]
    )
    merged_tgt = vmap[target]
    candidates: list[int] = []
    if merged_cfg[merged_tgt] >= 6:
        candidates.append(merged_tgt)
    for p2 in earlier:
        mp2 = vmap[p2]
        if mp2 == merged_tgt:
            continue
        later = max(merged_tgt, mp2, key=merged_pos.__getitem__)
        candidates.append(later)
    # last resort: any vertex with spare brushes, latest-cleaned first
    candidates.extend(
        sorted(
            (v for v in range(len(merged_cfg)) if merged_cfg[v] >= 2),
            key=merged_pos.__getitem__,
            reverse=True,
        )
    )
    seen: set[int] = set()
    for cand in candidates:
        if cand in seen or merged_cfg[cand] < 2:
            continue
        seen.add(cand)
        trimmed = BrushConfig(
            tuple(c - 2 if v == cand else c for v, c in enumerate(merged_cfg.counts))
        )
        out_seq = cleaning_order(merged_g, trimmed, merged_seq)
        if out_seq is None:
            continue
        return TorusReduction(
            graph=merged_g,
            labeling=merged_lab,
            config=trimmed,
            sequence=out_seq,
            axis=axis,
            pair=pair,
            target=target,
            removed_at=cand,
        )
    return None


def _simulate_or_invalid(
    family: str, m: int, n: int, w0: BrushConfig, seq: CleaningSequence
) -> tuple[Graph, list[int]]:
    """The family's m x n graph and seq's positions, once seq cleans it
    from w0.  A config or sequence not of m * n vertices is refused
    before the graph is built."""
    _check_sizes(m * n, w0, seq)
    g = FAMILIES[family].build(m, n)
    try:
        return g, check_cleaning(g, w0, seq)
    except InfeasibleStepError as exc:
        raise InvalidInputError(
            f"input pair does not clean the graph: {exc}"
        ) from exc


# ------------------------------------------------- clique layer deletion

_CLASS_ADJUST = {"a": 1, "e": 1, "c": -1, "g": -1}


class BoundaryClassCounts(Record):
    """Counts of the eight kinds of adjacent pair straddling the first
    two clique copies, keyed by (first holds brushes?, cleaning
    direction, second holds brushes?).  diagnostics lists departures
    from the structure optimal cleanings are known to have."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int
    diagnostics: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d + self.e + self.f + self.g + self.h


def classify_boundary_pairs(
    labeling: ProductLabeling, w0: BrushConfig, seq: CleaningSequence
) -> BoundaryClassCounts:
    """Classify the m pairs between clique copies 0 and 1 of K_m x P_n:
    the classes of delete_clique_layer's reduction.

    Optimal cleanings of even-order products place positive first-copy
    brushes on the first half of that copy's cleaning order; violations
    are reported in diagnostics rather than rejected.
    """
    return delete_clique_layer(labeling, w0, seq).classes


class CliqueLayerReduction(Record):
    """K_m x P_{n-1} from deleting clique copy 0, with the boundary pair
    classes that set its copy-1 brushes.  sequence is the input order
    on the surviving copies if it cleans the output, else can_clean's
    greedy order, or None when no order cleans it."""

    graph: Graph
    labeling: ProductLabeling
    config: BrushConfig
    sequence: CleaningSequence | None
    classes: BoundaryClassCounts


def delete_clique_layer(
    labeling: ProductLabeling, w0: BrushConfig, seq: CleaningSequence
) -> CliqueLayerReduction:
    """Remove clique copy 0 and compensate copy 1 per its pair classes.

    Pairs whose first-copy vertex cleans first and whose classes mark
    both ends (a) or the far end only (e) gain one brush; pairs cleaned
    from the second copy against positive far brushes (c, g) give one
    up.  For n = 2 the output is a bare clique, and for even m it gains
    the one extra brush the half-way vertex may need.  The input is
    checked once; its positions give the classes and the output order.
    For even m the output cleans K_m x P_{n-1} whenever the input
    cleaning is optimal.  For odd m and n >= 3 it does not: on the
    closed-form cleaning it is one brush short of b(K_m x P_{n-1})
    (K_5 x P_4 gives 18, and b(K_5 x P_3) = 19), and sequence is None.
    """
    m, n = labeling.m, labeling.n
    _check_km_pn_dims(m, n)
    _, pos = _simulate_or_invalid("km-pn", m, n, w0, seq)
    # the class of pair x, from its key bits: first copy empty, cleaned
    # from the second copy, second copy empty
    classes = [
        "abcdefgh"[4 * (w0[u] == 0) + 2 * (pos[u] > pos[v]) + (w0[v] == 0)]
        for u, v in ((labeling.id(x, 0), labeling.id(x, 1)) for x in range(m))
    ]
    first_copy = sorted((labeling.id(x, 0) for x in range(m)), key=pos.__getitem__)
    diagnostics = tuple(
        f"vertex {u} holds {w0[u]} brushes but is cleaned at rank {rank} of {m} in its copy"
        for rank, u in enumerate(first_copy, start=1)
        if m % 2 == 0 and w0[u] > 0 and rank > m // 2
    )

    new_lab = ProductLabeling(m, n - 1)
    counts = [0] * (m * (n - 1))
    for x in range(m):
        for j in range(1, n):
            c = w0[labeling.id(x, j)]
            if j == 1:  # c and g subtract only where w0[id(x, 1)] > 0, so c >= 0
                c += _CLASS_ADJUST.get(classes[x], 0)
            counts[new_lab.id(x, j - 1)] = c

    if n == 2 and m % 2 == 0:
        second_copy = sorted((labeling.id(x, 1) for x in range(m)), key=pos.__getitem__)
        halfway = second_copy[m // 2 - 1]
        if w0[halfway] == 0:
            x, _ = labeling.pair(halfway)
            counts[new_lab.id(x, 0)] += 1

    new_g, _ = cartesian_product(make_clique(m), make_path(n - 1))  # n - 1 may be 1
    new_w0 = BrushConfig(tuple(counts))
    # the input order on copies 1..n-1: (x, j) -> (x, j - 1) is v -> v - x - 1
    kept = CleaningSequence(tuple(v - v // n - 1 for v in seq if v % n))
    return CliqueLayerReduction(
        new_g, new_lab, new_w0, cleaning_order(new_g, new_w0, kept),
        BoundaryClassCounts(*map(classes.count, "abcdefgh"), diagnostics=diagnostics),
    )

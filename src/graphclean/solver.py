"""Exact brush-number solvers.

The number of brushes needed to clean a graph equals the minimum over
cleaning sequences of the sequence's minimal-config total, so both
solvers search the space of vertex orders.  The subset DP uses

    f(S) = min over v in S of f(S - v) + max(0, deg(v) - 2*|N(v) & (S - v)|)

with f(empty) = 0, the cheapest cost of cleaning S first.  An order and
its reverse cost the same, so the cheapest order that cleans S first
costs f(S) + f(V - S) - e(S, V - S): S in its cheapest order, then the
reverse of V - S's.  The DP fills f only up to ceil(n/2) vertices and
takes the minimum of that sum over the sets of floor(n/2) vertices.
It skips every set whose f plus the parity bound on the rest (Messinger,
Nowakowski and Pralat, TCS 2008) exceeds the greedy order's cost: such
a set cannot tie an optimum.  The branch-and-bound explores prefixes
directly and is useful past the DP's memory reach; solve runs either.
"""

from __future__ import annotations

import heapq
import time
from bisect import insort
from itertools import combinations, permutations
from typing import TYPE_CHECKING

from .cleaning import CleaningSequence
from .errors import InternalInconsistencyError, InvalidParameterError, TooLargeError
from .graphs import (
    Graph,
    Record,
    automorphisms,
    cartesian_product,
    is_connected,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_DP_CAP = 22
DEFAULT_BNB_TIMEOUT = 60.0  # seconds
# Vertex sets the branch-and-bound's dominance table holds; sets met
# once it is full are searched but not recorded.
BNB_MEMO_ENTRIES = 1_500_000
# The branch-and-bound keys its table by Aut(G)-orbits when it finds at
# least ORBIT_MIN_GROUP automorphisms: the per-child numpy key lost on
# every |A| = 2 graph of the benchmark's pool (18 vertices: 8.4 -> 13.2
# ms) and won from |A| = 12 (K3xP5: 15.5 -> 6.3 ms).
ORBIT_MIN_GROUP = 8
# It uses at most ORBIT_MAX_GROUP of them, as a key costs |A| words per
# child: K8xP3 (|A| = 80640) took 0.87 s with 2048, 1.4 s with 16384
# and 3.2 s with all; K7xP4 (|A| = 10080) 9.7 s with 2048, 6.4 s with all.
ORBIT_MAX_GROUP = 2048
# Peak bytes per subset state in brush_number_dp, traced at 16 vertices
# where nothing is pruned (10.8 on the edgeless graph and K16): the
# one-byte tables f and h (2) span every subset, the rest is the reached
# layers and one chunk of DP_CHUNK_ROWS sets (1024 to 4096 time alike,
# 512 is about 10% slower; 2048 peaks at 17.4 and 512 at 8.9).  That
# share shrinks as n grows (7.3 at 20, 7.1 at 22).
DP_BYTES_PER_STATE = 11
DP_CHUNK_ROWS = 1024
# The DP's one size gate: 2^26 * DP_BYTES_PER_STATE is 704 MB, which fits
# in 1 GB, and 27 vertices would need 1408 MB, so the int32 set masks'
# limit of 31 vertices never binds.
DP_MAX_VERTICES = 26

_UNREACHED = 255  # np.iinfo(np.uint8).max: an order on 26 vertices costs at most 169


def dp_reach(max_vertices: int = DEFAULT_DP_CAP) -> int:
    """The most vertices the DP solves under a cap of max_vertices."""
    return min(max_vertices, DP_MAX_VERTICES)


def _refuse_past_reach(n: int, max_vertices: int) -> None:
    limit = dp_reach(max_vertices)
    if n > limit:
        raise TooLargeError(f"{n} vertices exceed the DP cap of {limit}")


class SolveResult(Record):
    value: int
    witness: CleaningSequence
    method: str
    states: int
    seconds: float
    complete: bool = True
    # a proven lower bound on b(G) when the result is not complete
    lower_bound: int | None = None


def _adjacency_masks(g: Graph) -> tuple[list[int], list[int]]:
    masks = [sum(1 << u for u in g.adjacency[v]) for v in range(g.vertex_count)]
    degs = [g.degree(v) for v in range(g.vertex_count)]
    return masks, degs


def parity_lower_bound(g: Graph) -> int:
    """ceil(#odd-degree vertices / 2); every orientation leaves an odd
    vertex with out- and in-degree apart by at least one."""
    odd = sum(1 for v in range(g.vertex_count) if g.degree(v) % 2)
    return (odd + 1) // 2


def _walk_back(f: np.ndarray, s: int, masks: list[int], degs: list[int]) -> list[int]:
    """An order of s's vertices that costs f[s], last vertex first; each
    step takes off the lowest vertex id that the table accounts for."""
    seq = []
    while s:
        here = f.item(s)
        for v in range(len(masks)):
            prev_s = s ^ 1 << v
            step = degs[v] - 2 * (masks[v] & prev_s).bit_count()
            if s >> v & 1 and here == f.item(prev_s) + max(0, step):
                seq.append(v)
                s = prev_s
                break
        else:
            raise InternalInconsistencyError("DP table admits no predecessor")
    return seq


def _dp_layers(f: np.ndarray, h: np.ndarray, masks: list[int], degs: list[int], cap: int):
    """Fill f and h from their empty-set entries one layer at a time and
    yield the kept sets of 0, 1, ..., ceil(n/2) vertices, each layer
    ascending and with its entries filled; S | u is kept when f + LB <=
    cap, as brush_number_dp states.  A layer is pushed in chunks of
    DP_CHUNK_ROWS sets, each a grid with one row per vertex and one
    column per set, so that every ufunc runs along the chunk rather than
    over the n vertices."""
    import numpy as np
    marr = np.array(masks, dtype=np.int32)[:, None]
    bits = np.left_shift(1, np.arange(len(masks), dtype=np.int32))[:, None]
    darr = np.array(degs, dtype=np.int16)[:, None]
    ceil_half = (darr + 1) >> 1
    layer = np.zeros(1, dtype=np.int32)
    yield layer
    for _ in range((len(masks) + 1) // 2):
        fresh = []
        for lo in range(0, layer.size, DP_CHUNK_ROWS):
            s = layer[lo : lo + DP_CHUNK_ROWS]
            common = np.bitwise_count(s & marr)
            # sums in place: one temporary fewer each, a few % on 15-20 vertices
            cost = np.maximum(darr - 2 * common, 0)
            cost += f.take(s)
            child_h = h.take(s) - ceil_half
            child_h += common
            bound = np.maximum(child_h, 0)
            bound += cost
            flip = s ^ bits  # S | v where v is outside S, else S - v
            # flat indices: a 2-d boolean index gathers about 5x slower
            keep = ((bound <= cap) & (flip > s)).ravel().nonzero()[0]
            child = flip.take(keep)
            new = f.take(child) == _UNREACHED
            fresh.append(child[new])
            h[fresh[-1]] = child_h.take(keep[new])
            np.minimum.at(f, child, cost.take(keep).astype(f.dtype, copy=False))  # int16 into uint8: 20x slower
        # the reached sets, ascending; np.unique is 40x slower at 2M
        layer = np.concatenate(fresh)
        layer.sort()
        first = np.empty(layer.size, dtype=bool)
        first[0] = True
        np.not_equal(layer[1:], layer[:-1], out=first[1:])
        layer = layer[first]
        yield layer


def brush_number_dp(g: Graph, *, max_vertices: int = DEFAULT_DP_CAP) -> SolveResult:
    """Exact brush number by half-depth subset DP with a reconstructed witness.

    f is filled only on sets of at most ceil(n/2) vertices, and the
    answer is the minimum over sets S of floor(n/2) vertices of
    f(S) + f(V - S) - cut(S), the lowest such mask winning a tie.  The
    witness is S's order followed by the reverse of V - S's order, each
    rebuilt from the table breaking ties toward the lowest vertex id.

    A set S is kept, and pushed to each S | u, only if f(S) + LB(S) <=
    cap, the greedy order's cost; LB(S) = max(0, ceil(deficit(S) / 2)),
    deficit(S) the odd-degree vertices outside S minus cut(S).  Others
    stay unreached.  The deficit is always even: deficit(empty) counts
    the odd-degree vertices, and adding u lowers it by odd(u) + deg(u)
    - 2|N(u) & S|.  So the table holds h(S) = deficit(S) / 2, LB(S) =
    max(0, h(S)), and h(S | u) = h(S) + |N(u) & S| - ceil(deg(u) / 2):
    S | u is kept when f(S) + step + max(0, h(S | u)) <= cap, step =
    max(0, deg(u) - 2|N(u) & S|).  Adding u lowers LB by at most u's
    cost, so f + LB never falls along a cheapest chain and every kept set
    has its exact f; both halves of an optimal order have f + LB <= b(G)
    <= cap.  So each optimal split and walk-back step is on exact
    entries, one through an unreached set costs more, and the output is
    that of the full table.  states is still the table size 2^|V|.

    Memory grows as 2^|V|, about DP_BYTES_PER_STATE bytes per subset, of
    which f and h take one each.  No order costs over floor(n^2/4), below
    the unreached 255: take the vertices P whose step is positive; edges
    among them cancel, so the steps sum to at most the edges leaving P,
    at most |P|(n - |P|).  Any order's steps on S sum to at least cut(S),
    so f(S) >= cut(S): a split with an unreached complement exceeds cap.
    Instances past dp_reach(max_vertices) are refused.
    """
    n = g.vertex_count
    _refuse_past_reach(n, max_vertices)
    import numpy as np
    start = time.perf_counter()
    masks, degs = _adjacency_masks(g)
    size = 1 << n
    cap = _greedy_order(g)[1]
    oddmask = sum(1 << v for v in range(n) if degs[v] % 2)
    # f(S) <= cap <= n^2/4 < 255, |h(S)| <= n^2/8 < 128 and 2*|N(v) & S| < 2^8
    # fit the tables and uint8 counts; h(S) is written once S is reached
    f = np.full(size, _UNREACHED, dtype=np.uint8)
    h = np.empty(size, dtype=np.int8)
    f[0], h[0] = 0, oddmask.bit_count() // 2
    for k, layer in enumerate(_dp_layers(f, h, masks, degs, cap)):
        if k == n // 2:
            halves = layer

    # reached halves only; cut(S) = odd-degree vertices outside S minus 2h(S),
    # summed in int16: 2h(S) leaves int8 from 23 vertices, f(S) + an unreached 255 at once
    cut = np.bitwise_count(~halves & oddmask) - 2 * h.take(halves).astype(np.int16)
    total = f.take(halves).astype(np.int16) + f.take((size - 1) ^ halves) - cut
    pick = int(np.argmin(total))
    value = int(total[pick])
    s = int(halves[pick])
    seq = _walk_back(f, s, masks, degs)[::-1] + _walk_back(f, (size - 1) ^ s, masks, degs)
    return SolveResult(
        value, CleaningSequence(tuple(seq)), "dp", size, time.perf_counter() - start
    )


def _greedy_order(g: Graph) -> tuple[tuple[int, ...], int]:
    """The order that cleans next the vertex of least marginal cost
    max(0, deg(v) - 2 * cleaned neighbours), lowest id on a tie, and its
    cost.  A cost only falls, by 2 when a neighbour is cleaned, so one
    heap pass serves; the entries a fall leaves behind are skipped."""
    marg = [len(nbrs) for nbrs in g.adjacency]
    heap = [(d, v) for v, d in enumerate(marg)]
    heapq.heapify(heap)
    cleaned = [False] * g.vertex_count
    seq: list[int] = []
    cost = 0
    while heap:
        c, v = heapq.heappop(heap)
        if cleaned[v] or c != max(0, marg[v]):
            continue
        cleaned[v] = True
        seq.append(v)
        cost += c
        for u in g.adjacency[v]:
            if not cleaned[u]:
                marg[u] -= 2
                if marg[u] >= -1:  # the key max(0, marg[u]) fell
                    heapq.heappush(heap, (max(0, marg[u]), u))
    return tuple(seq), cost


def brush_number_bnb(
    g: Graph,
    upper_hint: int | None = None,
    *,
    timeout: float | None = DEFAULT_BNB_TIMEOUT,
) -> SolveResult:
    """Branch-and-bound over cleaning prefixes, as one loop over an explicit stack.

    Branches on the next-cleaned vertex, cheapest marginal cost first:
    each node's children are pushed most expensive first.  The lowest
    free vertex u of no cost, if any, is the only child: moving u to the
    front of any completion keeps its cost 0 and can only lower the
    others', so some optimal order takes every such move.  As u depends
    on the cleaned set alone, the memo, the upper_hint proof and the
    timeout bound hold over those orders.  A child is pushed only when
    its cost plus a parity bound on the remainder can beat the incumbent
    and a dominance table of up to BNB_MEMO_ENTRIES keys has not reached
    its key as cheaply.  Both cuts run again when it is popped, as the
    incumbent and the table may have improved since.  states counts the
    popped nodes.

    The memo is keyed by Aut(G)-orbits found from g itself: when
    automorphisms(g) gives at least ORBIT_MIN_GROUP of them (at most
    ORBIT_MAX_GROUP, on at most 63 vertices), a cleaned set's key is its
    least image under them, else the set itself.  Equal keys mean one
    orbit, and an automorphism maps the completions of a set onto those
    of its image at the same cost, so one entry serves the whole orbit.
    Finding the automorphisms counts against timeout.

    upper_hint, when given, caps the search: only orders costing at
    most upper_hint are explored.  A search that ends with nothing that
    cheap proves b(G) > upper_hint: it returns the best sequence found
    with complete=False and lower_bound at least upper_hint + 1.  A
    timed-out search also returns a proven lower_bound: the least cost
    plus parity bound over the unexplored prefixes on its stack, at most
    the incumbent.
    """
    if timeout is not None and not timeout >= 0:  # NaN too: no deadline check would pass it
        raise InvalidParameterError(f"timeout must be a non-negative number of seconds, got {timeout}")
    import numpy as np
    n = g.vertex_count
    start = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    adj = g.adjacency
    degs = [len(nbrs) for nbrs in adj]
    best_seq, best_cost = _greedy_order(g)
    cap = best_cost if upper_hint is None else min(best_cost, upper_hint + 1)
    # images[u, a] is the bit of u's image under the a-th automorphism,
    # images_of[depth] the images of sets[depth]; keys fit in an int64
    group = automorphisms(g, ORBIT_MAX_GROUP, deadline) if n <= 63 else np.empty((0, n))
    orbits = len(group) >= ORBIT_MIN_GROUP
    images = np.left_shift(1, group.T.astype(np.int64))
    images_of = np.zeros((n + 1, len(group)), dtype=np.int64)
    memo: dict[int, int] = {}
    # a popped entry's parent is the last entry popped one level up, so
    # path[:depth] and sets[depth] hold the popped prefix's order and set
    path = [0] * n
    sets = [0] * (n + 1)
    # marg[u] = deg(u) - 2 * |N(u) & prefix| and free, the vertices
    # outside it in ascending order, reflect path[:applied]; a pop undoes
    # the entries that left the prefix, a node that is not cut redoes
    # the ones that joined it
    odd_of = [d & 1 for d in degs]
    marg = degs[:]
    free = list(range(n))
    applied = 0
    # (cost, last vertex, odd-degree vertices left minus cut edges,
    # depth, orbit key or None for the set itself)
    odd = sum(odd_of)
    lower = (odd + 1) // 2
    stack = [(0, 0, odd, 0, None)]
    # a pop scans the free list, up to n vertices, and undoes or redoes
    # prefix entries at a cost of their degrees, once per entry pushed;
    # so the clock is read every 256 pops, or more often past 256 vertices
    every = min(256, 65536 // (n + 1) + 1)
    states = 0
    timed_out = False
    while stack:
        cost, v, deficit, depth, key = stack.pop()
        states += 1
        if deadline is not None and states % every == 0 and time.monotonic() > deadline:
            # some cheapest order takes every forced move; each such
            # order left unexplored extends the popped prefix or one on
            # the stack, or was cut at a cost of at least cap, and each
            # of those prefixes costs at least its cost plus parity bound
            stack.append((cost, v, deficit, depth, key))
            least = min(c + max(0, (d + 1) // 2) for c, _, d, _, _ in stack)
            lower = max(lower, min(cap, least))
            timed_out = True
            break
        if depth:
            # undo before path[depth - 1] is overwritten
            while applied >= depth:
                applied -= 1
                w = path[applied]
                insort(free, w)
                for x in adj[w]:
                    marg[x] += 2
            path[depth - 1] = v
            sets[depth] = sets[depth - 1] | 1 << v
        if depth == n:
            if cost < best_cost:
                best_cost, best_seq = cost, tuple(path)
                cap = min(cap, cost)
            continue
        mask = sets[depth]
        if key is None:
            key = mask
        seen = memo.get(key)
        if seen is not None and seen <= cost:
            continue
        if seen is not None or len(memo) < BNB_MEMO_ENTRIES:
            memo[key] = cost
        lb = (deficit + 1) // 2
        if cost + (lb if lb > 0 else 0) >= cap:
            continue
        while applied < depth:
            w = path[applied]
            applied += 1
            free.remove(w)
            for x in adj[w]:
                marg[x] -= 2
        # (cost, vertex, deficit) of each child whose cost plus parity
        # bound can beat cap; the lowest free vertex of no cost, if any,
        # is the only child (always so for the last free vertex)
        children = []
        for u in free:
            m = marg[u]
            child_cost = cost + m if m > 0 else cost
            child_deficit = deficit - odd_of[u] - m
            bound = child_cost + (child_deficit + 1) // 2 if child_deficit > 0 else child_cost
            if m <= 0:
                children = [(child_cost, u, child_deficit)] if bound < cap else []
                break
            if bound < cap:
                children.append((child_cost, u, child_deficit))
        if not children:
            continue
        children.sort(reverse=True)
        if orbits:
            if depth:
                np.bitwise_or(images_of[depth - 1], images[v], out=images_of[depth])
            keys = (images_of[depth] | images[[c[1] for c in children]]).min(axis=1).tolist()
        else:
            keys = [mask | 1 << c[1] for c in children]
        for (c, u, d), k in zip(children, keys):
            seen = memo.get(k)
            if seen is None or seen > c:
                stack.append((c, u, d, depth + 1, k if orbits else None))
    complete = not timed_out and (upper_hint is None or best_cost <= upper_hint)
    if not complete and not timed_out:
        lower = max(lower, upper_hint + 1)
    return SolveResult(
        best_cost,
        CleaningSequence(best_seq),
        "bnb",
        states,
        time.perf_counter() - start,
        complete=complete,
        lower_bound=None if complete else lower,
    )


def brute_force_permutations(g: Graph, *, max_vertices: int = 9) -> SolveResult:
    """Exhaustive minimum over every cleaning order; reference oracle."""
    n = g.vertex_count
    if n > max_vertices:
        raise TooLargeError(f"{n} vertices exceed the brute-force cap of {max_vertices}")
    start = time.perf_counter()
    masks, degs = _adjacency_masks(g)
    full = (1 << n) - 1
    best_cost = n * n // 4 + 1  # above every order's cost, as brush_number_dp shows
    best_seq: tuple[int, ...] = ()
    path: list[int] = []
    states = 0

    def extend(mask: int, cost: int) -> None:
        nonlocal best_cost, best_seq, states
        states += 1
        if mask == full:
            if cost < best_cost:
                best_cost, best_seq = cost, tuple(path)
            return
        for v in range(n):
            if not mask >> v & 1:
                marg = degs[v] - 2 * (masks[v] & mask).bit_count()
                path.append(v)
                extend(mask | (1 << v), cost + (marg if marg > 0 else 0))
                path.pop()

    extend(0, 0)
    return SolveResult(
        best_cost,
        CleaningSequence(best_seq),
        "brute",
        states,
        time.perf_counter() - start,
    )


def solve(
    g: Graph, method: str | None = None, *, max_vertices: int = DEFAULT_DP_CAP,
    timeout: float | None = DEFAULT_BNB_TIMEOUT, upper_hint: int | None = None,
) -> SolveResult:
    """b(G) by method "dp" (up to dp_reach(max_vertices) vertices), "bnb"
    (with timeout and upper_hint) or "brute"; with no method, the DP on
    graphs within that reach and the branch-and-bound on larger ones."""
    if method is None:
        method = "dp" if g.vertex_count <= dp_reach(max_vertices) else "bnb"
    if method == "dp":
        return brush_number_dp(g, max_vertices=max_vertices)
    if method == "bnb":
        return brush_number_bnb(g, upper_hint, timeout=timeout)
    if method == "brute":
        return brute_force_permutations(g)
    raise InvalidParameterError(f"unknown method {method!r}, expected dp, bnb or brute")


class BoxConjectureReport(Record):
    """Outcome of sweeping every labeled graph on m vertices against one
    fixed right factor: products of paths should sit at the bottom and
    products of cliques at the top.

    The sandwich is only claimed for connected left factors (a left
    factor with an isolated vertex sheds a full copy of the right factor
    and can undercut the path product), so min/max attainers and the
    violation list range over the connected graphs; `graphs_checked`
    still counts the whole enumeration."""

    path_value: int
    clique_value: int
    min_value: int
    max_value: int
    min_edges: tuple[tuple[int, int], ...]
    max_edges: tuple[tuple[int, int], ...]
    graphs_checked: int
    connected_checked: int
    violations: tuple[tuple[tuple[tuple[int, int], ...], int], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def check_box_conjecture(
    h: Graph, m: int, *, max_vertices: int = DEFAULT_DP_CAP
) -> BoxConjectureReport:
    """Exact sweep of all 2^(m(m-1)/2) labeled left factors on m vertices.

    Flags every graph whose product value leaves the closed interval
    [b(P_m x H), b(K_m x H)].  Relabelling G relabels G x H, so the DP
    runs once per isomorphism class: the first labeled graph met of a
    class is solved, and its value is stored under the edge bitmask of
    each of its m! relabellings.  Every product has m * |H| vertices, so
    one past the DP's reach is refused before any is built.
    """
    if not 2 <= m <= 5:
        raise InvalidParameterError(f"left-factor order must be 2..5, got {m}")
    _refuse_past_reach(m * h.vertex_count, max_vertices)
    pairs = list(combinations(range(m), 2))
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    # per vertex permutation, the bit that each pair's bit moves to
    moves = [
        [bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs]
        for p in permutations(range(m))
    ]

    # adjacent[v][u]: the bit of the pair {u, v}, 0 for u == v
    adjacent = [[bit.get((min(u, v), max(u, v)), 0) for u in range(m)] for v in range(m)]

    def edges_of(bits: int) -> tuple[tuple[int, int], ...]:
        return tuple(pair for i, pair in enumerate(pairs) if bits >> i & 1)

    # edge bitmask -> product value, None for a disconnected left factor
    values: dict[int, int | None] = {}
    for bits in range(1 << len(pairs)):
        if bits in values:
            continue
        # the pairs are distinct and in range: no edge needs validating
        left = Graph(m, tuple(tuple(u for u in range(m) if bits & adjacent[v][u]) for v in range(m)))
        value = None
        if is_connected(left):
            product, _ = cartesian_product(left, h)
            value = solve(product, "dp", max_vertices=max_vertices).value
        present = [i for i in range(len(pairs)) if bits >> i & 1]
        for move in moves:
            values[sum(move[i] for i in present)] = value

    path_value = values[sum(bit[i, i + 1] for i in range(m - 1))]
    clique_value = values[(1 << len(pairs)) - 1]
    connected = [bits for bits in range(1 << len(pairs)) if values[bits] is not None]
    # min and max keep the first labelled graph that attains the extreme
    low = min(connected, key=values.__getitem__)
    high = max(connected, key=values.__getitem__)
    return BoxConjectureReport(
        path_value=path_value,
        clique_value=clique_value,
        min_value=values[low],
        max_value=values[high],
        min_edges=edges_of(low),
        max_edges=edges_of(high),
        graphs_checked=1 << len(pairs),
        connected_checked=len(connected),
        violations=tuple(
            (edges_of(bits), values[bits])
            for bits in connected
            if not path_value <= values[bits] <= clique_value
        ),
    )

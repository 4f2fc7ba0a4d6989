"""Checks of graphclean's outputs against values made apart from it.

Each check takes the exit code and the captured standard output of one
operation and returns None when the output is right, or the reason it
is wrong.  Nothing here imports graphclean: the checks read the
program's text formats with their own parsers, re-score cleaning orders
and re-simulate cleanings themselves.
"""

from __future__ import annotations

from pathlib import Path

from reference import adjacency, km_pn_value, named, torus_value, value_of

# connected labelled graphs on m vertices (OEIS A001187)
CONNECTED_LABELLED = {2: 1, 3: 4, 4: 38, 5: 728}


# ------------------------------------------------------------ formats


def fields(out):
    """key=value lines of an output, first occurrence of each key."""
    found = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key and key not in found:
            found[key] = value
    return found


def write_graph(path, g, rng=None):
    n, edges = g
    lines = [f"{u} {v}" for u, v in edges]
    if rng is not None:
        rng.shuffle(lines)
    Path(path).write_text("\n".join([f"p {n}"] + lines) + "\n")


def write_config(path, counts):
    body = [f"{v} {c}" for v, c in enumerate(counts) if c]
    Path(path).write_text("\n".join([f"b {len(counts)}"] + body) + "\n")


def write_sequence(path, order):
    Path(path).write_text(f"s {len(order)}\n" + " ".join(map(str, order)) + "\n")


def _data(path):
    lines = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            lines.append(line)
    return lines


def read_graph(path):
    lines = _data(path)
    if lines[0][0] != "p":
        raise ValueError(f"{path}: no 'p' header")
    return int(lines[0][1]), sorted(tuple(sorted((int(u), int(v)))) for u, v in lines[1:])


def read_config(path):
    lines = _data(path)
    if lines[0][0] != "b":
        raise ValueError(f"{path}: no 'b' header")
    counts = [0] * int(lines[0][1])
    for v, c in lines[1:]:
        counts[int(v)] = int(c)
    return counts


def read_sequence(path):
    lines = _data(path)
    if lines[0][0] != "s":
        raise ValueError(f"{path}: no 's' header")
    return [int(v) for line in lines[1:] for v in line]


# ------------------------------------------------------- re-checking


def scores(adj, order):
    """Brushes each vertex needs when cleaned in this order:
    max(0, deg v - 2 |neighbours of v cleaned before v|)."""
    done = [False] * len(adj)
    need = [0] * len(adj)
    for v in order:
        earlier = sum(done[u] for u in adj[v])
        need[v] = max(0, len(adj[v]) - 2 * earlier)
        done[v] = True
    return need


def is_permutation(order, n):
    return len(order) == n and sorted(order) == list(range(n))


def cleans(adj, counts, order):
    """Re-simulate: every vertex, when cleaned, holds at least as many
    brushes as it has dirty edges and sends one along each."""
    if not is_permutation(order, len(adj)):
        return False
    brushes = list(counts)
    clean = [False] * len(adj)
    for v in order:
        dirty = [u for u in adj[v] if not clean[u]]
        if brushes[v] < len(dirty):
            return False
        for u in dirty:
            brushes[u] += 1
        clean[v] = True
    return True


def check_files(prefix, expected_graph, expected_total):
    """A written .graph/.config/.sequence triple: the graph is the
    expected one and the config cleans it along the sequence."""
    g = read_graph(f"{prefix}.graph")
    if g != (expected_graph[0], sorted(expected_graph[1])):
        return f"{prefix}.graph is not the expected graph"
    counts = read_config(f"{prefix}.config")
    if len(counts) != g[0] or sum(counts) != expected_total:
        return f"{prefix}.config holds {sum(counts)} brushes, expected {expected_total}"
    if not cleans(adjacency(g), counts, read_sequence(f"{prefix}.sequence")):
        return f"{prefix}.config does not clean along {prefix}.sequence"
    return None


# ------------------------------------------------------------- solve


def _solve_fields(g, expected, f):
    if f.get("complete") != "true":
        return f"complete={f.get('complete')}"
    if int(f["value"]) != expected:
        return f"value={f['value']}, expected {expected}"
    order = [int(v) for v in f["sequence"].split()]
    if not is_permutation(order, g[0]):
        return "sequence is not a permutation"
    need = scores(adjacency(g), order)
    if sum(need) != expected or int(f["total"]) != expected:
        return f"sequence scores {sum(need)}, total={f['total']}, expected {expected}"
    printed = {} if f["config"] == "-" else dict(
        map(int, item.split(":")) for item in f["config"].split()
    )
    if printed != {v: c for v, c in enumerate(need) if c}:
        return "config is not the minimal config of the sequence"
    return None


def solve_check(g, expected):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        return _solve_fields(g, expected, fields(out))

    return check


def bad_hint_check(g, expected):
    """With an upper hint below b(G) the solver may reject the hint
    (exit 2) or report an incomplete search (exit 4); a complete answer
    must still be exact."""

    def check(rc, out):
        if rc in (2, 4):
            return None
        if rc != 0:
            return f"exit {rc}"
        return _solve_fields(g, expected, fields(out))

    return check


# ------------------------------------------------------------ report


def _tokens(line):
    # "a=1 b=2" -> {"a": "1", "b": "2"}
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _rows(out, first_key):
    """Per-row key=value lines of a report, and its summary line."""
    lines = out.splitlines()
    rows = [_tokens(line) for line in lines if line.startswith(first_key + "=")]
    summary = [_tokens(line) for line in lines if line.startswith("summary ")]
    return rows, summary[-1] if summary else {}


def _instance(label):
    # "C3xC4" -> (3, 4)
    left, right = label.split("x")
    return int(left[1:]), int(right[1:])


def report_family_check(suite, instances):
    """torus and km-pn: every row's formula and solver value equal the
    benchmark's own closed form, solved by the DP."""
    kind = {"torus": ("C", "C"), "km-pn": ("K", "P")}[suite]
    value = {"torus": torus_value, "km-pn": km_pn_value}[suite]

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        rows, summary = _rows(out, "instance")
        labels = [f"{kind[0]}{m}x{kind[1]}{n}" for m, n in instances]
        if [r["instance"] for r in rows] != labels:
            return f"rows {[r['instance'] for r in rows]}, expected {labels}"
        for r in rows:
            m, n = _instance(r["instance"])
            want = value(m, n)
            if (int(r["formula"]), int(r["solver"]), r["match"]) != (want, want, "yes"):
                return f"{r['instance']}: formula={r['formula']} solver={r['solver']}, expected {want}"
            if r["method"] != "dp" or int(r["states"]) != 1 << (m * n):
                return f"{r['instance']}: method={r['method']} states={r['states']}"
        if summary.get("rows") != str(len(labels)) or summary.get("mismatches") != "0":
            return f"summary {summary}"
        return None

    return check


def report_km_cn_check(instances, products):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        rows, summary = _rows(out, "instance")
        labels = [f"K{m}xC{n}" for m, n in instances]
        if [r["instance"] for r in rows] != labels:
            return f"rows {[r['instance'] for r in rows]}, expected {labels}"
        verdicts = set()
        for r in rows:
            m, n = _instance(r["instance"])
            want = value_of(r["instance"], products)
            fixed, scaled = m * m // 4 + 2, n * (m * m // 4) + 2
            verdict = {
                (True, True): "both", (True, False): "fixed",
                (False, True): "scaled", (False, False): "neither",
            }[(want == fixed, want == scaled)]
            got = (int(r["solver"]), int(r["fixed"]), int(r["scaled"]), r["verdict"])
            if got != (want, fixed, scaled, verdict):
                return f"{r['instance']}: {got}, expected {(want, fixed, scaled, verdict)}"
            verdicts.add(verdict)
        conclusion = verdicts.pop() if len(verdicts) == 1 else "mixed"
        if summary.get("conclusion") != conclusion or summary.get("rows") != str(len(labels)):
            return f"summary {summary}, expected conclusion={conclusion}"
        return None

    return check


def report_box_check(order, factor, products):
    """graphs = 2^(m(m-1)/2); connected = the number of connected
    labelled graphs; path <= min <= max <= clique, and since the path
    and the clique are among the connected left factors, min = path
    and max = clique."""

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        rows, _ = _rows(out, "order")
        if len(rows) != 1:
            return f"{len(rows)} box rows"
        r = rows[0]
        path = value_of(f"P{order}x{factor}", products)
        clique = value_of(f"K{order}x{factor}", products)
        want = {
            "order": str(order), "factor": factor,
            "graphs": str(2 ** (order * (order - 1) // 2)),
            "connected": str(CONNECTED_LABELLED[order]),
            "path": str(path), "clique": str(clique),
            "min": str(path), "max": str(clique),
            "violations": "0", "match": "yes",
        }
        wrong = {k: r.get(k) for k, v in want.items() if r.get(k) != v}
        if wrong:
            return f"box {order} {factor}: {wrong}, expected { {k: want[k] for k in wrong} }"
        if not int(r["path"]) <= int(r["min"]) <= int(r["max"]) <= int(r["clique"]):
            return "box row out of order"
        return None

    return check


# ---------------------------------------------------- verify / reduce


def config_check(family, m, n, prefix):
    name = f"C{m}xC{n}" if family == "torus" else f"K{m}xP{n}"
    want = torus_value(m, n) if family == "torus" else km_pn_value(m, n)

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        f = fields(out)
        got = (f.get("vertices"), f.get("total"), f.get("formula"), f.get("verified"))
        if got != (str(m * n), str(want), str(want), "true"):
            return f"config {name}: {got}"
        return check_files(prefix, named(name), want)

    return check


def verify_sequence_check(n, total):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        f = fields(out)
        steps = sum(1 for line in out.splitlines() if line.startswith("step="))
        if (f.get("feasible"), f.get("total"), steps) != ("true", str(total), n):
            return f"verify: feasible={f.get('feasible')} total={f.get('total')} steps={steps}"
        return None

    return check


def verify_written_check(prefix):
    """verify --sequence on files an earlier operation of the round wrote."""

    def check(rc, out):
        counts = read_config(f"{prefix}.config")
        return verify_sequence_check(len(counts), sum(counts))(rc, out)

    return check


def verify_greedy_check(g, counts):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        f = fields(out)
        if f.get("cleanable") != "true":
            return f"cleanable={f.get('cleanable')}"
        if not cleans(adjacency(g), counts, [int(v) for v in f["sequence"].split()]):
            return "the printed sequence does not clean the graph"
        return None

    return check


def reduce_torus_check(m, n, prefix):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        f = fields(out)
        dims = _instance(f["reduced"])
        if dims not in ((m - 1, n), (m, n - 1)):
            return f"reduced={f['reduced']} from C{m}xC{n}"
        want = torus_value(*dims)
        got = (f.get("total_before"), f.get("total_after"), f.get("savings"), f.get("verified"))
        if got != (str(torus_value(m, n)), str(want), "2", "true"):
            return f"reduce torus-rows C{m}xC{n}: {got}"
        return check_files(prefix, named(f["reduced"]), want)

    return check


def reduce_clique_check(m, n, prefix):
    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        f = fields(out)
        before, after = km_pn_value(m, n), km_pn_value(m, n - 1)
        got = (f.get("reduced"), f.get("total_before"), f.get("total_after"),
               f.get("savings"), f.get("verified"))
        want = (f"K{m}xP{n - 1}", str(before), str(after), str(before - after), "true")
        if got != want:
            return f"reduce clique-layer K{m}xP{n}: {got}, expected {want}"
        return check_files(prefix, named(f"K{m}xP{n - 1}"), after)

    return check

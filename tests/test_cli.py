"""End-to-end runs of the command line through main()."""

import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from graphclean import (
    BrushConfig,
    CleaningSequence,
    GraphCleanError,
    brush_number_dp,
    cartesian_product,
    graph_from_edges,
    make_clique,
    make_cycle,
    minimal_config_for_sequence,
    parse_brush_config,
    parse_edge_list,
    parse_sequence,
    serialize_brush_config,
    serialize_edge_list,
    serialize_sequence,
)
from graphclean import cli, constructions as cons, solver
from graphclean.cli import main
from graphclean.graphs import MAX_HEADER_VERTICES


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        tokens = line.split()
        if tokens and all("=" in t for t in tokens):
            for token in tokens:
                key, value = token.split("=", 1)
                pairs.setdefault(key, value)
        elif "=" in line and " " not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            pairs.setdefault(key, value)
    return pairs


def write_optimal_cleaning(tmp_path, g, stem):
    res = brush_number_dp(g)
    w0 = minimal_config_for_sequence(g, res.witness)
    cfg = tmp_path / f"{stem}.config"
    seq = tmp_path / f"{stem}.sequence"
    cfg.write_text(serialize_brush_config(w0))
    seq.write_text(serialize_sequence(res.witness, g.vertex_count))
    return cfg, seq


# ------------------------------------------------------------------ gen

def test_gen_to_file(tmp_path, capsys):
    out_file = tmp_path / "kp.graph"
    code, out, _ = run(capsys, "gen", "km-pn", "4", "2", "-o", str(out_file))
    assert code == 0
    assert kv(out)["vertices"] == "8" and kv(out)["edges"] == "16"
    g = parse_edge_list(out_file.read_text())
    assert g.vertex_count == 8 and g.edge_count == 16


def test_gen_stdout(capsys):
    code, out, err = run(capsys, "gen", "cycle", "5")
    assert code == 0
    assert parse_edge_list(out).edge_count == 5
    assert "vertices=5" in err


def test_gen_rejects_degenerate(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 2 and "error:" in err


def test_gen_product_of_files(tmp_path, capsys):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    a.write_text(serialize_edge_list(make_cycle(3)))
    b.write_text(serialize_edge_list(make_cycle(4)))
    code, out, _ = run(capsys, "gen", "product", str(a), str(b), "-o", str(tmp_path / "p.graph"))
    assert code == 0 and kv(out)["vertices"] == "12"


# ---------------------------------------------------------------- solve

@pytest.mark.parametrize(
    "family,params,value",
    [
        ("torus", ("3", "3"), "8"),
        ("clique", ("6",), "9"),
        ("km-pn", ("3", "2"), "5"),
    ],
)
def test_solve_known_values(tmp_path, capsys, family, params, value):
    path = tmp_path / "g.graph"
    assert run(capsys, "gen", family, *params, "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    pairs = kv(out)
    assert pairs["value"] == value and pairs["complete"] == "true"


def test_solve_methods_agree(tmp_path, capsys):
    path = tmp_path / "c5.graph"
    run(capsys, "gen", "cycle", "5", "-o", str(path))
    values = set()
    for method in ("dp", "bnb", "brute"):
        code, out, _ = run(capsys, "solve", str(path), "--method", method)
        assert code == 0
        values.add(kv(out)["value"])
    assert values == {"2"}


def test_solve_reports_witness_consistently(tmp_path, capsys):
    path = tmp_path / "g.graph"
    run(capsys, "gen", "torus", "3", "3", "-o", str(path))
    _, out, _ = run(capsys, "solve", str(path))
    pairs = kv(out)
    assert pairs["total"] == pairs["value"]
    assert len(pairs["sequence"].split()) == 9


def test_solve_over_cap(tmp_path, capsys):
    path = tmp_path / "k30.graph"
    run(capsys, "gen", "clique", "30", "-o", str(path))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3 and "error:" in err


def test_solve_parse_error_names_file(tmp_path, capsys):
    path = tmp_path / "broken.graph"
    path.write_text("p 3\n0 1\nbogus\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "broken.graph" in err and "line 3" in err


def test_solve_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "absent.graph"))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command", ["gen", "config", "reduce"])
def test_unwritable_output_is_bad_input(tmp_path, capsys, command):
    prefix = str(tmp_path / "kp43")
    assert run(capsys, "config", "km-pn", "4", "3", "--out-prefix", prefix)[0] == 0
    missing = str(tmp_path / "absent" / "x")
    argv = {
        "gen": ["gen", "torus", "4", "4", "-o", missing + ".graph"],
        "config": ["config", "torus", "4", "4", "--out-prefix", missing],
        "reduce": [
            "reduce", "clique-layer", "4", "3", "--config", prefix + ".config",
            "--sequence", prefix + ".sequence", "--out-prefix", missing,
        ],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: cannot write {missing}." in err


def test_failed_write_removes_the_files_written(tmp_path, capsys):
    (tmp_path / "p.config").mkdir()
    code, out, err = run(capsys, "config", "torus", "4", "4", "--out-prefix", str(tmp_path / "p"))
    assert code == 2
    assert f"error: cannot write {tmp_path / 'p.config'}:" in err
    assert "wrote=" not in out
    assert not (tmp_path / "p.graph").exists()


@pytest.mark.parametrize("slot", ["solve", "verify-graph", "verify-config", "reduce-config"])
def test_undecodable_input_is_bad_input(tmp_path, capsys, slot):
    prefix = str(tmp_path / "kp43")
    assert run(capsys, "config", "km-pn", "4", "3", "--out-prefix", prefix)[0] == 0
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"p 2\n0 1\xff\n")
    argv = {
        "solve": ["solve", str(bad)],
        "verify-graph": ["verify", str(bad), prefix + ".config"],
        "verify-config": ["verify", prefix + ".graph", str(bad)],
        "reduce-config": [
            "reduce", "clique-layer", "4", "3", "--config", str(bad),
            "--sequence", prefix + ".sequence",
        ],
    }[slot]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: cannot read {bad}:" in err


def test_solve_bnb_stops_at_budget(tmp_path, capsys):
    # 1200 vertices: the branch-and-bound runs to its timeout, not to a
    # recursion limit, and reports the incumbent as incomplete
    path = tmp_path / "k3p400.graph"
    assert run(capsys, "gen", "km-pn", "3", "400", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", str(path), "--method", "bnb", "--timeout", "1")
    assert code == 4
    assert kv(out)["complete"] == "false"


def test_solve_bnb_timeout_prints_proven_lower_bound(tmp_path, capsys):
    # the parity bound is 0 on a torus; the bound from the search's
    # stack counts the first vertex's 4 brushes
    path = tmp_path / "t88.graph"
    assert run(capsys, "gen", "torus", "8", "8", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", str(path), "--method", "bnb", "--timeout", "0.2")
    assert code == 4
    pairs = kv(out)
    assert pairs["complete"] == "false"
    assert 4 <= int(pairs["lower_bound"]) <= 28 <= int(pairs["value"])


@pytest.mark.parametrize("command", [["solve", "{graph}", "--method", "bnb"], ["report", "torus"]])
@pytest.mark.parametrize("timeout", ["nan", "-1", "-inf"])
def test_bad_timeout_is_rejected(tmp_path, capsys, command, timeout):
    # no deadline check ever passes a NaN deadline, so the search would never stop
    path = tmp_path / "k2.graph"
    path.write_text("p 2\n0 1\n")
    argv = [a.format(graph=path) for a in command]
    code, out, err = run(capsys, *argv, f"--timeout={timeout}")
    assert code == 2 and out == ""
    assert "--timeout must be a non-negative number of seconds" in err


def test_solve_bnb_low_hint_prints_hint_plus_one(tmp_path, capsys):
    # b(C4 x C5) = 14: a search that finds nothing at most 13 proves 14
    path = tmp_path / "t45.graph"
    assert run(capsys, "gen", "torus", "4", "5", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", str(path), "--method", "bnb", "--upper-hint", "13")
    assert code == 4
    pairs = kv(out)
    assert (pairs["complete"], pairs["lower_bound"]) == ("false", "14")


def test_crash_exits_internal_error(monkeypatch, capsys):
    # a crash must not read as "infeasible" (1)
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_solve", crash)
    code, _, err = run(capsys, "solve", "any.graph")
    assert code == 5
    assert err.startswith("error: internal: RuntimeError: boom")


@pytest.mark.parametrize(
    "argv", [["solve"], ["report", "torus", "--jobs", "x"], ["no-such-command"]]
)
def test_usage_errors_return_two(capsys, argv):
    # main returns argparse's exit code instead of raising SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: graphclean")


def test_help_returns_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: graphclean")


@pytest.mark.parametrize("command", [["solve", "{graph}"], ["report", "torus"]])
def test_negative_dp_cap_is_rejected(tmp_path, capsys, command):
    # a negative cap is bad input (2), not an instance over the cap (3)
    path = tmp_path / "c5.graph"
    path.write_text(serialize_edge_list(make_cycle(5)))
    argv = [a.format(graph=path) for a in command]
    code, out, err = run(capsys, *argv, "--max-dp-vertices", "-1")
    assert code == 2 and out == ""
    assert "--max-dp-vertices must be at least 0, got -1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "{t45}.graph", "--upper-hint", "3"],
            "--upper-hint applies only to --method bnb",
        ),
        (
            ["solve", "{t45}.graph", "--method", "brute", "--upper-hint", "3"],
            "--upper-hint applies only to --method bnb",
        ),
        (
            ["reduce", "clique-layer", "4", "3", "--config", "{kp43}.config",
             "--sequence", "{kp43}.sequence", "--row", "7"],
            "--row applies only to torus-rows",
        ),
        (
            ["report", "torus", "--instances", "3x3", "--factor", "P2"],
            "--factor applies only to the box suite",
        ),
        (["report", "km-pn", "--order", "3"], "--order applies only to the box suite"),
        (
            ["report", "box", "--order", "3", "--factor", "P2", "--instances", "3x3"],
            "--instances does not apply to the box suite",
        ),
        (
            ["report", "box", "--factor", "P2", "--m-range", "2..3"],
            "--m-range does not apply to the box suite",
        ),
        (
            ["report", "torus", "--instances", "3x3", "--m-range", "4..5"],
            "--m-range cannot be combined with --instances",
        ),
        (
            ["report", "km-cn", "--instances", "3x3", "--n-range", "3..4"],
            "--n-range cannot be combined with --instances",
        ),
        (["solve", "{t45}.graph", "--timeout", "1"], "--timeout applies only to --method bnb"),
        (
            ["solve", "{t45}.graph", "--method", "brute", "--timeout", "1"],
            "--timeout applies only to --method bnb",
        ),
        (
            ["solve", "{t45}.graph", "--method", "bnb", "--max-dp-vertices", "1"],
            "--max-dp-vertices applies only to --method dp",
        ),
        (
            ["solve", "{t45}.graph", "--method", "brute", "--max-dp-vertices", "1"],
            "--max-dp-vertices applies only to --method dp",
        ),
        (
            ["report", "km-cn", "--instances", "3x3", "--timeout", "1"],
            "--timeout applies only to the torus and km-pn suites",
        ),
        (
            ["report", "box", "--order", "3", "--factor", "P2", "--timeout", "1"],
            "--timeout applies only to the torus and km-pn suites",
        ),
    ],
    ids=[
        "hint-dp", "hint-brute", "row-clique-layer", "factor-torus", "order-km-pn",
        "instances-box", "range-box", "instances-and-range", "instances-and-n-range",
        "timeout-dp", "timeout-brute", "dp-cap-bnb", "dp-cap-brute", "timeout-km-cn",
        "timeout-box",
    ],
)
def test_unread_option_is_refused(tmp_path, capsys, argv, message):
    # an option the command would ignore is bad input, not silently dropped
    t45, kp43 = tmp_path / "t45", tmp_path / "kp43"
    assert run(capsys, "gen", "torus", "4", "5", "-o", f"{t45}.graph")[0] == 0
    assert run(capsys, "config", "km-pn", "4", "3", "--out-prefix", str(kp43))[0] == 0
    code, out, err = run(capsys, *(a.format(t45=t45, kp43=kp43) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"



@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "torus", "3"], "torus takes 2 parameters, got 1"),
        (["gen", "torus", "3", "x"], "torus parameters must be integers: ['3', 'x']"),
        (["report", "torus", "--instances", "3x3,4"], "bad instance '4', expected MxN"),
        (["report", "torus", "--instances", "3xq"], "bad instance '3xq', expected MxN"),
        (["report", "torus", "--instances", ""], "bad instance '', expected MxN"),
        (["gen", "product", "a.graph"], "product takes two edge-list files"),
    ],
    ids=["arity", "integers", "instance-fields", "instance-integers", "instances-empty", "product-files"],
)
def test_bad_parameters_are_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# ------------------------------------------------- many calls, one process

def test_main_keeps_no_options_between_calls(tmp_path, capsys):
    path = tmp_path / "t45.graph"
    assert run(capsys, "gen", "torus", "4", "5", "-o", str(path))[0] == 0
    assert run(capsys, "solve", str(path), "--method", "bnb", "--upper-hint", "13")[0] == 4
    code, out, _ = run(capsys, "solve", str(path), "--method", "bnb")
    assert code == 0
    assert kv(out)["complete"] == "true" and kv(out)["value"] == "14"


def test_main_dispatches_at_call_time(monkeypatch, capsys):
    # the first call builds the parser; the handler is still looked up per call
    assert run(capsys, "config", "torus", "3", "3")[0] == 0
    seen = []

    def fake_solve(args):
        seen.append(args.graph)
        return 0

    monkeypatch.setattr(cli, "cmd_solve", fake_solve)
    assert run(capsys, "solve", "any.graph")[0] == 0
    assert seen == ["any.graph"]


def test_import_leaves_out_the_process_pool():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import graphclean.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_gen_config_and_reduce_leave_out_numpy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(src)!r})
from graphclean.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
t = {str(tmp_path)!r} + "/"
run("gen", "torus", "6", "8", "-o", t + "t68.graph")
run("config", "km-pn", "4", "5", "--out-prefix", t + "k45")
run("reduce", "clique-layer", "4", "5", "--config", t + "k45.config",
    "--sequence", t + "k45.sequence", "--out-prefix", t + "k44")
run("config", "torus", "5", "6", "--out-prefix", t + "t56")
run("reduce", "torus-rows", "5", "6", "--config", t + "t56.config",
    "--sequence", t + "t56.sequence", "--out-prefix", t + "t46")
print("numpy" in sys.modules)
run("solve", t + "k44.graph")
print("numpy" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]


# --------------------------------------------------------------- config

@pytest.mark.parametrize(
    "family,params,total",
    [
        ("torus", ("4", "5"), "14"),
        ("km-pn", ("4", "3"), "12"),
        ("km-pn", ("5", "2"), "13"),
    ],
)
def test_config_totals(capsys, family, params, total):
    code, out, _ = run(capsys, "config", family, *params)
    assert code == 0
    pairs = kv(out)
    assert pairs["total"] == total and pairs["verified"] == "true"


def test_config_writes_consistent_files(tmp_path, capsys):
    prefix = str(tmp_path / "t45")
    code, _, _ = run(capsys, "config", "torus", "4", "5", "--out-prefix", prefix)
    assert code == 0
    g = parse_edge_list((tmp_path / "t45.graph").read_text())
    w0 = parse_brush_config((tmp_path / "t45.config").read_text())
    seq = parse_sequence((tmp_path / "t45.sequence").read_text())
    code, out, _ = run(
        capsys,
        "verify",
        str(tmp_path / "t45.graph"),
        str(tmp_path / "t45.config"),
        "--sequence",
        str(tmp_path / "t45.sequence"),
    )
    assert code == 0 and "feasible=true" in out
    assert w0.total == 14 and len(seq) == g.vertex_count == 20


def test_config_refuses_a_closed_form_that_does_not_clean(tmp_path, capsys, monkeypatch):
    # a torus layout one brush short at the corner: printed, exit 5, nothing written
    full = cons.torus_config
    monkeypatch.setattr(cons, "torus_config", lambda m, n: BrushConfig((3,) + full(m, n).counts[1:]))
    code, out, _ = run(capsys, "config", "torus", "4", "5", "--out-prefix", str(tmp_path / "t45"))
    assert code == 5
    assert (kv(out)["total"], kv(out)["verified"]) == ("13", "false")
    assert "wrote=" not in out and list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- verify

def test_verify_canonical_torus(tmp_path, capsys):
    prefix = str(tmp_path / "t33")
    run(capsys, "config", "torus", "3", "3", "--out-prefix", prefix)
    code, out, _ = run(
        capsys, "verify", prefix + ".graph", prefix + ".config", "--sequence", prefix + ".sequence"
    )
    assert code == 0
    assert "feasible=true" in out and "total=8" in out
    assert out.count("step=") == 9


def test_verify_blocked_path(tmp_path, capsys):
    graph = tmp_path / "p3.graph"
    config = tmp_path / "zero.config"
    run(capsys, "gen", "path", "3", "-o", str(graph))
    config.write_text("b 3\n")
    code, out, _ = run(capsys, "verify", str(graph), str(config))
    assert code == 1
    assert "cleanable=false" in out and "blocked=0 1 2" in out


def test_verify_search_finds_sequence(tmp_path, capsys):
    graph = tmp_path / "c4.graph"
    config = tmp_path / "c4.config"
    run(capsys, "gen", "cycle", "4", "-o", str(graph))
    config.write_text("b 4\n0 2\n")
    code, out, _ = run(capsys, "verify", str(graph), str(config))
    assert code == 0
    assert "cleanable=true" in out and kv(out)["sequence"].split()[0] == "0"


def test_verify_infeasible_sequence_reports_vertex(tmp_path, capsys):
    graph = tmp_path / "p3.graph"
    config = tmp_path / "one.config"
    seq = tmp_path / "rev.sequence"
    run(capsys, "gen", "path", "3", "-o", str(graph))
    config.write_text("b 3\n0 1\n")
    seq.write_text("s 3\n2 1 0\n")
    code, out, _ = run(capsys, "verify", str(graph), str(config), "--sequence", str(seq))
    assert code == 1
    assert "feasible=false" in out and "failed_vertex=2" in out



def test_verify_sequence_text_is_pinned(tmp_path, capsys):
    # C4 is the cycle 0-1-2-3-0; firing 2 first cleans 1-2 (neighbour
    # below the fired vertex) and 2-3, and 0 fires last with nothing dirty
    graph = tmp_path / "c4.graph"
    config = tmp_path / "c4.config"
    seq = tmp_path / "c4.sequence"
    run(capsys, "gen", "cycle", "4", "-o", str(graph))
    config.write_text("b 4\n2 2\n")
    seq.write_text("s 4\n2 1 3 0\n")
    code, out, _ = run(capsys, "verify", str(graph), str(config), "--sequence", str(seq))
    assert code == 0
    assert out == (
        "step=1 vertex=2 before=2 cleaned=1-2,2-3 sent=1,3\n"
        "step=2 vertex=1 before=1 cleaned=0-1 sent=0\n"
        "step=3 vertex=3 before=1 cleaned=0-3 sent=0\n"
        "step=4 vertex=0 before=2 cleaned=- sent=-\n"
        "feasible=true\n"
        "total=2\n"
    )

    config.write_text("b 4\n2 1\n3 1\n")
    code, out, _ = run(capsys, "verify", str(graph), str(config), "--sequence", str(seq))
    assert code == 1
    assert out == "feasible=false\nfailed_vertex=2 have=1 need=2\n"


def _verify_by_moving_brushes(g, counts, order):
    """verify --sequence's exit code and stdout, from brushes moved one
    firing at a time."""
    brushes, fired, lines = list(counts), set(), []
    for k, v in enumerate(order, start=1):
        dirty = sorted(u for u in g.adjacency[v] if u not in fired)
        if brushes[v] < len(dirty):
            return 1, f"feasible=false\nfailed_vertex={v} have={brushes[v]} need={len(dirty)}\n"
        edges = ",".join(f"{min(u, v)}-{max(u, v)}" for u in dirty) or "-"
        sent = ",".join(str(u) for u in dirty) or "-"
        lines.append(f"step={k} vertex={v} before={brushes[v]} cleaned={edges} sent={sent}")
        for u in dirty:
            brushes[u] += 1
        brushes[v] -= len(dirty)
        fired.add(v)
    return 0, "\n".join(lines + ["feasible=true", f"total={sum(counts)}"]) + "\n"


@st.composite
def cleanings(draw):
    # the edge set and the firing order are drawn apart, so a fired
    # vertex's later neighbours lie both below and above it
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = graph_from_edges(n, [pair for pair, k in zip(pairs, keep) if k])
    seq = CleaningSequence(tuple(draw(st.permutations(range(n)))))
    stocked = draw(st.booleans())
    floor = minimal_config_for_sequence(g, seq).counts if stocked else (0,) * n
    extra = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return g, BrushConfig(tuple(map(sum, zip(floor, extra)))), seq


@given(cleanings())
# on C4, 3 fires first holding 1 of the 2 brushes it owes and 1 fires
# next holding 0 of 2: the first short vertex in order is 3, not 1
@example((make_cycle(4), BrushConfig((0, 0, 0, 1)), CleaningSequence((3, 1, 0, 2))))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_sequence_matches_moving_brushes(tmp_path, capsys, case):
    g, w0, seq = case
    paths = [tmp_path / name for name in ("g.graph", "w.config", "s.sequence")]
    texts = [serialize_edge_list(g), serialize_brush_config(w0), serialize_sequence(seq, g.vertex_count)]
    for path, text in zip(paths, texts):
        path.write_text(text)
    code, out, err = run(capsys, "verify", str(paths[0]), str(paths[1]), "--sequence", str(paths[2]))
    assert (code, out, err) == (*_verify_by_moving_brushes(g, w0.counts, seq.order), "")


# --------------------------------------------------------------- reduce

def test_reduce_torus_rows_from_optimal(tmp_path, capsys):
    g, _ = cartesian_product(make_cycle(4), make_cycle(3))
    cfg, seq = write_optimal_cleaning(tmp_path, g, "t43")
    prefix = str(tmp_path / "red")
    code, out, _ = run(
        capsys,
        "reduce",
        "torus-rows",
        "4",
        "3",
        "--config",
        str(cfg),
        "--sequence",
        str(seq),
        "--out-prefix",
        prefix,
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["total_before"] == "10" and pairs["total_after"] == "8"
    assert pairs["savings"] == "2" and pairs["reduced"] == "C3xC3"
    code, out, _ = run(
        capsys, "verify", prefix + ".graph", prefix + ".config", "--sequence", prefix + ".sequence"
    )
    assert code == 0 and "feasible=true" in out


def test_reduce_explicit_row_keeps_total(tmp_path, capsys):
    prefix = str(tmp_path / "t44")
    run(capsys, "config", "torus", "4", "4", "--out-prefix", prefix)
    code, out, _ = run(
        capsys,
        "reduce",
        "torus-rows",
        "4",
        "4",
        "--row",
        "1",
        "--config",
        prefix + ".config",
        "--sequence",
        prefix + ".sequence",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["total_after"] == pairs["total_before"] == "12"


TORUS_44_MERGE = """kind=torus-rows m=4 n=4
total_before=12
axis=cols
pair=0,1
target=1
removed_at=0
reduced=C4xC3
total_after=10
savings=2
verified=true
"""

TORUS_44_ROW_1 = """kind=torus-rows m=4 n=4
total_before=12
row=1
reduced=C3xC4
total_after=12
savings=0
verified=true
"""


@pytest.mark.parametrize(
    "extra, expected", [((), TORUS_44_MERGE), (("--row", "1"), TORUS_44_ROW_1)],
    ids=["merge", "row-1"],
)
def test_reduce_torus_rows_prints_the_merge(tmp_path, capsys, extra, expected):
    prefix = str(tmp_path / "t44")
    run(capsys, "config", "torus", "4", "4", "--out-prefix", prefix)
    code, out, err = run(
        capsys, "reduce", "torus-rows", "4", "4", *extra,
        "--config", prefix + ".config", "--sequence", prefix + ".sequence",
    )
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "size, argv, sequence, message",
    [
        ("3", ("3", "3"), None, "no axis of 3 x 3 can be shortened"),
        ("4", ("4", "4", "--row", "9"), None, "row must be in 0..2, got 9"),
        # a 9-vertex config for a 16-vertex torus
        ("3", ("4", "4"), None, "config covers 9 vertices, graph has 16"),
        # a 15-vertex sequence for it, refused before any graph is built
        (
            "4", ("4", "4"), "s 15\n" + " ".join(map(str, range(15))) + "\n",
            "sequence must visit each of the 16 vertices exactly once",
        ),
    ],
    ids=["3x3", "row-9", "short-config", "short-sequence"],
)
def test_reduce_rejects_short_axes(tmp_path, capsys, size, argv, sequence, message):
    # an error prints nothing on stdout, as every other command does
    prefix = str(tmp_path / "t")
    run(capsys, "config", "torus", size, size, "--out-prefix", prefix)
    if sequence is not None:
        Path(prefix + ".sequence").write_text(sequence)
    assert run(
        capsys, "reduce", "torus-rows", *argv,
        "--config", prefix + ".config", "--sequence", prefix + ".sequence",
    ) == (2, "", f"error: {message}\n")


def test_reduce_clique_layer(tmp_path, capsys):
    prefix = str(tmp_path / "kp43")
    run(capsys, "config", "km-pn", "4", "3", "--out-prefix", prefix)
    out_prefix = str(tmp_path / "kp42")
    code, out, _ = run(
        capsys,
        "reduce",
        "clique-layer",
        "4",
        "3",
        "--config",
        prefix + ".config",
        "--sequence",
        prefix + ".sequence",
        "--out-prefix",
        out_prefix,
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["reduced"] == "K4xP2" and pairs["total_after"] == "8"
    assert "classes=" in out
    code, out, _ = run(
        capsys,
        "verify",
        out_prefix + ".graph",
        out_prefix + ".config",
        "--sequence",
        out_prefix + ".sequence",
    )
    assert code == 0


KP_43_DELETION = """kind=clique-layer m=4 n=3
classes=a:2 b:0 c:0 d:0 e:0 f:2 g:0 h:0
reduced=K4xP2
total_before=12
total_after=8
savings=4
verified=true
wrote={out}.graph
wrote={out}.config
wrote={out}.sequence
"""

KP_54_DELETION = """kind=clique-layer m=5 n=4
classes=a:2 b:1 c:0 d:0 e:0 f:2 g:0 h:0
reduced=K5xP3
total_before=25
total_after=18
savings=7
verified=false
"""


@pytest.mark.parametrize(
    "m, n, write, code, expected",
    [("4", "3", True, 0, KP_43_DELETION), ("5", "4", False, 5, KP_54_DELETION)],
    ids=["kp43", "kp54"],
)
def test_reduce_clique_layer_prints_the_deletion(tmp_path, capsys, m, n, write, code, expected):
    # the odd-order deletion is one brush short of b(K5 x P3) = 19, so no order cleans it
    prefix, out_prefix = str(tmp_path / "in"), str(tmp_path / "out")
    run(capsys, "config", "km-pn", m, n, "--out-prefix", prefix)
    extra = ("--out-prefix", out_prefix) if write else ()
    got = run(
        capsys, "reduce", "clique-layer", m, n,
        "--config", prefix + ".config", "--sequence", prefix + ".sequence", *extra,
    )
    assert got == (code, expected.format(out=out_prefix), "")
    if write:
        assert Path(out_prefix + ".config").read_text() == "b 8\n0 4\n1 2\n2 2\n"
        assert Path(out_prefix + ".sequence").read_text() == "s 8\n0 2 4 6 1 3 5 7\n"



# every vertex of K4 x P2 holds 4 brushes and copy 0 cleans first, so
# its vertices at ranks 3 and 4 hold brushes past the half-way rank
KP_42_STOCKED_DELETION = """kind=clique-layer m=4 n=2
classes=a:4 b:0 c:0 d:0 e:0 f:0 g:0 h:0
diagnostic=vertex 4 holds 4 brushes but is cleaned at rank 3 of 4 in its copy
diagnostic=vertex 6 holds 4 brushes but is cleaned at rank 4 of 4 in its copy
reduced=K4xP1
total_before=32
total_after=20
savings=12
verified=true
"""


def test_reduce_clique_layer_prints_its_diagnostics(tmp_path, capsys):
    config, sequence = tmp_path / "w.config", tmp_path / "w.sequence"
    config.write_text(serialize_brush_config(BrushConfig((4,) * 8)))
    sequence.write_text("s 8\n0 2 4 6 1 3 5 7\n")
    got = run(
        capsys, "reduce", "clique-layer", "4", "2",
        "--config", str(config), "--sequence", str(sequence),
    )
    assert got == (0, KP_42_STOCKED_DELETION, "")


def test_reduce_clique_layer_checks_its_input_once(tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "kp43")
    run(capsys, "config", "km-pn", "4", "3", "--out-prefix", prefix)
    calls = []
    check = cli.cons._simulate_or_invalid

    def check_and_count(*args):
        calls.append(args)
        return check(*args)  # the positions the deletion reads

    monkeypatch.setattr(cli.cons, "_simulate_or_invalid", check_and_count)
    code, _, _ = run(
        capsys, "reduce", "clique-layer", "4", "3",
        "--config", prefix + ".config", "--sequence", prefix + ".sequence",
    )
    assert code == 0 and len(calls) == 1


# --------------------------------------------------------------- report

def test_report_torus_all_match(capsys):
    code, out, _ = run(capsys, "report", "torus", "--m-range", "3..4", "--n-range", "3..5")
    assert code == 0
    assert "mismatches=0" in out
    assert out.count("match=yes") == 6


def test_report_km_pn_ranges(capsys):
    code, out, _ = run(capsys, "report", "km-pn", "--m-range", "2..4", "--n-range", "2..3")
    assert code == 0 and "mismatches=0" in out


def test_report_explicit_instances_parallel(capsys):
    code, out, _ = run(
        capsys, "report", "torus", "--instances", "3x3,3x4,4x3", "--jobs", "2"
    )
    assert code == 0
    assert "rows=3" in out and "mismatches=0" in out


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_report_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "report", "torus", "--instances", "3x3", "--jobs", jobs)
    assert code == 2 and out == ""
    assert f"--jobs must be at least 1, got {jobs}" in err


def test_report_box(capsys):
    code, out, _ = run(capsys, "report", "box", "--order", "3", "--factor", "P2")
    assert code == 0
    pairs = kv(out)
    assert pairs["path"] == "3" and pairs["clique"] == "5"
    assert pairs["violations"] == "0" and pairs["match"] == "yes"


def test_report_box_needs_factor(capsys):
    code, _, err = run(capsys, "report", "box")
    assert code == 2 and "factor" in err


def test_report_km_cn_states_conclusion(capsys):
    code, out, _ = run(capsys, "report", "km-cn")
    assert code == 0
    assert "conclusion=" in out
    for row in ("K3xC3", "K3xC4", "K4xC3"):
        assert row in out


def test_report_km_cn_reads_ranges(capsys):
    code, out, _ = run(capsys, "report", "km-cn", "--m-range", "2..2", "--n-range", "3..3")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("instance=")]
    assert len(rows) == 1 and kv(rows[0])["instance"] == "K2xC3"
    assert "rows=1" in out


def test_report_bad_range(capsys):
    code, _, err = run(capsys, "report", "torus", "--m-range", "5..3")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "m_range, n_range", [("3..4..9", "3..3"), ("3..3", "3:3:7"), ("3..4..9", "3:3:7")]
)
def test_report_range_with_three_fields(capsys, m_range, n_range):
    code, out, err = run(capsys, "report", "torus", "--m-range", m_range, "--n-range", n_range)
    assert code == 2 and out == ""
    assert "bad range" in err and "expected A..B" in err


def test_report_single_number_range(capsys):
    code, out, _ = run(capsys, "report", "torus", "--m-range", "3", "--n-range", "3:4")
    assert code == 0
    assert "C3xC3" in out and "C3xC4" in out and "C4x" not in out


FAMILY_COLUMNS = ["instance", "formula", "solver", "match", "method", "states", "seconds"]


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["torus", "--instances", "3x3"], FAMILY_COLUMNS),
        (["km-pn", "--instances", "2x2"], FAMILY_COLUMNS),
        (
            ["km-cn", "--instances", "2x3"],
            ["instance", "solver", "fixed", "scaled", "verdict", "seconds"],
        ),
        (
            ["box", "--order", "3", "--factor", "P2"],
            [
                "order", "factor", "path", "clique", "min", "max",
                "graphs", "connected", "violations", "match",
            ],
        ),
    ],
    ids=["torus", "km-pn", "km-cn", "box"],
)
def test_report_column_order(capsys, argv, columns):
    code, out, _ = run(capsys, "report", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"suite={argv[0]}"
    assert lines[1].split() == columns
    rows = [line for line in lines if line.startswith(f"{columns[0]}=")]
    assert len(rows) == 1
    assert [token.split("=", 1)[0] for token in rows[0].split()] == columns


def test_report_km_cn_skips_over_cap(capsys):
    code, out, _ = run(
        capsys, "report", "km-cn", "--instances", "3x3,5x5", "--max-dp-vertices", "16"
    )
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("instance=K5xC5"))
    assert "solver=- " in row and "verdict=skipped seconds=-" in row
    summary = out.splitlines()[-1]
    assert "rows=2" in summary and "skipped=1" in summary and summary.endswith("conclusion=scaled")


def test_report_km_cn_no_solved_row_concludes_none(capsys):
    code, out, _ = run(
        capsys, "report", "km-cn", "--instances", "5x5", "--max-dp-vertices", "16"
    )
    assert code == 0
    assert out.splitlines()[-1].endswith("skipped=1 incomplete=0 conclusion=none")


def test_report_torus_past_dp_cap(capsys):
    # 28 vertices, over the DP cap: the branch-and-bound must finish
    code, out, _ = run(capsys, "report", "torus", "--instances", "4x7", "--jobs", "1")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("instance=C4xC7"))
    assert row.startswith("instance=C4xC7 formula=18 solver=18 match=yes method=bnb states=")
    assert out.splitlines()[-1] == "summary suite=torus rows=1 mismatches=0 skipped=0 incomplete=0"


def test_report_dp_cap_zero_sends_every_row_to_bnb(capsys):
    code, out, _ = run(
        capsys, "report", "torus", "--instances", "3x3,3x4", "--max-dp-vertices", "0"
    )
    assert code == 0
    assert out.count("match=yes method=bnb") == 2


def test_report_torus_falls_back_to_bnb(capsys):
    code, out, _ = run(capsys, "report", "torus", "--instances", "3x3", "--max-dp-vertices", "8")
    assert code == 0
    assert "match=yes method=bnb" in out
    assert "skipped=0" in out


def test_report_km_cn_skips_past_the_dp_reach(capsys):
    # 27 vertices: under the cap of 30, past the DP's 26
    code, out, _ = run(capsys, "report", "km-cn", "--instances", "3x9", "--max-dp-vertices", "30")
    assert code == 0
    assert "instance=K3xC9 solver=- fixed=4 scaled=20 verdict=skipped seconds=-" in out


def test_report_torus_past_the_dp_reach_runs_bnb(capsys):
    code, out, _ = run(
        capsys, "report", "torus", "--instances", "3x9", "--max-dp-vertices", "30", "--timeout", "20"
    )
    assert code == 0
    assert "match=yes method=bnb" in out


def test_report_builds_no_product_past_the_dp_reach(monkeypatch, capsys):
    def boom(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(cons, "cartesian_product", boom)
    monkeypatch.setattr(solver, "cartesian_product", boom)
    code, out, _ = run(capsys, "report", "km-cn", "--instances", "3x300000")
    assert code == 0
    assert "instance=K3xC300000 solver=- fixed=4 scaled=600002 verdict=skipped seconds=-" in out
    code, out, err = run(capsys, "report", "box", "--order", "5", "--factor", "P200000")
    assert (code, out) == (3, "")
    assert err == "error: 1000000 vertices exceed the DP cap of 22\n"


def test_report_row_over_the_timeout_is_incomplete(capsys):
    # the branch-and-bound needs about 15 s for C7 x C7: a row it cannot
    # finish reads incomplete, which is neither a match nor a mismatch
    code, out, _ = run(
        capsys, "report", "torus", "--instances", "7x7",
        "--max-dp-vertices", "0", "--timeout", "0.2",
    )
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("instance=C7xC7"))
    assert " match=incomplete method=bnb " in row
    assert out.splitlines()[-1] == (
        "summary suite=torus rows=1 mismatches=0 skipped=0 incomplete=1"
    )





# ------------------------------------------------------------- argv fuzz

# An argv grammar over all six commands, with generated input files.
# Each part is mostly well formed, so that most runs get past parsing.
# Sizes stay small, so that no run allocates or searches for long:
# header counts of at most 64 or past the header limit, at most 12
# lines a file, product sides of at most 5, --jobs 1 and short
# branch-and-bound timeouts.

def _mostly(good, bad):
    # seven well-formed draws to one malformed; st.one_of(good, good, ...)
    # would merge the repeated branches into one
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else good)


def _pick(good, bad):
    return _mostly(st.sampled_from(good), st.sampled_from(bad))


def _option(name, good, bad):
    # left out three times in four
    value = _pick(good, bad).map(lambda v: [name, v])
    return st.integers(0, 3).flatmap(lambda k: st.just([]) if k else value)


COUNTS = _mostly(
    st.one_of(st.integers(0, 8), st.integers(0, 64)), st.integers(MAX_HEADER_VERTICES + 1, 10**12)
)
SIDES = _pick([str(k) for k in range(6)], ["-1", "x", "2.5", ""])
JUNK_LINES = ["x y", "1", "1 2 3", "-1 0", "0 0", "0 99", "# note", ""]
BAD_HEADERS = ["{tag}", "{tag} x", "{tag} -1", "q 3", ""]
TIMEOUT = (["0", "0.02"], ["nan", "-1"])
STRAY_OPTIONS = [
    ["--timeout", "0.02"], ["--upper-hint", "3"], ["--max-dp-vertices", "4"], ["--row", "1"],
    ["--order", "3"], ["--factor", "P2"], ["--instances", "3x3"], ["--m-range", "3..4"],
]


@st.composite
def input_text(draw, tag, count):
    """A "<tag> N" file: edges for p, brush counts for b, an order for s."""
    n = draw(_mostly(st.just(count), COUNTS))
    header = draw(_mostly(st.just(f"{tag} {n}"), st.sampled_from(BAD_HEADERS)))
    ids = range(min(n, 64))
    body = []
    if tag == "s":
        body = [" ".join(map(str, draw(st.permutations(ids))))]
    elif tag == "p" and len(ids) > 1:
        edges = st.lists(st.sampled_from(list(combinations(ids, 2))), unique=True, max_size=12)
        body = [f"{u} {v}" for u, v in draw(edges)]
    elif tag == "b" and ids:
        counts = st.tuples(st.sampled_from(ids), st.integers(0, 4))
        body = [f"{v} {c}" for v, c in draw(st.lists(counts, unique_by=lambda e: e[0], max_size=12))]
    if draw(_mostly(st.just(False), st.just(True))):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(JUNK_LINES)))
    return "\n".join([header.format(tag=tag), *body]) + "\n"


def closed_form_texts(family, m, n):
    """The config and sequence texts of family(m, n)'s closed-form cleaning, if it has one."""
    try:
        entry = cons.FAMILIES[family]
        w0, seq = entry.config(int(m), int(n)), entry.sequence(int(m), int(n))
    except (ValueError, GraphCleanError):
        return None
    return serialize_brush_config(w0), serialize_sequence(seq, len(w0.counts))


@st.composite
def command_lines(draw):
    """An argv of one command, and the texts of the input files it names."""
    # report, which has the most options, is drawn twice as often
    commands = ["gen", "solve", "config", "verify", "reduce", "report", "report"]
    command = draw(st.sampled_from(commands))
    count = draw(COUNTS)
    files = {}

    def path(tag, text=None):
        name = f"in{len(files)}.{tag}"
        files[name] = draw(input_text(tag, count)) if text is None else text
        return name

    if command in ("gen", "config"):
        family = draw(_pick([*cons.FAMILIES, "product"], ["wheel"]))
        if family == "product":
            params = [path("p") for _ in range(draw(_pick([2], [1, 3])))]
        else:
            arity = cons.FAMILIES[family].arity if family in cons.FAMILIES else 1
            params = draw(_mostly(st.lists(SIDES, min_size=arity, max_size=arity), st.lists(SIDES)))
        out = ["-o", "out.graph"] if command == "gen" else ["--out-prefix", "out"]
        argv = [command, family, *params, *draw(st.sampled_from([[], out]))]
    elif command == "solve":
        method = draw(_pick(["dp", "bnb", "brute"], ["ilp"]))
        argv = ["solve", path("p"), "--method", method]
        if method == "bnb":  # always on a short timeout
            argv += ["--timeout", draw(_pick(*TIMEOUT))]
            argv += draw(_option("--upper-hint", ["0", "3"], ["-1", "x"]))
        elif method == "dp":
            argv += draw(_option("--max-dp-vertices", ["0", "4", "16"], ["-1", "x"]))
    elif command == "verify":
        argv = ["verify", path("p"), path("b")]
        argv += ["--sequence", path("s")] if draw(st.booleans()) else []
    elif command == "reduce":
        kind = draw(_pick(["torus-rows", "clique-layer"], ["layer"]))
        m, n = draw(SIDES), draw(SIDES)
        texts = closed_form_texts("torus" if kind == "torus-rows" else "km-pn", m, n)
        config, sequence = texts if texts and draw(_pick([True], [False])) else (None, None)
        argv = ["reduce", kind, m, n, "--config", path("b", config)]
        argv += ["--sequence", path("s", sequence)]
        argv += draw(_option("--row", ["0", "1"], ["7", "-1"]))
        argv += draw(st.sampled_from([[], ["--out-prefix", "out"]]))
    else:
        suite = draw(_pick(["torus", "km-pn", "km-cn", "box"], ["kn"]))
        argv = ["report", suite]
        if suite == "box":
            argv += draw(_option("--order", ["1", "3", "5"], ["0", "x"]))
            argv += ["--factor", draw(_pick(["P2", "C3", "K2"], ["Q2", "P"]))]
        else:
            # sides of at most 4, as a 5x5 row that falls back to the branch and bound takes 0.5 s
            sides = _pick(["2", "3", "4"], ["-1", "x", ""])
            instance = _mostly(
                st.tuples(sides, sides).map("x".join), st.sampled_from(["3", "3x3x3"])
            )
            ranges = st.one_of(
                st.tuples(sides, sides).map("..".join),
                st.sampled_from(["3", "3:4", "4..3", "3..x", "..", "a"]),
            )
            form = draw(st.sampled_from(["default", "instances", "ranges", "ranges"]))
            if form == "instances":
                argv += ["--instances", ",".join(draw(st.lists(instance, min_size=1, max_size=3)))]
            elif form == "ranges":
                argv += ["--m-range", draw(ranges), "--n-range", draw(ranges)]
        if suite in ("torus", "km-pn"):
            argv += draw(_option("--timeout", *TIMEOUT))
        argv += draw(_option("--jobs", ["1"], ["0", "-1", "x"]))  # never a process pool
        argv += draw(_option("--max-dp-vertices", ["0", "4", "16"], ["-1"]))
    # now and then an option that the command refuses or does not know
    argv += draw(_mostly(st.just([]), st.sampled_from(STRAY_OPTIONS)))
    return argv, files


@given(command_lines())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_command_line_exits_with_a_listed_code(tmp_path, capsys, case):
    argv, files = case
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    names = {*files, "out", "out.graph"}
    code, _, err = run(capsys, *(str(tmp_path / a) if a in names else a for a in argv))
    assert 0 <= code <= 5
    assert "internal:" not in err

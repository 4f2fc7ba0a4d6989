"""The exit-code contract: each error class carries the exit code that
the README's table gives it, and main returns it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphclean.cli as cli
from graphclean import GraphCleanError, InfeasibleStepError, ParseError, TooLargeError, parse_sequence
from graphclean.graphs import MAX_HEADER_VERTICES

README = Path(__file__).resolve().parents[1] / "README.md"


def error_classes(cls=GraphCleanError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


def readme_codes():
    codes = {}
    for line in README.read_text().splitlines():
        row = re.match(r"\|\s*(\d)\s*\|[^|]*\|([^|]*)\|", line)
        if row:
            for name in re.findall(r"`(\w+)`", row.group(2)):
                assert name not in codes, f"{name} listed twice"
                codes[name] = int(row.group(1))
    return codes


def instance(cls):
    if issubclass(cls, ParseError):
        return cls(3, "bad line")
    if issubclass(cls, InfeasibleStepError):
        return cls(0, 1, 2)
    return cls("boom")


CLASSES = list(error_classes())


def test_readme_lists_every_error_class():
    assert set(readme_codes()) == {cls.__name__ for cls in CLASSES}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_exit_code_matches_readme(cls):
    assert cls.exit_code == readme_codes()[cls.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_main_returns_the_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise instance(cls)

    monkeypatch.setattr(cli, "cmd_config", fail)
    code = cli.main(["config", "torus", "3", "3"])
    err = capsys.readouterr().err
    assert code == cls.exit_code
    assert err.startswith("error: ")


def test_main_maps_memory_error_to_the_size_cap(monkeypatch, capsys):
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_config", fail)
    assert cli.main(["config", "torus", "3", "3"]) == 3
    assert "internal:" not in capsys.readouterr().err


# A header count past the limit is refused before anything is allocated
# for it; unchecked, "p" and "b" counts like these ran out of memory.
HUGE = 99999999999


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"g": f"p {HUGE}\n"}, ["solve", "g"]),
        ({"g": "p 2\n0 1\n", "c": f"b {HUGE}\n"}, ["verify", "g", "c"]),
        (
            {"g": "p 2\n0 1\n", "c": "b 2\n0 1\n", "s": f"s {HUGE}\n"},
            ["verify", "g", "c", "--sequence", "s"],
        ),
        (
            {"c": f"b {HUGE}\n", "s": "s 9\n"},
            ["reduce", "torus-rows", "3", "3", "--config", "c", "--sequence", "s"],
        ),
    ],
    ids=["p", "b", "s", "reduce-b"],
)
def test_huge_header_count_is_over_the_size_cap(files, argv, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = cli.main([str(tmp_path / a) if a in files else a for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal:" not in err and f"{HUGE} vertices exceed" in err



def test_size_cap_error_names_its_file(tmp_path, capsys):
    # as a parse error does: the refused count may sit in any of three files
    graph, config = tmp_path / "g.graph", tmp_path / "w.config"
    sequence = tmp_path / "huge.sequence"
    graph.write_text("p 2\n0 1\n")
    config.write_text("b 2\n0 1\n")
    sequence.write_text(f"s {HUGE}\n")
    assert cli.main(["verify", str(graph), str(config), "--sequence", str(sequence)]) == 3
    assert capsys.readouterr().err == (
        f"error: {sequence}: line 1: {HUGE} vertices exceed the limit of {MAX_HEADER_VERTICES}\n"
    )


def test_header_limit_admits_its_own_count():
    # a sequence header allocates nothing, so the limit itself is cheap to read
    assert parse_sequence(f"s {MAX_HEADER_VERTICES}\n").order == ()
    with pytest.raises(TooLargeError):
        parse_sequence(f"s {MAX_HEADER_VERTICES + 1}\n")


# Graphs sized on the command line are refused before they are built, and
# a reduction's input of the wrong length before its graph is.  Each case
# runs in a child under a 1 GiB address-space limit, so that a build
# which outgrows it ends there ("error: out of memory" or a kill), not
# on the machine's memory.
LIMITED = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, {src!r})
from graphclean.cli import main
sys.exit(main({argv!r}))
"""
CAP, ARCS = MAX_HEADER_VERTICES, 4 * MAX_HEADER_VERTICES
K100000 = f"{100000 * 99999} arcs exceed the limit of {ARCS}"
# K1000 x P1000: 1000 * 999 arcs in each clique copy and 2 * 999 in each path copy
K1000_P1000 = f"{1000 * 999 * 1000 + 1000 * 2 * 999} arcs exceed the limit of {ARCS}"
SHORT = {"c": "b 4\n", "s": "s 4\n0 1 2 3\n"}
REDUCE = ["--config", "c", "--sequence", "s"]


@pytest.mark.parametrize(
    "files, argv, code, err",
    [
        ({}, ["gen", "clique", "100000"], 3, K100000),
        ({}, ["gen", "path", "10000000"], 3, f"10000000 vertices exceed the limit of {CAP}"),
        ({}, ["config", "km-pn", "1000", "1000"], 3, K1000_P1000),
        ({}, ["report", "km-pn", "--instances", "1000x1000"], 3, K1000_P1000),
        ({}, ["report", "box", "--factor", "K100000"], 3, K100000),
        (
            {"a": f"p {CAP}\n", "b": f"p {CAP}\n"},
            ["gen", "product", "a", "b"],
            3,
            f"{CAP * CAP} vertices exceed the limit of {CAP}",
        ),
        (SHORT, ["reduce", "clique-layer", "300", "300", *REDUCE], 2, "config covers 4 vertices, graph has 90000"),
        (SHORT, ["reduce", "torus-rows", "1000", "1000", *REDUCE], 2, "config covers 4 vertices, graph has 1000000"),
        (
            {**SHORT, "c": "b 90000\n"},
            ["reduce", "clique-layer", "300", "300", *REDUCE],
            2,
            "sequence must visit each of the 90000 vertices exactly once",
        ),
    ],
    ids=[
        "clique", "path", "config-km-pn", "report-km-pn", "box-factor", "product",
        "reduce-config", "reduce-torus", "reduce-sequence",
    ],
)
def test_argv_sizes_are_checked_before_building(files, argv, code, err, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = LIMITED.format(src=src, argv=[str(tmp_path / a) if a in files else a for a in argv])
    done = subprocess.run(
        [sys.executable, "-I", "-c", child],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},  # numpy reserves address space per thread
    )
    assert (done.returncode, done.stderr) == (code, f"error: {err}\n")

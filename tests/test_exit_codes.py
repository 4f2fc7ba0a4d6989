"""The exit-code contract: each error class carries the exit code that
the README's table gives it, and main returns it."""

import re
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

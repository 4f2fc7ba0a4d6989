"""The exit-code contract: each error class carries the exit code that
the README's table gives it, and main returns it."""

import re
from pathlib import Path

import pytest

import graphclean.cli as cli
from graphclean import GraphCleanError, InfeasibleStepError, ParseError

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

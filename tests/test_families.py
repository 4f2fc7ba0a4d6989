"""The family table in constructions: every command reads its builders,
labels and closed forms from it."""

import argparse

import pytest

from graphclean import (
    InvalidParameterError,
    ProductLabeling,
    can_clean,
    cartesian_product,
    delete_clique_layer,
    km_pn_brush_number,
    km_pn_config_odd,
    km_pn_sequence,
    make_clique,
    make_path,
    simulate,
)
from graphclean.cli import build_parser, main
from graphclean.constructions import FAMILIES


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def choices(command, dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == dest))


def small_params(arity):
    if arity == 1:
        return [(k,) for k in range(1, 7)]
    return [(m, n) for m in range(2, 6) for n in range(2, 6)]


@pytest.mark.parametrize("name", [k for k, f in FAMILIES.items() if f.formula])
def test_closed_forms_clean_their_family(name):
    entry = FAMILIES[name]
    checked = 0
    for params in small_params(entry.arity):
        try:
            g = entry.build(*params)
        except InvalidParameterError:
            continue
        trace = simulate(g, entry.config(*params), entry.sequence(*params))
        assert trace.total_brushes == entry.formula(*params), (name, params)
        checked += 1
    assert checked >= 3


def test_labels_fix_the_arity():
    assert FAMILIES["torus"].label.format(3, 4) == "C3xC4"
    assert FAMILIES["km-pn"].label.format(4, 2) == "K4xP2"
    assert {k: f.arity for k, f in FAMILIES.items()} == {
        "path": 1, "cycle": 1, "clique": 1, "torus": 2, "km-pn": 2, "km-cn": 2,
    }


def test_command_choices_come_from_the_table():
    assert choices("gen", "family") == [*FAMILIES, "product"]
    assert choices("config", "family") == [k for k, f in FAMILIES.items() if f.config]
    assert choices("report", "suite") == ["torus", "km-pn", "km-cn", "box"]


def test_km_cn_rejects_the_same_instances_in_gen_and_report(capsys):
    gen = run(capsys, "gen", "km-cn", "1", "3")
    report = run(capsys, "report", "km-cn", "--instances", "1x3")
    assert gen[0] == report[0] == 2
    assert "clique-cycle product needs m >= 2 and n >= 3, got 1 x 3" in report[2]
    assert report[1] == ""
    # past the DP's reach too: the parameters are checked before the row is skipped
    code, out, err = run(capsys, "report", "km-cn", "--instances", "1x30")
    assert (code, out) == (2, "")
    assert "clique-cycle product needs m >= 2 and n >= 3, got 1 x 30" in err


def test_bad_box_factor_keeps_its_message(capsys):
    code, _, err = run(capsys, "report", "box", "--factor", "Pz")
    assert code == 2
    assert "bad factor 'Pz', expected P<k>, C<k> or K<k>" in err


def test_odd_column_layout_cleans_without_a_fallback():
    for m in range(3, 16, 2):
        for n in range(2, 13):
            g, _ = cartesian_product(make_clique(m), make_path(n))
            trace = simulate(g, km_pn_config_odd(m, n), km_pn_sequence(m, n))
            assert trace.total_brushes == km_pn_brush_number(m, n), (m, n)


@pytest.mark.xfail(strict=True, reason="clique-layer deletion is one brush short for odd m, n >= 3")
def test_delete_clique_layer_odd_order():
    lab = ProductLabeling(5, 4)
    red = delete_clique_layer(lab, km_pn_config_odd(5, 4), km_pn_sequence(5, 4))
    assert red.config.total == km_pn_brush_number(5, 3)
    assert can_clean(red.graph, red.config)[0]

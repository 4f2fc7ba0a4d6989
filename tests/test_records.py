"""The contract of the immutable value types: construction, equality,
hashing, repr, immutability, pickling and copying."""

import copy
import pickle

import pytest

from graphclean import (
    BoundaryClassCounts,
    BoxConjectureReport,
    BrushConfig,
    CleaningSequence,
    CleaningStep,
    CleaningTrace,
    CliqueLayerReduction,
    Graph,
    InvalidInputError,
    InvalidSequenceError,
    ProductLabeling,
    SolveResult,
    TorusReduction,
)
from graphclean.constructions import Family
from graphclean.graphs import Record

SEQ = CleaningSequence((1, 0))
STEP = CleaningStep(1, 1, ((0, 1),), (0,))
K2 = Graph(2, ((1,), (0,)))
CLASSES = BoundaryClassCounts(1, 0, 0, 0, 0, 1, 0, 0)

# (class, positional arguments, the same record by name with its
# defaults left out, its repr as a frozen dataclass printed it)
RECORDS = [
    (
        Graph, (2, ((1,), (0,))), dict(adjacency=((1,), (0,)), vertex_count=2),
        "Graph(vertex_count=2, adjacency=((1,), (0,)))",
    ),
    (ProductLabeling, (2, 3), dict(n=3, m=2), "ProductLabeling(m=2, n=3)"),
    (BrushConfig, ((1, 0),), dict(counts=(1, 0)), "BrushConfig(counts=(1, 0))"),
    (CleaningSequence, ((1, 0),), dict(order=(1, 0)), "CleaningSequence(order=(1, 0))"),
    (
        CleaningStep, (1, 1, ((0, 1),), (0,)),
        dict(forwarded_to=(0,), cleaned_edges=((0, 1),), brushes_before=1, vertex=1),
        "CleaningStep(vertex=1, brushes_before=1, cleaned_edges=((0, 1),), forwarded_to=(0,))",
    ),
    (
        CleaningTrace, ((STEP,), (0, 1)), dict(steps=(STEP,), final_brushes=(0, 1)),
        "CleaningTrace(steps=(CleaningStep(vertex=1, brushes_before=1, cleaned_edges=((0, 1),),"
        " forwarded_to=(0,)),), final_brushes=(0, 1))",
    ),
    (
        Family, ("P{}", len, None, None, None), dict(label="P{}", build=len),
        "Family(label='P{}', build=<built-in function len>, config=None, sequence=None,"
        " formula=None)",
    ),
    (
        TorusReduction,
        (K2, ProductLabeling(2, 3), BrushConfig((1, 0)), SEQ, "rows", (1, 0), 3, 0),
        dict(
            graph=K2, labeling=ProductLabeling(2, 3), config=BrushConfig((1, 0)), sequence=SEQ,
            axis="rows", pair=(1, 0), target=3, removed_at=0,
        ),
        "TorusReduction(graph=Graph(vertex_count=2, adjacency=((1,), (0,))),"
        " labeling=ProductLabeling(m=2, n=3), config=BrushConfig(counts=(1, 0)),"
        " sequence=CleaningSequence(order=(1, 0)), axis='rows', pair=(1, 0), target=3,"
        " removed_at=0)",
    ),
    (
        CliqueLayerReduction, (K2, ProductLabeling(2, 1), BrushConfig((1, 0)), None, CLASSES),
        dict(
            graph=K2, labeling=ProductLabeling(2, 1), config=BrushConfig((1, 0)), sequence=None,
            classes=CLASSES,
        ),
        "CliqueLayerReduction(graph=Graph(vertex_count=2, adjacency=((1,), (0,))),"
        " labeling=ProductLabeling(m=2, n=1), config=BrushConfig(counts=(1, 0)), sequence=None,"
        " classes=BoundaryClassCounts(a=1, b=0, c=0, d=0, e=0, f=1, g=0, h=0, diagnostics=()))",
    ),
    (
        BoundaryClassCounts, (1, 2, 3, 4, 5, 6, 7, 8, ()), dict(zip("abcdefgh", range(1, 9))),
        "BoundaryClassCounts(a=1, b=2, c=3, d=4, e=5, f=6, g=7, h=8, diagnostics=())",
    ),
    (
        SolveResult, (1, SEQ, "dp", 4, 0.5, True, None),
        dict(value=1, witness=SEQ, method="dp", states=4, seconds=0.5),
        "SolveResult(value=1, witness=CleaningSequence(order=(1, 0)), method='dp', states=4,"
        " seconds=0.5, complete=True, lower_bound=None)",
    ),
    (
        BoxConjectureReport, (4, 5, 4, 5, ((0, 1),), ((0, 1), (1, 2)), 8, 4, ()),
        dict(
            path_value=4, clique_value=5, min_value=4, max_value=5, min_edges=((0, 1),),
            max_edges=((0, 1), (1, 2)), graphs_checked=8, connected_checked=4, violations=(),
        ),
        "BoxConjectureReport(path_value=4, clique_value=5, min_value=4, max_value=5,"
        " min_edges=((0, 1),), max_edges=((0, 1), (1, 2)), graphs_checked=8,"
        " connected_checked=4, violations=())",
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, args, kwargs, text):
    record = cls(*args)
    assert cls(**kwargs) == record and hash(cls(**kwargs)) == hash(record)
    assert repr(record) == text
    # a record of another class with the same field values is not equal
    fields = {f"f{i}": "object" for i in range(len(args))}
    twin = type("Twin", (Record,), {"__annotations__": fields})(*args)
    assert twin != record and record != twin
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == kwargs[field]
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    for bad_call in (
        lambda: cls(*args, 0),  # one value too many
        lambda: cls(**kwargs, extra=0),  # an unknown field
        lambda: cls(*args, **kwargs),  # fields given twice
        lambda: cls(),  # required fields missing
    ):
        with pytest.raises(TypeError):
            bad_call()


def test_record_checks_still_run():
    with pytest.raises(InvalidInputError, match="brush counts must be non-negative"):
        BrushConfig((-1,))
    with pytest.raises(InvalidSequenceError, match="cleaning sequence repeats a vertex"):
        CleaningSequence((0, 0))

"""The record contract: every immutable record of the package behaves as the
frozen dataclass of the same fields would, compared here with a
``dataclasses.make_dataclass`` twin built in the test."""

from __future__ import annotations

import dataclasses
import importlib
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import netfolio
from netfolio.analytics import LeveneResult, SimulationReport, StrategyStats
from netfolio.clusters import ClusterAssignment, ClusterError, ClusterPairing
from netfolio.correlation import CorrelationError, CorrelationMatrix, DistanceMatrix
from netfolio.inputs import DataError, StudyPeriod
from netfolio.market_data import PricePanel, ReturnPanel
from netfolio.neighbor_net import CircularSplitSystem, Split
from netfolio.portfolio_sim import DrawPlan, SimulationRun
from netfolio.record import Record
from netfolio.tree_cluster import Dendrogram, Merge, SpanningTree

D1, D2 = date(2001, 1, 5), date(2001, 1, 12)
P1 = StudyPeriod("P1", D1, D2)
STATS = StrategyStats("Random", 2, 1.5, 2.0, 0.25)

# Each record class: its fields in order, its defaults, and two valid field
# tuples that differ in their first field (so comparing them never compares
# two arrays).
RECORDS = {
    StudyPeriod: (("label", "start", "end"), {}, ("P1", D1, D2), ("P2", D1, D2)),
    PricePanel: (("tickers", "dates", "close", "dividends"), {},
                 (("A", "B"), (D1, D2), np.ones((2, 2)), np.zeros((2, 2))),
                 (("A", "C"), (D1, D2), np.ones((2, 2)), np.zeros((2, 2)))),
    ReturnPanel: (("tickers", "periods", "total_return", "weekly_returns"), {},
                  (("A", "B"), (P1,), np.ones((1, 2)), (np.zeros((1, 2)),)),
                  (("B", "A"), (P1,), np.ones((1, 2)), (np.zeros((1, 2)),))),
    CorrelationMatrix: (("tickers", "rho"), {}, (("A", "B"), np.eye(2)), (("B", "A"), np.eye(2))),
    DistanceMatrix: (("tickers", "d"), {}, (("A", "B"), 1 - np.eye(2)),
                     (("B", "A"), 1 - np.eye(2))),
    ClusterAssignment: (("assignment",), {}, ({"A": 1, "B": 2},), ({"A": 1, "B": 1},)),
    ClusterPairing: (("pairs",), {}, (((1, 2),),), (((1, 3),),)),
    Merge: (("left", "right", "height"), {}, (0, 1, 0.5), (1, 0, 0.5)),
    Dendrogram: (("tickers", "merges"), {}, (("A", "B"), (Merge(0, 1, 0.5),)),
                 (("B", "A"), (Merge(0, 1, 0.5),))),
    SpanningTree: (("tickers", "edges"), {}, (("A", "B"), (("A", "B", 0.5),)),
                   (("A", "C"), (("A", "C", 0.5),))),
    Split: (("start", "length", "weight"), {}, (1, 1, 0.25), (2, 1, 0.25)),
    CircularSplitSystem: (("ordering", "splits", "residual"), {},
                          (("A", "B", "C"), (Split(1, 1, 0.25),), 0.0),
                          (("A", "C", "B"), (Split(1, 1, 0.25),), 0.0)),
    LeveneResult: (("W", "df1", "df2", "p_value"), {}, (1.5, 1, 10, 0.25), (2.5, 1, 10, 0.25)),
    StrategyStats: (("strategy", "m", "mean", "std_dev", "sharpe", "best"), {"best": False},
                    ("Random", 2, 1.5, 2.0, None, True), ("HCT", 2, 1.5, 2.0, 0.25, False)),
    SimulationReport: (("stats", "levene"), {}, ((STATS,), ()), ((), ())),
    SimulationRun: (("strategy", "m", "period", "returns"), {},
                    ("Random", 2, "P2", np.zeros(3)), ("HCT", 2, "P2", np.zeros(3))),
    DrawPlan: (("rule", "labels", "sizes", "ids", "pairs"), {"ids": (), "pairs": ()},
               ("industry", ("A", "B"), (1, 1), (1, 2), ((0, 1),)),
               ("cluster", ("A", "B"), (1, 1), (1, 2), ())),
}


def twin(cls):
    fields, defaults, _, _ = RECORDS[cls]
    spec = [(name, object, defaults[name]) if name in defaults else (name, object)
            for name in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def outcome(call):
    """What a call returns, or the type of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def test_every_record_class_is_covered():
    for path in Path(netfolio.__file__).parent.glob("*.py"):
        importlib.import_module(f"netfolio.{path.stem}")
    assert set(Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_frozen_dataclass(cls):
    fields, defaults, a, b = RECORDS[cls]
    dc = twin(cls)
    rec = cls(*a)
    # Field order and keyword construction: the repr lists the fields in
    # order, and positional and keyword construction give equal records.
    assert repr(rec) == repr(dc(*a))
    assert cls(**dict(zip(fields, a))) == rec
    assert tuple(getattr(rec, name) for name in fields) == a
    # Defaults are class attributes, as a dataclass leaves them.
    for name, value in defaults.items():
        assert getattr(cls, name) == value
        short = cls(*a[:fields.index(name)])
        assert getattr(short, name) == value
        assert repr(short) == repr(dc(*a[:fields.index(name)]))
    # ==, != and hash as the dataclass gives them; a twin of another class
    # is never equal.
    assert outcome(lambda: cls(*a) == cls(*a)) is True
    assert outcome(lambda: cls(*a) == cls(*b)) == outcome(lambda: dc(*a) == dc(*b))
    assert outcome(lambda: cls(*a) != cls(*b)) == outcome(lambda: dc(*a) != dc(*b))
    assert outcome(lambda: hash(cls(*a))) == outcome(lambda: hash(dc(*a)))
    assert rec != dc(*a) and dc(*a) != rec
    assert rec != object()
    # Wrong arguments fail as they do for the dataclass.
    assert outcome(lambda: cls(*a, None)) is TypeError
    assert outcome(lambda: cls(*a, **{fields[0]: a[0]})) is TypeError
    assert outcome(lambda: cls(*a, no_such_field=1)) is TypeError
    if not defaults:
        assert outcome(lambda: cls(*a[:-1])) is TypeError


def test_records_of_two_classes_are_never_equal():
    # Merge and Split have the same field tuple; a dataclass compares only
    # records of its own class.
    assert Merge(1, 1, 0.25) != Split(1, 1, 0.25) and Split(1, 1, 0.25) != Merge(1, 1, 0.25)
    assert not Merge(1, 1, 0.25) == Split(1, 1, 0.25)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable(cls):
    fields, _, a, b = RECORDS[cls]
    rec = cls(*a)
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, b[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in fields) == a


POST_INIT_CHECKS = [
    (StudyPeriod, ("P1", D2, D1), DataError, "period P1: start must precede end"),
    (PricePanel, (("A",), (D1, D2), np.ones((2, 2)), np.zeros((2, 1))), DataError,
     "close matrix shape"),
    (PricePanel, (("A",), (D2, D1), np.ones((2, 1)), np.zeros((2, 1))), DataError,
     "strictly increasing"),
    (PricePanel, (("A",), (D1, D2), np.array([[1.0], [0.0]]), np.zeros((2, 1))), DataError,
     r"non-positive price for \(2001-01-12, A\)"),
    (CorrelationMatrix, (("A", "B"), np.eye(3)), CorrelationError, "shape mismatch"),
    (CorrelationMatrix, (("A", "B"), np.array([[1, 0.5], [0.4, 1]])), CorrelationError,
     "symmetric"),
    (CorrelationMatrix, (("A", "B"), np.array([[1, 0.5], [0.5, 0.9]])), CorrelationError,
     "diagonal must be exactly 1"),
    (CorrelationMatrix, (("A", "B"), np.array([[1, 1.5], [1.5, 1]])), CorrelationError,
     r"lie in \[-1, 1\]"),
    (DistanceMatrix, (("A", "B"), np.zeros((3, 3))), CorrelationError, "shape mismatch"),
    (DistanceMatrix, (("A", "B"), np.array([[0, 1], [0.5, 0]])), CorrelationError, "symmetric"),
    (DistanceMatrix, (("A", "B"), np.ones((2, 2))), CorrelationError, "exactly 0"),
    (DistanceMatrix, (("A", "B"), np.array([[0, 3], [3, 0]])), CorrelationError,
     r"lie in \[0, 2\]"),
    (ClusterAssignment, ({},), ClusterError, "empty assignment"),
    (ClusterAssignment, ({"A": 2},), ClusterError, r"ids must be 1..k, got \[2\]"),
    (ClusterPairing, (((1, 1),),), ClusterError, "at most one pair"),
    (ClusterPairing, (((1, 2), (2, 3)),), ClusterError, "at most one pair"),
    (Dendrogram, (("A", "B"), ()), ClusterError, "needs n-1 merges"),
    (Dendrogram, (("A", "B", "C"), (Merge(0, 1, 0.5), Merge(2, 3, 0.25))), ClusterError,
     "non-decreasing"),
    (Dendrogram, (("A", "B"), (Merge(0, 2, 0.5),)), ClusterError, "uses node 2 before"),
    (Dendrogram, (("A", "B", "C"), (Merge(0, 1, 0.5), Merge(1, 3, 0.5))), ClusterError,
     "node 1 used twice"),
    (SpanningTree, (("A", "B"), ()), ClusterError, "needs n-1 edges"),
    (ClusterAssignment, ({"A": 1, "B": 3},), ClusterError, r"ids must be 1..k, got \[1, 3\]"),
    (PricePanel, (("A",), (D1, D2), np.ones((2, 1)), np.zeros((1, 1))), DataError,
     "dividend matrix shape"),
]


@pytest.mark.parametrize("cls,values,error,message", POST_INIT_CHECKS,
                         ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(POST_INIT_CHECKS)])
def test_post_init_checks_still_raise(cls, values, error, message):
    fields = RECORDS[cls][0]
    with pytest.raises(error, match=message):
        cls(*values)
    with pytest.raises(error, match=message):
        cls(**dict(zip(fields, values)))


def test_cached_properties_are_kept_on_the_instance():
    returns = ReturnPanel(*RECORDS[ReturnPanel][2])
    assert returns.column == {"A": 0, "B": 1} and "column" in vars(returns)
    assert returns.column is returns.column
    plan = DrawPlan("industry", ("A", "B", "C"), (1, 2))
    assert plan.starts == (0, 1) and "starts" in vars(plan) and plan.starts is plan.starts
    assignment = ClusterAssignment({"A": 1, "B": 2, "C": 1})
    assert assignment.members(1) == ("A", "C")

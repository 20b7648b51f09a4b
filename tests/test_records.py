"""The record classes: every value class of opdim is a `logic.Record`, a
plain `__slots__` class, immutable, equal only to records of its own class
with equal fields, hashed by its fields, printed as `Name(field=value, ...)`,
and copied with changes by `_replace`."""
import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opdim.contexts import Constraint, FinSet
from opdim.dlo import DimensionReport, DloContext, DloSet, Factor, OrderDiagram
from opdim.logic import (
    And, Atom, Bot, Const, DefinableSubset, Elem, Eq, Exists, FiniteStructure, Forall,
    Imp, LogicError, Not, Or, PartitionedFormula, Rat, Record, Signature, Top, Var,
    DLO_SIGNATURE, TRUE,
)
from opdim.multiorder import (
    Amalgam, Embedding, ExtensionSpec, MopReport, MultiCut, MultiOrder, PictureWitness,
    ValidationReport,
)
from opdim.patterns import ConvexPartition, ICTPattern, IRDPattern, SearchResult
from opdim.ranks import GammaWitness, RankQuery, RankValue

MODULES = ("logic", "contexts", "dlo", "multiorder", "patterns", "ranks", "cli")

X, Y = Var("x"), Var("y")
LESS = Atom("<", (X, Y))
PHI = PartitionedFormula(LESS, ("x",), ("y",))
CTX = DloContext(1)   # contexts compare by identity: every sample shares this one
STRUCTURE = FiniteStructure(DLO_SIGNATURE, (0, 1), {"<": {(0, 1)}})
MO = MultiOrder(2, ("a", "b"), (("a", "b"), ("b", "a")))
EMBEDDING = Embedding(MO, "grid", (("a", (0, 1)), ("b", (1, 0))))
UNIT = Factor((0,), (), ((1,),))

# (a factory of equal records, their fields in order, a valid change of one field)
SAMPLES = [
    (lambda: Var("x"), ("name",), {"name": "z"}),
    (lambda: Const("c"), ("name",), {"name": "d"}),
    (lambda: Rat(Fraction(1, 2)), ("value",), {"value": Fraction(3)}),
    (lambda: Elem("a"), ("value",), {"value": 7}),
    (lambda: Atom("<", (X, Y)), ("rel", "args"), {"args": (Y, X)}),
    (lambda: Eq(X, Rat(Fraction(1))), ("left", "right"), {"left": Y}),
    (lambda: Not(LESS), ("sub",), {"sub": TRUE}),
    (lambda: And(LESS, TRUE), ("left", "right"), {"right": LESS}),
    (lambda: Or(LESS, TRUE), ("left", "right"), {"left": TRUE}),
    (lambda: Imp(LESS, TRUE), ("left", "right"), {"right": Not(LESS)}),
    (lambda: Forall("y", LESS), ("var", "sub"), {"var": "x"}),
    (lambda: Exists("y", LESS), ("var", "sub"), {"sub": TRUE}),
    (lambda: Top(), (), {}),
    (lambda: Bot(), (), {}),
    (lambda: Signature((("<", 2),), ("c",)), ("relations", "constants"), {"constants": ()}),
    (lambda: FiniteStructure(DLO_SIGNATURE, (0, 1), {"<": {(0, 1)}}),
     ("signature", "universe", "relations", "constants", "allow_empty"), {"universe": (0, 1, 2)}),
    (lambda: PartitionedFormula(LESS, ("x",), ("y",)), ("body", "obj_vars", "param_vars"),
     {"body": TRUE}),
    (lambda: DefinableSubset(STRUCTURE, 1, {(0,)}), ("structure", "arity", "tuples"),
     {"tuples": frozenset({(1,)})}),
    (lambda: Constraint(PHI, (Fraction(1),), 1), ("phi", "params", "sign"), {"sign": 0}),
    (lambda: FinSet(1, 0b101), ("arity", "mask"), {"mask": 0b11}),
    (lambda: OrderDiagram(((frozenset({"x"}), None),)), ("blocks",),
     {"blocks": ((frozenset({"x"}), Fraction(0)),)}),
    (lambda: DimensionReport(1, "both", (0,), ((Fraction(-1), Fraction(1)),)),
     ("dimension", "method", "coords", "box"), {"method": "projection"}),
    (lambda: Factor((0,), (), ((1,),)), ("group", "consts", "cells"), {"cells": ()}),
    (lambda: DloSet((UNIT,)), ("factors",), {"factors": (Factor((0,), (), ()),)}),
    (lambda: MultiOrder(2, ("a", "b"), (("a", "b"), ("b", "a"))), ("n", "universe", "orders"),
     {"orders": (("a", "b"), ("a", "b"))}),
    (lambda: MultiCut((0, 2)), ("cuts",), {"cuts": (1, 1)}),
    (lambda: ExtensionSpec((0, 1)), ("positions",), {"positions": (2, 2)}),
    (lambda: Embedding(MO, "grid", (("a", (0, 1)), ("b", (1, 0)))),
     ("source", "target", "point_map"), {"target": MO}),
    (lambda: ValidationReport(False, 1, "order 1 is not a permutation of the universe"),
     ("ok", "order_index", "message"), {"ok": True}),
    (lambda: Amalgam(MO, EMBEDDING, EMBEDDING), ("result", "embed_b", "embed_c"),
     {"embed_c": None}),
    (lambda: PictureWitness(MO, CTX, (("a", (Fraction(0),)), ("b", (Fraction(1),))), PHI),
     ("source", "host", "point_map", "phi"), {"host": STRUCTURE}),
    (lambda: MopReport(9, 4, ((0, 2), (1, 2)), "exhaustive"),
     ("total", "definable", "cuts", "status"), {"status": "budget"}),
    (lambda: IRDPattern(CTX, TRUE, (PHI,), (((Fraction(0),), (Fraction(1),)),)),
     ("context", "base", "formulas", "witnesses"), {"base": LESS}),
    (lambda: ICTPattern(CTX, TRUE, (PHI,), (((Fraction(0),), (Fraction(1),)),)),
     ("context", "base", "formulas", "witnesses"), {"witnesses": (((Fraction(2),),),)}),
    (lambda: SearchResult("none_exhaustive", None, 3), ("status", "pattern", "checks_used"),
     {"checks_used": 4}),
    (lambda: ConvexPartition(((0, 2, True),)), ("blocks",), {"blocks": ((0, 1, False),)}),
    (lambda: RankValue(2, True), ("value", "capped"), {"capped": False}),
    (lambda: RankQuery(CTX, TRUE, (PHI,)), ("context", "subset", "delta", "n", "cap"),
     {"cap": 3}),
    (lambda: GammaWitness({(): ((Fraction(1),),)}, {(1,): (Fraction(2),)}),
     ("params", "witnesses"), {"witnesses": {}}),
]
IDS = [type(make()).__name__ for make, _, _ in SAMPLES]


def _record_classes():
    """Every record class defined in opdim's modules."""
    found = set()
    for m in MODULES:
        module = importlib.import_module(f"opdim.{m}")
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and issubclass(cls, Record)
                  and cls is not Record}
    return found


def test_every_record_class_has_a_sample():
    classes = _record_classes()
    assert len(classes) == 39
    assert classes == {type(make()) for make, _, _ in SAMPLES}


def test_no_class_in_opdim_comes_from_dataclasses():
    for m in MODULES:
        module = importlib.import_module(f"opdim.{m}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            assert not hasattr(cls, "__dataclass_fields__"), f"{m}.{name}"


def test_importing_the_cli_loads_no_dataclasses():
    # creating a dataclass execs its generated methods, about 1 ms a class
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, opdim.cli; print('dataclasses' in sys.modules)"],
        check=True, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("make, fields, change", SAMPLES, ids=IDS)
def test_fields_are_the_slots_not_starting_with_an_underscore(make, fields, change):
    r = make()
    assert r._fields == fields
    assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("make, fields, change", SAMPLES, ids=IDS)
def test_assignment_raises(make, fields, change):
    r = make()
    before = [getattr(r, n) for n in fields]
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert [getattr(r, n) for n in fields] == before


@pytest.mark.parametrize("make, fields, change", SAMPLES, ids=IDS)
def test_equality_needs_the_same_class(make, fields, change):
    r, twin = make(), make()
    assert r == twin and not r != twin
    other = type("Other", (type(r),), {"__slots__": ()})(*[getattr(r, n) for n in fields])
    assert r != other and other != r
    assert r != tuple(getattr(r, n) for n in fields)


@pytest.mark.parametrize("a, b", [
    (And(LESS, TRUE), Or(LESS, TRUE)),
    (Or(LESS, TRUE), Imp(LESS, TRUE)),
    (Forall("y", LESS), Exists("y", LESS)),
    (Top(), Bot()),
    (Var("x"), Const("x")),
    (Rat(1), Elem(1)),
    (IRDPattern(CTX, TRUE, (PHI,), (((0,), (1,)),)),
     ICTPattern(CTX, TRUE, (PHI,), (((0,), (1,)),))),
], ids=lambda r: type(r).__name__)
def test_records_of_two_classes_with_equal_fields_differ(a, b):
    assert a != b and b != a


@pytest.mark.parametrize("make, fields, change", SAMPLES, ids=IDS)
def test_equal_records_hash_equal(make, fields, change):
    r, twin = make(), make()
    if isinstance(r, GammaWitness):   # it holds dicts, as a dataclass it had no hash
        with pytest.raises(TypeError):
            hash(r)
        return
    assert r is not twin and hash(r) == hash(twin)
    assert hash(r) == hash(r)   # a cached hash reads back the same
    assert len({r, twin}) == 1


@pytest.mark.parametrize("make, fields, change", SAMPLES, ids=IDS)
def test_repr_keeps_its_format(make, fields, change):
    r = make()
    if not isinstance(r, GammaWitness):
        hash(r)   # a cache filled in is not shown
    inner = ", ".join(f"{n}={getattr(r, n)!r}" for n in fields)
    assert repr(r) == f"{type(r).__name__}({inner})"


def test_repr_reads_as_it_did():
    pf = PartitionedFormula(And(LESS, TRUE), ["x"], ["y"])
    hash(pf)
    assert repr(pf) == ("PartitionedFormula(body=And(left=Atom(rel='<', args=(Var(name='x'), "
                        "Var(name='y'))), right=Top()), obj_vars=('x',), param_vars=('y',))")
    assert repr(Elem("1")) == "Elem(value='1')"
    assert repr(RankValue(2)) == "RankValue(value=2, capped=False)"
    assert repr(DimensionReport(None, "both")) == \
        "DimensionReport(dimension=None, method='both', coords=None, box=None)"


@pytest.mark.parametrize("make, fields, change", SAMPLES, ids=IDS)
def test_replace(make, fields, change):
    r = make()
    same = r._replace()
    assert same == r and type(same) is type(r)
    if change:
        changed = r._replace(**change)
        assert type(changed) is type(r) and changed != r
        for n in fields:
            assert getattr(changed, n) == change.get(n, getattr(r, n)), n
        assert r == make()   # the original is untouched
    with pytest.raises(TypeError):
        r._replace(no_such_field=1)


def test_replace_checks_like_the_constructor():
    with pytest.raises(ValueError):
        RankValue(1)._replace(value=-1)
    with pytest.raises(LogicError):
        PHI._replace(param_vars=("x",))
    assert MultiCut((1,))._replace(cuts=[2]).cuts == (2,)


def test_the_generic_constructor_takes_fields_by_position_or_name():
    assert SearchResult("found", None, checks_used=2) == SearchResult("found", None, 2)
    assert Amalgam(result=MO, embed_b=None, embed_c=None).result is MO
    for args, kwargs in [((1, 2), {}), (("found", None, 1, 2), {}),
                         (("found", None), {"status": "x", "checks_used": 1}),
                         (("found", None), {"checks_used": 1, "extra": 2})]:
        with pytest.raises(TypeError):
            SearchResult(*args, **kwargs)


@pytest.mark.parametrize("r", [PHI, And(Not(LESS), Exists("y", Eq(X, Elem("a")))),
                               MultiCut((0, 1)), RankValue(3, True)],
                         ids=lambda r: type(r).__name__)
def test_copy_and_pickle_rebuild_through_the_constructor(r):
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and type(twin) is type(r)


def test_a_record_class_must_declare_slots():
    with pytest.raises(TypeError, match="__slots__"):
        type("Loose", (Var,), {})


def test_cached_values_are_computed_once_and_not_compared():
    s = DloSet((UNIT,))
    assert s.joined() is UNIT and s.joined() is UNIT
    mo = MultiOrder(2, ("a", "b"), (("a", "b"), ("b", "a")))
    assert mo.positions(1) == {"b": 0, "a": 1} and mo.positions(1) is mo.positions(1)
    assert mo == MO and hash(mo) == hash(MO)

"""The package's records: dataclass behaviour without `dataclasses`.

Each record is checked against a dataclass twin built with
`dataclasses.make_dataclass` from the same class name and fields: the
same repr text (the behaviour replay hashes it), the same hash, and the
same refusal to change a frozen record.  Equality needs the exact class.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, make_dataclass

import pytest

from davote.core import (
    Correspondence,
    Form,
    Labeling,
    PlaneLabeling,
    WinnerTable,
    _valid_tableau,
)
from davote.oracle import OracleReport
from davote.plurality import ForbiddenWitness
from davote.results import RecognitionResult
from davote.special import NTableau

F0, F01 = frozenset({0}), frozenset({0, 1})
LAB = Labeling(row_labels=((1, 0),), col_labels=((0, 1), (1, 0)))

# (record built by keyword, its repr, frozen)
CASES = [
    (
        WinnerTable(p=2, xs=((1, 0), (0, 1)), ys=((1, 0),), rows=((F0,), (F01,))),
        "WinnerTable(p=2, xs=((1, 0), (0, 1)), ys=((1, 0),), "
        "rows=((frozenset({0}),), (frozenset({0, 1}),)))",
        True,
    ),
    (
        Correspondence(candidates=2, cells=((F0, F01),)),
        "Correspondence(candidates=2, cells=((frozenset({0}), frozenset({0, 1})),))",
        True,
    ),
    (Form(candidates=2, cells=((0, 1),)), "Form(candidates=2, cells=((0, 1),))", True),
    (LAB, "Labeling(row_labels=((1, 0),), col_labels=((0, 1), (1, 0)))", True),
    (
        PlaneLabeling(axis_labels=((0, 1), (1, 0))),
        "PlaneLabeling(axis_labels=((0, 1), (1, 0)))",
        True,
    ),
    (
        RecognitionResult(verdict="accepted", method="plurality", labeling=LAB, witness=None),
        "RecognitionResult(verdict='accepted', method='plurality', labeling=Labeling("
        "row_labels=((1, 0),), col_labels=((0, 1), (1, 0))), witness=None)",
        False,
    ),
    (
        ForbiddenWitness(pattern="m2", rows=(0, 1), cols=(0, 2), symbols={"a": 1}),
        "ForbiddenWitness(pattern='m2', rows=(0, 1), cols=(0, 2), symbols={'a': 1})",
        True,
    ),
    (
        NTableau(weights=(1,), kind="form", cells=(0, 1)),
        "NTableau(weights=(1,), kind='form', cells=(0, 1))",
        True,
    ),
    (
        OracleReport(is_dav=True, labelings_found=1, one_labeling=None, nodes_explored=3),
        "OracleReport(is_dav=True, labelings_found=1, one_labeling=None, nodes_explored=3)",
        False,
    ),
]
IDS = [type(record).__name__ for record, _, _ in CASES]


def values(record) -> list:
    return [getattr(record, name) for name in record._fields]


def twin(record, frozen: bool):
    """A dataclass of the same name and fields, holding the same values."""
    cls = make_dataclass(type(record).__name__, record._fields, frozen=frozen)
    return cls(*values(record))


@pytest.mark.parametrize("record,text,frozen", CASES, ids=IDS)
class TestRecord:
    def test_repr(self, record, text, frozen):
        assert repr(record) == text == repr(twin(record, frozen))

    def test_keyword_and_positional_construction_agree(self, record, text, frozen):
        again = type(record)(*values(record))
        assert again == record and not again != record
        assert vars(again) == dict(zip(record._fields, values(record)))

    def test_equality_needs_the_exact_class(self, record, text, frozen):
        class Subclass(type(record)):
            pass

        other = object.__new__(Subclass)
        vars(other).update(vars(record))
        assert record != other and other != record
        assert record != tuple(values(record)) and tuple(values(record)) != record
        assert record != twin(record, frozen)

    def test_hash(self, record, text, frozen):
        if not frozen:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        elif type(record) is ForbiddenWitness:
            with pytest.raises(TypeError, match="dict"):  # its symbols are a dict
                hash(record)
        else:
            assert hash(record) == hash(type(record)(*values(record)))
            assert hash(record) == hash(twin(record, frozen))

    def test_frozen_records_refuse_every_change(self, record, text, frozen):
        name = record._fields[0]
        if not frozen:
            setattr(record, name, getattr(record, name))
            record.extra = 1
            del record.extra
            return
        for attr in (name, "extra"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{attr}'"):
                setattr(record, attr, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{attr}'"):
                delattr(record, attr)
        assert repr(record) == text


def test_a_form_is_not_a_correspondence_with_the_same_fields():
    form = Form(2, ((0, 1),))
    twin_corr = _valid_tableau(Correspondence, candidates=2, cells=form.cells)
    assert vars(twin_corr) == vars(form)
    assert form != twin_corr and twin_corr != form


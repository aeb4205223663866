"""Recognition of distributed approval tableaux.

`recognize_tableau` is the one entry; its docstring lists the routes.
Over p >= 3 candidates, per-candidate row signatures pin every
correspondence row to at most one strategy once the wider side is taken
as columns.  A form row labeled x wins candidate a in at least the
cells where a wins alone under x and at most the cells where a is among
the winners.  Where every form has distinct rows
(`all_forms_rows_distinct`) these bounds of two distinct strategies are
disjoint on some candidate, so they isolate a unique strategy per row;
elsewhere the row stage searches the row labelings the bounds allow.
Recognition never calls the exhaustive oracle, which stays an
independent cross-check.
"""

from __future__ import annotations

from itertools import chain

from .core import (
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    WinnerTable,
    _valid_tableau,
    infer_parameters,
    row_signature,
    transpose_tableau,
    winner_table,
)
from .distinctness import all_forms_rows_distinct
from .matching import accept_counted_rows, accept_row_labels
from .plurality import recognize_plurality_form
from .results import ACCEPTED, REJECTED, RecognitionResult
from .special import NTableau, recognize_n_tableau

__all__ = ["recognize_tableau"]


def _swap_labeling(res: RecognitionResult) -> RecognitionResult:
    if res.verdict == ACCEPTED:
        res.labeling = Labeling(
            row_labels=res.labeling.col_labels,
            col_labels=res.labeling.row_labels,
        )
    elif res.witness is not None:
        res.witness = f"after transposing: {res.witness}"
    return res


def _recognize_two_candidates(
    t: Correspondence | Form, alpha: int, beta: int
) -> RecognitionResult:
    """p = 2: rank the rows and columns as planes of a two-voter tableau.

    `t` checked its cells when it was built and its shape gave the
    weights, so the plane tableau is built without checking them again.
    """
    cells = tuple(chain.from_iterable(t.cells))
    res = recognize_n_tableau(
        _valid_tableau(NTableau, weights=(alpha, beta), kind=t._kind, cells=cells)
    )
    if res.verdict == ACCEPTED:
        rows, cols = res.labeling.axis_labels
        res.labeling = Labeling(
            tuple((z, alpha - z) for z in rows), tuple((z, beta - z) for z in cols)
        )
    return res


def _label_signature_rows(h: Correspondence, table: WinnerTable) -> RecognitionResult:
    """Each row's signature must match exactly one strategy of `table`."""
    sigs = table.signatures
    assignment: list[int] = []
    for i in range(h.rows):
        hits = sigs.get(row_signature(h, i), ())
        if len(hits) != 1:
            return RecognitionResult(
                REJECTED,
                "signature-matching",
                witness=f"row {i} signature matches {len(hits)} strategies "
                f"instead of exactly one",
            )
        assignment.append(hits[0])
    return accept_row_labels(h, "signature-matching", table, assignment)


def recognize_tableau(t: Correspondence | Form | NTableau) -> RecognitionResult:
    """Decide whether `t` is a distributed approval table or form.

    An `NTableau` goes to `recognize_n_tableau`.  A grid whose shape
    fits no voter weights is rejected.  Otherwise:

    1. p = 2: plane ranking, for any card total;
    2. more rows than columns: the same after transposing;
    3. a correspondence: each row's signature (per-candidate winner
       counts) must match exactly one strategy, and every column must
       take a distinct strategy whose generated column it equals
       ("signature-matching");
    4. a form with alpha = beta = 1: `recognize_plurality_form`;
    5. any other form: the winner-count row stage
       (`matching.accept_counted_rows`), named "lu-counting" where every
       form has distinct rows and "row-search" otherwise.
    """
    if isinstance(t, NTableau):
        return recognize_n_tableau(t)
    is_corr = isinstance(t, Correspondence)
    p = t.candidates
    try:
        alpha, beta = infer_parameters(t.rows, t.cols, p)
    except NoParametersError as e:
        method = "signature-matching" if is_corr else "row-search"
        return RecognitionResult(REJECTED, method, witness=str(e))

    if p == 2:
        return _recognize_two_candidates(t, alpha, beta)
    if t.cols < t.rows:
        return _swap_labeling(recognize_tableau(transpose_tableau(t)))
    if is_corr:
        return _label_signature_rows(t, winner_table(p, alpha, beta))
    if alpha == 1 and beta == 1:
        return recognize_plurality_form(t)
    method = "lu-counting" if all_forms_rows_distinct(p, alpha, beta) else "row-search"
    return accept_counted_rows(t, method, winner_table(p, alpha, beta))

"""Recognition of distributed approval tableaux.

Every two-candidate grid is read as a two-voter `NTableau` and decided
by ranking its planes.  Over p >= 3 candidates, correspondences are
recognized in full generality: per-candidate row signatures pin every
row to at most one strategy once the wider side is taken as columns.

Forms over p >= 3 with at least as many columns as rows (the others
are transposed first) go to the single-card route when alpha = beta =
1 and otherwise to one winner-count row stage,
`matching.accept_counted_rows`: a row labeled x wins candidate a in at
least the cells where a wins alone under x and at most the cells where
a is among the winners.  Where every form has distinct rows
(`all_forms_rows_distinct`, method "lu-counting") these bounds of two
distinct strategies are disjoint on some candidate, so they isolate a
unique strategy per row; elsewhere ("row-search") the stage searches
the row labelings the bounds allow.  Recognition never calls the
exhaustive oracle, which stays an independent cross-check.
"""

from __future__ import annotations

from .core import (
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
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

__all__ = [
    "recognize_correspondence",
    "recognize_form",
    "recognize_tableau",
]


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
    """p = 2: rank the rows and columns as planes of a two-voter tableau."""
    kind = "correspondence" if isinstance(t, Correspondence) else "form"
    cells = tuple(cell for row in t.cells for cell in row)
    res = recognize_n_tableau(NTableau((alpha, beta), kind, cells))
    if res.verdict == ACCEPTED:
        rows, cols = res.labeling.axis_labels
        res.labeling = Labeling(
            tuple((z, alpha - z) for z in rows), tuple((z, beta - z) for z in cols)
        )
    return res


def recognize_correspondence(h: Correspondence) -> RecognitionResult:
    """Decide whether a set-valued tableau is a distributed approval table.

    Works for all parameters.  Two-candidate grids are ranked plane by
    plane.  Otherwise the narrower side is transposed into rows first;
    each row's signature (per-candidate winner counts) must then match
    exactly one strategy, and every column must take a distinct strategy
    whose generated column it equals.
    """
    method = "signature-matching"
    p = h.candidates
    try:
        alpha, beta = infer_parameters(h.rows, h.cols, p)
    except NoParametersError as e:
        return RecognitionResult(REJECTED, method, witness=str(e))

    if p == 2:
        return _recognize_two_candidates(h, alpha, beta)
    if h.cols < h.rows:
        return _swap_labeling(recognize_correspondence(transpose_tableau(h)))

    table = winner_table(p, alpha, beta)
    sigs = table.signatures
    assignment: list[int] = []
    for i in range(h.rows):
        hits = sigs.get(row_signature(h, i), ())
        if len(hits) != 1:
            return RecognitionResult(
                REJECTED,
                method,
                witness=f"row {i} signature matches {len(hits)} strategies "
                f"instead of exactly one",
            )
        assignment.append(hits[0])
    return accept_row_labels(h, method, table, assignment)


def recognize_form(g: Form) -> RecognitionResult:
    """Decide whether a single-winner tableau is a distributed approval form.

    Dispatches on the inferred voting parameters:

    1. p = 2: plane ranking, for any card total;
    2. more rows than columns: the same after transposing;
    3. alpha = beta = 1: `recognize_plurality_form`;
    4. anything else: the winner-count row stage
       (`matching.accept_counted_rows`), named "lu-counting" where every
       form has distinct rows and "row-search" otherwise.
    """
    p = g.candidates
    try:
        alpha, beta = infer_parameters(g.rows, g.cols, p)
    except NoParametersError as e:
        return RecognitionResult(REJECTED, "row-search", witness=str(e))

    if p == 2:
        return _recognize_two_candidates(g, alpha, beta)
    if g.cols < g.rows:
        return _swap_labeling(recognize_form(transpose_tableau(g)))
    if alpha == 1 and beta == 1:
        return recognize_plurality_form(g)
    method = "lu-counting" if all_forms_rows_distinct(p, alpha, beta) else "row-search"
    return accept_counted_rows(g, method, winner_table(p, alpha, beta))


def recognize_tableau(t: Correspondence | Form | NTableau) -> RecognitionResult:
    """Dispatch on the tableau type."""
    if isinstance(t, NTableau):
        return recognize_n_tableau(t)
    if isinstance(t, Correspondence):
        return recognize_correspondence(t)
    return recognize_form(t)

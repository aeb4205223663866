"""Polynomial-time recognition of distributed approval tableaux.

Every two-candidate grid is read as a two-voter `NTableau` and decided
by ranking its planes.  Over p >= 3 candidates, correspondences are
recognized in full generality: per-candidate row signatures pin every
row to at most one strategy once the wider side is taken as columns.

Forms over p >= 3 are recognized by a dispatch over the voting
parameters.  The workhorse is the winner-count route wherever every
form has distinct rows (`all_forms_rows_distinct`), in either
orientation: a row labeled x wins candidate a in at least the cells
where a wins alone under x and at most the cells where a is among the
winners.  In that regime these per-candidate bounds of two distinct
strategies are disjoint on some candidate, so they isolate a unique
strategy per row.  Single-card forms run through the same row stage
(`matching.accept_counted_rows`) and explain a rejection by a forbidden
pattern; the rest go to the exhaustive oracle when small enough;
anything else is reported as undecided rather than guessed.
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
from .oracle import DEFAULT_MAX_CELLS, oracle_recognize
from .plurality import recognize_plurality_form
from .results import ACCEPTED, REJECTED, UNDECIDED, RecognitionResult
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


def recognize_form(g: Form, oracle_cells: int = DEFAULT_MAX_CELLS) -> RecognitionResult:
    """Decide whether a single-winner tableau is a distributed approval form.

    Dispatches on the inferred voting parameters:

    1. p = 2: plane ranking, for any card total;
    2. every (p, alpha, beta) form has distinct rows: per-candidate
       winner-count bounds per row (`matching.accept_counted_rows`);
    3. every (p, beta, alpha) form has distinct rows: the same after
       transposing;
    4. alpha = beta = 1: the same winner-count row stage, with a
       forbidden pattern as the witness of a rejection;
    5. anything else: the oracle when at most `oracle_cells` cells,
       otherwise undecided.
    """
    p = g.candidates
    try:
        alpha, beta = infer_parameters(g.rows, g.cols, p)
    except NoParametersError as e:
        return RecognitionResult(REJECTED, "oracle", witness=str(e))

    if p == 2:
        return _recognize_two_candidates(g, alpha, beta)
    if all_forms_rows_distinct(p, alpha, beta):
        return accept_counted_rows(g, "lu-counting", winner_table(p, alpha, beta))
    if all_forms_rows_distinct(p, beta, alpha):
        return _swap_labeling(
            accept_counted_rows(
                transpose_tableau(g), "lu-counting", winner_table(p, beta, alpha)
            )
        )
    if alpha == 1 and beta == 1:
        return recognize_plurality_form(g)
    if g.rows * g.cols > oracle_cells:
        return RecognitionResult(
            UNDECIDED,
            "oracle",
            witness=f"parameters p={p}, alpha={alpha}, beta={beta} fall outside "
            f"every implemented regime, and {g.rows} x {g.cols} exceeds the "
            f"oracle guard of {oracle_cells} cells",
        )
    report = oracle_recognize(g, max_cells=oracle_cells)
    if report.is_dav:
        return RecognitionResult(ACCEPTED, "oracle", labeling=report.one_labeling)
    return RecognitionResult(
        REJECTED, "oracle", witness="exhaustive search found no labeling"
    )


def recognize_tableau(t: Correspondence | Form | NTableau, **kwargs) -> RecognitionResult:
    """Dispatch on the tableau type; keyword options go to `recognize_form`."""
    if isinstance(t, NTableau):
        return recognize_n_tableau(t)
    if isinstance(t, Correspondence):
        return recognize_correspondence(t)
    return recognize_form(t, **kwargs)

"""Polynomial-time recognition of distributed approval tableaux.

Correspondences are recognized in full generality: per-candidate row
signatures pin every row to at most one strategy once the wider side is
taken as columns, and the column labels follow from a perfect matching
on exact column reproduction.

Forms are recognized by a dispatch over the voting parameters.  The
workhorse is the winner-count route for p >= 3 and beta >= 2*alpha: for
every pair of row strategies, the candidates where the first out-holds
the second form a separating candidate set B, and counting how many of
a row's winners fall inside each B brackets the row between the "won
outright" and "still in contention" column counts of each strategy.
In that regime the bounds isolate a unique strategy per row.  The
remaining parameter families go to the single-card, two-card and
two-candidate recognizers, or to the exhaustive oracle when small
enough; anything else is reported as undecided rather than guessed.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    CandidateSet,
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    ParameterError,
    Strategy,
    enumerate_strategies,
    infer_parameters,
    row_signature,
    transpose_tableau,
    winner_counts,
    winner_row,
    winner_table,
)
from .matching import accept_row_labels
from .oracle import DEFAULT_MAX_CELLS, oracle_recognize
from .plurality import recognize_plurality_form
from .results import ACCEPTED, REJECTED, UNDECIDED, RecognitionResult
from .special import NTableau, recognize_form_2_2, recognize_n_tableau

__all__ = [
    "b_set",
    "b_set_family",
    "lu_counts",
    "recognize_correspondence",
    "recognize_form",
    "recognize_tableau",
]


def b_set(x: Strategy, xp: Strategy) -> CandidateSet:
    """Candidates on which `x` places strictly more cards than `xp`."""
    if len(x) != len(xp) or sum(x) != sum(xp):
        raise ParameterError("strategies must have equal length and weight")
    if x == xp:
        raise ParameterError("strategies must be distinct")
    return frozenset(a for a in range(len(x)) if x[a] > xp[a])


def b_set_family(p: int, alpha: int) -> list[CandidateSet]:
    """All separating candidate sets over weight-`alpha` strategy pairs.

    Deduplicated and ordered by size then membership, so downstream
    scans are deterministic.
    """
    xs = enumerate_strategies(p, alpha)
    fam = {b_set(x, xp) for x in xs for xp in xs if x != xp}
    return sorted(fam, key=lambda s: (len(s), sorted(s)))


def lu_counts(x: Strategy, b: CandidateSet, p: int, beta: int) -> tuple[int, int]:
    """Lower and upper winner-count bounds of strategy `x` against `b`.

    The first entry counts opponent strategies against which `x` wins
    only inside `b` (argmax set contained in `b`), the second those
    where some member of `b` still wins (argmax set intersecting `b`).
    Any valid row labeled `x` has its in-`b` winner count between the
    two.
    """
    return _lu_bounds(Counter(winner_row(x, enumerate_strategies(p, beta))), b)


def _lu_bounds(winners: Counter, b: CandidateSet) -> tuple[int, int]:
    """`lu_counts` from the multiset of a strategy's winner sets."""
    lo = sum(n for am, n in winners.items() if am <= b)
    hi = sum(n for am, n in winners.items() if am & b)
    return lo, hi


def _swap_labeling(res: RecognitionResult) -> RecognitionResult:
    if res.verdict == ACCEPTED:
        res.labeling = Labeling(
            row_labels=res.labeling.col_labels,
            col_labels=res.labeling.row_labels,
        )
    elif res.witness is not None:
        res.witness = f"after transposing: {res.witness}"
    return res


def recognize_correspondence(h: Correspondence) -> RecognitionResult:
    """Decide whether a set-valued tableau is a distributed approval table.

    Works for all parameters.  The narrower side is transposed into rows
    first; each row's signature (per-candidate winner counts) must then
    match exactly one strategy, and the columns must admit a perfect
    matching that reproduces them exactly.
    """
    method = "signature-matching"
    p = h.candidates
    try:
        alpha, beta = infer_parameters(h.rows, h.cols, p)
    except NoParametersError as e:
        return RecognitionResult(REJECTED, method, witness=str(e))

    if h.cols < h.rows:
        return _swap_labeling(recognize_correspondence(transpose_tableau(h)))

    table = _, _, rows = winner_table(p, alpha, beta)
    sigs: dict[tuple[int, ...], list[int]] = {}
    for xi, row in enumerate(rows):
        sigs.setdefault(winner_counts(row, p), []).append(xi)

    assignment: list[int] = []
    for i in range(h.rows):
        hits = sigs.get(row_signature(h, i), [])
        if len(hits) != 1:
            return RecognitionResult(
                REJECTED,
                method,
                witness=f"row {i} signature matches {len(hits)} strategies "
                f"instead of exactly one",
            )
        assignment.append(hits[0])
    return accept_row_labels(h, method, table, assignment)


def _recognize_form_lu(g: Form, p: int, alpha: int, beta: int) -> RecognitionResult:
    """Winner-count route, valid for p >= 3 and beta >= 2*alpha."""
    method = "lu-counting"
    table = xs, _, rows = winner_table(p, alpha, beta)
    fam = b_set_family(p, alpha)
    bounds = [{b: _lu_bounds(winners, b) for b in fam} for winners in map(Counter, rows)]

    assignment: list[int] = []
    for i in range(g.rows):
        counts = row_signature(g, i)
        in_b = {b: sum(counts[a] for a in b) for b in fam}
        fits = [
            xi
            for xi in range(len(xs))
            if all(lo <= in_b[b] <= hi for b, (lo, hi) in bounds[xi].items())
        ]
        if not fits:
            b0 = next(
                b for b, (lo, hi) in bounds[0].items() if not lo <= in_b[b] <= hi
            )
            lo, hi = bounds[0][b0]
            return RecognitionResult(
                REJECTED,
                method,
                witness=f"row {i} satisfies no strategy's winner-count bounds "
                f"(e.g. {xs[0]} needs {lo} <= {in_b[b0]} <= {hi} on "
                f"candidates {sorted(b0)})",
            )
        if len(fits) > 1:
            return RecognitionResult(
                REJECTED,
                method,
                witness=f"row {i} satisfies the bounds of {len(fits)} "
                f"strategies; impossible for a tableau in this regime",
            )
        assignment.append(fits[0])
    return accept_row_labels(g, method, table, assignment)


def _oracle_fallback(g: Form, oracle_cells: int, reason: str) -> RecognitionResult:
    if g.rows * g.cols > oracle_cells:
        return RecognitionResult(
            UNDECIDED,
            "oracle",
            witness=f"{reason}, and {g.rows} x {g.cols} exceeds the oracle "
            f"guard of {oracle_cells} cells",
        )
    report = oracle_recognize(g, max_cells=oracle_cells)
    if report.is_dav:
        return RecognitionResult(ACCEPTED, "oracle", labeling=report.one_labeling)
    return RecognitionResult(
        REJECTED, "oracle", witness="exhaustive search found no labeling"
    )


def recognize_form(g: Form, oracle_cells: int = DEFAULT_MAX_CELLS) -> RecognitionResult:
    """Decide whether a single-winner tableau is a distributed approval form.

    Dispatches on the inferred voting parameters:

    1. p >= 3 with beta >= 2*alpha: winner-count bounds per row;
    2. p >= 3 with alpha >= 2*beta: same after transposing;
    3. alpha = beta = 1: forbidden-pattern recognition;
    4. alpha = beta = 2, p >= 3: occurrence-count intervals;
    5. p = 2: for odd alpha + beta the tie-free correspondence check,
       otherwise the exhaustive oracle;
    6. anything else: the oracle when at most `oracle_cells` cells,
       otherwise undecided.
    """
    p = g.candidates
    try:
        alpha, beta = infer_parameters(g.rows, g.cols, p)
    except NoParametersError as e:
        return RecognitionResult(REJECTED, "oracle", witness=str(e))

    if p >= 3 and beta >= 2 * alpha:
        return _recognize_form_lu(g, p, alpha, beta)
    if p >= 3 and alpha >= 2 * beta:
        return _swap_labeling(
            _recognize_form_lu(transpose_tableau(g), p, beta, alpha)
        )
    if alpha == 1 and beta == 1:
        return recognize_plurality_form(g)
    if alpha == 2 and beta == 2 and p >= 3:
        return recognize_form_2_2(g)
    if p == 2:
        if (alpha + beta) % 2 == 1:
            # No cell of the underlying correspondence can tie, so the
            # form must equal the correspondence cell for cell.
            as_corr = Correspondence(
                candidates=2,
                cells=tuple(
                    tuple(frozenset({v}) for v in row) for row in g.cells
                ),
            )
            inner = recognize_correspondence(as_corr)
            return RecognitionResult(
                inner.verdict,
                "two-candidate",
                labeling=inner.labeling,
                witness=inner.witness,
            )
        return _oracle_fallback(
            g, oracle_cells, "two-candidate tableau with tied totals"
        )
    return _oracle_fallback(
        g,
        oracle_cells,
        f"parameters p={p}, alpha={alpha}, beta={beta} fall outside every "
        f"implemented regime",
    )


def recognize_tableau(t: Correspondence | Form | NTableau, **kwargs) -> RecognitionResult:
    """Dispatch on the tableau type; keyword options go to `recognize_form`."""
    if isinstance(t, NTableau):
        return recognize_n_tableau(t)
    if isinstance(t, Correspondence):
        return recognize_correspondence(t)
    return recognize_form(t, **kwargs)

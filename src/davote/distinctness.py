"""When do distributed approval tableaux have pairwise distinct rows?

Two row strategies x and x' stay distinguishable in every form exactly
when some column strategy y separates them completely, i.e. the winner
sets of x+y and x'+y are disjoint.  The set of such y is the
differentiating set D(x, x').  For correspondences the question is
easier: rows differ already when some cell differs as a set.

Both questions have closed-form answers in the voting parameters; the
direct routines here recompute them by enumeration so the closed forms
can be cross-checked on a grid.
"""

from __future__ import annotations

from itertools import combinations

from .core import (
    ParameterError,
    SizeGuardError,
    Strategy,
    _check_params,
    enumerate_strategies,
    strategy_count,
    winner_row,
    winner_table,
)

__all__ = [
    "SizeGuardError",
    "differentiating_set",
    "correspondence_rows_distinct",
    "identical_correspondence_rows",
    "all_forms_rows_distinct",
    "empty_differentiating_pairs",
]

DEFAULT_MAX_EVALS = 1_000_000


def differentiating_set(x: Strategy, xp: Strategy, p: int, beta: int) -> list[Strategy]:
    """Column strategies whose winner sets under x and xp are disjoint."""
    if len(x) != p or len(xp) != p:
        raise ParameterError("strategies must have one entry per candidate")
    ys = enumerate_strategies(p, beta)
    return [
        y
        for y, am, am_p in zip(ys, winner_row(x, ys), winner_row(xp, ys))
        if am.isdisjoint(am_p)
    ]


def correspondence_rows_distinct(p: int, alpha: int, beta: int) -> bool:
    """Closed form: does the (p, alpha, beta) correspondence have distinct rows?

    For alpha >= 2 this holds iff beta >= alpha - 2.  Single-card row
    voters (alpha = 1) always produce distinct rows: the rows are the
    unit strategies and already their singleton-vs-singleton winner sets
    at suitable columns differ.
    """
    _check_params(p, alpha, beta)
    if alpha == 1:
        return True
    return beta >= alpha - 2


def identical_correspondence_rows(
    p: int, alpha: int, beta: int, max_evals: int = DEFAULT_MAX_EVALS
) -> list[tuple[Strategy, Strategy]]:
    """Row-strategy pairs whose correspondence rows coincide.

    Raises `SizeGuardError`, before any table is built, when the table
    would have more than `max_evals` cells.
    """
    cells = strategy_count(p, alpha) * strategy_count(p, beta)
    if cells > max_evals:
        raise SizeGuardError(
            f"direct mode would build a {cells}-cell table, over "
            f"the budget of {max_evals}"
        )
    table = winner_table(p, alpha, beta)
    by_row: dict[tuple, list[Strategy]] = {}
    for x, row in zip(table.xs, table.rows):
        by_row.setdefault(row, []).append(x)
    return [pair for hits in by_row.values() for pair in combinations(hits, 2)]


def all_forms_rows_distinct(p: int, alpha: int, beta: int) -> bool:
    """Closed form: do all (p, alpha, beta) forms have distinct rows?

    Equivalent to every pair of distinct row strategies having a
    nonempty differentiating set.  Three parameter cases:

    * p = 2: beta >= alpha - 1 and alpha + beta odd;
    * p = 3: beta >= 2*alpha, or beta == 2*alpha - 2;
    * p >= 4: (alpha, beta) != (1, 1) and beta >= 2*alpha - 2.
    """
    _check_params(p, alpha, beta)
    if p == 2:
        return beta >= alpha - 1 and (alpha + beta) % 2 == 1
    if p == 3:
        return beta >= 2 * alpha or beta == 2 * alpha - 2
    return (alpha, beta) != (1, 1) and beta >= 2 * alpha - 2


def empty_differentiating_pairs(
    p: int,
    alpha: int,
    beta: int,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> list[tuple[Strategy, Strategy]]:
    """All unordered strategy pairs with no differentiating column.

    The pairs witness that some form has two identical rows; an empty
    result means every form separates every pair.
    """
    k = strategy_count(p, alpha)
    n_cols = strategy_count(p, beta)
    if k * k * n_cols > max_evals:
        raise SizeGuardError(
            f"pair scan for p={p}, alpha={alpha}, beta={beta} needs about "
            f"{k * k * n_cols} evaluations, over the budget of {max_evals}"
        )
    table = winner_table(p, alpha, beta)
    xs, rows = table.xs, table.rows
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            if not any(am.isdisjoint(am_p) for am, am_p in zip(rows[i], rows[j])):
                out.append((xs[i], xs[j]))
    return out

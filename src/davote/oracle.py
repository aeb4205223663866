"""Exhaustive search deciding small tableaux exactly.

The oracle tries every row-label assignment whose per-row statistics
are feasible (signature equality for correspondences, per-candidate
winner-count bounds for forms), propagating column constraints after
each placement, and then enumerates the compatible column labelings.
It is deliberately independent of the polynomial recognizers so the two
routes can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    ParameterError,
    SizeGuardError,
    argmax_set,
    enumerate_strategies,
    infer_parameters,
    row_signature,
    transpose_tableau,
)

__all__ = ["OracleReport", "oracle_recognize"]

DEFAULT_LABELING_CAP = 10
DEFAULT_MAX_CELLS = 64


@dataclass
class OracleReport:
    """What the exhaustive search found.

    `labelings_found` is capped, so it means "at least this many" when
    it equals the cap.  `one_labeling` is the first labeling in search
    order, None when the input is not distributed approval.
    """

    is_dav: bool
    labelings_found: int
    one_labeling: Labeling | None
    nodes_explored: int


def oracle_recognize(
    t: Correspondence | Form,
    cap: int = DEFAULT_LABELING_CAP,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> OracleReport:
    """Decide a small tableau by backtracking over labelings.

    A tableau with more rows than columns is searched transposed, since
    the search branches once per row.  Raises `ParameterError` when
    `cap` is below 1, and `SizeGuardError` when the tableau has more
    than `max_cells` cells.  The verdict is exact; the labeling count
    stops at `cap`.
    """
    if cap < 1:
        raise ParameterError(f"labeling cap must be >= 1, got {cap}")
    k, n_cols = t.rows, t.cols
    if k * n_cols > max_cells:
        raise SizeGuardError(
            f"{k} x {n_cols} tableau exceeds the oracle guard of {max_cells} cells"
        )
    if k > n_cols:
        report = oracle_recognize(transpose_tableau(t), cap, max_cells)
        if report.one_labeling is not None:
            lab = report.one_labeling
            report.one_labeling = Labeling(lab.col_labels, lab.row_labels)
        return report
    p = t.candidates
    try:
        alpha, beta = infer_parameters(k, n_cols, p)
    except NoParametersError:
        return OracleReport(False, 0, None, 0)

    xs = enumerate_strategies(p, alpha)
    ys = enumerate_strategies(p, beta)
    is_corr = isinstance(t, Correspondence)
    am = [
        [argmax_set(tuple(a + b for a, b in zip(x, y))) for y in ys] for x in xs
    ]

    # Row feasibility uses only necessary per-row statistics, so pruning
    # never loses a labeling.
    feasible: list[list[int]] = []
    if is_corr:
        sigs = {}
        for xi in range(len(xs)):
            sig = tuple(sum(a in s for s in am[xi]) for a in range(p))
            sigs.setdefault(sig, []).append(xi)
        for i in range(k):
            feasible.append(list(sigs.get(row_signature(t, i), [])))
    else:
        bounds = []
        for xi in range(len(xs)):
            per_candidate = []
            for a in range(p):
                lo = sum(1 for s in am[xi] if s == {a})
                hi = sum(1 for s in am[xi] if a in s)
                per_candidate.append((lo, hi))
            bounds.append(per_candidate)
        for i in range(k):
            counts = [0] * p
            for v in t.cells[i]:
                counts[v] += 1
            feasible.append(
                [
                    xi
                    for xi in range(len(xs))
                    if all(
                        lo <= counts[a] <= hi
                        for a, (lo, hi) in enumerate(bounds[xi])
                    )
                ]
            )

    row_order = sorted(range(k), key=lambda i: (len(feasible[i]), i))
    report = OracleReport(False, 0, None, 0)
    assigned: dict[int, int] = {}
    used_x = [False] * len(xs)

    def fits(xi: int, yi: int, i: int, j: int) -> bool:
        if is_corr:
            return am[xi][yi] == t.cells[i][j]
        return t.cells[i][j] in am[xi][yi]

    def assign_columns(domains: list[list[int]]) -> None:
        col_order = sorted(range(n_cols), key=lambda j: (len(domains[j]), j))
        used_y = [False] * len(ys)
        chosen: dict[int, int] = {}

        def walk(pos: int) -> None:
            if report.labelings_found >= cap:
                return
            if pos == n_cols:
                report.labelings_found += 1
                if report.one_labeling is None:
                    report.one_labeling = Labeling(
                        row_labels=tuple(xs[assigned[i]] for i in range(k)),
                        col_labels=tuple(ys[chosen[j]] for j in range(n_cols)),
                    )
                return
            j = col_order[pos]
            for yi in domains[j]:
                if not used_y[yi]:
                    used_y[yi] = True
                    chosen[j] = yi
                    report.nodes_explored += 1
                    walk(pos + 1)
                    used_y[yi] = False

        walk(0)

    def assign_rows(pos: int, domains: list[list[int]]) -> None:
        if report.labelings_found >= cap:
            return
        if pos == k:
            assign_columns(domains)
            return
        i = row_order[pos]
        for xi in feasible[i]:
            if used_x[xi]:
                continue
            narrowed = [
                [yi for yi in domains[j] if fits(xi, yi, i, j)]
                for j in range(n_cols)
            ]
            report.nodes_explored += 1
            if any(not d for d in narrowed):
                continue
            used_x[xi] = True
            assigned[i] = xi
            assign_rows(pos + 1, narrowed)
            used_x[xi] = False

    assign_rows(0, [list(range(len(ys))) for _ in range(n_cols)])
    report.is_dav = report.labelings_found > 0
    return report

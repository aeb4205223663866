"""Exhaustive search deciding small tableaux exactly.

The oracle tries every row-label assignment whose per-row winner counts
are feasible, narrowing each column's strategy domain after each
placement, and then enumerates the compatible column labelings.  Both
walks keep explicit stacks, so no call depth grows with the input.
It is deliberately independent of the polynomial recognizers so the two
routes can cross-check each other: it builds its own argmax grid and
counts each row's winners itself, reading nothing the fast paths share.
"""

from __future__ import annotations

from .core import (
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    ParameterError,
    SizeGuardError,
    _Record,
    enumerate_strategies,
    infer_parameters,
    transpose_tableau,
)

__all__ = ["OracleReport", "oracle_recognize"]

DEFAULT_LABELING_CAP = 10
DEFAULT_MAX_CELLS = 64


def _argmax(z) -> frozenset[int]:
    top = max(z)
    return frozenset(i for i, v in enumerate(z) if v == top)


class OracleReport(_Record):
    """What the exhaustive search found.

    `labelings_found` is capped, so it means "at least this many" when
    it equals the cap.  `one_labeling` is the first labeling in search
    order, None when the input is not distributed approval.  `is_dav`
    is a bool and `nodes_explored` an int.
    """

    _fields = ("is_dav", "labelings_found", "one_labeling", "nodes_explored")


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
    am = [[_argmax([a + b for a, b in zip(x, y)]) for y in ys] for x in xs]

    # One necessary per-row rule, so pruning never loses a labeling: for
    # each candidate a, strategy x's row has `lo` cells a wins alone and
    # `hi` cells a is among the winners.  A correspondence row's
    # signature must equal every `hi`, a form row's counts lie in
    # [lo, hi].
    bounds = [[(sum(s == {a} for s in row), sum(a in s for s in row)) for a in range(p)]
              for row in am]
    feasible = []
    for row in t.cells:
        sig = [sum(a in c for c in row) if is_corr else row.count(a) for a in range(p)]
        feasible.append([
            xi for xi, b in enumerate(bounds)
            if all(c == hi if is_corr else lo <= c <= hi for c, (lo, hi) in zip(sig, b))
        ])

    # Depth-first over rows, fewest options first, then over columns.
    # Each walk keeps one iterator per depth in a list indexed by depth,
    # so no call nests per placed line.  A leaf or a reached cap ends a
    # branch, but the siblings still tried after the cap count as nodes.
    row_order = sorted(range(k), key=lambda i: (len(feasible[i]), i))
    found = nodes = 0
    first = None
    used_x = [False] * len(xs)
    used_y = [False] * len(ys)
    x_path, y_path = [0] * k, [0] * n_cols  # the strategy placed at each depth
    row_its = [iter(feasible[row_order[0]])] * k
    row_doms = [[range(len(ys))] * n_cols] * k  # column domains before each depth
    d = 0
    while d >= 0:
        for xi in row_its[d]:
            if used_x[xi]:
                continue
            line, doms = am[xi], zip(row_doms[d], t.cells[row_order[d]])
            if is_corr:
                narrowed = [[yi for yi in dom if line[yi] == c] for dom, c in doms]
            else:
                narrowed = [[yi for yi in dom if c in line[yi]] for dom, c in doms]
            nodes += 1
            if all(narrowed):
                break
        else:
            # Back up; at depth 0 this clears a flag that is already clear.
            d -= 1
            used_x[x_path[d]] = False
            continue
        x_path[d] = xi
        if found >= cap:
            continue
        if d < k - 1:
            used_x[xi] = True
            d += 1
            row_its[d] = iter(feasible[row_order[d]])
            row_doms[d] = narrowed
            continue
        col_order = sorted(range(n_cols), key=lambda j: (len(narrowed[j]), j))
        col_doms = [narrowed[j] for j in col_order]
        col_its = [iter(col_doms[0])] * n_cols
        e = 0
        while e >= 0:
            for yi in col_its[e]:
                if not used_y[yi]:
                    break
            else:
                e -= 1
                used_y[y_path[e]] = False
                continue
            nodes += 1
            if found >= cap:
                continue
            y_path[e] = yi
            if e < n_cols - 1:
                used_y[yi] = True
                e += 1
                col_its[e] = iter(col_doms[e])
            else:
                found += 1
                if first is None:
                    first = Labeling(
                        row_labels=tuple(xs[x] for _, x in sorted(zip(row_order, x_path))),
                        col_labels=tuple(ys[y] for _, y in sorted(zip(col_order, y_path))),
                    )
    return OracleReport(found > 0, found, first, nodes)

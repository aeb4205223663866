"""Column-label recovery and the accept step shared by the recognizers.

Left vertices are implicit indices into the adjacency list; right
vertices are indices in ``0..n_right-1``.  Adjacency lists are scanned
in the given order and left vertices in index order, so results are
deterministic for a fixed input.
"""

from __future__ import annotations

from collections import Counter

from .core import CandidateSet, Correspondence, Form, Labeling, Strategy, labeling_generates
from .results import ACCEPTED, REJECTED, RecognitionResult

__all__ = [
    "maximum_matching",
    "column_adjacency",
    "lookup_columns",
    "accept_row_labels",
]


def maximum_matching(adjacency: list[list[int]], n_right: int) -> list[int | None]:
    """Match left vertices to right ones, maximizing the matched count.

    Returns `match_left` with `match_left[i]` the right vertex matched
    to left vertex i, or None.  Runs in O(V * E).  Augmenting paths are
    searched depth first with an explicit stack, so path length is not
    bounded by the interpreter's recursion limit.
    """
    match_left: list[int | None] = [None] * len(adjacency)
    match_right: list[int | None] = [None] * n_right
    for root in range(len(adjacency)):
        seen = [False] * n_right
        # One frame per left vertex on the current path, each holding its
        # place in its own adjacency list; trying[d] is the right vertex
        # that frame d is trying to take.
        stack = [(root, iter(adjacency[root]))]
        trying: list[int] = []
        while stack:
            for j in stack[-1][1]:
                if not seen[j]:
                    break
            else:
                stack.pop()
                if trying:
                    trying.pop()
                continue
            seen[j] = True
            trying.append(j)
            if match_right[j] is None:
                for (left, _), right in zip(stack, trying):
                    match_left[left] = right
                    match_right[right] = left
                break
            stack.append((match_right[j], iter(adjacency[match_right[j]])))
    return match_left


def column_adjacency(cells, rows: list[tuple[CandidateSet, ...]]) -> list[list[int]]:
    """Per form column, the strategies able to reproduce it under fixed rows.

    `rows[i][t]` is the winner set of row i's label plus the t-th column
    strategy; candidate t fits column j when every cell (i, j) lies in
    ``rows[i][t]``.  Each list is in increasing t, keeping downstream
    matchings deterministic.  Membership only constrains a column through
    its content, so columns with equal content share one list.
    """
    fits: dict[tuple, list[int]] = {col: [] for col in zip(*cells)}
    for t, ams in enumerate(zip(*rows)):
        for content, ts in fits.items():
            if all(v in am for v, am in zip(content, ams)):
                ts.append(t)
    return [fits[col] for col in zip(*cells)]


def lookup_columns(cells, rows: list[tuple[CandidateSet, ...]]) -> list[int | None]:
    """Label correspondence columns by their content.

    Each column takes the last unused strategy that generates exactly
    that column under the fixed rows, or None when none is left.  When
    every column gets one, popping from the end gives what
    augmenting-path matching returns on these disjoint groups.
    """
    groups: dict[tuple, list[int]] = {}
    for t, col in enumerate(zip(*rows)):
        groups.setdefault(col, []).append(t)
    return [groups[col].pop() if groups.get(col) else None for col in zip(*cells)]


def accept_row_labels(
    t: Correspondence | Form,
    method: str,
    table: tuple[list[Strategy], list[Strategy], list[tuple[CandidateSet, ...]]],
    assignment: list[int],
) -> RecognitionResult:
    """Finish a recognition whose rows are labeled by strategy index.

    `table` is ``winner_table(p, alpha, beta)`` and `assignment[i]` the
    index of row i's strategy in it.  The rows must use distinct
    strategies, the columns must be labeled (by content lookup for a
    correspondence, by a perfect matching for a form), and the labeling
    must regenerate `t`.
    """
    xs, ys, rows = table
    uses = Counter(assignment)
    dup = next((xi for xi in assignment if uses[xi] > 1), None)
    if dup is not None:
        first, second = [i for i, xi in enumerate(assignment) if xi == dup][:2]
        return RecognitionResult(
            REJECTED,
            method,
            witness=f"rows {first} and {second} both map to strategy {xs[dup]}",
        )
    labeled = [rows[xi] for xi in assignment]
    if isinstance(t, Correspondence):
        match = lookup_columns(t.cells, labeled)
    else:
        match = maximum_matching(column_adjacency(t.cells, labeled), len(ys))
    if any(m is None for m in match):
        return RecognitionResult(
            REJECTED, method, witness="no perfect matching labels the columns"
        )
    labeling = Labeling(tuple(xs[xi] for xi in assignment), tuple(ys[m] for m in match))
    if not labeling_generates(t, labeling):
        return RecognitionResult(
            REJECTED, method, witness="labeling fails to regenerate the input"
        )
    return RecognitionResult(ACCEPTED, method, labeling=labeling)

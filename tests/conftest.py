"""Shared fixtures: small hand-checked tableaux used across the suite.

Candidates are referred to by index; A, B, C, D alias 0..3 for
readability.  The frozen matrices below were worked out by hand from
the generation rule (argmax of the card-count sum) and double-checked
cell by cell; tests treat them as ground truth rather than regenerating
them with the code under test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from operator import and_

import pytest

from davote import (
    Correspondence,
    Form,
    Labeling,
    NTableau,
    ParameterError,
    SizeGuardError,
    generate_correspondence,
)
from davote.core import (
    CandidateSet,
    Signature,
    Strategy,
    _check_params,
    _winner_row,
    enumerate_strategies,
    strategy_count,
    winner_row,
    winner_table,
)
from davote.distinctness import DEFAULT_MAX_EVALS

A, B, C, D = 0, 1, 2, 3


def corr(p: int, rows) -> Correspondence:
    return Correspondence(
        candidates=p,
        cells=tuple(tuple(frozenset(c) for c in row) for row in rows),
    )


def form(p: int, rows) -> Form:
    return Form(candidates=p, cells=tuple(tuple(row) for row in rows))


def argmax_set(z: Strategy) -> CandidateSet:
    """Set of positions holding the maximum entry of `z`."""
    top = max(z)
    return frozenset(i for i, v in enumerate(z) if v == top)


def winner_counts(cells, p: int) -> Signature:
    """Per-candidate number of `cells` it wins; cells are winner sets or single winners.

    For the cells of a tableau row this is the row's signature.
    """
    counts = [0] * p
    for cell, n in Counter(cells).items():
        if isinstance(cell, frozenset):
            for a in cell:
                counts[a] += n
        else:
            counts[cell] += n
    return tuple(counts)


def signature_rows(table) -> dict[Signature, tuple[int, ...]]:
    """Per row signature of a `WinnerTable`, the increasing indexes of its rows with it.

    Signatures follow the order of their first rows.
    """
    sigs: dict[Signature, list[int]] = {}
    for xi, row in enumerate(table.rows):
        sigs.setdefault(winner_counts(row, table.p), []).append(xi)
    return {sig: tuple(xis) for sig, xis in sigs.items()}


def labeling_generates(t: Correspondence | Form, labeling: Labeling) -> bool:
    """Whether applying `labeling` reproduces `t` exactly.

    Correspondence cells must equal the argmax set of the summed label
    strategies; form cells must be members of it.
    """
    if len(labeling.row_labels) != t.rows or len(labeling.col_labels) != t.cols:
        return False
    is_corr = isinstance(t, Correspondence)
    cols = list(zip(*labeling.col_labels))
    for row, x in zip(t.cells, labeling.row_labels):
        ams = _winner_row(x, cols)
        if is_corr:
            if any(cell != am for cell, am in zip(row, ams)):
                return False
        elif any(cell not in am for cell, am in zip(row, ams)):
            return False
    return True


def flat_index(nt: NTableau, z: tuple[int, ...]) -> int:
    """Position in the row-major `nt.cells` of the cell at index tuple `z`."""
    idx = 0
    for t, d in zip(z, nt.dims):
        idx = idx * d + t
    return idx


def n_cell(nt: NTableau, z: tuple[int, ...]):
    """The cell of `nt` at index tuple `z`."""
    return nt.cells[flat_index(nt, z)]


def b_set(x, xp) -> frozenset[int]:
    """Candidates on which `x` places strictly more cards than `xp`."""
    if len(x) != len(xp) or sum(x) != sum(xp):
        raise ParameterError("strategies must have equal length and weight")
    if x == xp:
        raise ParameterError("strategies must be distinct")
    return frozenset(a for a in range(len(x)) if x[a] > xp[a])


def lu_counts(x, b, p: int, beta: int) -> tuple[int, int]:
    """Lower and upper winner-count bounds of strategy `x` against `b`.

    The first entry counts opponent strategies against which `x` wins
    only inside `b` (argmax set contained in `b`), the second those
    where some member of `b` still wins (argmax set intersecting `b`).
    Any valid row labeled `x` has its in-`b` winner count between the
    two.
    """
    winners = winner_row(x, enumerate_strategies(p, beta))
    return sum(1 for am in winners if am <= b), sum(1 for am in winners if am & b)


def signature_of_strategy(x: Strategy, p: int, beta: int) -> Signature:
    """Per-candidate count of opponent strategies that keep it winning.

    Entry a is the number of weight-`beta` strategies y for which
    candidate a belongs to the argmax set of x + y.
    """
    _check_params(p, beta)
    if len(x) != p or sum(x) < 1 or any(v < 0 for v in x):
        raise ParameterError(f"{x!r} is not a valid strategy over {p} candidates")
    return winner_counts(winner_row(x, enumerate_strategies(p, beta)), p)


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


def enumerate_all_forms(p: int, alpha: int, beta: int, cap: int = 10_000) -> list[Form]:
    """Every form obtainable from the (p, alpha, beta) correspondence.

    Each cell of the correspondence contributes one independent choice,
    so the result has ``prod(len(cell))`` entries.  Raises
    `CapExceededError` when that product exceeds `cap`; distinct choice
    vectors always give distinct matrices, so the count is exact.
    """
    corr = generate_correspondence(p, alpha, beta)
    total = 1
    for row in corr.cells:
        for cell in row:
            total *= len(cell)
            if total > cap:
                raise CapExceededError(
                    f"{total}+ forms for p={p}, alpha={alpha}, beta={beta} exceed cap={cap}"
                )
    rows = corr.rows
    cols = corr.cols
    flat_choices = [sorted(cell) for row in corr.cells for cell in row]
    forms = []
    for combo in product(*flat_choices):
        cells = tuple(
            tuple(combo[i * cols + j] for j in range(cols)) for i in range(rows)
        )
        forms.append(Form(candidates=p, cells=cells))
    return forms


def oracle_count_forms(p: int, alpha: int, beta: int, max_tie_cells: int = 20) -> int:
    """Exact number of forms derivable from the (p, alpha, beta) table.

    Each cell contributes a factor equal to its winner-set size, and
    distinct per-cell choices always produce distinct matrices, so the
    product is the exact count.  Raises `CapExceededError` when more
    than `max_tie_cells` cells are tied (the count itself would still be
    exact, but it grows out of any useful range).
    """
    corr = generate_correspondence(p, alpha, beta)
    total = 1
    ties = 0
    for row in corr.cells:
        for cell in row:
            if len(cell) > 1:
                ties += 1
                total *= len(cell)
    if ties > max_tie_cells:
        raise CapExceededError(
            f"{ties} tied cells exceed the counting guard of {max_tie_cells}"
        )
    return total


def _neighbor_pairs(xs: list[Strategy], p: int):
    """Pairs (x, x') with x = x' plus one card moved from b to a."""
    index = {x: None for x in xs}
    for x in xs:
        for a in range(p):
            if x[a] == 0:
                continue
            for b in range(p):
                if a == b:
                    continue
                moved = list(x)
                moved[a] -= 1
                moved[b] += 1
                xp = tuple(moved)
                if xp in index:
                    yield x, xp


def all_forms_rows_distinct_direct(
    p: int,
    alpha: int,
    beta: int,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> bool:
    """Direct check that every single-card-move pair has a differentiating column.

    Moving one card can only shrink the differentiating set, so this
    verdict equals that of the all-pairs scan `empty_differentiating_pairs`
    at a fraction of the cost.  `max_evals` bounds the number of cell
    evaluations (roughly pairs times columns); exceeding it raises
    `SizeGuardError`.
    """
    k = strategy_count(p, alpha)
    n_cols = strategy_count(p, beta)
    if k * p * p * n_cols > max_evals:
        raise SizeGuardError(
            f"direct check for p={p}, alpha={alpha}, beta={beta} needs about "
            f"{k * p * p * n_cols} evaluations, over the budget of {max_evals}"
        )
    table = winner_table(p, alpha, beta)
    xs = table.xs
    am_rows = dict(zip(xs, table.rows))
    return all(
        any(am.isdisjoint(am_p) for am, am_p in zip(am_rows[x], am_rows[xp]))
        for x, xp in _neighbor_pairs(xs, p)
    )


def neighbor_reduction_check(
    p: int,
    alpha: int,
    beta: int,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> bool:
    """Verify the card-move reduction on one parameter point.

    For every ordered pair of distinct row strategies (x, x') and every
    single-card move of x' toward x (one card from a candidate where x'
    exceeds x onto one where x exceeds x', both drawn from the argmax of
    the difference), the differentiating set may only shrink:
    D(x, moved) is contained in D(x, x').  For p >= 3 the check also
    confirms that a differentiating column y for a single-card-move pair
    forces the two winner sets to be exactly the singletons {a} and {b}
    of the moved card's endpoints.

    Returns True when no counterexample exists.
    """
    k = strategy_count(p, alpha)
    n_cols = strategy_count(p, beta)
    # Differentiating sets are memoized per ordered pair, so the work is
    # bounded by k^2 set computations of n_cols evaluations each.
    if k * k * n_cols > max_evals:
        raise SizeGuardError(
            f"reduction check for p={p}, alpha={alpha}, beta={beta} needs about "
            f"{k * k * n_cols} evaluations, over the budget of {max_evals}"
        )
    table = winner_table(p, alpha, beta)
    xs = table.xs
    am_rows = dict(zip(xs, table.rows))
    memo: dict[tuple[Strategy, Strategy], frozenset[int]] = {}

    def dset(x: Strategy, xp: Strategy) -> frozenset[int]:
        key = (x, xp)
        got = memo.get(key)
        if got is None:
            row, row_p = am_rows[x], am_rows[xp]
            got = frozenset(
                t for t, (am, am_p) in enumerate(zip(row, row_p)) if am.isdisjoint(am_p)
            )
            memo[key] = got
        return got

    for x in xs:
        for xp in xs:
            if x == xp:
                continue
            base = dset(x, xp)
            diff = [x[c] - xp[c] for c in range(p)]
            gains = argmax_set(tuple(diff))
            losses = argmax_set(tuple(-d for d in diff))
            for a in gains:
                for b in losses:
                    moved = list(xp)
                    moved[a] += 1
                    moved[b] -= 1
                    if not dset(x, tuple(moved)) <= base:
                        return False

    if p >= 3:
        for x, xp in _neighbor_pairs(xs, p):
            # x has one extra card on a and one fewer on b than xp.
            a = next(c for c in range(p) if x[c] > xp[c])
            b = next(c for c in range(p) if x[c] < xp[c])
            row, row_p = am_rows[x], am_rows[xp]
            for t in dset(x, xp):
                if row[t] != frozenset({a}) or row_p[t] != frozenset({b}):
                    return False
    return True


@dataclass(frozen=True)
class CountInterval:
    """Inclusive occurrence-count range with the row kind it identifies."""

    lo: int
    hi: int
    role: str

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi


def count_intervals(p: int) -> tuple[CountInterval, CountInterval, CountInterval]:
    """Occurrence-count intervals for two-card rows over p >= 3 candidates.

    In a row labeled with the doubled strategy on a, candidate a wins
    between (p*p - p + 2) / 2 and p*(p + 1) / 2 cells.  In a row labeled
    with a split strategy on {a, b}, each of a and b wins between p - 1
    and (p*p - 3*p + 6) / 2 cells, and every third candidate between 1
    and p - 2.
    """
    if p < 3:
        raise ParameterError(f"count intervals need p >= 3, got p={p}")
    return (
        CountInterval(1, p - 2, "other"),
        CountInterval(p - 1, (p * p - 3 * p + 6) // 2, "split-pair"),
        CountInterval((p * p - p + 2) // 2, p * (p + 1) // 2, "doubled"),
    )


def random_resolution(p: int, alpha: int, beta: int, rng) -> Form:
    """The (p, alpha, beta) correspondence with each tie broken by `rng`."""
    h = generate_correspondence(p, alpha, beta)
    cells = tuple(tuple(rng.choice(sorted(c)) for c in row) for row in h.cells)
    return Form(candidates=p, cells=cells)


def maximum_matching(adjacency: list[list[int]], n_right: int) -> list[int | None]:
    """Match left vertices to right ones, maximizing the matched count.

    Kuhn's per-vertex augmenting-path search, the reference for the
    class matcher `davote.matching.match_column_classes`.  Returns
    `match_left` with `match_left[i]` the right vertex matched to left
    vertex i, or None.  Runs in O(V * E).  Augmenting paths are searched
    depth first with an explicit stack, so path length is not bounded by
    the interpreter's recursion limit.
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
    its content, so columns with equal content share one list.  The
    reference for the fit masks of `davote.matching.match_column_classes`.
    """
    fits: dict[tuple, list[int]] = {col: [] for col in zip(*cells)}
    for t, ams in enumerate(zip(*rows)):
        for content, ts in fits.items():
            if all(v in am for v, am in zip(content, ams)):
                ts.append(t)
    return [fits[col] for col in zip(*cells)]


def count_perfect_matchings(adjacency: list[list[int]], n_right: int, cap: int = 1_000_000) -> int:
    """Number of perfect matchings, counted by backtracking up to `cap`.

    Intended for small instances only; left side is assigned in order of
    increasing degree (fail-first).
    """
    n_left = len(adjacency)
    if n_left != n_right:
        return 0
    order = sorted(range(n_left), key=lambda i: len(adjacency[i]))
    used = [False] * n_right
    count = 0

    def walk(pos: int) -> None:
        nonlocal count
        if count >= cap:
            return
        if pos == n_left:
            count += 1
            return
        i = order[pos]
        for j in adjacency[i]:
            if not used[j]:
                used[j] = True
                walk(pos + 1)
                used[j] = False
                if count >= cap:
                    return

    walk(0)
    return min(count, cap)


def equality_adjacency(cells, rows) -> list[list[int]]:
    """Per column j, the strategies t with ``rows[i][t] == cells[i][j]`` for every row i."""
    groups: dict[tuple, list[int]] = {}
    for t, col in enumerate(zip(*rows)):
        groups.setdefault(col, []).append(t)
    return [list(groups.get(col, [])) for col in zip(*cells)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_class_matching(cells, masks: list[tuple[int, ...]]) -> list[int | None]:
    """`davote.matching.match_column_classes` as it was before its per-column trims.

    Same contract and, by design, the same labels: a greedy fill over
    content classes, then breadth-first augmenting chains for each short
    class in order.  Tests compare the library's labels with these label
    for label.
    """
    classes: dict[tuple, list[int]] = {}
    for j, col in enumerate(zip(*cells)):
        classes.setdefault(col, []).append(j)
    fits = [-1] * len(classes)
    for m, line in zip(masks, zip(*classes)):
        fits = list(map(and_, fits, map(m.__getitem__, line)))
    sizes = [len(js) for js in classes.values()]

    held = [0] * len(fits)
    owner: dict[int, int] = {}
    free = -1
    for c, fit in enumerate(fits):
        for t in islice(_bits(fit & free), sizes[c]):
            held[c] |= 1 << t
            owner[t] = c
        free &= ~held[c]

    for c, size in enumerate(sizes):
        while held[c].bit_count() < size:
            via: dict[int, tuple[int | None, int]] = {c: (None, 0)}
            queue, seen = [c], held[c]
            for d in queue:
                reach = fits[d] & ~seen
                if reach & free:
                    break
                while reach:
                    bit = reach & -reach
                    e = owner[bit.bit_length() - 1]
                    via[e] = (d, bit)
                    queue.append(e)
                    seen |= held[e]
                    reach &= ~held[e]
            else:
                break
            gain = reach & free & -(reach & free)
            free ^= gain
            while d is not None:
                prev, lose = via[d]
                held[d] ^= gain | lose
                owner[gain.bit_length() - 1] = d
                d, gain = prev, lose
        if held[c].bit_count() < size:
            break

    labels: list[int | None] = [None] * len(cells[0])
    for js, mask in zip(classes.values(), held):
        for j, t in zip(js, _bits(mask)):
            labels[j] = t
    return labels


# Two voters, three cards each.  Rows and columns both follow the
# reverse-lexicographic strategy order (3,0), (2,1), (1,2), (0,3); the
# anti-diagonal carries the ties.
CORR_2_3_3_ROWS = (
    ({A}, {A}, {A}, {A, B}),
    ({A}, {A}, {A, B}, {B}),
    ({A}, {A, B}, {B}, {B}),
    ({A, B}, {B}, {B}, {B}),
)

# Two tie resolutions of the matrix above.  The first resolves the
# anti-diagonal to a, b, b, b and keeps all rows distinct; the second
# resolves it to b, b, a, a, making rows 1 and 2 coincide.
FORM_2_3_3_DISTINCT_ROWS = (
    (A, A, A, A),
    (A, A, B, B),
    (A, B, B, B),
    (B, B, B, B),
)
FORM_2_3_3_REPEATED_ROWS = (
    (A, A, A, B),
    (A, A, B, B),
    (A, A, B, B),
    (A, B, B, B),
)

# Square single-card forms that are not distributed approval, each
# embedding exactly one of the three forbidden patterns.
BAD_M1_ROWS = (
    (A, B, B),
    (C, A, B),
    (C, C, A),
)
BAD_M2_ROWS = (
    (A, A, A),
    (A, A, B),
    (A, A, C),
)
BAD_M3_ROWS = (
    (A, A, B, B),
    (A, C, C, B),
    (A, C, D, B),
    (A, D, D, B),
)


@pytest.fixture
def corr_2_3_3() -> Correspondence:
    return corr(2, CORR_2_3_3_ROWS)


@pytest.fixture
def form_distinct_rows() -> Form:
    return form(2, FORM_2_3_3_DISTINCT_ROWS)


@pytest.fixture
def form_repeated_rows() -> Form:
    return form(2, FORM_2_3_3_REPEATED_ROWS)


@pytest.fixture
def bad_m1() -> Form:
    return form(3, BAD_M1_ROWS)


@pytest.fixture
def bad_m2() -> Form:
    return form(3, BAD_M2_ROWS)


@pytest.fixture
def bad_m3() -> Form:
    return form(4, BAD_M3_ROWS)

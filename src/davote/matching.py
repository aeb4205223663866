"""Row and column labeling and the accept step shared by the recognizers.

Form rows are labeled by backtracking over the all-different constraint
that their winner-count fits define (Régin, AAAI 1994); a row's fit is
one AND of p masks from `core.WinnerTable.count_fits`.  A
correspondence column is labeled by looking up its content.  Form
columns are matched to strategies as content classes: columns with
equal content fit the same strategies, so each class is one vertex with
a multiplicity, and the fit of a class is one bitmask (bit t set when
strategy t fits): the AND over the rows of the per-candidate
`core.WinnerTable.masks`.  Labeling the columns is then a b-matching of
classes to strategies: a greedy fill, then shortest augmenting chains
found breadth first, as in Hopcroft & Karp (SIAM J. Comput. 2(4),
1973), one chain at a time for the classes left short.  Classes are
taken in order of their first column and strategies in increasing
index, so results are deterministic for a fixed input.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import accumulate
from operator import and_, contains, eq, getitem, itemgetter, or_

from .core import CandidateSet, Correspondence, Form, Labeling, WinnerTable, _shared_cells
from .results import ACCEPTED, REJECTED, UNDECIDED, RecognitionResult

__all__ = [
    "match_column_classes",
    "lookup_columns",
    "accept_row_labels",
    "accept_counted_rows",
]

_ROW_NODES = 10_000  # labels the row search may try on one form


def _bits(mask: int):
    """Indices of the set bits of `mask`, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def match_column_classes(cells, masks: list[tuple[int, ...]]) -> list[int | None]:
    """Label form columns with distinct strategies that reproduce them.

    `masks[i][v]` has bit t set when candidate v is in the winner set of
    row i's label plus the t-th column strategy (`WinnerTable.masks`
    keeps these per table row).  Strategy t fits column j when bit t is
    set in ``masks[i][cells[i][j]]`` for every row i.  Each class first
    takes the lowest free strategies of its fit, as many as it has
    columns; a class left short then grows along shortest chains of
    classes, each taking a strategy the next one gives up, the last one
    a free strategy.  The first class that cannot grow ends the search:
    no later augmentation could fill it.  Inside a class, strategies go
    in increasing order to its columns in index order.

    Returns each column's strategy index, or None for columns left
    unlabeled, which happens exactly when no perfect matching exists.
    """
    classes: dict[tuple, list[int]] = {}
    for j, col in enumerate(zip(*cells)):
        classes.setdefault(col, []).append(j)
    fits = [-1] * len(classes)
    # Row by row, every class keeps the strategies whose bit its cell has.
    for m, line in zip(masks, zip(*classes)):
        fits = list(map(and_, fits, map(m.__getitem__, line)))
    sizes = [len(js) for js in classes.values()]

    held: list[int] = []
    short: list[int] = []  # the classes the greedy fill leaves short
    free = -1  # every strategy; only bits of some fit are ever taken
    for c, (fit, size) in enumerate(zip(fits, sizes)):
        take = fit & free
        extra = take.bit_count() - size
        if extra < 0:
            short.append(c)
        for _ in range(extra):  # keep the lowest `size` strategies
            take ^= 1 << (take.bit_length() - 1)
        held.append(take)
        free &= ~take

    # Only augmenting reads who holds a strategy.  A chain leaves every
    # class but its first as full as before, so only short classes grow.
    owner = {t: c for c, h in enumerate(held) for t in _bits(h)} if short else {}
    for c in short:
        size = sizes[c]
        while held[c].bit_count() < size:
            # Breadth first over classes; via[e] = (d, bit) when class e
            # was reached from d and would hand strategy `bit` to it.
            # `seen` holds the strategies of every class reached so far.
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
        if len(js) > 1:
            for j, t in zip(js, _bits(mask)):
                labels[j] = t
        elif mask:  # a one-column class holds one strategy or none
            labels[js[0]] = mask.bit_length() - 1
    return labels


def lookup_columns(cells, rows: list[tuple[CandidateSet, ...]]) -> list[int | None]:
    """Label correspondence columns by their content.

    Each column takes the last unused strategy that generates exactly
    that column under the fixed rows, or None when none is left.  When
    every column gets one, popping from the end gives what
    augmenting-path matching returns on these disjoint groups.  Columns
    of shared sets (`core._shared_cells`) find their group by identity.
    """
    groups: dict[tuple, list[int]] = {}
    for t, col in enumerate(zip(*rows)):
        groups.setdefault(col, []).append(t)
    return [g.pop() if (g := groups.get(col)) else None for col in zip(*cells)]


def accept_row_labels(
    t: Correspondence | Form,
    method: str,
    table: WinnerTable,
    assignment: list[int],
) -> RecognitionResult:
    """Finish a recognition whose rows are labeled by strategy index.

    `table` is the (p, alpha, beta) `WinnerTable` and `assignment[i]` the
    index of row i's strategy in it.  The rows must use distinct
    strategies, the columns must be labeled (by content lookup for a
    correspondence, by a perfect class matching for a form), and the
    labeling must regenerate `t`: every cell (i, j) must equal (for a
    correspondence) or lie in (for a form) the table's winner set of
    row i's strategy and column j's strategy, read from the table
    instead of recomputed.
    Correspondence cells are first mapped to the table's shared sets,
    so the column lookup and the row comparisons hit identity.
    """
    xs, ys, rows = table.xs, table.ys, table.rows
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
    is_corr = isinstance(t, Correspondence)
    if is_corr:
        cells = _shared_cells(t.cells)
        match = lookup_columns(cells, labeled)
    else:
        masks = table.masks
        match = match_column_classes(t.cells, [masks[xi] for xi in assignment])
    if any(m is None for m in match):
        return RecognitionResult(
            REJECTED, method, witness="no perfect matching labels the columns"
        )
    if is_corr:
        # p >= 3 gives at least three columns, so itemgetter returns tuples.
        fits = all(map(eq, map(itemgetter(*match), labeled), cells))
    else:
        # contains(winners, cell) is ``cell in winners``.
        fits = all(all(map(contains, map(row.__getitem__, match), line))
                   for line, row in zip(t.cells, labeled))
    if not fits:
        return RecognitionResult(
            REJECTED, method, witness="labeling fails to regenerate the input"
        )
    labeling = Labeling(tuple(xs[xi] for xi in assignment), tuple(ys[m] for m in match))
    return RecognitionResult(ACCEPTED, method, labeling=labeling)


def accept_counted_rows(g: Form, method: str, table: WinnerTable) -> RecognitionResult:
    """Label the rows of form `g` by winner counts, then `accept_row_labels`.

    A class of equal rows fits strategy x when its per-candidate counts
    lie within x's `core._count_bounds`: its fit is the AND of the p
    `WinnerTable.count_fits` masks its counts index, so finding it costs
    p lookups, not a test of every strategy.  A class fitting none rejects.
    If every class fits one strategy (always, where every form has
    distinct rows), its rows take it.  Otherwise a depth-first search
    with an explicit stack gives the rows distinct fitting strategies,
    fewest fits first, identical rows in increasing order, and returns
    the first accepted leaf; it rejects when exhausted and is undecided
    after `_ROW_NODES` labels.
    """
    p = g.candidates
    index = table.count_fits
    classes: dict[tuple, list[int]] = {}
    for i, line in enumerate(g.cells):
        classes.setdefault(tuple(line), []).append(i)
    fits = []
    for line, members in classes.items():
        counts = list(map(line.count, range(p)))
        try:
            fit = reduce(and_, map(getitem, index, counts))
        except IndexError:  # a count above len(ys), which no bounds hold
            fit = 0
        if not fit:
            return RecognitionResult(
                REJECTED,
                method,
                witness=f"row {members[0]} winner counts {counts} fit the bounds "
                "of 0 strategies instead of exactly one",
            )
        fits.append(fit)
    order = sorted(zip(fits, classes.values()), key=lambda c: c[0].bit_count())
    # A slot: its class's fit, the class, the row and how many identical
    # rows follow it in the class.
    slots = [(fit, c, i, len(members) - 1 - q)
             for c, (fit, members) in enumerate(order) for q, i in enumerate(members)]
    row_slot = sorted(range(len(slots)), key=lambda k: slots[k][2])

    def accept(bits: list[int]) -> RecognitionResult:
        assignment = [bits[k].bit_length() - 1 for k in row_slot]
        return accept_row_labels(g, method, table, assignment)

    if all(fit & (fit - 1) == 0 for fit in fits):
        return accept([s[0] for s in slots])
    n = len(slots)
    # rest[k]: every strategy that some row of slot k or later fits.
    rest = list(accumulate((s[0] for s in reversed(slots)), or_))[::-1] + [0]
    labels: list[int] = []  # the strategy bit of each filled slot
    stack = [slots[0][0]]  # the untried strategy bits of each open slot
    used = nodes = 0
    while stack and nodes < _ROW_NODES:
        if len(labels) == len(stack):
            used ^= labels.pop()
        opts = stack.pop()
        if opts:
            bit = opts & -opts
            stack.append(opts ^ bit)
            labels.append(bit)
            used |= bit
            nodes += 1
            k = len(labels)
            if k == n:
                res = accept(labels)
                if res.verdict == ACCEPTED:
                    return res
            elif (rest[k] & ~used).bit_count() >= n - k:
                fit, c, _, after = slots[k]
                # Identical rows take increasing strategies, so a slot needs
                # more options than identical rows follow it.
                opts = fit & ~used & (-(bit << 1) if c == slots[k - 1][1] else -1)
                if opts.bit_count() > after:
                    stack.append(opts)
    if stack:
        witness = f"row search stopped at its budget of {_ROW_NODES} nodes"
        return RecognitionResult(UNDECIDED, method, witness=witness)
    witness = f"no row labeling the bounds allow regenerates the input ({nodes} search nodes)"
    return RecognitionResult(REJECTED, method, witness=witness)

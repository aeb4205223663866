"""Recognition of single-card (plurality) voting forms.

With both voters holding one card, strategies are unit vectors, the
tableau is p x p, and a form is a distributed approval form exactly
when rows and columns can be labeled with two permutations of the
candidates such that every cell equals its row label or its column
label (and equals both where the labels coincide).

Equivalently, the form is valid iff it embeds none of three forbidden
patterns, taken up to row and column permutations:

* m1: a 2x2 submatrix with one diagonal equal to some candidate a and
  both remaining entries different from a;
* m2: a 2x2 submatrix with all four entries equal;
* m3: four cells in one line (row or column) covering two candidates
  twice each.

In a valid form a row repeats at most its own label, and every row
repeating nothing equals the column labels.  That fixes the only row
labeling worth trying, which the accept step shared with the other
routes, `matching.accept_row_labels`, checks over the ``(p, 1, 1)``
winner table.  Every rejection is explained by a forbidden pattern.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .core import Candidate, Form, _FrozenRecord, winner_table
from .matching import accept_row_labels
from .results import ACCEPTED, REJECTED, RecognitionResult

__all__ = [
    "ForbiddenWitness",
    "find_forbidden_submatrix",
    "recognize_plurality_form",
]


class ForbiddenWitness(_FrozenRecord):
    """Concrete embedding of one forbidden pattern.

    Reading the input at `rows` x `cols`, in the order given, reproduces
    the pattern: m2 and m1 use two rows and two columns (m1 rows may be
    listed high-before-low when the equal pair sits on the anti
    diagonal); m3 uses a single row with four columns or a single column
    with four rows.  `symbols` maps the pattern's placeholder letters to
    the candidates playing them.  `pattern` is "m1", "m2" or "m3",
    `rows` and `cols` are int tuples and `symbols` a dict.
    """

    _fields = ("pattern", "rows", "cols", "symbols")

    def describe(self, names: list[str] | None = None) -> str:
        def nm(c: Candidate) -> str:
            return names[c] if names else str(c)

        syms = ", ".join(f"{k}={nm(v)}" for k, v in sorted(self.symbols.items()))
        return f"{self.pattern} at rows {self.rows}, cols {self.cols} with {syms}"


def _find_m2(cells) -> ForbiddenWitness | None:
    n_rows, n_cols = len(cells), len(cells[0])
    for i1 in range(n_rows):
        for i2 in range(i1 + 1, n_rows):
            shared: dict[Candidate, list[int]] = {}
            for j in range(n_cols):
                if cells[i1][j] == cells[i2][j]:
                    shared.setdefault(cells[i1][j], []).append(j)
            best = None
            for v, js in shared.items():
                if len(js) >= 2 and (best is None or (js[0], js[1]) < best[:2]):
                    best = (js[0], js[1], v)
            if best is not None:
                j1, j2, v = best
                return ForbiddenWitness("m2", (i1, i2), (j1, j2), {"a": v})
    return None


def _find_m1(cells) -> ForbiddenWitness | None:
    n_rows, n_cols = len(cells), len(cells[0])
    for i1 in range(n_rows):
        for i2 in range(i1 + 1, n_rows):
            r1, r2 = cells[i1], cells[i2]
            for j1 in range(n_cols):
                for j2 in range(j1 + 1, n_cols):
                    v = r1[j1]
                    if r2[j2] == v and r1[j2] != v and r2[j1] != v:
                        return ForbiddenWitness(
                            "m1", (i1, i2), (j1, j2),
                            {"a": v, "b": r1[j2], "c": r2[j1]},
                        )
                    v = r1[j2]
                    if r2[j1] == v and r1[j1] != v and r2[j2] != v:
                        # Equal pair on the anti diagonal; listing the
                        # high row first makes the read match m1.
                        return ForbiddenWitness(
                            "m1", (i2, i1), (j1, j2),
                            {"a": v, "b": r2[j2], "c": r1[j1]},
                        )
    return None


def _m3_in_line(line) -> tuple[tuple[int, ...], Candidate, Candidate] | None:
    positions: dict[Candidate, list[int]] = {}
    for t, v in enumerate(line):
        positions.setdefault(v, []).append(t)
    doubled = [v for v, ts in positions.items() if len(ts) >= 2]
    if len(doubled) < 2:
        return None
    best = None
    for u, v in combinations(doubled, 2):
        tu, tv = positions[u][:2], positions[v][:2]
        if tu[0] > tv[0]:
            u, v, tu, tv = v, u, tv, tu
        key = sorted(tu + tv)
        if best is None or key < best[0]:
            best = (key, tuple(tu + tv), u, v)
    return best[1], best[2], best[3]


def _find_m3(cells) -> ForbiddenWitness | None:
    n_rows, n_cols = len(cells), len(cells[0])
    for i in range(n_rows):
        hit = _m3_in_line(cells[i])
        if hit:
            ts, u, v = hit
            return ForbiddenWitness("m3", (i,), ts, {"a": u, "b": v})
    for j in range(n_cols):
        hit = _m3_in_line([cells[i][j] for i in range(n_rows)])
        if hit:
            ts, u, v = hit
            return ForbiddenWitness("m3", ts, (j,), {"a": u, "b": v})
    return None


def find_forbidden_submatrix(g: Form) -> ForbiddenWitness | None:
    """First forbidden pattern embedded in `g`, or None.

    Patterns are tried in the order m2, m1, m3; within one pattern the
    witness is the lexicographically least embedding (row indices, then
    column indices, equal-diagonal orientation first).
    """
    return _find_m2(g.cells) or _find_m1(g.cells) or _find_m3(g.cells)


def recognize_plurality_form(g: Form) -> RecognitionResult:
    """Decide whether a p x p single-card form is distributed approval.

    A row repeating one candidate is labeled with it (strategy v of the
    table is candidate v), and the rows repeating nothing, when they are
    all identical, with the unused candidates in index order; that
    labeling goes to the shared accept step.  Any other form, and a
    labeling the accept step rejects, is rejected with a forbidden
    pattern as witness.
    """
    p = g.candidates
    if g.rows != g.cols or g.rows != p:
        return RecognitionResult(
            REJECTED,
            "plurality",
            witness=f"single-card tableau must be {p} x {p}, got {g.rows} x {g.cols}",
        )
    repeats = [[v for v, n in Counter(line).items() if n > 1] for line in g.cells]
    plain = {tuple(line) for line, rep in zip(g.cells, repeats) if not rep}
    if len(plain) <= 1 and all(len(rep) <= 1 for rep in repeats):
        spare = iter(sorted(set(range(p)).difference(*repeats)))
        assignment = [rep[0] if rep else next(spare) for rep in repeats]
        res = accept_row_labels(g, "plurality", winner_table(p, 1, 1), assignment)
        if res.verdict == ACCEPTED:
            return res
    return RecognitionResult(REJECTED, "plurality", witness=find_forbidden_submatrix(g))

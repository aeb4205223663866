"""Two-candidate elections with any number of voters.

Over two candidates a strategy is just the number of cards put on the
first candidate, and the outcome only depends on the card total, so
tableaux of any number of voters can be generated and recognized plane
by plane.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .core import (
    _SETS,
    CandidateSet,
    Correspondence,
    Form,
    ParameterError,
    PlaneLabeling,
    TIE_RULES,
    _check_cells,
    _check_params,
    _FrozenRecord,
    _validate_grid,
)
from .results import ACCEPTED, REJECTED, RecognitionResult

__all__ = [
    "NTableau",
    "generate_n_tableau",
    "plane_signature",
    "recognize_n_tableau",
    "permute_axes",
    "n_tableau_as_grid",
]


A, B = 0, 1
# The shared winner sets: candidate 0 alone, candidate 1 alone, both.
_WIN_A, _WIN_B, _TIE = _SETS[1 << A], _SETS[1 << B], _SETS[1 << A | 1 << B]
# The winners of a cell, correspondence or form, as a shared tuple.
_WINNERS = {_WIN_A: (A,), _WIN_B: (B,), _TIE: (A, B), A: (A,), B: (B,)}


class NTableau(_FrozenRecord):
    """Joint outcome table for n voters over two candidates.

    `cells` is flat in row-major order over the index space
    ``product(range(w + 1) for w in weights)``; axis i belongs to voter
    i.  `weights` is a tuple of ints, `kind` "correspondence" or "form",
    and `cells` a tuple: of winner sets or of single winners.
    """

    _fields = ("weights", "kind", "cells")

    def _check(self, weights, kind, cells) -> None:
        if kind not in ("correspondence", "form"):
            raise ParameterError(f"unknown tableau kind {kind!r}")
        if not weights:
            raise ParameterError("need at least one voter")
        if any(type(w) is not int or w < 1 for w in weights):
            raise ParameterError("voter weights must be ints >= 1")
        expected = prod(w + 1 for w in weights)
        if len(cells) != expected:
            raise ParameterError(
                f"expected {expected} cells for weights {weights}, got {len(cells)}"
            )
        _validate_grid((cells,), 2, kind)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w + 1 for w in self.weights)

    def flat_index(self, z: tuple[int, ...]) -> int:
        idx = 0
        for t, d in zip(z, self.dims):
            idx = idx * d + t
        return idx

    def cell(self, z: tuple[int, ...]):
        return self.cells[self.flat_index(z)]


def _threshold_cells(sigma: int) -> list[CandidateSet]:
    """Per card total 0..sigma on candidate 0, the shared winner set."""
    return [
        _WIN_A if 2 * total > sigma else _TIE if 2 * total == sigma else _WIN_B
        for total in range(sigma + 1)
    ]


def _flat_sums(lines) -> list[int]:
    """Per cell in row-major order, the sum over axes i of ``lines[i][z_i]``."""
    sums = [0]
    for line in lines:
        sums = [s + v for s in sums for v in line]
    return sums


def generate_n_tableau(
    weights: tuple[int, ...] | list[int],
    kind: str = "correspondence",
    tie_rule: str = "min-index",
) -> NTableau:
    """Outcome table for n voters with the given weights.

    Cell winners follow the card total on candidate 0: strictly above
    half the combined weight candidate 0 wins alone, strictly below it
    candidate 1, and exactly at half both tie.  For forms the tie cells
    are resolved by `tie_rule`.
    """
    if tie_rule not in TIE_RULES:
        raise ParameterError(f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}")
    weights = tuple(weights)
    _check_params(2, *weights)
    _check_cells(prod(w + 1 for w in weights), f"the tableau for weights {weights}")
    by_total = _threshold_cells(sum(weights))
    if kind != "correspondence":
        pick = min if tie_rule == "min-index" else max
        by_total = list(map(pick, by_total))
    totals = _flat_sums(range(w + 1) for w in weights)
    return NTableau(weights=weights, kind=kind, cells=tuple(map(by_total.__getitem__, totals)))


def plane_signature(f: NTableau) -> tuple[tuple[tuple[int, int], ...], ...]:
    """How often each candidate wins in every plane, in one pass over the cells.

    Entry ``[axis][z]`` is the pair (wins of candidate 0, wins of
    candidate 1) in the plane fixing `axis` at `z`.
    """
    counts = [[[0, 0] for _ in range(d)] for d in f.dims]
    for z, winners in zip(product(*map(range, f.dims)), map(_WINNERS.__getitem__, f.cells)):
        for planes, t in zip(counts, z):
            for c in winners:
                planes[t][c] += 1
    return tuple(tuple(tuple(pair) for pair in planes) for planes in counts)


def recognize_n_tableau(f: NTableau) -> RecognitionResult:
    """Decide whether an n-voter two-candidate tableau is distributed approval.

    Along each axis, adding cards to candidate 0 grows its winner count
    within the voter's plane and shrinks candidate 1's, so sorting each
    axis's planes by (wins of 0 ascending, wins of 1 descending)
    recovers a viable labeling: planes tied on both counts carry
    identical cells and are interchangeable.  The tableau is accepted
    iff every cell then matches the half-total threshold rule.
    """
    method = "two-candidate"
    by_total = _threshold_cells(sum(f.weights))
    labels: list[tuple[int, ...]] = []
    for planes in plane_signature(f):
        order = sorted(range(len(planes)), key=lambda z: (planes[z][A], -planes[z][B], z))
        axis_label = [0] * len(planes)
        for rank, plane in enumerate(order):
            axis_label[plane] = rank
        labels.append(tuple(axis_label))

    is_corr = f.kind == "correspondence"
    for z, parts, cell in zip(product(*map(range, f.dims)), product(*labels), f.cells):
        total = sum(parts)
        am = by_total[total]
        if (cell != am) if is_corr else (cell not in am):
            return RecognitionResult(
                REJECTED,
                method,
                witness=f"cell at index {z} (card total {total}) violates "
                f"the threshold rule",
            )
    return RecognitionResult(
        ACCEPTED, method, labeling=PlaneLabeling(tuple(labels))
    )


def permute_axes(f: NTableau, perms: list[list[int]] | tuple) -> NTableau:
    """Rearranged copy with `perms[i][t]` the source plane at position t."""
    if len(perms) != len(f.weights):
        raise ParameterError("need one permutation per axis")
    for perm, d in zip(perms, f.dims):
        if sorted(perm) != list(range(d)):
            raise ParameterError(f"{perm!r} does not permute 0..{d - 1}")
    # Axis i's source planes, scaled by its row-major stride.
    lines, stride = [], 1
    for perm, d in zip(reversed(perms), reversed(f.dims)):
        lines.append([src * stride for src in perm])
        stride *= d
    src = _flat_sums(reversed(lines))
    return NTableau(weights=f.weights, kind=f.kind, cells=tuple(map(f.cells.__getitem__, src)))


def n_tableau_as_grid(f: NTableau):
    """The two-voter equivalent 2-D tableau (rows are axis-0 planes)."""
    if len(f.weights) != 2:
        raise ParameterError("only 2-voter tableaux convert to a grid")
    rows, cols = f.dims
    cells = tuple(
        tuple(f.cell((i, j)) for j in range(cols)) for i in range(rows)
    )
    grid = Correspondence if f.kind == "correspondence" else Form
    return grid(candidates=2, cells=cells)

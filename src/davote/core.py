"""Core types and generators for distributed approval voting tableaux.

In a distributed approval election a voter holds a fixed number of
identical cards (the voter's weight) and distributes all of them among
the candidates.  With two voters of weights ``alpha`` and ``beta`` the
joint outcome table is a matrix indexed by the two voters' strategies:
each cell holds the set of candidates with the maximum combined card
count.  Keeping the full set in every cell gives a *correspondence*;
picking a single winner out of every cell gives a *form*.

Candidates are the integers ``0..p-1``.  A strategy is a tuple of ``p``
non-negative card counts summing to the voter's weight.  Strategies are
enumerated in reverse-lexicographic order, so ``(w, 0, ..., 0)`` comes
first and ``(0, ..., 0, w)`` last, and row/column positions of generated
tableaux follow that order.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from collections.abc import Callable, Mapping
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import add, eq, is_, itemgetter, xor
from types import MappingProxyType

__all__ = [
    "Candidate",
    "Strategy",
    "CandidateSet",
    "Signature",
    "Correspondence",
    "Form",
    "Labeling",
    "PlaneLabeling",
    "ParameterError",
    "NoParametersError",
    "CellTypeError",
    "SizeGuardError",
    "TIE_RULES",
    "enumerate_strategies",
    "strategy_count",
    "winner_row",
    "WinnerTable",
    "winner_table",
    "generate_correspondence",
    "generate_form",
    "infer_parameters",
    "permute_tableau",
    "transpose_tableau",
    "default_names",
]

Candidate = int
Strategy = tuple[int, ...]
CandidateSet = frozenset[int]
Signature = tuple[int, ...]

TIE_RULES = ("min-index", "max-index")

_MAX_CELLS = 10**7  # largest table a generator builds, checked up front
_TABLE_CACHE = 16  # tables kept per process, least recently used dropped first


class ParameterError(ValueError):
    """Raised for voting parameters outside the valid domain."""


class NoParametersError(ParameterError):
    """Raised when no (alpha, beta) reproduce the given matrix shape.

    For recognition purposes this signals that the input cannot be a
    distributed approval tableau of any weight pair.
    """


class CellTypeError(ParameterError, TypeError):
    """Raised for a grid, cell, count or weight of the wrong type; also a `TypeError`."""


class SizeGuardError(RuntimeError):
    """Raised when an exhaustive computation would exceed its size budget."""


def _check_params(p: int, *weights: int) -> None:
    if type(p) is not int:
        raise CellTypeError(f"candidate count {p!r} is not an int")
    if p < 2:
        raise ParameterError(f"need at least 2 candidates, got p={p}")
    for w in weights:
        if type(w) is not int:
            raise CellTypeError(f"voter weight {w!r} is not an int")
        if w < 1:
            raise ParameterError(f"voter weight must be >= 1, got {w}")


def _check_cells(cells: int, what: str) -> None:
    if cells > _MAX_CELLS:
        raise ParameterError(
            f"{what} would have {cells} cells, over the limit of {_MAX_CELLS}"
        )


def strategy_count(p: int, weight: int) -> int:
    """Number of ways to distribute `weight` cards among `p` candidates."""
    _check_params(p, weight)
    return math.comb(weight + p - 1, p - 1)


def enumerate_strategies(p: int, weight: int) -> list[Strategy]:
    """All distributions of `weight` cards among `p` candidates.

    Returned in reverse-lexicographic order: ``(weight, 0, ..., 0)``
    first, ``(0, ..., 0, weight)`` last.  The list has
    ``C(weight + p - 1, p - 1)`` entries.
    """
    _check_params(p, weight)
    out: list[Strategy] = []
    x = [weight] + [0] * (p - 1)
    while True:
        out.append(tuple(x))
        # The next smaller vector moves one card from the last nonzero
        # entry before the end, together with every card behind it, to
        # the entry just after it.
        i = p - 2
        while i >= 0 and x[i] == 0:
            i -= 1
        if i < 0:
            return out
        tail = x[-1]
        x[-1] = 0
        x[i] -= 1
        x[i + 1] = tail + 1


class _Memo(dict):
    """Key -> ``make(key)``, made on the key's first lookup and kept."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# Winner-set code -> the one shared set of the candidates whose bits it
# sets.  Only the codes that occur get a set.
_SETS = _Memo(lambda code: frozenset(c for c in range(code.bit_length()) if code >> c & 1))


def _shared_cells(cells) -> tuple[tuple[CandidateSet, ...], ...]:
    """Correspondence `cells` as tuple rows of the `_SETS` objects equal to them.

    Each distinct set is looked up once.  A set with no shared object
    keeps its own: no table holds it, so it equals no table cell, and
    input never adds to `_SETS`.  Shared cells compare with table rows
    by identity instead of by content.
    """
    share = _Memo(lambda s: _SETS.get(sum(1 << c for c in s), s)).__getitem__
    if all(map(is_, chain.from_iterable(cells), map(share, chain.from_iterable(cells)))):
        # tuple() of a tuple row is that row, so tuple rows are not copied.
        return tuple(map(tuple, cells))
    return tuple([tuple(map(share, row)) for row in cells])


def winner_row(x: Strategy, ys) -> tuple[CandidateSet, ...]:
    """Winner sets of x + y for each opponent strategy y in `ys`, in order.

    Equal sets are one shared object, across rows and tables alike.
    """
    return _winner_row(x, list(zip(*ys)))


def _winner_row(x: Strategy, cols: list[tuple[int, ...]]) -> tuple[CandidateSet, ...]:
    """`winner_row` over the opponents' card counts, one tuple per candidate."""
    if not cols:
        return ()
    # One card-sum line per candidate, the top sum per cell, then bit c
    # of a cell's code set where candidate c holds it.
    sums = [list(map(xc.__add__, col)) for xc, col in zip(x, cols)]
    top = list(map(max, *sums)) if len(sums) > 1 else sums[0]
    codes = map(eq, sums[0], top)
    for c in range(1, len(sums)):
        codes = map(add, codes, map((1 << c).__mul__, map(eq, sums[c], top)))
    return tuple(map(_SETS.__getitem__, codes))


def _count_bounds(row: tuple[CandidateSet, ...], p: int) -> tuple[Signature, Signature]:
    """Per-candidate winner-count bounds of a form row over a correspondence row.

    Candidate a must win at least the cells whose winner set is {a} and
    at most the cells whose winner set holds a.
    """
    lo, hi = [0] * p, [0] * p
    for am, n in Counter(row).items():
        for a in am:
            hi[a] += n
        if len(am) == 1:
            lo[a] += n
    return tuple(lo), tuple(hi)


def _candidate_masks(row: tuple[CandidateSet, ...], p: int) -> tuple[int, ...]:
    """Per candidate v, the bitmask of the strategies t with ``v in row[t]``."""
    # One "0" or "1" per strategy, highest t first.
    rev = row[::-1]
    return tuple(int("".join(["1" if v in am else "0" for am in rev]), 2) for v in range(p))


class _Record:
    """Construction, equality and repr over the fields named in `_fields`.

    Arguments bind to `_fields` as in a signature, a field left out
    takes its `_defaults` value, and the fields are stored once the
    `_check` hook accepts them.  A record equals only a record of the
    same class with equal fields.  It is unhashable, since its fields
    may be reassigned; its repr reads ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = MappingProxyType({})

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields, got {len(args)}")
        for key in kwargs:
            if key not in cls._fields[len(args):]:
                raise TypeError(f"{cls.__name__}() got an unknown or repeated field {key!r}")
        fields = {**cls._defaults, **dict(zip(cls._fields, args)), **kwargs}
        if len(fields) < len(cls._fields):
            missing = [key for key in cls._fields if key not in fields]
            raise TypeError(f"{cls.__name__}() is missing field {missing[0]!r}")
        self._check(**fields)
        self.__dict__.update(fields)

    def _check(self, **fields) -> None:
        """Raise if `fields` make no valid record; every record is valid by default."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A `_Record` that hashes its fields and refuses every later assignment.

    The constructor stores the fields into ``self.__dict__``; setting or
    deleting any attribute afterwards raises
    `dataclasses.FrozenInstanceError`.  A `cached_property` still works,
    since it writes the instance dict directly.
    """

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _refuse(f"cannot delete field {name!r}")


def _refuse(message: str):
    # Imported here: `dataclasses` pulls in `inspect`, too slow for start-up.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class WinnerTable(_FrozenRecord):
    """Row strategies, column strategies and the winner set of every pair.

    `rows[i][j]` is the winner set of ``xs[i] + ys[j]``, the cell (i, j)
    of the generated correspondence over `p` candidates.  Equal sets are
    one shared object, so the table holds at most ``2**p - 1`` distinct
    sets.  Every part is a tuple, so a shared table cannot be changed by
    a caller.

    `count_fits`, `masks` and `signature_codes` hold what the p >= 3
    recognizers read off the rows.  Each is built on its first read and
    then kept with the table, so a route pays only for the parts it
    reads.
    """

    _fields = ("p", "xs", "ys", "rows")

    @classmethod
    def build(cls, p: int, alpha: int, beta: int) -> WinnerTable:
        """A fresh (p, alpha, beta) table, outside the `winner_table` cache."""
        xs = tuple(enumerate_strategies(p, alpha))
        ys = tuple(enumerate_strategies(p, beta))
        cols = list(zip(*ys))
        return cls(p, xs, ys, tuple([_winner_row(x, cols) for x in xs]))

    @cached_property
    def count_fits(self) -> tuple[tuple[int, ...], ...]:
        """Per candidate a and count n in ``0..len(ys)``, the rows whose bounds hold n.

        Bit xi of ``count_fits[a][n]`` is set when ``lo[a] <= n <= hi[a]``
        for ``(lo, hi) = _count_bounds(rows[xi], p)``.  The rows whose
        bounds hold the counts ``(n_0, ..., n_{p-1})`` are thus the AND of
        the p masks ``count_fits[a][n_a]``.
        """
        p, m = self.p, len(self.ys)
        lines = [[0] * (m + 2) for _ in range(p)]
        # Flip each row's bit at both ends of its bounds; the prefix XOR
        # then holds it on exactly the counts in between.
        for xi, row in enumerate(self.rows):
            bit = 1 << xi
            lo, hi = _count_bounds(row, p)
            for line, l, h in zip(lines, lo, hi):
                line[l] ^= bit
                line[h + 1] ^= bit
        lines = [list(accumulate(line, xor)) for line in lines]
        return tuple(tuple(line[: m + 1]) for line in lines)

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """Per row, its `_candidate_masks`."""
        return tuple(_candidate_masks(row, self.p) for row in self.rows)

    def signature_coder(self) -> Callable[[tuple[CandidateSet, ...]], int]:
        """A new function from a row of sets to its signature as one integer.

        The integer is the sum over the row's cells of a per-set weight,
        ``sum(base**a for a in cell)`` with ``base = len(ys) + 1``, so
        signature ``(n_0, ..., n_{p-1})`` reads ``sum(n_a * base**a)``.
        No count exceeds ``len(ys)``, so distinct signatures get distinct
        integers.  Each function keeps its own weights, made on a set's
        first lookup and keyed by the caller's set objects, so the
        caller's repeated sets hit by identity.
        """
        base = len(self.ys) + 1
        weight = _Memo(lambda s: sum(base**a for a in s)).__getitem__
        return lambda row: sum(map(weight, row))

    @cached_property
    def signature_codes(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only map from a `signature_coder` code to the indexes of the rows with it."""
        code = self.signature_coder()
        groups: dict[int, list[int]] = {}
        for xi, row in enumerate(self.rows):
            groups.setdefault(code(row), []).append(xi)
        return MappingProxyType({c: tuple(xis) for c, xis in groups.items()})


@lru_cache(maxsize=_TABLE_CACHE)
def winner_table(p: int, alpha: int, beta: int) -> WinnerTable:
    """The (p, alpha, beta) `WinnerTable`, shared through a cache.

    Tables are cached per ``(p, alpha, beta)``, the least recently used
    dropped beyond a fixed bound.  The generators call
    `WinnerTable.build` and leave the cache alone, since their tables
    are one-shot and may be very large.
    """
    return WinnerTable.build(p, alpha, beta)


class _Grid(_FrozenRecord):
    """What `Correspondence` and `Form` share: fields, shape and a check by `_kind`."""

    _fields = ("candidates", "cells")
    _kind: str

    def _check(self, candidates, cells) -> None:
        _validate_grid(cells, candidates, kind=self._kind)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])


class Correspondence(_Grid):
    """Outcome matrix whose cells are full argmax sets.

    `cells`, a ``tuple[tuple[CandidateSet, ...], ...]``, holds at
    `cells[i][j]` the winner set when the row voter plays the i-th
    strategy and the column voter the j-th one.  `candidates`, an int,
    is the number of candidates p; cell members must lie in ``0..p-1``.
    """

    _kind = "correspondence"


class Form(_Grid):
    """Outcome matrix whose cells are single winners (resolved ties).

    Fields as in `Correspondence`, with one `Candidate` (int) per cell.
    """

    _kind = "form"


def _validate_grid(cells, p: int, kind: str) -> None:
    _check_params(p)
    if not isinstance(cells, (tuple, list)) or not all(
        isinstance(row, (tuple, list)) for row in cells
    ):
        raise CellTypeError(f"{kind} cells must be a sequence of rows")
    if not cells or not cells[0]:
        raise ParameterError(f"empty {kind} matrix")
    width = len(cells[0])
    is_corr = kind == "correspondence"
    # Equal widths, every cell (every member, for a correspondence) of
    # the right type and valid distinct values make a valid grid.  The
    # types are read off every cell, since 1.0 == 1 would hide a float
    # behind an int among the distinct values.  Anything else, a
    # TypeError too, goes to the row-major scan for its error.
    try:
        values = set().union(*cells)
        if is_corr:
            ok = (
                set(map(type, chain.from_iterable(cells))) == {frozenset}
                and all(values)
                and set(map(type, chain.from_iterable(chain.from_iterable(cells)))) == {int}
                and all(0 <= c < p for c in set().union(*values))
            )
        else:
            ok = set(map(type, chain.from_iterable(cells))) == {int} and all(
                0 <= v < p for v in values
            )
        if ok and set(map(len, cells)) == {width}:
            return
    except TypeError:
        pass
    for row in cells:
        if len(row) != width:
            raise ParameterError(f"ragged {kind} matrix")
        for cell in row:
            if not is_corr:
                _check_candidate(cell, p)
                continue
            if type(cell) is not frozenset:
                raise CellTypeError(f"correspondence cell {cell!r} is not a frozenset")
            if not cell:
                raise ParameterError("correspondence cell is empty")
            for c in cell:
                _check_candidate(c, p)


def _check_candidate(c, p: int) -> None:
    if type(c) is not int:
        raise CellTypeError(f"candidate {c!r} is not an int")
    if not 0 <= c < p:
        raise ParameterError(f"candidate {c} out of range 0..{p - 1}")


def _valid_tableau(cls, **fields):
    """A `cls` tableau of `fields` known to be valid, built without checking them again."""
    t = object.__new__(cls)
    t.__dict__.update(fields)
    return t


class Labeling(_FrozenRecord):
    """Row and column strategies recovered by a recognizer.

    `row_labels[i]` is the strategy assigned to row i, `col_labels[j]`
    the strategy assigned to column j.  Both are tuples of strategies
    and bijections onto the respective strategy sets.
    """

    _fields = ("row_labels", "col_labels")


class PlaneLabeling(_FrozenRecord):
    """Per-axis strategy values recovered for an n-voter tableau.

    `axis_labels`, a tuple of int tuples, holds at ``[i][t]`` the card
    count on the first candidate that voter i plays in the plane
    currently at index t along axis i.
    """

    _fields = ("axis_labels",)


def generate_correspondence(p: int, alpha: int, beta: int) -> Correspondence:
    """Joint outcome table for two voters of weights `alpha` and `beta`.

    Rows follow `enumerate_strategies(p, alpha)`, columns
    `enumerate_strategies(p, beta)`; every cell is the argmax set of the
    summed strategies.
    """
    _check_cells(
        strategy_count(p, alpha) * strategy_count(p, beta),
        f"the (p={p}, alpha={alpha}, beta={beta}) tableau",
    )
    return _valid_tableau(
        Correspondence, candidates=p, cells=WinnerTable.build(p, alpha, beta).rows
    )


def generate_form(p: int, alpha: int, beta: int, tie_rule: str = "min-index") -> Form:
    """Like `generate_correspondence` but with every tie resolved.

    `tie_rule` picks the winner inside each argmax set: "min-index"
    takes the smallest candidate index, "max-index" the largest.
    """
    if tie_rule not in TIE_RULES:
        raise ParameterError(f"unknown tie rule {tie_rule!r}, expected one of {TIE_RULES}")
    corr = generate_correspondence(p, alpha, beta)
    pick = min if tie_rule == "min-index" else max
    winner = {am: pick(am) for am in set().union(*corr.cells)}.__getitem__
    cells = tuple([tuple(map(winner, row)) for row in corr.cells])
    return _valid_tableau(Form, candidates=p, cells=cells)


def infer_parameters(k: int, l: int, p: int) -> tuple[int, int]:
    """Recover the voter weights (alpha, beta) from a k x l shape.

    The map ``w -> C(w + p - 1, p - 1)`` is strictly increasing, so each
    dimension determines at most one weight.  Raises
    `NoParametersError` when a dimension matches no weight, which means
    the matrix cannot be a distributed approval tableau for this p.
    """
    _check_params(p)

    def invert(n: int, what: str) -> int:
        w = 1
        while True:
            c = math.comb(w + p - 1, p - 1)
            if c == n:
                return w
            if c > n:
                raise NoParametersError(
                    f"no voter weight gives {n} {what} for p={p} candidates"
                )
            w += 1

    return invert(k, "rows"), invert(l, "columns")


def permute_tableau(t, row_perm, col_perm):
    """Rearranged copy of a 2-voter tableau.

    `row_perm[i]` is the source row placed at new position i, likewise
    `col_perm` for columns; both must be permutations of the index
    ranges.
    """
    if sorted(row_perm) != list(range(t.rows)) or sorted(col_perm) != list(range(t.cols)):
        raise ParameterError("row_perm/col_perm must permute the tableau indices")
    rows = map(itemgetter(*col_perm), map(t.cells.__getitem__, row_perm))
    if len(col_perm) == 1:
        # itemgetter of one index returns the cell itself, not a 1-tuple.
        rows = zip(rows)
    return _valid_tableau(type(t), candidates=t.candidates, cells=tuple(rows))


def transpose_tableau(t):
    """The same tableau with the two voters' roles swapped."""
    return _valid_tableau(type(t), candidates=t.candidates, cells=tuple(zip(*t.cells)))


def _format_json(obj: dict) -> str:
    """`obj` as JSON text with one top-level key per line.

    Each matrix row of "cells" gets its own line too, so a dumped
    tableau reads like a matrix.
    """
    # Imported here: `json` is needed only by the commands that write it.
    import json

    parts = []
    for key, val in obj.items():
        if key == "cells" and isinstance(val, list) and val and isinstance(val[0], list):
            rows = ",\n  ".join(map(json.dumps, val))
            parts.append(f' "cells": [\n  {rows}\n ]')
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(val)}")
    return "{\n" + ",\n".join(parts) + "\n}"


def default_names(p: int) -> list[str]:
    """Candidate display names: a..z, then aa, ab, ... for larger p."""
    names = []
    for i in range(p):
        s = ""
        n = i
        while True:
            s = string.ascii_lowercase[n % 26] + s
            n = n // 26 - 1
            if n < 0:
                break
        names.append(s)
    return names

"""File formats for tableaux and recognition reports.

Two-voter tableaux travel as JSON objects with fields `kind`
("correspondence" or "form"), `candidates` (display names, defining the
internal index order) and `cells` (row-major; correspondence cells are
index-sorted arrays of names, form cells single names).  A plain-text
alternative holds one row per line with whitespace-separated cells:
bare names for forms, brace lists like ``{a,b}`` for correspondences.
Text files carry no candidate list, so names map to indices by first
appearance in row-major order.

The n-voter two-candidate tableau is JSON only: `weights` per voter,
explicit `dims` (each weight + 1) and flat row-major `cells` written as
"a", "b" or "ab".  The presence of `weights` is what distinguishes it
from the two-voter layout.

A candidate listed in a file but absent from every cell is kept: the
matrix then cannot be a distributed approval tableau for that candidate
count and recognition will reject it, which is the honest answer.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from .core import (
    Correspondence,
    Form,
    Labeling,
    ParameterError,
    PlaneLabeling,
    _format_json,
    _Memo,
    default_names,
)
from .results import RecognitionResult
from .special import NTableau

__all__ = [
    "dumps_tableau",
    "loads_tableau",
    "save_tableau",
    "load_tableau",
    "result_to_dict",
    "dumps_result",
]

_N_NAMES = ("a", "b")


def _checked_names(t, names: list[str] | None) -> list[str]:
    p = 2 if isinstance(t, NTableau) else t.candidates
    if names is None:
        return default_names(p)
    if len(names) != p:
        raise ParameterError(f"need {p} candidate names, got {len(names)}")
    if len(set(names)) != p:
        raise ParameterError("candidate names must be unique")
    return list(names)


def _cell_names(cells, names) -> dict:
    """Winner set -> its index-sorted list of names, for every set among `cells`."""
    return {am: [names[c] for c in sorted(am)] for am in set(cells)}


def _to_dict(t, names: list[str]) -> dict:
    # Each distinct cell is encoded once and shared by every cell equal to it.
    if isinstance(t, NTableau):
        if t.kind == "correspondence":
            enc = {am: "".join(n) for am, n in _cell_names(t.cells, _N_NAMES).items()}
            cells = list(map(enc.__getitem__, t.cells))
        else:
            cells = list(map(_N_NAMES.__getitem__, t.cells))
        return {
            "kind": t.kind,
            "weights": list(t.weights),
            "dims": list(t.dims),
            "candidates": list(_N_NAMES),
            "cells": cells,
        }
    if isinstance(t, Correspondence):
        enc = _cell_names(chain.from_iterable(t.cells), names).__getitem__
    else:
        enc = names.__getitem__
    cells = [list(map(enc, row)) for row in t.cells]
    return {"kind": t._kind, "candidates": names, "cells": cells}


def _to_text(t, names: list[str]) -> str:
    if isinstance(t, NTableau):
        raise ParameterError("n-voter tableaux have no text format, use JSON")
    if t.candidates > 26:
        raise ParameterError("text format supports at most 26 candidates")
    bad = [n for n in names if any(ch in n for ch in " \t{},")]
    if bad:
        raise ParameterError(f"name {bad[0]!r} cannot appear in the text format")
    if isinstance(t, Correspondence):
        cell_names = _cell_names(chain.from_iterable(t.cells), names)
        enc = {am: "{" + ",".join(n) + "}" for am, n in cell_names.items()}.__getitem__
    else:
        enc = names.__getitem__
    return "".join([" ".join(map(enc, row)) + "\n" for row in t.cells])


def dumps_tableau(t, names: list[str] | None = None, fmt: str = "json") -> str:
    """Serialize a tableau; `names` defaults to a, b, c, ..."""
    names = _checked_names(t, names)
    if fmt == "json":
        return _format_json(_to_dict(t, names))
    if fmt == "text":
        return _to_text(t, names)
    raise ParameterError(f"unknown format {fmt!r}, expected 'json' or 'text'")


def _index_map(names: list) -> dict[str, int]:
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(n, str) and n for n in names)
    ):
        raise ParameterError("'candidates' must be a list of non-empty strings")
    if len(set(names)) != len(names):
        raise ParameterError("candidate names must be unique")
    return {n: i for i, n in enumerate(names)}


def _from_json(data: dict):
    if not isinstance(data, dict):
        raise ParameterError("top-level JSON value must be an object")
    if "weights" in data:
        return _n_tableau_from_json(data)
    kind = data.get("kind")
    if kind not in ("correspondence", "form"):
        raise ParameterError(f"unknown tableau kind {kind!r}")
    names = data.get("candidates")
    idx = _index_map(names)
    rows = data.get("cells")
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParameterError("'cells' must be a non-empty list of rows")

    def one(name) -> int:
        if not isinstance(name, str):
            raise ParameterError(f"cell name {name!r} is not a string")
        if name not in idx:
            raise ParameterError(f"cell name {name!r} not in the candidates list")
        return idx[name]

    def members(cell) -> frozenset[int]:
        if not isinstance(cell, list):
            raise ParameterError(f"correspondence cell {cell!r} is not a list of names")
        return frozenset(map(one, cell))

    if kind == "correspondence":
        if set(map(type, chain.from_iterable(rows))) == {list}:
            # Every cell is a list of names, so its names as a tuple key it.
            cells = _decode_rows(rows, lambda cell: frozenset(map(one, cell)), tuple)
        else:
            cells = tuple([tuple(map(members, row)) for row in rows])
        return Correspondence(candidates=len(names), cells=cells), list(names)
    cells = _decode_rows(rows, one)
    return Form(candidates=len(names), cells=cells), list(names)


def _decode_rows(rows, decode, key=None) -> tuple:
    """Every cell of `rows` decoded, each distinct cell only once.

    The memo is keyed by ``key(cell)``, or by the cell itself when `key`
    is None, and `decode` must take a key as it takes a cell.  Distinct
    cells are first met in row-major order, so a defect is raised for
    the first defective cell.  When a key is unhashable, every cell is
    decoded in turn instead, which raises the same first error.
    """
    memo = _Memo(decode).__getitem__
    try:
        if key is None:
            return tuple([tuple(map(memo, row)) for row in rows])
        return tuple([tuple(map(memo, map(key, row))) for row in rows])
    except TypeError:
        return tuple([tuple(map(decode, row)) for row in rows])


def _n_tableau_from_json(data: dict):
    kind = data.get("kind", "correspondence")
    raw_weights = data["weights"]
    if not isinstance(raw_weights, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) for w in raw_weights
    ):
        raise ParameterError("'weights' must be a list of integers")
    weights = tuple(raw_weights)
    if "dims" in data and data["dims"] != [w + 1 for w in weights]:
        raise ParameterError("'dims' disagree with 'weights'")
    raw = data.get("cells")
    if not isinstance(raw, list):
        raise ParameterError("'cells' must be a flat list")

    def decode(tok):
        if not isinstance(tok, str):
            raise ParameterError(f"bad two-candidate cell {tok!r}")
        members = frozenset(_N_NAMES.index(ch) for ch in tok if ch in _N_NAMES)
        if not members or len(tok) != len(members):
            raise ParameterError(f"bad two-candidate cell {tok!r}")
        if kind == "form":
            if len(members) != 1:
                raise ParameterError(f"form cell {tok!r} must name one candidate")
            return next(iter(members))
        return members

    (cells,) = _decode_rows((raw,), decode)
    return NTableau(weights=weights, kind=kind, cells=cells), list(_N_NAMES)


def _from_text(text: str):
    rows = [s.split() for s in text.splitlines() if s.strip()[:1] not in ("", "#")]
    if not rows:
        raise ParameterError("no rows found in text input")
    if any("{" in tok for row in rows for tok in row):
        kind = "correspondence"
        rows = [[tok.strip("{}").split(",") for tok in row] for row in rows]
        seen = (n for row in rows for cell in row for n in cell)
    else:
        kind, seen = "form", (n for row in rows for n in row)
    # p is the number of distinct names: a candidate winning no cell is unknowable.
    names = list(dict.fromkeys(seen))
    if "" in names:
        raise ParameterError("empty candidate name in text input")
    return _from_json({"kind": kind, "candidates": names, "cells": rows})


def loads_tableau(text: str):
    """Parse JSON or plain-text input; returns (tableau, names).

    `names[i]` is the display name of internal candidate i.  Input
    starting with ``{`` is tried as JSON first; if it does not decode it
    is re-read as text, since a brace there may just be a set-valued
    cell like ``{a,b}``.
    """
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return _from_text(text)
        except RecursionError:
            raise ParameterError("JSON nests too deeply to be a tableau") from None
        return _from_json(data)
    return _from_text(text)


def save_tableau(t, path, names: list[str] | None = None, fmt: str = "json") -> None:
    Path(path).write_text(dumps_tableau(t, names, fmt))


def load_tableau(path):
    """Read a tableau file; returns (tableau, names)."""
    return loads_tableau(Path(path).read_text())


def _witness_to_json(witness, names: list[str] | None):
    if witness is None or isinstance(witness, str):
        return witness
    # Only the plurality route leaves a non-text witness, so `plurality`
    # is already loaded whenever this import runs.  Importing it here
    # keeps it out of the commands that recognize nothing.
    from .plurality import ForbiddenWitness

    if isinstance(witness, ForbiddenWitness):
        sym = {
            k: (names[v] if names else v) for k, v in sorted(witness.symbols.items())
        }
        return {
            "pattern": witness.pattern,
            "rows": list(witness.rows),
            "cols": list(witness.cols),
            "symbols": sym,
            "description": witness.describe(names),
        }
    return str(witness)


def result_to_dict(res: RecognitionResult, names: list[str] | None = None) -> dict:
    """JSON-ready view of a recognition result.

    Strategy labels are card-count vectors in the order of `candidates`;
    the n-voter case reports per-axis plane values instead.
    """
    out: dict = {"verdict": res.verdict, "method": res.method}
    if names is not None:
        out["candidates"] = list(names)
    lab = res.labeling
    if isinstance(lab, Labeling):
        out["row_labels"] = [list(x) for x in lab.row_labels]
        out["col_labels"] = [list(y) for y in lab.col_labels]
    elif isinstance(lab, PlaneLabeling):
        out["axis_labels"] = [list(a) for a in lab.axis_labels]
    else:
        out["row_labels"] = None
        out["col_labels"] = None
    out["witness"] = _witness_to_json(res.witness, names)
    return out


def dumps_result(res: RecognitionResult, names: list[str] | None = None) -> str:
    return _format_json(result_to_dict(res, names))

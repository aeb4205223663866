"""The benchmark's operation mixes and their checks.

A library operation hands one finished tableau to
`davote.recognize_tableau` and judges the result with `reference`.  A
CLI operation runs one `davote` command line, either in a fresh
interpreter as ``python -m davote`` or, in the traced run, in-process
through `davote.cli.main`, and judges exit code, stderr and output.

Every input is rebuilt for each pass from ``(seed, pass, operation)``,
so passes see fresh row and column orders of the same parameters, and
the same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from reference import (
    check_labeling,
    check_plane_labeling,
    form_from,
    identical_rows,
    inseparable_pairs,
    invalid_form,
    invalid_form_grid,
    n_correspondence,
    outcome_table,
    permute_planes,
    perturb_correspondence,
    perturb_flat,
    shuffle_grid,
    strategies,
    tie_pickers,
    winners,
)

ACCEPTED, REJECTED = "accepted", "rejected"
NAMES = "abcdefghijklmnopqrstuvwxyz"

# Correspondence triples: (3, 25, 10) is the one with more rows than
# columns, so it takes the transpose path.
CORR_TRIPLES = (
    (2, 60, 60), (2, 150, 150), (2, 300, 300), (2, 100, 251), (3, 10, 10),
    (3, 15, 15), (3, 20, 20), (3, 6, 30), (3, 25, 10), (4, 6, 6), (4, 8, 8),
    (5, 4, 4),
)

# Form triples, one group per recognition route: winner-count bounds
# (with the transposed (3, 30, 4)), two-candidate, oracle, plurality and
# two-card.
FORM_TRIPLES = (
    (3, 1, 40), (3, 1, 60), (3, 2, 30), (3, 2, 50), (3, 3, 30), (3, 4, 30),
    (4, 3, 12), (3, 5, 20), (3, 30, 4),
    (2, 60, 61), (2, 150, 151),
    (2, 3, 3), (2, 7, 7), (3, 2, 3),
    (6, 1, 1), (12, 1, 1), (26, 1, 1),
    (5, 2, 2), (8, 2, 2),
)

# Valid shuffled forms of these triples make `maximum_matching` recurse
# past the interpreter's limit.  They run in the traced defect probe
# (`probe_form_ops`) rather than in the timed mix; their invalid forms are
# rejected before matching and stay in the mix.
RECURSION_TRIPLES = ((3, 1, 60), (3, 2, 50))

N_WEIGHTS = ((60,), (99, 99), (300, 300), (9, 9, 9, 9), (20, 20, 20), (40, 40, 40), (5, 5, 5, 5, 5))


@dataclass
class Op:
    """One library operation: build(rng) gives (program input, checker)."""

    label: str
    key: tuple
    expect: str
    build: Callable
    cells: int


@dataclass
class CliOp:
    """One command line.  prepare(rng) writes its input files; check(stdout) judges the output."""

    label: str
    argv: list
    expect_code: int
    prepare: Callable = None
    check: Callable = None
    key: tuple = ()
    cells: int = 0
    state: dict = field(default_factory=dict)


def verdict_check(expect, judge):
    """Checker for a RecognitionResult: right verdict, and a labeling that regenerates."""

    def check(res):
        if res.verdict != expect:
            return f"verdict {res.verdict}, expected {expect}"
        return judge(res.labeling) if expect == ACCEPTED else None

    return check


def _grid_op(label, key, expect, make, is_corr, davote):
    """make(rng, table, p) gives the cells; the reference table is built on first use."""
    p = key[0]
    kind = davote.Correspondence if is_corr else davote.Form

    def build(rng):
        cells = make(rng, outcome_table(*key), p)
        judge = lambda lab: check_labeling(cells, p, lab.row_labels, lab.col_labels, is_corr)
        return kind(candidates=p, cells=cells), verdict_check(expect, judge)

    return Op(label, key, expect, build, len(strategies(p, key[1])) * len(strategies(p, key[2])))


def _valid(rng, table, p):
    return shuffle_grid(table, rng)


def _perturbed(rng, table, p):
    return shuffle_grid(perturb_correspondence(table, p, rng), rng)


def _tied(tie):
    return lambda rng, table, p: shuffle_grid(form_from(table, tie_pickers(rng)[tie]), rng)


def _invalid(rng, table, p):
    return shuffle_grid(invalid_form_grid(table, p, rng), rng)


def corr_ops(davote) -> list[Op]:
    ops = []
    for key in CORR_TRIPLES:
        for k in range(2):
            ops.append(_grid_op(f"corr {key} valid {k}", key, ACCEPTED, _valid, True, davote))
        ops.append(_grid_op(f"corr {key} perturbed", key, REJECTED, _perturbed, True, davote))
    return ops


def form_ops(davote) -> list[Op]:
    ops = []
    for key in FORM_TRIPLES:
        if key not in RECURSION_TRIPLES:
            for tie, name in enumerate(("min", "max", "random")):
                ops.append(_grid_op(f"form {key} {name} ties", key, ACCEPTED, _tied(tie), False, davote))
        ops.append(_grid_op(f"form {key} invalid", key, REJECTED, _invalid, False, davote))
    return ops


def _n_op(label, weights, kind, expect, make, davote):
    """make(rng, base) gives the flat cells from the valid correspondence `base`."""
    is_corr = kind == "correspondence"

    def build(rng):
        cells = permute_planes(make(rng, n_correspondence(weights)), weights, rng)
        judge = lambda lab: check_plane_labeling(cells, weights, lab.axis_labels, is_corr)
        return davote.NTableau(weights=weights, kind=kind, cells=cells), verdict_check(expect, judge)

    return Op(label, weights, expect, build, _cells(weights))


def nvoter_ops(davote) -> list[Op]:
    ops = []
    for w in N_WEIGHTS:
        ops.append(_n_op(f"n-voter {w} corr valid", w, "correspondence", ACCEPTED, lambda rng, b: b, davote))
        ops.append(_n_op(f"n-voter {w} form valid", w, "form", ACCEPTED,
                         lambda rng, b: tuple(rng.choice(sorted(c)) for c in b), davote))
        ops.append(_n_op(f"n-voter {w} corr perturbed", w, "correspondence", REJECTED,
                         lambda rng, b: perturb_flat(b, rng), davote))
        ops.append(_n_op(f"n-voter {w} form invalid", w, "form", REJECTED,
                         lambda rng, b: tuple(invalid_form(list(b), 2, rng)), davote))
    return ops


def probe_form_ops(davote) -> list[Op]:
    """Valid forms that failed with RecursionError when the benchmark was written."""
    return [_grid_op(f"form {key} random ties", key, ACCEPTED, _tied(2), False, davote)
            for key in RECURSION_TRIPLES]


# ---------------------------------------------------------------------------
# CLI session.  Files live in one directory under the checkout; argv uses
# absolute paths so that a child process and an in-process replay see the
# same command line.


def grid_json(cells, p, is_corr) -> dict:
    names = list(NAMES[:p])
    if is_corr:
        body = [[[names[c] for c in sorted(cell)] for cell in row] for row in cells]
    else:
        body = [[names[c] for c in row] for row in cells]
    return {"kind": "correspondence" if is_corr else "form", "candidates": names, "cells": body}


def n_json(cells, weights, is_corr) -> dict:
    body = ["".join("ab"[c] for c in sorted(cell)) for cell in cells] if is_corr else ["ab"[c] for c in cells]
    return {"kind": "correspondence" if is_corr else "form", "weights": list(weights), "cells": body}


def _vector(vec, out_names):
    """Reorder a card vector from the program's candidate order into ours."""
    mine = [0] * len(out_names)
    for name, v in zip(out_names, vec):
        mine[NAMES.index(name)] = v
    return mine


def judge_result(out, cells, p, is_corr, expect_verdict, verdict_key="verdict"):
    """Check a JSON recognition report against the input the benchmark wrote."""
    verdict = out.get(verdict_key)
    if verdict_key == "is_dav":
        verdict = ACCEPTED if verdict else REJECTED
    if verdict != expect_verdict:
        return f"verdict {verdict}, expected {expect_verdict}"
    if expect_verdict != ACCEPTED:
        return None
    if "axis_labels" in out:
        return check_plane_labeling(cells, p, out["axis_labels"], is_corr)
    names = out["candidates"]
    rows = [_vector(v, names) for v in out["row_labels"]]
    cols = [_vector(v, names) for v in out["col_labels"]]
    return check_labeling(cells, p, rows, cols, is_corr)


def _write(path: Path, obj) -> None:
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))


def _fname(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label) + ".json"


def _grid_maker(key, make):
    return lambda rng: make(rng, outcome_table(*key), key[0])


def _n_maker(weights, make):
    return lambda rng: permute_planes(make(rng, n_correspondence(weights)), weights, rng)


def _cells(weights) -> int:
    n = 1
    for w in weights:
        n *= w + 1
    return n


def _recognize_op(label, out_dir, fname, key, make, is_corr, expect, command="recognize", n_voter=False,
                  as_text=False):
    """Recognize a benchmark-written file; make(rng) returns its cells."""
    path = out_dir / fname
    p = key if n_voter else key[0]
    code = 0 if expect == ACCEPTED else 1
    op = CliOp(label, [command, str(path)], code, key=key)

    def prepare(rng):
        cells = make(rng)
        op.state["cells"] = cells
        if n_voter:
            _write(path, n_json(cells, key, is_corr))
        elif as_text:
            _write(path, "\n".join(" ".join(NAMES[c] for c in row) for row in cells) + "\n")
        else:
            _write(path, grid_json(cells, p, is_corr))

    def check(stdout):
        out = json.loads(stdout)
        verdict_key = "is_dav" if command == "oracle" else "verdict"
        return judge_result(out, op.state["cells"], p, is_corr, expect, verdict_key)

    op.prepare, op.check = prepare, check
    op.cells = _cells(key) if n_voter else len(strategies(p, key[1])) * len(strategies(p, key[2]))
    return op


def _read_grid(path: Path):
    data = json.loads(path.read_text())
    idx = {n: i for i, n in enumerate(data["candidates"])}
    if data["kind"] == "correspondence":
        cells = tuple(tuple(winners(idx[n] for n in cell) for cell in row) for row in data["cells"])
    else:
        cells = tuple(tuple(idx[n] for n in row) for row in data["cells"])
    return data, cells


def _read_n(path: Path):
    data = json.loads(path.read_text())
    if data["kind"] == "correspondence":
        cells = tuple(winners("ab".index(ch) for ch in tok) for tok in data["cells"])
    else:
        cells = tuple("ab".index(tok) for tok in data["cells"])
    return data, cells


def cli_ops(out_dir: Path) -> list[CliOp]:
    ops: list[CliOp] = []
    d = out_dir

    # Forward path: generation must match the reference table exactly,
    # in the documented reverse-lexicographic strategy order.
    def gen_check(path, key, is_corr):
        def check(_stdout):
            data, cells = _read_grid(path)
            want = outcome_table(*key)
            if not is_corr:
                want = form_from(want, min)
            if data["candidates"] != list(NAMES[: key[0]]) or cells != want:
                return "generated tableau differs from the reference"
            return None

        return check

    g_c, g_f, g_n = d / "gen_corr.json", d / "gen_form.json", d / "gen_n.json"
    ops.append(CliOp("generate corr (2, 200, 200)", ["generate", "--p", "2", "--alpha", "200", "--beta", "200",
                                                     "-o", str(g_c)], 0, check=gen_check(g_c, (2, 200, 200), True),
                     key=(2, 200, 200), cells=201 * 201))
    ops.append(CliOp("generate form (3, 4, 30)", ["generate", "--p", "3", "--alpha", "4", "--beta", "30",
                                                  "--kind", "form", "-o", str(g_f)], 0,
                     check=gen_check(g_f, (3, 4, 30), False), key=(3, 4, 30), cells=15 * 496))

    def gen_n_check(_stdout):
        data, cells = _read_n(g_n)
        if data["weights"] != [9, 9, 9, 9] or cells != n_correspondence((9, 9, 9, 9)):
            return "generated n-voter tableau differs from the reference"
        return None

    ops.append(CliOp("generate-n (9, 9, 9, 9)", ["generate-n", "--weights", "9,9,9,9", "-o", str(g_n)], 0,
                     check=gen_n_check, key=(9, 9, 9, 9), cells=_cells((9, 9, 9, 9))))

    # Shuffle what was generated, then recognize the shuffled files.
    for src, key, is_corr, n_voter in ((g_n, (9, 9, 9, 9), True, True), (g_c, (2, 200, 200), True, False),
                                       (g_f, (3, 4, 30), False, False)):
        dst = d / ("shuf_" + src.name)
        op = CliOp(f"shuffle {src.name}", ["shuffle", str(src), "--seed", "0", "-o", str(dst)], 0, key=key)

        def prepare(rng, op=op):
            op.argv[3] = str(rng.randrange(1 << 30))

        def check(_stdout, src=src, dst=dst, n_voter=n_voter):
            read = _read_n if n_voter else _read_grid
            (a, ca), (b, cb) = read(src), read(dst)
            flat = (lambda c: list(c)) if n_voter else (lambda c: [x for row in c for x in row])
            if a.get("weights") != b.get("weights") or Counter(flat(ca)) != Counter(flat(cb)):
                return "shuffle changed the tableau's cells"
            return None

        op.prepare, op.check = prepare, check
        ops.append(op)
        rec = CliOp(f"recognize shuffled {src.name}", ["recognize", str(dst)], 0, key=key)

        def rec_check(stdout, dst=dst, key=key, is_corr=is_corr, n_voter=n_voter):
            _, cells = (_read_n if n_voter else _read_grid)(dst)
            return judge_result(json.loads(stdout), cells, key if n_voter else key[0], is_corr, ACCEPTED)

        rec.check = rec_check
        ops.append(rec)

    # Benchmark-written files, valid and invalid, one per route.
    for command, key, make, is_corr, expect, as_text in (
        ("recognize", (3, 10, 10), _valid, True, ACCEPTED, False),
        ("recognize", (3, 2, 30), _tied(2), False, ACCEPTED, False),
        ("recognize", (3, 5, 20), _tied(2), False, ACCEPTED, True),
        ("recognize", (12, 1, 1), _tied(2), False, ACCEPTED, False),
        ("recognize", (5, 2, 2), _tied(2), False, ACCEPTED, False),
        ("recognize", (2, 60, 61), _tied(2), False, ACCEPTED, False),
        ("recognize", (2, 7, 7), _tied(2), False, ACCEPTED, False),
        ("recognize", (2, 100, 100), _perturbed, True, REJECTED, False),
        ("recognize", (3, 3, 30), _invalid, False, REJECTED, False),
        ("recognize", (8, 1, 1), _invalid, False, REJECTED, False),
        ("oracle", (2, 7, 7), _tied(2), False, ACCEPTED, False),
        ("oracle", (2, 7, 7), _invalid, False, REJECTED, False),
        ("plurality-check", (6, 1, 1), _tied(2), False, ACCEPTED, False),
        ("plurality-check", (6, 1, 1), _invalid, False, REJECTED, False),
    ):
        label = f"{command} {'corr' if is_corr else 'form'} {key} {expect}{' text' if as_text else ''}"
        ops.append(_recognize_op(label, d, _fname(label), key, _grid_maker(key, make), is_corr, expect,
                                 command=command, as_text=as_text))

    for w, make, is_corr, expect in (
        ((20, 20, 20), lambda rng, b: tuple(rng.choice(sorted(c)) for c in b), False, ACCEPTED),
        ((99, 99), lambda rng, b: perturb_flat(b, rng), True, REJECTED),
    ):
        label = f"recognize n-voter {'corr' if is_corr else 'form'} {w} {expect}"
        ops.append(_recognize_op(label, d, _fname(label), w, _n_maker(w, make), is_corr, expect, n_voter=True))

    # Direct distinctness scans against the reference answers.
    def distinct_check(key, what):
        def check(stdout):
            out = json.loads(stdout)
            pairs = out.get("witness_pairs", [])
            if what == "corr":
                ok = len(pairs) == identical_rows(*key)
            else:
                ok = {tuple(map(tuple, pair)) for pair in pairs} == inseparable_pairs(*key)
            if not ok or out.get("direct") != (not pairs):
                return f"direct answer {out.get('direct')} disagrees with the reference"
            return None

        return check

    for key, what in (((4, 4, 8), "forms"), ((3, 6, 12), "corr")):
        want_false = identical_rows(*key) if what == "corr" else inseparable_pairs(*key)
        ops.append(CliOp(f"check-distinct {what} {key}",
                         ["check-distinct", "--p", str(key[0]), "--alpha", str(key[1]), "--beta", str(key[2]),
                          "--what", what, "--mode", "direct"], 1 if want_false else 0,
                         check=distinct_check(key, what), key=key,
                         cells=len(strategies(key[0], key[1])) * len(strategies(key[0], key[2]))))

    # Error paths that already end cleanly with the usage code.
    ragged = d / "ragged.json"
    ops.append(CliOp("recognize ragged form", ["recognize", str(ragged)], 3,
                     prepare=lambda rng: _write(ragged, {"kind": "form", "candidates": ["a", "b"],
                                                         "cells": [["a", "b"], ["a"]]})))
    ops.append(CliOp("recognize missing file", ["recognize", str(d / "missing.json")], 3))
    ops.append(CliOp("generate p=1", ["generate", "--p", "1", "--alpha", "2", "--beta", "2"], 3))
    return ops


# Inputs that the README says must end with exit code 3 (usage error) but
# did not when the benchmark was written, plus a valid form whose
# recognition recursed past the interpreter's limit.
MALFORMED = (
    ("cells [1, 2]", {"kind": "form", "candidates": ["a", "b"], "cells": [1, 2]}),
    ("weights 3", {"kind": "correspondence", "weights": 3, "cells": ["a"]}),
    ("list in a form cell", {"kind": "form", "candidates": ["a", "b"], "cells": [[["a"], "b"], ["b", "a"]]}),
    ("weights [true]", {"kind": "correspondence", "weights": [True], "cells": ["b", "ab"]}),
    ("bare-string corr cell", {"kind": "correspondence", "candidates": ["a", "b"], "cells": [["a", "b"], ["b", "a"]]}),
)


def probe_cli_ops(out_dir: Path) -> list[CliOp]:
    ops = []
    for k, (label, body) in enumerate(MALFORMED):
        path = out_dir / f"malformed_{k}.json"
        ops.append(CliOp(f"recognize malformed: {label}", ["recognize", str(path)], 3,
                         prepare=lambda rng, path=path, body=body: _write(path, body)))
    key = RECURSION_TRIPLES[0]
    ops.append(_recognize_op(f"recognize form {key} accepted", out_dir, "probe_form.json", key,
                             _grid_maker(key, _tied(2)), False, ACCEPTED))
    return ops


WORKLOADS = ("corr-recognize", "form-recognize", "nvoter-recognize", "cli-session")


def build(workload: str, davote, out_dir: Path):
    """(timed ops, probe ops) for a workload."""
    if workload == "corr-recognize":
        return corr_ops(davote), []
    if workload == "form-recognize":
        return form_ops(davote), probe_form_ops(davote)
    if workload == "nvoter-recognize":
        return nvoter_ops(davote), []
    if workload == "cli-session":
        return cli_ops(out_dir), probe_cli_ops(out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def op_rng(seed: int, pass_no: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{pass_no}:{index}")

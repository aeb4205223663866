"""Replay a fixed instance set and print one line or one hash of the results.

Not a pytest module: run it on two source trees and compare the output
to show that a change keeps every verdict, method, witness and labeling.

    PYTHONPATH=src python tests/replay_behaviour.py            # count and hash
    PYTHONPATH=src python tests/replay_behaviour.py --lines    # one line per instance
    PYTHONPATH=src python tests/replay_behaviour.py --expect SHA  # exit 1 on another hash

The instances are every 3 x 3 single-card grid, through both
`recognize_tableau` and `recognize_plurality_form`, and, for every
p in 3..5 with weights 1..6 and for the benchmark's p >= 3 triples:
shuffled valid correspondences and forms (min, max and random ties),
one-cell perturbed correspondences and forms, and correspondences and
forms with one row copied over another.  Everything is seeded, so the
set is the same on every run.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from itertools import product

from davote import Correspondence, Form, generate_correspondence, recognize_tableau
from davote.plurality import recognize_plurality_form

BENCH_TRIPLES = (
    (3, 1, 40), (3, 1, 60), (3, 2, 30), (3, 2, 50), (3, 3, 30), (3, 4, 30),
    (4, 3, 12), (3, 5, 20), (3, 30, 4), (6, 1, 1), (12, 1, 1), (26, 1, 1),
    (5, 2, 2), (8, 2, 2), (3, 10, 10), (3, 15, 15), (3, 20, 20), (3, 6, 30),
    (3, 25, 10), (4, 6, 6), (4, 8, 8), (5, 4, 4),
)


def _shuffled(cells, rng):
    rows = rng.sample(range(len(cells)), len(cells))
    cols = rng.sample(range(len(cells[0])), len(cells[0]))
    return tuple(tuple(cells[i][j] for j in cols) for i in rows)


def _moved(cells, rng, draw):
    """`cells` with one cell set to a different value drawn by `draw(rng)`."""
    grid = [list(row) for row in cells]
    i, j = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
    old = grid[i][j]
    while grid[i][j] == old:
        grid[i][j] = draw(rng)
    return grid


def _copied_row(cells, rng):
    grid = [list(row) for row in cells]
    if len(grid) > 1:
        i, k = rng.sample(range(len(grid)), 2)
        grid[i] = list(grid[k])
    return grid


def instances():
    """(name, recognizer, tableau) for the whole fixed set, in order."""
    for flat in product(range(3), repeat=9):
        g = Form(3, (flat[0:3], flat[3:6], flat[6:9]))
        yield f"grid {flat}", recognize_tableau, g
        yield f"grid {flat} plurality", recognize_plurality_form, g
    triples = [(p, a, b) for p in (3, 4, 5) for a in range(1, 7) for b in range(1, 7)]
    for key in triples + list(BENCH_TRIPLES):
        p = key[0]
        rng = random.Random(repr(key))
        h = generate_correspondence(*key).cells
        subset = lambda rng: frozenset(rng.sample(range(p), rng.randint(1, p)))
        ties = (min, max, lambda cell: rng.choice(sorted(cell)))
        forms = [tuple(tuple(map(tie, row)) for row in h) for tie in ties]
        grids = [
            ("corr valid", Correspondence, h),
            ("corr perturbed", Correspondence, _moved(h, rng, subset)),
            ("corr copied row", Correspondence, _copied_row(h, rng)),
            ("form min", Form, forms[0]),
            ("form max", Form, forms[1]),
            ("form random", Form, forms[2]),
            ("form perturbed", Form, _moved(forms[2], rng, lambda rng: rng.randrange(p))),
            ("form copied row", Form, _copied_row(forms[2], rng)),
        ]
        for label, kind, cells in grids:
            yield f"{key} {label}", recognize_tableau, kind(p, _shuffled(cells, rng))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Replay the fixed instance set.")
    parser.add_argument("--lines", action="store_true", help="print one line per instance")
    parser.add_argument("--expect", metavar="SHA", help="exit 1 unless the hash is SHA")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    for name, recognize, t in instances():
        res = recognize(t)
        line = f"{name}\t{res.verdict}\t{res.method}\t{res.witness!r}\t{res.labeling!r}"
        digest.update(line.encode() + b"\n")
        count += 1
        if args.lines:
            print(line)
    print(f"{count} instances, sha256 {digest.hexdigest()}")
    if args.expect is not None and digest.hexdigest() != args.expect:
        print(f"expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

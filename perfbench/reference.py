"""Reference model of distributed approval tableaux, kept apart from `davote`.

Everything the benchmark needs to build inputs and to judge answers is
reimplemented here from the model itself: strategy enumeration, the
argmax winner rule for two voters, and the half-total threshold rule
for n voters over two candidates.  Nothing in this module imports
`davote`, so a defect in the package cannot make its own answers look
right.

Cells are plain Python values: a correspondence cell is a frozenset of
candidate indices, a form cell one index.  Two-voter grids are tuples of
row tuples; n-voter tableaux are flat tuples in row-major order over
``product(range(w + 1) for w in weights)``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product

_INTERNED: dict[frozenset, frozenset] = {}


def winners(members) -> frozenset:
    """One shared frozenset per distinct winner set, to keep grids small."""
    s = frozenset(members)
    return _INTERNED.setdefault(s, s)


@lru_cache(maxsize=None)
def strategies(p: int, weight: int) -> tuple[tuple[int, ...], ...]:
    """All splits of `weight` cards over `p` candidates, reverse-lexicographic."""
    out = []
    for bars in combinations(range(weight + p - 1), p - 1):
        edges = (-1, *bars, weight + p - 1)
        out.append(tuple(edges[k + 1] - edges[k] - 1 for k in range(p)))
    out.sort(reverse=True)
    return tuple(out)


def argmax(z) -> frozenset:
    top = max(z)
    return winners(i for i, v in enumerate(z) if v == top)


@lru_cache(maxsize=None)
def outcome_table(p: int, alpha: int, beta: int):
    """Winner set of every (row strategy, column strategy) pair, in enumeration order."""
    xs = strategies(p, alpha)
    ys = strategies(p, beta)
    return tuple(
        tuple(argmax([a + b for a, b in zip(x, y)]) for y in ys) for x in xs
    )


@lru_cache(maxsize=None)
def strategy_index(p: int, weight: int) -> dict:
    return {s: i for i, s in enumerate(strategies(p, weight))}


def shape_params(p: int, rows: int, cols: int) -> tuple[int, int]:
    """(alpha, beta) for a p-candidate grid of the given shape."""

    def weight(n: int) -> int:
        w = 1
        while len(strategies(p, w)) < n:
            w += 1
        if len(strategies(p, w)) != n:
            raise ValueError(f"no weight gives {n} strategies over {p} candidates")
        return w

    return weight(rows), weight(cols)


def threshold(total: int, sigma: int) -> frozenset:
    """n-voter two-candidate winners: candidate 0 needs more than half the cards."""
    if 2 * total > sigma:
        return winners((0,))
    if 2 * total == sigma:
        return winners((0, 1))
    return winners((1,))


# ---------------------------------------------------------------------------
# Input generators.  Each takes an explicit random.Random so that a
# workload seed fixes every input.


def form_from(table, pick) -> tuple:
    """Resolve every cell with `pick(cell)`."""
    return tuple(tuple(pick(cell) for cell in row) for row in table)


def tie_pickers(rng: random.Random):
    """The three tie resolutions a workload uses: min, max and seeded random."""
    return (min, max, lambda cell: rng.choice(sorted(cell)))


def shuffle_grid(cells, rng: random.Random) -> tuple:
    rows = list(range(len(cells)))
    cols = list(range(len(cells[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return tuple(tuple(cells[i][j] for j in cols) for i in rows)


def perturb_correspondence(table, p: int, rng: random.Random) -> tuple:
    """Change one cell to another winner set.

    Any row and column order of a valid correspondence keeps the
    multiset of its cells, and this changes that multiset, so the
    result is never a valid correspondence.
    """
    cells = [list(row) for row in table]
    i = rng.randrange(len(cells))
    j = rng.randrange(len(cells[0]))
    subsets = [
        winners(s)
        for r in range(1, p + 1)
        for s in combinations(range(p), r)
        if frozenset(s) != cells[i][j]
    ]
    cells[i][j] = rng.choice(subsets)
    return tuple(tuple(row) for row in cells)


def invalid_form(flat_cells, p: int, rng: random.Random):
    """A form no labeling explains, over a flat list of winner sets.

    Every tie goes to candidate c, then one cell whose winner set
    excludes c is set to c.  Each labeling maps cells one-to-one onto
    the strategy pairs, so c may fill at most as many cells as allow it;
    the result has one more.
    """
    c = rng.randrange(p)
    out = [c if c in cell else min(cell) for cell in flat_cells]
    out[rng.choice([k for k, cell in enumerate(flat_cells) if c not in cell])] = c
    return out


def invalid_form_grid(table, p: int, rng: random.Random) -> tuple:
    width = len(table[0])
    flat = invalid_form([cell for row in table for cell in row], p, rng)
    return tuple(tuple(flat[k : k + width]) for k in range(0, len(flat), width))


@lru_cache(maxsize=None)
def n_correspondence(weights) -> tuple:
    sigma = sum(weights)
    return tuple(
        threshold(sum(z), sigma) for z in product(*(range(w + 1) for w in weights))
    )


def permute_planes(cells, weights, rng: random.Random) -> tuple:
    """Reorder the planes of every axis at random."""
    dims = [w + 1 for w in weights]
    perms = [rng.sample(range(d), d) for d in dims]
    strides = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    out = []
    for z in product(*(range(d) for d in dims)):
        out.append(cells[sum(perm[t] * s for perm, t, s in zip(perms, z, strides))])
    return tuple(out)


def perturb_flat(cells, rng: random.Random) -> tuple:
    """Change one two-candidate winner set; the cell multiset changes with it."""
    out = list(cells)
    k = rng.randrange(len(out))
    out[k] = rng.choice([s for s in map(winners, ((0,), (1,), (0, 1))) if s != out[k]])
    return tuple(out)


# ---------------------------------------------------------------------------
# Checkers.  Each returns None when the answer is right, else a reason.


def check_labeling(cells, p: int, row_labels, col_labels, is_corr: bool):
    """Whether the labels are bijections onto the strategy sets and regenerate `cells`."""
    try:
        alpha, beta = shape_params(p, len(cells), len(cells[0]))
    except ValueError as e:
        return str(e)
    xi = strategy_index(p, alpha)
    yi = strategy_index(p, beta)
    rows = [xi.get(tuple(x)) for x in row_labels]
    cols = [yi.get(tuple(y)) for y in col_labels]
    if len(rows) != len(cells) or sorted(r for r in rows if r is not None) != list(range(len(xi))):
        return "row labels are not a bijection onto the row strategies"
    if len(cols) != len(cells[0]) or sorted(c for c in cols if c is not None) != list(range(len(yi))):
        return "column labels are not a bijection onto the column strategies"
    table = outcome_table(p, alpha, beta)
    for i, r in enumerate(rows):
        want_row = table[r]
        row = cells[i]
        for j, c in enumerate(cols):
            want = want_row[c]
            if (row[j] != want) if is_corr else (row[j] not in want):
                return f"labeling does not regenerate cell ({i}, {j})"
    return None


def check_plane_labeling(cells, weights, axis_labels, is_corr: bool):
    """Whether per-axis plane values are permutations that regenerate `cells`."""
    if len(axis_labels) != len(weights):
        return "one label list per axis expected"
    for labels, w in zip(axis_labels, weights):
        if sorted(labels) != list(range(w + 1)):
            return "axis labels are not a permutation of the plane values"
    sigma = sum(weights)
    for k, z in enumerate(product(*axis_labels)):
        want = threshold(sum(z), sigma)
        if (cells[k] != want) if is_corr else (cells[k] not in want):
            return f"labeling does not regenerate cell {k}"
    return None


def identical_rows(p: int, alpha: int, beta: int) -> int:
    """Number of row pairs of the correspondence with equal content."""
    seen: dict = {}
    for row in outcome_table(p, alpha, beta):
        seen[row] = seen.get(row, 0) + 1
    return sum(n * (n - 1) // 2 for n in seen.values())


def inseparable_pairs(p: int, alpha: int, beta: int) -> set:
    """Row strategy pairs that no column separates with disjoint winner sets."""
    xs = strategies(p, alpha)
    table = outcome_table(p, alpha, beta)
    out = set()
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not any(a.isdisjoint(b) for a, b in zip(table[i], table[j])):
                out.add((xs[i], xs[j]))
    return out

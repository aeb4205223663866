"""Release acceptance checklist.

Eleven numbered gates, one test function each, so a verbose pytest run
prints one pass/fail line per gate.  Each gate restates its scope and
any time budget in its docstring; budgets are asserted with
time.monotonic, not merely hoped for.  Gates are independent and can be
run alone, e.g. `pytest tests/test_acceptance.py -v -k 06`.

Ground-truth sources, in order of preference: hand-checked reference
tableaux (conftest), the exhaustive oracle, and regeneration of the
input from a recovered labeling, which certifies acceptance by
definition.  Expected counts baked into asserts were derived from the
oracle or by direct enumeration; none were copied from the code under
test.
"""

import random
import time
from itertools import combinations, product
from math import prod

from conftest import (
    A,
    B,
    BAD_M1_ROWS,
    BAD_M2_ROWS,
    BAD_M3_ROWS,
    CORR_2_3_3_ROWS,
    FORM_2_3_3_DISTINCT_ROWS,
    FORM_2_3_3_REPEATED_ROWS,
    all_forms_rows_distinct_direct,
    b_set,
    corr,
    form,
    labeling_generates,
    lu_counts,
    n_cell,
    neighbor_reduction_check,
    random_resolution,
    signature_of_strategy,
)

from davote.cli import main
from davote.core import (
    Form,
    SizeGuardError,
    _count_bounds,
    enumerate_strategies,
    generate_correspondence,
    generate_form,
    permute_tableau,
    strategy_count,
    winner_table,
)
from davote.distinctness import (
    all_forms_rows_distinct,
    correspondence_rows_distinct,
    empty_differentiating_pairs,
    identical_correspondence_rows,
)
from davote.oracle import oracle_recognize
from davote.plurality import _find_m1, _find_m2, _find_m3, recognize_plurality_form
from davote.recognizer import recognize_tableau
from davote.results import ACCEPTED, REJECTED
from davote.special import (
    NTableau,
    generate_n_tableau,
    n_tableau_as_grid,
    permute_axes,
    plane_signature,
    recognize_n_tableau,
)
from davote.tableau_io import loads_tableau


def shuffle_with_perms(t, rng):
    """Permuted copy plus the permutations used, for unshuffling."""
    rp, cp = list(range(t.rows)), list(range(t.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return permute_tableau(t, rp, cp), rp, cp


def plane(nt, axis, z):
    """Cells of one axis plane, in a fixed traversal order."""
    others = [range(w + 1) for i, w in enumerate(nt.weights) if i != axis]
    return tuple(
        n_cell(nt, rest[:axis] + (z,) + rest[axis:]) for rest in product(*others)
    )


def labels_explain(nt, axis_labels):
    """Every cell obeys the half-total rule under the given labels."""
    sigma = sum(nt.weights)
    for z in product(*(range(w + 1) for w in nt.weights)):
        total = sum(axis_labels[i][t] for i, t in enumerate(z))
        am = {A} if 2 * total > sigma else {B} if 2 * total < sigma else {A, B}
        cell = n_cell(nt, z)
        if nt.kind == "correspondence":
            if cell != frozenset(am):
                return False
        elif cell not in am:
            return False
    return True


def test_01_reference_tableaux(capsys, tmp_path):
    """Gate 1: the generator reproduces the hand-checked two-candidate
    three-card tableaux exactly, through the CLI as well as the API; the
    oracle certifies both reference forms; row distinctness is as
    documented.  Budget: 1 s."""
    t0 = time.monotonic()

    code = main(["generate", "--p", "2", "--alpha", "3", "--beta", "3",
                 "--kind", "corr"])
    out = capsys.readouterr().out
    assert code == 0
    loaded, _ = loads_tableau(out)
    reference = corr(2, CORR_2_3_3_ROWS)
    assert loaded == reference
    assert generate_correspondence(2, 3, 3) == reference

    distinct = form(2, FORM_2_3_3_DISTINCT_ROWS)
    repeated = form(2, FORM_2_3_3_REPEATED_ROWS)
    assert oracle_recognize(distinct).is_dav
    assert oracle_recognize(repeated).is_dav

    assert len(set(distinct.cells)) == 4
    xs = enumerate_strategies(2, 3)
    i, j = xs.index((2, 1)), xs.index((1, 2))
    assert repeated.cells[i] == repeated.cells[j]
    assert len(set(repeated.cells)) == 3

    assert time.monotonic() - t0 < 1.0


def test_02_correspondence_round_trip():
    """Gate 2: for every p in {2,3,4}, alpha, beta in [1,4] with at most
    2000 cells, generate -> permute (20 seeds) -> recognize accepts and
    the recovered labeling regenerates the permuted input.  Budget:
    60 s."""
    t0 = time.monotonic()
    combos = [
        (p, a, b)
        for p in (2, 3, 4)
        for a in range(1, 5)
        for b in range(1, 5)
        if strategy_count(p, a) * strategy_count(p, b) <= 2000
    ]
    assert len(combos) == 48
    for p, a, b in combos:
        h = generate_correspondence(p, a, b)
        for seed in range(20):
            shuffled, _, _ = shuffle_with_perms(h, random.Random(seed))
            res = recognize_tableau(shuffled)
            assert res.verdict == ACCEPTED, (p, a, b, seed)
            assert labeling_generates(shuffled, res.labeling), (p, a, b, seed)
    assert time.monotonic() - t0 < 60.0


def test_03_correspondence_distinct_rows():
    """Gate 3: the closed-form distinct-rows rule for correspondences
    (beta >= alpha - 2) equals direct pairwise row comparison on the
    gate-2 grid restricted to alpha >= 2."""
    for p in (2, 3, 4):
        for a in range(2, 5):
            for b in range(1, 5):
                closed = correspondence_rows_distinct(p, a, b)
                direct = not identical_correspondence_rows(p, a, b)
                assert closed == direct == (b >= a - 2), (p, a, b)


def test_04_form_distinct_rows():
    """Gate 4: the three-case closed form for "every form has distinct
    rows" equals the direct all-pairs differentiating-set computation
    for p in [2,5], alpha, beta in [1,6], and the neighbor-only
    reduction agrees with all-pairs mode.  Combos over the evaluation
    budget are skipped by the size guard; the split is pinned so a
    silently shrinking grid fails the gate.  Budget: 120 s."""
    t0 = time.monotonic()
    ran = skipped = 0
    for p in range(2, 6):
        for a in range(1, 7):
            for b in range(1, 7):
                closed = all_forms_rows_distinct(p, a, b)
                try:
                    direct = not empty_differentiating_pairs(p, a, b)
                    neighbor = all_forms_rows_distinct_direct(p, a, b)
                except SizeGuardError:
                    skipped += 1
                    continue
                assert closed == direct == neighbor, (p, a, b)
                ran += 1
    assert ran == 136 and skipped == 8
    assert time.monotonic() - t0 < 120.0


def test_05_counting_properties():
    """Gate 5: zero counterexamples to the five counting facts the
    recognizers lean on: (a) distinct strategies have distinct
    signatures for beta >= alpha - 1; (b, c) single-card moves only
    shrink differentiating sets, and for p >= 3 a differentiating column
    forces singleton winner sets (both inside neighbor_reduction_check);
    (d) strict must-win/may-win separation at beta = 2 alpha; (e) the
    per-candidate winner-count bounds of every two distinct strategies
    are disjoint on some candidate exactly when every form has distinct
    rows (144 points, 54 of them distinct)."""
    for p in range(2, 6):
        for a in range(1, 6):
            for b in range(max(1, a - 1), 7):
                xs = enumerate_strategies(p, a)
                sigs = [signature_of_strategy(x, p, b) for x in xs]
                assert len(set(sigs)) == len(sigs), (p, a, b)

    ran = 0
    for p in range(2, 5):
        for a in range(1, 5):
            for b in range(1, 5):
                try:
                    assert neighbor_reduction_check(p, a, b), (p, a, b)
                    ran += 1
                except SizeGuardError:
                    pass
    assert ran == 48
    assert neighbor_reduction_check(3, 3, 4)

    for p in (3, 4):
        for a in (1, 2, 3):
            beta = 2 * a
            xs = enumerate_strategies(p, a)
            for x, xp in combinations(xs, 2):
                for u, v in ((x, xp), (xp, x)):
                    bset = b_set(u, v)
                    must_u = lu_counts(u, bset, p, beta)[0]
                    may_v = lu_counts(v, bset, p, beta)[1]
                    assert may_v < must_u, (p, a, u, v)

    points = distinct = 0
    for p in range(2, 6):
        for a in range(1, 7):
            for b in range(1, 7):
                rows = winner_table(p, a, b).rows
                bounds = [_count_bounds(row, p) for row in rows]
                separated = all(
                    any(hi_u[c] < lo_v[c] or hi_v[c] < lo_u[c] for c in range(p))
                    for (lo_u, hi_u), (lo_v, hi_v) in combinations(bounds, 2)
                )
                assert separated == all_forms_rows_distinct(p, a, b), (p, a, b)
                points += 1
                distinct += separated
    assert points == 144 and distinct == 54


def test_06_form_recognition_in_regime():
    """Gate 6: for p in {3,4}, beta >= 2 alpha, at most 2000 cells
    (95 parameter points): generated forms under both tie rules plus ten
    seeded random tie resolutions, shuffled, are accepted with the
    unique correct row labeling.  Sampled single-cell perturbations to a
    non-winning candidate are never falsely accepted: each is rejected
    outright or accepted with a labeling that regenerates the perturbed
    grid, which certifies it as a genuinely different valid form (most
    are rejected; the count is pinned)."""
    combos = [
        (p, a, b)
        for p in (3, 4)
        for a in range(1, 8)
        for b in range(2 * a, 80)
        if strategy_count(p, a) * strategy_count(p, b) <= 2000
    ]
    assert len(combos) == 95

    for p, a, b in combos:
        xs = enumerate_strategies(p, a)
        rng = random.Random(1000 * p + 10 * a + b)
        instances = [
            generate_form(p, a, b),
            generate_form(p, a, b, tie_rule="max-index"),
        ]
        instances += [random_resolution(p, a, b, rng) for _ in range(10)]
        for g in instances:
            shuffled, rp, _ = shuffle_with_perms(g, rng)
            res = recognize_tableau(shuffled)
            assert res.verdict == ACCEPTED, (p, a, b)
            for i, x in enumerate(res.labeling.row_labels):
                assert x == xs[rp[i]], (p, a, b, i)

    perturbed = rejected = 0
    for p, a, b in combos:
        g = generate_form(p, a, b)
        h = generate_correspondence(p, a, b)
        cells = [list(row) for row in g.cells]
        n = g.rows * g.cols
        for t in list(range(0, n, max(1, n // 5)))[:5]:
            i, j = divmod(t, g.cols)
            outside = [c for c in range(p) if c not in h.cells[i][j]]
            if not outside:
                continue
            keep = cells[i][j]
            cells[i][j] = outside[0]
            bad = Form(candidates=p, cells=tuple(tuple(row) for row in cells))
            cells[i][j] = keep
            res = recognize_tableau(bad)
            assert res.verdict in (ACCEPTED, REJECTED), (p, a, b, i, j)
            if res.verdict == ACCEPTED:
                assert labeling_generates(bad, res.labeling), (p, a, b, i, j)
            else:
                rejected += 1
            perturbed += 1
    assert perturbed == 474 and rejected == 427


def test_07_plurality_exhaustive():
    """Gate 7: over all 19683 single-card 3x3 grids on three candidates
    the forbidden-pattern verdict equals the oracle verdict; the three
    reference bad grids are rejected with the right pattern name, and
    each is free of the other two patterns.  Budget: 60 s."""
    t0 = time.monotonic()
    for values in product(range(3), repeat=9):
        g = Form(candidates=3, cells=(values[0:3], values[3:6], values[6:9]))
        fast = recognize_plurality_form(g).verdict == ACCEPTED
        assert fast == oracle_recognize(g).is_dav, g.cells

    expected = {"m1": BAD_M1_ROWS, "m2": BAD_M2_ROWS, "m3": BAD_M3_ROWS}
    finders = {"m1": _find_m1, "m2": _find_m2, "m3": _find_m3}
    for name, rows in expected.items():
        g = form(3 if name != "m3" else 4, rows)
        res = recognize_plurality_form(g)
        assert res.verdict == REJECTED
        assert res.witness.pattern == name
        for other, find in finders.items():
            if other != name:
                assert find(g.cells) is None, name
    assert time.monotonic() - t0 < 60.0


def test_08_two_card_regime():
    """Gate 8: at three candidates with two cards each, the winner-count
    route and the oracle agree on every generated instance (both
    tie rules, ten seeded resolutions, shuffled), on every single-cell
    perturbation of the two deterministic forms, and on ten thousand
    seeded random 6x6 grids."""
    rng = random.Random(220)
    generated = [
        generate_form(3, 2, 2),
        generate_form(3, 2, 2, tie_rule="max-index"),
    ]
    generated += [random_resolution(3, 2, 2, rng) for _ in range(10)]
    for g in generated:
        shuffled, _, _ = shuffle_with_perms(g, rng)
        assert recognize_tableau(shuffled).verdict == ACCEPTED
        assert oracle_recognize(shuffled).is_dav

    for g in generated[:2]:
        cells = [list(row) for row in g.cells]
        for i in range(6):
            for j in range(6):
                keep = cells[i][j]
                for v in range(3):
                    if v == keep:
                        continue
                    cells[i][j] = v
                    bad = Form(
                        candidates=3, cells=tuple(tuple(row) for row in cells)
                    )
                    fast = recognize_tableau(bad).verdict == ACCEPTED
                    assert fast == oracle_recognize(bad).is_dav, (i, j, v)
                cells[i][j] = keep

    for _ in range(10_000):
        cells = tuple(
            tuple(rng.randrange(3) for _ in range(6)) for _ in range(6)
        )
        g = Form(candidates=3, cells=cells)
        fast = recognize_tableau(g).verdict == ACCEPTED
        assert fast == oracle_recognize(g).is_dav, cells


def test_09_n_voter_round_trip():
    """Gate 9: two-candidate tableaux for up to four voters, tableau
    size capped at 10^4 cells: generate -> permute every axis ->
    recognize accepts with labels that explain every cell; equal
    plane signatures coincide with identical planes; and on two voters
    the n-voter recognizer agrees with the two-voter one, including on
    perturbed non-valid inputs."""
    vectors = (
        [(w,) for w in (1, 5, 60)]
        + [tuple(v) for v in product(range(1, 6), repeat=2)]
        + [tuple(v) for v in product(range(1, 4), repeat=3)]
        + [(5, 5, 5), (9, 9, 9)]
        + [tuple(v) for v in product(range(1, 3), repeat=4)]
        + [(3, 3, 3, 3), (9, 9, 9, 9), (99, 99)]
    )
    assert all(prod(w + 1 for w in v) <= 10_000 for v in vectors)

    for weights in vectors:
        rng = random.Random(7 * sum(weights) + len(weights))
        for kind in ("correspondence", "form"):
            nt = generate_n_tableau(weights, kind=kind)
            perms = [rng.sample(range(w + 1), w + 1) for w in weights]
            permuted = permute_axes(nt, perms)
            res = recognize_n_tableau(permuted)
            assert res.verdict == ACCEPTED, (weights, kind)
            assert labels_explain(permuted, res.labeling.axis_labels)

            signature = plane_signature(nt)
            for axis, w in enumerate(weights):
                for z, zp in combinations(range(w + 1), 2):
                    same_sig = (
                        signature[axis][z][A],
                        signature[axis][z][B],
                    ) == (
                        signature[axis][zp][A],
                        signature[axis][zp][B],
                    )
                    same_plane = plane(nt, axis, z) == plane(nt, axis, zp)
                    assert same_sig == same_plane, (weights, kind, axis, z, zp)

    for a, b in product(range(1, 6), repeat=2):
        for kind in ("correspondence", "form"):
            nt = generate_n_tableau((a, b), kind=kind)
            direct = recognize_n_tableau(nt).verdict
            bridged = recognize_tableau(n_tableau_as_grid(nt)).verdict
            assert direct == bridged == ACCEPTED, (a, b, kind)

            # Flip the first cell whose winner is forced (no tie); both
            # recognizers must reject the result.
            cells = list(nt.cells)
            for idx, cell in enumerate(cells):
                z = divmod(idx, b + 1)
                if 2 * (z[0] + z[1]) == a + b:
                    continue
                if kind == "correspondence":
                    cells[idx] = (
                        frozenset({A}) if cell != frozenset({A}) else frozenset({B})
                    )
                else:
                    cells[idx] = A if cell != A else B
                bad = NTableau(weights=(a, b), kind=kind, cells=tuple(cells))
                assert recognize_n_tableau(bad).verdict == REJECTED, (a, b, kind)
                grid_verdict = recognize_tableau(n_tableau_as_grid(bad)).verdict
                assert grid_verdict == REJECTED, (a, b, kind)
                break


def test_10_large_instance_speed():
    """Gate 10: correspondence recognition at two candidates with sixty
    cards each (61 x 61 cells) finishes well inside the cubic-time
    budget.  Budget: 5 s."""
    h = generate_correspondence(2, 60, 60)
    t0 = time.monotonic()
    res = recognize_tableau(h)
    elapsed = time.monotonic() - t0
    assert res.verdict == ACCEPTED
    assert labeling_generates(h, res.labeling)
    assert elapsed < 5.0


def test_11_leftover_forms_agree_with_oracle():
    """Gate 11: at (3,3,3), (4,4,4) and (5,3,3), where some form has two
    identical rows in either orientation and the row search decides,
    ten seeded random tie resolutions, ten one-cell perturbations of
    them and ten of them with one row copied over another, all
    shuffled, get the oracle's verdict; every valid form is accepted,
    and every accept carries a labeling that regenerates its input.
    Budget: 5 s."""
    t0 = time.monotonic()
    for p, a, b in [(3, 3, 3), (4, 4, 4), (5, 3, 3)]:
        assert not all_forms_rows_distinct(p, a, b)
        rng = random.Random(11_000 + 100 * p + 10 * a + b)
        for k in range(10):
            valid = random_resolution(p, a, b, rng)
            cells = [list(row) for row in valid.cells]
            i, j = rng.randrange(len(cells)), rng.randrange(len(cells[0]))
            cells[i][j] = rng.choice([c for c in range(p) if c != cells[i][j]])
            perturbed = Form(candidates=p, cells=tuple(map(tuple, cells)))
            cells = [list(row) for row in valid.cells]
            i, j = rng.sample(range(len(cells)), 2)
            cells[i] = cells[j]
            copied = Form(candidates=p, cells=tuple(map(tuple, cells)))
            for name, g in (("valid", valid), ("perturbed", perturbed), ("copied", copied)):
                g, _, _ = shuffle_with_perms(g, rng)
                res = recognize_tableau(g)
                is_dav = oracle_recognize(g, max_cells=10**7).is_dav
                assert res.verdict == (ACCEPTED if is_dav else REJECTED), (p, a, b, k, name)
                if name == "valid":
                    assert res.verdict == ACCEPTED, (p, a, b, k)
                if res.verdict == ACCEPTED:
                    assert labeling_generates(g, res.labeling), (p, a, b, k, name)
    assert time.monotonic() - t0 < 5.0

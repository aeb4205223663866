"""Bipartite matching helpers used by the recognizers."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davote import ACCEPTED, REJECTED, UNDECIDED, generate_correspondence, generate_form, permute_tableau, recognize_tableau
from davote import matching
from davote.core import (
    Correspondence,
    Form,
    _candidate_masks,
    enumerate_strategies,
    winner_row,
    winner_table,
)
from davote.matching import accept_counted_rows, lookup_columns, match_column_classes
from davote.plurality import ForbiddenWitness, recognize_plurality_form
from conftest import (
    A,
    B,
    C,
    argmax_set,
    column_adjacency,
    count_perfect_matchings,
    equality_adjacency,
    maximum_matching,
    random_resolution,
    reference_class_matching,
)


class TestMaximumMatching:
    def test_complete_graph(self):
        match = maximum_matching([[0, 1], [0, 1]], 2)
        assert sorted(match) == [0, 1]

    def test_forced_chain(self):
        assert maximum_matching([[0], [0, 1], [1, 2]], 3) == [0, 1, 2]

    def test_needs_augmenting_path(self):
        # Greedy gives 0 -> 0; vertex 1 must displace it.
        assert maximum_matching([[0, 1], [0]], 2) == [1, 0]

    def test_no_perfect_matching(self):
        match = maximum_matching([[0], [0]], 2)
        assert match.count(None) == 1

    def test_isolated_left_vertex(self):
        match = maximum_matching([[0], []], 2)
        assert match == [0, None]

    def test_augmenting_chain_longer_than_recursion_limit(self):
        # Left i < n-1 first takes right i; the last left vertex then
        # shifts every earlier one along a path of n-1 edges.
        n = sys.getrecursionlimit() + 500
        adjacency = [[i, i + 1] for i in range(n - 1)] + [[0]]
        assert maximum_matching(adjacency, n) == list(range(1, n)) + [0]

    def test_matches_recursive_search(self):
        rng = random.Random(5)
        for _ in range(300):
            n_left, n_right = rng.randint(0, 8), rng.randint(1, 8)
            adjacency = [
                rng.sample(range(n_right), rng.randint(0, n_right)) for _ in range(n_left)
            ]
            assert maximum_matching(adjacency, n_right) == _recursive_matching(adjacency, n_right)


def _recursive_matching(adjacency, n_right):
    """Kuhn's augmenting-path search written recursively, as reference."""
    match_left = [None] * len(adjacency)
    match_right = [None] * n_right

    def augment(i, seen):
        for j in adjacency[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_right[j] is None or augment(match_right[j], seen):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(len(adjacency)):
        augment(i, [False] * n_right)
    return match_left


class TestCountPerfectMatchings:
    def test_complete_bipartite(self):
        adjacency = [[0, 1, 2]] * 3
        assert count_perfect_matchings(adjacency, 3) == 6

    def test_unique(self):
        assert count_perfect_matchings([[0], [0, 1], [1, 2]], 3) == 1

    def test_rectangular_is_zero(self):
        assert count_perfect_matchings([[0, 1]], 2) == 0

    def test_cap(self):
        adjacency = [[0, 1, 2, 3]] * 4
        assert count_perfect_matchings(adjacency, 4, cap=10) == 10


def _brute_adjacency(cells, row_labels, ys, require_equal):
    out = []
    for j in range(len(cells[0])):
        fits = []
        for t, y in enumerate(ys):
            ok = True
            for i, x in enumerate(row_labels):
                am = argmax_set(tuple(a + b for a, b in zip(x, y)))
                if (cells[i][j] != am) if require_equal else (cells[i][j] not in am):
                    ok = False
                    break
            if ok:
                fits.append(t)
        out.append(fits)
    return out


class TestColumnAdjacency:
    def test_membership_mode_matches_brute_force(self):
        g = generate_form(3, 1, 2, "max-index")
        table = winner_table(3, 1, 2)
        xs, ys, rows = table.xs, table.ys, table.rows
        got = column_adjacency(g.cells, rows)
        assert got == _brute_adjacency(g.cells, xs, ys, False)

    def test_duplicate_columns_share_edges(self):
        g = generate_form(3, 1, 2)
        rows = winner_table(3, 1, 2).rows
        adjacency = column_adjacency(g.cells, rows)
        cols = [tuple(g.cells[i][j] for i in range(g.rows)) for j in range(g.cols)]
        for j1 in range(len(cols)):
            for j2 in range(j1 + 1, len(cols)):
                if cols[j1] == cols[j2]:
                    assert adjacency[j1] == adjacency[j2]


class TestLookupColumns:
    def test_labels_fit_equality_brute_force(self):
        h = generate_correspondence(3, 2, 2)
        table = winner_table(3, 2, 2)
        xs, ys, rows = table.xs, table.ys, table.rows
        brute = _brute_adjacency(h.cells, xs, ys, True)
        labels = lookup_columns(h.cells, rows)
        assert all(t in fits for t, fits in zip(labels, brute))

    def test_generated_columns_keep_their_strategy(self):
        h = generate_correspondence(2, 3, 3)
        ys = enumerate_strategies(2, 3)
        rows = [winner_row(x, ys) for x in enumerate_strategies(2, 3)]
        assert lookup_columns(h.cells, rows) == list(range(len(ys)))

    def test_agrees_with_matching_on_repeated_columns(self):
        # beta > alpha + 2 gives repeated columns.  A perturbed cell
        # leaves some column unlabeled either way; the partial labels
        # may then differ, since neither is used.
        rng = random.Random(11)
        repeated = unlabeled = 0
        for p, alpha, beta in [(2, 1, 4), (2, 2, 6), (3, 1, 4), (3, 2, 5), (4, 1, 4)]:
            table = winner_table(p, alpha, beta)
            ys, rows = table.ys, table.rows
            for trial in range(6):
                cells = [list(row) for row in rows]
                if trial % 2:
                    i, j = rng.randrange(len(cells)), rng.randrange(len(ys))
                    cells[i][j] = frozenset({0}) if cells[i][j] != frozenset({0}) else frozenset({1})
                rp = rng.sample(range(len(rows)), len(rows))
                cp = rng.sample(range(len(ys)), len(ys))
                t = permute_tableau(Correspondence(p, tuple(map(tuple, cells))), rp, cp)
                labeled = [rows[r] for r in rp]
                repeated += len(set(zip(*t.cells))) < t.cols
                got = lookup_columns(t.cells, labeled)
                want = maximum_matching(equality_adjacency(t.cells, labeled), len(ys))
                assert (None in got) == (None in want)
                if None in want:
                    unlabeled += 1
                else:
                    assert got == want
        assert repeated and unlabeled


def _check_labels(cells, rows, labels):
    """Returned labels are distinct, fit their columns, and rise inside a class."""
    adjacency = column_adjacency(cells, rows)
    given = [t for t in labels if t is not None]
    assert len(given) == len(set(given))
    assert all(t is None or t in fits for t, fits in zip(labels, adjacency))
    classes: dict[tuple, list[int]] = {}
    for col, t in zip(zip(*cells), labels):
        classes.setdefault(col, []).append(t)
    for ts in classes.values():
        given = [t for t in ts if t is not None]
        assert given == sorted(given) and ts[: len(given)] == given


def _masks(rows, p):
    """The matcher's input for fixed rows: per row, per candidate, the fitting strategies."""
    return [_candidate_masks(row, p) for row in rows]


class TestMatchColumnClasses:
    def test_agrees_with_kuhn_on_random_instances(self):
        rng = random.Random(17)
        outcomes = set()
        for _ in range(600):
            p, k, n = rng.randint(2, 4), rng.randint(1, 4), rng.randint(1, 9)
            subsets = [frozenset(s) for r in range(1, p + 1) for s in combinations(range(p), r)]
            rows = [tuple(rng.choice(subsets) for _ in range(n)) for _ in range(k)]
            # Columns drawn from a hidden bijection, so about half the
            # instances have a perfect matching; some cells then move.
            hidden = rng.sample(range(n), n)
            cells = [[rng.choice(sorted(rows[i][t])) for t in hidden] for i in range(k)]
            for _ in range(rng.choice([0, 0, 1, 2])):
                cells[rng.randrange(k)][rng.randrange(n)] = rng.randrange(p)
            labels = match_column_classes(cells, _masks(rows, p))
            want = maximum_matching(column_adjacency(cells, rows), n)
            assert (None in labels) == (None in want), (cells, rows)
            _check_labels(cells, rows, labels)
            outcomes.add(None in labels)
        assert outcomes == {True, False}

    def test_agrees_with_kuhn_on_shuffled_and_perturbed_forms(self):
        rng = random.Random(23)
        outcomes = set()
        for p, alpha, beta in [(3, 1, 4), (3, 2, 2), (3, 2, 5), (4, 1, 3), (3, 1, 9), (4, 2, 2)]:
            table = winner_table(p, alpha, beta)
            ys, rows = table.ys, table.rows
            for trial in range(8):
                cells = [list(row) for row in random_resolution(p, alpha, beta, rng).cells]
                for _ in range(trial % 3):
                    cells[rng.randrange(len(cells))][rng.randrange(len(ys))] = rng.randrange(p)
                rp = rng.sample(range(len(rows)), len(rows))
                cp = rng.sample(range(len(ys)), len(ys))
                g = permute_tableau(Form(p, tuple(map(tuple, cells))), rp, cp)
                labeled = [rows[r] for r in rp]
                labels = match_column_classes(g.cells, _masks(labeled, p))
                want = maximum_matching(column_adjacency(g.cells, labeled), len(ys))
                assert (None in labels) == (None in want), (p, alpha, beta, trial)
                _check_labels(g.cells, labeled, labels)
                outcomes.add(None in labels)
        assert outcomes == {True, False}

    def test_augmenting_chain_across_more_classes_than_recursion_limit(self):
        # Column j < n-1 (content j) fits strategies j and j+1, the last
        # column (content n-1) only strategy 0.  The greedy fill gives
        # column j strategy j, so the last column needs a chain through
        # every other class.
        n = sys.getrecursionlimit() + 500
        row = tuple(
            frozenset({t - 1, t} & set(range(n - 1))) | ({n - 1} if t == 0 else set())
            for t in range(n)
        )
        labels = match_column_classes([list(range(n))], _masks([row], n))
        assert labels == list(range(1, n)) + [0]

    def test_class_with_too_few_fitting_strategies_is_rejected(self):
        # Content 0 fits strategies 0 and 1 only, but fills three columns.
        rows = [(frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}))]
        cells = [[0, 1, 0, 0]]
        labels = match_column_classes(cells, _masks(rows, 2))
        assert None in labels
        assert None in maximum_matching(column_adjacency(cells, rows), 4)
        _check_labels(cells, rows, labels)


@st.composite
def class_matching_inputs(draw):
    """Form cells and the row masks of random winner-set rows, for `match_column_classes`.

    Half the inputs take their cells from a hidden bijection of columns
    to strategies, so a perfect matching exists unless a moved cell
    breaks it, and the greedy fill alone often misses it; the other half
    get arbitrary cells.
    """
    p, k, n = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 14))
    subsets = [frozenset(s) for r in range(1, p + 1) for s in combinations(range(p), r)]
    rows = draw(st.lists(st.lists(st.sampled_from(subsets), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    if draw(st.booleans()):
        hidden = draw(st.permutations(range(n)))
        cells = [[draw(st.sampled_from(sorted(rows[i][t]))) for t in hidden] for i in range(k)]
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] = draw(
                st.integers(0, p - 1))
    else:
        cells = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    return cells, _masks(rows, p)


def _greedy_shortfall(cells, masks) -> int:
    """Columns the greedy fill of `match_column_classes` leaves without a strategy."""
    classes: dict[tuple, int] = {}
    for col in zip(*cells):
        classes[col] = classes.get(col, 0) + 1
    free = short = 0
    for col, size in classes.items():
        fit = ~free
        for m, v in zip(masks, col):
            fit &= m[v]
        take = [t for t in range(fit.bit_length()) if fit >> t & 1][:size]
        short += size - len(take)
        free |= sum(1 << t for t in take)
    return short


class TestLabelsEqualTheReference:
    """`match_column_classes` returns exactly the labels of the untrimmed matcher."""

    @given(class_matching_inputs())
    @settings(max_examples=300, deadline=None)
    def test_random_masks_and_cells(self, inputs):
        cells, masks = inputs
        assert match_column_classes(cells, masks) == reference_class_matching(cells, masks)

    def test_a_form_the_greedy_fill_leaves_short(self):
        # A shuffled random-tie (3, 1, 40) form under its own row labels:
        # the greedy fill leaves 17 of 861 columns short, and augmenting
        # chains complete the matching.
        table = winner_table(3, 1, 40)
        rng = random.Random(0)
        g = random_resolution(3, 1, 40, rng)
        rp, cp = rng.sample(range(g.rows), g.rows), rng.sample(range(g.cols), g.cols)
        g = permute_tableau(g, rp, cp)
        masks = [table.masks[r] for r in rp]
        assert (g.cols, _greedy_shortfall(g.cells, masks)) == (861, 17)
        labels = match_column_classes(g.cells, masks)
        assert labels == reference_class_matching(g.cells, masks)
        assert sorted(labels) == list(range(861))
        _check_labels(g.cells, [table.rows[r] for r in rp], labels)


class TestAcceptRowLabels:
    @pytest.mark.parametrize(
        "t,matcher",
        [
            (generate_correspondence(3, 2, 2), "lookup_columns"),
            (generate_form(3, 2, 2), "match_column_classes"),
            (generate_form(3, 2, 5, "max-index"), "match_column_classes"),
        ],
    )
    def test_wrong_column_labels_fail_regeneration(self, monkeypatch, t, matcher):
        # The column stage hands out a permutation of the strategies, but
        # not one that reproduces the input: only regeneration notices.
        real = getattr(matching, matcher)
        handed = []

        def rotated(cells, rows):
            labels = real(cells, rows)
            handed.append(labels)
            return labels[1:] + labels[:1]

        monkeypatch.setattr(matching, matcher, rotated)
        res = recognize_tableau(t)
        assert handed and sorted(handed[0]) == list(range(t.cols))
        assert res.verdict == REJECTED
        assert res.witness == "labeling fails to regenerate the input"


class TestAcceptCountedRows:
    def test_rows_fitting_several_strategies_take_free_ones_in_row_order(self):
        # Rows 0 and 2 repeat nothing, so they fit every single-card
        # strategy; row 1 repeats B and holds it.  Row 0 then takes A,
        # row 2 the C left over.
        g = Form(candidates=3, cells=((B, C, A), (B, B, B), (B, C, A)))
        res = accept_counted_rows(g, "plurality", winner_table(3, 1, 1))
        assert res.verdict == ACCEPTED
        assert res.labeling.row_labels == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rows_outnumbering_their_fits_are_rejected(self):
        # Three identical rows over the two strategies of the (2, 1, 1)
        # table, each fitting both: no labeling by distinct strategies
        # exists, and the search ends after trying every first label.
        g = Form(candidates=2, cells=((A, B), (A, B), (A, B)))
        res = accept_counted_rows(g, "plurality", winner_table(2, 1, 1))
        assert res.verdict == REJECTED
        assert res.witness == (
            "no row labeling the bounds allow regenerates the input "
            "(2 search nodes)"
        )

    def test_first_leaf_decides_a_single_card_form(self):
        # Eight distinct rows that each repeat nothing fit every
        # strategy: 8! row labelings, all rejected, and the row search
        # spends its node budget.  The single-card route never searches:
        # in a valid form such rows all equal the column labels.
        g = Form(candidates=8, cells=tuple(tuple((i + j) % 8 for j in range(8)) for i in range(8)))
        table = winner_table(8, 1, 1)
        assert accept_counted_rows(g, "plurality", table).verdict == UNDECIDED
        for res in (recognize_plurality_form(g), recognize_tableau(g)):
            assert res.verdict == REJECTED
            assert isinstance(res.witness, ForbiddenWitness)

    def test_identical_rows_stop_where_too_few_strategies_are_left(self):
        # 19 identical permutation rows fit every single-card strategy
        # and the last row, nineteen 0s and a 5, fits only (1, 0, ..., 0).
        # Identical rows take increasing strategies, so a prefix is cut
        # once fewer strategies remain than identical rows follow; without
        # that cut the search spent its 10,000-node budget undecided.
        g = Form(candidates=20, cells=(tuple(range(20)),) * 19 + ((0,) * 19 + (5,),))
        res = accept_counted_rows(g, "row-search", winner_table(20, 1, 1))
        assert res.verdict == REJECTED
        assert res.witness == (
            "no row labeling the bounds allow regenerates the input "
            "(191 search nodes)"
        )

    def test_row_fitting_no_strategy_is_the_witness(self):
        cells = [list(row) for row in generate_form(3, 1, 2).cells]
        cells[1] = [A] * len(cells[1])
        g = Form(candidates=3, cells=tuple(map(tuple, cells)))
        res = accept_counted_rows(g, "lu-counting", winner_table(3, 1, 2))
        assert res.verdict == REJECTED and res.method == "lu-counting"
        assert res.witness == (
            "row 1 winner counts [6, 0, 0] fit the bounds of 0 strategies "
            "instead of exactly one"
        )
        assert recognize_tableau(g).witness == res.witness

    def test_row_wider_than_the_table_fits_no_strategy(self):
        # Four columns against the three of the (3, 1, 1) table: a count
        # of 4 lies above every bound, so the row fits nothing.
        g = Form(candidates=3, cells=((A, A, A, A), (A, B, C, A)))
        res = accept_counted_rows(g, "plurality", winner_table(3, 1, 1))
        assert res.verdict == REJECTED
        assert res.witness == (
            "row 0 winner counts [4, 0, 0] fit the bounds of 0 strategies "
            "instead of exactly one"
        )

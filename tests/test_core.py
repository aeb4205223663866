"""Strategy enumeration, tableau generation, signatures, labelings."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davote import (
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    ParameterError,
    generate_correspondence,
    generate_form,
    generate_n_tableau,
    permute_tableau,
)
from davote.core import (
    CellTypeError,
    WinnerTable,
    _count_bounds,
    default_names,
    enumerate_strategies,
    infer_parameters,
    strategy_count,
    transpose_tableau,
    winner_row,
    winner_table,
)
from davote.recognizer import recognize_tableau
from conftest import (
    A,
    B,
    CapExceededError,
    argmax_set,
    corr,
    enumerate_all_forms,
    form,
    labeling_generates,
    signature_of_strategy,
    signature_rows,
    winner_counts,
)

params = st.tuples(st.integers(2, 4), st.integers(1, 5))


class TestEnumerateStrategies:
    def test_two_candidates_three_cards(self):
        assert enumerate_strategies(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_three_candidates_two_cards(self):
        got = enumerate_strategies(3, 2)
        assert got[0] == (2, 0, 0)
        assert got[-1] == (0, 0, 2)
        assert len(got) == 6

    def test_single_card(self):
        assert enumerate_strategies(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @given(params)
    def test_count_order_and_weights(self, pw):
        p, w = pw
        xs = enumerate_strategies(p, w)
        assert len(xs) == strategy_count(p, w) == comb(w + p - 1, p - 1)
        assert all(sum(x) == w and min(x) >= 0 for x in xs)
        assert len(set(xs)) == len(xs)
        assert xs == sorted(xs, reverse=True)

    @pytest.mark.parametrize("p,w", [(1, 1), (0, 2), (2, 0), (3, -1)])
    def test_rejects_bad_parameters(self, p, w):
        with pytest.raises(ParameterError):
            enumerate_strategies(p, w)

    def test_many_candidates_need_no_recursion(self):
        # More candidates than the interpreter's default recursion limit.
        p = 1500
        assert enumerate_strategies(p, 1) == [
            tuple(int(a == j) for a in range(p)) for j in range(p)
        ]


class TestArgmax:
    @pytest.mark.parametrize(
        "z,expected",
        [
            ((3, 3), {0, 1}),
            ((5, 1), {0}),
            ((2, 2, 2), {0, 1, 2}),
            ((0, 1, 0), {1}),
            ((4, 2, 4), {0, 2}),
        ],
    )
    def test_examples(self, z, expected):
        assert argmax_set(z) == frozenset(expected)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6))
    def test_matches_naive_max(self, zs):
        z = tuple(zs)
        top = max(z)
        assert argmax_set(z) == frozenset(i for i, v in enumerate(z) if v == top)


@st.composite
def row_and_opponents(draw):
    """A strategy-like vector x and up to 12 opponents, over p = 2-7 or 13 candidates."""
    p = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 13]))
    vec = st.tuples(*[st.integers(0, 6)] * p)
    return draw(vec), draw(st.lists(vec, max_size=12))


class TestWinnerRow:
    @given(row_and_opponents())
    @settings(max_examples=200, deadline=None)
    def test_matches_argmax_of_each_sum(self, drawn):
        x, ys = drawn
        want = tuple(argmax_set(tuple(a + b for a, b in zip(x, y))) for y in ys)
        assert winner_row(x, ys) == want

    @pytest.mark.parametrize("key", [(2, 4, 5), (3, 3, 3), (5, 2, 3), (13, 1, 2)])
    def test_equal_sets_are_one_object_within_a_table(self, key):
        cells = [am for row in WinnerTable.build(*key).rows for am in row]
        assert len({id(am) for am in cells}) == len(set(cells))


class TestGenerateCorrespondence:
    def test_two_voters_three_cards(self, corr_2_3_3):
        assert generate_correspondence(2, 3, 3) == corr_2_3_3

    def test_unit_weights_two_candidates(self):
        got = generate_correspondence(2, 1, 1)
        assert got == corr(2, (({A}, {A, B}), ({A, B}, {B})))

    def test_unit_weights_three_candidates(self):
        got = generate_correspondence(3, 1, 1)
        for i in range(3):
            for j in range(3):
                want = {i} if i == j else {i, j}
                assert got.cells[i][j] == frozenset(want)

    @given(params, st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_cells_are_argmax_sets(self, pa, beta):
        p, alpha = pa
        h = generate_correspondence(p, alpha, beta)
        xs = enumerate_strategies(p, alpha)
        ys = enumerate_strategies(p, beta)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                z = tuple(a + b for a, b in zip(x, y))
                assert h.cells[i][j] == argmax_set(z)


class TestWinnerTable:
    def test_second_call_returns_the_same_table(self):
        assert winner_table(3, 2, 3) is winner_table(3, 2, 3)

    def test_parts_are_tuples(self):
        table = winner_table(3, 2, 3)
        xs, ys, rows = table.xs, table.ys, table.rows
        assert all(type(part) is tuple for part in (xs, ys, rows))
        assert all(type(row) is tuple for row in rows)
        assert table.p == 3
        assert xs == tuple(enumerate_strategies(3, 2))
        assert ys == tuple(enumerate_strategies(3, 3))
        assert rows == generate_correspondence(3, 2, 3).cells
        assert WinnerTable.build(3, 2, 3) == table

    def test_generation_leaves_the_cache_alone(self):
        winner_table.cache_clear()
        generate_correspondence(3, 2, 4)
        generate_form(4, 2, 3, "max-index")
        assert winner_table.cache_info().currsize == 0

    def test_cache_holds_at_most_its_bound(self):
        bound = winner_table.cache_info().maxsize
        assert bound is not None
        for beta in range(1, bound + 5):
            winner_table(3, 1, beta)
            assert winner_table.cache_info().currsize <= bound
        assert winner_table.cache_info().currsize == bound


class TestTableIndex:
    """The row data a `WinnerTable` keeps: `count_fits`, `masks` and `signature_codes`."""

    @pytest.mark.parametrize("p,alpha,beta", [(3, 2, 3), (4, 1, 2), (5, 2, 2), (6, 1, 1)])
    def test_matches_the_table_rows(self, p, alpha, beta):
        table = winner_table(p, alpha, beta)
        rows, sigs = table.rows, signature_rows(table)
        bounds = [_count_bounds(row, p) for row in rows]
        for row, (_, hi), m in zip(rows, bounds, table.masks):
            assert hi == winner_counts(row, p)
            assert m == tuple(
                sum(1 << t for t, am in enumerate(row) if v in am) for v in range(p)
            )
        assert sorted(xi for xis in sigs.values() for xi in xis) == list(range(len(rows)))
        # The codes key the same groups, in the same order, by one integer each.
        base = len(table.ys) + 1
        assert list(table.signature_codes.items()) == [
            (sum(n * base**a for a, n in enumerate(sig)), xis) for sig, xis in sigs.items()
        ]

    def test_parts_are_immutable(self):
        table = winner_table(3, 2, 3)
        fits, masks, codes = table.count_fits, table.masks, table.signature_codes
        assert all(type(part) is tuple for part in (fits, masks, *fits, *masks))
        assert all(type(xis) is tuple for xis in codes.values())
        with pytest.raises(TypeError):
            codes[0] = (0,)
        for name in ("p", "rows", "count_fits", "masks", "signature_codes"):
            with pytest.raises(FrozenInstanceError):
                setattr(table, name, ())

    def test_second_call_returns_the_same_index(self):
        table = winner_table(3, 2, 3)
        for name in ("count_fits", "masks", "signature_codes"):
            assert getattr(table, name) is getattr(winner_table(3, 2, 3), name)

    def test_generation_leaves_both_caches_alone(self):
        winner_table.cache_clear()
        generate_correspondence(3, 2, 4)
        generate_form(4, 2, 3, "max-index")
        assert winner_table.cache_info().currsize == 0
        # A table built afterwards holds no row data until one is read.
        table = vars(winner_table(3, 2, 4))
        assert not {"count_fits", "masks", "signature_codes"} & table.keys()

    def test_parts_are_built_on_first_read(self):
        winner_table.cache_clear()
        h = generate_correspondence(3, 2, 3)
        recognize_tableau(permute_tableau(h, [5, 0, 1, 2, 3, 4], list(range(h.cols))))
        table = vars(winner_table(3, 2, 3))
        assert "signature_codes" in table and "masks" not in table
        g = generate_form(3, 1, 2, "max-index")
        assert recognize_tableau(permute_tableau(g, [2, 0, 1], list(range(g.cols)))).accepted
        table = vars(winner_table(3, 1, 2))
        assert {"count_fits", "masks"} <= table.keys() and "signature_codes" not in table

    @pytest.mark.parametrize(
        "p,alpha,beta",
        [(3, 2, 30), (3, 5, 20), (4, 3, 3), (4, 3, 12), (5, 2, 2), (8, 2, 2), (20, 1, 1)],
    )
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_count_fits_and_the_bounds_agree(self, p, alpha, beta, data):
        # For counts drawn around each row's bounds, the AND of the p
        # index masks is the set of rows a scan of every row's bounds finds.
        table = winner_table(p, alpha, beta)
        index, m = table.count_fits, len(table.ys)
        bounds = [_count_bounds(row, p) for row in table.rows]
        assert len(index) == p and all(len(line) == m + 1 for line in index)
        for lo, hi in bounds:
            counts = [data.draw(st.integers(max(l - 1, 0), min(h + 1, m))) for l, h in zip(lo, hi)]
            fit = (1 << len(bounds)) - 1
            for a, n in enumerate(counts):
                fit &= index[a][n]
            assert fit == sum(
                1 << xi
                for xi, (lo_x, hi_x) in enumerate(bounds)
                if all(l <= n <= h for l, n, h in zip(lo_x, counts, hi_x))
            )

    def test_count_fits_is_tuples_built_only_for_forms(self):
        winner_table.cache_clear()
        h = generate_correspondence(3, 2, 3)
        assert recognize_tableau(permute_tableau(h, [5, 0, 1, 2, 3, 4], list(range(h.cols)))).accepted
        assert "count_fits" not in vars(winner_table(3, 2, 3))
        g = generate_form(3, 2, 3, "max-index")
        assert recognize_tableau(permute_tableau(g, [5, 0, 1, 2, 3, 4], list(range(g.cols)))).accepted
        assert "count_fits" in vars(winner_table(3, 2, 3))
        index = winner_table(3, 2, 3).count_fits
        assert type(index) is tuple and all(type(line) is tuple for line in index)
        with pytest.raises(FrozenInstanceError):
            winner_table(3, 2, 3).count_fits = ()

    def test_bound_is_the_table_bound_and_evictions_keep_results(self):
        bound = winner_table.cache_info().maxsize
        rng = random.Random(5)
        instances = []
        for beta in range(2, bound + 4):
            g = generate_form(3, 1, beta, "max-index")
            rows, cols = rng.sample(range(g.rows), g.rows), rng.sample(range(g.cols), g.cols)
            instances.append(permute_tableau(g, rows, cols))
        h = generate_correspondence(3, 2, 3)
        instances.append(permute_tableau(h, [5, 0, 1, 2, 3, 4], list(range(h.cols))))
        first = [recognize_tableau(t) for t in instances]
        assert {res.method for res in first} == {"lu-counting", "signature-matching"}
        for t, res in zip(instances, first):
            assert res.accepted and labeling_generates(t, res.labeling)
        assert winner_table.cache_info().currsize == bound
        # The first triple's table and its row data were dropped since.
        for t, res in zip(instances, first):
            assert recognize_tableau(t) == res


def _plain_counts(cells, p):
    counts = [0] * p
    for cell in cells:
        for a in cell if isinstance(cell, frozenset) else (cell,):
            counts[a] += 1
    return tuple(counts)


class TestWinnerCounts:
    @pytest.mark.parametrize("p,alpha,beta", [(3, 2, 3), (4, 2, 2), (5, 1, 3)])
    def test_matches_a_plain_count(self, p, alpha, beta):
        rng = random.Random(100 * p + 10 * alpha + beta)
        subsets = [frozenset(s) for r in range(1, p + 1) for s in combinations(range(p), r)]
        rows = winner_table(p, alpha, beta).rows
        for row in rows:
            # Equal winner sets are one object in the table, distinct
            # objects when read from input.
            unshared = tuple(frozenset(set(am)) for am in row)
            assert len(set(map(id, unshared))) == len(row)
            random_sets = tuple(rng.choice(subsets) for _ in row)
            winners = tuple(rng.choice(sorted(am)) for am in row)
            for cells in (row, unshared, random_sets, winners):
                assert winner_counts(cells, p) == _plain_counts(cells, p)


class TestGenerateForm:
    def test_min_index_three_cards(self):
        got = generate_form(2, 3, 3, "min-index")
        assert got == form(2, ((A, A, A, A), (A, A, A, B), (A, A, B, B), (A, B, B, B)))

    def test_max_index_three_cards(self):
        got = generate_form(2, 3, 3, "max-index")
        assert got == form(2, ((A, A, A, B), (A, A, B, B), (A, B, B, B), (B, B, B, B)))

    def test_unknown_tie_rule(self):
        with pytest.raises(ParameterError):
            generate_form(2, 1, 1, "coin-flip")

    @given(params, st.integers(1, 4), st.sampled_from(["min-index", "max-index"]))
    @settings(max_examples=30, deadline=None)
    def test_form_cell_inside_correspondence_cell(self, pa, beta, rule):
        p, alpha = pa
        h = generate_correspondence(p, alpha, beta)
        g = generate_form(p, alpha, beta, rule)
        for i in range(h.rows):
            for j in range(h.cols):
                assert g.cells[i][j] in h.cells[i][j]


class TestEnumerateAllForms:
    def test_counts(self):
        assert len(enumerate_all_forms(2, 3, 3)) == 16
        assert len(enumerate_all_forms(2, 1, 1)) == 4

    def test_tie_free_instance_has_one_form(self):
        forms = enumerate_all_forms(2, 1, 2)
        assert forms == [form(2, ((A, A, B), (A, B, B)))]

    def test_forms_distinct_and_consistent(self):
        h = generate_correspondence(2, 3, 3)
        forms = enumerate_all_forms(2, 3, 3)
        assert len(set(forms)) == 16
        for g in forms:
            for i in range(h.rows):
                for j in range(h.cols):
                    assert g.cells[i][j] in h.cells[i][j]
        assert generate_form(2, 3, 3, "min-index") in forms
        assert generate_form(2, 3, 3, "max-index") in forms

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_all_forms(2, 3, 3, cap=15)


class TestSignatures:
    def test_extreme_strategies(self):
        assert signature_of_strategy((3, 0), 2, 3) == (4, 1)
        assert signature_of_strategy((0, 3), 2, 3) == (1, 4)

    def test_balanced_strategy(self):
        # x = (1, 1) against weight-2 replies: sums (3,1), (2,2), (1,3).
        assert signature_of_strategy((1, 1), 2, 2) == (2, 2)

    def test_row_signature_of_correspondence(self, corr_2_3_3):
        assert winner_counts(corr_2_3_3.cells[0], 2) == (4, 1)
        assert winner_counts(corr_2_3_3.cells[3], 2) == (1, 4)

    def test_row_signature_of_form(self, form_repeated_rows):
        assert winner_counts(form_repeated_rows.cells[1], 2) == (2, 2)
        assert winner_counts(form_repeated_rows.cells[2], 2) == (2, 2)

    def test_bad_strategy(self):
        with pytest.raises(ParameterError):
            signature_of_strategy((1, 0, 0), 2, 2)

    @given(params, st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_generated_rows_carry_their_strategy_signature(self, pa, beta):
        p, alpha = pa
        h = generate_correspondence(p, alpha, beta)
        for i, x in enumerate(enumerate_strategies(p, alpha)):
            assert winner_counts(h.cells[i], p) == signature_of_strategy(x, p, beta)

    @given(params, st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_signature_totals(self, pa, beta):
        # A form row sums to the number of columns; a correspondence row
        # exceeds it by the tie cells' extra members.
        p, alpha = pa
        h = generate_correspondence(p, alpha, beta)
        g = generate_form(p, alpha, beta)
        for i in range(h.rows):
            assert sum(winner_counts(g.cells[i], p)) == h.cols
            extra = sum(len(c) - 1 for c in h.cells[i])
            assert sum(winner_counts(h.cells[i], p)) == h.cols + extra


class TestInferParameters:
    @pytest.mark.parametrize(
        "k,l,p,expected",
        [
            (4, 4, 2, (3, 3)),
            (5, 4, 2, (4, 3)),
            (3, 3, 3, (1, 1)),
            (6, 10, 3, (2, 3)),
            (15, 3, 3, (4, 1)),
        ],
    )
    def test_examples(self, k, l, p, expected):
        assert infer_parameters(k, l, p) == expected

    def test_impossible_row_count(self):
        with pytest.raises(NoParametersError):
            infer_parameters(7, 4, 3)

    def test_impossible_column_count(self):
        with pytest.raises(NoParametersError):
            infer_parameters(6, 7, 3)

    @given(params, st.integers(1, 5))
    def test_round_trip(self, pa, beta):
        p, alpha = pa
        k = strategy_count(p, alpha)
        l = strategy_count(p, beta)
        assert infer_parameters(k, l, p) == (alpha, beta)


class TestLabelingGenerates:
    def _identity(self, p, alpha, beta):
        return Labeling(
            row_labels=tuple(enumerate_strategies(p, alpha)),
            col_labels=tuple(enumerate_strategies(p, beta)),
        )

    def test_generated_instances(self):
        for p, alpha, beta in [(2, 3, 3), (3, 1, 2), (3, 2, 2)]:
            lab = self._identity(p, alpha, beta)
            assert labeling_generates(generate_correspondence(p, alpha, beta), lab)
            assert labeling_generates(generate_form(p, alpha, beta), lab)

    def test_form_membership_is_enough(self, form_repeated_rows):
        assert labeling_generates(form_repeated_rows, self._identity(2, 3, 3))

    def test_mismatched_cells(self, corr_2_3_3):
        swapped = permute_tableau(corr_2_3_3, [1, 0, 2, 3], [0, 1, 2, 3])
        assert not labeling_generates(swapped, self._identity(2, 3, 3))

    def test_wrong_shape(self, corr_2_3_3):
        assert not labeling_generates(corr_2_3_3, self._identity(2, 3, 2))


class TestPermuteTranspose:
    def test_identity(self, corr_2_3_3):
        same = permute_tableau(corr_2_3_3, [0, 1, 2, 3], [0, 1, 2, 3])
        assert same == corr_2_3_3

    def test_permutation_moves_cells(self, form_distinct_rows):
        g = permute_tableau(form_distinct_rows, [3, 2, 1, 0], [0, 1, 2, 3])
        assert g.cells[0] == form_distinct_rows.cells[3]

    def test_inverse_round_trip(self, form_distinct_rows):
        fwd_r, fwd_c = [2, 0, 3, 1], [1, 3, 0, 2]
        inv_r = [fwd_r.index(i) for i in range(4)]
        inv_c = [fwd_c.index(j) for j in range(4)]
        g = permute_tableau(form_distinct_rows, fwd_r, fwd_c)
        assert permute_tableau(g, inv_r, inv_c) == form_distinct_rows

    def test_bad_permutation(self, corr_2_3_3):
        with pytest.raises(ParameterError):
            permute_tableau(corr_2_3_3, [0, 0, 1, 2], [0, 1, 2, 3])

    def test_double_transpose(self, corr_2_3_3):
        assert transpose_tableau(transpose_tableau(corr_2_3_3)) == corr_2_3_3

    def test_transpose_cell(self):
        h = generate_correspondence(2, 1, 2)
        t = transpose_tableau(h)
        assert t.rows == h.cols and t.cols == h.rows
        for i, j in product(range(h.rows), range(h.cols)):
            assert t.cells[j][i] == h.cells[i][j]


class TestValidation:
    def test_too_few_candidates(self):
        with pytest.raises(ParameterError):
            Form(candidates=1, cells=((0,),))

    def test_ragged(self):
        with pytest.raises(ParameterError):
            Form(candidates=2, cells=((0, 1), (0,)))

    def test_out_of_range_candidate(self):
        with pytest.raises(ParameterError):
            Form(candidates=2, cells=((0, 2),))

    def test_empty_cell_set(self):
        with pytest.raises(ParameterError):
            Correspondence(candidates=2, cells=((frozenset(), frozenset({0})),))

    def test_empty_matrix(self):
        with pytest.raises(ParameterError):
            Form(candidates=2, cells=())

    def test_ragged_message(self):
        with pytest.raises(ParameterError, match=r"^ragged form matrix$"):
            Form(candidates=3, cells=((0, 1), (2, 0), (1,)))
        with pytest.raises(ParameterError, match=r"^ragged correspondence matrix$"):
            Correspondence(candidates=2, cells=((frozenset({0}),), (frozenset({1}), frozenset({0}))))

    def test_empty_cell_message(self):
        cells = ((frozenset({0}), frozenset({1})), (frozenset({0, 1}), frozenset()))
        with pytest.raises(ParameterError, match=r"^correspondence cell is empty$"):
            Correspondence(candidates=2, cells=cells)

    def test_first_bad_candidate_in_row_major_order(self):
        with pytest.raises(ParameterError, match=r"^candidate 5 out of range 0\.\.2$"):
            Form(candidates=3, cells=((0, 1, 2), (1, 5, 0), (7, 0, -1)))
        with pytest.raises(ParameterError, match=r"^candidate -1 out of range 0\.\.2$"):
            Form(candidates=3, cells=((0, 1, 2), (1, 2, -1), (7, 0, 5)))
        cells = (
            (frozenset({0}), frozenset({0, 4})),
            (frozenset({3}), frozenset({1})),
        )
        with pytest.raises(ParameterError, match=r"^candidate 4 out of range 0\.\.2$"):
            Correspondence(candidates=3, cells=cells)

    def test_bad_cell_is_reported_before_a_later_ragged_row(self):
        with pytest.raises(ParameterError, match=r"^candidate 3 out of range 0\.\.2$"):
            Form(candidates=3, cells=((0, 3), (1,)))
        with pytest.raises(ParameterError, match=r"^correspondence cell is empty$"):
            Correspondence(candidates=2, cells=((frozenset(), frozenset({0})), (frozenset({1}),)))
        with pytest.raises(ParameterError, match=r"^ragged form matrix$"):
            Form(candidates=3, cells=((0, 1), (1,), (2, 9)))

    def test_list_in_a_form_cell_is_a_type_error(self):
        with pytest.raises(TypeError):
            Form(candidates=3, cells=((0, 1), (2, [1])))

    @pytest.mark.parametrize(
        "kind,cells,message",
        [
            (Form, ((0, 1.0, 2), (0, 1, 2), (2, 1, 0)), "candidate 1.0 is not an int"),
            # The float repeats an earlier int cell, so it is not among the distinct values.
            (Form, ((0, 1, 2), (2, 1.0, 0), (2, 1, 0)), "candidate 1.0 is not an int"),
            (Form, (("a",),), "candidate 'a' is not an int"),
            (Form, ((None,),), "candidate None is not an int"),
            (Form, ((0, True),), "candidate True is not an int"),
            (Correspondence, (([0], [1], [2]),) * 3, r"correspondence cell \[0\] is not a frozenset"),
            (Correspondence, (((0,), frozenset({1})),), r"correspondence cell \(0,\) is not a frozenset"),
            (
                Correspondence,
                ((frozenset({0}), frozenset({1})), (frozenset({1.0}), frozenset({2}))),
                "candidate 1.0 is not an int",
            ),
        ],
    )
    def test_wrong_cell_type_is_a_parameter_error(self, kind, cells, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            kind(candidates=3, cells=cells)


    @pytest.mark.parametrize(
        "candidates,cells,message",
        [
            (3, (1, 2), "form cells must be a sequence of rows"),
            (3, ((0, 1), 5), "form cells must be a sequence of rows"),
            (3, 5, "form cells must be a sequence of rows"),
            (3.0, ((0, 1), (1, 0)), "candidate count 3.0 is not an int"),
            ("3", ((0, 1), (1, 0)), "candidate count '3' is not an int"),
        ],
    )
    def test_malformed_form_is_a_parameter_error(self, candidates, cells, message):
        with pytest.raises(CellTypeError, match=f"^{message}$"):
            Form(candidates=candidates, cells=cells)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: generate_form(3.0, 2, 2), "candidate count 3.0 is not an int"),
            (lambda: generate_form(3, 2, 2.0), "voter weight 2.0 is not an int"),
            (lambda: generate_correspondence(3, True, 2), "voter weight True is not an int"),
            (lambda: generate_n_tableau((2.5, 3)), "voter weight 2.5 is not an int"),
            (lambda: generate_n_tableau(("2", 3)), "voter weight '2' is not an int"),
            (lambda: generate_n_tableau((True, 2)), "voter weight True is not an int"),
        ],
        ids=["float-p", "float-beta", "bool-alpha", "float-n-weight", "str-n-weight", "bool-n-weight"],
    )
    def test_non_int_generator_parameter_is_a_cell_type_error(self, make, message):
        # Each was once built from a coerced value or failed with a bare TypeError.
        with pytest.raises(CellTypeError, match=f"^{message}$"):
            make()


class TestDefaultNames:
    def test_alphabet(self):
        names = default_names(26)
        assert names[0] == "a" and names[25] == "z"

    def test_rollover(self):
        assert default_names(28)[26:] == ["aa", "ab"]

    def test_unique(self):
        names = default_names(60)
        assert len(set(names)) == 60

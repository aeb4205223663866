"""Two-card forms through `recognize_tableau`, and n-voter two-candidate tableaux."""

from __future__ import annotations

import random
from itertools import product

import pytest

from davote import (
    ACCEPTED,
    REJECTED,
    Form,
    NTableau,
    ParameterError,
    generate_correspondence,
    generate_form,
    generate_n_tableau,
    oracle_recognize,
    permute_axes,
    permute_tableau,
)
from davote.core import _count_bounds, enumerate_strategies, winner_table
from davote.recognizer import recognize_tableau
from davote.special import n_tableau_as_grid, plane_signature, recognize_n_tableau
from conftest import (
    A,
    B,
    count_intervals,
    flat_index,
    labeling_generates,
    n_cell,
    random_resolution,
)

AB = frozenset({A, B})


class TestCountIntervals:
    # The closed-form two-card occurrence-count intervals contain the
    # per-candidate winner-count bounds that recognition reads off the
    # winner table.
    def test_three_candidates(self):
        low, mid, top = count_intervals(3)
        assert (low.lo, low.hi) == (1, 1)
        assert (mid.lo, mid.hi) == (2, 3)
        assert (top.lo, top.hi) == (4, 6)

    def test_four_candidates_leave_a_gap(self):
        low, mid, top = count_intervals(4)
        assert (low.lo, low.hi) == (1, 2)
        assert (mid.lo, mid.hi) == (3, 5)
        assert (top.lo, top.hi) == (7, 10)
        assert 6 not in low and 6 not in mid and 6 not in top

    @pytest.mark.parametrize("p", range(3, 13))
    def test_pairwise_disjoint_and_ordered(self, p):
        low, mid, top = count_intervals(p)
        assert low.lo <= low.hi < mid.lo <= mid.hi < top.lo <= top.hi
        table = winner_table(p, 2, 2)
        xs, rows = table.xs, table.rows
        for x, row in zip(xs, rows):
            lo, hi = _count_bounds(row, p)
            if 2 in x:
                # Doubled on a: a lands in the top interval.
                a = x.index(2)
                assert top.lo <= lo[a] <= hi[a] <= top.hi, (p, x)
                continue
            # Split: the pair in the middle interval, the rest low.
            for a in range(p):
                role = mid if x[a] else low
                assert role.lo <= lo[a] <= hi[a] <= role.hi, (p, x, a)

    def test_needs_three_candidates(self):
        with pytest.raises(ParameterError):
            count_intervals(2)

    def test_membership(self):
        low, _, top = count_intervals(3)
        assert 1 in low and 2 not in low and 5 in top


def shuffle_form(g, rng):
    rp, cp = list(range(g.rows)), list(range(g.cols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return permute_tableau(g, rp, cp)


class TestRecognizeFormTwoCards:
    @pytest.mark.parametrize("p", [3, 4])
    def test_round_trip(self, p):
        rng = random.Random(p)
        for rule in ("min-index", "max-index"):
            g = shuffle_form(generate_form(p, 2, 2, rule), rng)
            res = recognize_tableau(g)
            assert res.verdict == ACCEPTED
            assert res.method == "lu-counting"
            assert labeling_generates(g, res.labeling)
        for _ in range(5):
            g = shuffle_form(random_resolution(p, 2, 2, rng), rng)
            res = recognize_tableau(g)
            assert res.verdict == ACCEPTED
            assert labeling_generates(g, res.labeling)

    def test_row_labels_exhaust_two_card_strategies(self):
        res = recognize_tableau(generate_form(3, 2, 2))
        assert res.labeling.row_labels == tuple(enumerate_strategies(3, 2))

    def test_wrong_size_rejected(self):
        # Six rows are two-card rows over three candidates, but no
        # weight gives five columns.
        g = Form(candidates=3, cells=((A, B, A, B, A),) * 6)
        res = recognize_tableau(g)
        assert res.verdict == REJECTED
        assert "5 columns" in res.witness

    def test_perturbation_rejected(self):
        base = generate_form(3, 2, 2)
        h = generate_correspondence(3, 2, 2)
        cells = [list(r) for r in base.cells]
        cells[0][0] = min(set(range(3)) - set(h.cells[0][0]))
        res = recognize_tableau(Form(candidates=3, cells=tuple(map(tuple, cells))))
        assert res.verdict == REJECTED

    def test_two_candidates_unsupported(self):
        # Two-card forms over two candidates go to plane ranking, like
        # every other p = 2 form.
        assert recognize_tableau(generate_form(2, 2, 2)).method == "two-candidate"
        assert recognize_tableau(generate_form(2, 2, 3)).method == "two-candidate"

    def test_agrees_with_oracle_on_random_matrices(self):
        rng = random.Random(22)
        for _ in range(400):
            cells = tuple(
                tuple(rng.randrange(3) for _ in range(6)) for _ in range(6)
            )
            g = Form(candidates=3, cells=cells)
            assert (recognize_tableau(g).verdict == ACCEPTED) == oracle_recognize(
                g
            ).is_dav


class TestNTableauBasics:
    def test_single_voter_two_cards(self):
        nt = generate_n_tableau((2,))
        assert nt.cells == (frozenset({B}), AB, frozenset({A}))

    def test_majority_of_three(self):
        nt = generate_n_tableau((1, 1, 1), kind="form")
        for z in product(range(2), repeat=3):
            assert n_cell(nt, z) == (A if sum(z) >= 2 else B)

    def test_tie_rules_differ_only_on_ties(self):
        lo = generate_n_tableau((2, 2), kind="form", tie_rule="min-index")
        hi = generate_n_tableau((2, 2), kind="form", tie_rule="max-index")
        ties = generate_n_tableau((2, 2))
        for i, cell in enumerate(ties.cells):
            if len(cell) == 2:
                assert (lo.cells[i], hi.cells[i]) == (A, B)
            else:
                assert lo.cells[i] == hi.cells[i]

    def test_flat_index_row_major(self):
        nt = generate_n_tableau((1, 2))
        assert [flat_index(nt, z) for z in product(range(2), range(3))] == list(range(6))

    def test_cell_count_validation(self):
        with pytest.raises(ParameterError):
            NTableau(weights=(1, 1), kind="form", cells=(A, B, A))

    def test_cell_content_validation(self):
        with pytest.raises(ParameterError):
            NTableau(weights=(1,), kind="correspondence", cells=(A, B))
        with pytest.raises(ParameterError):
            NTableau(weights=(1,), kind="form", cells=(frozenset({A}), B))

    @pytest.mark.parametrize(
        "weights,kind,cells,message",
        [
            ((1, 1), "form", (0.0, 1, 0, 1), "candidate 0.0 is not an int"),
            ((1, 1), "form", (0, 1, True, 1), "candidate True is not an int"),
            ((1,), "correspondence", (frozenset({0.0}), frozenset({1})), "candidate 0.0 is not an int"),
            ((1,), "correspondence", (frozenset({True}), frozenset({0})), "candidate True is not an int"),
            ((1.0,), "form", (0, 1), "voter weights must be ints >= 1"),
        ],
    )
    def test_wrong_cell_type_is_a_parameter_error(self, weights, kind, cells, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            NTableau(weights=weights, kind=kind, cells=cells)

    def test_weights_validation(self):
        with pytest.raises(ParameterError):
            generate_n_tableau(())
        with pytest.raises(ParameterError):
            generate_n_tableau((2, 0))


class TestPlaneSignature:
    def test_majority_planes(self):
        maj = generate_n_tableau((1, 1, 1), kind="form")
        assert plane_signature(maj)[1][1][A] == 3
        assert plane_signature(maj)[1][1][B] == 1
        assert plane_signature(maj)[0][0][A] == 1

    def test_two_voter_extreme_plane(self):
        nt = generate_n_tableau((3, 3))
        assert plane_signature(nt)[0][3][A] == 4
        assert plane_signature(nt)[0][3][B] == 1

    def test_equal_signatures_mean_identical_planes(self):
        # Two planes of one axis that agree on both winner counts hold
        # identical cells; recognition relies on this to rank planes.
        for weights in [(2, 3), (1, 2, 2), (3, 1, 1), (4, 4)]:
            nt = generate_n_tableau(weights)
            signature = plane_signature(nt)
            for axis, w in enumerate(weights):
                sigs = {}
                for z in range(w + 1):
                    key = (
                        signature[axis][z][A],
                        signature[axis][z][B],
                    )
                    plane = tuple(
                        nt.cells[i]
                        for i in range(len(nt.cells))
                        if _axis_coord(nt, i, axis) == z
                    )
                    if key in sigs:
                        assert sigs[key] == plane
                    sigs[key] = plane


def _axis_coord(nt: NTableau, flat: int, axis: int) -> int:
    for ax in reversed(range(len(nt.dims))):
        flat, r = divmod(flat, nt.dims[ax])
        if ax == axis:
            return r
    raise AssertionError


def labels_explain(nt: NTableau, axis_labels) -> bool:
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


class TestRecognizeNTableau:
    @pytest.mark.parametrize(
        "weights", [(2,), (3, 3), (1, 1, 1), (2, 3), (1, 2, 2), (2, 2, 1, 1)]
    )
    def test_round_trip_with_axis_permutations(self, weights):
        rng = random.Random(sum(weights))
        for kind in ("correspondence", "form"):
            nt = generate_n_tableau(weights, kind=kind)
            perms = [list(range(w + 1)) for w in weights]
            for perm in perms:
                rng.shuffle(perm)
            scrambled = permute_axes(nt, perms)
            res = recognize_n_tableau(scrambled)
            assert res.verdict == ACCEPTED
            assert res.method == "two-candidate"
            assert labels_explain(scrambled, res.labeling.axis_labels)
            if kind == "correspondence":
                # No two planes of these weights share both winner
                # counts, so the recovered labels are the permutation.
                assert list(res.labeling.axis_labels) == [tuple(pm) for pm in perms]

    def test_identity_labels_on_generated_input(self):
        res = recognize_n_tableau(generate_n_tableau((2, 2)))
        assert res.labeling.axis_labels == ((0, 1, 2), (0, 1, 2))

    def test_loser_count_breaks_winner_count_ties(self):
        # Reversed single-voter tableau: the {a} and {a, b} planes agree
        # on candidate 0's wins and differ only on candidate 1's.
        flipped = permute_axes(generate_n_tableau((2,)), [[2, 1, 0]])
        res = recognize_n_tableau(flipped)
        assert res.verdict == ACCEPTED
        assert res.labeling.axis_labels == ((2, 1, 0),)

    def test_off_tie_flip_rejected(self):
        nt = generate_n_tableau((2, 2), kind="form")
        cells = list(nt.cells)
        idx = flat_index(nt, (2, 2))
        assert cells[idx] == A
        cells[idx] = B
        res = recognize_n_tableau(
            NTableau(weights=(2, 2), kind="form", cells=tuple(cells))
        )
        assert res.verdict == REJECTED
        assert "threshold" in res.witness

    def test_tie_flip_still_accepted(self):
        nt = generate_n_tableau((2, 2), kind="form", tie_rule="min-index")
        cells = list(nt.cells)
        idx = flat_index(nt, (0, 2))
        assert cells[idx] == A
        cells[idx] = B
        res = recognize_n_tableau(
            NTableau(weights=(2, 2), kind="form", cells=tuple(cells))
        )
        assert res.verdict == ACCEPTED

    def test_correspondence_must_match_sets_exactly(self):
        nt = generate_n_tableau((2, 2))
        cells = list(nt.cells)
        idx = flat_index(nt, (0, 2))
        assert cells[idx] == AB
        cells[idx] = frozenset({A})
        res = recognize_n_tableau(
            NTableau(weights=(2, 2), kind="correspondence", cells=tuple(cells))
        )
        assert res.verdict == REJECTED


class TestPermuteAxes:
    def test_round_trip(self):
        nt = generate_n_tableau((2, 1, 1), kind="form")
        perms = [[2, 0, 1], [1, 0], [0, 1]]
        inv = [[pm.index(t) for t in range(len(pm))] for pm in perms]
        assert permute_axes(permute_axes(nt, perms), inv) == nt

    def test_moves_planes(self):
        nt = generate_n_tableau((2,))
        flipped = permute_axes(nt, [[2, 1, 0]])
        assert flipped.cells == tuple(reversed(nt.cells))

    def test_bad_permutation(self):
        with pytest.raises(ParameterError):
            permute_axes(generate_n_tableau((2,)), [[0, 0, 1]])


class TestTwoVoterBridge:
    def test_grid_is_the_reversed_two_voter_table(self, corr_2_3_3):
        grid = n_tableau_as_grid(generate_n_tableau((3, 3)))
        assert grid == permute_tableau(corr_2_3_3, [3, 2, 1, 0], [3, 2, 1, 0])

    def test_form_grid(self):
        grid = n_tableau_as_grid(generate_n_tableau((2, 3), kind="form"))
        want = permute_tableau(generate_form(2, 2, 3), [2, 1, 0], [3, 2, 1, 0])
        assert grid == want

    def test_requires_two_voters(self):
        with pytest.raises(ParameterError):
            n_tableau_as_grid(generate_n_tableau((2,)))
        with pytest.raises(ParameterError):
            n_tableau_as_grid(generate_n_tableau((1, 1, 1)))

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (2, 3), (3, 4)])
    def test_verdicts_agree_with_two_voter_recognition(self, alpha, beta):
        nt = generate_n_tableau((alpha, beta))
        assert recognize_n_tableau(nt).verdict == ACCEPTED
        assert recognize_tableau(n_tableau_as_grid(nt)).verdict == ACCEPTED

        cells = list(nt.cells)
        cells[0] = frozenset({A}) if cells[0] != frozenset({A}) else frozenset({B})
        bad = NTableau(weights=(alpha, beta), kind="correspondence", cells=tuple(cells))
        assert recognize_n_tableau(bad).verdict == REJECTED
        assert recognize_tableau(n_tableau_as_grid(bad)).verdict == REJECTED

    @pytest.mark.parametrize("alpha,beta", [(1, 2), (2, 2), (3, 3)])
    def test_form_verdicts_agree(self, alpha, beta):
        nt = generate_n_tableau((alpha, beta), kind="form", tie_rule="max-index")
        assert recognize_n_tableau(nt).verdict == ACCEPTED
        assert recognize_tableau(n_tableau_as_grid(nt)).verdict == ACCEPTED

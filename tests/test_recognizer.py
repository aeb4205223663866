"""Recognition of set-valued tableaux and resolved forms."""

from __future__ import annotations

import json
import random
from itertools import product
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davote import (
    ACCEPTED,
    REJECTED,
    UNDECIDED,
    Correspondence,
    Form,
    ParameterError,
    generate_correspondence,
    generate_form,
    generate_n_tableau,
    permute_tableau,
    recognize_tableau,
)
from davote.core import (
    _SETS,
    _shared_cells,
    enumerate_strategies,
    infer_parameters,
    transpose_tableau,
    winner_row,
    winner_table,
)
from davote import matching, recognizer
from davote.cli import main
from davote.oracle import oracle_recognize
from davote.results import METHODS
from davote.tableau_io import dumps_tableau, loads_tableau, save_tableau
from conftest import (
    A,
    B,
    b_set,
    column_adjacency,
    corr,
    count_perfect_matchings,
    equality_adjacency,
    form,
    labeling_generates,
    lu_counts,
    random_resolution,
    signature_rows,
)


def shuffled(t, seed: int):
    rng = random.Random(seed)
    row_perm = list(range(t.rows))
    col_perm = list(range(t.cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    return permute_tableau(t, row_perm, col_perm)


def count_column_matchings(t, row_labels, cap: int = 1000) -> int:
    """Number of column labelings compatible with fixed row labels."""
    _, beta = infer_parameters(t.rows, t.cols, t.candidates)
    ys = enumerate_strategies(t.candidates, beta)
    rows = [winner_row(x, ys) for x in row_labels]
    if isinstance(t, Correspondence):
        adjacency = equality_adjacency(t.cells, rows)
    else:
        adjacency = column_adjacency(t.cells, rows)
    return count_perfect_matchings(adjacency, len(ys), cap=cap)


class TestBSet:
    def test_basic(self):
        assert b_set((2, 1, 0), (1, 1, 1)) == frozenset({0})
        assert b_set((3, 0), (0, 3)) == frozenset({0})
        assert b_set((0, 3), (3, 0)) == frozenset({1})

    def test_equal_strategies_rejected(self):
        with pytest.raises(ParameterError):
            b_set((1, 1), (1, 1))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            b_set((1, 0), (1, 0, 0))

    def test_nonempty_and_disjoint_from_reverse(self):
        xs = enumerate_strategies(3, 3)
        for x in xs:
            for xp in xs:
                if x == xp:
                    continue
                fwd, rev = b_set(x, xp), b_set(xp, x)
                assert fwd and rev
                assert not (fwd & rev)


class TestLuCounts:
    def test_full_set_bounds(self):
        lo, hi = lu_counts((1, 1), frozenset({0, 1}), 2, 2)
        assert (lo, hi) == (3, 3)

    def test_matches_direct_enumeration(self):
        x, bs = (1, 1, 0), frozenset({0, 1})
        ys = enumerate_strategies(3, 2)
        inside = [
            frozenset(
                i
                for i, v in enumerate(map(sum, zip(x, y)))
                if v == max(map(sum, zip(x, y)))
            )
            for y in ys
        ]
        lo, hi = lu_counts(x, bs, 3, 2)
        assert lo == sum(1 for am in inside if am <= bs)
        assert hi == sum(1 for am in inside if am & bs)

    def test_strict_separation_when_columns_dominate(self):
        # beta = 2 * alpha: the lower bound of x strictly exceeds the
        # upper bound of any strategy it beats on the b-set.
        for p, alpha in [(3, 1), (3, 2), (4, 1)]:
            beta = 2 * alpha
            xs = enumerate_strategies(p, alpha)
            for x in xs:
                for xp in xs:
                    if x == xp:
                        continue
                    bs = b_set(x, xp)
                    lo_x, _ = lu_counts(x, bs, p, beta)
                    _, hi_xp = lu_counts(xp, bs, p, beta)
                    assert hi_xp < lo_x

    def test_separation_fails_one_step_below_regime(self):
        # p=3, alpha=2, beta=3 admits a pair where the bounds only tie.
        x, xp = (1, 0, 1), (0, 1, 1)
        bs = b_set(x, xp)
        assert bs == frozenset({0})
        lo_x, _ = lu_counts(x, bs, 3, 3)
        _, hi_xp = lu_counts(xp, bs, 3, 3)
        assert lo_x == 3 and hi_xp == 3


class TestRecognizeCorrespondence:
    def test_worked_example(self, corr_2_3_3):
        res = recognize_tableau(corr_2_3_3)
        assert res.verdict == ACCEPTED
        assert res.method == "two-candidate"
        assert res.labeling.row_labels == tuple(enumerate_strategies(2, 3))
        assert res.labeling.col_labels == tuple(enumerate_strategies(2, 3))

    @pytest.mark.parametrize(
        "p,alpha,beta", [(2, 3, 3), (2, 2, 4), (3, 1, 2), (3, 2, 2), (4, 1, 1)]
    )
    def test_round_trip_after_shuffle(self, p, alpha, beta):
        h = generate_correspondence(p, alpha, beta)
        for seed in range(5):
            g = shuffled(h, seed)
            res = recognize_tableau(g)
            assert res.verdict == ACCEPTED
            assert labeling_generates(g, res.labeling)

    def test_narrow_side_is_transposed(self):
        # 4 rows x 2 columns: recognition happens on the transpose, the
        # returned labeling still fits the original orientation.
        h = generate_correspondence(2, 3, 1)
        res = recognize_tableau(h)
        assert res.verdict == ACCEPTED
        assert res.labeling.row_labels == tuple(enumerate_strategies(2, 3))
        assert labeling_generates(h, res.labeling)

    def test_repeated_rows_still_accepted(self):
        # At beta far below alpha, distinct strategies generate equal
        # rows; the matching hands out distinct labels anyway.
        h = generate_correspondence(3, 4, 1)
        rows = [tuple(r) for r in h.cells]
        assert len(set(rows)) < len(rows)
        res = recognize_tableau(h)
        assert res.verdict == ACCEPTED
        assert labeling_generates(h, res.labeling)

    def test_perturbed_cell_rejected(self, corr_2_3_3):
        cells = [list(row) for row in corr_2_3_3.cells]
        cells[0][0] = frozenset({B})
        bad = Correspondence(candidates=2, cells=tuple(map(tuple, cells)))
        res = recognize_tableau(bad)
        assert res.verdict == REJECTED
        assert res.witness

    def test_impossible_shape_rejected(self):
        h = corr(3, tuple((({A}, {B}),) * 5))
        res = recognize_tableau(h)
        assert res.verdict == REJECTED

    def test_transposed_rejection_prefixes_witness(self):
        # 6 rows x 3 cols over three candidates forces the transpose path
        # before rejecting.
        cells = [list(row) for row in generate_correspondence(3, 2, 1).cells]
        cells[0][0] = frozenset({2})
        bad = Correspondence(candidates=3, cells=tuple(map(tuple, cells)))
        res = recognize_tableau(bad)
        assert res.verdict == REJECTED
        assert res.witness.startswith("after transposing: ")


def _edited_3_2_2(edit) -> Correspondence:
    cells = [list(row) for row in generate_correspondence(3, 2, 2).cells]
    edit(cells)
    return Correspondence(candidates=3, cells=tuple(map(tuple, cells)))


def _swap_row_0_cells_0_and_3(cells):
    cells[0][0], cells[0][3] = cells[0][3], cells[0][0]


def _copy_row_4_over_row_2(cells):
    cells[2] = list(cells[4])


def _widen_cell_1_1(cells):
    cells[1][1] = frozenset({A, B, 2})


class TestCorrespondenceRejectionWitnesses:
    """Each stage of the signature-matching route names its own defect."""

    @pytest.mark.parametrize(
        "edit,witness",
        [
            (_swap_row_0_cells_0_and_3, "no perfect matching labels the columns"),
            (_copy_row_4_over_row_2, "rows 2 and 4 both map to strategy (0, 1, 1)"),
            (_widen_cell_1_1, "row 1 signature matches 0 strategies instead of exactly one"),
        ],
    )
    def test_witness(self, edit, witness):
        res = recognize_tableau(_edited_3_2_2(edit))
        assert res.verdict == REJECTED
        assert res.method == "signature-matching"
        assert res.witness == witness


@st.composite
def p3_correspondences(draw):
    """A shuffled (p, alpha, beta) correspondence, valid or edited in one place."""
    p, alpha, beta = draw(st.integers(3, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h = shuffled(generate_correspondence(p, alpha, beta), draw(st.integers(0, 2**16)))
    cells = [list(row) for row in h.cells]
    edit = draw(st.sampled_from(["valid", "cell-moved", "row-copied"]))
    if edit == "cell-moved":
        # The row keeps its cells, so its signature still matches.
        row = cells[draw(st.integers(0, h.rows - 1))]
        row.insert(draw(st.integers(0, h.cols - 1)), row.pop(draw(st.integers(0, h.cols - 1))))
    elif edit == "row-copied":
        cells[draw(st.integers(0, h.rows - 1))] = list(cells[draw(st.integers(0, h.rows - 1))])
    return p, cells


class TestCellIdentity:
    """Recognition reads cell contents, never which set objects hold them."""

    @settings(max_examples=100, deadline=None)
    @given(p3_correspondences())
    def test_fresh_shared_and_loaded_cells_agree(self, case):
        p, cells = case
        fresh = Correspondence(
            candidates=p, cells=tuple(tuple(frozenset(list(c)) for c in row) for row in cells)
        )
        shared = Correspondence(
            candidates=p,
            cells=tuple(tuple(_SETS[sum(1 << a for a in c)] for c in row) for row in cells),
        )
        listed = Correspondence(candidates=p, cells=[list(row) for row in shared.cells])
        loaded, _ = loads_tableau(dumps_tableau(fresh))
        assert fresh.cells[0][0] is not shared.cells[0][0]
        results = [recognize_tableau(t) for t in (fresh, shared, listed, loaded)]
        views = {(r.verdict, r.method, r.witness, r.labeling) for r in results}
        assert len(views) == 1
        if results[0].verdict == ACCEPTED:
            assert labeling_generates(fresh, results[0].labeling)

        alpha, beta = infer_parameters(len(cells), len(cells[0]), p)
        table = winner_table(p, *sorted((alpha, beta)))
        codes, base = table.signature_codes, len(table.ys) + 1
        assert type(codes) is MappingProxyType
        assert codes == {
            sum(n * base**a for a, n in enumerate(sig)): xis
            for sig, xis in signature_rows(table).items()
        }


    def test_list_rows_of_shared_sets_are_accepted(self):
        h = generate_correspondence(3, 2, 2)
        res = recognize_tableau(Correspondence(3, [list(row) for row in h.cells]))
        assert res.verdict == ACCEPTED
        assert labeling_generates(h, res.labeling)

    def test_a_set_no_table_holds_stays_out_of_the_shared_sets(self):
        odd = frozenset({0, 40})
        cells = _shared_cells([[_SETS[1], odd]])
        assert cells == ((_SETS[1], odd),) and cells[0][1] is odd
        assert 1 << 40 | 1 not in _SETS


class TestCountColumnMatchings:
    def test_unique_for_distinct_columns(self, corr_2_3_3):
        rows = list(enumerate_strategies(2, 3))
        assert count_column_matchings(corr_2_3_3, rows) == 1

    def test_zero_when_columns_unmatched(self, corr_2_3_3):
        rows = list(reversed(enumerate_strategies(2, 3)))
        assert count_column_matchings(corr_2_3_3, rows) == 0


class TestRecognizeFormDispatch:
    def test_wide_regime_uses_counting_bounds(self):
        res = recognize_tableau(generate_form(3, 1, 2))
        assert res.verdict == ACCEPTED
        assert res.method == "lu-counting"

    def test_tall_regime_transposes(self):
        res = recognize_tableau(generate_form(3, 2, 1))
        assert res.verdict == ACCEPTED
        assert res.method == "lu-counting"
        g = generate_form(3, 2, 1)
        assert labeling_generates(g, res.labeling)
        assert res.labeling.row_labels == tuple(enumerate_strategies(3, 2))

    def test_single_cards_use_pattern_search(self):
        res = recognize_tableau(generate_form(3, 1, 1))
        assert res.verdict == ACCEPTED
        assert res.method == "plurality"

    def test_two_cards_each_use_count_intervals(self):
        res = recognize_tableau(generate_form(3, 2, 2))
        assert res.verdict == ACCEPTED
        assert res.method == "lu-counting"

    def test_two_candidates_odd_total(self):
        res = recognize_tableau(generate_form(2, 1, 2))
        assert res.verdict == ACCEPTED
        assert res.method == "two-candidate"
        assert res.labeling.row_labels == tuple(enumerate_strategies(2, 1))

    def test_two_candidates_even_total(self):
        res = recognize_tableau(generate_form(2, 2, 2))
        assert res.verdict == ACCEPTED
        assert res.method == "two-candidate"

    def test_leftover_regime_uses_row_search(self):
        g = generate_form(3, 2, 3)
        res = recognize_tableau(g)
        assert res.verdict == ACCEPTED
        assert res.method == "row-search"
        assert labeling_generates(g, res.labeling)

    def test_leftover_regime_above_guard_is_undecided(self, monkeypatch):
        # Ten rows cannot be labeled within a budget of one search node.
        monkeypatch.setattr(matching, "_ROW_NODES", 1)
        res = recognize_tableau(generate_form(3, 3, 3))
        assert res.verdict == UNDECIDED
        assert res.method == "row-search"
        assert res.witness == "row search stopped at its budget of 1 nodes"

    def test_guard_can_be_raised(self, monkeypatch):
        g = generate_form(3, 3, 3)
        monkeypatch.setattr(matching, "_ROW_NODES", 1)
        assert recognize_tableau(g).verdict == UNDECIDED
        monkeypatch.setattr(matching, "_ROW_NODES", 10)
        res = recognize_tableau(g)
        assert (res.verdict, res.method) == (ACCEPTED, "row-search")
        assert labeling_generates(g, res.labeling)

    def test_oracle_is_not_imported(self):
        assert not hasattr(recognizer, "oracle_recognize")
        assert not hasattr(recognizer, "DEFAULT_MAX_CELLS")


class TestRecognizeFormBehavior:
    @pytest.mark.parametrize("p,alpha,beta", [(3, 1, 2), (3, 1, 3), (3, 2, 4), (4, 1, 2)])
    def test_round_trip_with_random_resolutions(self, p, alpha, beta):
        h = generate_correspondence(p, alpha, beta)
        rng = random.Random(7)
        for seed in range(4):
            cells = tuple(
                tuple(rng.choice(sorted(cell)) for cell in row) for row in h.cells
            )
            g = shuffled(Form(candidates=p, cells=cells), seed)
            res = recognize_tableau(g)
            assert res.verdict == ACCEPTED
            assert labeling_generates(g, res.labeling)

    def test_unshuffled_row_labels_follow_enumeration_order(self):
        # Row labels are forced; column labels are only a bijection (a
        # form may repeat columns, leaving several valid assignments).
        g = generate_form(3, 1, 3, "max-index")
        res = recognize_tableau(g)
        assert res.labeling.row_labels == tuple(enumerate_strategies(3, 1))
        assert sorted(res.labeling.col_labels) == sorted(enumerate_strategies(3, 3))
        assert labeling_generates(g, res.labeling)

    def test_perturbed_cell_rejected(self):
        h = generate_correspondence(3, 1, 2)
        base = generate_form(3, 1, 2)
        cells = [list(row) for row in base.cells]
        # Push cell (0, 0) to a candidate outside its winner set.
        outside = min(set(range(3)) - set(h.cells[0][0]))
        cells[0][0] = outside
        res = recognize_tableau(Form(candidates=3, cells=tuple(map(tuple, cells))))
        assert res.verdict == REJECTED
        assert res.witness

    def test_uninferable_shape_rejected(self):
        g = form(3, ((A, B, A, B, A, B, A),))
        res = recognize_tableau(g)
        assert res.verdict == REJECTED
        assert res.method == "row-search"

    def test_long_augmenting_paths_round_trip(self):
        # Shuffled (3, 2, 50) forms need augmenting paths deeper than
        # the interpreter's default recursion limit.
        g = shuffled(generate_form(3, 2, 50), 0)
        res = recognize_tableau(g)
        assert (res.verdict, res.method) == (ACCEPTED, "lu-counting")
        assert labeling_generates(g, res.labeling)

    def test_random_tie_form_with_many_columns_round_trips(self):
        # A shuffled (3, 1, 60) form, 3 x 1891, with every tie broken at
        # random, so its columns fall into content classes of mixed size.
        g = shuffled(random_resolution(3, 1, 60, random.Random(60)), 1)
        res = recognize_tableau(g)
        assert (res.verdict, res.method) == (ACCEPTED, "lu-counting")
        assert labeling_generates(g, res.labeling)


class TestNewlyCoveredRegimes:
    # Every form has distinct rows here although neither weight is at
    # least twice the other; (3, 4, 3) and (4, 3, 2) take the transpose.
    TRIPLES = [(3, 3, 4), (4, 2, 3), (3, 4, 3), (4, 3, 2)]

    @pytest.mark.parametrize("p,alpha,beta", TRIPLES)
    def test_generated_forms_get_forced_labels(self, p, alpha, beta):
        # The labels of the side whose lines are always distinct are
        # forced: the rows, or the columns of a transposed triple.
        transposed = alpha > beta
        xs = enumerate_strategies(p, beta if transposed else alpha)
        h = generate_correspondence(p, alpha, beta)
        rng = random.Random(100 * p + 10 * alpha + beta)
        instances = [generate_form(p, alpha, beta, rule) for rule in ("min-index", "max-index")]
        instances += [
            Form(p, tuple(tuple(rng.choice(sorted(c)) for c in row) for row in h.cells))
            for _ in range(3)
        ]
        for g in instances:
            row_perm = rng.sample(range(g.rows), g.rows)
            col_perm = rng.sample(range(g.cols), g.cols)
            res = recognize_tableau(permute_tableau(g, row_perm, col_perm))
            assert (res.verdict, res.method) == (ACCEPTED, "lu-counting")
            if transposed:
                assert res.labeling.col_labels == tuple(xs[j] for j in col_perm)
            else:
                assert res.labeling.row_labels == tuple(xs[i] for i in row_perm)

    @pytest.mark.parametrize("p,alpha,beta", TRIPLES)
    def test_perturbed_forms_agree_with_oracle(self, p, alpha, beta):
        h = generate_correspondence(p, alpha, beta)
        rng = random.Random(1000 + 100 * p + 10 * alpha + beta)
        for k in range(10):
            cells = [[rng.choice(sorted(c)) for c in row] for row in h.cells]
            for _ in range(1 + k % 2):
                cells[rng.randrange(h.rows)][rng.randrange(h.cols)] = rng.randrange(p)
            g = shuffled(Form(p, tuple(map(tuple, cells))), k)
            res = recognize_tableau(g)
            assert res.method == "lu-counting"
            assert res.accepted == oracle_recognize(g, max_cells=10**6).is_dav


class TestTwoCandidates:
    # Plane ranking decides every p = 2 grid, and the n-voter route runs
    # the same code, so the exhaustive oracle is the independent check.
    SETS = (frozenset({A}), frozenset({B}), frozenset({A, B}))

    @staticmethod
    def grids(values, max_cells):
        """Every grid of at least 2 x 2 and at most `max_cells` cells."""
        for rows in range(2, max_cells // 2 + 1):
            for cols in range(2, max_cells // rows + 1):
                for flat in product(values, repeat=rows * cols):
                    yield tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))

    def test_every_small_form_grid_agrees_with_oracle(self):
        for cells in self.grids((A, B), 12):
            g = Form(candidates=2, cells=cells)
            res = recognize_tableau(g)
            assert res.method == "two-candidate"
            assert res.accepted == oracle_recognize(g, cap=1).is_dav, cells

    def test_every_small_correspondence_grid_agrees_with_oracle(self):
        for cells in self.grids(self.SETS, 8):
            h = Correspondence(candidates=2, cells=cells)
            res = recognize_tableau(h)
            assert res.method == "two-candidate"
            assert res.accepted == oracle_recognize(h, cap=1).is_dav, cells

    @pytest.mark.parametrize("alpha,beta", [(8, 8), (10, 12)])
    def test_large_even_total_forms_round_trip(self, alpha, beta):
        # Above the oracle's default guard; these were once undecided.
        h = generate_correspondence(2, alpha, beta)
        rng = random.Random(10 * alpha + beta)
        instances = [generate_form(2, alpha, beta, rule) for rule in ("min-index", "max-index")]
        instances += [
            Form(2, tuple(tuple(rng.choice(sorted(c)) for c in row) for row in h.cells))
            for _ in range(3)
        ]
        for seed, g in enumerate(instances):
            g = shuffled(g, seed)
            res = recognize_tableau(g)
            assert (res.verdict, res.method) == (ACCEPTED, "two-candidate")
            assert labeling_generates(g, res.labeling)

    def test_no_other_route_is_entered(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a p = 2 grid left plane ranking")

        for module, name in [
            (recognizer, "recognize_plurality_form"),
            (recognizer, "winner_table"),
            (matching, "match_column_classes"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        instances = [Form(2, cells) for cells in self.grids((A, B), 4)]
        for alpha, beta in [(1, 2), (2, 2), (3, 3), (8, 8), (5, 1)]:
            instances += [
                generate_correspondence(2, alpha, beta),
                generate_form(2, alpha, beta),
                generate_form(2, alpha, beta, "max-index"),
            ]
        instances.append(corr(2, (({A}, {B}), ({B}, {A}), ({A}, {A}))))
        for t in instances:
            res = recognize_tableau(t)
            assert res.method == "two-candidate"
            assert res.verdict in (ACCEPTED, REJECTED)


class TestRecognizeTableau:
    def test_dispatch(self, corr_2_3_3, form_distinct_rows):
        assert recognize_tableau(corr_2_3_3).method == "two-candidate"
        # p=2 lands on plane ranking for any card total, even ones included.
        assert recognize_tableau(form_distinct_rows).method == "two-candidate"
        nt = generate_n_tableau((2, 2, 1))
        assert recognize_tableau(nt).method == "two-candidate"

    def test_keyword_options_are_gone(self, monkeypatch):
        g = generate_form(3, 3, 3)
        assert recognize_tableau(g).verdict == ACCEPTED
        monkeypatch.setattr(matching, "_ROW_NODES", 1)
        assert recognize_tableau(g).verdict == UNDECIDED
        with pytest.raises(TypeError):
            recognize_tableau(g, oracle_cells=200)

    def test_every_route_returns_one_of_the_methods(self):
        tableaux = [
            generate_form(2, 2, 3),  # p = 2: plane ranking
            generate_correspondence(3, 2, 2),  # p >= 3 correspondence
            generate_form(4, 1, 1),  # single-card form
            generate_form(3, 2, 4),  # every form at (3, 2, 4) has distinct rows
            generate_form(3, 3, 3),  # leftover regime: the row search
        ]
        assert {recognize_tableau(t).method for t in tableaux} == set(METHODS)


# A 20 x 20 form at (4, 3, 3) with 20 distinct rows, one digit per cell,
# found by a hill climb that mutated cells and copied rows to maximise
# the row search's node count.
SPENT_BUDGET_ROWS = """
00000020000000003010 00003302201000310021 00003002201000310321 30100030210230200010
01130110311211112213 00001002030112132233 30301002001112332233 21032232200222212213
01212002132112230233 03111132333032113333 11211111111111011113 00122110311111113213
01120110311211113213 22032232200212212213 00201132210212232233 01302333333233332303
02222221222222232222 22032132200212222213 03330213331330322313 33333333333333312303
"""


class TestSpentRowSearchBudget:
    """The fast path leaves this form undecided where the oracle rejects it.

    Column forward checking in the row search (narrowing each column's
    fits as rows are placed, as ROADMAP.md plans) should turn the
    expected verdict here into `rejected`, in a handful of nodes.
    """

    @pytest.fixture
    def g(self):
        rows = SPENT_BUDGET_ROWS.split()
        return Form(candidates=4, cells=tuple(tuple(map(int, row)) for row in rows))

    def test_the_oracle_rejects_it_in_two_nodes(self, g):
        assert (g.rows, g.cols, len(set(g.cells))) == (20, 20, 20)
        report = oracle_recognize(g, max_cells=400)
        assert not report.is_dav and report.nodes_explored == 2

    def test_the_row_search_spends_its_budget(self, g):
        res = recognize_tableau(g)
        assert res.verdict != ACCEPTED
        assert (res.verdict, res.method) == (UNDECIDED, "row-search")
        assert res.witness == "row search stopped at its budget of 10000 nodes"

    def test_the_cli_exits_2(self, g, tmp_path, capsys):
        path = tmp_path / "spent.json"
        save_tableau(g, path)
        assert main(["recognize", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == UNDECIDED and out["row_labels"] is None


# A third 20 x 20 (4, 3, 3) form from the same kind of hill climb.  Each
# of its columns fits some strategy by winner counts, and 18 of the 20
# fit exactly one, so a column-count check alone does not reject it.
BASELINE_ROWS = """
21112111301010211313 20122221222230202313 23312311333230300333 20200131002003000013
20201221222133202322 23333333333331330333 23313311202330303333 30012101000002200303
22200111001320003332 20022221222231202313 23112111101000301321 22222222222321222222
23232021101301303333 20000000000000000301 21211111122300303310 23210221022301301311
21212111031311101310 20310201002300100300 23333311323302300313 11211111111111301111
"""


class TestSpentBudgetOneSideOnly:
    """The row search spends its budget on this form but not on its transpose."""

    @pytest.fixture
    def g(self):
        rows = BASELINE_ROWS.split()
        return Form(candidates=4, cells=tuple(tuple(map(int, row)) for row in rows))

    def test_the_oracle_rejects_it_in_two_nodes(self, g):
        assert (g.rows, g.cols, len(set(g.cells))) == (20, 20, 20)
        report = oracle_recognize(g, max_cells=400)
        assert not report.is_dav and report.nodes_explored == 2

    def test_the_row_search_spends_its_budget(self, g):
        res = recognize_tableau(g)
        assert (res.verdict, res.method) == (UNDECIDED, "row-search")
        assert res.witness == "row search stopped at its budget of 10000 nodes"

    def test_the_transpose_is_rejected_in_21_nodes(self, g):
        res = matching.accept_counted_rows(transpose_tableau(g), "row-search", winner_table(4, 3, 3))
        assert res.verdict == REJECTED
        assert res.witness == (
            "no row labeling the bounds allow regenerates the input (21 search nodes)"
        )

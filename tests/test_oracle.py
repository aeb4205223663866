"""Exhaustive reference search on small tableaux."""

from __future__ import annotations

import ast
import inspect
import random
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davote import (
    ACCEPTED,
    REJECTED,
    Correspondence,
    Form,
    ParameterError,
    SizeGuardError,
    generate_correspondence,
    generate_form,
    oracle_recognize,
    permute_tableau,
)
from davote.recognizer import recognize_tableau
import davote.core
import davote.oracle
from conftest import (
    A,
    B,
    CapExceededError,
    corr,
    enumerate_all_forms,
    form,
    labeling_generates,
    oracle_count_forms,
    random_resolution,
)


def test_oracle_builds_its_own_outcome_grid():
    # The oracle cross-checks the polynomial recognizers, so it must not
    # read winner sets from the table they share.
    source = inspect.getsource(davote.oracle)
    from_core = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "core"
        for alias in node.names
    }
    assert from_core == {
        "Correspondence",
        "Form",
        "Labeling",
        "NoParametersError",
        "ParameterError",
        "SizeGuardError",
        "_Record",
        "enumerate_strategies",
        "infer_parameters",
        "transpose_tableau",
    }
    banned = (
        "winner_table",
        "winner_row",
        "WinnerTable",
        "_candidate_masks",
        "_count_bounds",
        "signature_of_strategy",
        "accept_counted_rows",
        "signature_coder",
        "signature_codes",
        "count_fits",
        "_SETS",
        "_shared_cells",
        "_winner_row",
        "accept_row_labels",
    )
    for name in banned:
        assert name not in source
        assert not hasattr(davote.oracle, name)
    # `core` keeps no reference that only the oracle or the tests read.
    for name in ("argmax_set", "row_signature", "winner_counts", "labeling_generates"):
        assert not hasattr(davote.core, name)


class TestOracleRecognize:
    def test_worked_correspondence_has_one_labeling(self, corr_2_3_3):
        rep = oracle_recognize(corr_2_3_3)
        assert rep.is_dav
        assert rep.labelings_found == 1
        assert labeling_generates(corr_2_3_3, rep.one_labeling)
        assert rep.nodes_explored > 0

    def test_both_tie_resolutions(self, form_distinct_rows, form_repeated_rows):
        assert oracle_recognize(form_distinct_rows).is_dav
        assert oracle_recognize(form_repeated_rows).is_dav

    def test_known_bad_grids(self, bad_m1, bad_m2, bad_m3):
        for g in (bad_m1, bad_m2, bad_m3):
            rep = oracle_recognize(g)
            assert not rep.is_dav
            assert rep.labelings_found == 0
            assert rep.one_labeling is None

    def test_labeling_cap(self):
        # [[a, a], [b, b]] admits two labelings: both column orders work.
        g = form(2, ((A, A), (B, B)))
        assert oracle_recognize(g).labelings_found == 2
        capped = oracle_recognize(g, cap=1)
        assert capped.labelings_found == 1 and capped.is_dav

    def test_cap_below_one_is_a_parameter_error(self):
        g = generate_form(3, 1, 1)
        assert oracle_recognize(g, cap=1).is_dav
        for cap in (0, -1):
            with pytest.raises(ParameterError, match="cap"):
                oracle_recognize(g, cap=cap)

    def test_shuffle_invariance(self, form_repeated_rows):
        rng = random.Random(5)
        for _ in range(5):
            rp, cp = [0, 1, 2, 3], [0, 1, 2, 3]
            rng.shuffle(rp)
            rng.shuffle(cp)
            g = permute_tableau(form_repeated_rows, rp, cp)
            rep = oracle_recognize(g)
            assert rep.is_dav
            assert labeling_generates(g, rep.one_labeling)

    def test_tall_input_is_searched_transposed(self):
        # A shuffled random-tie (3, 9, 5) form: a (3, 5, 9) form given
        # as 55 x 21.  With its 55 rows searched first it took more than
        # 5 s; as 21 x 55 it takes a fraction of a second.
        rng = random.Random(25)
        g = random_resolution(3, 9, 5, rng)
        rp, cp = list(range(g.rows)), list(range(g.cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        g = permute_tableau(g, rp, cp)
        assert (g.rows, g.cols) == (55, 21)
        rep = oracle_recognize(g, max_cells=10**4)
        assert rep.is_dav
        assert labeling_generates(g, rep.one_labeling)
        assert (rep.labelings_found, rep.nodes_explored) == (10, 541069)

    def test_search_depth_does_not_grow_with_the_input(self):
        # A shuffled (5, 5, 5) form places 126 rows and 126 columns;
        # one call frame per placed line would pass a limit of 200.
        g = generate_form(5, 5, 5)
        rng = random.Random(3)
        rows = rng.sample(g.cells, g.rows)
        cols = rng.sample(range(g.cols), g.cols)
        g = Form(candidates=5, cells=tuple(tuple(row[j] for j in cols) for row in rows))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            rep = oracle_recognize(g, max_cells=10**7)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.is_dav
        assert (rep.labelings_found, rep.nodes_explored) == (1, 252)
        assert labeling_generates(g, rep.one_labeling)

    def test_size_guard(self):
        big = generate_correspondence(2, 10, 10)
        with pytest.raises(SizeGuardError):
            oracle_recognize(big)
        assert oracle_recognize(big, max_cells=121).is_dav

    def test_uninferable_shape_is_not_dav(self):
        g = corr(3, tuple((({A}, {B}),) * 5))
        rep = oracle_recognize(g)
        assert not rep.is_dav and rep.nodes_explored == 0

    def test_single_wrong_cell_is_caught(self):
        base = generate_form(2, 2, 1)
        cells = [list(r) for r in base.cells]
        cells[0][0] = B  # (2,0)+(1,0) can only be won by candidate 0
        assert not oracle_recognize(Form(candidates=2, cells=tuple(map(tuple, cells)))).is_dav

    def test_every_enumerated_form_is_dav(self):
        for g in enumerate_all_forms(2, 3, 3):
            assert oracle_recognize(g).is_dav


# Every (p, alpha, beta) with p 2-5, at most 150 cells and a long side
# less than three times the short one; (p, beta, alpha) is the other
# orientation of each.  The shape limit is the oracle's: on narrower
# shapes, such as (2, 1, 13) at 2 x 14 or (3, 1, 5) at 3 x 21, it can
# take seconds on one input.
SMALL_TRIPLES = [
    (p, alpha, beta)
    for p in range(2, 6)
    for alpha in range(1, 15)
    for beta in range(1, 15)
    for k, l in [(comb(alpha + p - 1, p - 1), comb(beta + p - 1, p - 1))]
    if k * l <= 150 and max(k, l) < 3 * min(k, l)
]


class TestOracleAgreesWithFastPaths:
    def test_two_candidate_route(self):
        rng = random.Random(17)
        for _ in range(200):
            cells = tuple(
                tuple(rng.randrange(2) for _ in range(3)) for _ in range(4)
            )
            g = Form(candidates=2, cells=cells)  # alpha=3, beta=2
            fast = recognize_tableau(g)
            assert fast.verdict in (ACCEPTED, REJECTED)
            assert (fast.verdict == ACCEPTED) == oracle_recognize(g).is_dav

    def test_correspondence_route(self):
        rng = random.Random(23)
        sets = [frozenset({A}), frozenset({B}), frozenset({A, B})]
        for _ in range(200):
            cells = tuple(
                tuple(rng.choice(sets) for _ in range(3)) for _ in range(3)
            )
            h = Correspondence(candidates=2, cells=cells)  # alpha=beta=2
            fast = recognize_tableau(h)
            assert (fast.verdict == ACCEPTED) == oracle_recognize(h).is_dav

    @given(
        st.one_of(
            st.sampled_from([t for t in SMALL_TRIPLES if t[0] == 2]),
            st.sampled_from([t for t in SMALL_TRIPLES if t[0] > 2]),
        ),
        st.booleans(),
        st.sampled_from(["valid", "changed", "copied"]),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_regime_agrees(self, triple, is_corr, change, n_changed, rng):
        # A generated correspondence or random-tie form, optionally with
        # 1-3 changed cells or a copied row, then shuffled.
        p, alpha, beta = triple
        if is_corr:
            t = generate_correspondence(p, alpha, beta)
            choices = [frozenset(c) for r in range(1, p + 1) for c in combinations(range(p), r)]
        else:
            t = random_resolution(p, alpha, beta, rng)
            choices = list(range(p))
        cells = [list(row) for row in t.cells]
        if change == "changed":
            for _ in range(n_changed):
                i, j = rng.randrange(t.rows), rng.randrange(t.cols)
                cells[i][j] = rng.choice([c for c in choices if c != cells[i][j]])
        elif change == "copied":
            i, j = rng.sample(range(t.rows), 2)
            cells[i] = list(cells[j])
        rp, cp = list(range(t.rows)), list(range(t.cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        t = permute_tableau(type(t)(candidates=p, cells=tuple(map(tuple, cells))), rp, cp)
        res = recognize_tableau(t)
        is_dav = oracle_recognize(t, max_cells=10**4).is_dav
        assert res.verdict == (ACCEPTED if is_dav else REJECTED)
        if change == "valid":
            assert res.verdict == ACCEPTED
        if res.verdict == ACCEPTED:
            assert labeling_generates(t, res.labeling)


class TestOracleCountForms:
    @pytest.mark.parametrize(
        "p,alpha,beta,count", [(2, 3, 3, 16), (2, 1, 2, 1), (2, 1, 1, 4)]
    )
    def test_known_counts(self, p, alpha, beta, count):
        assert oracle_count_forms(p, alpha, beta) == count
        assert len(enumerate_all_forms(p, alpha, beta)) == count

    def test_tie_guard(self):
        with pytest.raises(CapExceededError):
            oracle_count_forms(2, 3, 3, max_tie_cells=3)
        assert oracle_count_forms(2, 1, 2, max_tie_cells=0) == 1

"""Closed-form and direct row-distinctness checks."""

from __future__ import annotations

import pytest

from davote import (
    SizeGuardError,
    all_forms_rows_distinct,
    correspondence_rows_distinct,
    generate_correspondence,
)
from davote.core import enumerate_strategies, winner_table
from davote.distinctness import (
    differentiating_set,
    empty_differentiating_pairs,
    identical_correspondence_rows,
)
from conftest import (
    all_forms_rows_distinct_direct,
    enumerate_all_forms,
    neighbor_reduction_check,
)

SMALL_GRID = [
    (p, a, b) for p in (2, 3, 4) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4)
]


def brute_all_forms_distinct(p, alpha, beta) -> bool:
    return all(
        len(set(g.cells)) == g.rows for g in enumerate_all_forms(p, alpha, beta)
    )


class TestDifferentiatingSet:
    def test_two_candidate_unit_pair_is_empty(self):
        assert differentiating_set((1, 0), (0, 1), 2, 1) == []

    def test_separating_reply_is_found(self):
        d = differentiating_set((1, 0, 0), (0, 1, 0), 3, 2)
        assert (1, 1, 0) in d

    def test_symmetric(self):
        for x in enumerate_strategies(3, 2):
            for xp in enumerate_strategies(3, 2):
                if x == xp:
                    continue
                assert set(differentiating_set(x, xp, 3, 2)) == set(
                    differentiating_set(xp, x, 3, 2)
                )

    def test_member_really_separates(self):
        for y in differentiating_set((2, 0, 0), (0, 2, 0), 3, 2):
            za = tuple(a + b for a, b in zip((2, 0, 0), y))
            zb = tuple(a + b for a, b in zip((0, 2, 0), y))
            am = lambda z: {i for i, v in enumerate(z) if v == max(z)}
            assert not (am(za) & am(zb))


class TestCorrespondenceDistinctness:
    @pytest.mark.parametrize(
        "p,alpha,beta,expected",
        [
            (3, 4, 1, False),
            (2, 3, 3, True),
            (4, 2, 5, True),
            (3, 1, 1, True),
            (2, 4, 2, True),
            (3, 5, 2, False),
        ],
    )
    def test_closed_form_examples(self, p, alpha, beta, expected):
        assert correspondence_rows_distinct(p, alpha, beta) is expected

    @pytest.mark.parametrize("p,alpha,beta", SMALL_GRID)
    def test_closed_equals_direct(self, p, alpha, beta):
        assert correspondence_rows_distinct(p, alpha, beta) == (
            not identical_correspondence_rows(p, alpha, beta)
        )

    def test_identical_rows_are_reported(self):
        pairs = identical_correspondence_rows(3, 4, 1)
        assert ((4, 0, 0), (3, 1, 0)) in [tuple(sorted(pr, reverse=True)) for pr in pairs]
        h = generate_correspondence(3, 4, 1)
        xs = enumerate_strategies(3, 4)
        for x, xp in pairs:
            assert h.cells[xs.index(x)] == h.cells[xs.index(xp)]

    def test_no_identical_rows_when_distinct(self):
        assert identical_correspondence_rows(2, 3, 3) == []


class TestAllFormsDistinctness:
    @pytest.mark.parametrize(
        "p,alpha,beta,expected",
        [
            (3, 2, 3, False),
            (3, 2, 2, True),
            (3, 1, 2, True),
            (3, 1, 1, False),
            (4, 1, 1, False),
            (4, 2, 2, True),
            (2, 3, 3, False),
            (2, 2, 1, True),
            (2, 1, 2, True),
            (2, 2, 2, False),
        ],
    )
    def test_closed_form_examples(self, p, alpha, beta, expected):
        assert all_forms_rows_distinct(p, alpha, beta) is expected

    @pytest.mark.parametrize(
        "p,alpha,beta",
        [(2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 2, 3), (3, 1, 1), (3, 1, 2), (3, 2, 2)],
    )
    def test_closed_form_matches_exhaustive_enumeration(self, p, alpha, beta):
        assert all_forms_rows_distinct(p, alpha, beta) == brute_all_forms_distinct(
            p, alpha, beta
        )

    @pytest.mark.parametrize("p,alpha,beta", SMALL_GRID)
    def test_closed_equals_direct_and_neighbor_modes(self, p, alpha, beta):
        closed = all_forms_rows_distinct(p, alpha, beta)
        assert closed == (not empty_differentiating_pairs(p, alpha, beta))
        assert closed == all_forms_rows_distinct_direct(p, alpha, beta)

    @pytest.mark.parametrize("p,alpha,beta", [(3, 2, 3), (2, 2, 2), (3, 2, 2)])
    def test_empty_pair_list_agrees_with_direct(self, p, alpha, beta):
        pairs = empty_differentiating_pairs(p, alpha, beta)
        assert (not pairs) == all_forms_rows_distinct_direct(p, alpha, beta)
        for x, xp in pairs:
            assert differentiating_set(x, xp, p, beta) == []

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            all_forms_rows_distinct_direct(4, 3, 3, max_evals=100)
        with pytest.raises(SizeGuardError):
            empty_differentiating_pairs(4, 3, 3, max_evals=100)
        # The correspondence scan checks its guard before building the table.
        before = winner_table.cache_info()
        with pytest.raises(SizeGuardError, match="direct mode would build a 400-cell"):
            identical_correspondence_rows(4, 3, 3, max_evals=100)
        after = winner_table.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestNeighborReduction:
    @pytest.mark.parametrize("p,alpha,beta", [(3, 3, 4), (2, 2, 2), (4, 2, 2)])
    def test_stated_instances(self, p, alpha, beta):
        assert neighbor_reduction_check(p, alpha, beta)

    @pytest.mark.parametrize("p,alpha,beta", SMALL_GRID)
    def test_small_grid(self, p, alpha, beta):
        try:
            assert neighbor_reduction_check(p, alpha, beta)
        except SizeGuardError:
            pytest.skip("instance above the evaluation guard")

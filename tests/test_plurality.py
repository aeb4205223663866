"""Single-card forms: forbidden patterns and the winner-count labeling."""

from __future__ import annotations

import random
from itertools import product

from davote import (
    ACCEPTED,
    REJECTED,
    Form,
    generate_correspondence,
    oracle_recognize,
    permute_tableau,
)
from davote.core import labeling_generates
from davote.plurality import (
    ForbiddenWitness,
    _find_m1,
    _find_m2,
    _find_m3,
    find_forbidden_submatrix,
    recognize_plurality_form,
)
from conftest import A, B, C, form


def check_witness(g: Form, w: ForbiddenWitness) -> None:
    """Reading g at the witness coordinates must reproduce the pattern."""
    if w.pattern == "m2":
        (i1, i2), (j1, j2) = w.rows, w.cols
        a = w.symbols["a"]
        assert (
            g.cells[i1][j1] == g.cells[i1][j2] == g.cells[i2][j1] == g.cells[i2][j2] == a
        )
    elif w.pattern == "m1":
        (i1, i2), (j1, j2) = w.rows, w.cols
        a, b, c = w.symbols["a"], w.symbols["b"], w.symbols["c"]
        assert g.cells[i1][j1] == g.cells[i2][j2] == a
        assert g.cells[i1][j2] == b and b != a
        assert g.cells[i2][j1] == c and c != a
    elif w.pattern == "m3":
        a, b = w.symbols["a"], w.symbols["b"]
        assert a != b
        if len(w.rows) == 1:
            line = [g.cells[w.rows[0]][j] for j in w.cols]
        else:
            assert len(w.cols) == 1
            line = [g.cells[i][w.cols[0]] for i in w.rows]
        assert line == [a, a, b, b]
    else:
        raise AssertionError(f"unknown pattern {w.pattern}")


class TestFindForbiddenSubmatrix:
    def test_each_grid_shows_its_own_pattern(self, bad_m1, bad_m2, bad_m3):
        for g, name in [(bad_m1, "m1"), (bad_m2, "m2"), (bad_m3, "m3")]:
            w = find_forbidden_submatrix(g)
            assert w is not None and w.pattern == name
            check_witness(g, w)

    def test_each_grid_is_free_of_the_other_patterns(self, bad_m1, bad_m2, bad_m3):
        cases = {"m1": bad_m1, "m2": bad_m2, "m3": bad_m3}
        finders = {"m1": _find_m1, "m2": _find_m2, "m3": _find_m3}
        for name, g in cases.items():
            for other, find in finders.items():
                if other != name:
                    assert find(g.cells) is None

    def test_generated_forms_are_pattern_free(self):
        for p in (2, 3, 4, 5):
            h = generate_correspondence(p, 1, 1)
            rng = random.Random(p)
            cells = tuple(
                tuple(rng.choice(sorted(c)) for c in row) for row in h.cells
            )
            assert find_forbidden_submatrix(Form(candidates=p, cells=cells)) is None

    def test_anti_diagonal_m1_orientation(self):
        g = form(2, ((B, A), (A, B)))
        w = _find_m1(g.cells)
        assert w is not None and w.pattern == "m1"
        check_witness(g, w)

    def test_describe_uses_names(self, bad_m2):
        w = find_forbidden_submatrix(bad_m2)
        text = w.describe(["x", "y", "z"])
        assert "m2" in text and "a=x" in text


class TestRecognizePluralityForm:
    def test_known_bad_grids(self, bad_m1, bad_m2, bad_m3):
        for g, name in [(bad_m1, "m1"), (bad_m2, "m2"), (bad_m3, "m3")]:
            res = recognize_plurality_form(g)
            assert res.verdict == REJECTED
            assert isinstance(res.witness, ForbiddenWitness)
            assert res.witness.pattern == name

    def test_extension_fills_the_last_cell(self):
        res = recognize_plurality_form(form(2, ((A, A), (A, B))))
        assert res.verdict == ACCEPTED
        assert res.labeling.row_labels == ((1, 0), (0, 1))
        assert res.labeling.col_labels == ((1, 0), (0, 1))

    def test_row_constant_form(self):
        res = recognize_plurality_form(form(3, ((A, A, A), (B, B, B), (C, C, C))))
        assert res.verdict == ACCEPTED

    def test_free_lines_get_leftover_candidates(self):
        res = recognize_plurality_form(form(2, ((A, A), (B, B))))
        assert res.verdict == ACCEPTED
        assert res.labeling.col_labels == ((1, 0), (0, 1))

    def test_non_square_rejected(self):
        res = recognize_plurality_form(form(2, ((A, B),)))
        assert res.verdict == REJECTED
        assert "must be" in res.witness

    def test_round_trip_with_shuffles(self):
        for p in (2, 3, 4, 5, 6, 12, 26):
            h = generate_correspondence(p, 1, 1)
            rng = random.Random(11 * p)
            for _ in range(6):
                cells = tuple(
                    tuple(rng.choice(sorted(c)) for c in row) for row in h.cells
                )
                g = Form(candidates=p, cells=cells)
                rp, cp = list(range(p)), list(range(p))
                rng.shuffle(rp)
                rng.shuffle(cp)
                g = permute_tableau(g, rp, cp)
                res = recognize_plurality_form(g)
                assert res.verdict == ACCEPTED
                assert labeling_generates(g, res.labeling)
                for x in res.labeling.row_labels:
                    assert sum(x) == 1

    def test_agrees_with_oracle_on_all_tiny_forms(self):
        for combo in product((A, B), repeat=4):
            g = Form(candidates=2, cells=(combo[:2], combo[2:]))
            fast = recognize_plurality_form(g).verdict == ACCEPTED
            assert fast == oracle_recognize(g).is_dav

    def test_agrees_with_oracle_on_random_three_candidate_forms(self):
        rng = random.Random(3)
        for _ in range(300):
            cells = tuple(
                tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)
            )
            g = Form(candidates=3, cells=cells)
            fast = recognize_plurality_form(g)
            assert (fast.verdict == ACCEPTED) == oracle_recognize(g).is_dav
            if fast.verdict == REJECTED:
                assert isinstance(fast.witness, ForbiddenWitness)
                check_witness(g, fast.witness)

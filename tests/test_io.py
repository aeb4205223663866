"""Reading and writing tableaux and recognition reports."""

from __future__ import annotations

import json

import pytest

from davote import (
    Correspondence,
    Form,
    NTableau,
    ParameterError,
    dumps_result,
    dumps_tableau,
    generate_correspondence,
    generate_form,
    generate_n_tableau,
    load_tableau,
    loads_tableau,
    save_tableau,
)
from davote.core import default_names
from davote.plurality import recognize_plurality_form
from davote.recognizer import recognize_tableau
from davote.special import recognize_n_tableau
from conftest import A, B, form


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "t",
        [
            generate_correspondence(2, 3, 3),
            generate_correspondence(3, 2, 1),
            generate_form(3, 2, 2),
            generate_form(4, 1, 2, "max-index"),
            generate_n_tableau((1, 2)),
            generate_n_tableau((2, 2, 1), kind="form", tie_rule="max-index"),
        ],
    )
    def test_round_trip(self, t):
        back, names = loads_tableau(dumps_tableau(t))
        assert back == t
        assert names == default_names(2 if isinstance(t, NTableau) else t.candidates)

    def test_output_is_valid_json(self):
        text = dumps_tableau(generate_correspondence(2, 2, 2))
        data = json.loads(text)
        assert data["kind"] == "correspondence"
        assert data["candidates"] == ["a", "b"]

    def test_custom_names(self):
        t = generate_form(2, 1, 1)
        text = dumps_tableau(t, names=["left", "right"])
        assert '"left"' in text
        assert loads_tableau(text)[0] == t

    def test_n_tableau_fields(self):
        text = dumps_tableau(generate_n_tableau((1, 2)))
        data = json.loads(text)
        assert data["weights"] == [1, 2]
        assert data["dims"] == [2, 3]
        assert data["cells"] == ["b", "b", "a", "b", "a", "a"]

    def test_n_tableau_tie_cell_spelling(self):
        text = dumps_tableau(generate_n_tableau((1, 1)))
        assert '"ab"' in text
        nt, _ = loads_tableau(text)
        assert nt.cell((0, 1)) == frozenset({A, B})


class TestTextRoundTrip:
    def test_form(self):
        g = generate_form(3, 1, 2)
        assert loads_tableau(dumps_tableau(g, fmt="text"))[0] == g

    def test_correspondence(self):
        h = generate_correspondence(2, 3, 3)
        assert loads_tableau(dumps_tableau(h, fmt="text"))[0] == h

    def test_braces_force_correspondence(self):
        t, names = loads_tableau("a {a,b}\nb b\n")
        assert isinstance(t, Correspondence)
        assert names == ["a", "b"]
        assert t.cells[0][1] == frozenset({A, B})
        assert t.cells[1][0] == frozenset({B})

    def test_bare_names_make_a_form(self):
        t, _ = loads_tableau("a b\nb a\n")
        assert isinstance(t, Form)

    def test_names_map_by_first_appearance(self):
        t, names = loads_tableau("north south\nsouth east\n")
        # north=0, south=1, east=2; three names means three candidates.
        assert t.candidates == 3
        assert names == ["north", "south", "east"]
        assert t.cells == ((0, 1), (1, 2))

    def test_comments_and_blank_lines_ignored(self):
        t, _ = loads_tableau("# header\n\na a\n# middle\nb b\n")
        assert t.cells == ((A, A), (B, B))

    def test_n_tableau_has_no_text_form(self):
        with pytest.raises(ParameterError):
            dumps_tableau(generate_n_tableau((1, 1)), fmt="text")

    def test_names_with_separators_rejected(self):
        with pytest.raises(ParameterError):
            dumps_tableau(generate_form(2, 1, 1), names=["a b", "c"], fmt="text")

    def test_too_many_candidates_for_bare_text(self):
        cells = ((frozenset({0}), frozenset({26})),)
        wide = Correspondence(candidates=27, cells=cells)
        with pytest.raises(ParameterError):
            dumps_tableau(wide, fmt="text")


class TestLoadErrors:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            loads_tableau('{"kind": "mystery", "candidates": ["a"], "cells": []}')

    def test_unknown_cell_name(self):
        text = '{"kind": "form", "candidates": ["a", "b"], "cells": [["a", "q"]]}'
        with pytest.raises(ParameterError):
            loads_tableau(text)

    def test_duplicate_names(self):
        text = '{"kind": "form", "candidates": ["a", "a"], "cells": [["a", "a"]]}'
        with pytest.raises(ParameterError):
            loads_tableau(text)

    def test_names_must_be_a_list(self):
        text = '{"kind": "form", "candidates": "ab", "cells": [["a", "b"]]}'
        with pytest.raises(ParameterError):
            loads_tableau(text)

    def test_n_tableau_dims_must_match(self):
        text = (
            '{"kind": "form", "weights": [1, 1], "dims": [2, 3],'
            ' "candidates": ["a", "b"], "cells": ["a", "a", "b", "b"]}'
        )
        with pytest.raises(ParameterError):
            loads_tableau(text)

    def test_n_tableau_form_cell_must_be_single(self):
        text = (
            '{"kind": "form", "weights": [1], "candidates": ["a", "b"],'
            ' "cells": ["ab", "a"]}'
        )
        with pytest.raises(ParameterError):
            loads_tableau(text)

    def test_n_tableau_repeated_letter_rejected(self):
        text = (
            '{"kind": "correspondence", "weights": [1], "candidates": ["a", "b"],'
            ' "cells": ["aa", "b"]}'
        )
        with pytest.raises(ParameterError):
            loads_tableau(text)

    def test_n_tableau_weights_must_be_integers(self):
        text = (
            '{"kind": "form", "weights": [1.5], "candidates": ["a", "b"],'
            ' "cells": ["a", "b"]}'
        )
        with pytest.raises(ParameterError):
            loads_tableau(text)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        t = generate_form(3, 2, 2)
        path = tmp_path / "grid.json"
        save_tableau(t, path)
        assert load_tableau(path)[0] == t

    def test_save_text(self, tmp_path):
        t = generate_correspondence(2, 2, 2)
        path = tmp_path / "grid.txt"
        save_tableau(t, path, fmt="text")
        assert load_tableau(path)[0] == t


class TestResultSerialization:
    def test_accepted_two_voter(self, corr_2_3_3):
        res = recognize_tableau(corr_2_3_3)
        data = json.loads(dumps_result(res))
        assert data["verdict"] == "accepted"
        assert data["method"] == "two-candidate"
        assert data["row_labels"] == [[3, 0], [2, 1], [1, 2], [0, 3]]
        assert data["witness"] is None

    def test_rejected_with_pattern_witness(self, bad_m2):
        res = recognize_plurality_form(bad_m2)
        data = json.loads(dumps_result(res, names=default_names(3)))
        w = data["witness"]
        assert w["pattern"] == "m2"
        assert w["symbols"] == {"a": "a"}
        assert "rows" in w and "cols" in w and "description" in w

    def test_rejected_with_text_witness(self):
        res = recognize_plurality_form(form(2, ((A, B),)))
        data = json.loads(dumps_result(res))
        assert isinstance(data["witness"], str)

    def test_plane_labeling(self):
        res = recognize_n_tableau(generate_n_tableau((2, 2)))
        data = json.loads(dumps_result(res))
        assert data["axis_labels"] == [[0, 1, 2], [0, 1, 2]]

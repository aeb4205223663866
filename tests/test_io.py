"""Reading and writing tableaux and recognition reports."""

from __future__ import annotations

import hashlib
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
from davote.core import default_names, permute_tableau
from davote.plurality import recognize_plurality_form
from davote.recognizer import recognize_tableau
from davote.special import permute_axes, recognize_n_tableau
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

    def test_empty_correspondence_cell(self):
        with pytest.raises(ParameterError, match="^correspondence cell is empty$"):
            loads_tableau(_json([[["a"], []], [["b"], ["a"]]]))

    def test_n_tableau_weights_must_be_integers(self):
        text = (
            '{"kind": "form", "weights": [1.5], "candidates": ["a", "b"],'
            ' "cells": ["a", "b"]}'
        )
        with pytest.raises(ParameterError):
            loads_tableau(text)


def _json(cells, kind="correspondence", **extra) -> str:
    return json.dumps({"kind": kind, "candidates": ["a", "b"], **extra, "cells": cells})


class TestFirstDefectInRowMajorOrder:
    """With two defective cells, the error names the first in row-major order."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (_json([[["a"], ["q"]], [["a"], "b"]]), "cell name 'q' not in the candidates list"),
            (_json([[["a"], "b"], [["q"], ["a"]]]),
             "correspondence cell 'b' is not a list of names"),
            (_json([[["a"], ["a", 1]], [["q"], ["a"]]]), "cell name 1 is not a string"),
            (_json([[["b"], ["q"]], [[["a"]], ["a"]]]), "cell name 'q' not in the candidates list"),
            (_json([[["b"], [["a"]]], [["q"], ["a"]]]), "cell name ['a'] is not a string"),
            (_json([["a", "q"], ["b", 3]], "form"), "cell name 'q' not in the candidates list"),
            (_json([["a", 3], ["q", "b"]], "form"), "cell name 3 is not a string"),
            (_json([["a", ["b"]], ["q", "a"]], "form"), "cell name ['b'] is not a string"),
            (_json([["b", "q"], [["b"], "a"]], "form"), "cell name 'q' not in the candidates list"),
            (_json(["a", "ax", 5, "b"], weights=[3]), "bad two-candidate cell 'ax'"),
            (_json(["a", 5, "ax", "b"], weights=[3]), "bad two-candidate cell 5"),
            (_json(["a", ["a"], "bb", "b"], weights=[3]), "bad two-candidate cell ['a']"),
            (_json(["a", "bb", ["a"], "b"], weights=[3]), "bad two-candidate cell 'bb'"),
            (_json(["a", "ab", "x", "b"], "form", weights=[3]),
             "form cell 'ab' must name one candidate"),
            (_json(["b", "a", "x", "ab"], "form", weights=[3]), "bad two-candidate cell 'x'"),
        ],
        ids=[
            "corr-unknown-then-bare",
            "corr-bare-then-unknown",
            "corr-int-then-unknown",
            "corr-unknown-then-nested",
            "corr-nested-then-unknown",
            "form-unknown-then-int",
            "form-int-then-unknown",
            "form-list-then-unknown",
            "form-unknown-then-list",
            "n-bad-then-int",
            "n-int-then-bad",
            "n-list-then-bad",
            "n-bad-then-list",
            "n-form-tie-then-bad",
            "n-form-bad-then-tie",
        ],
    )
    def test_first_defect_is_reported(self, text, message):
        with pytest.raises(ParameterError) as e:
            loads_tableau(text)
        assert str(e.value) == message


# sha256 of every output of `_outputs`, pinned: however tableaux are
# built, permuted or written, the bytes must not change.
OUTPUT_SHA256 = {
    "(2, 5, 7)-corr-json": "6110adb1d56d35fd13d0004e92175e8738495de9f85e54c9a40d486db58f762f",
    "(2, 5, 7)-corr-text": "b9c32495b5617fe34e053a6ed50af64e47f11f5f1c5dbb35bfaa16226db98796",
    "(2, 5, 7)-min-json": "27993bdbf02999ff2d3425e4186278335470ff6cdc563f5ec00bb6a69451481a",
    "(2, 5, 7)-min-text": "90cb4e0827a3f4ea7d70ada5ae9ac379bbcaaa3f67dc6d2f65f8dedc3fcc9944",
    "(2, 5, 7)-max-json": "776f385e6b7f8721f0fa4847cdad4081885d5253c0807c245e15611632329ccd",
    "(2, 5, 7)-max-text": "1cf621d43981b0e30c455b0754eeec6f19ca80c68802c248bd46299ad7366c6a",
    "(2, 1, 1)-corr-json": "d25499075ebf99d7e5bf2607c1ef13585fb324a4ecf7c3feaed3e9e06cfc6b0c",
    "(2, 1, 1)-corr-text": "0c8960c6c9412465e2ee0bd96402838480053de2699ce809497767b54eed8a63",
    "(2, 1, 1)-min-json": "03aba92d56a45a70fd10141545bdb7b9333c8d3dce93345e41a5bd7ea9a84575",
    "(2, 1, 1)-min-text": "4b5e96e29f4740119d7bebd14c2c535f7dd11fa806ace8028957105d54a735e2",
    "(2, 1, 1)-max-json": "b53d4f5f937536cae8adbc30aa3b98d80278ce38cc2b7f6fa78fbb9a35e67a2f",
    "(2, 1, 1)-max-text": "7dcec3e0eaed91163dec68ad94fba8614a4004887cde22442a7752e4522a5f27",
    "(3, 3, 4)-corr-json": "4486eff099367e82f890adddceae1717a731d0d502cb06a401006e8418002262",
    "(3, 3, 4)-corr-text": "dfdb47b3848c0fd7dd651d9a86c5129f2a7fad9e9076940f47eaedcfe496f0ff",
    "(3, 3, 4)-min-json": "f92d5e6c0b7db0c943d7207a73c2f3fcaa76e0bd8d95078ab2942bbce756366d",
    "(3, 3, 4)-min-text": "2454a0f2e4d4d9569a1b228e85e9510b911b098ffd5668bf700d77f3fdd5a58d",
    "(3, 3, 4)-max-json": "1f5fc8946a4ec9eb146841feb5d047d2f45560741436b56160ba65054caa8b4e",
    "(3, 3, 4)-max-text": "5b2420ef14aa7e3edd9dfb0d26fe14cb2248ee52e59779d247decd3e73049d63",
    "(4, 2, 3)-corr-json": "c428ec3ee3ffe76ac22b7d0d3d24be963451cfc88a268f5596a028d4e2b0029b",
    "(4, 2, 3)-corr-text": "0b59747b1b35763c05119d8b986dbdf98f9b6116652eda2acef0bce417521996",
    "(4, 2, 3)-min-json": "1213b340f442f02d43e9bc4967a4e84ffe91730a2466b653a942084e9ecbe449",
    "(4, 2, 3)-min-text": "e7a95ae27cd71aa93f396c1c4998e38f953ee1719be13e6c757780c967b5daef",
    "(4, 2, 3)-max-json": "9fc9f58bc6c5bbf907321fbe4effa7de4ec6ef28d1aa6f7f32b57be61c32ad19",
    "(4, 2, 3)-max-text": "822f46cbb16ce4fb2c2f0834c87a058dbc44580c1dc5f26082aa1eec297d11f2",
    "n(3, 4, 2)-correspondence-min-index": "a3b62fa36fec080d38dc7537fef9b3e56920250ffa0c41ed7bd37ef1e66a068c",
    "n(3, 4, 2)-form-min-index": "3d0e3508ea77c9bea3c43f1c70cf57bf0e7c6eeadebb95b73c846763bab10073",
    "n(3, 4, 2)-form-max-index": "3d0e3508ea77c9bea3c43f1c70cf57bf0e7c6eeadebb95b73c846763bab10073",
    "n(5,)-correspondence-min-index": "e55534fe5d7ba624863d1efd3f1f1d2ea3afbe3077e9b9b8d35ba3a46a13e47d",
    "n(5,)-form-min-index": "b5f5e53ee0abea8573d98d173999a10dc22accc72216424eac80fcf42b328ad2",
    "n(5,)-form-max-index": "b5f5e53ee0abea8573d98d173999a10dc22accc72216424eac80fcf42b328ad2",
    "n(2, 2)-correspondence-min-index": "f5a84f94aececc572e6b5e7ae9233d21ada0c8e9a972a3e6d9358a1f1545db97",
    "n(2, 2)-form-min-index": "f78a3ee3fef3dbf00319ddf12d351af882c29e12c2b17aba0e4813949e64b3b1",
    "n(2, 2)-form-max-index": "c8f1d2579d091bd3a5898f3b3be819d0e2d3d851cf0b2786a96640e1ca4c9eea",
    "permute": "361add63a747f5ecd8e419a15db4e402983754ee07681ff0ad8a235806809fd6",
    "permute-one-col": "d807939d86ea99daed3152df9068955d1fdbde4f2e49e25536afde8b7b655cf1",
    "permute-axes": "ec53eda32121856408dd1d3dae5ac4a2e88f889b4edc47903b5adac28be9eb7c",
}


def _outputs() -> dict:
    """Case name -> a call that makes the output hashed in `OUTPUT_SHA256`."""
    out = {}
    for key in ((2, 5, 7), (2, 1, 1), (3, 3, 4), (4, 2, 3)):
        for kind in ("corr", "min", "max"):
            for fmt in ("json", "text"):

                def make(key=key, kind=kind, fmt=fmt):
                    if kind == "corr":
                        t = generate_correspondence(*key)
                    else:
                        t = generate_form(*key, f"{kind}-index")
                    return dumps_tableau(t, fmt=fmt)

                out[f"{key}-{kind}-{fmt}"] = make
    for weights in ((3, 4, 2), (5,), (2, 2)):
        for kind, tie in (("correspondence", "min-index"), ("form", "min-index"),
                          ("form", "max-index")):
            out[f"n{weights}-{kind}-{tie}"] = (
                lambda w=weights, k=kind, tie=tie: dumps_tableau(generate_n_tableau(w, k, tie))
            )
    out["permute"] = lambda: dumps_tableau(permute_tableau(
        generate_correspondence(3, 2, 3), [5, 0, 3, 1, 4, 2], [9, 2, 0, 7, 4, 1, 8, 3, 6, 5]))
    out["permute-one-col"] = lambda: dumps_tableau(
        permute_tableau(generate_form(2, 3, 1), [3, 1, 0, 2], [1, 0]))
    out["permute-axes"] = lambda: dumps_tableau(permute_axes(
        generate_n_tableau((2, 3, 1), "form", "max-index"), [[2, 0, 1], [1, 3, 0, 2], [1, 0]]))
    return out


OUTPUTS = _outputs()


class TestOutputBytes:
    def test_every_case_is_pinned(self):
        assert OUTPUTS.keys() == OUTPUT_SHA256.keys()

    @pytest.mark.parametrize("case", sorted(OUTPUT_SHA256))
    def test_output_is_byte_identical(self, case):
        text = OUTPUTS[case]()
        assert hashlib.sha256(text.encode()).hexdigest() == OUTPUT_SHA256[case]
        fmt = "text" if case.endswith("-text") else "json"
        t, names = loads_tableau(text)
        assert dumps_tableau(t, names, fmt) == text


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

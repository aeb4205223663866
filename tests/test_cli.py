"""End-to-end tests of the command line front end.

Each test drives main(argv) directly and inspects the exit code plus
captured stdout/stderr; no subprocesses.  Exit code convention:
0 accepted/true, 1 rejected/false, 2 undecided or guard, 3 usage/I/O,
4 internal error.
"""

import json

import pytest
from conftest import BAD_M2_ROWS, form
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from davote import cli, matching
from davote.cli import main
from davote.core import generate_correspondence, generate_form
from davote.special import generate_n_tableau
from davote.tableau_io import dumps_tableau, loads_tableau


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_correspondence_json_stdout(self, capsys):
        code, out, err = run(
            capsys, ["generate", "--p", "3", "--alpha", "2", "--beta", "3"]
        )
        assert code == 0
        t, names = loads_tableau(out)
        assert t == generate_correspondence(3, 2, 3)
        assert names == ["a", "b", "c"]

    def test_form_text_max_tie(self, capsys):
        code, out, err = run(
            capsys,
            ["generate", "--p", "2", "--alpha", "3", "--beta", "3",
             "--kind", "form", "--tie", "max", "--format", "text"],
        )
        assert code == 0
        t, _ = loads_tableau(out)
        assert t == generate_form(2, 3, 3, tie_rule="max-index")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        code, out, err = run(
            capsys,
            ["generate", "--p", "2", "--alpha", "1", "--beta", "2",
             "-o", str(target)],
        )
        assert code == 0
        assert out == ""
        t, _ = loads_tableau(target.read_text())
        assert t == generate_correspondence(2, 1, 2)

    def test_bad_parameters_are_usage_errors(self, capsys):
        code, out, err = run(
            capsys, ["generate", "--p", "1", "--alpha", "1", "--beta", "1"]
        )
        assert code == 3
        assert "error:" in err

    def test_oversized_table_is_usage_error(self, capsys):
        # About 3 * 10^45 cells: refused before any strategy is listed.
        code, out, err = run(
            capsys, ["generate", "--p", "40", "--alpha", "40", "--beta", "40"]
        )
        assert code == 3
        assert out == ""
        assert "over the limit" in err and "Traceback" not in err

    def test_missing_required_flag(self, capsys):
        code, out, err = run(capsys, ["generate", "--p", "3", "--alpha", "1"])
        assert code == 3


class TestGenerateN:
    def test_round_trips_through_json(self, capsys):
        code, out, err = run(capsys, ["generate-n", "--weights", "1,2"])
        assert code == 0
        t, _ = loads_tableau(out)
        assert t == generate_n_tableau((1, 2))

    def test_form_kind_and_tie(self, capsys):
        code, out, err = run(
            capsys,
            ["generate-n", "--weights", "2,3", "--kind", "form", "--tie", "max"],
        )
        assert code == 0
        t, _ = loads_tableau(out)
        assert t == generate_n_tableau((2, 3), kind="form", tie_rule="max-index")

    def test_oversized_tableau_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["generate-n", "--weights", "10000,10000,10000"])
        assert code == 3
        assert out == ""
        assert "over the limit" in err and "Traceback" not in err

    def test_non_integer_weights(self, capsys):
        code, out, err = run(capsys, ["generate-n", "--weights", "1,x"])
        assert code == 3
        assert "comma-separated integers" in err


class TestRecognize:
    def write(self, tmp_path, tableau, fmt="json"):
        target = tmp_path / f"t.{fmt}"
        target.write_text(dumps_tableau(tableau, fmt=fmt))
        return str(target)

    def test_accepts_generated_correspondence(self, capsys, tmp_path):
        path = self.write(tmp_path, generate_correspondence(3, 2, 3))
        code, out, err = run(capsys, ["recognize", path])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "accepted"
        assert report["method"] == "signature-matching"
        assert report["row_labels"] is not None

    def test_accepts_text_format_form(self, capsys, tmp_path):
        path = self.write(tmp_path, generate_form(3, 1, 2), fmt="text")
        code, out, err = run(capsys, ["recognize", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "accepted"

    def test_rejects_bad_grid(self, capsys, tmp_path):
        path = self.write(tmp_path, form(3, BAD_M2_ROWS))
        code, out, err = run(capsys, ["recognize", path])
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "rejected"
        assert report["witness"] is not None

    def test_over_guard_is_undecided(self, capsys, tmp_path, monkeypatch):
        # 10 x 10 cells, out of every all-distinct-rows regime; a row
        # search budget of one node cannot label its ten rows.
        monkeypatch.setattr(matching, "_ROW_NODES", 1)
        path = self.write(tmp_path, generate_form(3, 3, 3))
        code, out, err = run(capsys, ["recognize", path])
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "undecided"
        assert report["method"] == "row-search"

    def test_raised_budget_decides(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(matching, "_ROW_NODES", 1)
        path = self.write(tmp_path, generate_form(3, 3, 3))
        monkeypatch.undo()
        code, out, err = run(capsys, ["recognize", path])
        assert code == 0
        report = json.loads(out)
        assert (report["verdict"], report["method"]) == ("accepted", "row-search")

    def test_oracle_cells_option_is_gone(self, capsys, tmp_path):
        path = self.write(tmp_path, generate_form(3, 3, 3))
        code, out, err = run(capsys, ["recognize", path, "--oracle-cells", "200"])
        assert code == 3
        assert out == "" and "--oracle-cells" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["recognize", str(tmp_path / "absent.json")])
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "form", "candidates": ["a", "b"], "cells": [1, 2]},
            {"kind": "correspondence", "weights": 3, "cells": ["a"]},
            {"kind": "form", "candidates": ["a", "b"], "cells": [[["a"], "b"], ["b", "a"]]},
            {"kind": "correspondence", "weights": [True], "cells": ["b", "ab"]},
            {"kind": "correspondence", "candidates": ["a", "b"],
             "cells": [["a", "b"], ["b", "a"]]},
        ],
        ids=["row-not-list", "weights-not-list", "form-cell-not-name",
             "weights-bool", "corr-cell-bare-string"],
    )
    def test_malformed_json_is_usage_error(self, capsys, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, ["recognize", str(path)])
        assert code == 3
        assert "error:" in err
        assert "Traceback" not in err


class TestCheckDistinct:
    def test_correspondence_distinct(self, capsys):
        code, out, err = run(
            capsys,
            ["check-distinct", "--p", "2", "--alpha", "3", "--beta", "3",
             "--what", "corr"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["closed"] is True
        assert report["direct"] is True
        assert report["witness_pairs"] == []

    def test_forms_not_distinct(self, capsys):
        code, out, err = run(
            capsys, ["check-distinct", "--p", "3", "--alpha", "2", "--beta", "3"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["closed"] is False
        assert report["direct"] is False
        assert report["witness_pairs"]

    def test_closed_only_mode(self, capsys):
        code, out, err = run(
            capsys,
            ["check-distinct", "--p", "4", "--alpha", "2", "--beta", "2",
             "--mode", "closed"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["closed"] is True
        assert report["direct"] is None

    def test_direct_over_budget_is_undecided(self, capsys):
        code, out, err = run(
            capsys,
            ["check-distinct", "--p", "4", "--alpha", "3", "--beta", "3",
             "--mode", "direct", "--max-evals", "10"],
        )
        assert code == 2
        report = json.loads(out)
        assert report["direct"] is None
        assert "note" in report

    def test_corr_direct_over_budget_is_undecided(self, capsys):
        code, out, err = run(
            capsys,
            ["check-distinct", "--p", "3", "--alpha", "4", "--beta", "4",
             "--what", "corr", "--mode", "direct", "--max-evals", "5"],
        )
        assert code == 2


class TestPluralityCheck:
    def test_bad_grid_reports_pattern(self, capsys, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(dumps_tableau(form(3, BAD_M2_ROWS)))
        code, out, err = run(capsys, ["plurality-check", str(target)])
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "rejected"
        assert report["witness"]["pattern"] == "m2"

    def test_good_grid_accepted(self, capsys, tmp_path):
        target = tmp_path / "good.json"
        target.write_text(dumps_tableau(generate_form(3, 1, 1)))
        code, out, err = run(capsys, ["plurality-check", str(target)])
        assert code == 0
        assert json.loads(out)["verdict"] == "accepted"

    def test_rejects_correspondence_input(self, capsys, tmp_path):
        target = tmp_path / "corr.json"
        target.write_text(dumps_tableau(generate_correspondence(2, 1, 1)))
        code, out, err = run(capsys, ["plurality-check", str(target)])
        assert code == 3
        assert "form file" in err


class TestOracle:
    def test_accepts_and_reports_labeling(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(dumps_tableau(generate_correspondence(3, 1, 1)))
        code, out, err = run(capsys, ["oracle", str(target)])
        assert code == 0
        report = json.loads(out)
        assert report["is_dav"] is True
        assert report["labelings_found"] >= 1
        assert report["row_labels"]

    def test_rejects_bad_grid(self, capsys, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(dumps_tableau(form(3, BAD_M2_ROWS)))
        code, out, err = run(capsys, ["oracle", str(target)])
        assert code == 1
        assert json.loads(out)["is_dav"] is False

    def test_size_guard(self, capsys, tmp_path):
        target = tmp_path / "big.json"
        target.write_text(dumps_tableau(generate_correspondence(2, 10, 10)))
        code, out, err = run(capsys, ["oracle", str(target)])
        assert code == 2
        assert "error:" in err

    def test_raised_cell_budget(self, capsys, tmp_path):
        target = tmp_path / "big.json"
        target.write_text(dumps_tableau(generate_correspondence(2, 10, 10)))
        code, out, err = run(capsys, ["oracle", str(target), "--max-cells", "121"])
        assert code == 0

    def test_count_cap_below_one_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(dumps_tableau(generate_form(3, 1, 1)))
        code, out, err = run(capsys, ["oracle", str(target), "--count-cap", "0"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_two_voter_tableau_is_bridged(self, capsys, tmp_path):
        target = tmp_path / "nt.json"
        target.write_text(dumps_tableau(generate_n_tableau((2, 2))))
        code, out, err = run(capsys, ["oracle", str(target)])
        assert code == 0
        assert json.loads(out)["is_dav"] is True

    def test_three_voter_tableau_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "nt.json"
        target.write_text(dumps_tableau(generate_n_tableau((1, 1, 1))))
        code, out, err = run(capsys, ["oracle", str(target)])
        assert code == 3
        assert "2-voter" in err


class TestShuffle:
    def test_seed_determinism(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(dumps_tableau(generate_correspondence(3, 2, 3)))
        _, first, _ = run(capsys, ["shuffle", str(target), "--seed", "0"])
        _, again, _ = run(capsys, ["shuffle", str(target), "--seed", "0"])
        _, other, _ = run(capsys, ["shuffle", str(target), "--seed", "1"])
        assert first == again
        assert first != other

    def test_shuffled_tableau_still_recognized(self, capsys, tmp_path):
        source = tmp_path / "t.json"
        shuffled = tmp_path / "s.json"
        source.write_text(dumps_tableau(generate_correspondence(3, 2, 3)))
        code, out, err = run(
            capsys, ["shuffle", str(source), "--seed", "7", "-o", str(shuffled)]
        )
        assert code == 0
        code, out, err = run(capsys, ["recognize", str(shuffled)])
        assert code == 0
        assert json.loads(out)["verdict"] == "accepted"

    def test_shuffles_every_axis_of_n_tableau(self, capsys, tmp_path):
        source = tmp_path / "nt.json"
        shuffled = tmp_path / "ns.json"
        source.write_text(dumps_tableau(generate_n_tableau((2, 3, 2))))
        code, out, err = run(
            capsys, ["shuffle", str(source), "--seed", "3", "-o", str(shuffled)]
        )
        assert code == 0
        code, out, err = run(capsys, ["recognize", str(shuffled)])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "accepted"
        assert report["method"] == "two-candidate"

    def test_text_output_round_trips(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        t = generate_form(3, 2, 4)
        target.write_text(dumps_tableau(t))
        code, out, err = run(
            capsys, ["shuffle", str(target), "--seed", "2", "--format", "text"]
        )
        assert code == 0
        loaded, _ = loads_tableau(out)
        # Rows and columns are both permuted; the cell multiset survives.
        assert loaded.rows == t.rows and loaded.cols == t.cols
        flat = lambda g: sorted(v for row in g.cells for v in row)
        assert flat(loaded) == flat(t)
        assert loaded.cells != t.cells


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 3

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 3
        assert run(capsys, ["validate-grid"])[0] == 3

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unreadable_file(self, capsys, tmp_path, fmt):
        bad = tmp_path / "bad.txt"
        bad.write_text("{ this is not a tableau")
        code, out, err = run(capsys, ["recognize", str(bad)])
        assert code == 3
        assert "error:" in err

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text('{"cells": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, ["recognize", str(bad)])
        assert code == 3
        assert "Traceback" not in err

    def test_internal_error_is_one_line(self, capsys, tmp_path, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_recognize", boom)
        path = tmp_path / "t.json"
        path.write_text(dumps_tableau(generate_form(3, 1, 2)))
        code, out, err = run(capsys, ["recognize", str(path)])
        assert code == 4
        assert err == "error: internal error: RuntimeError: boom\n"
        assert out == ""


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=30,
)
# Objects shaped like tableau files, so the fuzz also gets past the
# top-level schema checks.
tableau_like = st.fixed_dictionaries(
    {"kind": st.sampled_from(["form", "correspondence"]) | json_values},
    optional={
        "candidates": st.lists(st.sampled_from("abc"), max_size=4) | json_values,
        "cells": st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "ab", "x"]) | json_values, max_size=6),
            max_size=6,
        )
        | json_values,
        "weights": st.lists(st.integers(-1, 4), max_size=3) | json_values,
        "dims": json_values,
    },
)


class TestRecognizeFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.one_of(
            json_values.map(json.dumps).map(str.encode),
            tableau_like.map(json.dumps).map(str.encode),
            st.binary(max_size=200),
        )
    )
    def test_any_file_gets_a_documented_code(self, capsys, tmp_path, data):
        path = tmp_path / "fuzz.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["recognize", str(path)])
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err

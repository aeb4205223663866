"""The top-level `davote` namespace: exactly the documented API."""

from __future__ import annotations

import pytest

import davote

DOCUMENTED_API = [
    # types
    "Correspondence",
    "Form",
    "NTableau",
    "Labeling",
    "PlaneLabeling",
    "RecognitionResult",
    # verdicts
    "ACCEPTED",
    "REJECTED",
    "UNDECIDED",
    # errors
    "ParameterError",
    "NoParametersError",
    "SizeGuardError",
    # generation
    "generate_correspondence",
    "generate_form",
    "generate_n_tableau",
    "permute_tableau",
    "permute_axes",
    # recognition
    "recognize_tableau",
    "oracle_recognize",
    # distinctness
    "correspondence_rows_distinct",
    "all_forms_rows_distinct",
    # I/O
    "load_tableau",
    "loads_tableau",
    "save_tableau",
    "dumps_tableau",
    "dumps_result",
]

# What the benchmark harness in perfbench/ reads from `davote`.
BENCHMARK_NAMES = [
    "Correspondence",
    "Form",
    "NTableau",
    "recognize_tableau",
    "RecognitionResult",
    "UNDECIDED",
    "oracle_recognize",
    "generate_correspondence",
]


def test_all_is_the_documented_api():
    assert sorted(davote.__all__) == sorted(DOCUMENTED_API)


def test_every_exported_name_resolves():
    for name in davote.__all__:
        assert hasattr(davote, name), name


def test_benchmark_names_are_exported():
    assert set(BENCHMARK_NAMES) <= set(davote.__all__)


def test_star_import_binds_every_documented_name():
    namespace: dict = {}
    exec("from davote import *", namespace)
    for name in davote.__all__:
        assert namespace[name] is getattr(davote, name), name


def test_dir_lists_every_documented_name():
    assert set(davote.__all__) <= set(dir(davote))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        davote.no_such_name  # noqa: B018
    assert not hasattr(davote, "recognize")

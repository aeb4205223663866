"""Distributed approval voting: generation, recognition, row distinctness.

Two voters hold alpha and beta identical cards and distribute them over
p candidates; candidates with the highest combined count win.  The
package generates the resulting outcome tables, decides in polynomial
time whether an arbitrary matrix is such a table (recovering the hidden
strategy labels), answers when all tables of given parameters have
pairwise distinct rows, and cross-checks everything against a small
exhaustive oracle.  A two-candidate generalization to any number of
voters is included.

This namespace holds the documented API; everything else is imported
from its module (`davote.core`, `davote.recognizer`, ...).  Importing
the package loads none of those modules: each documented name is
imported from its module on first use and then kept here, so
``import davote`` stays cheap and ``python -m davote`` loads only the
modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
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

_HOMES = {
    "core": (
        "Correspondence",
        "Form",
        "Labeling",
        "NoParametersError",
        "ParameterError",
        "PlaneLabeling",
        "SizeGuardError",
        "generate_correspondence",
        "generate_form",
        "permute_tableau",
    ),
    "distinctness": ("all_forms_rows_distinct", "correspondence_rows_distinct"),
    "oracle": ("oracle_recognize",),
    "recognizer": ("recognize_tableau",),
    "results": ("ACCEPTED", "REJECTED", "UNDECIDED", "RecognitionResult"),
    "special": ("NTableau", "generate_n_tableau", "permute_axes"),
    "tableau_io": (
        "dumps_result",
        "dumps_tableau",
        "load_tableau",
        "loads_tableau",
        "save_tableau",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """Import a documented name from its module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

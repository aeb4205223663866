"""Distributed approval voting: generation, recognition, row distinctness.

Two voters hold alpha and beta identical cards and distribute them over
p candidates; candidates with the highest combined count win.  The
package generates the resulting outcome tables, decides in polynomial
time whether an arbitrary matrix is such a table (recovering the hidden
strategy labels), answers when all tables of given parameters have
pairwise distinct rows, and cross-checks everything against a small
exhaustive oracle.  A two-candidate generalization to any number of
voters is included.

This namespace holds the documented API; everything else stays
reachable through its module (`davote.core`, `davote.recognizer`, ...).
"""

from .core import (
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    ParameterError,
    PlaneLabeling,
    SizeGuardError,
    generate_correspondence,
    generate_form,
    permute_tableau,
)
from .distinctness import all_forms_rows_distinct, correspondence_rows_distinct
from .oracle import oracle_recognize
from .recognizer import recognize_tableau
from .results import ACCEPTED, REJECTED, UNDECIDED, RecognitionResult
from .special import NTableau, generate_n_tableau, permute_axes
from .tableau_io import (
    dumps_result,
    dumps_tableau,
    load_tableau,
    loads_tableau,
    save_tableau,
)

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

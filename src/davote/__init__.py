"""Distributed approval voting: generation, recognition, row distinctness.

Two voters hold alpha and beta identical cards and distribute them over
p candidates; candidates with the highest combined count win.  The
package generates the resulting outcome tables, decides in polynomial
time whether an arbitrary matrix is such a table (recovering the hidden
strategy labels), answers when all tables of given parameters have
pairwise distinct rows, and cross-checks everything against a small
exhaustive oracle.  A two-candidate generalization to any number of
voters is included.
"""

from .core import (
    Candidate,
    CandidateSet,
    CapExceededError,
    Correspondence,
    Form,
    Labeling,
    NoParametersError,
    ParameterError,
    PlaneLabeling,
    Signature,
    SizeGuardError,
    Strategy,
    TIE_RULES,
    argmax_set,
    default_names,
    enumerate_all_forms,
    enumerate_strategies,
    generate_correspondence,
    generate_form,
    infer_parameters,
    labeling_generates,
    permute_tableau,
    row_signature,
    signature_of_strategy,
    strategy_count,
    transpose_tableau,
)
from .distinctness import (
    all_forms_rows_distinct,
    all_forms_rows_distinct_direct,
    correspondence_rows_distinct,
    correspondence_rows_distinct_direct,
    differentiating_set,
    empty_differentiating_pairs,
    identical_correspondence_rows,
    neighbor_reduction_check,
)
from .oracle import OracleReport, oracle_count_forms, oracle_recognize
from .plurality import (
    ForbiddenWitness,
    PartialAssignment,
    find_forbidden_submatrix,
    greedy_assignment,
    recognize_plurality_form,
)
from .recognizer import (
    b_set,
    b_set_family,
    lu_counts,
    recognize_correspondence,
    recognize_form,
    recognize_tableau,
)
from .results import ACCEPTED, REJECTED, UNDECIDED, RecognitionResult
from .special import (
    CountInterval,
    NTableau,
    count_intervals,
    generate_n_tableau,
    n_tableau_as_grid,
    permute_axes,
    plane_signature,
    recognize_form_2_2,
    recognize_n_tableau,
)
from .tableau_io import (
    dumps_result,
    dumps_tableau,
    load_tableau,
    loads_tableau,
    result_to_dict,
    save_tableau,
)
from .validation import run_grid_validation

__version__ = "0.1.0"

__all__ = [
    "ACCEPTED",
    "REJECTED",
    "UNDECIDED",
    "TIE_RULES",
    "Candidate",
    "CandidateSet",
    "CapExceededError",
    "Correspondence",
    "CountInterval",
    "ForbiddenWitness",
    "Form",
    "Labeling",
    "NTableau",
    "NoParametersError",
    "OracleReport",
    "ParameterError",
    "PartialAssignment",
    "PlaneLabeling",
    "RecognitionResult",
    "Signature",
    "SizeGuardError",
    "Strategy",
    "all_forms_rows_distinct",
    "all_forms_rows_distinct_direct",
    "argmax_set",
    "b_set",
    "b_set_family",
    "correspondence_rows_distinct",
    "correspondence_rows_distinct_direct",
    "count_intervals",
    "default_names",
    "differentiating_set",
    "dumps_result",
    "dumps_tableau",
    "empty_differentiating_pairs",
    "enumerate_all_forms",
    "enumerate_strategies",
    "find_forbidden_submatrix",
    "generate_correspondence",
    "generate_form",
    "generate_n_tableau",
    "greedy_assignment",
    "identical_correspondence_rows",
    "infer_parameters",
    "labeling_generates",
    "load_tableau",
    "loads_tableau",
    "lu_counts",
    "n_tableau_as_grid",
    "neighbor_reduction_check",
    "oracle_count_forms",
    "oracle_recognize",
    "permute_axes",
    "permute_tableau",
    "plane_signature",
    "recognize_correspondence",
    "recognize_form",
    "recognize_form_2_2",
    "recognize_n_tableau",
    "recognize_plurality_form",
    "recognize_tableau",
    "result_to_dict",
    "row_signature",
    "run_grid_validation",
    "save_tableau",
    "signature_of_strategy",
    "strategy_count",
    "transpose_tableau",
]

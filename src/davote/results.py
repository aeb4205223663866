"""Shared result record for all recognition routines."""

from __future__ import annotations

from .core import Labeling, PlaneLabeling, _Record

__all__ = ["RecognitionResult", "ACCEPTED", "REJECTED", "UNDECIDED", "METHODS"]

ACCEPTED = "accepted"
REJECTED = "rejected"
UNDECIDED = "undecided"

# How a verdict was reached.  "two-candidate" covers every p = 2
# tableau (plane ranking, any number of voters), "signature-matching"
# the other correspondences, "plurality" the single-card forms, and the
# winner-count row stage the other forms: "lu-counting" where all rows
# are always distinct (either orientation), "row-search" elsewhere.
METHODS = (
    "signature-matching",
    "lu-counting",
    "row-search",
    "plurality",
    "two-candidate",
)


class RecognitionResult(_Record):
    """Outcome of a recognition attempt.

    verdict is "accepted", "rejected" or "undecided".  An accepted
    result always carries a labeling that regenerates the input exactly
    (cell equality for correspondences, cell membership for forms).  A
    rejected result carries a witness describing one reason for the
    failure; "undecided" marks a form whose row search spent its node
    budget (`matching._ROW_NODES`), and the witness names the budget.
    """

    _fields = ("verdict", "method", "labeling", "witness")

    def __init__(
        self,
        verdict: str,
        method: str,
        labeling: Labeling | PlaneLabeling | None = None,
        witness: object | None = None,
    ) -> None:
        self.verdict = verdict
        self.method = method
        self.labeling = labeling
        self.witness = witness

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPTED

"""Shared result record for all recognition routines."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Labeling, PlaneLabeling

__all__ = ["RecognitionResult", "ACCEPTED", "REJECTED", "UNDECIDED", "METHODS"]

ACCEPTED = "accepted"
REJECTED = "rejected"
UNDECIDED = "undecided"

# How a verdict was reached.  "two-candidate" covers every p = 2
# tableau (plane ranking, any number of voters), "signature-matching"
# the other correspondences, "lu-counting" the p >= 3 forms whose rows
# are always distinct (either orientation), "plurality" the single-card
# case and "oracle" exhaustive search.
METHODS = (
    "signature-matching",
    "lu-counting",
    "plurality",
    "two-candidate",
    "oracle",
)


@dataclass
class RecognitionResult:
    """Outcome of a recognition attempt.

    verdict is "accepted", "rejected" or "undecided".  An accepted
    result always carries a labeling that regenerates the input exactly
    (cell equality for correspondences, cell membership for forms).  A
    rejected result carries a witness describing one reason for the
    failure; "undecided" marks inputs outside every implemented regime
    that are too large for the exhaustive oracle.
    """

    verdict: str
    method: str
    labeling: Labeling | PlaneLabeling | None = None
    witness: object | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPTED

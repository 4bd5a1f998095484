"""Election winner determination and possible-manipulator coalition detection."""

from .core import ElectionInstance, Preference, TieBreakOrder
from .detection import DetectionQuery, DetectionVerdict, verify_verdict
from .rules import ScoringVector, VotingRule, winner

__version__ = "0.1.0"

__all__ = [
    "DetectionQuery",
    "DetectionVerdict",
    "ElectionInstance",
    "Preference",
    "ScoringVector",
    "TieBreakOrder",
    "VotingRule",
    "verify_verdict",
    "winner",
    "__version__",
]

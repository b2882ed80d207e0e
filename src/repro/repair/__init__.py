"""Update generation, consistency management and the automatic baseline."""

from repro.repair.candidate import CandidateUpdate
from repro.repair.consistency import AppliedFeedback, ConsistencyManager
from repro.repair.feedback import Feedback, UserFeedback
from repro.repair.generator import UpdateGenerator
from repro.repair.heuristic import HeuristicRepairResult, batch_repair
from repro.repair.similarity import (
    SimilarityCache,
    SimilarityFunction,
    best_candidate,
    levenshtein,
    levenshtein_many,
    similarity,
    similarity_many,
    token_jaccard,
)
from repro.repair.state import EventKind, RepairState, StateEvent

__all__ = [
    "AppliedFeedback",
    "CandidateUpdate",
    "ConsistencyManager",
    "EventKind",
    "Feedback",
    "HeuristicRepairResult",
    "RepairState",
    "SimilarityCache",
    "SimilarityFunction",
    "StateEvent",
    "UpdateGenerator",
    "UserFeedback",
    "batch_repair",
    "best_candidate",
    "levenshtein",
    "levenshtein_many",
    "similarity",
    "similarity_many",
    "token_jaccard",
]

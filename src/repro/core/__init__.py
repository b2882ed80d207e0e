"""GDR core: grouping, VOI ranking, active learning, the engine."""

from repro.core.effort import EffortPolicy, FeedbackBudget
from repro.core.gdr import GDRConfig, GDREngine, GDRResult
from repro.core.grouping import GroupIndex, UpdateGroup, group_sort_key, group_updates
from repro.core.learner import FeedbackLearner, LearnerPrediction
from repro.core.metrics import RepairReport, TrajectoryPoint, evaluate_repair
from repro.core.quality import QualityEvaluator, quality_improvement
from repro.core.ranking import GreedyRanking, RandomRanking, RankingStrategy, VOIRanking
from repro.core.session import InteractiveSession, SessionReport
from repro.core.user import CallbackOracle, GroundTruthOracle, NoisyOracle, UserOracle
from repro.core.voi import GroupBenefitCache, VOIEstimator

__all__ = [
    "CallbackOracle",
    "EffortPolicy",
    "FeedbackBudget",
    "FeedbackLearner",
    "GDRConfig",
    "GDREngine",
    "GDRResult",
    "GreedyRanking",
    "GroundTruthOracle",
    "GroupBenefitCache",
    "GroupIndex",
    "InteractiveSession",
    "LearnerPrediction",
    "NoisyOracle",
    "QualityEvaluator",
    "RandomRanking",
    "RankingStrategy",
    "RepairReport",
    "SessionReport",
    "TrajectoryPoint",
    "UpdateGroup",
    "UserOracle",
    "VOIEstimator",
    "VOIRanking",
    "evaluate_repair",
    "group_sort_key",
    "group_updates",
    "quality_improvement",
]

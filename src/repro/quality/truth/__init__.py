"""Truth inference algorithms (quality control, inference side)."""

from repro.quality.truth.base import (
    EM_BACKENDS,
    InferenceResult,
    SparseObservations,
    TruthInference,
    answers_from_platform,
    encode_observations,
    infer_evidence,
    label_space,
    votes_by_task,
    worker_answer_index,
)
from repro.quality.truth.bayesian import BayesianVote
from repro.quality.truth.dawid_skene import DawidSkene
from repro.quality.truth.glad import Glad
from repro.quality.truth.mace import Mace
from repro.quality.truth.majority import MajorityVote, WeightedMajorityVote
from repro.quality.truth.multilabel import MultiLabelVote, set_f1
from repro.quality.truth.numeric import CatdAggregator, MeanAggregator, MedianAggregator
from repro.quality.truth.zencrowd import ZenCrowd

#: Registry of categorical truth-inference methods by short name.
CATEGORICAL_METHODS = {
    "mv": MajorityVote,
    "wmv": WeightedMajorityVote,
    "ds": DawidSkene,
    "zc": ZenCrowd,
    "glad": Glad,
    "bayes": BayesianVote,
    "mace": Mace,
}

#: Registry of numeric aggregation methods by short name.
NUMERIC_METHODS = {
    "mean": MeanAggregator,
    "median": MedianAggregator,
    "catd": CatdAggregator,
}

__all__ = [
    "CATEGORICAL_METHODS",
    "EM_BACKENDS",
    "NUMERIC_METHODS",
    "BayesianVote",
    "CatdAggregator",
    "DawidSkene",
    "Glad",
    "InferenceResult",
    "Mace",
    "MajorityVote",
    "MultiLabelVote",
    "MeanAggregator",
    "MedianAggregator",
    "SparseObservations",
    "TruthInference",
    "WeightedMajorityVote",
    "ZenCrowd",
    "answers_from_platform",
    "encode_observations",
    "infer_evidence",
    "label_space",
    "set_f1",
    "votes_by_task",
    "worker_answer_index",
]

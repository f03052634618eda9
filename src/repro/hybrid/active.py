"""Hybrid human/machine labeling: crowd-in-the-loop active learning.

The tutorial's hybrid pipelines route items between a machine model and
the crowd: the model labels what it is confident about, the crowd labels
what it is not, and every crowd label makes the model better. This module
implements the canonical loop:

1. seed: crowd-label a small random batch (redundancy + truth inference);
2. train the model on everything crowd-labeled so far;
3. score the unlabeled pool; pick the lowest-margin (most uncertain) batch;
4. crowd-label that batch; repeat while budget remains;
5. final output = crowd labels where available, model predictions elsewhere.

The F9 benchmark compares this uncertainty routing against random routing
at the same crowd budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hybrid.naive_bayes import NaiveBayesText
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference, infer_evidence


@dataclass
class ActiveLearningResult:
    """Outcome of a crowd-in-the-loop labeling run."""

    crowd_labels: dict[int, Any]             # item index -> inferred label
    final_labels: list[Any]                  # full dataset (crowd or model)
    model: NaiveBayesText
    crowd_questions: int                     # answers collected
    cost: float
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    # (crowd-labeled count, heldout model accuracy) checkpoints

    def accuracy_against(self, truth: Sequence[Any]) -> float:
        """Fraction of final labels matching the ground-truth list."""
        hits = sum(1 for i, label in enumerate(self.final_labels) if label == truth[i])
        return hits / len(truth) if truth else 0.0


class ActiveLearner:
    """Uncertainty-routed hybrid labeler.

    Args:
        platform: Marketplace for crowd labels.
        categories: The label set.
        truth_fn: Item -> true label (drives simulated workers only).
        redundancy: Votes per crowd-labeled item.
        inference: Vote aggregation.
        batch_size: Items crowd-labeled per round.
        selection: ``"uncertainty"`` (lowest model margin first) or
            ``"random"`` (the passive baseline).
        seed: RNG seed for seeding/random selection.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        categories: Sequence[Any],
        truth_fn: Callable[[str], Any],
        redundancy: int = 3,
        inference: TruthInference | None = None,
        batch_size: int = 10,
        selection: str = "uncertainty",
        seed: int | None = None,
    ):
        if len(categories) < 2:
            raise ConfigurationError("need at least two categories")
        if selection not in ("uncertainty", "random"):
            raise ConfigurationError("selection must be 'uncertainty' or 'random'")
        if batch_size < 1 or redundancy < 1:
            raise ConfigurationError("batch_size and redundancy must be >= 1")
        self.platform = platform
        self.categories = tuple(categories)
        self.truth_fn = truth_fn
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.batch_size = batch_size
        self.selection = selection
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #

    def _crowd_label(
        self, items: Sequence[str], indices: list[int]
    ) -> tuple[dict[int, Any], int]:
        """Crowd labels of the answered *indices*, and the answers bought."""
        tasks = []
        index_of_task: dict[str, int] = {}
        for i in indices:
            task = Task(
                TaskType.SINGLE_CHOICE,
                question=f"Label this text: {items[i]}",
                options=self.categories,
                truth=self.truth_fn(items[i]),
            )
            tasks.append(task)
            index_of_task[task.task_id] = i
        collected = self.platform.collect(tasks, redundancy=self.redundancy)
        # Items with no answers (skip/degrade policy) come back unlabeled.
        inferred = infer_evidence(self.inference, collected)
        labels = {index_of_task[t]: label for t, label in inferred.truths.items()}
        return labels, sum(map(len, collected.values()))

    def _pick_batch(
        self,
        items: Sequence[str],
        unlabeled: list[int],
        model: NaiveBayesText | None,
    ) -> list[int]:
        take = min(self.batch_size, len(unlabeled))
        if self.selection == "random" or model is None or model.n_documents == 0:
            chosen = self.rng.choice(len(unlabeled), size=take, replace=False)
            return [unlabeled[int(i)] for i in chosen]
        by_margin = sorted(unlabeled, key=lambda i: model.margin(items[i]))
        return by_margin[:take]

    def run(
        self,
        items: Sequence[str],
        label_budget: int,
        heldout: tuple[Sequence[str], Sequence[Any]] | None = None,
    ) -> ActiveLearningResult:
        """Label *items* with at most *label_budget* crowd-labeled items.

        *heldout* (documents, labels) enables the accuracy trajectory.
        """
        if label_budget < 1:
            raise ConfigurationError("label_budget must be >= 1")
        before = self.platform.stats.cost_spent
        crowd_labels: dict[int, Any] = {}
        model = NaiveBayesText()
        trajectory: list[tuple[int, float]] = []
        questions = 0

        unlabeled = list(range(len(items)))
        while crowd_labels.keys() != set(range(len(items))) and len(crowd_labels) < label_budget:
            remaining_budget = label_budget - len(crowd_labels)
            batch = self._pick_batch(items, unlabeled, model)[:remaining_budget]
            if not batch:
                break
            new_labels, answered = self._crowd_label(items, batch)
            questions += answered
            crowd_labels.update(new_labels)
            # Asked items leave the pool even when unanswered, so a failing
            # crowd cannot loop forever; the model labels them at the end.
            asked = set(batch)
            unlabeled = [i for i in unlabeled if i not in asked]
            for i, label in new_labels.items():
                model.partial_fit(items[i], label)
            if heldout is not None and model.n_documents:
                trajectory.append(
                    (len(crowd_labels), model.accuracy(heldout[0], heldout[1]))
                )

        # None marks an item neither the crowd nor an untrained model labeled.
        final = [
            crowd_labels[i] if i in crowd_labels
            else (model.predict(items[i]) if model.n_documents else None)
            for i in range(len(items))
        ]
        return ActiveLearningResult(
            crowd_labels=crowd_labels,
            final_labels=final,
            model=model,
            crowd_questions=questions,
            cost=self.platform.stats.cost_spent - before,
            trajectory=trajectory,
        )

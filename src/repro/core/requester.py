"""Requester-side job management.

A :class:`Requester` tracks named jobs — batches of tasks submitted
together — with per-job quality, cost, and latency accounting. It is the
bookkeeping layer a real requester dashboard would sit on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer, Task
from repro.quality.truth import InferenceResult, MajorityVote, TruthInference, infer_evidence


@dataclass
class JobReport:
    """Everything a requester learns from one completed job."""

    name: str
    tasks: int
    answers: dict[str, list[Answer]]
    inference: InferenceResult
    cost: float
    makespan: float | None = None

    @property
    def truths(self) -> dict[str, Any]:
        return self.inference.truths

    @property
    def mean_confidence(self) -> float:
        confidences = list(self.inference.confidences.values())
        return sum(confidences) / len(confidences) if confidences else 0.0


@dataclass
class Requester:
    """Submit jobs, aggregate answers, track spend across jobs.

    Args:
        platform: The marketplace jobs run on.
        inference: Default aggregation (overridable per job).
    """

    platform: SimulatedPlatform
    inference: TruthInference = field(default_factory=MajorityVote)
    jobs: dict[str, JobReport] = field(default_factory=dict)

    def submit(
        self,
        name: str,
        tasks: Sequence[Task],
        redundancy: int = 3,
        inference: TruthInference | None = None,
        with_timeline: bool = False,
    ) -> JobReport:
        """Run a batch job to completion and record its report.

        With *with_timeline*, answers are gathered on the event-simulated
        timeline (yields a makespan); otherwise through the platform's batch
        scheduler, under its lanes, fault model and failure policy. Tasks
        left without answers (skip/degrade policy, or a drained timeline)
        are missing from the inferred truths.
        """
        if name in self.jobs:
            raise ConfigurationError(f"job {name!r} already exists")
        if not tasks:
            raise ConfigurationError("a job needs at least one task")
        method = inference or self.inference
        before = self.platform.stats.cost_spent
        makespan = None
        if with_timeline:
            timeline = self.platform.simulate_timeline(tasks, redundancy=redundancy)
            makespan = timeline.makespan
            answers: dict[str, list[Answer]] = {t.task_id: [] for t in tasks}
            for answer in timeline.answers:
                answers[answer.task_id].append(answer)
        else:
            answers = self.platform.collect(tasks, redundancy=redundancy)
        result = infer_evidence(method, answers)
        report = JobReport(
            name=name,
            tasks=len(tasks),
            answers=answers,
            inference=result,
            cost=self.platform.stats.cost_spent - before,
            makespan=makespan,
        )
        self.jobs[name] = report
        return report

    @property
    def total_spent(self) -> float:
        return sum(job.cost for job in self.jobs.values())

    def job(self, name: str) -> JobReport:
        """Look up a completed job's report by name."""
        try:
            return self.jobs[name]
        except KeyError:
            raise ConfigurationError(f"no job named {name!r}") from None

"""Crowd-powered planning: human-guided graph search.

Planning queries ("build me a 3-day itinerary") ask the crowd to make
*sequential* judgments: given a partial plan, which extension is best?
Machines can enumerate candidates but can't score subjective quality; the
human-assisted-graph-search literature the tutorial points to has workers
vote on expansions while the machine maintains the frontier.

:class:`CrowdPlanner` implements the two standard strategies over a
directed graph with hidden edge utilities:

* **greedy** — one partial plan; at each step workers vote among the
  current node's successors (cheapest, myopic);
* **beam** — keep the best *k* partial plans; workers vote among all
  one-step extensions of the beam each round (costlier, less myopic).

Ground truth for the simulated voters is the caller's ``edge_score``;
:func:`optimal_path` computes the DP optimum for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference, infer_evidence

Node = Hashable
Graph = Mapping[Node, Sequence[Node]]


def path_score(path: Sequence[Node], edge_score: Callable[[Node, Node], float]) -> float:
    """Total utility of a path."""
    return sum(edge_score(a, b) for a, b in zip(path, path[1:]))


def optimal_path(
    graph: Graph,
    start: Node,
    steps: int,
    edge_score: Callable[[Node, Node], float],
) -> list[Node]:
    """Best fixed-length path from *start* by exhaustive DP (evaluation only)."""
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    best: dict[Node, tuple[float, list[Node]]] = {start: (0.0, [start])}
    for _ in range(steps):
        frontier: dict[Node, tuple[float, list[Node]]] = {}
        for node, (score, path) in best.items():
            for successor in graph.get(node, ()):
                candidate = score + edge_score(node, successor)
                if successor not in frontier or candidate > frontier[successor][0]:
                    frontier[successor] = (candidate, path + [successor])
        if not frontier:
            break
        best = frontier
    return max(best.values(), key=lambda pair: pair[0])[1]


@dataclass
class PlanResult:
    """Outcome of a crowd-guided planning run."""

    path: list[Node]
    questions_asked: int
    answers_bought: int
    cost: float
    rounds: int

    def score(self, edge_score: Callable[[Node, Node], float]) -> float:
        """Total hidden utility of the produced path."""
        return path_score(self.path, edge_score)

    def regret(
        self,
        graph: Graph,
        edge_score: Callable[[Node, Node], float],
    ) -> float:
        """Optimal score minus achieved score (0 = optimal plan)."""
        steps = len(self.path) - 1
        if steps < 1:
            return 0.0
        best = optimal_path(graph, self.path[0], steps, edge_score)
        return path_score(best, edge_score) - self.score(edge_score)


class CrowdPlanner:
    """Human-guided search over a successor graph.

    Args:
        platform: Marketplace for expansion votes.
        graph: node -> successor nodes.
        edge_score: Hidden edge utility (drives simulated voters only).
        redundancy: Votes per expansion question.
        inference: Vote aggregation.
        describe: Renders a node for the task prompt.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        graph: Graph,
        edge_score: Callable[[Node, Node], float],
        redundancy: int = 3,
        inference: TruthInference | None = None,
        describe: Callable[[Node], str] = str,
    ):
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.graph = graph
        self.edge_score = edge_score
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.describe = describe

    # ------------------------------------------------------------------ #

    def _vote(self, question: str, candidates: list[tuple[str, float]]) -> str | None:
        """One expansion vote; candidates are (option key, hidden score).

        None when the vote got no answers (skip/degrade failure policy):
        the crowd confirmed no step, and the search stops where it is.
        """
        options = tuple(key for key, _score in candidates)
        truth = max(candidates, key=lambda pair: pair[1])[0]
        task = Task(
            TaskType.SINGLE_CHOICE,
            question=question,
            options=options,
            truth=truth,
        )
        answers = self.platform.collect([task], redundancy=self.redundancy)
        return infer_evidence(self.inference, answers).truths.get(task.task_id)

    def greedy(self, start: Node, steps: int) -> PlanResult:
        """Myopic crowd walk: vote among the current node's successors."""
        if steps < 1:
            raise ConfigurationError("steps must be >= 1")
        before = self.platform.stats.cost_spent
        path = [start]
        questions = 0
        rounds = 0
        for _ in range(steps):
            successors = list(self.graph.get(path[-1], ()))
            if not successors:
                break
            rounds += 1
            if len(successors) == 1:
                path.append(successors[0])
                continue
            candidates = [
                (self.describe(s), self.edge_score(path[-1], s)) for s in successors
            ]
            winner = self._vote(
                f"Best next stop after {self.describe(path[-1])}?", candidates
            )
            questions += 1
            if winner is None:
                break
            chosen = successors[
                [self.describe(s) for s in successors].index(winner)
            ]
            path.append(chosen)
        return PlanResult(
            path=path,
            questions_asked=questions,
            answers_bought=questions * self.redundancy,
            cost=self.platform.stats.cost_spent - before,
            rounds=rounds,
        )

    def beam(self, start: Node, steps: int, width: int = 3) -> PlanResult:
        """Beam search: workers vote among all one-step beam extensions.

        Each round, every partial plan in the beam is extended by every
        successor; the crowd ranks the extensions by repeated winner-vote
        (one vote selects the best; the remaining beam slots are filled by
        the machine using the votes' runner-up ordering — in simulation,
        by hidden score among the non-winners, which matches the
        "crowd picks the champion, machine keeps diversity" heuristic).
        """
        if steps < 1 or width < 1:
            raise ConfigurationError("steps and width must be >= 1")
        before = self.platform.stats.cost_spent
        beam: list[list[Node]] = [[start]]
        questions = 0
        rounds = 0
        for _ in range(steps):
            extensions: list[list[Node]] = []
            for path in beam:
                for successor in self.graph.get(path[-1], ()):
                    extensions.append(path + [successor])
            if not extensions:
                break
            rounds += 1
            if len(extensions) > 1:
                candidates = [
                    (
                        " -> ".join(self.describe(n) for n in ext),
                        path_score(ext, self.edge_score),
                    )
                    for ext in extensions
                ]
                winner = self._vote("Which partial plan looks best?", candidates)
                questions += 1
                if winner is None:
                    break
                keys = [key for key, _ in candidates]
                champion = extensions[keys.index(winner)]
            else:
                champion = extensions[0]
            others = [e for e in extensions if e is not champion]
            others.sort(key=lambda e: -path_score(e, self.edge_score))
            beam = [champion] + others[: width - 1]
        best = beam[0]
        return PlanResult(
            path=best,
            questions_asked=questions,
            answers_bought=questions * self.redundancy,
            cost=self.platform.stats.cost_spent - before,
            rounds=rounds,
        )

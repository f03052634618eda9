"""Streaming pipelined executor: crowd answers flow downstream per wave.

The barrier :class:`~repro.lang.executor.Executor` resolves each crowd
predicate through its own one-task scheduler run, so a statement's
simulated makespan is the *sum* of per-row makespans — the lanes of the
batch runtime sit idle — and an early-terminating consumer (TOP-K, LIMIT)
keeps paying for upstream answers it will never read.

:class:`StreamingExecutor` compiles supported plan shapes into a pipeline:

* the machine-decidable input (scan/filter chains, machine filters over a
  machine equi-join, the join's hash side) is resolved vectorized up
  front via the columnar fast paths;
* every crowd question of the statement is planned deterministically in
  row order — hashed once into the content signature the task carries to
  the answer cache — then handed to the
  :class:`~repro.platform.batch.BatchScheduler` as *one* run whose batches
  saturate all lanes;
* as each batch (a *wave*) lands, verdicts propagate downstream
  immediately — a crowd filter feeds the join's probe side while its
  remaining waves are still pending;
* early termination propagates *upstream*: once TOP-K/LIMIT has emitted
  enough rows, the scheduler's ``stop`` signal fires at the next batch
  boundary and every still-pending HIT ends ``CANCELLED``, never
  published, with the avoided spend booked in ``ExecutionStats``,
  platform stats, metrics, and the profiler.

Determinism: planning order equals row order, which is exactly the order
the barrier path consumes the pool/platform RNG streams in, so with no
early termination the votes, verdicts, rows, and cache entries are
bit-identical to the barrier executor at the same seed — at any
``max_parallel``. TOP-K pre-sorts its candidates (stable sort commutes
with filtering), which reorders question planning; that path trades the
barrier-identical RNG stream for cancelled HITs, by design. Plan shapes
the compiler does not cover fall back to the inherited barrier
implementation unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.expressions import (
    CrowdPredicate,
    Expression,
    contains_crowd_predicate,
    is_crowd_unknown,
)
from repro.data.schema import Schema
from repro.errors import ExecutionError
from repro.lang.executor import NO, YES, ExecutionStats, Executor, QueryResult
from repro.lang.planner import (
    CrowdFilterNode,
    CrowdJoinNode,
    CrowdOrderNode,
    DistinctNode,
    FillNode,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    PlanNode,
    ProjectNode,
)
from repro.platform.cache import signature_of
from repro.platform.task import Task, TaskState, TaskType


class _Unsupported(Exception):
    """Internal signal: the plan shape has no streaming compilation."""


@dataclass
class _Pipeline:
    """One compiled streaming statement: a crowd filter stage plus sinks.

    Attributes:
        filter_node: The crowd filter whose verdicts drive the stream.
        prefix: Machine-decidable conjunction evaluated per row before any
            crowd question is planned (None when the predicate is bare).
        predicate: The single crowd conjunct the stream resolves.
        join: Machine join the filter's survivors probe into (or None).
        order: ORDER BY keys above the stream (or None).
        project: Projection columns above the stream (or None).
        distinct: Whether DISTINCT applies to emitted rows.
        limit: LIMIT above the stream (or None) — the early-termination
            trigger.
    """

    filter_node: CrowdFilterNode
    prefix: Expression | None
    predicate: CrowdPredicate
    join: JoinNode | None
    order: tuple[tuple[str, bool], ...] | None
    project: tuple[str, ...] | None
    distinct: bool
    limit: int | None


class StreamingExecutor(Executor):
    """Pipelined drop-in for :class:`Executor` (the ``pipeline=on`` path).

    Construction matches :class:`Executor`. Statements whose plan compiles
    to a supported pipeline stream their crowd waves; everything else runs
    through the inherited barrier implementation, so every statement the
    barrier executor accepts is accepted here too.
    """

    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Run *plan*, streaming when compilable, barrier otherwise."""
        try:
            pipe = self._compile(plan.root)
        except _Unsupported:
            return super().execute(plan)
        stats = ExecutionStats()
        schema, rows = self._run_pipeline(pipe, stats)
        return QueryResult(
            columns=schema.column_names,
            rows=rows,
            stats=stats,
            plan_text=plan.explain(),
        )

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def _compile(self, node: PlanNode) -> _Pipeline:
        """Peel sinks off *node* down to one streamable crowd filter stage.

        Raises :class:`_Unsupported` for any other shape; the caller falls
        back to barrier execution.
        """
        limit: int | None = None
        distinct = False
        project: tuple[str, ...] | None = None
        order: tuple[tuple[str, bool], ...] | None = None
        if isinstance(node, LimitNode):
            limit = node.limit
            node = node.child
        if isinstance(node, DistinctNode):
            distinct = True
            node = node.child
        if isinstance(node, ProjectNode):
            project = node.columns
            node = node.child
        if isinstance(node, OrderNode):
            order = node.keys
            node = node.child
        join: JoinNode | None = None
        if isinstance(node, JoinNode):
            # Crowd filter below a machine join: survivors stream into the
            # probe side while the hash side builds from machine columns.
            if contains_crowd_predicate(node.condition):
                raise _Unsupported
            if not isinstance(node.left, CrowdFilterNode):
                raise _Unsupported
            if not self._machine_only(node.right):
                raise _Unsupported
            join = node
            node = node.left
        if not isinstance(node, CrowdFilterNode):
            raise _Unsupported
        if not contains_crowd_predicate(node.predicate):
            # Degenerate crowd filter over a machine predicate: the barrier
            # path already vectorizes it without any crowd purchase.
            raise _Unsupported
        if not self._machine_only(node.child):
            raise _Unsupported
        predicate: Expression = node.predicate
        prefix: Expression | None = None
        if not isinstance(predicate, CrowdPredicate):
            split = self._machine_prefix(predicate)
            if split is None or not isinstance(split[1], CrowdPredicate):
                # Multi-crowd-conjunct trees (and OR/NOT shapes) keep the
                # barrier's short-circuit purchase order.
                raise _Unsupported
            prefix, predicate = split
        return _Pipeline(
            filter_node=node,
            prefix=prefix,
            predicate=predicate,
            join=join,
            order=order,
            project=project,
            distinct=distinct,
            limit=limit,
        )

    @staticmethod
    def _machine_only(node: PlanNode) -> bool:
        """True when the subtree buys no crowd answers and draws no RNG."""
        if isinstance(node, (CrowdFilterNode, CrowdJoinNode, CrowdOrderNode, FillNode)):
            return False
        if isinstance(node, FilterNode) and contains_crowd_predicate(node.predicate):
            return False
        if isinstance(node, JoinNode) and contains_crowd_predicate(node.condition):
            return False
        return all(StreamingExecutor._machine_only(c) for c in node.children())

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_pipeline(
        self, pipe: _Pipeline, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        """Plan every crowd question, then stream verdict waves into sinks."""
        child_schema, rows = self._run(pipe.filter_node.child, stats)
        probe = None
        schema = child_schema
        if pipe.join is not None:
            right_schema, right_rows = self._run(pipe.join.right, stats)
            clashes = set(child_schema.column_names) & set(right_schema.column_names)
            if clashes:
                raise ExecutionError(
                    f"join inputs share column name(s) {sorted(clashes)}; "
                    "rename columns so names are unique"
                )
            schema = child_schema.join(right_schema, "left", "right")
            probe = self._build_probe(
                child_schema, right_schema, right_rows, pipe.join.condition
            )
        if pipe.order is not None:
            for column, _ascending in pipe.order:
                if column not in schema:
                    raise ExecutionError(f"ORDER BY unknown column {column!r}")
        out_schema = schema.project(pipe.project) if pipe.project is not None else schema

        # TOP-K: pre-sort the candidates so emission order is final order
        # and the limit can cancel everything past the k-th survivor.
        # Stable sort commutes with filtering, so rows match the barrier's
        # filter-then-sort exactly.
        topk = pipe.order is not None and pipe.limit is not None and pipe.join is None
        if topk:
            rows = self._apply_order(rows, pipe.order)
        # ORDER BY without a limit (or above a join) needs every survivor
        # before it can sort: collect, then sort at the end.
        drain = pipe.order is not None and not topk

        # Deterministic planning pass: questions are planned in row order —
        # the same pool-RNG consumption order as the barrier path — and
        # deduplicated by content signature, so concurrently in-flight rows
        # sharing a question share one task.
        planned: list[tuple[dict[str, Any], bool, str]] = []
        sig_task: dict[str, Task] = {}
        for row in rows:
            if pipe.prefix is not None:
                p = pipe.prefix.evaluate(row)
                if p is False:
                    continue
                # NULL prefixes still buy the crowd answer but poison the
                # row; CROWD_UNKNOWN counts as satisfied (And semantics).
                ok = p is True or is_crowd_unknown(p)
            else:
                ok = True
            question, values = self._crowd_question(pipe.predicate, row)
            signature = signature_of(TaskType.SINGLE_CHOICE, question, (YES, NO))
            if signature not in self._verdicts and signature not in sig_task:
                task = self._plan_task(pipe.predicate, question, values, signature, stats)
                if task is None:
                    self._verdicts[signature] = False  # similarity-pruned
                else:
                    sig_task[signature] = task
            planned.append((row, ok, signature))

        tasks = list(sig_task.values())
        operator = "crowd_join" if pipe.join is not None else "crowd_filter"
        metrics = self.platform.metrics

        out: list[dict[str, Any]] = []
        survivors: list[dict[str, Any]] = []
        seen: set[tuple[Any, ...]] = set()
        state = {"frontier": 0, "done": False}
        resolved_ids: set[str] = set()

        def emit(row: dict[str, Any]) -> None:
            matches = probe(row) if probe is not None else [row]
            for merged in matches:
                if drain:
                    survivors.append(merged)
                    continue
                final = (
                    {c: merged[c] for c in pipe.project}
                    if pipe.project is not None
                    else merged
                )
                if pipe.distinct:
                    key = tuple(final[c] for c in out_schema.column_names)
                    if key in seen:
                        continue
                    seen.add(key)
                out.append(final)
                if pipe.limit is not None and len(out) >= pipe.limit:
                    state["done"] = True
                    return

        def advance() -> None:
            # Emission strictly follows planning order: a resolved verdict
            # for row 7 waits until rows 0-6 are decided, keeping output
            # deterministic regardless of wave arrival order.
            while state["frontier"] < len(planned) and not state["done"]:
                row, ok, signature = planned[state["frontier"]]
                if signature not in self._verdicts:
                    return
                state["frontier"] += 1
                if self._verdicts[signature] is True and ok:
                    emit(row)

        def on_batch(batch: list[Task], run_result: Any) -> None:
            for task in batch:
                if task.task_id in resolved_ids:
                    continue
                resolved_ids.add(task.task_id)
                answers = run_result.answers.get(task.task_id, [])
                self._verdicts[task.signature] = self._verdict_from(task, answers)
                stats.crowd_questions += 1
                stats.crowd_answers += len(answers)
            advance()
            # A stop ends the run, so no task is cancelled while one lands.
            metrics.set_gauge(
                "operators.in_flight",
                float(len(tasks) - len(resolved_ids)),
                labels={"operator": operator},
            )

        def stop() -> str | None:
            return "early_termination" if state["done"] else None

        if pipe.limit is not None and pipe.limit <= 0:
            state["done"] = True
        advance()  # memoized/pruned verdicts may already decide a prefix

        pstats = self.platform.stats
        cost0 = pstats.cost_spent
        cancelled0 = pstats.tasks_cancelled
        refund0 = pstats.cancel_cost_refunded
        if tasks:
            metrics.set_gauge(
                "operators.in_flight", float(len(tasks)), labels={"operator": operator}
            )
            run_result = self.platform.scheduler.run(
                tasks,
                redundancy=self.redundancy,
                stop=stop,
                on_batch=on_batch,
            )
            # Final drain: cache hits materialize only when the run ends,
            # and halted (breaker/budget) batches never reach on_batch —
            # resolve what is still undecided, barrier-style.
            for task in tasks:
                if task.task_id in resolved_ids or task.state is TaskState.CANCELLED:
                    continue
                answers = run_result.answers.get(task.task_id, [])
                self._verdicts[task.signature] = self._verdict_from(task, answers)
                stats.crowd_questions += 1
                stats.crowd_answers += len(answers)
            advance()
            metrics.set_gauge(
                "operators.in_flight", 0.0, labels={"operator": operator}
            )
        stats.crowd_cost += pstats.cost_spent - cost0
        stats.tasks_cancelled += int(pstats.tasks_cancelled - cancelled0)
        stats.cost_avoided += pstats.cancel_cost_refunded - refund0

        if drain:
            ordered = self._apply_order(survivors, pipe.order)
            if pipe.project is not None:
                ordered = [{c: r[c] for c in pipe.project} for r in ordered]
            if pipe.distinct:
                unique = []
                for row in ordered:
                    key = tuple(row[c] for c in out_schema.column_names)
                    if key not in seen:
                        seen.add(key)
                        unique.append(row)
                ordered = unique
            if pipe.limit is not None:
                ordered = ordered[: pipe.limit]
            return out_schema, ordered
        return out_schema, out

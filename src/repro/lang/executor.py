"""Pull-based executor for CrowdSQL logical plans.

Machine operators evaluate rows directly; crowd operators route through the
platform with the configured redundancy and truth-inference method. Ground
truth for the simulated workers comes from a :class:`CrowdOracle`, which a
real deployment would simply omit (workers would supply knowledge instead).

Machine-side work is vectorized where the plan shape allows it: scan/filter
chains over a base table evaluate one fused predicate on the table's column
arrays, crowd filters pre-drop rows whose machine-decidable prefix is
definitely False before any crowd question is purchased, and machine
equi-joins build/probe on column arrays instead of nested-loop row dicts.
Every fast path produces bit-identical rows, ordering, and crowd purchase
sequences to the row-at-a-time code it replaces, which stays in place as
the fallback for plan shapes the vectorizer does not cover.

Per-run accounting (questions, answers, spend) is collected in
:class:`ExecutionStats` so the T7 benchmark can compare plans.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cost.similarity import jaccard_tokens
from repro.data.columnstore import ColumnVector
from repro.data.database import Database
from repro.data.expressions import (
    And,
    ColumnRef,
    Comparison,
    CrowdPredicate,
    Expression,
    Not,
    Or,
    conjoin,
    contains_crowd_predicate,
    evaluate_tristate,
    is_crowd_unknown,
    split_conjuncts,
)
from repro.data.schema import Column, ColumnType, Schema, is_cnull
from repro.data.table import Table
from repro.errors import ExecutionError, ExpressionError
from repro.lang.planner import (
    AggregateNode,
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
    ScanNode,
)
from repro.obs.instrument import operator_span
from repro.operators.fill import CrowdFill
from repro.operators.sort import CrowdComparator, merge_sort_crowd
from repro.platform.cache import signature_of
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference

YES = "yes"
NO = "no"


def _default_equal_truth(a: Any, b: Any) -> bool:
    """Simulation default for CROWDEQUAL: token-normalized equality."""
    if isinstance(a, str) and isinstance(b, str):
        return sorted(a.lower().split()) == sorted(b.lower().split())
    return a == b


@dataclass
class CrowdOracle:
    """Ground truth the simulated workers answer from.

    Attributes:
        equal_fn: CROWDEQUAL(a, b) truth; defaults to normalized equality.
        filter_fn: CROWDFILTER(value, question) truth; required when the
            query uses CROWDFILTER.
        order_score_fn: Latent utility for CROWDORDER BY values; defaults
            to the value itself when numeric.
        fill_fn: (row dict, column) -> value for CNULL resolution; required
            when a referenced crowd column has unresolved cells.
        equal_similarity_prune: Optional threshold in (0, 1]: CROWDEQUAL
            over two strings with token-Jaccard below it is auto-answered
            "no" without crowd spend (machine pruning inside the executor).
    """

    equal_fn: Callable[[Any, Any], bool] = _default_equal_truth
    filter_fn: Callable[[Any, str], bool] | None = None
    order_score_fn: Callable[[Any], float] | None = None
    fill_fn: Callable[[dict[str, Any], str], Any] | None = None
    equal_similarity_prune: float | None = None


@dataclass
class ExecutionStats:
    crowd_questions: int = 0
    crowd_answers: int = 0
    crowd_cost: float = 0.0
    cells_filled: int = 0
    pairs_pruned: int = 0
    tasks_cancelled: int = 0   # pending HITs cancelled by early termination
    cost_avoided: float = 0.0  # spend avoided by those cancellations


@dataclass
class QueryResult:
    """Rows plus per-query crowd accounting."""

    columns: tuple[str, ...]
    rows: list[dict[str, Any]]
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    plan_text: str = ""

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list[Any]:
        """All values of one result column, in row order."""
        return [row[name] for row in self.rows]


class Executor:
    """Executes logical plans against a database + platform pair.

    Args:
        database: Catalog with the base tables.
        platform: Marketplace for crowd operators.
        redundancy: Votes per crowd question.
        inference: Aggregation for crowd votes (default majority).
        oracle: Simulation ground truth (see :class:`CrowdOracle`).
    """

    def __init__(
        self,
        database: Database,
        platform: SimulatedPlatform,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        oracle: CrowdOracle | None = None,
    ):
        self.database = database
        self.platform = platform
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.oracle = oracle or CrowdOracle()
        # Statement-local verdict memo, keyed by the same content signature
        # the platform's AnswerCache uses (see repro.platform.cache): a
        # repeated predicate over identical values costs zero questions
        # within a statement, and with a cache attached to the platform the
        # raw votes are also reused *across* statements.
        self._verdicts: dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Run a logical plan; returns rows plus crowd accounting."""
        stats = ExecutionStats()
        schema, rows = self._run(plan.root, stats)
        return QueryResult(
            columns=schema.column_names,
            rows=rows,
            stats=stats,
            plan_text=plan.explain(),
        )

    # ------------------------------------------------------------------ #
    # Node dispatch
    # ------------------------------------------------------------------ #

    def _run(self, node: PlanNode, stats: ExecutionStats) -> tuple[Schema, list[dict[str, Any]]]:
        if isinstance(node, ScanNode):
            table = self.database.table(node.table)
            return table.schema, [row.as_dict() for row in table]
        if isinstance(node, FillNode):
            return self._run_fill(node, stats)
        if isinstance(node, FilterNode):
            fast = self._vectorized_filter(node)
            if fast is not None:
                return fast
            schema, rows = self._run(node.child, stats)
            kept = [r for r in rows if node.predicate.evaluate(r) is True]
            return schema, kept
        if isinstance(node, CrowdFilterNode):
            return self._run_crowd_filter(node, stats)
        if isinstance(node, JoinNode):
            return self._run_join(node, stats, crowd=False)
        if isinstance(node, CrowdJoinNode):
            return self._run_join(node, stats, crowd=True)
        if isinstance(node, ProjectNode):
            schema, rows = self._run(node.child, stats)
            projected_schema = schema.project(node.columns)
            projected = [{c: r[c] for c in node.columns} for r in rows]
            return projected_schema, projected
        if isinstance(node, DistinctNode):
            schema, rows = self._run(node.child, stats)
            seen: set[tuple[Any, ...]] = set()
            unique = []
            for row in rows:
                key = tuple(row[c] for c in schema.column_names)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            return schema, unique
        if isinstance(node, OrderNode):
            schema, rows = self._run(node.child, stats)
            for column, _ascending in node.keys:
                if column not in schema:
                    raise ExecutionError(f"ORDER BY unknown column {column!r}")
            return schema, self._apply_order(rows, node.keys)
        if isinstance(node, CrowdOrderNode):
            return self._run_crowd_order(node, stats)
        if isinstance(node, LimitNode):
            schema, rows = self._run(node.child, stats)
            return schema, rows[: node.limit]
        if isinstance(node, AggregateNode):
            return self._run_aggregate(node, stats)
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------------ #
    # Vectorized machine-side fast paths
    # ------------------------------------------------------------------ #

    def _columnar_rows(self, node: PlanNode) -> tuple[Table, np.ndarray] | None:
        """Resolve a machine-only scan/filter subtree to (table, positions).

        Positions index the table's live row order (insertion order). Filters
        in the chain are applied vectorized, innermost first. Returns None
        when the subtree is not a pure machine-side scan/filter chain over a
        base table; callers then fall back to row-at-a-time execution.
        """
        if isinstance(node, ScanNode):
            table = self.database.table(node.table)
            return table, np.arange(len(table), dtype=np.int64)
        if isinstance(node, FilterNode) and not contains_crowd_predicate(node.predicate):
            below = self._columnar_rows(node.child)
            if below is None:
                return None
            table, pos = below
            if pos.size == 0:
                return table, pos
            batch, n = self._batch_for(table, node.predicate, pos)
            true, _null, _cnull = evaluate_tristate(node.predicate, batch, n)
            return table, pos[true]
        return None

    @staticmethod
    def _batch_for(
        table: Table, expr: Expression, pos: np.ndarray
    ) -> tuple[dict[str, ColumnVector], int]:
        """Column batch for *expr* restricted to live-order positions *pos*.

        Columns the expression references but the table lacks are left out of
        the batch so the vector evaluator raises the same "row has no column"
        error the row path does.
        """
        full = pos.size == len(table)
        batch: dict[str, ColumnVector] = {}
        for name in expr.columns():
            if name not in table.schema:
                continue
            vec = table.column_vector(name)
            if not full:
                vec = ColumnVector(vec.values[pos], vec.null[pos], vec.cnull[pos])
            batch[name] = vec
        return batch, int(pos.size)

    @staticmethod
    def _materialize(table: Table, pos: np.ndarray) -> list[dict[str, Any]]:
        """Row dicts (schema order) for live-order positions *pos*."""
        store = table.store
        rowids = table.rowids()
        return [store.row_dict(int(rowids[p])) for p in pos.tolist()]

    @staticmethod
    def _apply_order(
        rows: list[dict[str, Any]], keys: tuple[tuple[str, bool], ...]
    ) -> list[dict[str, Any]]:
        """Stable multi-key sort: apply keys minor-to-major; NULL/CNULL
        always sorts last regardless of direction."""
        ordered = list(rows)
        for column, ascending in reversed(keys):

            def missing(row: dict[str, Any], column=column) -> bool:
                value = row[column]
                return value is None or is_cnull(value)

            present = [r for r in ordered if not missing(r)]
            absent = [r for r in ordered if missing(r)]
            present.sort(key=lambda r: r[column], reverse=not ascending)
            ordered = present + absent
        return ordered

    def _vectorized_filter(self, node: FilterNode) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Fuse a machine filter chain over a scan or a machine join into one
        vectorized pass."""
        try:
            resolved = self._columnar_rows(node)
        except ExpressionError:
            # The row path short-circuits conjunctions per row, so an error
            # raised vectorized may not be reachable row-at-a-time; re-run
            # the exact per-row semantics instead of guessing.
            return None
        if resolved is not None:
            table, pos = resolved
            return table.schema, self._materialize(table, pos)
        filters: list[Expression] = []
        below: PlanNode = node
        while isinstance(below, FilterNode) and not contains_crowd_predicate(below.predicate):
            filters.append(below.predicate)
            below = below.child
        if isinstance(below, JoinNode):
            # The row path filters the joined rows innermost-first.
            return self._columnar_join(below, filters[::-1])
        return None

    @staticmethod
    def _machine_prefix(expr: Expression) -> tuple[Expression, Expression] | None:
        """Split ``And(machine_subtree, crowd_rest)`` off a predicate tree.

        Walks the left spine of the And tree peeling crowd-dependent right
        arms; the leftmost crowd-free subtree is the machine prefix, exactly
        the unit :meth:`_eval_crowd` evaluates in one ``Expression.evaluate``
        call. Returns (prefix, rest) or None when there is no such split.
        """
        arms: list[Expression] = []
        while isinstance(expr, And) and contains_crowd_predicate(expr):
            arms.append(expr.right)
            expr = expr.left
        if not arms or contains_crowd_predicate(expr):
            return None
        arms.reverse()
        return expr, conjoin(arms)

    def _run_crowd_filter(
        self, node: CrowdFilterNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        fast = self._crowd_filter_prepass(node, stats)
        if fast is not None:
            return fast
        schema, rows = self._run(node.child, stats)
        kept = [r for r in rows if self._eval_crowd(node.predicate, r, stats) is True]
        return schema, kept

    def _crowd_filter_prepass(
        self, node: CrowdFilterNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Vectorize the machine-decidable prefix of a crowd filter.

        Only rows whose machine prefix is *definitely False* are dropped
        before crowd evaluation — rows where the prefix is NULL or
        CROWD_UNKNOWN still reach the crowd exactly as in the row path, so
        the sequence of purchased questions (and hence the platform RNG
        stream and every cache entry) is bit-identical.
        """
        if not contains_crowd_predicate(node.predicate):
            # Degenerate crowd filter over a machine predicate: pure
            # vectorized filter, no purchases at all.
            try:
                resolved = self._columnar_rows(node.child)
                if resolved is None:
                    return None
                table, pos = resolved
                if pos.size:
                    batch, n = self._batch_for(table, node.predicate, pos)
                    true, _null, _cnull = evaluate_tristate(node.predicate, batch, n)
                    pos = pos[true]
            except ExpressionError:
                return None
            return table.schema, self._materialize(table, pos)
        split = self._machine_prefix(node.predicate)
        if split is None:
            return None
        prefix, rest = split
        try:
            resolved = self._columnar_rows(node.child)
            if resolved is None:
                return None
            table, pos = resolved
            if pos.size == 0:
                return table.schema, []
            batch, n = self._batch_for(table, prefix, pos)
            true, null, cnull = evaluate_tristate(prefix, batch, n)
        except ExpressionError:
            return None
        # _eval_crowd short-circuits an And only on definite False; a NULL or
        # CROWD_UNKNOWN prefix still buys the crowd answers, and at the crowd
        # And level CROWD_UNKNOWN counts as satisfied while NULL poisons the
        # row. Mirror all three cases exactly.
        candidate = true | null | cnull
        satisfied = (true | cnull)[candidate]
        store = table.store
        rowids = table.rowids()
        kept = []
        for p, ok in zip(pos[candidate].tolist(), satisfied.tolist(), strict=True):
            row = store.row_dict(int(rowids[p]))
            if self._eval_crowd(rest, row, stats) is True and ok:
                kept.append(row)
        return table.schema, kept

    @staticmethod
    def _equi_split(
        condition: Expression, left_schema: Schema, right_schema: Schema
    ) -> tuple[list[tuple[str, str]], list[Expression]] | None:
        """Split a join condition into equi-key column pairs + residual.

        Returns ([(left_col, right_col), ...], residual_conjuncts) or None
        when no cross-schema column equality exists (or the condition needs
        the crowd), in which case callers use the nested-loop path.
        """
        if contains_crowd_predicate(condition):
            return None
        keys: list[tuple[str, str]] = []
        residual: list[Expression] = []
        for c in split_conjuncts(condition):
            if (
                isinstance(c, Comparison)
                and c.op == "="
                and isinstance(c.left, ColumnRef)
                and isinstance(c.right, ColumnRef)
            ):
                a, b = c.left.name, c.right.name
                if a in left_schema and b in right_schema:
                    keys.append((a, b))
                    continue
                if b in left_schema and a in right_schema:
                    keys.append((b, a))
                    continue
            residual.append(c)
        if not keys:
            return None
        return keys, residual

    @staticmethod
    def _join_key(values: list[Any]) -> tuple[Any, ...] | None:
        """Hashable key tuple, or None when the row cannot equi-match.

        NULL and CNULL never compare True; NaN fails ``x == x`` under the
        row path's ``==`` but would collide with itself in a dict, so all
        three are excluded from the build and probe sides.
        """
        for v in values:
            if v is None or is_cnull(v) or v != v:
                return None
        return tuple(values)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _aggregate_value(func: str, values: list[Any]) -> Any:
        """Compute one aggregate over non-NULL/non-CNULL values."""
        if func == "COUNT":
            return len(values)
        if not values:
            return None
        if func == "SUM":
            return sum(values)
        if func == "AVG":
            return sum(values) / len(values)
        if func == "MIN":
            return min(values)
        if func == "MAX":
            return max(values)
        raise ExecutionError(f"unknown aggregate {func!r}")

    def _run_aggregate(
        self, node: AggregateNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        schema, rows = self._run(node.child, stats)
        for spec in node.aggregates:
            if spec.column is not None and spec.column not in schema:
                raise ExecutionError(f"aggregate over unknown column {spec.column!r}")
        if node.group_by is not None and node.group_by not in schema:
            raise ExecutionError(f"GROUP BY unknown column {node.group_by!r}")

        def compute(bucket: list[dict[str, Any]]) -> dict[str, Any]:
            out: dict[str, Any] = {}
            for spec in node.aggregates:
                if spec.column is None:
                    out[spec.output_name] = len(bucket)
                    continue
                values = [
                    row[spec.column]
                    for row in bucket
                    if row[spec.column] is not None and not is_cnull(row[spec.column])
                ]
                if spec.func in ("SUM", "AVG") and any(
                    not isinstance(v, (int, float)) or isinstance(v, bool)
                    for v in values
                ):
                    raise ExecutionError(
                        f"{spec.func} requires numeric values in {spec.column!r}"
                    )
                out[spec.output_name] = self._aggregate_value(spec.func, values)
            return out

        # Result schema: grouping column (if any) + one column per aggregate.
        columns: list[Column] = []
        if node.group_by is not None:
            columns.append(Column(node.group_by, schema.column(node.group_by).ctype))
        for spec in node.aggregates:
            if spec.func == "COUNT":
                ctype = ColumnType.INTEGER
            elif spec.func in ("SUM", "AVG"):
                ctype = ColumnType.FLOAT
            else:  # MIN / MAX inherit the source column type
                ctype = schema.column(spec.column).ctype  # type: ignore[arg-type]
            columns.append(Column(spec.output_name, ctype))
        out_schema = Schema(columns)

        if node.group_by is None:
            return out_schema, [compute(rows)]
        buckets: dict[Any, list[dict[str, Any]]] = {}
        for row in rows:
            buckets.setdefault(row[node.group_by], []).append(row)
        result_rows = []
        for key in sorted(buckets, key=repr):
            grouped = compute(buckets[key])
            grouped = {node.group_by: key, **grouped}
            result_rows.append(grouped)
        return out_schema, result_rows

    # ------------------------------------------------------------------ #
    # Crowd-powered pieces
    # ------------------------------------------------------------------ #

    def _run_fill(
        self, node: FillNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        table = self.database.table(node.table)
        pending = [c for c in table.cnull_cells() if c[1] in set(node.columns)]
        if pending:
            if self.oracle.fill_fn is None:
                raise ExecutionError(
                    f"table {node.table!r} has {len(pending)} unresolved CNULL "
                    f"cell(s) in {node.columns!r} but no fill oracle is configured"
                )
            before = self.platform.stats.cost_spent
            filler = CrowdFill(
                self.platform,
                truth_fn=self.oracle.fill_fn,
                redundancy=self.redundancy,
                inference=self.inference,
            )
            result = filler.run(table, columns=node.columns)
            stats.cells_filled += result.filled_cells
            stats.crowd_questions += result.filled_cells
            stats.crowd_answers += result.questions_asked
            stats.crowd_cost += self.platform.stats.cost_spent - before
        schema, rows = self._run(node.child, stats)
        # Re-read from the (now filled) table rows when the child is a scan.
        if isinstance(node.child, ScanNode):
            rows = [row.as_dict() for row in table]
        return schema, rows

    def _run_join(
        self,
        node: JoinNode | CrowdJoinNode,
        stats: ExecutionStats,
        crowd: bool,
    ) -> tuple[Schema, list[dict[str, Any]]]:
        if not crowd:
            fast = self._columnar_join(node)
            if fast is not None:
                return fast
        left_schema, left_rows = self._run(node.left, stats)
        right_schema, right_rows = self._run(node.right, stats)
        joined_schema = left_schema.join(right_schema, "left", "right")
        clashes = set(left_schema.column_names) & set(right_schema.column_names)
        if clashes:
            raise ExecutionError(
                f"join inputs share column name(s) {sorted(clashes)}; "
                "rename columns so names are unique"
            )
        out = []
        if crowd:
            with operator_span(
                self.platform, "crowdjoin", left=len(left_rows), right=len(right_rows)
            ) as span:
                for lrow in left_rows:
                    for rrow in right_rows:
                        merged = {**lrow, **rrow}
                        if self._eval_crowd(node.condition, merged, stats) is True:
                            out.append(merged)
                span.set_tag("matched", len(out))
        else:
            out = self._machine_join(
                left_schema, right_schema, left_rows, right_rows, node.condition
            )
        return joined_schema, out

    def _build_probe(
        self,
        left_schema: Schema,
        right_schema: Schema,
        right_rows: list[dict[str, Any]],
        condition: Expression,
    ):
        """Probe closure for one left row; hash side is built eagerly.

        Hashes the right rows on the equi keys of *condition* (residual
        conjuncts checked per match), or falls back to a nested loop when
        there are none. A left row's matches come in right insertion order,
        so the pipelined join streams the barrier join's rows.
        """
        split = self._equi_split(condition, left_schema, right_schema)
        if split is None:

            def nested(lrow: dict[str, Any]) -> list[dict[str, Any]]:
                out = []
                for rrow in right_rows:
                    merged = {**lrow, **rrow}
                    if condition.evaluate(merged) is True:
                        out.append(merged)
                return out

            return nested
        keys, residual = split
        lcols = [a for a, _ in keys]
        rcols = [b for _, b in keys]
        index: dict[tuple[Any, ...], list[int]] = {}
        for i, rrow in enumerate(right_rows):
            key = self._join_key([rrow[c] for c in rcols])
            if key is not None:
                index.setdefault(key, []).append(i)
        res_expr = conjoin(residual) if residual else None

        def probe(lrow: dict[str, Any]) -> list[dict[str, Any]]:
            key = self._join_key([lrow[c] for c in lcols])
            if key is None:
                return []
            out = []
            for i in index.get(key, ()):
                merged = {**lrow, **right_rows[i]}
                if res_expr is None or res_expr.evaluate(merged) is True:
                    out.append(merged)
            return out

        return probe

    def _machine_join(
        self,
        left_schema: Schema,
        right_schema: Schema,
        left_rows: list[dict[str, Any]],
        right_rows: list[dict[str, Any]],
        condition: Expression,
    ) -> list[dict[str, Any]]:
        """Machine join over materialized rows: hash on equi keys if any."""
        probe = self._build_probe(left_schema, right_schema, right_rows, condition)
        return [merged for lrow in left_rows for merged in probe(lrow)]

    def _columnar_join(
        self, node: JoinNode, filters: Sequence[Expression] = ()
    ) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Equi-join two machine scan/filter chains on their column arrays.

        Build/probe happens on key arrays before any row dict exists. The
        join's residual conjuncts, then *filters* (machine predicates of a
        filter chain above the join, innermost first), are evaluated on
        columns gathered at the matched pairs; only surviving pairs
        materialize. Output order is the nested-loop order — left rows in
        order, each left row's matches in right insertion order — so results
        are bit-identical to the row path, which an :class:`ExpressionError`
        falls back to.
        """
        pairs = self._join_pairs(node)
        if pairs is None:
            return None
        ltab, lpos, rtab, rpos, residual = pairs
        # The row path applies the residual as one conjunction per matched
        # pair, then each filter to the previous one's survivors.
        predicates = [conjoin(residual), *filters] if residual else filters
        try:
            for predicate in predicates:
                if lpos.size == 0:
                    break
                batch = self._pair_batch(predicate, ltab, lpos, rtab, rpos)
                true, _null, _cnull = evaluate_tristate(predicate, batch, int(lpos.size))
                lpos, rpos = lpos[true], rpos[true]
        except ExpressionError:
            return None
        lrids, rrids = ltab.rowids(), rtab.rowids()
        lstore, rstore = ltab.store, rtab.store
        lcache: dict[int, dict[str, Any]] = {}
        rcache: dict[int, dict[str, Any]] = {}
        out = []
        for lp, rp in zip(lpos.tolist(), rpos.tolist(), strict=True):
            lrow = lcache.get(lp)
            if lrow is None:
                lrow = lcache[lp] = lstore.row_dict(int(lrids[lp]))
            rrow = rcache.get(rp)
            if rrow is None:
                rrow = rcache[rp] = rstore.row_dict(int(rrids[rp]))
            out.append({**lrow, **rrow})
        return ltab.schema.join(rtab.schema, "left", "right"), out

    def _join_pairs(
        self, node: JoinNode
    ) -> tuple[Table, np.ndarray, Table, np.ndarray, list[Expression]] | None:
        """Matched pairs of a machine equi-join of two scan/filter chains.

        Returns ``(left_table, left_positions, right_table, right_positions,
        residual_conjuncts)``: parallel live-order position arrays, one entry
        per key match in nested-loop order, with the residual not yet
        applied. None when either side is not a columnar chain, the chain
        raises, or the condition has no equi key.
        """
        try:
            lres = self._columnar_rows(node.left)
            rres = self._columnar_rows(node.right) if lres is not None else None
        except ExpressionError:
            return None
        if lres is None or rres is None:
            return None
        ltab, lpos = lres
        rtab, rpos = rres
        left_schema, right_schema = ltab.schema, rtab.schema
        clashes = set(left_schema.column_names) & set(right_schema.column_names)
        if clashes:
            raise ExecutionError(
                f"join inputs share column name(s) {sorted(clashes)}; "
                "rename columns so names are unique"
            )
        split = self._equi_split(node.condition, left_schema, right_schema)
        if split is None:
            return None
        keys, residual = split
        lkeys = self._key_columns(ltab, lpos, [a for a, _ in keys])
        rkeys = self._key_columns(rtab, rpos, [b for _, b in keys])
        if (
            len(keys) == 1
            and lkeys[0][0].dtype == rkeys[0][0].dtype
            and lkeys[0][0].dtype.kind in "bif"
        ):
            lmatch, rmatch = self._probe_sorted(lkeys[0], rkeys[0])
        else:
            lmatch, rmatch = self._probe_dict(lkeys, rkeys)
        return ltab, lpos[lmatch], rtab, rpos[rmatch], residual

    @staticmethod
    def _pair_batch(
        expr: Expression,
        ltab: Table,
        lpos: np.ndarray,
        rtab: Table,
        rpos: np.ndarray,
    ) -> dict[str, ColumnVector]:
        """Column batch for *expr* over joined pairs, one cell per pair.

        Like :meth:`_batch_for`, columns neither side has are left out so
        the vector evaluator raises the row path's "row has no column".
        """
        batch: dict[str, ColumnVector] = {}
        for name in expr.columns():
            for table, pos in ((ltab, lpos), (rtab, rpos)):
                if name in table.schema:
                    vec = table.column_vector(name)
                    batch[name] = ColumnVector(vec.values[pos], vec.null[pos], vec.cnull[pos])
                    break
        return batch

    @staticmethod
    def _key_columns(
        table: Table, pos: np.ndarray, cols: list[str]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """(values, usable) per key column, restricted to positions *pos*.

        ``usable`` clears NULL/CNULL cells and float NaNs — cells that can
        never equi-match under the row path's ``==`` semantics.
        """
        out = []
        full = pos.size == len(table)
        for name in cols:
            vec = table.column_vector(name)
            values = vec.values if full else vec.values[pos]
            usable = vec.defined if full else vec.defined[pos]
            if values.dtype.kind == "f":
                usable = usable & ~np.isnan(values)
            out.append((values, usable))
        return out

    @staticmethod
    def _probe_sorted(
        lkey: tuple[np.ndarray, np.ndarray], rkey: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-key same-dtype build/probe via stable sort + searchsorted.

        Returns parallel (left_position, right_position) match arrays in
        nested-loop emission order.
        """
        lvals, lok = lkey
        rvals, rok = rkey
        li = np.flatnonzero(lok)
        ri = np.flatnonzero(rok)
        build = rvals[ri]
        order = np.argsort(build, kind="stable")
        skeys = build[order]
        probe = lvals[li]
        lo = np.searchsorted(skeys, probe, side="left")
        hi = np.searchsorted(skeys, probe, side="right")
        counts = hi - lo
        has = counts > 0
        counts = counts[has]
        total = int(counts.sum())
        starts = np.repeat(lo[has], counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        rmatch = ri[order[starts + offsets]]
        lmatch = np.repeat(li[has], counts)
        return lmatch, rmatch

    @staticmethod
    def _probe_dict(
        lkeys: list[tuple[np.ndarray, np.ndarray]],
        rkeys: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Composite/mixed-type build/probe through a Python dict.

        Tuple keys bucket by Python ``==``/``hash``, the same equality the
        row path's ``=`` comparator uses (so 1 and 1.0 share a bucket).
        """
        rok = rkeys[0][1]
        for _, usable in rkeys[1:]:
            rok = rok & usable
        rlists = [values.tolist() for values, _ in rkeys]
        index: dict[tuple[Any, ...], list[int]] = {}
        for i in np.flatnonzero(rok).tolist():
            index.setdefault(tuple(lst[i] for lst in rlists), []).append(i)
        lok = lkeys[0][1]
        for _, usable in lkeys[1:]:
            lok = lok & usable
        llists = [values.tolist() for values, _ in lkeys]
        lmatch: list[int] = []
        rmatch: list[int] = []
        for i in np.flatnonzero(lok).tolist():
            bucket = index.get(tuple(lst[i] for lst in llists))
            if bucket:
                lmatch.extend([i] * len(bucket))
                rmatch.extend(bucket)
        return np.asarray(lmatch, dtype=np.int64), np.asarray(rmatch, dtype=np.int64)

    def _run_crowd_order(
        self, node: CrowdOrderNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        schema, rows = self._run(node.child, stats)
        if node.column not in schema:
            raise ExecutionError(f"CROWDORDER BY unknown column {node.column!r}")
        if len(rows) < 2:
            return schema, rows
        values = [row[node.column] for row in rows]
        score_fn = self.oracle.order_score_fn
        if score_fn is None:
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                score_fn = float
            else:
                raise ExecutionError(
                    "CROWDORDER BY over non-numeric values requires an "
                    "order_score_fn oracle"
                )
        before = self.platform.stats.cost_spent
        comparator = CrowdComparator(
            self.platform,
            values,
            score_fn,
            redundancy=self.redundancy,
            inference=self.inference,
        )
        result = merge_sort_crowd(comparator)
        stats.crowd_questions += result.comparisons_asked
        stats.crowd_answers += result.answers_bought
        stats.crowd_cost += self.platform.stats.cost_spent - before
        order = result.order if not node.ascending else list(reversed(result.order))
        return schema, [rows[i] for i in order]

    # ------------------------------------------------------------------ #
    # Crowd-aware expression evaluation
    # ------------------------------------------------------------------ #

    def _eval_crowd(self, expr: Expression, row: dict[str, Any], stats: ExecutionStats) -> Any:
        """Evaluate *expr* on *row*, buying crowd answers as needed."""
        if isinstance(expr, CrowdPredicate):
            return self._resolve_predicate(expr, row, stats)
        if not contains_crowd_predicate(expr):
            return expr.evaluate(row)
        if isinstance(expr, And):
            lhs = self._eval_crowd(expr.left, row, stats)
            if lhs is False:
                return False
            rhs = self._eval_crowd(expr.right, row, stats)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True
        if isinstance(expr, Or):
            lhs = self._eval_crowd(expr.left, row, stats)
            if lhs is True:
                return True
            rhs = self._eval_crowd(expr.right, row, stats)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False
        if isinstance(expr, Not):
            value = self._eval_crowd(expr.operand, row, stats)
            if value is None or is_crowd_unknown(value):
                return value
            return not value
        raise ExecutionError(
            f"crowd predicates may appear only under AND/OR/NOT, not inside "
            f"{type(expr).__name__}"
        )

    def _crowd_question(
        self, predicate: CrowdPredicate, row: dict[str, Any]
    ) -> tuple[str, tuple[Any, ...]]:
        """Render *predicate* against *row* into the HIT question text."""
        values = predicate.operand_values(row)
        if predicate.kind == "equal":
            if len(values) != 2:
                raise ExecutionError("CROWDEQUAL takes exactly two operands")
            question = f"Do these refer to the same thing? A: {values[0]} | B: {values[1]}"
        elif predicate.kind == "filter":
            if len(values) != 1:
                raise ExecutionError("CROWDFILTER takes exactly one operand")
            question = f"{predicate.question} — value: {values[0]}"
        elif predicate.kind == "order":
            if len(values) != 2:
                raise ExecutionError("CROWDORDER takes exactly two operands")
            question = f"Does A rank at least as high as B? A: {values[0]} | B: {values[1]}"
        else:
            raise ExecutionError(f"unknown crowd predicate kind {predicate.kind!r}")
        return question, values

    def _plan_task(
        self,
        predicate: CrowdPredicate,
        question: str,
        values: tuple[Any, ...],
        signature: str | None,
        stats: ExecutionStats,
    ) -> Task | None:
        """Build the yes/no task for *predicate*, or None when pruned.

        *signature* is the question's :func:`signature_of`, already computed
        for the verdict memo; the task carries it to the answer cache.
        """
        if predicate.kind == "equal":
            a, b = values
            prune = self.oracle.equal_similarity_prune
            if (
                prune is not None
                and isinstance(a, str)
                and isinstance(b, str)
                and jaccard_tokens(a, b) < prune
            ):
                stats.pairs_pruned += 1
                return None
            truth = self.oracle.equal_fn(a, b)
        elif predicate.kind == "filter":
            if self.oracle.filter_fn is None:
                raise ExecutionError(
                    "query uses CROWDFILTER but no filter oracle is configured"
                )
            truth = self.oracle.filter_fn(values[0], predicate.question)
        else:
            score = self.oracle.order_score_fn or (
                lambda v: float(v) if isinstance(v, (int, float)) else 0.0
            )
            truth = score(values[0]) >= score(values[1])
        return Task(
            TaskType.SINGLE_CHOICE,
            question=question,
            options=(YES, NO),
            truth=YES if truth else NO,
            signature=signature,
        )

    def _verdict_from(self, task: Task, answers: list[Any]) -> bool:
        """Infer the yes/no verdict for *task* from its collected votes."""
        if answers:
            return self.inference.infer({task.task_id: answers}).truths[task.task_id] == YES
        # Skip/degrade failure policy: no votes came back — conservatively
        # treat the predicate as not satisfied rather than crashing.
        return False

    def _resolve_predicate(
        self, predicate: CrowdPredicate, row: dict[str, Any], stats: ExecutionStats
    ) -> bool:
        question, values = self._crowd_question(predicate, row)
        signature = signature_of(TaskType.SINGLE_CHOICE, question, (YES, NO))
        if signature in self._verdicts:
            return self._verdicts[signature]

        task = self._plan_task(predicate, question, values, signature, stats)
        if task is None:
            self._verdicts[signature] = False
            return False

        before = self.platform.stats.cost_spent
        collected = self.platform.collect_batch([task], redundancy=self.redundancy)
        answers = collected.get(task.task_id, [])
        verdict = self._verdict_from(task, answers)
        stats.crowd_questions += 1
        stats.crowd_answers += len(answers)
        stats.crowd_cost += self.platform.stats.cost_spent - before
        self._verdicts[signature] = verdict
        return verdict

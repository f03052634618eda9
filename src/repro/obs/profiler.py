"""Per-statement query profiler: where did each CrowdSQL statement spend.

Bodo-style query-profile collection for the crowd pipeline: the profiler
brackets every statement a :class:`~repro.lang.interpreter.CrowdSQLSession`
executes, captures registry deltas (labeled operator families, platform
spend, cache reuse, EM iterations) plus wall and simulated clock deltas,
and emits one ``profile.json`` alongside the trace. ``python -m repro
profile-report profile.json`` renders the per-statement, per-operator
table (time, rows, HITs, $, cache hits).

The profiler is metrics-driven, not span-driven: it diffs counter and
histogram state around each statement, so it works with tracing off and
adds no per-answer hot-path work — its cost is two registry snapshots per
*statement*.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.platform.platform import SimulatedPlatform

PROFILE_FORMAT_VERSION = 1

#: Labeled families the per-operator breakdown is assembled from
#: (see the descriptor table in :mod:`repro.obs.prom`).
_OPERATOR_COUNTERS = ("operator.runs", "operator.cost", "operator.answers", "operator.items")
_STATEMENT_COUNTERS = {
    "cost": "platform.cost_spent",
    "answers": "platform.answers_collected",
    "hits_published": "platform.tasks_published",
    "answers_reused": "cache.answers_reused",
    "cache_hits": "cache.hits",
    "cache_misses": "cache.misses",
    "hedges": "batch.hedges_launched",
    "hedges_won": "batch.hedges_won",
    "cancelled": "batch.tasks_cancelled",
    "cancel_refunded": "batch.cancel_cost_refunded",
}


def _counter_values(registry: MetricsRegistry) -> dict[str, float]:
    return {key: c.value for key, c in registry.counters.items()}


def _histogram_state(registry: MetricsRegistry) -> dict[str, tuple[int, float]]:
    return {key: (h.count, h.total) for key, h in registry.histograms.items()}


class _StatementCapture:
    """Context manager recording one statement's deltas into the profiler."""

    def __init__(self, profiler: "QueryProfiler", index: int, label: str) -> None:
        self.profiler = profiler
        self.index = index
        self.label = label
        self.rows_out: "int | None" = None

    def finish(self, result: Any) -> None:
        """Note the statement's result (row count extraction is duck-typed)."""
        rows = getattr(result, "rows", None)
        if rows is not None:
            self.rows_out = len(rows)
        else:
            self.rows_out = int(getattr(result, "row_count", 0))

    def __enter__(self) -> "_StatementCapture":
        import time

        registry = self.profiler.registry
        self._counters0 = _counter_values(registry)
        self._hists0 = _histogram_state(registry)
        self._wall0 = time.perf_counter()
        self._sim0 = self.profiler._sim_clock()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        import time

        registry = self.profiler.registry
        wall = time.perf_counter() - self._wall0
        sim = self.profiler._sim_clock() - self._sim0
        counters = _counter_values(registry)
        hists = _histogram_state(registry)
        deltas = {
            key: counters[key] - self._counters0.get(key, 0)
            for key in counters
            if counters[key] != self._counters0.get(key, 0)
        }
        hist_deltas = {
            key: (
                count - self._hists0.get(key, (0, 0.0))[0],
                total - self._hists0.get(key, (0, 0.0))[1],
            )
            for key, (count, total) in hists.items()
            if count != self._hists0.get(key, (0, 0.0))[0]
        }
        self.profiler._record(self, wall, sim, deltas, hist_deltas, failed=exc is not None)


class QueryProfiler:
    """Aggregate per-statement, per-operator run profiles from registry deltas.

    Args:
        registry: The (enabled) metrics registry statements are measured
            through.
        platform: Supplies the simulated clock (scheduler) when available.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        platform: "SimulatedPlatform | None" = None,
    ) -> None:
        self.registry = registry
        self.platform = platform
        self.statements: list[dict[str, Any]] = []

    def _sim_clock(self) -> float:
        if self.platform is not None:
            return self.platform.scheduler.simulated_clock
        return 0.0

    def statement(self, index: int, label: str) -> _StatementCapture:
        """Bracket one statement execution; use as a context manager."""
        return _StatementCapture(self, index, label)

    # ------------------------------------------------------------------ #

    def _record(
        self,
        capture: _StatementCapture,
        wall: float,
        sim: float,
        deltas: dict[str, float],
        hist_deltas: dict[str, tuple[int, float]],
        failed: bool,
    ) -> None:
        from repro.obs.metrics import series_key

        operators: dict[str, dict[str, Any]] = {}

        def op_entry(operator: str) -> dict[str, Any]:
            return operators.setdefault(
                operator,
                {
                    "operator": operator,
                    "runs": 0,
                    "items": 0,
                    "wall_s": 0.0,
                    "cost": 0.0,
                    "answers": 0,
                },
            )

        # Labeled operator.* families carry the per-operator attribution.
        for family in _OPERATOR_COUNTERS:
            field = family.removeprefix("operator.")
            for key, value in deltas.items():
                series = self.registry.counters.get(key)
                if series is None or series.name != family:
                    continue
                labels = dict(series.labels)
                if "operator" not in labels:
                    continue
                op_entry(labels["operator"])[field] = op_entry(labels["operator"]).get(
                    field, 0
                ) + value
        for key, (_count, total) in hist_deltas.items():
            series = self.registry.histograms.get(key)
            if series is None or series.name != "operator.wall":
                continue
            labels = dict(series.labels)
            if "operator" in labels:
                op_entry(labels["operator"])["wall_s"] += total

        em_iterations = {
            dict(series.labels)["method"]: int(value)
            for key, value in deltas.items()
            if (series := self.registry.counters.get(key)) is not None
            and series.name == "em.iterations"
            and "method" in dict(series.labels)
        }

        record: dict[str, Any] = {
            "index": capture.index,
            "statement": capture.label,
            "wall_s": wall,
            "sim_s": sim,
            "rows_out": capture.rows_out,
            "failed": failed,
            "em_iterations": em_iterations,
            "operators": sorted(operators.values(), key=lambda e: e["operator"]),
        }
        for field, metric in _STATEMENT_COUNTERS.items():
            record[field] = deltas.get(series_key(metric), 0)
        self.statements.append(record)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def profile(self) -> dict[str, Any]:
        """The full profile document (the ``profile.json`` payload)."""
        totals = {
            "statements": len(self.statements),
            "wall_s": sum(s["wall_s"] for s in self.statements),
            "sim_s": sum(s["sim_s"] for s in self.statements),
            "cost": sum(s["cost"] for s in self.statements),
            "answers": sum(s["answers"] for s in self.statements),
            "hits_published": sum(s["hits_published"] for s in self.statements),
            "answers_reused": sum(s["answers_reused"] for s in self.statements),
            "hedges": sum(s["hedges"] for s in self.statements),
            "hedges_won": sum(s["hedges_won"] for s in self.statements),
            "cancelled": sum(s["cancelled"] for s in self.statements),
            "cancel_refunded": sum(s["cancel_refunded"] for s in self.statements),
            "em_iterations": sum(
                sum(s["em_iterations"].values()) for s in self.statements
            ),
        }
        return {
            "version": PROFILE_FORMAT_VERSION,
            "statements": self.statements,
            "totals": totals,
        }

    def save(self, path: str) -> None:
        """Write the profile document to *path* as JSON."""
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.profile(), handle, indent=2, default=str)
        except OSError as exc:
            raise ConfigurationError(f"cannot write profile {path!r}: {exc}") from exc


# ---------------------------------------------------------------------- #
# Report rendering (the profile-report CLI body)
# ---------------------------------------------------------------------- #


def load_profile(path: str) -> dict[str, Any]:
    """Read a ``profile.json`` written by :meth:`QueryProfiler.save`."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read profile {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not a JSON profile ({exc.msg})") from exc
    if not isinstance(document, dict) or "statements" not in document:
        raise ConfigurationError(f"{path}: not a profile document")
    return document


def render_profile(document: dict[str, Any]) -> str:
    """Human-readable per-statement, per-operator profile tables."""
    # Imported lazily: experiments pulls in the platform package, which in
    # turn imports repro.obs — a cycle at module-import time.
    from repro.experiments.report import format_table

    statements = document.get("statements", [])
    if not statements:
        return "(empty profile)"
    sections: list[str] = []
    rows = [
        {
            "#": s["index"],
            "statement": str(s["statement"])[:48],
            "wall_s": s["wall_s"],
            "sim_s": s["sim_s"],
            "rows": s["rows_out"] if s["rows_out"] is not None else "-",
            "hits": s["hits_published"],
            "reused": s["answers_reused"],
            # .get(): profiles written before hedging existed lack the field
            "hedges": s.get("hedges", 0),
            # .get(): profiles written before cancellation existed lack it
            "cancelled": s.get("cancelled", 0),
            "cost": s["cost"],
            "em_iters": sum(s.get("em_iterations", {}).values()),
        }
        for s in statements
    ]
    sections.append(
        format_table(rows, title="per-statement profile", float_format="{:.4f}")
    )
    for s in statements:
        if not s.get("operators"):
            continue
        op_rows = [
            {
                "operator": op["operator"],
                "runs": op["runs"],
                "items": op["items"],
                "wall_s": op["wall_s"],
                "cost": op["cost"],
                "answers": op["answers"],
            }
            for op in s["operators"]
        ]
        sections.append(
            format_table(
                op_rows,
                title=f"statement #{s['index']} ({str(s['statement'])[:48]}) operators",
                float_format="{:.4f}",
            )
        )
    totals = document.get("totals")
    if totals:
        line = (
            "totals: "
            f"{totals['statements']} statements, {totals['wall_s']:.3f}s wall, "
            f"{totals['sim_s']:.1f}s simulated, {totals['hits_published']} HITs published, "
            f"{totals['answers_reused']} answers reused, spend {totals['cost']:.4f}, "
            f"{totals['em_iterations']} EM iterations"
        )
        if totals.get("hedges"):
            line += f", {totals['hedges']} hedges ({totals.get('hedges_won', 0)} won)"
        if totals.get("cancelled"):
            line += (
                f", {int(totals['cancelled'])} HITs cancelled "
                f"(saved {totals.get('cancel_refunded', 0):.4f})"
            )
        sections.append(line)
    return "\n\n".join(sections)


def profile_report(path: str) -> str:
    """Load *path* and render its report (the profile-report CLI body)."""
    return render_profile(load_profile(path))

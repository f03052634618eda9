"""Wall-clock benchmark for CrowdSQL statements and the multi-tenant service.

Run from the repository root::

    python3 perfbench/run.py --workload sql_filter_barrier --seed 1 --seconds 20 --trace 0

The process pins itself to one CPU, then runs the workload's rounds (see
``workloads.py``) as a closed loop with one client. Every timing is
normalised by the reference kernel sampled next to it (``reference.py``),
so a drift in host speed cancels; the raw timings and the kernel's own
figures are printed beside the metrics.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
instead alternates untraced rounds with rounds whose layer entry points are
wrapped (``layers.py``) for ``--seconds``, then adds traced rounds until
there are two, prints the per-layer table, checks that exact counts repeat
between traced rounds, and reports the tracing overhead.
Both modes check the program's outputs and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The workloads, their
sizes and the layer-to-metric map are in ``design.json``; metric names,
units and bounds are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run sends at least this many requests, so that at least ten latency
#: samples lie beyond p90.
MIN_REQUESTS = 100
#: setup_s is the median of at least SETUP_REPEATS set-ups taking at least
#: SETUP_SECONDS together, so a set-up of a millisecond is sampled hundreds
#: of times.
SETUP_REPEATS = 9
SETUP_SECONDS = 1.0
#: A traced run makes at least this many traced rounds, to compare counts.
MIN_TRACED_ROUNDS = 2


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int:
    """Pin this process to one CPU before any thread starts; return the CPU.

    The program is GIL-bound, so a second core only adds cross-core thread
    hand-offs, and those are scheduled unevenly.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Bench:
    """One invocation: the workload, the reference samples and the report."""

    def __init__(self, args: argparse.Namespace, spec: dict, design: dict) -> None:
        import workloads
        from reference import Reference

        self.args = args
        self.spec = spec
        self.design = design
        self.work = workloads.make(args.workload, args.seed)
        self.ref = Reference()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------------ #
    # Shared steps
    # ------------------------------------------------------------------ #

    def _warm_up(self) -> None:
        """Reference samples and one throwaway request, so lazy set-up is not timed."""
        for _ in range(3):
            self.ref.sample()
        self.work.warm_up()

    def _setup(self):
        """One timed set-up; returns (state, (raw seconds, start, end))."""
        self.ref.due()
        start = time.perf_counter()
        state = self.work.setup()
        end = time.perf_counter()
        return state, (end - start, start, end)

    def _round(self, state):
        try:
            out = self.work.run_round(state, self.ref)
        finally:
            self.work.teardown(state)
        self.attempted += len(out.requests)
        self.failed += out.failed
        self.errors += out.errors
        return out

    def _normalised(self, timed: tuple[float, float, float]) -> float:
        raw, start, end = timed
        return self.ref.normalise(raw, start, end)

    def _round_time(self, out) -> float:
        """Normalised seconds of request time in one round."""
        return sum(self._normalised(r) for r in out.requests)

    def _check_replay(self, rounds) -> None:
        """Every round ran from the same seeds, so buys the same crowd outcome."""
        first = rounds[0].crowd()
        for index, out in enumerate(rounds[1:], 1):
            if out.crowd() != first:
                self.errors.append(
                    f"round {index} crowd outcome {out.crowd()} differs from round 0's {first}"
                )
        problem = self.work.replay_check()
        if problem is not None:
            self.errors.append(problem)

    def _print_reference(self) -> None:
        from reference import R0_S

        ref = self.ref
        if ref.wrong:
            self.errors.append(f"reference kernel gave a wrong digest {ref.wrong} times")
        quartiles = statistics.quantiles(ref.seconds, n=4)
        print(f"reference kernel: {len(ref.seconds)} samples, bench.ref_ms {ref.median_ms():.3f} "
              f"(quartiles {quartiles[0] * 1e3:.3f}, {quartiles[2] * 1e3:.3f} ms), "
              f"R0 {R0_S * 1e3:.3f} ms")

    # ------------------------------------------------------------------ #
    # Untraced: end-to-end metrics
    # ------------------------------------------------------------------ #

    def end_to_end(self) -> dict[str, float]:
        from measure import percentile, samples_beyond

        self._warm_up()
        setups: list[tuple[float, float, float]] = []
        rounds = []
        start = time.perf_counter()
        while (time.perf_counter() - start < self.args.seconds
               or sum(len(r.requests) for r in rounds) < MIN_REQUESTS):
            state, setup = self._setup()
            setups.append(setup)
            rounds.append(self._round(state))
        while len(setups) < SETUP_REPEATS or sum(s[0] for s in setups) < SETUP_SECONDS:
            state, setup = self._setup()
            self.work.teardown(state)
            setups.append(setup)
        self.ref.sample()  # so the last requests have samples after them too
        self._check_replay(rounds)

        requests = [r for out in rounds for r in out.requests]
        latencies = [self._normalised(r) for r in requests]
        raw = [r[0] for r in requests]
        finite = [value for value in latencies if math.isfinite(value)]
        first = rounds[0]
        metrics = {
            "assignments_per_s": sum(out.answers for out in rounds) / sum(finite),
            "request_p50_ms": percentile(latencies, 50) * 1e3,
            "request_p90_ms": percentile(latencies, 90) * 1e3,
            "setup_s": statistics.median(self._normalised(s) for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "crowd_cost_usd": first.cost,
            "sim_makespan_s": first.makespan,
            "result_f1": first.f1.value,
        }
        self._print_reference()
        print(f"requests: {len(latencies)} in {len(rounds)} rounds, {self.failed} failed, "
              f"{samples_beyond(len(latencies), 90)} samples beyond p90; "
              f"wall {time.perf_counter() - start:.3f} s")
        print(f"raw (not normalised): request p50 {percentile(raw, 50) * 1e3:.3f} ms, "
              f"p90 {percentile(raw, 90) * 1e3:.3f} ms, "
              f"{sum(out.answers for out in rounds) / sum(raw):.1f} assignments/s, "
              f"setup median {statistics.median(s[0] for s in setups):.4f} s "
              f"of {len(setups)}")
        print(f"crowd outcome per round (answers, usd, sim_s, F1): {first.crowd()}; "
              f"cache hits {first.cache_hits}, misses {first.cache_misses}")
        return metrics

    # ------------------------------------------------------------------ #
    # Traced: per-layer metrics
    # ------------------------------------------------------------------ #

    def per_layer(self) -> dict[str, float]:
        import layers

        self._warm_up()
        untraced = []
        traced = []  # (raw layer metrics, round, timed set-up)
        start = time.perf_counter()
        while (time.perf_counter() - start < self.args.seconds
               or len(traced) < MIN_TRACED_ROUNDS):
            if time.perf_counter() - start < self.args.seconds:
                state, _ = self._setup()
                untraced.append(self._round(state))
            recorder = layers.Recorder()
            originals = layers.install(recorder)
            try:
                state, setup = self._setup()
                load = layers.write_ms(recorder)
                recorder.reset()
                out = self._round(state)
            finally:
                layers.uninstall(originals)
            leaks = layers.leaked_wrappers(originals)
            if leaks:
                self.errors.append(f"wrappers left installed: {leaks}")
            metrics = layers.layer_metrics(recorder)
            metrics["data.load_ms"] = load
            traced.append((metrics, out, setup))
        self.ref.sample()
        self._check_replay(untraced + [out for _, out, _ in traced])
        rows = [self._normalise_layers(*t) for t in traced]
        self._check_counts(rows)
        return self._layer_table(rows, [self._round_time(out) for out in untraced])

    def _normalise_layers(self, metrics: dict[str, float], out, setup: tuple) -> dict:
        """One traced round's layer metrics, timings normalised like the round's requests."""
        from reference import R0_S

        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        time_s = self._round_time(out)
        factor = time_s / sum(r[0] for r in out.requests)
        row = {name: value * factor if units.get(name) == "ms" else value
               for name, value in metrics.items()}
        row["data.load_ms"] = metrics["data.load_ms"] * R0_S / self.ref.local(
            (setup[1] + setup[2]) / 2)
        lookups = out.cache_hits + out.cache_misses
        row["cache.hit_ratio"] = out.cache_hits / lookups if lookups else 0.0
        row["round_ms"] = time_s * 1e3
        return row

    def _check_counts(self, rows: list[dict[str, float]]) -> None:
        import layers

        for name in layers.EXACT_COUNTS:
            values = [row[name] for row in rows]
            if len(set(values)) != 1:
                self.errors.append(f"{name} differs between traced rounds: {values}")
        print("batch.threads_started per traced round (timing-dependent, not required "
              f"to repeat): {[row['batch.threads_started'] for row in rows]}")

    def _layer_table(self, rows: list[dict[str, float]], untraced: list[float]) -> dict:
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        metrics = {name: statistics.median(row[name] for row in rows)
                   for name in units if name in rows[0]}
        wall = statistics.median(row["round_ms"] for row in rows)
        metrics["bench.ref_ms"] = self.ref.median_ms()
        metrics["trace.overhead_ratio"] = wall / (statistics.median(untraced) * 1e3)
        self._print_reference()
        print(f"per-layer table: medians over {len(rows)} traced rounds, normalised; "
              f"a traced round is {wall:.3f} ms of requests, "
              f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f}")
        print(f"  {'layer':<16}{'metric':<32}{'value':>14} {'unit':<10}{'share':>8}")
        for layer, entries in self.design["layers"].items():
            for entry in entries:
                name = entry["metric"]
                share = (f"{metrics[name] / wall:8.1%}"
                         if units[name] == "ms" and name not in ("data.load_ms", "bench.ref_ms")
                         else "")
                print(f"  {layer:<16}{name:<32}{metrics[name]:>14.4f} {units[name]:<10}{share}")
        return metrics

    # ------------------------------------------------------------------ #

    def report(self) -> int:
        traced = bool(self.args.trace)
        metrics = self.per_layer() if traced else self.end_to_end()
        listed = self.spec["per_layer" if traced else "end_to_end"]
        missing = [m["name"] for m in listed if m["name"] not in metrics]
        if missing:
            self.errors.append(f"metrics not measured: {missing}")
        for problem in self.errors:
            print(f"CHECK FAILED: {problem}")
        if not traced:
            for m in listed:
                print(f"{m['name']:<20}{metrics[m['name']]:>16.6f} {m['unit']}")
        values = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in metrics and math.isfinite(metrics[m["name"]])
        }
        print(json.dumps({
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": values,
        }))
        return 0 if not self.errors else 1


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(src))
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, pinned to CPU {cpu}: "
          f"{design['workloads'][args.workload]['load']}")
    return Bench(args, spec, design).report()


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the benchmark's own machinery.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import statistics
import threading
import time

import layers
import pytest
import reference
import workloads as wl
from measure import F1, outermost, percentile, samples_beyond, self_times
from reference import Reference

import repro.lang.interpreter
from repro.data.database import Database
from repro.data.schema import SchemaBuilder
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.platform.batch import BatchScheduler


class TestGeneration:
    def test_sql_inputs_repeat_per_seed(self):
        price = wl.Listings(7).price
        for make in (wl.filter_statements, wl.pipeline_statements):
            assert make(7, price) == make(7, price)
            assert make(7, price) != make(8, price)
        assert wl.Listings(7).rows == wl.Listings(7).rows
        assert wl.Listings(7).in_stock != wl.Listings(8).in_stock

    def test_service_inputs_repeat_per_seed(self):
        first, again, other = (wl.ServiceWorkload(s) for s in (7, 7, 8))
        assert [s.sql for s in first.sessions] == [s.sql for s in again.sessions]
        assert [s.tenant for s in first.sessions] == [s.tenant for s in again.sessions]
        assert [s.sql for s in first.sessions] != [s.sql for s in other.sessions]

    def test_filter_slices_are_distinct(self):
        slices = [(st.lo, st.hi) for st in wl.filter_statements(3, wl.Listings(3).price)]
        assert len(set(slices)) == len(slices) == wl.BARRIER_STATEMENTS
        assert all(100 <= hi - lo <= 200 for lo, hi in slices)

    def test_pipeline_questions_are_distinct(self):
        sqls = [st.sql for st in wl.pipeline_statements(3, wl.Listings(3).price)]
        questions = {sql.split("CROWDFILTER")[1] for sql in sqls}
        assert len(questions) == len(sqls)


class TestPercentiles:
    def test_p90_needs_a_hundred_samples_for_ten_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 50) == 5.0

    def test_failed_requests_count_as_infinite(self):
        samples = [1.0] * 80 + [float("inf")] * 20
        assert percentile(samples, 50) == 1.0
        assert percentile(samples, 90) == float("inf")

    def test_micro_f1(self):
        f1 = F1()
        f1.add({1, 2, 3}, {2, 3, 4})
        f1.add(set(), set())
        assert f1.value == pytest.approx(2 / 3)


class TestReference:
    def test_kernel_is_fixed(self):
        assert reference.kernel() == reference.KERNEL_DIGEST

    def test_local_median_uses_the_window_or_the_nearest_samples(self):
        ref = Reference()
        ref.times = [0.0, 0.5, 1.0, 1.5, 10.0, 20.0]
        ref.seconds = [0.01, 0.03, 0.02, 0.04, 0.5, 0.9]
        # Within one second of 1.0: the first four samples.
        assert ref.local(1.0) == pytest.approx(0.025)
        # Nothing within a second of 15: the three nearest (10, 20, 1.5).
        assert ref.local(15.0) == pytest.approx(0.5)

    def test_normalise_scales_by_r0_over_local(self):
        ref = Reference()
        ref.times, ref.seconds = [0.0, 0.1, 0.2], [0.02, 0.02, 0.02]
        # The host runs the kernel at half R0's speed: halve the timing.
        assert ref.normalise(0.5, 0.0, 0.2) == pytest.approx(0.5 * reference.R0_S / 0.02)


class TestSelfTime:
    # (id, parent, name, start, end)
    SPANS = [
        (0, None, "exec", 0.0, 10.0),
        (1, 0, "run", 1.0, 3.0),
        (2, 0, "run", 2.0, 5.0),  # overlaps span 1: another thread
        (3, 0, "answer", 8.0, 12.0),  # runs past its parent: clipped
        (4, 1, "answer", 1.5, 2.5),  # grandchild: no effect on span 0
        (5, 2, "run", 2.5, 3.0),  # same name nested: counted once
    ]

    def test_children_union_is_subtracted(self):
        selfs = self_times(self.SPANS)
        assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
        assert selfs[1] == pytest.approx(2.0 - 1.0)
        assert selfs[2] == pytest.approx(3.0 - 0.5)
        assert selfs[4] == pytest.approx(1.0)

    def test_outermost_skips_nested_same_name(self):
        kept = {span[0] for span in outermost(self.SPANS)}
        assert kept == {0, 1, 2, 3, 4}

    def test_lane_thread_spans_parent_under_the_open_run(self):
        recorder = layers.Recorder()
        token = recorder.begin()
        recorder.open_run(token[0])
        seen = []

        def lane():
            inner = recorder.begin()
            seen.append(inner[1])
            recorder.end(inner, "workers.answer")

        thread = threading.Thread(target=lane)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        recorder.close_run(token[0])
        recorder.end(token, "batch.run")
        assert seen == [token[0]]


def _tiny_session() -> CrowdSQLSession:
    database = Database()
    schema = SchemaBuilder().integer("id").string("item").build()
    database.create_table("t", schema, rows=[{"id": i, "item": f"x {i}"} for i in range(6)])
    platform = wl.make_platform(1, lanes=2, budget=100.0)
    oracle = CrowdOracle(filter_fn=lambda value, _q: value.endswith(("0", "2", "4")))
    return CrowdSQLSession(database, platform, oracle=oracle)


class TestWrappers:
    def test_every_wrapper_is_removed(self):
        parse, run, start = (
            repro.lang.interpreter.parse, vars(BatchScheduler)["run"], threading.Thread.start
        )
        recorder = layers.Recorder()
        originals = layers.install(recorder)
        try:
            assert repro.lang.interpreter.parse is not parse
            result = _tiny_session().query("SELECT id FROM t WHERE CROWDFILTER(item, 'even?')")
        finally:
            layers.uninstall(originals)
        assert layers.leaked_wrappers(originals) == []
        assert repro.lang.interpreter.parse is parse
        assert vars(BatchScheduler)["run"] is run
        assert threading.Thread.start is start
        metrics = layers.layer_metrics(recorder)
        assert metrics["lang.statements"] == 1
        assert metrics["batch.runs"] == 6
        assert metrics["workers.assignments"] == 18
        # Two lanes: each one-task run draws its 3 assignments on 3 generators.
        assert metrics["batch.rng_constructions"] == 18
        assert metrics["platform.stats_accesses"] > 0
        assert len(result.rows) <= 6

    def test_untraced_run_records_nothing(self):
        recorder = layers.Recorder()
        layers.uninstall(layers.install(recorder))
        _tiny_session().query("SELECT id FROM t WHERE CROWDFILTER(item, 'even?')")
        assert recorder.spans == []
        assert not recorder.counts


#: About a third of a barrier statement's time on the reference machine.
BUSY_ITERATIONS = 150_000


def _busy(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i
    return total


class TestSensitivity:
    """An injected slowdown shows in the normalised latency, not in the kernel."""

    def test_injected_slowdown_is_not_absorbed(self, monkeypatch):
        work = wl.SqlWorkload(5, pipeline=False)
        work.statements = work.statements[:10]
        work.warm_up()
        query = CrowdSQLSession.query
        ref = Reference()
        added: list[tuple[float, float, float]] = []  # busy-loop time per request

        def slowed(self, sql):
            start = time.perf_counter()
            _busy(BUSY_ITERATIONS)
            end = time.perf_counter()
            added.append((end - start, start, end))
            return query(self, sql)

        def phase() -> tuple[list, list[float]]:
            requests, kernel_from = [], len(ref.seconds)
            for _ in range(3):
                out = work.run_round(work.setup(), ref)
                assert not out.errors
                requests += out.requests
            return requests, ref.seconds[kernel_from:]

        # Alternate, so drift in host speed falls on both sides alike.
        plain, slow = ([], []), ([], [])
        for _ in range(3):
            for side, patched in ((plain, False), (slow, True)):
                if patched:
                    monkeypatch.setattr(CrowdSQLSession, "query", slowed)
                requests, kernel = phase()
                monkeypatch.setattr(CrowdSQLSession, "query", query)
                side[0].extend(requests)
                side[1].extend(kernel)
        ref.sample()

        def p50(requests):
            return statistics.median(ref.normalise(*r) for r in requests)

        expected = p50(added)
        assert 0.7 < (p50(slow[0]) - p50(plain[0])) / expected < 1.3
        assert 0.8 < statistics.median(slow[1]) / statistics.median(plain[1]) < 1.25


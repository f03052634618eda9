"""The named workloads: seeded inputs, set-up, one round of requests, output checks.

Every input (tables, SQL text, oracle truth, session scripts, tenant choice)
is generated here from the workload seed; the program only ever sees the
generated tables and SQL. Sizes and knobs are constants so that two commits
run exactly the same work; ``design.json`` records them.

Each workload is a closed loop with one client. A *round* is the
workload's fixed unit of work: a fresh set-up (platform, cache, service)
built from the same seed, then the same list of requests sent back to
back. Every round of a run therefore buys the same crowd answers, and the
run checks that they do.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from measure import F1
from reference import Reference

from repro.data.database import Database
from repro.data.schema import SchemaBuilder
from repro.lang.executor import CrowdOracle, QueryResult
from repro.lang.interpreter import CrowdSQLSession
from repro.obs.metrics import MetricsRegistry
from repro.platform.batch import BatchConfig
from repro.platform.cache import AnswerCache
from repro.platform.platform import SimulatedPlatform
from repro.platform.pricing import PricingPolicy
from repro.platform.task import Task, TaskType
from repro.quality.truth import DawidSkene, MajorityVote
from repro.service import CrowdService, TenantSpec
from repro.workers.models import OneCoinModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import Worker

REDUNDANCY = 3
POOL_SIZE = 24
ACCURACY = (0.75, 0.97)
BATCH_SIZE = 32
N_LISTINGS = 30_000
N_CATEGORIES = 200
IN_STOCK_RATE = 0.4
TOP_K = 20
#: The barrier workload runs the engine default of one lane: no thread is
#: started. The pipeline workload runs 8, the only threaded path measured.
BARRIER_LANES = 1
PIPELINE_LANES = 8
BARRIER_STATEMENTS = 40  # per round
PIPELINE_STATEMENTS = 50  # per round; even, as many joins as TOP-Ks

SERVICE_LANES = 1  # the engine and CLI default
ROUND_SESSIONS = 400
TENANT_WEIGHTS = (1.0, 2.0, 3.0, 4.0)
TENANT_LOAD = (0.4, 0.3, 0.2, 0.1)  # share of sessions per tenant
SHARED_ITEMS = 40
SESSION_FILMS = 4
SESSION_ORDER_K = 2
WORDS = (
    "red blue green amber oak pine lake hill stone river north south gold "
    "iron maple cedar bay ridge field brook"
).split()


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one component, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def reward() -> float:
    """The price of one binary-choice assignment."""
    probe = Task(TaskType.SINGLE_CHOICE, question="?", options=("yes", "no"))
    return PricingPolicy().price(probe)


def make_platform(
    seed: int, lanes: int, budget: float, metrics: MetricsRegistry | None = None
) -> SimulatedPlatform:
    """Pool, platform, batch runtime and a cold answer cache, all from *seed*.

    Worker accuracies are evenly spaced over ACCURACY rather than drawn, so
    pool quality is the same for every seed and F1 does not drift with it.
    """
    accuracies = np.linspace(*ACCURACY, POOL_SIZE).tolist()
    pool = WorkerPool(
        [Worker(model=OneCoinModel(a)) for a in accuracies], seed=derive(seed, 0)
    )
    platform = SimulatedPlatform(
        pool,
        budget=budget,
        seed=derive(seed, 1),
        batch=BatchConfig(batch_size=BATCH_SIZE, max_parallel=lanes, seed=derive(seed, 2)),
        metrics=metrics,
    )
    platform.attach_cache(AnswerCache())
    return platform


@dataclass
class Round:
    """What one round of requests produced."""

    #: (raw seconds, start, end) per request, perf_counter clock, in order sent.
    requests: list[tuple[float, float, float]] = field(default_factory=list)
    failed: int = 0
    answers: int = 0  # purchased, so cache-served answers are excluded
    cost: float = 0.0
    makespan: float = 0.0
    f1: F1 = field(default_factory=F1)
    cache_hits: int = 0
    cache_misses: int = 0
    errors: list[str] = field(default_factory=list)  # failed output checks

    def crowd(self) -> tuple[int, float, float, float]:
        """The seed-replayable outcome: answers, cost, makespan, F1."""
        return (self.answers, self.cost, self.makespan, self.f1.value)

    def account(self, platform: SimulatedPlatform) -> None:
        """Book the round's platform totals; check budget and redundancy."""
        stats = platform.stats
        self.answers = int(stats.answers_collected)
        self.cost = stats.cost_spent
        self.cache_hits = int(stats.cache_hits)
        self.cache_misses = int(stats.cache_misses)
        self.makespan = platform.scheduler.simulated_clock
        if stats.cost_spent > platform.budget:
            self.errors.append(f"spent {stats.cost_spent} over budget {platform.budget}")
        per_task = Counter(answer.task_id for answer in platform.answers)
        if max(per_task.values(), default=0) > REDUNDANCY:
            self.errors.append("a task received more answers than the redundancy")


def timed(ref: Reference, out: Round, request, check) -> None:
    """Send one request: reference sample if due, then the timed call, then *check*."""
    ref.due()
    start = time.perf_counter()
    try:
        result = request()
    except Exception as exc:  # counted, and a failure of the run
        end = time.perf_counter()
        out.failed += 1
        out.errors.append(f"request raised {exc!r}")
        out.requests.append((math.inf, start, end))
        return
    end = time.perf_counter()
    out.requests.append((end - start, start, end))
    problem = check(result)
    if problem is not None:
        out.errors.append(problem)


# ---------------------------------------------------------------------- #
# CrowdSQL workloads
# ---------------------------------------------------------------------- #


@dataclass
class Statement:
    sql: str
    kind: str  # filter | join | topk
    lo: int
    hi: int
    min_price: int = 0


class Listings:
    """The generated 30k-row listings table, its catalog and oracle truth."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 100])
        self.price = rng.integers(0, 1000, N_LISTINGS).tolist()
        self.cat = rng.integers(0, N_CATEGORIES, N_LISTINGS).tolist()
        self.in_stock = (rng.random(N_LISTINGS) < IN_STOCK_RATE).tolist()
        self.rows = [
            {"listing_id": i, "item": f"item {i}", "cat": self.cat[i], "price": self.price[i]}
            for i in range(N_LISTINGS)
        ]
        self.catalog = [{"ref": c, "label": f"category {c}"} for c in range(N_CATEGORIES)]
        truth = {f"item {i}": self.in_stock[i] for i in range(N_LISTINGS)}
        self.oracle = CrowdOracle(filter_fn=lambda value, _question: truth[value])

    def load(self) -> Database:
        database = Database()
        listings = (
            SchemaBuilder().integer("listing_id").string("item").integer("cat")
            .integer("price").build()
        )
        database.create_table("listings", listings, rows=self.rows)
        catalog = SchemaBuilder().integer("ref").string("label").build()
        database.create_table("catalog", catalog, rows=self.catalog)
        return database

    def candidates(self, st: Statement) -> list[int]:
        return [i for i in range(st.lo, st.hi) if self.price[i] >= st.min_price]

    def truth(self, st: Statement) -> list[int]:
        kept = [i for i in self.candidates(st) if self.in_stock[i]]
        if st.kind == "topk":
            kept = sorted(kept, key=lambda i: -self.price[i])[:TOP_K]
        return kept

    def check(self, st: Statement, rows: list[dict]) -> str | None:
        """Why *rows* is not a valid answer to *st*, or None."""
        ids = [row["listing_id"] for row in rows]
        if len(set(ids)) != len(ids):
            return f"{st.sql!r}: duplicate rows"
        for row in rows:
            i = row["listing_id"]
            if not (st.lo <= i < st.hi and row["price"] == self.price[i]
                    and row["price"] >= st.min_price):
                return f"{st.sql!r}: row {row} violates the machine predicate"
            if st.kind == "join" and row["label"] != f"category {self.cat[i]}":
                return f"{st.sql!r}: row {row} joined the wrong catalog entry"
        if st.kind == "topk":
            prices = [row["price"] for row in rows]
            if len(rows) > TOP_K or prices != sorted(prices, reverse=True):
                return f"{st.sql!r}: TOP-K returned {len(rows)} rows, not in price order"
        return None


def _spread(rng: np.random.Generator, low: float, high: float, n: int) -> list[int]:
    """*n* evenly spaced values over [low, high] in seeded order.

    Sizes and thresholds are stratified rather than drawn, so the amount of
    work in a round is nearly the same for every seed.
    """
    return [round(v) for v in rng.permutation(np.linspace(low, high, n)).tolist()]


def _floor_for(price: list[int], lo: int, hi: int, candidates: int) -> int:
    """The price floor that leaves about *candidates* rows of [lo, hi)."""
    return sorted(price[lo:hi], reverse=True)[candidates - 1]


def filter_statements(seed: int, price: list[int]) -> list[Statement]:
    """Barrier crowd filters, each over its own 100-200 row slice.

    The k-th largest slice keeps the k-th largest share of its rows, so every
    seed asks the crowd about the same spread of row counts, in its own order.
    """
    rng = np.random.default_rng([seed, 101])
    n = BARRIER_STATEMENTS
    region = N_LISTINGS // n  # one slice per region: all distinct
    sizes = np.linspace(100, 200, n).round().astype(int).tolist()
    shares = np.linspace(0.6, 1.0, n).tolist()
    out = []
    for k, j in enumerate(rng.permutation(n).tolist()):
        size = sizes[j]
        lo = k * region + int(rng.integers(0, region - size + 1))
        hi = lo + size
        floor = _floor_for(price, lo, hi, round(size * shares[j]))
        out.append(Statement(
            f"SELECT listing_id, price FROM listings WHERE listing_id >= {lo} "
            f"AND listing_id < {hi} AND price >= {floor} "
            "AND CROWDFILTER(item, 'Is this item in stock?')",
            "filter", lo, hi, floor,
        ))
    return out


def pipeline_statements(seed: int, price: list[int]) -> list[Statement]:
    """Filter->join statements alternating with TOP-K over ~4k-row slices.

    Joins and TOP-Ks each get their own evenly spaced slice sizes, so the
    work of each kind is the same for every seed. Slices overlap, so each
    statement asks its own question text: no two statements share a crowd
    question and the cache never hits.
    """
    rng = np.random.default_rng([seed, 102])
    half = PIPELINE_STATEMENTS // 2
    join_sizes = _spread(rng, 3500, 4500, half)
    topk_sizes = _spread(rng, 3500, 4500, half)
    join_candidates = _spread(rng, 140, 160, half)
    out = []
    for k in range(PIPELINE_STATEMENTS):
        size = (topk_sizes if k % 2 else join_sizes)[k // 2]
        lo = int(rng.integers(0, N_LISTINGS - size + 1))
        hi = lo + size
        crowd = f"CROWDFILTER(item, 'In stock for order {k}?')"
        if k % 2 == 0:
            floor = _floor_for(price, lo, hi, join_candidates[k // 2])
            out.append(Statement(
                "SELECT listing_id, price, label FROM listings JOIN catalog ON cat = ref "
                f"WHERE listing_id >= {lo} AND listing_id < {hi} AND price >= {floor} "
                f"AND {crowd}",
                "join", lo, hi, floor,
            ))
        else:
            out.append(Statement(
                f"SELECT listing_id, price FROM listings WHERE listing_id >= {lo} "
                f"AND listing_id < {hi} AND {crowd} ORDER BY price DESC LIMIT {TOP_K}",
                "topk", lo, hi,
            ))
    return out


class SqlWorkload:
    """One CrowdSQLSession sending SELECTs back to back (closed loop, 1 client)."""

    def __init__(self, seed: int, pipeline: bool) -> None:
        self.seed = seed
        self.pipeline = pipeline
        self.lanes = PIPELINE_LANES if pipeline else BARRIER_LANES
        self.listings = Listings(seed)
        make = pipeline_statements if pipeline else filter_statements
        self.statements = make(seed, self.listings.price)
        # Twice the worst case (every candidate row asked REDUNDANCY times):
        # never binds, so the spend check tests the accounting, not the load.
        candidates = sum(len(self.listings.candidates(st)) for st in self.statements)
        self.budget = 2 * candidates * REDUNDANCY * reward()

    def session(self, database: Database, pipeline: bool) -> CrowdSQLSession:
        """A session on a fresh platform built from the workload seed."""
        platform = make_platform(derive(self.seed, 1), self.lanes, self.budget)
        return CrowdSQLSession(
            database, platform, redundancy=REDUNDANCY, inference=MajorityVote(),
            oracle=self.listings.oracle, pipeline=pipeline,
        )

    def setup(self) -> CrowdSQLSession:
        """Load the listings and catalog tables; build pool, platform, cache, session."""
        return self.session(self.listings.load(), self.pipeline)

    def warm_up(self) -> None:
        """One statement on a throwaway set-up, so lazy imports are not timed."""
        self.setup().query(self.statements[0].sql)

    def run_round(self, session: CrowdSQLSession, ref: Reference) -> Round:
        out = Round()
        for st in self.statements:
            def check(result: QueryResult, st: Statement = st) -> str | None:
                out.f1.add((row["listing_id"] for row in result.rows), self.listings.truth(st))
                return self.listings.check(st, result.rows)

            timed(ref, out, lambda st=st: session.query(st.sql), check)
        out.account(session.platform)
        return out

    def teardown(self, session: CrowdSQLSession) -> None:
        pass

    def replay_check(self) -> str | None:
        """A sampled pipelined statement equals its barrier replay.

        Both executions run on fresh platforms built from the same seed, so
        the rows must match exactly.
        """
        if not self.pipeline:
            return None
        joins = [st for st in self.statements if st.kind == "join"]
        st = joins[np.random.default_rng([self.seed, 103]).integers(len(joins))]
        database = self.listings.load()
        rows = [self.session(database, pipeline).query(st.sql).rows for pipeline in (True, False)]
        if rows[0] != rows[1]:
            return f"pipelined rows differ from the barrier replay for {st.sql!r}"
        return None


# ---------------------------------------------------------------------- #
# Multi-tenant service
# ---------------------------------------------------------------------- #


@dataclass
class SessionSpec:
    tenant: int
    sql: str
    imports: list[str]
    films: list[str]
    pairs: set[tuple[str, str]]  # true CROWDEQUAL matches
    top: set[str]  # true CROWDORDER top-K titles


def _name(rng: np.random.Generator, suffix: str) -> str:
    first, second = rng.choice(len(WORDS), 2, replace=False).tolist()
    return f"{WORDS[first]} {WORDS[second]} {suffix}"


def make_session_spec(
    rng: np.random.Generator, tag: str, shared: list[tuple[str, float]], use_shared: bool
) -> SessionSpec:
    """CREATE+INSERT two tables, one CROWDJOIN and one CROWDORDER ... LIMIT."""
    if use_shared:
        picks = rng.choice(len(shared), SESSION_FILMS, replace=False).tolist()
        films = [shared[i] for i in picks]
    else:
        scores = rng.choice(np.arange(1, 1000), SESSION_FILMS, replace=False).tolist()
        films = [(_name(rng, f"{tag}x{j}"), float(s)) for j, s in enumerate(scores)]
    matched = films[:2]
    # A listing equals a title when their token multisets match.
    imports = [" ".join(reversed(title.split())) for title, _ in matched]
    imports.append(_name(rng, f"{tag}d"))
    pairs = {(imports[j], title) for j, (title, _) in enumerate(matched)}
    top = {t for t, _ in sorted(films, key=lambda f: -f[1])[:SESSION_ORDER_K]}
    film_values = ", ".join(f"('{title}', {score})" for title, score in films)
    import_values = ", ".join(f"('{listing}')" for listing in imports)
    sql = f"""
CREATE TABLE films (title STRING NOT NULL, score FLOAT, PRIMARY KEY (title));
INSERT INTO films VALUES {film_values};
CREATE TABLE imports (listing STRING NOT NULL, PRIMARY KEY (listing));
INSERT INTO imports VALUES {import_values};
SELECT listing, title FROM imports CROWDJOIN films ON CROWDEQUAL(listing, title);
SELECT title FROM films CROWDORDER BY score DESC LIMIT {SESSION_ORDER_K};
"""
    return SessionSpec(
        tenant=int(rng.choice(len(TENANT_LOAD), p=TENANT_LOAD)), sql=sql,
        imports=imports, films=[t for t, _ in films], pairs=pairs, top=top,
    )


class ServiceWorkload:
    """One client sending session scripts back to back to a 4-tenant CrowdService."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 200])
        scores = rng.choice(np.arange(1, 1000), SHARED_ITEMS, replace=False).tolist()
        shared = [(_name(rng, f"c{i}"), float(s)) for i, s in enumerate(scores)]
        # Half the sessions draw from the shared catalogue (cross-tenant hits).
        self.sessions = [
            make_session_spec(np.random.default_rng([seed, 201, i]), f"s{i}", shared, i % 2 == 0)
            for i in range(ROUND_SESSIONS)
        ]
        # Twice the worst case: every film pair compared and every
        # import-film pair matched REDUNDANCY times, in every session.
        pairs = SESSION_FILMS * (SESSION_FILMS - 1) // 2 + 3 * SESSION_FILMS
        self.budget = 2 * ROUND_SESSIONS * pairs * REDUNDANCY * reward()

    def setup(self) -> CrowdService:
        """Pool, platform, shared cache, enabled metrics; a started 4-tenant service."""
        platform = make_platform(
            derive(self.seed, 3), SERVICE_LANES, self.budget, MetricsRegistry(enabled=True)
        )
        service = CrowdService(platform)
        for i, weight in enumerate(TENANT_WEIGHTS):
            service.register(TenantSpec(f"org{i}", weight=weight))
        return service.start()

    def warm_up(self) -> None:
        """A few sessions on a throwaway service, so lazy imports are not timed."""
        service = self.setup()
        try:
            for spec in self.sessions[:4]:
                self._session(service, spec).execute(spec.sql)
        finally:
            service.stop()

    @staticmethod
    def _session(service: CrowdService, spec: SessionSpec) -> CrowdSQLSession:
        return service.session(
            service.tenants[spec.tenant], database=Database(), redundancy=REDUNDANCY,
            inference=DawidSkene(), oracle=CrowdOracle(),
        )

    def run_round(self, service: CrowdService, ref: Reference) -> Round:
        out = Round()
        for spec in self.sessions:
            timed(ref, out,
                  lambda spec=spec: self._session(service, spec).execute(spec.sql),
                  lambda results, spec=spec: self._check(spec, results, out.f1))
        out.account(service.platform)
        self._check_ledgers(service, out)
        return out

    def teardown(self, service: CrowdService) -> None:
        service.stop()

    def replay_check(self) -> str | None:
        return None

    @staticmethod
    def _check(spec: SessionSpec, results: list, f1: F1) -> str | None:
        if len(results) != 6:
            return f"session ran {len(results)} of its 6 statements"
        join, order = results[-2], results[-1]
        if not (isinstance(join, QueryResult) and isinstance(order, QueryResult)):
            return "session did not end with its two SELECTs"
        pairs = {(row["listing"], row["title"]) for row in join.rows}
        titles = [row["title"] for row in order.rows]
        f1.add(pairs, spec.pairs)
        f1.add(titles, spec.top)
        if any(a not in spec.imports or b not in spec.films for a, b in pairs):
            return f"CROWDJOIN returned a pair not in its inputs: {sorted(pairs)}"
        if len(titles) > SESSION_ORDER_K or not set(titles) <= set(spec.films):
            return f"CROWDORDER LIMIT {SESSION_ORDER_K} returned {titles}"
        return None

    @staticmethod
    def _check_ledgers(service: CrowdService, out: Round) -> None:
        """Tenant ledgers sum to the platform's spend."""
        ledgers = sum(tenant.account.spent for tenant in service.tenants)
        spent = service.platform.stats.cost_spent
        # Float sums in a different order: equal up to rounding, not bitwise.
        if not math.isclose(ledgers, spent, rel_tol=1e-12, abs_tol=1e-9):
            out.errors.append(f"tenant ledgers sum to {ledgers}, platform spent {spent}")


def make(name: str, seed: int) -> SqlWorkload | ServiceWorkload:
    """The workload called *name*, generated from *seed*."""
    if name == "service_tenants":
        return ServiceWorkload(seed)
    return SqlWorkload(seed, pipeline=name == "sql_pipeline_topk")

"""Machine filters over a machine equi-join, vectorized vs the row path.

The executor evaluates a machine filter chain above a machine equi-join on
column arrays gathered at the matched (left, right) pairs and materializes
only the surviving rows. These differential properties pin it to the
row-at-a-time semantics on randomized tables with NULL/CNULL cells,
duplicate keys and composite keys:

- rows *and* row order equal the row path's;
- an expression that raises does so exactly when the row path raises,
  with the same error;
- the row path's own machine join (hash probe on the equi keys, nested
  loop without any) returns a plain nested loop's rows in its order;
- with a CROWDFILTER above the join, the pipelined executor buys the same
  answers and returns the same rows and stats as the barrier executor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.expressions import (
    And,
    Comparison,
    CrowdPredicate,
    IsCNull,
    IsNull,
    Like,
    Or,
    col,
    lit,
)
from repro.data.schema import CNULL, SchemaBuilder
from repro.lang.executor import CrowdOracle, Executor
from repro.lang.planner import (
    CrowdFilterNode,
    FilterNode,
    JoinNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.lang.streaming import StreamingExecutor
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool

# Few distinct values, so keys repeat and most rows find a join partner.
_KEY = st.sampled_from([0, 1, 2, 0, 1, 2, None, CNULL])
_TEXT = st.sampled_from(["oslo", "rome", "bar", "oslo", "", None])
_NUM = st.sampled_from([-2, -1, 0, 1, 2, None, CNULL])

_LEFT = st.lists(st.tuples(_KEY, _TEXT, _NUM), max_size=14)
_RIGHT = st.lists(st.tuples(_KEY, _TEXT, _NUM), max_size=8)

_OPS = st.sampled_from([">", "<", ">=", "<=", "=", "!="])

_LEFT_ONLY = st.one_of(
    st.builds(lambda op, n: Comparison(op, col("b"), lit(n)), _OPS, st.integers(-2, 2)),
    st.builds(lambda op, n: Comparison(op, col("a"), lit(n)), _OPS, st.integers(0, 2)),
    st.sampled_from([IsNull(col("s")), IsCNull(col("a")), Like(col("s"), "%o%")]),
)
_RIGHT_ONLY = st.one_of(
    st.builds(lambda op, n: Comparison(op, col("r"), lit(n)), _OPS, st.integers(-2, 2)),
    st.builds(lambda op, n: Comparison(op, col("k"), lit(n)), _OPS, st.integers(0, 2)),
    st.sampled_from([IsNull(col("t")), IsCNull(col("k")), Like(col("t"), "r%")]),
)
_BOTH_SIDES = st.one_of(
    st.builds(lambda op: Comparison(op, col("b"), col("r")), _OPS),
    st.builds(lambda op: Comparison(op, col("s"), col("t")), st.sampled_from(["=", "!="])),
    st.builds(Or, _LEFT_ONLY, _RIGHT_ONLY),
    st.builds(And, _RIGHT_ONLY, _LEFT_ONLY),
)
_MACHINE = st.one_of(_LEFT_ONLY, _RIGHT_ONLY, _BOTH_SIDES)
#: Row-path errors: ordering a string against a number, LIKE over a
#: number, and a column neither input has.
_RAISING = st.sampled_from(
    [
        Comparison(">", col("s"), lit(1)),
        Like(col("r"), "1%"),
        Comparison("=", col("missing"), lit(0)),
    ]
)

_CONDITIONS = {
    "single": Comparison("=", col("a"), col("k")),
    "composite": And(Comparison("=", col("a"), col("k")), Comparison("=", col("s"), col("t"))),
    "string": Comparison("=", col("t"), col("s")),
    "residual": And(Comparison("=", col("a"), col("k")), Comparison("<", col("b"), col("r"))),
}


#: Row-path join conditions: the equi shapes above plus two without any
#: equi key, which take the nested-loop fallback.
_ROW_CONDITIONS = {
    **_CONDITIONS,
    "theta": Comparison("<", col("b"), col("r")),
    "either": Or(Comparison("=", col("a"), col("k")), Comparison("=", col("s"), col("t"))),
}


def _database(left, right) -> Database:
    database = Database("joins")
    lschema = (
        SchemaBuilder().integer("id").crowd_integer("a").string("s").crowd_integer("b").build()
    )
    database.create_table(
        "l", lschema, rows=[{"id": i, "a": a, "s": s, "b": b} for i, (a, s, b) in enumerate(left)]
    )
    rschema = (
        SchemaBuilder().integer("rid").crowd_integer("k").string("t").crowd_integer("r").build()
    )
    database.create_table(
        "r",
        rschema,
        rows=[{"rid": i, "k": k, "t": t, "r": r} for i, (k, t, r) in enumerate(right)],
    )
    return database


def _platform(lanes: int = 1) -> SimulatedPlatform:
    pool = WorkerPool.heterogeneous(12, accuracy_low=0.75, accuracy_high=0.97, seed=5)
    return SimulatedPlatform(
        pool, seed=6, batch=BatchConfig(batch_size=4, max_parallel=lanes, seed=7)
    )


def _oracle() -> CrowdOracle:
    return CrowdOracle(filter_fn=lambda value, _question: "o" in str(value))


def _row_path(database: Database, platform: SimulatedPlatform) -> Executor:
    """An executor with every columnar fast path shadowed."""
    ex = Executor(database, platform, redundancy=3, oracle=_oracle())
    ex._vectorized_filter = lambda node: None
    ex._columnar_join = lambda node, filters=(): None
    ex._crowd_filter_prepass = lambda node, stats: None
    return ex


def _plan(condition: str, filters, left_floor):
    left = ScanNode("l")
    if left_floor is not None:
        left = FilterNode(left, Comparison(">=", col("b"), lit(left_floor)))
    node = JoinNode(left, ScanNode("r"), _CONDITIONS[condition])
    for predicate in filters:
        node = FilterNode(node, predicate)
    return node


def _outcome(executor: Executor, root):
    try:
        result = executor.execute(LogicalPlan(root))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raised", type(exc).__name__, str(exc))
    return ("rows", [tuple((k, repr(v)) for k, v in row.items()) for row in result.rows])


_LEFT_FLOOR = st.one_of(st.none(), st.integers(-3, 3))


@given(
    left=_LEFT,
    right=_RIGHT,
    condition=st.sampled_from(sorted(_CONDITIONS)),
    filters=st.lists(_MACHINE, min_size=1, max_size=3),
    left_floor=_LEFT_FLOOR,
)
@settings(max_examples=150, deadline=None)
def test_filtered_join_rows_and_order_match_row_path(
    left, right, condition, filters, left_floor
):
    root = _plan(condition, filters, left_floor)
    fast = Executor(_database(left, right), _platform(), oracle=_oracle())
    # The vectorized path must actually serve these shapes, not fall back.
    assert fast._vectorized_filter(root) is not None
    expected = _outcome(_row_path(_database(left, right), _platform()), root)
    assert expected[0] == "rows"
    assert _outcome(fast, root) == expected


@given(left=_LEFT, right=_RIGHT, condition=st.sampled_from(sorted(_ROW_CONDITIONS)))
@settings(max_examples=120, deadline=None)
def test_row_path_join_matches_nested_loop(left, right, condition):
    predicate = _ROW_CONDITIONS[condition]
    database = _database(left, right)
    lrows = [row.as_dict() for row in database.table("l")]
    rrows = [row.as_dict() for row in database.table("r")]
    expected = [
        tuple((k, repr(v)) for k, v in merged.items())
        for merged in ({**lrow, **rrow} for lrow in lrows for rrow in rrows)
        if predicate.evaluate(merged) is True
    ]
    root = JoinNode(ScanNode("l"), ScanNode("r"), predicate)
    assert _outcome(_row_path(database, _platform()), root) == ("rows", expected)


@given(
    left=_LEFT,
    right=_RIGHT,
    condition=st.sampled_from(sorted(_CONDITIONS)),
    filters=st.lists(st.one_of(_MACHINE, _RAISING), min_size=1, max_size=3),
    left_floor=_LEFT_FLOOR,
)
@settings(max_examples=120, deadline=None)
def test_raising_filters_raise_exactly_when_the_row_path_does(
    left, right, condition, filters, left_floor
):
    root = _plan(condition, filters, left_floor)
    fast = Executor(_database(left, right), _platform(), oracle=_oracle())
    expected = _outcome(_row_path(_database(left, right), _platform()), root)
    assert _outcome(fast, root) == expected


@given(
    left=_LEFT,
    right=_RIGHT,
    condition=st.sampled_from(sorted(_CONDITIONS)),
    filters=st.lists(_MACHINE, min_size=0, max_size=2),
    prefix=st.one_of(st.none(), _MACHINE),
    lanes=st.sampled_from([1, 8]),
)
@settings(max_examples=60, deadline=None)
def test_pipelined_join_crowdfilter_matches_barrier(
    left, right, condition, filters, prefix, lanes
):
    crowd = CrowdPredicate("filter", (col("s"),), question="stocked?")
    predicate = crowd if prefix is None else And(prefix, crowd)
    root = ProjectNode(
        CrowdFilterNode(_plan(condition, filters, None), predicate), ("id", "rid", "s")
    )
    runs = []
    for make in (StreamingExecutor, Executor, None):
        platform = _platform(lanes)
        database = _database(left, right)
        if make is None:
            executor = _row_path(database, platform)
        else:
            executor = make(database, platform, redundancy=3, oracle=_oracle())
        result = executor.execute(LogicalPlan(root))
        runs.append((result.rows, result.stats, platform.stats.cost_spent))
    piped, barrier, row_path = runs
    assert piped == barrier
    assert barrier == row_path

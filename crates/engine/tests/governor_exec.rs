//! Engine-level query-governor tests: budgets trip cooperatively at
//! operator loop boundaries with typed errors and partial-progress
//! counters, parallel worker panics are isolated to the failing query, and
//! the engine failpoint sites inject cleanly.
//!
//! The failpoint registry is process-global, so every test that arms one
//! serializes on a shared mutex and clears the registry before returning.

use pqp_engine::{Database, EngineError, ExecOptions};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::{failpoint, Budget, BudgetReason, QueryCtx};
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};
use std::sync::Mutex;

static FAILPOINT_GUARD: Mutex<()> = Mutex::new(());

fn with_failpoints<R>(f: impl FnOnce() -> R) -> R {
    let _g = FAILPOINT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear();
    let r = f();
    failpoint::clear();
    r
}

/// A two-table database big enough for multi-page heaps and real joins.
fn fixture(rows: usize) -> Database {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "A",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("x", DataType::Int),
                ColumnDef::new("pad", DataType::Str),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    c.create_table(TableSchema::new(
        "B",
        vec![ColumnDef::new("a_id", DataType::Int), ColumnDef::new("y", DataType::Int)],
    ))
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(0xB1D9);
    {
        let a = c.table("A").unwrap();
        let mut a = a.write();
        for i in 0..rows {
            a.insert(vec![
                Value::Int(i as i64),
                Value::Int((rng.next_u32() % 100) as i64),
                Value::str("p".repeat(40)),
            ])
            .unwrap();
        }
    }
    {
        let b = c.table("B").unwrap();
        let mut b = b.write();
        for i in 0..rows * 2 {
            b.insert(vec![
                Value::Int((rng.next_u32() as usize % rows) as i64),
                Value::Int(i as i64),
            ])
            .unwrap();
        }
    }
    Database::new(c)
}

const JOIN_SQL: &str = "select A.id, B.y from A, B where A.id = B.a_id";

fn budget_err(r: Result<pqp_engine::ResultSet, EngineError>) -> pqp_obs::BudgetExceeded {
    match r {
        Err(EngineError::Budget(b)) => b,
        other => panic!("expected EngineError::Budget, got {other:?}"),
    }
}

#[test]
fn zero_deadline_trips_with_typed_error() {
    let db = fixture(500);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(0));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Deadline);
}

#[test]
fn row_cap_trips_mid_scan_with_partial_progress() {
    let db = fixture(2000);
    let plan = db.plan(&parse_query("select A.id from A").unwrap()).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().max_rows(700));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::RowsScanned);
    assert!(err.rows_scanned > 700, "counter shows partial progress: {err:?}");
    assert!(err.rows_scanned < 2000, "must trip before the full scan: {err:?}");
}

#[test]
fn memory_cap_trips_join_materialization() {
    let db = fixture(800);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(4 * 1024));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Memory);
    assert!(err.mem_bytes > 4 * 1024);
}

#[test]
fn row_cap_trips_inside_planner_chosen_index_join() {
    let db = fixture(2000);
    // Statistics let the planner promote the A side (pk index on id) to a
    // Plan::IndexJoin probed by the small filtered B side.
    db.catalog().analyze_all().unwrap();
    let q = parse_query("select A.id, B.y from A, B where A.id = B.a_id and B.y < 10").unwrap();
    let plan = db.plan(&q).unwrap();
    assert!(
        format!("{plan:?}").contains("IndexJoin"),
        "fixture must exercise the index-join path: {plan:?}"
    );
    // B's scan charges 4000 rows; the cap admits the scan and trips on the
    // index probes that follow — inside the IndexJoin operator.
    let ctx = QueryCtx::new(Budget::unlimited().max_rows(4005));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::RowsScanned);
    assert!(err.rows_scanned > 4005, "probe-side charges reported: {err:?}");
    // The same plan under an unlimited context returns the full answer.
    let ok = db.run_plan_ctx(&plan, &ExecOptions::default(), &QueryCtx::unlimited()).unwrap();
    assert_eq!(ok.rows.len(), 10);
}

#[test]
fn row_cap_trips_inside_batched_index_join() {
    // Takes the failpoint guard: its scans must not consume a failpoint a
    // sibling test armed.
    with_failpoints(|| {
        let db = fixture(2000);
        // Un-analyzed: the executor sniffs the index join at runtime, probing
        // A's pk index with the 300 B rows that pass the filter.
        let q =
            parse_query("select A.id, B.y from A, B where A.id = B.a_id and B.y < 300").unwrap();
        let plan = db.plan(&q).unwrap();
        let opts = ExecOptions::default();
        // B's scan charges 4000 rows, the probe's hits 300 more: the cap
        // admits the scan and trips among the probe's hits.
        let ctx = QueryCtx::new(Budget::unlimited().max_rows(4150));
        let err = budget_err(db.run_plan_ctx(&plan, &opts, &ctx));
        assert_eq!(err.reason, BudgetReason::RowsScanned);
        assert!(
            err.rows_scanned > 4150 && err.rows_scanned <= 4300,
            "tripped among the probe hits: {err:?}"
        );
        let ctx = QueryCtx::unlimited();
        let ok = db.run_plan_ctx(&plan, &opts, &ctx).unwrap();
        assert_eq!(ok.rows.len(), 300);
        assert_eq!(ctx.progress().rows_scanned, 4300, "every scanned row and hit is charged");
    });
}

#[test]
fn cancellation_stops_execution() {
    let db = fixture(300);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    let ctx = QueryCtx::unlimited();
    ctx.cancel();
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Cancelled);
}

#[test]
fn unlimited_ctx_answers_match_plain_execution() {
    let db = fixture(600);
    for sql in [JOIN_SQL, "select A.id from A where A.x < 30", "select distinct B.y from B"] {
        let plan = db.plan(&parse_query(sql).unwrap()).unwrap();
        let plain = db.run_plan(&plan).unwrap();
        let governed = db
            .run_plan_ctx(
                &plan,
                &ExecOptions::default(),
                &QueryCtx::new(Budget::unlimited().deadline_ms(60_000).max_rows(10_000_000)),
            )
            .unwrap();
        assert_eq!(plain.rows, governed.rows, "budgeted run diverged for `{sql}`");
    }
}

#[test]
fn deadline_trips_inside_parallel_join_without_leaking_workers() {
    with_failpoints(|| {
        let db = fixture(900);
        let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
        let opts = ExecOptions::with_threads(3).min_parallel_rows(2);
        // Slow every parallel worker down past the deadline: the trip
        // happens *inside* the operator, not at its entry checkpoint.
        failpoint::configure("par.worker", "delay(30)").unwrap();
        let before = pqp_obs::metrics::global_snapshot().counter("exec.parallel.workers");
        let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(15));
        let err = budget_err(db.run_plan_ctx(&plan, &opts, &ctx));
        assert_eq!(err.reason, BudgetReason::Deadline);
        let after = pqp_obs::metrics::global_snapshot().counter("exec.parallel.workers");
        assert!(after > before, "parallel workers must actually have spawned");
        failpoint::clear();
        // The scope joined everything: the same database serves the next
        // query normally.
        let ok = db.run_plan_with(&plan, &opts).unwrap();
        assert_eq!(ok.rows, db.run_plan(&plan).unwrap().rows);
    });
}

#[test]
fn worker_panic_becomes_internal_error_for_that_query_only() {
    with_failpoints(|| {
        let db = fixture(900);
        let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
        let opts = ExecOptions::with_threads(3).min_parallel_rows(2);
        failpoint::configure("par.worker", "1*panic(chaos worker)").unwrap();
        let err = db.run_plan_with(&plan, &opts).unwrap_err();
        match err {
            EngineError::Internal(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        failpoint::clear();
        let ok = db.run_plan_with(&plan, &opts).unwrap();
        assert_eq!(ok.rows, db.run_plan(&plan).unwrap().rows);
    });
}

#[test]
fn storage_scan_failpoint_surfaces_as_storage_error() {
    with_failpoints(|| {
        let db = fixture(200);
        let plan = db.plan(&parse_query("select A.id from A").unwrap()).unwrap();
        failpoint::configure("storage.scan", "1*error(disk gremlin)").unwrap();
        let err = db.run_plan(&plan).unwrap_err();
        match err {
            EngineError::Storage(s) => assert!(s.to_string().contains("disk gremlin"), "{s}"),
            other => panic!("expected Storage, got {other:?}"),
        }
        // Self-healing: the count-limited failpoint is spent.
        assert!(db.run_plan(&plan).is_ok());
    });
}

#[test]
fn join_build_failpoint_fails_the_join() {
    with_failpoints(|| {
        let db = fixture(300);
        let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
        failpoint::configure("join.build", "1*error(no memory for build)").unwrap();
        let err = db.run_plan(&plan).unwrap_err();
        match err {
            EngineError::Internal(msg) => assert!(msg.contains("join.build"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert!(db.run_plan(&plan).is_ok());
    });
}

#[test]
fn naive_executor_respects_deadline() {
    let db = fixture(400);
    // The naive cross product of A x B is 400 * 800 rows — plenty of loop
    // iterations for the cooperative checks.
    let q = parse_query(JOIN_SQL).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(0));
    match db.run_naive_ctx(&q, &ctx) {
        Err(EngineError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Deadline),
        other => panic!("expected Budget, got {other:?}"),
    }
    // And the memory budget bounds the cross product itself.
    let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(64 * 1024));
    match db.run_naive_ctx(&q, &ctx) {
        Err(EngineError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Memory),
        other => panic!("expected Budget, got {other:?}"),
    }
}

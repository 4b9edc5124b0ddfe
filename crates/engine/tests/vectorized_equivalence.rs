//! Differential testing of the batched (vectorized) executor against the
//! tuple-at-a-time reference: for random databases and random queries —
//! including NULL-heavy columns, mixed-type comparisons and
//! division-by-zero-prone arithmetic — `ExecOptions::batched(true)` must
//! return **byte-identical rows in identical order** to
//! `ExecOptions::batched(false)`, serially and under a thread budget, and
//! charge the governor the same number of scanned rows. When the tuple path
//! errors, the batched path must error too.
//!
//! The indexed variants add hash indexes (and, analyzed, statistics) so the
//! index access paths run: index scans, the scan's index shortcut, the
//! runtime-sniffed and the planner-chosen index-nested-loop join, and their
//! hash-join fallbacks.

use pqp_engine::plan::Plan;
use pqp_engine::{Database, ExecOptions};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::{Field, QueryCtx, SpanNode};
use pqp_sql::ast::*;
use pqp_sql::builder as b;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

const TABLES: &[(&str, &[(&str, DataType)])] = &[
    ("T0", &[("a", DataType::Int), ("b", DataType::Float), ("c", DataType::Str)]),
    ("T1", &[("d", DataType::Int), ("e", DataType::Str)]),
    ("T2", &[("f", DataType::Int), ("g", DataType::Bool)]),
];

const STRINGS: &[&str] = &["x", "y", "z", ""];

fn arb_value(rng: &mut SmallRng, ty: DataType, domain: i64) -> Value {
    // 1-in-4 NULLs so three-valued logic and null masks get exercised.
    if rng.gen_bool(0.25) {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..domain)),
        DataType::Float => Value::Float(rng.gen_range(0..2 * domain) as f64 / 2.0),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Str if domain <= STRINGS.len() as i64 => {
            Value::from(STRINGS[rng.gen_index(STRINGS.len())])
        }
        DataType::Str => Value::Str(format!("s{}", rng.gen_range(0..domain))),
    }
}

/// A database over [`TABLES`]: `rows` draws each table's size, values come
/// from `0..domain` (a small domain makes joins dense and keys collide).
fn fill_db(
    rng: &mut SmallRng,
    domain: i64,
    mut rows: impl FnMut(&mut SmallRng, usize) -> usize,
) -> Database {
    let mut c = Catalog::new();
    for (i, (name, cols)) in TABLES.iter().enumerate() {
        let schema = TableSchema::new(
            *name,
            cols.iter().map(|(n, ty)| ColumnDef::nullable(*n, *ty)).collect(),
        );
        let t = c.create_table(schema).unwrap();
        let mut t = t.write();
        let n = rows(rng, i);
        for _ in 0..n {
            let row: Vec<Value> = cols.iter().map(|(_, ty)| arb_value(rng, *ty, domain)).collect();
            t.insert(row).unwrap();
        }
    }
    Database::new(c)
}

fn arb_db(rng: &mut SmallRng, max_rows: usize) -> Database {
    fill_db(rng, 4, |rng, _| rng.gen_range(0..max_rows))
}

/// Hash indexes of the indexed variant: Int, Float and Str keys, so index
/// probes meet NULL keys, string keys and Int-vs-Float numeric equality.
const INDEXES: &[(&str, &str)] = &[("T0", "a"), ("T0", "b"), ("T1", "d"), ("T1", "e"), ("T2", "f")];

/// Build `indexes` on `db` and, when `analyze`, collect statistics on
/// it and on `plain` — the same rows without the indexes: a plan made
/// against `db` and run against `plain` meets an index dropped after
/// planning. With statistics the planner may choose `IndexJoin`; without
/// them the executor sniffs index joins at runtime.
fn with_indexes(
    db: Database,
    plain: Database,
    indexes: &[(&str, &str)],
    analyze: bool,
) -> (Database, Database) {
    for (table, column) in indexes {
        db.catalog().table(table).unwrap().write().create_index(column).unwrap();
    }
    if analyze {
        db.catalog().analyze_all().unwrap();
        plain.catalog().analyze_all().unwrap();
    }
    (db, plain)
}

/// A small random database with a seeded subset of [`INDEXES`] (so a join
/// may have an index on either side, both or neither), and its index-free
/// twin.
fn arb_indexed_db(seed: u64, max_rows: usize, analyze: bool) -> (Database, Database) {
    let db = || arb_db(&mut SmallRng::seed_from_u64(seed), max_rows);
    let mut rng = SmallRng::seed_from_u64(!seed);
    let indexes: Vec<(&str, &str)> =
        INDEXES.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
    with_indexes(db(), db(), &indexes, analyze)
}

/// The fixture of the targeted index-path cases: fixed table sizes and a
/// key domain wide enough that a selectively filtered probe side clears
/// the executor's 4× size guard while an unfiltered one does not.
fn index_fixture(analyze: bool) -> (Database, Database) {
    const SIZES: [usize; 3] = [3_000, 2_000, 1_000];
    let db = || fill_db(&mut SmallRng::seed_from_u64(0x1D3), 300, |_, i| SIZES[i]);
    with_indexes(db(), db(), INDEXES, analyze)
}

fn columns_of(table_idx: usize) -> &'static [(&'static str, DataType)] {
    TABLES[table_idx].1
}

fn arb_column(rng: &mut SmallRng, factors: &[usize]) -> (Expr, DataType) {
    let fi = rng.gen_index(factors.len());
    let cols = columns_of(factors[fi]);
    let (name, ty) = cols[rng.gen_index(cols.len())];
    (b::col(format!("q{fi}"), name), ty)
}

fn arb_literal(rng: &mut SmallRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..4i64)),
        DataType::Float => Value::Float(rng.gen_range(0..8i64) as f64 / 2.0),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Str => Value::from(STRINGS[rng.gen_index(STRINGS.len())]),
    }
}

/// Random predicates biased toward the batched path's hazards: typed
/// comparison kernels (column vs literal, both orientations), cross-type
/// comparisons (type errors for ordered ops), arithmetic under comparison
/// (division by zero must error on exactly the rows the tuple path reaches)
/// and Kleene AND/OR whose right side must stay unevaluated where the left
/// decides.
fn arb_predicate(rng: &mut SmallRng, factors: &[usize], depth: usize) -> Expr {
    if depth > 0 && rng.gen_bool(0.4) {
        return match rng.gen_range(0..3u32) {
            0 => b::and(
                arb_predicate(rng, factors, depth - 1),
                arb_predicate(rng, factors, depth - 1),
            ),
            1 => b::or(
                arb_predicate(rng, factors, depth - 1),
                arb_predicate(rng, factors, depth - 1),
            ),
            _ => b::not(arb_predicate(rng, factors, depth - 1)),
        };
    }
    match rng.gen_range(0..6u32) {
        0 => {
            // column <op> literal, matching type: the kernel fast path.
            let (col, ty) = arb_column(rng, factors);
            let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq];
            let op = ops[rng.gen_index(ops.len())];
            let lit = Expr::Literal(arb_literal(rng, ty));
            if rng.gen_bool(0.5) {
                b::binary(col, op, lit)
            } else {
                b::binary(lit, op, col)
            }
        }
        1 => {
            // column <op> literal, random type: cross-class Eq/NotEq are
            // constant-foldable, ordered ops are per-row type errors.
            let (col, _) = arb_column(rng, factors);
            let ty =
                [DataType::Int, DataType::Float, DataType::Bool, DataType::Str][rng.gen_index(4)];
            let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::Gt];
            b::binary(col, ops[rng.gen_index(ops.len())], Expr::Literal(arb_literal(rng, ty)))
        }
        2 => {
            // column = column: not kernelable, exercises the row fallback.
            let (c1, _) = arb_column(rng, factors);
            let (c2, _) = arb_column(rng, factors);
            b::eq(c1, c2)
        }
        3 => {
            let (c, _) = arb_column(rng, factors);
            Expr::IsNull { expr: Box::new(c), negated: rng.gen_bool(0.5) }
        }
        4 => {
            let (c, ty) = arb_column(rng, factors);
            let n = rng.gen_range(1..3usize);
            let list = (0..n).map(|_| Expr::Literal(arb_literal(rng, ty))).collect();
            Expr::InList { expr: Box::new(c), list, negated: rng.gen_bool(0.5) }
        }
        _ => {
            // Arithmetic under a comparison; Div by a small-int column hits
            // division-by-zero on some rows.
            let (c1, _) = arb_column(rng, factors);
            let (c2, _) = arb_column(rng, factors);
            let ops = [BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Mul, BinaryOp::Div];
            let arith = b::binary(c1, ops[rng.gen_index(ops.len())], c2);
            b::binary(arith, BinaryOp::Gt, Expr::Literal(Value::Int(1)))
        }
    }
}

fn arb_query(rng: &mut SmallRng) -> Query {
    let k = rng.gen_range(1..3usize);
    let factors: Vec<usize> = (0..k).map(|_| rng.gen_index(TABLES.len())).collect();
    let from: Vec<TableFactor> =
        factors.iter().enumerate().map(|(i, &t)| b::table(TABLES[t].0, format!("q{i}"))).collect();
    let n_proj = rng.gen_range(1..3usize);
    let proj: Vec<Expr> = (0..n_proj).map(|_| arb_column(rng, &factors).0).collect();
    let selection = if rng.gen_bool(0.8) { Some(arb_predicate(rng, &factors, 3)) } else { None };
    Query::from_select(Select {
        distinct: rng.gen_bool(0.3),
        projection: proj.into_iter().map(b::item).collect(),
        from,
        selection,
        group_by: Vec::new(),
        having: None,
    })
}

/// Run one query both ways under `opts` and demand identical outcomes:
/// identical rows in identical order and identical rows scanned, or both in
/// error.
fn assert_equivalent(db: &Database, query: &Query, opts: &ExecOptions) {
    let plan = match db.plan(query) {
        Ok(p) => p,
        Err(_) => return, // unplannable draws are not this test's concern
    };
    assert_plan_equivalent(db, &plan, opts, &query.to_string());
}

/// [`assert_equivalent`] for an already-made plan (which may have been
/// planned against another database).
fn assert_plan_equivalent(db: &Database, plan: &Plan, opts: &ExecOptions, what: &str) {
    let run = |batched: bool| {
        let ctx = QueryCtx::unlimited();
        let rows = db.run_plan_ctx(plan, &opts.batched(batched), &ctx);
        (rows, ctx.progress().rows_scanned)
    };
    match (run(false), run(true)) {
        ((Ok(t), t_scanned), (Ok(v), v_scanned)) => {
            assert_eq!(t.rows, v.rows, "batched diverged on `{what}`:\n{}", plan.explain());
            assert_eq!(
                t_scanned,
                v_scanned,
                "rows scanned diverged on `{what}`:\n{}",
                plan.explain()
            );
        }
        ((Err(_), _), (Err(_), _)) => {} // both error: equivalent (messages may differ)
        ((Ok(_), _), (Err(e), _)) => {
            panic!("batched failed where tuple succeeded on `{what}`: {e}");
        }
        ((Err(e), _), (Ok(_), _)) => {
            panic!("tuple failed where batched succeeded on `{what}`: {e}");
        }
    }
}

#[test]
fn batched_matches_tuple_on_random_queries() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    for _ in 0..384 {
        let db = arb_db(&mut rng, 12);
        let query = arb_query(&mut rng);
        assert_equivalent(&db, &query, &ExecOptions::serial());
    }
}

/// Single-table random query: scans span several batches without risking a
/// cross product (the small-db random test above covers multi-table shapes;
/// the fixed equi-join list below covers big joins).
fn arb_single_table_query(rng: &mut SmallRng) -> Query {
    let factors = vec![rng.gen_index(TABLES.len())];
    let from = vec![b::table(TABLES[factors[0]].0, "q0")];
    let n_proj = rng.gen_range(1..3usize);
    let proj: Vec<Expr> = (0..n_proj).map(|_| arb_column(rng, &factors).0).collect();
    let selection = Some(arb_predicate(rng, &factors, 3));
    Query::from_select(Select {
        distinct: rng.gen_bool(0.3),
        projection: proj.into_iter().map(b::item).collect(),
        from,
        selection,
        group_by: Vec::new(),
        having: None,
    })
}

/// Equi-join queries over the big fixture: multi-batch join inputs and
/// outputs, null join keys, post-join filters and projections.
const JOIN_QUERIES: &[&str] = &[
    "select q0.a, q1.d from T0 q0, T1 q1 where q0.a = q1.d",
    "select q0.c, q1.e from T0 q0, T1 q1 where q0.c = q1.e and q0.a >= 1",
    "select q0.b, q1.f from T0 q0, T2 q1 where q0.a = q1.f and q1.g = true",
    "select distinct q0.c from T0 q0, T1 q1 where q0.c = q1.e",
    "select q0.a + q1.d, q0.b from T0 q0, T1 q1 where q0.a = q1.d and q0.b > 0.5",
];

#[test]
fn batched_matches_tuple_across_batch_boundaries() {
    // Tables big enough that scans span multiple batches and joins emit
    // multi-batch output; also run under a thread budget low enough that
    // every operator actually fans out.
    let mut rng = SmallRng::seed_from_u64(0x0B47);
    let db = arb_db(&mut rng, 5_000);
    let par = ExecOptions::with_threads(4).min_parallel_rows(64);
    for _ in 0..24 {
        let query = arb_single_table_query(&mut rng);
        assert_equivalent(&db, &query, &ExecOptions::serial());
        assert_equivalent(&db, &query, &par);
    }
    for sql in JOIN_QUERIES {
        let query = pqp_sql::parse_query(sql).unwrap();
        assert_equivalent(&db, &query, &ExecOptions::serial());
        assert_equivalent(&db, &query, &par);
    }
}

#[test]
fn batched_parallel_matches_tuple_serial_exactly() {
    // The strongest form of the contract: batched + 4 threads must equal
    // tuple + serial row-for-row (ordered partition merge on both paths).
    let mut rng = SmallRng::seed_from_u64(0x4E0);
    let db = arb_db(&mut rng, 3_000);
    let serial_tuple = ExecOptions::serial().batched(false);
    let par_batched = ExecOptions::with_threads(4).min_parallel_rows(64).batched(true);
    let mut queries: Vec<Query> = (0..16).map(|_| arb_single_table_query(&mut rng)).collect();
    queries.extend(JOIN_QUERIES.iter().map(|sql| pqp_sql::parse_query(sql).unwrap()));
    for query in &queries {
        let Ok(plan) = db.plan(query) else { continue };
        let reference = db.run_plan_with(&plan, &serial_tuple);
        let candidate = db.run_plan_with(&plan, &par_batched);
        match (reference, candidate) {
            (Ok(t), Ok(v)) => assert_eq!(t.rows, v.rows, "diverged on `{query}`"),
            (Err(_), Err(_)) => {}
            (t, v) => panic!(
                "outcome mismatch on `{query}`: tuple-serial ok={} batched-parallel ok={}",
                t.is_ok(),
                v.is_ok()
            ),
        }
    }
}

#[test]
fn pqp_batched_env_escape_hatch_is_honored() {
    assert!(ExecOptions::default().batched, "batched execution is the default");
    assert!(ExecOptions::serial().batched);
    std::env::set_var("PQP_BATCHED", "0");
    assert!(!ExecOptions::from_env().batched);
    std::env::set_var("PQP_BATCHED", "off");
    assert!(!ExecOptions::from_env().batched);
    std::env::set_var("PQP_BATCHED", "1");
    assert!(ExecOptions::from_env().batched);
    std::env::remove_var("PQP_BATCHED");
    assert!(ExecOptions::from_env().batched);
}

/// A join key column: (table position in [`TABLES`], column name).
type KeyColumn = (usize, &'static str);

/// Equi-join key pairs with a hash index on at least one side, as
/// (table, column) pairs whose types compare: Int and Float numerically,
/// Str with Str.
const JOIN_KEYS: &[(KeyColumn, KeyColumn)] = &[
    ((0, "a"), (1, "d")),
    ((0, "c"), (1, "e")),
    ((0, "b"), (1, "d")),
    ((0, "a"), (2, "f")),
    ((1, "d"), (2, "f")),
    ((0, "b"), (2, "f")),
];

/// A random two-table equi-join on an indexed key (either FROM order),
/// mostly with a random predicate on top: the shape the runtime index-join
/// sniff and the planner's `IndexJoin` look for.
fn arb_indexed_join_query(rng: &mut SmallRng) -> Query {
    let (mut l, mut r) = JOIN_KEYS[rng.gen_index(JOIN_KEYS.len())];
    if rng.gen_bool(0.5) {
        std::mem::swap(&mut l, &mut r);
    }
    let factors = vec![l.0, r.0];
    let from = vec![b::table(TABLES[l.0].0, "q0"), b::table(TABLES[r.0].0, "q1")];
    let n_proj = rng.gen_range(1..3usize);
    let proj: Vec<Expr> = (0..n_proj).map(|_| arb_column(rng, &factors).0).collect();
    let join = b::eq(b::col("q0", l.1), b::col("q1", r.1));
    let selection =
        if rng.gen_bool(0.8) { b::and(join, arb_predicate(rng, &factors, 2)) } else { join };
    Query::from_select(Select {
        distinct: rng.gen_bool(0.3),
        projection: proj.into_iter().map(b::item).collect(),
        from,
        selection: Some(selection),
        group_by: Vec::new(),
        having: None,
    })
}

#[test]
fn batched_matches_tuple_on_random_queries_over_indexed_tables() {
    let mut rng = SmallRng::seed_from_u64(0x1DE7);
    for round in 0..256u64 {
        let (db, plain) = arb_indexed_db(0x1DE7_0000 + round, 200, round % 2 == 1);
        for query in [arb_query(&mut rng), arb_indexed_join_query(&mut rng)] {
            let what = query.to_string();
            for (planned, target) in pairings(&db, &plain) {
                if let Ok(plan) = planned.plan(&query) {
                    assert_plan_equivalent(target, &plan, &ExecOptions::serial(), &what);
                }
            }
        }
    }
}

/// Queries aimed at the index access paths over the big indexed fixture.
/// Each names the path it is meant to reach; `index_paths_take_the_same_
/// strategy_on_both_executors` checks they do.
const INDEX_QUERIES: &[(&str, &str)] = &[
    // Index scans with a residual filter; the last one errors (division
    // by zero) on every fetched row.
    ("residual", "select q0.a, q0.c from T0 q0 where q0.a = 7 and q0.c <> 's1'"),
    ("residual_str", "select q0.d from T1 q0 where q0.e = 's3' and q0.d >= 100"),
    ("residual_error", "select q0.a from T0 q0 where q0.a = 0 and q0.b / q0.a > 1"),
    // Index-nested-loop joins: a small filtered probe side.
    ("int_key", "select q0.c, q1.e from T0 q0, T1 q1 where q0.a = q1.d and q1.d < 20"),
    ("str_key", "select q0.a, q1.d from T0 q0, T1 q1 where q0.c = q1.e and q0.a < 20"),
    ("null_probe_keys", "select q0.a, q1.g from T0 q0, T2 q1 where q1.f = q0.a and q0.b < 10"),
    (
        "join_filter",
        "select q0.c, q1.d from T0 q0, T1 q1 where q0.a = q1.d and q1.d < 30 and q0.c <> 's2'",
    ),
    // Int probe keys against the Float-keyed index: Int(2) = Float(2.0).
    (
        "cross_type_numeric_probe",
        "select q0.b, q1.d from T0 q0, T1 q1 where q0.b = q1.d and q1.d < 40",
    ),
    // Probe side larger than a quarter of the table: the hash fallback.
    ("four_x_fallback", "select q0.a, q1.d from T0 q0, T1 q1 where q0.a = q1.d"),
    ("four_x_fallback_str", "select q1.d from T0 q0, T1 q1 where q0.c = q1.e and q0.a >= 1"),
];

/// (planned against, run against): as planned; an index dropped after
/// planning (the scan and hash fallbacks); an index created after planning
/// (the scan's index shortcut).
fn pairings<'a>(db: &'a Database, plain: &'a Database) -> [(&'a Database, &'a Database); 3] {
    [(db, db), (db, plain), (plain, db)]
}

#[test]
fn batched_matches_tuple_on_index_paths() {
    for analyze in [false, true] {
        let (db, plain) = index_fixture(analyze);
        let par = ExecOptions::with_threads(4).min_parallel_rows(64);
        for (name, sql) in INDEX_QUERIES {
            let query = pqp_sql::parse_query(sql).unwrap();
            let what = format!("{name} (analyze={analyze}): {sql}");
            for (planned, target) in pairings(&db, &plain) {
                let plan = planned.plan(&query).unwrap();
                for opts in [ExecOptions::serial(), par] {
                    assert_plan_equivalent(target, &plan, &opts, &what);
                }
            }
        }
        for sql in JOIN_QUERIES {
            let query = pqp_sql::parse_query(sql).unwrap();
            assert_equivalent(&db, &query, &ExecOptions::serial());
            assert_equivalent(&db, &query, &par);
        }
    }
}

/// A span tree's names and fields, without timings.
fn shape(node: &SpanNode) -> String {
    let mut out = format!("{}{:?}(", node.name, node.fields);
    for c in &node.children {
        out.push_str(&shape(c));
    }
    out.push(')');
    out
}

fn exec_strategies(node: &SpanNode, out: &mut Vec<String>) {
    if let Some(Field::Str(s)) = node.field("strategy") {
        out.push(s.clone());
    }
    for c in &node.children {
        exec_strategies(c, out);
    }
}

#[test]
fn index_paths_take_the_same_strategy_on_both_executors() {
    // The trace is path-independent (EXPLAIN ANALYZE does not say which
    // executor ran), and the targeted queries reach the paths they name.
    let trace = |db: &Database, plan: &Plan, batched: bool| {
        pqp_obs::trace_begin("test");
        let _ = db.run_plan_with(plan, &ExecOptions::serial().batched(batched));
        pqp_obs::trace_end().unwrap()
    };
    let mut seen: Vec<String> = Vec::new();
    for analyze in [false, true] {
        let (db, plain) = index_fixture(analyze);
        for (name, sql) in INDEX_QUERIES {
            let query = pqp_sql::parse_query(sql).unwrap();
            for (planned, target) in pairings(&db, &plain) {
                let plan = planned.plan(&query).unwrap();
                let tuple = trace(target, &plan, false);
                let batched = trace(target, &plan, true);
                assert_eq!(
                    shape(&tuple.root),
                    shape(&batched.root),
                    "{name} (analyze={analyze}): trace differs\ntuple:\n{}\nbatched:\n{}",
                    tuple.render(),
                    batched.render()
                );
                let mut strategies = Vec::new();
                exec_strategies(&batched.root, &mut strategies);
                seen.extend(strategies.into_iter().map(|s| format!("{name}:{s}")));
            }
        }
    }
    for want in [
        "residual:index_scan",
        "int_key:index_nested_loop",
        "str_key:index_nested_loop",
        "null_probe_keys:index_nested_loop",
        "join_filter:index_nested_loop",
        "cross_type_numeric_probe:index_nested_loop",
        "int_key:hash_fallback",
    ] {
        assert!(seen.iter().any(|s| s == want), "no run reached {want}: {seen:?}");
    }
}

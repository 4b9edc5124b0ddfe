//! Differential testing: on random databases and random queries, the
//! optimized pipeline (rewrite → plan → execute) must produce exactly the
//! same multiset of rows as the naive AST interpreter. Driven by a seeded
//! PRNG so failures reproduce exactly.

use pqp_engine::Database;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_sql::ast::*;
use pqp_sql::builder as b;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

/// Fixed table shapes; row contents are generated.
const TABLES: &[(&str, &[(&str, DataType)])] = &[
    ("T0", &[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Str)]),
    ("T1", &[("d", DataType::Int), ("e", DataType::Str)]),
    ("T2", &[("f", DataType::Int), ("g", DataType::Int)]),
];

const STRINGS: &[&str] = &["x", "y", "z"];

fn arb_value(rng: &mut SmallRng, ty: DataType) -> Value {
    // 1-in-4 NULLs so three-valued logic gets exercised.
    if rng.gen_bool(0.25) {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..4i64)),
        DataType::Str => Value::from(STRINGS[rng.gen_index(STRINGS.len())]),
        _ => unreachable!(),
    }
}

fn arb_db(rng: &mut SmallRng) -> Database {
    let mut c = Catalog::new();
    for (name, cols) in TABLES {
        let schema = TableSchema::new(
            *name,
            cols.iter().map(|(n, ty)| ColumnDef::nullable(*n, *ty)).collect(),
        );
        let t = c.create_table(schema).unwrap();
        let mut t = t.write();
        let n = rng.gen_range(0..10usize);
        for _ in 0..n {
            let row: Vec<Value> = cols.iter().map(|(_, ty)| arb_value(rng, *ty)).collect();
            t.insert(row).unwrap();
        }
    }
    Database::new(c)
}

fn columns_of(table_idx: usize) -> &'static [(&'static str, DataType)] {
    TABLES[table_idx].1
}

/// A random qualified column over the query's factors (alias q0..q{k-1}).
fn arb_column(rng: &mut SmallRng, factors: &[usize]) -> (Expr, DataType) {
    let fi = rng.gen_index(factors.len());
    let cols = columns_of(factors[fi]);
    let (name, ty) = cols[rng.gen_index(cols.len())];
    (b::col(format!("q{fi}"), name), ty)
}

fn arb_literal(rng: &mut SmallRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..4i64)),
        _ => Value::from(STRINGS[rng.gen_index(STRINGS.len())]),
    }
}

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
    match rng.gen_range(0..4u32) {
        0 => {
            // column <op> literal
            let (col, ty) = arb_column(rng, factors);
            let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq];
            let op = ops[rng.gen_index(ops.len())];
            b::binary(col, op, Expr::Literal(arb_literal(rng, ty)))
        }
        1 => {
            // column = column (same type only); falls back to a literal
            // comparison when the draw mismatches.
            let (c1, t1) = arb_column(rng, factors);
            let (c2, t2) = arb_column(rng, factors);
            if t1 == t2 {
                b::eq(c1, c2)
            } else {
                b::eq(c1, Expr::Literal(arb_literal(rng, t1)))
            }
        }
        2 => {
            let (c, _) = arb_column(rng, factors);
            Expr::IsNull { expr: Box::new(c), negated: rng.gen_bool(0.5) }
        }
        _ => {
            let (c, ty) = arb_column(rng, factors);
            let n = rng.gen_range(1..3usize);
            let list = (0..n).map(|_| Expr::Literal(arb_literal(rng, ty))).collect();
            Expr::InList { expr: Box::new(c), list, negated: false }
        }
    }
}

fn arb_query(rng: &mut SmallRng) -> Query {
    let k = rng.gen_range(1..3usize);
    let factors: Vec<usize> = (0..k).map(|_| rng.gen_index(TABLES.len())).collect();
    let from: Vec<TableFactor> =
        factors.iter().enumerate().map(|(i, &t)| b::table(TABLES[t].0, format!("q{i}"))).collect();
    let n_proj = rng.gen_range(1..3usize);
    let proj: Vec<(Expr, DataType)> = (0..n_proj).map(|_| arb_column(rng, &factors)).collect();
    let selection = if rng.gen_bool(0.5) { Some(arb_predicate(rng, &factors, 3)) } else { None };
    if rng.gen_bool(0.5) {
        // GROUP BY the first projected column with COUNT(*).
        let gcol = proj[0].0.clone();
        Query::from_select(Select {
            distinct: false,
            projection: vec![b::item(gcol.clone()), b::item(b::count_star())],
            from,
            selection,
            group_by: vec![gcol],
            having: None,
        })
    } else {
        Query::from_select(Select {
            distinct: rng.gen_bool(0.5),
            projection: proj.into_iter().map(|(e, _)| b::item(e)).collect(),
            from,
            selection,
            group_by: Vec::new(),
            having: None,
        })
    }
}

#[test]
fn optimized_engine_matches_naive() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for _ in 0..384 {
        let db = arb_db(&mut rng);
        let query = arb_query(&mut rng);
        let naive = db.run_naive(&query);
        let fast = db.run_query(&query);
        match (naive, fast) {
            (Ok(n), Ok(f)) => {
                let mut n = n.rows;
                let mut f = f.rows;
                n.sort();
                f.sort();
                assert_eq!(n, f, "query: {query}");
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                panic!("engine failed where naive succeeded on `{query}`: {e}");
            }
            (Err(e), Ok(_)) => {
                panic!("naive failed where engine succeeded on `{query}`: {e}");
            }
        }
    }
}

#[test]
fn sql_text_roundtrip_preserves_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x7E47);
    for _ in 0..384 {
        let db = arb_db(&mut rng);
        let query = arb_query(&mut rng);
        // Executing the printed SQL must equal executing the AST.
        let direct = db.run_query(&query);
        let via_text = db.run(&query.to_string());
        match (direct, via_text) {
            (Ok(a), Ok(b2)) => {
                let mut a = a.rows;
                let mut b2 = b2.rows;
                a.sort();
                b2.sort();
                assert_eq!(a, b2, "query: {query}");
            }
            (Err(_), Err(_)) => {}
            (a, b2) => {
                panic!("disagreement on `{query}`: direct={:?} text={:?}", a.is_ok(), b2.is_ok());
            }
        }
    }
}

/// A Filter, Project or HashJoin placed above an operator that produces
/// rows rather than batches (aggregate, distinct, union): the executor
/// re-batches that output before the vectorized operator runs.
const OVER_ROW_OUTPUT: &[&str] = &[
    // HAVING: a filter over GROUP BY.
    "select q0.a, count(*) from T0 q0 group by q0.a having count(*) > 1",
    "select q0.c, count(*) from T0 q0 group by q0.c having q0.c <> 'x' or count(*) >= 2",
    // Joins against derived DISTINCT, GROUP BY and UNION tables.
    "select q0.a, q1.e from T0 q0, (select distinct q.d, q.e from T1 q) q1 where q0.a = q1.d",
    "select q0.c, q1.n from T0 q0, (select q.f, count(*) as n from T2 q group by q.f) q1 \
     where q0.b = q1.f",
    "select q0.c, q1.x from T0 q0, (select q.d as x from T1 q union select q.f as x from T2 q) q1 \
     where q0.a = q1.x",
    // Arithmetic projected over a derived UNION ALL.
    "select q1.x + 1, q1.x * 2 from (select q.a as x from T0 q union all select q.g as x from T2 q) q1",
];

#[test]
fn vectorized_operators_over_row_output_match_naive() {
    let mut rng = SmallRng::seed_from_u64(0x20B7);
    let queries: Vec<Query> =
        OVER_ROW_OUTPUT.iter().map(|sql| pqp_sql::parse_query(sql).unwrap()).collect();
    let mut nonempty = vec![0usize; queries.len()];
    for _ in 0..64 {
        let db = arb_db(&mut rng);
        for (query, nonempty) in queries.iter().zip(&mut nonempty) {
            let mut naive = db.run_naive(query).unwrap().rows;
            let mut fast = db.run_query(query).unwrap().rows;
            naive.sort();
            fast.sort();
            assert_eq!(fast, naive, "query: {query}");
            *nonempty += usize::from(!fast.is_empty());
        }
    }
    for (sql, n) in OVER_ROW_OUTPUT.iter().zip(nonempty) {
        assert!(n >= 16, "only {n} of 64 databases gave `{sql}` a non-empty answer");
    }
}

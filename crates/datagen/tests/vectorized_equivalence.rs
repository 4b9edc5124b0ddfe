//! Corpus-level differential check of the batched executor: over a
//! generated movies database (Zipf-skewed, multi-page, multi-batch tables)
//! and the standard random SPJ query workload, the engine's rows must equal
//! the naive interpreter's as a multiset wherever the naive cross product
//! is affordable, and a 4-thread budget (the `PQP_THREADS=4` shape, set
//! here via [`ExecOptions`] rather than the environment so parallel test
//! binaries don't race on env vars) must return the serial rows exactly.

use pqp_datagen::{generate, generate_queries, MovieDbConfig, QueryGenConfig};
use pqp_engine::{Database, ExecOptions};
use pqp_sql::ast::{Query, TableFactor};

/// Largest FROM cross product the naive interpreter is asked to
/// materialize.
const NAIVE_MAX_PRODUCT: usize = 200_000;

/// Rows in the cross product of the query's FROM list, or `None` when it
/// is not a plain select over base tables.
fn from_product(db: &Database, query: &Query) -> Option<usize> {
    query.as_select()?.from.iter().try_fold(1usize, |acc, f| match f {
        TableFactor::Table { name, .. } => {
            Some(acc.saturating_mul(db.catalog().table(name).ok()?.read().len()))
        }
        TableFactor::Derived { .. } => None,
    })
}

#[test]
fn engine_matches_naive_and_serial_over_movie_corpus() {
    let m = generate(MovieDbConfig::default());
    let db = &m.db;
    let selective = generate_queries(60, &m.pools, &QueryGenConfig::default());
    let broad = generate_queries(20, &m.pools, &QueryGenConfig::broad());
    let par = ExecOptions::with_threads(4).min_parallel_rows(512);
    let mut naive_checked = 0;
    for query in selective.iter().chain(&broad) {
        let plan = db.plan(query).unwrap();
        let serial = db.run_plan_with(&plan, &ExecOptions::serial()).unwrap();
        let parallel = db.run_plan_with(&plan, &par).unwrap();
        assert_eq!(
            serial.rows,
            parallel.rows,
            "4-thread run diverged on `{query}`:\n{}",
            plan.explain()
        );
        if from_product(db, query).is_some_and(|n| n <= NAIVE_MAX_PRODUCT) {
            let mut naive = db.run_naive(query).unwrap().rows;
            let mut rows = serial.rows;
            naive.sort();
            rows.sort();
            assert_eq!(rows, naive, "diverged from naive on `{query}`:\n{}", plan.explain());
            naive_checked += 1;
        }
    }
    assert!(naive_checked >= 25, "only {naive_checked} of 80 corpus queries checked against naive");
}

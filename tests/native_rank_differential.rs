//! Native rank operator ≡ ranked MQ: the differential suite.
//!
//! The native TopK operator (preference pushdown with threshold-style
//! early termination) must be *indistinguishable* from recomputing the
//! ranked MQ rewrite: the same row set, the same interest degrees
//! (bit-identical — both fold satisfied preferences in ascending
//! preference order), and the same deterministic rank order (interest
//! descending, then the visible columns ascending as the tie-break).
//!
//! The suite runs randomized profiles and K/M/L knobs over the generated
//! movie corpus, and re-executes every native plan under a parallel
//! (`PQP_THREADS=4`-shaped) thread budget, which must be row-for-row
//! identical to the serial run.
//! scripts/verify.sh and CI run the suite on both test schedules (default
//! and `RUST_TEST_THREADS=1`).

use pqp::core::{personalize, InMemoryGraph, PersonalizeOptions, Rewrite};
use pqp::datagen::{
    generate, generate_profile, generate_queries, MovieDbConfig, ProfileGenConfig, QueryGenConfig,
};
use pqp::engine::{Database, EngineError, ExecOptions};
use pqp::storage::Value;
use pqp::{Budget, BudgetReason, QueryCtx};

/// Canonical rank order: interest descending (rows without an interest —
/// NULL — last), then every visible column ascending. This is the order
/// the native operator promises; the MQ oracle is re-sorted into it
/// because SQL `ORDER BY interest DESC` leaves ties unspecified.
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        let key = |r: &Vec<Value>| match r.last() {
            Some(Value::Float(f)) => (0u8, -f),
            _ => (1u8, 0.0),
        };
        key(a).partial_cmp(&key(b)).unwrap().then_with(|| a[..a.len() - 1].cmp(&b[..b.len() - 1]))
    });
    rows
}

/// The parallel thread budget every native plan is re-run under.
fn parallel_mode() -> ExecOptions {
    ExecOptions::with_threads(4).min_parallel_rows(2)
}

/// Build the native execution for `p`; `None` when the strategy layer had
/// to fall back to MQ (a shape the operator does not support).
fn native_plan(
    db: &Database,
    p: &pqp::core::Personalized,
    limit: Option<u64>,
) -> Option<pqp::core::StrategyChoice> {
    let choice = pqp::core::build_execution(db, p, Rewrite::NativeRank, limit).unwrap();
    (choice.rewrite == Rewrite::NativeRank).then_some(choice)
}

#[test]
fn native_matches_ranked_mq_over_randomized_profiles_and_knobs() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(12, &m.pools, &QueryGenConfig::default());
    let knobs: [(usize, usize, usize); 4] = [(3, 0, 1), (5, 1, 1), (6, 0, 2), (4, 2, 1)];
    let mut exercised = 0;
    let mut nonempty = 0;
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 15, seed: 9000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        let (k, mm, l) = knobs[i % knobs.len()];
        let p = personalize(
            q,
            &graph,
            m.db.catalog(),
            PersonalizeOptions::builder().k(k).m(mm).l(l).build().ranked(),
        )
        .unwrap();
        let Some(choice) = native_plan(&m.db, &p, None) else { continue };
        exercised += 1;
        let native = m.db.run_plan(&choice.plan).unwrap();
        let mq = m.db.run_query(&p.mq().unwrap()).unwrap();
        assert_eq!(native.columns, mq.columns, "query {i}: {q}");
        // Same rows, same degrees, and the native order IS canonical —
        // deterministic ties included.
        assert_eq!(native.rows, canonical(native.rows.clone()), "query {i} order: {q}");
        assert_eq!(
            native.rows,
            canonical(mq.rows),
            "query {i} (K={k}, M={mm}, L={l}) diverged from ranked MQ: {q}"
        );
        nonempty += usize::from(!native.rows.is_empty());
        // A thread budget must be row-for-row identical.
        let alt = m.db.run_plan_with(&choice.plan, &parallel_mode()).unwrap();
        assert_eq!(alt.rows, native.rows, "query {i} diverged under 4 threads");
    }
    assert!(exercised >= 6, "only {exercised} native plans built; the suite is near-vacuous");
    assert!(nonempty > 0, "the workload never produced rows; the suite is vacuous");
}

#[test]
fn native_top_n_equals_canonically_truncated_mq() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(8, &m.pools, &QueryGenConfig::default());
    let mut exercised = 0;
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 12, seed: 4200 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        let p = personalize(
            q,
            &graph,
            m.db.catalog(),
            PersonalizeOptions::builder().k(5).l(1).build().ranked(),
        )
        .unwrap();
        for n in [1u64, 3, 10] {
            let Some(choice) = native_plan(&m.db, &p, Some(n)) else { continue };
            exercised += 1;
            let native = m.db.run_plan(&choice.plan).unwrap();
            // Oracle: the *unlimited* ranked MQ, canonically sorted, cut
            // to n — early termination must not change what the top-n is.
            let mq = canonical(m.db.run_query(&p.mq().unwrap()).unwrap().rows);
            let cut = &mq[..mq.len().min(n as usize)];
            assert_eq!(native.rows, cut, "query {i} top-{n} diverged: {q}");
            let alt = m.db.run_plan_with(&choice.plan, &parallel_mode()).unwrap();
            assert_eq!(alt.rows, native.rows, "query {i} top-{n} diverged under 4 threads");
        }
    }
    assert!(exercised >= 6, "only {exercised} top-n plans built; the suite is near-vacuous");
}

#[test]
fn native_matches_mq_under_min_degree_matching() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(6, &m.pools, &QueryGenConfig::default());
    let mut exercised = 0;
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 15, seed: 7700 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        let p = personalize(
            q,
            &graph,
            m.db.catalog(),
            PersonalizeOptions::builder()
                .k(5)
                .matching(pqp::core::MatchSpec::MinDegree(0.5))
                .build()
                .ranked(),
        )
        .unwrap();
        let Some(choice) = native_plan(&m.db, &p, None) else { continue };
        exercised += 1;
        let native = m.db.run_plan(&choice.plan).unwrap();
        let mq = m.db.run_query(&p.mq().unwrap()).unwrap();
        assert_eq!(native.rows, canonical(mq.rows), "query {i} MinDegree divergence: {q}");
    }
    assert!(exercised >= 3, "only {exercised} MinDegree plans built; the suite is near-vacuous");
}

/// Governor budgets trip cleanly *inside* the TopK operator: a typed
/// `Budget` error with the right reason, and — because the operator holds
/// no state outside the query — an immediately-following unlimited run
/// returns the full, correct answer.
#[test]
fn governor_trips_mid_topk_leave_no_state_behind() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(6, &m.pools, &QueryGenConfig::default());
    let profile = generate_profile(
        "u",
        &m.pools,
        &ProfileGenConfig { selections: 15, seed: 31, ..Default::default() },
    );
    let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
    let choice = queries
        .iter()
        .find_map(|q| {
            let p = personalize(
                q,
                &graph,
                m.db.catalog(),
                PersonalizeOptions::builder().k(5).l(1).build().ranked(),
            )
            .ok()?;
            native_plan(&m.db, &p, None).filter(|_| {
                // A plan whose full run scans rows and returns rows, so
                // every budget below genuinely trips mid-operator.
                !m.db
                    .run_plan(
                        &pqp::core::build_execution(&m.db, &p, Rewrite::NativeRank, None)
                            .unwrap()
                            .plan,
                    )
                    .unwrap()
                    .rows
                    .is_empty()
            })
        })
        .expect("no native plan with a non-empty result in the corpus");
    let expected = m.db.run_plan(&choice.plan).unwrap();

    let trips: [(Budget, BudgetReason); 3] = [
        (Budget::unlimited().deadline_ms(0), BudgetReason::Deadline),
        (Budget::unlimited().max_rows(1), BudgetReason::RowsScanned),
        (Budget::unlimited().max_memory_bytes(16), BudgetReason::Memory),
    ];
    for exec in [ExecOptions::default(), parallel_mode()] {
        for (budget, reason) in trips {
            let ctx = QueryCtx::new(budget);
            match m.db.run_plan_ctx(&choice.plan, &exec, &ctx) {
                Err(EngineError::Budget(b)) => {
                    assert_eq!(b.reason, reason, "threads={}", exec.threads)
                }
                other => panic!("expected Budget({reason:?}), got {other:?}"),
            }
            // No leaked state: the very next unlimited run over the same
            // plan object is complete and correct.
            let again = m.db.run_plan_ctx(&choice.plan, &exec, &QueryCtx::unlimited()).unwrap();
            assert_eq!(again.rows, expected.rows, "post-trip run diverged ({reason:?})");
        }
        // Cancellation too: a pre-cancelled context aborts, the plan stays
        // reusable.
        let ctx = QueryCtx::unlimited();
        ctx.cancel();
        match m.db.run_plan_ctx(&choice.plan, &exec, &ctx) {
            Err(EngineError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Cancelled),
            other => panic!("expected Budget(Cancelled), got {other:?}"),
        }
        let again = m.db.run_plan_ctx(&choice.plan, &exec, &QueryCtx::unlimited()).unwrap();
        assert_eq!(again.rows, expected.rows);
    }
}

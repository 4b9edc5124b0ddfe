//! SQ vs MQ: the paper presents the two integration approaches as
//! equivalent. This holds unconditionally for L ≤ 1; for L ≥ 2 MQ counts
//! preferences satisfied by *any* witness per projected row while SQ demands
//! a single witness satisfying L preferences together, so SQ ⊆ MQ with
//! equality whenever the projected attributes determine the anchor tuples
//! (the situation in all of the paper's examples). These tests pin down both
//! the equality and the containment on randomized workloads.

mod common;

use pqp_core::prelude::*;
use pqp_datagen::{
    generate, generate_profile, generate_queries, MovieDbConfig, ProfileGenConfig, QueryGenConfig,
};
use std::collections::BTreeSet;

fn rows_of(db: &pqp_engine::Database, q: &pqp_sql::Query) -> BTreeSet<Vec<String>> {
    db.run_query(q)
        .unwrap_or_else(|e| panic!("query failed: {e}\n{q}"))
        .rows
        .into_iter()
        .map(|r| r.into_iter().map(|v| v.to_string()).collect())
        .collect()
}

#[test]
fn sq_equals_mq_for_l_at_most_one() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(12, &m.pools, &QueryGenConfig::default());
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 15, seed: 1000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        for l in [0usize, 1] {
            let p = personalize(
                q,
                &graph,
                m.db.catalog(),
                PersonalizeOptions::builder().k(5).l(l).build(),
            )
            .unwrap();
            let sq = p.sq().unwrap();
            let mq = p.mq().unwrap();
            let a = rows_of(&m.db, &sq);
            let b = rows_of(&m.db, &mq);
            assert_eq!(a, b, "L={l} divergence on query {i}: {q}\nSQ: {sq}\nMQ: {mq}");
        }
    }
}

#[test]
fn sq_subset_of_mq_for_higher_l() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(12, &m.pools, &QueryGenConfig::default());
    let mut nonempty = 0;
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 20, seed: 2000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        for l in [2usize, 3] {
            let p = personalize(
                q,
                &graph,
                m.db.catalog(),
                PersonalizeOptions::builder().k(6).l(l).build(),
            )
            .unwrap();
            let sq = p.sq().unwrap();
            let mq = p.mq().unwrap();
            let a = rows_of(&m.db, &sq);
            let b = rows_of(&m.db, &mq);
            assert!(
                a.is_subset(&b),
                "L={l}: SQ ⊄ MQ on query {i}: {q}\nSQ-only rows: {:?}",
                a.difference(&b).take(3).collect::<Vec<_>>()
            );
            nonempty += usize::from(!a.is_empty());
        }
    }
    assert!(nonempty > 0, "the workload never produced results; tests are vacuous");
}

#[test]
fn personalized_results_are_contained_in_initial_results_when_m_zero_l_positive() {
    // With L ≥ 1 every personalized row must also satisfy the initial query.
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(8, &m.pools, &QueryGenConfig::default());
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 12, seed: 3000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        let p =
            personalize(q, &graph, m.db.catalog(), PersonalizeOptions::builder().k(4).l(1).build())
                .unwrap();
        let initial: BTreeSet<Vec<String>> = rows_of(&m.db, q);
        let personalized = rows_of(&m.db, &p.mq().unwrap());
        assert!(personalized.is_subset(&initial), "personalized ⊄ initial on query {i}: {q}");
    }
}

#[test]
fn sq_and_mq_agree_on_result_degrees_when_ranked() {
    // For L=1 the ranked MQ interest of each row must equal the client-side
    // estimate over the preferences that row satisfies individually.
    let m = generate(MovieDbConfig::tiny());
    let q = &generate_queries(3, &m.pools, &QueryGenConfig::default())[0];
    let profile = generate_profile(
        "u",
        &m.pools,
        &ProfileGenConfig { selections: 15, seed: 77, ..Default::default() },
    );
    let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
    let p = personalize(
        q,
        &graph,
        m.db.catalog(),
        PersonalizeOptions::builder().k(5).l(1).build().ranked(),
    )
    .unwrap();
    let rs = m.db.run_query(&p.mq().unwrap()).unwrap();
    let Some(interest) = rs.column("interest") else {
        return; // no preferences selected for this pairing
    };
    // Recompute each row's interest by running every single-preference
    // partial separately.
    for (row, got) in rs.rows.iter().zip(interest.iter()) {
        let key: Vec<String> = row[..row.len() - 1].iter().map(|v| v.to_string()).collect();
        let mut satisfied = Vec::new();
        for path in &p.paths {
            let single = pqp_core::integrate_mq(
                q.as_select().unwrap(),
                std::slice::from_ref(path),
                0,
                MatchSpec::AtLeast(1),
                false,
            )
            .unwrap();
            let rows = rows_of(&m.db, &single);
            if rows.contains(&key) {
                satisfied.push(path.doi);
            }
        }
        let expect = pqp_core::rank::estimate_interest(&satisfied).value();
        let got = got.as_f64().unwrap();
        assert!(
            (expect - got).abs() < 1e-9,
            "row {key:?}: engine says {got}, client-side estimate {expect}"
        );
    }
}

#[test]
fn sq_keeps_a_preference_the_query_already_satisfies() {
    // The query already demands comedies, so the GENRE.genre = 'comedy'
    // preference anchored at GN adds no condition: its L = 1 subset is the
    // empty conjunction, which makes the optional disjunction TRUE. SQ must
    // not drop it (that turned the disjunction into FALSE when it was the
    // only subset), and SQ, MQ and the native rank operator must agree.
    let db = common::paper_db();
    let mut profile = pqp_core::Profile::new("u");
    profile.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
    let graph = InMemoryGraph::build(&profile, db.catalog()).unwrap();
    let q = pqp_sql::parse_query(
        "select MV.title from MOVIE MV, GENRE GN where MV.mid = GN.mid and GN.genre = 'comedy'",
    )
    .unwrap();
    let p = personalize(&q, &graph, db.catalog(), PersonalizeOptions::builder().k(3).l(1).build())
        .unwrap();
    assert_eq!(p.k(), 1, "the comedy preference is selected");
    let answers: Vec<BTreeSet<Vec<String>>> = [Rewrite::Sq, Rewrite::Mq, Rewrite::NativeRank]
        .into_iter()
        .map(|rewrite| {
            let choice = pqp_core::strategy::build_execution(&db, &p, rewrite, None).unwrap();
            assert_eq!(choice.rewrite, rewrite, "no fallback: the shape is supported");
            let rs = db.run_plan(&choice.plan).unwrap();
            rs.rows.into_iter().map(|r| r.into_iter().map(|v| v.to_string()).collect()).collect()
        })
        .collect();
    let expect: BTreeSet<Vec<String>> =
        [vec!["Alpha".to_string()], vec!["Beta".to_string()]].into_iter().collect();
    assert_eq!(answers[1], expect, "MQ: both comedies");
    assert_eq!(answers[0], answers[1], "SQ ≡ MQ\nSQ: {}", p.sq().unwrap());
    assert_eq!(answers[2], answers[1], "native ≡ MQ");
}

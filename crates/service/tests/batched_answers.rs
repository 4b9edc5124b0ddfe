//! The service-level face of the executor's correctness contract: the
//! personalized answers a service hands back — on a cold plan-cache pass
//! and on the cached pass — must equal, as a multiset, the naive
//! interpreter's answer to the MQ rewrite of the same query under the same
//! profile and personalization options. The naive interpreter shares no
//! operator code with the engine's executor.

use pqp_core::{personalize, InMemoryGraph, Profile, Rewrite};
use pqp_engine::Database;
use pqp_service::{CacheOutcome, DegradeLevel, Service, ServiceConfig};
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};

fn movie_db() -> Database {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "MOVIE",
            vec![
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("year", DataType::Int),
            ],
        )
        .with_primary_key(&["mid"]),
    )
    .unwrap();
    c.create_table(TableSchema::new(
        "GENRE",
        vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
    ))
    .unwrap();
    let genres = ["comedy", "drama", "thriller", "scifi"];
    for mid in 0..200i64 {
        c.table("MOVIE")
            .unwrap()
            .write()
            .insert(vec![
                mid.into(),
                format!("Movie {mid}").as_str().into(),
                (1960 + mid % 60).into(),
            ])
            .unwrap();
        c.table("GENRE")
            .unwrap()
            .write()
            .insert(vec![mid.into(), genres[(mid % 4) as usize].into()])
            .unwrap();
    }
    Database::new(c)
}

fn profile() -> Profile {
    let mut p = Profile::new("ana");
    p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
    p.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
    p.add_selection("MOVIE", "year", 2000i64, 0.6).unwrap();
    p
}

const QUERIES: &[&str] = &[
    "select MV.title from MOVIE MV",
    "select MV.title, MV.year from MOVIE MV where MV.year > 1990",
    "select MV.title, GE.genre from MOVIE MV, GENRE GE where MV.mid = GE.mid",
];

#[test]
fn service_answers_match_naive_mq() {
    let config = ServiceConfig::default();
    let options = config.options;
    let service = Service::with_config(movie_db(), config);
    service.install_profile(profile()).unwrap();
    let db = movie_db();
    let graph = InMemoryGraph::build(&profile(), db.catalog()).unwrap();
    for sql in QUERIES {
        let query = pqp_sql::parse_query(sql).unwrap();
        let p = personalize(&query, &graph, db.catalog(), options).unwrap();
        let mut naive = db.run_naive(&p.mq().unwrap()).unwrap().rows;
        naive.sort();
        assert!(!naive.is_empty(), "`{sql}` has an empty answer; the check is vacuous");
        // Twice per query: a cold plan-cache pass and a cached pass.
        for (pass, want_cache) in [CacheOutcome::Miss, CacheOutcome::Hit].into_iter().enumerate() {
            let a = service.session("ana").query(sql).unwrap();
            assert_eq!(a.meta.cache, want_cache, "`{sql}` pass {pass}");
            assert_eq!(a.meta.rewrite, Rewrite::Mq);
            assert_eq!(a.meta.degraded, DegradeLevel::None);
            let mut rows = a.rows.rows;
            rows.sort();
            assert_eq!(rows, naive, "rows diverged from naive MQ on `{sql}` (pass {pass})");
        }
    }
}

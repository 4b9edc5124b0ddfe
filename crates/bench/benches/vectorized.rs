//! Micro-benchmarks of the batched (vectorized) executor: the 4-way join
//! over the movies schema (THEATRE ⋈ PLAY ⋈ MOVIE ⋈ GENRE), a broad
//! filtered scan, and a selective filtered scan, each run under a serial
//! budget.
//!
//! The fixture deliberately carries **no indexes** and is ANALYZE'd, so
//! every plan is pure Scan/Filter/HashJoin — the vectorized operators —
//! rather than the index paths.
//!
//! Writes `results/micro_vectorized.json` with a `derived` block holding
//! the join output size and `host_cores`.

use pqp_bench::microbench::{write_metrics_json, MicroBench};
use pqp_datagen::Zipf;
use pqp_engine::{Database, ExecOptions};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::Json;
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};
use std::path::{Path, PathBuf};

const FOUR_WAY_JOIN: &str = "select TH.name, MV.title, GE.genre \
     from THEATRE TH, PLAY PL, MOVIE MV, GENRE GE \
     where TH.tid = PL.tid and PL.mid = MV.mid and MV.mid = GE.mid";

const BROAD_SCAN: &str = "select MV.title, MV.year from MOVIE MV where MV.year > 1950";

const SELECTIVE_SCAN: &str =
    "select MV.title from MOVIE MV where MV.year >= 1990 and MV.year < 1994";

/// The movies schema without primary keys (hence without indexes), filled
/// with a Zipf-skewed instance and ANALYZE'd: the planner gets real
/// statistics, the executor gets no index shortcuts.
fn unindexed_movies(movies: usize, theatres: usize) -> Database {
    let mut c = Catalog::new();
    c.create_table(TableSchema::new(
        "THEATRE",
        vec![
            ColumnDef::new("tid", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("region", DataType::Str),
        ],
    ))
    .unwrap();
    c.create_table(TableSchema::new(
        "PLAY",
        vec![
            ColumnDef::new("tid", DataType::Int),
            ColumnDef::new("mid", DataType::Int),
            ColumnDef::new("date", DataType::Str),
        ],
    ))
    .unwrap();
    c.create_table(TableSchema::new(
        "MOVIE",
        vec![
            ColumnDef::new("mid", DataType::Int),
            ColumnDef::new("title", DataType::Str),
            ColumnDef::new("year", DataType::Int),
        ],
    ))
    .unwrap();
    c.create_table(TableSchema::new(
        "GENRE",
        vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
    ))
    .unwrap();

    let mut rng = SmallRng::seed_from_u64(0x5EED_CAFE);
    let popularity = Zipf::new(movies, 0.8);
    let genres = pqp_datagen::GENRES;
    let regions = pqp_datagen::REGIONS;
    {
        let t = c.table("MOVIE").unwrap();
        let mut t = t.write();
        for mid in 0..movies {
            t.insert(vec![
                Value::Int(mid as i64),
                Value::str(format!("Movie {mid}")),
                Value::Int(1940 + (rng.next_u32() % 80) as i64),
            ])
            .unwrap();
        }
        t.analyze().unwrap();
    }
    {
        let t = c.table("GENRE").unwrap();
        let mut t = t.write();
        for mid in 0..movies {
            let n = 1 + (rng.next_u32() % 3) as usize;
            for _ in 0..n {
                let g = genres[rng.next_u32() as usize % genres.len()];
                t.insert(vec![Value::Int(mid as i64), Value::str(g)]).unwrap();
            }
        }
        t.analyze().unwrap();
    }
    {
        let t = c.table("THEATRE").unwrap();
        let mut t = t.write();
        for tid in 0..theatres {
            t.insert(vec![
                Value::Int(tid as i64),
                Value::str(format!("Theatre {tid}")),
                Value::str(regions[tid % regions.len()]),
            ])
            .unwrap();
        }
        t.analyze().unwrap();
    }
    {
        let t = c.table("PLAY").unwrap();
        let mut t = t.write();
        for tid in 0..theatres {
            for day in 0..14 {
                for _ in 0..6 {
                    let mid = popularity.sample(&mut rng);
                    t.insert(vec![
                        Value::Int(tid as i64),
                        Value::Int(mid as i64),
                        Value::str(format!("2004-03-{:02}", day + 1)),
                    ])
                    .unwrap();
                }
            }
        }
        t.analyze().unwrap();
    }
    Database::new(c)
}

fn main() {
    let db = unindexed_movies(4_000, 60);
    let join_plan = db.plan(&parse_query(FOUR_WAY_JOIN).unwrap()).unwrap();
    let broad_plan = db.plan(&parse_query(BROAD_SCAN).unwrap()).unwrap();
    let sel_plan = db.plan(&parse_query(SELECTIVE_SCAN).unwrap()).unwrap();
    let serial = ExecOptions::serial();

    let join_rows = db.run_plan_with(&join_plan, &serial).unwrap().rows;
    println!("4-way join output: {} rows", join_rows.len());

    let mut group = MicroBench::new("vectorized").sample_size(20);
    group.bench("join4_batched", || db.run_plan_with(&join_plan, &serial).unwrap());
    group.bench("scan_broad_batched", || db.run_plan_with(&broad_plan, &serial).unwrap());
    group.bench("scan_selective_batched", || db.run_plan_with(&sel_plan, &serial).unwrap());

    let dir = workspace_results_dir();
    match group.write_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write micro_vectorized.json: {err}"),
    }
    annotate(&dir.join("micro_vectorized.json"), join_rows.len());
    match write_metrics_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write metrics.json: {err}"),
    }
}

fn workspace_results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .join("results")
}

/// Re-open the written JSON and add a `derived` block: the join output
/// size and the host's core count (serial benchmarks, but recorded for
/// apples-to-apples comparisons with `micro_parallel.json`).
fn annotate(path: &Path, join_rows: usize) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    let Ok(doc) = Json::parse(&text) else { return };
    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let derived =
        Json::obj().set("join4_rows", join_rows as i64).set("host_cores", host_cores as i64);
    let doc = doc.set("derived", derived);
    let _ = std::fs::write(path, doc.pretty());
}

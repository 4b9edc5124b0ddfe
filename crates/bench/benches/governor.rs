//! Micro-benchmark of query-governor overhead: the 4-way join over the
//! movies schema (THEATRE ⋈ PLAY ⋈ MOVIE ⋈ GENRE) executed ungoverned and
//! under a fully-armed (but generous) [`Budget`] — deadline, row cap and
//! memory cap all active, so every cooperative checkpoint and charge in
//! the operator loops pays its real cost.
//!
//! Writes `results/micro_governor.json` with a `derived` block holding the
//! measured overhead percentage. Target: < 2% on the 4-way join (rows are
//! charged once per batch and checkpoints strided, so the per-row cost is
//! a couple of atomic adds).

use pqp_bench::microbench::{write_metrics_json, MicroBench};
use pqp_datagen::{generate, MovieDbConfig};
use pqp_engine::ExecOptions;
use pqp_obs::{Budget, Json, QueryCtx};
use pqp_sql::parse_query;
use std::path::{Path, PathBuf};

const FOUR_WAY_JOIN: &str = "select TH.name, MV.title, GE.genre \
     from THEATRE TH, PLAY PL, MOVIE MV, GENRE GE \
     where TH.tid = PL.tid and PL.mid = MV.mid and MV.mid = GE.mid";

/// Generous limits: never trip, but keep every check armed.
fn armed_budget() -> Budget {
    Budget::unlimited().deadline_ms(600_000).max_rows(u64::MAX / 2).max_memory_bytes(u64::MAX / 2)
}

fn main() {
    let m = generate(MovieDbConfig { movies: 4_000, theatres: 60, ..Default::default() });
    let db = &m.db;
    let plan = db.plan(&parse_query(FOUR_WAY_JOIN).unwrap()).unwrap();
    let opts = ExecOptions::default();

    let rows = db.run_plan(&plan).unwrap().rows.len();
    let governed = db.run_plan_ctx(&plan, &opts, &QueryCtx::new(armed_budget())).unwrap();
    assert_eq!(governed.rows.len(), rows, "the governed run must not change the answer");
    println!("4-way join output: {rows} rows");

    let mut group = MicroBench::new("governor").sample_size(30);
    group.bench("join4_ungoverned", || db.run_plan(&plan).unwrap());
    group.bench("join4_governed", || {
        db.run_plan_ctx(&plan, &opts, &QueryCtx::new(armed_budget())).unwrap()
    });

    // Sequential sampling drifts far more than the effect under test on a
    // busy host, so the headline number is *paired*: alternate governed /
    // ungoverned runs and take the median per-pair ratio, which cancels
    // slow drift.
    let overhead_pct = paired_overhead_pct(
        || {
            db.run_plan(&plan).unwrap();
        },
        || {
            db.run_plan_ctx(&plan, &opts, &QueryCtx::new(armed_budget())).unwrap();
        },
    );
    println!("governor overhead on the 4-way join: {overhead_pct:+.2}% (paired, target < 2%)");

    let dir = workspace_results_dir();
    match group.write_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write micro_governor.json: {err}"),
    }
    annotate_overhead(&dir.join("micro_governor.json"), rows, overhead_pct);
    match write_metrics_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write metrics.json: {err}"),
    }
}

/// Median per-pair overhead of `governed` over `plain`, in percent, from
/// `PAIRS` alternating plain/governed runs (plus one warmup pair).
fn paired_overhead_pct(mut plain: impl FnMut(), mut governed: impl FnMut()) -> f64 {
    const PAIRS: usize = 30;
    let time = |f: &mut dyn FnMut()| {
        let t = std::time::Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    plain();
    governed();
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            // Alternate which side goes first within the pair so neither
            // systematically benefits from a warmer cache.
            if i % 2 == 0 {
                let p = time(&mut plain);
                let g = time(&mut governed);
                g / p
            } else {
                let g = time(&mut governed);
                let p = time(&mut plain);
                g / p
            }
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (ratios[PAIRS / 2] - 1.0) * 100.0
}

fn workspace_results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .join("results")
}

/// Re-open the written JSON and add a `derived` block: the paired-median
/// overhead (the headline number) plus the crude sequential-means ratio
/// for comparison.
fn annotate_overhead(path: &Path, join_rows: usize, paired_overhead_pct: f64) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    let Ok(doc) = Json::parse(&text) else { return };
    let mean = |name: &str| -> Option<f64> {
        doc.get("benchmarks")?
            .as_array()?
            .iter()
            .find_map(|b| (b.get("name")?.as_str()? == name).then(|| b.get("mean_ms")?.as_f64())?)
    };
    let (Some(plain), Some(governed)) = (mean("join4_ungoverned"), mean("join4_governed")) else {
        return;
    };
    let derived = Json::obj()
        .set("overhead_pct_paired_median", paired_overhead_pct)
        .set("overhead_pct_sequential_means", (governed / plain - 1.0) * 100.0)
        .set("join4_rows", join_rows as i64)
        .set("target_pct", 2.0);
    let _ = std::fs::write(path, doc.set("derived", derived).pretty());
}

//! pqp benchmark: three workloads against the public APIs of `pqp-service`,
//! `pqp-wire` and `pqp-server`, each putting most of its time in a
//! different layer (see `workload.rs` for why each was chosen).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_serve|cold_personalize|mutate_tcp \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! line before it carries the run's metadata (host cores, git sha, seed,
//! sample counts, premise shares, answer-check counts). With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run measures
//! half its time untraced and half traced, and the metrics are the
//! per-layer ones, including the tracing overhead.

mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pqp_obs::{CacheSnapshot, Json};

use run::{ClientLog, Sample, SPAN_SERVICE_QUERY, SPAN_WIRE_MUTATE, SPAN_WIRE_QUERY};
use stats::Windowed;
use trace::Span;
use workload::{Fixture, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Premise of hot_serve and cold_personalize: the plan-cache hit rate over
/// the timed phase.
const HOT_MIN_HIT_RATE: f64 = 0.99;
const COLD_MAX_HIT_RATE: f64 = 0.01;

/// Per-layer span metrics: (metric name, span name). A metric is the self
/// time of its span; a request root's self time is the layer that owns it.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("service.parse", "service.parse"),
    ("service.personalize", "service.personalize"),
    ("service.plan", "service.plan"),
    ("service.execute", "service.execute"),
    ("service.self", SPAN_SERVICE_QUERY),
    ("wire.read", SPAN_WIRE_QUERY),
    ("wire.write", SPAN_WIRE_MUTATE),
    ("core.graph_build", "core.graph_build"),
    ("core.select", "core.select"),
    ("core.integrate", "core.integrate"),
    ("engine.plan", "engine.plan"),
    ("engine.execute", "engine.execute"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_build").join("perfbench-work").join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))
        .and_then(|()| bench(&args, &work_dir));
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }
    match outcome {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn delta(after: CacheSnapshot, before: CacheSnapshot) -> CacheSnapshot {
    CacheSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        stale: after.stale - before.stale,
        evictions: after.evictions - before.evictions,
    }
}

fn stale_share(s: CacheSnapshot) -> f64 {
    let total = s.hits + s.misses + s.stale;
    if total == 0 {
        0.0
    } else {
        s.stale as f64 / total as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the checkout is at, read from `.git` without leaving it.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
}

/// FNV-1a over the sources the benchmark builds (paths and contents of
/// every file under `crates/` plus the root manifest and lock file), to
/// identify the code when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

struct Totals {
    reads_ok: u64,
    reads_failed: u64,
    writes_ok: u64,
    writes_failed: u64,
    elapsed: Duration,
}

fn totals<'a>(logs: impl IntoIterator<Item = &'a ClientLog>) -> Totals {
    let mut t = Totals {
        reads_ok: 0,
        reads_failed: 0,
        writes_ok: 0,
        writes_failed: 0,
        elapsed: Duration::ZERO,
    };
    for l in logs {
        let failed = |v: &[Sample]| v.iter().filter(|s| s.failed()).count() as u64;
        t.reads_failed += failed(&l.reads);
        t.reads_ok += l.reads.len() as u64 - failed(&l.reads);
        t.writes_failed += failed(&l.writes);
        t.writes_ok += l.writes.len() as u64 - failed(&l.writes);
        t.elapsed = t.elapsed.max(l.elapsed);
    }
    t
}

fn qps(t: &Totals) -> f64 {
    t.reads_ok as f64 / t.elapsed.as_secs_f64().max(1e-9)
}

/// Concatenate per-client traces into one span list.
fn merge_traces<'a>(traces: impl IntoIterator<Item = &'a trace::Trace>) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for t in traces {
        let base = all.len();
        all.extend(
            t.spans.iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s.clone() }),
        );
    }
    all
}

struct Metrics(Json);

impl Metrics {
    fn new() -> Metrics {
        Metrics(Json::obj())
    }
    fn add(self, name: &str, value: f64, unit: &str) -> Metrics {
        Metrics(self.0.set(name, Json::obj().set("value", value).set("unit", unit)))
    }
}

fn bench(args: &Args, work_dir: &Path) -> Result<Vec<String>, String> {
    let w = args.workload;

    // The measured fixture is the process's first set-up, so that
    // `peak_rss_mb` covers one set-up and the timed phase. The other
    // set-ups that `setup_s` is the median of run after the answer checks.
    let time_setup = |tag: usize| -> Result<(f64, Fixture, Vec<Vec<workload::Op>>), String> {
        let t = Instant::now();
        let fixture = workload::setup(w, work_dir, tag)?;
        let seqs = workload::sequences(&fixture, args.seed);
        Ok((t.elapsed().as_secs_f64(), fixture, seqs))
    };
    let (first_setup_s, mut fixture, seqs) = time_setup(0)?;

    // Timed phase.
    let service = std::sync::Arc::clone(&fixture.service);
    let caches_before = service.cache_stats();
    let queries_before = service.telemetry().snapshot().queries;
    let dur = Duration::from_secs_f64(args.seconds);
    let mut cursors = vec![0usize; seqs.len()];
    let epoch = Instant::now();
    let (untraced, mut traced, wal) = if args.trace {
        let (a, _) = run::phase(&mut fixture, &seqs, &mut cursors, dur / 2, false, epoch);
        let (b, wal) = run::phase(&mut fixture, &seqs, &mut cursors, dur / 2, true, epoch);
        (a, b, wal)
    } else {
        let (a, wal) = run::phase(&mut fixture, &seqs, &mut cursors, dur, false, epoch);
        (a, Vec::new(), wal)
    };
    let caches = service.cache_stats();
    let plans = delta(caches.plans, caches_before.plans);
    let prepared = delta(caches.prepared, caches_before.prepared);
    let queries_seen = service.telemetry().snapshot().queries - queries_before;
    let peak_rss_mb = peak_rss_mb()?;
    let misses: Vec<run::Miss> =
        traced.iter_mut().flat_map(|l| std::mem::take(&mut l.misses)).collect();

    let logs: Vec<&ClientLog> = untraced.iter().chain(&traced).collect();
    let all = totals(logs.iter().copied());
    let reads_attempted = all.reads_ok + all.reads_failed;
    let attempted = reads_attempted + all.writes_ok + all.writes_failed;
    let failed = all.reads_failed + all.writes_failed;
    let mut problems: Vec<String> = logs.iter().filter_map(|l| l.first_error.clone()).collect();

    // Premise checks: a workload whose premise breaks is not that workload.
    let hit_rate = plans.hit_rate();
    let mut premise_failures = Vec::new();
    match w {
        Workload::HotServe if hit_rate < HOT_MIN_HIT_RATE => premise_failures
            .push(format!("plan-cache hit rate {hit_rate} below {HOT_MIN_HIT_RATE}")),
        Workload::ColdPersonalize if hit_rate > COLD_MAX_HIT_RATE => premise_failures
            .push(format!("plan-cache hit rate {hit_rate} above {COLD_MAX_HIT_RATE}")),
        Workload::MutateTcp if plans.stale == 0 => {
            premise_failures.push("no write invalidated a cached plan".to_string())
        }
        _ => {}
    }
    if queries_seen != reads_attempted {
        premise_failures.push(format!(
            "the query log saw {queries_seen} queries for {reads_attempted} reads attempted"
        ));
    }

    // Answer checks, outside the timed phase.
    let checks_started = Instant::now();
    let mut answers = oracle::check_answers(&mut fixture, args.seed);
    let acked: Vec<Vec<(u16, f64)>> = (0..fixture.write_targets.len())
        .map(|c| {
            let mut v = untraced.get(c).map(|l| l.acked.clone()).unwrap_or_default();
            v.extend(traced.get(c).map(|l| l.acked.clone()).unwrap_or_default());
            v
        })
        .collect();
    oracle::check_writes(&fixture, &acked, &mut answers);
    let checks_s = checks_started.elapsed().as_secs_f64();

    let mut setup_s = vec![first_setup_s];
    for tag in 1..SETUP_REPEATS {
        let (s, extra, _) = time_setup(tag)?;
        setup_s.push(s);
        extra.teardown();
    }

    // Latency and throughput, summarized per window of the untraced phase.
    let measured = if args.trace { dur / 2 } else { dur };
    let reads =
        Windowed::new(untraced.iter().flat_map(|l| &l.reads).map(|r| (r.done, r.ms)), measured);
    let writes =
        Windowed::new(untraced.iter().flat_map(|l| &l.writes).map(|w| (w.done, w.ms)), measured);

    let mut meta = Json::obj()
        .set("workload", w.name())
        .set("seed", args.seed as i64)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("host_cores", std::thread::available_parallelism().map_or(1, |n| n.get()) as i64)
        .set("git_sha", git_sha().map_or(Json::Null, Json::from))
        .set("source_fnv64", source_digest())
        .set("clients", workload::CLIENTS as i64)
        .set("distinct_texts", fixture.texts.len() as i64)
        .set("generated_texts", fixture.generated_texts as i64)
        .set("keys", fixture.keys() as i64)
        .set(
            "samples",
            Json::obj()
                .set("reads", (all.reads_ok + all.reads_failed) as i64)
                .set("writes", (all.writes_ok + all.writes_failed) as i64)
                .set("windows", stats::WINDOWS as i64)
                .set("setup_repeats", SETUP_REPEATS as i64),
        )
        .set("read_windows", reads.to_json())
        .set("write_windows", writes.to_json())
        .set("setup_s_samples", Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()))
        .set("error_share", if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 })
        .set(
            "premise",
            Json::obj()
                .set("plan_cache_hit_rate", hit_rate)
                .set("plan_cache_stale_share", stale_share(plans))
                .set("prepared_cache_hit_rate", prepared.hit_rate())
                .set("queries_logged", queries_seen as i64)
                .set("reads_attempted", reads_attempted as i64)
                .set(
                    "failures",
                    Json::Arr(premise_failures.iter().map(|s| Json::from(s.as_str())).collect()),
                ),
        )
        .set(
            "answers",
            Json::obj()
                .set("oracle_checked", answers.oracle_checked as i64)
                .set("oracle_skipped_cost", answers.oracle_skipped_cost as i64)
                .set("equivalence_checked", answers.equivalence_checked as i64)
                .set("acked_targets_checked", answers.acked_targets_checked as i64)
                .set("seconds", checks_s)
                .set(
                    "failures",
                    Json::Arr(answers.failures.iter().map(|s| Json::from(s.as_str())).collect()),
                )
                .set(
                    "known_defects",
                    Json::Arr(
                        answers.known_defects.iter().map(|s| Json::from(s.as_str())).collect(),
                    ),
                ),
        );

    let mut correct = premise_failures.is_empty() && answers.failures.is_empty();
    let metrics = if !args.trace {
        let too_few = |name: &str, n: usize| {
            format!(
                "{name}: {n} samples leave fewer than {} beyond p99; run longer",
                stats::MIN_BEYOND
            )
        };
        let (Some(read_p50), Some(read_p99)) = (reads.p50, reads.p99) else {
            return Err(too_few("read latency", reads.samples()));
        };
        Metrics::new()
            .add("setup_s", stats::median(setup_s), "s")
            .add("read_qps", reads.per_s, "ops/s")
            .add("read_p50_ms", read_p50, "ms")
            .add("read_p99_ms", read_p99, "ms")
            .add("peak_rss_mb", peak_rss_mb, "MB")
    } else {
        let replays = run::replay_misses(&fixture, misses, args.seed, epoch);
        if let Some(e) = &replays.failed {
            problems.push(e.clone());
            correct = false;
        }
        let spans = merge_traces(traced.iter().map(|l| &l.trace).chain([&replays.trace]));
        let unaccounted = trace::unaccounted_trees(&spans);
        let unjoined: u64 = traced.iter().map(|l| l.unjoined).sum();
        if unaccounted > 0 || unjoined > 0 {
            problems.push(format!(
                "{unaccounted} traces do not add up to their root; {unjoined} reads had no query-log record"
            ));
            correct = false;
        }
        let layers = trace::aggregate(&spans);
        let traced_totals = totals(&traced);
        let (rows_out, rows_scanned): (u64, u64) =
            traced.iter().fold((0, 0), |(o, s), l| (o + l.rows_out, s + l.rows_scanned));
        let mut m = Metrics::new();
        let mut layer_samples = Json::obj();
        for &(metric, span) in SPAN_METRICS {
            let layer = layers.get(span).cloned().unwrap_or_default();
            let samples = stats::sorted(layer.self_us.clone());
            let p50 = stats::percentile(&samples, 0.5);
            let p99 = stats::percentile(&samples, 0.99);
            layer_samples = layer_samples.set(
                metric,
                Json::obj()
                    .set("samples", samples.len() as i64)
                    .set("p50_reported", p50.is_some())
                    .set("p99_reported", p99.is_some()),
            );
            m = m
                .add(&format!("{metric}.p50_us"), p50.unwrap_or(0.0), "us")
                .add(&format!("{metric}.p99_us"), p99.unwrap_or(0.0), "us")
                .add(&format!("{metric}.share"), layer.share(), "fraction");
        }
        let traced_writes = traced_totals.writes_ok.max(1) as f64;
        meta = meta
            .set("layer_samples", layer_samples)
            .set("rows_out", rows_out as i64)
            .set("replayed_misses", replays.replayed as i64)
            .set("untraced_read_qps", qps(&totals(&untraced)))
            .set("traced_read_qps", qps(&traced_totals));
        m.add(
            "engine.rows_scanned_per_row_out",
            rows_scanned as f64 / rows_out.max(1) as f64,
            "ratio",
        )
        .add("core.selected_k", replays.selected_k_mean, "count")
        .add("service.prepared_cache.hit_rate", prepared.hit_rate(), "fraction")
        .add("service.plan_cache.hit_rate", hit_rate, "fraction")
        .add("service.plan_cache.stale_share", stale_share(plans), "fraction")
        .add("storage.wal_bytes_per_write", wal.appended as f64 / traced_writes, "B")
        .add(
            "repl.follower_lag_max",
            traced.iter().map(|l| l.lag_max).max().unwrap_or(0) as f64,
            "count",
        )
        .add(
            "tracing.overhead",
            qps(&traced_totals) / qps(&totals(&untraced)) - 1.0,
            "fraction",
        )
    };
    meta =
        meta.set("problems", Json::Arr(problems.iter().map(|s| Json::from(s.as_str())).collect()));
    for p in premise_failures.iter().chain(&answers.failures).chain(&problems) {
        eprintln!("perfbench: {p}");
    }
    for d in &answers.known_defects {
        eprintln!("perfbench: {d}");
    }
    fixture.teardown();

    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", attempted as i64)
        .set("failed", failed as i64)
        .set("metrics", metrics.0);
    Ok(vec![Json::obj().set("run", meta).render(), result.render()])
}

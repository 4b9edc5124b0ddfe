//! The timed phase: closed-loop clients replaying their sequences, timed
//! around each public call, with optional span recording and the
//! out-of-band replay of plan-cache misses through the layers' own entry
//! points.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pqp_core::{personalize_prepared_ctx, InMemoryGraph, Profile, QueryGraph, Rewrite};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::QueryCtx;
use pqp_service::{Answer, CacheOutcome, QueryApi, QueryRecord, Service};

use crate::trace::{Trace, REPLAY_ROOT};
use crate::workload::{options, Conn, Fixture, Op};

/// At most this many recorded misses are replayed per run.
const MAX_REPLAYS: usize = 1000;

/// Span names. A request's root span is the public call; its self time is
/// the serving layer's own work (`service.query`) or, over TCP, the wire's
/// (`wire.query`).
pub const SPAN_SERVICE_QUERY: &str = "service.query";
pub const SPAN_WIRE_QUERY: &str = "wire.query";
pub const SPAN_WIRE_MUTATE: &str = "wire.mutate";

/// A plan-cache miss seen by a traced read: the key, plus the profile as it
/// was at the time when profiles change during the run.
pub struct Miss {
    user: u32,
    text: u16,
    profile: Option<Profile>,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed, relative to the phase start.
    pub done: Duration,
    /// Its latency; `f64::INFINITY` when it failed, so a failure misses
    /// any latency limit.
    pub ms: f64,
}

impl Sample {
    fn new(start: Instant, t0: Instant, t1: Instant, ok: bool) -> Sample {
        let ms = if ok { (t1 - t0).as_secs_f64() * 1e3 } else { f64::INFINITY };
        Sample { done: t1 - start, ms }
    }

    pub fn failed(&self) -> bool {
        !self.ms.is_finite()
    }
}

/// What one client did in one phase.
#[derive(Default)]
pub struct ClientLog {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    pub first_error: Option<String>,
    /// Acked writes in order: (target, doi).
    pub acked: Vec<(u16, f64)>,
    pub elapsed: Duration,
    pub rows_out: u64,
    pub rows_scanned: u64,
    pub trace: Trace,
    pub misses: Vec<Miss>,
    /// Reads whose query-log record could not be found.
    pub unjoined: u64,
    pub lag_max: u64,
}

impl ClientLog {
    fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        if self.first_error.is_none() {
            self.first_error = Some(format!("{what}: {err}"));
        }
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// The query-log record of a read that just returned: the newest record of
/// this user and canonical text that no other read has claimed.
fn join_record(
    service: &Service,
    claimed: &Mutex<HashSet<u64>>,
    user: &str,
    canonical: &str,
) -> Option<std::sync::Arc<QueryRecord>> {
    let recent = service.telemetry().log().recent(32);
    let mut claimed = claimed.lock().unwrap_or_else(|e| e.into_inner());
    let record = recent
        .into_iter()
        .find(|r| r.user == user && r.sql == canonical && !claimed.contains(&r.seq))?;
    claimed.insert(record.seq);
    Some(record)
}

struct Shared<'a> {
    fixture: &'a Fixture,
    epoch: Instant,
    traced: bool,
    claimed: Mutex<HashSet<u64>>,
    wal: Mutex<WalMeter>,
}

/// Bytes appended to the leader's WAL file, summed over the growth seen
/// between samples (a snapshot truncating the log is not negative growth).
#[derive(Default)]
pub struct WalMeter {
    last: u64,
    pub appended: u64,
}

impl WalMeter {
    fn sample(&mut self, len: u64) {
        self.appended += len.saturating_sub(self.last);
        self.last = len;
    }
}

fn wal_len(f: &Fixture) -> Option<u64> {
    let c = f.cluster.as_ref()?;
    std::fs::metadata(c.leader_dir.join(pqp_storage::wal::WAL_FILE)).ok().map(|m| m.len())
}

impl Shared<'_> {
    fn record_read(
        &self,
        log: &mut ClientLog,
        user: usize,
        text: usize,
        t0: u64,
        t1: u64,
        answer: &Answer,
    ) {
        let f = self.fixture;
        let tcp = f.cluster.is_some();
        let root =
            log.trace.push(if tcp { SPAN_WIRE_QUERY } else { SPAN_SERVICE_QUERY }, None, t0, t1);
        let Some(rec) =
            join_record(&f.service, &self.claimed, f.users[user].as_str(), &f.canonical[text])
        else {
            log.unjoined += 1;
            return;
        };
        let p = rec.phases;
        let phases = [
            ("service.parse", p.parse_us * 1000),
            ("service.personalize", p.personalize_us * 1000),
            ("service.plan", p.plan_us * 1000),
            ("service.execute", p.execute_us * 1000),
        ];
        let parent = if tcp {
            // The server's share of the round trip, centred in it: the wire
            // time on either side is not split further.
            let total = (p.total_us * 1000).min(t1 - t0);
            let start = t0 + (t1 - t0 - total) / 2;
            log.trace.push(SPAN_SERVICE_QUERY, Some(root), start, start + total)
        } else {
            root
        };
        let start = log.trace.spans[parent].start_ns;
        log.trace.push_sequential(parent, start, &phases);
        if answer.meta.cache != CacheOutcome::Hit {
            let profile = if tcp { f.service.profile(f.users[user].clone()) } else { None };
            log.misses.push(Miss { user: user as u32, text: text as u16, profile });
        }
    }

    fn client_loop(
        &self,
        client: usize,
        conn: &mut Conn,
        ops: &[Op],
        cursor: &mut usize,
        dur: Duration,
        barrier: &Barrier,
    ) -> ClientLog {
        let f = self.fixture;
        let mut log = ClientLog::default();
        barrier.wait();
        let start = Instant::now();
        let deadline = start + dur;
        while Instant::now() < deadline {
            let op = ops[*cursor % ops.len()];
            *cursor += 1;
            match op {
                Op::Read { user, text } => {
                    let (user, text) = (user as usize, text as usize);
                    let sql = f.texts[text].as_str();
                    let t0;
                    let result = match conn {
                        Conn::InProc => {
                            let session = f.service.session(f.users[user].clone());
                            t0 = Instant::now();
                            session.query(sql)
                        }
                        Conn::Tcp(client) => {
                            t0 = Instant::now();
                            client.query_with(sql, None, None)
                        }
                    };
                    let t1 = Instant::now();
                    log.reads.push(Sample::new(start, t0, t1, result.is_ok()));
                    match result {
                        Ok(answer) => {
                            log.rows_out += answer.rows.rows.len() as u64;
                            log.rows_scanned += answer.meta.rows_scanned;
                            if self.traced {
                                let (a, b) = (ns_since(self.epoch, t0), ns_since(self.epoch, t1));
                                self.record_read(&mut log, user, text, a, b, &answer);
                            }
                        }
                        Err(e) => log.fail("read", e),
                    }
                }
                Op::Write { target, doi } => {
                    let Conn::Tcp(wire) = conn else {
                        unreachable!("only the wire clients of mutate_tcp write")
                    };
                    let t = &f.write_targets[client][target as usize];
                    let value = t.value.clone();
                    let t0 = Instant::now();
                    let result = wire.add_selection(&t.table, &t.column, value, doi);
                    let t1 = Instant::now();
                    log.writes.push(Sample::new(start, t0, t1, result.is_ok()));
                    match result {
                        Ok(()) => {
                            log.acked.push((target, doi));
                            if self.traced {
                                log.trace.push(
                                    SPAN_WIRE_MUTATE,
                                    None,
                                    ns_since(self.epoch, t0),
                                    ns_since(self.epoch, t1),
                                );
                                if let Some(len) = wal_len(f) {
                                    self.wal.lock().unwrap_or_else(|e| e.into_inner()).sample(len);
                                }
                                if let Some(c) = &f.cluster {
                                    let lag = c
                                        .leader_node
                                        .status()
                                        .last_seq
                                        .saturating_sub(c.follower_node.status().last_seq);
                                    log.lag_max = log.lag_max.max(lag);
                                }
                            }
                        }
                        Err(e) => log.fail("write", e),
                    }
                }
            }
        }
        log.elapsed = start.elapsed();
        log
    }
}

/// Run every client's closed loop for `dur`, continuing each sequence from
/// its cursor. Spans, and the WAL growth, are recorded when `traced`.
pub fn phase(
    fixture: &mut Fixture,
    seqs: &[Vec<Op>],
    cursors: &mut [usize],
    dur: Duration,
    traced: bool,
    epoch: Instant,
) -> (Vec<ClientLog>, WalMeter) {
    let mut conns = std::mem::take(&mut fixture.conns);
    let wal = WalMeter { last: wal_len(fixture).unwrap_or(0), appended: 0 };
    let shared = Shared {
        fixture,
        epoch,
        traced,
        claimed: Mutex::new(HashSet::new()),
        wal: Mutex::new(wal),
    };
    let barrier = Barrier::new(seqs.len());
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(seqs)
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, ((conn, ops), cursor))| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || shared.client_loop(c, conn, ops, cursor, dur, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.fail("client", "thread panicked");
                    log
                })
            })
            .collect()
    });
    let wal = shared.wal.into_inner().unwrap_or_else(|e| e.into_inner());
    fixture.conns = conns;
    (logs, wal)
}

/// The timed steps of one replay: (span name, start, end).
type Steps = Vec<(&'static str, Instant, Instant)>;

/// Replayed misses, as spans, plus the mean K they selected.
pub struct Replays {
    pub trace: Trace,
    pub replayed: usize,
    pub selected_k_mean: f64,
    pub failed: Option<String>,
}

/// Replay a seeded sample of the recorded misses through the layers' public
/// functions, one span per layer, outside any request's time: graph build,
/// selection, MQ integration, planning and execution. This splits the
/// service's `personalize` and `plan` phases into the paper's steps.
pub fn replay_misses(
    fixture: &Fixture,
    mut misses: Vec<Miss>,
    seed: u64,
    epoch: Instant,
) -> Replays {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F4E_71A7);
    for i in (1..misses.len()).rev() {
        misses.swap(i, rng.gen_index(i + 1));
    }
    misses.truncate(MAX_REPLAYS);
    let service = &fixture.service;
    let db = service.database();
    let catalog = db.catalog();
    let mut out =
        Replays { trace: Trace::default(), replayed: 0, selected_k_mean: 0.0, failed: None };
    let mut k_total = 0usize;
    for miss in misses {
        let user = &fixture.users[miss.user as usize];
        let profile = miss
            .profile
            .or_else(|| service.profile(user.clone()))
            .unwrap_or_else(|| Profile::new(user.as_str()));
        let sql = &fixture.texts[miss.text as usize];
        let prepared = pqp_sql::parse_query(sql).map_err(|e| e.to_string()).and_then(|q| {
            let select = q.as_select().cloned().ok_or_else(|| "not a SELECT".to_string())?;
            let qg = QueryGraph::from_select(&select, catalog).map_err(|e| e.to_string())?;
            Ok((select, qg))
        });
        let step = || -> Result<(Steps, usize), String> {
            let (select, qg) = prepared.clone()?;
            let err = |e: &dyn std::fmt::Display| e.to_string();
            let t0 = Instant::now();
            let graph = InMemoryGraph::build(&profile, catalog).map_err(|e| err(&e))?;
            let t1 = Instant::now();
            let p =
                personalize_prepared_ctx(&select, &qg, &graph, options(), &QueryCtx::unlimited())
                    .map_err(|e| err(&e))?;
            let t2 = Instant::now();
            let mq = p.rewritten(Rewrite::Mq).map_err(|e| err(&e))?;
            let t3 = Instant::now();
            let plan = db.plan(&mq).map_err(|e| err(&e))?;
            let t4 = Instant::now();
            std::hint::black_box(
                db.run_plan_ctx(&plan, &service.config().exec, &QueryCtx::unlimited())
                    .map_err(|e| err(&e))?,
            );
            let t5 = Instant::now();
            let steps = vec![
                ("core.graph_build", t0, t1),
                ("core.select", t1, t2),
                ("core.integrate", t2, t3),
                ("engine.plan", t3, t4),
                ("engine.execute", t4, t5),
            ];
            Ok((steps, p.k()))
        };
        match step() {
            Ok((steps, k)) => {
                let (first, last) = (steps[0].1, steps[steps.len() - 1].2);
                let root = out.trace.push(
                    REPLAY_ROOT,
                    None,
                    ns_since(epoch, first),
                    ns_since(epoch, last),
                );
                for (name, a, b) in steps {
                    out.trace.push(name, Some(root), ns_since(epoch, a), ns_since(epoch, b));
                }
                out.replayed += 1;
                k_total += k;
            }
            Err(e) => {
                out.failed.get_or_insert(format!("replay of `{sql}` for {user}: {e}"));
            }
        }
    }
    if out.replayed > 0 {
        out.selected_k_mean = k_total as f64 / out.replayed as f64;
    }
    out
}

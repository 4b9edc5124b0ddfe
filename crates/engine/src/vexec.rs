//! Batched (vectorized) execution: the engine's executor.
//!
//! Operators here process column-oriented [`Batch`]es of
//! ~[`pqp_storage::BATCH_SIZE`] rows instead of one boxed tuple at a time:
//! scans decode datum-encoded rows straight into column vectors
//! ([`BatchBuilder::push_encoded`]), filters evaluate selection vectors
//! over columns (`crate::vexpr`), and hash-join probes gather matched rows
//! column-wise — a memcpy per numeric column and a refcount bump per
//! string, never a per-row `Vec<Value>` allocation. Index scans and
//! index-nested-loop joins decode their hits the same way, from the raw
//! heap bytes an index points at ([`Table::index_lookup_raw`],
//! [`Table::get_raw`]), and a join splices each batch of hits with the
//! probe rows they matched through a probe selection vector.
//!
//! ## Determinism contract
//!
//! For every plan, [`run_root`] returns the same rows in the same order
//! under any thread budget. The mechanics:
//!
//! - batches preserve scan order, and every operator consumes/emits batch
//!   lists in order, so row order is the serial order by construction;
//! - operators that are not vectorized (aggregate, sort, distinct, cross
//!   join, union, TopK) materialize their input and run the row helpers in
//!   `exec`; a filter, projection or join above them re-batches their
//!   output ([`Out::into_batches`]);
//! - index paths take their access-path decisions (the runtime index-join
//!   sniff, the 4× probe-size guard, the dropped-index fallbacks) from the
//!   shared functions in `exec`, emit in probe order then index order, and
//!   record their strategy on the span (`table`, `strategy`,
//!   `probe_rows`);
//! - expression evaluation defers to `crate::vexpr`, whose kernels are
//!   identical to per-row `BoundExpr::eval` or fall back to it;
//! - parallel paths use the `par` module's worker plumbing over contiguous
//!   page-range scan partitions and contiguous batch chunks, always merged
//!   in partition order.
//!
//! The differential suites hold this executor to the naive interpreter
//! (`crate::naive`), which shares no operator code with it.
//!
//! ## Governor contract
//!
//! The **batch boundary is the governor checkpoint**: scans and index
//! fetches charge rows per flushed batch (every fetched row, before any
//! filter), hash joins charge each output batch's actual
//! [`Batch::mem_bytes`], and every per-batch loop checkpoints between
//! batches; row loops that do not see batches (index probes, join-map
//! builds, the row helpers) checkpoint every
//! [`pqp_obs::governor::CHECKPOINT_STRIDE`] iterations. The `join.build`,
//! `storage.scan` and `par.worker` failpoints fire at the join build, the
//! heap scan and each parallel worker's entry.

use crate::bound::BoundExpr;
use crate::error::{bind_err, failpoint, Result};
use crate::exec::{self, Env};
use crate::par;
use crate::plan::Plan;
use crate::vexpr;
use pqp_obs::governor::CHECKPOINT_STRIDE;
use pqp_obs::QueryCtx;
use pqp_storage::{
    Batch, BatchBuilder, Column, ColumnData, HashIndex, Row, Table, Value, BATCH_SIZE,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An operator's materialized output: batches from the vectorized
/// operators, rows from the row helpers (aggregate, sort, distinct, cross
/// join, union, TopK). A vectorized operator over row output re-batches
/// it ([`Out::into_batches`]).
pub(crate) enum Out {
    B(Vec<Batch>),
    R(Vec<Row>),
}

impl Out {
    fn len(&self) -> usize {
        match self {
            Out::B(bats) => bats.iter().map(Batch::len).sum(),
            Out::R(rows) => rows.len(),
        }
    }

    /// The output as batches; rows are re-batched ([`Batch::from_rows`]
    /// round-trips every value exactly).
    fn into_batches(self) -> Vec<Batch> {
        match self {
            Out::B(bats) => bats,
            Out::R(rows) => {
                let arity = rows.first().map_or(0, Vec::len);
                rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, arity)).collect()
            }
        }
    }

    fn into_rows(self) -> Vec<Row> {
        match self {
            Out::B(bats) => {
                let mut out = Vec::new();
                for b in &bats {
                    b.append_rows(&mut out);
                }
                out
            }
            Out::R(rows) => rows,
        }
    }
}

/// Execute a plan, materializing all rows.
pub(crate) fn run_root(env: &Env, plan: &Plan) -> Result<Vec<Row>> {
    Ok(run_b(env, plan)?.into_rows())
}

/// The recursive workhorse: span + estimate bookkeeping around
/// [`execute_vop`], plus the per-operator governor checkpoint.
///
/// Every operator runs under an observability span named `exec.<op>` with
/// its output cardinality recorded, so a traced run yields per-operator
/// rows and timings (`EXPLAIN ANALYZE`).
pub(crate) fn run_b(env: &Env, plan: &Plan) -> Result<Out> {
    env.ctx.checkpoint()?;
    let _span = pqp_obs::span(exec::op_name(plan));
    if pqp_obs::trace_active() {
        // Planner estimate alongside the actual rows_out: EXPLAIN ANALYZE
        // consumers compute per-operator Q-error from the pair. Only paid
        // when a trace is being collected.
        let est = crate::cost::Estimator::new(env.catalog).rows(plan);
        pqp_obs::record("est_rows", est.round() as i64);
    }
    let out = execute_vop(env, plan)?;
    pqp_obs::record("rows_out", out.len());
    Ok(out)
}

fn execute_vop(env: &Env, plan: &Plan) -> Result<Out> {
    let ctx = env.ctx;
    match plan {
        Plan::Empty { .. } => Ok(Out::R(Vec::new())),
        Plan::Scan { table, filter, .. } => {
            pqp_obs::record("table", table.as_str());
            vscan(env, table, filter.as_ref())
        }
        Plan::IndexScan { table, column, key, residual, .. } => {
            pqp_obs::record("table", table.as_str());
            vindex_scan(env, table, column, key, residual.as_ref())
        }
        Plan::IndexJoin { probe, probe_key, table, column, filter, probe_is_left, .. } => {
            let probe = run_b(env, probe)?;
            vindex_join(env, probe, *probe_key, table, column, filter.as_ref(), *probe_is_left)
        }
        Plan::Filter { input, predicate } => {
            let input = run_b(env, input)?;
            pqp_obs::record("rows_in", input.len());
            let bats = input.into_batches();
            Ok(Out::B(map_batches(env, bats, |b| filter_one(b, predicate))?))
        }
        Plan::HashJoin { left, right, left_keys, right_keys, .. } => {
            // Index-nested-loop when one side is a base-table scan with a
            // hash index on its (single) join column and the other side is
            // small relative to it — the access path that makes selective
            // personalized partials cheap (paper §7, Fig. 10).
            if right_keys.len() == 1 {
                if let Some(out) = try_vindex_join(env, left, right, left_keys, right_keys, true)? {
                    return Ok(out);
                }
                if let Some(out) = try_vindex_join(env, right, left, right_keys, left_keys, false)?
                {
                    return Ok(out);
                }
            }
            let l = run_b(env, left)?;
            let r = run_b(env, right)?;
            pqp_obs::record("left_rows", l.len());
            pqp_obs::record("right_rows", r.len());
            hash_join_out(env, l, r, left_keys, right_keys)
        }
        Plan::CrossJoin { left, right, .. } => {
            let l = run_b(env, left)?.into_rows();
            let r = run_b(env, right)?.into_rows();
            pqp_obs::record("left_rows", l.len());
            pqp_obs::record("right_rows", r.len());
            Ok(Out::R(exec::cross_join_rows(ctx, l, r)?))
        }
        Plan::Project { input, exprs, .. } => {
            let bats = run_b(env, input)?.into_batches();
            Ok(Out::B(map_batches(env, bats, |b| Ok(Some(vexpr::project_batch(exprs, &b)?)))?))
        }
        Plan::Aggregate { input, group_by, aggs, .. } => {
            let rows = run_b(env, input)?.into_rows();
            pqp_obs::record("rows_in", rows.len());
            Ok(Out::R(exec::aggregate(rows, group_by, aggs, ctx)?))
        }
        Plan::Distinct { input } => {
            Ok(Out::R(exec::distinct_rows(ctx, run_b(env, input)?.into_rows())?))
        }
        Plan::Sort { input, keys } => {
            let mut rows = run_b(env, input)?.into_rows();
            exec::sort_rows(&mut rows, keys);
            Ok(Out::R(rows))
        }
        Plan::Limit { input, n } => match run_b(env, input)? {
            Out::B(bats) => Ok(Out::B(truncate_batches(bats, *n as usize))),
            Out::R(mut rows) => {
                rows.truncate(*n as usize);
                Ok(Out::R(rows))
            }
        },
        Plan::Union { inputs, all, .. } => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(run_b(env, i)?.into_rows());
                ctx.checkpoint()?;
            }
            if !*all {
                let mut seen = HashSet::with_capacity(out.len());
                out.retain(|row| seen.insert(row.clone()));
            }
            Ok(Out::R(out))
        }
        Plan::TopK { base, probes, visible, matching, rank, limit, .. } => {
            // The operator consumes its base through `run_b` itself (batch
            // boundaries are its checkpoint cadence), so this arm only
            // adapts the output shape.
            Ok(Out::R(crate::topk::execute(env, base, probes, *visible, matching, *rank, *limit)?))
        }
    }
}

/// Keep only the first `n` rows of a batch list.
fn truncate_batches(bats: Vec<Batch>, n: usize) -> Vec<Batch> {
    let mut kept = Vec::new();
    let mut total = 0;
    for mut b in bats {
        if total >= n {
            break;
        }
        if total + b.len() > n {
            b.truncate(n - total);
        }
        total += b.len();
        kept.push(b);
    }
    kept
}

// ---------------------------------------------------------------- scan ----

/// Batched base-table scan, using a hash index for an equality conjunct of
/// the pushed-down filter when one exists; otherwise a full (possibly
/// partitioned-parallel) heap scan. The heap is read as raw datum-encoded
/// bytes and decoded straight into column vectors.
fn vscan(env: &Env, table: &str, filter: Option<&BoundExpr>) -> Result<Out> {
    let ctx = env.ctx;
    let t = env.catalog.table(table)?;
    let t = t.read();
    let arity = t.schema().arity();
    if let Some(f) = filter {
        // An indexed equality conjunct turns the scan into a lookup, and the
        // whole filter runs per batch over the fetched rows.
        if let Some((name, key)) = exec::indexed_eq_conjunct(&t, f) {
            if let Some(hits) = t.index_lookup_raw(name, key) {
                return Ok(Out::B(fetch_rows(arity, hits, Some(f), ctx)?));
            }
        }
    }
    if let Some(parts) = env.opts.partitions_for(t.len()) {
        // Morsel unit is a page: at most one partition per page.
        let parts = parts.min(t.page_count());
        if parts >= 2 {
            return Ok(Out::B(scan_partitioned(&t, filter, arity, parts, ctx)?));
        }
    }
    let mut out = Vec::new();
    let mut b = BatchBuilder::new(arity);
    for enc in t.iter_raw() {
        b.push_encoded(enc?)?;
        if b.is_full() {
            flush(&mut b, filter, ctx, &mut out)?;
        }
    }
    flush(&mut b, filter, ctx, &mut out)?;
    Ok(Out::B(out))
}

/// Finish the builder's batch, charge its rows to the governor (the batch
/// boundary is the charge point), apply the pushed-down filter, and keep
/// the batch if any rows survive.
fn flush(
    b: &mut BatchBuilder,
    filter: Option<&BoundExpr>,
    ctx: &QueryCtx,
    out: &mut Vec<Batch>,
) -> Result<()> {
    if b.is_empty() {
        return Ok(());
    }
    let batch = b.finish();
    ctx.charge_rows(batch.len() as u64)?;
    let batch = match filter {
        Some(f) => {
            let sel = vexpr::select_true(f, &batch)?;
            if sel.is_empty() {
                return Ok(());
            }
            if sel.len() == batch.len() {
                batch
            } else {
                batch.gather(&sel)
            }
        }
        None => batch,
    };
    out.push(batch);
    Ok(())
}

/// Parallel partitioned batched scan: one worker per contiguous page range,
/// partitions merged in page order = serial scan order.
fn scan_partitioned(
    t: &Table,
    filter: Option<&BoundExpr>,
    arity: usize,
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Batch>> {
    par::count_workers(parts);
    pqp_obs::counter_add("exec.scan.partitions", parts as i64);
    let results: Vec<Result<Vec<Batch>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|p| {
                s.spawn(move || -> Result<Vec<Batch>> {
                    par::worker_failpoint()?;
                    let mut out = Vec::new();
                    let mut b = BatchBuilder::new(arity);
                    for enc in t.iter_raw_partition(p, parts) {
                        b.push_encoded(enc?)?;
                        if b.is_full() {
                            flush(&mut b, filter, ctx, &mut out)?;
                        }
                    }
                    flush(&mut b, filter, ctx, &mut out)?;
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(par::join_worker).collect()
    });
    let per_part: Vec<Vec<Batch>> = results.into_iter().collect::<Result<_>>()?;
    let sizes: Vec<usize> = per_part.iter().map(|c| c.iter().map(Batch::len).sum()).collect();
    par::record_partitions(&sizes);
    Ok(per_part.into_iter().flatten().collect())
}

// -------------------------------------------------------- index paths ----

/// Decode fetched rows (index hits, as raw heap bytes) into batches. Each
/// batch is charged and filtered at its boundary exactly like a heap
/// scan's: every row fetched is charged, before the filter.
fn fetch_rows<'a>(
    arity: usize,
    rows: impl Iterator<Item = &'a [u8]>,
    filter: Option<&BoundExpr>,
    ctx: &QueryCtx,
) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    let mut b = BatchBuilder::new(arity);
    for enc in rows {
        b.push_encoded(enc)?;
        if b.is_full() {
            flush(&mut b, filter, ctx, &mut out)?;
        }
    }
    flush(&mut b, filter, ctx, &mut out)?;
    Ok(out)
}

/// Batched [`Plan::IndexScan`]: an index point lookup decoded straight into
/// batches, the residual filter applied per batch. When the index was
/// dropped after planning, a scan with the reconstructed predicate.
fn vindex_scan(
    env: &Env,
    table: &str,
    column: &str,
    key: &Value,
    residual: Option<&BoundExpr>,
) -> Result<Out> {
    let t = env.catalog.table(table)?;
    let t = t.read();
    if let Some(hits) = t.index_lookup_raw(column, key) {
        pqp_obs::record("strategy", "index_scan");
        return Ok(Out::B(fetch_rows(t.schema().arity(), hits, residual, env.ctx)?));
    }
    let pred = exec::index_scan_predicate(&t, column, key, residual)?;
    drop(t);
    vscan(env, table, Some(&pred))
}

/// Index-nested-loop join sniffed at runtime: execute `probe`, and for
/// each probe row fetch matches from `scan_side` (the shape test is
/// `exec::sniff_index_join`, the size guard `exec::index_probe_pays`).
/// `Ok(None)` hands the join back to the hash join.
fn try_vindex_join(
    env: &Env,
    probe: &Plan,
    scan_side: &Plan,
    probe_keys: &[usize],
    scan_keys: &[usize],
    probe_is_left: bool,
) -> Result<Option<Out>> {
    let Some(exec::IndexedSide { table, filter, column, rows }) =
        exec::sniff_index_join(env, scan_side, scan_keys)?
    else {
        return Ok(None);
    };
    let probe = run_b(env, probe)?;
    if !exec::index_probe_pays(probe.len(), rows) {
        // Hash the already-computed probe side against a scan instead of
        // re-executing the probe subtree.
        let scan = vscan(env, table, filter)?;
        return hash_join_oriented(env, probe, scan, probe_keys, scan_keys, probe_is_left)
            .map(Some);
    }
    let t = env.catalog.table(table)?;
    let t = t.read();
    let Some(idx) = t.index_on(&column) else {
        return Ok(None);
    };
    let out = index_probe(env.ctx, &t, idx, probe, probe_keys[0], filter, probe_is_left)?;
    Ok(Some(Out::B(out)))
}

/// A planner-chosen [`Plan::IndexJoin`] over already-executed probe
/// output. The runtime guard stays: a probe side large relative to the
/// table, or an index missing at runtime, falls back to hashing.
fn vindex_join(
    env: &Env,
    probe: Out,
    probe_key: usize,
    table: &str,
    column: &str,
    filter: Option<&BoundExpr>,
    probe_is_left: bool,
) -> Result<Out> {
    pqp_obs::record("table", table);
    let tref = env.catalog.table(table)?;
    let t = tref.read();
    let Some(scan_key) = t.schema().column_index(column) else {
        return bind_err(format!("unknown column `{column}` in `{table}`"));
    };
    if let Some(idx) = t.index_on(column) {
        if exec::index_probe_pays(probe.len(), t.len()) {
            let out = index_probe(env.ctx, &t, idx, probe, probe_key, filter, probe_is_left)?;
            return Ok(Out::B(out));
        }
    }
    drop(t);
    pqp_obs::record("strategy", "hash_fallback");
    let scan = vscan(env, table, filter)?;
    hash_join_oriented(env, probe, scan, &[probe_key], &[scan_key], probe_is_left)
}

/// The index-nested-loop probe. Each probe row's key is looked up in `idx`;
/// its hits are decoded from heap bytes into a builder while a selection
/// vector records which probe row each hit belongs to. A full builder (and
/// the end of each probe batch) is flushed: the hits are charged as
/// scanned rows, filtered per batch, and spliced column by column with the
/// matching probe rows in `left ++ right` order. Output order is probe
/// order, then index order.
fn index_probe(
    ctx: &QueryCtx,
    t: &Table,
    idx: &HashIndex,
    probe: Out,
    probe_key: usize,
    filter: Option<&BoundExpr>,
    probe_is_left: bool,
) -> Result<Vec<Batch>> {
    pqp_obs::record("strategy", "index_nested_loop");
    pqp_obs::record("probe_rows", probe.len());
    let mut out = Vec::new();
    let mut hits = BatchBuilder::new(t.schema().arity());
    let mut psel: Vec<u32> = Vec::new();
    let mut key = Value::Null;
    let mut probed = 0usize;
    for pb in probe.into_batches() {
        let keys = pb.column(probe_key);
        for i in 0..pb.len() {
            if probed & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.checkpoint()?;
            }
            probed += 1;
            if !load_key(keys, i, &mut key) {
                continue; // SQL equi-join semantics: NULL never matches.
            }
            for &id in idx.lookup(std::slice::from_ref(&key)) {
                let Some(enc) = t.get_raw(id) else {
                    continue;
                };
                hits.push_encoded(enc)?;
                psel.push(i as u32);
                if hits.is_full() {
                    flush_probe(&mut hits, &mut psel, &pb, filter, probe_is_left, ctx, &mut out)?;
                }
            }
        }
        flush_probe(&mut hits, &mut psel, &pb, filter, probe_is_left, ctx, &mut out)?;
    }
    Ok(out)
}

/// Finish the probe's pending hits: charge them, filter them, and splice
/// the survivors with their probe rows (`psel`) into one output batch.
fn flush_probe(
    hits: &mut BatchBuilder,
    psel: &mut Vec<u32>,
    pb: &Batch,
    filter: Option<&BoundExpr>,
    probe_is_left: bool,
    ctx: &QueryCtx,
    out: &mut Vec<Batch>,
) -> Result<()> {
    if hits.is_empty() {
        return Ok(());
    }
    let hb = hits.finish();
    let mut sel = std::mem::take(psel);
    ctx.charge_rows(hb.len() as u64)?;
    let hb = match filter {
        Some(f) => {
            let keep = vexpr::select_true(f, &hb)?;
            if keep.is_empty() {
                return Ok(());
            }
            if keep.len() == hb.len() {
                hb
            } else {
                sel = keep.iter().map(|&j| sel[j as usize]).collect();
                hb.gather(&keep)
            }
        }
        None => hb,
    };
    let pg = pb.gather(&sel);
    out.push(if probe_is_left { side_by_side(pg, hb) } else { side_by_side(hb, pg) });
    Ok(())
}

/// Load cell `i` of a probe key column into `key` for an index lookup,
/// reusing `key`'s string buffer. `false` for NULL.
fn load_key(col: &Column, i: usize, key: &mut Value) -> bool {
    if col.is_null(i) {
        return false;
    }
    match col.data() {
        ColumnData::Int(v) => *key = Value::Int(v[i]),
        ColumnData::Float(v) => *key = Value::Float(v[i]),
        ColumnData::Bool(v) => *key = Value::Bool(v[i]),
        ColumnData::Str(v) => match key {
            Value::Str(s) => {
                s.clear();
                s.push_str(&v[i]);
            }
            _ => *key = Value::Str(v[i].to_string()),
        },
        ColumnData::Val(v) => *key = v[i].clone(),
    }
    true
}

// ------------------------------------------------------- filter/project ----

fn filter_one(b: Batch, predicate: &BoundExpr) -> Result<Option<Batch>> {
    let sel = vexpr::select_true(predicate, &b)?;
    Ok(if sel.is_empty() {
        None
    } else if sel.len() == b.len() {
        Some(b)
    } else {
        Some(b.gather(&sel))
    })
}

/// Apply a per-batch transform over a batch list, in parallel contiguous
/// chunks when the thread budget and total row count allow (merged in
/// chunk order), with a governor checkpoint per batch either way.
fn map_batches<F>(env: &Env, bats: Vec<Batch>, f: F) -> Result<Vec<Batch>>
where
    F: Fn(Batch) -> Result<Option<Batch>> + Sync,
{
    let ctx = env.ctx;
    let total: usize = bats.iter().map(Batch::len).sum();
    let Some(parts) = env.opts.partitions_for(total) else {
        let mut out = Vec::new();
        for b in bats {
            ctx.checkpoint()?;
            if let Some(nb) = f(b)? {
                out.push(nb);
            }
        }
        return Ok(out);
    };
    let chunks = chunk_batches(bats, parts);
    par::count_workers(chunks.len());
    let f = &f;
    let results: Vec<Result<Vec<Batch>>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || -> Result<Vec<Batch>> {
                    par::worker_failpoint()?;
                    let mut out = Vec::new();
                    for b in chunk {
                        ctx.checkpoint()?;
                        if let Some(nb) = f(b)? {
                            out.push(nb);
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(par::join_worker).collect()
    });
    let per_chunk: Vec<Vec<Batch>> = results.into_iter().collect::<Result<_>>()?;
    let sizes: Vec<usize> = per_chunk.iter().map(|c| c.iter().map(Batch::len).sum()).collect();
    par::record_partitions(&sizes);
    Ok(per_chunk.into_iter().flatten().collect())
}

/// Split a batch list into at most `parts` contiguous chunks of roughly
/// equal row counts, preserving order across the concatenation.
fn chunk_batches(bats: Vec<Batch>, parts: usize) -> Vec<Vec<Batch>> {
    let total: usize = bats.iter().map(Batch::len).sum();
    let target = total.div_ceil(parts.max(1)).max(1);
    let mut chunks = Vec::with_capacity(parts);
    let mut cur = Vec::new();
    let mut cur_rows = 0;
    for b in bats {
        cur_rows += b.len();
        cur.push(b);
        if cur_rows >= target && chunks.len() + 1 < parts {
            chunks.push(std::mem::take(&mut cur));
            cur_rows = 0;
        }
    }
    if !cur.is_empty() || chunks.is_empty() {
        chunks.push(cur);
    }
    chunks
}

// ---------------------------------------------------------------- join ----

/// Multiplicative hasher for the typed join maps. std's SipHash buys
/// flood-resistance this engine doesn't need from its own heap pages, at
/// several times the cost per short fixed-size key; match order — and hence
/// output — is independent of the hash function, so this is invisible to
/// the equivalence contract.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut last = 0u64;
        for &b in chunks.remainder() {
            last = (last << 8) | b as u64;
        }
        self.add(last ^ bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxMap<K> = HashMap<K, Vec<u32>, std::hash::BuildHasherDefault<FxHasher>>;

/// The build side's hash table: build-row indices per key, match lists in
/// build-insertion order. Single-column `Int`/`Str` keys get dedicated maps
/// (no per-probe `Vec<Value>` allocation); everything else — multi-column
/// keys, `Val`-represented columns, and numeric columns of *different*
/// representations on the two sides (where `Int(5) = Float(5.0)` must
/// match, as `Value` equality says) — uses `Vec<Value>` keys.
enum JoinMap {
    Int(FxMap<i64>),
    Str(FxMap<Arc<str>>),
    Val(HashMap<Vec<Value>, Vec<u32>>),
}

/// Hash-join two operator outputs, re-batching row output.
fn hash_join_out(
    env: &Env,
    l: Out,
    r: Out,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Out> {
    Ok(Out::B(join_batches(env, l.into_batches(), r.into_batches(), left_keys, right_keys)?))
}

/// [`hash_join_out`] for a join whose sides an access-path decision named
/// probe and scan side: un-swaps them into the plan's `left ++ right`
/// orientation.
fn hash_join_oriented(
    env: &Env,
    probe: Out,
    scan: Out,
    probe_keys: &[usize],
    scan_keys: &[usize],
    probe_is_left: bool,
) -> Result<Out> {
    if probe_is_left {
        hash_join_out(env, probe, scan, probe_keys, scan_keys)
    } else {
        hash_join_out(env, scan, probe, scan_keys, probe_keys)
    }
}

/// Batched hash join. Build side = the smaller side, concatenated into one
/// batch on the coordinator; probe side streams batch-by-batch (parallel in
/// contiguous chunks when the budget allows), gathering matched rows
/// column-wise. Emission order is probe order then build-insertion order,
/// under any thread budget.
fn join_batches(
    env: &Env,
    lbats: Vec<Batch>,
    rbats: Vec<Batch>,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Vec<Batch>> {
    failpoint("join.build")?;
    let ctx = env.ctx;
    let ltotal: usize = lbats.iter().map(Batch::len).sum();
    let rtotal: usize = rbats.iter().map(Batch::len).sum();
    // Build on the smaller side; output column order is always left ++ right.
    let build_left = ltotal <= rtotal;
    let (build_bats, probe_bats, build_keys, probe_keys) = if build_left {
        (lbats, rbats, left_keys, right_keys)
    } else {
        (rbats, lbats, right_keys, left_keys)
    };
    let build = Batch::concat(build_bats);
    if build.is_empty() {
        return Ok(Vec::new());
    }
    let map = build_join_map(&build, build_keys, &probe_bats, probe_keys, ctx)?;

    let Some(parts) = env.opts.partitions_for(ltotal + rtotal) else {
        let mut out = Vec::new();
        for pb in probe_bats {
            ctx.checkpoint()?;
            let (psel, bsel) = probe_one(&pb, probe_keys, &map);
            if psel.is_empty() {
                continue;
            }
            let joined = splice(&build, &pb, &psel, &bsel, build_left);
            ctx.charge_mem(joined.mem_bytes())?;
            out.push(joined);
        }
        return Ok(out);
    };

    // Parallel probe: contiguous batch chunks merged in chunk order. All
    // observability happens on the coordinator (fields are thread-local).
    pqp_obs::record("strategy", "parallel_hash_join");
    pqp_obs::record("build_rows", build.len());
    let chunks = chunk_batches(probe_bats, parts);
    par::count_workers(chunks.len());
    let (map, build) = (&map, &build);
    let results: Vec<Result<Vec<Batch>>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || -> Result<Vec<Batch>> {
                    par::worker_failpoint()?;
                    let mut out = Vec::new();
                    for pb in chunk {
                        ctx.checkpoint()?;
                        let (psel, bsel) = probe_one(&pb, probe_keys, map);
                        if psel.is_empty() {
                            continue;
                        }
                        let joined = splice(build, &pb, &psel, &bsel, build_left);
                        ctx.charge_mem(joined.mem_bytes())?;
                        out.push(joined);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(par::join_worker).collect()
    });
    let per_chunk: Vec<Vec<Batch>> = results.into_iter().collect::<Result<_>>()?;
    let sizes: Vec<usize> = per_chunk.iter().map(|c| c.iter().map(Batch::len).sum()).collect();
    par::record_partitions(&sizes);
    Ok(per_chunk.into_iter().flatten().collect())
}

/// Build the hash table over the (concatenated) build batch. The typed
/// `Int`/`Str` maps apply only when the single key column has that typed
/// representation on the build side **and on every probe batch** — a
/// `Float` (or demoted `Val`) probe column must go through `Value` keys so
/// cross-representation numeric equality matches as `Value` equality
/// says.
fn build_join_map(
    build: &Batch,
    build_keys: &[usize],
    probe_bats: &[Batch],
    probe_keys: &[usize],
    ctx: &QueryCtx,
) -> Result<JoinMap> {
    if build_keys.len() == 1 {
        let bcol = build.column(build_keys[0]);
        let probe_all = |want: fn(&ColumnData) -> bool| {
            probe_bats.iter().all(|b| want(b.column(probe_keys[0]).data()))
        };
        match bcol.data() {
            ColumnData::Int(v) if probe_all(|d| matches!(d, ColumnData::Int(_))) => {
                let mut m: FxMap<i64> =
                    FxMap::with_capacity_and_hasher(v.len(), Default::default());
                for (i, &x) in v.iter().enumerate() {
                    if i & (CHECKPOINT_STRIDE - 1) == 0 {
                        ctx.checkpoint()?;
                    }
                    if bcol.is_null(i) {
                        continue; // SQL equi-join semantics: NULL never matches.
                    }
                    m.entry(x).or_default().push(i as u32);
                }
                return Ok(JoinMap::Int(m));
            }
            ColumnData::Str(v) if probe_all(|d| matches!(d, ColumnData::Str(_))) => {
                let mut m: FxMap<Arc<str>> =
                    FxMap::with_capacity_and_hasher(v.len(), Default::default());
                for (i, x) in v.iter().enumerate() {
                    if i & (CHECKPOINT_STRIDE - 1) == 0 {
                        ctx.checkpoint()?;
                    }
                    if bcol.is_null(i) {
                        continue;
                    }
                    m.entry(x.clone()).or_default().push(i as u32);
                }
                return Ok(JoinMap::Str(m));
            }
            _ => {}
        }
    }
    let mut m: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(build.len());
    for i in 0..build.len() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        if let Some(k) = key_at(build, build_keys, i) {
            m.entry(k).or_default().push(i as u32);
        }
    }
    Ok(JoinMap::Val(m))
}

/// The join key of row `i`, or `None` if any key column is NULL.
fn key_at(b: &Batch, keys: &[usize], i: usize) -> Option<Vec<Value>> {
    let mut out = Vec::with_capacity(keys.len());
    for &k in keys {
        let c = b.column(k);
        if c.is_null(i) {
            return None;
        }
        out.push(c.value(i));
    }
    Some(out)
}

/// Probe one batch against the build map, producing parallel selection
/// vectors: `psel[j]` is the probe row and `bsel[j]` the matching build row
/// of output row `j`.
fn probe_one(pb: &Batch, probe_keys: &[usize], map: &JoinMap) -> (Vec<u32>, Vec<u32>) {
    let mut psel = Vec::new();
    let mut bsel = Vec::new();
    match map {
        JoinMap::Int(m) => {
            let c = pb.column(probe_keys[0]);
            if let ColumnData::Int(v) = c.data() {
                for (i, x) in v.iter().enumerate() {
                    if c.is_null(i) {
                        continue;
                    }
                    if let Some(matches) = m.get(x) {
                        psel.extend(std::iter::repeat_n(i as u32, matches.len()));
                        bsel.extend_from_slice(matches);
                    }
                }
            }
        }
        JoinMap::Str(m) => {
            let c = pb.column(probe_keys[0]);
            if let ColumnData::Str(v) = c.data() {
                for (i, x) in v.iter().enumerate() {
                    if c.is_null(i) {
                        continue;
                    }
                    if let Some(matches) = m.get(x) {
                        psel.extend(std::iter::repeat_n(i as u32, matches.len()));
                        bsel.extend_from_slice(matches);
                    }
                }
            }
        }
        JoinMap::Val(m) => {
            for i in 0..pb.len() {
                let Some(k) = key_at(pb, probe_keys, i) else {
                    continue;
                };
                if let Some(matches) = m.get(&k) {
                    psel.extend(std::iter::repeat_n(i as u32, matches.len()));
                    bsel.extend_from_slice(matches);
                }
            }
        }
    }
    (psel, bsel)
}

/// Assemble a join output batch: gather both sides by their selection
/// vectors and splice the columns in the engine's fixed `left ++ right`
/// order.
fn splice(build: &Batch, pb: &Batch, psel: &[u32], bsel: &[u32], build_left: bool) -> Batch {
    let bg = build.gather(bsel);
    let pg = pb.gather(psel);
    if build_left {
        side_by_side(bg, pg)
    } else {
        side_by_side(pg, bg)
    }
}

/// One batch holding `left`'s columns then `right`'s (equal row counts).
fn side_by_side(left: Batch, right: Batch) -> Batch {
    let mut cols = left.into_columns();
    cols.extend(right.into_columns());
    Batch::from_columns(cols)
}

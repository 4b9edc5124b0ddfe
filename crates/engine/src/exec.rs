//! Plan execution: the entry points, the execution options, and the row
//! helpers the batched executor delegates to.
//!
//! Every plan runs on the batched (vectorized) executor in the `vexec`
//! module: scans, filters, projections, hash joins, index scans and
//! index-nested-loop joins process column-oriented [`pqp_storage::Batch`]es
//! of ~[`pqp_storage::BATCH_SIZE`] rows. The operators that are not
//! vectorized — aggregate, sort, distinct and cross join — materialize their
//! input and run the row helpers in this module; grouping and duplicate
//! elimination preserve first-seen order so results are deterministic. This
//! module also holds the access-path decisions the executor shares with the
//! planner (the indexed-equality conjunct of a scan, the runtime index-join
//! sniff and its 4× probe-size guard).
//!
//! ## Intra-query parallelism
//!
//! [`execute_with`] accepts an [`ExecOptions`] thread budget. When
//! `threads > 1` and an operator's input is at least
//! [`ExecOptions::min_parallel_rows`], table scans, filters, projections and
//! hash-join probes run partitioned across `std::thread::scope` workers
//! (the private `par` module holds the worker plumbing). Partitions are
//! always merged **in partition order**, so parallel execution preserves
//! the engine's deterministic first-seen ordering contract: for any plan,
//! `execute_with(plan, catalog, opts)` returns byte-identical rows to the
//! serial [`execute`]. Small inputs and `threads <= 1` take the serial fast
//! path and never spawn.
//!
//! ## The query governor
//!
//! [`execute_ctx`] additionally threads a [`QueryCtx`] through every
//! operator. Execution is *cooperative*: each operator checkpoints at its
//! entry, base-table scans and index fetches charge every fetched row at
//! each batch boundary, non-scan loops checkpoint per batch or every
//! [`pqp_obs::governor::CHECKPOINT_STRIDE`] iterations, and
//! row-materializing operators (joins, cross products) charge their output
//! memory. A tripped budget aborts the query with
//! [`EngineError::Budget`](crate::EngineError::Budget) carrying
//! partial-progress counters; parallel workers observe the same shared
//! context, so a trip in one worker stops the others at their next
//! checkpoint and the scope joins everything — no leaked threads.

use crate::bound::BoundExpr;
use crate::error::{bind_err, Result};
use crate::plan::Plan;
use pqp_obs::governor::CHECKPOINT_STRIDE;
use pqp_obs::{approx_row_bytes, QueryCtx};
use pqp_sql::BinaryOp;
use pqp_storage::{Catalog, Row, Table, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Default serial-fallback threshold: operators with fewer input rows than
/// this stay serial regardless of the thread budget (fan-out overhead beats
/// the win on small inputs, and the paper's selective partial queries are
/// usually below it).
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 4096;

/// Execution options: the intra-query thread budget.
///
/// The default is strictly serial (`threads: 1`), which is also the fast
/// path: with `threads <= 1` no thread is ever spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker-thread budget per parallel operator. `<= 1` means serial.
    pub threads: usize,
    /// Inputs below this row count stay serial even when `threads > 1`.
    pub min_parallel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions { threads: 1, min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS }
    }
}

impl ExecOptions {
    /// Strictly serial execution (the default).
    pub fn serial() -> ExecOptions {
        ExecOptions::default()
    }

    /// A budget of `threads` workers with the default serial-fallback
    /// threshold.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads: threads.max(1), ..ExecOptions::default() }
    }

    /// Override the serial-fallback threshold (builder-style).
    pub fn min_parallel_rows(mut self, rows: usize) -> ExecOptions {
        self.min_parallel_rows = rows;
        self
    }

    /// Read the thread budget from the `PQP_THREADS` environment variable
    /// (serial when unset or unparsable).
    pub fn from_env() -> ExecOptions {
        let threads = std::env::var("PQP_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(1);
        ExecOptions::with_threads(threads)
    }

    /// Whether any operator may go parallel under this budget.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// The partition count for an operator over `rows` input rows, or
    /// `None` to take the serial fast path.
    pub(crate) fn partitions_for(&self, rows: usize) -> Option<usize> {
        (self.threads > 1 && rows >= self.min_parallel_rows.max(1)).then_some(self.threads)
    }
}

/// Everything an operator needs from its surroundings: the catalog, the
/// thread budget, and the per-query governor context.
pub(crate) struct Env<'a> {
    pub catalog: &'a Catalog,
    pub opts: &'a ExecOptions,
    pub ctx: &'a QueryCtx,
}

/// Execute a plan against a catalog serially, materializing all rows.
///
/// Every operator runs under an observability span named `exec.<op>` with
/// its output cardinality recorded, so a traced run yields per-operator
/// rows and timings (`EXPLAIN ANALYZE`). Untraced runs pay only a
/// thread-local check per operator.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<Vec<Row>> {
    execute_with(plan, catalog, &ExecOptions::default())
}

/// Execute a plan under an explicit [`ExecOptions`] thread budget.
///
/// Output is byte-identical to [`execute`] for every plan and budget:
/// parallel operators merge their partitions in partition order
/// (`crate::par`), preserving the deterministic ordering contract.
pub fn execute_with(plan: &Plan, catalog: &Catalog, opts: &ExecOptions) -> Result<Vec<Row>> {
    execute_ctx(plan, catalog, opts, &QueryCtx::unlimited())
}

/// Execute a plan under a thread budget **and** a query-governor context:
/// deadline / rows-scanned / memory limits are checked cooperatively at
/// operator loop boundaries, and an exceeded budget aborts with
/// [`EngineError::Budget`](crate::EngineError::Budget).
pub fn execute_ctx(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    crate::vexec::run_root(&Env { catalog, opts, ctx }, plan)
}

pub(crate) fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Empty { .. } => "exec.empty",
        Plan::Scan { .. } => "exec.scan",
        Plan::IndexScan { .. } => "exec.index_scan",
        Plan::Filter { .. } => "exec.filter",
        Plan::HashJoin { .. } => "exec.hash_join",
        Plan::IndexJoin { .. } => "exec.index_join",
        Plan::CrossJoin { .. } => "exec.cross_join",
        Plan::Project { .. } => "exec.project",
        Plan::Aggregate { .. } => "exec.aggregate",
        Plan::Distinct { .. } => "exec.distinct",
        Plan::Sort { .. } => "exec.sort",
        Plan::Limit { .. } => "exec.limit",
        Plan::Union { .. } => "exec.union",
        Plan::TopK { .. } => "exec.topk",
    }
}

/// The full pushed-down predicate of a [`Plan::IndexScan`],
/// `column = key AND residual`: what a scan must apply instead when the
/// index was dropped after planning.
pub(crate) fn index_scan_predicate(
    t: &Table,
    column: &str,
    key: &Value,
    residual: Option<&BoundExpr>,
) -> Result<BoundExpr> {
    let Some(col) = t.schema().column_index(column) else {
        return bind_err(format!("unknown column `{column}` in `{}`", t.schema().name));
    };
    let eq = BoundExpr::Binary {
        left: Box::new(BoundExpr::Column(col)),
        op: BinaryOp::Eq,
        right: Box::new(BoundExpr::Literal(key.clone())),
    };
    Ok(match residual {
        Some(r) => {
            BoundExpr::Binary { left: Box::new(eq), op: BinaryOp::And, right: Box::new(r.clone()) }
        }
        None => eq,
    })
}

/// The first `col = literal` conjunct of a pushed-down filter (non-NULL
/// literal) whose column has a hash index, as (column name, key). A scan
/// with such a conjunct is served by an index lookup plus the whole filter
/// instead of a heap scan.
pub(crate) fn indexed_eq_conjunct<'t, 'f>(
    t: &'t Table,
    f: &'f BoundExpr,
) -> Option<(&'t str, &'f Value)> {
    split_and(f).into_iter().find_map(|conjunct| {
        let (col, value) = as_eq_literal(conjunct)?;
        if value.is_null() {
            return None; // `= NULL` can never be TRUE
        }
        let name = t.schema().columns[col].name.as_str();
        t.index_on(name).is_some().then_some((name, value))
    })
}

/// Top-level conjuncts of a bound expression.
pub(crate) fn split_and(e: &BoundExpr) -> Vec<&BoundExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
        match e {
            BoundExpr::Binary { left, op: BinaryOp::And, right } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    walk(e, &mut out);
    out
}

/// `col = literal` (either orientation), as (column position, literal).
pub(crate) fn as_eq_literal(e: &BoundExpr) -> Option<(usize, &Value)> {
    let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = e else {
        return None;
    };
    match (&**left, &**right) {
        (BoundExpr::Column(c), BoundExpr::Literal(v)) => Some((*c, v)),
        (BoundExpr::Literal(v), BoundExpr::Column(c)) => Some((*c, v)),
        _ => None,
    }
}

/// Cartesian product of two materialized sides.
pub(crate) fn cross_join_rows(
    ctx: &QueryCtx,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
) -> Result<Vec<Row>> {
    // Cap the pre-allocation: a huge product should grow lazily (and
    // fail late with partial progress) rather than request the whole
    // worst case up front.
    let cap = lrows.len().saturating_mul(rrows.len()).min(1 << 20);
    let mut out = Vec::with_capacity(cap);
    // The one operator that can explode quadratically: charge
    // memory per output batch so a runaway product trips the budget
    // instead of exhausting the machine.
    let mut pending_mem = 0u64;
    for l in &lrows {
        for r in &rrows {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            pending_mem += approx_row_bytes(row.len());
            out.push(row);
            if out.len() & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.charge_mem(pending_mem)?;
                pending_mem = 0;
            }
        }
    }
    ctx.charge_mem(pending_mem)?;
    Ok(out)
}

/// Duplicate elimination preserving first-seen order.
pub(crate) fn distinct_rows(ctx: &QueryCtx, rows: Vec<Row>) -> Result<Vec<Row>> {
    let mut seen = HashSet::with_capacity(rows.len());
    let mut out = Vec::new();
    for (i, row) in rows.into_iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        if seen.insert(row.clone()) {
            out.push(row);
        }
    }
    Ok(out)
}

/// In-place multi-key sort by output column positions.
pub(crate) fn sort_rows(rows: &mut [Row], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for (idx, desc) in keys {
            let ord = a[*idx].cmp(&b[*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// The runtime index-join sniff's shape test:
/// `scan_side` is a base-table scan whose (single) join column has a hash
/// index, on a table without statistics — for analyzed tables the planner
/// owns the index-join decision ([`Plan::IndexJoin`]), so this runtime
/// sniffing only covers un-analyzed tables.
pub(crate) fn sniff_index_join<'p>(
    env: &Env,
    scan_side: &'p Plan,
    scan_keys: &[usize],
) -> Result<Option<IndexedSide<'p>>> {
    let Plan::Scan { table, filter, .. } = scan_side else {
        return Ok(None);
    };
    let t = env.catalog.table(table)?;
    let t = t.read();
    if t.stats().is_some() {
        return Ok(None);
    }
    let name = t.schema().columns[scan_keys[0]].name.clone();
    if t.index_on(&name).is_none() {
        return Ok(None);
    }
    Ok(Some(IndexedSide { table, filter: filter.as_ref(), column: name, rows: t.len() }))
}

/// The scan side [`sniff_index_join`] found.
pub(crate) struct IndexedSide<'p> {
    pub table: &'p str,
    /// The scan's pushed-down filter.
    pub filter: Option<&'p BoundExpr>,
    /// The indexed join column.
    pub column: String,
    /// The table's row count, for [`index_probe_pays`].
    pub rows: usize,
}

/// The executor's size guard on index-nested-loop joins: probing pays off
/// only when the probe side is small relative to the indexed table
/// (otherwise hashing wins).
pub(crate) fn index_probe_pays(probe_rows: usize, table_rows: usize) -> bool {
    probe_rows * 4 <= table_rows
}

pub(crate) fn aggregate(
    rows: Vec<Row>,
    group_by: &[BoundExpr],
    aggs: &[crate::aggregate::AggCall],
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    // Group keys in first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<crate::aggregate::AggState>> = HashMap::new();

    if group_by.is_empty() {
        // Global aggregate: exactly one group, present even on empty input.
        let states: Vec<_> = aggs.iter().map(|a| a.new_state()).collect();
        groups.insert(Vec::new(), states);
        order.push(Vec::new());
    }

    for (i, row) in rows.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(g.eval(row)?);
        }
        let states = match groups.entry(key.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                order.push(key);
                e.insert(aggs.iter().map(|a| a.new_state()).collect())
            }
        };
        for (call, state) in aggs.iter().zip(states.iter_mut()) {
            match &call.arg {
                None => state.update(None)?,
                Some(e) => {
                    let v = e.eval(row)?;
                    state.update(Some(&v))?;
                }
            }
        }
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let Some(states) = groups.remove(&key) else {
            continue; // every ordered key was inserted into `groups`
        };
        let mut row = key;
        for s in &states {
            row.push(s.finish());
        }
        out.push(row);
    }
    Ok(out)
}

//! Worker plumbing for the batched executor's partitioned parallel
//! operators — morsel-style scans, per-batch filter/project and the hash
//! join's probe — all built on [`std::thread::scope`] (the workspace allows
//! no external dependencies, so no rayon).
//!
//! ## Determinism contract
//!
//! Every parallel operator produces **byte-identical output to its serial
//! run**:
//!
//! - scans partition the heap into contiguous *page* ranges and concatenate
//!   partition outputs in partition order, which is exactly the serial
//!   iteration order ([`pqp_storage::Table::iter_raw_partition`]);
//! - filter/project and the hash-join probe split their batch list into
//!   contiguous chunks and merge chunk outputs in chunk order; the join's
//!   build table is built once, serially, so per-key match lists keep
//!   build-insertion order and the merged output reproduces the serial
//!   (probe order, then build-insertion order) emission exactly.
//!
//! Downstream order-sensitive operators (DISTINCT, GROUP BY, first-seen
//! dedup) therefore see the same row order under any thread budget.
//!
//! ## Failure & governor semantics
//!
//! Workers share the query's [`pqp_obs::QueryCtx`]: scans charge rows and
//! other loops checkpoint on the same atomic counters as the serial paths,
//! so a budget tripped by any worker stops the rest at their next
//! checkpoint. A *panicking* worker is isolated: every `scope` joins all
//! its handles and maps a panicked join into [`EngineError::Internal`] —
//! the query fails with a typed error, no thread leaks, and the process
//! keeps serving. The `par.worker` failpoint fires at each worker's entry
//! to prove exactly that under chaos testing.
//!
//! ## Observability
//!
//! Spans and fields are thread-local, so all recording happens on the
//! coordinating thread: each parallel operator records `partitions` and
//! per-partition output rows on its own `exec.<op>` span, bumps the
//! `exec.parallel.workers` counter by the number of workers it spawned
//! (the serial path never touches it — the regression tests key off that),
//! and the join records `strategy=parallel_hash_join`. Worker closures make
//! no observability calls.

use crate::error::{EngineError, Result};
use std::thread::ScopedJoinHandle;
/// Count workers spawned by a parallel operator (the never-spawns-when-
/// serial regression tests watch this counter).
pub(crate) fn count_workers(n: usize) {
    pqp_obs::counter_add("exec.parallel.workers", n as i64);
}

/// Record the partition fan-out of the current operator's span.
pub(crate) fn record_partitions(sizes: &[usize]) {
    pqp_obs::record("partitions", sizes.len());
    pqp_obs::record("partition_rows", format!("{sizes:?}"));
}

/// The `par.worker` failpoint, fired at every worker's entry: `error` fails
/// that worker's partition, `panic` exercises the panic-isolation path
/// below, `delay` stretches the worker so deadlines trip mid-operator.
pub(crate) fn worker_failpoint() -> Result<()> {
    match pqp_obs::failpoint::fire("par.worker") {
        Some(msg) => Err(EngineError::Internal(format!("failpoint par.worker: {msg}"))),
        None => Ok(()),
    }
}

/// Join a scoped worker, converting a worker panic into a typed
/// [`EngineError::Internal`] instead of propagating the unwind: the query
/// fails, the scope still joins every other worker, the process lives on.
pub(crate) fn join_worker<T>(handle: ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    match handle.join() {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(EngineError::Internal(format!("parallel worker panicked: {msg}")))
        }
    }
}

//! # pqp-engine
//!
//! The relational query engine of the `pqp` workspace: the substitute for
//! the Oracle 9i substrate the paper's prototype ran on.
//!
//! Pipeline: `parse → OR-expansion rewrite → plan (bind + push down + join
//! order) → execute`. See [`rewrite`] for why OR-expansion matters to the
//! reproduction.
//!
//! Plans run on one executor, which processes column-oriented batches
//! (see [`exec`]). The naive AST interpreter in [`naive`] shares no
//! operator code with it (only scalar operator semantics and aggregate
//! functions) and is the oracle the differential suites check it against.
//!
//! Execution is serial by default; pass an [`ExecOptions`] thread budget to
//! [`Database::run_plan_with`] for intra-query parallelism (partitioned
//! scans, filters, projections and hash-join probes — see the parallelism
//! notes in [`exec`]). Parallel execution preserves the serial row order
//! exactly.
//!
//! ```
//! use pqp_engine::{Database, ExecOptions};
//! use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};
//!
//! let mut catalog = Catalog::new();
//! catalog
//!     .create_table(
//!         TableSchema::new(
//!             "MOVIE",
//!             vec![
//!                 ColumnDef::new("mid", DataType::Int),
//!                 ColumnDef::new("title", DataType::Str),
//!             ],
//!         )
//!         .with_primary_key(&["mid"]),
//!     )
//!     .unwrap();
//! {
//!     let movie = catalog.table("MOVIE").unwrap();
//!     let mut movie = movie.write();
//!     movie.insert(vec![1.into(), "Alien".into()]).unwrap();
//!     movie.insert(vec![2.into(), "Brazil".into()]).unwrap();
//! }
//! let db = Database::new(catalog);
//!
//! // Parse → plan → execute; plans are reusable and thread-safe.
//! let query = pqp_sql::parse_query("select MV.title from MOVIE MV where MV.mid = 2").unwrap();
//! let plan = db.plan(&query).unwrap();
//! let serial = db.run_plan(&plan).unwrap();
//! assert_eq!(serial.rows, vec![vec!["Brazil".into()]]);
//!
//! // A thread budget never changes the answer: ordered partition merge.
//! let parallel = db.run_plan_with(&plan, &ExecOptions::with_threads(4)).unwrap();
//! assert_eq!(parallel.rows, serial.rows);
//! ```

pub mod aggregate;
pub mod bound;
pub mod cost;
pub mod ddl;
pub mod error;
pub mod exec;
pub mod naive;
mod par;
pub mod plan;
pub mod planner;
pub mod rewrite;
pub mod topk;
pub mod types;
mod vexec;
mod vexpr;

pub use cost::Estimator;
pub use error::{EngineError, Result};
pub use exec::{ExecOptions, DEFAULT_MIN_PARALLEL_ROWS};
pub use types::{OutputColumn, OutputSchema, ResultSet};

use pqp_obs::QueryCtx;
use pqp_sql::ast::Query;
use pqp_storage::Catalog;

/// A database: a catalog plus the query pipeline.
pub struct Database {
    catalog: Catalog,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Database");
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.table(&name) {
                d.field(&name, &t.read().len());
            }
        }
        d.finish()
    }
}

impl Database {
    /// Wrap a catalog.
    pub fn new(catalog: Catalog) -> Database {
        Database { catalog }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (loading data, creating tables).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Parse, plan and execute a SQL string.
    pub fn run(&self, sql: &str) -> Result<ResultSet> {
        let q = pqp_sql::parse_query(sql)?;
        self.run_query(&q)
    }

    /// Parse and execute any statement: DDL, DML or a query.
    pub fn execute(&mut self, sql: &str) -> Result<ddl::StatementResult> {
        let stmt = pqp_sql::parse_statement(sql)?;
        match &stmt {
            pqp_sql::Statement::Query(q) => Ok(ddl::StatementResult::Rows(self.run_query(q)?)),
            other => ddl::execute_statement(other, &mut self.catalog),
        }
    }

    /// Plan and execute a parsed query.
    pub fn run_query(&self, q: &Query) -> Result<ResultSet> {
        let plan = self.plan(q)?;
        self.run_plan(&plan)
    }

    /// Execute an already-planned query serially.
    ///
    /// This is the plan-reuse entry point: a plan produced by
    /// [`Database::plan`] is immutable and can be executed any number of
    /// times (and from any thread) as long as the referenced tables still
    /// exist — the serving layer's personalized-plan cache relies on it.
    pub fn run_plan(&self, plan: &plan::Plan) -> Result<ResultSet> {
        self.run_plan_with(plan, &ExecOptions::default())
    }

    /// Execute an already-planned query under an [`ExecOptions`] thread
    /// budget. Parallel execution merges partitions in partition order, so
    /// the result is row-for-row identical to [`Database::run_plan`] for
    /// any budget (serial fast path when `threads <= 1` or inputs are
    /// small).
    pub fn run_plan_with(&self, plan: &plan::Plan, exec: &ExecOptions) -> Result<ResultSet> {
        self.run_plan_ctx(plan, exec, &QueryCtx::unlimited())
    }

    /// Execute an already-planned query under a thread budget **and** a
    /// query-governor context ([`pqp_obs::QueryCtx`]): operators check the
    /// context's deadline / rows-scanned / memory budget cooperatively at
    /// loop boundaries and abort with
    /// [`EngineError::Budget`] (partial-progress
    /// counters included) when it trips. Parallel workers share the same
    /// context, so one worker tripping stops the others at their next
    /// checkpoint — the scope joins every thread either way.
    pub fn run_plan_ctx(
        &self,
        plan: &plan::Plan,
        exec: &ExecOptions,
        ctx: &QueryCtx,
    ) -> Result<ResultSet> {
        let _span = pqp_obs::span("execute");
        let rows = exec::execute_ctx(plan, &self.catalog, exec, ctx)?;
        pqp_obs::record("result_rows", rows.len());
        let columns = plan.schema().columns.iter().map(|c| c.name.clone()).collect();
        Ok(ResultSet { columns, rows })
    }

    /// Plan and execute a parsed query under an [`ExecOptions`] thread
    /// budget.
    pub fn run_query_with(&self, q: &Query, exec: &ExecOptions) -> Result<ResultSet> {
        let plan = self.plan(q)?;
        self.run_plan_with(&plan, exec)
    }

    /// Produce the optimized plan for a query (OR-expansion + planning).
    pub fn plan(&self, q: &Query) -> Result<plan::Plan> {
        let _span = pqp_obs::span("plan");
        let rewritten = rewrite::or_expand(q, &self.catalog);
        planner::Planner::new(&self.catalog).plan_query(&rewritten)
    }

    /// Plan without the OR-expansion rewrite (used by tests and ablations).
    pub fn plan_unexpanded(&self, q: &Query) -> Result<plan::Plan> {
        planner::Planner::new(&self.catalog).plan_query(q)
    }

    /// Plan a native rank execution ([`topk::TopKSpec`]) into a
    /// [`plan::Plan::TopK`] node: the base query and every witness query
    /// are planned through the normal pipeline, then assembled under the
    /// rank operator. The resulting plan executes through the usual
    /// [`Database::run_plan_ctx`] entry points (and is cacheable like any
    /// other plan).
    pub fn plan_topk(&self, spec: &topk::TopKSpec) -> Result<plan::Plan> {
        let _span = pqp_obs::span("plan");
        if spec.probes.len() > topk::MAX_PROBES {
            return Err(EngineError::Bind(format!(
                "native rank supports at most {} preferences, got {}",
                topk::MAX_PROBES,
                spec.probes.len()
            )));
        }
        let base = self.plan(&spec.base)?;
        let arity = base.schema().arity();
        let expected = spec.columns.len() + spec.probes.len();
        if arity != expected {
            return Err(EngineError::Bind(format!(
                "native rank base projects {arity} columns, expected {expected} \
                 ({} visible + {} probes)",
                spec.columns.len(),
                spec.probes.len()
            )));
        }
        let mut probes = Vec::with_capacity(spec.probes.len());
        for p in &spec.probes {
            if !(0.0..=1.0).contains(&p.doi) {
                return Err(EngineError::Bind(format!(
                    "probe degree of interest {} not in [0, 1]",
                    p.doi
                )));
            }
            let source = match &p.source {
                topk::ProbeSource::Literal(v) => plan::TopKProbeSource::Literal(v.clone()),
                topk::ProbeSource::Witness(q) => {
                    let wp = self.plan(q)?;
                    if wp.schema().arity() != 1 {
                        return Err(EngineError::Bind(format!(
                            "native rank witness query must project exactly one column, got {}",
                            wp.schema().arity()
                        )));
                    }
                    plan::TopKProbeSource::Witness(Box::new(wp))
                }
            };
            probes.push(plan::TopKProbe { doi: p.doi, source });
        }
        let mut columns: Vec<OutputColumn> =
            spec.columns.iter().map(|c| OutputColumn::new(None, c)).collect();
        if spec.rank {
            columns.push(OutputColumn::new(None, topk::INTEREST_COLUMN));
        }
        Ok(plan::Plan::TopK {
            base: Box::new(base),
            probes,
            visible: spec.columns.len(),
            matching: spec.matching,
            rank: spec.rank,
            limit: spec.limit,
            schema: OutputSchema::new(columns),
        })
    }

    /// Execute with the naive reference interpreter (no optimization).
    pub fn run_naive(&self, q: &Query) -> Result<ResultSet> {
        naive::naive_execute(q, &self.catalog)
    }

    /// Naive reference execution under a query-governor context — even the
    /// oracle respects deadlines (its cross products are the costliest
    /// thing in the workspace).
    pub fn run_naive_ctx(&self, q: &Query, ctx: &QueryCtx) -> Result<ResultSet> {
        naive::naive_execute_ctx(q, &self.catalog, ctx)
    }

    /// EXPLAIN text for a SQL string, with per-node `est_rows` from the
    /// cost estimator.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let q = pqp_sql::parse_query(sql)?;
        let plan = self.plan(&q)?;
        Ok(Estimator::new(&self.catalog).explain(&plan))
    }
}

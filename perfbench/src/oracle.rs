//! Answer checks, run after the timed phase; any mismatch fails the run,
//! except the one known SQ defect described below.
//!
//! - The service's rows for a seeded sample of keys equal the naive
//!   reference interpreter's (`Database::run_naive`) on the MQ rewrite.
//! - SQ, MQ and the native rank operator give the same answer, and ranked
//!   MQ and ranked native the same ranked answer, on a seeded sample.
//!   No workload serves SQ. `integrate_sq` drops an optional preference
//!   whose conditions the query already contains, where the empty
//!   conjunction should make the disjunction TRUE. An SQ answer that
//!   differs from MQ in exactly that way is reported as a known defect in
//!   `run.answers.known_defects`, not as a failure. Any other SQ difference
//!   fails the run.
//! - Every acked write's degree is visible, and after mutate_tcp the
//!   leader and the follower hold identical profiles.
//!
//! The naive interpreter materializes the cross product of each FROM
//! clause, which for most MQ branches here is millions of rows. Before
//! running it, the benchmark pushes each single-table conjunct into a
//! derived table over that table (`(SELECT * FROM T a WHERE p) a`), which
//! leaves the answer unchanged, and checks only keys whose branches then
//! materialize at most `NAIVE_MAX_ROWS` rows each; the run reports how many
//! keys were checked and how many were skipped as too costly.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pqp_core::{
    personalize, AtomicPreference, InMemoryGraph, MatchSpec, PersonalizeOptions, Personalized,
    Profile, Rewrite,
};
use pqp_engine::Database;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::{Budget, QueryCtx};
use pqp_service::{Answer, Service};
use pqp_sql::ast::{Expr, Query, Select, SelectItem, SetExpr, TableFactor};
use pqp_storage::Value;

use crate::workload::{options, Conn, Fixture, Workload, WriteTarget};

/// Keys checked against the naive oracle: the first this many, in seeded
/// order, that are cheap enough for it.
const ORACLE_KEYS: usize = 5;
/// Fewest oracle-checked keys a run accepts.
const ORACLE_MIN_KEYS: usize = 3;
/// Largest cross product one naive branch may materialize.
const NAIVE_MAX_ROWS: f64 = 100_000.0;
/// Keys on which SQ, MQ and native are compared.
const EQUIVALENCE_KEYS: usize = 8;
/// How an SQ difference explained by `sq_drops_absorbed_branch` is reported.
const KNOWN_SQ_DEFECT: &str = "known defect: SQ drops a preference the query satisfies";

type Rows = Vec<Vec<Value>>;

#[derive(Debug, Default)]
pub struct AnswerReport {
    pub oracle_checked: usize,
    pub oracle_skipped_cost: usize,
    pub equivalence_checked: usize,
    pub acked_targets_checked: usize,
    pub failures: Vec<String>,
    /// SQ answers that differ from MQ only through the dropped-branch defect.
    pub known_defects: Vec<String>,
}

fn sorted(mut rows: Rows) -> Rows {
    rows.sort();
    rows
}

/// Rank order: interest descending, then the visible columns ascending.
fn canonical(mut rows: Rows) -> Rows {
    let interest = |r: &Vec<Value>| match r.last() {
        Some(Value::Float(f)) => -*f,
        _ => f64::INFINITY,
    };
    rows.sort_by(|a, b| {
        interest(a).total_cmp(&interest(b)).then_with(|| a[..a.len() - 1].cmp(&b[..b.len() - 1]))
    });
    rows
}

/// Ask the workload's own front door: a `Session` in process, the user's
/// wire client over TCP.
fn ask(
    f: &mut Fixture,
    user: usize,
    text: usize,
    opts: Option<PersonalizeOptions>,
    rewrite: Option<Rewrite>,
) -> Result<Answer, String> {
    let sql = f.texts[text].clone();
    let result = if f.workload == Workload::MutateTcp {
        match &mut f.conns[user] {
            Conn::Tcp(client) => client.query_with(&sql, opts, rewrite),
            Conn::InProc => unreachable!("mutate_tcp clients are wire clients"),
        }
    } else {
        let mut session = f.service.session(f.users[user].clone());
        if let Some(o) = opts {
            session = session.with_options(o);
        }
        if let Some(r) = rewrite {
            session = session.with_rewrite(r);
        }
        session.query(&sql)
    };
    result.map_err(|e| format!("`{sql}` for {}: {e}", f.users[user]))
}

fn qualifiers(e: &Expr, out: &mut Vec<Option<String>>) {
    match e {
        Expr::Column { qualifier, .. } => out.push(qualifier.clone()),
        Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            qualifiers(left, out);
            qualifiers(right, out);
        }
        Expr::Not(x) | Expr::IsNull { expr: x, .. } => qualifiers(x, out),
        Expr::InList { expr, list, .. } => {
            qualifiers(expr, out);
            list.iter().for_each(|x| qualifiers(x, out));
        }
        Expr::Function { args, .. } => args.iter().for_each(|x| qualifiers(x, out)),
    }
}

/// The base-table binding a conjunct refers to, when it refers to exactly
/// one and names it on every column.
fn single_binding(e: &Expr) -> Option<String> {
    let mut quals = Vec::new();
    qualifiers(e, &mut quals);
    let first = quals.first()?.clone()?;
    quals
        .iter()
        .all(|q| q.as_deref().is_some_and(|q| q.eq_ignore_ascii_case(&first)))
        .then_some(first)
}

fn push_set(s: &mut SetExpr) {
    match s {
        SetExpr::Select(sel) => push_select(sel),
        SetExpr::Union { left, right, .. } => {
            push_set(left);
            push_set(right);
        }
    }
}

fn push_select(sel: &mut Select) {
    for f in &mut sel.from {
        if let TableFactor::Derived { query, .. } = f {
            push_set(&mut query.body);
        }
    }
    let Some(filter) = sel.selection.take() else { return };
    let mut keep = Vec::new();
    let mut pushed: HashMap<usize, Vec<Expr>> = HashMap::new();
    for c in filter.conjuncts() {
        let target = single_binding(c).and_then(|b| {
            sel.from.iter().position(|f| {
                matches!(f, TableFactor::Table { .. }) && f.binding_name().eq_ignore_ascii_case(&b)
            })
        });
        match target {
            Some(i) => pushed.entry(i).or_default().push(c.clone()),
            None => keep.push(c.clone()),
        }
    }
    for (i, preds) in pushed {
        let table = sel.from[i].clone();
        let alias = table.binding_name().to_string();
        let inner = Select {
            distinct: false,
            projection: vec![SelectItem::Wildcard],
            from: vec![table],
            selection: pqp_sql::builder::and_all(preds),
            group_by: Vec::new(),
            having: None,
        };
        sel.from[i] = TableFactor::Derived { query: Box::new(Query::from_select(inner)), alias };
    }
    sel.selection = pqp_sql::builder::and_all(keep);
}

/// `q` with every single-table conjunct evaluated inside a derived table
/// over its table. Selection commutes with the cross product, so the
/// answer is the same.
pub fn push_down(q: &Query) -> Query {
    let mut q = q.clone();
    push_set(&mut q.body);
    q
}

/// Whether `q` is one SELECT over one base table (a pushed-down filter),
/// cheap enough to run for its exact size.
fn is_table_filter(q: &Query) -> bool {
    matches!(&q.body, SetExpr::Select(s) if s.from.len() == 1 && matches!(s.from[0], TableFactor::Table { .. }))
}

/// Upper bound on the rows `s` returns, and the largest cross product any
/// SELECT inside it materializes. Pushed-down table filters are run for
/// their exact size (memoized by text).
fn cost(s: &SetExpr, db: &Database, memo: &mut HashMap<String, f64>) -> Result<(f64, f64), String> {
    match s {
        SetExpr::Select(sel) => {
            let (mut product, mut widest) = (1.0f64, 0.0f64);
            // Only a cross product of base tables and table filters counts as
            // materialized; a derived query's size is bounded loosely (its
            // branches' products summed) and is guarded by the memory budget.
            let mut over_tables = true;
            for f in &sel.from {
                let rows = match f {
                    TableFactor::Table { name, .. } => {
                        db.catalog().table(name).map_err(|e| e.to_string())?.read().len() as f64
                    }
                    TableFactor::Derived { query, .. } => {
                        let (upper, inner) = cost(&query.body, db, memo)?;
                        widest = widest.max(inner);
                        if !is_table_filter(query) {
                            over_tables = false;
                            upper
                        } else {
                            let key = query.to_string();
                            match memo.get(&key) {
                                Some(&n) => n,
                                None => {
                                    let n =
                                        db.run_naive(query).map_err(|e| e.to_string())?.rows.len()
                                            as f64;
                                    memo.insert(key, n);
                                    n
                                }
                            }
                        }
                    }
                };
                product *= rows;
            }
            Ok((product, if over_tables { widest.max(product) } else { widest }))
        }
        SetExpr::Union { left, right, .. } => {
            let (lu, lw) = cost(left, db, memo)?;
            let (ru, rw) = cost(right, db, memo)?;
            Ok((lu + ru, lw.max(rw)))
        }
    }
}

/// Preference selection for a key, as the service runs it.
fn personalized(f: &Fixture, user: usize, text: usize) -> Result<Personalized, String> {
    let db = f.service.database();
    let user_id = &f.users[user];
    let profile =
        f.service.profile(user_id.clone()).unwrap_or_else(|| Profile::new(user_id.as_str()));
    let q = pqp_sql::parse_query(&f.texts[text]).map_err(|e| e.to_string())?;
    let graph = InMemoryGraph::build(&profile, db.catalog()).map_err(|e| e.to_string())?;
    personalize(&q, &graph, db.catalog(), options()).map_err(|e| e.to_string())
}

/// The number of top-level disjuncts SQ adds to the query's qualification.
fn sq_branches(p: &Personalized) -> Result<usize, String> {
    let conjuncts = |q: &Query| -> Vec<Expr> {
        q.as_select()
            .and_then(|s| s.selection.as_ref())
            .map_or(Vec::new(), |e| e.conjuncts().into_iter().cloned().collect())
    };
    let original = conjuncts(&p.original());
    let sq = conjuncts(&p.sq().map_err(|e| e.to_string())?);
    Ok(match sq.get(original.len()..).unwrap_or_default() {
        [] => 0,
        [only] => only.disjuncts().len(),
        _ => 1,
    })
}

/// Whether an SQ answer that differs from MQ is explained by the known
/// dropped-branch defect: with M = 0 and L = 1 every optional preference
/// should be one disjunct of the SQ qualification, the SQ query has fewer,
/// so a preference the query already satisfies was dropped. Its disjunct
/// is TRUE, so the correct answer is the original query's: MQ must return
/// exactly that, and SQ a subset of it.
fn sq_drops_absorbed_branch(
    f: &Fixture,
    user: usize,
    text: usize,
    sq_rows: &Rows,
    mq_rows: &Rows,
) -> Result<bool, String> {
    let p = personalized(f, user, text)?;
    if p.m != 0 || p.matching != MatchSpec::AtLeast(1) || sq_branches(&p)? >= p.k() {
        return Ok(false);
    }
    let mut plain = f.service.database().run_query(&p.original()).map_err(|e| e.to_string())?.rows;
    plain.sort();
    plain.dedup();
    Ok(plain == *mq_rows && sq_rows.iter().all(|r| mq_rows.binary_search(r).is_ok()))
}

/// The naive oracle's answer for a key, or `None` when it would
/// materialize too much.
fn naive_answer(
    f: &Fixture,
    user: usize,
    text: usize,
    memo: &mut HashMap<String, f64>,
) -> Result<Option<Rows>, String> {
    let db = f.service.database();
    let p = personalized(f, user, text)?;
    let mq = push_down(&p.mq().map_err(|e| e.to_string())?);
    if cost(&mq.body, db, memo)?.1 > NAIVE_MAX_ROWS {
        return Ok(None);
    }
    let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(256 << 20));
    match db.run_naive_ctx(&mq, &ctx) {
        Ok(rs) => Ok(Some(rs.rows)),
        Err(pqp_engine::EngineError::Budget(_)) => Ok(None),
        Err(e) => Err(format!("naive oracle: {e}")),
    }
}

fn all_keys(f: &Fixture, seed: u64) -> Vec<(usize, usize)> {
    let mut keys: Vec<(usize, usize)> =
        (0..f.users.len()).flat_map(|u| (0..f.texts.len()).map(move |t| (u, t))).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0AC1E);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_index(i + 1));
    }
    keys
}

/// Check the answers the workload served, on a seeded sample of its keys.
pub fn check_answers(f: &mut Fixture, seed: u64) -> AnswerReport {
    let mut report = AnswerReport::default();
    let keys = all_keys(f, seed);
    let mut memo = HashMap::new();
    for &(user, text) in &keys {
        if report.oracle_checked == ORACLE_KEYS {
            break;
        }
        let expected = match naive_answer(f, user, text, &mut memo) {
            Ok(Some(rows)) => rows,
            Ok(None) => {
                report.oracle_skipped_cost += 1;
                continue;
            }
            Err(e) => {
                report.failures.push(e);
                continue;
            }
        };
        match ask(f, user, text, None, None) {
            Ok(a) if sorted(a.rows.rows.clone()) == sorted(expected.clone()) => {
                report.oracle_checked += 1
            }
            Ok(a) => report.failures.push(format!(
                "`{}` for {}: service returned {} rows, the naive oracle {}",
                f.texts[text],
                f.users[user],
                a.rows.rows.len(),
                expected.len()
            )),
            Err(e) => report.failures.push(e),
        }
    }
    if report.oracle_checked < ORACLE_MIN_KEYS {
        report.failures.push(format!(
            "only {} keys were cheap enough for the naive oracle (need {ORACLE_MIN_KEYS})",
            report.oracle_checked
        ));
    }

    let ranked = options().ranked();
    for &(user, text) in keys.iter().take(EQUIVALENCE_KEYS) {
        let result = (|| -> Result<Option<String>, String> {
            let mut get =
                |opts, rewrite| ask(f, user, text, opts, Some(rewrite)).map(|a| a.rows.rows);
            let sq = sorted(get(None, Rewrite::Sq)?);
            let mq = sorted(get(None, Rewrite::Mq)?);
            let native = sorted(get(None, Rewrite::NativeRank)?);
            let counts = format!("SQ/MQ/native: {}/{}/{} rows", sq.len(), mq.len(), native.len());
            if mq != native {
                return Ok(Some(format!("MQ and native rank differ, {counts}")));
            }
            let mq_ranked = canonical(get(Some(ranked), Rewrite::Mq)?);
            let native_ranked = canonical(get(Some(ranked), Rewrite::NativeRank)?);
            if mq_ranked != native_ranked {
                return Ok(Some("ranked MQ and native rank differ".to_string()));
            }
            if sq == mq {
                return Ok(None);
            }
            let known = sq_drops_absorbed_branch(f, user, text, &sq, &mq)?;
            Ok(Some(if known {
                format!("{KNOWN_SQ_DEFECT}, {counts}")
            } else {
                format!("SQ and MQ differ, {counts}")
            }))
        })();
        let key = |what: &str| format!("`{}` for {}: {what}", f.texts[text], f.users[user]);
        match result {
            Ok(None) => report.equivalence_checked += 1,
            Ok(Some(diff)) if diff.starts_with(KNOWN_SQ_DEFECT) => {
                report.equivalence_checked += 1;
                report.known_defects.push(key(&diff));
            }
            Ok(Some(diff)) => report.failures.push(key(&diff)),
            Err(e) => report.failures.push(e),
        }
    }
    report
}

fn selection_doi(profile: &Profile, target: &WriteTarget) -> Option<f64> {
    profile.selections().find_map(|p| match p {
        AtomicPreference::Selection { attr, value, doi }
            if attr.table == target.table
                && attr.column == target.column
                && *value == target.value =>
        {
            Some(doi.value())
        }
        _ => None,
    })
}

/// Every client's last acked degree per target must be what each store
/// holds, and for a replicated run the follower must hold exactly the
/// leader's profiles once it has applied the leader's log.
pub fn check_writes(f: &Fixture, acked: &[Vec<(u16, f64)>], report: &mut AnswerReport) {
    let mut stores: Vec<(&str, &Service)> = vec![("leader", &f.service)];
    if let Some(c) = &f.cluster {
        let deadline = Instant::now() + Duration::from_secs(5);
        while c.follower_node.status().last_seq < c.leader_node.status().last_seq
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        stores.push(("follower", &c.follower_service));
        for user in &f.users {
            let leader = f.service.profile(user.clone()).map(|p| p.preferences().to_vec());
            let follower =
                c.follower_service.profile(user.clone()).map(|p| p.preferences().to_vec());
            if leader != follower {
                report.failures.push(format!("leader and follower profiles of {user} differ"));
            }
        }
    }
    for (client, acks) in acked.iter().enumerate() {
        let mut last: HashMap<u16, f64> = HashMap::new();
        for &(target, doi) in acks {
            last.insert(target, doi);
        }
        let user = &f.users[client];
        for (&target, &doi) in &last {
            let t = &f.write_targets[client][target as usize];
            for (name, store) in &stores {
                let seen = store.profile(user.clone()).and_then(|p| selection_doi(&p, t));
                if seen != Some(doi) {
                    report.failures.push(format!(
                        "{name}: {user} {}.{} = {:?} holds degree {seen:?}, last acked {doi}",
                        t.table, t.column, t.value
                    ));
                }
            }
            report.acked_targets_checked += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_down_moves_single_table_conjuncts_into_derived_tables() {
        let q = pqp_sql::parse_query(
            "SELECT MO.title FROM MOVIE MO, GENRE GE WHERE MO.mid = GE.mid AND GE.genre = 'comedy' AND MO.year = 1990",
        )
        .unwrap();
        let text = push_down(&q).to_string();
        assert!(text.contains("WHERE GE.genre = 'comedy') GE"), "{text}");
        assert!(text.contains("WHERE MO.year = 1990) MO"), "{text}");
        assert!(text.ends_with("WHERE MO.mid = GE.mid"), "{text}");
    }

    #[test]
    fn push_down_keeps_the_naive_answer() {
        let m = pqp_datagen::generate(pqp_datagen::MovieDbConfig::tiny());
        let q = pqp_sql::parse_query(
            "SELECT MO.title FROM MOVIE MO, GENRE GE WHERE MO.mid = GE.mid AND GE.genre = 'comedy'",
        )
        .unwrap();
        let plain = sorted(m.db.run_naive(&q).unwrap().rows);
        let pushed = sorted(m.db.run_naive(&push_down(&q)).unwrap().rows);
        assert!(!plain.is_empty());
        assert_eq!(plain, pushed);
    }

    fn personalize_tiny(profile: &Profile, sql: &str) -> Personalized {
        let m = pqp_datagen::generate(pqp_datagen::MovieDbConfig::tiny());
        let graph = InMemoryGraph::build(profile, m.db.catalog()).unwrap();
        personalize(&pqp_sql::parse_query(sql).unwrap(), &graph, m.db.catalog(), options()).unwrap()
    }

    #[test]
    fn sq_branches_counts_one_disjunct_per_optional_preference() {
        let mut profile = Profile::new("u");
        profile.add_selection("MOVIE", "year", 1990, 0.9).unwrap();
        profile.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        profile.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
        let p = personalize_tiny(&profile, "SELECT MO.title FROM MOVIE MO");
        assert_eq!(p.k(), 2);
        assert_eq!(sq_branches(&p).unwrap(), 2);
    }

    #[test]
    fn sq_branches_counts_a_lone_multi_condition_branch_once() {
        let mut profile = Profile::new("u");
        profile.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        profile.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
        let p = personalize_tiny(&profile, "SELECT MO.title FROM MOVIE MO WHERE MO.year = 1990");
        assert_eq!(p.k(), 1);
        assert_eq!(sq_branches(&p).unwrap(), 1);
    }
}

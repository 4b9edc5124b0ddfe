//! Vectorized expression evaluation over [`Batch`] columns.
//!
//! The contract is strict: every function here is **identical to per-row
//! `BoundExpr::eval`** of the same [`BoundExpr`] against each materialized
//! row — same selected rows, same projected values, and an error exactly
//! when the per-row evaluation would error (in exotic rows carrying
//! *multiple* latent errors, which error surfaces may differ; both still
//! fail). Typed comparison kernels are used only where the column
//! representation proves them exact; everything else falls back to a
//! per-row loop over materialized rows, which is trivially exact. The
//! unit tests at the bottom of this file check the contract on seeded
//! random batches.
//!
//! Three-valued logic is evaluated as a per-row tri-state ([`Tri`]):
//! `AND`/`OR` first evaluate their left side over the whole selection (as
//! `BoundExpr::eval` always evaluates the left), then the right side only
//! over the sub-selection the left did not decide — preserving the per-row
//! evaluator's guarantee that `x <> 0 AND 10 / x > 1` never divides by zero
//! on a filtered-out row.

use crate::bound::BoundExpr;
use crate::error::{exec_err, Result};
use pqp_sql::BinaryOp;
use pqp_storage::{total_fcmp, Batch, Column, ColumnData, Value};
use std::cmp::Ordering;

/// The row indices of `batch` (in order) whose predicate evaluates to TRUE
/// — the batched equivalent of `BoundExpr::eval_predicate` per row.
pub(crate) fn select_true(pred: &BoundExpr, batch: &Batch) -> Result<Vec<u32>> {
    let sel: Vec<u32> = (0..batch.len() as u32).collect();
    let tri = eval_tri(pred, batch, &sel)?;
    Ok(sel.into_iter().zip(tri).filter(|(_, t)| matches!(t, Tri::T)).map(|(i, _)| i).collect())
}

/// Project a batch through output expressions — the batched equivalent of
/// `BoundExpr::eval` per row per expression.
///
/// Column references copy the input column wholesale and literals broadcast
/// without touching rows; any other expression shape drops to one
/// row-at-a-time pass (rows materialized once, expressions evaluated
/// left-to-right — per-row evaluation's exact error order).
pub(crate) fn project_batch(exprs: &[BoundExpr], batch: &Batch) -> Result<Batch> {
    let n = batch.len();
    let mut cols: Vec<Option<Column>> = exprs
        .iter()
        .map(|e| match e {
            BoundExpr::Column(i) => Some(batch.column(*i).clone()),
            BoundExpr::Literal(v) => {
                Some(Column::from_values(std::iter::repeat_n(v.clone(), n).collect()))
            }
            _ => None,
        })
        .collect();
    if cols.iter().any(Option::is_none) {
        let mut vals: Vec<Vec<Value>> = exprs.iter().map(|_| Vec::new()).collect();
        for i in 0..n {
            let row = batch.row(i);
            for (j, e) in exprs.iter().enumerate() {
                if cols[j].is_none() {
                    vals[j].push(e.eval(&row)?);
                }
            }
        }
        for (j, c) in cols.iter_mut().enumerate() {
            if c.is_none() {
                *c = Some(Column::from_values(std::mem::take(&mut vals[j])));
            }
        }
    }
    Ok(Batch::from_columns(cols.into_iter().flatten().collect()))
}

/// Per-row predicate state: TRUE, FALSE, NULL, or a non-boolean value that
/// becomes a type error if (and only if) a logical connective must inspect
/// it — mirroring `expect_bool` in the per-row evaluator.
enum Tri {
    T,
    F,
    N,
    X(Value),
}

fn classify(v: Value) -> Tri {
    match v {
        Value::Bool(true) => Tri::T,
        Value::Bool(false) => Tri::F,
        Value::Null => Tri::N,
        other => Tri::X(other),
    }
}

/// Evaluate `e` as a tri-state for each row of `sel` (ascending row
/// indices), returning one entry per selected row.
fn eval_tri(e: &BoundExpr, batch: &Batch, sel: &[u32]) -> Result<Vec<Tri>> {
    match e {
        BoundExpr::Literal(v) => Ok(sel.iter().map(|_| classify(v.clone())).collect()),
        BoundExpr::Column(c) => {
            let col = batch.column(*c);
            Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if col.is_null(i) {
                        Tri::N
                    } else if let ColumnData::Bool(v) = col.data() {
                        if v[i] {
                            Tri::T
                        } else {
                            Tri::F
                        }
                    } else {
                        classify(col.value(i))
                    }
                })
                .collect())
        }
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            // Kleene AND, FALSE-dominant: the right side is evaluated only
            // where the left is not FALSE (matching the per-row
            // short-circuit).
            let l = eval_tri(left, batch, sel)?;
            let sub: Vec<u32> =
                sel.iter().zip(&l).filter(|(_, t)| !matches!(t, Tri::F)).map(|(&i, _)| i).collect();
            let mut r = eval_tri(right, batch, &sub)?.into_iter();
            l.into_iter()
                .map(|lt| {
                    if matches!(lt, Tri::F) {
                        return Ok(Tri::F);
                    }
                    let Some(rt) = r.next() else {
                        return exec_err("AND sub-selection misaligned");
                    };
                    match (lt, rt) {
                        (Tri::F, _) | (_, Tri::F) => Ok(Tri::F),
                        (Tri::N, _) | (_, Tri::N) => Ok(Tri::N),
                        (Tri::X(v), _) | (_, Tri::X(v)) => {
                            exec_err(format!("expected boolean, found `{v}`"))
                        }
                        (Tri::T, Tri::T) => Ok(Tri::T),
                    }
                })
                .collect()
        }
        BoundExpr::Binary { left, op: BinaryOp::Or, right } => {
            // Kleene OR, TRUE-dominant.
            let l = eval_tri(left, batch, sel)?;
            let sub: Vec<u32> =
                sel.iter().zip(&l).filter(|(_, t)| !matches!(t, Tri::T)).map(|(&i, _)| i).collect();
            let mut r = eval_tri(right, batch, &sub)?.into_iter();
            l.into_iter()
                .map(|lt| {
                    if matches!(lt, Tri::T) {
                        return Ok(Tri::T);
                    }
                    let Some(rt) = r.next() else {
                        return exec_err("OR sub-selection misaligned");
                    };
                    match (lt, rt) {
                        (Tri::T, _) | (_, Tri::T) => Ok(Tri::T),
                        (Tri::N, _) | (_, Tri::N) => Ok(Tri::N),
                        (Tri::X(v), _) | (_, Tri::X(v)) => {
                            exec_err(format!("expected boolean, found `{v}`"))
                        }
                        (Tri::F, Tri::F) => Ok(Tri::F),
                    }
                })
                .collect()
        }
        BoundExpr::Binary { left, op, right } => {
            if let Some(tri) = cmp_kernel(left, *op, right, batch, sel)? {
                return Ok(tri);
            }
            per_row(e, batch, sel)
        }
        BoundExpr::Not(inner) => eval_tri(inner, batch, sel)?
            .into_iter()
            .map(|t| match t {
                Tri::T => Ok(Tri::F),
                Tri::F => Ok(Tri::T),
                Tri::N => Ok(Tri::N),
                Tri::X(v) => exec_err(format!("NOT applied to non-boolean `{v}`")),
            })
            .collect(),
        BoundExpr::IsNull { expr, negated } => {
            if let BoundExpr::Column(c) = &**expr {
                let col = batch.column(*c);
                return Ok(sel
                    .iter()
                    .map(|&i| if col.is_null(i as usize) != *negated { Tri::T } else { Tri::F })
                    .collect());
            }
            per_row(e, batch, sel)
        }
        BoundExpr::InList { .. } => per_row(e, batch, sel),
    }
}

/// Exact fallback: materialize each selected row and evaluate it with
/// `BoundExpr::eval`. Errors surface at the first erring row in selection
/// (= row) order, exactly as a row loop would.
fn per_row(e: &BoundExpr, batch: &Batch, sel: &[u32]) -> Result<Vec<Tri>> {
    sel.iter()
        .map(|&i| {
            let row = batch.row(i as usize);
            Ok(classify(e.eval(&row)?))
        })
        .collect()
}

/// Typed comparison kernel for `column <op> literal` (either orientation).
/// Returns `Ok(None)` when no kernel is provably exact for this shape —
/// `Val`-represented columns, non-literal operands, ordered comparison
/// across incomparable type classes (which must error per row, in row
/// order), and arithmetic (whose div-by-zero errors are likewise
/// row-ordered) all take the per-row fallback.
fn cmp_kernel(
    left: &BoundExpr,
    op: BinaryOp,
    right: &BoundExpr,
    batch: &Batch,
    sel: &[u32],
) -> Result<Option<Vec<Tri>>> {
    use BinaryOp::*;
    if !matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
        return Ok(None);
    }
    let (c, lit, col_is_left) = match (left, right) {
        (BoundExpr::Column(c), BoundExpr::Literal(v)) => (*c, v, true),
        (BoundExpr::Literal(v), BoundExpr::Column(c)) => (*c, v, false),
        _ => return Ok(None),
    };
    let col = batch.column(c);
    if lit.is_null() {
        // NULL propagates through every comparison.
        return Ok(Some(sel.iter().map(|_| Tri::N).collect()));
    }
    let build = |ord_of: &dyn Fn(usize) -> Ordering| -> Vec<Tri> {
        sel.iter()
            .map(|&i| {
                let i = i as usize;
                if col.is_null(i) {
                    return Tri::N;
                }
                // `ord_of` compares column-value vs literal; flip for the
                // `literal <op> column` orientation.
                let ord = if col_is_left { ord_of(i) } else { ord_of(i).reverse() };
                let pass = match op {
                    Eq => ord.is_eq(),
                    NotEq => ord.is_ne(),
                    Lt => ord.is_lt(),
                    LtEq => ord.is_le(),
                    Gt => ord.is_gt(),
                    GtEq => ord.is_ge(),
                    _ => false,
                };
                if pass {
                    Tri::T
                } else {
                    Tri::F
                }
            })
            .collect()
    };
    // Same-class comparisons reproduce `Value::cmp` exactly: Int–Int stays
    // exact 64-bit, mixed numerics go through the same `total_fcmp` the
    // scalar path uses.
    Ok(match (col.data(), lit) {
        (ColumnData::Int(v), Value::Int(x)) => Some(build(&|i| v[i].cmp(x))),
        (ColumnData::Int(v), Value::Float(x)) => Some(build(&|i| total_fcmp(v[i] as f64, *x))),
        (ColumnData::Float(v), Value::Int(x)) => Some(build(&|i| total_fcmp(v[i], *x as f64))),
        (ColumnData::Float(v), Value::Float(x)) => Some(build(&|i| total_fcmp(v[i], *x))),
        (ColumnData::Str(v), Value::Str(x)) => Some(build(&|i| (*v[i]).cmp(x.as_str()))),
        (ColumnData::Bool(v), Value::Bool(x)) => Some(build(&|i| v[i].cmp(x))),
        // Cross-class equality never errors and never matches (distinct
        // type ranks compare unequal); ordered cross-class comparison is a
        // per-row type error, so it is NOT kerneled.
        (
            ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Bool(_) | ColumnData::Str(_),
            _,
        ) if matches!(op, Eq | NotEq) => Some(
            sel.iter()
                .map(|&i| {
                    if col.is_null(i as usize) {
                        Tri::N
                    } else if matches!(op, NotEq) {
                        Tri::T
                    } else {
                        Tri::F
                    }
                })
                .collect(),
        ),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    //! Differential unit test of the contract above: on seeded random
    //! batches, [`select_true`] and [`project_batch`] must agree with
    //! per-row `BoundExpr::eval_predicate` / `BoundExpr::eval`, and must
    //! error exactly when the per-row evaluation errors on some row.

    use super::*;
    use pqp_obs::rng::{Rng, SmallRng};
    use pqp_storage::Row;

    /// Column layout of the random batches: typed Int, Float, Str and Bool
    /// columns, then one column mixing types (demoted to `Val`).
    const ARITY: usize = 5;
    const VAL_COL: usize = 4;

    fn arb_typed(rng: &mut SmallRng, ty: usize) -> Value {
        match ty {
            0 => Value::Int(rng.gen_range(0..4i64)),
            1 => Value::Float(rng.gen_range(0..8i64) as f64 / 2.0),
            2 => Value::from(["x", "y", ""][rng.gen_index(3)]),
            _ => Value::Bool(rng.gen_bool(0.5)),
        }
    }

    /// A NULL-heavy value: 1 in 3 NULL, otherwise of type `ty` (any type
    /// for the mixed column).
    fn arb_cell(rng: &mut SmallRng, col: usize) -> Value {
        if rng.gen_bool(0.33) {
            return Value::Null;
        }
        let ty = if col == VAL_COL { rng.gen_index(4) } else { col };
        arb_typed(rng, ty)
    }

    /// A random batch and its rows. The mixed column's first two cells are
    /// an Int and a Str, so it is always demoted to the `Val` fallback.
    fn arb_batch(rng: &mut SmallRng) -> (Batch, Vec<Row>) {
        let n = rng.gen_range(2..48usize);
        let mut rows: Vec<Row> =
            (0..n).map(|_| (0..ARITY).map(|c| arb_cell(rng, c)).collect()).collect();
        rows[0][VAL_COL] = Value::Int(1);
        rows[1][VAL_COL] = Value::from("x");
        let batch = Batch::from_rows(&rows, ARITY);
        assert!(matches!(batch.column(VAL_COL).data(), ColumnData::Val(_)));
        (batch, rows)
    }

    fn arb_literal(rng: &mut SmallRng) -> Value {
        if rng.gen_bool(0.1) {
            return Value::Null;
        }
        let ty = rng.gen_index(4);
        arb_typed(rng, ty)
    }

    fn bin(left: BoundExpr, op: BinaryOp, right: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    const CMP: [BinaryOp; 6] =
        [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];
    const ARITH: [BinaryOp; 4] = [BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Mul, BinaryOp::Div];

    /// A scalar operand: a column, a literal, or arithmetic over operands
    /// (division by the zero-holding columns errors on some rows).
    fn arb_operand(rng: &mut SmallRng, depth: usize) -> BoundExpr {
        match rng.gen_range(0..4u32) {
            0 | 1 => BoundExpr::Column(rng.gen_index(ARITY)),
            2 => BoundExpr::Literal(arb_literal(rng)),
            _ if depth == 0 => BoundExpr::Column(rng.gen_index(2)),
            _ => bin(
                arb_operand(rng, depth - 1),
                ARITH[rng.gen_index(ARITH.len())],
                arb_operand(rng, depth - 1),
            ),
        }
    }

    /// A predicate biased toward the kernels' hazards: `column <op>
    /// literal` in both orientations, same-type and cross-type (ordered
    /// cross-type comparison is a per-row type error), Kleene AND/OR/NOT
    /// whose right side must stay unevaluated where the left decides, and
    /// non-boolean operands under a connective (a type error).
    fn arb_predicate(rng: &mut SmallRng, depth: usize) -> BoundExpr {
        if depth > 0 && rng.gen_bool(0.45) {
            let sub = |rng: &mut SmallRng| {
                if rng.gen_bool(0.1) {
                    arb_operand(rng, 0)
                } else {
                    arb_predicate(rng, depth - 1)
                }
            };
            return match rng.gen_range(0..3u32) {
                0 => bin(sub(rng), BinaryOp::And, sub(rng)),
                1 => bin(sub(rng), BinaryOp::Or, sub(rng)),
                _ => BoundExpr::Not(Box::new(sub(rng))),
            };
        }
        match rng.gen_range(0..6u32) {
            0 | 1 => {
                let c = rng.gen_index(ARITY);
                let lit = if c != VAL_COL && rng.gen_bool(0.6) {
                    arb_typed(rng, c)
                } else {
                    arb_literal(rng)
                };
                let (col, lit) = (BoundExpr::Column(c), BoundExpr::Literal(lit));
                let op = CMP[rng.gen_index(CMP.len())];
                if rng.gen_bool(0.5) {
                    bin(col, op, lit)
                } else {
                    bin(lit, op, col)
                }
            }
            2 => bin(arb_operand(rng, 1), CMP[rng.gen_index(CMP.len())], arb_operand(rng, 1)),
            3 => BoundExpr::IsNull {
                expr: Box::new(arb_operand(rng, 1)),
                negated: rng.gen_bool(0.5),
            },
            4 => BoundExpr::InList {
                expr: Box::new(arb_operand(rng, 0)),
                list: (0..rng.gen_range(1..4usize))
                    .map(|_| BoundExpr::Literal(arb_literal(rng)))
                    .collect(),
                negated: rng.gen_bool(0.5),
            },
            _ => BoundExpr::Column(rng.gen_index(ARITY)),
        }
    }

    #[test]
    fn select_true_matches_per_row_eval_predicate() {
        let mut rng = SmallRng::seed_from_u64(0x5E1EC7);
        let (mut both_ok, mut both_err, mut selected) = (0, 0, 0);
        for _ in 0..4000 {
            let (batch, rows) = arb_batch(&mut rng);
            let pred = arb_predicate(&mut rng, 3);
            let want: Result<Vec<u32>> = rows
                .iter()
                .enumerate()
                .filter_map(|(i, row)| match pred.eval_predicate(row) {
                    Ok(true) => Some(Ok(i as u32)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                })
                .collect();
            match (select_true(&pred, &batch), want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "selection diverged for {pred:?} over {rows:?}");
                    both_ok += 1;
                    selected += got.len();
                }
                (Err(_), Err(_)) => both_err += 1,
                (got, want) => panic!(
                    "error mismatch for {pred:?} over {rows:?}: select_true={got:?} per-row={want:?}"
                ),
            }
        }
        // Non-vacuity: both outcomes are common, and rows do get selected.
        assert!(
            both_ok >= 2000 && both_err >= 1000 && selected > 0,
            "{both_ok} ok, {both_err} err"
        );
    }

    #[test]
    fn project_batch_matches_per_row_eval() {
        let mut rng = SmallRng::seed_from_u64(0x9207EC7);
        let (mut both_ok, mut both_err) = (0, 0);
        for _ in 0..4000 {
            let (batch, rows) = arb_batch(&mut rng);
            let exprs: Vec<BoundExpr> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        arb_operand(&mut rng, 2)
                    } else {
                        arb_predicate(&mut rng, 2)
                    }
                })
                .collect();
            let want: Result<Vec<Row>> =
                rows.iter().map(|row| exprs.iter().map(|e| e.eval(row)).collect()).collect();
            match (project_batch(&exprs, &batch), want) {
                (Ok(got), Ok(want)) => {
                    let mut got_rows = Vec::new();
                    got.append_rows(&mut got_rows);
                    assert_eq!(got_rows, want, "projection diverged for {exprs:?} over {rows:?}");
                    both_ok += 1;
                }
                (Err(_), Err(_)) => both_err += 1,
                (got, want) => panic!(
                    "error mismatch for {exprs:?} over {rows:?}: project_batch ok={} per-row ok={}",
                    got.is_ok(),
                    want.is_ok()
                ),
            }
        }
        assert!(both_ok >= 1500 && both_err >= 1000, "{both_ok} ok, {both_err} err");
    }
}

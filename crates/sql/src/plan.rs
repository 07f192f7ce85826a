//! Prepared query plans: compile a SELECT once, execute it every
//! epoch without re-lexing, re-parsing, re-resolving or allocating.
//!
//! PrivApprox's workload is a *long-lived* query executed by millions
//! of clients once per answer frequency (paper §2.2): the SQL text
//! never changes between epochs, only the local rows do. The
//! interpreted path ([`crate::execute`]) walks the AST per row,
//! resolves column names through the schema per reference, and
//! materializes a fresh [`ResultSet`] per call — all of it redundant
//! after the first epoch. A [`PreparedSelect`] front-loads that work:
//!
//! * column references are resolved to row indices at prepare time
//!   (`UnknownColumn` surfaces once, not per execution);
//! * constant subexpressions are folded (`speed > 2*30` compiles to
//!   one comparison against `60`);
//! * projections and predicates are flattened into a closure-free
//!   opcode form (the private `Op` enum) evaluated by a small stack
//!   machine whose stack lives in a caller-owned [`EvalScratch`] —
//!   values on the stack are lifetime-free slots that reference row
//!   text and pooled literals by index, so predicate evaluation
//!   never clones a string;
//! * the common client shape — `SELECT col FROM t [WHERE col ⋈ lit]`
//!   — is additionally specialized into a fused scan that can answer
//!   "last matching value" without evaluating opcodes at all.
//!
//! Execution entry points, in decreasing generality:
//!
//! * [`PreparedSelect::execute`] — materializes a [`ResultSet`],
//!   byte-identical to the interpreted [`crate::execute`] (the
//!   property tests in `tests/properties.rs` enforce this across the
//!   whole parser corpus, errors included);
//! * [`execute_prepared_into`] — the same, but recycles the caller's
//!   [`ResultSet`] buffers;
//! * [`PreparedSelect::for_each_row`] — visitor over projected rows
//!   as borrowed [`ValueRef`]s, allocation-free at steady state;
//! * [`PreparedSelect::last_single_value`] — the PrivApprox client's
//!   question ("newest matching value of the single answer column"),
//!   served by the fused scan when available.
//!
//! Plans are bound to the catalog generation they were compiled
//! against ([`crate::Database::generation`]); executing a stale plan
//! fails with [`SqlError::StalePlan`] instead of reading through
//! remapped column indices. [`PlanCache`] wraps the
//! prepare-validate-recompile cycle keyed by [`QueryId`], which is
//! what the client consults on every `truthful_answer`.

use crate::ast::{BinaryOp, Expr, SelectItem, SelectStmt, UnaryOp};
use crate::error::SqlError;
use crate::exec::ResultSet;
use crate::table::{Database, Schema, Table};
use crate::value::Value;
use privapprox_types::fasthash::FastState;
use privapprox_types::ids::QueryId;
use privapprox_types::query::like_match;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A borrowed SQL value: what [`PreparedSelect::for_each_row`] hands
/// its visitor. Text borrows from the row (or the plan's literal
/// pool) instead of cloning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed UTF-8 text.
    Text(&'a str),
}

impl<'a> ValueRef<'a> {
    /// Numeric view with the same coercions as [`Value::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(*i as f64),
            ValueRef::Float(f) => Some(*f),
            ValueRef::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// True for NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Clones into an owned [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(f) => Value::Float(*f),
            ValueRef::Bool(b) => Value::Bool(*b),
            ValueRef::Text(s) => Value::Text((*s).to_string()),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

/// A lifetime-free stack value: scalars inline, text by reference
/// into the current row (`RowText`) or the plan's literal pool
/// (`LitText`). This is what lets the evaluation stack live in a
/// caller-owned buffer across calls with different row lifetimes.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    /// Text in column `i` of the row under evaluation.
    RowText(u32),
    /// Text literal `i` in [`PreparedSelect::lits`].
    LitText(u32),
}

/// One opcode of the compiled expression machine. Postfix order with
/// explicit jump targets for the short-circuit forms, so evaluation
/// order — and therefore which row errors surface — is identical to
/// the tree-walking interpreter.
#[derive(Debug, Clone)]
enum Op {
    /// Push a pre-resolved literal slot.
    Push(Slot),
    /// Push column `i` of the current row.
    Col(u32),
    /// Pop two, push their comparison (`Eq`/`Neq`/`Lt`/`Le`/`Gt`/`Ge`).
    Cmp(BinaryOp),
    /// Pop two, push their arithmetic result (`Add`/`Sub`/`Mul`/`Div`).
    Arith(BinaryOp),
    /// Pop one, push its arithmetic negation.
    Neg,
    /// Pop one, push its three-valued logical negation.
    Not,
    /// Pop one, push `IS [NOT] NULL`.
    IsNull { negated: bool },
    /// Pop one, push `[NOT] LIKE patterns[pattern]`.
    Like { pattern: u32, negated: bool },
    /// `AND` short-circuit: if the top's truth is `false`, replace it
    /// with `Bool(false)` and jump to `end` (skipping the rhs).
    AndJump { end: u32 },
    /// `OR` short-circuit: if the top's truth is `true`, replace it
    /// with `Bool(true)` and jump to `end`.
    OrJump { end: u32 },
    /// Pop rhs and lhs, push their three-valued `AND`.
    AndCombine,
    /// Pop rhs and lhs, push their three-valued `OR`.
    OrCombine,
    /// Pop hi, lo and the tested value, push `[NOT] BETWEEN`.
    Between { negated: bool },
    /// `IN` prologue: if the needle on top is NULL, replace it with
    /// NULL and jump to `end`; otherwise push the saw-null sentinel.
    InBegin { end: u32 },
    /// One `IN` list item: pop it, compare against the needle; on a
    /// match collapse to the result and jump to `end`, on an
    /// incomparable NULL set the sentinel.
    InCheck { end: u32, negated: bool },
    /// `IN` epilogue: collapse needle + sentinel into the final
    /// three-valued result.
    InEnd { negated: bool },
}

/// The specialized fused scan for `SELECT col FROM t [WHERE col ⋈
/// lit] [LIMIT n]`: no opcodes, no projection evaluation, just a row
/// walk. Detected at prepare time; only shapes whose evaluation can
/// never error qualify, which is what makes it safe for
/// [`PreparedSelect::last_single_value`] to skip rows.
#[derive(Debug, Clone)]
struct FastScan {
    /// `WHERE` as (column, comparison, literal, column-on-lhs);
    /// `None` means no filter.
    pred: Option<(u32, BinaryOp, Value, bool)>,
    /// The single projected column.
    col: u32,
}

impl FastScan {
    /// Exactly the interpreter's `WHERE` semantics: keep the row iff
    /// the predicate's truth is `Some(true)`.
    #[inline]
    fn keeps(&self, row: &[Value]) -> bool {
        let Some((col, op, lit, col_first)) = &self.pred else {
            return true;
        };
        let v = &row[*col as usize];
        let (a, b) = if *col_first { (v, lit) } else { (lit, v) };
        use core::cmp::Ordering::*;
        match op {
            BinaryOp::Eq => a.sql_eq(b) == Some(true),
            BinaryOp::Neq => a.sql_eq(b) == Some(false),
            BinaryOp::Lt => a.sql_cmp(b) == Some(Less),
            BinaryOp::Le => matches!(a.sql_cmp(b), Some(Less | Equal)),
            BinaryOp::Gt => a.sql_cmp(b) == Some(Greater),
            BinaryOp::Ge => matches!(a.sql_cmp(b), Some(Greater | Equal)),
            _ => unreachable!("only comparisons are specialized"),
        }
    }
}

/// One projection item after compilation.
#[derive(Debug, Clone)]
enum PlannedItem {
    /// `*`: every row column in schema order.
    AllColumns,
    /// A compiled expression.
    Expr(Vec<Op>),
}

/// A SELECT compiled against one catalog generation. See the module
/// docs for what compilation buys and which entry point to use.
#[derive(Debug, Clone)]
pub struct PreparedSelect {
    table: String,
    generation: u64,
    /// Output column names, wildcards expanded.
    columns: Vec<String>,
    items: Vec<PlannedItem>,
    filter: Option<Vec<Op>>,
    /// Text-literal pool referenced by [`Slot::LitText`].
    lits: Vec<Value>,
    /// LIKE-pattern pool.
    patterns: Vec<String>,
    limit: Option<u64>,
    fast: Option<FastScan>,
}

/// Caller-owned evaluation buffers: the opcode stack and the
/// projected-row slots. One warm `EvalScratch` makes
/// [`PreparedSelect::for_each_row`] allocation-free.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    stack: Vec<Slot>,
    out: Vec<Slot>,
}

impl EvalScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

/// A projected row handed to the [`PreparedSelect::for_each_row`]
/// visitor; values resolve lazily as borrowed [`ValueRef`]s.
pub struct RowView<'v> {
    plan: &'v PreparedSelect,
    row: &'v [Value],
    slots: &'v [Slot],
}

impl<'v> RowView<'v> {
    /// Number of output columns.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the projection is empty (never for valid plans).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Output column `i` of this row.
    pub fn get(&self, i: usize) -> ValueRef<'v> {
        resolve(self.slots[i], self.row, &self.plan.lits)
    }
}

/// Resolves a slot to a borrowed value against its row and pool.
#[inline]
fn resolve<'a>(slot: Slot, row: &'a [Value], lits: &'a [Value]) -> ValueRef<'a> {
    match slot {
        Slot::Null => ValueRef::Null,
        Slot::Int(i) => ValueRef::Int(i),
        Slot::Float(f) => ValueRef::Float(f),
        Slot::Bool(b) => ValueRef::Bool(b),
        Slot::RowText(i) => match &row[i as usize] {
            Value::Text(s) => ValueRef::Text(s),
            _ => unreachable!("RowText slot over non-text column"),
        },
        Slot::LitText(i) => match &lits[i as usize] {
            Value::Text(s) => ValueRef::Text(s),
            _ => unreachable!("LitText slot over non-text literal"),
        },
    }
}

impl PreparedSelect {
    /// Compiles `stmt` against the catalog's current state.
    ///
    /// Unknown tables/columns error here, once, instead of on every
    /// execution. The plan records [`Database::generation`] and
    /// refuses to run once the catalog changes.
    pub fn prepare(stmt: &SelectStmt, db: &Database) -> Result<PreparedSelect, SqlError> {
        let table = db.table(&stmt.table)?;
        let schema = table.schema();
        let mut plan = PreparedSelect {
            table: stmt.table.clone(),
            generation: db.generation(),
            columns: Vec::new(),
            items: Vec::with_capacity(stmt.items.len()),
            filter: None,
            lits: Vec::new(),
            patterns: Vec::new(),
            limit: stmt.limit,
            fast: None,
        };
        // Fold constants first so `2*30` specializes as well as `60`
        // does; folding never introduces or hides errors (a constant
        // subexpression that fails to evaluate is left unfolded and
        // errors at execution, exactly like the interpreter).
        let folded_items: Vec<SelectItem> = stmt
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: fold_constants(expr),
                    alias: alias.clone(),
                },
            })
            .collect();
        let folded_filter = stmt.where_clause.as_ref().map(|w| fold_constants(w));

        for (i, item) in folded_items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for name in schema.names() {
                        plan.columns.push(name.to_string());
                    }
                    plan.items.push(PlannedItem::AllColumns);
                }
                SelectItem::Expr { expr, .. } => {
                    let mut ops = Vec::new();
                    compile_expr(expr, schema, &mut plan.lits, &mut plan.patterns, &mut ops)?;
                    plan.columns.push(stmt.output_name(i));
                    plan.items.push(PlannedItem::Expr(ops));
                }
            }
        }
        if let Some(w) = &folded_filter {
            let mut ops = Vec::new();
            compile_expr(w, schema, &mut plan.lits, &mut plan.patterns, &mut ops)?;
            plan.filter = Some(ops);
        }
        plan.fast = detect_fast(&folded_items, folded_filter.as_ref(), schema);
        Ok(plan)
    }

    /// The catalog generation this plan was compiled against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Output column names (wildcards expanded).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// True when the fused single-column scan specialization applies
    /// (diagnostics; the entry points pick it automatically).
    pub fn is_fast_scan(&self) -> bool {
        self.fast.is_some()
    }

    /// Runs the plan, materializing a fresh [`ResultSet`] —
    /// byte-identical to interpreting the original statement with
    /// [`crate::execute`], errors included.
    pub fn execute(&self, db: &Database) -> Result<ResultSet, SqlError> {
        let mut out = ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
        };
        let mut scratch = EvalScratch::new();
        execute_prepared_into(self, db, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Streams every emitted row to `visit` as a [`RowView`] without
    /// materializing anything; with a warm `scratch` the call is
    /// allocation-free. Rows are visited in table order, after the
    /// `WHERE` filter and under the `LIMIT` cap, with projection
    /// expressions evaluated eagerly so errors surface for exactly
    /// the rows the interpreter would have evaluated.
    pub fn for_each_row<F>(
        &self,
        db: &Database,
        scratch: &mut EvalScratch,
        mut visit: F,
    ) -> Result<(), SqlError>
    where
        F: FnMut(RowView<'_>),
    {
        let table = self.table_for(db)?;
        let limit = self.limit.unwrap_or(u64::MAX);
        if limit == 0 {
            return Ok(());
        }
        let mut emitted = 0u64;
        for row in table.rows() {
            if let Some(filter) = &self.filter {
                let slot = run_ops(filter, &self.lits, &self.patterns, row, &mut scratch.stack)?;
                if truth_of(slot) != Some(true) {
                    continue;
                }
            }
            scratch.out.clear();
            for item in &self.items {
                match item {
                    PlannedItem::AllColumns => {
                        for (i, v) in row.iter().enumerate() {
                            scratch.out.push(slot_of_row_value(v, i as u32));
                        }
                    }
                    PlannedItem::Expr(ops) => {
                        let slot =
                            run_ops(ops, &self.lits, &self.patterns, row, &mut scratch.stack)?;
                        scratch.out.push(slot);
                    }
                }
            }
            visit(RowView {
                plan: self,
                row,
                slots: &scratch.out,
            });
            emitted += 1;
            if emitted >= limit {
                break;
            }
        }
        Ok(())
    }

    /// The PrivApprox client's question: the value of the single
    /// output column in the *last* emitted row (`None` when no row
    /// matches). Errors if the projection is not exactly one column,
    /// with the same message as [`ResultSet::single_column`].
    ///
    /// Uses the fused scan when the plan qualifies — for an unlimited
    /// query that is a reverse walk stopping at the first match — and
    /// falls back to the full opcode scan otherwise, so error
    /// behaviour always matches interpret-then-`single_column`.
    pub fn last_single_value<'a>(
        &'a self,
        db: &'a Database,
        scratch: &mut EvalScratch,
    ) -> Result<Option<ValueRef<'a>>, SqlError> {
        let table = self.table_for(db)?;
        if let Some(fast) = &self.fast {
            // Fast shapes cannot error per row, so skipping rows is
            // observationally identical to evaluating them.
            let rows = table.rows();
            let col = fast.col as usize;
            let limit = self.limit.unwrap_or(u64::MAX);
            if limit == 0 {
                return Ok(None);
            }
            if limit >= rows.len() as u64 {
                for row in rows.iter().rev() {
                    if fast.keeps(row) {
                        return Ok(Some(ValueRef::from(&row[col])));
                    }
                }
                return Ok(None);
            }
            let mut last = None;
            let mut emitted = 0u64;
            for row in rows {
                if fast.keeps(row) {
                    last = Some(ValueRef::from(&row[col]));
                    emitted += 1;
                    if emitted >= limit {
                        break;
                    }
                }
            }
            return Ok(last);
        }
        // Generic path: full scan (errors must surface for every row
        // the interpreter would evaluate), remembering which emitted
        // row and which slot produced the final value. Borrowed text
        // cannot escape the visitor closure, so a text result is
        // re-resolved by walking the filtered rows a second time —
        // slots are indices, and the table has not moved.
        let mut last: Option<(usize, Slot)> = None;
        let mut emitted = 0usize;
        self.for_each_row(db, scratch, |view| {
            if view.slots.len() == 1 {
                last = Some((emitted, view.slots[0]));
            }
            emitted += 1;
        })?;
        if self.columns.len() != 1 {
            return Err(SqlError::Type(format!(
                "expected exactly 1 output column, got {}",
                self.columns.len()
            )));
        }
        match last {
            None => Ok(None),
            Some((target, Slot::RowText(col))) => {
                let mut hit: Option<&Value> = None;
                let mut i = 0usize;
                self.for_each_emitted_source(table, scratch, |row| {
                    if i == target {
                        hit = Some(&row[col as usize]);
                    }
                    i += 1;
                })?;
                Ok(hit.map(ValueRef::from))
            }
            Some((_, slot)) => Ok(Some(resolve(slot, &[], &self.lits))),
        }
    }

    /// Internal: walks the *source* rows that pass the filter (under
    /// LIMIT), without evaluating projections. Only used to re-find a
    /// row already visited by a successful scan.
    fn for_each_emitted_source<'a, F>(
        &self,
        table: &'a Table,
        scratch: &mut EvalScratch,
        mut visit: F,
    ) -> Result<(), SqlError>
    where
        F: FnMut(&'a [Value]),
    {
        let limit = self.limit.unwrap_or(u64::MAX);
        if limit == 0 {
            return Ok(());
        }
        let mut emitted = 0u64;
        for row in table.rows() {
            if let Some(filter) = &self.filter {
                let slot = run_ops(filter, &self.lits, &self.patterns, row, &mut scratch.stack)?;
                if truth_of(slot) != Some(true) {
                    continue;
                }
            }
            visit(row);
            emitted += 1;
            if emitted >= limit {
                break;
            }
        }
        Ok(())
    }

    /// Looks up the plan's table, checking staleness first.
    fn table_for<'a>(&self, db: &'a Database) -> Result<&'a Table, SqlError> {
        if db.generation() != self.generation {
            return Err(SqlError::StalePlan);
        }
        db.table(&self.table)
    }
}

/// Runs a prepared plan into a caller-owned [`ResultSet`], recycling
/// its buffers (columns and per-row vectors keep their allocations
/// across calls). On error the contents of `out` are unspecified.
pub fn execute_prepared_into(
    plan: &PreparedSelect,
    db: &Database,
    scratch: &mut EvalScratch,
    out: &mut ResultSet,
) -> Result<(), SqlError> {
    out.columns.clear();
    out.columns.extend(plan.columns.iter().cloned());
    let mut used = 0usize;
    let rows = &mut out.rows;
    plan.for_each_row(db, scratch, |view| {
        if used < rows.len() {
            let dst = &mut rows[used];
            dst.clear();
            dst.extend((0..view.len()).map(|i| view.get(i).to_value()));
        } else {
            rows.push((0..view.len()).map(|i| view.get(i).to_value()).collect());
        }
        used += 1;
    })?;
    rows.truncate(used);
    Ok(())
}

/// A cache of prepared plans keyed by [`QueryId`] — what the client
/// consults on every answer epoch.
///
/// An entry is reused only while both of these hold, otherwise it is
/// transparently recompiled:
///
/// * the SQL text is unchanged (a re-registered `QueryId` with
///   different SQL invalidates the entry);
/// * the catalog generation is unchanged (a re-created table
///   invalidates every plan compiled before it).
#[derive(Debug, Default)]
pub struct PlanCache {
    // `FastState`: looked up once per answered message; QueryIds are
    // analyst-assigned, not attacker-chosen, so SipHash buys nothing.
    plans: HashMap<QueryId, CachedPlan, FastState>,
}

#[derive(Debug)]
struct CachedPlan {
    sql: String,
    plan: PreparedSelect,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Returns the cached plan for `id`, (re)compiling `sql` against
    /// `db` when the entry is missing, carries different SQL, or was
    /// compiled against an older catalog generation. The hot-path
    /// cost of a hit is one hash lookup plus one string compare.
    pub fn get_or_prepare(
        &mut self,
        id: QueryId,
        sql: &str,
        db: &Database,
    ) -> Result<&PreparedSelect, SqlError> {
        match self.plans.entry(id) {
            Entry::Occupied(entry) => {
                let cached = entry.into_mut();
                if cached.sql != sql || cached.plan.generation() != db.generation() {
                    let stmt = crate::parser::parse_select(sql)?;
                    cached.plan = PreparedSelect::prepare(&stmt, db)?;
                    cached.sql.clear();
                    cached.sql.push_str(sql);
                }
                Ok(&cached.plan)
            }
            Entry::Vacant(slot) => {
                let stmt = crate::parser::parse_select(sql)?;
                let plan = PreparedSelect::prepare(&stmt, db)?;
                Ok(&slot
                    .insert(CachedPlan {
                        sql: sql.to_string(),
                        plan,
                    })
                    .plan)
            }
        }
    }

    /// Drops the plan for `id` (if any).
    pub fn invalidate(&mut self, id: QueryId) {
        self.plans.remove(&id);
    }

    /// Drops every cached plan.
    pub fn clear(&mut self) {
        self.plans.clear();
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Bottom-up constant folding. A subexpression with no column
/// references whose evaluation *succeeds* is replaced by its literal
/// value; one that errors (`1/0`, `'a' + 1`) is kept verbatim so the
/// error still surfaces per evaluated row, like the interpreter.
fn fold_constants(expr: &Expr) -> Expr {
    let folded = match expr {
        Expr::Literal(_) | Expr::Column(_) => expr.clone(),
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(fold_constants(lhs)),
            rhs: Box::new(fold_constants(rhs)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(fold_constants(expr)),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(fold_constants(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(fold_constants(expr)),
            list: list.iter().map(fold_constants).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(fold_constants(expr)),
            lo: Box::new(fold_constants(lo)),
            hi: Box::new(fold_constants(hi)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(fold_constants(expr)),
            negated: *negated,
        },
    };
    if matches!(folded, Expr::Literal(_)) || !is_constant(&folded) {
        return folded;
    }
    // Evaluate against an empty schema/row: constant expressions
    // never touch either.
    let empty = Schema::new(vec![]);
    match crate::exec::eval(&folded, &empty, &[]) {
        Ok(v) => Expr::Literal(v),
        Err(_) => folded,
    }
}

/// True when the expression references no columns.
fn is_constant(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column(_) => false,
        Expr::Binary { lhs, rhs, .. } => is_constant(lhs) && is_constant(rhs),
        Expr::Unary { expr, .. } => is_constant(expr),
        Expr::Like { expr, .. } => is_constant(expr),
        Expr::InList { expr, list, .. } => is_constant(expr) && list.iter().all(is_constant),
        Expr::Between { expr, lo, hi, .. } => {
            is_constant(expr) && is_constant(lo) && is_constant(hi)
        }
        Expr::IsNull { expr, .. } => is_constant(expr),
    }
}

/// Compiles one expression to postfix opcodes, resolving columns.
fn compile_expr(
    expr: &Expr,
    schema: &Schema,
    lits: &mut Vec<Value>,
    patterns: &mut Vec<String>,
    ops: &mut Vec<Op>,
) -> Result<(), SqlError> {
    match expr {
        Expr::Literal(v) => {
            ops.push(Op::Push(lit_slot(v, lits)));
        }
        Expr::Column(name) => {
            let idx = schema
                .index_of(name)
                .ok_or_else(|| SqlError::UnknownColumn(name.clone()))?;
            ops.push(Op::Col(idx as u32));
        }
        Expr::Unary { op, expr } => {
            compile_expr(expr, schema, lits, patterns, ops)?;
            ops.push(match op {
                UnaryOp::Not => Op::Not,
                UnaryOp::Neg => Op::Neg,
            });
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinaryOp::And | BinaryOp::Or => {
                compile_expr(lhs, schema, lits, patterns, ops)?;
                let jump_at = ops.len();
                ops.push(Op::AndJump { end: 0 }); // patched below
                compile_expr(rhs, schema, lits, patterns, ops)?;
                ops.push(if *op == BinaryOp::And {
                    Op::AndCombine
                } else {
                    Op::OrCombine
                });
                let end = ops.len() as u32;
                ops[jump_at] = if *op == BinaryOp::And {
                    Op::AndJump { end }
                } else {
                    Op::OrJump { end }
                };
            }
            BinaryOp::Eq
            | BinaryOp::Neq
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                compile_expr(lhs, schema, lits, patterns, ops)?;
                compile_expr(rhs, schema, lits, patterns, ops)?;
                ops.push(Op::Cmp(*op));
            }
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
                compile_expr(lhs, schema, lits, patterns, ops)?;
                compile_expr(rhs, schema, lits, patterns, ops)?;
                ops.push(Op::Arith(*op));
            }
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            compile_expr(expr, schema, lits, patterns, ops)?;
            let idx = patterns.len() as u32;
            patterns.push(pattern.clone());
            ops.push(Op::Like {
                pattern: idx,
                negated: *negated,
            });
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            compile_expr(expr, schema, lits, patterns, ops)?;
            let begin_at = ops.len();
            ops.push(Op::InBegin { end: 0 }); // patched below
            let mut checks = Vec::with_capacity(list.len());
            for item in list {
                compile_expr(item, schema, lits, patterns, ops)?;
                checks.push(ops.len());
                ops.push(Op::InCheck {
                    end: 0,
                    negated: *negated,
                });
            }
            ops.push(Op::InEnd { negated: *negated });
            let end = ops.len() as u32;
            ops[begin_at] = Op::InBegin { end };
            for at in checks {
                ops[at] = Op::InCheck {
                    end,
                    negated: *negated,
                };
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            compile_expr(expr, schema, lits, patterns, ops)?;
            compile_expr(lo, schema, lits, patterns, ops)?;
            compile_expr(hi, schema, lits, patterns, ops)?;
            ops.push(Op::Between { negated: *negated });
        }
        Expr::IsNull { expr, negated } => {
            compile_expr(expr, schema, lits, patterns, ops)?;
            ops.push(Op::IsNull { negated: *negated });
        }
    }
    Ok(())
}

/// Interns a literal as a pushable slot (text goes to the pool).
fn lit_slot(v: &Value, lits: &mut Vec<Value>) -> Slot {
    match v {
        Value::Null => Slot::Null,
        Value::Int(i) => Slot::Int(*i),
        Value::Float(f) => Slot::Float(*f),
        Value::Bool(b) => Slot::Bool(*b),
        Value::Text(_) => {
            if let Some(i) = lits.iter().position(|l| l == v) {
                Slot::LitText(i as u32)
            } else {
                lits.push(v.clone());
                Slot::LitText((lits.len() - 1) as u32)
            }
        }
    }
}

/// Detects the fused single-column scan shape (see [`FastScan`]).
fn detect_fast(
    items: &[SelectItem],
    filter: Option<&Expr>,
    schema: &Schema,
) -> Option<FastScan> {
    let [SelectItem::Expr {
        expr: Expr::Column(col),
        ..
    }] = items
    else {
        return None;
    };
    let col = schema.index_of(col)? as u32;
    let pred = match filter {
        None => None,
        Some(Expr::Binary { op, lhs, rhs })
            if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::Neq
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
            ) =>
        {
            match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => {
                    Some((schema.index_of(c)? as u32, *op, v.clone(), true))
                }
                (Expr::Literal(v), Expr::Column(c)) => {
                    Some((schema.index_of(c)? as u32, *op, v.clone(), false))
                }
                _ => return None,
            }
        }
        Some(_) => return None,
    };
    Some(FastScan { pred, col })
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// SQL truthiness of a slot (no resolution needed: text is always
/// "false" and scalars carry their own value).
#[inline]
fn truth_of(slot: Slot) -> Option<bool> {
    match slot {
        Slot::Null => None,
        Slot::Bool(b) => Some(b),
        Slot::Int(i) => Some(i != 0),
        Slot::Float(f) => Some(f != 0.0),
        Slot::RowText(_) | Slot::LitText(_) => Some(false),
    }
}

/// Numeric view of a slot (same coercions as [`Value::as_f64`]).
#[inline]
fn f64_of(slot: Slot) -> Option<f64> {
    match slot {
        Slot::Int(i) => Some(i as f64),
        Slot::Float(f) => Some(f),
        Slot::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Converts a row value to a slot (text by reference).
#[inline]
fn slot_of_row_value(v: &Value, col: u32) -> Slot {
    match v {
        Value::Null => Slot::Null,
        Value::Int(i) => Slot::Int(*i),
        Value::Float(f) => Slot::Float(*f),
        Value::Bool(b) => Slot::Bool(*b),
        Value::Text(_) => Slot::RowText(col),
    }
}

/// Owned clone of a slot's value — error paths only.
fn value_of(slot: Slot, row: &[Value], lits: &[Value]) -> Value {
    resolve(slot, row, lits).to_value()
}

/// Resolves a text slot to its backing string.
#[inline]
fn text_of<'a>(slot: Slot, row: &'a [Value], lits: &'a [Value]) -> &'a str {
    match resolve(slot, row, lits) {
        ValueRef::Text(s) => s,
        _ => unreachable!("text_of on non-text slot"),
    }
}

/// [`Value::sql_eq`] over slots.
fn slot_eq(a: Slot, b: Slot, row: &[Value], lits: &[Value]) -> Option<bool> {
    if matches!(a, Slot::Null) || matches!(b, Slot::Null) {
        return None;
    }
    Some(match (a, b) {
        (Slot::RowText(_) | Slot::LitText(_), Slot::RowText(_) | Slot::LitText(_)) => {
            text_of(a, row, lits) == text_of(b, row, lits)
        }
        (Slot::Bool(x), Slot::Bool(y)) => x == y,
        _ => match (f64_of(a), f64_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    })
}

/// [`Value::sql_cmp`] over slots.
fn slot_cmp(a: Slot, b: Slot, row: &[Value], lits: &[Value]) -> Option<core::cmp::Ordering> {
    if matches!(a, Slot::Null) || matches!(b, Slot::Null) {
        return None;
    }
    match (a, b) {
        (Slot::RowText(_) | Slot::LitText(_), Slot::RowText(_) | Slot::LitText(_)) => {
            Some(text_of(a, row, lits).cmp(text_of(b, row, lits)))
        }
        _ => {
            let (x, y) = (f64_of(a)?, f64_of(b)?);
            x.partial_cmp(&y)
        }
    }
}

/// Executes a compiled opcode sequence against one row, returning the
/// result slot. The stack is caller-owned and cleared on entry.
fn run_ops(
    ops: &[Op],
    lits: &[Value],
    patterns: &[String],
    row: &[Value],
    stack: &mut Vec<Slot>,
) -> Result<Slot, SqlError> {
    stack.clear();
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::Push(slot) => stack.push(*slot),
            Op::Col(i) => stack.push(slot_of_row_value(&row[*i as usize], *i)),
            Op::Cmp(op) => {
                let r = stack.pop().expect("cmp rhs");
                let l = stack.pop().expect("cmp lhs");
                let slot = match op {
                    BinaryOp::Eq | BinaryOp::Neq => match slot_eq(l, r, row, lits) {
                        None => Slot::Null,
                        Some(eq) => Slot::Bool(if *op == BinaryOp::Eq { eq } else { !eq }),
                    },
                    _ => match slot_cmp(l, r, row, lits) {
                        None => Slot::Null,
                        Some(ord) => {
                            use core::cmp::Ordering::*;
                            Slot::Bool(match op {
                                BinaryOp::Lt => ord == Less,
                                BinaryOp::Le => ord != Greater,
                                BinaryOp::Gt => ord == Greater,
                                BinaryOp::Ge => ord != Less,
                                _ => unreachable!(),
                            })
                        }
                    },
                };
                stack.push(slot);
            }
            Op::Arith(op) => {
                let r = stack.pop().expect("arith rhs");
                let l = stack.pop().expect("arith lhs");
                stack.push(arith(*op, l, r, row, lits)?);
            }
            Op::Neg => {
                let v = stack.pop().expect("neg operand");
                let slot = match v {
                    Slot::Null => Slot::Null,
                    Slot::Int(i) => Slot::Int(-i),
                    Slot::Float(f) => Slot::Float(-f),
                    other => {
                        return Err(SqlError::Type(format!(
                            "cannot negate {}",
                            value_of(other, row, lits)
                        )))
                    }
                };
                stack.push(slot);
            }
            Op::Not => {
                let v = stack.pop().expect("not operand");
                stack.push(match truth_of(v) {
                    None => Slot::Null,
                    Some(b) => Slot::Bool(!b),
                });
            }
            Op::IsNull { negated } => {
                let v = stack.pop().expect("is-null operand");
                stack.push(Slot::Bool(matches!(v, Slot::Null) != *negated));
            }
            Op::Like { pattern, negated } => {
                let v = stack.pop().expect("like operand");
                let slot = match v {
                    Slot::Null => Slot::Null,
                    Slot::RowText(_) | Slot::LitText(_) => {
                        let hit = like_match(&patterns[*pattern as usize], text_of(v, row, lits));
                        Slot::Bool(hit != *negated)
                    }
                    other => {
                        return Err(SqlError::Type(format!(
                            "LIKE needs text, got {}",
                            value_of(other, row, lits)
                        )))
                    }
                };
                stack.push(slot);
            }
            Op::AndJump { end } => {
                let l = *stack.last().expect("and lhs");
                if truth_of(l) == Some(false) {
                    *stack.last_mut().expect("and lhs") = Slot::Bool(false);
                    pc = *end as usize;
                    continue;
                }
            }
            Op::OrJump { end } => {
                let l = *stack.last().expect("or lhs");
                if truth_of(l) == Some(true) {
                    *stack.last_mut().expect("or lhs") = Slot::Bool(true);
                    pc = *end as usize;
                    continue;
                }
            }
            Op::AndCombine => {
                let r = truth_of(stack.pop().expect("and rhs"));
                let l = truth_of(stack.pop().expect("and lhs"));
                stack.push(match (l, r) {
                    (Some(true), Some(b)) => Slot::Bool(b),
                    (Some(b), Some(true)) => Slot::Bool(b),
                    (_, Some(false)) => Slot::Bool(false),
                    _ => Slot::Null,
                });
            }
            Op::OrCombine => {
                let r = truth_of(stack.pop().expect("or rhs"));
                let l = truth_of(stack.pop().expect("or lhs"));
                stack.push(match (l, r) {
                    (Some(false), Some(b)) => Slot::Bool(b),
                    (Some(b), Some(false)) => Slot::Bool(b),
                    (_, Some(true)) => Slot::Bool(true),
                    _ => Slot::Null,
                });
            }
            Op::Between { negated } => {
                let hi = stack.pop().expect("between hi");
                let lo = stack.pop().expect("between lo");
                let v = stack.pop().expect("between value");
                let slot = match (slot_cmp(v, lo, row, lits), slot_cmp(v, hi, row, lits)) {
                    (Some(a), Some(b)) => {
                        let inside =
                            a != core::cmp::Ordering::Less && b != core::cmp::Ordering::Greater;
                        Slot::Bool(inside != *negated)
                    }
                    _ => Slot::Null,
                };
                stack.push(slot);
            }
            Op::InBegin { end } => {
                let needle = *stack.last().expect("in needle");
                if matches!(needle, Slot::Null) {
                    *stack.last_mut().expect("in needle") = Slot::Null;
                    pc = *end as usize;
                    continue;
                }
                // Saw-null sentinel rides on top of the needle.
                stack.push(Slot::Bool(false));
            }
            Op::InCheck { end, negated } => {
                let item = stack.pop().expect("in item");
                let needle = stack[stack.len() - 2];
                match slot_eq(needle, item, row, lits) {
                    Some(true) => {
                        stack.pop(); // sentinel
                        stack.pop(); // needle
                        stack.push(Slot::Bool(!*negated));
                        pc = *end as usize;
                        continue;
                    }
                    Some(false) => {}
                    None => {
                        let n = stack.len();
                        stack[n - 1] = Slot::Bool(true);
                    }
                }
            }
            Op::InEnd { negated } => {
                let saw_null = matches!(stack.pop().expect("in sentinel"), Slot::Bool(true));
                stack.pop().expect("in needle");
                stack.push(if saw_null {
                    Slot::Null
                } else {
                    Slot::Bool(*negated)
                });
            }
        }
        pc += 1;
    }
    Ok(stack.pop().expect("expression result"))
}

/// [`crate::exec`]'s arithmetic semantics over slots: NULL
/// propagates, int/int stays integral (wrapping, division checked),
/// everything else coerces to f64 or type-errors with both operands
/// displayed.
fn arith(op: BinaryOp, l: Slot, r: Slot, row: &[Value], lits: &[Value]) -> Result<Slot, SqlError> {
    if matches!(l, Slot::Null) || matches!(r, Slot::Null) {
        return Ok(Slot::Null);
    }
    if let (Slot::Int(a), Slot::Int(b)) = (l, r) {
        return match op {
            BinaryOp::Add => Ok(Slot::Int(a.wrapping_add(b))),
            BinaryOp::Sub => Ok(Slot::Int(a.wrapping_sub(b))),
            BinaryOp::Mul => Ok(Slot::Int(a.wrapping_mul(b))),
            BinaryOp::Div => {
                if b == 0 {
                    Err(SqlError::DivisionByZero)
                } else {
                    Ok(Slot::Int(a / b))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = match (f64_of(l), f64_of(r)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(SqlError::Type(format!(
                "arithmetic needs numbers, got {} and {}",
                value_of(l, row, lits),
                value_of(r, row, lits)
            )))
        }
    };
    match op {
        BinaryOp::Add => Ok(Slot::Float(a + b)),
        BinaryOp::Sub => Ok(Slot::Float(a - b)),
        BinaryOp::Mul => Ok(Slot::Float(a * b)),
        BinaryOp::Div => {
            if b == 0.0 {
                Err(SqlError::DivisionByZero)
            } else {
                Ok(Slot::Float(a / b))
            }
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse_select;
    use crate::table::ColumnType;
    use privapprox_types::ids::AnalystId;

    fn vehicle_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "vehicle",
            Schema::new(vec![
                ("ts", ColumnType::Int),
                ("speed", ColumnType::Float),
                ("location", ColumnType::Text),
            ]),
        );
        let rows: Vec<(i64, f64, &str)> = vec![
            (1, 15.0, "San Francisco"),
            (2, 42.5, "San Francisco"),
            (3, 8.0, "Oakland"),
            (4, 65.0, "San Francisco"),
            (5, 0.0, "Berkeley"),
        ];
        for (ts, speed, loc) in rows {
            db.insert(
                "vehicle",
                vec![Value::Int(ts), Value::Float(speed), loc.into()],
            )
            .unwrap();
        }
        db
    }

    /// Prepared and interpreted execution must agree exactly,
    /// including the error when there is one.
    fn assert_equivalent(db: &Database, sql: &str) {
        let stmt = parse_select(sql).expect("parses");
        let interpreted = execute(&stmt, db);
        let prepared = PreparedSelect::prepare(&stmt, db).and_then(|p| p.execute(db));
        assert_eq!(prepared, interpreted, "query: {sql}");
    }

    #[test]
    fn prepared_matches_interpreted_on_representative_queries() {
        let db = vehicle_db();
        for sql in [
            "SELECT speed FROM vehicle WHERE location='San Francisco'",
            "SELECT * FROM vehicle",
            "SELECT speed * 2 AS dbl FROM vehicle WHERE ts = 1",
            "SELECT ts + 10 FROM vehicle WHERE ts = 3",
            "SELECT 7 / 2 FROM vehicle LIMIT 1",
            "SELECT ts FROM vehicle WHERE speed > 40",
            "SELECT ts FROM vehicle WHERE speed <= 8",
            "SELECT ts FROM vehicle WHERE speed != 0",
            "SELECT ts FROM vehicle WHERE location LIKE 'San%'",
            "SELECT ts FROM vehicle WHERE location NOT LIKE '%land'",
            "SELECT ts FROM vehicle WHERE ts IN (1, 3, 99)",
            "SELECT ts FROM vehicle WHERE ts IN (1, NULL)",
            "SELECT ts FROM vehicle WHERE speed BETWEEN 8 AND 45",
            "SELECT ts FROM vehicle WHERE speed NOT BETWEEN 8 AND 45",
            "SELECT ts FROM vehicle WHERE location = 'San Francisco' AND speed < 50",
            "SELECT ts FROM vehicle WHERE speed < 1 OR speed > 60",
            "SELECT ts FROM vehicle WHERE NOT speed > 10",
            "SELECT ts FROM vehicle WHERE location IS NOT NULL",
            "SELECT ts FROM vehicle LIMIT 2",
            "SELECT ts FROM vehicle LIMIT 0",
            "SELECT -speed FROM vehicle",
            "SELECT ts FROM vehicle WHERE speed > 2 * 20 + 5",
            "SELECT location FROM vehicle WHERE ts >= 3",
            // Error cases: identical errors, identical messages.
            "SELECT ts / 0 FROM vehicle",
            "SELECT location + 1 FROM vehicle",
            "SELECT -location FROM vehicle",
            "SELECT ts FROM vehicle WHERE ts LIKE 'x%'",
            "SELECT ts FROM vehicle WHERE ts IN (1, 'a' + 1)",
        ] {
            assert_equivalent(&db, sql);
        }
    }

    #[test]
    fn unknown_columns_error_at_prepare_time() {
        let db = vehicle_db();
        let stmt = parse_select("SELECT nope FROM vehicle").unwrap();
        assert_eq!(
            PreparedSelect::prepare(&stmt, &db).unwrap_err(),
            SqlError::UnknownColumn("nope".into())
        );
        let stmt = parse_select("SELECT ts FROM vehicle WHERE ghost = 1").unwrap();
        assert_eq!(
            PreparedSelect::prepare(&stmt, &db).unwrap_err(),
            SqlError::UnknownColumn("ghost".into())
        );
        let stmt = parse_select("SELECT * FROM nix").unwrap();
        assert_eq!(
            PreparedSelect::prepare(&stmt, &db).unwrap_err(),
            SqlError::UnknownTable("nix".into())
        );
    }

    #[test]
    fn constant_division_by_zero_stays_a_runtime_error() {
        // `7/0` must NOT error at prepare time: on an empty table the
        // interpreter returns an empty result, and so must we.
        let mut db = Database::new();
        db.create_table("empty", Schema::new(vec![("a", ColumnType::Int)]));
        let stmt = parse_select("SELECT 7 / 0 FROM empty").unwrap();
        let plan = PreparedSelect::prepare(&stmt, &db).expect("prepare must not fold the error");
        assert_eq!(plan.execute(&db).unwrap().rows.len(), 0);
        // With one row, the error surfaces exactly like interpretation.
        db.table_mut("empty").unwrap().insert(vec![Value::Int(1)]).unwrap();
        let plan = PreparedSelect::prepare(&stmt, &db).unwrap();
        assert_eq!(plan.execute(&db).unwrap_err(), SqlError::DivisionByZero);
    }

    #[test]
    fn short_circuit_skips_rhs_errors_like_the_interpreter() {
        let db = vehicle_db();
        // location='X' is false for Oakland rows; the erroring rhs
        // must not run for them — and must run (and error) otherwise.
        assert_equivalent(
            &db,
            "SELECT ts FROM vehicle WHERE location = 'Oakland' AND speed / 0 > 1",
        );
        assert_equivalent(
            &db,
            "SELECT ts FROM vehicle WHERE ts < 99 OR speed / 0 > 1",
        );
    }

    #[test]
    fn fast_scan_is_detected_for_client_shapes() {
        let db = vehicle_db();
        for (sql, fast) in [
            ("SELECT speed FROM vehicle WHERE location = 'SF'", true),
            ("SELECT speed FROM vehicle WHERE ts >= 3", true),
            ("SELECT speed FROM vehicle WHERE 3 <= ts", true),
            ("SELECT speed FROM vehicle", true),
            ("SELECT speed FROM vehicle LIMIT 2", true),
            ("SELECT speed * 2 FROM vehicle", false),
            ("SELECT speed FROM vehicle WHERE ts >= 3 AND speed > 0", false),
            ("SELECT * FROM vehicle", false),
            ("SELECT speed FROM vehicle WHERE ts IN (1, 2)", false),
        ] {
            let stmt = parse_select(sql).unwrap();
            let plan = PreparedSelect::prepare(&stmt, &db).unwrap();
            assert_eq!(plan.is_fast_scan(), fast, "{sql}");
        }
    }

    /// Oracle for `last_single_value`: interpret + single_column +
    /// last, exactly the pre-plan client pipeline.
    fn last_via_interpreter(db: &Database, sql: &str) -> Result<Option<Value>, SqlError> {
        let stmt = parse_select(sql)?;
        let rs = execute(&stmt, db)?;
        let col = rs.single_column()?;
        Ok(col.last().cloned())
    }

    #[test]
    fn last_single_value_matches_the_interpreted_pipeline() {
        let db = vehicle_db();
        let mut scratch = EvalScratch::new();
        for sql in [
            // Fast shapes (reverse scan).
            "SELECT speed FROM vehicle WHERE location = 'San Francisco'",
            "SELECT speed FROM vehicle WHERE location = 'Nowhere'",
            "SELECT speed FROM vehicle WHERE ts >= 3",
            "SELECT location FROM vehicle WHERE speed < 10",
            "SELECT speed FROM vehicle",
            // Fast shape + LIMIT (forward scan, capped).
            "SELECT speed FROM vehicle LIMIT 2",
            "SELECT speed FROM vehicle WHERE ts > 1 LIMIT 2",
            "SELECT speed FROM vehicle LIMIT 0",
            // Generic shapes.
            "SELECT speed * 2 FROM vehicle WHERE ts <= 4",
            "SELECT location FROM vehicle WHERE ts IN (1, 3)",
            "SELECT ts FROM vehicle WHERE location LIKE '%land' OR speed > 50",
            // Shape errors.
            "SELECT * FROM vehicle",
            "SELECT ts, speed FROM vehicle",
            // Runtime errors.
            "SELECT ts / 0 FROM vehicle",
        ] {
            let stmt = parse_select(sql).unwrap();
            let expect = last_via_interpreter(&db, sql);
            let got = PreparedSelect::prepare(&stmt, &db)
                .and_then(|p| Ok(p.last_single_value(&db, &mut scratch)?.map(|v| v.to_value())));
            assert_eq!(got, expect, "query: {sql}");
        }
    }

    #[test]
    fn stale_plans_are_rejected() {
        let mut db = vehicle_db();
        let stmt = parse_select("SELECT speed FROM vehicle").unwrap();
        let plan = PreparedSelect::prepare(&stmt, &db).unwrap();
        assert!(plan.execute(&db).is_ok());
        // Re-creating any table moves the catalog generation; the
        // plan's column indices can no longer be trusted.
        db.create_table(
            "vehicle",
            Schema::new(vec![("speed", ColumnType::Float), ("ts", ColumnType::Int)]),
        );
        assert_eq!(plan.execute(&db).unwrap_err(), SqlError::StalePlan);
        let mut scratch = EvalScratch::new();
        assert_eq!(
            plan.last_single_value(&db, &mut scratch).unwrap_err(),
            SqlError::StalePlan
        );
    }

    #[test]
    fn plan_cache_reuses_hits_and_recompiles_on_sql_change() {
        let db = vehicle_db();
        let mut cache = PlanCache::new();
        let id = QueryId::new(AnalystId(1), 7);
        let sql_a = "SELECT speed FROM vehicle WHERE ts >= 3";
        let a1 = cache.get_or_prepare(id, sql_a, &db).unwrap() as *const PreparedSelect;
        let a2 = cache.get_or_prepare(id, sql_a, &db).unwrap() as *const PreparedSelect;
        assert_eq!(a1, a2, "same SQL must hit the cached plan");
        assert_eq!(cache.len(), 1);
        // Same QueryId re-registered with different SQL: recompiled.
        let sql_b = "SELECT ts FROM vehicle WHERE speed > 10";
        let b = cache.get_or_prepare(id, sql_b, &db).unwrap();
        assert_eq!(b.columns(), ["ts"]);
        assert_eq!(cache.len(), 1, "entry replaced, not duplicated");
        // And the replacement is itself cached.
        let b2 = cache.get_or_prepare(id, sql_b, &db).unwrap();
        assert_eq!(b2.columns(), ["ts"]);
    }

    #[test]
    fn plan_cache_recompiles_after_catalog_changes() {
        let mut db = vehicle_db();
        let mut cache = PlanCache::new();
        let id = QueryId::new(AnalystId(1), 8);
        let sql = "SELECT speed FROM vehicle";
        let g1 = cache.get_or_prepare(id, sql, &db).unwrap().generation();
        // Same catalog: same plan generation.
        assert_eq!(cache.get_or_prepare(id, sql, &db).unwrap().generation(), g1);
        // Changed catalog: transparently recompiled and executable.
        db.create_table(
            "vehicle",
            Schema::new(vec![("x", ColumnType::Int), ("speed", ColumnType::Float)]),
        );
        db.insert("vehicle", vec![Value::Int(0), Value::Float(3.0)]).unwrap();
        let plan = cache.get_or_prepare(id, sql, &db).unwrap();
        assert_eq!(plan.generation(), db.generation());
        let rs = plan.execute(&db).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Float(3.0)]]);
        // Bad SQL under a known id surfaces errors without caching.
        assert!(cache.get_or_prepare(id, "SELECT FROM", &db).is_err());
        cache.invalidate(id);
        assert!(cache.is_empty());
    }

    #[test]
    fn execute_prepared_into_recycles_buffers() {
        let db = vehicle_db();
        let stmt = parse_select("SELECT ts, speed FROM vehicle WHERE speed > 5").unwrap();
        let plan = PreparedSelect::prepare(&stmt, &db).unwrap();
        let mut scratch = EvalScratch::new();
        let mut out = ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
        };
        execute_prepared_into(&plan, &db, &mut scratch, &mut out).unwrap();
        let first = out.clone();
        assert_eq!(first.rows.len(), 4);
        // A second run with a narrower filter reuses the buffers and
        // truncates; contents match a fresh interpretation.
        let stmt2 = parse_select("SELECT ts, speed FROM vehicle WHERE speed > 40").unwrap();
        let plan2 = PreparedSelect::prepare(&stmt2, &db).unwrap();
        execute_prepared_into(&plan2, &db, &mut scratch, &mut out).unwrap();
        assert_eq!(out, execute(&stmt2, &db).unwrap());
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn null_semantics_survive_compilation() {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        );
        db.insert("t", vec![Value::Int(1), Value::Null]).unwrap();
        db.insert("t", vec![Value::Int(2), Value::Int(5)]).unwrap();
        for sql in [
            "SELECT a FROM t WHERE b > 3",
            "SELECT a FROM t WHERE b IS NULL",
            "SELECT a FROM t WHERE b IS NOT NULL",
            "SELECT b + 1 FROM t WHERE a = 1",
            "SELECT a FROM t WHERE a IN (9, NULL)",
            "SELECT a FROM t WHERE b IN (5, NULL)",
            "SELECT a FROM t WHERE NOT b > 3",
            "SELECT a FROM t WHERE b BETWEEN NULL AND 9",
            "SELECT a FROM t WHERE b = NULL OR a = 1",
        ] {
            assert_equivalent(&db, sql);
        }
    }
}

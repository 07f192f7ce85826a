//! Prepared query plans: resolve a SELECT once, answer it every epoch
//! without re-lexing or re-parsing.
//!
//! PrivApprox's workload is a *long-lived* query executed by millions
//! of clients once per answer frequency (paper §2.2): the SQL text
//! never changes between epochs, only the local rows do. A
//! [`PreparedSelect`] does the per-statement work once — name
//! resolution (`UnknownTable` and `UnknownColumn` surface at prepare
//! time, not per execution), output naming and shape detection — and
//! then runs one of two evaluators:
//!
//! * the client's shape — `SELECT col FROM t [WHERE col ⋈ lit]
//!   [LIMIT n]` — is detected at prepare time and served by a fused
//!   row walk that compares values in place and clones nothing;
//! * every other shape is handed to the interpreter,
//!   [`crate::execute`], which is the semantic reference for both.
//!
//! Entry points:
//!
//! * [`PreparedSelect::execute`] — materializes a [`ResultSet`]; it is
//!   [`crate::execute`] behind a staleness check;
//! * [`PreparedSelect::last_single_value`] — the PrivApprox client's
//!   question ("newest matching value of the single answer column"),
//!   served by the fused scan when the plan qualifies. The property
//!   tests in `tests/properties.rs` pin it to interpret → single
//!   column → last, errors included.
//!
//! A plan is bound to the [`Schema`] its table had when it was
//! prepared — by identity, not by value: executing it against a
//! catalog whose table of that name now has another schema fails with
//! [`SqlError::StalePlan`] instead of reading through remapped column
//! indices. Because a plan depends only on its SQL text and that
//! schema, one plan serves every catalog built from clones of the
//! schema: [`crate::Database::plan`] prepares it once and caches it on
//! the schema, and a client keeps the returned handle.

use crate::ast::{BinaryOp, Expr, SelectItem, SelectStmt};
use crate::error::SqlError;
use crate::exec::ResultSet;
use crate::table::{Database, Schema, SchemaInner, Table};
use crate::value::Value;
use std::sync::{Arc, Weak};

/// A borrowed SQL value: what [`PreparedSelect::last_single_value`]
/// returns. Text borrows from the row (or the caller's
/// [`EvalScratch`]) instead of cloning.
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

/// The specialized fused scan for `SELECT col FROM t [WHERE col ⋈
/// lit] [LIMIT n]`: no projection evaluation, just a row walk.
/// Detected at prepare time; only shapes whose evaluation can never
/// error qualify, which is what makes it safe for
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

/// A SELECT prepared against one table schema. See the module docs
/// for what preparation buys and which entry point to use.
#[derive(Debug, Clone)]
pub struct PreparedSelect {
    /// The text the plan was parsed from.
    sql: Box<str>,
    stmt: SelectStmt,
    /// The schema the column indices were resolved against, held for
    /// its identity only. Weak, so a schema's cache of its own plans
    /// forms no cycle; the allocation it pins cannot be reused by
    /// another schema while the plan lives.
    schema: Weak<SchemaInner>,
    /// Output column names, wildcards expanded.
    columns: Vec<String>,
    fast: Option<FastScan>,
}

/// Caller-owned storage for [`PreparedSelect::last_single_value`]: a
/// value the interpreter produced is parked here so the caller can
/// borrow it like a row value. The fused scan never touches it.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    last: Option<Value>,
}

impl EvalScratch {
    /// Creates an empty scratch.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

impl PreparedSelect {
    /// Parses `sql` and prepares it against the catalog's current
    /// state: a plan of its own, which [`Database::plan`] shares.
    ///
    /// Syntax errors and unknown tables/columns error here, once,
    /// instead of on every execution. The plan is bound to the
    /// table's schema and refuses to run once the table has another.
    pub fn prepare(sql: &str, db: &Database) -> Result<PreparedSelect, SqlError> {
        let stmt = crate::parser::parse_select(sql)?;
        let schema = db.table(&stmt.table)?.schema();
        Ok(PreparedSelect {
            sql: sql.into(),
            columns: crate::exec::output_columns(&stmt, schema)?,
            fast: detect_fast(&stmt.items, stmt.where_clause.as_ref(), schema),
            schema: Arc::downgrade(schema.inner()),
            stmt,
        })
    }

    /// The SQL text the plan was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The table the plan reads.
    pub fn table(&self) -> &str {
        &self.stmt.table
    }

    /// True while `db`'s table of this name still has the schema the
    /// plan was prepared against: one name lookup and one pointer
    /// compare, no lock.
    pub fn is_current(&self, db: &Database) -> bool {
        self.table_for(db).is_ok()
    }

    /// Output column names (wildcards expanded).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// True when the fused single-column scan specialization applies
    /// (diagnostics; [`PreparedSelect::last_single_value`] picks it
    /// automatically).
    pub fn is_fast_scan(&self) -> bool {
        self.fast.is_some()
    }

    /// Runs the plan, materializing a fresh [`ResultSet`]: interpreting
    /// the original statement with [`crate::execute`], once the plan
    /// is known not to be stale.
    pub fn execute(&self, db: &Database) -> Result<ResultSet, SqlError> {
        self.table_for(db)?;
        crate::execute(&self.stmt, db)
    }

    /// The PrivApprox client's question: the value of the single
    /// output column in the *last* emitted row (`None` when no row
    /// matches). Errors if the projection is not exactly one column,
    /// with the same message as [`ResultSet::single_column`].
    ///
    /// Uses the fused scan when the plan qualifies — for an unlimited
    /// query that is a reverse walk stopping at the first match — and
    /// otherwise interprets the statement, parking the value in
    /// `scratch`, so error behaviour always matches
    /// interpret-then-`single_column`.
    pub fn last_single_value<'a>(
        &'a self,
        db: &'a Database,
        scratch: &'a mut EvalScratch,
    ) -> Result<Option<ValueRef<'a>>, SqlError> {
        let table = self.table_for(db)?;
        if let Some(fast) = &self.fast {
            // Fast shapes cannot error per row, so skipping rows is
            // observationally identical to evaluating them.
            let rows = table.rows();
            let col = fast.col as usize;
            let limit = self.stmt.limit.unwrap_or(u64::MAX);
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
        scratch.last = self.execute(db)?.single_column()?.pop();
        Ok(scratch.last.as_ref().map(ValueRef::from))
    }

    /// Looks up the plan's table and checks that its schema is the
    /// one the plan was prepared against.
    fn table_for<'a>(&self, db: &'a Database) -> Result<&'a Table, SqlError> {
        let table = db.table(&self.stmt.table)?;
        if !std::ptr::eq(self.schema.as_ptr(), Arc::as_ptr(table.schema().inner())) {
            return Err(SqlError::StalePlan);
        }
        Ok(table)
    }
}

/// Detects the fused single-column scan shape (see [`FastScan`]).
fn detect_fast(items: &[SelectItem], filter: Option<&Expr>, schema: &Schema) -> Option<FastScan> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::parser::parse_select;
    use crate::table::ColumnType;

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
        let prepared = PreparedSelect::prepare(sql, db).and_then(|p| p.execute(db));
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
        assert_eq!(
            PreparedSelect::prepare("SELECT nope FROM vehicle", &db).unwrap_err(),
            SqlError::UnknownColumn("nope".into())
        );
        assert_eq!(
            PreparedSelect::prepare("SELECT ts FROM vehicle WHERE ghost = 1", &db).unwrap_err(),
            SqlError::UnknownColumn("ghost".into())
        );
        assert_eq!(
            PreparedSelect::prepare("SELECT * FROM nix", &db).unwrap_err(),
            SqlError::UnknownTable("nix".into())
        );
    }

    #[test]
    fn constant_division_by_zero_stays_a_runtime_error() {
        // `7/0` must NOT error at prepare time: on an empty table the
        // interpreter returns an empty result, and so must we.
        let mut db = Database::new();
        db.create_table("empty", Schema::new(vec![("a", ColumnType::Int)]));
        let sql = "SELECT 7 / 0 FROM empty";
        let plan = PreparedSelect::prepare(sql, &db).expect("prepare must not evaluate 7 / 0");
        assert_eq!(plan.execute(&db).unwrap().rows.len(), 0);
        // With one row, the error surfaces exactly like interpretation.
        db.table_mut("empty")
            .unwrap()
            .insert(vec![Value::Int(1)])
            .unwrap();
        let plan = PreparedSelect::prepare(sql, &db).unwrap();
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
        assert_equivalent(&db, "SELECT ts FROM vehicle WHERE ts < 99 OR speed / 0 > 1");
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
            (
                "SELECT speed FROM vehicle WHERE ts >= 3 AND speed > 0",
                false,
            ),
            ("SELECT * FROM vehicle", false),
            ("SELECT speed FROM vehicle WHERE ts IN (1, 2)", false),
            // Every value type the fused comparison sees: text against
            // text (either side), int against float, text against a
            // number (unknown), and NULL — with and without LIMIT.
            ("SELECT speed FROM vehicle WHERE location = 'x'", true),
            (
                "SELECT speed FROM vehicle WHERE location = 'x' LIMIT 2",
                true,
            ),
            ("SELECT speed FROM vehicle WHERE 'x' = location", true),
            (
                "SELECT speed FROM vehicle WHERE 'x' = location LIMIT 2",
                true,
            ),
            ("SELECT speed FROM vehicle WHERE ts < 1.5", true),
            ("SELECT speed FROM vehicle WHERE ts < 1.5 LIMIT 2", true),
            ("SELECT location FROM vehicle WHERE location > 3", true),
            (
                "SELECT location FROM vehicle WHERE location > 3 LIMIT 2",
                true,
            ),
            ("SELECT speed FROM vehicle WHERE ts = NULL", true),
            ("SELECT speed FROM vehicle WHERE ts = NULL LIMIT 2", true),
            // Constants are not folded: a computed literal is the
            // interpreter's.
            ("SELECT speed FROM vehicle WHERE ts >= 1 + 2", false),
        ] {
            let plan = PreparedSelect::prepare(sql, &db).unwrap();
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
            "SELECT speed FROM vehicle WHERE 'Oakland' = location",
            "SELECT ts FROM vehicle WHERE speed < 8.5 LIMIT 2",
            "SELECT location FROM vehicle WHERE location > 3",
            "SELECT speed FROM vehicle WHERE ts = NULL",
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
            let expect = last_via_interpreter(&db, sql);
            let got = PreparedSelect::prepare(sql, &db).and_then(|p| {
                Ok(p.last_single_value(&db, &mut scratch)?
                    .map(|v| v.to_value()))
            });
            assert_eq!(got, expect, "query: {sql}");
        }
    }

    #[test]
    fn stale_plans_are_rejected() {
        let mut db = vehicle_db();
        let plan = PreparedSelect::prepare("SELECT speed FROM vehicle", &db).unwrap();
        assert!(plan.execute(&db).is_ok());
        // A clone of the same schema keeps the plan's column indices.
        let same = db.table("vehicle").unwrap().schema().clone();
        db.create_table("vehicle", same);
        assert!(plan.is_current(&db));
        // A table re-created with another schema — even an equal one
        // built anew — can no longer be trusted.
        db.create_table(
            "vehicle",
            Schema::new(vec![("speed", ColumnType::Float), ("ts", ColumnType::Int)]),
        );
        assert!(!plan.is_current(&db));
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
        // A second catalog built from a clone of the same schema.
        let mut twin = Database::new();
        twin.create_table("vehicle", db.table("vehicle").unwrap().schema().clone());
        let sql_a = "SELECT speed FROM vehicle WHERE ts >= 3";
        let a1 = db.plan(sql_a).unwrap();
        let a2 = db.plan(sql_a).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "same SQL must hit the cached plan");
        assert!(
            Arc::ptr_eq(&a1, &twin.plan(sql_a).unwrap()),
            "a catalog sharing the schema shares the plan"
        );
        assert!(a1.is_current(&twin));
        // Other SQL over the same schema is another plan.
        let sql_b = "SELECT ts FROM vehicle WHERE speed > 10";
        let b = db.plan(sql_b).unwrap();
        assert_eq!(b.columns(), ["ts"]);
        assert_eq!(b.sql(), sql_b);
        assert!(Arc::ptr_eq(&b, &twin.plan(sql_b).unwrap()));
        assert!(Arc::ptr_eq(&a1, &db.plan(sql_a).unwrap()));
        // An equal schema built anew has a cache of its own.
        let mut stranger = Database::new();
        stranger.create_table(
            "vehicle",
            Schema::new(vec![
                ("ts", ColumnType::Int),
                ("speed", ColumnType::Float),
                ("location", ColumnType::Text),
            ]),
        );
        let c = stranger.plan(sql_a).unwrap();
        assert!(!Arc::ptr_eq(&a1, &c));
        assert!(!a1.is_current(&stranger) && !c.is_current(&db));
    }

    #[test]
    fn plan_cache_recompiles_after_catalog_changes() {
        let mut db = vehicle_db();
        let sql = "SELECT speed FROM vehicle";
        let before = db.plan(sql).unwrap();
        // Changed catalog: the old handle is stale, a new one is
        // prepared against the new schema and executable.
        db.create_table(
            "vehicle",
            Schema::new(vec![("x", ColumnType::Int), ("speed", ColumnType::Float)]),
        );
        db.insert("vehicle", vec![Value::Int(0), Value::Float(3.0)])
            .unwrap();
        assert!(!before.is_current(&db));
        let plan = db.plan(sql).unwrap();
        assert!(!Arc::ptr_eq(&before, &plan));
        assert!(plan.is_current(&db));
        let rs = plan.execute(&db).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Float(3.0)]]);
        // Bad SQL and unknown names surface errors without caching.
        assert!(db.plan("SELECT FROM").is_err());
        assert_eq!(
            db.plan("SELECT speed FROM nope").unwrap_err(),
            SqlError::UnknownTable("nope".into())
        );
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

//! Expression evaluation and SELECT execution.

use crate::ast::{BinaryOp, Expr, SelectItem, SelectStmt, UnaryOp};
use crate::error::SqlError;
use crate::table::{Database, Schema, Table};
use crate::value::Value;
use privapprox_types::query::like_match;

/// The result of executing a SELECT: named columns and value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Values of the single output column; errors if the shape is not
    /// exactly one column (the PrivApprox client expects exactly one
    /// answer column to bucketize).
    pub fn single_column(&self) -> Result<Vec<Value>, SqlError> {
        if self.columns.len() != 1 {
            return Err(SqlError::Type(format!(
                "expected exactly 1 output column, got {}",
                self.columns.len()
            )));
        }
        Ok(self.rows.iter().map(|r| r[0].clone()).collect())
    }
}

/// Evaluates `expr` against a row.
pub fn eval(expr: &Expr, schema: &Schema, row: &[Value]) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let idx = schema
                .index_of(name)
                .ok_or_else(|| SqlError::UnknownColumn(name.clone()))?;
            Ok(row[idx].clone())
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, schema, row)?;
            match op {
                UnaryOp::Not => Ok(match v.truth() {
                    None => Value::Null,
                    Some(b) => Value::Bool(!b),
                }),
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(SqlError::Type(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, schema, row),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, schema, row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => {
                    let hit = like_match(pattern, &s);
                    Ok(Value::Bool(hit != *negated))
                }
                other => Err(SqlError::Type(format!("LIKE needs text, got {other}"))),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, schema, row)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let v = eval(item, schema, row)?;
                match needle.sql_eq(&v) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            // SQL semantics: x IN (…NULL…) is NULL when no match.
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, schema, row)?;
            let lo = eval(lo, schema, row)?;
            let hi = eval(hi, schema, row)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside =
                        a != core::cmp::Ordering::Less && b != core::cmp::Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, schema, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

fn eval_binary(
    op: BinaryOp,
    lhs: &Expr,
    rhs: &Expr,
    schema: &Schema,
    row: &[Value],
) -> Result<Value, SqlError> {
    // Short-circuit logic with three-valued semantics.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let l = eval(lhs, schema, row)?.truth();
        match (op, l) {
            (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = eval(rhs, schema, row)?.truth();
        return Ok(match (op, l, r) {
            (BinaryOp::And, Some(true), Some(b)) => Value::Bool(b),
            (BinaryOp::And, Some(b), Some(true)) => Value::Bool(b),
            (BinaryOp::And, _, Some(false)) => Value::Bool(false),
            (BinaryOp::Or, Some(false), Some(b)) => Value::Bool(b),
            (BinaryOp::Or, Some(b), Some(false)) => Value::Bool(b),
            (BinaryOp::Or, _, Some(true)) => Value::Bool(true),
            _ => Value::Null,
        });
    }

    let l = eval(lhs, schema, row)?;
    let r = eval(rhs, schema, row)?;
    match op {
        BinaryOp::Eq | BinaryOp::Neq => match l.sql_eq(&r) {
            None => Ok(Value::Null),
            Some(eq) => Ok(Value::Bool(if op == BinaryOp::Eq { eq } else { !eq })),
        },
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => match l.sql_cmp(&r) {
            None => Ok(Value::Null),
            Some(ord) => {
                use core::cmp::Ordering::*;
                let b = match op {
                    BinaryOp::Lt => ord == Less,
                    BinaryOp::Le => ord != Greater,
                    BinaryOp::Gt => ord == Greater,
                    BinaryOp::Ge => ord != Less,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(b))
            }
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic stays integral except division.
            if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                return match op {
                    BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
                    BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
                    BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
                    BinaryOp::Div => {
                        if *b == 0 {
                            Err(SqlError::DivisionByZero)
                        } else {
                            Ok(Value::Int(a / b))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Type(format!(
                        "arithmetic needs numbers, got {l} and {r}"
                    )))
                }
            };
            match op {
                BinaryOp::Add => Ok(Value::Float(a + b)),
                BinaryOp::Sub => Ok(Value::Float(a - b)),
                BinaryOp::Mul => Ok(Value::Float(a * b)),
                BinaryOp::Div => {
                    if b == 0.0 {
                        Err(SqlError::DivisionByZero)
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                _ => unreachable!(),
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

/// Executes a parsed SELECT against the database.
pub fn execute(stmt: &SelectStmt, db: &Database) -> Result<ResultSet, SqlError> {
    let table: &Table = db.table(&stmt.table)?;
    let schema = table.schema();
    let columns = output_columns(stmt, schema)?;

    let mut rows = Vec::new();
    for row in table.rows() {
        if let Some(limit) = stmt.limit {
            if rows.len() as u64 >= limit {
                break;
            }
        }
        if let Some(w) = &stmt.where_clause {
            // WHERE keeps only rows where the predicate is true
            // (NULL/unknown filters out).
            if eval(w, schema, row)?.truth() != Some(true) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(columns.len());
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => out.extend(row.iter().cloned()),
                SelectItem::Expr { expr, .. } => out.push(eval(expr, schema, row)?),
            }
        }
        rows.push(out);
        if let Some(limit) = stmt.limit {
            if rows.len() as u64 >= limit {
                break;
            }
        }
    }
    Ok(ResultSet { columns, rows })
}

/// The output column names of `stmt` over `schema`, wildcards
/// expanded. Every column reference is resolved here, projection
/// first and then `WHERE`, so column errors surface even on empty
/// tables.
pub(crate) fn output_columns(stmt: &SelectStmt, schema: &Schema) -> Result<Vec<String>, SqlError> {
    let mut columns = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for name in schema.names() {
                    columns.push(name.to_string());
                }
            }
            SelectItem::Expr { expr, .. } => {
                validate_columns(expr, schema)?;
                columns.push(stmt.output_name(i));
            }
        }
    }
    if let Some(w) = &stmt.where_clause {
        validate_columns(w, schema)?;
    }
    Ok(columns)
}

/// Walks an expression rejecting unknown column references.
fn validate_columns(expr: &Expr, schema: &Schema) -> Result<(), SqlError> {
    match expr {
        Expr::Literal(_) => Ok(()),
        Expr::Column(name) => schema
            .index_of(name)
            .map(|_| ())
            .ok_or_else(|| SqlError::UnknownColumn(name.clone())),
        Expr::Binary { lhs, rhs, .. } => {
            validate_columns(lhs, schema)?;
            validate_columns(rhs, schema)
        }
        Expr::Unary { expr, .. } => validate_columns(expr, schema),
        Expr::Like { expr, .. } => validate_columns(expr, schema),
        Expr::InList { expr, list, .. } => {
            validate_columns(expr, schema)?;
            list.iter().try_for_each(|e| validate_columns(e, schema))
        }
        Expr::Between { expr, lo, hi, .. } => {
            validate_columns(expr, schema)?;
            validate_columns(lo, schema)?;
            validate_columns(hi, schema)
        }
        Expr::IsNull { expr, .. } => validate_columns(expr, schema),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run(db: &Database, sql: &str) -> ResultSet {
        execute(&parse_select(sql).unwrap(), db).unwrap()
    }

    #[test]
    fn the_paper_query_filters_by_location() {
        let db = vehicle_db();
        let rs = run(
            &db,
            "SELECT speed FROM vehicle WHERE location='San Francisco'",
        );
        assert_eq!(rs.columns, vec!["speed"]);
        let speeds: Vec<f64> = rs.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        assert_eq!(speeds, vec![15.0, 42.5, 65.0]);
    }

    #[test]
    fn wildcard_projects_all_columns() {
        let db = vehicle_db();
        let rs = run(&db, "SELECT * FROM vehicle");
        assert_eq!(rs.columns, vec!["ts", "speed", "location"]);
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn arithmetic_and_aliases() {
        let db = vehicle_db();
        let rs = run(&db, "SELECT speed * 2 AS dbl FROM vehicle WHERE ts = 1");
        assert_eq!(rs.columns, vec!["dbl"]);
        assert_eq!(rs.rows[0][0], Value::Float(30.0));
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let db = vehicle_db();
        let rs = run(&db, "SELECT ts + 10 FROM vehicle WHERE ts = 3");
        assert_eq!(rs.rows[0][0], Value::Int(13));
        let rs = run(&db, "SELECT 7 / 2 FROM vehicle LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn comparison_operators() {
        let db = vehicle_db();
        assert_eq!(
            run(&db, "SELECT ts FROM vehicle WHERE speed > 40")
                .rows
                .len(),
            2
        );
        assert_eq!(
            run(&db, "SELECT ts FROM vehicle WHERE speed <= 8")
                .rows
                .len(),
            2
        );
        assert_eq!(
            run(&db, "SELECT ts FROM vehicle WHERE speed != 0")
                .rows
                .len(),
            4
        );
    }

    #[test]
    fn like_in_between() {
        let db = vehicle_db();
        assert_eq!(
            run(&db, "SELECT ts FROM vehicle WHERE location LIKE 'San%'")
                .rows
                .len(),
            3
        );
        assert_eq!(
            run(
                &db,
                "SELECT ts FROM vehicle WHERE location NOT LIKE '%land'"
            )
            .rows
            .len(),
            4
        );
        assert_eq!(
            run(&db, "SELECT ts FROM vehicle WHERE ts IN (1, 3, 99)")
                .rows
                .len(),
            2
        );
        assert_eq!(
            run(&db, "SELECT ts FROM vehicle WHERE speed BETWEEN 8 AND 45")
                .rows
                .len(),
            3
        );
        assert_eq!(
            run(
                &db,
                "SELECT ts FROM vehicle WHERE speed NOT BETWEEN 8 AND 45"
            )
            .rows
            .len(),
            2
        );
    }

    #[test]
    fn logic_and_or_not() {
        let db = vehicle_db();
        let rs = run(
            &db,
            "SELECT ts FROM vehicle WHERE location = 'San Francisco' AND speed < 50",
        );
        assert_eq!(rs.rows.len(), 2);
        let rs = run(&db, "SELECT ts FROM vehicle WHERE speed < 1 OR speed > 60");
        assert_eq!(rs.rows.len(), 2);
        let rs = run(&db, "SELECT ts FROM vehicle WHERE NOT speed > 10");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn null_semantics_filter_unknowns() {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        );
        db.insert("t", vec![Value::Int(1), Value::Null]).unwrap();
        db.insert("t", vec![Value::Int(2), Value::Int(5)]).unwrap();
        // b > 3 is NULL for the first row → filtered out.
        assert_eq!(run(&db, "SELECT a FROM t WHERE b > 3").rows.len(), 1);
        // IS NULL finds it.
        assert_eq!(run(&db, "SELECT a FROM t WHERE b IS NULL").rows.len(), 1);
        assert_eq!(
            run(&db, "SELECT a FROM t WHERE b IS NOT NULL").rows.len(),
            1
        );
        // NULL arithmetic propagates.
        let rs = run(&db, "SELECT b + 1 FROM t WHERE a = 1");
        assert_eq!(rs.rows[0][0], Value::Null);
        // x IN (…, NULL) with no match is NULL → filtered.
        assert_eq!(
            run(&db, "SELECT a FROM t WHERE a IN (9, NULL)").rows.len(),
            0
        );
    }

    #[test]
    fn limit_caps_rows() {
        let db = vehicle_db();
        assert_eq!(run(&db, "SELECT ts FROM vehicle LIMIT 2").rows.len(), 2);
        assert_eq!(run(&db, "SELECT ts FROM vehicle LIMIT 0").rows.len(), 0);
    }

    #[test]
    fn errors_surface() {
        let db = vehicle_db();
        let q = parse_select("SELECT nope FROM vehicle").unwrap();
        assert_eq!(
            execute(&q, &db).unwrap_err(),
            SqlError::UnknownColumn("nope".into())
        );
        let q = parse_select("SELECT * FROM nix").unwrap();
        assert_eq!(
            execute(&q, &db).unwrap_err(),
            SqlError::UnknownTable("nix".into())
        );
        let q = parse_select("SELECT ts / 0 FROM vehicle").unwrap();
        assert_eq!(execute(&q, &db).unwrap_err(), SqlError::DivisionByZero);
        let q = parse_select("SELECT location + 1 FROM vehicle").unwrap();
        assert!(matches!(execute(&q, &db).unwrap_err(), SqlError::Type(_)));
    }

    #[test]
    fn unknown_column_in_where_detected_on_empty_table() {
        let mut db = Database::new();
        db.create_table("empty", Schema::new(vec![("a", ColumnType::Int)]));
        let q = parse_select("SELECT a FROM empty WHERE ghost = 1").unwrap();
        assert_eq!(
            execute(&q, &db).unwrap_err(),
            SqlError::UnknownColumn("ghost".into())
        );
    }

    #[test]
    fn single_column_helper() {
        let db = vehicle_db();
        let rs = run(&db, "SELECT speed FROM vehicle");
        assert_eq!(rs.single_column().unwrap().len(), 5);
        let rs = run(&db, "SELECT * FROM vehicle");
        assert!(rs.single_column().is_err());
    }
}

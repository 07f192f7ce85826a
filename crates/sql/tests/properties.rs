//! Property-based tests for the SQL engine: the executor must agree
//! with a direct Rust evaluation of the same predicate over the same
//! rows, the parser must be total (no panics) on arbitrary input, and
//! prepared plans must be indistinguishable from interpretation —
//! same rows, same columns, same errors — across the whole corpus.

use privapprox_sql::{
    execute, parse_select, ColumnType, Database, EvalScratch, PreparedSelect, Schema, Value,
};
use proptest::prelude::*;

/// `t(a INT, b FLOAT, c TEXT)`; `c` is a function of `a` — one of
/// `'w'`, `'x'`, `'y'` or NULL — so every generated table has text
/// and NULL rows for the prepared-plan property to compare against.
fn table_with(values: &[(i64, f64)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ("a", ColumnType::Int),
            ("b", ColumnType::Float),
            ("c", ColumnType::Text),
        ]),
    );
    for &(a, b) in values {
        let c = match a.rem_euclid(4) {
            0 => "w".into(),
            1 => "x".into(),
            2 => "y".into(),
            _ => Value::Null,
        };
        db.insert("t", vec![Value::Int(a), Value::Float(b), c])
            .unwrap();
    }
    db
}

proptest! {
    /// Numeric comparison filters agree with direct evaluation.
    #[test]
    fn comparison_filters_match_oracle(
        rows in proptest::collection::vec((-50i64..50, -5.0f64..5.0), 0..40),
        threshold in -50i64..50,
        op_idx in 0usize..6,
    ) {
        let db = table_with(&rows);
        let ops = ["=", "!=", "<", "<=", ">", ">="];
        let op = ops[op_idx];
        let sql = format!("SELECT a FROM t WHERE a {op} {threshold}");
        let rs = execute(&parse_select(&sql).unwrap(), &db).unwrap();
        let expect: Vec<i64> = rows
            .iter()
            .map(|(a, _)| *a)
            .filter(|a| match op {
                "=" => *a == threshold,
                "!=" => *a != threshold,
                "<" => *a < threshold,
                "<=" => *a <= threshold,
                ">" => *a > threshold,
                ">=" => *a >= threshold,
                _ => unreachable!(),
            })
            .collect();
        let got: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(v) => v,
                _ => panic!("int column"),
            })
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// AND / OR / NOT over two predicates agree with Rust booleans.
    #[test]
    fn boolean_connectives_match_oracle(
        rows in proptest::collection::vec((-20i64..20, -5.0f64..5.0), 0..30),
        t1 in -20i64..20,
        t2 in -5.0f64..5.0,
        connective in 0usize..3,
    ) {
        let db = table_with(&rows);
        let sql = match connective {
            0 => format!("SELECT a FROM t WHERE a > {t1} AND b < {t2}"),
            1 => format!("SELECT a FROM t WHERE a > {t1} OR b < {t2}"),
            _ => format!("SELECT a FROM t WHERE NOT (a > {t1})"),
        };
        let rs = execute(&parse_select(&sql).unwrap(), &db).unwrap();
        let expect = rows
            .iter()
            .filter(|(a, b)| match connective {
                0 => *a > t1 && *b < t2,
                1 => *a > t1 || *b < t2,
                _ => *a <= t1,
            })
            .count();
        prop_assert_eq!(rs.rows.len(), expect);
    }

    /// BETWEEN is the closed-interval filter.
    #[test]
    fn between_matches_oracle(
        rows in proptest::collection::vec((-30i64..30, 0.0f64..1.0), 0..30),
        lo in -30i64..0,
        hi in 0i64..30,
    ) {
        let db = table_with(&rows);
        let sql = format!("SELECT a FROM t WHERE a BETWEEN {lo} AND {hi}");
        let rs = execute(&parse_select(&sql).unwrap(), &db).unwrap();
        let expect = rows.iter().filter(|(a, _)| *a >= lo && *a <= hi).count();
        prop_assert_eq!(rs.rows.len(), expect);
    }

    /// Arithmetic projections compute what Rust computes (integer ops
    /// on in-range operands).
    #[test]
    fn arithmetic_projection_matches_oracle(
        a in -1000i64..1000,
        b in 1i64..1000,
        op_idx in 0usize..4,
    ) {
        let db = table_with(&[(a, 0.0)]);
        let ops = ["+", "-", "*", "/"];
        let op = ops[op_idx];
        let sql = format!("SELECT a {op} {b} FROM t");
        let rs = execute(&parse_select(&sql).unwrap(), &db).unwrap();
        let expect = match op {
            "+" => a + b,
            "-" => a - b,
            "*" => a * b,
            "/" => a / b,
            _ => unreachable!(),
        };
        prop_assert_eq!(&rs.rows[0][0], &Value::Int(expect));
    }

    /// LIMIT caps row counts exactly.
    #[test]
    fn limit_is_exact(
        rows in proptest::collection::vec((-5i64..5, 0.0f64..1.0), 0..30),
        limit in 0u64..40,
    ) {
        let db = table_with(&rows);
        let sql = format!("SELECT * FROM t LIMIT {limit}");
        let rs = execute(&parse_select(&sql).unwrap(), &db).unwrap();
        prop_assert_eq!(rs.rows.len() as u64, limit.min(rows.len() as u64));
    }

    /// Prepared execution is byte-identical to interpretation across
    /// the corpus of query shapes the other properties exercise —
    /// results *and* errors — and `last_single_value` matches the
    /// interpreted execute→single_column→last pipeline.
    #[test]
    fn prepared_plans_match_interpretation(
        rows in proptest::collection::vec((-50i64..50, -5.0f64..5.0), 0..40),
        t1 in -50i64..50,
        t2 in -5.0f64..5.0,
        limit in 0u64..45,
        which in 0usize..26,
    ) {
        let db = table_with(&rows);
        let sql = match which {
            0 => format!("SELECT a FROM t WHERE a = {t1}"),
            1 => format!("SELECT a FROM t WHERE a != {t1}"),
            2 => format!("SELECT b FROM t WHERE a < {t1}"),
            3 => format!("SELECT b FROM t WHERE a >= {t1}"),
            4 => format!("SELECT a FROM t WHERE a > {t1} AND b < {t2}"),
            5 => format!("SELECT a FROM t WHERE a > {t1} OR b < {t2}"),
            6 => format!("SELECT a FROM t WHERE NOT (a > {t1})"),
            7 => format!("SELECT a FROM t WHERE a BETWEEN {t1} AND {}", t1 + 7),
            8 => format!("SELECT a + {t1} FROM t"),
            9 => "SELECT a * b FROM t WHERE b != 0".to_string(),
            10 => format!("SELECT * FROM t LIMIT {limit}"),
            11 => format!("SELECT a FROM t WHERE a IN ({t1}, {}, NULL)", t1 + 1),
            12 => format!("SELECT a, b FROM t WHERE b <= {t2}"),
            13 => format!("SELECT a / (a - {t1}) FROM t"), // may divide by zero
            14 => format!("SELECT b FROM t WHERE {t1} <= a LIMIT {limit}"),
            15 => format!("SELECT a FROM t WHERE b IS NOT NULL AND a <= {t1}"),
            // The fused scan's comparisons on every type it meets:
            // text, text with the literal first, int against a float,
            // text against a number (unknown) and NULL.
            16 => "SELECT a FROM t WHERE c = 'x'".to_string(),
            17 => format!("SELECT a FROM t WHERE c = 'x' LIMIT {limit}"),
            18 => "SELECT c FROM t WHERE 'x' = c".to_string(),
            19 => format!("SELECT c FROM t WHERE 'x' = c LIMIT {limit}"),
            20 => format!("SELECT b FROM t WHERE a < {}.5", t1.abs()),
            21 => format!("SELECT b FROM t WHERE a < {}.5 LIMIT {limit}", t1.abs()),
            22 => "SELECT c FROM t WHERE c > 3".to_string(),
            23 => format!("SELECT c FROM t WHERE c > 3 LIMIT {limit}"),
            24 => "SELECT b FROM t WHERE a = NULL".to_string(),
            _ => format!("SELECT b FROM t WHERE a = NULL LIMIT {limit}"),
        };
        let stmt = parse_select(&sql).expect("corpus SQL parses");
        let interpreted = execute(&stmt, &db);
        let prepared = PreparedSelect::prepare(&stmt, &db).and_then(|p| p.execute(&db));
        prop_assert_eq!(&prepared, &interpreted, "query: {}", &sql);

        // The client's "newest value" entry point agrees with the
        // interpreted pipeline wherever that pipeline is defined.
        let oracle = interpreted
            .and_then(|rs| rs.single_column())
            .map(|col| col.last().cloned());
        let mut scratch = EvalScratch::new();
        let last = PreparedSelect::prepare(&stmt, &db).and_then(|p| {
            Ok(p.last_single_value(&db, &mut scratch)?.map(|v| v.to_value()))
        });
        prop_assert_eq!(last, oracle, "last value of: {}", &sql);
    }

    /// The parser is total: arbitrary garbage returns Err, never
    /// panics.
    #[test]
    fn parser_never_panics(input in "\\PC{0,60}") {
        let _ = parse_select(&input);
    }

    /// Parsing is deterministic.
    #[test]
    fn parser_is_deterministic(input in "\\PC{0,60}") {
        prop_assert_eq!(parse_select(&input), parse_select(&input));
    }
}

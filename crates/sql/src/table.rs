//! In-memory tables with time-based retention.
//!
//! Clients store their private stream locally and answer queries over
//! it; old rows age out as the sliding window advances. A `Table`
//! therefore supports appending rows and pruning everything older than
//! a cutoff on a designated timestamp column.

use crate::error::SqlError;
use crate::plan::PreparedSelect;
use crate::value::Value;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Column types (informational; storage is dynamically typed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

/// A table schema: ordered `(name, type)` pairs.
///
/// A schema is shared, not copied: a clone is a reference-count bump,
/// and every table created from clones of one schema shares its plan
/// cache (see [`Database::plan`]). Two schemas built separately are
/// equal when their columns are, but keep separate caches.
#[derive(Clone)]
pub struct Schema(Arc<SchemaInner>);

pub(crate) struct SchemaInner {
    columns: Vec<(String, ColumnType)>,
    /// Every plan prepared against this schema by [`Database::plan`],
    /// one per SQL text. Locked only when a client first meets a
    /// query, or after its table changed.
    plans: Mutex<Vec<Arc<PreparedSelect>>>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on duplicate column names.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Schema {
        let columns: Vec<(String, ColumnType)> = columns
            .into_iter()
            .map(|(n, t)| (n.to_string(), t))
            .collect();
        for i in 0..columns.len() {
            for j in i + 1..columns.len() {
                assert_ne!(columns[i].0, columns[j].0, "duplicate column name");
            }
        }
        Schema(Arc::new(SchemaInner {
            columns,
            plans: Mutex::default(),
        }))
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.columns.len()
    }

    /// True for a zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.0.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.0.columns.iter().position(|(n, _)| n == name)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.0.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The `(name, type)` pairs.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.0.columns
    }

    /// The shared part: what a plan is bound to.
    pub(crate) fn inner(&self) -> &Arc<SchemaInner> {
        &self.0
    }

    /// The plans prepared against this schema. The cache's one update
    /// is a push, so a panic elsewhere cannot leave it half-updated
    /// and a poisoned lock is recovered.
    fn plans(&self) -> MutexGuard<'_, Vec<Arc<PreparedSelect>>> {
        self.0.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Schema) -> bool {
        self.0.columns == other.0.columns
    }
}

impl core::fmt::Debug for Schema {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Schema")
            .field("columns", &self.0.columns)
            .finish()
    }
}

/// A row is an ordered vector of values matching the schema.
pub type Row = Vec<Value>;

/// An in-memory, append-mostly table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one row after arity-checking it.
    pub fn insert(&mut self, row: Row) -> Result<(), SqlError> {
        if row.len() != self.schema.len() {
            return Err(SqlError::Arity {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// The rows (read-only).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Removes all rows whose `ts_column` value is below `cutoff`
    /// (client-side retention for sliding windows). Rows with NULL or
    /// non-numeric timestamps are removed as unusable.
    ///
    /// Returns the number of rows dropped.
    pub fn prune_before(&mut self, ts_column: &str, cutoff: f64) -> Result<usize, SqlError> {
        let idx = self
            .schema
            .index_of(ts_column)
            .ok_or_else(|| SqlError::UnknownColumn(ts_column.to_string()))?;
        let before = self.rows.len();
        self.rows
            .retain(|row| row[idx].as_f64().map(|t| t >= cutoff).unwrap_or(false));
        Ok(before - self.rows.len())
    }

    /// Drops all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

/// A named collection of tables (one per client).
///
/// The catalog is a flat list: a client holds one table or a few, so
/// a lookup is a short scan, and an empty catalog costs no heap.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<(Box<str>, Table)>,
}

impl Database {
    /// Creates an empty catalog.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates (or replaces) a table. Plans prepared against the
    /// replaced table's schema go stale (see [`PreparedSelect`]);
    /// re-creating a table from a clone of the same schema keeps them.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> &mut Table {
        let table = Table::new(schema);
        let i = match self.tables.iter().position(|(n, _)| **n == *name) {
            Some(i) => {
                self.tables[i].1 = table;
                i
            }
            None => {
                self.tables.reserve_exact(1);
                self.tables.push((name.into(), table));
                self.tables.len() - 1
            }
        };
        &mut self.tables[i].1
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables
            .iter()
            .find(|(n, _)| **n == *name)
            .map(|(_, t)| t)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables
            .iter_mut()
            .find(|(n, _)| **n == *name)
            .map(|(_, t)| t)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Inserts a row into a named table.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), SqlError> {
        self.table_mut(table)?.insert(row)
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.iter().map(|(n, _)| &**n).collect();
        names.sort_unstable();
        names
    }

    /// The plan of `sql` over this catalog, shared with every other
    /// catalog whose table of that name has the same [`Schema`]: it is
    /// parsed and prepared once per (SQL text, schema) and cached on
    /// the schema. Parse and resolution errors are returned, not
    /// cached.
    ///
    /// This takes the schema's lock, so callers keep the returned
    /// handle and call this again only when the handle goes stale
    /// ([`PreparedSelect::is_current`]) or the SQL changes.
    pub fn plan(&self, sql: &str) -> Result<Arc<PreparedSelect>, SqlError> {
        for (name, table) in &self.tables {
            let plans = table.schema.plans();
            let hit = plans
                .iter()
                .find(|p| p.sql() == sql && p.table() == &**name);
            if let Some(p) = hit {
                return Ok(Arc::clone(p));
            }
        }
        let plan = PreparedSelect::prepare(sql, self)?;
        let mut plans = self.table(plan.table())?.schema.plans();
        // Another catalog of this schema may have prepared it since.
        if let Some(p) = plans.iter().find(|p| p.sql() == sql) {
            return Ok(Arc::clone(p));
        }
        let plan = Arc::new(plan);
        plans.push(Arc::clone(&plan));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("ts", ColumnType::Int),
            ("speed", ColumnType::Float),
            ("location", ColumnType::Text),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("speed"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.names(), vec!["ts", "speed", "location"]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        let _ = Schema::new(vec![("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }

    #[test]
    fn insert_checks_arity() {
        let mut t = Table::new(schema());
        assert!(t
            .insert(vec![Value::Int(1), Value::Float(30.0), "SF".into()])
            .is_ok());
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            SqlError::Arity {
                expected: 3,
                got: 1
            }
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prune_removes_old_rows() {
        let mut t = Table::new(schema());
        for ts in 0..10 {
            t.insert(vec![Value::Int(ts), Value::Float(1.0), "SF".into()])
                .unwrap();
        }
        let dropped = t.prune_before("ts", 7.0).unwrap();
        assert_eq!(dropped, 7);
        assert_eq!(t.len(), 3);
        assert!(t.rows().iter().all(|r| r[0].as_f64().unwrap() >= 7.0));
    }

    #[test]
    fn prune_drops_null_timestamps() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Null, Value::Float(1.0), "SF".into()])
            .unwrap();
        t.insert(vec![Value::Int(5), Value::Float(1.0), "SF".into()])
            .unwrap();
        assert_eq!(t.prune_before("ts", 0.0).unwrap(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prune_unknown_column_errors() {
        let mut t = Table::new(schema());
        assert_eq!(
            t.prune_before("nope", 0.0).unwrap_err(),
            SqlError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn database_catalog() {
        let mut db = Database::new();
        db.create_table("vehicle", schema());
        assert!(db.table("vehicle").is_ok());
        assert_eq!(
            db.table("nope").unwrap_err(),
            SqlError::UnknownTable("nope".into())
        );
        db.insert(
            "vehicle",
            vec![Value::Int(1), Value::Float(15.0), "SF".into()],
        )
        .unwrap();
        assert_eq!(db.table("vehicle").unwrap().len(), 1);
        assert_eq!(db.table_names(), vec!["vehicle"]);
    }
}

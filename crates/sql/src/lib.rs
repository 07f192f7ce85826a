//! The client-local SQL engine — PrivApprox's SQLite stand-in.
//!
//! "PRIVAPPROX supports the SQL query language for analysts to
//! formulate streaming queries, which are executed periodically at the
//! clients" (paper §2.2) against "the local user's private data stored
//! in SQLite" (§5). This crate is a from-scratch engine sufficient for
//! that role: a lexer, a recursive-descent parser, an in-memory table
//! store with time-based retention (clients keep a bounded window of
//! their own stream), and an executor for filtered projections.
//!
//! Supported grammar:
//!
//! ```text
//! SELECT <expr-list | *> FROM <table> [WHERE <expr>] [LIMIT <n>]
//! expr := literal | column | (expr)
//!       | expr (= | != | <> | < | <= | > | >=) expr
//!       | expr (+ | - | * | /) expr
//!       | expr [NOT] LIKE pattern
//!       | expr [NOT] IN (expr, ...)
//!       | expr [NOT] BETWEEN expr AND expr
//!       | expr IS [NOT] NULL
//!       | NOT expr | expr AND expr | expr OR expr | -expr
//! ```
//!
//! Semantics follow SQL three-valued logic for NULL, with int/float
//! coercion on comparison and arithmetic.
//!
//! # Prepared plans
//!
//! The engine has one evaluator and one specialization of it:
//!
//! * **Interpreted** — [`parse_select`] + [`execute`]: walks the AST
//!   per row. It is the semantic reference, and the only path for
//!   general SELECTs.
//! * **Fused scan** — [`PreparedSelect::prepare`] recognizes the
//!   client's shape, `SELECT col FROM t [WHERE col ⋈ lit] [LIMIT n]`,
//!   and [`PreparedSelect::last_single_value`] answers it with one
//!   row walk that compares in place and clones nothing. Any other
//!   shape is handed to the interpreter. The property tests pin the
//!   two paths to byte-identical results *and errors*.
//!
//! The prepared lifecycle is: `parse → prepare → execute × N →
//! (invalidate on SQL or catalog change) → re-prepare`. Preparing
//! looks up the table and resolves every column reference once, so
//! unknown names fail there. Plans record the
//! [`Database::generation`] they were prepared against and fail with
//! [`SqlError::StalePlan`] if the catalog moved; [`PlanCache`]
//! automates the validate-or-re-prepare step keyed by query id, which
//! is how the PrivApprox client uses this crate (one long-lived query
//! × millions of per-epoch executions).
//!
//! # Scratch-buffer conventions
//!
//! The workspace-wide convention (see `privapprox-core`) is that the
//! *caller* owns and reuses buffers across calls. Here that is the
//! [`EvalScratch`] passed to [`PreparedSelect::last_single_value`]:
//! the fused scan borrows its answer straight from the table and
//! never touches it, so the client's per-epoch SQL stage allocates
//! nothing; an interpreted answer is parked in it so the caller can
//! borrow it the same way.

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod table;
pub mod value;

pub use ast::{BinaryOp, Expr, SelectItem, SelectStmt, UnaryOp};
pub use error::SqlError;
pub use exec::{execute, ResultSet};
pub use parser::parse_select;
pub use plan::{EvalScratch, PlanCache, PreparedSelect, ValueRef};
pub use table::{ColumnType, Database, Schema, Table};
pub use value::Value;

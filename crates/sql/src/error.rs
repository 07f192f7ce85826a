//! SQL engine errors.

/// Everything that can go wrong while lexing, parsing or executing.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte position in the input.
        pos: usize,
        /// Description of the problem.
        msg: String,
    },
    /// Parse error with a human-readable description.
    Parse(String),
    /// Reference to a table the catalog does not contain.
    UnknownTable(String),
    /// Reference to a column the schema does not contain.
    UnknownColumn(String),
    /// Type error during evaluation (e.g. `'a' + 1`).
    Type(String),
    /// Division by zero.
    DivisionByZero,
    /// Row arity does not match the schema on insert.
    Arity {
        /// Columns the schema expects.
        expected: usize,
        /// Values the row supplied.
        got: usize,
    },
    /// A prepared plan was executed against a database whose table
    /// has another schema than the one the plan was prepared against
    /// (the table was re-created); the caller must re-prepare.
    StalePlan,
}

impl core::fmt::Display for SqlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SqlError::Lex { pos, msg } => write!(f, "lex error at byte {pos}: {msg}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            SqlError::Type(m) => write!(f, "type error: {m}"),
            SqlError::DivisionByZero => write!(f, "division by zero"),
            SqlError::Arity { expected, got } => {
                write!(f, "row has {got} values, schema expects {expected}")
            }
            SqlError::StalePlan => {
                write!(
                    f,
                    "prepared plan is stale: its table was re-created with another schema"
                )
            }
        }
    }
}

impl std::error::Error for SqlError {}

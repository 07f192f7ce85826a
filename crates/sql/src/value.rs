//! SQL values with three-valued-logic comparison semantics.

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean (result of predicates; also storable).
    Bool(bool),
}

impl Value {
    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints coerce to floats); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// SQL truthiness: NULL is unknown (None), numbers are true when
    /// non-zero, booleans are themselves.
    pub fn truth(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0),
            Value::Text(_) => Some(false),
        }
    }

    /// SQL equality: NULL = anything is NULL (None); numerics coerce.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        })
    }

    /// SQL ordering comparison; `None` for NULL operands or
    /// incomparable types.
    pub fn sql_cmp(&self, other: &Value) -> Option<core::cmp::Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl core::fmt::Display for Value {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cmp::Ordering;

    #[test]
    fn null_propagates_through_comparisons() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.truth(), None);
    }

    #[test]
    fn numeric_coercion_in_equality() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.0)), Some(true));
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.5)), Some(false));
        assert_eq!(Value::Bool(true).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn text_compares_lexicographically() {
        assert_eq!(
            Value::from("apple").sql_cmp(&Value::from("banana")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from("a").sql_eq(&Value::from("a")), Some(true));
    }

    #[test]
    fn mixed_text_number_is_incomparable() {
        assert_eq!(Value::from("5").sql_cmp(&Value::Int(5)), None);
        assert_eq!(Value::from("5").sql_eq(&Value::Int(5)), Some(false));
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Int(0).truth(), Some(false));
        assert_eq!(Value::Int(7).truth(), Some(true));
        assert_eq!(Value::Float(0.0).truth(), Some(false));
        assert_eq!(Value::Bool(true).truth(), Some(true));
        assert_eq!(Value::from("x").truth(), Some(false));
    }

    #[test]
    fn display_round_trip_flavor() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
        assert_eq!(Value::Bool(false).to_string(), "FALSE");
    }
}

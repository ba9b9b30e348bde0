//! A JSON writer. Reading goes through the product's own parser,
//! `netcrafter::sim::trace::json`, so the files this benchmark writes are
//! checked against the parser the repository already trusts.

use std::fmt::Write as _;

use netcrafter::sim::trace::json::Value;
use netcrafter::sim::trace::json_string;

/// A JSON value to be written.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    /// Written with every digit Rust's shortest round-trip form has.
    Num(f64),
    /// Counts are written as integers, never in exponent form.
    Int(u64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    /// One line, no spaces: the form of the result line on stdout.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level: the form of the files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // in the harness and reads as null rather than as a number.
            J::Num(v) if !v.is_finite() => out.push_str("null"),
            J::Num(v) => write!(out, "{v}").expect("writing to a String"),
            J::Int(v) => write!(out, "{v}").expect("writing to a String"),
            J::Str(s) => out.push_str(&json_string(s)),
            J::Arr(items) => {
                out.push('[');
                // Arrays of scalars stay on one line even when pretty.
                let flat = items.iter().all(|i| !matches!(i, J::Arr(_) | J::Obj(_)));
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            J::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push_str(&json_string(k));
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Reads and parses a JSON file; errors name the file.
pub fn read(path: &std::path::Path) -> Result<Value, String> {
    let file = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    netcrafter::sim::trace::json::parse(&file).map_err(|e| format!("{}: {e}", path.display()))
}

/// Member `key` of a parsed object as a number.
pub fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

/// Member `key` of a parsed object as a string.
pub fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

/// Members of a parsed object, in file order (empty for a non-object).
pub fn members(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(m) => m,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter::sim::trace::json::parse;

    #[test]
    fn round_trips_through_the_in_tree_parser() {
        let doc = J::obj([
            ("name", J::str("a \"quoted\"\nline\t\\")),
            ("count", J::Int(18_446_744_073_709)),
            ("value", J::Num(1.2034e-7)),
            ("neg", J::Num(-0.5)),
            ("flag", J::Bool(true)),
            ("nothing", J::Null),
            ("raw", J::nums(&[1.0, 2.5])),
            (
                "nested",
                J::Arr(vec![J::obj([("k", J::Int(1))]), J::Arr(vec![])]),
            ),
            ("empty", J::Obj(vec![])),
        ]);
        for textual in [doc.compact(), doc.pretty()] {
            let v = parse(&textual).expect("writer output parses");
            assert_eq!(text(&v, "name"), Some("a \"quoted\"\nline\t\\"));
            assert_eq!(num(&v, "count"), Some(18_446_744_073_709.0));
            assert_eq!(num(&v, "value"), Some(1.2034e-7));
            assert_eq!(num(&v, "neg"), Some(-0.5));
            assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
            assert_eq!(v.get("nothing"), Some(&Value::Null));
            let raw: Vec<f64> = v
                .get("raw")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            assert_eq!(raw, [1.0, 2.5]);
            assert_eq!(
                members(v.get("nested").unwrap().as_arr().unwrap().first().unwrap()).len(),
                1
            );
            assert!(members(v.get("empty").unwrap()).is_empty());
        }
        assert!(!doc.compact().contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(J::Num(f64::NAN).compact(), "null");
        assert_eq!(J::Num(f64::INFINITY).compact(), "null");
    }
}

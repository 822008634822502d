//! The workspace's one JSON writer: a value tree with insertion-ordered
//! objects and one deterministic printer, two-space [`pretty`] or
//! one-line [`compact`].
//!
//! Every `eirs --json true` document, every `BENCH_*.json` artifact and
//! every event the trace exporters in [`export`](crate::export) write is
//! a [`Json`] value, so one spelling of strings and numbers holds
//! everywhere. Unsigned integers stay exact ([`Json::Int`]); floats
//! print integral values without a fraction. The workspace has no
//! serde; its reports are shallow string/number/object/array
//! structures.
//!
//! [`pretty`]: Json::pretty
//! [`compact`]: Json::compact

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// A float (non-finite serializes as `null`).
    Num(f64),
    /// An unsigned integer, printed exactly.
    Int(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds or replaces key `k` (objects only; panics otherwise).
    pub fn set(&mut self, k: &str, v: impl Into<Json>) -> &mut Self {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(slot) = entries.iter_mut().find(|(key, _)| key == k) {
            slot.1 = v.into();
        } else {
            entries.push((k.to_string(), v.into()));
        }
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace between tokens.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value at nesting depth `indent`; `None` is compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => json_num(*x, out),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => json_str(s, out),
            Json::Arr(items) => {
                write_items(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(entries) => write_items(
                out,
                indent,
                ['{', '}'],
                entries.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes an array (every key `None`) or an object between `open` and
/// `close`. Pretty output puts each item on its own line one level
/// deeper and prints an empty container as `[]` or `{}`.
fn write_items<'a>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inner = indent.map(|d| d + 1);
    out.push(open);
    let mut any = false;
    for (key, value) in items {
        if any {
            out.push(',');
        }
        any = true;
        newline(out, inner);
        if let Some(k) = key {
            json_str(k, out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if any {
        newline(out, indent);
    }
    out.push(close);
}

/// A newline and `depth` two-space indents (nothing when compact).
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        for _ in 0..d {
            out.push_str("  ");
        }
    }
}

/// Writes `s` as a quoted, escaped JSON string (values and keys alike).
fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `v` as a JSON number. Integral values print without a fraction
/// (so counts read as integers, and `-0` as `0`); JSON has no NaN or
/// infinity, so non-finite values print `null`.
fn json_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A slice is an array of its converted elements.
impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_structures_deterministically() {
        let mut o = Json::object();
        o.set("name", "sweep")
            .set("speedup", 4.25)
            .set("threads", 8u64)
            .set("runs", vec![Json::Num(1.0), Json::Bool(true), Json::Null]);
        let s = o.pretty();
        assert!(s.contains("\"name\": \"sweep\""));
        assert!(s.contains("\"speedup\": 4.25"));
        assert!(s.contains("\"threads\": 8"));
        assert!(s.ends_with("}\n"));
        // Integral floats print without a fraction.
        assert!(s.contains("1,"));
    }

    #[test]
    fn unsigned_integers_print_exactly() {
        assert_eq!(Json::from(u64::MAX).pretty(), "18446744073709551615\n");
        let mut o = Json::object();
        o.set("seed", 9_007_199_254_740_993u64).set("n", 7usize);
        assert_eq!(
            o.pretty(),
            "{\n  \"seed\": 9007199254740993,\n  \"n\": 7\n}\n"
        );
    }

    #[test]
    fn compact_is_the_pretty_tree_on_one_line() {
        let mut inner = Json::object();
        inner.set("x", 2.5).set("e", Json::object());
        let mut o = Json::object();
        o.set(
            "k \"q\"\n",
            vec![Json::from(1u32), Json::Null, Json::Bool(false)],
        )
        .set("inner", inner)
        .set("empty", &[] as &[f64]);
        let compact = o.compact();
        crate::export::validate_json(&compact).expect("valid JSON");
        assert_eq!(
            compact,
            "{\"k \\\"q\\\"\\n\":[1,null,false],\"inner\":{\"x\":2.5,\"e\":{}},\"empty\":[]}"
        );
        let squeezed: String = o.pretty().lines().map(str::trim_start).collect();
        assert_eq!(squeezed.replace("\": ", "\":"), compact);
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).pretty();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn escapes_object_keys() {
        let mut o = Json::object();
        o.set("cfg \"fast\"\n", 1.0);
        let s = o.pretty();
        assert!(s.contains("\"cfg \\\"fast\\\"\\n\": 1"), "{s}");
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut o = Json::object();
        o.set("x", 1.0).set("x", 2.0);
        assert_eq!(o, {
            let mut e = Json::object();
            e.set("x", 2.0);
            e
        });
    }

    #[test]
    fn options_and_slices_convert() {
        let errors = vec!["a".to_string(), "b\t".to_string()];
        let mut o = Json::object();
        o.set("none", None::<f64>)
            .set("some", Some(2.5))
            .set("errors", errors.as_slice())
            .set("empty", &[] as &[f64])
            .set("neg_zero", -0.0)
            .set("nan", f64::NAN);
        let s = o.pretty();
        crate::export::validate_json(&s).expect("valid JSON");
        assert_eq!(
            s,
            "{\n  \"none\": null,\n  \"some\": 2.5,\n  \"errors\": [\n    \"a\",\n    \
             \"b\\t\"\n  ],\n  \"empty\": [],\n  \"neg_zero\": 0,\n  \"nan\": null\n}\n"
        );
    }
}

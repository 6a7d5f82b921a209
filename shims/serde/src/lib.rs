//! Minimal stand-in for `serde`: instead of the visitor architecture,
//! [`Serialize`] renders directly to a [`Json`] value tree. The companion
//! `serde_derive` shim generates impls for named-field structs. Nothing is
//! decoded back into a type: JSON text parses only into an untyped [`Json`]
//! (`serde_json::from_str`).

use std::time::Duration;

pub use serde_derive::Serialize;

/// A JSON value. Object fields keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object; `Err` on non-objects/missing keys.
    pub fn get_field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            other => Err(format!("expected object with field `{key}`, got {other:?}")),
        }
    }

    fn write(&self, out: &mut String, pretty: bool, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, pretty, indent, '[', ']', items.len(), |out, i| {
                items[i].write(out, pretty, indent + 1);
            }),
            Json::Obj(fields) => {
                write_seq(out, pretty, indent, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, pretty, indent + 1);
                })
            }
        }
    }

    /// Compact rendering.
    pub fn to_json_string(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, false, 0);
        s
    }

    /// Two-space-indented rendering.
    pub fn to_json_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, true, 0);
        s
    }
}

fn write_seq(
    out: &mut String,
    pretty: bool,
    indent: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(indent + 1));
        }
        write_item(out, i);
    }
    if pretty {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialization straight to a [`Json`] tree.
pub trait Serialize {
    fn to_json(&self) -> Json;
}

// ---------------------------------------------------------------------------
// Impls for the field types the run trace's records use
// ---------------------------------------------------------------------------

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_num!(usize, f64);

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl Serialize for Duration {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("secs".to_string(), Json::Num(self.as_secs() as f64)),
            ("nanos".to_string(), Json::Num(self.subsec_nanos() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shapes() {
        let v = Json::Obj(vec![
            (
                "a".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)]),
            ),
            ("b".to_string(), Json::Str("x\"y".to_string())),
        ]);
        assert_eq!(v.to_json_string(), r#"{"a":[1,2.5],"b":"x\"y"}"#);
        assert!(v.to_json_string_pretty().contains("\n  \"a\""));
    }
}

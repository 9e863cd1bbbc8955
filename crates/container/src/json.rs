//! A minimal JSON writer shared by every hand-rolled JSON producer in the workspace —
//! `hfz inspect --json` ([`crate::ArchiveInfo::to_json`]), the daemon's `LIST`/`STATS`
//! replies, and the bench harness's `BENCH_*.json` — so separator placement and string
//! escaping live in exactly one place.
//!
//! The writer is deliberately a *formatter*, not a serializer: callers keep full
//! control of number formatting (`{}` vs `{:e}` vs `{:.6}` all appear in stable
//! documents this workspace must keep byte-compatible), and the writer only manages
//! nesting, commas, and escaping.
//!
//! ```
//! use huffdec_container::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("name");
//! w.str("hacc");
//! w.key("fields");
//! w.begin_array();
//! w.u64(3);
//! w.u64(4);
//! w.end_array();
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"name":"hacc","fields":[3,4]}"#);
//! ```

use std::fmt::Write as _;

/// Incremental JSON document builder: nesting, comma placement, and escaping handled;
/// number formatting left to the caller.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: whether the next element is its first.
    first: Vec<bool>,
    /// Whether the last token was a key (its value must not emit a separator).
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> JsonWriter {
        JsonWriter {
            buf: String::with_capacity(capacity),
            ..JsonWriter::default()
        }
    }

    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(first) = self.first.last_mut() {
            if *first {
                *first = false;
            } else {
                self.buf.push(',');
            }
        }
    }

    /// Opens an object (as a document root, array element, or key's value).
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('{');
        self.first.push(true);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.first.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('[');
        self.first.push(true);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.first.pop();
        self.buf.push(']');
        self
    }

    /// Writes an object key (escaped); the next write is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(&json_escape(key));
        self.buf.push_str("\":");
        self.after_key = true;
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{}", v);
        self
    }

    /// Writes a float in `{:e}` scientific notation (the workspace's stable format
    /// for seconds and bounds).
    pub fn f64_sci(&mut self, v: f64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{:e}", v);
        self
    }

    /// Writes a float with fixed `precision` decimal places.
    pub fn f64_fixed(&mut self, v: f64, precision: usize) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{:.*}", precision, v);
        self
    }

    /// Writes an escaped, quoted string value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(&json_escape(v));
        self.buf.push('"');
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.buf.push_str("null");
        self
    }

    /// Splices pre-rendered JSON in value position, verbatim. The caller vouches that
    /// `json` is a complete value.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(json);
        self
    }

    /// Splices the fields of a pre-rendered JSON *object* into the currently open
    /// object (used to extend a nested document with extra leading keys without
    /// re-rendering it).
    ///
    /// # Panics
    ///
    /// Panics if `json` is not braced like an object.
    pub fn splice_fields(&mut self, json: &str) -> &mut Self {
        let interior = json
            .strip_prefix('{')
            .and_then(|j| j.strip_suffix('}'))
            .expect("splice_fields takes a rendered JSON object");
        if !interior.is_empty() {
            self.sep();
            self.buf.push_str(interior);
        }
        self
    }

    /// Finishes the document and returns it.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_commas_and_escaping() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").u64(1);
        w.key("b\"x").str("line\nbreak");
        w.key("c").begin_array();
        w.begin_object().key("d").null().end_object();
        w.bool(true).f64_sci(0.5).f64_fixed(1.0 / 3.0, 6);
        w.end_array();
        w.key("e").begin_object().end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"a\":1,\"b\\\"x\":\"line\\nbreak\",\"c\":[{\"d\":null},true,5e-1,0.333333],\"e\":{}}"
        );
    }

    #[test]
    fn sci_matches_display_for_zero_and_integers() {
        // `STATS` documents historically used `{:e}`; the writer must reproduce it.
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64_sci(0.0).f64_sci(2.0).f64_sci(1.25e-3);
        w.end_array();
        assert_eq!(w.finish(), "[0e0,2e0,1.25e-3]");
    }

    #[test]
    fn splice_extends_nested_documents() {
        let inner = {
            let mut w = JsonWriter::new();
            w.begin_object().key("x").u64(7).end_object();
            w.finish()
        };
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").str("n");
        w.splice_fields(&inner);
        w.end_object();
        assert_eq!(w.finish(), "{\"name\":\"n\",\"x\":7}");

        let mut w = JsonWriter::new();
        w.begin_object();
        w.splice_fields("{}");
        w.key("tail").u64(1);
        w.end_object();
        assert_eq!(w.finish(), "{\"tail\":1}");

        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("info").raw(&inner);
        w.end_object();
        assert_eq!(w.finish(), "{\"info\":{\"x\":7}}");
    }
}

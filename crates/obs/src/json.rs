//! The workspace's one JSON writer: `--stats-json`, `gcx analyze --json`,
//! `GET /stats` and Chrome traces are all written through [`JsonWriter`],
//! so commas, brackets, string escaping, `null` and float precision are
//! decided here and nowhere else.

/// A value [`JsonWriter::value`] can write.
pub trait Scalar {
    /// Append the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// Types whose `Display` form is already their JSON form.
macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
display_scalar!(u32, u64, usize, bool);

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` is `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// An `f64` with a fixed number of decimals; a NaN or an infinity, which
/// JSON cannot spell, is `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Scalar for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            out.push_str(&format!("{:.*}", self.1, self.0));
        } else {
            out.push_str("null");
        }
    }
}

/// Writes one compact JSON document. Open an object or array, write
/// [`JsonWriter::key`]s and values into it, [`JsonWriter::end`] it; the
/// writer places every comma.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The closing bracket of each open object or array, innermost last.
    open: Vec<char>,
    /// The next item of the innermost container needs a comma first.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn item(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Open an object.
    pub fn object(&mut self) -> &mut Self {
        self.open_with('{', '}')
    }

    /// Open an array.
    pub fn array(&mut self) -> &mut Self {
        self.open_with('[', ']')
    }

    fn open_with(&mut self, open: char, close: char) -> &mut Self {
        self.item();
        self.out.push(open);
        self.open.push(close);
        self.comma = false;
        self
    }

    /// Close the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        let close = self.open.pop().expect("end() without an open container");
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Write an object member's key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        key.write_json(&mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Write a value: an array element, or the value of the last key.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.item();
        v.write_json(&mut self.out);
        self
    }

    /// Write an object member: `key` and its value.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// The document written.
    pub fn finish(self) -> String {
        assert!(self.open.is_empty(), "unclosed JSON container");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_commas_nulls_and_precision() {
        let mut w = JsonWriter::new();
        w.object().field("a", 1u64).key("b").array();
        w.value(true)
            .value(Fixed(2.0 / 3.0, 3))
            .object()
            .end()
            .end();
        w.field("none", None::<u64>)
            .field("nan", Fixed(f64::NAN, 1));
        w.key("empty").array().end().end();
        assert_eq!(
            w.finish(),
            "{\"a\":1,\"b\":[true,0.667,{}],\"none\":null,\"nan\":null,\"empty\":[]}"
        );
    }

    #[test]
    fn json_escaping_covers_quotes_backslashes_and_controls() {
        let esc = |s: &str| {
            let mut w = JsonWriter::new();
            w.value(s);
            w.finish()
        };
        assert_eq!(esc("plain"), "\"plain\"");
        assert_eq!(esc("a\"b"), "\"a\\\"b\"");
        assert_eq!(esc("a\\b"), "\"a\\\\b\"");
        assert_eq!(esc("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
        assert_eq!(esc("\u{1}"), "\"\\u0001\"");
        assert_eq!(esc("naïve"), "\"naïve\"", "non-ASCII passes through");
    }
}

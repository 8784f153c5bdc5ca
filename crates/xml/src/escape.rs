//! Escaping and entity resolution.
//!
//! XML defines five predefined entities (`&lt;` `&gt;` `&amp;` `&apos;`
//! `&quot;`) plus numeric character references (`&#10;`, `&#x1F600;`). The
//! push tokenizer resolves them, together with line-ending and attribute
//! normalization, with [`normalize_unescape_into`] (text),
//! [`normalize_attr_into`] (attribute values) and
//! [`normalize_newlines_into`] (CDATA) when lending a token; the writer
//! escapes through `first_escape_byte` / `escape_entity` without
//! allocating, and [`escape_text`] is the same table as a [`Cow`]. Both
//! sides avoid allocation when no rewriting is needed.

use std::borrow::Cow;

/// Escape character data for element content.
///
/// `<`, `&` must be escaped in content; we also escape `>` (required only in
/// the `]]>` sequence, but escaping it always is valid and simpler).
/// Returns the input unchanged (borrowed) when nothing needs escaping.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    // One authoritative table: the same first_escape_byte/escape_entity
    // pair drives the writer's zero-allocation path. Every escapable byte
    // is ASCII, so byte-granular splitting is char-safe.
    let Some(first) = first_escape_byte(s, 0, false) else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len() + 8);
    let mut from = 0;
    let mut next = Some(first);
    while let Some(i) = next {
        out.push_str(&s[from..i]);
        out.push_str(escape_entity(s.as_bytes()[i]));
        from = i + 1;
        next = first_escape_byte(s, from, false);
    }
    out.push_str(&s[from..]);
    Cow::Owned(out)
}

/// First byte of `s` (from `from`) that needs escaping in element content,
/// or with `attr` in a double-quoted attribute value; `None` if there is
/// none. Shared by [`escape_text`] and the writer's zero-allocation path.
pub(crate) fn first_escape_byte(s: &str, from: usize, attr: bool) -> Option<usize> {
    s.as_bytes()[from..]
        .iter()
        .position(|&b| {
            matches!(b, b'<' | b'>' | b'&' | b'\r') || (attr && matches!(b, b'"' | b'\n' | b'\t'))
        })
        .map(|i| from + i)
}

/// The entity a single escaped byte rewrites to (context from
/// [`first_escape_byte`]: `\r` always escapes — a raw CR would be lost to
/// line-ending normalization on re-parse; `"`/`\n`/`\t` only in attributes).
pub(crate) fn escape_entity(b: u8) -> &'static str {
    match b {
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'&' => "&amp;",
        b'"' => "&quot;",
        b'\n' => "&#10;",
        b'\t' => "&#9;",
        b'\r' => "&#13;",
        _ => unreachable!("not an escapable byte"),
    }
}

/// Resolve one entity body (the part between `&` and `;`).
///
/// Returns `None` for unknown names or malformed/invalid numeric references.
fn resolve_entity(body: &str) -> Option<char> {
    match body {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let rest = body.strip_prefix('#')?;
            let cp = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X')) {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(cp)
        }
    }
}

/// XML 1.0 §2.11: translate `\r\n` and bare `\r` to `\n`, appending to
/// `out`. Used for CDATA sections (no entity processing there).
pub fn normalize_newlines_into(raw: &str, out: &mut String) {
    let mut rest = raw;
    while let Some(cr) = rest.find('\r') {
        out.push_str(&rest[..cr]);
        out.push('\n');
        rest = &rest[cr + 1..];
        if rest.as_bytes().first() == Some(&b'\n') {
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
}

/// Line-ending normalization (§2.11) **and** entity resolution in one pass,
/// appending to `out`. Characters produced by character references are not
/// normalized (`&#13;` stays a literal CR, per spec).
///
/// Returns `Err(entity_body)` on the first unknown/malformed entity. A
/// trailing bare `&` (no `;` before the end) is also an error, reported as
/// the partial body seen.
pub fn normalize_unescape_into<'a>(raw: &'a str, out: &mut String) -> Result<(), &'a str> {
    let mut rest = raw;
    loop {
        let Some(stop) = rest.bytes().position(|b| b == b'&' || b == b'\r') else {
            out.push_str(rest);
            return Ok(());
        };
        out.push_str(&rest[..stop]);
        if rest.as_bytes()[stop] == b'\r' {
            out.push('\n');
            rest = &rest[stop + 1..];
            if rest.as_bytes().first() == Some(&b'\n') {
                rest = &rest[1..];
            }
            continue;
        }
        let after = &rest[stop + 1..];
        let Some(semi) = after.find(';') else {
            return Err(after);
        };
        let body = &after[..semi];
        match resolve_entity(body) {
            Some(c) => out.push(c),
            None => return Err(body),
        }
        rest = &after[semi + 1..];
    }
}

/// Attribute-value processing: line-ending normalization (§2.11),
/// attribute-value normalization (§3.3.3: literal whitespace becomes a
/// space — we assume CDATA-type attributes, having no DTD) and entity
/// resolution, in one pass appending to `out`. Characters produced by
/// character references are exempt from both normalizations, per spec.
///
/// Returns `Err(entity_body)` on the first unknown/malformed entity.
pub fn normalize_attr_into<'a>(raw: &'a str, out: &mut String) -> Result<(), &'a str> {
    let mut rest = raw;
    loop {
        let Some(stop) = rest
            .bytes()
            .position(|b| matches!(b, b'&' | b'\r' | b'\n' | b'\t'))
        else {
            out.push_str(rest);
            return Ok(());
        };
        out.push_str(&rest[..stop]);
        let b = rest.as_bytes()[stop];
        if b != b'&' {
            out.push(' ');
            rest = &rest[stop + 1..];
            if b == b'\r' && rest.as_bytes().first() == Some(&b'\n') {
                rest = &rest[1..];
            }
            continue;
        }
        let after = &rest[stop + 1..];
        let Some(semi) = after.find(';') else {
            return Err(after);
        };
        let body = &after[..semi];
        match resolve_entity(body) {
            Some(c) => out.push(c),
            None => return Err(body),
        }
        rest = &after[semi + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_borrows_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_text_rewrites_specials() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn carriage_return_escaped_everywhere() {
        // A raw CR would be lost to line-ending normalization on re-parse.
        assert_eq!(escape_text("a\rb"), "a&#13;b");
    }

    #[test]
    fn newline_normalization() {
        let mut out = String::new();
        normalize_newlines_into("a\r\nb\rc\nd\r", &mut out);
        assert_eq!(out, "a\nb\nc\nd\n");
    }

    #[test]
    fn attr_normalization_whitespace_to_space() {
        // §2.11 + §3.3.3: literal CRLF/CR/LF/TAB all become one space;
        // character references keep their exact characters.
        let mut out = String::new();
        normalize_attr_into("a\r\nb\rc\nd\te", &mut out).unwrap();
        assert_eq!(out, "a b c d e");
        out.clear();
        normalize_attr_into("x&#10;y&#9;z&#13;w&amp;v", &mut out).unwrap();
        assert_eq!(out, "x\ny\tz\rw&v");
        assert_eq!(
            normalize_attr_into("a&bogus;b", &mut String::new()),
            Err("bogus")
        );
    }

    #[test]
    fn normalize_unescape_combined() {
        let mut out = String::new();
        normalize_unescape_into("x\r\ny&amp;z\r", &mut out).unwrap();
        assert_eq!(out, "x\ny&z\n");
        // Character references are NOT normalized: &#13; stays a CR.
        out.clear();
        normalize_unescape_into("a&#13;b", &mut out).unwrap();
        assert_eq!(out, "a\rb");
        // CRLF split across an entity boundary is two separate characters,
        // so the CR (literal) normalizes but the referenced LF stays.
        out.clear();
        normalize_unescape_into("a\r&#10;b", &mut out).unwrap();
        assert_eq!(out, "a\n\nb");
    }

    #[test]
    fn escape_text_leaves_quotes_alone() {
        assert_eq!(escape_text("say \"hi\""), "say \"hi\"");
    }

    #[test]
    fn resolve_predefined() {
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("quot"), Some('"'));
    }

    #[test]
    fn resolve_numeric() {
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#x1F600"), Some('😀'));
    }

    #[test]
    fn resolve_rejects_garbage() {
        assert_eq!(resolve_entity("nbsp"), None);
        assert_eq!(resolve_entity("#xZZ"), None);
        assert_eq!(resolve_entity("#xD800"), None); // surrogate
        assert_eq!(resolve_entity(""), None);
    }

    /// What the tokenizer lends for text `raw`.
    fn unescape(raw: &str) -> Result<String, &str> {
        let mut out = String::new();
        normalize_unescape_into(raw, &mut out).map(|()| out)
    }

    #[test]
    fn unescape_roundtrips_escaped_text() {
        let original = "a<b&c>\"quoted\"";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped).unwrap(), original);
    }

    #[test]
    fn unescape_reports_bad_entity() {
        assert_eq!(unescape("a&bogus;b").unwrap_err(), "bogus");
        assert_eq!(unescape("a&nosemi").unwrap_err(), "nosemi");
    }

    #[test]
    fn unescape_handles_adjacent_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;").unwrap(), "<>&");
    }
}

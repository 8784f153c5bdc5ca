//! Source positions for diagnostics.

use std::fmt;

/// A position inside the XML input, tracked byte-exactly by the tokenizer.
///
/// `line` and `column` are 1-based (as editors display them); `offset` is the
/// 0-based byte offset from the start of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextPos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes, not grapheme clusters).
    pub column: u32,
    /// 0-based byte offset from the beginning of the stream.
    pub offset: u64,
}

impl TextPos {
    /// The position of the very first byte.
    pub const START: TextPos = TextPos {
        line: 1,
        column: 1,
        offset: 0,
    };

    /// Advance the position over `bytes`, updating line/column bookkeeping.
    /// Every consumed byte passes through here, so newlines are counted in
    /// bulk, in a form the compiler vectorizes (byte-wide counters over
    /// blocks too short to overflow them). The search for the *last*
    /// newline exits early and cannot be vectorized: it runs only when the
    /// count found one, and from the end, where it is a line's length away.
    pub fn advance(&mut self, bytes: &[u8]) {
        self.offset += bytes.len() as u64;
        let newlines: usize = bytes
            .chunks(255)
            .map(|block| block.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
            .sum();
        if newlines == 0 {
            self.column += bytes.len() as u32;
            return;
        }
        let last = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("a newline was counted");
        self.line += newlines as u32;
        self.column = (bytes.len() - last) as u32;
    }
}

impl Default for TextPos {
    fn default() -> Self {
        TextPos::START
    }
}

impl fmt::Display for TextPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_lines_and_columns() {
        let mut p = TextPos::START;
        p.advance(b"ab\ncd");
        assert_eq!(p.line, 2);
        assert_eq!(p.column, 3);
        assert_eq!(p.offset, 5);
    }

    #[test]
    fn display_is_line_colon_column() {
        let mut p = TextPos::START;
        p.advance(b"\n\nxy");
        assert_eq!(p.to_string(), "3:3");
    }

    #[test]
    fn long_stretches_count_across_blocks() {
        // Newlines are counted in 255-byte blocks: cover the seams.
        let mut bytes = vec![b'x'; 1000];
        for at in [0, 254, 255, 256, 509, 510, 700] {
            bytes[at] = b'\n';
        }
        let mut p = TextPos::START;
        p.advance(&bytes);
        assert_eq!((p.line, p.column, p.offset), (8, 300, 1000));
        p.advance(&[b'x'; 600]);
        assert_eq!((p.line, p.column, p.offset), (8, 900, 1600));
    }

    #[test]
    fn empty_advance_is_noop() {
        let mut p = TextPos::START;
        p.advance(b"");
        assert_eq!(p, TextPos::START);
    }
}

//! The two faces of [`PushTokenizer`] behind one interface, so that a run
//! is written once and driven either way: the owned face, fed copies of
//! `chunk`-byte pieces, or the lending face, lent each piece of a split in
//! turn ([`PushTokenizer::lend`]).

// Each suite uses the calls and helpers it needs.
#![allow(dead_code)]

use gcx_xml::{Lent, PushTokenizer, Skipped, TextPos, Token, TokenStep, XmlResult};

/// What a run calls on the tokenizer between two inputs.
pub trait Face {
    fn step(&mut self) -> XmlResult<TokenStep>;
    fn token(&self) -> Token<'_>;
    fn skip_element(&mut self, stops: &[&str], max_open: usize) -> XmlResult<Skipped>;
    fn left_open(&self, n: usize) -> Vec<String>;
    fn position(&self) -> TextPos;
    fn depth(&self) -> usize;
    fn skipping(&self) -> bool;
    fn pending_bytes(&self) -> usize;
}

macro_rules! face {
    ($t:ty) => {
        impl Face for $t {
            fn step(&mut self) -> XmlResult<TokenStep> {
                <$t>::step(self)
            }
            fn token(&self) -> Token<'_> {
                <$t>::token(self)
            }
            fn skip_element(&mut self, stops: &[&str], max_open: usize) -> XmlResult<Skipped> {
                <$t>::skip_element(self, stops, max_open)
            }
            fn left_open(&self, n: usize) -> Vec<String> {
                <$t>::left_open(self, n).map(String::from).collect()
            }
            fn position(&self) -> TextPos {
                <$t>::position(self)
            }
            fn depth(&self) -> usize {
                <$t>::depth(self)
            }
            fn skipping(&self) -> bool {
                <$t>::skipping(self)
            }
            fn pending_bytes(&self) -> usize {
                <$t>::pending_bytes(self)
            }
        }
    };
}

face!(PushTokenizer);
face!(Lent<'_, '_>);

/// How a run gets its input.
#[derive(Debug, Clone, Copy)]
pub enum Feeds<'s> {
    /// The owned face, fed `n` bytes at a time.
    Owned(usize),
    /// The lending face, lent the document cut at these offsets (sorted;
    /// a repeated offset lends an empty piece).
    Lent(&'s [usize]),
}

impl Feeds<'_> {
    /// Run `advance` over `doc` until it is done. `advance` goes as far as
    /// the input it has allows and returns true to ask for more, false
    /// when the run is over; its second argument says whether the end of
    /// input was declared.
    pub fn drive(self, doc: &[u8], mut advance: impl FnMut(&mut dyn Face, bool) -> bool) {
        let mut tok = PushTokenizer::new();
        match self {
            Feeds::Owned(chunk) => {
                let mut chunks = doc.chunks(chunk);
                loop {
                    let finished = tok.input_finished();
                    if !advance(&mut tok, finished) {
                        return;
                    }
                    match chunks.next() {
                        Some(piece) => tok.feed(piece),
                        None => tok.finish_input(),
                    }
                }
            }
            Feeds::Lent(cuts) => {
                let bounds = std::iter::once(0).chain(cuts.iter().copied());
                let ends = cuts.iter().copied().chain(std::iter::once(doc.len()));
                for (from, to) in bounds.zip(ends) {
                    if !advance(&mut tok.lend(&doc[from..to]), false) {
                        return;
                    }
                }
                tok.finish_input();
                while advance(&mut tok.lend(&[]), true) {}
            }
        }
    }
}

/// Every way of cutting a document of `len` bytes in two.
pub fn every_cut_in_two(len: usize) -> impl Iterator<Item = [usize; 1]> {
    (0..=len).map(|at| [at])
}

/// A cut at every byte: the lending face fed one byte at a time.
pub fn bytewise(len: usize) -> Vec<usize> {
    (1..len).collect()
}

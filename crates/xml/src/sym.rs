//! Name interning.
//!
//! The GCX buffer stores millions of nodes for large inputs; comparing and
//! storing tag names as strings would dominate memory and time. A
//! [`SymbolTable`] maps each distinct XML name to a dense `u32` [`Symbol`];
//! the buffer, the projection NFA and the evaluator all speak symbols.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiply-xor hasher (the FxHash construction) for the interner.
/// Interning runs once per start tag and attribute of the stream, so the
/// default DoS-resistant SipHash is measurable overhead; XML names are a
/// tiny closed alphabet, so collision resistance is irrelevant here.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_ne_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        // The tail as one word, from two fixed-size loads that overlap
        // where its length is not a power of two (a copy of variable
        // length is a call), with the length mixed in.
        let n = bytes.len();
        let tail = if n >= 4 {
            let lo = u32::from_ne_bytes(bytes[..4].try_into().unwrap());
            let hi = u32::from_ne_bytes(bytes[n - 4..].try_into().unwrap());
            u64::from(lo) | u64::from(hi) << 32
        } else if n >= 2 {
            let lo = u16::from_ne_bytes(bytes[..2].try_into().unwrap());
            let hi = u16::from_ne_bytes(bytes[n - 2..].try_into().unwrap());
            u64::from(lo) | u64::from(hi) << 16
        } else if n == 1 {
            u64::from(bytes[0])
        } else {
            return;
        };
        self.add(tail ^ (n as u64) << 56);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// An open-addressing index from a 32-bit hash to a dense `u32` id:
/// linear probing over a power of two of `(hash, id + 1)` slots, at most
/// half full; `(_, 0)` is an empty slot. The keys live with the caller —
/// [`SlotTable::find`] is handed the test that tells a key from another
/// with the same hash — so a table is one flat vector: growing re-places
/// the stored hashes without touching a key, and a clone is a `memcpy`.
/// The [`SymbolTable`] indexes its names with one, the projection
/// matcher's memo its state sets and transitions.
#[derive(Debug, Default, Clone)]
pub struct SlotTable {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl SlotTable {
    /// Slots a table starts with on its first insertion: room for 32 ids.
    const FIRST_SLOTS: usize = 64;

    /// Where `hash` starts probing. Fibonacci hashing: the product's high
    /// bits mix all of the hash's, so dense keys spread too.
    #[inline]
    fn home(&self, hash: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(0x9E37_79B9) >> (32 - bits)) as usize
    }

    /// The id stored under `hash` for which `is_key` holds.
    #[inline]
    pub fn find(&self, hash: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(hash);
        loop {
            let (h, id) = self.slots[i];
            if id == 0 {
                return None;
            }
            if h == hash && is_key(id - 1) {
                return Some(id - 1);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// Store `id` under `hash`; the caller has seen [`SlotTable::find`]
    /// come back empty for the key.
    pub fn insert(&mut self, hash: u32, id: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            *self = self.with_slots((self.slots.len() * 2).max(Self::FIRST_SLOTS));
        }
        let stored = id.checked_add(1).expect("slot ids stay below u32::MAX");
        self.place(hash, stored);
        self.len += 1;
    }

    /// A copy that takes `room` more insertions without growing.
    pub fn clone_with_room(&self, room: usize) -> SlotTable {
        let slots = ((self.len + room) * 2).next_power_of_two();
        if slots <= self.slots.len() {
            return self.clone();
        }
        self.with_slots(slots.max(Self::FIRST_SLOTS))
    }

    /// The same entries in a table of `slots` slots (a power of two, more
    /// than twice the entries): the stored hashes are re-placed, no key
    /// is looked at.
    fn with_slots(&self, slots: usize) -> SlotTable {
        let mut table = SlotTable {
            slots: vec![(0, 0); slots],
            len: self.len,
        };
        for &(hash, stored) in self.slots.iter().filter(|s| s.1 != 0) {
            table.place(hash, stored);
        }
        table
    }

    /// Put `(hash, stored)` into the first free slot of its probe run.
    fn place(&mut self, hash: u32, stored: u32) {
        let mut i = self.home(hash);
        while self.slots[i].1 != 0 {
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.slots[i] = (hash, stored);
    }
}

/// An interned XML name. Cheap to copy, compare and hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Index into the owning [`SymbolTable`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only string interner.
///
/// Symbols are never reclaimed; queries and documents use a small, stable
/// universe of names so the table stays tiny even for very large inputs.
///
/// All names sit back to back in one string, so interning a new name
/// allocates nothing (the three vectors grow amortised) and a clone is
/// three block copies. That is what a run pays for its table: a compiled
/// query's **pre-interned** table (`gcx-ir`) is cloned into each run —
/// query symbols stay valid verbatim — and the tokenizer's document names
/// are interned on top, into the room the clone left for them.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every name, in symbol order.
    arena: String,
    /// `ends[s]`: where symbol `s`'s name ends in `arena`; it starts where
    /// its predecessor's ends.
    ends: Vec<u32>,
    index: SlotTable,
}

impl Clone for SymbolTable {
    /// A copy with room for `CLONE_ROOM` more names, so
    /// that the names a document adds to its run's table grow none of the
    /// three blocks (a document with a larger vocabulary grows them as
    /// usual).
    fn clone(&self) -> SymbolTable {
        let room = SymbolTable::CLONE_ROOM;
        let mut arena = String::with_capacity(self.arena.len() + 8 * room);
        arena.push_str(&self.arena);
        let mut ends = Vec::with_capacity(self.ends.len() + room);
        ends.extend_from_slice(&self.ends);
        SymbolTable {
            arena,
            ends,
            index: self.index.clone_with_room(room),
        }
    }
}

/// The index hash of a name.
#[inline]
fn hash_of(name: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    // The multiply pushes entropy upwards: the high half is the mixed one.
    (h.finish() >> 32) as u32
}

impl SymbolTable {
    /// Names a clone has room for beyond its source's, at 8 bytes each
    /// (XMark's whole vocabulary: 64 element and 7 attribute names of 7
    /// bytes on average).
    const CLONE_ROOM: usize = 64;

    /// Create an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = hash_of(name);
        if let Some(s) = self.find(hash, name) {
            return Symbol(s);
        }
        let sym = self.ends.len() as u32;
        if sym == 0 {
            // A table's first name: room for as many as its index starts
            // with, instead of doubling up to there from nothing.
            self.arena.reserve(256);
            self.ends.reserve(32);
        }
        self.arena.push_str(name);
        let end = u32::try_from(self.arena.len()).expect("interned names stay below 4 GiB");
        self.ends.push(end);
        self.index.insert(hash, sym);
        Symbol(sym)
    }

    /// Look up a name without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.find(hash_of(name), name).map(Symbol)
    }

    /// The string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` came from a different table.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.arena[self.span(sym.0)]
    }

    /// Where the `i`-th name lies in the arena.
    #[inline]
    fn span(&self, i: u32) -> std::ops::Range<usize> {
        let from = i.checked_sub(1).map_or(0, |p| self.ends[p as usize]);
        from as usize..self.ends[i as usize] as usize
    }

    /// The symbol index of `name`, which hashes to `hash`, if interned.
    /// (Bytes are compared: slicing the string would check two character
    /// boundaries per probe.)
    #[inline]
    fn find(&self, hash: u32, name: &str) -> Option<u32> {
        let arena = self.arena.as_bytes();
        self.index
            .find(hash, |i| &arena[self.span(i)] == name.as_bytes())
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of all interned names together: what a table that takes
    /// names from a document has grown by is the difference of two of
    /// these.
    pub fn name_bytes(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a1 = t.intern("book");
        let a2 = t.intern("book");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("book");
        let b = t.intern("article");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "book");
        assert_eq!(t.resolve(b), "article");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.get("x"), None);
        let s = t.intern("x");
        assert_eq!(t.get("x"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn symbols_are_dense_indices() {
        let mut t = SymbolTable::new();
        for i in 0..100 {
            let s = t.intern(&format!("n{i}"));
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn agrees_with_a_hash_map_model() {
        use std::collections::HashMap;
        // Names from a small alphabet behind a shared 8-byte prefix — one
        // hasher word — so most pairs differ only past byte 8, many are
        // prefixes of one another, and 600 draws repeat often; > 64
        // distinct names take the index through several rehashes.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut table = SymbolTable::new();
        let mut model: HashMap<String, Symbol> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        let mut snapshot = None;
        for round in 0..600 {
            let mut name = String::from(if next(4) == 0 { "" } else { "abcdefgh" });
            for _ in 0..next(4) {
                name.push(['x', 'y', '\u{e9}'][next(3) as usize]);
            }
            if name.is_empty() {
                name.push('z');
            }
            assert_eq!(table.get(&name), model.get(&name).copied(), "{name}");
            let sym = table.intern(&name);
            let fresh = Symbol(model.len() as u32);
            assert_eq!(sym, *model.entry(name.clone()).or_insert(fresh), "{name}");
            if sym == fresh {
                names.push(name);
            }
            assert_eq!(table.len(), names.len());
            if round == 300 {
                snapshot = Some((table.clone(), names.len()));
            }
        }
        assert!(names.len() > 64, "only {} distinct names", names.len());
        assert_eq!(
            table.name_bytes(),
            names.iter().map(String::len).sum::<usize>()
        );
        // A clone holds what its source held then — and goes its own way.
        let (mut early, n) = snapshot.unwrap();
        assert_eq!(early.len(), n);
        for (tbl, upto) in [(&table, names.len()), (&early, n)] {
            for (i, name) in names.iter().enumerate() {
                let want = (i < upto).then_some(Symbol(i as u32));
                assert_eq!(tbl.get(name), want, "{name}");
                if i < upto {
                    assert_eq!(tbl.resolve(Symbol(i as u32)), name);
                }
            }
        }
        assert_eq!(early.intern("only-in-the-clone"), Symbol(n as u32));
        assert_eq!(table.get("only-in-the-clone"), None);
    }
}

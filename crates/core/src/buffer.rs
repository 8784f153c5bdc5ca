//! The GCX buffer: an XML fragment tree with role bookkeeping, evaluator
//! pins, and **active garbage collection**.
//!
//! Every buffered node carries a multiset of role instances (the paper's
//! `book{r3, r5, r6}` annotations) and a count of evaluator pins (loop
//! bindings, cursor stacks).
//!
//! **Purge rule** (paper §2): a node is reclaimed as soon as it is closed
//! (its end tag has been read), its subtree holds zero role instances, and
//! the evaluator holds no pin inside it. Purges cascade upward so the
//! highest fully-dead ancestor is freed in one pass. Purge attempts are
//! triggered by exactly three events: a role decrement (signOff), a node
//! closing (reclaims a subtree whose roles were all signed off before its
//! end tag — or that never had one, where the driver buffers without
//! projection), and an unpin.
//!
//! **Hold counts.** A node *holds* while it is open, carries a role, is
//! pinned, or has a child that holds; each node counts its holding
//! children (`held`). Since the descendants of a closed node are closed, a
//! node that does not hold is exactly one the purge rule reclaims, so the
//! rule costs O(1) per event: counts change only where a node's hold
//! status *flips*.
//!
//! * An append bumps its parent's count when the new node holds (an
//!   element is born open); the parent is open, so nothing else flips.
//! * A close, a role decrement or an unpin that leaves a node not holding
//!   *releases* it: its parent's count drops, the walk goes on up only
//!   while that flips the parent too, and the topmost node that flipped is
//!   freed with its subtree (never the virtual root).
//! * A pin flips only a node that did not hold — a role-less text node, or
//!   any closed node where purging is disabled — and propagates up only
//!   through ancestors that did not hold either.
//!
//! Those are the only live nodes that do not hold: a text node appended
//! without a role (under a parent that holds) and, with purging disabled,
//! anything closed whose subtree is role- and pin-free. With purging on, a
//! pin therefore takes one step, and every step of a release but its last
//! flips a node that is then freed — the bookkeeping of a whole run is
//! linear in its events, however deep the document. (With purging off, a
//! pin and its unpin walk the closed, role-free ancestors in between, as
//! often as they recur.)
//!
//! ## Storage
//!
//! A node is one slot of [`SLOT_BYTES`] = 48 bytes (asserted at compile
//! time): tree links, its tag (a text node's length), where its payload
//! starts, flags with its attribute count, hold and pin counters,
//! generation, and its role multiset when that has a single entry — a node
//! with more keeps them in a shared overflow, the slot keeping the block's
//! place and its entry count and length as two u16s (so a program has at
//! most [`MAX_ROLES`] roles). Nothing the slot can derive is stored: a
//! child list is linked both ways, the first child's back-link naming the
//! last child (`next_sibling` chains end in NIL), and a payload's length
//! follows from the text's length or from the attribute count and the last
//! record's value end. A node's [`Ordinals`] are read only by a positional
//! step, so only a buffer whose program has one keeps them, at the head of
//! each node's payload ([`BufferTree::with_ordinals`]). Slots live in
//! chunks of [`BufferTree::CHUNK_SLOTS`]; a node's index names its chunk
//! and its place there. A purged slot goes on its chunk's intrusive free
//! list and is reused under a new generation, so a `NodeId` held across
//! the purge is no longer live ([`BufferTree::is_live`]) instead of
//! aliasing the new occupant.
//!
//! **Chunks, and the fragmentation bound.** A chunk is allocated only when
//! every resident chunk is full, and a chunk that a purge empties goes
//! back to the allocator — except one, kept as a spare so that churn at a
//! chunk boundary allocates nothing. Counting the root's slot, therefore
//!
//! > resident chunks ≤ min(⌈(peak_live + 1) / CHUNK_SLOTS⌉, live + 2)
//!
//! at all times ([`BufferTree::slot_bytes`] is that times
//! [`BufferTree::CHUNK_BYTES`], at most): less than one chunk above what
//! the high-water needs, and — slots never move, so one survivor keeps its
//! chunk — no more than one chunk per live node, the root's and the
//! spare. Later appends fill a survivor's chunk before any chunk is
//! allocated.
//!
//! **Payload store.** Ordinals, attributes and text live in one byte
//! store: a node's three 4-byte ordinals where the buffer keeps them, then
//! an element's attribute records (4-byte name, 4-byte value end) followed
//! by its values, or a text node's characters — exactly the bytes
//! `node_bytes` charges beside the slot. Blocks are rounded up to size
//! classes (4-byte steps to 64 bytes, then four per power of two: at most
//! 25 % over), and addressed in 4-byte units, so the store holds up to 16
//! GiB; a purge puts a block on its class's free list, and the next
//! payload of that class takes it. The store keeps its high-water, and it
//! grows by [`gcx_xml::grow::reserve`] — doubling under 64 KiB, by an
//! eighth above — so its capacity is at most an eighth over that
//! high-water rather than up to twice it (Q8 over a 16 MiB document:
//! 691 065 bytes for 632 284 in use, where doubling reserved 1 048 576;
//! 8-byte steps used 750 120).
//! The role overflow grows by the same rule.
//!
//! **A copied leaf keeps its text.** A closing element takes over its text
//! child's payload when that text is its only child, not pinned, and the
//! two each carry exactly one instance of the same *fold role* — one that
//! only a copy reads (an output path's `descendant-or-self::node()`
//! retention, [`BufferTree::fold_copies`]) — and the element has no
//! attributes. It has no payload of its own (the buffer keeps no ordinals
//! where it folds), so it adopts the text's block as it is: `payload_at`
//! names it, a `FOLDED` flag marks the element, and the text's length takes
//! the attribute-count bits. The text's slot goes back to its chunk, the
//! charge falls by exactly [`SLOT_BYTES`], and the text counts as purged
//! ([`BufferStats::folded`] counts it too) with its role instance signed
//! off. Everything that reads an element's content — its attributes
//! (none), its payload's length, its serialization and string value —
//! reads the flag, so a copy of it writes the same bytes.

use crate::error::EngineError;
use crate::obs::{RoleObs, Timeline};
use gcx_obs::Hist;
use gcx_query::ast::RoleId;
use gcx_xml::{Symbol, SymbolTable, XmlResult, XmlWriter};
use std::sync::Arc;

/// Handle to a buffered node. Carries a generation to detect stale use.
/// Ordered by slot, which says nothing about document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    idx: u32,
    gen: u32,
}

impl NodeId {
    /// The virtual document root (always live).
    pub const ROOT: NodeId = NodeId {
        idx: 0,
        gen: ROOT_GEN,
    };
}

const NIL: u32 = u32::MAX;
/// The generation of a free slot; the root has the first one issued.
const FREE: u32 = 0;
const ROOT_GEN: u32 = 1;
/// A slot's index is `chunk << CHUNK_BITS | place in the chunk`.
const CHUNK_BITS: u32 = 8;
const CHUNK_MASK: u32 = (1 << CHUNK_BITS) - 1;

/// Document-order ordinals of a node among its siblings, stamped by the
/// preprojector from the *original* document — projection may drop earlier
/// siblings from the buffer, so buffer positions cannot be used to evaluate
/// positional predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ordinals {
    /// 1-based position among siblings with the same name (elements) or
    /// among text siblings (text nodes).
    pub same_kind: u32,
    /// 1-based position among element siblings.
    pub elem: u32,
    /// 1-based position among all siblings.
    pub any: u32,
}

impl Ordinals {
    /// Ordinals for a first/only child (used by tests and the DOM shim).
    pub const FIRST: Ordinals = Ordinals {
        same_kind: 1,
        elem: 1,
        any: 1,
    };

    /// Lay the ordinals out as the payload store keeps them.
    fn write_to(self, head: &mut [u8]) {
        for (at, n) in [self.same_kind, self.elem, self.any]
            .into_iter()
            .enumerate()
        {
            head[4 * at..4 * at + 4].copy_from_slice(&n.to_le_bytes());
        }
    }

    fn read(head: &[u8]) -> Ordinals {
        Ordinals {
            same_kind: u32_at(head, 0),
            elem: u32_at(head, 4),
            any: u32_at(head, 8),
        }
    }
}

/// Bytes of a node's [`Ordinals`] at the head of its payload, in a buffer
/// that keeps them.
const ORDINAL_BYTES: u32 = 12;

/// The most roles a program may have: a spilled role multiset counts its
/// entries (distinct roles) in 16 bits.
pub const MAX_ROLES: usize = u16::MAX as usize;

/// Attributes on their way into the buffer: interned names plus one value
/// arena. The lane collects a start tag's attributes here (and keeps its
/// pending chain's as a stack); [`BufferTree::append_element_with_attrs`]
/// copies them into the payload store.
#[derive(Debug, Default)]
pub struct AttrBuf {
    /// Interned attribute names, in document order.
    syms: Vec<Symbol>,
    /// End offset of the i-th value in `text` (start = previous end).
    ends: Vec<u32>,
    /// All values, concatenated.
    text: String,
}

/// Bytes of one stored attribute record: interned name, value end.
const ATTR_RECORD: usize = 8;

impl AttrBuf {
    /// Fresh, empty storage.
    pub fn new() -> AttrBuf {
        AttrBuf::default()
    }

    /// Remove all attributes, keeping capacity.
    pub fn clear(&mut self) {
        self.syms.clear();
        self.ends.clear();
        self.text.clear();
    }

    /// Append an attribute (document order).
    pub fn push(&mut self, name: Symbol, value: &str) {
        self.syms.push(name);
        self.text.push_str(value);
        self.ends.push(self.text.len() as u32);
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// What these attributes add to a node's budgeted size
    /// (`node_bytes`), and the bytes they take in the payload store: one
    /// record per attribute plus the value text.
    fn payload_bytes(&self) -> u64 {
        (self.syms.len() * ATTR_RECORD + self.text.len()) as u64
    }

    /// Lay the attributes out in `block` (`payload_bytes` long) as the
    /// store keeps them: the records, then the values.
    fn write_to(&self, block: &mut [u8]) {
        let (records, values) = block.split_at_mut(self.syms.len() * ATTR_RECORD);
        for ((record, sym), end) in records
            .chunks_exact_mut(ATTR_RECORD)
            .zip(&self.syms)
            .zip(&self.ends)
        {
            record[..4].copy_from_slice(&sym.0.to_le_bytes());
            record[4..].copy_from_slice(&end.to_le_bytes());
        }
        values.copy_from_slice(self.text.as_bytes());
    }
}

/// A buffered element's attributes, borrowed from the payload store
/// (empty for text nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Attrs<'a> {
    /// One [`ATTR_RECORD`] per attribute.
    records: &'a [u8],
    /// The values, concatenated.
    values: &'a [u8],
}

impl<'a> Attrs<'a> {
    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.records.len() / ATTR_RECORD
    }

    /// True when there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate `(name, value)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &'a str)> + 'a {
        let values = self.values;
        let mut start = 0;
        self.records.chunks_exact(ATTR_RECORD).map(move |record| {
            let end = u32_at(record, 4) as usize;
            let value = utf8(&values[start..end]);
            start = end;
            (Symbol(u32_at(record, 0)), value)
        })
    }

    /// Value of the attribute named `name`, if present.
    pub fn value_of(&self, name: Symbol) -> Option<&'a str> {
        self.iter().find(|&(sym, _)| sym == name).map(|(_, v)| v)
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// Stored characters back as the `&str` they were appended as.
fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the payload store holds what was appended as str")
}

/// One buffered node. See the module docs, "Storage".
#[derive(Debug, Clone)]
struct Slot {
    parent: u32,
    first_child: u32,
    /// The previous sibling; on a first child, the last child of the
    /// parent (itself when it is the only one).
    prev_sibling: u32,
    /// The next sibling, NIL on a last child; on a free slot, the next free
    /// slot of its chunk.
    next_sibling: u32,
    /// An element's tag ([`Symbol`]), a text node's length in bytes.
    word: u32,
    /// Where the payload starts in the store, in 4-byte units.
    payload_at: u32,
    /// [`CLOSED`], [`TEXT`], [`SPILLED`] and [`FOLDED`] in the top bits,
    /// the number of attributes below them — or, with [`FOLDED`], the
    /// length of the text the element took in.
    flags: u32,
    /// Children that hold (see the module docs, "Hold counts").
    held: u32,
    /// Evaluator pins on this node.
    pins: u32,
    /// [`FREE`] on a free slot.
    gen: u32,
    /// The role multiset (sorted by role) while it has at most one entry:
    /// that entry, or a zero count when there is none. With [`SPILLED`],
    /// the block's place in the overflow, and its entry count (low u16)
    /// and length (high u16). Either way the second word is zero exactly
    /// when the multiset is empty.
    role: (RoleId, u32),
}

const _: () = assert!(size_of::<Slot>() <= 48);

/// What every buffered node is charged before its payload: its slot.
pub const SLOT_BYTES: u64 = size_of::<Slot>() as u64;

/// [`Slot::flags`]: the end tag was read (text nodes are born closed).
const CLOSED: u32 = 1 << 31;
/// [`Slot::flags`]: a text node.
const TEXT: u32 = 1 << 30;
/// [`Slot::flags`]: the role multiset is in the overflow.
const SPILLED: u32 = 1 << 29;
/// [`Slot::flags`]: an element that took its only child's text in (see
/// the module docs, "A copied leaf keeps its text"); the count bits hold
/// the text's length.
const FOLDED: u32 = 1 << 28;
/// [`Slot::flags`]: the bits that count attributes, or a folded text's
/// bytes.
const ATTR_COUNT: u32 = FOLDED - 1;

/// Entries of a spilled multiset, from its [`Slot::role`] count word.
fn spilled_len(word: u32) -> usize {
    (word & 0xFFFF) as usize
}

/// Length of a spilled multiset's overflow block, from its count word.
fn spilled_cap(word: u32) -> u32 {
    word >> 16
}

impl Slot {
    /// Entries in the role multiset.
    #[inline]
    fn role_entries(&self) -> usize {
        if self.flags & SPILLED != 0 {
            spilled_len(self.role.1)
        } else {
            usize::from(self.role.1 != 0)
        }
    }

    /// The role multiset, sorted by role id.
    #[inline]
    fn role_list<'a>(&'a self, overflow: &'a RoleOverflow) -> &'a [(RoleId, u32)] {
        let n = self.role_entries();
        if self.flags & SPILLED != 0 {
            let at = self.role.0 .0 as usize;
            &overflow.pairs[at..at + n]
        } else {
            &std::slice::from_ref(&self.role)[..n]
        }
    }

    /// Remove up to `amount` instances of `role` (saturating); returns how
    /// many went. An entry that drops to zero leaves the multiset, and an
    /// emptied overflow block goes back to the overflow.
    fn take_role(&mut self, overflow: &mut RoleOverflow, role: RoleId, amount: u32) -> u32 {
        let n = self.role_entries();
        let spilled = self.flags & SPILLED != 0;
        let list = if spilled {
            let at = self.role.0 .0 as usize;
            &mut overflow.pairs[at..at + n]
        } else {
            // A last instance taken zeroes the count word itself.
            &mut std::slice::from_mut(&mut self.role)[..n]
        };
        let Some(pos) = list.iter().position(|&(r, _)| r == role) else {
            return 0;
        };
        let removed = list[pos].1.min(amount);
        list[pos].1 -= removed;
        if list[pos].1 == 0 && spilled {
            list.copy_within(pos + 1.., pos);
            self.role.1 -= 1;
            if spilled_len(self.role.1) == 0 {
                overflow.release(self.role.0 .0, spilled_cap(self.role.1));
                self.role = (RoleId(0), 0);
                self.flags &= !SPILLED;
            }
        }
        removed
    }
}

/// Bytes of a text node's text, or of the text a folded element took in;
/// None for any other element.
#[inline]
fn text_len(s: &Slot) -> Option<u32> {
    match s.flags & (TEXT | FOLDED) {
        0 => None,
        TEXT => Some(s.word),
        _ => Some(s.flags & ATTR_COUNT),
    }
}

/// Does the node hold: open, carrying a role, pinned, or above a child that
/// holds? One that does not is what the purge rule reclaims.
#[inline]
fn holds(s: &Slot) -> bool {
    s.flags & CLOSED == 0 || s.role.1 != 0 || s.pins != 0 || s.held != 0
}

/// [`BufferTree::CHUNK_SLOTS`] slots and their free list.
#[derive(Debug)]
struct Chunk {
    /// Empty and without capacity once the chunk went back to the
    /// allocator.
    slots: Vec<Slot>,
    /// The first free slot (chained through `next_sibling`), or NIL; on a
    /// released chunk, the next released chunk.
    free: u32,
    /// Slots in use.
    live: u32,
    /// Neighbours on the vacancy list, while on it (NIL at its ends).
    prev: u32,
    next: u32,
    /// On the vacancy list: resident, with a free slot.
    listed: bool,
}

/// Where a node's payload went in the store.
#[derive(Debug, Clone, Copy, Default)]
struct Payload {
    /// The block's first [`UNIT`].
    at: u32,
    len: u32,
}

/// Attribute records and text, in size-classed blocks of one byte vector
/// (see the module docs). A free block's first four bytes link the next
/// free block of its class.
#[derive(Debug, Default)]
struct PayloadStore {
    bytes: Vec<u8>,
    /// The first free block of each size class, in [`UNIT`]s, or NIL.
    free: Vec<u32>,
}

/// The payload store's unit of size and address, in bytes: the store
/// holds up to 2^32 units, and a free block's link fits its first unit.
const UNIT: usize = 4;

/// Size class and rounded size in [`UNIT`]s of a `len`-byte block
/// (`len > 0`): exact up to 16 units (64 bytes), then four classes per
/// power of two.
fn size_class(len: u32) -> (usize, u32) {
    let units = len.div_ceil(UNIT as u32);
    if units <= 16 {
        return (units as usize - 1, units);
    }
    // 2^b < units <= 2^(b+1), b >= 4: round up to a quarter of 2^b.
    let b = 31 - (units - 1).leading_zeros();
    let step = 1 << (b - 2);
    let rounded = units.div_ceil(step) * step;
    (
        16 + 4 * (b as usize - 4) + (rounded / step - 5) as usize,
        rounded,
    )
}

impl PayloadStore {
    /// A block for `len` bytes, filled by `fill`.
    fn put(&mut self, len: u64, fill: impl FnOnce(&mut [u8])) -> Payload {
        let len = u32::try_from(len).expect("a node's payload stays below 4 GiB");
        if len == 0 {
            return Payload::default();
        }
        let (class, units) = size_class(len);
        let at = match self.free.get(class) {
            Some(&head) if head != NIL => {
                self.free[class] = u32_at(&self.bytes, head as usize * UNIT);
                head
            }
            _ => {
                // Room for the class's free list now, so that a purge never
                // allocates.
                if self.free.len() <= class {
                    self.free.resize(class + 1, NIL);
                }
                let (at, size) = (self.bytes.len() / UNIT, units as usize * UNIT);
                gcx_xml::grow::reserve(&mut self.bytes, size);
                self.bytes.resize(self.bytes.len() + size, 0);
                u32::try_from(at).expect("the payload store stays below 16 GiB")
            }
        };
        let start = at as usize * UNIT;
        fill(&mut self.bytes[start..start + len as usize]);
        Payload { at, len }
    }

    /// Put the block of a purged `len`-byte payload on its class's free
    /// list.
    fn release(&mut self, at: u32, len: u32) {
        let (class, _) = size_class(len);
        let start = at as usize * UNIT;
        self.bytes[start..start + 4].copy_from_slice(&self.free[class].to_le_bytes());
        self.free[class] = at;
    }

    /// `len` bytes from `skip` into the block at `at`.
    #[inline]
    fn get(&self, at: u32, skip: u32, len: usize) -> &[u8] {
        let start = at as usize * UNIT + skip as usize;
        &self.bytes[start..start + len]
    }
}

/// Role multisets of more than one entry, in blocks as long as the
/// multiset was at its append (it only shrinks). A free block's first
/// entry links the next free block of its length.
#[derive(Debug, Default)]
struct RoleOverflow {
    pairs: Vec<(RoleId, u32)>,
    /// The first free block of each length, or NIL.
    free: Vec<u32>,
}

impl RoleOverflow {
    fn put(&mut self, roles: &[(RoleId, u32)]) -> u32 {
        let n = roles.len();
        match self.free.get(n) {
            Some(&head) if head != NIL => {
                let at = head as usize;
                self.free[n] = self.pairs[at].0 .0;
                self.pairs[at..at + n].copy_from_slice(roles);
                head
            }
            _ => {
                if self.free.len() <= n {
                    self.free.resize(n + 1, NIL);
                }
                let at = self.pairs.len();
                gcx_xml::grow::reserve(&mut self.pairs, n);
                self.pairs.extend_from_slice(roles);
                u32::try_from(at).expect("role overflow stays below 4 G entries")
            }
        }
    }

    fn release(&mut self, at: u32, len: u32) {
        let len = len as usize;
        self.pairs[at as usize].0 = RoleId(self.free[len]);
        self.free[len] = at;
    }
}

/// Buffer statistics maintained incrementally.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferStats {
    /// Nodes currently buffered (excluding the virtual root).
    pub live: u64,
    /// High watermark of `live`.
    pub peak_live: u64,
    /// Total nodes ever buffered.
    pub allocated: u64,
    /// Total nodes reclaimed by active garbage collection.
    pub purged: u64,
    /// Estimated bytes currently buffered (see the internal `node_bytes` accounting).
    pub live_bytes: u64,
    /// High watermark of `live_bytes`.
    pub peak_live_bytes: u64,
    /// Text nodes an element took in at its close (see the module docs,
    /// "A copied leaf keeps its text"); `purged` counts them too.
    pub folded: u64,
}

/// Resident cost of one buffered node: its slot plus its payload
/// (attribute records and values, or text) — `node_bytes`. The figure is
/// *deterministic*: it counts lengths, not size classes or allocator
/// capacities, so the amount charged at append time is exactly the amount
/// credited back at purge time, and byte budgets behave identically
/// across runs. A role overflow block is not counted: `decrement_role`
/// shrinks a multiset mid-life, which would make append-time and
/// purge-time costs disagree.
#[inline]
fn node_bytes(payload_len: u32) -> u64 {
    SLOT_BYTES + payload_len as u64
}

/// Per-role lifecycle counters (telemetry only).
#[derive(Debug, Default, Clone)]
struct RoleCell {
    appends: u64,
    signoffs: u64,
    purge_triggers: u64,
    live: u64,
    max_live: u64,
}

/// Buffer-lifecycle telemetry, kept **beside** the slots rather than in
/// them: a birth-token stamp per slot plus fixed-bucket histograms. A
/// node's charge includes its slot's size, so a stamp inside the slot
/// would shift every byte measurement the equivalence suites pin down.
#[derive(Debug)]
pub(crate) struct BufTelemetry {
    /// Structural-token clock, advanced by [`BufferTree::tick`].
    clock: u64,
    /// Birth token per slot index.
    birth: Vec<u64>,
    pub(crate) residency_tokens: Hist,
    pub(crate) purged_node_bytes: Hist,
    pub(crate) purge_batch: Hist,
    pub(crate) purges_on_signoff: u64,
    pub(crate) purges_on_close: u64,
    pub(crate) purges_on_unpin: u64,
    roles: Vec<RoleCell>,
}

impl BufTelemetry {
    fn role_cell(&mut self, role: RoleId) -> &mut RoleCell {
        let i = role.index();
        if self.roles.len() <= i {
            self.roles.resize(i + 1, RoleCell::default());
        }
        &mut self.roles[i]
    }

    /// Convert into the public per-run report, joining the VM- and
    /// session-side measurements in.
    pub(crate) fn into_report(
        self: Box<BufTelemetry>,
        tasks: Vec<crate::obs::TaskObs>,
        feed_spans: Vec<crate::obs::FeedSpan>,
        tokenizer_window_peak: u64,
    ) -> crate::obs::ObsReport {
        let roles = self.role_obs();
        let t = *self;
        crate::obs::ObsReport {
            residency_tokens: t.residency_tokens,
            purged_node_bytes: t.purged_node_bytes,
            purge_batch: t.purge_batch,
            purges_on_signoff: t.purges_on_signoff,
            purges_on_close: t.purges_on_close,
            purges_on_unpin: t.purges_on_unpin,
            roles,
            tasks,
            feed_spans,
            tokenizer_window_peak,
        }
    }

    /// Per-role counters in role-id order (roles never seen are
    /// omitted).
    pub(crate) fn role_obs(&self) -> Vec<RoleObs> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, c)| c.appends > 0 || c.signoffs > 0)
            .map(|(i, c)| RoleObs {
                role: RoleId(i as u32).to_string(),
                appends: c.appends,
                signoffs: c.signoffs,
                purge_triggers: c.purge_triggers,
                max_live: c.max_live,
            })
            .collect()
    }
}

/// Runtime state of the schema's sibling-order analysis, kept **beside**
/// the slots like [`BufTelemetry`], so a node's charge is untouched. Per
/// open element the buffer tracks a *cutoff*: one past the highest
/// content-model ordinal seen among its children so far (0 = none). Where
/// the DTD fixes the sibling order, a child name whose ordinal is below
/// `cutoff - 1` can never arrive again — the engine uses that to end child
/// scans and release signOff waits before the parent's end tag.
#[derive(Debug)]
struct SchemaRt {
    ord: Arc<gcx_schema::OrdTable>,
    /// Cutoff per slot index (reset on slot reuse).
    cutoffs: Vec<u32>,
    /// Cursor scans ended early by a cutoff.
    early_scan_ends: u64,
    /// signOff waits released early by a cutoff.
    early_signoffs: u64,
    /// The table was adopted from an in-stream DOCTYPE.
    doctype_adopted: bool,
}

/// The buffer tree. See the module docs for the GC model and the storage.
#[derive(Debug)]
pub struct BufferTree {
    /// Slot chunks by chunk index; chunk 0 holds the root and starts small.
    chunks: Vec<Chunk>,
    /// The first chunk of the vacancy list — every resident chunk with a
    /// free slot, the one last freed into first — or NIL.
    vacant: u32,
    /// The last chunk given back to the allocator (they are chained
    /// through `Chunk::free`), or NIL: the indices to reopen.
    released: u32,
    /// The one empty chunk kept resident, or NIL.
    spare: u32,
    /// The generation the next append gets.
    next_gen: u32,
    store: PayloadStore,
    /// [`ORDINAL_BYTES`] where every payload starts with its node's
    /// ordinals, else 0 ([`BufferTree::with_ordinals`]).
    ordinal_bytes: u32,
    overflow: RoleOverflow,
    stats: BufferStats,
    /// When false, purging is disabled entirely (full-buffering baseline).
    purge_enabled: bool,
    /// Hard cap on `stats.live_bytes` (None = unlimited). The buffer only
    /// *tracks* bytes; enforcement is a [`BufferTree::check_limit`] call
    /// made by whoever drives the feed, so appends themselves stay
    /// infallible.
    max_bytes: Option<u64>,
    /// Reused DFS stack for [`BufferTree::free_subtree`].
    free_scratch: Vec<u32>,
    /// Buffer-lifecycle telemetry, off by default. `Option<Box<_>>` is
    /// null-pointer-optimized, so every disabled-path check is a single
    /// null test — the hot loop's cost when observability is off.
    telemetry: Option<Box<BufTelemetry>>,
    /// The occupancy timeline, sampled by [`BufferTree::tick`]; off by
    /// default, same one-null-test discipline as `telemetry`.
    timeline: Option<Box<Timeline>>,
    /// Sibling-order cutoffs, installed only when a schema is in effect;
    /// same one-null-test discipline as `telemetry`.
    schema: Option<Box<SchemaRt>>,
    /// Bit `r` set: a leaf whose only instances are role `r`'s folds
    /// ([`BufferTree::fold_copies`]); 0 where nothing folds.
    fold: u64,
    /// Hold counts changed so far (the lib tests bound the bookkeeping's
    /// cost by this).
    #[cfg(test)]
    hold_steps: u64,
}

impl BufferTree {
    /// Slots per chunk.
    pub const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;
    /// Bytes of one full chunk.
    pub const CHUNK_BYTES: u64 = Self::CHUNK_SLOTS as u64 * SLOT_BYTES;

    /// Create a buffer containing only the (open) virtual document root.
    pub fn new(purge_enabled: bool) -> BufferTree {
        let root = Slot {
            parent: NIL,
            first_child: NIL,
            prev_sibling: NIL,
            next_sibling: NIL,
            word: u32::MAX,
            payload_at: 0,
            flags: 0,
            held: 0,
            pins: 0,
            gen: ROOT_GEN,
            role: (RoleId(0), 0),
        };
        // Room for what a query that tests and drops its nodes keeps at a
        // time; one that buffers more grows the chunk to full size.
        let mut slots = Vec::with_capacity(8);
        slots.push(root);
        BufferTree {
            chunks: vec![Chunk {
                slots,
                free: NIL,
                live: 1,
                prev: NIL,
                next: NIL,
                listed: true,
            }],
            vacant: 0,
            released: NIL,
            spare: NIL,
            next_gen: ROOT_GEN + 1,
            store: PayloadStore::default(),
            ordinal_bytes: 0,
            overflow: RoleOverflow::default(),
            stats: BufferStats::default(),
            purge_enabled,
            max_bytes: None,
            free_scratch: Vec::new(),
            telemetry: None,
            timeline: None,
            schema: None,
            fold: 0,
            #[cfg(test)]
            hold_steps: 0,
        }
    }

    /// Fold a closing element's text into it where both carry one
    /// instance of a role whose bit is set in `fold` (bit `r` for role
    /// `r`: only a program's first 64 roles fold) and nothing else (see
    /// the module docs, "A copied leaf keeps its text"). Only a purging
    /// buffer that keeps no ordinals folds: a fold would lose the text's,
    /// and the element's own ordinals would have to move with it.
    pub fn fold_copies(&mut self, fold: u64) {
        debug_assert!(
            self.purge_enabled && self.ordinal_bytes == 0,
            "folding needs purging and no ordinals"
        );
        self.fold = fold;
    }

    /// With `keep`, keep every node's [`Ordinals`], stamped at its append
    /// (`ORDINAL_BYTES`, 12 bytes, at the head of its payload, charged with it):
    /// what a program with a positional step reads. Without, the ordinals
    /// handed to an append are dropped.
    pub fn with_ordinals(mut self, keep: bool) -> BufferTree {
        debug_assert_eq!(self.stats.allocated, 0, "ordinals are kept from the start");
        self.ordinal_bytes = if keep { ORDINAL_BYTES } else { 0 };
        self
    }

    /// What an element without attributes is charged: its slot, and its
    /// ordinals where the buffer keeps them. A lane charges each element
    /// of its pending chain as much.
    pub(crate) fn bare_element_bytes(&self) -> u64 {
        SLOT_BYTES + self.ordinal_bytes as u64
    }

    /// Current statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Bytes the resident slot chunks reserve (see the module docs for
    /// the bound on it).
    pub fn slot_bytes(&self) -> u64 {
        let slots: usize = self.chunks.iter().map(|c| c.slots.capacity()).sum();
        slots as u64 * SLOT_BYTES
    }

    /// Turn on buffer-lifecycle telemetry. All storage is allocated here,
    /// before the hot loop starts.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Some(Box::new(BufTelemetry {
            clock: 0,
            birth: Vec::with_capacity(64),
            residency_tokens: Hist::new(gcx_obs::TOKEN_BUCKETS),
            purged_node_bytes: Hist::new(gcx_obs::BYTE_BUCKETS),
            purge_batch: Hist::new(gcx_obs::COUNT_BUCKETS),
            purges_on_signoff: 0,
            purges_on_close: 0,
            purges_on_unpin: 0,
            roles: Vec::new(),
        }));
    }

    /// Turn on the occupancy timeline, sampled every `every` structural
    /// tokens from the first on (see [`Timeline`]).
    pub fn enable_timeline(&mut self, every: u64) {
        self.timeline = Some(Box::new(Timeline::new(every)));
    }

    /// Advance the token clock to `tokens` (the stream's structural tokens
    /// so far): the telemetry's residency clock, and the timeline, which
    /// samples every point the clock passed — it may jump, a subtree
    /// passed in bulk going by at once. Disabled cost: two null checks.
    #[inline]
    pub fn tick(&mut self, tokens: u64) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.clock = tokens;
        }
        if let Some(t) = self.timeline.as_deref_mut() {
            t.record(tokens, self.stats.live, self.stats.live_bytes);
        }
    }

    /// Detach the accumulated telemetry (None when never enabled).
    pub(crate) fn take_telemetry(&mut self) -> Option<Box<BufTelemetry>> {
        self.telemetry.take()
    }

    /// Detach the sampled timeline (None when never enabled).
    pub(crate) fn take_timeline(&mut self) -> Option<Timeline> {
        self.timeline.take().map(|t| *t)
    }

    /// Install the schema's sibling-order table. `doctype_adopted` marks
    /// a table picked up from an in-stream DOCTYPE (vs an explicit
    /// engine-option schema); it only affects reporting. Empty tables are
    /// not installed — the hot-path null checks stay null.
    pub fn set_schema(&mut self, ord: Arc<gcx_schema::OrdTable>, doctype_adopted: bool) {
        if ord.is_empty() {
            return;
        }
        self.schema = Some(Box::new(SchemaRt {
            ord,
            cutoffs: Vec::new(),
            early_scan_ends: 0,
            early_signoffs: 0,
            doctype_adopted,
        }));
    }

    /// Is a sibling-order table installed?
    pub fn schema_active(&self) -> bool {
        self.schema.is_some()
    }

    /// `(early_scan_ends, early_signoffs, doctype_adopted)` so far.
    pub fn schema_counters(&self) -> (u64, u64, bool) {
        match self.schema.as_deref() {
            Some(s) => (s.early_scan_ends, s.early_signoffs, s.doctype_adopted),
            None => (0, 0, false),
        }
    }

    /// Note a child element name observed (buffered *or* projected away)
    /// under open element `parent`, advancing the parent's cutoff when the
    /// DTD fixes its child order. Called by the projector on every start
    /// tag at projection depth; one null check when no schema is active.
    #[inline]
    pub fn schema_note_child(&mut self, parent: NodeId, child: Symbol) {
        if self.schema.is_none() || parent == NodeId::ROOT {
            return;
        }
        let Some(pname) = self.name(parent) else {
            return;
        };
        let cutoff = self.schema_cutoff_after(pname, child);
        self.schema_raise_cutoff(parent, cutoff);
    }

    /// The cutoff a `child` element puts on an open element named
    /// `parent` (0: none — no schema, or the DTD does not sequence the
    /// two). The lane keeps the running maximum for an element that is
    /// not in the buffer yet and hands it over with
    /// [`BufferTree::schema_raise_cutoff`] when it materialises.
    #[inline]
    pub fn schema_cutoff_after(&self, parent: Symbol, child: Symbol) -> u32 {
        self.schema
            .as_deref()
            .and_then(|s| s.ord.ord(parent, child))
            .map_or(0, |ord| ord + 1)
    }

    /// Raise open element `node`'s cutoff to at least `cutoff`.
    #[inline]
    pub fn schema_raise_cutoff(&mut self, node: NodeId, cutoff: u32) {
        let Some(s) = self.schema.as_deref_mut() else {
            return;
        };
        if cutoff == 0 {
            return;
        }
        let slot = node.idx as usize;
        if s.cutoffs.len() <= slot {
            s.cutoffs.resize(slot + 1, 0);
        }
        s.cutoffs[slot] = s.cutoffs[slot].max(cutoff);
    }

    /// Has the stream passed the last possible `want` child of the open
    /// element `parent`? True only when the DTD sequences both names under
    /// `parent` and a later-ordinal sibling has already been observed —
    /// then no further `want` child can arrive, even though `parent` is
    /// still open. Conservative for repeatable particles: a cutoff equal
    /// to `ord(want) + 1` (the particle itself was last seen) is *not*
    /// exhaustion, since `want*`/`want+` can repeat.
    #[inline]
    pub fn schema_sibling_exhausted(&self, parent: NodeId, want: Symbol) -> bool {
        let Some(s) = self.schema.as_deref() else {
            return false;
        };
        let cutoff = match s.cutoffs.get(parent.idx as usize) {
            Some(&c) if c > 0 => c,
            _ => return false,
        };
        let Some(pname) = self.name(parent) else {
            return false;
        };
        match s.ord.ord(pname, want) {
            Some(ord) => ord + 1 < cutoff,
            None => false,
        }
    }

    /// Is `node`'s region over: its end tag read (the virtual root's is
    /// the end of input), or — with `want` — a DTD sibling-order cutoff
    /// proving that no further `want` child of `node` can arrive? Every
    /// wait of the evaluator asks this one question.
    #[inline]
    pub fn region_over(&self, node: NodeId, want: Option<Symbol>) -> bool {
        self.is_closed(node) || want.is_some_and(|w| self.schema_sibling_exhausted(node, w))
    }

    /// Count a cursor scan ended early by a cutoff.
    pub fn schema_count_scan_end(&mut self) {
        if let Some(s) = self.schema.as_deref_mut() {
            s.early_scan_ends += 1;
        }
    }

    /// Count a signOff wait released early by a cutoff.
    pub fn schema_count_early_signoff(&mut self) {
        if let Some(s) = self.schema.as_deref_mut() {
            s.early_signoffs += 1;
        }
    }

    /// Set the hard byte budget ([`BufferTree::check_limit`] enforces it).
    pub fn set_max_bytes(&mut self, limit: Option<u64>) {
        self.max_bytes = limit;
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Enforce the byte budget: a typed, recoverable error — never an
    /// abort — once the estimated live buffer plus `pending_bytes` (what
    /// the lane holds of the document outside the buffer, its pending
    /// chain) exceeds `max_bytes`. The engine calls this
    /// after every token that grew either, so a runaway query is stopped
    /// within one token of crossing its budget.
    pub fn check_limit(&self, pending_bytes: u64) -> Result<(), EngineError> {
        let used = self.stats.live_bytes + pending_bytes;
        match self.max_bytes {
            Some(limit) if used > limit => Err(EngineError::BufferLimitExceeded { limit, used }),
            _ => Ok(()),
        }
    }

    /// True if `id` still names a live node: its chunk is resident and
    /// the slot carries the id's generation (a freed slot has none, and a
    /// reused one a newer one, so an id held across a purge of its node
    /// comes back false rather than aliasing the slot's new occupant).
    /// The join executor checks this before dereferencing index entries
    /// recorded on an earlier execution.
    #[inline]
    pub fn is_live(&self, id: NodeId) -> bool {
        self.chunks
            .get((id.idx >> CHUNK_BITS) as usize)
            .and_then(|c| c.slots.get((id.idx & CHUNK_MASK) as usize))
            .is_some_and(|s| s.gen == id.gen)
    }

    #[inline]
    fn slot(&self, idx: u32) -> &Slot {
        &self.chunks[(idx >> CHUNK_BITS) as usize].slots[(idx & CHUNK_MASK) as usize]
    }

    #[inline]
    fn slot_mut(&mut self, idx: u32) -> &mut Slot {
        &mut self.chunks[(idx >> CHUNK_BITS) as usize].slots[(idx & CHUNK_MASK) as usize]
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Slot {
        let s = self.slot(id.idx);
        debug_assert!(s.gen == id.gen, "stale NodeId {id:?}");
        s
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Slot {
        let s = self.slot_mut(id.idx);
        debug_assert!(s.gen == id.gen, "stale NodeId {id:?}");
        s
    }

    fn id_at(&self, idx: u32) -> Option<NodeId> {
        if idx == NIL {
            None
        } else {
            Some(NodeId {
                idx,
                gen: self.slot(idx).gen,
            })
        }
    }

    // ---- navigation ---------------------------------------------------------

    /// Parent of a node (None for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.id_at(self.node(id).parent)
    }

    /// First child, in document order.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.id_at(self.node(id).first_child)
    }

    /// Next sibling, in document order.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.id_at(self.node(id).next_sibling)
    }

    /// Last child: the first child's back-link.
    #[cfg(test)]
    fn last_child(&self, id: NodeId) -> Option<NodeId> {
        let first = self.first_child(id)?;
        self.id_at(self.node(first).prev_sibling)
    }

    /// Element tag, if `id` is an element.
    pub fn name(&self, id: NodeId) -> Option<Symbol> {
        let s = self.node(id);
        (s.flags & TEXT == 0).then_some(Symbol(s.word))
    }

    /// True for text nodes.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.node(id).flags & TEXT != 0
    }

    /// Text content of a text node.
    pub fn text_content(&self, id: NodeId) -> Option<&str> {
        self.text_of(self.node(id))
    }

    #[inline]
    fn text_of(&self, s: &Slot) -> Option<&str> {
        if s.flags & TEXT == 0 {
            return None;
        }
        self.chars_of(s)
    }

    /// The characters of a text node, or of the text a folded element took
    /// in; None for any other element.
    #[inline]
    fn chars_of(&self, s: &Slot) -> Option<&str> {
        let len = text_len(s)?;
        Some(utf8(self.store.get(
            s.payload_at,
            self.ordinal_bytes,
            len as usize,
        )))
    }

    /// Attribute value by interned name.
    pub fn attr(&self, id: NodeId, name: Symbol) -> Option<&str> {
        self.attrs(id).value_of(name)
    }

    /// All attributes of an element (empty for text nodes).
    pub fn attrs(&self, id: NodeId) -> Attrs<'_> {
        self.attrs_of(self.node(id))
    }

    #[inline]
    fn attrs_of(&self, s: &Slot) -> Attrs<'_> {
        let n = (s.flags & ATTR_COUNT) as usize;
        if s.flags & (TEXT | FOLDED) != 0 || n == 0 {
            return Attrs::default();
        }
        let records = self
            .store
            .get(s.payload_at, self.ordinal_bytes, n * ATTR_RECORD);
        // The last record's value end is the length of the values.
        let values = u32_at(records, records.len() - 4) as usize;
        let skip = self.ordinal_bytes + records.len() as u32;
        let values = self.store.get(s.payload_at, skip, values);
        Attrs { records, values }
    }

    /// Bytes of `s`'s payload (see the module docs), derived: its ordinals
    /// where the buffer keeps them, then its text — a text node's, or the
    /// one a folded element took in — or, for an element, its attribute
    /// records and values.
    fn payload_len(&self, s: &Slot) -> u32 {
        if let Some(len) = text_len(s) {
            return self.ordinal_bytes + len;
        }
        let attrs = self.attrs_of(s);
        self.ordinal_bytes + (attrs.records.len() + attrs.values.len()) as u32
    }

    /// Whether the node's end tag has been read.
    pub fn is_closed(&self, id: NodeId) -> bool {
        self.node(id).flags & CLOSED != 0
    }

    /// Document-order sibling ordinals (see [`Ordinals`]); None in a
    /// buffer that keeps none ([`BufferTree::with_ordinals`]).
    pub fn ordinals(&self, id: NodeId) -> Option<Ordinals> {
        debug_assert!(id != NodeId::ROOT, "the virtual root has no ordinals");
        let s = self.node(id);
        (self.ordinal_bytes != 0)
            .then(|| Ordinals::read(self.store.get(s.payload_at, 0, ORDINAL_BYTES as usize)))
    }

    /// Instances of `role` on this node.
    pub fn role_count(&self, id: NodeId, role: RoleId) -> u32 {
        self.roles(id)
            .iter()
            .find(|(r, _)| *r == role)
            .map_or(0, |&(_, c)| c)
    }

    /// The node's role multiset (sorted by role id), for diagnostics.
    pub fn roles(&self, id: NodeId) -> &[(RoleId, u32)] {
        self.node(id).role_list(&self.overflow)
    }

    // ---- construction -------------------------------------------------------

    /// Append an attribute-less element under `parent` with its role
    /// instances. `roles` must be sorted by role id (the matcher emits
    /// them sorted; the internal `append` debug-asserts it).
    pub fn append_element(
        &mut self,
        parent: NodeId,
        name: Symbol,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) -> NodeId {
        let payload = self.put_payload(ordinals, 0, |_| {});
        self.append(parent, name.0, 0, payload, roles)
    }

    /// Append an element under `parent` with the attributes in the
    /// caller's scratch, which are copied into the payload store and
    /// cleared (the scratch keeps its capacity: no allocation in the
    /// preprojector's hot loop). `roles` must be sorted by role id.
    pub fn append_element_with_attrs(
        &mut self,
        parent: NodeId,
        name: Symbol,
        attrs: &mut AttrBuf,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) -> NodeId {
        let payload = self.put_payload(ordinals, attrs.payload_bytes(), |block| {
            attrs.write_to(block)
        });
        // 2^28 of them would take 2 GiB of records: the count leaves the
        // fold flag's bit alone.
        let count = attrs.len() as u32;
        assert!(count <= ATTR_COUNT, "{count} attributes on one element");
        attrs.clear();
        self.append(parent, name.0, count, payload, roles)
    }

    /// Append a text node under `parent`. Text nodes are born closed.
    /// `roles` must be sorted by role id.
    pub fn append_text(
        &mut self,
        parent: NodeId,
        content: &str,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) -> NodeId {
        let payload = self.put_payload(ordinals, content.len() as u64, |block| {
            block.copy_from_slice(content.as_bytes())
        });
        // The store took it, so it is below 4 GiB.
        let len = content.len() as u32;
        self.append(parent, len, TEXT | CLOSED, payload, roles)
    }

    /// A payload block: the ordinals where the buffer keeps them, then
    /// `len` bytes laid out by `fill`.
    #[inline]
    fn put_payload(
        &mut self,
        ordinals: Ordinals,
        len: u64,
        fill: impl FnOnce(&mut [u8]),
    ) -> Payload {
        let head = self.ordinal_bytes as usize;
        self.store.put(head as u64 + len, |block| {
            let (head, body) = block.split_at_mut(head);
            if !head.is_empty() {
                ordinals.write_to(head);
            }
            fill(body);
        })
    }

    /// Link a node into `parent`'s child list: `word` is its tag or its
    /// text's length, `flags` its kind and attribute count.
    fn append(
        &mut self,
        parent: NodeId,
        word: u32,
        flags: u32,
        payload: Payload,
        roles: &[(RoleId, u32)],
    ) -> NodeId {
        debug_assert!(
            self.node(parent).flags & CLOSED == 0,
            "appending under a closed node"
        );
        // The role multiset arrives sorted (the matcher dedupes and sorts
        // by role id); sorting per append would be wasted hot-loop work.
        debug_assert!(
            roles.windows(2).all(|w| w[0].0 < w[1].0) && roles.iter().all(|&(_, c)| c > 0),
            "append requires distinct roles sorted by role id, each with an instance: {roles:?}"
        );
        // Open elements hold; a text node holds by carrying a role.
        let holding = flags & CLOSED == 0 || !roles.is_empty();
        let (role, flags) = match *roles {
            [] => ((RoleId(0), 0), flags),
            [one] => (one, flags),
            _ => {
                let len =
                    u16::try_from(roles.len()).expect("a program has at most MAX_ROLES roles");
                // As many entries (low half) as the block is long (high).
                let len = u32::from(len);
                (
                    (RoleId(self.overflow.put(roles)), len | len << 16),
                    flags | SPILLED,
                )
            }
        };
        let first = self.node(parent).first_child;
        // The first child's back-link names the last one.
        let last = match first {
            NIL => NIL,
            first => self.slot(first).prev_sibling,
        };
        let gen = self.next_gen;
        // A wrapped counter skips the free slots' generation.
        self.next_gen = gen.wrapping_add(1).max(ROOT_GEN + 1);
        let idx = self.place(Slot {
            parent: parent.idx,
            first_child: NIL,
            prev_sibling: last,
            next_sibling: NIL,
            word,
            payload_at: payload.at,
            flags,
            held: 0,
            pins: 0,
            gen,
            role,
        });
        // Link into the parent's child list; the parent is open, so it
        // holds already and a holding child flips nothing above it.
        {
            let p = self.slot_mut(parent.idx);
            if first == NIL {
                p.first_child = idx;
            }
            p.held += u32::from(holding);
        }
        #[cfg(test)]
        {
            self.hold_steps += u64::from(holding);
        }
        if first == NIL {
            self.slot_mut(idx).prev_sibling = idx;
        } else {
            self.slot_mut(last).next_sibling = idx;
            self.slot_mut(first).prev_sibling = idx;
        }
        self.stats.live += 1;
        self.stats.allocated += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.live_bytes += node_bytes(payload.len);
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        if let Some(s) = self.schema.as_deref_mut() {
            // A recycled slot may carry the previous occupant's cutoff.
            if let Some(c) = s.cutoffs.get_mut(idx as usize) {
                *c = 0;
            }
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            let slot = idx as usize;
            if t.birth.len() <= slot {
                t.birth.resize(slot + 1, 0);
            }
            t.birth[slot] = t.clock;
            for &(role, count) in roles {
                let cell = t.role_cell(role);
                cell.appends += count as u64;
                cell.live += count as u64;
                cell.max_live = cell.max_live.max(cell.live);
            }
        }
        NodeId { idx, gen }
    }

    /// Put `slot` into a free slot — of the chunk last freed into that has
    /// one, else of the spare, else of a chunk (re)opened for it — and
    /// return its index.
    fn place(&mut self, slot: Slot) -> u32 {
        if self.vacant == NIL {
            self.open_chunk();
        }
        let c = self.vacant;
        let chunk = &mut self.chunks[c as usize];
        let at = if chunk.free != NIL {
            let at = chunk.free;
            chunk.free = chunk.slots[at as usize].next_sibling;
            chunk.slots[at as usize] = slot;
            at
        } else {
            chunk.slots.push(slot);
            chunk.slots.len() as u32 - 1
        };
        chunk.live += 1;
        if chunk.live as usize == Self::CHUNK_SLOTS {
            self.unlist(c);
        }
        if c == self.spare {
            self.spare = NIL;
        }
        c << CHUNK_BITS | at
    }

    /// Every resident chunk is full: reopen a released chunk, or add one.
    fn open_chunk(&mut self) {
        let c = if self.released != NIL {
            let c = self.released;
            self.released = std::mem::replace(&mut self.chunks[c as usize].free, NIL);
            c
        } else {
            assert!(
                self.chunks.len() < (NIL >> CHUNK_BITS) as usize,
                "buffer slot space exhausted"
            );
            self.chunks.push(Chunk {
                slots: Vec::new(),
                free: NIL,
                live: 0,
                prev: NIL,
                next: NIL,
                listed: false,
            });
            self.chunks.len() as u32 - 1
        };
        self.chunks[c as usize]
            .slots
            .reserve_exact(Self::CHUNK_SLOTS);
        self.list(c);
    }

    /// Put chunk `c` first on the vacancy list.
    fn list(&mut self, c: u32) {
        let head = std::mem::replace(&mut self.vacant, c);
        if head != NIL {
            self.chunks[head as usize].prev = c;
        }
        let chunk = &mut self.chunks[c as usize];
        (chunk.prev, chunk.next, chunk.listed) = (NIL, head, true);
    }

    /// Take chunk `c` off the vacancy list.
    fn unlist(&mut self, c: u32) {
        let chunk = &mut self.chunks[c as usize];
        let (prev, next) = (chunk.prev, chunk.next);
        chunk.listed = false;
        match prev {
            NIL => self.vacant = next,
            p => self.chunks[p as usize].next = next,
        }
        if next != NIL {
            self.chunks[next as usize].prev = prev;
        }
    }

    /// Return slot `idx` (its payload already released) to its chunk's
    /// free list, and an emptied chunk to the allocator unless it becomes
    /// the spare.
    fn vacate(&mut self, idx: u32) {
        let c = idx >> CHUNK_BITS;
        let chunk = &mut self.chunks[c as usize];
        let slot = &mut chunk.slots[(idx & CHUNK_MASK) as usize];
        slot.gen = FREE;
        slot.next_sibling = chunk.free;
        chunk.free = idx & CHUNK_MASK;
        chunk.live -= 1;
        let (listed, empty) = (chunk.listed, chunk.live == 0);
        if !listed {
            self.list(c);
        }
        if empty {
            if self.spare == NIL {
                self.spare = c;
            } else {
                self.unlist(c);
                let chunk = &mut self.chunks[c as usize];
                chunk.slots = Vec::new();
                chunk.free = std::mem::replace(&mut self.released, c);
            }
        }
    }

    /// Mark a node closed (its end tag was read) and attempt a purge: this
    /// reclaims subtrees that hold no role (any more) when their end tag
    /// comes. An element that still holds may fold its text in (see the
    /// module docs, "A copied leaf keeps its text").
    pub fn close(&mut self, id: NodeId) {
        let s = self.node_mut(id);
        debug_assert!(s.flags & CLOSED == 0, "closing a closed node");
        s.flags |= CLOSED;
        if holds(s) {
            // One role instance (not spilled), no attributes, a child.
            if s.role.1 == 1 && s.flags & (SPILLED | ATTR_COUNT) == 0 && s.first_child != NIL {
                let (role, text) = (s.role.0, s.first_child);
                self.fold(id.idx, role, text);
            }
        } else if self.release(id.idx) {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.purges_on_close += 1;
            }
        }
    }

    /// Element `idx`, just closed with one instance of `role` and no
    /// attributes, takes in the payload of its first child `text` if
    /// `role` is a fold role and `text` is its only child: a text node,
    /// not pinned, carrying one instance of `role` and nothing else.
    fn fold(&mut self, idx: u32, role: RoleId, text: u32) {
        if self
            .fold
            .checked_shr(role.0)
            .is_none_or(|bits| bits & 1 == 0)
        {
            return;
        }
        let t = self.slot(text);
        let leaf = t.flags & (TEXT | SPILLED) == TEXT && t.next_sibling == NIL;
        if !leaf || t.role != (role, 1) || t.pins != 0 || t.word > ATTR_COUNT {
            return;
        }
        let (at, len) = (t.payload_at, t.word);
        let e = self.slot_mut(idx);
        debug_assert_eq!(e.held, 1, "the text holds by its role");
        e.first_child = NIL;
        e.held = 0;
        e.payload_at = at;
        e.flags |= FOLDED | len;
        self.vacate(text);
        let s = &mut self.stats;
        s.live -= 1;
        s.purged += 1;
        s.folded += 1;
        s.live_bytes -= SLOT_BYTES;
        if let Some(t) = self.telemetry.as_deref_mut() {
            // The slot is purged, and the text's instance signed off with it.
            let born = t.birth.get(text as usize).copied().unwrap_or(t.clock);
            t.residency_tokens.observe(t.clock.saturating_sub(born));
            t.purged_node_bytes.observe(SLOT_BYTES);
            let cell = t.role_cell(role);
            cell.signoffs += 1;
            cell.live = cell.live.saturating_sub(1);
        }
    }

    // ---- roles & garbage collection ------------------------------------------

    /// Remove up to `amount` instances of `role` from `id` (saturating),
    /// then attempt a purge. Returns the number actually removed.
    pub fn decrement_role(&mut self, id: NodeId, role: RoleId, amount: u32) -> u32 {
        let chunk = (id.idx >> CHUNK_BITS) as usize;
        let slot = &mut self.chunks[chunk].slots[(id.idx & CHUNK_MASK) as usize];
        debug_assert!(slot.gen == id.gen, "stale NodeId {id:?}");
        let removed = slot.take_role(&mut self.overflow, role, amount);
        if removed > 0 {
            // It held while it carried the role.
            let purged = !holds(slot) && self.release(id.idx);
            if let Some(t) = self.telemetry.as_deref_mut() {
                let cell = t.role_cell(role);
                cell.signoffs += removed as u64;
                cell.live = cell.live.saturating_sub(removed as u64);
                if purged {
                    cell.purge_triggers += 1;
                    t.purges_on_signoff += 1;
                }
            }
        }
        removed
    }

    /// Pin a node against purging (evaluator references).
    pub fn pin(&mut self, id: NodeId) {
        let s = self.node_mut(id);
        let held = holds(s);
        s.pins += 1;
        if held {
            return;
        }
        // It starts holding: so does each ancestor that did not.
        let mut at = s.parent;
        while at != NIL {
            #[cfg(test)]
            {
                self.hold_steps += 1;
            }
            let p = self.slot_mut(at);
            let held = holds(p);
            p.held += 1;
            if held {
                break;
            }
            at = p.parent;
        }
    }

    /// Release a pin; attempts the purge that may have been deferred.
    pub fn unpin(&mut self, id: NodeId) {
        let s = self.node_mut(id);
        debug_assert!(s.pins > 0, "unbalanced unpin");
        s.pins -= 1;
        if !holds(s) && self.release(id.idx) {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.purges_on_unpin += 1;
            }
        }
    }

    /// Slot `idx` has just stopped holding: take it off its parent's
    /// count, go on up while that stops the parent holding too, and free
    /// the topmost node that stopped — never the virtual root, and nothing
    /// where purging is disabled. Returns whether anything was purged.
    fn release(&mut self, idx: u32) -> bool {
        let (mut top, mut at) = (idx, self.slot(idx).parent);
        while at != NIL {
            #[cfg(test)]
            {
                self.hold_steps += 1;
            }
            let p = self.slot_mut(at);
            p.held -= 1;
            let up = p.parent;
            if at == NodeId::ROOT.idx || holds(p) {
                return self.purge_enabled && {
                    self.free_subtree(top);
                    true
                };
            }
            (top, at) = (at, up);
        }
        false // `idx` is the root
    }

    /// Detach `top` from its parent and free its whole subtree.
    fn free_subtree(&mut self, top: u32) {
        // Unlink from the sibling chain (the root is never freed, so there
        // is a parent).
        let (parent, prev, next) = {
            let n = self.slot(top);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        let first = self.slot(parent).first_child;
        if top == first {
            // `prev` is the last child: the new first child links back to
            // it.
            self.slot_mut(parent).first_child = next;
            if next != NIL {
                self.slot_mut(next).prev_sibling = prev;
            }
        } else {
            self.slot_mut(prev).next_sibling = next;
            // Past the last child, the back-link moves.
            let after = if next == NIL { first } else { next };
            self.slot_mut(after).prev_sibling = prev;
        }
        // Free the subtree iteratively with the reused DFS scratch (order
        // is irrelevant — every freed node just returns its slot and its
        // payload blocks).
        let mut stack = std::mem::take(&mut self.free_scratch);
        // The telemetry box is moved out for the duration of the walk so
        // its histograms can be updated while `self` is mutably borrowed.
        let mut tel = self.telemetry.take();
        let mut batch: u64 = 0;
        stack.push(top);
        while let Some(i) = stack.pop() {
            let n = self.slot(i);
            let mut child = n.first_child;
            debug_assert_eq!(n.pins, 0, "freeing a pinned node");
            let (payload_at, payload_len) = (n.payload_at, self.payload_len(n));
            let spilled = (n.flags & SPILLED != 0).then(|| (n.role.0, spilled_cap(n.role.1)));
            while child != NIL {
                stack.push(child);
                child = self.slot(child).next_sibling;
            }
            // Credit back exactly what the append charged.
            let bytes = node_bytes(payload_len);
            self.stats.live_bytes -= bytes;
            if let Some(t) = tel.as_deref_mut() {
                let born = t.birth.get(i as usize).copied().unwrap_or(t.clock);
                t.residency_tokens.observe(t.clock.saturating_sub(born));
                t.purged_node_bytes.observe(bytes);
                batch += 1;
            }
            if payload_len > 0 {
                self.store.release(payload_at, payload_len);
            }
            if let Some((at, cap)) = spilled {
                self.overflow.release(at.0, cap);
            }
            self.vacate(i);
            self.stats.live -= 1;
            self.stats.purged += 1;
        }
        if let Some(t) = tel.as_deref_mut() {
            t.purge_batch.observe(batch);
        }
        self.telemetry = tel;
        self.free_scratch = stack;
    }

    // ---- values & serialization ----------------------------------------------
    //
    // The walks follow the slots' links directly: iterative, so document
    // depth never becomes native stack depth (deeply nested documents
    // would overflow it), and without a generation check per step.

    /// XPath string value: concatenated text content of the subtree.
    pub fn string_value(&self, id: NodeId, out: &mut String) {
        let top = self.node(id);
        if let Some(text) = self.chars_of(top) {
            out.push_str(text);
            return;
        }
        let mut cur = top.first_child;
        while cur != NIL {
            let s = self.slot(cur);
            cur = match self.chars_of(s) {
                Some(text) => {
                    out.push_str(text);
                    NIL
                }
                None => s.first_child,
            };
            if cur == NIL {
                cur = self.next_or_ascend(s, id.idx).0;
            }
        }
    }

    /// Next node of a pre-order walk confined to `stop`'s subtree, after
    /// `s`'s own subtree is done: the next sibling, or the next sibling of
    /// the closest ancestor below `stop` (NIL: the walk is over) — and how
    /// many elements the walk climbed out of on the way.
    fn next_or_ascend<'a>(&'a self, mut s: &'a Slot, stop: u32) -> (u32, usize) {
        let mut left = 0;
        loop {
            if s.next_sibling != NIL {
                return (s.next_sibling, left);
            }
            if s.parent == stop {
                return (NIL, left);
            }
            s = self.slot(s.parent);
            left += 1;
        }
    }

    /// Emit a node's opening markup (or its text). Returns true when the
    /// walk must descend into element children.
    fn serialize_open<W: std::io::Write>(
        &self,
        s: &Slot,
        symbols: &SymbolTable,
        w: &mut XmlWriter<W>,
    ) -> XmlResult<bool> {
        if let Some(text) = self.text_of(s) {
            w.text(text)?;
            return Ok(false);
        }
        w.start_element(symbols.resolve(Symbol(s.word)))?;
        for (an, av) in self.attrs_of(s).iter() {
            w.attribute(symbols.resolve(an), av)?;
        }
        if let Some(text) = self.chars_of(s) {
            w.text(text)?; // a folded element's (it has no children)
        }
        Ok(true)
    }

    /// Serialize the subtree rooted at `id` to a writer: all of it when
    /// `id` is closed; of an open node the part that has arrived — closed
    /// children whole, the open path's start tags with their attributes —
    /// leaving the open elements open on the writer for the rest to
    /// follow. The virtual root serializes its children only.
    pub fn serialize<W: std::io::Write>(
        &self,
        id: NodeId,
        symbols: &SymbolTable,
        w: &mut XmlWriter<W>,
    ) -> XmlResult<()> {
        let top = self.node(id);
        if id != NodeId::ROOT && !self.serialize_open(top, symbols, w)? {
            return Ok(()); // a lone text node
        }
        let mut cur = top.first_child;
        while cur != NIL {
            let s = self.slot(cur);
            cur = NIL;
            if self.serialize_open(s, symbols, w)? {
                cur = s.first_child;
                if cur == NIL && s.flags & CLOSED != 0 {
                    w.end_element()?; // childless element
                }
            }
            // Climb out of what is done, closing the closed elements left
            // on the way (an open one is the last of its parent's children,
            // so no sibling follows it yet).
            let mut at = s;
            while cur == NIL {
                if at.next_sibling != NIL {
                    cur = at.next_sibling;
                } else if at.parent == id.idx {
                    break;
                } else {
                    at = self.slot(at.parent);
                    if at.flags & CLOSED != 0 {
                        w.end_element()?;
                    }
                }
            }
        }
        if id != NodeId::ROOT && top.flags & CLOSED != 0 {
            w.end_element()?;
        }
        Ok(())
    }

    // ---- integrity (used by tests and debug assertions) -----------------------

    /// Check every node's links and recount its hold count from its
    /// children, recount the live bytes from the nodes' charges (a folded
    /// element's flag and length included), and check the chunks'
    /// bookkeeping against their slots.
    /// Panics on mismatch. O(n), iterative; tests only.
    pub fn check_integrity(&self) {
        let mut linked = 1; // the root
        let mut charged = 0;
        for (c, chunk) in self.chunks.iter().enumerate() {
            for (at, n) in chunk.slots.iter().enumerate() {
                if n.gen == FREE {
                    continue;
                }
                let idx = (c as u32) << CHUNK_BITS | at as u32;
                if idx != NodeId::ROOT.idx {
                    charged += node_bytes(self.payload_len(n));
                }
                let (mut child, mut prev, mut held) = (n.first_child, NIL, 0);
                while child != NIL {
                    let s = self.slot(child);
                    assert_ne!(s.gen, FREE, "dead node linked into the tree");
                    assert_eq!(s.parent, idx, "parent link broken");
                    if prev != NIL {
                        assert_eq!(s.prev_sibling, prev, "sibling chain broken");
                    }
                    held += u32::from(holds(s));
                    linked += 1;
                    prev = child;
                    child = s.next_sibling;
                }
                if n.first_child != NIL {
                    let back = self.slot(n.first_child).prev_sibling;
                    assert_eq!(back, prev, "the first child's back-link misses the last");
                }
                assert_eq!(n.held, held, "hold count out of sync at {idx}");
                if n.flags & SPILLED != 0 {
                    // The packed count word: 1 ≤ entries ≤ block length,
                    // the block inside the overflow, the entries distinct,
                    // sorted and each with an instance.
                    let (len, cap) = (spilled_len(n.role.1), spilled_cap(n.role.1) as usize);
                    assert!((1..=cap).contains(&len), "{idx}: {len} of {cap} entries");
                    let block = n.role.0 .0 as usize;
                    assert!(block + cap <= self.overflow.pairs.len(), "{idx}: block");
                    let list = n.role_list(&self.overflow);
                    assert!(
                        list.windows(2).all(|w| w[0].0 < w[1].0) && list.iter().all(|e| e.1 > 0),
                        "{idx}: spilled roles {list:?}"
                    );
                } else {
                    assert!(n.role.1 != 0 || n.role_list(&self.overflow).is_empty());
                }
                if n.flags & FOLDED != 0 {
                    // A closed element without children or attributes whose
                    // payload is the text it took in, where folds run.
                    assert_ne!(self.fold, 0, "{idx}: folded without a fold role");
                    assert_eq!(n.flags & (TEXT | CLOSED), CLOSED, "{idx}: folded");
                    assert_eq!(n.first_child, NIL, "{idx}: folded, with children");
                    assert!(self.attrs_of(n).is_empty() && self.chars_of(n).is_some());
                }
                // A node that stops holding is purged with it, so where
                // purging runs only a text node born without a role stays
                // behind not holding — under a parent that holds.
                if self.purge_enabled && idx != NodeId::ROOT.idx && !holds(n) {
                    assert!(
                        n.flags & TEXT != 0 && holds(self.slot(n.parent)),
                        "{idx} stopped holding, yet was not purged"
                    );
                }
            }
        }
        assert_eq!(linked, self.stats.live + 1, "live nodes off the tree");
        assert_eq!(
            charged, self.stats.live_bytes,
            "live bytes vs the nodes' charges"
        );
        let mut in_use = 0;
        let mut released = 0;
        for (c, chunk) in self.chunks.iter().enumerate() {
            if chunk.slots.capacity() == 0 {
                released += 1;
                continue;
            }
            let used = chunk.slots.iter().filter(|s| s.gen != FREE).count();
            assert_eq!(used, chunk.live as usize, "chunk {c}: live count");
            let mut free = 0;
            let mut at = chunk.free;
            while at != NIL {
                assert_eq!(chunk.slots[at as usize].gen, FREE, "chunk {c}: free list");
                free += 1;
                at = chunk.slots[at as usize].next_sibling;
            }
            assert_eq!(used + free, chunk.slots.len(), "chunk {c}: lost slots");
            if used == 0 {
                assert_eq!(self.spare, c as u32, "chunk {c}: empty, yet not the spare");
            }
            in_use += used;
        }
        let mut chained = 0;
        let mut c = self.released;
        while c != NIL {
            assert_eq!(
                self.chunks[c as usize].slots.capacity(),
                0,
                "chunk {c}: released"
            );
            chained += 1;
            c = self.chunks[c as usize].free;
        }
        assert_eq!(chained, released, "released chunks off the chain");
        // The vacancy list: exactly the resident chunks with a free slot.
        let (mut listed, mut prev, mut c) = (0, NIL, self.vacant);
        while c != NIL {
            let chunk = &self.chunks[c as usize];
            assert!(
                chunk.listed && chunk.prev == prev,
                "chunk {c}: vacancy links"
            );
            assert!(chunk.slots.capacity() > 0 && (chunk.live as usize) < Self::CHUNK_SLOTS);
            listed += 1;
            (prev, c) = (c, chunk.next);
        }
        let roomy = self
            .chunks
            .iter()
            .filter(|c| c.slots.capacity() > 0 && (c.live as usize) < Self::CHUNK_SLOTS);
        assert_eq!(
            listed,
            roomy.count(),
            "chunks with room off the vacancy list"
        );
        assert_eq!(
            in_use as u64,
            self.stats.live + 1,
            "slots in use vs live nodes"
        );
    }
}

#[cfg(test)]
#[path = "buffer_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: u32) -> Symbol {
        Symbol(n)
    }

    fn el(buf: &mut BufferTree, parent: NodeId, name: u32, roles: &[(RoleId, u32)]) -> NodeId {
        buf.append_element(parent, sym(name), roles, Ordinals::FIRST)
    }

    #[test]
    fn builds_a_tree() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 1)]);
        let c1 = el(&mut b, a, 2, &[(RoleId(1), 1)]);
        let c2 = el(&mut b, a, 3, &[(RoleId(1), 1)]);
        assert_eq!(b.first_child(a), Some(c1));
        assert_eq!(b.next_sibling(c1), Some(c2));
        assert_eq!(b.parent(c2), Some(a));
        assert_eq!(b.stats().live, 3);
        b.check_integrity();
    }

    #[test]
    fn a_clock_jump_takes_every_sample_it_passes() {
        // One token at a time against the same clock moved in jumps (a
        // skipped subtree is charged at once): same samples, same tokens.
        let sampled = |jumps: &[u64]| {
            let mut b = BufferTree::new(true);
            b.enable_timeline(4);
            el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 1)]);
            let mut clock = 0;
            for &jump in jumps {
                clock += jump;
                b.tick(clock);
            }
            b.take_timeline()
                .expect("enabled")
                .live_bytes()
                .collect::<Vec<_>>()
        };
        let stepped = sampled(&[1; 23]);
        let at: Vec<u64> = stepped.iter().map(|&(token, _)| token).collect();
        assert_eq!(at, [1, 5, 9, 13, 17, 21]);
        assert_eq!(sampled(&[1, 1, 12, 1, 8]), stepped);
        assert_eq!(sampled(&[23]), stepped);
        assert_eq!(sampled(&[4, 0, 19]), stepped);
    }

    #[test]
    fn role_less_subtree_purged_on_close() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.close(c);
        // c alone can be purged once closed (no roles anywhere beneath).
        assert_eq!(b.stats().live, 1);
        b.close(a);
        assert_eq!(b.stats().live, 0);
        assert_eq!(b.stats().purged, 2);
        b.check_integrity();
    }

    #[test]
    fn roles_prevent_purge_until_decremented() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.close(c);
        b.close(a);
        assert_eq!(b.stats().live, 2, "role on c keeps both alive");
        b.decrement_role(c, RoleId(0), 1);
        assert_eq!(
            b.stats().live,
            0,
            "decrement cascades the purge up through a"
        );
        b.check_integrity();
    }

    #[test]
    fn paper_figure1_purge_sequence() {
        // book{r3,r5,r6} title{r5,r7} author{r5}; after signing off r3, r4,
        // r5 the buffer holds book{r6} and title{r7} (author gone).
        let r3 = RoleId(2);
        let r5 = RoleId(4);
        let r6 = RoleId(5);
        let r7 = RoleId(6);
        let mut b = BufferTree::new(true);
        let bib = el(&mut b, NodeId::ROOT, 1, &[(RoleId(1), 1)]);
        let book = el(&mut b, bib, 2, &[(r3, 1), (r5, 1), (r6, 1)]);
        let title = el(&mut b, book, 3, &[(r5, 1), (r7, 1)]);
        let author = el(&mut b, book, 4, &[(r5, 1)]);
        b.close(title);
        b.close(author);
        b.close(book);
        assert_eq!(b.stats().live, 4);
        // signOff($x, r3); signOff($x/descendant-or-self::node(), r5).
        b.decrement_role(book, r3, 1);
        b.decrement_role(book, r5, 1);
        b.decrement_role(title, r5, 1);
        b.decrement_role(author, r5, 1);
        // Figure 1(c): author purged; book{r6}, title{r7} remain.
        assert_eq!(b.stats().live, 3);
        assert_eq!(b.role_count(book, r6), 1);
        assert_eq!(b.role_count(title, r7), 1);
        assert_eq!(b.roles(book).len(), 1);
        // Second loop signs off r6 and r7: everything drains.
        b.decrement_role(book, r6, 1);
        b.decrement_role(title, r7, 1);
        b.decrement_role(bib, RoleId(1), 1);
        b.close(bib);
        assert_eq!(b.stats().live, 0);
        b.check_integrity();
    }

    #[test]
    fn open_nodes_are_never_purged() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        // a is open: closing nothing, no purge even though no roles.
        assert_eq!(b.stats().live, 1);
        let c = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.decrement_role(c, RoleId(0), 1);
        // c closed? No: element children born open.
        assert_eq!(b.stats().live, 2, "open c cannot be purged");
        b.close(c);
        assert_eq!(b.stats().live, 1, "closing triggers the deferred purge");
        b.check_integrity();
    }

    #[test]
    fn pins_defer_purge() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.pin(c);
        b.close(c);
        b.decrement_role(c, RoleId(0), 1);
        assert_eq!(b.stats().live, 2, "pin keeps c (and its parent chain)");
        b.unpin(c);
        assert_eq!(b.stats().live, 1, "unpin executes the deferred purge");
        b.check_integrity();
    }

    #[test]
    fn pin_on_descendant_protects_ancestors() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.pin(c);
        b.close(c);
        b.close(a);
        assert_eq!(
            b.stats().live,
            2,
            "pinned descendant blocks the whole chain"
        );
        b.unpin(c);
        assert_eq!(b.stats().live, 0);
        b.check_integrity();
    }

    #[test]
    fn purge_frees_highest_dead_ancestor() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let m = el(&mut b, a, 2, &[]);
        let c = el(&mut b, m, 3, &[(RoleId(0), 1)]);
        b.close(c);
        b.close(m);
        b.close(a);
        assert_eq!(b.stats().live, 3);
        b.decrement_role(c, RoleId(0), 1);
        // All three die in one cascade.
        assert_eq!(b.stats().live, 0);
        assert_eq!(b.stats().purged, 3);
        b.check_integrity();
    }

    #[test]
    fn siblings_survive_purge_of_neighbor() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(9), 1)]);
        let c1 = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        let c2 = el(&mut b, a, 3, &[(RoleId(1), 1)]);
        let c3 = el(&mut b, a, 4, &[(RoleId(2), 1)]);
        for c in [c1, c2, c3] {
            b.close(c);
        }
        b.decrement_role(c2, RoleId(1), 1);
        assert_eq!(b.stats().live, 3);
        assert_eq!(
            b.next_sibling(c1),
            Some(c3),
            "sibling chain bridges the gap"
        );
        b.check_integrity();
    }

    #[test]
    fn slot_reuse_with_generations() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.close(c); // purged
        let d = el(&mut b, a, 3, &[]);
        // d reuses c's slot with a different generation.
        assert_ne!(c, d);
        assert_eq!(b.name(d), Some(sym(3)));
        b.check_integrity();
    }

    #[test]
    fn multiset_roles_decrement_partially() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 3)]);
        b.close(a);
        assert_eq!(b.decrement_role(a, RoleId(0), 1), 1);
        assert_eq!(b.role_count(a, RoleId(0)), 2);
        assert_eq!(b.stats().live, 1);
        assert_eq!(b.decrement_role(a, RoleId(0), 5), 2, "saturating");
        assert_eq!(b.stats().live, 0);
        b.check_integrity();
    }

    #[test]
    fn purge_bookkeeping_is_linear_in_depth() {
        // A 10 000-deep chain appended, pinned, unpinned, closed innermost
        // first and (where it carries roles) signed off in either order.
        // Updating every ancestor per event would cost about n²/2 steps
        // per kind of operation; hold counts change where a node's hold
        // status flips, a bounded number of times per operation.
        const DEPTH: u64 = 10_000;
        for (roles, outermost_first) in [(true, true), (true, false), (false, true)] {
            let role: &[(RoleId, u32)] = if roles { &[(RoleId(0), 1)] } else { &[] };
            let mut b = BufferTree::new(true);
            let mut chain = vec![NodeId::ROOT];
            for _ in 0..DEPTH {
                let parent = *chain.last().unwrap();
                chain.push(el(&mut b, parent, 1, role));
            }
            let chain = &chain[1..];
            for &n in chain {
                b.pin(n);
            }
            for &n in chain.iter().rev() {
                b.unpin(n);
                b.close(n);
            }
            let mut signoffs: Vec<NodeId> = if roles { chain.to_vec() } else { Vec::new() };
            if !outermost_first {
                signoffs.reverse();
            }
            for &n in &signoffs {
                b.decrement_role(n, RoleId(0), 1);
            }
            assert_eq!(b.stats().live, 0);
            assert_eq!(b.stats().purged, DEPTH);
            let ops = 4 * DEPTH + signoffs.len() as u64;
            assert!(
                b.hold_steps <= 4 * ops,
                "roles {roles}: {} slot steps for {ops} operations",
                b.hold_steps
            );
            b.check_integrity();
        }
    }

    #[test]
    fn purge_disabled_mode_keeps_everything() {
        let mut b = BufferTree::new(false);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.close(c);
        b.close(a);
        assert_eq!(b.stats().live, 2, "no purging in full-buffering mode");
        b.check_integrity();
    }

    #[test]
    fn string_value_concatenates_subtree_text() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 1)]);
        b.append_text(a, "Hello ", &[(RoleId(0), 1)], Ordinals::FIRST);
        let inner = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.append_text(inner, "wor", &[(RoleId(0), 1)], Ordinals::FIRST);
        b.close(inner);
        b.append_text(a, "ld", &[(RoleId(0), 1)], Ordinals::FIRST);
        let mut s = String::new();
        b.string_value(a, &mut s);
        assert_eq!(s, "Hello world");
    }

    #[test]
    fn attributes_are_accessible() {
        let mut b = BufferTree::new(true);
        let mut attrs = AttrBuf::new();
        attrs.push(sym(7), "person0");
        attrs.push(sym(9), "x");
        let a = b.append_element_with_attrs(
            NodeId::ROOT,
            sym(1),
            &mut attrs,
            &[(RoleId(0), 1)],
            Ordinals::FIRST,
        );
        assert!(attrs.is_empty(), "append takes the scratch's contents");
        assert_eq!(b.attr(a, sym(7)), Some("person0"));
        assert_eq!(b.attr(a, sym(9)), Some("x"));
        assert_eq!(b.attr(a, sym(8)), None);
        assert_eq!(b.attrs(a).len(), 2);
        let pairs: Vec<_> = b.attrs(a).iter().collect();
        assert_eq!(pairs, [(sym(7), "person0"), (sym(9), "x")]);
    }

    #[test]
    fn payload_blocks_recycle_through_purge() {
        let mut b = BufferTree::new(true);
        let mut attrs = AttrBuf::new();
        for round in 0..3 {
            attrs.push(sym(7), "v");
            let a =
                b.append_element_with_attrs(NodeId::ROOT, sym(1), &mut attrs, &[], Ordinals::FIRST);
            b.append_text(a, "t", &[], Ordinals::FIRST);
            b.close(a); // purged: both payload blocks go back to the store
            assert_eq!(b.stats().live, 0, "round {round}");
            // Round 0 placed them (a 9-byte block rounded up to 12, a
            // 1-byte one to 4); later rounds take them again.
            assert_eq!(b.store.bytes.len(), 12 + 4, "round {round}");
        }
        assert_eq!(b.stats().purged, 6);
        b.check_integrity();
    }

    #[test]
    fn size_classes_round_up_by_at_most_a_quarter() {
        let mut last = (0, 1);
        for len in 1..=if cfg!(miri) { 5_000 } else { 100_000u32 } {
            let (class, units) = size_class(len);
            assert!(
                units * 4 >= len && (units - 1) * 4 < len.max(64) * 5 / 4,
                "{len}"
            );
            // Classes are numbered densely, in size order.
            assert!(
                class == last.0 && units == last.1 || class == last.0 + 1,
                "{len}"
            );
            last = (class, units);
        }
        assert_eq!(size_class(64), (15, 16));
        assert_eq!(size_class(65), (16, 20));
    }

    #[test]
    fn an_emptied_chunk_goes_back_but_one_spare_stays() {
        let slots = BufferTree::CHUNK_SLOTS as u32;
        let mut b = BufferTree::new(true);
        let grown = b.slot_bytes();
        // Four chunks' worth under one open element, then purge them all.
        let top = el(&mut b, NodeId::ROOT, 1, &[]);
        let kids: Vec<NodeId> = (0..4 * slots)
            .map(|i| el(&mut b, top, 2, &[(RoleId(i % 3), 1)]))
            .collect();
        assert_eq!(b.slot_bytes(), 5 * BufferTree::CHUNK_BYTES);
        for &k in &kids {
            b.close(k);
        }
        b.close(top);
        for (i, &k) in kids.iter().enumerate() {
            b.decrement_role(k, RoleId(i as u32 % 3), 1);
            b.check_integrity();
        }
        assert_eq!(b.stats().live, 0);
        // Chunk 0 (the root's, grown to full size) and the spare are left.
        assert!(grown < BufferTree::CHUNK_BYTES);
        assert_eq!(b.slot_bytes(), 2 * BufferTree::CHUNK_BYTES);
        assert!(kids.iter().all(|&k| !b.is_live(k)));
        // Refilling takes the free slots and the spare, then reopens.
        let again: Vec<NodeId> = (0..3 * slots)
            .map(|_| el(&mut b, NodeId::ROOT, 3, &[]))
            .collect();
        assert_eq!(b.slot_bytes(), 4 * BufferTree::CHUNK_BYTES);
        assert!(again.iter().all(|&n| b.is_live(n)));
        assert!(
            kids.iter().all(|&k| !b.is_live(k)),
            "reused slots, new generations"
        );
        b.check_integrity();
    }

    #[test]
    fn spilled_roles_shrink_and_give_their_block_back() {
        let mut b = BufferTree::new(true);
        let roles = [(RoleId(1), 2), (RoleId(4), 1), (RoleId(7), 3)];
        let a = el(&mut b, NodeId::ROOT, 1, &roles);
        b.close(a);
        assert_eq!(b.roles(a), &roles);
        assert_eq!(b.decrement_role(a, RoleId(4), 5), 1);
        assert_eq!(b.roles(a), &[(RoleId(1), 2), (RoleId(7), 3)]);
        assert_eq!(b.decrement_role(a, RoleId(1), 2), 2);
        assert_eq!(b.decrement_role(a, RoleId(7), 1), 1);
        assert_eq!(b.roles(a), &[(RoleId(7), 2)]);
        assert_eq!(b.decrement_role(a, RoleId(7), 2), 2);
        assert_eq!(b.stats().live, 0);
        // The next three-entry multiset takes the freed block.
        let c = el(&mut b, NodeId::ROOT, 1, &roles);
        assert_eq!(b.overflow.pairs.len(), 3);
        assert_eq!(b.roles(c), &roles);
        b.check_integrity();
    }

    #[test]
    fn serialize_round_trips() {
        let mut symbols = SymbolTable::new();
        let title = symbols.intern("title");
        let book = symbols.intern("book");
        let id_attr = symbols.intern("id");
        let mut b = BufferTree::new(true);
        let r = &[(RoleId(0), 1)][..];
        let mut attrs = AttrBuf::new();
        attrs.push(id_attr, "b&1");
        let bk = b.append_element_with_attrs(NodeId::ROOT, book, &mut attrs, r, Ordinals::FIRST);
        let t = b.append_element(bk, title, r, Ordinals::FIRST);
        b.append_text(t, "On <Streams>", r, Ordinals::FIRST);
        b.close(t);
        b.close(bk);
        let mut w = XmlWriter::new(Vec::new());
        b.serialize(bk, &symbols, &mut w).unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(
            out,
            "<book id=\"b&amp;1\"><title>On &lt;Streams&gt;</title></book>"
        );
    }

    #[test]
    fn an_open_subtree_serializes_what_has_arrived() {
        // <a x="1"><b>t</b><c><d/>… with a and c still open: closed
        // children whole, the open path's start tags left open, so that
        // the rest can follow on the same writer.
        let mut symbols = SymbolTable::new();
        let [a, b_, c, d, x] = ["a", "b", "c", "d", "x"].map(|n| symbols.intern(n));
        let mut b = BufferTree::new(true);
        let mut attrs = AttrBuf::new();
        attrs.push(x, "1");
        let r = &[(RoleId(0), 1)][..];
        let na = b.append_element_with_attrs(NodeId::ROOT, a, &mut attrs, r, Ordinals::FIRST);
        let nb = b.append_element(na, b_, r, Ordinals::FIRST);
        b.append_text(nb, "t", r, Ordinals::FIRST);
        b.close(nb);
        let nc = b.append_element(na, c, r, Ordinals::FIRST);
        let nd = b.append_element(nc, d, r, Ordinals::FIRST);
        b.close(nd);
        let mut w = XmlWriter::new(Vec::new());
        b.serialize(na, &symbols, &mut w).unwrap();
        assert_eq!(w.depth(), 2);
        w.text("u").unwrap();
        w.end_element().unwrap();
        w.end_element().unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(out, "<a x=\"1\"><b>t</b><c><d/>u</c></a>");
    }

    #[test]
    fn deep_chain_serializes_and_values_iteratively() {
        // 200k nested elements: recursive walks would overflow the stack.
        // (Shrunk under Miri — the iterative shape is what is under test,
        // and the interpreter would take minutes on the full depth.)
        const DEPTH: u32 = if cfg!(miri) { 2_000 } else { 200_000 };
        let mut symbols = SymbolTable::new();
        let d = symbols.intern("d");
        let mut b = BufferTree::new(false);
        let mut parent = NodeId::ROOT;
        for _ in 0..DEPTH {
            parent = b.append_element(parent, d, &[], Ordinals::FIRST);
        }
        b.append_text(parent, "bottom", &[], Ordinals::FIRST);
        let mut s = String::new();
        b.string_value(b.first_child(NodeId::ROOT).unwrap(), &mut s);
        assert_eq!(s, "bottom");
        // Open, the chain serializes as far as it has arrived and stays
        // open on the writer.
        let mut w = XmlWriter::new(Vec::new());
        b.serialize(NodeId::ROOT, &symbols, &mut w).unwrap();
        assert_eq!(w.depth() as u32, DEPTH);
        assert_eq!(w.get_ref().len() as u32, DEPTH * 3 + 6);
        // Closed, it serializes whole.
        let mut open = parent;
        while open != NodeId::ROOT {
            b.close(open);
            open = b.parent(open).unwrap();
        }
        let mut w = XmlWriter::new(Vec::new());
        b.serialize(NodeId::ROOT, &symbols, &mut w).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.len() as u32, DEPTH * 3 + DEPTH * 4 + 6);
        assert!(out.starts_with(b"<d><d>"));
        assert!(out.ends_with(b"</d></d>"));
        let text_at = (DEPTH * 3) as usize;
        assert_eq!(&out[text_at..text_at + 6], b"bottom");
    }

    #[test]
    fn peak_statistics_track_watermark() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        for i in 0..10 {
            let c = el(&mut b, a, 10 + i, &[]);
            b.close(c); // each purged right away
        }
        assert_eq!(b.stats().peak_live, 2);
        assert_eq!(b.stats().allocated, 11);
        assert_eq!(b.stats().purged, 10);
    }

    #[test]
    fn a_fold_gives_the_text_slot_back_and_changes_no_byte_read() {
        // An element of `CHUNK_SLOTS` leaves `<b>…</b>`, each element and
        // its one text carrying one instance of a fold role: folded, a
        // leaf is one slot, so the texts' chunk is never opened, and the
        // serialization and string values are those of the unfolded tree.
        let mut symbols = SymbolTable::new();
        let [r, leaf] = ["r", "b"].map(|n| symbols.intern(n));
        let (keep, copy) = (RoleId(0), RoleId(1));
        let n = BufferTree::CHUNK_SLOTS as u64;
        let build = |fold: bool| {
            let mut b = BufferTree::new(true);
            if fold {
                b.fold_copies(1 << copy.0);
            }
            let top = b.append_element(NodeId::ROOT, r, &[(keep, 1)], Ordinals::FIRST);
            let leaves: Vec<NodeId> = (0..n)
                .map(|i| {
                    let l = b.append_element(top, leaf, &[(copy, 1)], Ordinals::FIRST);
                    b.append_text(l, &format!("t{i} & <{i}>"), &[(copy, 1)], Ordinals::FIRST);
                    b.close(l);
                    l
                })
                .collect();
            b.close(top);
            b.check_integrity();
            (b, top, leaves)
        };
        let (plain, top, plain_leaves) = build(false);
        let (mut folded, _, leaves) = build(true);
        let (p, f) = (plain.stats(), folded.stats());
        assert_eq!((p.folded, f.folded, f.purged), (0, n, n));
        assert_eq!(f.live, p.live - n);
        assert_eq!(f.live_bytes, p.live_bytes - n * SLOT_BYTES);
        // At most one text at a time is a node: the last, before its close.
        assert_eq!(f.peak_live_bytes, p.peak_live_bytes - (n - 1) * SLOT_BYTES);
        // The root, `r` and 2 × 256 nodes take three chunks; folded, the
        // root, `r` and 256 leaves two.
        assert_eq!(plain.slot_bytes(), 3 * BufferTree::CHUNK_BYTES);
        assert_eq!(folded.slot_bytes(), 2 * BufferTree::CHUNK_BYTES);
        let written = |b: &BufferTree| {
            let mut w = XmlWriter::new(Vec::new());
            b.serialize(top, &symbols, &mut w).unwrap();
            w.finish().unwrap()
        };
        assert_eq!(written(&folded), written(&plain));
        for (&l, &pl) in leaves.iter().zip(&plain_leaves) {
            assert_eq!(folded.first_child(l), None, "folded");
            assert!(folded.attrs(l).is_empty() && folded.text_content(l).is_none());
            let (mut got, mut want) = (String::new(), String::new());
            folded.string_value(l, &mut got);
            plain.string_value(pl, &mut want);
            assert_eq!(got, want);
        }
        let (mut got, mut want) = (String::new(), String::new());
        folded.string_value(top, &mut got);
        plain.string_value(top, &mut want);
        assert_eq!(got, want);
        // Signed off, a folded leaf is purged with its text's block.
        for &l in &leaves {
            assert_eq!(folded.decrement_role(l, copy, 1), 1);
        }
        folded.decrement_role(top, keep, 1);
        let f = folded.stats();
        assert_eq!((f.live, f.live_bytes, f.allocated), (0, 0, f.purged));
        folded.check_integrity();
    }
}

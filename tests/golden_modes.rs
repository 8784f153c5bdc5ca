//! Golden pin of the stand-alone engine's measurements: the 11 paper
//! queries over one seed-42 XMark document in each of the three buffer
//! configurations the paper compares (GCX, projection only, full
//! buffering). A refactoring of the
//! evaluation core must reproduce every one of them — token counts,
//! buffer peaks in nodes and bytes, appends, purges and output size —
//! with telemetry off and on alike, and, with it on, the same residency
//! histogram (the telemetry clock counts every structural token, skipped
//! ones included).
//!
//! The numbers are those of the engine before the evaluation paths were
//! unified, with one deliberate re-pin (lazy prefix materialisation): an
//! element the projection keeps without a role is appended only once a
//! descendant earns one, so in the two *projecting* modes the three `//`
//! queries append and purge fewer nodes and peak lower. The pin moved by
//! a derivation, not by copying the run: `common::project` walks the
//! document with the projection matcher alone and counts the role-less
//! elements no descendant of which earns a role (`never_needed`), and
//! `old appends − never needed = new appends` (same for purges) is
//! asserted against [`BEFORE_LAZY_PREFIX`]. Tokens, output sizes and the
//! non-projecting mode are byte-for-byte the old pins.
//!
//! Two more re-pins moved the byte peaks alone, down, when a node's charge
//! fell from a 168-byte record to an 80-byte slot and then to a 72-byte
//! one; the relation is asserted against [`BEFORE_COMPACT`] and
//! [`BEFORE_HOLD_COUNTS`].
//!
//! The last re-pin (copy-through) moved `gcx` rows alone, and only down: a
//! copy the evaluator starts while its element is open is written as the
//! element streams in, and a node only the copy needs is not appended.
//! `common::written_through` counts those nodes from the output of a
//! session fed one byte at a time — a node whose own serialization was
//! written the moment it arrived — and `old appends − written through =
//! new appends` (same for purges) is asserted against
//! [`BEFORE_COPY_THROUGH`]. That count reads the engine's own output, so
//! it is pinned per query as well ([`WRITTEN_THROUGH`]).
//!
//! The root-aggregate re-pin (root aggregates release each match as they
//! consume it) moved one row, Q6_COUNT's `gcx` row, and only its two
//! peaks, down: the count removes an item's role as soon as it has counted
//! the item, so the buffer holds one item at a time instead of the whole
//! region. The same nodes are appended and purged, only earlier; tokens
//! and output do not move. The relation is asserted against
//! [`BEFORE_RELEASE`].
//!
//! The latest re-pin moved byte peaks alone, down, when a node's slot fell
//! from 72 to 48 bytes — 24 bytes per node, 12 under a program with a
//! positional step, which now keeps ordinals in the payload; the relation
//! is asserted against [`BEFORE_SLOT48`], with each query's saving derived
//! from its compiled program.
//!
//! The fold re-pin moved `gcx` rows alone, and only their peaks, down: an
//! element that closes with one text child, the two carrying one instance
//! of a copy's role and nothing else, takes the text in, and the text's
//! 48-byte slot goes back. Appends, purges (a folded text counts as one),
//! tokens and outputs do not move; a peak falls by one node and 48 bytes
//! per text folded at it. The relation is asserted against
//! [`BEFORE_FOLD`], and the folds per query are pinned ([`FOLDED`]).

mod common;

use gcx::xmark::{generate_string, queries, XmarkConfig};
use gcx::{CompiledQuery, EngineOptions};

fn doc() -> String {
    let mut cfg = XmarkConfig::sized(128 * 1024);
    cfg.seed = 42;
    generate_string(&cfg)
}

fn modes() -> [(&'static str, EngineOptions); 3] {
    [
        ("gcx", EngineOptions::gcx()),
        ("projection_only", EngineOptions::projection_only()),
        ("full_buffering", EngineOptions::full_buffering()),
    ]
}

/// `[tokens, peak_live, peak_live_bytes, allocated, purged, output_bytes]`
/// per query (in `paper_queries()` order), per mode (in `modes()` order).
/// Byte peaks re-pinned with compact buffer storage, again with hold
/// counts and again with 48-byte slots; see [`BEFORE_COMPACT`],
/// [`BEFORE_HOLD_COUNTS`] and [`BEFORE_SLOT48`]. The `gcx` rows re-pinned
/// with copy-through; see [`BEFORE_COPY_THROUGH`], Q6_COUNT's `gcx` row
/// with released aggregates; see [`BEFORE_RELEASE`], and the `gcx` rows
/// of Q8, Q14 and Q19 with folded leaves; see [`BEFORE_FOLD`].
#[rustfmt::skip]
const PINNED: [[[u64; 6]; 3]; 11] = [
    // Q1
    [[9900, 5, 271, 316, 316, 25], [9900, 317, 18085, 317, 0, 25], [9900, 6067, 341417, 6067, 0, 25]],
    // Q6
    [[9900, 5, 268, 186, 186, 3526], [9900, 275, 15633, 275, 0, 3526], [9900, 6067, 341417, 6067, 0, 3526]],
    // Q8
    [[9900, 333, 20032, 437, 437, 5111], [9900, 438, 25084, 438, 0, 5111], [9900, 6067, 341417, 6067, 0, 5111]],
    // Q13
    [[9900, 8, 559, 78, 78, 2624], [9900, 93, 6291, 93, 0, 2624], [9900, 6067, 341417, 6067, 0, 2624]],
    // Q20
    [[9900, 4, 226, 185, 185, 1068], [9900, 185, 11853, 185, 0, 1068], [9900, 6067, 341417, 6067, 0, 1068]],
    // Q2
    [[9900, 6, 388, 171, 171, 1189], [9900, 171, 11561, 171, 0, 1189], [9900, 6067, 414221, 6067, 0, 1189]],
    // Q3
    [[9900, 9, 574, 301, 301, 1289], [9900, 301, 19648, 301, 0, 1289], [9900, 6067, 414221, 6067, 0, 1289]],
    // Q14
    [[9900, 8, 600, 542, 542, 702], [9900, 542, 38030, 542, 0, 702], [9900, 6067, 341417, 6067, 0, 702]],
    // Q17
    [[9900, 5, 331, 317, 317, 4361], [9900, 317, 21889, 317, 0, 4361], [9900, 6067, 414221, 6067, 0, 4361]],
    // Q19
    [[9900, 6, 310, 63, 63, 999], [9900, 78, 4231, 78, 0, 999], [9900, 6067, 341417, 6067, 0, 999]],
    // Q6_COUNT
    [[9900, 5, 268, 97, 97, 17], [9900, 97, 5892, 97, 0, 17], [9900, 6067, 341417, 6067, 0, 17]],
];

/// The `gcx` rows of [`PINNED`] (first of each query) as they stood while
/// every buffered text was a node of its own. An element that closes with
/// one text child, the two carrying one instance of a copy's role
/// (`…/descendant-or-self::node()` of an output path) and nothing else,
/// now takes the text in, and the text's slot goes back:
///
/// | query | texts folded ([`FOLDED`]) | peak nodes / bytes |
/// |---|---|---|
/// | Q1 | 104, one `name` per person | 5 / 271 → 5 / 271 |
/// | Q8 | 104, every person's `name` (the join holds them to the end) | 437 / 25024 → 333 / 20032 |
/// | Q13 | 15 | 8 / 559 → 8 / 559 |
/// | Q14 | 89, each item's `name`, held while `description` is tested | 9 / 648 → 8 / 600 |
/// | Q19 | 15, each item's `location`, held until its `name` is copied | 7 / 358 → 6 / 310 |
///
/// Appends and purges do not move (a folded text counts as purged), nor do
/// tokens, outputs, or any row of the two other modes, which never fold.
#[rustfmt::skip]
const BEFORE_FOLD: [[u64; 6]; 11] = [
    [9900, 5, 271, 316, 316, 25],
    [9900, 5, 268, 186, 186, 3526],
    [9900, 437, 25024, 437, 437, 5111],
    [9900, 8, 559, 78, 78, 2624],
    [9900, 4, 226, 185, 185, 1068],
    [9900, 6, 388, 171, 171, 1189],
    [9900, 9, 574, 301, 301, 1289],
    [9900, 9, 648, 542, 542, 702],
    [9900, 5, 331, 317, 317, 4361],
    [9900, 7, 358, 63, 63, 999],
    [9900, 5, 268, 97, 97, 17],
];

/// Texts per query the `gcx` engine folds into their element (the middle
/// column of the table above). Q17 has a positional step (its `exists`
/// normalizes to `homepage[1]`), so nothing folds there.
const FOLDED: [(&str, u64); 11] = [
    ("Q1", 104),
    ("Q6", 0),
    ("Q8", 104),
    ("Q13", 15),
    ("Q20", 0),
    ("Q2", 0),
    ("Q3", 0),
    ("Q14", 89),
    ("Q17", 0),
    ("Q19", 15),
    ("Q6_COUNT", 0),
];

/// [`PINNED`] before the fold: its `gcx` rows from [`BEFORE_FOLD`]. The
/// earlier re-pins are asserted against this.
fn pinned_before_fold() -> [[[u64; 6]; 3]; 11] {
    let mut before = PINNED;
    for (rows, gcx) in before.iter_mut().zip(BEFORE_FOLD) {
        rows[0] = gcx;
    }
    before
}

#[test]
fn the_fold_re_pin_moves_gcx_peaks_down_by_a_slot_per_text_folded_at_the_peak() {
    let doc = doc();
    let mut moved = 0;
    for ((((name, text), rows), before), (pinned, folded)) in queries::paper_queries()
        .into_iter()
        .zip(PINNED)
        .zip(BEFORE_FOLD)
        .zip(FOLDED)
    {
        assert_eq!(name, pinned);
        let q = CompiledQuery::compile(text).unwrap();
        for ((mode, opts), want) in modes().into_iter().zip([folded, 0, 0]) {
            let r = gcx::run(&q, &opts, doc.as_bytes(), std::io::sink()).unwrap();
            assert_eq!(r.buffer.folded, want, "{name}/{mode}: texts folded");
        }
        let now = rows[0];
        let [tokens, peak, peak_bytes, allocated, purged, output] = before;
        assert_eq!(
            [tokens, allocated, purged, output],
            [now[0], now[3], now[4], now[5]],
            "{name}: tokens, appends, purges, output"
        );
        let at_peak = peak - now[1];
        assert!(
            at_peak <= folded,
            "{name}: {at_peak} fewer nodes at the peak"
        );
        assert_eq!(peak_bytes - now[2], 48 * at_peak, "{name}: a slot per text");
        moved += usize::from(at_peak > 0);
    }
    assert_eq!(moved, 3, "Q8, Q14 and Q19 hold a folded text at their peak");
}

/// [`PINNED`] as it stood while a buffered node was charged a 72-byte
/// slot. The slot lost three ordinals (kept, where a program reads them,
/// at the head of the node's payload), its payload length and its last
/// child (both derived) and its role-entry count (packed into the role
/// word): 24 bytes per node, or 12 under a program with a positional step
/// (Q2's and Q3's `bidder[k]`, and Q17's `exists($p/homepage)`, which
/// normalizes to the witness `homepage[1]`), whose nodes now carry their
/// 12 bytes of ordinals in the payload. Every column but the byte peak is
/// unchanged; see [`assert_byte_peaks_fell_by_at_most`].
#[rustfmt::skip]
const BEFORE_SLOT48: [[[u64; 6]; 3]; 11] =[
    // Q1
    [[9900, 5, 391, 316, 316, 25], [9900, 317, 25693, 317, 0, 25], [9900, 6067, 487025, 6067, 0, 25]],
    // Q6
    [[9900, 5, 388, 186, 186, 3526], [9900, 275, 22233, 275, 0, 3526], [9900, 6067, 487025, 6067, 0, 3526]],
    // Q8
    [[9900, 437, 35512, 437, 437, 5111], [9900, 438, 35596, 438, 0, 5111], [9900, 6067, 487025, 6067, 0, 5111]],
    // Q13
    [[9900, 8, 751, 78, 78, 2624], [9900, 93, 8523, 93, 0, 2624], [9900, 6067, 487025, 6067, 0, 2624]],
    // Q20
    [[9900, 4, 322, 185, 185, 1068], [9900, 185, 16293, 185, 0, 1068], [9900, 6067, 487025, 6067, 0, 1068]],
    // Q2
    [[9900, 6, 460, 171, 171, 1189], [9900, 171, 13613, 171, 0, 1189], [9900, 6067, 487025, 6067, 0, 1189]],
    // Q3
    [[9900, 9, 682, 301, 301, 1289], [9900, 301, 23260, 301, 0, 1289], [9900, 6067, 487025, 6067, 0, 1289]],
    // Q14
    [[9900, 9, 864, 542, 542, 702], [9900, 542, 51038, 542, 0, 702], [9900, 6067, 487025, 6067, 0, 702]],
    // Q17
    [[9900, 5, 391, 317, 317, 4361], [9900, 317, 25693, 317, 0, 4361], [9900, 6067, 487025, 6067, 0, 4361]],
    // Q19
    [[9900, 7, 526, 63, 63, 999], [9900, 78, 6103, 78, 0, 999], [9900, 6067, 487025, 6067, 0, 999]],
    // Q6_COUNT
    [[9900, 5, 388, 97, 97, 17], [9900, 97, 8220, 97, 0, 17], [9900, 6067, 487025, 6067, 0, 17]],
];

/// Q6_COUNT's `gcx` row of [`BEFORE_SLOT48`] while a root `count()` kept every
/// counted item until the query-end signOff: 97 nodes (`site`, `regions`,
/// its six region children and 89 items) live at once, 8220 bytes.
/// Released as counted, the items pass through one at a time.
const BEFORE_RELEASE: (&str, [u64; 6]) = ("Q6_COUNT", [9900, 97, 8220, 97, 97, 17]);

#[test]
fn the_release_re_pin_moves_only_q6_count_peaks_down() {
    let (moved, before) = BEFORE_RELEASE;
    for ((name, _), rows) in queries::paper_queries().into_iter().zip(BEFORE_SLOT48) {
        if name != moved {
            continue;
        }
        let now = rows[0];
        let [tokens, peak, peak_bytes, allocated, purged, output] = before;
        assert_eq!(
            [tokens, allocated, purged, output],
            [now[0], now[3], now[4], now[5]],
            "{name}: tokens, appends, purges, output"
        );
        assert!(now[1] < peak && now[2] < peak_bytes, "{name}: peaks");
        return;
    }
    panic!("{moved} is not a paper query");
}

/// The `gcx` rows of [`BEFORE_SLOT48`] (first of each query) as they stood while
/// every copied element was buffered whole and serialized after its end
/// tag. Five queries copy an element the evaluator reaches while it is
/// still open, and the nodes only that copy needs are written through:
///
/// | query | copy started at arrival | appends old − written through = new | peak nodes / bytes |
/// |---|---|---|---|
/// | Q1 | `$b/name` of person0 | 317 − 1 = 316 | 5 / 391 → 5 / 391 |
/// | Q6 | every `$i/name` | 275 − 89 = 186 | 6 / 465 → 5 / 388 |
/// | Q8 | the first person's `$p/name` (the join holds the rest back) | 438 − 1 = 437 | 438 / 35596 → 437 / 35512 |
/// | Q13 | `$i/name`, then `$i/description` | 93 − 15 = 78 | 9 / 833 → 8 / 751 |
/// | Q19 | `$i/name` (its `location` came first) | 78 − 15 = 63 | 8 / 614 → 7 / 526 |
///
/// Purges move by the same count (every append is purged in `gcx`);
/// tokens and outputs do not move, nor does any row of the two other
/// modes, which never write through.
#[rustfmt::skip]
const BEFORE_COPY_THROUGH: [[u64; 6]; 11] = [
    [9900, 5, 391, 317, 317, 25],
    [9900, 6, 465, 275, 275, 3526],
    [9900, 438, 35596, 438, 438, 5111],
    [9900, 9, 833, 93, 93, 2624],
    [9900, 4, 322, 185, 185, 1068],
    [9900, 6, 460, 171, 171, 1189],
    [9900, 9, 682, 301, 301, 1289],
    [9900, 9, 864, 542, 542, 702],
    [9900, 5, 391, 317, 317, 4361],
    [9900, 8, 614, 78, 78, 999],
    [9900, 97, 8220, 97, 97, 17],
];

/// [`BEFORE_SLOT48`] before copy-through: its `gcx` rows from
/// [`BEFORE_COPY_THROUGH`]. The earlier re-pins are asserted against this.
fn pinned_before_copy_through() -> [[[u64; 6]; 3]; 11] {
    let mut before = BEFORE_SLOT48;
    for (rows, gcx) in before.iter_mut().zip(BEFORE_COPY_THROUGH) {
        rows[0] = gcx;
    }
    before
}

/// Nodes per query the `gcx` engine writes through instead of appending
/// (the middle term of the table above). Pinned, so that a copy that stops
/// writing through — fewer nodes written, as many more appended — fails
/// here and not only in [`PINNED`].
const WRITTEN_THROUGH: [(&str, u64); 11] = [
    ("Q1", 1),
    ("Q6", 89),
    ("Q8", 1),
    ("Q13", 15),
    ("Q20", 0),
    ("Q2", 0),
    ("Q3", 0),
    ("Q14", 0),
    ("Q17", 0),
    ("Q19", 15),
    ("Q6_COUNT", 0),
];

#[test]
fn the_copy_through_re_pin_is_the_old_pin_minus_what_was_written_through() {
    let doc = doc();
    let mut moved = 0;
    for ((((name, text), now), before), (pinned, written)) in queries::paper_queries()
        .into_iter()
        .zip(BEFORE_SLOT48)
        .zip(BEFORE_COPY_THROUGH)
        .zip(WRITTEN_THROUGH)
    {
        assert_eq!(name, pinned);
        let q = CompiledQuery::compile(text).unwrap();
        assert_eq!(
            common::project(&q, None, &doc).written_through,
            written,
            "{name}: nodes written through"
        );
        let [tokens, peak, peak_bytes, allocated, purged, output] = before;
        let now = now[0];
        assert_eq!([tokens, output], [now[0], now[5]], "{name}: tokens, output");
        assert_eq!(allocated - written, now[3], "{name}: appends");
        assert_eq!(purged - written, now[4], "{name}: purges");
        assert!(now[1] <= peak && now[2] <= peak_bytes, "{name}: peaks");
        moved += usize::from(written > 0);
    }
    assert_eq!(moved, 5, "Q1, Q6, Q8, Q13 and Q19 copy an open element");
}

/// [`PINNED`] as it stood while a buffered node was charged an 80-byte
/// slot: a slot lost its two subtree aggregates (an 8-byte role total and a
/// 4-byte pin total) for one 4-byte hold count, so each node's charge fell
/// by 8 bytes. Same relation as [`BEFORE_COMPACT`]: exactly
/// `old − 8 × peak_live` where nothing is purged, within
/// `[old − 8 × peak_live, old]` elsewhere.
#[rustfmt::skip]
const BEFORE_HOLD_COUNTS: [[[u64; 6]; 3]; 11] = [
    // Q1
    [[9900, 5, 431, 317, 317, 25], [9900, 317, 28229, 317, 0, 25], [9900, 6067, 535561, 6067, 0, 25]],
    // Q6
    [[9900, 6, 513, 275, 275, 3526], [9900, 275, 24433, 275, 0, 3526], [9900, 6067, 535561, 6067, 0, 3526]],
    // Q8
    [[9900, 438, 39100, 438, 438, 5111], [9900, 438, 39100, 438, 0, 5111], [9900, 6067, 535561, 6067, 0, 5111]],
    // Q13
    [[9900, 9, 905, 93, 93, 2624], [9900, 93, 9267, 93, 0, 2624], [9900, 6067, 535561, 6067, 0, 2624]],
    // Q20
    [[9900, 4, 354, 185, 185, 1068], [9900, 185, 17773, 185, 0, 1068], [9900, 6067, 535561, 6067, 0, 1068]],
    // Q2
    [[9900, 6, 508, 171, 171, 1189], [9900, 171, 14981, 171, 0, 1189], [9900, 6067, 535561, 6067, 0, 1189]],
    // Q3
    [[9900, 9, 754, 301, 301, 1289], [9900, 301, 25668, 301, 0, 1289], [9900, 6067, 535561, 6067, 0, 1289]],
    // Q14
    [[9900, 9, 936, 542, 542, 702], [9900, 542, 55374, 542, 0, 702], [9900, 6067, 535561, 6067, 0, 702]],
    // Q17
    [[9900, 5, 431, 317, 317, 4361], [9900, 317, 28229, 317, 0, 4361], [9900, 6067, 535561, 6067, 0, 4361]],
    // Q19
    [[9900, 8, 678, 78, 78, 999], [9900, 78, 6727, 78, 0, 999], [9900, 6067, 535561, 6067, 0, 999]],
    // Q6_COUNT
    [[9900, 97, 8996, 97, 97, 17], [9900, 97, 8996, 97, 0, 17], [9900, 6067, 535561, 6067, 0, 17]],
];

/// [`BEFORE_HOLD_COUNTS`] as it stood while a buffered node was charged a
/// 168-byte record; every column but the byte peak is unchanged. A node
/// was then charged its 80-byte slot, payload counted as before, so each node's
/// charge fell by 88 bytes: a peak of `old` bytes at `peak_live` nodes
/// becomes exactly `old − 88 × peak_live` where nothing is purged (the
/// peak is the end state), and lands in `[old − 88 × peak_live, old]`
/// elsewhere (the high-water may now fall at another token, where fewer
/// nodes carried more payload).
#[rustfmt::skip]
const BEFORE_COMPACT: [[[u64; 6]; 3]; 11] = [
    // Q1
    [[9900, 5, 871, 317, 317, 25], [9900, 317, 56125, 317, 0, 25], [9900, 6067, 1069457, 6067, 0, 25]],
    // Q6
    [[9900, 6, 1041, 275, 275, 3526], [9900, 275, 48633, 275, 0, 3526], [9900, 6067, 1069457, 6067, 0, 3526]],
    // Q8
    [[9900, 438, 77644, 438, 438, 5111], [9900, 438, 77644, 438, 0, 5111], [9900, 6067, 1069457, 6067, 0, 5111]],
    // Q13
    [[9900, 9, 1697, 93, 93, 2624], [9900, 93, 17451, 93, 0, 2624], [9900, 6067, 1069457, 6067, 0, 2624]],
    // Q20
    [[9900, 4, 706, 185, 185, 1068], [9900, 185, 34053, 185, 0, 1068], [9900, 6067, 1069457, 6067, 0, 1068]],
    // Q2
    [[9900, 6, 1036, 171, 171, 1189], [9900, 171, 30029, 171, 0, 1189], [9900, 6067, 1069457, 6067, 0, 1189]],
    // Q3
    [[9900, 9, 1546, 301, 301, 1289], [9900, 301, 52156, 301, 0, 1289], [9900, 6067, 1069457, 6067, 0, 1289]],
    // Q14
    [[9900, 9, 1728, 542, 542, 702], [9900, 542, 103070, 542, 0, 702], [9900, 6067, 1069457, 6067, 0, 702]],
    // Q17
    [[9900, 5, 871, 317, 317, 4361], [9900, 317, 56125, 317, 0, 4361], [9900, 6067, 1069457, 6067, 0, 4361]],
    // Q19
    [[9900, 8, 1382, 78, 78, 999], [9900, 78, 13591, 78, 0, 999], [9900, 6067, 1069457, 6067, 0, 999]],
    // Q6_COUNT
    [[9900, 97, 17532, 97, 97, 17], [9900, 97, 17532, 97, 0, 17], [9900, 6067, 1069457, 6067, 0, 17]],
];

/// The `gcx` and `projection_only` rows of [`PINNED`] as they stood while
/// speculative ancestors were appended at their start tag, for the
/// queries where that made a difference (`//item` below `/site/regions`
/// or anywhere): `(query, never needed, [gcx row, projection_only row])`.
///
/// | query | appends old − never needed = new | peak nodes / bytes (gcx) | (projection_only) |
/// |---|---|---|---|
/// | Q6 | 1027 − 752 = 275 | 8 / 1394 → 6 / 1041 | 277 / 48986 → 275 / 48633 |
/// | Q14 | 4011 − 3469 = 542 | 11 / 2081 → 9 / 1728 | 547 / 103949 → 542 / 103070 |
/// | Q6_COUNT | 938 − 841 = 97 | 99 / 17868 → 97 / 17532 | 99 / 17868 → 97 / 17532 |
///
/// Purges move by the same count: in `projection_only` the never-needed
/// elements were the *only* purges (roles are never signed off there), so
/// 752 / 3469 / 841 → 0.
#[rustfmt::skip]
const BEFORE_LAZY_PREFIX: [(&str, u64, [[u64; 6]; 2]); 3] = [
    ("Q6", 752, [[9900, 8, 1394, 1027, 1027, 3526], [9900, 277, 48986, 1027, 752, 3526]]),
    ("Q14", 3469, [[9900, 11, 2081, 4011, 4011, 702], [9900, 547, 103949, 4011, 3469, 702]]),
    ("Q6_COUNT", 841, [[9900, 99, 17868, 938, 938, 17], [9900, 99, 17868, 938, 841, 17]]),
];

#[test]
fn the_re_pin_is_the_old_pin_minus_what_was_never_needed() {
    let doc = doc();
    let mut moved = 0;
    for ((name, text), now) in queries::paper_queries()
        .into_iter()
        .zip(pinned_before_copy_through())
    {
        let q = CompiledQuery::compile(text).unwrap();
        let never = common::project(&q, None, &doc).never_needed;
        let Some((_, pinned_never, before)) = BEFORE_LAZY_PREFIX.iter().find(|(n, ..)| *n == name)
        else {
            assert_eq!(never, 0, "{name}: nothing speculative, nothing re-pinned");
            continue;
        };
        moved += 1;
        assert_eq!(never, *pinned_never, "{name}");
        for (before, now) in before.iter().zip(now) {
            let [tokens, peak, peak_bytes, allocated, purged, output] = *before;
            assert_eq!([tokens, output], [now[0], now[5]], "{name}: tokens, output");
            assert_eq!(allocated - never, now[3], "{name}: appends");
            assert_eq!(purged - never, now[4], "{name}: purges");
            assert!(now[1] <= peak && now[2] <= peak_bytes, "{name}: peaks");
        }
    }
    assert_eq!(moved, BEFORE_LAZY_PREFIX.len());
}

/// Every column of `after` equals `before` but the byte peak, which fell by
/// exactly `saved[q]` bytes per peak node of query `q` where nothing is
/// purged and by at most that elsewhere.
fn assert_byte_peaks_fell_by_at_most(
    saved: [u64; 11],
    before: &[[[u64; 6]; 3]; 11],
    after: &[[[u64; 6]; 3]; 11],
) {
    for (q, (before, now)) in before.iter().zip(after).enumerate() {
        let saved = saved[q];
        for (m, (before, now)) in before.iter().zip(now).enumerate() {
            let (old, new, nodes) = (before[2], now[2], before[1]);
            assert_eq!(
                [before[0], before[1], before[3], before[4], before[5]],
                [now[0], now[1], now[3], now[4], now[5]],
                "query {q}, mode {m}"
            );
            if before[4] == 0 {
                assert_eq!(
                    new,
                    old - saved * nodes,
                    "query {q}, mode {m}: nothing purged"
                );
            } else {
                assert!(
                    (old - saved * nodes..=old).contains(&new),
                    "query {q}, mode {m}: {new}"
                );
            }
        }
    }
}

#[test]
fn the_compact_re_pin_moves_each_byte_peak_down_by_at_most_the_slot_saving() {
    // A 168-byte record → an 80-byte slot.
    assert_byte_peaks_fell_by_at_most([168 - 80; 11], &BEFORE_COMPACT, &BEFORE_HOLD_COUNTS);
}

#[test]
fn the_hold_count_re_pin_moves_each_byte_peak_down_by_at_most_the_slot_saving() {
    // An 80-byte slot → a 72-byte one.
    assert_byte_peaks_fell_by_at_most(
        [80 - 72; 11],
        &BEFORE_HOLD_COUNTS,
        &pinned_before_copy_through(),
    );
}

#[test]
fn the_slot48_re_pin_moves_each_byte_peak_down_by_at_most_the_slot_saving() {
    // A 72-byte slot → a 48-byte one, plus 12 bytes of ordinals per node
    // where the program has a positional step.
    let saved: Vec<u64> = queries::paper_queries()
        .into_iter()
        .map(|(_, text)| {
            let q = CompiledQuery::compile(text).unwrap();
            if q.program.positional() {
                72 - (48 + 12)
            } else {
                72 - 48
            }
        })
        .collect();
    let positional: Vec<&str> = queries::paper_queries()
        .into_iter()
        .zip(&saved)
        .filter(|&(_, &saved)| saved == 12)
        .map(|((name, _), _)| name)
        .collect();
    assert_eq!(positional, ["Q2", "Q3", "Q17"]);
    let saved = saved.try_into().expect("11 paper queries");
    assert_byte_peaks_fell_by_at_most(saved, &BEFORE_SLOT48, &pinned_before_fold());
}

/// Every case runs with telemetry off and on: telemetry changes no output
/// and no measurement.
#[test]
fn paper_queries_measure_the_same_in_all_three_modes() {
    let doc = doc();
    for ((name, text), want) in queries::paper_queries().into_iter().zip(PINNED) {
        let q = CompiledQuery::compile(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for ((mode, opts), want) in modes().into_iter().zip(want) {
            let mut outputs = Vec::new();
            for opts in [opts.clone(), opts.with_telemetry()] {
                let traced = opts.telemetry;
                let mut out = Vec::new();
                let r = gcx::run(&q, &opts, doc.as_bytes(), &mut out)
                    .unwrap_or_else(|e| panic!("{name}/{mode}/telemetry {traced}: {e}"));
                assert_eq!(r.output_bytes, out.len() as u64, "{name}/{mode}");
                let got = [
                    r.tokens,
                    r.buffer.peak_live,
                    r.buffer.peak_live_bytes,
                    r.buffer.allocated,
                    r.buffer.purged,
                    r.output_bytes,
                ];
                assert_eq!(got, want, "{name}/{mode}/telemetry {traced}");
                assert_eq!(r.obs.is_some(), traced, "{name}/{mode}");
                outputs.push(out);
            }
            assert!(
                outputs[0] == outputs[1],
                "{name}/{mode}: telemetry changed the output"
            );
        }
    }
}

/// With telemetry on: `(count, sum)` of the append→purge residency
/// histogram and the sampled live-bytes timeline. Residency is measured
/// on the structural-token clock, so these move if a skipped token stops
/// advancing it or a purge lands one token earlier or later.
///
/// Re-pinned with [`PINNED`] (old → new): the count is the purge count
/// (Q6 1027 − 752, Q14 4011 − 3469, projection-only Q6 752 − 752); the sum
/// loses the never-needed elements' residencies and the tokens a
/// late-materialised ancestor waited outside the buffer (Q6 30808 →
/// 28145, Q14 53937 → 31585, projection-only 2661 → 0); every timeline
/// sample is lower by the ancestors still pending at that token — `site`
/// at token 1 (168 → 0), `site` + the open region's ancestors later (Q14:
/// 1805 → 1637, 1869 → 1701, then 1024 / 873 / 861 / 862 / 840 → 336 past
/// `regions`, where `//item` used to hold every open element).
///
/// Re-pinned again with [`BEFORE_COMPACT`]: residencies are unchanged,
/// and each timeline sample fell by 88 bytes per node live at that token
/// (Q6: 1037 → 509 and 1036 → 508 at six nodes, 336 → 160 at two; Q14:
/// 1637 → 845 and 1701 → 909 at nine; projection-only Q6 21032 → 10560,
/// 41731 → 20963, then its end state 48633 → 24433 at 275).
///
/// And with [`BEFORE_HOLD_COUNTS`]: residencies unchanged, each sample 8
/// bytes lower per node live at that token (Q6: 509 → 461, 508 → 460,
/// 160 → 144; Q14: 845 → 773, 909 → 837; projection-only Q6 10560 → 9608
/// at 119 nodes, 20963 → 19075 at 236, 24433 → 22233 at 275).
///
/// And with [`BEFORE_COPY_THROUGH`], Q6/gcx alone (it writes each item's
/// name text through; Q14 copies names only after their item's
/// description has closed): the count is the purge count 275 − 89 = 186,
/// the sum loses those 89 texts' residencies (28145 → 26463), and the
/// samples at tokens 1025 and 2049 lose the name text then live (461 →
/// 374, 460 → 374: one 72-byte slot and its payload).
///
/// And with [`BEFORE_SLOT48`]: residencies unchanged, each sample 24
/// bytes lower per node live at that token (Q6: 374 → 254 at five nodes,
/// 144 → 96 at two; Q14: 773 → 557 and 837 → 621 at nine, 144 → 96 at
/// two; projection-only Q6: 9608 → 6752 at 119 nodes, 19075 → 13411 at
/// 236, 22233 → 15633 at 275).
///
/// And with [`BEFORE_FOLD`], Q14/gcx alone (Q6 writes its names through):
/// the count stays the purge count, the sum loses what the 89 folded name
/// texts waited between their element's end tag and its signOff (31585 →
/// 29992), and the samples at tokens 1025 and 2049 lose the slot of the
/// one folded text then live (557 → 509, 621 → 573).
fn assert_telemetry(
    what: &str,
    text: &str,
    opts: EngineOptions,
    residency: (u64, u64),
    timeline: &[(u64, u64)],
) {
    let q = CompiledQuery::compile(text).unwrap();
    let r = gcx::run(
        &q,
        &opts.with_telemetry(),
        doc().as_bytes(),
        std::io::sink(),
    )
    .unwrap();
    let obs = r.obs.expect("telemetry on");
    let got = (obs.residency_tokens.count(), obs.residency_tokens.sum());
    assert_eq!(got, residency, "{what}: residency (count, sum)");
    assert_eq!(got.0, r.buffer.purged, "{what}: one observation per purge");
    let samples: Vec<(u64, u64)> = r
        .timeline
        .expect("telemetry samples")
        .live_bytes()
        .collect();
    assert_eq!(samples, timeline, "{what}: timeline");
}

#[test]
#[rustfmt::skip]
fn telemetry_clock_is_pinned() {
    assert_telemetry(
        "Q6/gcx", queries::Q6, EngineOptions::gcx(), (186, 26463),
        &[(1, 0), (1025, 254), (2049, 254), (3073, 96), (4097, 96), (5121, 96), (6145, 96), (7169, 96), (8193, 96), (9217, 96)],
    );
    assert_telemetry(
        "Q14/gcx", queries::extra::Q14, EngineOptions::gcx(), (542, 29992),
        &[(1, 0), (1025, 509), (2049, 573), (3073, 96), (4097, 96), (5121, 96), (6145, 96), (7169, 96), (8193, 96), (9217, 96)],
    );
    assert_telemetry(
        "Q6/projection_only", queries::Q6, EngineOptions::projection_only(), (0, 0),
        &[(1, 0), (1025, 6752), (2049, 13411), (3073, 15633), (4097, 15633), (5121, 15633), (6145, 15633), (7169, 15633), (8193, 15633), (9217, 15633)],
    );
}

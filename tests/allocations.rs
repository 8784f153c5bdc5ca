//! Allocation-discipline assertions for the hot path, built on the
//! `gcx-memtrack` global allocator's event counter.
//!
//! The claim under test: after warm-up, the token→buffer path — tokenizer,
//! projection matcher (NFA step and memo), the lane's pending chain,
//! buffer append/purge — performs **O(1) allocations total**, i.e. ≈ 0
//! per token. The test measures the same pipeline over a
//! document and over one twice its size; the fixed setup cost cancels and
//! the difference bounds the steady-state allocation rate.
//!
//! The allocator's counters are process-global, so the tests take
//! [`SERIAL`]: parallel test threads would pollute each other's deltas.

use gcx::core::buffer::{AttrBuf, BufferTree, NodeId, Ordinals};
use gcx::query::ast::RoleId;
use gcx::xml::{Symbol, SymbolTable, Tokenizer};
use std::sync::Mutex;

/// Held by every test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

#[global_allocator]
static ALLOC: gcx::memtrack::TrackingAllocator = gcx::memtrack::TrackingAllocator::new();

/// Feed size of the skip measurement (what `gcx::run` reads at a time).
const CHUNK: usize = 64 * 1024;

/// An XMark-ish flat document: `items` repeated item elements.
fn item_doc(items: usize) -> String {
    let mut s = String::with_capacity(items * 64 + 16);
    s.push_str("<site>");
    for i in 0..items {
        s.push_str(&format!(
            "<item id=\"i{}\"><name>n{}</name><price>{}</price></item>",
            i,
            i,
            i % 97
        ));
    }
    s.push_str("</site>");
    s
}

/// Allocation events consumed by a full tokenizer validation pass.
fn tokenize_allocs(doc: &str) -> u64 {
    let before = gcx::memtrack::total_allocs();
    let mut t = Tokenizer::from_str(doc);
    t.validate_to_end().unwrap();
    gcx::memtrack::total_allocs() - before
}

/// A query whose projection keeps every `item` (and `site`) without a
/// role: each one opens and closes on the lane's pending chain.
const SPECULATIVE: &str = "for $a in /site/item/zzz return 'x'";
/// A query that binds every `item`: each one is appended with a role,
/// signed off and purged — the steady-state append/purge cycle.
const BOUND: &str = "for $a in /site/item return $a/zzz";

/// Allocation events consumed by a full session pass of `query`
/// (tokenizer + projection matcher + pending chain or buffer appends and
/// purges + the suspended evaluator), and how many nodes it appended.
fn preproject_allocs(query: &str, doc: &str) -> (u64, u64) {
    let before = gcx::memtrack::total_allocs();
    let q = gcx::CompiledQuery::compile(query).unwrap();
    let mut session = q.session(&gcx::EngineOptions::gcx());
    session.feed(doc.as_bytes()).unwrap();
    let report = session.finish().unwrap();
    assert_eq!(report.buffer.live, 0, "everything appended must purge");
    assert_eq!(report.buffer.purged, report.buffer.allocated);
    (
        gcx::memtrack::total_allocs() - before,
        report.buffer.allocated,
    )
}

/// Allocation events consumed by one lock-step batch over `doc`: three
/// lanes that keep, emit and purge items, stepped off the shared scan.
fn batch_allocs(queries: &[gcx::CompiledQuery], doc: &str) -> u64 {
    let before = gcx::memtrack::total_allocs();
    let report = gcx::core::batch::run_batch(queries, doc.as_bytes()).unwrap();
    for run in &report.queries {
        assert_eq!(run.report.as_ref().unwrap().buffer.live, 0);
    }
    assert!(report.fanout_events as usize > doc.matches("<item").count());
    gcx::memtrack::total_allocs() - before
}

#[test]
fn steady_state_token_loop_allocates_o1() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Build both documents up front so their construction cost is not
    // measured.
    let small = item_doc(2_000);
    let large = item_doc(4_000);

    // Warm up (first-touch effects like lazy statics).
    tokenize_allocs(&small);
    preproject_allocs(SPECULATIVE, &small);
    preproject_allocs(BOUND, &small);

    // Tokenizer alone: doubling the input must not increase allocations
    // beyond a constant (window management is size-independent).
    let t_small = tokenize_allocs(&small);
    let t_large = tokenize_allocs(&large);
    assert!(
        t_large <= t_small + 64,
        "tokenizer steady state must be allocation-free: \
         {t_small} allocs for {} tokens vs {t_large} for twice as many",
        2_000 * 8 + 2
    );

    // Tokenizer + matcher + the lane: same bound. 2k extra items × (1
    // element appended and purged, or pushed on the pending chain and
    // popped, + 2 subtrees skipped) ≈ 0 allocations.
    for query in [SPECULATIVE, BOUND] {
        let (p_small, appended) = preproject_allocs(query, &small);
        let (p_large, _) = preproject_allocs(query, &large);
        assert!(
            p_large <= p_small + 64,
            "preprojector steady state must be allocation-free ({query}): \
             {p_small} allocs vs {p_large} for twice the document"
        );
        // The speculative items used to be appended and purged one by one
        // (`purged >= #<item`, i.e. 2000 items + site = 2001 appends);
        // none of the 2001 has a role-carrying descendant, so
        // 2001 − 2001 = 0 reach the buffer. Bound items all do.
        let items = small.matches("<item").count() as u64;
        assert_eq!(appended, if query == SPECULATIVE { 0 } else { items + 1 });
    }

    // Comparison operands are atomized into recycled strings: XMark Q1
    // compares every person's `@id` with a literal, and twice the persons
    // must not cost more allocations.
    let persons = |n: usize| {
        let people: String = (0..n)
            .map(|i| format!("<person id=\"person{i}\"><name>n{i}</name></person>"))
            .collect();
        format!("<site><people>{people}</people></site>")
    };
    let (few, many) = (persons(2_000), persons(4_000));
    preproject_allocs(gcx::xmark::queries::Q1, &few);
    let (q1_few, _) = preproject_allocs(gcx::xmark::queries::Q1, &few);
    let (q1_many, _) = preproject_allocs(gcx::xmark::queries::Q1, &many);
    assert!(
        q1_many <= q1_few + 64,
        "Q1's comparison must not allocate per person: \
         {q1_few} allocs for 2000 persons vs {q1_many} for 4000"
    );

    // A refused subtree of more than 1 MiB goes by in bulk without one
    // allocation: skipped text is consumed as it arrives, so the window
    // stays one chunk long, and the open-name arena is reused — also by
    // the shapes the skip hands to the stepping functions (attributes,
    // entities).
    let mut doc = String::from("<site><junk>");
    while doc.len() < (1 << 20) + 4 * CHUNK {
        doc.push_str("<a><b k=\"v\">text &amp; more</b><c/><d><e><f>deep text</f></e></d></a>");
    }
    doc.push_str("</junk><item/></site>");
    let q = gcx::CompiledQuery::compile("for $a in /site/item/zzz return 'x'").unwrap();
    let mut session = q.session(&gcx::EngineOptions::gcx());
    let mut chunks = doc.as_bytes().chunks(CHUNK);
    // Warm-up: the window and the scratch buffers reach working size.
    for chunk in chunks.by_ref().take(2) {
        session.feed(chunk).unwrap();
    }
    let before = gcx::memtrack::total_allocs();
    let mut skipped = 0;
    for chunk in chunks.by_ref().take((1 << 20) / CHUNK) {
        session.feed(chunk).unwrap();
        skipped += chunk.len();
    }
    let during_skip = gcx::memtrack::total_allocs() - before;
    assert!(skipped >= 1 << 20);
    assert_eq!(
        during_skip, 0,
        "skipping {skipped} bytes of <junk> allocated"
    );
    for chunk in chunks {
        session.feed(chunk).unwrap();
    }
    let report = session.finish().unwrap();
    // <site> and <item/> were the two appends here; both are role-less
    // without a role-carrying descendant: 2 − 2 = 0.
    assert_eq!(report.buffer.allocated, 0, "nothing earns a role");
    assert!(report.tokens > 200_000);

    // The same megabyte under `//item` cannot be refused — an item may
    // hide anywhere — so every element, attributes and all, opens and
    // closes on the pending chain and every token goes through the
    // matcher: no allocation either once the chain's arena and the
    // matcher's memo are warm, and nothing of it reaches the buffer.
    let q = gcx::CompiledQuery::compile("for $i in //item return $i").unwrap();
    let mut session = q.session(&gcx::EngineOptions::gcx());
    let mut chunks = doc.as_bytes().chunks(CHUNK);
    for chunk in chunks.by_ref().take(2) {
        session.feed(chunk).unwrap();
    }
    let before = gcx::memtrack::total_allocs();
    let mut speculative = 0;
    for chunk in chunks.by_ref().take((1 << 20) / CHUNK) {
        session.feed(chunk).unwrap();
        speculative += chunk.len();
    }
    let during = gcx::memtrack::total_allocs() - before;
    assert!(speculative >= 1 << 20);
    assert_eq!(
        during, 0,
        "{speculative} bytes of role-less speculative elements allocated"
    );
    for chunk in chunks {
        session.feed(chunk).unwrap();
    }
    let report = session.finish().unwrap();
    assert_eq!(report.buffer.allocated, 2, "<site> and <item/> only");
    assert_eq!(report.buffer.peak_live, 2);

    // Sessions start warm. What a run's table holds beyond the compiled
    // query's, the document put there — into room the clone came with: a
    // new name allocates nothing, where it used to cost two boxed strings
    // and its share of a hash map's growth.
    let mut seeded = SymbolTable::new();
    for name in ["site", "people", "person", "name", "id"] {
        seeded.intern(name);
    }
    let mut table = seeded.clone();
    let names: Vec<String> = (0..48).map(|i| format!("element{i}")).collect();
    let before = gcx::memtrack::total_allocs();
    for name in &names {
        table.intern(name);
    }
    assert_eq!(gcx::memtrack::total_allocs() - before, 0, "new names");
    assert_eq!(table.len(), seeded.len() + names.len());

    // And what the first session of a compiled query learns of its
    // projection automaton, the second finds there: over the same 8 KiB
    // XMark document it allocates less than the first — whose own memo
    // costs some twenty allocations — and the third no less than the
    // second (nothing is left to learn). `was` is what every session of
    // the query, first or not, allocated before the compiled query kept
    // anything for the next one (PR 17, this document): a warm session
    // now makes at most half of that (Q8's makes 70).
    let xmark = gcx::xmark::generate_string(&gcx::xmark::XmarkConfig::sized(8 * 1024));
    let was = [123, 150, 225, 149, 153, 141, 148, 260, 125, 142, 160];
    for ((name, text), was) in gcx::xmark::queries::paper_queries().into_iter().zip(was) {
        let q = gcx::CompiledQuery::compile(text).unwrap();
        let [first, second, third] = [(); 3].map(|()| {
            let before = gcx::memtrack::total_allocs();
            let mut session = q.session(&gcx::EngineOptions::gcx());
            session.feed(xmark.as_bytes()).unwrap();
            session.finish().unwrap();
            drop(session);
            gcx::memtrack::total_allocs() - before
        });
        assert!(second < first, "{name}: {first} cold, {second} warm");
        assert_eq!(third, second, "{name}: the second session learnt it all");
        assert!(
            second * 2 <= was,
            "{name}: {second} allocations warm, {was} before sessions started warm"
        );
    }

    // The multi-query batch: N lanes fed by reference off one scan keep
    // the same contract — no event, name or role list is allocated per
    // node, whatever the number of queries that keep it. (The slack
    // covers the output vectors doubling a few more times.)
    let batch: Vec<gcx::CompiledQuery> = [
        "for $a in /site/item/zzz return 'x'",
        "for $i in /site/item return $i/name",
        "<r>{ for $i in /site/item return if (exists($i/price)) then $i/price/text() else () }</r>",
    ]
    .iter()
    .map(|q| gcx::CompiledQuery::compile(q).unwrap())
    .collect();
    batch_allocs(&batch, &small);
    let b_small = batch_allocs(&batch, &small);
    let b_large = batch_allocs(&batch, &large);
    assert!(
        b_large <= b_small + 64,
        "batch steady state must be allocation-free: \
         {b_small} allocs vs {b_large} for twice the document"
    );

    // Direct buffer churn: append (with attributes, roles and text),
    // close, sign off, purge — after warm-up the pools absorb everything.
    let mut symbols = SymbolTable::new();
    let item = symbols.intern("item");
    let id_attr = symbols.intern("id");
    let role = RoleId(3);
    let mut buf = BufferTree::new(true);
    let mut attrs = AttrBuf::new();
    let cycle = |buf: &mut BufferTree, attrs: &mut AttrBuf| {
        attrs.clear();
        attrs.push(id_attr, "person0");
        let n =
            buf.append_element_with_attrs(NodeId::ROOT, item, attrs, &[(role, 1)], Ordinals::FIRST);
        buf.append_text(n, "some text content", &[(role, 1)], Ordinals::FIRST);
        buf.close(n);
        buf.decrement_role(n, role, 1);
        // The text node still holds a role instance; dropping it purges
        // the whole item subtree.
        let t = buf.first_child(n).expect("text child");
        buf.decrement_role(t, role, 1);
    };
    for _ in 0..64 {
        cycle(&mut buf, &mut attrs); // warm-up: populate the pools
    }
    let before = gcx::memtrack::total_allocs();
    for _ in 0..10_000 {
        cycle(&mut buf, &mut attrs);
    }
    let churn = gcx::memtrack::total_allocs() - before;
    assert_eq!(buf.stats().live, 0);
    assert!(
        churn <= 64,
        "10k append/purge cycles after warm-up must allocate ~nothing, saw {churn}"
    );
}

/// Append a subtree of 100 000 nodes — a top element over 49 999 items,
/// each with an attribute, a role and a text child, and a closing text —
/// close it, and sign every role off, which purges all of it. `ids` is
/// reused scratch.
fn subtree_round(buf: &mut BufferTree, attrs: &mut AttrBuf, ids: &mut Vec<NodeId>) {
    const VALUES: [&str; 3] = ["person0", "", "a longer value, past one size class"];
    const TEXTS: [&str; 3] = [
        "some text content",
        "t",
        "a text of some sixty bytes, to take another class",
    ];
    let (item, id, role) = (Symbol(0), Symbol(1), RoleId(1));
    let top = buf.append_element(NodeId::ROOT, item, &[], Ordinals::FIRST);
    ids.clear();
    for i in 0..49_999 {
        attrs.push(id, VALUES[i % 3]);
        let n = buf.append_element_with_attrs(top, item, attrs, &[(role, 1)], Ordinals::FIRST);
        buf.append_text(n, TEXTS[i % 3], &[], Ordinals::FIRST);
        buf.close(n);
        ids.push(n);
    }
    buf.append_text(top, "end", &[], Ordinals::FIRST);
    buf.close(top);
    assert_eq!(buf.stats().live, 100_000);
    for &n in ids.iter() {
        buf.decrement_role(n, role, 1);
    }
    assert_eq!(buf.stats().live, 0);
}

#[test]
fn purged_buffer_memory_goes_back_or_is_reused() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let chunk = BufferTree::CHUNK_BYTES;

    // (a) A purged 100 000-node subtree gives its slot chunks back: all
    // but one spare (chunk 0, the root's, was grown by the warm-up).
    let mut buf = BufferTree::new(true);
    let mut attrs = AttrBuf::new();
    let mut ids = Vec::with_capacity(50_000);
    let role = &[(RoleId(1), 1)][..];
    for _ in 0..BufferTree::CHUNK_SLOTS {
        let n = buf.append_element(NodeId::ROOT, Symbol(0), role, Ordinals::FIRST);
        buf.close(n);
        ids.push(n);
    }
    for &n in &ids {
        buf.decrement_role(n, RoleId(1), 1);
    }
    let before = buf.slot_bytes();
    assert_eq!(before, 2 * chunk, "chunk 0 at full size, and the spare");
    gcx::memtrack::reset_peak();
    subtree_round(&mut buf, &mut attrs, &mut ids);
    let first_peak = gcx::memtrack::peak_bytes();
    let resident = gcx::memtrack::live_bytes();
    assert!(
        buf.slot_bytes() <= before + chunk,
        "slot memory {} after the purge, {before} before the append",
        buf.slot_bytes()
    );
    // A second identical round reuses every payload block and allocates
    // nothing but the chunks the first gave back, nor does it raise the
    // high-water.
    let (allocs, bytes) = (gcx::memtrack::total_allocs(), gcx::memtrack::total_bytes());
    subtree_round(&mut buf, &mut attrs, &mut ids);
    let allocs = gcx::memtrack::total_allocs() - allocs;
    let bytes = gcx::memtrack::total_bytes() - bytes;
    let reopened = 100_000 / BufferTree::CHUNK_SLOTS as u64;
    assert!(
        allocs <= reopened && bytes == allocs * chunk,
        "second round: {allocs} allocations of {bytes} bytes, {reopened} chunks of {chunk}"
    );
    assert_eq!(
        gcx::memtrack::peak_bytes(),
        first_peak,
        "the high-water rose"
    );
    assert_eq!(gcx::memtrack::live_bytes(), resident);

    // (b) One survivor per chunk: nothing can go back, yet the slot
    // memory stays within the bound `buffer.rs` states, and appends fill
    // the survivors' chunks before a chunk is allocated.
    let bound = |buf: &BufferTree| {
        let s = buf.stats();
        let slots = BufferTree::CHUNK_SLOTS as u64;
        (s.peak_live + 1).div_ceil(slots).min(s.live + 2) * chunk
    };
    let mut buf = BufferTree::new(true);
    let chunks = 64;
    let nodes = chunks * BufferTree::CHUNK_SLOTS - 1; // the root has a slot
    let mut ids = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let n = buf.append_element(NodeId::ROOT, Symbol(0), role, Ordinals::FIRST);
        buf.close(n);
        ids.push(n);
    }
    assert_eq!(buf.slot_bytes(), chunks as u64 * chunk);
    // Chunks fill in order: node i sits in chunk (i + 1) / CHUNK_SLOTS.
    for (i, &n) in ids.iter().enumerate() {
        if (i + 1) % BufferTree::CHUNK_SLOTS != 0 {
            buf.decrement_role(n, RoleId(1), 1);
        }
    }
    assert_eq!(buf.stats().live, chunks as u64 - 1);
    assert_eq!(
        buf.slot_bytes(),
        chunks as u64 * chunk,
        "every chunk keeps a survivor"
    );
    assert!(buf.slot_bytes() <= bound(&buf));
    let allocs = gcx::memtrack::total_allocs();
    ids.clear();
    for _ in 0..nodes + 1 - chunks {
        ids.push(buf.append_element(NodeId::ROOT, Symbol(0), role, Ordinals::FIRST));
    }
    assert_eq!(
        gcx::memtrack::total_allocs() - allocs,
        0,
        "the holes were refilled"
    );
    assert_eq!(buf.slot_bytes(), chunks as u64 * chunk);
    assert!(buf.slot_bytes() <= bound(&buf));

    // (c) XMark Q8 over a 1 MiB document — a join that buffers its people
    // and closed auctions to the end — peaks at ≤ 0.33 MiB of heap (1.49
    // MiB while nodes were 168-byte records with pooled payloads, 439 271
    // bytes while its stores grew by doubling and each person carried a
    // second role for `$p/@id` in the role overflow, 357 591 while each
    // person's name kept its text in a slot of its own; 333 061 with the
    // names' 842 texts folded in).
    let q8 = gcx::CompiledQuery::compile(gcx::xmark::queries::Q8).unwrap();
    let opts = gcx::EngineOptions::gcx();
    let (heap, report) = q8_heap(&q8, 1 << 20);
    assert!(
        heap <= (33 << 20) / 100,
        "Q8 over 1 MiB peaked at {heap} bytes of heap, {} in the buffer",
        report.buffer.peak_live_bytes
    );

    // (d) A root count buffers one item at a time, so its heap is the
    // session's fixed stores. Fed in 64 KiB pieces, the tokenizer holds
    // only the token a piece's end cuts: 7 357 bytes (release) where the
    // window copy of each piece made it 80 845 (128 KiB and about 135 KiB
    // while that window doubled); the bound leaves 5 KiB of slack.
    let doc = gcx::xmark::generate_string(&gcx::xmark::XmarkConfig::sized(2 << 20));
    let q = gcx::CompiledQuery::compile(gcx::xmark::queries::Q6_COUNT).unwrap();
    let (heap, report, _) = session_heap(&q, &opts, &doc);
    assert!(
        heap <= 12 << 10,
        "Q6_COUNT over 2 MiB peaked at {heap} bytes of heap, {} in the buffer",
        report.buffer.peak_live_bytes
    );

    // (e) Over 4 MiB, Q8 holds little beside its buffer: its heap peaks at
    // ≤ 1.35 times `peak_live_bytes` — 858 621 bytes for 650 970, where
    // boxed join keys in a hash map, 12-byte postings and payload blocks
    // in 8-byte steps made it 916 575 (1.41).
    let (heap, report) = q8_heap(&q8, 4 << 20);
    let buffer = report.buffer.peak_live_bytes;
    assert!(
        heap * 100 <= buffer * 135,
        "Q8 over 4 MiB peaked at {heap} bytes of heap, {buffer} in the buffer"
    );
}

/// Heap high-water and report of the second of two `gcx::run`s of Q8
/// (`q8`) over an XMark document of `size` bytes, seed 42.
fn q8_heap(q8: &gcx::CompiledQuery, size: u64) -> (u64, gcx::RunReport) {
    let mut cfg = gcx::xmark::XmarkConfig::sized(size);
    cfg.seed = 42;
    let doc = gcx::xmark::generate_string(&cfg);
    let opts = gcx::EngineOptions::gcx();
    gcx::run(q8, &opts, doc.as_bytes(), std::io::sink()).unwrap();
    let live = gcx::memtrack::live_bytes();
    gcx::memtrack::reset_peak();
    let report = gcx::run(q8, &opts, doc.as_bytes(), std::io::sink()).unwrap();
    (gcx::memtrack::peak_bytes() - live, report)
}

/// Heap high-water of a warm session of `q` over `doc`, fed in 64 KiB
/// pieces and drained after each into a sink that keeps nothing; its
/// report, and the most output one drain took.
fn session_heap(
    q: &gcx::CompiledQuery,
    opts: &gcx::EngineOptions,
    doc: &str,
) -> (u64, gcx::RunReport, usize) {
    let run = || {
        let mut session = q.session(opts);
        let mut most = 0;
        for piece in doc.as_bytes().chunks(CHUNK) {
            session.feed(piece).unwrap();
            most = most.max(session.take_output(&mut std::io::sink()).unwrap());
        }
        let report = session.finish().unwrap();
        session.take_output(&mut std::io::sink()).unwrap();
        (report, most)
    };
    run();
    let live = gcx::memtrack::live_bytes();
    gcx::memtrack::reset_peak();
    let (report, most) = run();
    (gcx::memtrack::peak_bytes() - live, report, most)
}

#[test]
fn a_session_holds_its_buffer_not_its_input() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let doc = gcx::xmark::generate_string(&gcx::xmark::XmarkConfig::sized(2 << 20));
    let opts = gcx::EngineOptions::gcx();

    // Q1 fed in 64 KiB pieces: the buffer holds a person or two, and the
    // tokenizer only the token a piece's end cuts — 8 130 bytes of heap
    // (release), where the session's copy of each piece made it 81 602.
    let q = gcx::CompiledQuery::compile(gcx::xmark::queries::Q1).unwrap();
    let (heap, report, _) = session_heap(&q, &opts, &doc);
    assert!(
        heap <= 24 << 10,
        "Q1 over 2 MiB peaked at {heap} bytes of heap, {} in the buffer",
        report.buffer.peak_live_bytes
    );
    // What the tokenizer held: the longest cut token and the bytes that
    // completed it (44 bytes here), not a piece (65 558 bytes before).
    let (_, report, _) = session_heap(&q, &opts.clone().with_telemetry(), &doc);
    let window = report.obs.expect("telemetry on").tokenizer_window_peak;
    assert!(window > 0 && window <= 4 << 10, "window peak {window}");

    // A copy writes up to a piece's worth of output between two drains,
    // a little more than 64 KiB here: the lane's output grows by the
    // store rule to 72 KiB, where doubling took it to 128 KiB (and the
    // session to 211 925 bytes of heap with the window copy).
    let q = gcx::CompiledQuery::compile(
        "<all>{ for $a in /site/open_auctions/open_auction return $a }</all>",
    )
    .unwrap();
    let (heap, _, most) = session_heap(&q, &opts, &doc);
    assert!(
        most > 64 << 10 && most <= 72 << 10,
        "{most} bytes in one drain: the case must take the output past 64 KiB"
    );
    assert!(
        heap <= (72 << 10) + (16 << 10),
        "the copy peaked at {heap} bytes of heap for {most} bytes of output"
    );
}

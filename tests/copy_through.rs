//! Copy-through, end to end: an element the evaluator copies while it is
//! still open streams to the writer as its tokens arrive — a session
//! passes whole stretches of it from the tokenizer to the writer (the copy
//! pass), a batch lane writes each event as it is shown — and a node only
//! the copy needs never enters the buffer. Nothing observable but the
//! buffer counts and the time the bytes leave may tell.
//!
//! For the benchmark's two copy queries, the identity copy, copies that
//! must still buffer (`($a, $a)`, `($a, $a/bidder[1])`), `//item` over
//! nested items (the copy pass stops at the inner one), copies reached only
//! after their end tag or in the middle of the element, over an XMark
//! document and documents with entities, CDATA, comments and PIs inside
//! the copied subtree, with and without `--indent`:
//!
//! * output == the DOM oracle (compact) or full buffering (indented),
//!   at every chunking, from the unoptimised plan too;
//! * the buffer is handed exactly what `common::project` derives: the
//!   nodes that carry a role the writer has not served, or stand above one;
//! * a batch lane, which steps every token, writes the same bytes and is
//!   handed the same buffer.
//!
//! And the emission lag: a bidder leaves before its auction has ended.

mod common;

use common::xmark;
use gcx::multi::{BatchOptions, BatchSession};
use gcx::{CompiledQuery, EngineOptions, RunReport};

const COPY_AUCTIONS: &str = "<all>{ for $a in /site/open_auctions/open_auction return $a }</all>";
const COPY_ITEMS: &str = "<all>{ for $i in /site/regions//item return $i }</all>";

const QUERIES: [(&str, &str); 9] = [
    ("COPY_AUCTIONS", COPY_AUCTIONS),
    ("COPY_ITEMS", COPY_ITEMS),
    ("identity", "for $s in /site return $s"),
    (
        "($a, $a)",
        "for $a in /site/open_auctions/open_auction return ($a, $a)",
    ),
    (
        "($a, $a/bidder[1])",
        "for $a in /site/open_auctions/open_auction return ($a, $a/bidder[1])",
    ),
    ("//item", "for $i in //item return $i"),
    (
        "after the end tag",
        "for $a in /site/open_auctions/open_auction return \
         if (not(exists($a/nothing))) then $a else ()",
    ),
    (
        "from the middle",
        "for $a in /site/open_auctions/open_auction return \
         if (exists($a/bidder)) then $a else ()",
    ),
    (
        "text and attributes beside a copy",
        "for $a in /site/open_auctions/open_auction return \
         <a id='{$a/@id}'>{ $a/initial/text(), $a/bidder }</a>",
    ),
];

/// Documents written for the copy: markup the buffer drops or rewrites
/// inside a copied subtree, items nested in items, an auction whose copy
/// starts at its second child.
fn documents() -> Vec<String> {
    let mut docs: Vec<String> = [
        "<site><open_auctions><open_auction id=\"a&amp;1\"><initial>1.5</initial>\
         <bidder>x &amp; y &lt; z<![CDATA[<raw> & ]]><!-- note --><?pi data?>\
         <increase>1</increase></bidder>\n  <e k='&quot;q&quot;'/>  \
         <bidder><increase>2</increase></bidder></open_auction>\
         <open_auction id='b'><bidder/></open_auction><open_auction/></open_auctions></site>",
        "<site><regions><eu><item id='1'><name>a</name><item id='2'><x>in</x>\
         <item id='3'/></item><y>t</y></item><other><item id='4'>last</item></other></eu>\
         </regions></site>",
        "<site>lead<regions/><open_auctions><open_auction><p><q>deep</q></p>\
         <bidder><bidder>nested</bidder></bidder></open_auction></open_auctions>tail</site>",
    ]
    .map(String::from)
    .to_vec();
    docs.push(xmark(48, 4242));
    docs
}

fn fed(q: &CompiledQuery, opts: &EngineOptions, doc: &[u8], chunk: usize) -> (Vec<u8>, RunReport) {
    let mut session = q.session(opts);
    for piece in doc.chunks(chunk) {
        session.feed(piece).expect("feed");
    }
    let report = session.finish().expect("finish");
    let mut out = Vec::new();
    session.take_output(&mut out).expect("drain");
    (out, report)
}

fn buffer(r: &RunReport) -> (u64, u64, u64) {
    (
        r.buffer.allocated,
        r.buffer.peak_live,
        r.buffer.peak_live_bytes,
    )
}

#[test]
fn copies_equal_the_oracle_on_every_driver_and_chunking() {
    let docs = documents();
    let compiled: Vec<(&str, &str, CompiledQuery, CompiledQuery)> = QUERIES
        .iter()
        .map(|&(name, text)| {
            let q = CompiledQuery::compile(text).expect(name);
            let unoptimised = CompiledQuery::compile_opts(text, false).expect(name);
            (name, text, q, unoptimised)
        })
        .collect();
    let batch: Vec<CompiledQuery> = compiled.iter().map(|(_, _, q, _)| q.clone()).collect();
    for (d, doc) in docs.iter().enumerate() {
        let bytes = doc.as_bytes();
        let whole = bytes.len();
        for indent in [None, Some("  ".to_string())] {
            let gcx = EngineOptions {
                indent: indent.clone(),
                ..EngineOptions::gcx()
            };
            let full = EngineOptions {
                indent: indent.clone(),
                ..EngineOptions::full_buffering()
            };
            let mut alone = Vec::new();
            let mut wants = Vec::new();
            for (name, text, q, unoptimised) in &compiled {
                let label = format!("{name} on document {d}, indent {indent:?}");
                // Full buffering serializes every copy from the buffer,
                // after its end tag: the reference for the layout.
                let (want, _) = fed(q, &full, bytes, whole);
                if indent.is_none() {
                    let oracle = gcx::dom::run_query(text, doc).expect("oracle");
                    assert_eq!(want, oracle.as_bytes(), "{label}: full buffering");
                }
                let (out, _) = fed(unoptimised, &gcx, bytes, whole);
                assert_eq!(out, want, "{label}: unoptimised");
                let needed = common::project(q, None, doc).needed;
                for chunk in [1, 2, 3, 7, 64, whole] {
                    let (out, report) = fed(q, &gcx, bytes, chunk);
                    assert_eq!(
                        String::from_utf8_lossy(&out),
                        String::from_utf8_lossy(&want),
                        "{label}, chunks of {chunk}"
                    );
                    assert_eq!(
                        report.buffer.allocated, needed,
                        "{label}, chunks of {chunk}"
                    );
                    assert_eq!(report.buffer.live, 0, "{label}: must drain");
                    if chunk == whole {
                        alone.push(report);
                    }
                }
                wants.push(want);
            }
            for chunk in [7, whole] {
                let opts = BatchOptions {
                    indent: indent.clone(),
                    ..BatchOptions::default()
                };
                let mut session = BatchSession::new(&batch, &opts);
                for piece in bytes.chunks(chunk) {
                    session.feed(piece).expect("batch feed");
                }
                let report = session.finish().expect("batch");
                for ((((name, ..), lane), alone), want) in
                    compiled.iter().zip(report.queries).zip(&alone).zip(&wants)
                {
                    let label = format!("{name} on document {d} as a lane, chunks of {chunk}");
                    assert_eq!(&lane.output, want, "{label}");
                    let lane = lane.report.expect("lane report");
                    assert_eq!(buffer(&lane), buffer(alone), "{label}");
                }
            }
        }
    }
}

#[test]
fn the_copy_queries_buffer_only_their_bindings() {
    // Every node below an auction or an item holds nothing but the copy's
    // role: the buffer is handed the bindings and the elements above them
    // (`site`, `open_auctions`; `site`, `regions` and the six continents)
    // alone, and the identity copy holds one node where it used to hold
    // the document.
    let doc = xmark(256, 42);
    let auctions = doc.matches("<open_auction ").count() as u64;
    let items = doc.matches("<item ").count() as u64;
    for (text, bindings) in [(COPY_AUCTIONS, auctions + 2), (COPY_ITEMS, items + 8)] {
        let q = CompiledQuery::compile(text).unwrap();
        let (_, report) = fed(&q, &EngineOptions::gcx(), doc.as_bytes(), 64 * 1024);
        assert_eq!(report.buffer.allocated, bindings, "{text}");
        let (_, full) = fed(
            &q,
            &EngineOptions::full_buffering(),
            doc.as_bytes(),
            64 * 1024,
        );
        assert!(report.buffer.peak_live_bytes * 4 < full.buffer.peak_live_bytes);
    }
    // The document node has no end tag for a lane to see: `/` is
    // serialized at the end of input, as full buffering does.
    let q = CompiledQuery::compile("/").unwrap();
    let (whole, _) = fed(
        &q,
        &EngineOptions::full_buffering(),
        doc.as_bytes(),
        64 * 1024,
    );
    for chunk in [7, 64 * 1024] {
        assert!(fed(&q, &EngineOptions::gcx(), doc.as_bytes(), chunk).0 == whole);
    }
    let q = CompiledQuery::compile("for $s in /site return $s").unwrap();
    let opts = EngineOptions::gcx().with_max_buffer_bytes(4096);
    let (out, report) = fed(&q, &opts, doc.as_bytes(), 64 * 1024);
    assert_eq!(
        out,
        gcx::dom::run_query("for $s in /site return $s", &doc)
            .unwrap()
            .as_bytes()
    );
    assert_eq!(report.buffer.allocated, 1, "`site` alone");
    assert!(report.buffer.peak_live_bytes <= 1024);
}

#[test]
fn a_bidder_leaves_before_its_auction_ends() {
    // 7(a)'s gate: the emission lag of a copy is at most one token. Fed 64
    // bytes at a time, the first auction's first bidder is in the output
    // before the auction's end tag has been fed.
    let doc = xmark(64, 42);
    let end = doc.find("</open_auction>").expect("an auction");
    let first = doc.find("<open_auction ").unwrap();
    assert!(
        doc[first..end].contains("<bidder>"),
        "the first auction has a bidder"
    );
    let q = CompiledQuery::compile(COPY_AUCTIONS).unwrap();
    let mut session = q.session(&EngineOptions::gcx());
    let mut out = Vec::new();
    let mut fed = 0;
    for piece in doc.as_bytes().chunks(64) {
        if fed + piece.len() > end {
            break;
        }
        session.feed(piece).unwrap();
        session.take_output(&mut out).unwrap();
        fed += piece.len();
    }
    let out = String::from_utf8(out).unwrap();
    assert!(
        out.contains("<bidder"),
        "{fed} of {end} bytes fed before `</open_auction>`, output: {out}"
    );
}

#[test]
fn a_copy_under_a_schema_the_document_breaks_still_nests() {
    // `incategory` is declared EMPTY and `mail` may hold no `keyword`: the
    // schema-aware matcher may refuse what the DTD says cannot be there,
    // and a copy written through must leave out exactly what a copy that
    // projection-only serializes from the buffer leaves out — its tags
    // still nesting.
    let doc = "<site><regions><europe><item id='i1'><location>x</location>\
               <incategory category='c'><name>q</name>t<parlist><listitem><text>z\
               </text></listitem></parlist></incategory><name>n</name><mailbox><mail>\
               <from>f</from><to>t</to><date>d</date><text>tx<keyword>k</keyword>\
               </text><keyword>stray</keyword></mail></mailbox></item></europe></regions></site>";
    let dtd = gcx::schema::Dtd::xmark();
    for text in [
        "for $i in /site/regions/europe/item return $i",
        "for $i in //item return $i",
        "for $i in /site/regions/europe/item return ($i/incategory, $i//keyword)",
        "for $m in //mail return $m",
    ] {
        let q = CompiledQuery::compile(text).unwrap();
        let projected = EngineOptions::projection_only().with_schema(dtd.clone());
        let (want, _) = fed(&q, &projected, doc.as_bytes(), doc.len());
        assert!(!want.is_empty(), "{text}");
        let gcx = EngineOptions::gcx().with_schema(dtd.clone());
        for chunk in [1, 7, doc.len()] {
            let (out, _) = fed(&q, &gcx, doc.as_bytes(), chunk);
            assert_eq!(
                String::from_utf8_lossy(&out),
                String::from_utf8_lossy(&want),
                "{text}, chunks of {chunk}"
            );
        }
    }
}

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
//! after their end tag or in the middle of the element, XMark Q8 and leaf
//! copies that wait for a later sibling — whose text the element takes in
//! at its end tag, or, beside an attribute, mixed content, a second role
//! on the text or a positional step, keeps as a node — over an XMark
//! document and documents with entities, CDATA, comments and PIs inside
//! the copied subtree, the differential matrix holds every axis (its
//! indented one and its batch lanes, which step every token, included),
//! and the buffer is pinned to be handed exactly what `common::project`
//! derives: the nodes that carry a role the writer has not served, or
//! stand above one.
//!
//! And the emission lag: a bidder leaves before its auction has ended.

mod common;

use common::{cases, compile, contract, fed, whole, xmark};
use gcx::core::batch::BatchSession;
use gcx::EngineOptions;

const COPY_AUCTIONS: &str = "<all>{ for $a in /site/open_auctions/open_auction return $a }</all>";
const COPY_ITEMS: &str = "<all>{ for $i in /site/regions//item return $i }</all>";

const QUERIES: [(&str, &str); 13] = [
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
    ("Q8", gcx::xmark::queries::Q8),
    (
        "a leaf copied after its end tag",
        "for $p in /r/p return <x>{ $p/c }{ $p/b }</x>",
    ),
    (
        "a leaf and its text",
        "for $p in /r/p return <x>{ $p/c }{ ($p/b, $p/b/text()) }</x>",
    ),
    (
        "a leaf beside a positional step",
        "for $p in /r/p return <x>{ $p/c[1] }{ $p/b }</x>",
    ),
];

/// Leaves the `/r/p` rows copy after a later sibling: text with escapes,
/// which folds into its `b`; then an attribute, mixed content, and text
/// around a CDATA section and a comment.
const LEAVES: &str = "<r><p><b>x &amp; y &lt; z &gt; w</b><c>1</c></p>\
                      <p><b k='v'>t</b><c>2</c></p><p><b>t<i/>u</b><c>3</c></p>\
                      <p><b>a<![CDATA[<raw> & ]]>b<!-- c -->d</b><c>4</c><c>5</c></p></r>";

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
    docs.push(LEAVES.to_string());
    docs.push(xmark(48, 4242));
    docs
}

#[test]
fn copies_equal_the_oracle_on_every_driver_and_chunking() {
    let texts = QUERIES.map(|(_, text)| text);
    let all = cases(&texts, &documents(), None);
    for (case, seen) in all.iter().zip(contract(&all)) {
        let needed = common::project(&compile(&case.query), None, &case.doc).needed;
        assert_eq!(seen.report.buffer.allocated, needed, "{}", case.query);
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
        let q = compile(text);
        let report = whole(&q, &EngineOptions::gcx(), &doc).report;
        assert_eq!(report.buffer.allocated, bindings, "{text}");
        let full = whole(&q, &EngineOptions::full_buffering(), &doc).report;
        assert!(report.buffer.peak_live_bytes * 4 < full.buffer.peak_live_bytes);
    }
    // The document node has no end tag for a lane to see: `/` is
    // serialized at the end of input, as full buffering does — and as the
    // DOM oracle writes the document node, its children.
    let q = compile("/");
    let all = whole(&q, &EngineOptions::full_buffering(), &doc).output;
    assert_eq!(all, gcx::dom::run_query("/", &doc).unwrap());
    for chunk in [7, 64 * 1024] {
        assert!(fed(&q, &EngineOptions::gcx(), &doc, chunk).output == all);
    }
    let text = "for $s in /site return $s";
    let opts = EngineOptions::gcx().with_max_buffer_bytes(4096);
    let seen = whole(&compile(text), &opts, &doc);
    assert_eq!(seen.output, gcx::dom::run_query(text, &doc).unwrap());
    assert_eq!(seen.report.buffer.allocated, 1, "`site` alone");
    assert!(seen.report.buffer.peak_live_bytes <= 1024);
}

#[test]
fn a_bidder_leaves_before_its_auction_ends() {
    // 7(a)'s gate: the emission lag of a copy is at most one token. Fed 64
    // bytes at a time, the first auction's first bidder is in the output
    // before the auction's end tag has been fed — from a session, and from
    // lane 0 of a batch that runs Q1 beside it.
    let doc = xmark(64, 42);
    let end = doc.find("</open_auction>").expect("an auction");
    let first = doc.find("<open_auction ").unwrap();
    assert!(
        doc[first..end].contains("<bidder>"),
        "the first auction has a bidder"
    );
    let q = compile(COPY_AUCTIONS);
    // Everything before the first `</open_auction>`, in 64-byte pieces.
    let early = || {
        doc.as_bytes()
            .chunks(64)
            .scan(0, move |fed, piece| {
                *fed += piece.len();
                (*fed <= end).then_some(piece)
            })
            .collect::<Vec<_>>()
    };
    let mut session = q.session(&EngineOptions::gcx());
    let mut out = Vec::new();
    for piece in early() {
        session.feed(piece).unwrap();
        session.take_output(&mut out).unwrap();
    }
    let out = String::from_utf8(out).unwrap();
    assert!(
        out.contains("<bidder"),
        "{end} bytes before `</open_auction>`, output: {out}"
    );

    let batch = [q.clone(), compile(gcx::xmark::queries::Q1)];
    let mut session = BatchSession::new(&batch, &EngineOptions::gcx());
    let mut drained = Vec::new();
    for piece in early() {
        session.feed(piece).unwrap();
        session.take_output(0, &mut drained).unwrap();
    }
    let early_out = String::from_utf8(drained.clone()).unwrap();
    assert!(
        early_out.contains("<bidder"),
        "lane 0, {end} bytes before `</open_auction>`, output: {early_out}"
    );
    // A sink that fails half-way through a drain takes no byte twice.
    let rest = &doc.as_bytes()[early().concat().len()..];
    session.feed(&rest[..rest.len() / 2]).unwrap();
    let mut broken = Flaky {
        got: Vec::new(),
        budget: 5,
    };
    assert!(session.take_output(0, &mut broken).is_err());
    drained.extend_from_slice(&broken.got);
    session.take_output(0, &mut drained).unwrap();
    session.feed(&rest[rest.len() / 2..]).unwrap();
    let report = session.finish().unwrap();
    // What was not drained is the lane's output at the end. Inside an
    // auction only lane 0 holds a state, copying: the copy passes, which
    // also ran across feeds, leave each lane its stand-alone run.
    drained.extend_from_slice(&report.queries[0].output);
    let outs = [drained, report.queries[1].output.clone()];
    for ((q, out), run) in batch.iter().zip(outs).zip(&report.queries) {
        let want = whole(q, &EngineOptions::gcx(), &doc);
        assert_eq!(out, want.output.as_bytes());
        let got = run.report.as_ref().unwrap();
        assert_eq!(common::counts(got), common::counts(&want.report));
    }
}

/// Accepts `budget` bytes, then fails every write.
struct Flaky {
    got: Vec<u8>,
    budget: usize,
}

impl std::io::Write for Flaky {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::other("sink broke"));
        }
        let n = buf.len().min(self.budget);
        self.got.extend_from_slice(&buf[..n]);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Copies that read the same role instances more than once — an outer
/// variable's path in an inner loop, a root path in a loop body — and a
/// nested loop whose copy is its binding's last reader.
const REREAD: [(&str, &str); 4] = [
    (
        "an outer path in an inner loop",
        "<r>{ for $o in /site/people/person return for $x in $o/* return $o/name }</r>",
    ),
    (
        "a root path in a loop",
        "<r>{ for $x in /site/people/person return /site/z }</r>",
    ),
    (
        "a later root path in a loop",
        "<r>{ for $i in /site/regions/africa/item return /site/categories/category/name }</r>",
    ),
    (
        "the innermost binding in a nested loop",
        "<r>{ for $o in /site/people/person return for $x in $o/* return $x }</r>",
    ),
];

#[test]
fn a_copy_that_runs_again_keeps_its_text() {
    // Only a copy that runs at most once per instance of its role may
    // write the rest of its subtree through: one that runs again must
    // find the subtree buffered, not written away by the first copy.
    let people = "<site><people><person id='p0'><name>Ann</name><age>30</age></person>\
                  <person id='p1'><name>Bob</name></person></people><z>Z</z></site>";
    let texts = REREAD.map(|(_, text)| text);
    contract(&cases(&texts, &[people.to_string(), xmark(48, 4242)], None));
    // The rereading copies write nothing through; the nested loop's
    // innermost copy still does.
    for (name, text) in REREAD {
        let through = common::written_through(&compile(text), None, people).contains(&true);
        assert_eq!(through, name.starts_with("the innermost"), "{name}");
    }
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
        let q = compile(text);
        let projected = EngineOptions::projection_only().with_schema(dtd.clone());
        let want = whole(&q, &projected, doc).output;
        assert!(!want.is_empty(), "{text}");
        let gcx = EngineOptions::gcx().with_schema(dtd.clone());
        for chunk in [1, 7, doc.len()] {
            let out = fed(&q, &gcx, doc, chunk).output;
            assert_eq!(out, want, "{text}, chunks of {chunk}");
        }
    }
}

#[test]
fn a_copied_leaf_takes_its_text_in_and_nothing_else_does() {
    // An element that closes with one text child, the two carrying one
    // instance of a copy's role and nothing else, keeps the text in its
    // own slot; each case beside it keeps the text a node.
    let people = "<site><people><person id='p0'><name>Ann</name></person>\
                  <person id='p1'><name>Bob</name></person></people><z>Z</z></site>";
    let xmark = xmark(48, 4242);
    let persons = xmark.matches("<person ").count() as u64;
    let row = |name: &str| {
        QUERIES
            .iter()
            .chain(&REREAD)
            .find(|q| q.0 == name)
            .unwrap()
            .1
    };
    for (name, doc, folded) in [
        // The escaped text; the attribute, the mixed content and the text
        // split by a CDATA section and a comment stay.
        ("a leaf copied after its end tag", LEAVES, 1),
        ("a leaf and its text", LEAVES, 0),
        ("a leaf beside a positional step", LEAVES, 0),
        // `z`, copied again for each person.
        ("a root path in a loop", people, 1),
        // Every person's name but the first, which is written through.
        ("Q8", &xmark, persons - 1),
    ] {
        let q = compile(row(name));
        for chunk in [1, doc.len()] {
            let seen = fed(&q, &EngineOptions::gcx(), doc, chunk);
            let buffer = seen.report.buffer;
            assert_eq!(buffer.folded, folded, "{name}, chunks of {chunk}");
            assert_eq!(buffer.purged, buffer.allocated, "{name}");
            assert_eq!(seen.output, gcx::dom::run_query(row(name), doc).unwrap());
        }
        for opts in [
            EngineOptions::projection_only(),
            EngineOptions::full_buffering(),
        ] {
            let report = whole(&q, &opts, doc).report;
            assert_eq!(report.buffer.folded, 0, "{name}: {:?}", opts.mode);
        }
    }
}

//! The adversarial document generator shared by the differential suites
//! of this crate: documents dense with the constructs that could fool a
//! scanner that understands less than the tokenizer does — comments
//! containing fake tags, CDATA containing end tags, processing
//! instructions, DOCTYPE internal subsets, entity-encoded angle brackets
//! in text, `>` and quotes inside attribute values.
//!
//! Its seeded generator and case runner are also the workspace's property
//! testing kit: the root `tests/common` and gcx-query's
//! `parser_generated.rs` include this file by path.

/// Deterministic generator state (xorshift64*, no external deps).
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }

    pub fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    /// `n` sorted cut points in `0..=len`: where to split `len` bytes
    /// into `n + 1` feeds.
    #[allow(dead_code)] // the suites outside this crate use it
    pub fn splits(&mut self, len: usize, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|_| (self.next() as usize) % (len + 1)).collect();
        v.sort_unstable();
        v
    }
}

/// Run `cases` cases of a property, each on a generator of its own
/// derived from `base`; a panicking case names its seed before the panic
/// goes on, so `XorShift(seed)` replays it alone.
#[allow(dead_code)] // the suites outside this crate use it
pub fn for_each_case(base: u64, cases: u64, mut case: impl FnMut(&mut XorShift)) {
    for i in 0..cases {
        // Odd: an all-zero xorshift state stays zero.
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let run = std::panic::AssertUnwindSafe(|| case(&mut XorShift(seed)));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("case {i} of {cases} failed; replay with XorShift({seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

const NAMES: &[&str] = &[
    "a",
    "b",
    "item",
    "name",
    "x",
    "region",
    "q2",
    "\u{e9}t\u{e9}",
    "ns:el-1.x",
];
/// Text fragments, heavy on entity-encoded angle brackets: an expanded
/// `<` must never become a boundary.
const TEXTS: &[&str] = &[
    "plain",
    "&lt;fake&gt;",
    "&amp;&apos;&quot;",
    "a &#60;b&#62; c",
    "  spaced  ",
    "&#x3C;x/&#x3E;",
    "gr\u{fc}\u{df}e \u{2014} \u{1F600}",
    "caf\u{e9} &amp; th\u{e9}",
    "line\r\nbreak\rs",
];
/// Attribute values: plain ones (the tokenizer's plain-tag recogniser
/// takes a tag whose values are all plain — and written as below, one
/// space before each attribute) and ones it must decline.
const ATTR_VALUES: &[&str] = &[
    "v",
    "person0",
    "12.50",
    "",
    "1>2",
    "a&lt;b",
    "with 'single'",
    ">>>",
    "/>",
    "na\u{ef}ve",
];
const COMMENTS: &[&str] = &[
    "<!-- <a><b/></a> -->",
    "<!-- </r> -->",
    "<!---->",
    "<!-- ]]> -->",
];
const PIS: &[&str] = &["<?pi <x> ?>", "<?target </deep> ?>"];
const CDATAS: &[&str] = &[
    "<![CDATA[</r><z>]]>",
    "<![CDATA[<!-- not a comment -->]]>",
    "<![CDATA[]]>",
];

/// Append a random element subtree (start tag, mixed content, end tag).
fn gen_element(rng: &mut XorShift, out: &mut String, depth: usize) {
    let name = rng.pick(NAMES);
    out.push('<');
    out.push_str(name);
    for i in 0..rng.below(3) {
        let quote = if rng.below(2) == 0 { '"' } else { '\'' };
        let value = rng.pick(ATTR_VALUES);
        // A value containing the quote character would end it early.
        if value.contains(quote) {
            continue;
        }
        out.push_str(&format!(" k{i}={quote}{value}{quote}"));
    }
    // Whitespace is allowed before the closing delimiter of any tag.
    let pad = |rng: &mut XorShift| if rng.below(6) == 0 { " " } else { "" };
    out.push_str(pad(rng));
    if depth >= 4 || rng.below(5) == 0 {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.below(4) {
        match rng.below(8) {
            0..=2 => gen_element(rng, out, depth + 1),
            3..=4 => out.push_str(rng.pick(TEXTS)),
            5 => out.push_str(rng.pick(COMMENTS)),
            6 => out.push_str(rng.pick(PIS)),
            _ => out.push_str(rng.pick(CDATAS)),
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push_str(pad(rng));
    out.push('>');
}

/// A whole document: optional XML declaration, DOCTYPE with a tricky
/// internal subset, comments/PIs around the root element.
pub fn gen_doc(rng: &mut XorShift) -> String {
    let mut doc = String::new();
    if rng.below(2) == 0 {
        doc.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    }
    if rng.below(2) == 0 {
        doc.push_str(
            "<!DOCTYPE r [<!ELEMENT r ANY> <!-- <fake/> --> \
             <?pi > ?> <!ENTITY e \"<evil/>\">]>\n",
        );
    }
    if rng.below(3) == 0 {
        doc.push_str("<!-- prolog <comment> -->");
    }
    doc.push_str("<r>");
    for _ in 0..1 + rng.below(6) {
        gen_element(rng, &mut doc, 1);
    }
    doc.push_str("</r>");
    if rng.below(3) == 0 {
        doc.push_str("\n<?epilog </r> ?><!-- done -->");
    }
    doc
}

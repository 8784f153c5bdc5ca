//! A value use of an attribute directly on a loop variable — `$v/@a` as a
//! comparison or string-function operand, an aggregate argument or an
//! `exists` — takes no role: its owner is `$v`'s node, which `$v`'s binding
//! role keeps until the same anchor (`gcx_projection::analysis`). Nothing
//! observable but the role listing may tell.
//!
//! For XMark Q1 (`$b/@id`) and Q8 (`$p/@id`, the hash join's probe), and
//! for each shape over a generated document — `exists`, `count`/`sum`,
//! `contains`, a use inside a loop that re-runs per outer binding, a hash
//! join keyed and probed on bound attributes — beside the uses that keep
//! their role (`$x/y/@a`, an output `$x/@a`), the differential matrix
//! holds every axis, and the role listings are pinned.

mod common;

use common::{cases, compile, contract, xmark};

/// `<r>` with `n` `a` elements (an `@a` on two in three, a `y` child with
/// its own `@a`) and `n` `b` elements (a `@k` and a `c` child).
fn doc(n: usize) -> String {
    let mut d = String::from("<r>");
    for i in 0..n {
        let a = if i % 3 == 2 {
            String::new()
        } else {
            format!(" a=\"{}\"", i % 4)
        };
        d.push_str(&format!(
            "<a{a}><y a=\"{}\">t{i}</y></a><b k=\"{}\"><c>c{i}</c></b>",
            (3 * i) % 4,
            i % 5
        ));
    }
    d.push_str("</r>");
    d
}

/// Shapes over [`doc`], and whether the bound attribute's use takes a role.
const SHAPES: [(&str, bool); 8] = [
    (
        "<o>{ for $x in /r/a return if (exists($x/@a)) then $x/y else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return <n>{ count($x/@a), sum($x/@a) }</n> }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return if (contains($x/@a, '1')) then $x/y else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return for $y in /r/b return \
         if ($y/@k > 2 and $x/@a = '2') then $y/c else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return for $y in /r/b return \
         if ($y/@k = $x/@a) then $y/c else () }</o>",
        false,
    ),
    (
        "<o>{ for $x in /r/a return if ($x/y/@a = '1') then 'hit' else () }</o>",
        true,
    ),
    ("<o>{ for $x in /r/a return <v>{ $x/@a }</v> }</o>", true),
    (
        "<o>{ for $x in /r/a return if ($x/@a = $x/y/@a) then $x/@a else () }</o>",
        true,
    ),
];

#[test]
fn bound_attribute_uses_equal_the_oracle() {
    for (text, keeps) in SHAPES {
        // Roles on `/r/a` beyond `$x`'s binding (an output's) or on
        // `/r/a/y` (`$x/y/@a`'s, which nothing else keeps).
        let listing = compile(text).analysis.roles_listing();
        let on_a = listing.lines().filter(|l| l.ends_with(": /r/a")).count();
        let on_y = listing.lines().filter(|l| l.ends_with(": /r/a/y")).count();
        let extra = on_a - 1 + on_y;
        assert_eq!(extra > 0, keeps, "{text}\n{listing}");
    }
    assert!(compile(SHAPES[4].0).program.listing().contains("hashjoin"));
    let texts = SHAPES.map(|(text, _)| text);
    contract(&cases(&texts, &[doc(12), doc(90)], None));
}

#[test]
fn xmark_q1_and_q8_equal_the_oracle() {
    let texts = [gcx::xmark::queries::Q1, gcx::xmark::queries::Q8];
    for text in texts {
        let listing = compile(text).analysis.roles_listing();
        assert_eq!(
            listing.matches(": /site/people/person\n").count(),
            1,
            "{text}: the binding's role alone\n{listing}"
        );
    }
    assert!(compile(texts[1]).program.listing().contains("hashjoin"));
    contract(&cases(&texts, &[xmark(48, 7)], None));
}

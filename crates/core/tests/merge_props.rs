//! Randomized property tests for matcher merging (satellite of the
//! shared-stream subsystem): for every query in a batch, the merged
//! [`TaggedMatcher`]'s outcome restricted to that query's tag must equal
//! the outcome of a matcher over that query's paths alone — keep/skip
//! decisions, role assignments, and descendant-axis role
//! *multiplicities*.
//!
//! Built on the in-tree `rand` shim (the external `proptest` crate is
//! unavailable offline); deterministic seeds keep failures reproducible.

use gcx_core::batch::run_batch;
use gcx_core::CompiledQuery;
use gcx_projection::{Automaton, CompiledPaths, TaggedMatcher, TaggedPaths};
use gcx_xml::SymbolTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Query pool over a small tag alphabet; all inside the GCX fragment, with
/// deliberate overlap (shared prefixes, descendant axes, predicates) so
/// merging actually has to disentangle them.
const POOL: [&str; 10] = [
    "for $x in /a/b return $x",
    "for $x in /a/b/c return $x/text()",
    "for $x in //c return $x",
    "for $x in /a/*/d return $x",
    "for $x in /a/b[2] return $x",
    "for $x in //b//c return $x",
    "for $x in /a return $x/text()",
    "<r>{ for $x in /a/b return if (exists($x/c)) then $x/c else () }</r>",
    "for $x in /a/c/text() return $x",
    "'no input at all'",
];

// ---- random documents -------------------------------------------------------

#[derive(Debug)]
enum Node {
    Elem {
        name: &'static str,
        children: Vec<Node>,
    },
    Text,
}

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

fn gen_tree(rng: &mut StdRng, depth: u32) -> Node {
    let name = TAGS[rng.gen_range(0..TAGS.len())];
    let n_children = if depth >= 4 { 0 } else { rng.gen_range(0..4) };
    let children = (0..n_children)
        .map(|_| {
            if rng.gen_bool(0.25) {
                Node::Text
            } else {
                gen_tree(rng, depth + 1)
            }
        })
        .collect();
    Node::Elem { name, children }
}

fn to_xml(node: &Node, out: &mut String) {
    match node {
        Node::Elem { name, children } => {
            out.push_str(&format!("<{name}>"));
            for c in children {
                to_xml(c, out);
            }
            out.push_str(&format!("</{name}>"));
        }
        Node::Text => out.push('t'),
    }
}

// ---- matcher-level equivalence ----------------------------------------------

/// One standalone matcher with its skip bookkeeping.
struct Solo {
    m: TaggedMatcher,
    skip: u32,
}

/// Recursive lockstep walk: feed the element tree to the merged matcher
/// and to every standalone matcher, asserting per-query agreement at each
/// step.
fn walk(node: &Node, merged: &mut TaggedMatcher, solos: &mut [Solo], sy: &mut SymbolTable) {
    let Node::Elem { name, children } = node else {
        // Text: roles restricted per tag must match each standalone text.
        let tagged = merged.text().to_vec();
        for (qi, solo) in solos.iter_mut().enumerate() {
            if solo.skip > 0 {
                assert!(
                    !tagged.iter().any(|&(t, _, _)| t as usize == qi),
                    "q{qi}: merged assigns text roles inside a skipped region"
                );
                continue;
            }
            let mine: Vec<_> = tagged
                .iter()
                .filter(|&&(t, _, _)| t as usize == qi)
                .map(|&(_, r, c)| (r, c))
                .collect();
            let solo_roles: Vec<_> = solo.m.text().iter().map(|&(_, r, c)| (r, c)).collect();
            assert_eq!(mine, solo_roles, "q{qi}: text roles diverge");
        }
        return;
    };
    let name_sym = sy.intern(name);

    // Standalone decisions first (separate matchers, separate skip state).
    let mut solo_keep = vec![false; solos.len()];
    let mut solo_roles: Vec<Vec<(gcx_query::ast::RoleId, u32)>> = vec![Vec::new(); solos.len()];
    for (qi, solo) in solos.iter_mut().enumerate() {
        if solo.skip > 0 {
            solo.skip += 1;
            continue;
        }
        if let Some((_, roles)) = solo.m.enter(name_sym) {
            solo_keep[qi] = true;
            solo_roles[qi].extend(roles.iter().map(|&(_, r, c)| (r, c)));
        }
    }

    // Merged decision.
    let (any_keep, kept, tagged) = match merged.enter(name_sym) {
        Some((kept, tagged)) => (true, kept.to_vec(), tagged.to_vec()),
        None => (false, Vec::new(), Vec::new()),
    };
    let expected_any = solo_keep.iter().any(|&k| k);
    assert_eq!(
        any_keep, expected_any,
        "merged keep != OR(standalone keeps)"
    );
    for (qi, solo) in solos.iter().enumerate() {
        if solo.skip > 0 {
            continue; // entered above; kept[qi] is false by construction
        }
        if any_keep {
            assert_eq!(kept[qi], solo_keep[qi], "q{qi}: keep diverges on <{name}>");
            let mine = tagged.iter().filter(|&&(t, _, _)| t as usize == qi);
            assert_eq!(
                mine.map(|&(_, r, c)| (r, c)).collect::<Vec<_>>(),
                solo_roles[qi],
                "q{qi}: roles diverge on <{name}>"
            );
        }
    }

    if any_keep {
        // Mark newly-skipping solos (they just declined this element).
        for (qi, solo) in solos.iter_mut().enumerate() {
            if solo.skip == 0 && !solo_keep[qi] {
                solo.skip = 1;
            }
        }
        for c in children {
            walk(c, merged, solos, sy);
        }
        merged.leave_element();
        for (qi, solo) in solos.iter_mut().enumerate() {
            if solo.skip > 0 {
                solo.skip -= 1;
            } else {
                assert!(solo_keep[qi]);
                solo.m.leave_element();
            }
        }
    } else {
        // Nobody descends. Rewind the solo skip counters bumped above.
        for (qi, solo) in solos.iter_mut().enumerate() {
            if solo.skip > 0 {
                solo.skip -= 1;
            } else {
                assert!(!solo_keep[qi], "solo kept but merged skipped");
            }
        }
    }
}

#[test]
fn merged_matcher_equals_standalone_matchers() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..300 {
        // Random batch of 1..=4 queries from the pool (duplicates allowed).
        let n = rng.gen_range(1..5usize);
        let texts: Vec<&str> = (0..n).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect();
        let queries: Vec<CompiledQuery> = texts
            .iter()
            .map(|t| CompiledQuery::compile(t).unwrap())
            .collect();

        let mut sy = SymbolTable::new();
        let parts: Vec<CompiledPaths> = queries
            .iter()
            .map(|q| CompiledPaths::compile(&q.analysis.roles, &mut sy))
            .collect();
        let automaton = Automaton::new(TaggedPaths::merge(parts.iter()), None);
        let mut merged = TaggedMatcher::start(Arc::new(automaton));
        let mut solos: Vec<Solo> = queries
            .iter()
            .map(|q| {
                let paths = CompiledPaths::compile(&q.analysis.roles, &mut sy);
                let automaton = Automaton::new(TaggedPaths::merge([&paths]), None);
                let m = TaggedMatcher::start(Arc::new(automaton));
                Solo { m, skip: 0 }
            })
            .collect();

        let tree = gen_tree(&mut rng, 0);
        walk(&tree, &mut merged, &mut solos, &mut sy);
        assert_eq!(merged.depth(), 0, "round {round}: unbalanced walk");
    }
}

// ---- end-to-end randomized equivalence --------------------------------------

#[test]
fn random_batches_byte_identical_end_to_end() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..120 {
        let n = rng.gen_range(1..5usize);
        let texts: Vec<&str> = (0..n).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect();
        let queries: Vec<CompiledQuery> = texts
            .iter()
            .map(|t| CompiledQuery::compile(t).unwrap())
            .collect();
        let mut doc = String::new();
        to_xml(&gen_tree(&mut rng, 0), &mut doc);

        let report = run_batch(&queries, doc.as_bytes())
            .unwrap_or_else(|e| panic!("round {round}: batch failed: {e}\ndoc: {doc}"));
        for (qi, (q, run)) in queries.iter().zip(&report.queries).enumerate() {
            let mut expected = Vec::new();
            gcx_core::run(
                q,
                &gcx_core::EngineOptions::gcx(),
                doc.as_bytes(),
                &mut expected,
            )
            .unwrap();
            assert_eq!(
                run.output, expected,
                "round {round} q{qi} ({}) diverges\ndoc: {doc}",
                texts[qi]
            );
            assert_eq!(run.report.as_ref().unwrap().buffer.live, 0);
        }
    }
}

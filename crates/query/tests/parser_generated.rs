//! Properties of the query frontend over seeded generators: a generated
//! AST printed and parsed again is the same AST, and the lexer, the parser
//! and the normalizer never panic, whatever text they are given.
//!
//! Every case runs on its own generator; a failing case prints its seed
//! (`XorShift(seed)` replays it alone).

#[path = "../../xml/tests/common/mod.rs"]
mod generated;

use gcx_query::ast::*;
use generated::{for_each_case, gen_doc, XorShift};

/// True with probability `num / den`.
fn chance(rng: &mut XorShift, num: usize, den: usize) -> bool {
    rng.below(den) < num
}

// ---- AST generation ----------------------------------------------------------

fn name(rng: &mut XorShift) -> String {
    rng.pick(&["a", "bib", "book", "price", "item-x", "_u"])
        .to_string()
}

fn step(rng: &mut XorShift) -> Step {
    let test = match rng.below(4) {
        0 => NodeTest::Name(name(rng)),
        1 => NodeTest::Star,
        2 => NodeTest::Text,
        _ => NodeTest::AnyNode,
    };
    let axis = match rng.below(8) {
        0..=3 => Axis::Child,
        4 | 5 => Axis::Descendant,
        6 => Axis::DescendantOrSelf,
        _ => Axis::SelfAxis,
    };
    // Predicates only on child steps with a name or `*` test.
    let pred = match (axis, &test) {
        (Axis::Child, NodeTest::Name(_) | NodeTest::Star) if chance(rng, 1, 2) => {
            Some(Pred::Position(1 + rng.below(4) as u32))
        }
        _ => None,
    };
    Step { axis, test, pred }
}

fn path(rng: &mut XorShift, vars: &[String]) -> PathExpr {
    let root = if vars.is_empty() || chance(rng, 1, 2) {
        PathRoot::Root
    } else {
        PathRoot::Var(Var {
            name: vars[rng.below(vars.len())].clone(),
            id: VarId::UNASSIGNED,
        })
    };
    let mut steps: Vec<Step> = (0..rng.below(4)).map(|_| step(rng)).collect();
    if chance(rng, 1, 2) {
        steps.push(Step {
            axis: Axis::Attribute,
            test: NodeTest::Name(name(rng)),
            pred: None,
        });
    }
    PathExpr {
        root,
        steps,
        span: Span::default(),
    }
}

fn operand(rng: &mut XorShift, vars: &[String]) -> Operand {
    match rng.below(4) {
        0 => Operand::Path(path(rng, vars)),
        1 => Operand::StringLit("lit".into()),
        2 => Operand::NumberLit(3.5),
        _ => Operand::NumberLit(7.0),
    }
}

fn cond(rng: &mut XorShift, vars: &[String], depth: u32) -> Cond {
    if depth == 0 || rng.below(6) < 3 {
        return match rng.below(5) {
            0 => Cond::True,
            1 => Cond::False,
            2 => Cond::Exists(path(rng, vars)),
            k => Cond::Compare {
                op: if k == 3 { CmpOp::Le } else { CmpOp::Ne },
                lhs: operand(rng, vars),
                rhs: operand(rng, vars),
            },
        };
    }
    let op = rng.below(3);
    let mut inner = || Box::new(cond(rng, vars, depth - 1));
    match op {
        0 => Cond::Not(inner()),
        1 => Cond::And(inner(), inner()),
        _ => Cond::Or(inner(), inner()),
    }
}

fn expr(rng: &mut XorShift, vars: &[String], depth: u32) -> Expr {
    let pick = if depth == 0 { 0 } else { rng.below(9) };
    match pick {
        0..=2 => match rng.below(5) {
            0 => Expr::Empty,
            1 => Expr::StringLit("text".into()),
            2 => Expr::NumberLit(42.0),
            3 => Expr::Path(path(rng, vars)),
            _ => Expr::Aggregate {
                func: AggFunc::Count,
                arg: path(rng, vars),
            },
        },
        3 | 4 => {
            // Source paths never bind attributes in generated queries.
            let mut source = path(rng, vars);
            source.steps.retain(|s| s.axis != Axis::Attribute);
            let fresh = name(rng);
            let mut inner = vars.to_vec();
            inner.push(fresh.clone());
            Expr::For {
                var: Var {
                    name: fresh,
                    id: VarId::UNASSIGNED,
                },
                source,
                where_clause: None,
                body: Box::new(expr(rng, &inner, depth - 1)),
            }
        }
        5 | 6 => Expr::If {
            cond: cond(rng, vars, 1),
            then_branch: Box::new(expr(rng, vars, depth - 1)),
            else_branch: Box::new(expr(rng, vars, depth - 1)),
        },
        7 => Expr::Element {
            name: name(rng).replace('-', "_"),
            attrs: vec![("k".into(), "v".into())],
            content: Box::new(expr(rng, vars, depth - 1)),
        },
        // `Expr::seq` is the canonical constructor (it collapses empties
        // and singletons the way the parser does), so round trips compare
        // canonical forms.
        _ => Expr::seq(
            (0..2 + rng.below(2))
                .map(|_| expr(rng, vars, depth - 1))
                .collect(),
        ),
    }
}

// ---- text generation ---------------------------------------------------------

/// Printable ASCII, half of it the fragment's own tokens, so that some of
/// it gets past the lexer into the parser and the normalizer.
fn garbage(rng: &mut XorShift) -> String {
    const TOKENS: &[&str] = &[
        "for ", "$x", " in ", "/", "//", " return ", "{", "}", "<a>", "</a>", "if (", ")",
        " then ", " else ", "'", "\"", "=", "<", " and ", "exists(", "count(", "[1]", "@id", ", ",
        "()", "$y", " where ", "text()",
    ];
    let mut s = String::new();
    for _ in 0..rng.below(61) {
        if chance(rng, 1, 2) {
            s.push_str(rng.pick(TOKENS));
        } else {
            s.push((b' ' + rng.below(95) as u8) as char);
        }
    }
    s
}

/// Up to 40 characters of any kind but control characters.
fn unicode(rng: &mut XorShift) -> String {
    let (mut s, len) = (String::new(), rng.below(41));
    while s.chars().count() < len {
        let c = match rng.below(4) {
            0 => char::from_u32(0x20 + rng.below(0x5F) as u32),
            1 => char::from_u32(0xA0 + rng.below(0x700) as u32),
            _ => char::from_u32(rng.below(0x11_0000) as u32),
        };
        s.extend(c.filter(|c| !c.is_control()));
    }
    s
}

// ---- properties --------------------------------------------------------------

#[test]
fn printed_ast_reparses_identically() {
    for_each_case(0x5EED_0A57, 512, |rng| {
        let e = expr(rng, &[], 3);
        let printed = e.to_string();
        let reparsed = gcx_query::parse(&printed)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\n{printed}"));
        assert_eq!(e, reparsed, "\nprinted:\n{printed}");
    });
}

#[test]
fn parser_and_normalizer_never_panic_on_garbage() {
    for_each_case(0x5EED_6A7B, 2048, |rng| {
        // Random text, and now and then an XML document (which looks like
        // a direct element constructor).
        let input = if chance(rng, 1, 8) {
            gen_doc(rng)
        } else {
            garbage(rng)
        };
        // Error or success, never a panic.
        if let Ok(e) = gcx_query::parse(&input) {
            let _ = gcx_query::normalize(e);
        }
    });
}

#[test]
fn lexer_never_panics_on_unicode() {
    for_each_case(0x5EED_1E70, 2048, |rng| {
        let _ = gcx_query::lex(&unicode(rng));
    });
}

#[test]
fn generated_asts_normalize_without_panicking() {
    for_each_case(0x5EED_40B3, 512, |rng| {
        let _ = gcx_query::normalize(expr(rng, &[], 3));
    });
}

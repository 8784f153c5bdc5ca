//! Reference model of the buffer: seeded random operation sequences run
//! against the real [`BufferTree`] and a naive vector-of-structs tree, and
//! after every operation everything observable must agree — navigation,
//! names, attributes, text, ordinals (kept or not), roles, the last child
//! the first child's back-link names, `is_live` of every id ever issued,
//! all seven [`BufferStats`] fields, and the string value and
//! serialization of every folded element (of the whole tree every 64th
//! operation) — and `check_integrity` recounts every hold count and the
//! live bytes and checks every back-link and every spilled role
//! multiset's packed count. Where the buffer keeps no ordinals, the role
//! sequences fold: one role is a fold role ([`BufferTree::fold_copies`]),
//! and now and then an element is appended with one text child that
//! carries it too (or a second role, a second instance, a pin or a
//! sibling, which keep it a node), so that the model folds at the
//! element's close what the buffer must. Each sequence grows the buffer
//! past four live chunks and drains it, twice, so chunk release and
//! reopening, the spare, slot reuse across generations, spilled role
//! lists and the payload store's free lists are all exercised. Three
//! [`Shape`]s cover every state in which a live node does not hold.
//! (Under Miri the comparison runs every 97th operation.)

use super::*;

/// xorshift64*: deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const NONE: usize = usize::MAX;

/// The fold role, where a sequence folds.
const FOLD: RoleId = RoleId(2);

/// Names enough for every symbol a sequence uses (elements 0..6,
/// attributes 10..14), `n0` for `Symbol(0)` and so on.
fn symbols() -> SymbolTable {
    let mut t = SymbolTable::new();
    for i in 0..14 {
        assert_eq!(t.intern(&format!("n{i}")), Symbol(i));
    }
    t
}

/// What a sequence buffers, and whether it purges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Roles on most nodes, purging on: the GCX configuration.
    Roles,
    /// No role anywhere, purging on: role-less nodes, which a projecting
    /// buffer only holds while open or pinned. An element goes when it
    /// closes, a text node (which never holds unless pinned) with its
    /// parent or on its unpin.
    RoleLess,
    /// Roles on most nodes, purging off (`FullBuffering`): everything
    /// closed and role- and pin-free stays live without holding.
    NoPurge,
}

/// What the model knows of one node.
#[derive(Debug)]
struct Node {
    id: NodeId,
    parent: usize,
    /// Live children, in document order.
    children: Vec<usize>,
    /// None for a text node.
    name: Option<Symbol>,
    /// A text node's, or the one a folded element took in.
    text: String,
    attrs: Vec<(Symbol, String)>,
    ordinals: Ordinals,
    roles: Vec<(RoleId, u32)>,
    pins: u32,
    closed: bool,
    /// An element that took its text child in.
    folded: bool,
    live: bool,
}

impl Node {
    /// The accounted charge: a 48-byte slot, 12 bytes of ordinals where
    /// they are kept, plus an 8-byte record and the value per attribute,
    /// or the text (a folded element's too).
    fn bytes(&self, ordinals: bool) -> u64 {
        let attrs: usize = self.attrs.iter().map(|(_, v)| 8 + v.len()).sum();
        let ordinals = if ordinals { 12 } else { 0 };
        (48 + ordinals + attrs + self.text.len()) as u64
    }
}

/// The naive tree: every node ever issued, in one vector.
struct Model {
    nodes: Vec<Node>,
    stats: BufferStats,
    purge: bool,
    /// The buffer keeps ordinals.
    ordinals: bool,
    /// The sequence folds (see the module docs).
    fold: bool,
}

impl Model {
    fn append(&mut self, node: Node) -> usize {
        let i = self.nodes.len();
        self.nodes[node.parent].children.push(i);
        let s = &mut self.stats;
        s.live += 1;
        s.allocated += 1;
        s.peak_live = s.peak_live.max(s.live);
        s.live_bytes += node.bytes(self.ordinals);
        s.peak_live_bytes = s.peak_live_bytes.max(s.live_bytes);
        self.nodes.push(node);
        i
    }

    /// Role instances and pins in `i`'s subtree.
    fn holds(&self, i: usize) -> (u64, u64) {
        let n = &self.nodes[i];
        let mut roles: u64 = n.roles.iter().map(|&(_, c)| c as u64).sum();
        let mut pins = n.pins as u64;
        for &c in &n.children {
            let (r, p) = self.holds(c);
            roles += r;
            pins += p;
        }
        (roles, pins)
    }

    /// The paper's purge rule, evaluated from scratch: free the highest
    /// closed ancestor-or-self of `i` with no role and no pin below it.
    fn try_purge(&mut self, mut i: usize) {
        if !self.purge {
            return;
        }
        let mut top = NONE;
        while i != 0 && self.nodes[i].closed && self.holds(i) == (0, 0) {
            top = i;
            i = self.nodes[i].parent;
        }
        if top != NONE {
            let parent = self.nodes[top].parent;
            self.nodes[parent].children.retain(|&c| c != top);
            self.free(top);
        }
    }

    /// Closed element `i` takes in its text child if that is its only
    /// child, unpinned, and the two carry one instance of [`FOLD`] each and
    /// nothing else, and `i` has no attributes.
    fn try_fold(&mut self, i: usize) {
        let n = &self.nodes[i];
        let one = [(FOLD, 1)];
        let &[c] = &n.children[..] else {
            return;
        };
        let t = &self.nodes[c];
        if !self.fold || n.roles != one || !n.attrs.is_empty() {
            return;
        }
        if t.name.is_some() || t.roles != one || t.pins != 0 {
            return;
        }
        let text = std::mem::take(&mut self.nodes[c].text);
        self.nodes[c].live = false;
        let n = &mut self.nodes[i];
        n.children.clear();
        n.text = text;
        n.folded = true;
        let s = &mut self.stats;
        s.live -= 1;
        s.purged += 1;
        s.folded += 1;
        s.live_bytes -= 48;
    }

    /// The string value of `i`: its text and its descendants'.
    fn string_value(&self, i: usize, out: &mut String) {
        out.push_str(&self.nodes[i].text);
        for &c in &self.nodes[i].children {
            self.string_value(c, out);
        }
    }

    /// `i` serialized as the buffer must: an open element's start tag and
    /// what has arrived under it, left open; the root's children only.
    fn serialize(&self, i: usize, symbols: &SymbolTable, w: &mut XmlWriter<Vec<u8>>) {
        let n = &self.nodes[i];
        if i != 0 {
            let Some(name) = n.name else {
                return w.text(&n.text).unwrap();
            };
            w.start_element(symbols.resolve(name)).unwrap();
            for (a, v) in &n.attrs {
                w.attribute(symbols.resolve(*a), v).unwrap();
            }
            if n.folded {
                w.text(&n.text).unwrap();
            }
        }
        for &c in &n.children {
            self.serialize(c, symbols, w);
        }
        if i != 0 && n.closed {
            w.end_element().unwrap();
        }
    }

    fn free(&mut self, i: usize) {
        for c in std::mem::take(&mut self.nodes[i].children) {
            self.free(c);
        }
        self.nodes[i].live = false;
        self.stats.live -= 1;
        self.stats.purged += 1;
        self.stats.live_bytes -= self.nodes[i].bytes(self.ordinals);
    }
}

fn stats_of(s: BufferStats) -> [u64; 7] {
    [
        s.live,
        s.peak_live,
        s.allocated,
        s.purged,
        s.live_bytes,
        s.peak_live_bytes,
        s.folded,
    ]
}

/// The string value and serialization of `i` in `buf` and in `m`.
fn check_content(buf: &BufferTree, m: &Model, symbols: &SymbolTable, i: usize) {
    let id = m.nodes[i].id;
    let (mut got, mut want) = (String::new(), String::new());
    buf.string_value(id, &mut got);
    m.string_value(i, &mut want);
    assert_eq!(got, want, "string value of {id:?}");
    let (mut got, mut want) = (XmlWriter::new(Vec::new()), XmlWriter::new(Vec::new()));
    buf.serialize(id, symbols, &mut got).unwrap();
    m.serialize(i, symbols, &mut want);
    assert!(got.get_ref() == want.get_ref(), "serialization of {id:?}");
    assert_eq!(got.depth(), want.depth(), "elements left open in {id:?}");
}

/// Everything observable of `buf` against `m`: the content of each folded
/// element, and with `whole` of the whole tree.
fn check(buf: &BufferTree, m: &Model, symbols: &SymbolTable, whole: bool) {
    assert_eq!(stats_of(buf.stats()), stats_of(m.stats), "stats");
    if whole {
        check_content(buf, m, symbols, 0);
    }
    for (i, n) in m.nodes.iter().enumerate() {
        assert_eq!(buf.is_live(n.id), n.live, "is_live {:?}", n.id);
        if !n.live {
            continue;
        }
        let id = n.id;
        let parent = (n.parent != NONE).then(|| m.nodes[n.parent].id);
        assert_eq!(buf.parent(id), parent);
        let mut child = buf.first_child(id);
        for &c in &n.children {
            assert_eq!(child, Some(m.nodes[c].id), "children of {id:?}");
            child = buf.next_sibling(m.nodes[c].id);
        }
        assert_eq!(child, None, "children of {id:?}");
        let last = n.children.last().map(|&c| m.nodes[c].id);
        assert_eq!(buf.last_child(id), last, "last child of {id:?}");
        if id == NodeId::ROOT {
            continue;
        }
        assert_eq!(buf.name(id), n.name);
        assert_eq!(buf.is_text(id), n.name.is_none());
        assert_eq!(
            buf.text_content(id),
            n.name.is_none().then_some(&n.text[..])
        );
        let want = n.attrs.iter().map(|(s, v)| (*s, &v[..]));
        assert!(buf.attrs(id).iter().eq(want), "attributes of {id:?}");
        assert_eq!(buf.attrs(id).len(), n.attrs.len());
        if let Some((s, v)) = n.attrs.first() {
            assert_eq!(buf.attr(id, *s), Some(&v[..]));
        }
        assert_eq!(buf.ordinals(id), m.ordinals.then_some(n.ordinals));
        assert_eq!(buf.roles(id), &n.roles[..], "roles of {id:?}");
        for r in 0..4 {
            let want = n
                .roles
                .iter()
                .find(|(x, _)| x.0 == r)
                .map_or(0, |&(_, c)| c);
            assert_eq!(buf.role_count(id, RoleId(r)), want);
        }
        assert_eq!(buf.is_closed(id), n.closed);
        if n.folded {
            check_content(buf, m, symbols, i);
        }
    }
    buf.check_integrity();
}

/// The buffer and the model, driven side by side.
struct World {
    rng: Rng,
    shape: Shape,
    buf: BufferTree,
    m: Model,
    /// Open elements, innermost last (model indices).
    open: Vec<usize>,
    /// One entry per pin held.
    pinned: Vec<usize>,
    attrs: AttrBuf,
    /// Generation last issued per slot index.
    gens: std::collections::HashMap<u32, u32>,
    reused: bool,
}

impl World {
    /// A value: usually short, now and then a few KiB, sometimes
    /// multi-byte or empty.
    fn value(&mut self) -> String {
        let bytes = match self.rng.below(16) {
            0 => 1024 + self.rng.below(3 * 1024),
            1..=3 => 0,
            _ => self.rng.below(40),
        } as usize;
        let unit = ["a", "é", "<&>", "x", "€"][self.rng.below(5) as usize];
        unit.repeat(bytes / unit.len())
    }

    /// Mostly 1–3 distinct roles of 0..4 (sorted, counts 1–3), else none;
    /// never any in the role-less shape.
    fn roles(&mut self) -> Vec<(RoleId, u32)> {
        if self.shape == Shape::RoleLess || self.rng.chance(20) {
            return Vec::new();
        }
        let mut roles = Vec::new();
        for r in 0..4 {
            if self.rng.chance(45) {
                roles.push((RoleId(r), 1 + self.rng.below(3) as u32));
            }
        }
        if roles.is_empty() {
            roles.push((RoleId(self.rng.below(4) as u32), 1));
        }
        roles.truncate(3);
        roles
    }

    /// A live node, or None after a few misses.
    fn some_live(&mut self) -> Option<usize> {
        let n = self.m.nodes.len() as u64;
        (0..8)
            .map(|_| 1 + self.rng.below(n.max(2) - 1) as usize)
            .find(|&i| i < self.m.nodes.len() && self.m.nodes[i].live)
    }

    fn append(&mut self) {
        let parent = *self.open.last().unwrap();
        let roles = self.roles();
        let text = self.m.nodes[parent].name.is_some() && self.rng.chance(35);
        self.append_node(roles, text, false);
    }

    /// Append a text node or an element with `roles` under the innermost
    /// open element; a `bare` element gets no attributes. Returns its
    /// model index.
    fn append_node(&mut self, roles: Vec<(RoleId, u32)>, text: bool, bare: bool) -> usize {
        let parent = *self.open.last().unwrap();
        let ordinals = Ordinals {
            same_kind: self.rng.below(9) as u32 + 1,
            elem: self.rng.below(9) as u32 + 1,
            any: self.rng.below(9) as u32 + 1,
        };
        let mut node = Node {
            id: NodeId::ROOT,
            parent,
            children: Vec::new(),
            name: None,
            text: String::new(),
            attrs: Vec::new(),
            ordinals,
            roles: roles.clone(),
            pins: 0,
            closed: text,
            folded: false,
            live: true,
        };
        let at = self.m.nodes[parent].id;
        if text {
            node.text = self.value();
            node.id = self.buf.append_text(at, &node.text, &roles, ordinals);
        } else {
            let name = Symbol(self.rng.below(6) as u32);
            for _ in 0..if bare { 0 } else { self.rng.below(5) } {
                let (attr, value) = (Symbol(10 + self.rng.below(4) as u32), self.value());
                self.attrs.push(attr, &value);
                node.attrs.push((attr, value));
            }
            node.name = Some(name);
            node.id = if node.attrs.is_empty() && self.rng.chance(50) {
                self.buf.append_element(at, name, &roles, ordinals)
            } else {
                self.buf
                    .append_element_with_attrs(at, name, &mut self.attrs, &roles, ordinals)
            };
            assert!(self.attrs.is_empty(), "the scratch comes back empty");
        }
        if let Some(old) = self.gens.insert(node.id.idx, node.id.gen) {
            assert_ne!(old, node.id.gen, "a reused slot gets a new generation");
            self.reused = true;
        }
        let i = self.m.append(node);
        if !text {
            self.open.push(i);
        }
        i
    }

    /// An attribute-less element carrying one instance of [`FOLD`], with
    /// a text child carrying the same — now and then a second instance or
    /// a second role, a pin or a text sibling, which keep it a node —
    /// closed at once as a rule.
    fn leaf(&mut self) {
        self.append_node(vec![(FOLD, 1)], false, true);
        let roles = match self.rng.below(10) {
            0 => vec![(FOLD, 2)],
            1 => vec![(RoleId(0), 1), (FOLD, 1)],
            _ => vec![(FOLD, 1)],
        };
        let text = self.append_node(roles, true, false);
        match self.rng.below(10) {
            0 => self.pin(text),
            1 => {
                self.append_node(vec![(FOLD, 1)], true, false);
            }
            _ => {}
        }
        if self.rng.chance(80) {
            self.close();
        }
    }

    fn pin(&mut self, i: usize) {
        self.buf.pin(self.m.nodes[i].id);
        self.m.nodes[i].pins += 1;
        self.pinned.push(i);
    }

    fn close(&mut self) {
        if self.open.len() > 1 {
            let i = self.open.pop().unwrap();
            self.buf.close(self.m.nodes[i].id);
            self.m.nodes[i].closed = true;
            self.m.try_fold(i);
            self.m.try_purge(i);
        }
    }

    fn decrement(&mut self, i: usize, role: RoleId, amount: u32) {
        let got = self.buf.decrement_role(self.m.nodes[i].id, role, amount);
        let n = &mut self.m.nodes[i];
        let mut want = 0;
        if let Some(pos) = n.roles.iter().position(|&(r, _)| r == role) {
            want = n.roles[pos].1.min(amount);
            n.roles[pos].1 -= want;
            if n.roles[pos].1 == 0 {
                n.roles.remove(pos);
            }
        }
        assert_eq!(got, want, "removed instances");
        if want > 0 {
            self.m.try_purge(i);
        }
    }

    /// One random operation; `growing` favours appends, else sign-offs.
    fn step(&mut self, growing: bool) {
        if self.m.fold && self.rng.chance(8) {
            return self.leaf();
        }
        let pick = self.rng.below(100);
        let (append, close) = if growing { (80, 15) } else { (10, 25) };
        if pick < append {
            self.append();
        } else if pick < append + close {
            self.close();
        } else if pick < 95 {
            if let Some(i) = self.some_live() {
                let own = &self.m.nodes[i].roles;
                let role = match own.len() {
                    0 => RoleId(self.rng.below(4) as u32),
                    n => own[self.rng.below(n as u64) as usize].0,
                };
                let amount = 1 + self.rng.below(3) as u32;
                self.decrement(i, role, amount);
            }
        } else if pick < 97 {
            if let Some(i) = self.some_live() {
                self.pin(i);
            }
        } else if !self.pinned.is_empty() {
            let at = self.rng.below(self.pinned.len() as u64) as usize;
            let i = self.pinned.swap_remove(at);
            self.buf.unpin(self.m.nodes[i].id);
            self.m.nodes[i].pins -= 1;
            self.m.try_purge(i);
        }
    }

    /// Close everything, drop the pins and every role instance.
    fn drain(&mut self) {
        while self.open.len() > 1 {
            self.close();
        }
        while let Some(i) = self.pinned.pop() {
            self.buf.unpin(self.m.nodes[i].id);
            self.m.nodes[i].pins -= 1;
            self.m.try_purge(i);
        }
        for i in 1..self.m.nodes.len() {
            for r in 0..4 {
                if self.m.nodes[i].live {
                    self.decrement(i, RoleId(r), u32::MAX);
                }
            }
        }
    }
}

fn resident(buf: &BufferTree) -> usize {
    buf.chunks.iter().filter(|c| c.slots.capacity() > 0).count()
}

fn run(seed: u64, phase_ops: usize, shape: Shape, ordinals: bool) {
    let purge = shape != Shape::NoPurge;
    let fold = shape == Shape::Roles && !ordinals;
    let root = Node {
        id: NodeId::ROOT,
        parent: NONE,
        children: Vec::new(),
        name: None,
        text: String::new(),
        attrs: Vec::new(),
        ordinals: Ordinals::FIRST,
        roles: Vec::new(),
        pins: 0,
        closed: false,
        folded: false,
        live: true,
    };
    let mut w = World {
        rng: Rng(seed | 1),
        shape,
        buf: BufferTree::new(purge).with_ordinals(ordinals),
        m: Model {
            nodes: vec![root],
            stats: BufferStats::default(),
            purge,
            ordinals,
            fold,
        },
        open: vec![0],
        pinned: Vec::new(),
        attrs: AttrBuf::new(),
        gens: std::collections::HashMap::new(),
        reused: false,
    };
    if fold {
        w.buf.fold_copies(1 << FOLD.0);
    }
    let symbols = symbols();
    let (mut most, mut reopened) = (0, false);
    for round in 0..2 {
        for op in 0..phase_ops + phase_ops / 2 {
            let (table, before) = (w.buf.chunks.len(), resident(&w.buf));
            w.step(op < phase_ops);
            let now = resident(&w.buf);
            reopened |= now > before && w.buf.chunks.len() == table;
            most = most.max(now);
            if !cfg!(miri) || op % 97 == 0 {
                check(&w.buf, &w.m, &symbols, op % 64 == 0);
            }
        }
        w.drain();
        check(&w.buf, &w.m, &symbols, true);
        let stats = w.buf.stats();
        if !purge {
            assert_eq!(stats.purged, 0, "seed {seed}, round {round}: purged");
            continue;
        }
        assert_eq!(stats.live, 0, "seed {seed}, round {round}: drained");
        // What is left resident: chunk 0 (the root's) and the spare.
        let left = resident(&w.buf);
        assert!(left <= 2, "seed {seed}, round {round}: {left} chunks stay");
    }
    // Without roles only the open elements and their text stay: fewer
    // chunks, and the storage is what the other shapes are there for.
    let chunks = if shape == Shape::RoleLess { 2 } else { 4 };
    assert!(
        most >= chunks,
        "seed {seed}: at most {most} chunks were live"
    );
    if purge {
        assert!(reopened, "seed {seed}: no released chunk was reopened");
        assert!(w.reused, "seed {seed}: no slot was reused");
    }
    let folded = w.buf.stats().folded;
    assert!(!fold || folded >= 100, "seed {seed}: {folded} folds");
}

#[test]
fn random_sequences_agree_with_the_model() {
    for (seed, ordinals) in [(0x5eed, false), (0xc0ffee, true)] {
        run(seed, 1000, Shape::Roles, ordinals);
    }
}

#[test]
fn role_less_sequences_agree_with_the_model() {
    for (seed, ordinals) in [(0x5eed, true), (0xc0ffee, false)] {
        run(seed, 1000, Shape::RoleLess, ordinals);
    }
}

#[test]
fn purge_disabled_sequences_agree_with_the_model() {
    for (seed, ordinals) in [(0x5eed, false), (0xc0ffee, true)] {
        run(seed, 700, Shape::NoPurge, ordinals);
    }
}

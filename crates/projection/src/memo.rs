//! The lazily determinised projection automaton: what the matcher's NFA
//! steps have produced so far, kept for the next time (see the
//! [matcher's module docs](crate::matcher), "Memoised transitions").

use crate::matcher::{QueryTag, StateId, TaggedRole};
use gcx_query::ast::RoleId;
use gcx_xml::{FxHasher, SlotTable, Symbol};
use std::hash::Hasher;

/// A state with its derivation count: `(path index, state id, count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct St {
    pub(crate) path: u32,
    pub(crate) sid: StateId,
    pub(crate) count: u32,
}

/// Index of an interned state set in the [`Memo`].
pub(crate) type SetId = u32;

/// What a set lets a driver do below a frame instead of stepping every
/// token through the matcher, computed once, when the set is interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Below<N> {
    /// Nothing: step.
    Step,
    /// A search set: every child named outside `names` leads back to the
    /// set itself, with no role, and no text child gets one.
    Search(N),
    /// A copy set: every child named outside `stops` leads back to the
    /// set itself with the single role instance `(role, 1)` of query
    /// `tag`, and every text child gets that instance alone.
    Copy {
        tag: QueryTag,
        role: RoleId,
        stops: N,
    },
}

impl<N> Below<N> {
    pub(crate) fn map<M>(self, f: impl FnOnce(N) -> M) -> Below<M> {
        match self {
            Below::Step => Below::Step,
            Below::Search(names) => Below::Search(f(names)),
            Below::Copy { tag, role, stops } => Below::Copy {
                tag,
                role,
                stops: f(stops),
            },
        }
    }
}

/// State sets a memo interns at most; it records at most [`MEMO_FANOUT`]
/// times as many transitions. XMark's 11 paper queries merged need 27
/// sets and 91 transitions, `//item` alone 4 and 62 (one per element
/// name); only derivation counts growing with nesting depth (`//a//a`
/// over `<a><a><a>…`) make more without end, and past the bound frames
/// carry explicit state vectors (and take the NFA step) again.
pub(crate) const MEMO_SETS: usize = 1024;

/// Recorded transitions per interned set, on average, at most.
const MEMO_FANOUT: usize = 16;

/// Name classes a transition key has room for.
const KEY_SYMBOLS: usize = 1 << 20;
const _: () = assert!(MEMO_SETS <= (u32::MAX as usize) / KEY_SYMBOLS);

/// A memoised transition: what entering a child named `symbol` under a
/// frame with state set `set` produces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transition {
    /// The child frame's set; `None`: no state survives, skip the subtree.
    pub(crate) child: Option<SetId>,
    /// The child's roles, a range of [`Memo::roles`].
    roles: (u32, u32),
    /// Descendant propagations the reach filter suppressed on the way.
    pub(crate) cuts: u32,
}

/// State sets seen so far, interned, and the transitions taken between
/// them. Everything here is a pure function of `(set, name class)` — the
/// NFA step computes it once (the miss path *is* the matcher's NFA step,
/// which then records its result), later tokens look it up. Steps that
/// consult a positional-predicate counter are never recorded. Flat
/// vectors throughout: the copy a matcher takes on its first miss is a
/// handful of `memcpy`s.
#[derive(Debug, Clone)]
pub(crate) struct Memo {
    /// Sets this memo may intern.
    max_sets: usize,
    /// Every name the automaton or its reach filter can tell from another
    /// has a symbol below this; the names a run interns on top are one
    /// class, whatever symbols that run gave them.
    n_static: usize,
    /// The interned sets' states, each canonically ordered, back to back;
    /// set `i` ends at `set_ends[i]` — and the way back, from a set's
    /// states to its id.
    set_states: Vec<St>,
    set_ends: Vec<u32>,
    set_index: SlotTable,
    /// `(set, name class)` → index into `transitions`.
    index: SlotTable,
    transitions: Vec<Transition>,
    /// `n_tags` per-query keep flags per transition.
    kept: Vec<bool>,
    /// Role lists of transitions and text, back to back.
    roles: Vec<TaggedRole>,
    /// Per set: the roles of a text child (a range of `roles`), once
    /// computed.
    text: Vec<Option<(u32, u32)>>,
    /// Per set: what a driver may do below it, its names a range of
    /// `below_names` — see [`Memo::below`].
    below: Vec<Below<(u32, u32)>>,
    below_names: Vec<Symbol>,
    /// Sets, transitions and text answers recorded.
    learnt: u32,
}

/// Put a state set in the order sets are interned in.
pub(crate) fn canonical(states: &mut [St]) {
    states.sort_unstable_by_key(|s| (s.path, s.sid, s.count));
}

/// The index hash of a canonically ordered state set.
fn hash_states(states: &[St]) -> u32 {
    let mut h = FxHasher::default();
    for st in states {
        h.write_u64(u64::from(st.path) << 32 | u64::from(st.sid));
        h.write_u32(st.count);
    }
    (h.finish() >> 32) as u32
}

impl Memo {
    pub(crate) fn new(max_sets: usize, n_static: usize) -> Memo {
        Memo {
            max_sets,
            n_static,
            set_states: Vec::new(),
            set_ends: Vec::new(),
            set_index: SlotTable::default(),
            index: SlotTable::default(),
            transitions: Vec::new(),
            kept: Vec::new(),
            roles: Vec::new(),
            text: Vec::new(),
            below: Vec::new(),
            below_names: Vec::new(),
            learnt: 0,
        }
    }

    /// Number of sets interned so far.
    pub(crate) fn len(&self) -> usize {
        self.set_ends.len()
    }

    /// How much is recorded: of two memos of one automaton, the one that
    /// knows more.
    pub(crate) fn learnt(&self) -> u32 {
        self.learnt
    }

    pub(crate) fn set(&self, id: SetId) -> &[St] {
        let from = id.checked_sub(1).map_or(0, |p| self.set_ends[p as usize]);
        &self.set_states[from as usize..self.set_ends[id as usize] as usize]
    }

    /// The id of `states` (in canonical order), if interned.
    pub(crate) fn find_set(&self, states: &[St]) -> Option<SetId> {
        self.set_index
            .find(hash_states(states), |id| self.set(id) == states)
    }

    /// Whether one more set can be interned.
    pub(crate) fn has_room(&self) -> bool {
        self.len() < self.max_sets
    }

    /// Intern `states`, which [`Memo::find_set`] did not find and for
    /// which there [is room](Memo::has_room); `below` is what a driver may
    /// do below it.
    pub(crate) fn insert_set(&mut self, states: &[St], below: Below<&[Symbol]>) -> SetId {
        let id = self.len() as SetId;
        self.set_states.extend_from_slice(states);
        self.set_ends.push(self.set_states.len() as u32);
        self.set_index.insert(hash_states(states), id);
        self.text.push(None);
        let names = &mut self.below_names;
        self.below.push(below.map(|add| {
            let from = names.len() as u32;
            names.extend_from_slice(add);
            (from, names.len() as u32)
        }));
        self.learnt += 1;
        id
    }

    /// What a driver may do below a frame with state set `set`.
    #[inline]
    pub(crate) fn below(&self, set: SetId) -> Below<&[Symbol]> {
        self.below[set as usize].map(|(from, to)| &self.below_names[from as usize..to as usize])
    }

    /// The index key of `(set, symbol)`: the symbol counts as its class.
    #[inline]
    fn key(&self, set: SetId, symbol: Symbol) -> Option<u32> {
        let class = symbol.index().min(self.n_static);
        (class < KEY_SYMBOLS).then(|| set * KEY_SYMBOLS as u32 + class as u32)
    }

    /// The recorded transition from `set` under `symbol`, with the handle
    /// [`Memo::outcome`] takes.
    #[inline]
    pub(crate) fn transition(&self, set: SetId, symbol: Symbol) -> Option<(usize, Transition)> {
        let i = self.index.find(self.key(set, symbol)?, |_| true)? as usize;
        Some((i, self.transitions[i]))
    }

    /// The per-query kept flags (`n_tags` of them) and the child's roles
    /// of recorded transition `i`.
    #[inline]
    pub(crate) fn outcome(
        &self,
        i: usize,
        t: Transition,
        n_tags: usize,
    ) -> (&[bool], &[TaggedRole]) {
        (
            &self.kept[i * n_tags..(i + 1) * n_tags],
            &self.roles[t.roles.0 as usize..t.roles.1 as usize],
        )
    }

    /// Whether there is room to record what entering `symbol` under `set`
    /// produces.
    pub(crate) fn can_record(&self, set: SetId, symbol: Symbol) -> bool {
        self.key(set, symbol).is_some() && self.transitions.len() < self.max_sets * MEMO_FANOUT
    }

    /// Record what entering `symbol` under `set` produced
    /// ([`Memo::can_record`] held).
    pub(crate) fn record(
        &mut self,
        set: SetId,
        symbol: Symbol,
        cuts: u64,
        kept: &[bool],
        roles: &[TaggedRole],
        child: Option<SetId>,
    ) {
        let key = self.key(set, symbol).expect("can_record held");
        self.index.insert(key, self.transitions.len() as u32);
        let from = self.roles.len() as u32;
        self.roles.extend_from_slice(roles);
        self.kept.extend_from_slice(kept);
        self.transitions.push(Transition {
            child,
            roles: (from, self.roles.len() as u32),
            cuts: cuts as u32,
        });
        self.learnt += 1;
    }

    /// The roles of a text child under `set`, once recorded.
    #[inline]
    pub(crate) fn text(&self, set: SetId) -> Option<&[TaggedRole]> {
        let (from, to) = self.text[set as usize]?;
        Some(&self.roles[from as usize..to as usize])
    }

    /// Record the roles of a text child under `set`.
    pub(crate) fn record_text(&mut self, set: SetId, roles: &[TaggedRole]) {
        let from = self.roles.len() as u32;
        self.roles.extend_from_slice(roles);
        self.text[set as usize] = Some((from, self.roles.len() as u32));
        self.learnt += 1;
    }
}

//! Streaming projection-path matcher.
//!
//! The stream preprojector runs this NFA over the tag stream to decide,
//! with one token of lookahead (paper §3), (a) whether a token is matched
//! by any projection path and must be buffered, and (b) which role
//! instances the buffered node receives.
//!
//! ## State model
//!
//! A state `(path, i)` on a node `n` means: one derivation has matched the
//! first `i` steps of `path`, with `n` as the context node for step `i`.
//! States carry **counts** — the number of distinct derivations — because a
//! descendant axis can reach the same node several ways, and the paper's
//! role semantics is a multiset ("a role can be assigned to a node multiple
//! times").
//!
//! * `child::t` consumes the step when a matching child is entered;
//! * `descendant::t` both propagates (deeper descendants) and consumes;
//! * `descendant-or-self::t` / `self::t` additionally consume *in place*
//!   (epsilon closure) — this is how `descendant-or-self::node()` roles
//!   land on every node of a subtree;
//! * a state `(path, len)` is a completed match: the node receives
//!   `path`'s role with the state's count;
//! * positional predicates (`[k]`, child axis only) are counted per parent
//!   frame, so `price[1]` matches only the first price child (the paper's
//!   first-witness role r4).
//!
//! A token whose pre-closure state set is empty can be skipped **together
//! with its entire subtree** — no projection path can match inside. The
//! preprojector uses this for constant-time skipping of irrelevant regions.
//!
//! ## Memoised transitions
//!
//! The NFA step is a pure function of the parent frame's state set and
//! the child's name — except where a positional predicate reads the
//! parent's live counter — and a document revisits the same few sets
//! under the same few names millions of times. So the automaton is
//! determinised *lazily*, the way streaming tree automata are usually
//! run: each frame's post-closure state set (path, state **and**
//! derivation count — multiplicities are part of a set's identity) is
//! interned, and `(set, name) → (child set | dead, per-query kept flags,
//! the child's sorted role list, reach cuts)` plus each set's text roles
//! are recorded in a [`Memo`]. A token whose transition is recorded costs
//! a hash probe and a copy of its role list; one that is not takes the
//! NFA step, which records its result — the miss path is the fill
//! function, there is no second implementation.
//!
//! * **Never recorded:** a step in which a `[k]` predicate was consulted
//!   (the outcome depends on how many siblings went by). The child set
//!   it produces is still interned, so recording resumes below it.
//! * **Bound:** `MEMO_SETS` sets, `MEMO_SETS × MEMO_FANOUT` transitions.
//!   Nested `//a//a` makes counts, hence sets, grow with depth. When the
//!   table is full a frame carries its explicit state vector again and
//!   steps the NFA — exactly the matcher without a memo.
//! * **Sharing:** the memo belongs to the prepared [`Automaton`], not to
//!   a run, so the second document of a query starts where the first
//!   left off. What makes one run's table valid for the next is *key
//!   normalisation*: every name the NFA or the reach filter can tell
//!   from another was interned before the automaton was prepared, so it
//!   has the same symbol in every run; the names a document adds on top
//!   — whatever symbols that run gives them — all behave alike and are
//!   keyed as one class. A matcher reads the shared table through an
//!   `Arc`, takes a private copy on its first miss (*copy-on-miss*; a run
//!   that learns nothing copies nothing) and *offers* the copy back when
//!   it is dropped: the automaton keeps whichever table knows more. No
//!   lock is taken per token.
//!
//! ## Search sets
//!
//! Under a pending `//name` step the automaton only waits: a set whose
//! every state sits at a `descendant`/`descendant-or-self` step with a
//! name test (no wildcard, `node()` or `text()` test, no child step, no
//! position) maps every child named outside its names `N` back onto
//! itself, with no role, and gives a text child none. The memo computes
//! `N` once, when it interns such a set, and [`TaggedMatcher::below`]
//! shows it for the innermost frame, so a driver can have the tokenizer
//! run ahead to the next start tag named in `N` instead of stepping every
//! token through here — the label skipping of the streaming path engines
//! in "Earliest query answering over streamed trees". Under a reach
//! filter no set searches: the filter cuts
//! descendant states by the child's name, which breaks the self-loop.
//!
//! ## Copy sets
//!
//! Inside a subtree the query copies, a set may hold exactly one
//! `descendant-or-self::node()` state that ends its path — the copy's role
//! `r`, with count 1 — beside search-set states only. Every child named
//! outside the search states' names (the *stops*) then maps the set onto
//! itself with the one role instance `(r, 1)`, and every text child gets
//! that instance alone. The memo marks such a set once, when it interns
//! it, and [`TaggedMatcher::below`] shows it for the innermost frame: a
//! driver whose lane is writing that copy through may pass everything up
//! to the next stop straight to the writer. Under a reach filter no set
//! copies, as none searches.

use crate::memo::{canonical, Below, Memo, SetId, St, MEMO_SETS};
use crate::reach::{test_reachable, ReachFilter};
use crate::roles::RoleTable;
use crate::step::{EAxis, ETest, EvalStep};
use gcx_query::ast::RoleId;
use gcx_xml::{Symbol, SymbolTable};
use std::sync::{Arc, Mutex};

/// All projection paths of a query, compiled against a symbol table.
#[derive(Debug, Clone)]
pub struct CompiledPaths {
    /// Steps of all paths, flattened.
    steps: Vec<EvalStep>,
    /// `paths[p] = (first_step, len, role)`.
    paths: Vec<(u32, u32, RoleId)>,
}

/// Dense state id: index of the *next* step to match. A state equal to the
/// path's end offset is a completed match.
pub(crate) type StateId = u32;

impl CompiledPaths {
    /// Compile the role table's absolute paths, interning names.
    ///
    /// Attribute steps never reach the matcher: the analysis strips them
    /// (roles land on the owning element).
    pub fn compile(roles: &RoleTable, symbols: &mut SymbolTable) -> CompiledPaths {
        let mut steps = Vec::with_capacity(roles.iter().map(|r| r.abs.len()).sum());
        let mut paths = Vec::with_capacity(roles.len());
        for role in roles.iter() {
            let first = steps.len() as u32;
            steps.extend(role.abs.iter().map(|s| EvalStep::compile(s, symbols)));
            paths.push((first, role.abs.len() as u32, role.id));
        }
        CompiledPaths { steps, paths }
    }

    /// Number of compiled paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when there are no paths (degenerate queries).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The role assigned by path `p`.
    pub fn role_of(&self, p: usize) -> RoleId {
        self.paths[p].2
    }

    /// Path `p`'s steps, for external analyses (`gcx-schema` intersects
    /// them with DTD content models).
    pub fn steps_of(&self, p: usize) -> &[EvalStep] {
        let (first, len, _) = self.paths[p];
        &self.steps[first as usize..(first + len) as usize]
    }

    /// A copy retaining only the paths whose `keep` flag is true (indexed
    /// like [`CompiledPaths::role_of`]). Dead steps stay in the shared
    /// arena — the matcher never visits steps of dropped paths.
    pub fn filtered(&self, keep: &[bool]) -> CompiledPaths {
        assert_eq!(keep.len(), self.paths.len(), "keep mask length mismatch");
        CompiledPaths {
            steps: self.steps.clone(),
            paths: self
                .paths
                .iter()
                .zip(keep)
                .filter(|(_, &k)| k)
                .map(|(&p, _)| p)
                .collect(),
        }
    }
}

/// Identifies which query of a merged batch a path/role belongs to.
pub type QueryTag = u32;

/// One role completion with its owning query and derivation count.
pub type TaggedRole = (QueryTag, RoleId, u32);

/// One path of a merged batch: step range, role, owning query.
#[derive(Debug, Clone, Copy)]
struct PathInfo {
    first: u32,
    len: u32,
    role: RoleId,
    tag: QueryTag,
}

/// The union of several queries' [`CompiledPaths`], sharing one step
/// arena. Every path remembers the query it came from, so one NFA pass
/// over the stream produces per-query outcomes.
///
/// All parts must have been compiled against the **same** symbol table —
/// name tests compare interned [`Symbol`]s.
#[derive(Debug, Clone)]
pub struct TaggedPaths {
    steps: Vec<EvalStep>,
    paths: Vec<PathInfo>,
    n_tags: u32,
}

impl TaggedPaths {
    /// Union the per-query path sets; part `i` gets tag `i`.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a CompiledPaths>) -> TaggedPaths {
        let mut steps = Vec::new();
        let mut paths = Vec::new();
        let mut n_tags = 0;
        for (tag, part) in parts.into_iter().enumerate() {
            let base = steps.len() as u32;
            steps.extend_from_slice(&part.steps);
            for &(first, len, role) in &part.paths {
                paths.push(PathInfo {
                    first: base + first,
                    len,
                    role,
                    tag: tag as QueryTag,
                });
            }
            n_tags += 1;
        }
        TaggedPaths {
            steps,
            paths,
            n_tags,
        }
    }

    /// Number of queries merged in.
    pub fn n_tags(&self) -> u32 {
        self.n_tags
    }

    /// Total number of paths across all queries.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no query contributed any path.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Per-element outcome of the merged matcher's NFA step, reused across
/// calls.
#[derive(Debug, Clone)]
pub(crate) struct TaggedOutcome {
    /// True when at least one query wants this element (a frame was
    /// pushed). False: *no* query can match inside — skip the subtree and
    /// do not call `leave_element`.
    pub any_keep: bool,
    /// `kept[q]`: query `q` buffers this element (had at least one NFA
    /// state survive the transition — exactly the standalone matcher's
    /// `keep`). Only meaningful when `any_keep`.
    pub kept: Vec<bool>,
    /// Completed roles, deduplicated, sorted by `(tag, role)`.
    pub roles: Vec<TaggedRole>,
}

impl TaggedOutcome {
    /// An outcome buffer for a batch of `n` queries.
    fn for_tags(n: u32) -> TaggedOutcome {
        TaggedOutcome {
            any_keep: false,
            kept: vec![false; n as usize],
            roles: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.any_keep = false;
        self.kept.iter_mut().for_each(|k| *k = false);
        self.roles.clear();
    }
}

/// Per-open-element matcher frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The frame's post-closure state set — the states whose next step
    /// can still consume children — when the memo holds it.
    set: Option<SetId>,
    /// Where the frame's explicit states start in
    /// [`TaggedMatcher::states`] (it has some only while `set` is `None`:
    /// the memo had no room for the set) and its predicate counters in
    /// [`TaggedMatcher::preds`]. Both run to the next frame's, or to the
    /// end: only the innermost frame's are ever read.
    states_from: u32,
    preds_from: u32,
}

/// A prepared automaton — the merged paths, the reach filter that gates
/// them, the document root's outcome — and what its matchers have learnt
/// of its determinisation so far. Built once where the paths are compiled
/// (`gcx-ir`'s program, a schema plan, a batch session) and
/// shared: [`TaggedMatcher::start`] is the one way to start a matcher.
#[derive(Debug)]
pub struct Automaton {
    paths: TaggedPaths,
    /// Schema-derived descendant reachability (None: schema-blind).
    reach: Option<Arc<ReachFilter>>,
    /// The document root's roles (paths with zero steps, e.g. the paper's
    /// `r1: /`, per query) and frame: its set in the memo or, when the
    /// memo holds none, its explicit states.
    root_roles: Vec<TaggedRole>,
    root_set: Option<SetId>,
    root_states: Vec<St>,
    /// The best memo a matcher has offered back so far. Locked when a
    /// matcher starts and when it is dropped, never per token.
    memo: Mutex<Arc<Memo>>,
}

impl Automaton {
    /// Prepare `paths`, optionally under a schema-derived reachability
    /// filter: descendant-axis states are not propagated into subtrees
    /// where the DTD proves their test can never match. Sound for
    /// schema-valid input; on other input the filter may skip subtrees
    /// the schema-blind matcher would have buffered.
    pub fn new(paths: TaggedPaths, reach: Option<Arc<ReachFilter>>) -> Automaton {
        Automaton::with_memo_sets(paths, reach, MEMO_SETS)
    }

    /// [`Automaton::new`] with a memo of at most `memo_sets` state sets
    /// (0: every transition takes the NFA step). A constant of the build,
    /// not an option; tests vary it to compare the memoised matcher with
    /// the fill path alone.
    pub(crate) fn with_memo_sets(
        paths: TaggedPaths,
        reach: Option<Arc<ReachFilter>>,
        memo_sets: usize,
    ) -> Automaton {
        let mut root_states = Vec::new();
        let mut root_roles = Vec::new();
        for (p, info) in paths.paths.iter().enumerate() {
            if info.len == 0 {
                root_roles.push((info.tag, info.role, 1));
            } else {
                root_states.push(St {
                    path: p as u32,
                    sid: info.first,
                    count: 1,
                });
            }
        }
        // The document root is a node: run closure for leading
        // self/descendant-or-self steps (e.g. role `/descendant-or-self...`).
        closure(&paths, &mut root_states, None, &mut root_roles);
        dedupe_tagged(&mut root_roles);
        let named = paths.steps.iter().filter_map(|s| match s.test {
            ETest::Name(n) => Some(n.index() + 1),
            _ => None,
        });
        let n_static = named
            .chain(reach.as_deref().map(ReachFilter::n_elems))
            .max()
            .unwrap_or(0);
        let mut memo = Memo::new(memo_sets, n_static);
        canonical(&mut root_states);
        let root_set = memo.has_room().then(|| {
            let set = intern_set(&mut memo, &paths, reach.is_none(), &root_states);
            root_states.clear();
            set
        });
        Automaton {
            paths,
            reach,
            root_roles,
            root_set,
            root_states,
            memo: Mutex::new(Arc::new(memo)),
        }
    }

    /// Number of queries merged in.
    pub fn n_tags(&self) -> u32 {
        self.paths.n_tags
    }
}

/// The streaming matcher: one NFA pass over the tag stream, per-query
/// outcomes. The engine's driver runs it over a single query's automaton
/// (one tag) as over a batch's merged one.
///
/// Because every path carries its owning query's tag, and states never
/// interact across paths (counts merge only on identical `(path, state)`
/// pairs), the states with tag `q` evolve exactly as they would in a
/// standalone matcher built from query `q`'s paths alone. Per-query
/// projection and role multiplicities are therefore preserved verbatim —
/// the property suite in `crates/core/tests/merge_props.rs` asserts this.
#[derive(Debug)]
pub struct TaggedMatcher {
    automaton: Arc<Automaton>,
    /// The memoised transitions: the automaton's shared memo until this
    /// run learns something it lacks, a private copy from then on.
    memo: Arc<Memo>,
    /// The open elements' frames, the document root's first.
    frames: Vec<Frame>,
    /// Explicit states and predicate counters `(state id of the
    /// predicated step, matches seen)` of the open frames, stack-shaped
    /// (see [`Frame`]).
    states: Vec<St>,
    preds: Vec<(StateId, u32)>,
    /// Scratch for building child state sets.
    scratch: Vec<St>,
    /// What the last NFA step produced for an element (the memo's copy,
    /// once recorded, is what later tokens are answered from) and for a
    /// text node.
    outcome: TaggedOutcome,
    text_roles: Vec<TaggedRole>,
    /// Descendant-state propagations the reach filter suppressed.
    reach_cuts: u64,
}

impl TaggedMatcher {
    /// A matcher over `automaton` for one document, starting from what
    /// earlier matchers learnt.
    pub fn start(automaton: Arc<Automaton>) -> TaggedMatcher {
        let memo = Arc::clone(
            &automaton
                .memo
                .lock()
                .expect("the memo slot is only swapped"),
        );
        // XMark nests 12 deep; a deeper document grows the stack.
        let mut frames = Vec::with_capacity(16);
        frames.push(Frame {
            set: automaton.root_set,
            states_from: 0,
            preds_from: 0,
        });
        TaggedMatcher {
            memo,
            frames,
            states: automaton.root_states.clone(),
            preds: Vec::new(),
            scratch: Vec::new(),
            outcome: TaggedOutcome::for_tags(automaton.n_tags()),
            text_roles: Vec::new(),
            reach_cuts: 0,
            automaton,
        }
    }

    /// Current nesting depth (document root frame excluded).
    pub fn depth(&self) -> usize {
        self.frames.len() - 1
    }

    /// Descendant-state propagations the reach filter suppressed so far.
    pub fn reach_cuts(&self) -> u64 {
        self.reach_cuts
    }

    /// What a driver may do below the innermost open element instead of
    /// stepping every token through here, as the memo classified its
    /// state set when it interned it:
    ///
    /// * [`Below::Search`]: a *search set* — every state at a `descendant`
    ///   or `descendant-or-self` step with a name test and no position.
    ///   Every child named outside the names is kept with no role and gets
    ///   this same frame, and no text child gets a role, so a driver may
    ///   pass everything up to the next start tag of one of them unseen.
    /// * [`Below::Copy`]: a *copy set* of query `tag`'s `role` — one
    ///   `descendant-or-self::node()` state of `role` with count 1 ending
    ///   its path, every other state a search-set state. Every child named
    ///   outside the stops is kept with the single role instance
    ///   `(role, 1)` of `tag` (and no role of any other query) and gets
    ///   this same frame, and every text child gets that instance alone,
    ///   so a driver writing the copy through may pass everything up to
    ///   the next start tag of a stop without showing it here.
    ///
    /// [`Below::Step`] for any other frame, and always under a reach
    /// filter or for a set the memo had no room for.
    #[inline]
    pub fn below(&self) -> Below<&[Symbol]> {
        match self.top().set {
            Some(set) => self.memo.below(set),
            None => Below::Step,
        }
    }

    /// Mark in `held`, indexed by tag, the queries that hold a state in the
    /// innermost open element's frame: below a search or a copy set, the
    /// ones stepping would show the children to.
    pub fn holders(&self, held: &mut [bool]) {
        let top = self.top();
        let states: &[St] = match top.set {
            Some(set) => self.memo.set(set),
            None => &self.states[top.states_from as usize..],
        };
        let paths = &self.automaton.paths.paths;
        for st in states {
            held[paths[st.path as usize].tag as usize] = true;
        }
    }

    /// State sets the memo holds.
    #[cfg(test)]
    fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The innermost open frame.
    #[inline]
    fn top(&self) -> Frame {
        *self.frames.last().expect("the root frame stays")
    }

    /// Open the frame of an element just entered, with its state set —
    /// or, without one, the explicit states in `scratch`.
    #[inline]
    fn push_frame(&mut self, set: Option<SetId>) {
        self.frames.push(Frame {
            set,
            states_from: self.states.len() as u32,
            preds_from: self.preds.len() as u32,
        });
        if set.is_none() {
            self.states.extend_from_slice(&self.scratch);
        }
    }

    /// Process an element start tag: `None` when no query keeps the
    /// element (skip the subtree, and do not call
    /// [`TaggedMatcher::leave_element`] for it), else the per-query kept
    /// flags and the element's roles sorted by `(tag, role)`, borrowed
    /// from the memo (a recorded transition) or from the NFA step's own
    /// outcome.
    #[inline]
    pub fn enter(&mut self, name: Symbol) -> Option<(&[bool], &[TaggedRole])> {
        let recorded = self
            .top()
            .set
            .and_then(|set| self.memo.transition(set, name));
        let Some((i, t)) = recorded else {
            self.enter_element_nfa(name);
            let out = &self.outcome;
            return out.any_keep.then_some((&out.kept[..], &out.roles[..]));
        };
        self.reach_cuts += u64::from(t.cuts);
        self.push_frame(Some(t.child?));
        Some(self.memo.outcome(i, t, self.automaton.n_tags() as usize))
    }

    /// The NFA step behind [`TaggedMatcher::enter`], into `self.outcome`:
    /// every transition the memo does not hold, which it then records.
    fn enter_element_nfa(&mut self, name: Symbol) {
        self.outcome.reset();
        self.scratch.clear();
        let compiled = &self.automaton.paths;
        // Closed-world reach info for this element, when the schema has
        // any: descendant propagations are gated on it below.
        let rinfo = self.automaton.reach.as_deref().and_then(|r| r.info(name));
        let parent = self.top();
        let states: &[St] = match parent.set {
            Some(set) => self.memo.set(set),
            None => &self.states[parent.states_from as usize..],
        };
        let seen = parent.preds_from as usize;
        let mut cuts = 0;
        // A positional predicate was consulted: the outcome depends on the
        // parent frame's live counter, not on (set, symbol) alone.
        let mut positional = false;
        // Transitions from the parent's states to this child.
        for &st in states {
            let step = compiled.steps[st.sid as usize];
            match step.axis {
                EAxis::Child => {
                    if step.test.matches_element(name) {
                        let passes = match step.pos {
                            None => true,
                            Some(k) => {
                                positional = true;
                                bump_pred(&mut self.preds, seen, st.sid) == k
                            }
                        };
                        if passes {
                            self.scratch.push(St {
                                path: st.path,
                                sid: st.sid + 1,
                                count: st.count,
                            });
                        }
                    }
                }
                EAxis::Descendant => {
                    // Propagate for deeper descendants — unless the schema
                    // proves the test can never match below this element.
                    match rinfo {
                        Some(ri) if !test_reachable(ri, step.test) => cuts += 1,
                        _ => self.scratch.push(st),
                    }
                    // ...and consume if this child matches.
                    if step.test.matches_element(name) {
                        self.scratch.push(St {
                            path: st.path,
                            sid: st.sid + 1,
                            count: st.count,
                        });
                    }
                }
                EAxis::DescendantOrSelf => {
                    // The self part was handled by the parent's closure;
                    // here the "descendant" part propagates, and the state
                    // must also survive for this element's own closure
                    // (which consumes the self part against `name`), so
                    // the reach gate additionally admits a self match.
                    let self_match = step.test.matches_element(name);
                    match rinfo {
                        Some(ri) if !self_match && !test_reachable(ri, step.test) => cuts += 1,
                        _ => self.scratch.push(st),
                    }
                }
                EAxis::SelfAxis => {
                    // Fully handled by closure on the parent; nothing
                    // transitions to children.
                }
            }
        }
        self.reach_cuts += cuts;
        let mut child = None;
        if !self.scratch.is_empty() {
            // Transitions were pushed without duplicate merging (a
            // per-push linear scan would make per-element work quadratic
            // in the merged batch's state count); restore the merged-frame
            // invariant — predicate counting depends on one state per
            // (path, sid) — with one sort+merge pass.
            merge_duplicate_states(&mut self.scratch);
            let out = &mut self.outcome;
            out.any_keep = true;
            // Per-query keep: which queries still hold a state
            // (pre-closure) — exactly the standalone matcher's `keep`
            // decision per query.
            for st in &self.scratch {
                out.kept[compiled.paths[st.path as usize].tag as usize] = true;
            }
            closure(compiled, &mut self.scratch, Some(name), &mut out.roles);
            dedupe_tagged(&mut out.roles);
            canonical(&mut self.scratch);
            let blind = self.automaton.reach.is_none();
            child = self.memo.find_set(&self.scratch).or_else(|| {
                self.memo.has_room().then(|| {
                    let memo = Arc::make_mut(&mut self.memo);
                    intern_set(memo, compiled, blind, &self.scratch)
                })
            });
            self.push_frame(child);
        }
        // Recordable: the parent has an id to look up, nothing positional
        // went in, and the child (if any) has an id to jump to.
        if let Some(set) = parent.set {
            if !positional
                && child.is_some() == self.outcome.any_keep
                && self.memo.can_record(set, name)
            {
                let out = &self.outcome;
                Arc::make_mut(&mut self.memo).record(set, name, cuts, &out.kept, &out.roles, child);
            }
        }
    }

    /// Process the end tag of a kept element.
    pub fn leave_element(&mut self) {
        assert!(self.frames.len() > 1, "leave_element on document root");
        let frame = self.frames.pop().expect("checked above");
        self.states.truncate(frame.states_from as usize);
        self.preds.truncate(frame.preds_from as usize);
    }

    /// Roles for a text child of the current element, sorted by `(tag,
    /// role)`, borrowed from the memo or from the NFA step's own result.
    /// Text nodes have no children, so no frame is pushed; per query, no
    /// role means the text is irrelevant.
    #[inline]
    pub fn text(&mut self) -> &[TaggedRole] {
        // (Asked twice: a borrow handed out by the first probe would
        // outlive the miss branch's `&mut self`.)
        let recorded = self.top().set.filter(|&set| self.memo.text(set).is_some());
        match recorded {
            Some(set) => self.memo.text(set).expect("just probed"),
            None => {
                self.text_nfa();
                &self.text_roles
            }
        }
    }

    /// The NFA step behind [`TaggedMatcher::text`], into
    /// `self.text_roles`; recorded per state set unless a positional
    /// predicate was consulted.
    fn text_nfa(&mut self) {
        self.text_roles.clear();
        let compiled = &self.automaton.paths;
        let parent = self.top();
        let states: &[St] = match parent.set {
            Some(set) => self.memo.set(set),
            None => &self.states[parent.states_from as usize..],
        };
        let mut positional = false;
        for &st in states {
            let info = compiled.paths[st.path as usize];
            let step = compiled.steps[st.sid as usize];
            // A text node can only complete a path whose final step it
            // matches, or whose later steps all consume it in place
            // (`self::`/`descendant-or-self::` steps testing `node()` or
            // `text()`, as after `$a/node()` or a copy): any other
            // continuation would need children.
            let end = info.first + info.len;
            let ends_here = compiled.steps[st.sid as usize + 1..end as usize]
                .iter()
                .all(|s| {
                    matches!(s.axis, EAxis::SelfAxis | EAxis::DescendantOrSelf)
                        && s.test.matches_text()
                });
            let completes = match step.axis {
                EAxis::Child => {
                    step.test.matches_text() && ends_here && {
                        match step.pos {
                            None => true,
                            Some(k) => {
                                positional = true;
                                let seen = parent.preds_from as usize;
                                bump_pred(&mut self.preds, seen, st.sid) == k
                            }
                        }
                    }
                }
                EAxis::Descendant | EAxis::DescendantOrSelf => {
                    step.test.matches_text() && ends_here
                }
                EAxis::SelfAxis => false,
            };
            if completes {
                self.text_roles.push((info.tag, info.role, st.count));
            }
        }
        dedupe_tagged(&mut self.text_roles);
        if let (Some(set), false) = (parent.set, positional) {
            Arc::make_mut(&mut self.memo).record_text(set, &self.text_roles);
        }
    }
}

impl Drop for TaggedMatcher {
    /// Offer the automaton what this run learnt: the next matcher starts
    /// from whichever memo knows most.
    fn drop(&mut self) {
        if let Ok(mut shared) = self.automaton.memo.lock() {
            if self.memo.learnt() > shared.learnt() {
                *shared = Arc::clone(&self.memo);
            }
        }
    }
}

/// The [`TaggedMatcher`] specialized to one query (tag 0), with untagged
/// roles. Its one caller is the repository benchmark's matcher prefix
/// (`benchmark/src/layers.rs`); the engine and the tests run a
/// [`TaggedMatcher`].
#[derive(Debug)]
pub struct StreamMatcher {
    inner: TaggedMatcher,
}

impl StreamMatcher {
    /// Prepare `compiled` for one run and start its matcher; also returns
    /// the document root's roles (paths with zero steps, e.g. the paper's
    /// `r1: /`).
    pub fn new(compiled: &CompiledPaths) -> (StreamMatcher, Vec<(RoleId, u32)>) {
        let automaton = Automaton::new(TaggedPaths::merge([compiled]), None);
        let untagged = automaton.root_roles.iter().map(|&(_, r, c)| (r, c));
        let root_roles = untagged.collect();
        let inner = TaggedMatcher::start(Arc::new(automaton));
        (StreamMatcher { inner }, root_roles)
    }

    /// Process an element start tag: the element's roles are appended to
    /// `roles_out` (cleared first; empty for a speculative keep) and the
    /// keep decision is returned. When it is false no projection path can
    /// match the element or anything below it: the caller skips the
    /// subtree and must not call [`StreamMatcher::leave_element`] for it.
    pub fn enter_element_into(&mut self, name: Symbol, roles_out: &mut Vec<(RoleId, u32)>) -> bool {
        roles_out.clear();
        let Some((_, roles)) = self.inner.enter(name) else {
            return false;
        };
        roles_out.extend(roles.iter().map(|&(_, r, c)| (r, c)));
        true
    }

    /// Process the end tag of a kept element.
    pub fn leave_element(&mut self) {
        self.inner.leave_element();
    }

    /// Roles for a text child of the current element, appended to `out`
    /// (cleared first). Text nodes have no children, so no frame is
    /// pushed; an empty result means the text is irrelevant and is not
    /// buffered.
    pub fn text_into(&mut self, out: &mut Vec<(RoleId, u32)>) {
        out.clear();
        out.extend(self.inner.text().iter().map(|&(_, r, c)| (r, c)));
    }
}

/// Intern `states` (canonical, not yet in `memo`, which has room), marked
/// as a search or a copy set when it is one and the automaton is `blind` —
/// without a reach filter, which cuts descendant states by the child's
/// name and so breaks the self-loop both rely on.
fn intern_set(memo: &mut Memo, paths: &TaggedPaths, blind: bool, states: &[St]) -> SetId {
    if !blind {
        return memo.insert_set(states, Below::Step);
    }
    match (search_names(paths, states), copy_set(paths, states)) {
        (Some(names), _) => memo.insert_set(states, Below::Search(&names)),
        (None, Some((tag, role, stops))) => memo.insert_set(
            states,
            Below::Copy {
                tag,
                role,
                stops: &stops,
            },
        ),
        (None, None) => memo.insert_set(states, Below::Step),
    }
}

/// The copy a set belongs to — query, role and stops — or `None` if
/// `states` is not a copy set: exactly one state sits at a final
/// `descendant-or-self::node()` step with count 1, and every other one at
/// a step a search set waits at, whose names are the stops. A child named
/// otherwise propagates every state unchanged and completes only the
/// copy's role, once, as a text child does.
fn copy_set(paths: &TaggedPaths, states: &[St]) -> Option<(QueryTag, RoleId, Vec<Symbol>)> {
    let mut copy = None;
    let mut stops = Vec::new();
    for st in states {
        let info = paths.paths[st.path as usize];
        let step = paths.steps[st.sid as usize];
        match step.test {
            ETest::Name(name) if step.waits() => stops.push(name),
            ETest::AnyNode
                if copy.is_none()
                    && step.axis == EAxis::DescendantOrSelf
                    && step.pos.is_none()
                    && st.count == 1
                    && st.sid + 1 == info.first + info.len =>
            {
                copy = Some((info.tag, info.role));
            }
            _ => return None,
        }
    }
    let (tag, role) = copy?;
    stops.sort_unstable();
    stops.dedup();
    Some((tag, role, stops))
}

/// The names a search set waits for, or `None` if `states` is not one: a
/// search set is non-empty and every state in it sits at a `descendant`
/// or `descendant-or-self` step with a name test — no `*`, `node()` or
/// `text()` test, no child step, no position. A child named otherwise
/// propagates every state unchanged and completes none, so the child's
/// set is the set itself with no role; a text child completes nothing.
fn search_names(paths: &TaggedPaths, states: &[St]) -> Option<Vec<Symbol>> {
    let mut names = states
        .iter()
        .map(|st| {
            let step = paths.steps[st.sid as usize];
            match step.test {
                ETest::Name(name) if step.waits() => Some(name),
                _ => None,
            }
        })
        .collect::<Option<Vec<Symbol>>>()?;
    names.sort_unstable();
    names.dedup();
    (!names.is_empty()).then_some(names)
}

/// Run the epsilon closure on an element's state set: `self::`/
/// `descendant-or-self::` steps that match the element consume in place.
/// Completed paths are appended to `out` as tagged roles and leave the
/// set. `name` is the element's tag (None for the virtual document root,
/// which only `node()` tests can match).
fn closure(
    compiled: &TaggedPaths,
    states: &mut Vec<St>,
    name: Option<Symbol>,
    out: &mut Vec<TaggedRole>,
) {
    let mut i = 0;
    while i < states.len() {
        let st = states[i];
        let info = compiled.paths[st.path as usize];
        if st.sid == info.first + info.len {
            // Completed match: assign the role, drop the state.
            out.push((info.tag, info.role, st.count));
            states.swap_remove(i);
            continue;
        }
        let step = compiled.steps[st.sid as usize];
        let consumes_in_place = match step.axis {
            EAxis::SelfAxis | EAxis::DescendantOrSelf => match name {
                Some(n) => step.test.matches_element(n),
                // The virtual document root: only node() matches it.
                None => step.test == ETest::AnyNode,
            },
            _ => false,
        };
        if consumes_in_place {
            // Self steps are consumed (state replaced); desc-or-self
            // steps both consume and persist for deeper matches.
            let advanced = St {
                path: st.path,
                sid: st.sid + 1,
                count: st.count,
            };
            if step.axis == EAxis::SelfAxis {
                states[i] = advanced;
                // Re-examine the same slot (it may complete or chain).
                continue;
            }
            push_state(states, advanced);
        }
        i += 1;
    }
}

/// Sum counts of duplicate (path, sid) states — the frame invariant that
/// predicate counting relies on (each predicated step bumps once per
/// document child, however many derivations reach it).
fn merge_duplicate_states(states: &mut Vec<St>) {
    if states.len() < 2 {
        return;
    }
    states.sort_unstable_by_key(|s| (s.path, s.sid));
    let mut w = 0;
    for i in 0..states.len() {
        if w > 0 && states[w - 1].path == states[i].path && states[w - 1].sid == states[i].sid {
            states[w - 1].count += states[i].count;
        } else {
            states[w] = states[i];
            w += 1;
        }
    }
    states.truncate(w);
}

/// Add a state, merging counts with an existing equal (path, sid) state.
/// Used on the closure path, where insertions are few; bulk transition
/// collection uses [`merge_duplicate_states`] instead.
fn push_state(states: &mut Vec<St>, st: St) {
    for existing in states.iter_mut() {
        if existing.path == st.path && existing.sid == st.sid {
            existing.count += st.count;
            return;
        }
    }
    states.push(st);
}

/// Increment and return the match count for a predicated step in the
/// innermost frame, whose counters are `preds[from..]`.
fn bump_pred(preds: &mut Vec<(StateId, u32)>, from: usize, sid: StateId) -> u32 {
    for (s, n) in &mut preds[from..] {
        if *s == sid {
            *n += 1;
            return *n;
        }
    }
    preds.push((sid, 1));
    1
}

/// Sum counts of duplicate (tag, role) pairs; sort by (tag, role).
fn dedupe_tagged(roles: &mut Vec<TaggedRole>) {
    if roles.len() < 2 {
        return;
    }
    roles.sort_unstable_by_key(|&(t, r, _)| (t, r));
    let mut w = 0;
    for i in 0..roles.len() {
        if w > 0 && roles[w - 1].0 == roles[i].0 && roles[w - 1].1 == roles[i].1 {
            roles[w - 1].2 += roles[i].2;
        } else {
            roles[w] = roles[i];
            w += 1;
        }
    }
    roles.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use gcx_query::compile;

    /// Build a matcher for the projection paths of `query`, with the
    /// document root's roles.
    fn matcher_for(query: &str) -> (TaggedMatcher, Vec<(RoleId, u32)>, SymbolTable, RoleTable) {
        let q = compile(query).unwrap();
        let a = analyze(&q);
        let mut symbols = SymbolTable::new();
        let compiled = CompiledPaths::compile(&a.roles, &mut symbols);
        let automaton = Automaton::new(TaggedPaths::merge([&compiled]), None);
        let root_roles = automaton.root_roles.iter().map(|&(_, r, c)| (r, c));
        let root_roles = root_roles.collect();
        let m = TaggedMatcher::start(Arc::new(automaton));
        (m, root_roles, symbols, a.roles)
    }

    /// Enter an element named `name` in a one-query matcher: its roles,
    /// untagged, into `roles` (cleared first); false when the matcher
    /// refuses the subtree.
    fn enter(m: &mut TaggedMatcher, name: Symbol, roles: &mut Vec<(RoleId, u32)>) -> bool {
        roles.clear();
        let Some((_, tagged)) = m.enter(name) else {
            return false;
        };
        roles.extend(tagged.iter().map(|&(_, r, c)| (r, c)));
        true
    }

    /// [`TaggedMatcher::enter`], copied out: whether some query keeps the
    /// element, which do, and its roles.
    fn entered(m: &mut TaggedMatcher, name: Symbol) -> (bool, Vec<bool>, Vec<TaggedRole>) {
        match m.enter(name) {
            Some((kept, roles)) => (true, kept.to_vec(), roles.to_vec()),
            None => (false, Vec::new(), Vec::new()),
        }
    }

    /// The roles, untagged, of a text child of the innermost open element
    /// of a one-query matcher, into `roles` (cleared first).
    fn text(m: &mut TaggedMatcher, roles: &mut Vec<(RoleId, u32)>) {
        roles.clear();
        roles.extend(m.text().iter().map(|&(_, r, c)| (r, c)));
    }

    const PAPER_QUERY: &str = r#"
        <r> {
          for $bib in /bib return
            (for $x in $bib/* return
               if (not(exists($x/price))) then $x else (),
             for $b in $bib/book return $b/title)
        } </r>
    "#;

    /// Roles as a sorted display list like `["r2*1", ...]`.
    fn fmt_roles(roles: &[(RoleId, u32)]) -> Vec<String> {
        let mut v: Vec<String> = roles.iter().map(|(r, c)| format!("{r}*{c}")).collect();
        v.sort();
        v
    }

    #[test]
    fn paper_figure1_role_assignment() {
        // Input prefix: <bib><book><title/><author/></book>
        let (mut m, root_roles, mut sy, _) = matcher_for(PAPER_QUERY);
        let mut roles = Vec::new();
        assert_eq!(fmt_roles(&root_roles), ["r1*1"]);

        assert!(enter(&mut m, sy.intern("bib"), &mut roles));
        assert_eq!(fmt_roles(&roles), ["r2*1"]);

        assert!(enter(&mut m, sy.intern("book"), &mut roles));
        // The paper's Figure 1(a): book{r3, r5, r6}.
        assert_eq!(fmt_roles(&roles), ["r3*1", "r5*1", "r6*1"]);

        enter(&mut m, sy.intern("title"), &mut roles);
        // title{r5, r7}.
        assert_eq!(fmt_roles(&roles), ["r5*1", "r7*1"]);
        m.leave_element();

        enter(&mut m, sy.intern("author"), &mut roles);
        // author{r5}.
        assert_eq!(fmt_roles(&roles), ["r5*1"]);
        m.leave_element();

        m.leave_element(); // book
        m.leave_element(); // bib
        assert_eq!(m.depth(), 0);
    }

    #[test]
    fn price_first_witness_only() {
        let (mut m, _, mut sy, _) = matcher_for(PAPER_QUERY);
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("bib"), &mut roles);
        enter(&mut m, sy.intern("article"), &mut roles);
        enter(&mut m, sy.intern("price"), &mut roles);
        // First price: r4 (witness) + r5 (subtree).
        assert_eq!(fmt_roles(&roles), ["r4*1", "r5*1"]);
        m.leave_element();
        enter(&mut m, sy.intern("price"), &mut roles);
        // Second price: only r5.
        assert_eq!(fmt_roles(&roles), ["r5*1"]);
        m.leave_element();
    }

    #[test]
    fn irrelevant_subtrees_are_skippable() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x/y return $a");
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("x"), &mut roles);
        assert!(
            !enter(&mut m, sy.intern("z"), &mut roles),
            "no projection path can match under /x/z"
        );
        // Caller would skip; no leave_element for z.
        assert!(enter(&mut m, sy.intern("y"), &mut roles));
    }

    #[test]
    fn text_nodes_matched_by_subtree_roles() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x return $a");
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("x"), &mut roles);
        text(&mut m, &mut roles);
        assert_eq!(roles.len(), 1, "descendant-or-self::node() matches text");
    }

    #[test]
    fn a_text_child_completes_a_node_step_the_copy_follows() {
        // `$a/node()` copies every child: the role is
        // `/x/node()/descendant-or-self::node()`, and a text child of `x`
        // takes the `node()` step and the copy's in place.
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x return <c>{ $a/node() }</c>");
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("x"), &mut roles);
        text(&mut m, &mut roles);
        assert_eq!(fmt_roles(&roles), ["r3*1"], "the copied text child");
    }

    #[test]
    fn text_nodes_not_matched_without_text_roles() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x/y return $a");
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("x"), &mut roles);
        text(&mut m, &mut roles);
        assert!(
            roles.is_empty(),
            "text under /x is not on any projection path"
        );
    }

    #[test]
    fn explicit_text_step() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x return $a/text()");
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("x"), &mut roles);
        text(&mut m, &mut roles);
        // binding role of $a does not land on text; the text() role does.
        assert_eq!(roles.len(), 1);
    }

    #[test]
    fn descendant_axis_multiplicity() {
        // /descendant::a/descendant::b: b under two nested a's gets the
        // binding role twice (two derivations).
        let (mut m, _, mut sy, _) = matcher_for("for $v in //a//b return if ($v/m = 1) then 'x'");
        let mut roles = Vec::new();
        assert!(enter(&mut m, sy.intern("a"), &mut roles));
        assert!(enter(&mut m, sy.intern("a"), &mut roles));
        enter(&mut m, sy.intern("b"), &mut roles);
        let binding = roles
            .iter()
            .find(|(r, _)| *r == gcx_query::ast::RoleId(1))
            .unwrap();
        assert_eq!(binding.1, 2, "two derivations through the two a-ancestors");
    }

    #[test]
    fn descendant_or_self_assigns_to_whole_subtree() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x return $a");
        let mut roles = Vec::new();
        // Role r3 = /x/descendant-or-self::node() must hit x, child, grandchild.
        enter(&mut m, sy.intern("x"), &mut roles);
        assert!(
            fmt_roles(&roles).iter().any(|s| s.starts_with("r3")),
            "{roles:?}"
        );
        enter(&mut m, sy.intern("c"), &mut roles);
        assert_eq!(fmt_roles(&roles), ["r3*1"]);
        enter(&mut m, sy.intern("g"), &mut roles);
        assert_eq!(fmt_roles(&roles), ["r3*1"]);
    }

    #[test]
    fn star_matches_any_element() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in /x/* return 'y'");
        let mut roles = Vec::new();
        enter(&mut m, sy.intern("x"), &mut roles);
        assert!(enter(&mut m, sy.intern("anything"), &mut roles));
        m.leave_element();
        assert!(enter(&mut m, sy.intern("other"), &mut roles));
    }

    #[test]
    fn root_only_query_keeps_nothing() {
        // A query using no input at all: only r1 on the root; every element
        // is skippable.
        let (mut m, root_roles, mut sy, _) = matcher_for("'constant'");
        assert_eq!(root_roles.len(), 1);
        assert!(!enter(&mut m, sy.intern("anything"), &mut Vec::new()));
    }

    // ---- the merged matcher: per-query outcomes -----------------------------

    /// A matcher over the merged paths of `queries`, all compiled against
    /// one table (the NFA compares interned names).
    fn merged_matcher(queries: &[&str]) -> (TaggedMatcher, SymbolTable) {
        let mut sy = SymbolTable::new();
        let parts: Vec<CompiledPaths> = queries
            .iter()
            .map(|q| CompiledPaths::compile(&analyze(&compile(q).unwrap()).roles, &mut sy))
            .collect();
        let automaton = Automaton::new(TaggedPaths::merge(parts.iter()), None);
        (TaggedMatcher::start(Arc::new(automaton)), sy)
    }

    #[test]
    fn disjoint_queries_keep_disjoint_subtrees() {
        let (mut m, mut sy) =
            merged_matcher(&["for $a in /r/x return $a", "for $b in /r/y return $b"]);
        let [r, x, y] = ["r", "x", "y"].map(|n| sy.intern(n));
        let (any, kept, _) = entered(&mut m, r);
        assert!(any);
        assert_eq!(kept, [true, true], "both queries keep the shared root");

        let (any, kept, _) = entered(&mut m, x);
        assert!(any);
        assert_eq!(kept, [true, false], "only query 0 wants /r/x");
        m.leave_element();

        let (_, kept, _) = entered(&mut m, y);
        assert_eq!(kept, [false, true], "only query 1 wants /r/y");
        m.leave_element();
    }

    #[test]
    fn subtree_wanted_by_nobody_is_skipped_once() {
        let (mut m, mut sy) =
            merged_matcher(&["for $a in /r/x return $a", "for $b in /r/y return $b"]);
        m.enter(sy.intern("r"));
        assert!(
            m.enter(sy.intern("z")).is_none(),
            "no query matches under /r/z"
        );
    }

    #[test]
    fn identical_queries_get_independent_tags() {
        let q = "for $a in /r//v return $a";
        let (mut m, mut sy) = merged_matcher(&[q, q]);
        assert_eq!(entered(&mut m, sy.intern("r")).1, [true, true]);
        let (_, _, roles) = entered(&mut m, sy.intern("v"));
        let roles_of = |tag| {
            let mine = roles.iter().filter(move |r| r.0 == tag);
            mine.map(|&(_, r, c)| (r, c)).collect::<Vec<_>>()
        };
        let (r0, r1) = (roles_of(0), roles_of(1));
        assert_eq!(r0, r1, "identical queries see identical roles");
        assert!(!r0.is_empty());
    }

    #[test]
    fn text_roles_are_tagged_per_query() {
        let (mut m, mut sy) =
            merged_matcher(&["for $a in /r return $a/text()", "for $b in /r/x return $b"]);
        m.enter(sy.intern("r"));
        let roles = m.text();
        assert!(roles.iter().any(|&(t, _, _)| t == 0), "query 0 wants text");
        // Query 1's binding subtree role starts at /r/x, so text directly
        // under r carries no query-1 role.
        assert!(
            roles.iter().all(|&(t, _, _)| t == 0),
            "query 1 must not claim text under /r: {roles:?}"
        );
    }

    // ---- the memo against the NFA step alone ------------------------------

    /// Queries over a small tag alphabet (the pool gcx-core's
    /// `merge_props` draws from): shared prefixes, `//`, nested `//`,
    /// wildcards, a positional predicate, text steps, no input at all.
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

    const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

    /// Tags no query and no reach filter mentions: a run interns them
    /// when it meets them, after everything the automaton knows.
    const RUN_LOCAL: [&str; 3] = ["u", "v", "w"];

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    enum Doc {
        Elem(&'static str, Vec<Doc>),
        Text,
    }

    /// `merge_props`' document shape: random tags — one in six
    /// run-local — up to 3 children, a quarter of them text, at most 5
    /// levels.
    fn gen_tree(rng: &mut XorShift, depth: u32) -> Doc {
        let name = match rng.below(6) {
            0 => RUN_LOCAL[rng.below(RUN_LOCAL.len() as u64) as usize],
            _ => TAGS[rng.below(TAGS.len() as u64) as usize],
        };
        let n_children = if depth >= 4 { 0 } else { rng.below(4) };
        let children = (0..n_children)
            .map(|_| match rng.below(4) {
                0 => Doc::Text,
                _ => gen_tree(rng, depth + 1),
            })
            .collect();
        Doc::Elem(name, children)
    }

    /// `depth` nested `<a>`s, a text at the bottom.
    fn nest(depth: u32) -> Doc {
        (0..depth).fold(Doc::Text, |inner, _| Doc::Elem("a", vec![inner]))
    }

    /// Everything a driver observes of one token.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Element(bool, Vec<bool>, Vec<TaggedRole>),
        Text(Vec<TaggedRole>),
    }

    /// Walk `doc` the way a driver does, logging every outcome.
    fn observe(m: &mut TaggedMatcher, doc: &Doc, sy: &mut SymbolTable, log: &mut Vec<Seen>) {
        match doc {
            Doc::Text => log.push(Seen::Text(m.text().to_vec())),
            Doc::Elem(name, children) => {
                let (any, kept, roles) = entered(m, sy.intern(name));
                log.push(Seen::Element(any, kept, roles));
                if any {
                    for child in children {
                        observe(m, child, sy, log);
                    }
                    m.leave_element();
                }
            }
        }
    }

    /// The merged paths of `queries`, and a reach filter that closes the
    /// worlds of `d` (nothing below) and `e` (only `c` and text), so
    /// reach cuts are part of what is compared.
    fn merged(queries: &[&str], sy: &mut SymbolTable) -> (TaggedPaths, Arc<ReachFilter>) {
        let parts: Vec<CompiledPaths> = queries
            .iter()
            .map(|q| CompiledPaths::compile(&analyze(&compile(q).unwrap()).roles, sy))
            .collect();
        let [c, d, e] = ["c", "d", "e"].map(|n| sy.intern(n));
        for tag in TAGS {
            sy.intern(tag);
        }
        let mut reach = ReachFilter::new(sy.len());
        reach.close(d, &[], false);
        reach.close(e, &[c], true);
        (TaggedPaths::merge(parts.iter()), Arc::new(reach))
    }

    /// The fill path alone (no memo) against memos of 2 sets, of the
    /// default size, and of the default size *donated*: learnt by a run
    /// over `donor`, a different document whose table gave the run-local
    /// names other symbols, and offered back when that matcher was
    /// dropped. Same keep, kept-per-query, roles with multiplicities,
    /// reach cuts. Returns the sets each memo holds at the end.
    fn assert_memo_invisible(
        queries: &[&str],
        donor: &Doc,
        docs: &[Doc],
        reach: bool,
    ) -> [usize; 3] {
        let mut sy = SymbolTable::new();
        let (paths, filter) = merged(queries, &mut sy);
        let automata = [0, 2, MEMO_SETS, MEMO_SETS].map(|sets| {
            let reach = reach.then(|| filter.clone());
            Arc::new(Automaton::with_memo_sets(paths.clone(), reach, sets))
        });
        let donated = &automata[3];
        let mut donor_table = sy.clone();
        for name in RUN_LOCAL.iter().rev() {
            donor_table.intern(name);
        }
        let mut m = TaggedMatcher::start(donated.clone());
        observe(&mut m, donor, &mut donor_table, &mut Vec::new());
        let learnt = m.memo.learnt();
        drop(m);
        assert_eq!(donated.memo.lock().unwrap().learnt(), learnt, "offered");
        let mut runs = automata.each_ref().map(|automaton| {
            let m = TaggedMatcher::start(automaton.clone());
            (m, Vec::new())
        });
        for (m, log) in &mut runs {
            // Each run interns the run-local names as it meets them.
            let mut table = sy.clone();
            for doc in docs {
                observe(m, doc, &mut table, log);
                assert_eq!(m.depth(), 0);
            }
        }
        let [(plain, plain_log), memoised @ ..] = runs;
        assert_eq!(plain.memo_len(), 0, "no memo without room for one");
        for (m, log) in &memoised {
            assert_eq!(log, &plain_log, "{queries:?}");
            assert_eq!(m.reach_cuts(), plain.reach_cuts(), "{queries:?}");
        }
        memoised.each_ref().map(|(m, _)| m.memo_len())
    }

    #[test]
    fn memo_is_invisible_on_random_documents() {
        let mut rng = XorShift(0xC0FFEE);
        let (mut memoised, mut reused) = (0, 0);
        for round in 0..300 {
            let n = 1 + rng.below(4);
            let queries: Vec<&str> = (0..n)
                .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
                .collect();
            // Several documents through one matcher: later ones run on a
            // warm memo.
            let donor = gen_tree(&mut rng, 0);
            let docs: Vec<Doc> = (0..3).map(|_| gen_tree(&mut rng, 0)).collect();
            let sets = assert_memo_invisible(&queries, &donor, &docs, round % 2 == 0);
            assert!(sets[0] <= 2);
            memoised += sets[1];
            reused += usize::from(sets[2] > sets[1]);
        }
        assert!(memoised > 300, "the memo must have been in use: {memoised}");
        assert!(
            reused > 30,
            "donated sets the documents never reach: {reused}"
        );
    }

    #[test]
    fn a_run_that_learns_nothing_shares_the_automatons_memo() {
        let mut sy = SymbolTable::new();
        let (paths, _) = merged(
            &["for $x in /a/b return $x", "for $x in //c return $x"],
            &mut sy,
        );
        let automaton = Arc::new(Automaton::new(paths, None));
        let doc = Doc::Elem(
            "a",
            vec![Doc::Elem("b", vec![Doc::Text]), Doc::Elem("u", vec![])],
        );
        let cold = Arc::clone(&automaton.memo.lock().unwrap());
        let mut first = TaggedMatcher::start(automaton.clone());
        observe(&mut first, &doc, &mut sy.clone(), &mut Vec::new());
        assert!(!Arc::ptr_eq(&first.memo, &cold), "copied on its first miss");
        drop(first);
        let warm = Arc::clone(&automaton.memo.lock().unwrap());
        assert!(warm.learnt() > cold.learnt());
        // The same shape under another run-local name (and symbol): every
        // transition is there, nothing is copied, nothing changes hands.
        let doc = Doc::Elem(
            "a",
            vec![Doc::Elem("b", vec![Doc::Text]), Doc::Elem("w", vec![])],
        );
        let mut second = TaggedMatcher::start(automaton.clone());
        observe(&mut second, &doc, &mut sy.clone(), &mut Vec::new());
        assert!(Arc::ptr_eq(&second.memo, &warm));
        drop(second);
        assert!(Arc::ptr_eq(&automaton.memo.lock().unwrap(), &warm));
    }

    #[test]
    fn memo_overflow_falls_back_to_explicit_frames() {
        // Under `//a//a` every nesting level has its own derivation
        // counts, so its own state set: 64 levels overflow a memo of 2 and
        // fill one of 1024 with 60-odd sets. The second and third nest
        // replay it (hits where there are sets, NFA steps where not).
        let queries = ["for $x in //a//a return $x", "for $x in //a/b[2] return $x"];
        let docs = [nest(64), nest(64), nest(3)];
        let sets = assert_memo_invisible(&queries, &nest(5), &docs, false);
        assert_eq!(sets[0], 2, "the small memo is full");
        assert!((60..200).contains(&sets[1]), "one set per level: {sets:?}");
        // Multiplicities are what makes the sets differ: pin one.
        let mut sy = SymbolTable::new();
        let (paths, _) = merged(&queries[..1], &mut sy);
        let mut m = TaggedMatcher::start(Arc::new(Automaton::with_memo_sets(paths, None, 2)));
        let a = sy.intern("a");
        let mut roles = Vec::new();
        for _ in 0..64 {
            roles = entered(&mut m, a).2;
        }
        let binding = roles.iter().find(|r| r.1 == RoleId(1)).unwrap();
        assert_eq!(binding.2, 63, "63 ancestors named a");
    }

    /// The names the innermost frame waits for, if it is a search set.
    fn search_names(m: &TaggedMatcher) -> Option<&[Symbol]> {
        match m.below() {
            Below::Search(names) => Some(names),
            _ => None,
        }
    }

    #[test]
    fn a_search_set_names_what_it_waits_for() {
        let (mut m, _, mut sy, _) = matcher_for("for $i in //item return $i");
        let [item, site] = ["item", "site"].map(|n| sy.intern(n));
        let mut roles = Vec::new();
        assert_eq!(search_names(&m), Some(&[item][..]));
        // Anything else: kept, no role, the same set.
        assert!(enter(&mut m, site, &mut roles) && roles.is_empty());
        assert_eq!(search_names(&m), Some(&[item][..]));
        text(&mut m, &mut roles);
        assert!(roles.is_empty());
        // An item is output whole: `descendant-or-self::node()` below it.
        enter(&mut m, item, &mut roles);
        assert!(!roles.is_empty());
        assert_eq!(search_names(&m), None);
        // A positional step waits too, but not as a search.
        let (mut m, _, mut sy, _) = matcher_for("for $b in //a/b[2] return $b");
        assert!(search_names(&m).is_some());
        enter(&mut m, sy.intern("a"), &mut roles);
        assert_eq!(search_names(&m), None, "b[2] counts a's children");
        // No search under a reach filter, or without room in the memo.
        let mut sy = SymbolTable::new();
        let (paths, reach) = merged(&["for $x in //c return $x"], &mut sy);
        for (reach, sets) in [(Some(reach), MEMO_SETS), (None, 0), (None, MEMO_SETS)] {
            let searches = reach.is_none() && sets > 0;
            let automaton = Automaton::with_memo_sets(paths.clone(), reach, sets);
            let m = TaggedMatcher::start(Arc::new(automaton));
            assert_eq!(search_names(&m).is_some(), searches);
        }
    }

    #[test]
    fn search_sets_loop_on_every_name_they_do_not_wait_for() {
        // Over the pool's queries and random documents: wherever a frame
        // is a search set, every other name maps it onto itself with no
        // role, and a text child gets none.
        fn walk(m: &mut TaggedMatcher, doc: &Doc, sy: &mut SymbolTable, searched: &mut u32) {
            if let Some(waits) = search_names(m).map(<[Symbol]>::to_vec) {
                *searched += 1;
                let set = m.top().set;
                for name in TAGS.iter().chain(&RUN_LOCAL).map(|n| sy.intern(n)) {
                    if !waits.contains(&name) {
                        let (any, _, roles) = entered(m, name);
                        assert!(any && roles.is_empty());
                        assert_eq!(m.top().set, set);
                        m.leave_element();
                    }
                }
                assert!(m.text().is_empty());
            }
            if let Doc::Elem(name, children) = doc {
                if m.enter(sy.intern(name)).is_some() {
                    for child in children {
                        walk(m, child, sy, searched);
                    }
                    m.leave_element();
                }
            }
        }
        let mut rng = XorShift(0x5EA2C4);
        let mut searched = 0;
        for query in POOL {
            let mut sy = SymbolTable::new();
            let (paths, _) = merged(&[query], &mut sy);
            let mut m = TaggedMatcher::start(Arc::new(Automaton::new(paths, None)));
            for _ in 0..20 {
                walk(&mut m, &gen_tree(&mut rng, 0), &mut sy, &mut searched);
            }
        }
        assert!(searched > 100, "search sets met: {searched}");
    }

    #[test]
    fn deep_nesting_stays_linear() {
        let (mut m, _, mut sy, _) = matcher_for("for $a in //deep return $a");
        let d = sy.intern("d");
        let mut roles = Vec::new();
        for _ in 0..10_000 {
            let keep = enter(&mut m, d, &mut roles);
            assert!(keep, "descendant search keeps probing");
        }
        for _ in 0..10_000 {
            m.leave_element();
        }
        assert_eq!(m.depth(), 0);
    }
}

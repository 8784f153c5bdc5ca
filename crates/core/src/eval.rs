//! The resumable query executor (paper Figure 2, right component).
//!
//! The executor runs the compiled program (`gcx-ir`) lowered from the
//! *rewritten* query (with signOff statements) sequentially — but as a
//! **sans-IO state machine**, not a blocking recursion. The control state
//! lives in an explicit continuation stack of [`Task`]s; whenever the
//! machine needs data that is not yet buffered — the next node of a
//! for-loop, the witness of an `exists`, the end tag of a subtree
//! being emitted — [`Vm::resume`] returns [`VmStatus::NeedInput`]
//! with every suspended loop frozen in place. The driver (the push-based
//! [`EvalSession`](crate::EvalSession) as chunks arrive, or a batch
//! [`Lane`](crate::Lane) as the shared scan delivers its events) applies
//! exactly one stream event to the buffer and resumes. This is the paper's
//! blocking protocol — "query evaluation remains blocked until the buffer
//! manager has responded" — with the block turned inside out so the engine
//! can be suspended at any byte boundary. signOff instructions decrement
//! role instances (with derivation multiplicity) and thereby trigger
//! active garbage collection.
//!
//! All lowering happened at query-compile time: the program carries
//! pre-compiled [`EvalStep`] tables and a pre-interned symbol table that
//! seeds the run's table, so a run interns no query names and compiles no
//! steps — a path cursor is lent the program's step arena and remembers
//! its plan's range of it.
//!
//! ## Multiplicity accounting
//!
//! The stream matcher assigns role instances per *derivation* of the
//! absolute projection path. A `signOff($v/rel, r)` at the end of `$v`'s
//! loop body removes, for every buffered node matching `rel` below the
//! current binding `b`, `derivations(rel from b) × mult(b)` instances,
//! where `mult(b)` is the derivation count of `b`'s own binding (captured
//! when the binding was established). Summed over all bindings this equals
//! exactly the assigned count — the buffer drains to the virtual root by
//! the end of every run (asserted by tests).

use crate::buffer::{BufferTree, NodeId};
use crate::cursor::{
    passes, pred_ordinal, Blocked, CursorPool, CursorState, ETest, EvalStep, PathCursor,
};
use crate::error::EngineError;
use crate::obs::TaskObs;
use gcx_ir::{
    fmt_number, AttrPlan, CondId, CondIr, EAxis, Instr, InstrId, OperandId, OperandIr, PathId,
    PlanRoot, Program,
};
use gcx_query::ast::{AggFunc, CmpOp, RoleId, StrFunc, VarId};
use gcx_xml::{Symbol, SymbolTable, XmlWriter};
use std::hash::{BuildHasher, RandomState};
use std::io::Write;
use std::sync::Arc;

/// A for-variable binding: the node plus its binding-role multiplicity
/// (derivation count), captured at iteration start.
#[derive(Debug, Clone, Copy)]
struct Binding {
    node: NodeId,
    mult: u32,
}

/// What a [`Vm::resume`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VmStatus {
    /// The machine is blocked on stream data: apply one event to the
    /// buffer (or declare the input exhausted) and resume.
    NeedInput,
    /// The program ran to completion (output fully emitted).
    Done,
}

/// What executing one continuation frame produced ([`Vm::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    /// The frame completed (possibly scheduling more frames).
    Continue,
    /// The frame blocked on stream data and pushed itself back.
    NeedInput,
}

/// One suspended continuation frame. The stack is the executor's whole
/// control state: pushing schedules work (last pushed runs first), and a
/// frame that blocks pushes itself back before the machine suspends — so
/// `resume` is restartable at every suspension point.
///
/// Loop frames do **not** own their [`PathCursor`]: cursors live on the
/// [`Vm::cursors`] side stack, LIFO-parallel to the loop frames that
/// opened them (an inner loop always runs to completion before its outer
/// loop pops, so the top of the cursor stack is always the running
/// loop's cursor). That keeps every `Task` a couple of words, so the
/// per-iteration re-push of a loop frame moves no cursor state — the
/// hot-loop cost that made the sans-IO conversion ~10-15% slower than
/// the old recursion on scan-bound queries.
enum Task {
    /// Dispatch one instruction.
    Exec(InstrId),
    /// A sequence, `idx` children already scheduled.
    Seq { first: u32, len: u32, idx: u32 },
    /// Close the element opened by the matching `Instr::Element`.
    EndElement,
    /// Branch on the condition result on top of the bool stack.
    IfBranch {
        then_branch: InstrId,
        else_branch: InstrId,
    },
    /// A for-loop mid-iteration; its cursor (top of the cursor stack)
    /// pins its scan position.
    ForLoop {
        var: VarId,
        role: RoleId,
        body: InstrId,
    },
    /// An output path mid-iteration; `role` is the one its copies'
    /// descendants carry, if they may write through.
    OutputLoop {
        attr: AttrPlan,
        role: Option<RoleId>,
    },
    /// Emit `node`'s subtree (see [`Vm::emit`]).
    Emit { node: NodeId, role: Option<RoleId> },
    /// Evaluate a condition, pushing its result on the bool stack.
    Cond(CondId),
    /// Negate the bool on top of the stack.
    NotFinish,
    /// Short-circuit `and`: evaluate the rhs only if the lhs held.
    AndRhs(CondId),
    /// Short-circuit `or`: evaluate the rhs only if the lhs failed.
    OrRhs(CondId),
    /// An `exists` probe mid-iteration.
    ExistsLoop(AttrPlan),
    /// Compare the two value vectors on top of the value stack.
    CompareFinish(CmpOp),
    /// Apply a string predicate to the two value vectors on top.
    StringFnFinish(StrFunc),
    /// Atomize an operand onto the value stack.
    Operand(OperandId),
    /// Collect a path's matches into `sink`; with `release`, each match
    /// loses its instances of that role once it is consumed.
    CollectLoop {
        attr: AttrPlan,
        sink: Sink,
        release: Option<RoleId>,
    },
    /// Wait for `node`'s end tag, then collect its string value (see
    /// [`Task::CollectLoop`]).
    CollectClosed {
        node: NodeId,
        sink: Sink,
        release: Option<RoleId>,
    },
    /// Emit the aggregate folded so far and reset the fold.
    AggFinish(AggFunc),
    /// Wait until [`BufferTree::region_over`]`(node, want)`: a copy's end
    /// tag, or a signOff's region — the binding's subtree, or the whole
    /// document for a root-anchored target (the virtual root closes at
    /// end of input). With `want` (the target's first step is
    /// `child::want`), a DTD sibling-order cutoff proving `want` exhausted
    /// under `node` completes the region before `node`'s end tag: every
    /// node the target can ever select is then buffered and closed. This
    /// is the paper's "earliest possible" moment moved earlier by schema
    /// knowledge.
    WaitRegion { node: NodeId, want: Option<Symbol> },
    /// Decrement role instances over the (now complete) target region.
    SignoffExec {
        path: PathId,
        role: RoleId,
        ctx: NodeId,
        mult: u32,
    },
    /// A hash join's first execution mid-iteration: runs the original
    /// loop (same cursor, same operand order, same branching) while
    /// teeing key values into the join index.
    JoinBuildLoop { slot: u32 },
    /// Finish one build iteration: record the entry's keys, then branch
    /// exactly as the original `if (key = probe)` would.
    JoinBuildFinish { slot: u32, entry: u32 },
    /// Probe dispatch: the probe operand's values are on the value
    /// stack; compute the candidate entries (or divert to the fallback
    /// loop if any candidate went stale).
    JoinProbe { slot: u32 },
    /// Iterate the candidate entries in build (= document) order,
    /// binding the join variable with its recorded multiplicity.
    JoinProbeLoop { slot: u32, pos: u32 },
}

/// Display names of the task-frame kinds, parallel to [`task_kind`].
/// Frame timing attributes evaluation cost by kind — e.g. the Q8
/// allocation cliff shows up as `CollectLoop`/`CollectClosed` dominance.
const TASK_KIND_NAMES: [&str; 24] = [
    "Exec",
    "Seq",
    "EndElement",
    "IfBranch",
    "ForLoop",
    "OutputLoop",
    "Emit",
    "Cond",
    "NotFinish",
    "AndRhs",
    "OrRhs",
    "ExistsLoop",
    "CompareFinish",
    "StringFnFinish",
    "Operand",
    "CollectLoop",
    "CollectClosed",
    "AggFinish",
    "WaitRegion",
    "SignoffExec",
    "JoinBuildLoop",
    "JoinBuildFinish",
    "JoinProbe",
    "JoinProbeLoop",
];

/// Where a collect loop puts each match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// A comparison operand: the match's atomized value onto the top value
    /// vector.
    Values,
    /// `count()`: one more match.
    Count,
    /// `sum`/`avg`/`min`/`max`: the match's atomized value into the
    /// running [`Fold`].
    Fold,
}

/// A running aggregate: what its result needs of the values folded in so
/// far, not the values (the VM runs one collect loop at a time, so one
/// fold serves every aggregate).
#[derive(Debug, Default)]
struct Fold {
    /// Values folded in.
    values: u64,
    /// Those with a numeric form: how many, their sum, least and greatest.
    nums: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
    /// A matched element's string value, while it is parsed (reused).
    scratch: String,
}

impl Fold {
    fn add(&mut self, num: Option<f64>) {
        self.values += 1;
        if let Some(v) = num {
            self.nums += 1;
            self.sum += v;
            self.min = Some(self.min.map_or(v, |a| a.min(v)));
            self.max = Some(self.max.map_or(v, |a| a.max(v)));
        }
    }

    /// The aggregate's text (none for `min`/`max`/`avg` of no number), and
    /// the fold emptied for the next aggregate.
    fn finish(&mut self, func: AggFunc) -> Option<String> {
        let text = match func {
            AggFunc::Count => Some(self.values as f64),
            AggFunc::Sum => Some(self.sum),
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => (self.nums > 0).then(|| self.sum / self.nums as f64),
        }
        .map(fmt_number);
        *self = Fold {
            scratch: std::mem::take(&mut self.scratch),
            ..Fold::default()
        };
        text
    }
}

/// `descendant-or-self::node()`: the region a consumed match's atomized
/// value was read from.
const SUBTREE: [EvalStep; 1] = [EvalStep {
    axis: EAxis::DescendantOrSelf,
    test: gcx_ir::ETest::AnyNode,
    pos: None,
}];

/// Index of a frame's kind in [`TASK_KIND_NAMES`].
fn task_kind(t: &Task) -> usize {
    match t {
        Task::Exec(_) => 0,
        Task::Seq { .. } => 1,
        Task::EndElement => 2,
        Task::IfBranch { .. } => 3,
        Task::ForLoop { .. } => 4,
        Task::OutputLoop { .. } => 5,
        Task::Emit { .. } => 6,
        Task::Cond(_) => 7,
        Task::NotFinish => 8,
        Task::AndRhs(_) => 9,
        Task::OrRhs(_) => 10,
        Task::ExistsLoop(_) => 11,
        Task::CompareFinish(_) => 12,
        Task::StringFnFinish(_) => 13,
        Task::Operand(_) => 14,
        Task::CollectLoop { .. } => 15,
        Task::CollectClosed { .. } => 16,
        Task::AggFinish(_) => 17,
        Task::WaitRegion { .. } => 18,
        Task::SignoffExec { .. } => 19,
        Task::JoinBuildLoop { .. } => 20,
        Task::JoinBuildFinish { .. } => 21,
        Task::JoinProbe { .. } => 22,
        Task::JoinProbeLoop { .. } => 23,
    }
}

/// Frame-timing sample rate: the clock is read around one frame in
/// `TIMING_SAMPLE` per kind (always including each kind's first frame),
/// and reported nanos are scaled back up by the exact frame counts.
/// Counting stays exact; only the time attribution is sampled. At 139M
/// frames (unoptimized Q8) the old read-the-clock-every-frame scheme
/// cost ~2.4x with telemetry on; sampling bounds it to well under 10%.
const TIMING_SAMPLE: u64 = 64;

/// Per-kind frame timing (telemetry only; boxed off the hot path).
#[derive(Debug)]
struct TaskTiming {
    counts: [u64; TASK_KIND_NAMES.len()],
    sampled: [u64; TASK_KIND_NAMES.len()],
    nanos: [u64; TASK_KIND_NAMES.len()],
}

/// What the suspended machine is waiting for. Recorded at every
/// suspension site so the driver can apply buffered stream events in a
/// tight loop and only re-enter [`Vm::resume`] once the wait is
/// satisfiable — the conditions below are exactly the conditions under
/// which the blocked frame would do anything at all, so skipped resumes
/// are provable no-ops and outputs/peaks are bit-identical to resuming
/// per token.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    /// No recorded wait: resume after every event (always correct).
    Any,
    /// A cursor scan is blocked: progress needs a following sibling (a
    /// first child when `after` is `None`) or the end of the region it
    /// reads — with `want`, also a cutoff that a *skipped* later sibling
    /// advanced without appending any buffered sibling.
    Sibling(Blocked),
    /// Blocked until [`BufferTree::region_over`]`(node, want)`
    /// (emit/collect/signOff waits). The node is referenced by the
    /// blocked frame and kept alive by its role instances or an enclosing
    /// cursor pin.
    Region { node: NodeId, want: Option<Symbol> },
}

/// Where a copy stands while its element is still open: the evaluator has
/// written what of `node`'s subtree was buffered and waits for its end tag;
/// the lane writes the rest as it arrives (see [`Lane`](crate::Lane)).
/// Every descendant of `node` carries `role` once — the copy's own role —
/// and one that carries nothing else need not enter the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frontier {
    pub(crate) node: NodeId,
    pub(crate) role: RoleId,
}

/// Which lifecycle stage a [`JoinState`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum JoinPhase {
    /// Never executed: the first execution builds the index.
    #[default]
    Empty,
    /// The build pass is on the task stack (possibly suspended).
    Building,
    /// Index complete: the build cursor ran to `Done`, so the scanned
    /// region is closed and no further match can ever arrive — later
    /// executions probe instead of re-scanning.
    Built,
}

/// Runtime state of one [`gcx_ir::JoinPlan`]: the key index built by
/// mirroring the loop's first execution, consulted by every later one.
/// Entry indices are assigned in build = scan = document order, so a
/// sorted candidate list reproduces the original iteration order.
///
/// The index is four flat vectors and nothing else: the entries and the
/// postings (8 bytes each), and two [`KeyTable`]s — 8 bytes a slot, and
/// each distinct key's bytes once behind a length byte or two. Q8 over a
/// 16 MiB document: 4 275 text keys, 262 144 bytes in all, where boxed
/// keys in a hash map and 12-byte postings took 412 152.
#[derive(Debug, Default)]
struct JoinState {
    phase: JoinPhase,
    /// Matched binding nodes of the build pass, in scan order.
    entries: Vec<NodeId>,
    /// Numeric key values — the 8 bytes of their [`canon_bits`]; NaN
    /// excluded, it compares equal to nothing — with each one's latest
    /// posting.
    nums: KeyTable,
    /// Full untrimmed key texts with each one's latest posting. Consulted
    /// by every probe: a numeric probe string-compares against
    /// non-numeric keys, a non-numeric probe string-compares against all
    /// keys — exactly [`compare_existential`]'s pair rule.
    texts: KeyTable,
    /// The postings of every key of both tables in one vector, each key's
    /// chained from its latest back to its first: a key costs one slot
    /// and its bytes once, however many entries it has.
    postings: Vec<Posting>,
    /// Candidate entries of the current probe (sorted, deduped).
    cands: Vec<u32>,
}

/// One index entry under one key (see [`JoinState::postings`]).
#[derive(Debug, Clone, Copy)]
struct Posting {
    /// The entry, with [`NUMERIC`] set where the key value is numeric
    /// (read on text postings only).
    entry: u32,
    /// The key's previous posting, or [`NO_POSTING`].
    prev: u32,
}

/// [`Posting::entry`]'s flag bit: the key value is numeric.
const NUMERIC: u32 = 1 << 31;

const NO_POSTING: u32 = u32::MAX;

impl Posting {
    fn entry(self) -> u32 {
        self.entry & !NUMERIC
    }

    fn numeric(self) -> bool {
        self.entry & NUMERIC != 0
    }
}

/// Add a posting of `entry` to the key whose latest posting is `head`.
fn post(postings: &mut Vec<Posting>, head: &mut u32, entry: u32, numeric: bool) {
    assert!(entry < NUMERIC, "a join indexes fewer than 2^31 entries");
    let at = u32::try_from(postings.len()).expect("a join keeps fewer than 2^32 postings");
    let prev = std::mem::replace(head, at);
    postings.push(Posting {
        entry: if numeric { entry | NUMERIC } else { entry },
        prev,
    });
}

/// The postings of the key whose latest is `head`.
fn key_postings(postings: &[Posting], head: u32) -> impl Iterator<Item = Posting> + '_ {
    std::iter::successors(postings.get(head as usize).copied(), |p| {
        postings.get(p.prev as usize).copied()
    })
}

/// The distinct keys of one side of a join, each with its latest posting.
/// Each key's bytes are stored once in `arena`, behind their length in
/// LEB128; the index is a power of two of `(key start + 1, latest
/// posting)` slots, linearly probed and at most 7/8 full, where `(0, _)`
/// is an empty slot. A slot keeps no hash: growing rehashes every key
/// from the arena. The keys are the document's, so the hash is keyed per
/// table: no document can choose keys that collide.
#[derive(Debug, Default)]
struct KeyTable {
    arena: Vec<u8>,
    slots: Vec<(u32, u32)>,
    len: usize,
    hasher: RandomState,
}

impl KeyTable {
    /// Slots a table starts with on its first key.
    const FIRST_SLOTS: usize = 16;

    /// The latest posting of `key`, if the table has it.
    fn get(&self, key: &[u8]) -> Option<u32> {
        self.find(key).ok().map(|i| self.slots[i].1)
    }

    /// The latest posting of `key`, which is added with [`NO_POSTING`] if
    /// it is new.
    fn head_mut(&mut self, key: &[u8]) -> &mut u32 {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(_) if (self.len + 1) * 8 > self.slots.len() * 7 => {
                self.grow();
                self.find(key).expect_err("a new key")
            }
            Err(i) => i,
        };
        if self.slots[i].0 == 0 {
            let start = u32::try_from(self.arena.len() + 1).expect("join keys stay below 4 GiB");
            let mut len = key.len();
            while len >= 0x80 {
                self.arena.push(len as u8 | 0x80);
                len >>= 7;
            }
            self.arena.push(len as u8);
            self.arena.extend_from_slice(key);
            self.slots[i] = (start, NO_POSTING);
            self.len += 1;
        }
        &mut self.slots[i].1
    }

    /// `key`'s slot, or the empty slot where it would go.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[i].0 {
                0 => return Err(i),
                start if self.key_at(start as usize - 1) == key => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The key whose length starts at `at` in the arena.
    fn key_at(&self, mut at: usize) -> &[u8] {
        let (mut len, mut shift) = (0, 0);
        loop {
            let byte = self.arena[at];
            at += 1;
            len |= usize::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        &self.arena[at..at + len]
    }

    /// Double the slots (or make the first ones) and re-place every key.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(Self::FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        let mask = size - 1;
        for (start, head) in old.into_iter().filter(|&(start, _)| start != 0) {
            let mut i = self.hasher.hash_one(self.key_at(start as usize - 1)) as usize & mask;
            while self.slots[i].0 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = (start, head);
        }
    }
}

/// `f64` bits with `-0.0` folded onto `+0.0`, so numerically equal
/// non-NaN keys hash identically.
#[inline]
fn canon_bits(x: f64) -> u64 {
    if x == 0.0 {
        0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// The resumable executor: continuation stack + environment + pools. Owns
/// no buffer, no symbols and no output sink — those are lent per `resume`
/// call, which is what lets one driver own the I/O while another suspends
/// mid-document and migrates nothing.
pub(crate) struct Vm {
    /// The compiled program being executed (shared, immutable).
    program: Arc<Program>,
    /// The paper's system ([`EngineMode::Gcx`](crate::EngineMode::Gcx)):
    /// signOffs execute, and an open element's copy is handed to the lane
    /// ([`Frontier`]) rather than serialized from the buffer after its end
    /// tag. Off, the machine is a baseline's: it ignores signOffs and
    /// copies whole subtrees.
    gc: bool,
    /// The frontier the last suspension handed over, until the lane takes
    /// it.
    frontier: Option<Frontier>,
    /// The continuation stack; empty = program complete.
    tasks: Vec<Task>,
    /// Live path cursors, LIFO-parallel to the cursor-owning loop frames
    /// in `tasks` (see the [`Task`] docs).
    cursors: Vec<PathCursor>,
    /// Condition results in evaluation order.
    bools: Vec<bool>,
    /// Operand value vectors in evaluation order.
    vals: Vec<Values>,
    env: Vec<Option<Binding>>,
    /// Per-[`gcx_ir::JoinPlan`] runtime state, indexed by join slot.
    joins: Vec<JoinState>,
    /// What the machine was waiting for when `resume` last returned
    /// [`VmStatus::NeedInput`]; drivers batch event application against
    /// it via [`Vm::wait_satisfied`].
    wait: Wait,
    /// Recycled cursor frame stacks (one cursor per path evaluation).
    cursor_pool: CursorPool,
    /// Reused signOff region: each target node with its derivations.
    signoff_scratch: Vec<(NodeId, u32)>,
    /// Recycled operand values for comparisons (capacities kept: an
    /// operand is atomized per evaluation, not allocated).
    value_pool: Vec<Values>,
    /// The aggregate being collected.
    fold: Fold,
    /// Frame timing, off by default (one null check per frame).
    timing: Option<Box<TaskTiming>>,
}

impl Vm {
    pub(crate) fn new(program: Arc<Program>, gc: bool) -> Vm {
        let env = vec![None; program.n_vars()];
        let root = program.root();
        let joins = (0..program.join_count())
            .map(|_| JoinState::default())
            .collect();
        // Room for the frames a paper query nests; a deeper one grows it.
        let mut tasks = Vec::with_capacity(16);
        tasks.push(Task::Exec(root));
        Vm {
            program,
            gc,
            frontier: None,
            tasks,
            cursors: Vec::new(),
            bools: Vec::new(),
            vals: Vec::new(),
            env,
            joins,
            wait: Wait::Any,
            cursor_pool: CursorPool::default(),
            signoff_scratch: Vec::new(),
            value_pool: Vec::new(),
            fold: Fold::default(),
            timing: None,
        }
    }

    /// Turn on per-frame timing (exact counts; clock reads sampled at
    /// [`TIMING_SAMPLE`]).
    pub(crate) fn enable_timing(&mut self) {
        self.timing = Some(Box::new(TaskTiming {
            counts: [0; TASK_KIND_NAMES.len()],
            sampled: [0; TASK_KIND_NAMES.len()],
            nanos: [0; TASK_KIND_NAMES.len()],
        }));
    }

    /// Drain the recorded frame timing, hottest kind first. Sampled
    /// nanos are scaled back up by the exact frame counts, so the
    /// reported total estimates full attribution.
    pub(crate) fn take_task_obs(&mut self) -> Vec<TaskObs> {
        let Some(t) = self.timing.take() else {
            return Vec::new();
        };
        let mut v: Vec<TaskObs> = TASK_KIND_NAMES
            .iter()
            .enumerate()
            .filter(|&(i, _)| t.counts[i] > 0)
            .map(|(i, &name)| TaskObs {
                name,
                count: t.counts[i],
                nanos: if t.sampled[i] > 0 {
                    ((t.nanos[i] as u128) * (t.counts[i] as u128) / (t.sampled[i] as u128)) as u64
                } else {
                    0
                },
            })
            .collect();
        v.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.name.cmp(b.name)));
        v
    }

    /// The copy frontier the machine suspended at, if it did: the lane
    /// writes the element's subtree from here on.
    pub(crate) fn take_frontier(&mut self) -> Option<Frontier> {
        self.frontier.take()
    }

    /// Suspend on missing input, recording what would unblock us — unless
    /// the virtual root is closed: no further stream event will arrive, so
    /// the wait can never be satisfied (every region is over at the end of
    /// a well-formed input, so this is unreachable; fail rather than
    /// spin).
    fn need_input(&mut self, wait: Wait, buf: &BufferTree) -> Result<StepOutcome, EngineError> {
        if buf.is_closed(NodeId::ROOT) {
            Err(EngineError::Internal(
                "input exhausted with an open buffered node".into(),
            ))
        } else {
            self.wait = wait;
            Ok(StepOutcome::NeedInput)
        }
    }

    /// Would resuming now let the suspended frame make progress? Used by
    /// drivers to apply buffered stream events in a tight loop between
    /// `resume` calls: while the recorded wait is unsatisfied, the
    /// blocked frame would re-check its condition and suspend again
    /// without any other effect, so skipping those resumes is exact.
    pub(crate) fn wait_satisfied(&self, buf: &BufferTree) -> bool {
        match self.wait {
            Wait::Any => true,
            Wait::Region { node, want } => buf.region_over(node, want),
            Wait::Sibling(Blocked {
                parent,
                after,
                want,
            }) => {
                let next = match after {
                    None => buf.first_child(parent),
                    Some(c) => buf.next_sibling(c),
                };
                next.is_some() || buf.region_over(parent, want)
            }
        }
    }

    /// Resolve a path's context node and the binding multiplicity of the
    /// variable it is rooted at (1 for the document root).
    fn resolve_root(&self, root: PlanRoot) -> Result<(NodeId, u32), EngineError> {
        match root {
            PlanRoot::Root => Ok((NodeId::ROOT, 1)),
            PlanRoot::Var(v) => self.env[v.index()]
                .map(|b| (b.node, b.mult))
                .ok_or_else(|| {
                    EngineError::Internal(format!(
                        "variable ${} unbound at runtime",
                        self.program.var_name(v)
                    ))
                }),
        }
    }

    /// Open a cursor over `path` from its resolved context node and push
    /// it onto the cursor side stack; the caller pushes the matching
    /// loop frame on the task stack.
    fn open_cursor(&mut self, path: PathId, buf: &mut BufferTree) -> Result<(), EngineError> {
        let plan = self.program.path(path);
        let (ctx, _) = self.resolve_root(plan.root)?;
        let steps = plan.first_step..plan.first_step + plan.step_len;
        let arena = self.program.steps();
        let cursor = PathCursor::new_pooled(buf, ctx, arena, steps, &mut self.cursor_pool);
        self.cursors.push(cursor);
        Ok(())
    }

    /// Pop and dispose the top cursor (its owning loop frame finished).
    fn close_cursor(&mut self, buf: &mut BufferTree) {
        let cursor = self.cursors.pop().expect("loop frame owns the top cursor");
        cursor.dispose(buf, &mut self.cursor_pool);
    }

    /// Recycled (or fresh) empty operand values.
    fn pooled_values(&mut self) -> Values {
        self.value_pool.pop().unwrap_or_default()
    }

    /// Return operand values to the pool.
    fn recycle_values(&mut self, mut v: Values) {
        v.clear();
        self.value_pool.push(v);
    }

    /// The operand values being collected.
    fn top_values(&mut self) -> &mut Values {
        self.vals.last_mut().expect("values scheduled by Operand")
    }

    // ---- the machine loop ----------------------------------------------------

    /// Run until the program completes or blocks on stream data. Output
    /// streams to `out` as it is produced; `buf` may be garbage-collected
    /// between any two calls (every node a suspended frame references is
    /// pinned by its cursor).
    pub(crate) fn resume<W: Write>(
        &mut self,
        buf: &mut BufferTree,
        symbols: &SymbolTable,
        out: &mut XmlWriter<W>,
    ) -> Result<VmStatus, EngineError> {
        loop {
            let Some(task) = self.tasks.pop() else {
                return Ok(VmStatus::Done);
            };
            // Frame timing is telemetry-only: one null check per frame
            // when off; when on, counts are exact but the clock is only
            // read around one frame in `TIMING_SAMPLE` per kind.
            let timed = match self.timing.as_deref_mut() {
                Some(t) => {
                    let kind = task_kind(&task);
                    t.counts[kind] += 1;
                    if t.counts[kind] % TIMING_SAMPLE == 1 {
                        t.sampled[kind] += 1;
                        Some((kind, std::time::Instant::now()))
                    } else {
                        None
                    }
                }
                None => None,
            };
            let outcome = self.step(task, buf, symbols, out);
            if let Some((kind, start)) = timed {
                let t = self.timing.as_deref_mut().expect("timing stays enabled");
                t.nanos[kind] += start.elapsed().as_nanos() as u64;
            }
            if matches!(outcome?, StepOutcome::NeedInput) {
                return Ok(VmStatus::NeedInput);
            }
        }
    }

    /// Execute one continuation frame.
    fn step<W: Write>(
        &mut self,
        task: Task,
        buf: &mut BufferTree,
        symbols: &SymbolTable,
        out: &mut XmlWriter<W>,
    ) -> Result<StepOutcome, EngineError> {
        {
            match task {
                Task::Exec(id) => self.exec_instr(id, buf, out)?,
                Task::Seq { first, len, idx } => {
                    if idx < len {
                        self.tasks.push(Task::Seq {
                            first,
                            len,
                            idx: idx + 1,
                        });
                        let item = self.program.seq_items(first, len)[idx as usize];
                        self.tasks.push(Task::Exec(item));
                    }
                }
                Task::EndElement => out.end_element()?,
                Task::IfBranch {
                    then_branch,
                    else_branch,
                } => {
                    let cond = self.bools.pop().expect("condition result");
                    self.tasks
                        .push(Task::Exec(if cond { then_branch } else { else_branch }));
                }
                Task::ForLoop { var, role, body } => {
                    let cursor = self.cursors.last_mut().expect("for-loop cursor");
                    match cursor.advance(buf, self.program.steps()) {
                        CursorState::Match(n) => {
                            // The binding stays in `env` through the next
                            // re-entry of this frame (nothing reads it between
                            // the body's end and the next `Match`, which
                            // overwrites it); `Done` unbinds.
                            let mult = buf.role_count(n, role).max(1);
                            self.env[var.index()] = Some(Binding { node: n, mult });
                            self.tasks.push(Task::ForLoop { var, role, body });
                            self.tasks.push(Task::Exec(body));
                        }
                        CursorState::NeedInput(blocked) => {
                            self.tasks.push(Task::ForLoop { var, role, body });
                            return self.need_input(Wait::Sibling(blocked), buf);
                        }
                        CursorState::Done => {
                            self.env[var.index()] = None;
                            self.close_cursor(buf);
                        }
                    }
                }
                // The match-heavy loops (output, exists, collect) iterate
                // internally and only touch the task stack when they block
                // or schedule sub-work: a match costs no frame moves.
                Task::OutputLoop { attr, role } => loop {
                    let cursor = self.cursors.last_mut().expect("output cursor");
                    match cursor.advance(buf, self.program.steps()) {
                        CursorState::Match(n) => match attr {
                            AttrPlan::None => {
                                if let Some(content) = buf.text_content(n) {
                                    out.text(content)?;
                                } else {
                                    // An element is emitted from the moment
                                    // it is matched: what has arrived now,
                                    // the rest as it streams in.
                                    self.tasks.push(Task::OutputLoop { attr, role });
                                    self.tasks.push(Task::Emit { node: n, role });
                                    break;
                                }
                            }
                            // `buf` and `out` are distinct, so attribute
                            // values stream straight from the buffer to the
                            // writer without copies.
                            AttrPlan::Name(name) => {
                                if let Some(v) = buf.attr(n, name) {
                                    out.text(v)?;
                                }
                            }
                            AttrPlan::Any => {
                                for (_, v) in buf.attrs(n).iter() {
                                    out.text(v)?;
                                }
                            }
                        },
                        CursorState::NeedInput(blocked) => {
                            self.tasks.push(Task::OutputLoop { attr, role });
                            return self.need_input(Wait::Sibling(blocked), buf);
                        }
                        CursorState::Done => {
                            self.close_cursor(buf);
                            break;
                        }
                    }
                },
                Task::Emit { node, role } => {
                    if let Some(wait) = self.emit(node, role, buf, symbols, out)? {
                        return self.need_input(wait, buf);
                    }
                }
                Task::Cond(id) => self.exec_cond(id, buf)?,
                Task::NotFinish => {
                    let b = self.bools.pop().expect("not() operand");
                    self.bools.push(!b);
                }
                Task::AndRhs(rhs) => {
                    let lhs = self.bools.pop().expect("and lhs");
                    if lhs {
                        self.tasks.push(Task::Cond(rhs));
                    } else {
                        self.bools.push(false);
                    }
                }
                Task::OrRhs(rhs) => {
                    let lhs = self.bools.pop().expect("or lhs");
                    if lhs {
                        self.bools.push(true);
                    } else {
                        self.tasks.push(Task::Cond(rhs));
                    }
                }
                Task::ExistsLoop(attr) => loop {
                    let cursor = self.cursors.last_mut().expect("exists cursor");
                    match cursor.advance(buf, self.program.steps()) {
                        CursorState::Match(n) => {
                            // `exists($x/p)`: block until the first witness
                            // appears or the search region is exhausted —
                            // the paper's "until the data is available in
                            // the buffer or it has become evident that the
                            // data does not exist".
                            let witness = match attr {
                                AttrPlan::None => true,
                                AttrPlan::Any => !buf.attrs(n).is_empty(),
                                AttrPlan::Name(a) => buf.attr(n, a).is_some(),
                            };
                            if witness {
                                self.bools.push(true);
                                self.close_cursor(buf);
                                break;
                            }
                        }
                        CursorState::NeedInput(blocked) => {
                            self.tasks.push(Task::ExistsLoop(attr));
                            return self.need_input(Wait::Sibling(blocked), buf);
                        }
                        CursorState::Done => {
                            self.bools.push(false);
                            self.close_cursor(buf);
                            break;
                        }
                    }
                },
                Task::CompareFinish(op) => {
                    let rhs = self.vals.pop().expect("compare rhs");
                    let lhs = self.vals.pop().expect("compare lhs");
                    self.bools.push(compare_existential(op, &lhs, &rhs));
                    self.recycle_values(lhs);
                    self.recycle_values(rhs);
                }
                Task::StringFnFinish(func) => {
                    let needle = self.vals.pop().expect("string-fn needle");
                    let hay = self.vals.pop().expect("string-fn haystack");
                    let result = hay
                        .iter()
                        .any(|hv| needle.iter().any(|nv| func.apply(hv.text, nv.text)));
                    self.bools.push(result);
                    self.recycle_values(hay);
                    self.recycle_values(needle);
                }
                Task::Operand(op) => match self.program.operand(op) {
                    OperandIr::Lit { text, num } => {
                        let mut v = self.pooled_values();
                        v.push_parsed(self.program.str_(text), num);
                        self.vals.push(v);
                    }
                    OperandIr::Path { path, release } => {
                        let v = self.pooled_values();
                        self.vals.push(v);
                        self.collect(path, Sink::Values, release, buf)?;
                    }
                },
                Task::CollectLoop {
                    attr,
                    sink,
                    release,
                } => loop {
                    let cursor = self.cursors.last_mut().expect("collect cursor");
                    match cursor.advance(buf, self.program.steps()) {
                        CursorState::Match(n) => {
                            match attr {
                                AttrPlan::Name(a) => {
                                    if let Some(v) = buf.attr(n, a) {
                                        self.collect_text(sink, v);
                                    }
                                }
                                AttrPlan::Any => {
                                    for (_, v) in buf.attrs(n).iter() {
                                        self.collect_text(sink, v);
                                    }
                                }
                                AttrPlan::None if buf.is_text(n) => {
                                    self.collect_string_value(n, buf, sink)
                                }
                                AttrPlan::None => {
                                    // Blocking atomization: the subtree's
                                    // string value needs its end tag. A
                                    // count waits as long, so that it
                                    // blocks exactly where the value would.
                                    self.tasks.push(Task::CollectLoop {
                                        attr,
                                        sink,
                                        release,
                                    });
                                    self.tasks.push(Task::CollectClosed {
                                        node: n,
                                        sink,
                                        release,
                                    });
                                    break;
                                }
                            }
                            if let Some(role) = release {
                                let subtree = attr == AttrPlan::None && sink != Sink::Count;
                                self.release(n, role, subtree, buf);
                            }
                        }
                        CursorState::NeedInput(blocked) => {
                            self.tasks.push(Task::CollectLoop {
                                attr,
                                sink,
                                release,
                            });
                            return self.need_input(Wait::Sibling(blocked), buf);
                        }
                        CursorState::Done => {
                            self.close_cursor(buf);
                            break;
                        }
                    }
                },
                Task::CollectClosed {
                    node,
                    sink,
                    release,
                } => {
                    if !buf.is_closed(node) {
                        self.tasks.push(Task::CollectClosed {
                            node,
                            sink,
                            release,
                        });
                        return self.need_input(Wait::Region { node, want: None }, buf);
                    }
                    self.collect_string_value(node, buf, sink);
                    if let Some(role) = release {
                        self.release(node, role, sink != Sink::Count, buf);
                    }
                }
                Task::AggFinish(func) => {
                    if let Some(t) = self.fold.finish(func) {
                        out.text(&t)?;
                    }
                }
                Task::WaitRegion { node, want } => {
                    if !buf.region_over(node, want) {
                        self.tasks.push(Task::WaitRegion { node, want });
                        return self.need_input(Wait::Region { node, want }, buf);
                    }
                    if !buf.is_closed(node) {
                        // Earliest purge: the cutoff proves the signOff
                        // region complete while `node` is still open.
                        buf.schema_count_early_signoff();
                    }
                }
                Task::SignoffExec {
                    path,
                    role,
                    ctx,
                    mult,
                } => {
                    // Attribute steps never appear in signOff targets
                    // (analysis strips them when deriving role paths), so
                    // the plan's element steps are the whole target.
                    let steps = self.program.path_steps(self.program.path(path));
                    // Collect first, then decrement: decrements purge
                    // eagerly and would invalidate a live walk. The vector
                    // is reused across signOffs (one per preemption point
                    // per binding — allocation at binding rate otherwise).
                    let mut matches = std::mem::take(&mut self.signoff_scratch);
                    matches.clear();
                    collect_derivations(buf, ctx, steps, 0, mult, &mut matches);
                    // A second descendant(-or-self) step reaches a node
                    // once below each ancestor the first one matched: each
                    // derivation holds an instance, so the node holds until
                    // its last one is taken, and is released once.
                    for &(node, times) in &matches {
                        buf.decrement_role(node, role, times);
                    }
                    self.signoff_scratch = matches;
                }
                // ---- hash-join frames --------------------------------
                // The build pass mirrors the original nested loop frame
                // for frame (same cursor, same lhs-then-rhs operand
                // order, same then/skip branching), so its blocking
                // order, output and signoff-free GC behavior are
                // bit-identical to the unoptimized program — it just
                // additionally tees key values into the index.
                Task::JoinBuildLoop { slot } => {
                    let plan = self.program.join(slot);
                    let cursor = self.cursors.last_mut().expect("join build cursor");
                    match cursor.advance(buf, self.program.steps()) {
                        CursorState::Match(n) => {
                            let mult = buf.role_count(n, plan.role).max(1);
                            self.env[plan.var.index()] = Some(Binding { node: n, mult });
                            let js = &mut self.joins[slot as usize];
                            let entry = js.entries.len() as u32;
                            js.entries.push(n);
                            self.tasks.push(Task::JoinBuildLoop { slot });
                            self.tasks.push(Task::JoinBuildFinish { slot, entry });
                            self.tasks.push(Task::Operand(plan.rhs));
                            self.tasks.push(Task::Operand(plan.lhs));
                        }
                        CursorState::NeedInput(blocked) => {
                            self.tasks.push(Task::JoinBuildLoop { slot });
                            return self.need_input(Wait::Sibling(blocked), buf);
                        }
                        CursorState::Done => {
                            // The cursor is exhausted, so the scanned
                            // region is closed: the index is complete and
                            // final for the rest of the run.
                            self.env[plan.var.index()] = None;
                            self.close_cursor(buf);
                            self.joins[slot as usize].phase = JoinPhase::Built;
                        }
                    }
                }
                Task::JoinBuildFinish { slot, entry } => {
                    let plan = self.program.join(slot);
                    let rhs = self.vals.pop().expect("join build rhs");
                    let lhs = self.vals.pop().expect("join build lhs");
                    {
                        let js = &mut self.joins[slot as usize];
                        let keys = if plan.key_is_lhs { &lhs } else { &rhs };
                        for kv in keys.iter() {
                            if let Some(k) = kv.num {
                                if !k.is_nan() {
                                    let head = js.nums.head_mut(&canon_bits(k).to_le_bytes());
                                    post(&mut js.postings, head, entry, true);
                                }
                            }
                            let head = js.texts.head_mut(kv.text.as_bytes());
                            post(&mut js.postings, head, entry, kv.num.is_some());
                        }
                    }
                    // `= probe` with a `Nop` else-branch (an optimizer
                    // gate), so skipping the bool/IfBranch round-trip on
                    // a miss is behavior-identical.
                    if compare_existential(CmpOp::Eq, &lhs, &rhs) {
                        self.tasks.push(Task::Exec(plan.then_branch));
                    }
                    self.recycle_values(lhs);
                    self.recycle_values(rhs);
                }
                Task::JoinProbe { slot } => {
                    let probe = self.vals.pop().expect("join probe operand");
                    let plan = self.program.join(slot);
                    let (stale, any) = {
                        let js = &mut self.joins[slot as usize];
                        js.cands.clear();
                        for pv in probe.iter() {
                            if let Some(a) = pv.num {
                                // Numeric probe: numeric-equal keys, plus
                                // string-equal non-numeric keys (the
                                // existential compare's mixed-pair rule).
                                if let Some(head) = js.nums.get(&canon_bits(a).to_le_bytes()) {
                                    js.cands.extend(
                                        key_postings(&js.postings, head).map(Posting::entry),
                                    );
                                }
                                if let Some(head) = js.texts.get(pv.text.as_bytes()) {
                                    js.cands.extend(
                                        key_postings(&js.postings, head)
                                            .filter(|p| !p.numeric())
                                            .map(Posting::entry),
                                    );
                                }
                            } else if let Some(head) = js.texts.get(pv.text.as_bytes()) {
                                js.cands
                                    .extend(key_postings(&js.postings, head).map(Posting::entry));
                            }
                        }
                        // Sorted entry indices = build order = document
                        // order, so the probe iterates candidates exactly
                        // as the original scan would have reached them.
                        js.cands.sort_unstable();
                        js.cands.dedup();
                        let stale = js
                            .cands
                            .iter()
                            .any(|&e| !buf.is_live(js.entries[e as usize]));
                        (stale, !js.cands.is_empty())
                    };
                    self.recycle_values(probe);
                    if stale {
                        // A candidate was garbage-collected since the
                        // build. Re-run the preserved original loop —
                        // its scan of the (closed) region is exact.
                        self.tasks.push(Task::Exec(plan.fallback));
                    } else if any {
                        self.tasks.push(Task::JoinProbeLoop { slot, pos: 0 });
                    } else {
                        self.env[plan.var.index()] = None;
                    }
                }
                Task::JoinProbeLoop { slot, pos } => {
                    let plan = self.program.join(slot);
                    let js = &self.joins[slot as usize];
                    if let Some(&e) = js.cands.get(pos as usize) {
                        let n = js.entries[e as usize];
                        // Re-read the role count at this program point —
                        // exactly what the original loop's binding would
                        // observe here.
                        let mult = buf.role_count(n, plan.role).max(1);
                        self.env[plan.var.index()] = Some(Binding { node: n, mult });
                        self.tasks.push(Task::JoinProbeLoop { slot, pos: pos + 1 });
                        self.tasks.push(Task::Exec(plan.then_branch));
                    } else {
                        self.env[plan.var.index()] = None;
                    }
                }
            }
        }
        Ok(StepOutcome::Continue)
    }

    /// Dispatch one instruction: emit immediately when possible, otherwise
    /// schedule continuation frames.
    fn exec_instr<W: Write>(
        &mut self,
        id: InstrId,
        buf: &mut BufferTree,
        out: &mut XmlWriter<W>,
    ) -> Result<(), EngineError> {
        match self.program.instr(id) {
            Instr::Nop => {}
            Instr::Seq { first, len } => self.tasks.push(Task::Seq { first, len, idx: 0 }),
            Instr::Text(s) => out.text(self.program.str_(s))?,
            Instr::Element {
                name,
                attrs_first,
                attrs_len,
                content,
            } => {
                out.start_element(self.program.str_(name))?;
                for i in 0..attrs_len {
                    let (k, v) = self.program.attr_pairs(attrs_first, attrs_len)[i as usize];
                    out.attribute(self.program.str_(k), self.program.str_(v))?;
                }
                self.tasks.push(Task::EndElement);
                self.tasks.push(Task::Exec(content));
            }
            Instr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.tasks.push(Task::IfBranch {
                    then_branch,
                    else_branch,
                });
                self.tasks.push(Task::Cond(cond));
            }
            Instr::For {
                var,
                path,
                role,
                body,
            } => {
                self.open_cursor(path, buf)?;
                self.tasks.push(Task::ForLoop { var, role, body });
            }
            Instr::OutputPath { path, role } => {
                let attr = self.program.path(path).attr;
                self.open_cursor(path, buf)?;
                self.tasks.push(Task::OutputLoop { attr, role });
            }
            Instr::Aggregate {
                func,
                path,
                release,
            } => {
                self.tasks.push(Task::AggFinish(func));
                // `count()` needs how many values, not what they are:
                // atomizing nested matches would copy their text once per
                // enclosing match.
                let sink = if func == AggFunc::Count {
                    Sink::Count
                } else {
                    Sink::Fold
                };
                self.collect(path, sink, release, buf)?;
            }
            Instr::HashJoin(j) => {
                let plan = self.program.join(j);
                match self.joins[j as usize].phase {
                    // First execution: run the original loop, teeing key
                    // values into the index as it goes.
                    JoinPhase::Empty => {
                        self.joins[j as usize].phase = JoinPhase::Building;
                        self.open_cursor(plan.path, buf)?;
                        self.tasks.push(Task::JoinBuildLoop { slot: j });
                    }
                    JoinPhase::Built => {
                        if self.joins[j as usize].entries.is_empty() {
                            // The build scanned the (now closed) region and
                            // matched nothing; the original would iterate
                            // zero times and evaluate nothing at all.
                            self.env[plan.var.index()] = None;
                        } else {
                            self.tasks.push(Task::JoinProbe { slot: j });
                            self.tasks.push(Task::Operand(plan.probe()));
                        }
                    }
                    // Re-entered while its own build is suspended on the
                    // stack — impossible for sequentially nested loops,
                    // but divert to the preserved original rather than
                    // corrupt the index.
                    JoinPhase::Building => self.tasks.push(Task::Exec(plan.fallback)),
                }
            }
            Instr::SignOff { path, role } => {
                if self.gc {
                    // "These commands must not be issued too early" (paper
                    // §3): a signOff over a non-empty path decrements role
                    // instances on a whole region, so that region must have
                    // finished streaming — otherwise nodes arriving later
                    // keep instances nobody will ever remove. For a
                    // variable anchor the region is the binding's subtree
                    // (wait for its end tag); loop bodies that never block
                    // (e.g. attribute-only conditions) finish while the
                    // binding is still open, so this wait is load-bearing.
                    // For a query-end anchor the region is the whole
                    // document (evaluation may have short-circuited): the
                    // virtual root has no name, so no cutoff ends it before
                    // the end of input. A signOff of the anchor node itself
                    // (empty path) is always safe: roles are assigned at
                    // node creation.
                    let plan = self.program.path(path);
                    let (ctx, mult) = self.resolve_root(plan.root)?;
                    self.tasks.push(Task::SignoffExec {
                        path,
                        role,
                        ctx,
                        mult,
                    });
                    if plan.has_steps() {
                        // A target whose first step is `child::name`
                        // selects only nodes inside `name`-children of the
                        // binding: once a sibling-order cutoff proves that
                        // name exhausted, those subtrees are all closed
                        // (the cutoff's witness is a *later* sibling, which
                        // follows their end tags). Descendant-first targets
                        // wait for the end tag.
                        let want = match self.program.path_steps(plan).first() {
                            Some(&EvalStep {
                                axis: EAxis::Child,
                                test: ETest::Name(w),
                                ..
                            }) => Some(w),
                            _ => None,
                        };
                        self.tasks.push(Task::WaitRegion { node: ctx, want });
                    }
                }
            }
        }
        Ok(())
    }

    /// The one emission routine: write `node`'s subtree, returning what to
    /// wait for if it is not all written yet. A closed node is serialized
    /// from the buffer. Of an open one, what has arrived is written at
    /// once — start tags and attributes of the open path, closed children
    /// whole — and the rest is handed to the lane as a [`Frontier`]: the
    /// machine then only waits for the end tag, which the lane writes
    /// too. Without write-through (the baseline modes, or a copy that is
    /// not the last reader of its role's instances: `role` is `None`) an
    /// open node is waited for and serialized whole.
    fn emit<W: Write>(
        &mut self,
        node: NodeId,
        role: Option<RoleId>,
        buf: &BufferTree,
        symbols: &SymbolTable,
        out: &mut XmlWriter<W>,
    ) -> Result<Option<Wait>, EngineError> {
        if buf.is_closed(node) {
            buf.serialize(node, symbols, out)?;
            return Ok(None);
        }
        // (The virtual root has no end tag for the lane to see: `/` is
        // serialized at the end of input, as before.)
        match role {
            Some(role) if self.gc && node != NodeId::ROOT => {
                buf.serialize(node, symbols, out)?;
                self.frontier = Some(Frontier { node, role });
                self.tasks.push(Task::WaitRegion { node, want: None });
            }
            _ => self.tasks.push(Task::Emit { node, role }),
        }
        Ok(Some(Wait::Region { node, want: None }))
    }

    /// Dispatch one condition node onto the stacks.
    fn exec_cond(&mut self, id: CondId, buf: &mut BufferTree) -> Result<(), EngineError> {
        match self.program.cond(id) {
            CondIr::Const(b) => self.bools.push(b),
            CondIr::Not(inner) => {
                self.tasks.push(Task::NotFinish);
                self.tasks.push(Task::Cond(inner));
            }
            CondIr::And(a, b) => {
                self.tasks.push(Task::AndRhs(b));
                self.tasks.push(Task::Cond(a));
            }
            CondIr::Or(a, b) => {
                self.tasks.push(Task::OrRhs(b));
                self.tasks.push(Task::Cond(a));
            }
            CondIr::Exists(p) => {
                let attr = self.program.path(p).attr;
                self.open_cursor(p, buf)?;
                self.tasks.push(Task::ExistsLoop(attr));
            }
            CondIr::Compare { op, lhs, rhs } => {
                // Operands are scheduled so `lhs` is fully collected before
                // `rhs` starts — the same left-to-right blocking order as
                // the paper's sequential evaluator.
                self.tasks.push(Task::CompareFinish(op));
                self.tasks.push(Task::Operand(rhs));
                self.tasks.push(Task::Operand(lhs));
            }
            CondIr::StringFn {
                func,
                haystack,
                needle,
            } => {
                self.tasks.push(Task::StringFnFinish(func));
                self.tasks.push(Task::Operand(needle));
                self.tasks.push(Task::Operand(haystack));
            }
        }
        Ok(())
    }

    /// Open a collect loop over `path` into `sink`. Its release role is
    /// dropped unless signOffs execute: the baselines keep every role.
    fn collect(
        &mut self,
        path: PathId,
        sink: Sink,
        release: Option<RoleId>,
        buf: &mut BufferTree,
    ) -> Result<(), EngineError> {
        let attr = self.program.path(path).attr;
        self.open_cursor(path, buf)?;
        self.tasks.push(Task::CollectLoop {
            attr,
            sink,
            release: release.filter(|_| self.gc),
        });
        Ok(())
    }

    /// Collect one attribute value.
    fn collect_text(&mut self, sink: Sink, text: &str) {
        match sink {
            Sink::Values => self.top_values().push(text),
            Sink::Count => self.fold.add(None),
            Sink::Fold => self.fold.add(text.trim().parse().ok()),
        }
    }

    /// Collect `n`'s string value (a count only counts it).
    fn collect_string_value(&mut self, n: NodeId, buf: &BufferTree, sink: Sink) {
        match sink {
            Sink::Values => {
                let values = self.top_values();
                buf.string_value(n, &mut values.arena);
                values.close_value();
            }
            Sink::Count => self.fold.add(None),
            Sink::Fold => {
                let mut text = std::mem::take(&mut self.fold.scratch);
                text.clear();
                buf.string_value(n, &mut text);
                self.fold.add(text.trim().parse().ok());
                self.fold.scratch = text;
            }
        }
    }

    /// A value use that runs at most once has consumed match `n`: remove
    /// the instances of its role that this match put there — on `n`, and
    /// on `n`'s subtree when its value was read from it — so that the
    /// buffer drops the match now rather than at the query-end signOff.
    /// An enclosing match was consumed earlier and took its share of `n`'s
    /// instances then, so the ones left on `n` are the share of `n`'s own
    /// derivations; a nested match, still to come, keeps its own.
    fn release(&mut self, n: NodeId, role: RoleId, subtree: bool, buf: &mut BufferTree) {
        let times = buf.role_count(n, role);
        if !subtree {
            buf.decrement_role(n, role, times);
            return;
        }
        // Collect first, then decrement, as a signOff does.
        let mut region = std::mem::take(&mut self.signoff_scratch);
        region.clear();
        collect_derivations(buf, n, &SUBTREE, 0, times, &mut region);
        for &(node, times) in &region {
            buf.decrement_role(node, role, times);
        }
        self.signoff_scratch = region;
    }
}

/// Walk the buffered subtree for derivations of `steps[i..]` from `node`,
/// pushing `(match, mult)` per derivation in the order the walk reaches
/// them — document order, except that a descendant step followed by
/// further steps finishes each of its matches before descending further.
fn collect_derivations(
    buf: &BufferTree,
    node: NodeId,
    steps: &[EvalStep],
    i: usize,
    mult: u32,
    out: &mut Vec<(NodeId, u32)>,
) {
    if i == steps.len() {
        out.push((node, mult));
        return;
    }
    let step = steps[i];
    match step.axis {
        EAxis::Child => {
            let mut child = buf.first_child(node);
            while let Some(c) = child {
                if passes(step.test, buf, c) {
                    match step.pos {
                        Some(k) if pred_ordinal(step.test, buf, c) != k => {}
                        _ => collect_derivations(buf, c, steps, i + 1, mult, out),
                    }
                }
                child = buf.next_sibling(c);
            }
        }
        EAxis::Descendant => {
            let mut child = buf.first_child(node);
            while let Some(c) = child {
                collect_dos(buf, c, steps, i, mult, out);
                child = buf.next_sibling(c);
            }
        }
        EAxis::DescendantOrSelf => collect_dos(buf, node, steps, i, mult, out),
        EAxis::SelfAxis => {
            if passes(step.test, buf, node) {
                collect_derivations(buf, node, steps, i + 1, mult, out);
            }
        }
    }
}

/// Descendant-or-self helper: self match, then every descendant at the
/// same step. Iterative over the subtree — signOff targets routinely carry
/// a trailing `descendant-or-self::node()`, so this walk sees the full
/// document depth and must not recurse per level.
fn collect_dos(
    buf: &BufferTree,
    node: NodeId,
    steps: &[EvalStep],
    i: usize,
    mult: u32,
    out: &mut Vec<(NodeId, u32)>,
) {
    let step = steps[i];
    let mut cur = Some(node);
    while let Some(n) = cur {
        if passes(step.test, buf, n) {
            // Remaining steps are bounded by the (small) path length, so
            // this recursion is safe; only the subtree walk is iterative.
            collect_derivations(buf, n, steps, i + 1, mult, out);
        }
        cur = match buf.first_child(n) {
            Some(c) => Some(c),
            None => {
                // Ascend to the next sibling, stopping at the walk root.
                let mut m = n;
                loop {
                    if m == node {
                        break None;
                    }
                    if let Some(s) = buf.next_sibling(m) {
                        break Some(s);
                    }
                    m = buf.parent(m).expect("walk escaped the subtree");
                }
            }
        };
    }
}

/// An atomized value: string plus pre-parsed numeric form.
#[derive(Debug, Clone, Copy)]
struct Value<'a> {
    text: &'a str,
    num: Option<f64>,
}

/// An operand's atomized values, their strings back-to-back in one arena:
/// recycled, it keeps the capacity of both, and what it keeps is bounded
/// by the largest single operand, not by the number of values.
#[derive(Debug, Default)]
struct Values {
    arena: String,
    /// Per value: where its string ends in `arena` (it starts where the
    /// one before ends) and its numeric form.
    items: Vec<(usize, Option<f64>)>,
}

impl Values {
    fn clear(&mut self) {
        self.arena.clear();
        self.items.clear();
    }

    fn push(&mut self, text: &str) {
        self.arena.push_str(text);
        self.close_value();
    }

    /// [`Values::push`] of a string whose numeric form is known.
    fn push_parsed(&mut self, text: &str, num: Option<f64>) {
        self.arena.push_str(text);
        self.items.push((self.arena.len(), num));
    }

    /// What was appended to `arena` since the last value is the next one.
    fn close_value(&mut self) {
        let start = self.items.last().map_or(0, |&(end, _)| end);
        let num = self.arena[start..].trim().parse::<f64>().ok();
        self.items.push((self.arena.len(), num));
    }

    fn iter(&self) -> impl Iterator<Item = Value<'_>> {
        let mut start = 0;
        self.items.iter().map(move |&(end, num)| {
            let text = &self.arena[start..end];
            start = end;
            Value { text, num }
        })
    }
}

/// General comparison with existential semantics: true iff some pair of
/// values satisfies the operator. Numeric comparison when both sides are
/// numeric, string comparison otherwise.
fn compare_existential(op: CmpOp, lhs: &Values, rhs: &Values) -> bool {
    lhs.iter().any(|l| {
        rhs.iter().any(|r| match (l.num, r.num) {
            (Some(a), Some(b)) => cmp_ord(op, a.partial_cmp(&b)),
            _ => cmp_ord(op, Some(l.text.cmp(r.text))),
        })
    })
}

fn cmp_ord(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    let Some(ord) = ord else { return false };
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(texts: &[&str]) -> Values {
        let mut values = Values::default();
        for text in texts {
            values.push(text);
        }
        values
    }

    #[test]
    fn numeric_comparison_when_both_numeric() {
        assert!(compare_existential(CmpOp::Lt, &v(&["9"]), &v(&["10"])));
        // String comparison would say "9" > "10".
        assert!(!compare_existential(CmpOp::Gt, &v(&["9"]), &v(&["10"])));
    }

    #[test]
    fn string_comparison_otherwise() {
        assert!(compare_existential(CmpOp::Eq, &v(&["abc"]), &v(&["abc"])));
        assert!(compare_existential(CmpOp::Lt, &v(&["abc"]), &v(&["abd"])));
        assert!(!compare_existential(CmpOp::Eq, &v(&["abc"]), &v(&["ABC"])));
    }

    #[test]
    fn existential_over_sequences() {
        let lhs = v(&["1", "5", "9"]);
        let rhs = v(&["5"]);
        assert!(compare_existential(CmpOp::Eq, &lhs, &rhs));
        assert!(compare_existential(CmpOp::Gt, &lhs, &rhs));
        assert!(compare_existential(CmpOp::Lt, &lhs, &rhs));
        assert!(
            !compare_existential(CmpOp::Eq, &v(&[]), &rhs),
            "empty sequence matches nothing"
        );
    }

    #[test]
    fn a_key_table_finds_every_key_through_its_growth() {
        let mut table = KeyTable::default();
        let long = "x".repeat(200);
        let mut keys: Vec<String> = (0..3000).map(|i| format!("k{i}")).collect();
        keys.extend(["", "ключ", long.as_str()].map(String::from));
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(*table.head_mut(key.as_bytes()), NO_POSTING, "{key}");
            *table.head_mut(key.as_bytes()) = i as u32;
        }
        assert_eq!(table.len, keys.len());
        // At most 7/8 full, and each key once behind its length: one byte,
        // two for the 200-byte key.
        assert_eq!(table.slots.len(), 4096);
        let text: usize = keys.iter().map(String::len).sum();
        assert_eq!(table.arena.len(), text + keys.len() + 1);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(table.get(key.as_bytes()), Some(i as u32), "{key}");
        }
        assert_eq!(table.get(b"k3000"), None);
        assert_eq!(table.get(&long.as_bytes()[1..]), None);
        assert_eq!(KeyTable::default().get(b""), None);
    }

    #[test]
    fn a_posting_keeps_its_numeric_flag_beside_its_entry() {
        let (mut postings, mut head) = (Vec::new(), NO_POSTING);
        post(&mut postings, &mut head, 7, true);
        post(&mut postings, &mut head, NUMERIC - 1, false);
        let seen: Vec<_> = key_postings(&postings, head)
            .map(|p| (p.entry(), p.numeric()))
            .collect();
        assert_eq!(seen, [(NUMERIC - 1, false), (7, true)]);
        assert_eq!(std::mem::size_of::<Posting>(), 8);
    }

    #[test]
    fn value_parses_numbers_with_whitespace() {
        let values = v(&[" 42 ", "x42", ""]);
        let seen: Vec<_> = values.iter().map(|v| (v.text, v.num)).collect();
        assert_eq!(seen, [(" 42 ", Some(42.0)), ("x42", None), ("", None)]);
    }
}

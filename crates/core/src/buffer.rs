//! The GCX buffer: an arena-backed XML fragment tree with role bookkeeping,
//! evaluator pins, and **active garbage collection**.
//!
//! Every buffered node carries a multiset of role instances (the paper's
//! `book{r3, r5, r6}` annotations). Two aggregated counters per node make
//! garbage collection cheap:
//!
//! * `subtree_roles` — total role instances in the node's subtree;
//! * `subtree_pins` — evaluator references (loop bindings, cursor stacks)
//!   in the subtree.
//!
//! **Purge rule** (paper §2): a node is reclaimed as soon as it is closed
//! (its end tag has been read), its subtree holds zero role instances, and
//! the evaluator holds no pin inside it. Purges cascade upward so the
//! highest fully-dead ancestor is freed in one pass. Purge attempts are
//! triggered by exactly three events: a role decrement (signOff), a node
//! closing (reclaims a subtree whose roles were all signed off before its
//! end tag — or that never had one, where the driver buffers without
//! projection), and an unpin.
//!
//! Reclaimed slots go on a free list and are reused; `NodeId`s carry a
//! generation so stale ids are caught in debug builds.

use crate::error::EngineError;
use crate::obs::RoleObs;
use gcx_obs::Hist;
use gcx_query::ast::RoleId;
use gcx_xml::{Symbol, SymbolTable, XmlResult, XmlWriter};
use std::sync::Arc;

/// Handle to a buffered node. Carries a generation to detect stale use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    idx: u32,
    gen: u32,
}

impl NodeId {
    /// The virtual document root (always live).
    pub const ROOT: NodeId = NodeId { idx: 0, gen: 0 };
}

const NIL: u32 = u32::MAX;

/// Document-order ordinals of a node among its siblings, stamped by the
/// preprojector from the *original* document — projection may drop earlier
/// siblings from the buffer, so buffer positions cannot be used to evaluate
/// positional predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ordinals {
    /// 1-based position among siblings with the same name (elements) or
    /// among text siblings (text nodes).
    pub same_kind: u32,
    /// 1-based position among element siblings.
    pub elem: u32,
    /// 1-based position among all siblings.
    pub any: u32,
}

impl Ordinals {
    /// Ordinals for a first/only child (used by tests and the DOM shim).
    pub const FIRST: Ordinals = Ordinals {
        same_kind: 1,
        elem: 1,
        any: 1,
    };
}

/// Attribute storage for one element: interned names plus one value arena.
///
/// All of an element's attribute values share a single string, so a node
/// costs at most three heap blocks for attributes however many it has — and
/// those blocks are **recycled** through the buffer's pools when the node is
/// purged, making the steady-state append/purge cycle allocation-free.
#[derive(Debug, Default)]
pub struct AttrBuf {
    /// Interned attribute names, in document order.
    syms: Vec<Symbol>,
    /// End offset of the i-th value in `text` (start = previous end).
    ends: Vec<u32>,
    /// All values, concatenated.
    text: String,
}

/// The shared empty attribute list returned for text nodes.
static EMPTY_ATTRS: AttrBuf = AttrBuf {
    syms: Vec::new(),
    ends: Vec::new(),
    text: String::new(),
};

impl AttrBuf {
    /// Fresh, empty storage.
    pub fn new() -> AttrBuf {
        AttrBuf::default()
    }

    /// Remove all attributes, keeping capacity.
    pub fn clear(&mut self) {
        self.syms.clear();
        self.ends.clear();
        self.text.clear();
    }

    /// Append an attribute (document order).
    pub fn push(&mut self, name: Symbol, value: &str) {
        self.syms.push(name);
        self.text.push_str(value);
        self.ends.push(self.text.len() as u32);
    }

    /// Drop every attribute from the `len`-th on, keeping capacity: the
    /// storage used as a stack (the lane's pending chain).
    pub fn truncate(&mut self, len: usize) {
        self.syms.truncate(len);
        self.ends.truncate(len);
        self.text
            .truncate(self.ends.last().map_or(0, |&end| end as usize));
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// The `i`-th attribute as `(name, value)`.
    pub fn get(&self, i: usize) -> Option<(Symbol, &str)> {
        let sym = *self.syms.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some((sym, &self.text[start..self.ends[i] as usize]))
    }

    /// Iterate `(name, value)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// What these attributes add to a node's budgeted size
    /// (`node_bytes`): per-attribute bookkeeping plus the value text.
    fn payload_bytes(&self) -> u64 {
        /// Per-attribute bookkeeping cost (interned name + value end offset).
        const ATTR_OVERHEAD: u64 = 8;
        self.syms.len() as u64 * ATTR_OVERHEAD + self.text.len() as u64
    }

    /// Value of the attribute named `name`, if present.
    pub fn value_of(&self, name: Symbol) -> Option<&str> {
        let i = self.syms.iter().position(|&s| s == name)?;
        Some(self.get(i).expect("index in range").1)
    }
}

/// Element payload or text payload.
#[derive(Debug)]
pub enum NodeKind {
    /// An element: interned tag plus attributes.
    Element {
        /// Interned tag name.
        name: Symbol,
        /// Attributes in document order (pooled storage).
        attrs: AttrBuf,
    },
    /// A text node.
    Text {
        /// Character data (entities already resolved; pooled storage).
        content: String,
    },
}

#[derive(Debug)]
struct Node {
    parent: u32,
    first_child: u32,
    last_child: u32,
    prev_sibling: u32,
    next_sibling: u32,
    kind: NodeKind,
    ordinals: Ordinals,
    /// End tag seen (text nodes are born closed).
    closed: bool,
    /// Role instances: (role, count), kept sorted by role.
    roles: Vec<(RoleId, u32)>,
    /// Total role instances in this subtree (including self).
    subtree_roles: u64,
    /// Evaluator pins on this node.
    pins: u32,
    /// Total pins in this subtree (including self).
    subtree_pins: u64,
    gen: u32,
    in_use: bool,
}

impl Node {
    fn own_roles(&self) -> u64 {
        self.roles.iter().map(|&(_, c)| c as u64).sum()
    }
}

/// Buffer statistics maintained incrementally.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferStats {
    /// Nodes currently buffered (excluding the virtual root).
    pub live: u64,
    /// High watermark of `live`.
    pub peak_live: u64,
    /// Total nodes ever buffered.
    pub allocated: u64,
    /// Total nodes reclaimed by active garbage collection.
    pub purged: u64,
    /// Estimated bytes currently buffered (see the internal `node_bytes` accounting).
    pub live_bytes: u64,
    /// High watermark of `live_bytes`.
    pub peak_live_bytes: u64,
}

impl BufferStats {
    /// Machine-readable form (hand-rolled JSON; the workspace has no
    /// serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"live\":{},\"peak_live\":{},\"allocated\":{},\"purged\":{},\
             \"live_bytes\":{},\"peak_live_bytes\":{}}}",
            self.live,
            self.peak_live,
            self.allocated,
            self.purged,
            self.live_bytes,
            self.peak_live_bytes
        )
    }
}

/// Estimated resident cost of one buffered node: the node record itself
/// plus its variable-size payload (text content, or attribute names and
/// values). The estimate is *deterministic* — it counts lengths, not
/// allocator capacities — so the amount charged at append time is exactly
/// the amount credited back at purge time, and byte budgets behave
/// identically across runs. Role multisets are deliberately excluded:
/// `decrement_role` shrinks them mid-life, which would make append-time
/// and purge-time costs disagree.
fn node_bytes(kind: &NodeKind) -> u64 {
    let payload = match kind {
        NodeKind::Element { attrs, .. } => attrs.payload_bytes(),
        NodeKind::Text { content } => content.len() as u64,
    };
    std::mem::size_of::<Node>() as u64 + payload
}

/// What `elements` open elements whose attributes are all in `attrs` would
/// cost as buffered nodes: the charge for a lane's pending chain, so that
/// waiting outside the buffer is no way around the byte budget.
pub(crate) fn unbuffered_bytes(elements: usize, attrs: &AttrBuf) -> u64 {
    elements as u64 * std::mem::size_of::<Node>() as u64 + attrs.payload_bytes()
}

/// Per-role lifecycle counters (telemetry only).
#[derive(Debug, Default, Clone)]
struct RoleCell {
    appends: u64,
    signoffs: u64,
    purge_triggers: u64,
    live: u64,
    max_live: u64,
}

/// Buffer-lifecycle telemetry, kept **beside** the node arena rather
/// than inside [`Node`]: a birth-token stamp per slot plus fixed-bucket
/// histograms. Keeping `Node`'s layout untouched matters — `node_bytes`
/// includes `size_of::<Node>()`, so a stamp inside the node would shift
/// every byte measurement the equivalence suites pin down.
#[derive(Debug)]
pub(crate) struct BufTelemetry {
    /// Structural-token clock, advanced by [`BufferTree::tick`].
    clock: u64,
    /// Birth token per node slot (parallel to the node arena).
    birth: Vec<u64>,
    pub(crate) residency_tokens: Hist,
    pub(crate) purged_node_bytes: Hist,
    pub(crate) purge_batch: Hist,
    pub(crate) purges_on_signoff: u64,
    pub(crate) purges_on_close: u64,
    pub(crate) purges_on_unpin: u64,
    roles: Vec<RoleCell>,
    pub(crate) timeline: Vec<(u64, u64)>,
    pub(crate) every: u64,
    next_sample: u64,
}

impl BufTelemetry {
    fn role_cell(&mut self, role: RoleId) -> &mut RoleCell {
        let i = role.index();
        if self.roles.len() <= i {
            self.roles.resize(i + 1, RoleCell::default());
        }
        &mut self.roles[i]
    }

    /// Convert into the public per-run report, joining the VM- and
    /// session-side measurements in.
    pub(crate) fn into_report(
        self: Box<BufTelemetry>,
        tasks: Vec<crate::obs::TaskObs>,
        feed_spans: Vec<crate::obs::FeedSpan>,
        tokenizer_window_peak: u64,
    ) -> crate::obs::ObsReport {
        let roles = self.role_obs();
        let t = *self;
        crate::obs::ObsReport {
            residency_tokens: t.residency_tokens,
            purged_node_bytes: t.purged_node_bytes,
            purge_batch: t.purge_batch,
            purges_on_signoff: t.purges_on_signoff,
            purges_on_close: t.purges_on_close,
            purges_on_unpin: t.purges_on_unpin,
            roles,
            live_bytes_timeline: t.timeline,
            timeline_every: t.every,
            tasks,
            feed_spans,
            tokenizer_window_peak,
        }
    }

    /// Per-role counters in role-id order (roles never seen are
    /// omitted).
    pub(crate) fn role_obs(&self) -> Vec<RoleObs> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, c)| c.appends > 0 || c.signoffs > 0)
            .map(|(i, c)| RoleObs {
                role: RoleId(i as u32).to_string(),
                appends: c.appends,
                signoffs: c.signoffs,
                purge_triggers: c.purge_triggers,
                max_live: c.max_live,
            })
            .collect()
    }
}

/// Runtime state of the schema's sibling-order analysis, kept **beside**
/// the node arena like [`BufTelemetry`] so [`Node`]'s layout (and thereby
/// every `node_bytes` measurement) is untouched. Per open element the
/// buffer tracks a *cutoff*: one past the highest content-model ordinal
/// seen among its children so far (0 = none). Where the DTD fixes the
/// sibling order, a child name whose ordinal is below `cutoff - 1` can
/// never arrive again — the engine uses that to end child scans and
/// release signOff waits before the parent's end tag.
#[derive(Debug)]
struct SchemaRt {
    ord: Arc<gcx_schema::OrdTable>,
    /// Cutoff per node slot (parallel to the arena; reset on slot reuse).
    cutoffs: Vec<u32>,
    /// Cursor scans ended early by a cutoff.
    early_scan_ends: u64,
    /// signOff waits released early by a cutoff.
    early_signoffs: u64,
    /// The table was adopted from an in-stream DOCTYPE.
    doctype_adopted: bool,
}

/// The buffer tree. See the module docs for the GC model.
#[derive(Debug)]
pub struct BufferTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    stats: BufferStats,
    /// When false, purging is disabled entirely (full-buffering baseline).
    purge_enabled: bool,
    /// Hard cap on `stats.live_bytes` (None = unlimited). The buffer only
    /// *tracks* bytes; enforcement is a [`BufferTree::check_limit`] call
    /// made by whoever drives the feed, so appends themselves stay
    /// infallible.
    max_bytes: Option<u64>,
    /// Recycled per-node containers. Node *slots* are reused through
    /// `free`; these pools do the same for the heap blocks hanging off a
    /// node (role multiset, attribute storage, text content), so the
    /// steady-state append/purge cycle performs no allocation.
    role_pool: Vec<Vec<(RoleId, u32)>>,
    attr_pool: Vec<AttrBuf>,
    text_pool: Vec<String>,
    /// Reused DFS stack for [`BufferTree::free_subtree`].
    free_scratch: Vec<u32>,
    /// Buffer-lifecycle telemetry, off by default. `Option<Box<_>>` is
    /// null-pointer-optimized, so every disabled-path check is a single
    /// null test — the hot loop's cost when observability is off.
    telemetry: Option<Box<BufTelemetry>>,
    /// Sibling-order cutoffs, installed only when a schema is in effect;
    /// same one-null-test discipline as `telemetry`.
    schema: Option<Box<SchemaRt>>,
}

impl BufferTree {
    /// Create a buffer containing only the (open) virtual document root.
    pub fn new(purge_enabled: bool) -> BufferTree {
        let root = Node {
            parent: NIL,
            first_child: NIL,
            last_child: NIL,
            prev_sibling: NIL,
            next_sibling: NIL,
            kind: NodeKind::Element {
                name: Symbol(u32::MAX),
                attrs: AttrBuf::new(),
            },
            ordinals: Ordinals::FIRST,
            closed: false,
            roles: Vec::new(),
            subtree_roles: 0,
            pins: 0,
            subtree_pins: 0,
            gen: 0,
            in_use: true,
        };
        // Room for what a query that tests and drops its nodes keeps at a
        // time; one that buffers more grows it.
        let mut nodes = Vec::with_capacity(8);
        nodes.push(root);
        BufferTree {
            nodes,
            free: Vec::new(),
            stats: BufferStats::default(),
            purge_enabled,
            max_bytes: None,
            role_pool: Vec::new(),
            attr_pool: Vec::new(),
            text_pool: Vec::new(),
            free_scratch: Vec::new(),
            telemetry: None,
            schema: None,
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Turn on buffer-lifecycle telemetry, sampling the live-bytes
    /// timeline every `sample_every` structural tokens. All storage is
    /// allocated here, before the hot loop starts.
    pub fn enable_telemetry(&mut self, sample_every: u64) {
        self.telemetry = Some(Box::new(BufTelemetry {
            clock: 0,
            birth: Vec::with_capacity(64),
            residency_tokens: Hist::new(gcx_obs::TOKEN_BUCKETS),
            purged_node_bytes: Hist::new(gcx_obs::BYTE_BUCKETS),
            purge_batch: Hist::new(gcx_obs::COUNT_BUCKETS),
            purges_on_signoff: 0,
            purges_on_close: 0,
            purges_on_unpin: 0,
            roles: Vec::new(),
            timeline: Vec::new(),
            every: sample_every.max(1),
            next_sample: 0,
        }));
    }

    /// Advance the telemetry clock to `tokens` (structural tokens fed so
    /// far) and sample the live-bytes timeline on cadence. The clock may
    /// jump — a skipped subtree is charged at once: every sample point it
    /// passes is taken, at the occupancy that held throughout. Disabled
    /// cost: one null check.
    #[inline]
    pub fn tick(&mut self, tokens: u64) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            let mut at = t.next_sample.max(t.clock + 1);
            while at <= tokens {
                t.timeline.push((at, self.stats.live_bytes));
                at = at.saturating_add(t.every);
            }
            t.next_sample = at;
            t.clock = tokens;
        }
    }

    /// Detach the accumulated telemetry (None when never enabled).
    pub(crate) fn take_telemetry(&mut self) -> Option<Box<BufTelemetry>> {
        self.telemetry.take()
    }

    /// Install the schema's sibling-order table. `doctype_adopted` marks
    /// a table picked up from an in-stream DOCTYPE (vs an explicit
    /// engine-option schema); it only affects reporting. Empty tables are
    /// not installed — the hot-path null checks stay null.
    pub fn set_schema(&mut self, ord: Arc<gcx_schema::OrdTable>, doctype_adopted: bool) {
        if ord.is_empty() {
            return;
        }
        self.schema = Some(Box::new(SchemaRt {
            ord,
            cutoffs: Vec::new(),
            early_scan_ends: 0,
            early_signoffs: 0,
            doctype_adopted,
        }));
    }

    /// Is a sibling-order table installed?
    pub fn schema_active(&self) -> bool {
        self.schema.is_some()
    }

    /// `(early_scan_ends, early_signoffs, doctype_adopted)` so far.
    pub fn schema_counters(&self) -> (u64, u64, bool) {
        match self.schema.as_deref() {
            Some(s) => (s.early_scan_ends, s.early_signoffs, s.doctype_adopted),
            None => (0, 0, false),
        }
    }

    /// Note a child element name observed (buffered *or* projected away)
    /// under open element `parent`, advancing the parent's cutoff when the
    /// DTD fixes its child order. Called by the projector on every start
    /// tag at projection depth; one null check when no schema is active.
    #[inline]
    pub fn schema_note_child(&mut self, parent: NodeId, child: Symbol) {
        if self.schema.is_none() || parent == NodeId::ROOT {
            return;
        }
        let pname = match &self.nodes[parent.idx as usize].kind {
            NodeKind::Element { name, .. } => *name,
            NodeKind::Text { .. } => return,
        };
        let cutoff = self.schema_cutoff_after(pname, child);
        self.schema_raise_cutoff(parent, cutoff);
    }

    /// The cutoff a `child` element puts on an open element named
    /// `parent` (0: none — no schema, or the DTD does not sequence the
    /// two). The lane keeps the running maximum for an element that is
    /// not in the buffer yet and hands it over with
    /// [`BufferTree::schema_raise_cutoff`] when it materialises.
    #[inline]
    pub fn schema_cutoff_after(&self, parent: Symbol, child: Symbol) -> u32 {
        self.schema
            .as_deref()
            .and_then(|s| s.ord.ord(parent, child))
            .map_or(0, |ord| ord + 1)
    }

    /// Raise open element `node`'s cutoff to at least `cutoff`.
    #[inline]
    pub fn schema_raise_cutoff(&mut self, node: NodeId, cutoff: u32) {
        let Some(s) = self.schema.as_deref_mut() else {
            return;
        };
        if cutoff == 0 {
            return;
        }
        let slot = node.idx as usize;
        if s.cutoffs.len() <= slot {
            s.cutoffs.resize(slot + 1, 0);
        }
        s.cutoffs[slot] = s.cutoffs[slot].max(cutoff);
    }

    /// Has the stream passed the last possible `want` child of the open
    /// element `parent`? True only when the DTD sequences both names under
    /// `parent` and a later-ordinal sibling has already been observed —
    /// then no further `want` child can arrive, even though `parent` is
    /// still open. Conservative for repeatable particles: a cutoff equal
    /// to `ord(want) + 1` (the particle itself was last seen) is *not*
    /// exhaustion, since `want*`/`want+` can repeat.
    #[inline]
    pub fn schema_sibling_exhausted(&self, parent: NodeId, want: Symbol) -> bool {
        let Some(s) = self.schema.as_deref() else {
            return false;
        };
        let cutoff = match s.cutoffs.get(parent.idx as usize) {
            Some(&c) if c > 0 => c,
            _ => return false,
        };
        let pname = match &self.nodes[parent.idx as usize].kind {
            NodeKind::Element { name, .. } => *name,
            NodeKind::Text { .. } => return false,
        };
        match s.ord.ord(pname, want) {
            Some(ord) => ord + 1 < cutoff,
            None => false,
        }
    }

    /// Count a cursor scan ended early by a cutoff.
    pub fn schema_count_scan_end(&mut self) {
        if let Some(s) = self.schema.as_deref_mut() {
            s.early_scan_ends += 1;
        }
    }

    /// Count a signOff wait released early by a cutoff.
    pub fn schema_count_early_signoff(&mut self) {
        if let Some(s) = self.schema.as_deref_mut() {
            s.early_signoffs += 1;
        }
    }

    /// Set the hard byte budget ([`BufferTree::check_limit`] enforces it).
    pub fn set_max_bytes(&mut self, limit: Option<u64>) {
        self.max_bytes = limit;
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Enforce the byte budget: a typed, recoverable error — never an
    /// abort — once the estimated live buffer plus `pending_bytes` (what
    /// the lane holds of the document outside the buffer, its pending
    /// chain) exceeds `max_bytes`. The engine calls this
    /// after every token that grew either, so a runaway query is stopped
    /// within one token of crossing its budget.
    pub fn check_limit(&self, pending_bytes: u64) -> Result<(), EngineError> {
        let used = self.stats.live_bytes + pending_bytes;
        match self.max_bytes {
            Some(limit) if used > limit => Err(EngineError::BufferLimitExceeded { limit, used }),
            _ => Ok(()),
        }
    }

    /// True if `id` still names a live node: its slot is in use and the
    /// generation matches (slot reuse bumps the generation, so an id
    /// held across a purge of its node comes back false rather than
    /// aliasing the slot's new occupant). The join executor checks this
    /// before dereferencing index entries recorded on an earlier
    /// execution.
    #[inline]
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.idx as usize)
            .is_some_and(|n| n.in_use && n.gen == id.gen)
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.idx as usize];
        debug_assert!(n.in_use && n.gen == id.gen, "stale NodeId {id:?}");
        n
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let n = &mut self.nodes[id.idx as usize];
        debug_assert!(n.in_use && n.gen == id.gen, "stale NodeId {id:?}");
        n
    }

    fn id_at(&self, idx: u32) -> Option<NodeId> {
        if idx == NIL {
            None
        } else {
            Some(NodeId {
                idx,
                gen: self.nodes[idx as usize].gen,
            })
        }
    }

    // ---- navigation ---------------------------------------------------------

    /// Parent of a node (None for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.id_at(self.node(id).parent)
    }

    /// First child, in document order.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.id_at(self.node(id).first_child)
    }

    /// Next sibling, in document order.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.id_at(self.node(id).next_sibling)
    }

    /// Node payload.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// Element tag, if `id` is an element.
    pub fn name(&self, id: NodeId) -> Option<Symbol> {
        match &self.node(id).kind {
            NodeKind::Element { name, .. } => Some(*name),
            NodeKind::Text { .. } => None,
        }
    }

    /// True for text nodes.
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Text { .. })
    }

    /// Text content of a text node.
    pub fn text_content(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text { content } => Some(content),
            NodeKind::Element { .. } => None,
        }
    }

    /// Attribute value by interned name.
    pub fn attr(&self, id: NodeId, name: Symbol) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs.value_of(name),
            NodeKind::Text { .. } => None,
        }
    }

    /// All attributes of an element (empty for text nodes).
    pub fn attrs(&self, id: NodeId) -> &AttrBuf {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs,
            NodeKind::Text { .. } => &EMPTY_ATTRS,
        }
    }

    /// Whether the node's end tag has been read.
    pub fn is_closed(&self, id: NodeId) -> bool {
        self.node(id).closed
    }

    /// Document-order sibling ordinals (see [`Ordinals`]).
    pub fn ordinals(&self, id: NodeId) -> Ordinals {
        self.node(id).ordinals
    }

    /// Instances of `role` on this node.
    pub fn role_count(&self, id: NodeId, role: RoleId) -> u32 {
        self.node(id)
            .roles
            .iter()
            .find(|(r, _)| *r == role)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// The node's role multiset (sorted by role id), for diagnostics.
    pub fn roles(&self, id: NodeId) -> &[(RoleId, u32)] {
        &self.node(id).roles
    }

    // ---- construction -------------------------------------------------------

    /// Append an attribute-less element under `parent` with its role
    /// instances. `roles` must be sorted by role id (the matcher emits
    /// them sorted; the internal `append` debug-asserts it).
    pub fn append_element(
        &mut self,
        parent: NodeId,
        name: Symbol,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) -> NodeId {
        let attrs = self.pooled_attrs();
        self.append(
            parent,
            NodeKind::Element { name, attrs },
            roles,
            false,
            ordinals,
        )
    }

    /// Append an element under `parent`, **taking** the contents of the
    /// caller's attribute scratch (which is left empty, holding a recycled
    /// pooled buffer — the zero-allocation handshake of the preprojector's
    /// hot loop). `roles` must be sorted by role id.
    pub fn append_element_with_attrs(
        &mut self,
        parent: NodeId,
        name: Symbol,
        attrs: &mut AttrBuf,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) -> NodeId {
        let mut taken = self.pooled_attrs();
        std::mem::swap(&mut taken, attrs);
        self.append(
            parent,
            NodeKind::Element { name, attrs: taken },
            roles,
            false,
            ordinals,
        )
    }

    /// Append a text node under `parent`. Text nodes are born closed.
    /// `roles` must be sorted by role id.
    pub fn append_text(
        &mut self,
        parent: NodeId,
        content: &str,
        roles: &[(RoleId, u32)],
        ordinals: Ordinals,
    ) -> NodeId {
        let mut text = self.text_pool.pop().unwrap_or_default();
        text.push_str(content);
        self.append(
            parent,
            NodeKind::Text { content: text },
            roles,
            true,
            ordinals,
        )
    }

    /// A recycled (or fresh) empty attribute buffer.
    fn pooled_attrs(&mut self) -> AttrBuf {
        self.attr_pool.pop().unwrap_or_default()
    }

    fn append(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        roles: &[(RoleId, u32)],
        closed: bool,
        ordinals: Ordinals,
    ) -> NodeId {
        debug_assert!(!self.node(parent).closed, "appending under a closed node");
        // The role multiset arrives sorted (the matcher dedupes and sorts
        // by role id); sorting per append would be wasted hot-loop work.
        debug_assert!(
            roles.windows(2).all(|w| w[0].0 <= w[1].0),
            "append requires roles sorted by role id: {roles:?}"
        );
        let mut role_vec = self.role_pool.pop().unwrap_or_default();
        role_vec.extend_from_slice(roles);
        let own: u64 = role_vec.iter().map(|&(_, c)| c as u64).sum();
        let bytes = node_bytes(&kind);
        let prev = self.node(parent).last_child;
        let node = Node {
            parent: parent.idx,
            first_child: NIL,
            last_child: NIL,
            prev_sibling: prev,
            next_sibling: NIL,
            kind,
            ordinals,
            closed,
            roles: role_vec,
            subtree_roles: own,
            pins: 0,
            subtree_pins: 0,
            gen: 0,
            in_use: true,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                let gen = self.nodes[i as usize].gen;
                self.nodes[i as usize] = node;
                self.nodes[i as usize].gen = gen;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        // Link into the parent's child list.
        {
            let p = self.node_mut(parent);
            if p.first_child == NIL {
                p.first_child = idx;
            }
            p.last_child = idx;
        }
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = idx;
        }
        // Propagate the subtree role count upward.
        if own > 0 {
            let mut cur = parent.idx;
            while cur != NIL {
                self.nodes[cur as usize].subtree_roles += own;
                cur = self.nodes[cur as usize].parent;
            }
        }
        self.stats.live += 1;
        self.stats.allocated += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.live_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        if let Some(s) = self.schema.as_deref_mut() {
            // A recycled slot may carry the previous occupant's cutoff.
            if let Some(c) = s.cutoffs.get_mut(idx as usize) {
                *c = 0;
            }
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            let slot = idx as usize;
            if t.birth.len() <= slot {
                t.birth.resize(slot + 1, 0);
            }
            t.birth[slot] = t.clock;
            for &(role, count) in roles {
                let cell = t.role_cell(role);
                cell.appends += count as u64;
                cell.live += count as u64;
                cell.max_live = cell.max_live.max(cell.live);
            }
        }
        NodeId {
            idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    /// Mark a node closed (its end tag was read) and attempt a purge: this
    /// reclaims subtrees that hold no role (any more) when their end tag comes.
    pub fn close(&mut self, id: NodeId) {
        self.node_mut(id).closed = true;
        if self.telemetry.is_some() {
            let before = self.stats.purged;
            self.try_purge(id);
            if self.stats.purged > before {
                self.telemetry.as_deref_mut().unwrap().purges_on_close += 1;
            }
        } else {
            self.try_purge(id);
        }
    }

    // ---- roles & garbage collection ------------------------------------------

    /// Remove up to `amount` instances of `role` from `id` (saturating),
    /// then attempt a purge. Returns the number actually removed.
    pub fn decrement_role(&mut self, id: NodeId, role: RoleId, amount: u32) -> u32 {
        let node = self.node_mut(id);
        let mut removed = 0;
        if let Some(pos) = node.roles.iter().position(|(r, _)| *r == role) {
            let have = node.roles[pos].1;
            removed = have.min(amount);
            if removed == have {
                node.roles.remove(pos);
            } else {
                node.roles[pos].1 -= removed;
            }
        }
        if removed > 0 {
            let mut cur = id.idx;
            while cur != NIL {
                self.nodes[cur as usize].subtree_roles -= removed as u64;
                cur = self.nodes[cur as usize].parent;
            }
            if self.telemetry.is_some() {
                let before = self.stats.purged;
                self.try_purge(id);
                let purged = self.stats.purged > before;
                let t = self.telemetry.as_deref_mut().unwrap();
                let cell = t.role_cell(role);
                cell.signoffs += removed as u64;
                cell.live = cell.live.saturating_sub(removed as u64);
                if purged {
                    cell.purge_triggers += 1;
                    t.purges_on_signoff += 1;
                }
            } else {
                self.try_purge(id);
            }
        }
        removed
    }

    /// Pin a node against purging (evaluator references).
    pub fn pin(&mut self, id: NodeId) {
        self.node_mut(id).pins += 1;
        let mut cur = id.idx;
        while cur != NIL {
            self.nodes[cur as usize].subtree_pins += 1;
            cur = self.nodes[cur as usize].parent;
        }
    }

    /// Release a pin; attempts the purge that may have been deferred.
    pub fn unpin(&mut self, id: NodeId) {
        {
            let n = self.node_mut(id);
            debug_assert!(n.pins > 0, "unbalanced unpin");
            n.pins -= 1;
        }
        let mut cur = id.idx;
        while cur != NIL {
            self.nodes[cur as usize].subtree_pins -= 1;
            cur = self.nodes[cur as usize].parent;
        }
        if self.telemetry.is_some() {
            let before = self.stats.purged;
            self.try_purge(id);
            if self.stats.purged > before {
                self.telemetry.as_deref_mut().unwrap().purges_on_unpin += 1;
            }
        } else {
            self.try_purge(id);
        }
    }

    /// Garbage collection: free the highest ancestor-or-self of `id` whose
    /// whole subtree is closed, role-free and pin-free.
    fn try_purge(&mut self, id: NodeId) {
        if !self.purge_enabled {
            return;
        }
        let mut candidate: Option<u32> = None;
        let mut cur = id.idx;
        while cur != NIL && cur != NodeId::ROOT.idx {
            let n = &self.nodes[cur as usize];
            if n.closed && n.subtree_roles == 0 && n.subtree_pins == 0 {
                candidate = Some(cur);
                cur = n.parent;
            } else {
                break;
            }
        }
        if let Some(top) = candidate {
            self.free_subtree(top);
        }
    }

    /// Detach `top` from its parent and free its whole subtree.
    fn free_subtree(&mut self, top: u32) {
        // Unlink from the sibling chain.
        let (parent, prev, next) = {
            let n = &self.nodes[top as usize];
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sibling = prev;
        }
        if parent != NIL {
            let p = &mut self.nodes[parent as usize];
            if p.first_child == top {
                p.first_child = next;
            }
            if p.last_child == top {
                p.last_child = prev;
            }
        }
        // Free the subtree iteratively with the reused DFS scratch (slot
        // order is irrelevant — every freed node just returns to the free
        // list).
        let mut stack = std::mem::take(&mut self.free_scratch);
        // The telemetry box is moved out for the duration of the walk so
        // its histograms can be updated while `self` is mutably borrowed.
        let mut tel = self.telemetry.take();
        let mut batch: u64 = 0;
        stack.push(top);
        while let Some(i) = stack.pop() {
            let mut child = self.nodes[i as usize].first_child;
            while child != NIL {
                stack.push(child);
                child = self.nodes[child as usize].next_sibling;
            }
            let (kind, roles) = {
                let n = &mut self.nodes[i as usize];
                debug_assert_eq!(n.pins, 0, "freeing a pinned node");
                n.in_use = false;
                n.gen = n.gen.wrapping_add(1);
                n.first_child = NIL;
                (
                    std::mem::replace(
                        &mut n.kind,
                        NodeKind::Text {
                            content: String::new(),
                        },
                    ),
                    std::mem::take(&mut n.roles),
                )
            };
            // Credit back exactly what the append charged, then recycle
            // the node's heap blocks through the pools.
            let bytes = node_bytes(&kind);
            self.stats.live_bytes -= bytes;
            if let Some(t) = tel.as_deref_mut() {
                let born = t.birth.get(i as usize).copied().unwrap_or(t.clock);
                t.residency_tokens.observe(t.clock.saturating_sub(born));
                t.purged_node_bytes.observe(bytes);
                batch += 1;
            }
            match kind {
                NodeKind::Element { mut attrs, .. } => {
                    attrs.clear();
                    self.attr_pool.push(attrs);
                }
                NodeKind::Text { mut content } => {
                    content.clear();
                    self.text_pool.push(content);
                }
            }
            let mut roles = roles;
            roles.clear();
            self.role_pool.push(roles);
            self.free.push(i);
            self.stats.live -= 1;
            self.stats.purged += 1;
        }
        if let Some(t) = tel.as_deref_mut() {
            t.purge_batch.observe(batch);
        }
        self.telemetry = tel;
        self.free_scratch = stack;
    }

    // ---- values & serialization ----------------------------------------------

    /// XPath string value: concatenated text content of the subtree.
    ///
    /// Iterative (link-following) walk: document depth must not translate
    /// into native stack depth — deeply nested documents would overflow it.
    pub fn string_value(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text { content } => {
                out.push_str(content);
                return;
            }
            NodeKind::Element { .. } => {}
        }
        let mut cur = self.first_child(id);
        while let Some(n) = cur {
            let descend = match &self.node(n).kind {
                NodeKind::Text { content } => {
                    out.push_str(content);
                    None
                }
                NodeKind::Element { .. } => self.first_child(n),
            };
            cur = match descend {
                Some(c) => Some(c),
                None => self.next_or_ascend(n, id),
            };
        }
    }

    /// Next node of a pre-order walk confined to `stop`'s subtree, after
    /// `n`'s own subtree is done: the next sibling, or the next sibling of
    /// the closest ancestor below `stop`.
    fn next_or_ascend(&self, n: NodeId, stop: NodeId) -> Option<NodeId> {
        let mut m = n;
        loop {
            if let Some(s) = self.next_sibling(m) {
                return Some(s);
            }
            let p = self.parent(m).expect("walk escaped the subtree");
            if p == stop {
                return None;
            }
            m = p;
        }
    }

    /// Emit a node's opening markup (or its text). Returns true when the
    /// walk must descend into element children.
    fn serialize_open<W: std::io::Write>(
        &self,
        n: NodeId,
        symbols: &SymbolTable,
        w: &mut XmlWriter<W>,
    ) -> XmlResult<bool> {
        match &self.node(n).kind {
            NodeKind::Text { content } => {
                w.text(content)?;
                Ok(false)
            }
            NodeKind::Element { name, attrs } => {
                w.start_element(symbols.resolve(*name))?;
                for (an, av) in attrs.iter() {
                    w.attribute(symbols.resolve(an), av)?;
                }
                Ok(true)
            }
        }
    }

    /// Serialize the subtree rooted at `id` (which must be closed) to a
    /// writer. The virtual root serializes its children only.
    ///
    /// Iterative, like [`BufferTree::string_value`]: the walk follows
    /// sibling/parent links, so arbitrarily deep documents serialize in
    /// constant native stack space.
    pub fn serialize<W: std::io::Write>(
        &self,
        id: NodeId,
        symbols: &SymbolTable,
        w: &mut XmlWriter<W>,
    ) -> XmlResult<()> {
        if id != NodeId::ROOT && !self.serialize_open(id, symbols, w)? {
            return Ok(()); // a lone text node
        }
        let mut cur = self.first_child(id);
        while let Some(n) = cur {
            let mut descend = None;
            if self.serialize_open(n, symbols, w)? {
                descend = self.first_child(n);
                if descend.is_none() {
                    w.end_element()?; // childless element
                }
            }
            cur = match descend {
                Some(c) => Some(c),
                None => {
                    // Ascend, closing every element left behind.
                    let mut m = n;
                    loop {
                        if let Some(s) = self.next_sibling(m) {
                            break Some(s);
                        }
                        let p = self.parent(m).expect("walk escaped the subtree");
                        if p == id {
                            break None;
                        }
                        w.end_element()?;
                        m = p;
                    }
                }
            };
        }
        if id != NodeId::ROOT {
            w.end_element()?;
        }
        Ok(())
    }

    // ---- integrity (used by tests and debug assertions) -----------------------

    /// Recompute aggregate counters and compare with the maintained ones.
    /// Panics on mismatch. O(n); tests only.
    pub fn check_integrity(&self) {
        self.check_node(0);
    }

    fn check_node(&self, idx: u32) -> (u64, u64) {
        let n = &self.nodes[idx as usize];
        assert!(n.in_use, "dead node linked into the tree");
        let mut roles = n.own_roles();
        let mut pins = n.pins as u64;
        let mut child = n.first_child;
        let mut prev = NIL;
        while child != NIL {
            assert_eq!(self.nodes[child as usize].parent, idx, "parent link broken");
            assert_eq!(
                self.nodes[child as usize].prev_sibling, prev,
                "sibling chain broken"
            );
            let (r, p) = self.check_node(child);
            roles += r;
            pins += p;
            prev = child;
            child = self.nodes[child as usize].next_sibling;
        }
        assert_eq!(n.last_child, prev, "last_child out of date");
        assert_eq!(n.subtree_roles, roles, "subtree_roles out of sync at {idx}");
        assert_eq!(n.subtree_pins, pins, "subtree_pins out of sync at {idx}");
        (roles, pins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: u32) -> Symbol {
        Symbol(n)
    }

    fn el(buf: &mut BufferTree, parent: NodeId, name: u32, roles: &[(RoleId, u32)]) -> NodeId {
        buf.append_element(parent, sym(name), roles, Ordinals::FIRST)
    }

    #[test]
    fn builds_a_tree() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 1)]);
        let c1 = el(&mut b, a, 2, &[(RoleId(1), 1)]);
        let c2 = el(&mut b, a, 3, &[(RoleId(1), 1)]);
        assert_eq!(b.first_child(a), Some(c1));
        assert_eq!(b.next_sibling(c1), Some(c2));
        assert_eq!(b.parent(c2), Some(a));
        assert_eq!(b.stats().live, 3);
        b.check_integrity();
    }

    #[test]
    fn a_clock_jump_takes_every_sample_it_passes() {
        // One token at a time against the same clock moved in jumps (a
        // skipped subtree is charged at once): same samples, same tokens.
        let sampled = |jumps: &[u64]| {
            let mut b = BufferTree::new(true);
            b.enable_telemetry(4);
            el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 1)]);
            let mut clock = 0;
            for &jump in jumps {
                clock += jump;
                b.tick(clock);
            }
            b.take_telemetry().expect("enabled").timeline
        };
        let stepped = sampled(&[1; 23]);
        let at: Vec<u64> = stepped.iter().map(|&(token, _)| token).collect();
        assert_eq!(at, [1, 5, 9, 13, 17, 21]);
        assert_eq!(sampled(&[1, 1, 12, 1, 8]), stepped);
        assert_eq!(sampled(&[23]), stepped);
        assert_eq!(sampled(&[4, 0, 19]), stepped);
    }

    #[test]
    fn role_less_subtree_purged_on_close() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.close(c);
        // c alone can be purged once closed (no roles anywhere beneath).
        assert_eq!(b.stats().live, 1);
        b.close(a);
        assert_eq!(b.stats().live, 0);
        assert_eq!(b.stats().purged, 2);
        b.check_integrity();
    }

    #[test]
    fn roles_prevent_purge_until_decremented() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.close(c);
        b.close(a);
        assert_eq!(b.stats().live, 2, "role on c keeps both alive");
        b.decrement_role(c, RoleId(0), 1);
        assert_eq!(
            b.stats().live,
            0,
            "decrement cascades the purge up through a"
        );
        b.check_integrity();
    }

    #[test]
    fn paper_figure1_purge_sequence() {
        // book{r3,r5,r6} title{r5,r7} author{r5}; after signing off r3, r4,
        // r5 the buffer holds book{r6} and title{r7} (author gone).
        let r3 = RoleId(2);
        let r5 = RoleId(4);
        let r6 = RoleId(5);
        let r7 = RoleId(6);
        let mut b = BufferTree::new(true);
        let bib = el(&mut b, NodeId::ROOT, 1, &[(RoleId(1), 1)]);
        let book = el(&mut b, bib, 2, &[(r3, 1), (r5, 1), (r6, 1)]);
        let title = el(&mut b, book, 3, &[(r5, 1), (r7, 1)]);
        let author = el(&mut b, book, 4, &[(r5, 1)]);
        b.close(title);
        b.close(author);
        b.close(book);
        assert_eq!(b.stats().live, 4);
        // signOff($x, r3); signOff($x/descendant-or-self::node(), r5).
        b.decrement_role(book, r3, 1);
        b.decrement_role(book, r5, 1);
        b.decrement_role(title, r5, 1);
        b.decrement_role(author, r5, 1);
        // Figure 1(c): author purged; book{r6}, title{r7} remain.
        assert_eq!(b.stats().live, 3);
        assert_eq!(b.role_count(book, r6), 1);
        assert_eq!(b.role_count(title, r7), 1);
        assert_eq!(b.roles(book).len(), 1);
        // Second loop signs off r6 and r7: everything drains.
        b.decrement_role(book, r6, 1);
        b.decrement_role(title, r7, 1);
        b.decrement_role(bib, RoleId(1), 1);
        b.close(bib);
        assert_eq!(b.stats().live, 0);
        b.check_integrity();
    }

    #[test]
    fn open_nodes_are_never_purged() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        // a is open: closing nothing, no purge even though no roles.
        assert_eq!(b.stats().live, 1);
        let c = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.decrement_role(c, RoleId(0), 1);
        // c closed? No: element children born open.
        assert_eq!(b.stats().live, 2, "open c cannot be purged");
        b.close(c);
        assert_eq!(b.stats().live, 1, "closing triggers the deferred purge");
        b.check_integrity();
    }

    #[test]
    fn pins_defer_purge() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.pin(c);
        b.close(c);
        b.decrement_role(c, RoleId(0), 1);
        assert_eq!(b.stats().live, 2, "pin keeps c (and its parent chain)");
        b.unpin(c);
        assert_eq!(b.stats().live, 1, "unpin executes the deferred purge");
        b.check_integrity();
    }

    #[test]
    fn pin_on_descendant_protects_ancestors() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.pin(c);
        b.close(c);
        b.close(a);
        assert_eq!(
            b.stats().live,
            2,
            "pinned descendant blocks the whole chain"
        );
        b.unpin(c);
        assert_eq!(b.stats().live, 0);
        b.check_integrity();
    }

    #[test]
    fn purge_frees_highest_dead_ancestor() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let m = el(&mut b, a, 2, &[]);
        let c = el(&mut b, m, 3, &[(RoleId(0), 1)]);
        b.close(c);
        b.close(m);
        b.close(a);
        assert_eq!(b.stats().live, 3);
        b.decrement_role(c, RoleId(0), 1);
        // All three die in one cascade.
        assert_eq!(b.stats().live, 0);
        assert_eq!(b.stats().purged, 3);
        b.check_integrity();
    }

    #[test]
    fn siblings_survive_purge_of_neighbor() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(9), 1)]);
        let c1 = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        let c2 = el(&mut b, a, 3, &[(RoleId(1), 1)]);
        let c3 = el(&mut b, a, 4, &[(RoleId(2), 1)]);
        for c in [c1, c2, c3] {
            b.close(c);
        }
        b.decrement_role(c2, RoleId(1), 1);
        assert_eq!(b.stats().live, 3);
        assert_eq!(
            b.next_sibling(c1),
            Some(c3),
            "sibling chain bridges the gap"
        );
        b.check_integrity();
    }

    #[test]
    fn slot_reuse_with_generations() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.close(c); // purged
        let d = el(&mut b, a, 3, &[]);
        // d reuses c's slot with a different generation.
        assert_ne!(c, d);
        assert_eq!(b.name(d), Some(sym(3)));
        b.check_integrity();
    }

    #[test]
    fn multiset_roles_decrement_partially() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 3)]);
        b.close(a);
        assert_eq!(b.decrement_role(a, RoleId(0), 1), 1);
        assert_eq!(b.role_count(a, RoleId(0)), 2);
        assert_eq!(b.stats().live, 1);
        assert_eq!(b.decrement_role(a, RoleId(0), 5), 2, "saturating");
        assert_eq!(b.stats().live, 0);
        b.check_integrity();
    }

    #[test]
    fn purge_disabled_mode_keeps_everything() {
        let mut b = BufferTree::new(false);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        let c = el(&mut b, a, 2, &[]);
        b.close(c);
        b.close(a);
        assert_eq!(b.stats().live, 2, "no purging in full-buffering mode");
        b.check_integrity();
    }

    #[test]
    fn string_value_concatenates_subtree_text() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[(RoleId(0), 1)]);
        b.append_text(a, "Hello ", &[(RoleId(0), 1)], Ordinals::FIRST);
        let inner = el(&mut b, a, 2, &[(RoleId(0), 1)]);
        b.append_text(inner, "wor", &[(RoleId(0), 1)], Ordinals::FIRST);
        b.close(inner);
        b.append_text(a, "ld", &[(RoleId(0), 1)], Ordinals::FIRST);
        let mut s = String::new();
        b.string_value(a, &mut s);
        assert_eq!(s, "Hello world");
    }

    #[test]
    fn attributes_are_accessible() {
        let mut b = BufferTree::new(true);
        let mut attrs = AttrBuf::new();
        attrs.push(sym(7), "person0");
        attrs.push(sym(9), "x");
        let a = b.append_element_with_attrs(
            NodeId::ROOT,
            sym(1),
            &mut attrs,
            &[(RoleId(0), 1)],
            Ordinals::FIRST,
        );
        assert!(attrs.is_empty(), "append takes the scratch's contents");
        assert_eq!(b.attr(a, sym(7)), Some("person0"));
        assert_eq!(b.attr(a, sym(9)), Some("x"));
        assert_eq!(b.attr(a, sym(8)), None);
        assert_eq!(b.attrs(a).len(), 2);
        let pairs: Vec<_> = b.attrs(a).iter().collect();
        assert_eq!(pairs, [(sym(7), "person0"), (sym(9), "x")]);
    }

    #[test]
    fn attr_pools_recycle_through_purge() {
        let mut b = BufferTree::new(true);
        let mut attrs = AttrBuf::new();
        for round in 0..3 {
            attrs.clear();
            attrs.push(sym(7), "v");
            let a =
                b.append_element_with_attrs(NodeId::ROOT, sym(1), &mut attrs, &[], Ordinals::FIRST);
            b.append_text(a, "t", &[], Ordinals::FIRST);
            b.close(a); // purged: containers return to the pools
            assert_eq!(b.stats().live, 0, "round {round}");
        }
        assert_eq!(b.stats().purged, 6);
        b.check_integrity();
    }

    #[test]
    fn serialize_round_trips() {
        let mut symbols = SymbolTable::new();
        let title = symbols.intern("title");
        let book = symbols.intern("book");
        let id_attr = symbols.intern("id");
        let mut b = BufferTree::new(true);
        let r = &[(RoleId(0), 1)][..];
        let mut attrs = AttrBuf::new();
        attrs.push(id_attr, "b&1");
        let bk = b.append_element_with_attrs(NodeId::ROOT, book, &mut attrs, r, Ordinals::FIRST);
        let t = b.append_element(bk, title, r, Ordinals::FIRST);
        b.append_text(t, "On <Streams>", r, Ordinals::FIRST);
        b.close(t);
        b.close(bk);
        let mut w = XmlWriter::new(Vec::new());
        b.serialize(bk, &symbols, &mut w).unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(
            out,
            "<book id=\"b&amp;1\"><title>On &lt;Streams&gt;</title></book>"
        );
    }

    #[test]
    fn deep_chain_serializes_and_values_iteratively() {
        // 200k nested elements: recursive walks would overflow the stack.
        // (Shrunk under Miri — the iterative shape is what is under test,
        // and the interpreter would take minutes on the full depth.)
        const DEPTH: u32 = if cfg!(miri) { 2_000 } else { 200_000 };
        let mut symbols = SymbolTable::new();
        let d = symbols.intern("d");
        let mut b = BufferTree::new(false);
        let mut parent = NodeId::ROOT;
        for _ in 0..DEPTH {
            parent = b.append_element(parent, d, &[], Ordinals::FIRST);
        }
        b.append_text(parent, "bottom", &[], Ordinals::FIRST);
        let mut s = String::new();
        b.string_value(b.first_child(NodeId::ROOT).unwrap(), &mut s);
        assert_eq!(s, "bottom");
        let mut w = XmlWriter::new(Vec::new());
        b.serialize(NodeId::ROOT, &symbols, &mut w).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.len() as u32, DEPTH * 3 + DEPTH * 4 + 6);
        assert!(out.starts_with(b"<d><d>"));
        assert!(out.ends_with(b"</d></d>"));
        let text_at = (DEPTH * 3) as usize;
        assert_eq!(&out[text_at..text_at + 6], b"bottom");
    }

    #[test]
    fn peak_statistics_track_watermark() {
        let mut b = BufferTree::new(true);
        let a = el(&mut b, NodeId::ROOT, 1, &[]);
        for i in 0..10 {
            let c = el(&mut b, a, 10 + i, &[]);
            b.close(c); // each purged right away
        }
        assert_eq!(b.stats().peak_live, 2);
        assert_eq!(b.stats().allocated, 11);
        assert_eq!(b.stats().purged, 10);
    }
}

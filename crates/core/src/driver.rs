//! The one loop that turns document bytes into lane events. See
//! [`Driver`].

use crate::engine::RunReport;
use crate::error::EngineError;
use crate::lane::{Keep, Lane, ScanFacts};
use crate::obs::FeedSpan;
use gcx_projection::{Below, TaggedMatcher, TaggedRole};
use gcx_query::ast::RoleId;
use gcx_xml::{
    Attrs, Lent, PushTokenizer, StartTag, Symbol, SymbolTable, TextPos, Token, TokenStep,
};
use gcx_xml::{XmlError, XmlErrorKind};
use std::io::Write;

/// The push tokenizer and the stream preprojector (paper Figure 2, left
/// component) in front of N ≥ 1 [`Lane`]s: the one loop behind both faces
/// of the engine — [`EvalSession`](crate::EvalSession), one lane, and
/// [`BatchSession`](crate::batch::BatchSession), a lane per query off one
/// shared scan.
///
/// The preprojector takes one token at a time, runs the projection
/// automaton (a query's, or a batch's merged one, whose outcomes carry a
/// tag per query) once, and shows each lane what its query keeps, with its
/// role instances; a lane that refuses an element another keeps sees
/// nothing of its subtree. What no lane needs goes by in bulk: an element
/// every query refuses is skipped, the tokenizer searches ahead below a
/// search set ([`Below::Search`]), and below a copy set of the copy a lane
/// writes through ([`Below::Copy`]) tokens go straight to that lane's
/// writer. Every lane's clock is the stream's structural-token count: a
/// lane is ticked ([`Lane::tick`]) after each token it is shown and after
/// each bulk pass, and one that sat out a subtree catches up when the
/// subtree ends — so a batch lane counts and samples what its stand-alone
/// run does.
pub struct Driver {
    tok: PushTokenizer,
    pub(crate) pump: Pump,
    /// Why the run is over, for every later call's error: a feed or the
    /// end of input failed (the tokenizer and the lanes are where the
    /// error left them), or the input was finished.
    over: Option<&'static str>,
}

/// Everything of the driver but the tokenizer: what the loop runs on the
/// input the tokenizer is lent.
pub(crate) struct Pump {
    pub(crate) pre: Preprojector,
    /// What the loop does with the input next.
    next: Pass,
    /// Structural tokens the search or copy pass in flight passed (charged
    /// when it ends), and the elements the copy pass opened and has not
    /// closed.
    passed: u64,
    copied: usize,
    telemetry: bool,
    pub(crate) scan: ScanFacts,
}

/// What the driver does with the input next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Step one token and apply it.
    Step,
    /// Pass the refused element whose start tag was just applied.
    Skip,
    /// A descendant search (see [`Pump::search`]).
    Search,
    /// A copy pass (see [`Pump::copy`]).
    Copy,
    /// Apply the start tag a search or a copy pass stopped at.
    Found,
}

/// Names a search or a copy pass stops at, at most: a frame waiting for
/// more is stepped through.
const MAX_STOPS: usize = 8;

/// Everything of the driver but the tokenizer.
pub(crate) struct Preprojector {
    matcher: TaggedMatcher,
    /// The table the automaton's names live in when it is not lane 0's: a
    /// batch's, which each lane's table mirrors through its slot's remap.
    /// `None` makes the run stand-alone ([`Preprojector::alone`]).
    symbols: Option<SymbolTable>,
    pub(crate) lanes: Vec<Slot>,
    /// Full buffering only: depth inside a subtree kept although the
    /// matcher refused its top element (and holds no frame for it).
    unmatched_depth: u32,
    /// Projection on; off (full buffering), *every* element and non-blank
    /// text is buffered.
    project: bool,
    /// Some lane still evaluates (rechecked when the table grows).
    any_live: bool,
    /// Structural tokens of the stream: every lane's clock.
    pub(crate) tokens: u64,
    /// Tokens handed to a live lane, summed over lanes: each one a lane
    /// was shown, and each one a copy pass wrote through.
    pub(crate) handed: u64,
    /// Per token: its roles untagged (each lane gets its sub-slice), its
    /// attribute names in the table and in one lane's.
    roles: Vec<(RoleId, u32)>,
    attr_names: Vec<Symbol>,
    lane_attr_names: Vec<Symbol>,
    /// Per lane: whether stepping would show it the elements the search
    /// or copy pass in flight passes ([`Preprojector::show_pass`]).
    shown: Vec<bool>,
    /// Tokens shown to the matcher.
    #[cfg(test)]
    pub(crate) matcher_tokens: u64,
    /// Searches and copy passes on: off, every token is stepped (the
    /// reference a bulk pass's charges are checked against).
    #[cfg(test)]
    pub(crate) bulk: bool,
}

/// A lane and what the driver keeps for it.
pub(crate) struct Slot {
    pub(crate) lane: Lane,
    /// Depth inside a subtree the lane refused while another lane keeps it.
    skip: u32,
    /// A batch lane's: table symbol → the lane's, filled on first use.
    remap: Vec<Symbol>,
}

/// Where a start tag the preprojector applies comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opened {
    /// The token loop stepped it.
    Stepped,
    /// A search passed it and stopped inside the element.
    Searched,
    /// Lane `.0`'s copy pass, copying role `.1`, wrote it and stopped
    /// inside the element.
    Copied(usize, RoleId),
}

impl Driver {
    /// The driver of `lanes` on `matcher`. Without `symbols` the run is
    /// stand-alone: one lane, whose own table holds the matcher's names and
    /// whose failure is the feed's. With a batch's table — `matcher` on the
    /// queries' merged automaton, query `i` tagged `i`, its names in
    /// `symbols` — a lane that fails is left behind. Either way every lane
    /// runs on the stream's token clock and adopts an in-stream DOCTYPE
    /// unless it has a schema plan ([`Lane::doctype`]). Whether the run
    /// projects and records telemetry is the lanes' to say (every lane
    /// projects, or none does).
    pub fn new(lanes: Vec<Lane>, matcher: TaggedMatcher, symbols: Option<SymbolTable>) -> Driver {
        debug_assert!(
            symbols.is_some() || lanes.len() == 1,
            "a stand-alone run has one lane"
        );
        let project = lanes.iter().all(Lane::projects);
        let telemetry = lanes.iter().any(Lane::telemetry);
        let shown = vec![false; lanes.len()];
        let lanes = lanes.into_iter().map(|lane| Slot {
            lane,
            skip: 0,
            remap: Vec::new(),
        });
        let pre = Preprojector {
            matcher,
            symbols,
            lanes: lanes.collect(),
            unmatched_depth: 0,
            project,
            any_live: true,
            tokens: 0,
            handed: 0,
            roles: Vec::new(),
            attr_names: Vec::new(),
            lane_attr_names: Vec::new(),
            shown,
            #[cfg(test)]
            matcher_tokens: 0,
            #[cfg(test)]
            bulk: true,
        };
        Driver {
            tok: PushTokenizer::new(),
            pump: Pump {
                pre,
                next: Pass::Step,
                passed: 0,
                copied: 0,
                telemetry,
                scan: ScanFacts::default(),
            },
            over: None,
        }
    }

    /// Push one chunk of document bytes and advance every lane as far as
    /// they allow. The chunk is lent to the tokenizer for this call: it
    /// keeps only a token the chunk's end cuts.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        self.latched("feed", |tok, pump| {
            pump.pump_spanned(&mut tok.lend(chunk), chunk.len())
        })
    }

    /// Declare the end of input, apply the rest of it and finish the lanes,
    /// each report with the run's schema facts; returns each lane's report,
    /// or the error that stopped it, in lane order. The lightest buffer
    /// finishes first: a lane's memory is back before the next one's final
    /// phase (a join builds its index there), so a batch's high-water is
    /// its heaviest lane's final phase, not the sum of all of them. Fails
    /// as [`Driver::feed`] does: on a truncated or malformed document, and
    /// stand-alone on the lane's failure.
    pub fn finish(&mut self) -> Result<Vec<Result<RunReport, EngineError>>, EngineError> {
        self.latched("finish", |tok, pump| {
            tok.finish_input();
            pump.pump(&mut tok.lend(&[]))?;
            pump.scan.window_peak = tok.window_peak();
            Ok(())
        })?;
        self.over = Some("finish");
        let Pump { pre, scan, .. } = &mut self.pump;
        scan.tokens = pre.tokens;
        let reach_cuts = pre.matcher.reach_cuts();
        let lanes = &mut pre.lanes;
        let mut order: Vec<usize> = (0..lanes.len()).collect();
        order.sort_by_key(|&i| lanes[i].lane.buffer_stats().live_bytes);
        let mut reports: Vec<_> = order
            .into_iter()
            .map(|i| (i, lanes[i].lane.finish(scan, reach_cuts)))
            .collect();
        reports.sort_by_key(|&(i, _)| i);
        Ok(reports.into_iter().map(|(_, report)| report).collect())
    }

    /// Run `call` unless the run is over, and remember whether it fails:
    /// the first error is the run's, every later call reports that the
    /// run failed (or, after [`Driver::finish`], that it finished).
    fn latched(
        &mut self,
        name: &str,
        call: impl FnOnce(&mut PushTokenizer, &mut Pump) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        if let Some(why) = self.over {
            return Err(EngineError::Internal(format!("{name} after {why}")));
        }
        let result = call(&mut self.tok, &mut self.pump);
        if result.is_err() {
            self.over = Some("the run failed");
        }
        result
    }

    /// An input-side I/O failure as a tokenizer error at the current
    /// position.
    pub fn input_io_error(&self, e: std::io::Error) -> EngineError {
        let (kind, pos) = (XmlErrorKind::Io(e), self.tok.position());
        EngineError::Xml(XmlError { kind, pos })
    }

    /// Drain lane `i`'s pending output into `sink`; returns the bytes
    /// written. On a sink error the bytes that *were* written are dropped
    /// from the pending output first, so a retry never sends a byte twice.
    pub fn take_output<W: Write>(&mut self, i: usize, sink: &mut W) -> Result<usize, EngineError> {
        let pending = self.pump.pre.lanes[i].lane.output_mut();
        let (total, mut off) = (pending.len(), 0);
        while off < total {
            let kind = match sink.write(&pending[off..]) {
                Ok(0) => XmlErrorKind::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "output sink accepted no bytes",
                )),
                Ok(n) => {
                    off += n;
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => XmlErrorKind::Io(e),
            };
            pending.copy_within(off.., 0);
            pending.truncate(total - off);
            let pos = TextPos::START;
            return Err(EngineError::Xml(XmlError { kind, pos }));
        }
        pending.clear();
        Ok(total)
    }
}

impl Pump {
    /// [`Pump::pump`] as one counted feed call — with telemetry on, one
    /// [`FeedSpan`]: when the chunk arrived, how long consuming it took,
    /// and its size (the Chrome trace's feed track).
    fn pump_spanned(&mut self, tok: &mut Lent, bytes: usize) -> Result<(), EngineError> {
        self.scan.feed_calls += 1;
        let start_us = self.telemetry.then(gcx_obs::now_micros);
        let result = self.pump(tok);
        if let Some(start_us) = start_us {
            let dur_us = gcx_obs::now_micros().saturating_sub(start_us);
            let bytes = bytes as u64;
            self.scan.feed_spans.push(FeedSpan {
                start_us,
                dur_us,
                bytes,
            });
        }
        result
    }

    /// Apply every complete token of the lent input, one at a time: the lanes'
    /// evaluators run to suspension between tokens, so buffer peaks do not
    /// depend on the chunking. A stand-alone lane's failure surfaces at the
    /// token that caused it; a batch lane's stays with the lane.
    fn pump(&mut self, tok: &mut Lent) -> Result<(), EngineError> {
        // Starts the programs on the first call; nothing to do afterwards.
        for slot in &mut self.pre.lanes {
            slot.lane.step();
        }
        loop {
            if self.pre.alone() {
                if let Some(e) = self.pre.lanes[0].lane.take_failure() {
                    return Err(e);
                }
            }
            let more = match self.next {
                Pass::Skip => self.skip(tok)?,
                Pass::Search => self.search(tok)?,
                Pass::Copy => self.copy(tok)?,
                // One call site, so that `apply` is inlined here.
                pass => {
                    let step = match pass {
                        Pass::Found => TokenStep::Token,
                        _ => tok.step()?,
                    };
                    match step {
                        TokenStep::Token => {
                            self.next = self.pre.apply(&tok.token());
                            true
                        }
                        TokenStep::NeedMoreData => false,
                        TokenStep::End => break,
                    }
                }
            };
            if !more {
                let pending = tok.pending_bytes() as u64;
                self.scan.max_pending_bytes = self.scan.max_pending_bytes.max(pending);
                break;
            }
        }
        Ok(())
    }

    /// Pass the refused element whose start tag was just applied, end tag
    /// included. Returns false when the input ran out first.
    #[inline(never)]
    fn skip(&mut self, tok: &mut Lent) -> Result<bool, EngineError> {
        let skipped = tok.skip_element(&[], usize::MAX)?;
        self.pre.charge_pass(skipped.tokens);
        if skipped.complete {
            self.next = Pass::Step;
        }
        Ok(skipped.complete)
    }

    /// A descendant search: pass the rest of the innermost element up to
    /// the next start tag its frame waits for, unseen by the matcher and
    /// the lanes, which could only have kept it role-less on their pending
    /// chains and dropped it again. Where it stops, the elements it left
    /// open are opened (as many as the budgets have room for) and the stop
    /// tag is applied next; where it completes, the end tag is. Returns
    /// false when the input ran out first. (Out of the token loop:
    /// inlined there, it slowed every stepped token of queries that never
    /// search.)
    #[inline(never)]
    fn search(&mut self, tok: &mut Lent) -> Result<bool, EngineError> {
        let pre = &mut self.pre;
        let room = pre.show_pass();
        let Below::Search(waits) = pre.matcher.below() else {
            unreachable!("a search set is on top")
        };
        let mut stops = [""; MAX_STOPS];
        for (stop, &name) in stops.iter_mut().zip(waits) {
            *stop = pre.table().resolve(name);
        }
        let found = tok.skip_element(&stops[..waits.len()], room)?;
        self.passed += found.tokens;
        // The end tag, or the elements left open, are applied as stepped
        // ones, which count themselves.
        if found.complete {
            pre.charge_pass(std::mem::take(&mut self.passed) - 1);
            self.next = pre.end_tag();
        } else if found.stopped || found.left_open > 0 {
            pre.charge_pass(std::mem::take(&mut self.passed) - found.left_open as u64);
            for name in tok.left_open(found.left_open) {
                pre.open_passed(name, Opened::Searched);
            }
            // Past the depth bound the budget has failed a lane.
            self.next = if found.stopped {
                Pass::Found
            } else {
                Pass::Search
            };
        }
        Ok(found.complete || found.stopped || found.left_open > 0)
    }

    /// A copy pass: hand the rest of the innermost element — which a lane
    /// is copying, and whose frame gives each node below it that copy's
    /// role alone up to a stop — token by token to that lane's writer, as
    /// stepping would have had the lanes do bar their pending chains'
    /// bookkeeping. At a start tag of a stop, or one that would open more
    /// elements than the budgets have room for, the elements it left open
    /// are opened and the tag is applied next; at the element's end tag,
    /// that is. Returns false when the input ran out first.
    #[inline(never)]
    fn copy(&mut self, tok: &mut Lent) -> Result<bool, EngineError> {
        let pre = &mut self.pre;
        let room = pre.show_pass();
        let Below::Copy { tag, role, stops } = pre.matcher.below() else {
            unreachable!("a copy set is on top")
        };
        let copier = tag as usize;
        let mut stop_names = [Symbol(0); MAX_STOPS];
        stop_names[..stops.len()].copy_from_slice(stops);
        let stops = &stop_names[..stops.len()];
        while tok.step()? == TokenStep::Token {
            let token = tok.token();
            match token {
                Token::StartTag(tag)
                    if (!tag.self_closing && self.copied >= room)
                        || stops.iter().any(|&s| pre.table().resolve(s) == tag.name) =>
                {
                    let open = std::mem::take(&mut self.copied);
                    pre.charge_pass(std::mem::take(&mut self.passed) - open as u64);
                    for name in tok.left_open(open) {
                        pre.open_passed(name, Opened::Copied(copier, role));
                    }
                    self.next = Pass::Found;
                    return Ok(true);
                }
                Token::EndTag { .. } if self.copied == 0 => {
                    pre.charge_pass(std::mem::take(&mut self.passed));
                    self.next = pre.end_tag();
                    return Ok(true);
                }
                // Comments and PIs are not part of the data model.
                Token::Comment(_) | Token::ProcessingInstruction { .. } | Token::Doctype(_) => {}
                _ => {
                    pre.lanes[copier].lane.write_through(&token);
                    pre.handed += 1;
                    self.passed += 1;
                    match token {
                        Token::StartTag(tag) => {
                            self.passed += u64::from(tag.self_closing);
                            self.copied += usize::from(!tag.self_closing);
                        }
                        Token::EndTag { .. } => self.copied -= 1,
                        _ => {}
                    }
                }
            }
        }
        Ok(false)
    }
}

impl Preprojector {
    /// A stand-alone run: one lane, whose table holds the matcher's names
    /// and whose failure is the feed's. (A batch: the matcher's names are
    /// in its own table, and a lane that fails is left behind.)
    #[inline]
    fn alone(&self) -> bool {
        self.symbols.is_none()
    }

    /// The table the matcher's names live in.
    fn table(&self) -> &SymbolTable {
        match &self.symbols {
            Some(table) => table,
            None => self.lanes[0].lane.symbols(),
        }
    }

    /// Apply one token and return what to do next.
    #[inline(always)]
    fn apply(&mut self, token: &Token<'_>) -> Pass {
        match token {
            // Nobody is left to hold names for (every lane failed): the rest
            // of the document is skipped.
            Token::StartTag(tag) if !self.any_live => {
                self.tokens += 1 + u64::from(tag.self_closing);
                if tag.self_closing {
                    Pass::Step
                } else {
                    Pass::Skip
                }
            }
            Token::StartTag(tag) => self.start_tag(tag, Opened::Stepped),
            Token::EndTag { .. } => self.end_tag(),
            Token::Text(content) => self.text(content),
            Token::Doctype(payload) => {
                self.doctype(payload);
                Pass::Step
            }
            // Comments and PIs are not part of the data model.
            Token::Comment(_) | Token::ProcessingInstruction { .. } => Pass::Step,
        }
    }

    /// Apply a start tag: intern its names, ask the matcher once, and show
    /// each lane its query's decision and roles. A copier's copy pass
    /// already wrote the tag it passed ([`Opened::Copied`]): that lane
    /// opens the element pending. (Inlined into the token loop, as are
    /// `end_tag` and `text`: called from there, they cost every stepped
    /// token of every query.)
    #[inline(always)]
    fn start_tag(&mut self, tag: &StartTag<'_>, from: Opened) -> Pass {
        #[cfg(test)]
        {
            self.matcher_tokens += 1;
        }
        let self_closing = tag.self_closing;
        // A self-closing tag stands for open+close: the stream counts both.
        self.tokens += 1 + u64::from(self_closing);
        let Preprojector {
            matcher,
            symbols,
            lanes,
            roles,
            attr_names,
            lane_attr_names,
            ..
        } = self;
        let table = match symbols {
            Some(table) => table,
            None => lanes[0].lane.symbols_mut(),
        };
        let known = table.len();
        let name = table.intern(tag.name);
        let entered = match self.unmatched_depth {
            0 => matcher.enter(name),
            _ => None,
        };
        let (kept, tagged) = entered.unwrap_or_default();
        // Only an element some lane buffers now keeps its attributes.
        attr_names.clear();
        if !self.project || !tagged.is_empty() {
            attr_names.extend(tag.attrs.iter().map(|a| table.intern(a.name)));
        }
        let grew = table.len() != known;
        untag(tagged, roles);
        let mut at = 0;
        for (i, Slot { lane, skip, remap }) in lanes.iter_mut().enumerate() {
            if !lane.live() {
                continue;
            }
            if *skip > 0 {
                *skip += u32::from(entered.is_some() && !self_closing);
                continue;
            }
            let matched = entered.is_some() && kept[i];
            if entered.is_some() && !matched && !self_closing {
                *skip = 1;
            }
            let mine = lane_roles(tagged, roles, &mut at, i);
            let keep = match self.project {
                true => Keep::projected(matched, mine),
                false => Keep::Roles(mine),
            };
            let (name, attr_names) = match symbols {
                Some(_) => {
                    lane_attr_names.clear();
                    if let Keep::Roles(_) = keep {
                        let names = tag.attrs.iter().zip(attr_names.iter());
                        lane_attr_names.extend(names.map(|(a, &s)| local(remap, lane, s, a.name)));
                    }
                    (local(remap, lane, name, tag.name), &lane_attr_names[..])
                }
                _ => (name, &attr_names[..]),
            };
            self.handed += 1;
            match from {
                Opened::Copied(copier, role) if copier == i => {
                    debug_assert!(matched && mine == [(role, 1)]);
                    lane.open_copied(name);
                }
                _ => {
                    // A bulk pass passes only what gives no lane but the
                    // copier a role.
                    debug_assert!(from == Opened::Stepped || mine.is_empty());
                    lane.start_element(name, tag, attr_names, keep);
                }
            }
            lane.tick(self.tokens);
            lane.step();
        }
        if grew {
            self.any_live = self.lanes.iter().any(|slot| slot.lane.live());
        }
        match entered {
            // Nobody can match inside: the subtree is skipped.
            None if self.project && self_closing => return Pass::Step,
            None if self.project => return Pass::Skip,
            None => self.unmatched_depth += u32::from(!self_closing),
            Some(_) if self_closing => self.matcher.leave_element(),
            Some(_) => {}
        }
        self.next_pass()
    }

    /// Apply the end tag of the innermost open element.
    #[inline(always)]
    fn end_tag(&mut self) -> Pass {
        #[cfg(test)]
        {
            self.matcher_tokens += 1;
        }
        self.tokens += 1;
        for Slot { lane, skip, .. } in &mut self.lanes {
            if *skip > 0 {
                *skip -= 1;
                // The subtree the lane sat out is over: its sampler catches
                // up before it is shown anything else.
                if *skip == 0 {
                    lane.tick(self.tokens);
                }
                continue;
            }
            self.handed += u64::from(lane.live());
            lane.end_element();
            lane.tick(self.tokens);
            lane.step();
        }
        match self.unmatched_depth {
            0 => self.matcher.leave_element(),
            _ => self.unmatched_depth -= 1,
        }
        self.next_pass()
    }

    /// Apply a text: it leaves the frame as it was.
    #[inline(always)]
    fn text(&mut self, content: &str) -> Pass {
        #[cfg(test)]
        {
            self.matcher_tokens += 1;
        }
        self.tokens += 1;
        // Outside the document element only whitespace passes the
        // tokenizer, and it is no node of the document: the virtual root
        // holds the one element alone. The lanes see only the clock move.
        if self.unmatched_depth == 0 && self.matcher.depth() == 0 {
            for Slot { lane, .. } in &mut self.lanes {
                lane.tick(self.tokens);
            }
            return Pass::Step;
        }
        let tagged: &[TaggedRole] = match self.unmatched_depth {
            0 => self.matcher.text(),
            _ => &[],
        };
        untag(tagged, &mut self.roles);
        // Without projection role-less text is kept too, but not blanks.
        let plain = !self.project && !content.trim().is_empty();
        let mut at = 0;
        for (i, Slot { lane, skip, .. }) in self.lanes.iter_mut().enumerate() {
            if *skip == 0 {
                let mine = lane_roles(tagged, &self.roles, &mut at, i);
                self.handed += u64::from(lane.live());
                lane.text(content, (plain || !mine.is_empty()).then_some(mine));
                lane.tick(self.tokens);
                lane.step();
            }
        }
        Pass::Step
    }

    /// A DOCTYPE is not part of the data model, but every lane without a
    /// schema plan adopts the sibling-order cutoffs of a usable internal
    /// subset ([`Lane::doctype`]), which is parsed once for all of them. A
    /// payload that does not parse means "no schema". (Out of line: a
    /// document has one DOCTYPE at most.)
    #[cold]
    #[inline(never)]
    fn doctype(&mut self, payload: &str) {
        let Ok(view) = gcx_xml::DoctypeView::parse(payload) else {
            return;
        };
        let Ok(dtd) = gcx_schema::Dtd::from_doctype_parts(view.name, view.subset) else {
            return;
        };
        for slot in &mut self.lanes {
            slot.lane.doctype(&dtd);
        }
    }

    /// Open an element a search or a copy pass left open, as its start tag
    /// without attributes: onto the same set, pending for the lanes whose
    /// queries hold a state there — the copier's too, which wrote it.
    #[inline(never)]
    fn open_passed(&mut self, name: &str, from: Opened) {
        let (attrs, self_closing) = (Attrs::EMPTY, false);
        let tag = StartTag {
            name,
            attrs,
            self_closing,
        };
        self.start_tag(&tag, from);
    }

    /// What follows a tag that may have changed the innermost frame.
    #[inline(always)]
    fn next_pass(&self) -> Pass {
        match self.matcher.below() {
            Below::Step => Pass::Step,
            below => self.bulk_or_step(below),
        }
    }

    /// A search below a search set, a copy pass below a copy set of the
    /// copy a lane writes through — inside an element, projecting — or a
    /// step. (Out of line: the token loop only tests for a step set.)
    ///
    /// A pass hides children from the lanes, and sibling-order cutoffs
    /// advance on every child of a kept element; neither kind of schema
    /// lets a pass hide one whose cutoff a wait reads. Under an explicit
    /// schema the automaton has a reach filter, and the memo marks no
    /// search or copy set under one. An adopted DOCTYPE prunes no path, so
    /// every child step a cursor or a signOff can wait on is a state in
    /// the parent's frame — and a frame that holds such a state is neither
    /// a search set nor a copy set.
    #[inline(never)]
    fn bulk_or_step(&self, below: Below<&[Symbol]>) -> Pass {
        if !self.project || self.matcher.depth() == 0 {
            return Pass::Step;
        }
        #[cfg(test)]
        if !self.bulk {
            return Pass::Step;
        }
        match below {
            Below::Search(waits) if waits.len() <= MAX_STOPS => Pass::Search,
            Below::Copy { tag, role, stops }
                if stops.len() <= MAX_STOPS
                    && self.lanes[tag as usize].lane.copying() == Some(role) =>
            {
                Pass::Copy
            }
            _ => Pass::Step,
        }
    }

    /// Mark the lanes stepping would show the innermost element's children
    /// to — the live ones whose queries hold a state in the frame — and
    /// return how many elements a pass may leave open: the room of the
    /// tightest budget among them.
    fn show_pass(&mut self) -> usize {
        self.shown.fill(false);
        self.matcher.holders(&mut self.shown);
        let mut room = usize::MAX;
        for (shown, slot) in self.shown.iter_mut().zip(&self.lanes) {
            *shown &= slot.lane.live();
            if *shown {
                room = room.min(slot.lane.pending_room());
            }
        }
        room
    }

    /// A bulk pass went by `tokens` of the stream: every lane's sampler
    /// moves past them, none having buffered anything on the way. (Inlined:
    /// skips are as frequent as tokens.)
    #[inline(always)]
    fn charge_pass(&mut self, tokens: u64) {
        self.tokens += tokens;
        for slot in &mut self.lanes {
            slot.lane.tick(self.tokens);
        }
    }
}

/// `lane`'s symbol for table symbol `shared`, spelled `name`.
#[inline]
fn local(remap: &mut Vec<Symbol>, lane: &mut Lane, shared: Symbol, name: &str) -> Symbol {
    const UNSEEN: Symbol = Symbol(u32::MAX);
    let i = shared.index();
    if i >= remap.len() {
        remap.resize(i + 1, UNSEEN);
    }
    if remap[i] == UNSEEN {
        remap[i] = lane.symbols_mut().intern(name);
    }
    remap[i]
}

/// Drop the query tags of `tagged` into `roles`, for [`lane_roles`].
#[inline]
fn untag(tagged: &[TaggedRole], roles: &mut Vec<(RoleId, u32)>) {
    roles.clear();
    roles.extend(tagged.iter().map(|&(_, r, c)| (r, c)));
}

/// Lane `i`'s sub-slice of `roles`, the untagged `tagged`. The list is
/// sorted by tag and the lanes come in tag order, so `at` (where the
/// previous lanes' roles ended) only moves forward.
#[inline]
fn lane_roles<'a>(
    tagged: &[TaggedRole],
    roles: &'a [(RoleId, u32)],
    at: &mut usize,
    i: usize,
) -> &'a [(RoleId, u32)] {
    let before = tagged[*at..].iter().take_while(|r| (r.0 as usize) < i);
    let from = *at + before.count();
    *at = from
        + tagged[from..]
            .iter()
            .take_while(|r| r.0 as usize == i)
            .count();
    &roles[from..*at]
}

#[cfg(test)]
#[path = "driver_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use crate::batch::{run, run_batch, BatchSession};
    use crate::{CompiledQuery, EngineError, EngineOptions};

    fn compile(texts: &[&str]) -> Vec<CompiledQuery> {
        texts
            .iter()
            .map(|t| CompiledQuery::compile(t).unwrap())
            .collect()
    }

    fn standalone(q: &CompiledQuery, doc: &str) -> Vec<u8> {
        let mut out = Vec::new();
        crate::run(q, &EngineOptions::gcx(), doc.as_bytes(), &mut out).unwrap();
        out
    }

    const DOC: &str = "<bib><book><title>Streams</title><price>10</price></book>\
                       <article><title>Pipes</title></article></bib>";

    #[test]
    fn batch_matches_standalone_outputs() {
        let queries = compile(&[
            "<r>{ for $b in /bib/book return $b/title }</r>",
            "for $a in /bib/article return $a",
            "for $t in /bib/book/price return $t/text()",
            "'constant'",
        ]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        assert_eq!(report.queries.len(), 4);
        for (q, run) in queries.iter().zip(&report.queries) {
            let expected = standalone(q, DOC);
            assert_eq!(run.output, expected);
            let r = run.report.as_ref().unwrap();
            assert_eq!(r.buffer.live, 0, "lane buffer must drain");
        }
        assert!(report.tokens > 0);
        assert!(report.share_factor() > 1.0, "4 queries must share the scan");
    }

    #[test]
    fn single_query_batch_works() {
        let queries = compile(&["for $b in /bib/book return $b/title"]);
        let report = run_batch(&queries, DOC.as_bytes()).unwrap();
        assert_eq!(report.queries[0].output, standalone(&queries[0], DOC));
    }

    #[test]
    fn empty_batch_scans_input() {
        let report = run_batch(&[], DOC.as_bytes()).unwrap();
        assert!(report.queries.is_empty());
        assert_eq!(report.tokens, 15);
    }

    #[test]
    fn malformed_input_fails_the_batch() {
        let queries = compile(&["for $b in /bib/book return $b"]);
        let err = run_batch(&queries, "<bib><book></bib>".as_bytes());
        assert!(err.is_err(), "mismatched tags must fail the whole batch");
    }

    #[test]
    #[should_panic(expected = "GCX configuration")]
    fn a_batch_runs_no_other_mode() {
        let queries = compile(&["count(//book)"]);
        BatchSession::new(&queries, &EngineOptions::full_buffering());
    }

    #[test]
    fn a_batch_fed_again_after_malformed_input_stays_failed() {
        let queries = compile(&["for $b in /bib/book return $b", "count(//book)"]);
        let mut session = BatchSession::new(&queries, &EngineOptions::gcx());
        let err = session
            .feed(b"<bib><book>x</bib>")
            .expect_err("mismatched tag");
        assert!(matches!(err, EngineError::Xml(_)), "{err}");
        // The scan stopped inside the document: every later feed, and the
        // end of input, report that the run failed.
        let err = session.feed(b"</book></bib>").expect_err("failed before");
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
        let err = session.finish().expect_err("failed before");
        assert!(matches!(err, EngineError::Internal(_)), "{err}");
    }

    #[test]
    fn a_search_opens_what_it_passed_after_every_lane_failed() {
        // 200 nested role-less elements under `//item` and a 4 KiB budget:
        // the search opens the elements it passed until the budget fails
        // the lane, then goes on with nobody left to show them to — and
        // must still enter each into the matcher, whose frames their end
        // tags close.
        let queries = compile(&["for $i in //item return $i"]);
        let opens: String = (0..200).map(|k| format!("<a{k}>")).collect();
        let closes: String = (0..200).rev().map(|k| format!("</a{k}>")).collect();
        let doc = format!("<r>{opens}<item/>{closes}</r>");
        let opts = EngineOptions::gcx().with_max_buffer_bytes(4096);
        let report = run(&queries, &opts, doc.as_bytes()).unwrap();
        let lane = report.queries[0].report.as_ref();
        assert!(lane.is_err_and(EngineError::is_buffer_limit), "{lane:?}");
        assert_eq!(report.tokens, 404);
    }

    #[test]
    fn telemetry_flows_into_lane_reports() {
        let queries = compile(&[
            "for $b in /bib/book return $b/title",
            "for $a in /bib/article return $a",
        ]);
        let opts = EngineOptions {
            telemetry: true,
            ..EngineOptions::gcx()
        };
        let mut session = BatchSession::new(&queries, &opts);
        for piece in DOC.as_bytes().chunks(16) {
            session.feed(piece).unwrap();
        }
        let report = session.finish().unwrap();
        for (q, run) in queries.iter().zip(&report.queries) {
            assert_eq!(run.output, standalone(q, DOC));
            let r = run.report.as_ref().unwrap();
            let obs = r.obs.as_ref().expect("telemetry must reach the lanes");
            // Every lane carries the shared scan's feed track.
            assert_eq!(r.feed_calls, DOC.len().div_ceil(16) as u64);
            assert_eq!(obs.feed_spans.len() as u64, r.feed_calls);
            assert_eq!(
                obs.feed_spans.iter().map(|s| s.bytes).sum::<u64>(),
                DOC.len() as u64
            );
        }
    }
}

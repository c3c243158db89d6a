//! The flow network: links + active flows + time integration.
//!
//! [`FlowNet`] is driven by an external event loop. The contract is:
//!
//! 1. mutate the network only at the current time ([`FlowNet::start_flow`],
//!    [`FlowNet::set_link_capacity`]), after calling [`FlowNet::advance`]
//!    to that time;
//! 2. after every mutation, ask [`FlowNet::next_event_time`] and schedule a
//!    wake-up event then. The answer is predicted from the network's own
//!    clock ([`FlowNet::last_advance`]) and two bounds the network keeps
//!    current as flows change (the smallest remaining latency and the
//!    smallest time to completion), so it walks no flows; a loop may ask
//!    after every event, network or not. The answer is also memoized
//!    until the next change (an advance that moves time, a flow start, a
//!    capacity change or a reset), because the memo is part of
//!    [`FlowNet::key_into`]'s state;
//! 3. on wake-up, call [`FlowNet::advance`] and drain the completed flows'
//!    tags with [`FlowNet::drain_completed_into`].
//!
//! A flow is known only by the caller's tag: the network hands it back on
//! completion and keeps no other handle.
//!
//! Stale wake-ups (scheduled before a topology change) are harmless: they
//! simply find nothing completed.
//!
//! Utilisation (time-weighted load / capacity) is integrated only for
//! links registered with [`FlowNet::track_utilization`]. Every solve or
//! shortcut re-anchors each registered integral, so an unread link would
//! cost work on every network event; an unregistered one costs none, and
//! asking for its utilisation panics rather than report an idle 0.
//!
//! Flow state lives in a free-list slab (`Vec<FlowSlot>`): start and
//! complete are O(1) and a steady-state start/advance/complete cycle
//! performs no heap allocation — slots and their route buffers are
//! recycled, and the solver works off pooled flat route buffers. An
//! intrusive doubly-linked list threads the live slots in creation order,
//! so every iteration (and therefore every floating-point accumulation
//! order) is identical to the former `BTreeMap`-by-id walk.
//!
//! Per-event work is one walk over the live flows per [`FlowNet::advance`]
//! segment (plus a full solve's own walks): that walk moves every flow,
//! lists the flows that finished, and recomputes the next-change bounds
//! (`NextChange`). A flow start and a shortcut settle fold only the flows
//! they touch into the bounds; a prediction only reads them. Debug builds
//! check the bounds and the finished list against a walk of every flow
//! after each start, advance and capacity change, and check each
//! prediction against the walk's.

use stash_simkit::time::{SimDuration, SimTime};

use stash_simkit::stats::TimeWeighted;

use stash_trace::{Category, SharedTracer, Track};

use crate::fairness::{max_min_rates, MaxMinScratch};
use crate::link::{Link, LinkClass, LinkId};

/// Sentinel for "no slot" in the intrusive creation-order list.
const NIL: u32 = u32::MAX;

/// Seconds until a transferring flow completes at its current rate.
///
/// Callers take the minimum over flows in f64 and convert that one value
/// with [`SimDuration::from_secs_f64`], instead of converting (and
/// rounding) once per flow. That is exact: the conversion is monotone on
/// `[0, inf)`, so it maps the smallest ratio to the smallest duration. A
/// non-finite ratio (a rate so small the division overflows) maps to 0,
/// which converts to the same zero duration as the ratio itself would.
fn ttc_secs(remaining_bytes: f64, rate: f64) -> f64 {
    let ttc = remaining_bytes / rate;
    if ttc.is_finite() {
        ttc
    } else {
        0.0
    }
}

/// The two minima the network's next self-driven change depends on, valid
/// as of [`FlowNet::last_advance`]: the smallest remaining latency of a
/// latency-phase flow, and the smallest [`ttc_secs`] of a transferring
/// flow with a positive, finite rate (`None` when no flow qualifies).
///
/// Both minima are over values that are never NaN or `-0.0`, so each is
/// the same in any visiting order: folding flows in one at a time as they
/// change gives the bits a walk over every flow would.
#[derive(Debug, Clone, Copy, Default)]
struct NextChange {
    latency: Option<SimDuration>,
    ttc: Option<f64>,
}

impl NextChange {
    /// Folds one live flow's contribution into the bounds.
    fn fold(&mut self, f: &FlowSlot) {
        if !f.remaining_latency.is_zero() {
            self.latency = Some(
                self.latency
                    .map_or(f.remaining_latency, |m| m.min(f.remaining_latency)),
            );
        } else if f.remaining_bytes > 0.0 && f.rate > 0.0 && f.rate.is_finite() {
            let ttc = ttc_secs(f.remaining_bytes, f.rate);
            self.ttc = Some(self.ttc.map_or(ttc, |m| m.min(ttc)));
        }
    }

    /// Length of the next [`FlowNet::advance`] segment within `dt`: up to
    /// the first latency expiry or predicted completion, at least 1 ns.
    fn segment(&self, dt: SimDuration) -> SimDuration {
        let mut seg = dt;
        if let Some(l) = self.latency {
            seg = seg.min(l);
        }
        if let Some(c) = self.ttc {
            seg = seg.min(SimDuration::from_secs_f64(c).max(SimDuration::from_nanos(1)));
        }
        seg
    }

    /// The next latency expiry or completion after `now`, a completion
    /// padded by 1 ns so its residue has surely drained.
    fn next_event(&self, now: SimTime) -> Option<SimTime> {
        let expiry = self.latency.map(|l| now + l);
        let completion = self
            .ttc
            .map(|c| now + SimDuration::from_secs_f64(c) + SimDuration::from_nanos(1));
        match (expiry, completion) {
            (Some(e), Some(c)) => Some(e.min(c)),
            (e, c) => e.or(c),
        }
    }
}

/// One slab slot: either a live flow or a vacant entry on the free list.
/// The route buffers keep their capacity across reuse.
#[derive(Debug, Clone)]
struct FlowSlot {
    in_use: bool,
    /// Monotonic creation counter, used for trace track identity (stable
    /// across slot reuse, matching the former ever-growing flow id).
    serial: u64,
    /// Intrusive doubly-linked list threading live slots in creation order.
    prev: u32,
    next: u32,
    route: Vec<usize>,
    /// `route` sorted and deduplicated, computed once at start: what the
    /// fair-share allocator and the per-link user counts operate on.
    route_dedup: Vec<usize>,
    remaining_latency: SimDuration,
    remaining_bytes: f64,
    rate: f64,
    /// Whether this flow currently contributes to [`FlowNet::link_users`]
    /// (latency elapsed, bytes outstanding).
    counted: bool,
    tag: u64,
    /// Stall class for trace events, derived from the route's link
    /// classes at start.
    cat: Category,
}

impl FlowSlot {
    fn vacant() -> FlowSlot {
        FlowSlot {
            in_use: false,
            serial: 0,
            prev: NIL,
            next: NIL,
            route: Vec::new(),
            route_dedup: Vec::new(),
            remaining_latency: SimDuration::ZERO,
            remaining_bytes: 0.0,
            rate: 0.0,
            counted: false,
            tag: 0,
            cat: Category::Interconnect,
        }
    }
}

/// A link whose utilisation someone reads, with its integral.
#[derive(Debug)]
struct TrackedLink {
    link: usize,
    /// Instantaneous load / capacity, integrated over time.
    load: TimeWeighted,
}

/// A set of links plus the flows currently crossing them.
///
/// Rates are recomputed with max-min fairness at every state change; between
/// changes every flow progresses linearly, so completions can be predicted
/// exactly.
///
/// # Examples
///
/// ```
/// use stash_flowsim::prelude::*;
/// use stash_simkit::time::{SimDuration, SimTime};
///
/// let mut net = FlowNet::new();
/// let l = net.add_link(Link::new("bus", 100.0, SimDuration::ZERO, LinkClass::PcieHostBus));
/// net.start_flow(SimTime::ZERO, &[l], 50.0, SimDuration::ZERO, 7);
/// let done = net.next_event_time().unwrap();
/// assert!((done.as_secs_f64() - 0.5).abs() < 1e-6); // 50 bytes at 100 B/s
/// net.advance(done);
/// let mut tags = Vec::new();
/// net.drain_completed_into(&mut tags);
/// assert_eq!(tags, [7]);
/// ```
#[derive(Debug)]
pub struct FlowNet {
    links: Vec<Link>,
    /// Flow slab: live slots are threaded by `head`/`tail` in creation
    /// order, vacant slots sit on `free`.
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    n_active: usize,
    next_serial: u64,
    /// Tags of the flows completed since the last drain, in completion
    /// order.
    completed: Vec<u64>,
    last_advance: SimTime,
    /// Utilisation integrals of the links registered with
    /// [`FlowNet::track_utilization`], in registration order.
    tracked: Vec<TrackedLink>,
    /// Memoized [`FlowNet::next_event_time`] answer; `None` once a change
    /// may have moved it.
    next_event: Option<Option<SimTime>>,
    /// Next-change bounds of the live flows, valid as of `last_advance`.
    next_change: NextChange,
    /// Link capacities, mirrored from `links` so rate solves skip the
    /// per-event rebuild.
    caps: Vec<f64>,
    /// Per-link count of counted (allocator-visible) flows. Lets state
    /// changes that touch only uncontended links skip the full solve.
    link_users: Vec<u32>,
    /// Per-link instantaneous rate sum of counted flows — the numerator
    /// of the utilisation signal, maintained incrementally.
    link_rate_load: Vec<f64>,
    /// Reusable water-filling working memory.
    scratch: MaxMinScratch,
    /// Reusable slot-index buffers for the allocator and settling:
    /// `activated_buf` and `done_buf` list, in creation order, the flows
    /// that entered their transfer phase or finished since the last
    /// settle, for `collect_done` to consume.
    active_ids: Vec<u32>,
    activated_buf: Vec<u32>,
    done_buf: Vec<u32>,
    freed_buf: Vec<usize>,
    /// Pooled flat-packed dedup routes handed to the solver (one span per
    /// entry of `active_ids`).
    routes_flat: Vec<usize>,
    routes_spans: Vec<(u32, u32)>,
    /// Full water-filling solves performed (diagnostics).
    full_recomputes: u64,
    /// State changes settled without a full solve (diagnostics).
    shortcut_events: u64,
    /// Optional load probe: while set, every utilisation re-anchor of this
    /// link appends a `(time, load/cap)` sample — the exact set-sequence of
    /// its time-weighted integral, replayable by the engine's steady-state
    /// fast-forward.
    probe_link: Option<usize>,
    probe_buf: Vec<(SimTime, f64)>,
    /// Optional event recorder: flow lifecycle instants, allocated-rate
    /// counters and solver activity. `None` (the default) is the
    /// zero-cost path — every emission site gates on one `is_some`.
    tracer: Option<SharedTracer>,
}

impl Default for FlowNet {
    fn default() -> Self {
        FlowNet {
            links: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            n_active: 0,
            next_serial: 0,
            completed: Vec::new(),
            last_advance: SimTime::ZERO,
            tracked: Vec::new(),
            next_event: None,
            next_change: NextChange::default(),
            caps: Vec::new(),
            link_users: Vec::new(),
            link_rate_load: Vec::new(),
            scratch: MaxMinScratch::new(),
            active_ids: Vec::new(),
            activated_buf: Vec::new(),
            done_buf: Vec::new(),
            freed_buf: Vec::new(),
            routes_flat: Vec::new(),
            routes_spans: Vec::new(),
            full_recomputes: 0,
            shortcut_events: 0,
            probe_link: None,
            probe_buf: Vec::new(),
            tracer: None,
        }
    }
}

impl FlowNet {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Returns the network to its freshly-constructed state while keeping
    /// every buffer's capacity (slab slots, route vectors, solver scratch),
    /// so a reused network behaves bit-identically to a new one without
    /// reallocating. The tracer, the load probe and every utilisation
    /// registration are dropped.
    pub fn reset(&mut self) {
        let mut i = self.head;
        while i != NIL {
            let f = &mut self.slots[i as usize];
            let next = f.next;
            f.in_use = false;
            f.route.clear();
            f.route_dedup.clear();
            self.free.push(i);
            i = next;
        }
        self.head = NIL;
        self.tail = NIL;
        self.n_active = 0;
        self.next_serial = 0;
        self.links.clear();
        self.caps.clear();
        self.tracked.clear();
        self.next_event = None;
        self.next_change = NextChange::default();
        self.link_users.clear();
        self.link_rate_load.clear();
        self.completed.clear();
        self.last_advance = SimTime::ZERO;
        self.active_ids.clear();
        self.activated_buf.clear();
        self.done_buf.clear();
        self.freed_buf.clear();
        self.routes_flat.clear();
        self.routes_spans.clear();
        self.full_recomputes = 0;
        self.shortcut_events = 0;
        self.probe_link = None;
        self.probe_buf.clear();
        self.tracer = None;
    }

    /// Attaches a trace recorder: subsequent flow starts, completions,
    /// rate changes and full solver runs are emitted as events. Pass the
    /// engine's shared tracer so network activity lands on the same
    /// timeline as compute spans.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Takes a slot off the free list (or grows the slab) and links it at
    /// the tail of the creation-order list.
    fn alloc_slot(&mut self) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let Ok(idx) = u32::try_from(self.slots.len()) else {
                    unreachable!("too many flows: slot index exceeds u32")
                };
                self.slots.push(FlowSlot::vacant());
                idx
            }
        };
        let tail = self.tail;
        {
            let s = &mut self.slots[idx as usize];
            debug_assert!(!s.in_use);
            s.in_use = true;
            s.prev = tail;
            s.next = NIL;
        }
        if tail != NIL {
            self.slots[tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        self.n_active += 1;
        stash_telemetry::metrics::FLOWS_ACTIVE_HIGH_WATER.record_max(self.n_active as u64);
        stash_telemetry::metrics::FLOW_SLOTS_HIGH_WATER.record_max(self.slots.len() as u64);
        idx
    }

    /// Unlinks a slot from the live list and returns it to the free list.
    /// Route buffers keep their capacity.
    fn release_slot(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &mut self.slots[idx as usize];
            debug_assert!(s.in_use);
            s.in_use = false;
            s.route.clear();
            s.route_dedup.clear();
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(idx);
        self.n_active -= 1;
    }

    /// Stall class of a route: network hops dominate, then storage/DRAM
    /// (input fetch), everything else is intra-node interconnect.
    fn classify(&self, route_dedup: &[usize]) -> Category {
        let mut cat = Category::Interconnect;
        for &l in route_dedup {
            match self.links[l].class {
                LinkClass::Network => return Category::Network,
                LinkClass::Storage | LinkClass::Dram => cat = Category::Fetch,
                _ => {}
            }
        }
        cat
    }

    /// Registers a link and returns its id.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        let Ok(raw) = u32::try_from(self.links.len()) else {
            unreachable!("too many links: link index exceeds u32")
        };
        let id = LinkId(raw);
        self.caps.push(link.capacity_bps);
        self.links.push(link);
        self.link_users.push(0);
        self.link_rate_load.push(0.0);
        id
    }

    /// Starts integrating `id`'s utilisation (load / capacity,
    /// time-weighted) from the current time and load, for
    /// [`FlowNet::link_utilization`] and [`FlowNet::replay_probe_load`].
    /// Registering a link twice keeps its first integral.
    pub fn track_utilization(&mut self, id: LinkId) {
        let link = id.index();
        if self.tracked.iter().any(|t| t.link == link) {
            return;
        }
        let load = self.link_rate_load[link] / self.caps[link];
        self.tracked.push(TrackedLink {
            link,
            load: TimeWeighted::new(load, self.last_advance),
        });
    }

    /// Position of `id` among the registered links.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, if `id` was never registered.
    fn tracked_index(&self, id: LinkId) -> usize {
        let link = id.index();
        match self.tracked.iter().position(|t| t.link == link) {
            Some(k) => k,
            None => panic!(
                "link {link} ({}) has no utilisation integral: register it with \
                 FlowNet::track_utilization",
                self.links
                    .get(link)
                    .map_or("not in this network", |l| &l.name)
            ),
        }
    }

    /// Mean utilisation (load / capacity, time-weighted) of `id` from its
    /// [`FlowNet::track_utilization`] registration to the last advance.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, if `id` was never registered: it has no
    /// integral, and a 0 would read as an idle link.
    #[must_use]
    pub fn link_utilization(&self, id: LinkId) -> f64 {
        self.tracked[self.tracked_index(id)]
            .load
            .mean_until(self.last_advance)
    }

    /// Immutable access to a link definition.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of registered links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Changes a link's capacity at time `now` (fault injection: link
    /// degradation windows, storage brownouts). Progress up to `now` is
    /// settled at the old rates first, then every flow rate is re-solved
    /// against the new capacity, so the change takes effect exactly at
    /// `now` and utilisation integrals stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bps` is not finite and positive, or if `now`
    /// precedes the last observed time.
    pub fn set_link_capacity(&mut self, now: SimTime, id: LinkId, capacity_bps: f64) {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be finite and positive, got {capacity_bps}"
        );
        self.advance(now);
        self.next_event = None;
        self.links[id.index()].capacity_bps = capacity_bps;
        self.caps[id.index()] = capacity_bps;
        // New rates finish no flow: only an empty route's infinite rate
        // does, and such a flow never outlives its settle.
        self.recompute_rates();
        #[cfg(debug_assertions)]
        self.assert_walk_oracle();
    }

    /// Time of the most recent [`FlowNet::advance`].
    #[must_use]
    pub fn last_advance(&self) -> SimTime {
        self.last_advance
    }

    /// Starts a flow of `bytes` over `route` (links in order; empty for an
    /// unconstrained transfer that still pays latency) at time `now`,
    /// which must not precede the last advance. It first waits out the
    /// route's link latencies plus `extra_latency`. `tag` is handed back
    /// by [`FlowNet::drain_completed_into`] when the flow completes. The
    /// route is copied into a recycled slot's pooled buffers, so a caller
    /// can start many flows from one route description without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite, or if `now` precedes the
    /// last observed time.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        route: &[LinkId],
        bytes: f64,
        extra_latency: SimDuration,
        tag: u64,
    ) {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow bytes must be non-negative"
        );
        self.advance(now);
        self.next_event = None;
        let latency: SimDuration = route
            .iter()
            .map(|l| self.links[l.index()].latency)
            .sum::<SimDuration>()
            + extra_latency;
        let counted = latency.is_zero() && bytes > 0.0;
        // Finished at its start: no latency to wait out, and no bytes to
        // move or no link to move them over. Every other live flow was
        // settled by `advance`, so this is the only flow that can be done.
        let finished = latency.is_zero() && (bytes <= 0.0 || route.is_empty());
        let idx = self.alloc_slot();
        let serial = self.next_serial;
        self.next_serial += 1;
        {
            let s = &mut self.slots[idx as usize];
            s.serial = serial;
            s.route.clear();
            s.route.extend(route.iter().map(|l| l.index()));
            s.route_dedup.clear();
            s.route_dedup.extend_from_slice(&s.route);
            s.route_dedup.sort_unstable();
            s.route_dedup.dedup();
            s.remaining_latency = latency;
            s.remaining_bytes = bytes;
            s.rate = 0.0;
            s.counted = counted;
            s.tag = tag;
            s.cat = Category::Interconnect;
        }
        if self.tracer.is_some() {
            let cat = self.classify(&self.slots[idx as usize].route_dedup);
            self.slots[idx as usize].cat = cat;
            if let Some(tr) = &self.tracer {
                tr.borrow_mut()
                    .instant(Track::flow(serial), cat, "flow_start", now);
            }
        }
        if counted {
            let f = &self.slots[idx as usize];
            for &l in &f.route_dedup {
                self.link_users[l] += 1;
            }
            let f = &self.slots[idx as usize];
            let alone = f.route_dedup.iter().all(|&l| self.link_users[l] == 1);
            if alone {
                // Disjoint from every other active flow: the allocator
                // would give it min-capacity of its links and leave the
                // rest untouched, so assign that directly.
                self.settle_alone_flow(idx);
                self.shortcut_events += 1;
                stash_telemetry::metrics::SOLVER_SHORTCUT_EVENTS.inc();
                self.touch_loads();
            } else {
                self.recompute_rates();
            }
        } else {
            // Latency-phase flows are invisible to the allocator: rates
            // are unchanged, only the load integrals get their segment
            // boundary.
            self.next_change.fold(&self.slots[idx as usize]);
            self.shortcut_events += 1;
            stash_telemetry::metrics::SOLVER_SHORTCUT_EVENTS.inc();
            self.touch_loads();
        }
        if finished {
            self.done_buf.push(idx);
            self.collect_done();
        }
        #[cfg(debug_assertions)]
        self.assert_walk_oracle();
    }

    /// Advances the network state to `now`, progressing latencies and byte
    /// counts. Completions are queued for
    /// [`FlowNet::drain_completed_into`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if `now` precedes the last advance.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "time moved backwards");
        if now <= self.last_advance {
            return;
        }
        self.next_event = None;
        let mut dt = now.duration_since(self.last_advance);
        // Process the interval in segments bounded by latency expiries and
        // predicted flow completions, so that (a) a flow entering its
        // transfer phase mid-interval gets correct rates for the remainder
        // and (b) bandwidth freed by a completing flow is redistributed to
        // the survivors for the rest of the interval. One walk per segment
        // moves every flow, lists the ones that finished and recomputes
        // the bounds that cut the next segment.
        while !dt.is_zero() {
            let seg = self.next_change.segment(dt);
            let mut next_change = NextChange::default();
            let mut i = self.head;
            while i != NIL {
                let f = &mut self.slots[i as usize];
                let next = f.next;
                if !f.remaining_latency.is_zero() {
                    f.remaining_latency = f.remaining_latency.saturating_sub(seg);
                    if f.remaining_latency.is_zero() {
                        if f.remaining_bytes > 0.0 {
                            // Entering the transfer phase: join the
                            // allocator's user counts; rates settle at the
                            // boundary below.
                            f.counted = true;
                            for &l in &f.route_dedup {
                                self.link_users[l] += 1;
                            }
                            self.activated_buf.push(i);
                        }
                        if f.remaining_bytes <= 0.0 || f.route.is_empty() {
                            self.done_buf.push(i);
                        }
                    }
                } else if f.remaining_bytes > 0.0 {
                    let moved = f.rate * seg.as_secs_f64();
                    f.remaining_bytes -= moved;
                    // Snap tiny residues (< 1 ns worth of transfer) to done
                    // so rounding cannot stall the loop.
                    if f.remaining_bytes <= f.rate * 1e-9 {
                        f.remaining_bytes = 0.0;
                        self.done_buf.push(i);
                    }
                }
                // A flow that just activated has no rate yet and a finished
                // one no bytes or no route: neither counts until settled.
                next_change.fold(f);
                i = next;
            }
            self.next_change = next_change;
            dt -= seg;
            // Advance the clock segment-by-segment so rate changes (and the
            // utilisation integrals they update) land at the right instant.
            self.last_advance += seg;
            if !self.done_buf.is_empty() || !self.activated_buf.is_empty() {
                self.collect_done();
            }
        }
        self.last_advance = now;
        #[cfg(debug_assertions)]
        self.assert_walk_oracle();
    }

    /// Hands over the tags of the flows completed since the last call, in
    /// completion order: clears `out` and swaps it with the internal
    /// completion buffer, so both vectors keep their capacity across
    /// calls.
    pub fn drain_completed_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        std::mem::swap(&mut self.completed, out);
    }

    /// Earliest time at which the network's state changes by itself: a
    /// latency expiry or a flow completion, predicted from the network's
    /// own clock ([`FlowNet::last_advance`]). `None` when nothing is in
    /// flight, or when every live flow is starved until a topology change.
    ///
    /// The answer is read from the smallest remaining latency and the
    /// smallest time to completion, which the network keeps current as
    /// flows change, so asking walks no flows. It is also memoized until
    /// something can move it (an [`advance`](FlowNet::advance) that moves
    /// time, a flow start, a capacity change or a reset), because the
    /// memo is part of the state [`FlowNet::key_into`] writes.
    #[must_use]
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let t = match self.next_event {
            Some(t) => t,
            None => {
                let t = self.next_change.next_event(self.last_advance);
                self.next_event = Some(t);
                t
            }
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            t,
            self.walk_next_event(),
            "next event differs from a walk over every flow"
        );
        t
    }

    /// Solves steady-state rates for a hypothetical set of routes without
    /// touching live state — used by bandwidth probes (paper Fig. 7).
    #[must_use]
    pub fn probe_rates(&self, routes: &[Vec<LinkId>]) -> Vec<f64> {
        let caps: Vec<f64> = self.links.iter().map(|l| l.capacity_bps).collect();
        let idx_routes: Vec<Vec<usize>> = routes
            .iter()
            .map(|r| r.iter().map(|l| l.index()).collect())
            .collect();
        max_min_rates(&caps, &idx_routes)
    }

    /// Number of full water-filling solves and of events settled by the
    /// incremental shortcuts instead, since construction.
    #[must_use]
    pub fn recompute_stats(&self) -> (u64, u64) {
        (self.full_recomputes, self.shortcut_events)
    }

    /// Starts recording `(time, load/cap)` samples for `link`: every
    /// utilisation re-anchor appends the exact value fed to the link's
    /// time-weighted integral. The engine's fast-forward replays the
    /// samples of one proven period, shifted in time, for each period it
    /// skips ([`FlowNet::replay_probe_load`]).
    pub fn set_load_probe(&mut self, link: LinkId) {
        self.probe_link = Some(link.index());
        self.probe_buf.clear();
    }

    /// Stops load-probe recording.
    pub fn clear_load_probe(&mut self) {
        self.probe_link = None;
    }

    /// Moves the samples recorded since the last call to the end of `out`;
    /// the probe's buffer keeps its capacity.
    pub fn take_probe_samples(&mut self, out: &mut Vec<(SimTime, f64)>) {
        out.extend_from_slice(&self.probe_buf);
        self.probe_buf.clear();
    }

    /// Replays a recorded load cycle onto `link`'s utilisation integral:
    /// for each repetition `k` in `1..=periods`, every sample `(t, v)` is
    /// re-applied at `t + k * period`. Because the integral is
    /// piecewise-constant and integrated over time *deltas*, a time-shifted
    /// replay of an identical cycle contributes bit-identical mass — this
    /// is the fast-forward's substitute for simulating the cycles.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, if `link` is not registered with
    /// [`FlowNet::track_utilization`]: there is no integral to extend.
    pub fn replay_probe_load(
        &mut self,
        link: LinkId,
        samples: &[(SimTime, f64)],
        period: SimDuration,
        periods: u64,
    ) {
        let k = self.tracked_index(link);
        self.tracked[k].load.repeat(samples, period, periods);
    }

    /// Moves the network's clock, and its memoized next event, `d` later
    /// without moving a byte: flows, rates and link loads keep their
    /// state, so the network behaves from the new time exactly as it would
    /// have from the old one. Utilisation integrals are not extended:
    /// replay each registered link's load cycle into the gap with
    /// [`FlowNet::replay_probe_load`] first, or the integral holds its
    /// last load across it.
    pub fn shift(&mut self, d: SimDuration) {
        self.last_advance += d;
        if let Some(Some(t)) = &mut self.next_event {
            *t += d;
        }
    }

    /// Appends the network's complete dynamic state to `key`, every time
    /// relative to `base` (wrapping): the memoized next event, the
    /// undrained completions' tags, the clock while any flow is live, each
    /// live flow in creation order (tag, route, remaining latency,
    /// remaining-bytes and rate bits, counted flag) and each link's user
    /// count, load sum and capacity bits. Two networks with equal keys
    /// evolve identically, offset by the difference of their bases.
    ///
    /// Utilisation integrals, counters and slot indices are outside the
    /// state: none of them steers a rate or a completion. Neither does an
    /// idle network's clock, which only records when the network last
    /// moved: the next start or capacity change first advances it to its
    /// own time. [`FlowNet::link_utilization`] does read it, as the end of
    /// the integral, so a caller that [`shift`](FlowNet::shift)s an idle
    /// network must know whether its clock would have moved meanwhile.
    pub fn key_into(&self, base: SimTime, key: &mut Vec<u64>) {
        let rel = |t: SimTime| t.as_nanos().wrapping_sub(base.as_nanos());
        match self.next_event {
            None => key.push(0),
            Some(None) => key.push(1),
            Some(Some(t)) => key.extend([2, rel(t)]),
        }
        key.push(self.completed.len() as u64);
        key.extend_from_slice(&self.completed);
        key.push(self.n_active as u64);
        if self.n_active > 0 {
            key.push(rel(self.last_advance));
        }
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            key.extend([f.tag, f.route.len() as u64]);
            key.extend(f.route.iter().map(|&l| l as u64));
            key.extend([
                f.remaining_latency.as_nanos(),
                f.remaining_bytes.to_bits(),
                f.rate.to_bits(),
                u64::from(f.counted),
            ]);
            i = f.next;
        }
        for l in 0..self.links.len() {
            key.extend([
                u64::from(self.link_users[l]),
                self.link_rate_load[l].to_bits(),
                self.caps[l].to_bits(),
            ]);
        }
    }

    /// Assigns the exact allocator outcome for a counted flow that shares
    /// no link with any other counted flow: the minimum capacity along its
    /// route (infinite for an empty route), with its links' load sums
    /// updated in place and its time to completion folded into the
    /// next-change bounds. Every other flow's rate and load is untouched —
    /// which is also exactly what a full solve would conclude, since the
    /// flow forms its own component of the flow/link sharing graph.
    fn settle_alone_flow(&mut self, idx: u32) {
        let f = &mut self.slots[idx as usize];
        let rate = f
            .route_dedup
            .iter()
            .map(|&l| self.caps[l])
            .fold(f64::INFINITY, f64::min);
        f.rate = rate;
        self.next_change.fold(f);
        let cat = f.cat;
        let serial = f.serial;
        if rate.is_finite() {
            for &l in &f.route {
                self.link_rate_load[l] += rate;
            }
        }
        if let Some(tr) = &self.tracer {
            tr.borrow_mut().counter(
                Track::flow(serial),
                cat,
                "rate_bps",
                self.last_advance,
                rate,
            );
        }
    }

    /// Re-anchors every registered link's utilisation integral at the
    /// current time with its (maintained) load sum, and feeds the load
    /// probe. Full solves and shortcuts both end with this, so the
    /// integrals see identical segment boundaries either way. It re-anchors
    /// even an unchanged load: splitting a constant segment in two can
    /// change the f64 sum.
    fn touch_loads(&mut self) {
        for t in &mut self.tracked {
            t.load.set(
                self.last_advance,
                self.link_rate_load[t.link] / self.caps[t.link],
            );
        }
        if let Some(p) = self.probe_link {
            self.probe_buf
                .push((self.last_advance, self.link_rate_load[p] / self.caps[p]));
        }
    }

    fn recompute_rates(&mut self) {
        self.full_recomputes += 1;
        stash_telemetry::metrics::SOLVER_FULL_RECOMPUTES.inc();
        self.active_ids.clear();
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            if f.counted {
                self.active_ids.push(i);
            }
            i = f.next;
        }
        // Snapshot pre-solve rates (traced runs only) so only genuine
        // rate changes become counter samples.
        let old_rates: Option<Vec<f64>> = self.tracer.as_ref().map(|_| {
            self.active_ids
                .iter()
                .map(|&i| self.slots[i as usize].rate)
                .collect()
        });
        // Flat-pack the dedup routes into the pooled buffers — no
        // per-solve allocation.
        self.routes_flat.clear();
        self.routes_spans.clear();
        for &i in &self.active_ids {
            let Ok(lo) = u32::try_from(self.routes_flat.len()) else {
                unreachable!("route buffer overflow: flat index exceeds u32")
            };
            self.routes_flat
                .extend_from_slice(&self.slots[i as usize].route_dedup);
            let Ok(hi) = u32::try_from(self.routes_flat.len()) else {
                unreachable!("route buffer overflow: flat index exceeds u32")
            };
            self.routes_spans.push((lo, hi));
        }
        // Host wall-clock around the solve only: Instant is a syscall,
        // so even the timestamp is skipped while telemetry is off.
        let solve_t0 = stash_telemetry::enabled().then(std::time::Instant::now);
        let rates = self
            .scratch
            .solve_flat(&self.caps, &self.routes_flat, &self.routes_spans);
        if let Some(t0) = solve_t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stash_telemetry::metrics::SOLVER_RECOMPUTE_LATENCY_NS.record(ns);
        }
        let mut i = self.head;
        while i != NIL {
            let f = &mut self.slots[i as usize];
            f.rate = 0.0;
            i = f.next;
        }
        for (k, &idx) in self.active_ids.iter().enumerate() {
            self.slots[idx as usize].rate = rates[k];
        }
        // Refresh per-link load sums and integrals, and the next-change
        // bounds, which every new rate can move.
        self.link_rate_load.iter_mut().for_each(|v| *v = 0.0);
        let mut next_change = NextChange::default();
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            if f.remaining_latency.is_zero() && f.rate.is_finite() {
                for &l in &f.route {
                    self.link_rate_load[l] += f.rate;
                }
            }
            next_change.fold(f);
            i = f.next;
        }
        self.next_change = next_change;
        self.touch_loads();
        if let Some(tr) = &self.tracer {
            let mut t = tr.borrow_mut();
            t.instant(
                Track::solver(),
                Category::Solver,
                "full_solve",
                self.last_advance,
            );
            if let Some(old) = old_rates {
                for (k, &idx) in self.active_ids.iter().enumerate() {
                    let f = &self.slots[idx as usize];
                    if f.rate != old[k] {
                        t.counter(
                            Track::flow(f.serial),
                            f.cat,
                            "rate_bps",
                            self.last_advance,
                            f.rate,
                        );
                    }
                }
            }
        }
    }

    /// Moves the finished flows listed in `done_buf` to the completed
    /// queue and settles the flows listed in `activated_buf`, which just
    /// entered their transfer phase. Rates are recomputed only when a
    /// change can actually shift the allocation — a removal or activation
    /// whose links carry no other flow is settled directly.
    ///
    /// A removal leaves the next-change bounds alone: they were taken
    /// after the flow finished, when it had no latency and either no bytes
    /// left or, on an empty route, no finite rate, so it does not count in
    /// them.
    fn collect_done(&mut self) {
        self.freed_buf.clear();
        let mut done = std::mem::take(&mut self.done_buf);
        for &idx in &done {
            let (tag, counted, cat, serial) = {
                let f = &self.slots[idx as usize];
                (f.tag, f.counted, f.cat, f.serial)
            };
            self.completed.push(tag);
            if counted {
                let f = &self.slots[idx as usize];
                for &l in &f.route_dedup {
                    self.link_users[l] -= 1;
                    self.freed_buf.push(l);
                }
            }
            if let Some(tr) = &self.tracer {
                tr.borrow_mut()
                    .instant(Track::flow(serial), cat, "flow_done", self.last_advance);
            }
            self.release_slot(idx);
        }
        done.clear();
        self.done_buf = done;

        // A removal perturbs survivors only via links it shared with them;
        // an activation perturbs others only via links that already have a
        // user. If neither applies, the old allocation is still the
        // max-min solution for the survivors. No slot is allocated between
        // an activation and the settling that consumes it, so a released
        // activated slot is a flow that both activated and finished here
        // (e.g. an empty route): skip it.
        let needs_full = self.freed_buf.iter().any(|&l| self.link_users[l] > 0)
            || self.activated_buf.iter().any(|&i| {
                let s = &self.slots[i as usize];
                s.in_use && s.route_dedup.iter().any(|&l| self.link_users[l] != 1)
            });

        if needs_full {
            self.activated_buf.clear();
            self.recompute_rates();
        } else {
            for i in 0..self.freed_buf.len() {
                self.link_rate_load[self.freed_buf[i]] = 0.0;
            }
            let activated = std::mem::take(&mut self.activated_buf);
            for &idx in &activated {
                if self.slots[idx as usize].in_use {
                    self.settle_alone_flow(idx);
                }
            }
            self.activated_buf = activated;
            self.activated_buf.clear();
            self.shortcut_events += 1;
            stash_telemetry::metrics::SOLVER_SHORTCUT_EVENTS.inc();
            self.touch_loads();
        }
    }

    /// Walk oracle for the next-change bounds: both minima recomputed from
    /// scratch over every live flow.
    #[cfg(any(test, debug_assertions))]
    fn walk_next_change(&self) -> (Option<SimDuration>, Option<f64>) {
        let mut min_lat: Option<SimDuration> = None;
        let mut min_ttc: Option<f64> = None;
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            if !f.remaining_latency.is_zero() {
                min_lat = Some(min_lat.map_or(f.remaining_latency, |m| m.min(f.remaining_latency)));
            } else if f.remaining_bytes > 0.0 && f.rate > 0.0 && f.rate.is_finite() {
                let ttc = ttc_secs(f.remaining_bytes, f.rate);
                min_ttc = Some(min_ttc.map_or(ttc, |m| m.min(ttc)));
            }
            i = f.next;
        }
        (min_lat, min_ttc)
    }

    /// Walk oracle for [`FlowNet::next_event_time`]: the prediction made
    /// from every live flow. A finished flow left uncollected would show
    /// here as `now`.
    #[cfg(any(test, debug_assertions))]
    fn walk_next_event(&self) -> Option<SimTime> {
        let now = self.last_advance;
        let mut best: Option<SimTime> = None;
        let mut min_ttc: Option<f64> = None;
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            i = f.next;
            let t = if !f.remaining_latency.is_zero() {
                now + f.remaining_latency
            } else if f.remaining_bytes <= 0.0 {
                now
            } else if f.rate > 0.0 {
                let ttc = ttc_secs(f.remaining_bytes, f.rate);
                min_ttc = Some(min_ttc.map_or(ttc, |m| m.min(ttc)));
                continue;
            } else if f.rate.is_infinite() || f.route.is_empty() {
                now
            } else {
                continue; // starved flow: waits for a topology change
            };
            best = Some(best.map_or(t, |b: SimTime| b.min(t)));
        }
        if let Some(ttc) = min_ttc {
            let t = now + SimDuration::from_secs_f64(ttc) + SimDuration::from_nanos(1);
            best = Some(best.map_or(t, |b: SimTime| b.min(t)));
        }
        best
    }

    /// Checks the kept state against walks over every live flow: the
    /// next-change bounds equal the walk's bit for bit, no activation or
    /// completion waits unsettled, and no finished flow (latency over, and
    /// no bytes, no route or an infinite rate) is left uncollected.
    ///
    /// # Panics
    ///
    /// Panics, naming what differs, if any check fails.
    #[cfg(any(test, debug_assertions))]
    fn assert_walk_oracle(&self) {
        let (lat, ttc) = self.walk_next_change();
        assert!(
            self.next_change.latency == lat
                && self.next_change.ttc.map(f64::to_bits) == ttc.map(f64::to_bits),
            "next-change bounds {:?} differ from a walk over every flow ({lat:?}, {ttc:?})",
            self.next_change
        );
        assert!(
            self.done_buf.is_empty() && self.activated_buf.is_empty(),
            "flows left unsettled"
        );
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            assert!(
                !(f.remaining_latency.is_zero()
                    && (f.remaining_bytes <= 0.0 || f.route.is_empty() || f.rate.is_infinite())),
                "finished flow (tag {}) left uncollected",
                f.tag
            );
            i = f.next;
        }
    }

    /// Test-only view of the live flows in creation order: `(tag, route,
    /// current rate, counted)`.
    #[cfg(test)]
    fn live_flows(&self) -> Vec<(u64, Vec<usize>, f64, bool)> {
        let mut out = Vec::new();
        let mut i = self.head;
        while i != NIL {
            let f = &self.slots[i as usize];
            out.push((f.tag, f.route.clone(), f.rate, f.counted));
            i = f.next;
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use stash_simkit::rng::DetRng;

    fn mk_net(caps: &[f64]) -> (FlowNet, Vec<LinkId>) {
        let mut net = FlowNet::new();
        let ids = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                net.add_link(Link::new(
                    format!("l{i}"),
                    c,
                    SimDuration::ZERO,
                    LinkClass::Other,
                ))
            })
            .collect();
        (net, ids)
    }

    /// Starts a flow with no extra latency.
    fn start(net: &mut FlowNet, now: SimTime, route: &[LinkId], bytes: f64, tag: u64) {
        net.start_flow(now, route, bytes, SimDuration::ZERO, tag);
    }

    /// Drains the tags of the flows completed since the last drain.
    fn done(net: &mut FlowNet) -> Vec<u64> {
        let mut tags = Vec::new();
        net.drain_completed_into(&mut tags);
        tags
    }

    #[test]
    fn single_flow_completes_on_schedule() {
        let (mut net, l) = mk_net(&[100.0]);
        start(&mut net, SimTime::ZERO, &[l[0]], 200.0, 7);
        let t = net.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
        net.advance(t);
        assert_eq!(done(&mut net), [7]);
        assert!(net.live_flows().is_empty());
    }

    #[test]
    fn capacity_change_takes_effect_exactly_at_now() {
        let (mut net, l) = mk_net(&[100.0]);
        start(&mut net, SimTime::ZERO, &[l[0]], 200.0, 7);
        // Half the bytes move in the first second at 100 B/s; the link
        // then browns out to 50 B/s, so the rest takes two more seconds.
        let mid = SimTime::ZERO + SimDuration::from_secs(1);
        net.set_link_capacity(mid, l[0], 50.0);
        let t = net.next_event_time().unwrap();
        assert!(
            (t.as_secs_f64() - 3.0).abs() < 1e-6,
            "t={}",
            t.as_secs_f64()
        );
        net.advance(t);
        assert_eq!(done(&mut net).len(), 1);
        // Restoring the capacity with no flows in flight is harmless.
        net.set_link_capacity(t, l[0], 100.0);
        assert_eq!(net.link(l[0]).capacity_bps, 100.0);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let (mut net, l) = mk_net(&[100.0]);
        // Flow 1: 100 bytes, flow 2: 50 bytes, same link.
        start(&mut net, SimTime::ZERO, &[l[0]], 100.0, 1);
        start(&mut net, SimTime::ZERO, &[l[0]], 50.0, 2);
        // Shared at 50 B/s each: flow 2 finishes at t=1; flow 1 then runs
        // at 100 B/s with 50 bytes left → finishes at t=1.5.
        let t1 = net.next_event_time().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance(t1);
        assert_eq!(done(&mut net), [2]);
        let t2 = net.next_event_time().unwrap();
        assert!(
            (t2.as_secs_f64() - 1.5).abs() < 1e-6,
            "t2={}",
            t2.as_secs_f64()
        );
        net.advance(t2);
        assert_eq!(done(&mut net), [1]);
    }

    #[test]
    fn latency_delays_transfer_start() {
        let mut net = FlowNet::new();
        let l = net.add_link(Link::new(
            "lat",
            100.0,
            SimDuration::from_secs(1),
            LinkClass::Network,
        ));
        start(&mut net, SimTime::ZERO, &[l], 100.0, 0);
        // 1s latency + 1s transfer.
        let t1 = net.next_event_time().unwrap();
        assert_eq!(t1.as_secs_f64(), 1.0);
        net.advance(t1);
        assert!(done(&mut net).is_empty());
        let t2 = net.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-6);
        net.advance(t2);
        assert_eq!(done(&mut net).len(), 1);
    }

    #[test]
    fn advance_across_latency_boundary_is_exact() {
        // One flow with latency, one without, same link. Advancing in a
        // single big step must give the same result as stepping precisely.
        let mut net = FlowNet::new();
        let l = net.add_link(Link::new("b", 100.0, SimDuration::ZERO, LinkClass::Other));
        start(&mut net, SimTime::ZERO, &[l], 100.0, 1); // no latency
        net.start_flow(SimTime::ZERO, &[l], 100.0, SimDuration::from_millis(500), 2);
        // Phase 1 (0–0.5s): flow1 alone at 100 B/s → 50 bytes left.
        // Phase 2: both share 50 B/s. flow1 needs 1s more → done at 1.5s.
        net.advance(SimTime::from_nanos(2_000_000_000));
        assert_eq!(done(&mut net).len(), 2);
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let mut net = FlowNet::new();
        let l = net.add_link(Link::new(
            "n",
            10.0,
            SimDuration::from_millis(3),
            LinkClass::Network,
        ));
        start(&mut net, SimTime::ZERO, &[l], 0.0, 9);
        let t = net.next_event_time().unwrap();
        assert_eq!(t.as_secs_f64(), 0.003);
        net.advance(t);
        assert_eq!(done(&mut net), [9]);
    }

    #[test]
    fn empty_route_zero_latency_completes_immediately() {
        let mut net = FlowNet::new();
        start(&mut net, SimTime::ZERO, &[], 1e9, 3);
        assert_eq!(done(&mut net), [3]);
    }

    #[test]
    fn probe_rates_match_fair_share() {
        let (net, l) = mk_net(&[100.0, 40.0]);
        let rates = net.probe_rates(&[vec![l[0]], vec![l[0], l[1]]]);
        assert!((rates[1] - 40.0).abs() < 1e-9);
        assert!((rates[0] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn registered_utilization_is_tracked() {
        let (mut net, l) = mk_net(&[100.0]);
        net.track_utilization(l[0]);
        start(&mut net, SimTime::ZERO, &[l[0]], 100.0, 0);
        // Fully busy for 1 s, idle for 1 s.
        net.advance(SimTime::from_nanos(2_000_000_000));
        let util = net.link_utilization(l[0]);
        assert!((util - 0.5).abs() < 1e-6, "util={util}");
    }

    #[test]
    fn idle_link_has_zero_utilization() {
        let (mut net, l) = mk_net(&[100.0, 50.0]);
        net.track_utilization(l[0]);
        net.track_utilization(l[1]);
        start(&mut net, SimTime::ZERO, &[l[0]], 10.0, 0);
        net.advance(SimTime::from_nanos(1_000_000_000));
        assert_eq!(net.link_utilization(l[1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "link 1 (l1) has no utilisation integral")]
    fn unregistered_link_has_no_utilization() {
        let (mut net, l) = mk_net(&[100.0, 50.0]);
        net.track_utilization(l[0]);
        start(&mut net, SimTime::ZERO, &[l[1]], 10.0, 0);
        net.advance(SimTime::from_nanos(1_000_000_000));
        let _ = net.link_utilization(l[1]);
    }

    #[test]
    #[should_panic(expected = "link 0 (l0) has no utilisation integral")]
    fn replaying_onto_an_unregistered_link_panics() {
        let (mut net, l) = mk_net(&[100.0]);
        let samples = [(SimTime::ZERO, 1.0)];
        net.replay_probe_load(l[0], &samples, SimDuration::from_secs(1), 1);
    }

    #[test]
    fn registering_mid_run_integrates_from_then() {
        // A link registered while a flow saturates it integrates from the
        // registration instant and the load at that instant.
        let (mut net, l) = mk_net(&[100.0]);
        start(&mut net, SimTime::ZERO, &[l[0]], 100.0, 0);
        net.advance(SimTime::from_nanos(500_000_000));
        net.track_utilization(l[0]);
        // A second registration keeps the first integral.
        net.track_utilization(l[0]);
        // Busy for the remaining 0.5 s, then idle for 0.5 s.
        net.advance(SimTime::from_nanos(1_500_000_000));
        let util = net.link_utilization(l[0]);
        assert!((util - 0.5).abs() < 1e-6, "util={util}");
    }

    #[test]
    fn next_event_memo_matches_the_walk_oracle_after_every_change() {
        // After each step, the answer of a network that asked after every
        // earlier step (so holds a memo) must equal a walk over every live
        // flow. A fresh network replaying the steps would keep its bounds
        // the same way, so it would share a bound bug with this one.
        type Step = fn(&mut FlowNet);
        fn at(ms: u64) -> SimTime {
            SimTime::ZERO + SimDuration::from_millis(ms)
        }
        fn links(net: &mut FlowNet) {
            for (name, cap) in [("a", 100.0), ("b", 40.0)] {
                net.add_link(Link::new(name, cap, SimDuration::ZERO, LinkClass::Other));
            }
        }
        let steps: [(&str, Step); 9] = [
            ("links", links),
            ("start", |net| start(net, at(0), &[LinkId(0)], 100.0, 0)),
            ("advance", |net| net.advance(at(250))),
            ("start sharing", |net| {
                start(net, at(250), &[LinkId(0)], 80.0, 1)
            }),
            ("capacity", |net| {
                net.set_link_capacity(at(250), LinkId(0), 50.0)
            }),
            ("start with latency", |net| {
                net.start_flow(
                    at(250),
                    &[LinkId(1)],
                    10.0,
                    SimDuration::from_millis(300),
                    2,
                )
            }),
            ("shift", |net| net.shift(SimDuration::from_millis(100))),
            ("reset", FlowNet::reset),
            ("after reset", |net| {
                links(net);
                start(net, at(0), &[LinkId(0)], 30.0, 3);
            }),
        ];
        let mut net = FlowNet::new();
        let mut answers = Vec::new();
        for (what, step) in &steps {
            step(&mut net);
            let got = net.next_event_time();
            assert_eq!(net.next_event_time(), got, "asking twice moved the answer");
            assert_eq!(got, net.walk_next_event(), "stale answer after `{what}`");
            net.assert_walk_oracle();
            answers.push(got);
        }
        // The steps move the answer, so a memo that missed one would show.
        let distinct: std::collections::BTreeSet<_> = answers.iter().collect();
        assert!(distinct.len() >= 7, "answers: {answers:?}");
    }

    /// One random operation on `net` at the caller's clock `now`, which
    /// never precedes the network's; returns what it did.
    fn random_op(net: &mut FlowNet, rng: &mut DetRng, now: &mut SimTime, tag: &mut u64) -> String {
        let links = net.link_count() as u64;
        match rng.next_below(16) {
            0..=6 => {
                // Up to three hops over four links: empty, shared,
                // disjoint and repeated-link routes all come up.
                let hops = rng.next_below(4);
                let route: Vec<LinkId> = (0..hops)
                    .map(|_| LinkId(rng.next_below(links) as u32))
                    .collect();
                let bytes = if rng.next_below(5) == 0 {
                    0.0
                } else {
                    rng.next_f64() * 2_000.0
                };
                let latency = if rng.next_below(2) == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(1 + rng.next_below(300_000_000))
                };
                *tag += 1;
                net.start_flow(*now, &route, bytes, latency, *tag);
                format!("start {route:?} {bytes} B after {latency}")
            }
            7..=9 => {
                // To the predicted event, or just short of or past it.
                let Some(t) = net.next_event_time() else {
                    return "advance: nothing in flight".into();
                };
                let t = match rng.next_below(3) {
                    0 => t,
                    1 => SimTime::from_nanos(t.as_nanos().saturating_sub(1)),
                    _ => t + SimDuration::from_nanos(1),
                };
                *now = (*now).max(t);
                net.advance(*now);
                format!("advance to {now:?}")
            }
            10..=11 => {
                *now += SimDuration::from_nanos(rng.next_below(500_000_000));
                net.advance(*now);
                format!("advance to {now:?}")
            }
            12..=13 => {
                let l = LinkId(rng.next_below(links) as u32);
                let cap = 50.0 + rng.next_f64() * 5_000.0;
                net.set_link_capacity(*now, l, cap);
                format!("capacity {l:?} {cap}")
            }
            14 => {
                let d = SimDuration::from_nanos(rng.next_below(2_000_000_000));
                net.shift(d);
                *now += d;
                format!("shift {d}")
            }
            _ => {
                if rng.next_below(4) == 0 {
                    net.reset();
                    random_links(net, rng);
                    "reset".into()
                } else {
                    "nothing".into()
                }
            }
        }
    }

    /// Four links, the first two without latency.
    fn random_links(net: &mut FlowNet, rng: &mut DetRng) {
        for k in 0..4u64 {
            let latency = if k < 2 {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.next_below(5_000_000))
            };
            let cap = 50.0 + rng.next_f64() * 5_000.0;
            net.add_link(Link::new(format!("l{k}"), cap, latency, LinkClass::Other));
        }
        net.track_utilization(LinkId(0));
    }

    #[test]
    fn kept_bounds_match_the_walk_oracle_under_random_operations() {
        // Random starts (with and without latency, zero-byte, empty-route,
        // shared and disjoint), advances to predicted and arbitrary
        // instants, capacity changes, shifts and resets. After every
        // operation the prediction, the kept bounds and the finished-flow
        // bookkeeping must equal a walk over every live flow.
        let mut completions = 0;
        let mut both_bounds = 0;
        let mut starts_onto_live = 0;
        for seed in 0..64 {
            let mut rng = DetRng::new(seed);
            let mut net = FlowNet::new();
            random_links(&mut net, &mut rng);
            let mut now = SimTime::ZERO;
            let mut tag = 0;
            for step in 0..200 {
                let live = net.n_active;
                let what = random_op(&mut net, &mut rng, &mut now, &mut tag);
                if live > 0 && what.starts_with("start") {
                    starts_onto_live += 1;
                }
                let got = net.next_event_time();
                assert_eq!(
                    got,
                    net.walk_next_event(),
                    "seed {seed} step {step}: {what}"
                );
                net.assert_walk_oracle();
                if net.next_change.latency.is_some() && net.next_change.ttc.is_some() {
                    both_bounds += 1;
                }
                completions += done(&mut net).len();
            }
        }
        // The sequences must reach the states the bounds are about.
        assert!(completions > 3_000, "only {completions} completions");
        assert!(
            both_bounds > 5_000,
            "both bounds set in {both_bounds} steps"
        );
        assert!(
            starts_onto_live > 4_000,
            "{starts_onto_live} starts onto live flows"
        );
    }

    #[test]
    fn reset_behaves_like_fresh_network() {
        let run = |net: &mut FlowNet| {
            let l = net.add_link(Link::new("b", 100.0, SimDuration::ZERO, LinkClass::Other));
            net.track_utilization(l);
            start(net, SimTime::ZERO, &[l], 100.0, 1);
            start(net, SimTime::ZERO, &[l], 50.0, 2);
            let mut log = Vec::new();
            while let Some(t) = net.next_event_time() {
                net.advance(t);
                for tag in done(net) {
                    log.push((t.as_nanos(), tag));
                }
            }
            (log, net.link_utilization(l).to_bits())
        };
        let mut fresh = FlowNet::new();
        let want = run(&mut fresh);
        let mut reused = FlowNet::new();
        let _ = run(&mut reused);
        reused.reset();
        assert!(reused.live_flows().is_empty());
        assert_eq!(reused.link_count(), 0);
        assert_eq!(run(&mut reused), want, "reset run must match fresh run");
    }

    #[test]
    fn drain_completed_reuses_buffers() {
        let (mut net, l) = mk_net(&[100.0]);
        start(&mut net, SimTime::ZERO, &[l[0]], 100.0, 5);
        net.advance(SimTime::from_nanos(2_000_000_000));
        let mut buf = Vec::with_capacity(4);
        net.drain_completed_into(&mut buf);
        assert_eq!(buf, [5]);
        net.drain_completed_into(&mut buf);
        assert!(buf.is_empty());
    }

    /// Full-solve oracle: what the seed's recompute (max-min over every
    /// counted flow's route) would assign right now, by flow tag.
    fn oracle_rates(net: &FlowNet) -> Vec<(u64, f64)> {
        let caps: Vec<f64> = net.links.iter().map(|l| l.capacity_bps).collect();
        let counted: Vec<(u64, Vec<usize>)> = net
            .live_flows()
            .into_iter()
            .filter(|(_, _, _, counted)| *counted)
            .map(|(tag, route, _, _)| (tag, route))
            .collect();
        let routes: Vec<Vec<usize>> = counted.iter().map(|(_, r)| r.clone()).collect();
        let rates = max_min_rates(&caps, &routes);
        counted.into_iter().map(|(tag, _)| tag).zip(rates).collect()
    }

    #[test]
    fn incremental_rates_match_full_solve_throughout() {
        // Mixed scenario: disjoint flows, shared bottlenecks and latency
        // phases. After every event the incremental allocation must equal
        // a from-scratch solve bit-for-bit.
        let (mut net, l) = mk_net(&[100.0, 40.0, 250.0, 10.0]);
        start(&mut net, SimTime::ZERO, &[l[2]], 500.0, 0); // alone
        start(&mut net, SimTime::ZERO, &[l[0]], 300.0, 1);
        start(&mut net, SimTime::ZERO, &[l[0], l[1]], 120.0, 2); // shares l0
        net.start_flow(
            SimTime::ZERO,
            &[l[1], l[3]],
            90.0,
            SimDuration::from_millis(700),
            3,
        );
        let mut steps = 0;
        loop {
            let live: std::collections::HashMap<u64, f64> = net
                .live_flows()
                .into_iter()
                .map(|(tag, _, rate, _)| (tag, rate))
                .collect();
            for (tag, want) in oracle_rates(&net) {
                let got = live[&tag];
                assert!(
                    got == want || (got.is_infinite() && want.is_infinite()),
                    "flow {tag}: incremental {got} != full solve {want}"
                );
            }
            let Some(t) = net.next_event_time() else {
                break;
            };
            net.advance(t);
            done(&mut net);
            steps += 1;
            assert!(steps < 32, "scenario failed to converge");
        }
        assert!(net.live_flows().is_empty());
        let (full, shortcut) = net.recompute_stats();
        assert!(full > 0, "shared links must trigger full solves");
        assert!(shortcut > 0, "disjoint events must take the shortcut");
    }

    #[test]
    fn disjoint_flows_never_trigger_full_solves() {
        let (mut net, l) = mk_net(&[100.0, 50.0, 25.0]);
        net.track_utilization(l[0]);
        for (k, &link) in l.iter().enumerate() {
            start(&mut net, SimTime::ZERO, &[link], 100.0, k as u64);
        }
        let rates: Vec<f64> = net.live_flows().iter().map(|f| f.2).collect();
        assert_eq!(rates, [100.0, 50.0, 25.0]);
        while let Some(t) = net.next_event_time() {
            net.advance(t);
            done(&mut net);
        }
        assert!(net.live_flows().is_empty());
        let (full, shortcut) = net.recompute_stats();
        assert_eq!(full, 0, "uncontended traffic must skip the solver");
        assert!(shortcut >= 6, "starts and completions all shortcut");
        // Utilisation bookkeeping must survive the shortcut path: link 0
        // was saturated for 1 s of the 4 s total (100 B at 100 B/s; the
        // slowest link finishes at 4 s).
        assert!((net.link_utilization(l[0]) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn latency_activation_on_idle_links_shortcuts() {
        let (mut net, l) = mk_net(&[100.0]);
        net.start_flow(
            SimTime::ZERO,
            &[l[0]],
            100.0,
            SimDuration::from_millis(250),
            0,
        );
        let t1 = net.next_event_time().unwrap();
        net.advance(t1); // latency expiry: flow activates alone
        let t2 = net.next_event_time().unwrap();
        assert!((t2.as_secs_f64() - 1.25).abs() < 1e-6);
        net.advance(t2);
        assert_eq!(done(&mut net).len(), 1);
        let (full, _) = net.recompute_stats();
        assert_eq!(full, 0, "an activation onto idle links needs no solve");
    }

    #[test]
    fn traced_flows_emit_lifecycle_events() {
        use stash_trace::{shared, JsonSink, Tracer, TrackKind};
        use std::cell::RefCell;
        use std::rc::Rc;

        let sink = Rc::new(RefCell::new(JsonSink::new()));
        let (mut net, l) = mk_net(&[100.0]);
        net.set_tracer(shared(Tracer::new(sink.clone())));
        start(&mut net, SimTime::ZERO, &[l[0]], 100.0, 1);
        start(&mut net, SimTime::ZERO, &[l[0]], 50.0, 2);
        while let Some(t) = net.next_event_time() {
            net.advance(t);
            done(&mut net);
        }
        assert!(net.live_flows().is_empty());
        let events = sink.borrow().events().to_vec();
        let count = |name: &str| events.iter().filter(|(_, e)| e.name() == name).count();
        assert_eq!(count("flow_start"), 2);
        assert_eq!(count("flow_done"), 2);
        assert!(
            count("rate_bps") >= 3,
            "shared-link rates change during the run"
        );
        assert!(count("full_solve") >= 1, "contended start requires a solve");
        assert!(events
            .iter()
            .any(|(_, e)| e.track().kind == TrackKind::Flow));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut net, l) = mk_net(&[64.0, 32.0]);
            start(&mut net, SimTime::ZERO, &[l[0]], 111.0, 1);
            start(&mut net, SimTime::ZERO, &[l[0], l[1]], 57.0, 2);
            let mut log = Vec::new();
            while let Some(t) = net.next_event_time() {
                net.advance(t);
                for tag in done(&mut net) {
                    log.push((t.as_nanos(), tag));
                }
            }
            log
        };
        assert_eq!(run(), run());
        assert_eq!(run().len(), 2);
    }

    #[test]
    fn load_probe_records_and_replays_cycles() {
        // Two identical back-to-back cycles on one link; the probe's
        // samples for cycle 2 must be cycle 1 shifted by the period, and a
        // replayed third cycle must extend the utilisation integral exactly
        // as simulating it would.
        let period = SimDuration::from_secs(2);
        let cycle = |net: &mut FlowNet, l: LinkId, at: SimTime| {
            start(net, at, &[l], 100.0, 0);
            net.advance(at + period);
            done(net);
        };
        let (mut net, l) = mk_net(&[100.0]);
        net.track_utilization(l[0]);
        net.set_load_probe(l[0]);
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        cycle(&mut net, l[0], SimTime::ZERO);
        net.take_probe_samples(&mut c1);
        cycle(&mut net, l[0], SimTime::ZERO + period);
        net.take_probe_samples(&mut c2);
        assert_eq!(c1.len(), c2.len());
        for (&(t1, v1), &(t2, v2)) in c1.iter().zip(&c2) {
            assert_eq!(t1 + period, t2);
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
        // Simulated third cycle…
        let (mut sim, sl) = mk_net(&[100.0]);
        sim.track_utilization(sl[0]);
        for k in 0..3u32 {
            cycle(
                &mut sim,
                sl[0],
                SimTime::ZERO + SimDuration::from_nanos(period.as_nanos() * u64::from(k)),
            );
        }
        // …vs replaying it from the recorded second cycle.
        net.clear_load_probe();
        let w = net.last_advance();
        net.replay_probe_load(l[0], &c2, period, 1);
        net.advance(w + period);
        assert_eq!(
            sim.link_utilization(sl[0]).to_bits(),
            net.link_utilization(l[0]).to_bits(),
            "replayed cycle must integrate bit-identically"
        );
    }

    /// Starts a latency-phase flow and two flows sharing link 0 at
    /// offsets from `t0`, then advances to 300 ms past it: flows are live
    /// in every phase.
    fn mid_run(net: &mut FlowNet, l: &[LinkId], t0: SimTime) {
        let ms = |m: u64| t0 + SimDuration::from_millis(m);
        start(net, ms(0), &[l[0]], 100.0, 1);
        start(net, ms(100), &[l[0], l[1]], 30.0, 2);
        net.start_flow(ms(200), &[l[1]], 25.0, SimDuration::from_millis(400), 3);
        net.advance(ms(300));
    }

    /// Runs `net` dry, logging each completion's tag and offset from `t0`.
    fn completions(net: &mut FlowNet, t0: SimTime) -> Vec<(u64, u64)> {
        let mut log = Vec::new();
        while let Some(t) = net.next_event_time() {
            net.advance(t);
            for tag in done(net) {
                log.push((t.duration_since(t0).as_nanos(), tag));
            }
        }
        log
    }

    #[test]
    fn shifted_network_matches_an_unshifted_twin() {
        let d = SimDuration::from_nanos(3_000_000_123);
        let (mut plain, l) = mk_net(&[100.0, 40.0]);
        let (mut shifted, _) = mk_net(&[100.0, 40.0]);
        mid_run(&mut plain, &l, SimTime::ZERO);
        mid_run(&mut shifted, &l, SimTime::ZERO);
        let want = plain.next_event_time().expect("flows in flight");
        // Shift once with the memo held and check it moved; the first
        // answer after the shift is the memo itself.
        let _ = shifted.next_event_time();
        shifted.shift(d);
        assert_eq!(shifted.last_advance(), plain.last_advance() + d);
        assert_eq!(shifted.next_event_time(), Some(want + d));
        let log = completions(&mut plain, SimTime::ZERO);
        assert_eq!(log.len(), 3);
        assert_eq!(completions(&mut shifted, SimTime::ZERO + d), log);
    }

    #[test]
    fn keys_see_state_not_absolute_time() {
        let d = SimDuration::from_millis(1_700);
        let key = |net: &FlowNet, base: SimTime| {
            let mut k = Vec::new();
            net.key_into(base, &mut k);
            k
        };
        let (mut early, l) = mk_net(&[100.0, 40.0]);
        let (mut late, _) = mk_net(&[100.0, 40.0]);
        mid_run(&mut early, &l, SimTime::ZERO);
        mid_run(&mut late, &l, SimTime::ZERO + d);
        let _ = early.next_event_time();
        let _ = late.next_event_time();
        let base = SimTime::ZERO + SimDuration::from_millis(300);
        let k = key(&early, base);
        assert_eq!(key(&late, base + d), k);
        assert_ne!(key(&late, base), k, "the clock is part of the key");
        // One remaining-bytes bit apart: different keys.
        let head = late.head as usize;
        let bytes = late.slots[head].remaining_bytes;
        late.slots[head].remaining_bytes = f64::from_bits(bytes.to_bits() ^ 1);
        assert_ne!(key(&late, base + d), k);
    }
}

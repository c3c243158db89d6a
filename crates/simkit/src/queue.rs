//! Deterministic event queue.
//!
//! [`EventQueue`] is the heart of the discrete-event engine: a priority
//! queue of `(time, payload)` pairs with strictly deterministic ordering —
//! ties on the timestamp are broken by insertion order (FIFO), so a given
//! event schedule always replays identically. Events can be cancelled via
//! the [`EventKey`] returned at scheduling time.
//!
//! Internally the queue is a lazy-deletion binary heap indexed by a
//! generation-counted slot table: cancellation is O(1) (flip the slot's
//! generation; the heap entry becomes a tombstone that `pop` skips), and
//! the slot table recycles entries through a free list so a steady-state
//! schedule/deliver cycle performs no heap allocation at all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Keys are generation-tagged: once the event is delivered or cancelled its
/// slot is recycled under a bumped generation, so a stale key can never
/// cancel an unrelated later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    idx: u32,
    gen: u32,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// The queue also tracks the current simulation clock: popping an event
/// advances the clock to the event's timestamp. Scheduling into the past is
/// a logic error and panics in debug builds (release builds clamp to `now`).
///
/// # Examples
///
/// ```
/// use stash_simkit::queue::EventQueue;
/// use stash_simkit::time::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_millis(5), "b");
/// q.schedule_in(SimDuration::from_millis(1), "a");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(q.now(), SimTime::from_nanos(1_000_000));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    next_seq: u64,
    /// Generation per slot; a heap entry is live iff its recorded generation
    /// still matches its slot's.
    slot_gen: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    /// Deepest `live` has been since the last [`EventQueue::take_depth_high_water`].
    window_hw: usize,
    scheduled: u64,
    /// Scratch for [`EventQueue::key_into`]: the kept live entries as
    /// `(time, insertion, payload code)`, sorted into delivery order.
    order: Vec<(SimTime, u64, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            slot_gen: Vec::new(),
            free: Vec::new(),
            live: 0,
            window_hw: 0,
            scheduled: 0,
            order: Vec::new(),
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at` and returns a cancellation
    /// key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.live += 1;
        self.window_hw = self.window_hw.max(self.live);
        stash_telemetry::metrics::QUEUE_PUSHED.inc();
        stash_telemetry::metrics::QUEUE_DEPTH_HIGH_WATER.record_max(self.live as u64);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let Ok(idx) = u32::try_from(self.slot_gen.len()) else {
                    unreachable!("slot index overflow: more than u32::MAX live events")
                };
                self.slot_gen.push(0);
                idx
            }
        };
        let gen = self.slot_gen[idx as usize];
        self.heap.push(Reverse(Entry {
            at,
            seq,
            idx,
            gen,
            payload,
        }));
        EventKey { idx, gen }
    }

    /// Schedules `payload` after a relative delay from the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventKey {
        let at = self.now + delay;
        self.schedule_at(at, payload)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (cancelling an already-delivered or unknown key is a
    /// no-op returning `false`).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.slot_gen.get_mut(key.idx as usize) {
            Some(gen) if *gen == key.gen => {
                // Bump the generation: the heap entry turns into a tombstone
                // and the slot becomes reusable immediately.
                *gen = gen.wrapping_add(1);
                self.free.push(key.idx);
                self.live -= 1;
                stash_telemetry::metrics::QUEUE_CANCELLED.inc();
                true
            }
            _ => false,
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if self.slot_gen[entry.idx as usize] != entry.gen {
                continue; // tombstone: cancelled before delivery
            }
            self.slot_gen[entry.idx as usize] = entry.gen.wrapping_add(1);
            self.free.push(entry.idx);
            self.live -= 1;
            debug_assert!(entry.at >= self.now);
            self.now = entry.at;
            stash_telemetry::metrics::QUEUE_POPPED.inc();
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Moves the clock and every pending event `d` later, except the
    /// events `pinned` selects, which keep their absolute times. Order
    /// among the moved events, FIFO ties and outstanding [`EventKey`]s are
    /// unchanged: a uniform shift preserves every `(time, insertion)`
    /// comparison among them, and keys name slots, not times. A caller
    /// that has proved its state periodic between pinned events uses this
    /// to skip whole periods of simulated time. It must land every moved
    /// live event strictly before every pinned one ([`EventQueue::pin_bounds`]),
    /// so no moved event ties with a pinned one and the delivery order is
    /// the one the skipped periods would have produced.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a moved live event lands at or after a
    /// live pinned one.
    pub fn shift(&mut self, d: SimDuration, pinned: impl Fn(&E) -> bool) {
        self.now += d;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        for Reverse(e) in &mut entries {
            if !pinned(&e.payload) {
                e.at += d;
            }
        }
        // Rebuilding is O(n) and keeps the buffer.
        self.heap = BinaryHeap::from(entries);
        debug_assert!(
            match self.pin_bounds(&pinned) {
                (Some(first_pinned), Some(last_moved)) => last_moved < first_pinned,
                _ => true,
            },
            "a shifted event reached a pinned one"
        );
    }

    /// One scan over the live events: the time of the earliest one
    /// `pinned` selects and of the latest one it does not, each `None`
    /// when there is no such event. Cancelled entries are ignored.
    pub fn pin_bounds(&self, pinned: impl Fn(&E) -> bool) -> (Option<SimTime>, Option<SimTime>) {
        let mut first_pinned: Option<SimTime> = None;
        let mut last_other: Option<SimTime> = None;
        for Reverse(e) in &self.heap {
            if self.slot_gen[e.idx as usize] != e.gen {
                continue;
            }
            if pinned(&e.payload) {
                first_pinned = Some(first_pinned.map_or(e.at, |t| t.min(e.at)));
            } else {
                last_other = Some(last_other.map_or(e.at, |t| t.max(e.at)));
            }
        }
        (first_pinned, last_other)
    }

    /// Appends the live events `encode` keeps to `key` in delivery order
    /// (time, then insertion), two words each: the time relative to `base`
    /// (wrapping) and `encode(payload)`. An event it maps to `None` is
    /// left out. Two queues with equal keys deliver the same kept payloads
    /// at the same offsets from their bases, and an event scheduled later
    /// sorts behind the same ties in both.
    pub fn key_into(
        &mut self,
        base: SimTime,
        key: &mut Vec<u64>,
        encode: impl Fn(&E) -> Option<u64>,
    ) {
        self.order.clear();
        for Reverse(e) in &self.heap {
            if self.slot_gen[e.idx as usize] == e.gen {
                if let Some(code) = encode(&e.payload) {
                    self.order.push((e.at, e.seq, code));
                }
            }
        }
        self.order.sort_unstable();
        for &(at, _, code) in &self.order {
            key.push(at.as_nanos().wrapping_sub(base.as_nanos()));
            key.push(code);
        }
    }

    /// Timestamp of the next pending (non-cancelled) event without popping
    /// it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Lazily drop tombstoned entries from the front.
        while let Some(Reverse(entry)) = self.heap.peek() {
            if self.slot_gen[entry.idx as usize] != entry.gen {
                self.heap.pop();
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Number of live (scheduled, not yet delivered or cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Deepest the queue has been since the last call (or construction /
    /// [`EventQueue::reset`]), then restarts the window at the current
    /// depth. Lets a caller sample per-window high-water marks (e.g. one
    /// per simulated iteration) without scanning the queue.
    pub fn take_depth_high_water(&mut self) -> u64 {
        let hw = self.window_hw as u64;
        self.window_hw = self.live;
        hw
    }

    /// Total events scheduled over the queue's lifetime.
    #[must_use]
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Returns the queue to its freshly-constructed state while keeping the
    /// heap, slot-table and free-list capacity, so a reused queue behaves
    /// bit-identically to a new one without reallocating.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slot_gen.clear();
        self.free.clear();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.live = 0;
        self.window_hw = 0;
        self.scheduled = 0;
        self.order.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), "late");
        q.schedule_at(SimTime::from_nanos(5), "first");
        q.schedule_at(SimTime::from_nanos(5), "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_nanos(), 7_000_000);
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let k = q.schedule_at(SimTime::from_nanos(1), "dead");
        q.schedule_at(SimTime::from_nanos(2), "alive");
        assert!(q.cancel(k));
        assert!(!q.cancel(k), "double cancel is a no-op");
        assert_eq!(q.pop().unwrap().1, "alive");
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let k = q.schedule_at(SimTime::from_nanos(1), 1);
        q.schedule_at(SimTime::from_nanos(9), 2);
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert!(!q.is_empty());
    }

    #[test]
    fn counts_track_lifecycle() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), ());
        q.schedule_at(SimTime::from_nanos(2), ());
        q.pop();
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey { idx: 42, gen: 0 }));
    }

    #[test]
    fn stale_key_does_not_cancel_slot_reuse() {
        let mut q = EventQueue::new();
        let k1 = q.schedule_at(SimTime::from_nanos(1), "a");
        assert!(q.cancel(k1));
        // The slot is recycled for the next event under a new generation.
        let k2 = q.schedule_at(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(k1), "stale key must not cancel the reused slot");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(!q.cancel(k2), "delivered key must not cancel");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(3), 1);
        q.pop();
        q.reset();
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_count(), 0);
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_nanos(1), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 2)));
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A queue with a past pop, FIFO ties, a cancelled entry and a live
    /// key; returns the key.
    fn populated(q: &mut EventQueue<&'static str>) -> EventKey {
        q.schedule_at(at(5), "first");
        q.schedule_at(at(20), "tie-a");
        let key = q.schedule_at(at(20), "tie-b");
        let dead = q.schedule_at(at(20), "cancelled");
        q.schedule_at(at(20), "tie-c");
        q.schedule_at(at(12), "mid");
        q.cancel(dead);
        assert_eq!(q.pop(), Some((at(5), "first")));
        key
    }

    fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, &'static str)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect()
    }

    #[test]
    fn shift_keeps_delivery_order_ties_and_keys() {
        let d = 1_000;
        let mut plain = EventQueue::new();
        let mut shifted = EventQueue::new();
        let plain_key = populated(&mut plain);
        let shifted_key = populated(&mut shifted);
        shifted.shift(SimDuration::from_nanos(d), |_| false);
        assert_eq!(shifted.now(), at(5 + d));
        assert_eq!(shifted.len(), plain.len());
        // A key issued before the shift still cancels its event, and an
        // event scheduled after it sorts behind the existing ties.
        assert!(plain.cancel(plain_key));
        assert!(shifted.cancel(shifted_key));
        plain.schedule_at(at(20), "tie-d");
        shifted.schedule_at(at(20 + d), "tie-d");
        let want: Vec<_> = drain(&mut plain)
            .into_iter()
            .map(|(t, e)| (t + d, e))
            .collect();
        assert_eq!(drain(&mut shifted), want);
        assert_eq!(
            want.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            ["mid", "tie-a", "tie-c", "tie-d"]
        );
    }

    #[test]
    fn keys_are_relative_and_skip_cancelled_entries() {
        let code = |e: &&str| Some(e.len() as u64);
        let key = |q: &mut EventQueue<&'static str>| {
            let mut k = Vec::new();
            let now = q.now();
            q.key_into(now, &mut k, code);
            k
        };
        let mut plain = EventQueue::new();
        populated(&mut plain);
        let mut shifted = EventQueue::new();
        populated(&mut shifted);
        shifted.shift(SimDuration::from_nanos(777), |_| false);
        let k = key(&mut plain);
        // Four live entries, two words each; the cancelled one is absent.
        assert_eq!(k, [7, 3, 15, 5, 15, 5, 15, 5]);
        assert_eq!(key(&mut shifted), k);
        // Cancelling a tie changes the key.
        let mut other = EventQueue::new();
        let tie_b = populated(&mut other);
        other.cancel(tie_b);
        assert_ne!(key(&mut other), k);
    }

    fn is_pinned(e: &&str) -> bool {
        e.starts_with("pin")
    }

    /// [`populated`] plus pinned events after every other live one, one
    /// of them cancelled; returns the live pinned event's key.
    fn populated_with_pins(q: &mut EventQueue<&'static str>) -> EventKey {
        q.schedule_at(at(50), "pin-a");
        let dead = q.schedule_at(at(40), "pin-cancelled");
        populated(q);
        let key = q.schedule_at(at(50), "pin-b");
        q.cancel(dead);
        key
    }

    #[test]
    fn pinned_shift_keeps_pinned_times_and_the_rest_in_order() {
        let d = 25;
        let mut plain = EventQueue::new();
        let mut shifted = EventQueue::new();
        let plain_key = populated_with_pins(&mut plain);
        let shifted_key = populated_with_pins(&mut shifted);
        let plain_tie = plain.schedule_at(at(20), "tie-d");
        let shifted_tie = shifted.schedule_at(at(20), "tie-d");
        shifted.shift(SimDuration::from_nanos(d), is_pinned);
        assert_eq!(shifted.now(), at(5 + d));
        assert_eq!(shifted.len(), plain.len());
        // Keys issued before the shift still cancel their events, pinned
        // or moved.
        assert!(plain.cancel(plain_tie));
        assert!(shifted.cancel(shifted_tie));
        assert!(plain.cancel(plain_key));
        assert!(shifted.cancel(shifted_key));
        // An event scheduled after the shift sorts behind the moved ties.
        plain.schedule_at(at(20), "tie-e");
        shifted.schedule_at(at(20 + d), "tie-e");
        let want: Vec<_> = drain(&mut plain)
            .into_iter()
            .map(|(t, e)| (if is_pinned(&e) { t } else { t + d }, e))
            .collect();
        assert_eq!(drain(&mut shifted), want);
        assert_eq!(
            want,
            [
                (12 + d, "mid"),
                (20 + d, "tie-a"),
                (20 + d, "tie-b"),
                (20 + d, "tie-c"),
                (20 + d, "tie-e"),
                (50, "pin-a"),
            ]
        );
    }

    #[test]
    fn keys_omit_the_entries_the_encoder_excludes() {
        let key = |q: &mut EventQueue<&'static str>, pins: bool| {
            let mut k = Vec::new();
            let now = q.now();
            q.key_into(now, &mut k, |e| {
                (pins || !is_pinned(e)).then_some(e.len() as u64)
            });
            k
        };
        let mut plain = EventQueue::new();
        populated(&mut plain);
        let mut pinned = EventQueue::new();
        populated_with_pins(&mut pinned);
        // Without its pinned events the queue keys as one that never had
        // them, and the excluded entries' times do not matter.
        assert_eq!(key(&mut pinned, false), key(&mut plain, false));
        assert_eq!(
            key(&mut pinned, true).len(),
            key(&mut plain, true).len() + 4
        );
        let mut moved = EventQueue::new();
        moved.schedule_at(at(90), "pin-a");
        populated(&mut moved);
        assert_eq!(key(&mut moved, false), key(&mut plain, false));
        assert_ne!(key(&mut moved, true), key(&mut pinned, true));
    }

    #[test]
    fn pin_bounds_ignore_cancelled_entries() {
        let mut q = EventQueue::new();
        assert_eq!(q.pin_bounds(is_pinned), (None, None));
        let early_pin = q.schedule_at(at(8), "pin-early");
        let late = q.schedule_at(at(90), "late");
        q.schedule_at(at(30), "pin-a");
        q.schedule_at(at(12), "mid");
        assert_eq!(q.pin_bounds(is_pinned), (Some(at(8)), Some(at(90))));
        q.cancel(early_pin);
        q.cancel(late);
        assert_eq!(q.pin_bounds(is_pinned), (Some(at(30)), Some(at(12))));
        assert_eq!(q.pin_bounds(|_| false), (None, Some(at(30))));
        assert_eq!(q.pin_bounds(|_| true), (Some(at(12)), None));
    }
}

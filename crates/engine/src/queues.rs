//! Per-unit FIFO input queues with an O(1) non-empty index and, on
//! shed-capable queues, a rank-ordered index for QoS shed-victim search.

use std::collections::VecDeque;

use hcq_common::{EngineError, Nanos};
use hcq_core::{PriorityKey, QueueView, UnitId};

use crate::tuple::SimTuple;

/// The engine's queue state; implements [`QueueView`] for policies.
#[derive(Debug, Default)]
pub struct UnitQueues {
    queues: Vec<VecDeque<SimTuple>>,
    /// Unordered list of units with pending tuples.
    nonempty: Vec<UnitId>,
    /// `pos[u] = i+1` when `nonempty[i] == u`; 0 when absent.
    pos: Vec<u32>,
    pending: usize,
    /// Per-unit capacity advertised through [`QueueView`]; `None` means
    /// unbounded. The bound is advisory — admission control lives in the
    /// simulator, which may deliberately overfill a queue (QoS shedding
    /// keeps the *global* load bounded, not each queue).
    capacity: Option<usize>,
    /// The shed order and its non-empty index; `None` on queues that never
    /// shed (see [`UnitQueues::install_shed_order`]).
    shed: Option<Box<ShedIndex>>,
}

/// Units ranked by ascending `(PriorityKey(priority[u]), u)` — the total
/// order [`crate::exec::shed_victim`] minimizes — with a two-level bitset
/// over ranks marking the non-empty units.
///
/// Bit `r` of `leaves` is set iff unit `by_rank[r]` has pending tuples;
/// bit `w` of `summary` is set iff `leaves[w] != 0`. The lowest non-empty
/// rank is therefore the first set bit of the first non-zero summary word,
/// found in at most `⌈q/4096⌉` summary words plus one leaf word.
#[derive(Debug)]
struct ShedIndex {
    priority: Vec<f64>,
    rank: Vec<u32>,
    by_rank: Vec<UnitId>,
    leaves: Vec<u64>,
    summary: Vec<u64>,
    /// A priority changed since the last sort: `rank`/`by_rank` (and the
    /// bitset laid out by them) are re-derived at the next victim query.
    stale: bool,
}

impl ShedIndex {
    fn new(priority: Vec<f64>, nonempty: &[UnitId]) -> Self {
        let n = priority.len();
        let words = n.div_ceil(64);
        let mut index = ShedIndex {
            priority,
            rank: vec![0; n],
            by_rank: (0..n as UnitId).collect(),
            leaves: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            stale: false,
        };
        index.sort(nonempty);
        index
    }

    /// Re-rank every unit by its current priority and re-mark `nonempty`.
    fn sort(&mut self, nonempty: &[UnitId]) {
        let priority = &self.priority;
        self.by_rank.sort_unstable_by(|&a, &b| {
            PriorityKey(priority[a as usize])
                .cmp(&PriorityKey(priority[b as usize]))
                .then(a.cmp(&b))
        });
        for (r, &u) in self.by_rank.iter().enumerate() {
            self.rank[u as usize] = r as u32;
        }
        self.remark(nonempty);
        self.stale = false;
    }

    /// Clear the bitset and mark exactly the units in `nonempty`.
    fn remark(&mut self, nonempty: &[UnitId]) {
        self.leaves.fill(0);
        self.summary.fill(0);
        for &u in nonempty {
            self.mark(u);
        }
    }

    fn mark(&mut self, unit: UnitId) {
        let r = self.rank[unit as usize] as usize;
        self.leaves[r / 64] |= 1 << (r % 64);
        self.summary[r / 4096] |= 1 << (r / 64 % 64);
    }

    fn unmark(&mut self, unit: UnitId) {
        let r = self.rank[unit as usize] as usize;
        let w = r / 64;
        self.leaves[w] &= !(1 << (r % 64));
        if self.leaves[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The lowest-ranked non-empty unit, if it ranks strictly below
    /// `arriving`. The summary scan stops at the word holding `arriving`'s
    /// rank: nothing past it can rank lower.
    fn victim(&self, arriving: UnitId) -> Option<UnitId> {
        let bound = self.rank[arriving as usize] as usize;
        for (s, &word) in self.summary[..=bound / 4096].iter().enumerate() {
            if word != 0 {
                let w = s * 64 + word.trailing_zeros() as usize;
                let r = w * 64 + self.leaves[w].trailing_zeros() as usize;
                return (r < bound).then(|| self.by_rank[r]);
            }
        }
        None
    }
}

impl UnitQueues {
    /// Unbounded queues for `n` units.
    ///
    /// Each queue gets a small initial capacity and keeps whatever it grows
    /// to for the rest of the run (`pop` never shrinks), so after a brief
    /// warm-up the steady-state hot path performs no queue allocations.
    pub fn new(n: usize) -> Self {
        UnitQueues {
            queues: (0..n).map(|_| VecDeque::with_capacity(4)).collect(),
            nonempty: Vec::with_capacity(n),
            pos: vec![0; n],
            pending: 0,
            capacity: None,
            shed: None,
        }
    }

    /// Queues for `n` units advertising a per-unit capacity bound.
    pub fn bounded(n: usize, capacity: usize) -> Self {
        let mut q = UnitQueues::new(n);
        q.capacity = Some(capacity);
        q
    }

    /// Install the QoS shed order: `priority[u]` is unit `u`'s shed value
    /// (the simulator and the runtime use the static HNR priority), and
    /// [`UnitQueues::shed_victim`] answers from the rank index from now on.
    /// Only shed-capable queues install it; the others pay one branch per
    /// non-empty transition.
    ///
    /// # Panics
    ///
    /// When `priority` does not hold exactly one value per unit.
    pub fn install_shed_order(&mut self, priority: Vec<f64>) {
        assert_eq!(
            priority.len(),
            self.queues.len(),
            "one shed priority per unit"
        );
        self.shed = Some(Box::new(ShedIndex::new(priority, &self.nonempty)));
    }

    /// Replace one unit's shed priority. The order is re-sorted lazily, at
    /// the next [`UnitQueues::shed_victim`], so a burst of updates (an
    /// adaptation flush) costs one sort. A no-op without a shed order.
    pub fn set_shed_priority(&mut self, unit: UnitId, priority: f64) {
        if let Some(s) = self.shed.as_mut() {
            let old = &mut s.priority[unit as usize];
            if PriorityKey(*old) != PriorityKey(priority) {
                *old = priority;
                s.stale = true;
            }
        }
    }

    /// The per-unit shed priorities (empty without a shed order) — the
    /// input of the reference scan [`crate::exec::shed_victim`].
    pub fn shed_priorities(&self) -> &[f64] {
        self.shed.as_ref().map_or(&[], |s| &s.priority)
    }

    /// QoS shed victim for an admission to `arriving`: exactly
    /// [`crate::exec::shed_victim`]`(self.nonempty(), self.shed_priorities(),
    /// arriving)`, answered from the rank index in O(q/4096) word reads
    /// instead of a scan of the non-empty units. `None` means the arriving
    /// unit is itself the least valuable (reject the arrival), and also
    /// that no shed order is installed.
    pub fn shed_victim(&mut self, arriving: UnitId) -> Option<UnitId> {
        let s = self.shed.as_mut()?;
        if s.stale {
            s.sort(&self.nonempty);
        }
        s.victim(arriving)
    }

    /// Enqueue a tuple.
    pub fn push(&mut self, unit: UnitId, tuple: SimTuple) {
        let q = &mut self.queues[unit as usize];
        if q.is_empty() {
            self.nonempty.push(unit);
            self.pos[unit as usize] = self.nonempty.len() as u32;
            if let Some(s) = self.shed.as_mut() {
                s.mark(unit);
            }
        }
        q.push_back(tuple);
        self.pending += 1;
    }

    /// Remove `unit` from the non-empty index once its queue has drained.
    /// Swap-remove: O(1), order not preserved.
    ///
    /// Errors (instead of underflowing `pos - 1` or panicking on an empty
    /// index) when the index slot disagrees with the queue contents — state
    /// corruption, not a caller mistake.
    fn unindex(&mut self, unit: UnitId) -> Result<(), EngineError> {
        // The queue is empty whatever the slot says: the rank bit follows
        // the queue, so victim search stays exact even on the error path.
        if let Some(s) = self.shed.as_mut() {
            s.unmark(unit);
        }
        let corrupt = EngineError::QueueIndexCorrupt { unit };
        let i = self
            .pos
            .get(unit as usize)
            .copied()
            .and_then(|p| p.checked_sub(1))
            .map(|i| i as usize)
            .filter(|&i| self.nonempty.get(i) == Some(&unit))
            .ok_or(corrupt)?;
        let last = self.nonempty.pop().ok_or(corrupt)?;
        if last != unit {
            self.nonempty[i] = last;
            self.pos[last as usize] = i as u32 + 1;
        }
        self.pos[unit as usize] = 0;
        Ok(())
    }

    /// Reconstruct the non-empty index from the queue contents — the
    /// self-healing path taken when [`UnitQueues::unindex`] detects
    /// corruption on a call that cannot surface an error.
    fn rebuild_index(&mut self) {
        self.nonempty.clear();
        self.pos.iter_mut().for_each(|p| *p = 0);
        for (u, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                self.nonempty.push(u as UnitId);
                self.pos[u] = self.nonempty.len() as u32;
            }
        }
        if let Some(s) = self.shed.as_mut() {
            s.remark(&self.nonempty);
        }
    }

    /// Dequeue the unit's head tuple.
    ///
    /// Errors (instead of panicking) on an empty queue or an out-of-range
    /// unit id — both are policy/engine contract violations that a robust
    /// engine surfaces as values.
    pub fn pop(&mut self, unit: UnitId) -> Result<SimTuple, EngineError> {
        let q = self
            .queues
            .get_mut(unit as usize)
            .ok_or(EngineError::UnknownUnit {
                unit,
                unit_count: self.pos.len(),
            })?;
        let t = q.pop_front().ok_or(EngineError::EmptyQueuePop { unit })?;
        self.pending -= 1;
        if self.queues[unit as usize].is_empty() {
            self.unindex(unit)?;
        }
        Ok(t)
    }

    /// Remove and return the unit's *tail* tuple (load shedding: the newest
    /// tuple has waited least, so dropping it costs the least sunk QoS).
    /// Returns `None` when the queue is empty.
    pub fn shed_tail(&mut self, unit: UnitId) -> Option<SimTuple> {
        let t = self.queues.get_mut(unit as usize)?.pop_back()?;
        self.pending -= 1;
        if self.queues[unit as usize].is_empty() && self.unindex(unit).is_err() {
            // `shed_tail` has no error channel; a corrupt index slot heals
            // by rebuilding the whole index from the queues.
            self.rebuild_index();
        }
        Some(t)
    }

    /// Corrupt the unit's index slot — regression-test hook for the
    /// [`EngineError::QueueIndexCorrupt`] paths.
    #[cfg(test)]
    fn corrupt_pos_for_tests(&mut self, unit: UnitId, pos: u32) {
        self.pos[unit as usize] = pos;
    }

    /// Iterate the unit's queued tuples in FIFO order (head first) without
    /// disturbing them — the policy-switch resync path reads the full
    /// backlog to replay it into a freshly built policy.
    pub fn tuples(&self, unit: UnitId) -> impl Iterator<Item = &SimTuple> {
        self.queues[unit as usize].iter()
    }

    /// Total pending tuples across all units.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when nothing is pending anywhere.
    pub fn all_empty(&self) -> bool {
        self.pending == 0
    }
}

impl QueueView for UnitQueues {
    fn len(&self, unit: UnitId) -> usize {
        self.queues[unit as usize].len()
    }

    fn head_arrival(&self, unit: UnitId) -> Option<Nanos> {
        self.queues[unit as usize].front().map(|t| t.arrival)
    }

    fn nonempty(&self) -> &[UnitId] {
        &self.nonempty
    }

    fn capacity(&self, _unit: UnitId) -> Option<usize> {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use hcq_common::TupleId;
    use proptest::prelude::*;

    fn tuple(id: u64, arrival_ms: u64) -> SimTuple {
        SimTuple {
            id: TupleId::new(id),
            arrival: Nanos::from_millis(arrival_ms),
            ts: Nanos::from_millis(arrival_ms),
            key: 1,
            ideal_depart: Nanos::from_millis(arrival_ms),
            lineage: TupleId::new(id),
        }
    }

    #[test]
    fn fifo_order_and_index() {
        let mut q = UnitQueues::new(3);
        assert!(q.all_empty());
        q.push(1, tuple(1, 10));
        q.push(1, tuple(2, 20));
        q.push(0, tuple(3, 30));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.len(1), 2);
        assert_eq!(q.head_arrival(1), Some(Nanos::from_millis(10)));
        let mut ne: Vec<_> = q.nonempty().to_vec();
        ne.sort();
        assert_eq!(ne, vec![0, 1]);
        assert_eq!(q.pop(1).unwrap().id, TupleId::new(1));
        assert_eq!(q.head_arrival(1), Some(Nanos::from_millis(20)));
        assert_eq!(q.pop(1).unwrap().id, TupleId::new(2));
        assert_eq!(q.nonempty(), &[0]);
        q.pop(0).unwrap();
        assert!(q.all_empty());
        assert!(q.nonempty().is_empty());
    }

    #[test]
    fn popping_empty_is_a_typed_error() {
        let mut q = UnitQueues::new(1);
        assert_eq!(q.pop(0), Err(EngineError::EmptyQueuePop { unit: 0 }));
    }

    #[test]
    fn popping_unknown_unit_is_a_typed_error() {
        let mut q = UnitQueues::new(2);
        assert_eq!(
            q.pop(7),
            Err(EngineError::UnknownUnit {
                unit: 7,
                unit_count: 2
            })
        );
    }

    #[test]
    fn capacity_surfaces_through_queue_view() {
        let mut q = UnitQueues::bounded(2, 2);
        assert_eq!(q.capacity(0), Some(2));
        assert!(!q.is_full(0));
        q.push(0, tuple(1, 1));
        q.push(0, tuple(2, 2));
        assert!(q.is_full(0));
        assert!(!q.is_full(1));
        // Unbounded queues never report full.
        let u = UnitQueues::new(1);
        assert_eq!(u.capacity(0), None);
        assert!(!u.is_full(0));
    }

    #[test]
    fn shed_tail_removes_newest_and_maintains_index() {
        let mut q = UnitQueues::new(2);
        q.push(0, tuple(1, 10));
        q.push(0, tuple(2, 20));
        q.push(1, tuple(3, 30));
        let shed = q.shed_tail(0).unwrap();
        assert_eq!(shed.id, TupleId::new(2));
        assert_eq!(q.pending(), 2);
        assert_eq!(q.head_arrival(0), Some(Nanos::from_millis(10)));
        // Shedding a queue's last tuple must clear it from the index.
        let shed = q.shed_tail(1).unwrap();
        assert_eq!(shed.id, TupleId::new(3));
        assert_eq!(q.nonempty(), &[0]);
        assert_eq!(q.shed_tail(1), None);
        assert_eq!(q.shed_tail(9), None, "out-of-range unit sheds nothing");
        assert_eq!(q.pop(0).unwrap().id, TupleId::new(1));
        assert!(q.all_empty());
    }

    #[test]
    fn shed_victim_follows_the_rank_order_and_lazy_rerank() {
        let mut q = UnitQueues::bounded(4, 1);
        // Without a shed order nothing is ever a victim.
        q.push(3, tuple(1, 1));
        assert_eq!(q.shed_victim(0), None);
        q.install_shed_order(vec![3.0, 1.0, 1.0, 0.5]);
        assert_eq!(q.shed_priorities(), &[3.0, 1.0, 1.0, 0.5]);
        // Installed on a non-empty queue set: unit 3 is already indexed.
        assert_eq!(q.shed_victim(0), Some(3));
        q.push(2, tuple(2, 2));
        q.push(1, tuple(3, 3));
        q.pop(3).unwrap();
        // Tie between 1 and 2 breaks to the lower id.
        assert_eq!(q.shed_victim(0), Some(1));
        // Tied with the arriving unit, a higher-id pending unit is spared.
        assert_eq!(q.shed_victim(1), None);
        // A raised priority re-ranks at the next query.
        q.set_shed_priority(1, 5.0);
        assert_eq!(q.shed_victim(0), Some(2));
        assert_eq!(q.shed_victim(1), Some(2));
        // The arriving unit is the least valuable: reject the arrival.
        assert_eq!(q.shed_victim(3), None);
    }

    #[test]
    fn corrupt_index_pop_is_a_typed_error() {
        // A zeroed slot (claims "absent" while the queue holds a tuple)
        // used to underflow `pos - 1`; an out-of-range slot used to panic
        // or clobber a neighbour. Both now surface as a typed error.
        for bad_pos in [0u32, 99] {
            let mut q = UnitQueues::new(2);
            q.push(0, tuple(1, 10));
            q.corrupt_pos_for_tests(0, bad_pos);
            assert_eq!(q.pop(0), Err(EngineError::QueueIndexCorrupt { unit: 0 }));
        }
    }

    #[test]
    fn corrupt_index_shed_self_heals() {
        let mut q = UnitQueues::new(3);
        q.install_shed_order(vec![0.5, 0.25, 1.0]);
        q.push(0, tuple(1, 10));
        q.push(2, tuple(2, 20));
        q.corrupt_pos_for_tests(0, 0);
        // `shed_tail` has no error channel: it rebuilds the index instead.
        assert_eq!(q.shed_tail(0).unwrap().id, TupleId::new(1));
        assert_eq!(q.nonempty(), &[2]);
        // The rebuilt rank bitset no longer holds unit 0: unit 2 is the only
        // pending unit, valued above unit 1 and below nothing else.
        assert_eq!(q.shed_victim(1), None);
        q.push(1, tuple(3, 30));
        assert_eq!(q.shed_victim(2), Some(1));
        assert_eq!(q.shed_victim(0), Some(1));
        assert_eq!(q.pop(1).unwrap().id, TupleId::new(3));
        assert_eq!(q.shed_victim(0), None);
        assert_eq!(q.pop(2).unwrap().id, TupleId::new(2));
        assert!(q.all_empty());
        assert!(q.nonempty().is_empty());
    }

    proptest! {
        /// The non-empty index always matches the actual queue contents,
        /// with shedding interleaved among pushes and pops.
        #[test]
        fn nonempty_index_consistent(ops in proptest::collection::vec((0u32..6, 0u8..4), 1..200)) {
            let mut q = UnitQueues::new(6);
            let mut id = 0u64;
            for (unit, op) in ops {
                match op {
                    0 | 1 => {
                        id += 1;
                        q.push(unit, tuple(id, id));
                    }
                    2 => {
                        if q.len(unit) > 0 {
                            q.pop(unit).unwrap();
                        } else {
                            prop_assert!(q.pop(unit).is_err());
                        }
                    }
                    _ => {
                        let had = q.len(unit);
                        prop_assert_eq!(q.shed_tail(unit).is_some(), had > 0);
                    }
                }
                let expect: Vec<u32> = (0..6).filter(|&u| q.len(u) > 0).collect();
                let mut got = q.nonempty().to_vec();
                got.sort();
                prop_assert_eq!(got, expect);
                let total: usize = (0..6).map(|u| q.len(u)).sum();
                prop_assert_eq!(total, q.pending());
            }
        }

        /// The indexed victim search equals the reference scan
        /// `exec::shed_victim` after every step of random push / pop /
        /// shed-tail / priority-update sequences, for every arriving unit —
        /// including ones whose queue is empty (the capacity-0 case). Unit
        /// counts above 4096 put ranks into a second summary word, and a
        /// bulk priority of NaN (lowest in the order) pushes every touched
        /// unit past the first one.
        #[test]
        fn indexed_shed_victim_matches_reference_scan(
            large in any::<bool>(),
            small_n in 1usize..=40,
            large_n in 4097usize..=4600,
            bulk in 0usize..POOL.len(),
            initial in proptest::collection::vec(0usize..POOL.len(), 32),
            ops in proptest::collection::vec((0u32..32, 0u8..5, 0usize..POOL.len()), 1..150),
        ) {
            let n = if large { large_n } else { small_n };
            // Ops touch ids 0..16 and the 16 highest ids; every other unit
            // stays empty and keeps the bulk priority.
            let unit_of = |sel: u32| -> UnitId {
                let n = n as u32;
                if n <= 32 { sel % n } else if sel < 16 { sel } else { n - 32 + sel }
            };
            let mut priority = vec![POOL[bulk]; n];
            for (sel, &p) in initial.iter().enumerate() {
                priority[unit_of(sel as u32) as usize] = POOL[p];
            }
            let mut q = UnitQueues::bounded(n, 0);
            q.install_shed_order(priority);
            let candidates: Vec<UnitId> = (0..32).map(unit_of).chain([n as UnitId / 2]).collect();
            let mut id = 0u64;
            for (sel, op, p) in ops {
                let unit = unit_of(sel);
                match op {
                    0 | 1 => {
                        id += 1;
                        q.push(unit, tuple(id, id));
                    }
                    2 => {
                        let _ = q.pop(unit);
                    }
                    3 => {
                        q.shed_tail(unit);
                    }
                    _ => q.set_shed_priority(unit, POOL[p]),
                }
                for &arriving in &candidates {
                    let expect = exec::shed_victim(q.nonempty(), q.shed_priorities(), arriving);
                    prop_assert_eq!(q.shed_victim(arriving), expect, "arriving {}", arriving);
                }
            }
        }
    }

    /// Shed priorities with ties, signed zeros, infinities and NaN.
    const POOL: [f64; 8] = [
        0.0,
        -0.0,
        1.0,
        1.0,
        0.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
}

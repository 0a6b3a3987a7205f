//! The probers' shared time-report buffer with cross-core visibility delays.
//!
//! Paper §III-B1: "the Time Reporter obtains the latest time from a shared
//! timer among all CPU cores and then reports the time into a buffer that is
//! readable to all threads." On real hardware a report written on one core
//! becomes visible to another core only after the store drains through the
//! cache hierarchy; §IV-B2 measured this cross-core reading delay at up to
//! 1.3 ms in rare cases. [`SharedTimeBuffer`] models publication explicitly:
//! each report carries a *visible-at* instant (drawn by the system from the
//! calibrated heavy-tail distribution), and readers only see reports whose
//! visibility instant has passed.

use satin_hw::CoreId;
use satin_sim::SimTime;
use std::collections::VecDeque;

/// One published report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Report {
    /// When the reporter wrote the value.
    published: SimTime,
    /// When other cores can first see it.
    visible_at: SimTime,
    /// The reported value (the counter read, ≈ publish time).
    value: SimTime,
}

/// Per-core report slots with bounded history.
///
/// # Example
///
/// ```
/// use satin_system::SharedTimeBuffer;
/// use satin_hw::CoreId;
/// use satin_sim::SimTime;
///
/// let mut buf = SharedTimeBuffer::new(2);
/// let c0 = CoreId::new(0);
/// buf.publish(c0, SimTime::from_micros(10), SimTime::from_micros(25), SimTime::from_micros(10));
/// // Before the store drains, a remote reader sees nothing:
/// assert_eq!(buf.read_remote(c0, SimTime::from_micros(20)), None);
/// // After it drains, the report is visible:
/// assert_eq!(
///     buf.read_remote(c0, SimTime::from_micros(25)),
///     Some(SimTime::from_micros(10))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SharedTimeBuffer {
    slots: Vec<Slot>,
    /// Reports retained per core (enough to cover any realistic delay).
    depth: usize,
}

/// One core's report history, oldest first.
#[derive(Debug, Clone)]
struct Slot {
    reports: VecDeque<Report>,
    /// `published` is nondecreasing along `reports` — true of every real
    /// reporter, which reads a monotone counter. Reads then stop at the
    /// newest admitted report instead of scanning the whole history.
    in_order: bool,
}

impl Slot {
    fn new(depth: usize) -> Self {
        Slot {
            reports: VecDeque::with_capacity(depth),
            in_order: true,
        }
    }

    /// The value of the latest-`published` report that `seen` admits; on
    /// equal `published` instants the newest report wins.
    fn freshest(&self, seen: impl Fn(&Report) -> bool) -> Option<SimTime> {
        if self.in_order {
            // Walking back from the newest, the first admitted report has
            // the largest `published` and is the newest of any tie.
            return self.reports.iter().rev().find(|r| seen(r)).map(|r| r.value);
        }
        self.reports
            .iter()
            .filter(|r| seen(r))
            .max_by_key(|r| r.published)
            .map(|r| r.value)
    }
}

impl SharedTimeBuffer {
    /// A buffer for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "buffer needs at least one core");
        let depth = 16;
        SharedTimeBuffer {
            slots: vec![Slot::new(depth); num_cores],
            depth,
        }
    }

    /// Publishes a report from `core`: written at `published`, visible to
    /// remote cores at `visible_at`, carrying `value`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `visible_at < published`.
    pub fn publish(
        &mut self,
        core: CoreId,
        published: SimTime,
        visible_at: SimTime,
        value: SimTime,
    ) {
        assert!(visible_at >= published, "visibility before publication");
        let slot = &mut self.slots[core.index()];
        let q = &mut slot.reports;
        if q.back().is_some_and(|last| published < last.published) {
            slot.in_order = false;
        }
        if q.len() == self.depth {
            q.pop_front();
        }
        q.push_back(Report {
            published,
            visible_at,
            value,
        });
    }

    /// The freshest value of `core`'s reports visible to a *remote* reader
    /// at `now`, or `None` if nothing is visible yet.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn read_remote(&self, core: CoreId, now: SimTime) -> Option<SimTime> {
        self.slots[core.index()].freshest(|r| r.visible_at <= now)
    }

    /// The freshest value as seen from the *publishing* core itself (no
    /// cross-core delay: a core always sees its own stores).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn read_local(&self, core: CoreId, now: SimTime) -> Option<SimTime> {
        self.slots[core.index()].freshest(|r| r.published <= now)
    }

    /// Number of cores covered.
    pub fn num_cores(&self) -> usize {
        self.slots.len()
    }

    /// Clears all reports.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.reports.clear();
            slot.in_order = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn visibility_gates_remote_reads() {
        let mut b = SharedTimeBuffer::new(1);
        b.publish(CoreId::new(0), t(10), t(30), t(10));
        assert_eq!(b.read_remote(CoreId::new(0), t(29)), None);
        assert_eq!(b.read_remote(CoreId::new(0), t(30)), Some(t(10)));
    }

    #[test]
    fn local_reads_ignore_visibility() {
        let mut b = SharedTimeBuffer::new(1);
        b.publish(CoreId::new(0), t(10), t(1000), t(10));
        assert_eq!(b.read_local(CoreId::new(0), t(10)), Some(t(10)));
    }

    #[test]
    fn freshest_visible_wins_even_when_out_of_order() {
        let mut b = SharedTimeBuffer::new(1);
        let c = CoreId::new(0);
        // Older report with a *huge* delay; newer report with a small one.
        b.publish(c, t(10), t(500), t(10));
        b.publish(c, t(20), t(22), t(20));
        // At t=25 only the newer one is visible.
        assert_eq!(b.read_remote(c, t(25)), Some(t(20)));
        // At t=500 both are visible; the newer (by publish time) still wins.
        assert_eq!(b.read_remote(c, t(500)), Some(t(20)));
    }

    #[test]
    fn stale_core_goes_quiet() {
        // The side channel: a core in the secure world stops publishing, so
        // its freshest visible report ages.
        let mut b = SharedTimeBuffer::new(2);
        let victim = CoreId::new(1);
        b.publish(victim, t(100), t(105), t(100));
        // Much later, the freshest visible value is still t(100):
        assert_eq!(b.read_remote(victim, t(5_000)), Some(t(100)));
    }

    #[test]
    fn history_bounded() {
        let mut b = SharedTimeBuffer::new(1);
        let c = CoreId::new(0);
        for i in 0..100 {
            b.publish(c, t(i), t(i), t(i));
        }
        assert_eq!(b.read_remote(c, t(1000)), Some(t(99)));
        b.clear();
        assert_eq!(b.read_remote(c, t(1000)), None);
    }

    /// The full-history read every `freshest` call made before the
    /// early-exit path: the reference for it.
    fn reference(q: &VecDeque<Report>, seen: impl Fn(&Report) -> bool) -> Option<SimTime> {
        q.iter()
            .filter(|r| seen(r))
            .max_by_key(|r| r.published)
            .map(|r| r.value)
    }

    proptest! {
        /// Random per-core publish sequences, with out-of-order visibility,
        /// equal `published` instants and eviction past the history depth,
        /// published in order (the early-exit path) or not (the full
        /// scan): at every `now`, both reads equal the reference.
        #[test]
        fn prop_reads_match_filter_max_reference(
            mut reports in proptest::collection::vec((0usize..2, 0u64..40, 0u64..30), 0..60),
            in_order in 0u8..2,
        ) {
            if in_order == 1 {
                // Stable: equal instants keep their random delays' order.
                reports.sort_by_key(|&(_, published, _)| published);
            }
            let mut b = SharedTimeBuffer::new(2);
            for (i, (core, published, delay)) in reports.into_iter().enumerate() {
                // Distinct values show which of two equal-`published`
                // reports a read picked.
                b.publish(CoreId::new(core), t(published), t(published + delay), t(1_000 + i as u64));
            }
            for core in 0..2 {
                let c = CoreId::new(core);
                prop_assert!(in_order == 0 || b.slots[core].in_order);
                let q = &b.slots[core].reports;
                for now in (0..75).map(t) {
                    prop_assert_eq!(b.read_remote(c, now), reference(q, |r| r.visible_at <= now));
                    prop_assert_eq!(b.read_local(c, now), reference(q, |r| r.published <= now));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "visibility before publication")]
    fn bad_visibility_rejected() {
        let mut b = SharedTimeBuffer::new(1);
        b.publish(CoreId::new(0), t(10), t(5), t(10));
    }
}

//! Per-core runqueues: an RT FIFO class over a CFS class.

use crate::task::TaskId;

/// One core's runqueue pair.
///
/// The RT queue is ordered by `(99 - priority, arrival)`, so the pick order
/// is highest-priority-first, FIFO within a priority — `SCHED_FIFO`
/// semantics. The CFS queue is ordered by `(vruntime, id)`, so the leftmost
/// (smallest vruntime) task is picked, like the kernel's red-black tree.
///
/// Both queues are sorted `Vec`s kept in *descending* key order, so the next
/// task sits at the back and a pick is a `Vec::pop`. A core's queue holds a
/// handful of tasks at most (the paper's pollers run 0–2 deep), where a
/// binary search plus a short shift beats any tree.
///
/// # Example
///
/// ```
/// use satin_kernel::runqueue::CoreRunQueue;
/// use satin_kernel::TaskId;
///
/// let mut rq = CoreRunQueue::new();
/// rq.enqueue_cfs(100, TaskId::new(1));
/// rq.enqueue_rt(50, TaskId::new(2));
/// // RT always beats CFS:
/// assert_eq!(rq.pick_next(), Some(TaskId::new(2)));
/// assert_eq!(rq.pick_next(), Some(TaskId::new(1)));
/// assert_eq!(rq.pick_next(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreRunQueue {
    /// `((99 - priority, arrival), task)`, sorted descending by key.
    rt: Vec<((u8, u64), TaskId)>,
    /// `(vruntime, task)`, sorted descending; a set (no duplicate entries).
    cfs: Vec<(u64, TaskId)>,
    arrival: u64,
    min_vruntime: u64,
}

impl CoreRunQueue {
    /// An empty runqueue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an RT task at `priority` (1..=99, higher wins).
    ///
    /// # Panics
    ///
    /// Panics if `priority` is outside `1..=99`.
    pub fn enqueue_rt(&mut self, priority: u8, task: TaskId) {
        assert!((1..=99).contains(&priority), "bad RT priority {priority}");
        let key = (99 - priority, self.arrival);
        self.arrival += 1;
        // Arrivals are unique, so the key is new and lands below every
        // queued entry of the same priority.
        let pos = self.rt.partition_point(|(k, _)| *k > key);
        self.rt.insert(pos, (key, task));
    }

    /// Enqueues a CFS task at `vruntime`. Enqueuing an entry that is already
    /// queued (same vruntime and task) is a no-op.
    pub fn enqueue_cfs(&mut self, vruntime: u64, task: TaskId) {
        let entry = (vruntime, task);
        let pos = self.cfs.partition_point(|e| *e > entry);
        if self.cfs.get(pos) != Some(&entry) {
            self.cfs.insert(pos, entry);
        }
    }

    /// Picks (and removes) the next task: the highest-priority RT task if
    /// any, else the smallest-vruntime CFS task.
    pub fn pick_next(&mut self) -> Option<TaskId> {
        if let Some((_, tid)) = self.rt.pop() {
            return Some(tid);
        }
        let (v, tid) = self.cfs.pop()?;
        self.min_vruntime = self.min_vruntime.max(v);
        Some(tid)
    }

    /// The task `pick_next` would return, without removing it.
    pub fn peek_next(&self) -> Option<TaskId> {
        match self.rt.last() {
            Some(&(_, tid)) => Some(tid),
            None => self.cfs.last().map(|&(_, tid)| tid),
        }
    }

    /// The priority of the best queued RT task, if any.
    pub fn best_rt_priority(&self) -> Option<u8> {
        self.rt.last().map(|((inv, _), _)| 99 - inv)
    }

    /// Removes a specific task from whichever queue holds it (its
    /// earliest-ordered entry, if queued more than once).
    /// Returns `true` if it was queued.
    pub fn remove(&mut self, task: TaskId) -> bool {
        if let Some(pos) = self.rt.iter().rposition(|&(_, t)| t == task) {
            self.rt.remove(pos);
            return true;
        }
        if let Some(pos) = self.cfs.iter().rposition(|&(_, t)| t == task) {
            self.cfs.remove(pos);
            return true;
        }
        false
    }

    /// Number of queued (runnable, not running) tasks.
    pub fn len(&self) -> usize {
        self.rt.len() + self.cfs.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.rt.is_empty() && self.cfs.is_empty()
    }

    /// Number of queued RT tasks.
    pub fn rt_len(&self) -> usize {
        self.rt.len()
    }

    /// Number of queued CFS tasks.
    pub fn cfs_len(&self) -> usize {
        self.cfs.len()
    }

    /// The queue's monotone minimum vruntime — new arrivals are floored here
    /// so long sleepers cannot starve everyone on wake.
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Raises the queue's minimum vruntime (called as tasks execute).
    pub fn advance_min_vruntime(&mut self, v: u64) {
        self.min_vruntime = self.min_vruntime.max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The tree-backed runqueue the sorted-`Vec` one replaced, kept as the
    /// reference model for the differential property test below.
    #[derive(Default)]
    struct TreeRunQueue {
        rt: BTreeMap<(u8, u64), TaskId>,
        cfs: BTreeSet<(u64, TaskId)>,
        arrival: u64,
        min_vruntime: u64,
    }

    impl TreeRunQueue {
        fn enqueue_rt(&mut self, priority: u8, task: TaskId) {
            self.rt.insert((99 - priority, self.arrival), task);
            self.arrival += 1;
        }

        fn enqueue_cfs(&mut self, vruntime: u64, task: TaskId) {
            self.cfs.insert((vruntime, task));
        }

        fn pick_next(&mut self) -> Option<TaskId> {
            if let Some((_, tid)) = self.rt.pop_first() {
                return Some(tid);
            }
            let (v, tid) = self.cfs.pop_first()?;
            self.min_vruntime = self.min_vruntime.max(v);
            Some(tid)
        }

        fn peek_next(&self) -> Option<TaskId> {
            self.rt
                .values()
                .next()
                .or_else(|| self.cfs.iter().next().map(|(_, t)| t))
                .copied()
        }

        fn best_rt_priority(&self) -> Option<u8> {
            self.rt.keys().next().map(|(inv, _)| 99 - inv)
        }

        fn remove(&mut self, task: TaskId) -> bool {
            if let Some(key) = self.rt.iter().find(|(_, t)| **t == task).map(|(k, _)| *k) {
                self.rt.remove(&key);
                return true;
            }
            if let Some(key) = self.cfs.iter().find(|(_, t)| *t == task).copied() {
                self.cfs.remove(&key);
                return true;
            }
            false
        }

        fn advance_min_vruntime(&mut self, v: u64) {
            self.min_vruntime = self.min_vruntime.max(v);
        }
    }

    #[test]
    fn rt_priority_order() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_rt(10, TaskId::new(1));
        rq.enqueue_rt(99, TaskId::new(2));
        rq.enqueue_rt(50, TaskId::new(3));
        assert_eq!(rq.best_rt_priority(), Some(99));
        assert_eq!(rq.pick_next(), Some(TaskId::new(2)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(3)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(1)));
    }

    #[test]
    fn rt_fifo_within_priority() {
        let mut rq = CoreRunQueue::new();
        for i in 0..5 {
            rq.enqueue_rt(40, TaskId::new(i));
        }
        for i in 0..5 {
            assert_eq!(rq.pick_next(), Some(TaskId::new(i)));
        }
    }

    #[test]
    fn cfs_vruntime_order() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(300, TaskId::new(1));
        rq.enqueue_cfs(100, TaskId::new(2));
        rq.enqueue_cfs(200, TaskId::new(3));
        assert_eq!(rq.pick_next(), Some(TaskId::new(2)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(3)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(1)));
    }

    #[test]
    fn min_vruntime_advances_with_picks() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(500, TaskId::new(1));
        assert_eq!(rq.min_vruntime(), 0);
        rq.pick_next();
        assert_eq!(rq.min_vruntime(), 500);
        rq.advance_min_vruntime(300); // cannot regress
        assert_eq!(rq.min_vruntime(), 500);
    }

    #[test]
    fn remove_from_either_queue() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_rt(10, TaskId::new(1));
        rq.enqueue_cfs(5, TaskId::new(2));
        assert!(rq.remove(TaskId::new(2)));
        assert!(rq.remove(TaskId::new(1)));
        assert!(!rq.remove(TaskId::new(3)));
        assert!(rq.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(1, TaskId::new(7));
        assert_eq!(rq.peek_next(), Some(TaskId::new(7)));
        assert_eq!(rq.len(), 1);
    }

    proptest! {
        /// Invariant 2 (DESIGN.md): an RT task is never picked after a CFS
        /// task that was enqueued at the same time.
        #[test]
        fn prop_rt_always_beats_cfs(
            rt in proptest::collection::vec(1u8..=99, 0..20),
            cfs in proptest::collection::vec(0u64..1000, 0..20),
        ) {
            let mut rq = CoreRunQueue::new();
            let rt_count = rt.len();
            for (i, p) in rt.iter().enumerate() {
                rq.enqueue_rt(*p, TaskId::new(i as u64));
            }
            for (i, v) in cfs.iter().enumerate() {
                rq.enqueue_cfs(*v, TaskId::new(1000 + i as u64));
            }
            let mut picked = Vec::new();
            while let Some(t) = rq.pick_next() {
                picked.push(t);
            }
            prop_assert_eq!(picked.len(), rt.len() + cfs.len());
            // All RT ids (< 1000) come before all CFS ids (>= 1000).
            let first_cfs = picked.iter().position(|t| t.value() >= 1000);
            if let Some(pos) = first_cfs {
                prop_assert!(picked[pos..].iter().all(|t| t.value() >= 1000));
                prop_assert_eq!(pos, rt_count);
            }
        }

        /// Random programs over a few task ids, priorities and vruntimes
        /// (so equal priorities, equal vruntimes and repeated enqueues of
        /// one task all occur) give the same results as the tree model.
        #[test]
        fn prop_matches_tree_model(
            ops in proptest::collection::vec((0u8..7, 0u64..6, 0u64..8), 0..120),
        ) {
            let mut rq = CoreRunQueue::new();
            let mut model = TreeRunQueue::default();
            for (op, task, arg) in ops {
                let tid = TaskId::new(task);
                match op {
                    0 => {
                        let prio = [1u8, 50, 50, 99][(arg % 4) as usize];
                        rq.enqueue_rt(prio, tid);
                        model.enqueue_rt(prio, tid);
                    }
                    1 => {
                        rq.enqueue_cfs(arg * 100, tid);
                        model.enqueue_cfs(arg * 100, tid);
                    }
                    2 | 3 => prop_assert_eq!(rq.pick_next(), model.pick_next()),
                    4 => prop_assert_eq!(rq.remove(tid), model.remove(tid)),
                    5 => {
                        rq.advance_min_vruntime(arg * 150);
                        model.advance_min_vruntime(arg * 150);
                    }
                    _ => {}
                }
                prop_assert_eq!(rq.peek_next(), model.peek_next());
                prop_assert_eq!(rq.best_rt_priority(), model.best_rt_priority());
                prop_assert_eq!(rq.min_vruntime(), model.min_vruntime);
                prop_assert_eq!(rq.rt_len(), model.rt.len());
                prop_assert_eq!(rq.cfs_len(), model.cfs.len());
                prop_assert_eq!(rq.len(), model.rt.len() + model.cfs.len());
                prop_assert_eq!(rq.is_empty(), model.rt.is_empty() && model.cfs.is_empty());
            }
            // Draining both gives the same order.
            loop {
                let next = rq.pick_next();
                prop_assert_eq!(next, model.pick_next());
                if next.is_none() {
                    break;
                }
            }
        }

        /// RT picks are sorted by descending priority.
        #[test]
        fn prop_rt_sorted_by_priority(prios in proptest::collection::vec(1u8..=99, 1..30)) {
            let mut rq = CoreRunQueue::new();
            for (i, p) in prios.iter().enumerate() {
                rq.enqueue_rt(*p, TaskId::new(i as u64));
            }
            let mut last = 100u8;
            while rq.rt_len() > 0 {
                let best = rq.best_rt_priority().unwrap();
                prop_assert!(best <= last);
                last = best;
                rq.pick_next();
            }
        }
    }
}

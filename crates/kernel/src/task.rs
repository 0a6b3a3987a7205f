//! Tasks: the unit of normal-world scheduling.

use satin_hw::CoreId;
use satin_sim::SimDuration;
use std::fmt;

/// Identifier of a kernel task (thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u64);

impl TaskId {
    /// Wraps a raw id.
    pub const fn new(id: u64) -> Self {
        TaskId(id)
    }

    /// The raw id.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Scheduling class, mirroring Linux's class hierarchy: the RT class always
/// preempts the fair (CFS) class; within RT FIFO, higher priority wins and
/// equal priorities run to completion in FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedClass {
    /// Completely Fair Scheduler with a nice value in `[-20, 19]`.
    Cfs {
        /// Nice value: lower is more CPU share.
        nice: i8,
    },
    /// `SCHED_FIFO` real-time class with priority `1..=99` (higher wins).
    /// KProber-II uses `sched_get_priority_max(SCHED_FIFO)` = 99 (§IV-A1).
    RtFifo {
        /// Real-time priority, 1..=99.
        priority: u8,
    },
}

impl SchedClass {
    /// The default CFS class (nice 0).
    pub const fn cfs() -> Self {
        SchedClass::Cfs { nice: 0 }
    }

    /// The maximum-priority `SCHED_FIFO` class KProber-II requests.
    pub const fn rt_max() -> Self {
        SchedClass::RtFifo { priority: 99 }
    }

    /// `true` for the real-time class.
    pub fn is_rt(self) -> bool {
        matches!(self, SchedClass::RtFifo { .. })
    }

    /// Validates class parameters.
    ///
    /// # Panics
    ///
    /// Panics if nice is outside `[-20, 19]` or RT priority outside `[1, 99]`.
    pub fn validate(self) {
        match self {
            SchedClass::Cfs { nice } => {
                assert!((-20..=19).contains(&nice), "nice {nice} out of range")
            }
            SchedClass::RtFifo { priority } => assert!(
                (1..=99).contains(&priority),
                "RT priority {priority} out of range"
            ),
        }
    }
}

/// CPU affinity mask.
///
/// The paper's probers pin one thread per core precisely so the OS cannot
/// migrate a paused thread off a core that entered the secure world
/// (§III-B1) — migration would destroy the side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affinity {
    mask: u64,
}

impl Affinity {
    /// Allows all of the first `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is 0 or greater than 64.
    pub fn any(num_cores: usize) -> Self {
        assert!((1..=64).contains(&num_cores), "bad core count {num_cores}");
        Affinity {
            mask: if num_cores == 64 {
                u64::MAX
            } else {
                (1u64 << num_cores) - 1
            },
        }
    }

    /// Pins to a single core.
    ///
    /// # Panics
    ///
    /// Panics if the core index is ≥ 64.
    pub fn pinned(core: CoreId) -> Self {
        assert!(core.index() < 64, "core index too large");
        Affinity {
            mask: 1u64 << core.index(),
        }
    }

    /// `true` if `core` is allowed.
    pub fn allows(self, core: CoreId) -> bool {
        core.index() < 64 && self.mask & (1 << core.index()) != 0
    }

    /// Iterates allowed core indices (ascending).
    pub fn cores(self) -> impl Iterator<Item = CoreId> {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1; // clear the lowest set bit
            Some(CoreId::new(i))
        })
    }

    /// Number of allowed cores.
    pub fn count(self) -> usize {
        self.mask.count_ones() as usize
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Waiting on a runqueue.
    Runnable,
    /// Currently on a CPU.
    Running,
    /// Sleeping until a timer wake.
    Sleeping,
    /// Blocked on an event (no timer).
    Blocked,
    /// Finished.
    Exited,
}

/// A kernel task: bookkeeping only — the *behaviour* of a task is a
/// `ThreadBody` plugged in at the `satin-system` layer.
#[derive(Debug, Clone)]
pub struct Task {
    id: TaskId,
    name: String,
    class: SchedClass,
    affinity: Affinity,
    state: TaskState,
    /// CFS virtual runtime, weighted nanoseconds.
    vruntime: u64,
    /// Core the task last ran on (dirty-cache heuristic for wake placement).
    last_core: Option<CoreId>,
    /// Total CPU time consumed.
    cpu_time: SimDuration,
    /// Number of times the task has been woken.
    wakeups: u64,
}

impl Task {
    /// Creates a task in the [`TaskState::Blocked`] state (it becomes
    /// runnable when the scheduler wakes it).
    ///
    /// # Panics
    ///
    /// Panics if the scheduling class parameters are invalid.
    pub fn new(id: TaskId, name: impl Into<String>, class: SchedClass, affinity: Affinity) -> Self {
        class.validate();
        Task {
            id,
            name: name.into(),
            class,
            affinity,
            state: TaskState::Blocked,
            vruntime: 0,
            last_core: None,
            cpu_time: SimDuration::ZERO,
            wakeups: 0,
        }
    }

    /// Task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Task name (for traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scheduling class.
    pub fn class(&self) -> SchedClass {
        self.class
    }

    /// Affinity mask.
    pub fn affinity(&self) -> Affinity {
        self.affinity
    }

    /// Current state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// CFS virtual runtime.
    pub fn vruntime(&self) -> u64 {
        self.vruntime
    }

    /// Core the task last ran on.
    pub fn last_core(&self) -> Option<CoreId> {
        self.last_core
    }

    /// Total CPU time consumed.
    pub fn cpu_time(&self) -> SimDuration {
        self.cpu_time
    }

    /// Number of wakeups.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    pub(crate) fn set_state(&mut self, state: TaskState) {
        self.state = state;
    }

    pub(crate) fn set_last_core(&mut self, core: CoreId) {
        self.last_core = Some(core);
    }

    pub(crate) fn add_vruntime(&mut self, delta: u64) {
        self.vruntime = self.vruntime.saturating_add(delta);
    }

    pub(crate) fn set_vruntime(&mut self, v: u64) {
        self.vruntime = v;
    }

    pub(crate) fn add_cpu_time(&mut self, d: SimDuration) {
        self.cpu_time += d;
    }

    pub(crate) fn count_wakeup(&mut self) {
        self.wakeups += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_any_and_pinned() {
        let a = Affinity::any(6);
        assert_eq!(a.count(), 6);
        assert!(a.allows(CoreId::new(0)));
        assert!(a.allows(CoreId::new(5)));
        assert!(!a.allows(CoreId::new(6)));
        let p = Affinity::pinned(CoreId::new(3));
        assert_eq!(p.count(), 1);
        assert!(p.allows(CoreId::new(3)));
        assert!(!p.allows(CoreId::new(2)));
        assert_eq!(p.cores().collect::<Vec<_>>(), vec![CoreId::new(3)]);
    }

    #[test]
    fn affinity_64_cores() {
        let a = Affinity::any(64);
        assert_eq!(a.count(), 64);
        assert_eq!(
            a.cores().collect::<Vec<_>>(),
            (0..64).map(CoreId::new).collect::<Vec<_>>()
        );
    }

    #[test]
    fn affinity_cores_reach_core_63() {
        let top = Affinity::pinned(CoreId::new(63));
        assert_eq!(top.cores().collect::<Vec<_>>(), vec![CoreId::new(63)]);
        let sparse = Affinity {
            mask: (1 << 63) | (1 << 40) | 0b101,
        };
        assert_eq!(
            sparse.cores().map(CoreId::index).collect::<Vec<_>>(),
            vec![0, 2, 40, 63]
        );
        assert_eq!(Affinity { mask: 0 }.cores().count(), 0);
    }

    #[test]
    #[should_panic(expected = "bad core count")]
    fn affinity_zero_rejected() {
        Affinity::any(0);
    }

    #[test]
    fn class_validation() {
        SchedClass::Cfs { nice: -20 }.validate();
        SchedClass::RtFifo { priority: 99 }.validate();
        assert!(SchedClass::rt_max().is_rt());
        assert!(!SchedClass::cfs().is_rt());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rt_priority() {
        SchedClass::RtFifo { priority: 0 }.validate();
    }

    #[test]
    fn task_bookkeeping() {
        let mut t = Task::new(
            TaskId::new(1),
            "prober",
            SchedClass::rt_max(),
            Affinity::pinned(CoreId::new(2)),
        );
        assert_eq!(t.state(), TaskState::Blocked);
        assert_eq!(t.name(), "prober");
        t.set_state(TaskState::Runnable);
        t.count_wakeup();
        t.add_cpu_time(SimDuration::from_micros(5));
        t.add_vruntime(100);
        t.set_last_core(CoreId::new(2));
        assert_eq!(t.state(), TaskState::Runnable);
        assert_eq!(t.wakeups(), 1);
        assert_eq!(t.cpu_time(), SimDuration::from_micros(5));
        assert_eq!(t.vruntime(), 100);
        assert_eq!(t.last_core(), Some(CoreId::new(2)));
        assert_eq!(t.id().to_string(), "task1");
    }
}

//! The traced run's observer: per-layer counts and sampled self time.
//!
//! [`LayerTrace`] is a read-only `SimObserver<SysEvent>` installed through
//! `System::set_sim_observer`. It counts every scheduled event, dispatched
//! event and mark by kind, and sorts each dispatched event into one
//! [`Bucket`]: the scheduler tick, the secure world, or the role of the task
//! the event serves. A deterministic 1-in-[`SAMPLE_ONE_IN`] sample of events
//! is timed from its dispatch to the next dispatch, and scaled up by each
//! bucket's count over its samples. Timing every event doubles a campaign's
//! run time, which is why it is sampled.
//!
//! A timed event runs slower than an untimed one (the clock reads stall
//! the pipeline), so the scaled estimates overshoot. A bucket's self time is
//! therefore its share of the estimated total, applied to the measured host
//! time of the run loop; the estimated total over that time is reported as
//! the sample's coverage (1.0 when unbiased).

use satin_kernel::TaskId;
use satin_sim::{Mark, MarkTag, SimObserver, SimTime};
use satin_system::{SysEvent, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One event in this many is timed (on average; the choice is a fixed
/// hash of the dispatch index, so it repeats exactly run to run).
pub const SAMPLE_ONE_IN: u64 = 64;

/// Where a dispatched event's host time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Scheduler-tick boundaries (`system.tick`).
    Tick,
    /// Wake, dispatch and done events of non-attack tasks, and dispatches
    /// that started no task (`system.dispatch`).
    Dispatch,
    /// Wake, dispatch and done events of rootkit tasks (`attack.rootkit`).
    Rootkit,
    /// Wake, dispatch and done events of prober tasks (`attack.prober`).
    Prober,
    /// Secure-timer fires and secure-world exits (`secure`).
    Secure,
}

const BUCKETS: usize = 5;
const ALL_BUCKETS: [Bucket; BUCKETS] = [
    Bucket::Tick,
    Bucket::Dispatch,
    Bucket::Rootkit,
    Bucket::Prober,
    Bucket::Secure,
];

impl Bucket {
    fn index(self) -> usize {
        self as usize
    }

    /// The layer the bucket reports as.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Tick => "system.tick",
            Bucket::Dispatch => "system.dispatch",
            Bucket::Rootkit => "attack.rootkit",
            Bucket::Prober => "attack.prober",
            Bucket::Secure => "secure",
        }
    }

    /// The bucket of a task's events, by the role its name gives it: the
    /// rootkit and its recovery helpers, the prober threads and their
    /// partners, or anything else (workload tasks, service helpers).
    fn of_task_name(name: &str) -> Bucket {
        const PROBER: [&str; 6] = [
            "prober",
            "kprober",
            "reporter",
            "comparer",
            "spinner",
            "predictor",
        ];
        if name.starts_with("rootkit") {
            Bucket::Rootkit
        } else if PROBER.iter().any(|p| name.starts_with(p)) {
            Bucket::Prober
        } else {
            Bucket::Dispatch
        }
    }
}

/// `SysEvent` variant names, indexed by [`kind`].
const KINDS: [&str; 6] = [
    "TickBoundary",
    "TaskWake",
    "Dispatch",
    "TaskDone",
    "SecureTimerFire",
    "SecureDone",
];

fn kind(event: &SysEvent) -> usize {
    match event {
        SysEvent::TickBoundary { .. } => 0,
        SysEvent::TaskWake { .. } => 1,
        SysEvent::Dispatch { .. } => 2,
        SysEvent::TaskDone { .. } => 3,
        SysEvent::SecureTimerFire { .. } => 4,
        SysEvent::SecureDone { .. } => 5,
    }
}

/// Everything one traced campaign counted.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Events accepted into the queue.
    pub scheduled: u64,
    /// Events dispatched.
    pub dispatched: u64,
    /// Highest pending-event count seen.
    pub max_depth: usize,
    /// Scheduled events per `SysEvent` kind.
    pub scheduled_by_kind: [u64; KINDS.len()],
    /// Dispatched events per `SysEvent` kind.
    pub dispatched_by_kind: [u64; KINDS.len()],
    /// Marks per tag.
    pub marks: BTreeMap<&'static str, u64>,
    /// Dispatched events per bucket.
    pub events: [u64; BUCKETS],
    /// Timed events per bucket.
    pub samples: [u64; BUCKETS],
    /// Host nanoseconds of the timed events per bucket.
    pub sampled_ns: [u64; BUCKETS],
    /// `TaskWake` events per bucket (rootkit and prober wakes).
    pub wakes: [u64; BUCKETS],
    /// `RecoveryBegin` plus `AttackObserve` marks: poller wakes that found
    /// something to do.
    pub useful_polls: u64,
    /// Bytes covered by `ScanBegin` windows.
    pub bytes_scanned: u64,
    /// Measured host seconds of the run loop the events were dispatched in.
    pub loop_s: f64,
}

impl LayerCounts {
    /// Raw sampled estimate of the host seconds spent on `bucket`.
    fn raw_s(&self, bucket: Bucket) -> f64 {
        let i = bucket.index();
        if self.samples[i] == 0 {
            return 0.0;
        }
        self.sampled_ns[i] as f64 * self.events[i] as f64 / self.samples[i] as f64 / 1e9
    }

    fn raw_total_s(&self) -> f64 {
        ALL_BUCKETS.iter().map(|b| self.raw_s(*b)).sum()
    }

    /// Host seconds spent handling `bucket`'s events: its sampled share of
    /// the run loop's measured time.
    pub fn self_s(&self, bucket: Bucket) -> f64 {
        let total = self.raw_total_s();
        if total == 0.0 {
            return 0.0;
        }
        self.loop_s * self.raw_s(bucket) / total
    }

    /// Multi-line counts by event kind, bucket and mark tag.
    pub fn breakdown(&self) -> String {
        let mut out = String::new();
        for (label, counts) in [
            ("scheduled", &self.scheduled_by_kind),
            ("dispatched", &self.dispatched_by_kind),
        ] {
            let _ = write!(out, "{label}:");
            for (name, n) in KINDS.iter().zip(counts) {
                let _ = write!(out, " {name}={n}");
            }
            out.push('\n');
        }
        let _ = write!(out, "buckets:");
        for b in ALL_BUCKETS {
            let _ = write!(
                out,
                " {}={} ({:.3} s)",
                b.name(),
                self.events(b),
                self.self_s(b)
            );
        }
        let _ = write!(out, "\nmarks:");
        for (tag, n) in &self.marks {
            let _ = write!(out, " {tag}={n}");
        }
        out.push('\n');
        out
    }

    /// Raw estimated total over the measured loop time.
    pub fn coverage(&self) -> f64 {
        if self.loop_s == 0.0 {
            return 0.0;
        }
        self.raw_total_s() / self.loop_s
    }

    /// Dispatched events in `bucket`.
    pub fn events(&self, bucket: Bucket) -> u64 {
        self.events[bucket.index()]
    }

    /// Task wakes in `bucket`.
    pub fn wakes(&self, bucket: Bucket) -> u64 {
        self.wakes[bucket.index()]
    }
}

#[derive(Debug, Default)]
struct State {
    /// Host nanoseconds one clock read adds to a timed interval.
    clock_ns: u64,
    /// Each task's bucket, indexed by task id.
    task_buckets: Vec<Bucket>,
    counts: LayerCounts,
    /// The last dispatched event, while its handler runs: its bucket (a
    /// `Dispatch` event's bucket is refined once it starts a task) and, if
    /// it is timed, its dispatch instant.
    current: Option<Current>,
}

#[derive(Debug, Clone, Copy)]
struct Current {
    bucket: Bucket,
    /// The core of a `Dispatch` event not yet resolved to a task.
    dispatch_core: Option<usize>,
    timed_since: Option<Instant>,
}

impl State {
    fn task_bucket(&self, task: TaskId) -> Bucket {
        self.task_buckets
            .get(task.value() as usize)
            .copied()
            .unwrap_or(Bucket::Dispatch)
    }

    /// Closes the event whose handler just ended.
    fn close_current(&mut self, now: Option<Instant>) {
        if let Some(cur) = self.current.take() {
            let i = cur.bucket.index();
            self.counts.events[i] += 1;
            if let (Some(t0), Some(t1)) = (cur.timed_since, now) {
                self.counts.samples[i] += 1;
                let ns = t1.duration_since(t0).as_nanos() as u64;
                self.counts.sampled_ns[i] += ns.saturating_sub(self.clock_ns);
            }
        }
    }
}

/// Whether dispatch number `index` is timed: a fixed multiplicative hash,
/// so the sample repeats exactly and does not alias with the periodic
/// wake→dispatch→done pattern of the pollers.
fn sampled(index: u64) -> bool {
    index.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 < (1u64 << 32) / SAMPLE_ONE_IN
}

/// The median host nanoseconds between two back-to-back clock reads: the
/// cost the timing itself adds to every timed interval.
fn clock_read_ns() -> u64 {
    let mut gaps: Vec<u64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            Instant::now().duration_since(t0).as_nanos() as u64
        })
        .collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

/// The observer; [`LayerTrace::finish`] reads the counts back.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    state: Rc<RefCell<State>>,
}

impl LayerTrace {
    /// A fresh observer, with the clock's own cost calibrated out.
    pub fn new() -> Self {
        let state = State {
            clock_ns: clock_read_ns(),
            ..State::default()
        };
        LayerTrace {
            state: Rc::new(RefCell::new(state)),
        }
    }

    /// Resolves every task's role from its name. Call after the attacker
    /// and workload are deployed, before the first run.
    pub fn resolve_roles(&self, sys: &System) {
        let buckets = (0..sys.sched().tasks().len())
            .map(|i| Bucket::of_task_name(sys.task(TaskId::new(i as u64)).name()))
            .collect();
        self.state.borrow_mut().task_buckets = buckets;
    }

    /// The counts so far, closing the event in flight; `loop_s` is the
    /// measured host time of the run loop.
    pub fn finish(&self, loop_s: f64) -> LayerCounts {
        let mut st = self.state.borrow_mut();
        st.close_current(Some(Instant::now()));
        LayerCounts {
            loop_s,
            ..st.counts.clone()
        }
    }
}

impl SimObserver<SysEvent> for LayerTrace {
    fn on_scheduled(&mut self, _at: SimTime, _seq: u64, event: &SysEvent, depth: usize) {
        let mut st = self.state.borrow_mut();
        st.counts.scheduled += 1;
        st.counts.scheduled_by_kind[kind(event)] += 1;
        st.counts.max_depth = st.counts.max_depth.max(depth);
        // A dispatch that starts a task schedules that task's completion:
        // the first such event names the task the dispatch served.
        if let SysEvent::TaskDone { core, task, .. } = *event {
            let bucket = st.task_bucket(task);
            if let Some(cur) = st.current.as_mut() {
                if cur.dispatch_core == Some(core.index()) {
                    cur.bucket = bucket;
                    cur.dispatch_core = None;
                }
            }
        }
    }

    fn on_dispatched(&mut self, _time: SimTime, _seq: u64, event: &SysEvent, _depth: usize) {
        let mut st = self.state.borrow_mut();
        let index = st.counts.dispatched;
        st.counts.dispatched += 1;
        st.counts.dispatched_by_kind[kind(event)] += 1;
        let timed = sampled(index);
        let was_timed = st.current.is_some_and(|c| c.timed_since.is_some());
        let now = (timed || was_timed).then(Instant::now);
        st.close_current(now);
        let (bucket, dispatch_core) = match *event {
            SysEvent::TickBoundary { .. } => (Bucket::Tick, None),
            SysEvent::SecureTimerFire { .. } | SysEvent::SecureDone { .. } => {
                (Bucket::Secure, None)
            }
            SysEvent::Dispatch { core } => (Bucket::Dispatch, Some(core.index())),
            SysEvent::TaskWake { task } => {
                let b = st.task_bucket(task);
                st.counts.wakes[b.index()] += 1;
                (b, None)
            }
            SysEvent::TaskDone { task, .. } => (st.task_bucket(task), None),
        };
        st.current = Some(Current {
            bucket,
            dispatch_core,
            timed_since: if timed { now } else { None },
        });
    }

    fn on_mark(&mut self, _at: SimTime, mark: &Mark) {
        let mut st = self.state.borrow_mut();
        *st.counts.marks.entry(mark.tag.as_str()).or_default() += 1;
        match mark.tag {
            MarkTag::RecoveryBegin | MarkTag::AttackObserve => st.counts.useful_polls += 1,
            MarkTag::ScanBegin => st.counts.bytes_scanned += mark.b,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_task_names() {
        assert_eq!(Bucket::of_task_name("rootkit"), Bucket::Rootkit);
        assert_eq!(Bucket::of_task_name("rootkit-helper-3"), Bucket::Rootkit);
        assert_eq!(Bucket::of_task_name("prober-2"), Bucket::Prober);
        assert_eq!(Bucket::of_task_name("comparer-1"), Bucket::Prober);
        assert_eq!(Bucket::of_task_name("dhrystone 2-0"), Bucket::Dispatch);
    }

    #[test]
    fn sample_rate_is_about_one_in_n() {
        let n = 1_000_000u64;
        let hits = (0..n).filter(|i| sampled(*i)).count() as f64;
        let want = n as f64 / SAMPLE_ONE_IN as f64;
        assert!((hits - want).abs() < want * 0.05, "{hits} sampled of {n}");
        // No aliasing with a period-3 pattern: each phase gets its share.
        for phase in 0..3 {
            let h = (0..n).filter(|i| i % 3 == phase && sampled(*i)).count() as f64;
            assert!(
                (h - want / 3.0).abs() < want / 3.0 * 0.1,
                "phase {phase}: {h}"
            );
        }
    }

    #[test]
    fn self_time_is_the_sampled_share_of_the_loop() {
        let mut c = LayerCounts {
            loop_s: 1.0,
            ..LayerCounts::default()
        };
        // Tick: 100 events, 2 timed for 3 µs in all → 150 µs raw.
        c.events[Bucket::Tick.index()] = 100;
        c.samples[Bucket::Tick.index()] = 2;
        c.sampled_ns[Bucket::Tick.index()] = 3_000;
        // Secure: 10 events, 1 timed for 45 µs → 450 µs raw.
        c.events[Bucket::Secure.index()] = 10;
        c.samples[Bucket::Secure.index()] = 1;
        c.sampled_ns[Bucket::Secure.index()] = 45_000;
        assert!((c.self_s(Bucket::Tick) - 0.25).abs() < 1e-12);
        assert!((c.self_s(Bucket::Secure) - 0.75).abs() < 1e-12);
        assert_eq!(c.self_s(Bucket::Rootkit), 0.0);
        assert!((c.coverage() - 600e-6).abs() < 1e-12);
    }
}

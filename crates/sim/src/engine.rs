//! The simulation driver: a clock plus an event queue.

use crate::error::SimError;
use crate::observe::SimObserver;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A discrete-event simulator over events of type `E`.
///
/// The simulator owns the virtual clock and the pending-event queue. Higher
/// layers (the `satin-system` machine) pop events, advance state, and push
/// follow-up events. Keeping the engine generic and dumb makes its invariants
/// (time monotonicity, FIFO ties) easy to test in isolation. A read-only
/// [`SimObserver`] can be installed with [`Simulator::set_observer`] to watch
/// every schedule and dispatch without perturbing them.
///
/// # Example
///
/// ```
/// use satin_sim::{Simulator, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulator::new();
/// sim.schedule_after(SimDuration::from_nanos(10), Ev::Ping);
/// let (t, ev) = sim.pop().unwrap();
/// assert_eq!(ev, Ev::Ping);
/// assert_eq!(sim.now(), t);
/// sim.schedule_after(SimDuration::from_nanos(5), Ev::Pong);
/// assert_eq!(sim.pop().unwrap().1, Ev::Pong);
/// ```
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    dispatched: u64,
    event_budget: u64,
    /// Set once [`Simulator::pop_until`] has refused a due event because the
    /// event budget was spent.
    over_budget: bool,
    observer: Option<Box<dyn SimObserver<E>>>,
}

impl<E> fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("queue", &self.queue)
            .field("dispatched", &self.dispatched)
            .field("event_budget", &self.event_budget)
            .field("over_budget", &self.over_budget)
            .field("observer", &self.observer.as_ref().map(|_| "installed"))
            .finish()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Default safety cap on dispatched events (5 billion): large enough for
    /// every experiment in the paper, small enough to catch runaway loops.
    pub const DEFAULT_EVENT_BUDGET: u64 = 5_000_000_000;

    /// Creates a simulator at time zero with the default event budget.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            dispatched: 0,
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            over_budget: false,
            observer: None,
        }
    }

    /// Creates a simulator with an explicit event budget.
    pub fn with_event_budget(event_budget: u64) -> Self {
        Simulator {
            event_budget,
            ..Self::new()
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pre-sizes the event queue for about `n` in-flight events. A sizing
    /// hint only — purely an allocation optimization, never observable in
    /// event order or timing.
    pub fn reserve_events(&mut self, n: usize) {
        self.queue.reserve(n);
    }

    /// Installs an [`SimObserver`] notified on every schedule and dispatch.
    ///
    /// Observers are read-only instrumentation: installing (or removing) one
    /// never changes event order, timing, or any other simulation outcome.
    /// Any previously installed observer is returned.
    pub fn set_observer(
        &mut self,
        observer: Box<dyn SimObserver<E>>,
    ) -> Option<Box<dyn SimObserver<E>>> {
        self.observer.replace(observer)
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn SimObserver<E>>> {
        self.observer.take()
    }

    /// `true` if an observer is installed.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Forwards a semantic [`Mark`] to the installed observer at the current
    /// simulated time. With no observer installed this is a no-op, so
    /// components can mark unconditionally without perturbing (or paying
    /// for) anything.
    pub fn mark(&mut self, mark: crate::observe::Mark) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_mark(self.now, &mark);
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleInPast`] if `at` is before the current
    /// simulated time. Scheduling *at* the current time is allowed (the event
    /// dispatches after already-queued events for this instant).
    pub fn try_schedule_at(&mut self, at: SimTime, event: E) -> Result<(), SimError> {
        if at < self.now {
            return Err(SimError::ScheduleInPast {
                now: self.now,
                requested: at,
            });
        }
        self.enqueue(at, event);
        Ok(())
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; use [`Simulator::try_schedule_at`] to
    /// handle that case gracefully.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.try_schedule_at(at, event)
            .expect("event scheduled in the past");
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.enqueue(at, event);
    }

    /// Notifies the observer (if any) and pushes onto the queue.
    fn enqueue(&mut self, at: SimTime, event: E) {
        if let Some(obs) = self.observer.as_deref_mut() {
            // Depth counts the event about to be inserted.
            obs.on_scheduled(at, self.queue.next_seq(), &event, self.queue.len() + 1);
        }
        self.queue.push(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events are pending.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, seq, ev) = self.queue.pop_entry()?;
        Some(self.dispatch(t, seq, ev))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// The clock never advances past `deadline`: if the next event is later
    /// (or the queue is empty), the clock is set to `deadline` and `None` is
    /// returned. This is how experiments run "for 8 simulated seconds".
    ///
    /// Like [`Simulator::run`], this dispatches at most the event budget.
    /// Once the budget is spent, a due event is left queued, the clock stays
    /// at the last dispatched event, `None` is returned, and
    /// [`Simulator::check_budget`] reports the exhaustion.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.dispatched >= self.event_budget {
            if self.queue.peek_time().is_some_and(|t| t <= deadline) {
                self.over_budget = true;
                return None;
            }
        } else if let Some((t, seq, ev)) = self.queue.pop_entry_until(deadline) {
            return Some(self.dispatch(t, seq, ev));
        }
        if deadline > self.now {
            self.now = deadline;
        }
        None
    }

    /// Whether [`Simulator::pop_until`] has stopped at the event budget.
    ///
    /// # Errors
    ///
    /// [`SimError::EventBudgetExhausted`] once `pop_until` has left a due
    /// event undispatched because the budget was spent.
    pub fn check_budget(&self) -> Result<(), SimError> {
        if self.over_budget {
            return Err(SimError::EventBudgetExhausted {
                budget: self.event_budget,
            });
        }
        Ok(())
    }

    /// Advances the clock to a popped event and notifies the observer.
    fn dispatch(&mut self, t: SimTime, seq: u64, ev: E) -> (SimTime, E) {
        debug_assert!(t >= self.now, "event queue returned a past event");
        self.now = t;
        self.dispatched += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_dispatched(t, seq, &ev, self.queue.len());
        }
        (t, ev)
    }

    /// Runs `handler` on every event until the queue drains or the handler
    /// returns `false`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if more than the configured
    /// event budget dispatches, which almost always indicates a component
    /// rescheduling itself in a zero-delay loop.
    pub fn run<F>(&mut self, mut handler: F) -> Result<(), SimError>
    where
        F: FnMut(&mut Self, SimTime, E) -> bool,
    {
        while let Some((t, ev)) = self.pop() {
            if self.dispatched > self.event_budget {
                return Err(SimError::EventBudgetExhausted {
                    budget: self.event_budget,
                });
            }
            if !handler(self, t, ev) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clock_advances_with_pop() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(50), 1);
        sim.schedule_at(SimTime::from_nanos(20), 2);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.pop(), Some((SimTime::from_nanos(50), 1)));
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.pop(), None);
    }

    #[test]
    fn schedule_in_past_rejected() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(100), 1);
        sim.pop();
        let err = sim.try_schedule_at(SimTime::from_nanos(10), 2).unwrap_err();
        assert!(matches!(err, SimError::ScheduleInPast { .. }));
        // Scheduling at exactly `now` is fine.
        sim.try_schedule_at(SimTime::from_nanos(100), 3).unwrap();
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), 1);
        sim.schedule_at(SimTime::from_nanos(30), 2);
        let deadline = SimTime::from_nanos(20);
        assert_eq!(sim.pop_until(deadline), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(sim.pop_until(deadline), None);
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn pop_until_on_empty_queue_advances_clock() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert_eq!(sim.pop_until(SimTime::from_secs(1)), None);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn run_drains_and_counts() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let mut seen = Vec::new();
        sim.run(|_, _, ev| {
            seen.push(ev);
            true
        })
        .unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
        assert_eq!(sim.dispatched(), 10);
    }

    #[test]
    fn run_stops_when_handler_returns_false() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let mut count = 0;
        sim.run(|_, _, _| {
            count += 1;
            count < 3
        })
        .unwrap();
        assert_eq!(count, 3);
        assert_eq!(sim.pending(), 7);
    }

    #[test]
    fn event_budget_trips() {
        let mut sim: Simulator<u32> = Simulator::with_event_budget(100);
        sim.schedule_at(SimTime::from_nanos(1), 0);
        let err = sim
            .run(|sim, _, _| {
                // Pathological self-rescheduling loop.
                sim.schedule_after(SimDuration::from_nanos(1), 0);
                true
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::EventBudgetExhausted { budget: 100 }
        ));
    }

    #[test]
    fn event_budget_boundary_is_inclusive() {
        // Exactly `budget` dispatches is fine; one more trips the error.
        for (n, ok) in [(100u64, true), (101, false)] {
            let mut sim: Simulator<u64> = Simulator::with_event_budget(100);
            for i in 0..n {
                sim.schedule_at(SimTime::from_nanos(i), i);
            }
            let result = sim.run(|_, _, _| true);
            assert_eq!(result.is_ok(), ok, "budget 100, {n} events");
            assert_eq!(sim.dispatched(), n.min(101));
        }
    }

    #[test]
    fn pop_until_stops_at_the_event_budget() {
        // A zero-delay self-rescheduling loop spins at one instant; the
        // budget ends it instead of the deadline.
        let mut sim: Simulator<u32> = Simulator::with_event_budget(100);
        sim.schedule_at(SimTime::from_nanos(5), 0);
        let deadline = SimTime::from_millis(1);
        while let Some((_, ev)) = sim.pop_until(deadline) {
            sim.schedule_after(SimDuration::ZERO, ev);
        }
        assert_eq!(sim.dispatched(), 100);
        assert_eq!(sim.now(), SimTime::from_nanos(5), "clock stays put");
        assert_eq!(sim.pending(), 1, "the refused event stays queued");
        assert_eq!(
            sim.check_budget(),
            Err(SimError::EventBudgetExhausted { budget: 100 })
        );
        // Later calls refuse too, rather than jumping the clock.
        assert_eq!(sim.pop_until(deadline), None);
        assert_eq!(sim.now(), SimTime::from_nanos(5));
    }

    #[test]
    fn pop_until_budget_boundary_is_inclusive() {
        // Exactly `budget` due events dispatch cleanly, and events past the
        // deadline are not counted against the budget.
        let mut sim: Simulator<u64> = Simulator::with_event_budget(10);
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i), i);
        }
        sim.schedule_at(SimTime::from_nanos(500), 99);
        let deadline = SimTime::from_nanos(100);
        let mut n = 0;
        while sim.pop_until(deadline).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(sim.check_budget(), Ok(()));
        assert_eq!(sim.now(), deadline);
        // The next due event is one too many.
        assert_eq!(sim.pop_until(SimTime::from_nanos(600)), None);
        assert!(sim.check_budget().is_err());
        assert_eq!(sim.now(), deadline);
    }

    #[test]
    fn event_budget_error_leaves_queue_intact() {
        let mut sim: Simulator<u64> = Simulator::with_event_budget(2);
        for i in 0..5 {
            sim.schedule_at(SimTime::from_nanos(i), i);
        }
        sim.run(|_, _, _| true).unwrap_err();
        // Events past the budget stay queued for post-mortem inspection.
        assert_eq!(sim.pending(), 2);
    }

    #[test]
    fn observer_install_and_take_roundtrip() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert!(!sim.has_observer());
        let prev = sim.set_observer(Box::new(crate::observe::QueueDepthProbe::default()));
        assert!(prev.is_none());
        assert!(sim.has_observer());
        assert!(sim.take_observer().is_some());
        assert!(!sim.has_observer());
    }

    proptest! {
        /// The observer sees dispatches in strict `(time, seq)` order, and
        /// every scheduled event is dispatched exactly once — installing the
        /// observer reveals the queue's order without changing it.
        #[test]
        fn prop_observer_sees_dispatch_order(
            times in proptest::collection::vec(0u64..500, 1..200),
        ) {
            use crate::observe::SimObserver;
            use std::cell::RefCell;
            use std::rc::Rc;

            #[derive(Default)]
            struct Recorder {
                scheduled: Rc<RefCell<Vec<(SimTime, u64)>>>,
                dispatched: Rc<RefCell<Vec<(SimTime, u64)>>>,
            }
            impl SimObserver<usize> for Recorder {
                fn on_scheduled(&mut self, at: SimTime, seq: u64, _: &usize, _: usize) {
                    self.scheduled.borrow_mut().push((at, seq));
                }
                fn on_dispatched(&mut self, time: SimTime, seq: u64, _: &usize, _: usize) {
                    self.dispatched.borrow_mut().push((time, seq));
                }
            }

            let rec = Recorder::default();
            let (scheduled, dispatched) =
                (Rc::clone(&rec.scheduled), Rc::clone(&rec.dispatched));
            let mut sim: Simulator<usize> = Simulator::new();
            sim.set_observer(Box::new(rec));
            for (i, t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(*t), i);
            }
            sim.run(|_, _, _| true).unwrap();

            let disp = dispatched.borrow();
            prop_assert_eq!(disp.len(), times.len());
            // Strict (time, seq) order: seq breaks every time tie uniquely.
            for pair in disp.windows(2) {
                prop_assert!(pair[0] < pair[1], "out of order: {:?}", pair);
            }
            // Dispatches are exactly the scheduled set.
            let mut sched = scheduled.borrow().clone();
            sched.sort_unstable();
            prop_assert_eq!(&*disp, &sched[..]);
        }
    }

    proptest! {
        /// Invariant 1: the clock observed by the handler never decreases.
        #[test]
        fn prop_clock_monotone(times in proptest::collection::vec(0u64..10_000, 1..300)) {
            let mut sim: Simulator<usize> = Simulator::new();
            for (i, t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            sim.run(|s, t, _| {
                assert!(t >= last);
                assert_eq!(s.now(), t);
                last = t;
                true
            }).unwrap();
        }
    }
}

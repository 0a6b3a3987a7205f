//! The run loop and the event-to-handler dispatch table.
//!
//! Every [`SysEvent`] variant routes to exactly one handler: the normal-path
//! handlers live in `normal_path`, the secure-path handlers in `secure_path`.
//! This file is the only place that matches on the event enum, so adding a
//! variant produces exactly one exhaustiveness error, here.

use super::System;
use crate::event::SysEvent;
use crate::SatinError;
use satin_sim::{SimDuration, SimTime};

impl System {
    /// Runs the machine until `deadline`, leaving the clock exactly there.
    ///
    /// # Panics
    ///
    /// If the engine's event budget ends the run first (a runaway
    /// zero-delay loop); [`System::try_run_until`] reports that as an error.
    pub fn run_until(&mut self, deadline: SimTime) {
        if let Err(e) = self.try_run_until(deadline) {
            panic!("run stopped at {} short of {deadline}: {e}", self.sim.now());
        }
    }

    /// Runs the machine for `d` more simulated time.
    ///
    /// # Panics
    ///
    /// As [`System::run_until`].
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.sim.now() + d;
        self.run_until(deadline);
    }

    /// [`System::run_until`], but a run that spends the engine's event
    /// budget stops with the clock at the last dispatched event and returns
    /// an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`satin_sim::SimError::EventBudgetExhausted`] (wrapped in
    /// [`SatinError::Sim`]) once the budget is spent.
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<(), SatinError> {
        while let Some((t, ev)) = self.sim.pop_until(deadline) {
            debug_assert!(t <= deadline);
            self.handle(t, ev);
        }
        Ok(self.sim.check_budget()?)
    }

    /// [`System::try_run_until`] for `d` more simulated time.
    ///
    /// # Errors
    ///
    /// As [`System::try_run_until`].
    pub fn try_run_for(&mut self, d: SimDuration) -> Result<(), SatinError> {
        let deadline = self.sim.now() + d;
        self.try_run_until(deadline)
    }

    fn handle(&mut self, now: SimTime, ev: SysEvent) {
        match ev {
            SysEvent::TickBoundary { core } => self.on_tick(now, core),
            SysEvent::TaskWake { task } => self.on_wake(now, task),
            SysEvent::Dispatch { core } => self.try_dispatch(now, core),
            SysEvent::TaskDone { core, task, token } => self.on_task_done(now, core, task, token),
            SysEvent::SecureTimerFire { core, generation } => {
                self.on_secure_fire(now, core, generation)
            }
            SysEvent::SecureDone { core } => self.on_secure_done(now, core),
        }
    }
}

//! Machine-level behaviour tests, exercised through the public `System` API.

use super::*;
use crate::body::RunOutcome;
use crate::builder::SystemBuilder;
use crate::service::SecureCtx;
use satin_hw::timing::ScanStrategy;
use satin_mem::MemRange;
use std::cell::RefCell;
use std::rc::Rc;

fn sys() -> System {
    SystemBuilder::new().seed(1234).build()
}

#[test]
fn empty_system_runs_quietly() {
    let mut s = sys();
    s.run_until(SimTime::from_secs(1));
    assert_eq!(s.now(), SimTime::from_secs(1));
    // Ticks were scheduled but all suppressed (every core idle).
    assert_eq!(s.stats().ticks_delivered, 0);
}

/// A machine whose only task is pinned and yields after zero work, so it
/// re-dispatches itself at one instant forever, on an engine with a small
/// event budget (a fresh engine, so the armed ticks are dropped).
fn zero_busy_spinner() -> System {
    let mut s = sys();
    s.sim = Simulator::with_event_budget(10_000);
    let t = s.spawn(
        "spinner",
        SchedClass::rt_max(),
        Affinity::pinned(CoreId::new(0)),
        |_: &mut RunCtx<'_>| RunOutcome::yield_after(SimDuration::ZERO),
    );
    s.wake_at(t, SimTime::from_micros(3));
    s
}

#[test]
fn zero_busy_yield_loop_stops_at_the_event_budget() {
    // The event budget ends the run and surfaces as an error, not a hang.
    let mut s = zero_busy_spinner();
    let budget_spent = |r: Result<(), SatinError>| {
        matches!(
            r,
            Err(SatinError::Sim(satin_sim::SimError::EventBudgetExhausted {
                budget: 10_000
            }))
        )
    };
    assert!(budget_spent(s.try_run_until(SimTime::from_millis(1))));
    assert_eq!(s.events_dispatched(), 10_000);
    // The clock stays at the spinning instant, short of the deadline.
    assert!(s.now() < SimTime::from_micros(100), "now {}", s.now());
    assert!(budget_spent(s.check_fault_abort()));
    assert!(budget_spent(s.try_run_for(SimDuration::from_millis(1))));
}

#[test]
#[should_panic(expected = "event budget")]
fn run_until_panics_when_the_event_budget_ends_the_run() {
    // Callers with no error path must not mistake the stop for a full run.
    zero_busy_spinner().run_until(SimTime::from_millis(1));
}

#[test]
fn task_runs_and_sleeps_on_cadence() {
    let mut s = sys();
    let runs = Rc::new(RefCell::new(Vec::new()));
    let runs2 = runs.clone();
    let t = s.spawn(
        "cadence",
        SchedClass::rt_max(),
        Affinity::pinned(CoreId::new(0)),
        move |ctx: &mut RunCtx<'_>| {
            runs2.borrow_mut().push(ctx.now());
            RunOutcome::sleep_aligned(SimDuration::from_micros(2), SimDuration::from_micros(200))
        },
    );
    s.wake_at(t, SimTime::ZERO);
    s.run_until(SimTime::from_millis(2));
    let runs = runs.borrow();
    // One activation per 200µs boundary over 2ms ≈ 10.
    assert!(runs.len() >= 9, "only {} activations", runs.len());
    // Activations land shortly after 200µs boundaries.
    for w in runs.windows(2) {
        let gap = w[1].since(w[0]).as_nanos();
        assert!((150_000..400_000).contains(&gap), "gap {gap}ns");
    }
}

#[test]
fn rt_preempts_cfs_mid_quantum() {
    let mut s = sys();
    let c = CoreId::new(0);
    let hog = s.spawn(
        "hog",
        SchedClass::cfs(),
        Affinity::pinned(c),
        |_: &mut RunCtx<'_>| RunOutcome::yield_after(SimDuration::from_millis(100)),
    );
    let rt_ran = Rc::new(RefCell::new(None));
    let rt_ran2 = rt_ran.clone();
    let rt = s.spawn(
        "rt",
        SchedClass::rt_max(),
        Affinity::pinned(c),
        move |ctx: &mut RunCtx<'_>| {
            *rt_ran2.borrow_mut() = Some(ctx.now());
            RunOutcome::block_after(SimDuration::from_micros(5))
        },
    );
    s.wake_at(hog, SimTime::ZERO);
    s.wake_at(rt, SimTime::from_millis(10));
    s.run_until(SimTime::from_millis(20));
    let ran_at = rt_ran.borrow().expect("RT task must run");
    // RT dispatch latency is bounded by the calibrated jitter cap.
    let delay = ran_at.since(SimTime::from_millis(10)).as_secs_f64();
    assert!(delay < 2e-4, "RT dispatch took {delay}s");
    assert!(s.stats().preemptions >= 1);
    // The RT wake preempted the CFS hog: the per-core breakdown says so.
    assert!(s.metrics().core(c).rt_preemptions >= 1);
    // And only core 0 saw it.
    assert_eq!(
        s.metrics().total().rt_preemptions,
        s.metrics().core(c).rt_preemptions
    );
}

#[test]
fn pinned_task_freezes_while_core_in_secure_world() {
    struct OneShotScan;
    impl SecureService for OneShotScan {
        fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), crate::SatinError> {
            ctx.arm_core(CoreId::new(0), SimTime::from_millis(5))
                .unwrap();
            Ok(())
        }
        fn on_secure_timer(
            &mut self,
            _core: CoreId,
            ctx: &mut SecureCtx<'_>,
        ) -> Option<ScanRequest> {
            let range = MemRange::new(satin_mem::PhysAddr::new(0x8008_0000), 1_000_000);
            let _ = ctx;
            Some(ScanRequest {
                area_id: 0,
                range,
                strategy: ScanStrategy::DirectHash,
            })
        }
        fn on_scan_result(
            &mut self,
            _core: CoreId,
            _request: &ScanRequest,
            _observed: &[u8],
            _ctx: &mut SecureCtx<'_>,
        ) {
        }
    }

    let mut s = sys();
    let c = CoreId::new(0);
    let activations = Rc::new(RefCell::new(Vec::new()));
    let a2 = activations.clone();
    let t = s.spawn(
        "pinned",
        SchedClass::rt_max(),
        Affinity::pinned(c),
        move |ctx: &mut RunCtx<'_>| {
            a2.borrow_mut().push(ctx.now());
            RunOutcome::sleep_aligned(SimDuration::from_micros(2), SimDuration::from_micros(200))
        },
    );
    s.wake_at(t, SimTime::ZERO);
    s.install_secure_service(OneShotScan);
    s.run_until(SimTime::from_millis(40));
    // 1 MB at ~6.7-11.4 ns/byte → ~7-12 ms of secure residency from t=5ms.
    let acts = activations.borrow();
    let biggest_gap = acts
        .windows(2)
        .map(|w| w[1].since(w[0]).as_nanos())
        .max()
        .unwrap();
    assert!(
        biggest_gap > 5_000_000,
        "expected a multi-ms freeze, biggest gap {biggest_gap}ns"
    );
    assert_eq!(s.tsp().total_invocations(), 1);
    assert!(s.stats().secure_entries == 1);
}

#[test]
fn metrics_break_down_one_secure_round() {
    struct OneShotScan;
    impl SecureService for OneShotScan {
        fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), crate::SatinError> {
            ctx.arm_core(CoreId::new(1), SimTime::from_millis(5))
                .unwrap();
            Ok(())
        }
        fn on_secure_timer(
            &mut self,
            _core: CoreId,
            _ctx: &mut SecureCtx<'_>,
        ) -> Option<ScanRequest> {
            Some(ScanRequest {
                area_id: 0,
                range: MemRange::new(satin_mem::PhysAddr::new(0x8008_0000), 100_000),
                strategy: ScanStrategy::DirectHash,
            })
        }
        fn on_scan_result(
            &mut self,
            _core: CoreId,
            _request: &ScanRequest,
            _observed: &[u8],
            _ctx: &mut SecureCtx<'_>,
        ) {
        }
    }

    let mut s = sys();
    let scanned = CoreId::new(1);
    // A writer on core 0 keeps dirtying the scanned range, so the single
    // scan (≈0.7-1.2 ms for 100 kB starting at t=5ms) must race it.
    let w = s.spawn(
        "dirtier",
        SchedClass::cfs(),
        Affinity::pinned(CoreId::new(0)),
        |ctx: &mut RunCtx<'_>| {
            ctx.write_kernel(satin_mem::PhysAddr::new(0x8008_0010), &[0xAB; 8])
                .unwrap();
            RunOutcome::sleep_after(SimDuration::from_micros(5), SimDuration::from_micros(100))
        },
    );
    s.wake_at(w, SimTime::ZERO);
    s.install_secure_service(OneShotScan);
    s.run_until(SimTime::from_millis(40));

    let on_core = *s.metrics().core(scanned);
    // One full round: in and out.
    assert_eq!(on_core.world_switches, 2);
    assert_eq!(on_core.scans_started, 1);
    assert_eq!(on_core.scans_completed, 1);
    // The dirtier wrote every 100µs, so the ms-long window must be torn.
    assert_eq!(on_core.scans_torn, 1);
    assert_eq!(on_core.pollution_windows, 1);
    // No secure activity anywhere else.
    let total = s.metrics().total();
    assert_eq!(total.world_switches, 2);
    assert_eq!(total.scans_started, 1);
    // Exactly one publication, whose delay equals the TSP's residency.
    assert_eq!(s.metrics().publications, 1);
    let mean = s.metrics().mean_publication_delay().unwrap();
    assert!(
        mean >= SimDuration::from_micros(500),
        "100 kB round published suspiciously fast: {mean}"
    );
    // Global and per-core views agree.
    assert_eq!(s.stats().secure_entries * 2, total.world_switches);
}

#[test]
fn scan_observes_concurrent_write_race() {
    // A write that lands after the scanner passed the address is missed;
    // one that lands before is seen. Here the write happens long before
    // the scan, so the scan must observe it.
    struct ScanArea14 {
        results: Rc<RefCell<Vec<Vec<u8>>>>,
    }
    impl SecureService for ScanArea14 {
        fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), crate::SatinError> {
            ctx.arm_core(CoreId::new(1), SimTime::from_millis(10))
                .unwrap();
            Ok(())
        }
        fn on_secure_timer(
            &mut self,
            _core: CoreId,
            ctx: &mut SecureCtx<'_>,
        ) -> Option<ScanRequest> {
            let range = MemRange::new(satin_mem::PhysAddr::new(0x8008_0000), 64);
            let _ = ctx;
            Some(ScanRequest {
                area_id: 0,
                range,
                strategy: ScanStrategy::DirectHash,
            })
        }
        fn on_scan_result(
            &mut self,
            _core: CoreId,
            _request: &ScanRequest,
            observed: &[u8],
            _ctx: &mut SecureCtx<'_>,
        ) {
            self.results.borrow_mut().push(observed.to_vec());
        }
    }

    let mut s = sys();
    let results = Rc::new(RefCell::new(Vec::new()));
    let writer = s.spawn(
        "writer",
        SchedClass::cfs(),
        Affinity::pinned(CoreId::new(0)),
        |ctx: &mut RunCtx<'_>| {
            ctx.write_kernel(satin_mem::PhysAddr::new(0x8008_0000), &[0xEE; 4])
                .unwrap();
            RunOutcome::exit_after(SimDuration::from_micros(1))
        },
    );
    s.wake_at(writer, SimTime::from_millis(1));
    s.install_secure_service(ScanArea14 {
        results: results.clone(),
    });
    s.run_until(SimTime::from_millis(20));
    let r = results.borrow();
    assert_eq!(r.len(), 1);
    assert_eq!(&r[0][..4], &[0xEE; 4]);
    assert_eq!(s.stats().kernel_writes, 1);
    // The write landed 9ms before the scan window opened: not torn.
    assert_eq!(s.metrics().total().scans_torn, 0);
}

#[test]
fn syscall_hijack_accounting() {
    let mut s = sys();
    let gettid = satin_mem::layout::GETTID_NR;
    let addr = s.layout().syscall_entry_addr(gettid);
    let evil = satin_mem::image::hijacked_entry_bytes(s.layout(), 5);
    let t = s.spawn(
        "caller",
        SchedClass::cfs(),
        Affinity::any(6),
        move |ctx: &mut RunCtx<'_>| {
            // First resolution: genuine. Then hijack. Then resolve again.
            ctx.resolve_syscall(gettid).unwrap();
            ctx.write_kernel(addr, &evil).unwrap();
            ctx.resolve_syscall(gettid).unwrap();
            RunOutcome::exit_after(SimDuration::from_micros(3))
        },
    );
    s.wake_at(t, SimTime::ZERO);
    s.run_until(SimTime::from_millis(1));
    assert_eq!(s.stats().syscall_resolutions, 2);
    assert_eq!(s.stats().hijacked_resolutions, 1);
}

#[test]
fn work_accrues_with_core_speed() {
    let mut s = sys();
    // Same busy pattern on an A57 (core 0) and an A53 (core 2).
    let mk = |_: &mut RunCtx<'_>| {
        RunOutcome::sleep_after(SimDuration::from_micros(100), SimDuration::from_micros(100))
    };
    let fast = s.spawn(
        "a57",
        SchedClass::cfs(),
        Affinity::pinned(CoreId::new(0)),
        mk,
    );
    let slow = s.spawn(
        "a53",
        SchedClass::cfs(),
        Affinity::pinned(CoreId::new(2)),
        mk,
    );
    s.wake_at(fast, SimTime::ZERO);
    s.wake_at(slow, SimTime::ZERO);
    s.run_until(SimTime::from_millis(100));
    let wf = s.work_secs(fast);
    let ws = s.work_secs(slow);
    assert!(wf > 0.0 && ws > 0.0);
    let ratio = ws / wf;
    assert!((0.55..0.72).contains(&ratio), "A53/A57 work ratio {ratio}");
}

#[test]
fn ticks_deliver_only_when_busy() {
    let mut s = sys();
    let spin = s.spawn(
        "spin",
        SchedClass::Cfs { nice: 19 },
        Affinity::pinned(CoreId::new(3)),
        |_: &mut RunCtx<'_>| RunOutcome::yield_after(SimDuration::from_millis(1)),
    );
    s.wake_at(spin, SimTime::ZERO);
    s.run_until(SimTime::from_secs(1));
    // Core 3 ticked ~250 times; the other 5 cores were idle.
    let delivered = s.stats().ticks_delivered;
    assert!((200..320).contains(&delivered), "delivered {delivered}");
}

//! The four workloads, driven through the simulator's public entry points.
//! `BENCHMARK.json` names three of them; `sweep` is run by hand (see
//! `WORKLOADS.md`).
//!
//! Each run has two phases. Set-up assembles and boots [`SETUP_REPS`]
//! machines of the workload's configuration and reports the median. The
//! measured phase then repeats the workload's unit of work (one campaign,
//! one study, one batch of sweeps) until the `--seconds` budget is spent,
//! checks every unit's outputs, and reports medians over units.
//!
//! End-to-end numbers come from untraced units. A traced run (`--trace 1`)
//! reports per-layer numbers instead: `detect` and `sweep` pair every
//! untraced campaign with a traced one on the same seed (installing
//! [`LayerTrace`]) and require identical simulated outputs; `fig7` and
//! `faults` use per-call timing and the campaign runner's live events.

use crate::expected::{self, DetectOutput, Records};
use crate::host::usage;
use crate::metrics::{Sheet, Tally};
use crate::stats::median;
use crate::trace::{Bucket, LayerCounts, LayerTrace};
use satin_attack::{TzEvader, TzEvaderConfig};
use satin_bench::detection::{run_many_faulted_observed, try_run_scenario, DetectionConfig};
use satin_bench::{CampaignRunner, SeedOutcome};
use satin_core::{Satin, SatinConfig, SatinHandle};
use satin_obs::{CampaignObs, EventStream, LiveEvent, ObsEvent};
use satin_scenario::{FaultPlan, Scenario};
use satin_sim::{SimDuration, SimTime};
use satin_system::{SatinError, System, SystemBuilder};
use satin_workload::runner::run_single;
use satin_workload::{unixbench_suite, OverheadReport, OverheadRow};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Machines assembled per run to time set-up.
pub const SETUP_REPS: usize = 25;

/// Quick detection campaign seeds; unit `k` of `--seed n` runs entry
/// `(n + k) mod 2`. Campaign cost follows simulated length, which differs
/// by up to 20% between seeds (seed 2 dispatches 15% more events than
/// seed 1); these two dispatch within 0.01% of each other, so a run's
/// median does not depend on which of them it happened to draw more often.
pub const DETECT_POOL: [u64; 2] = [1, 3];
/// The detection seed kept out of every default run (`--held-out`).
pub const DETECT_HELD_OUT: u64 = 5;
/// Figure 7 study seeds, chosen by `--seed n` as entry `n mod 3`.
pub const FIG7_POOL: [u64; 3] = [1, 2, 3];
/// The Figure 7 study seed kept out of every default run.
pub const FIG7_HELD_OUT: u64 = 4;
/// The sweep's machine seeds are derived from `--seed`; `--held-out`
/// derives them from this value instead.
pub const SWEEP_HELD_OUT: u64 = 1 << 40;
/// The fault smoke's fixed seeds (the golden stream pins them).
pub const FAULT_SEEDS: [u64; 3] = [7, 42, 1009];

/// Rounds of SATIN per sweep unit: 100 full sweeps of the 19 areas.
const SWEEP_ROUNDS: usize = 1900;
/// Simulated seconds per Figure 7 benchmark run: half the quick repro
/// shape, so that a 40 s run holds about three studies instead of one.
const FIG7_DURATION_SECS: u64 = 120;
/// Runner workers for the fault smoke.
const FAULT_WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §VI-B1 SATIN vs TZ-Evader, quick shape.
    Detect,
    /// The Figure 7 UnixBench study.
    Fig7,
    /// SATIN alone sweeping a clean kernel. Not in `BENCHMARK.json`: with a
    /// fourth workload the time limit for all runs allows only 30 s runs,
    /// and longer runs are steadier on a shared host. A traced `detect` run
    /// measures its layers too.
    Sweep,
    /// The smoke fault plan through the campaign runner.
    Faults,
}

impl Workload {
    /// Every workload: those of `BENCHMARK.json` in its order, then `sweep`.
    pub const ALL: [Workload; 4] = [
        Workload::Detect,
        Workload::Fig7,
        Workload::Faults,
        Workload::Sweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Detect => "detect",
            Workload::Fig7 => "fig7",
            Workload::Sweep => "sweep",
            Workload::Faults => "faults",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// What to run.
    pub workload: Workload,
    /// Selects the workload's inputs.
    pub seed: u64,
    /// Budget for the measured phase, host seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Use the workload's held-out seed instead of the default ones.
    pub held_out: bool,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// The measured metrics.
    pub sheet: Sheet,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete as recorded.
    pub failed: u64,
    /// Campaigns that ended `Ok` (the numerator of `ok_frac`).
    pub ok: u64,
    /// Every failed check, in order.
    pub errors: Vec<String>,
    /// Host seconds of each measured unit.
    pub unit_walls: Vec<f64>,
    /// Event, bucket and mark counts of the first traced unit.
    pub breakdown: Option<String>,
}

impl Report {
    /// The result fields.
    pub fn tally(&self) -> Tally {
        Tally {
            correct: self.errors.is_empty() && self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
        }
    }

    /// Counts `ops` operations (campaigns or studies), of which `ok` did
    /// not end `Failed`; all of them failed if `checked` is an error.
    fn operations(&mut self, ops: u64, ok: u64, checked: Result<(), String>) {
        self.attempted += ops;
        self.ok += ok;
        if let Err(e) = checked {
            self.failed += ops;
            self.errors.push(e);
        }
    }
}

/// Runs one workload per `opts`.
pub fn run(opts: &Opts) -> Report {
    let records = Records::compiled();
    let mut report = Report::default();
    let setup = measure_setup(opts);
    setup.record(&mut report.sheet, opts.trace);
    let units = match opts.workload {
        Workload::Detect => detect(opts, &records, &mut report),
        Workload::Fig7 => fig7(opts, &records, &mut report),
        Workload::Sweep => sweep(opts, &mut report),
        Workload::Faults => faults(opts, &mut report),
    };
    if !opts.trace {
        end_to_end(&mut report, &units, &setup);
    }
    report.unit_walls = units.iter().map(|u| u.wall_s).collect();
    report
}

// ---------------------------------------------------------------- timing

/// One measured unit of work.
#[derive(Debug, Clone, Copy, Default)]
struct Unit {
    wall_s: f64,
    cpu_s: f64,
    sim_s: f64,
}

/// Runs `f`, returning its value with host wall and process CPU seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = usage().cpu;
    let t0 = Instant::now();
    let v = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (usage().cpu - cpu0).as_secs_f64();
    (v, wall, cpu)
}

/// The measured phase's time budget.
struct Budget {
    start: Instant,
    seconds: f64,
    longest: f64,
    units: usize,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            longest: 0.0,
            units: 0,
        }
    }

    /// Whether another unit fits: the first always does; later ones only
    /// if the longest unit so far would still end inside the budget.
    fn another(&self) -> bool {
        self.units == 0 || self.start.elapsed().as_secs_f64() + self.longest <= self.seconds
    }

    fn spent(&mut self, unit_s: f64) {
        self.units += 1;
        self.longest = self.longest.max(unit_s);
    }
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Writes each per-layer metric as the median over traced units.
fn layer_medians(sheet: &mut Sheet, rows: &[Vec<(&'static str, f64)>]) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for row in rows {
        for &(name, v) in row {
            by_name.entry(name).or_default().push(v);
        }
    }
    for (name, values) in by_name {
        sheet.set(name, median_of(values));
    }
}

fn end_to_end(report: &mut Report, units: &[Unit], setup: &Setup) {
    let s = &mut report.sheet;
    s.set("wall_s", median_of(units.iter().map(|u| u.wall_s)));
    s.set("cpu_s", median_of(units.iter().map(|u| u.cpu_s)));
    s.set(
        "setup_s",
        median_of(setup.samples.iter().map(SetupTimes::total)),
    );
    s.set(
        "sim_s_per_wall_s",
        median_of(units.iter().map(|u| u.sim_s / u.wall_s)),
    );
    s.set(
        "peak_rss_mb",
        usage().peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );
    s.set("ok_frac", report.ok as f64 / report.attempted.max(1) as f64);
}

// ---------------------------------------------------------------- set-up

/// Host seconds of one machine's assembly and boot.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    /// `SystemBuilder::build`: platform and kernel image.
    build_s: f64,
    /// `try_install_secure_service`: SATIN boots and enrols golden digests.
    enrol_s: f64,
    /// Deploying the attacker or benchmark tasks.
    deploy_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build_s + self.enrol_s + self.deploy_s
    }
}

struct Setup {
    samples: Vec<SetupTimes>,
}

impl Setup {
    fn record(&self, sheet: &mut Sheet, trace: bool) {
        if trace {
            sheet.set(
                "setup.build_s",
                median_of(self.samples.iter().map(|s| s.build_s)),
            );
            sheet.set(
                "setup.enrol_s",
                median_of(self.samples.iter().map(|s| s.enrol_s)),
            );
        }
    }
}

fn measure_setup(opts: &Opts) -> Setup {
    let samples = (0..SETUP_REPS as u64)
        .map(|k| match opts.workload {
            Workload::Detect => {
                boot(
                    &Scenario::paper(),
                    DETECT_POOL[0] + k,
                    quick_tgoal(),
                    true,
                    None,
                )
                .times
            }
            Workload::Sweep => boot(&Scenario::paper(), k, quick_tgoal(), false, None).times,
            Workload::Faults => {
                boot(
                    &smoke_scenario(),
                    FAULT_SEEDS[0],
                    fault_config().tgoal,
                    true,
                    None,
                )
                .times
            }
            Workload::Fig7 => boot_fig7(FIG7_POOL[0] + k),
        })
        .collect();
    Setup { samples }
}

/// A booted machine with SATIN installed and, optionally, TZ-Evader.
struct Booted {
    sys: System,
    handle: SatinHandle,
    times: SetupTimes,
}

fn quick_tgoal() -> SimDuration {
    DetectionConfig::quick(0).tgoal
}

/// Assembles a machine exactly as `try_run_scenario` does, timing each
/// public call; `trace`, if given, is installed before SATIN boots so it
/// sees every event scheduled from then on.
fn boot(
    scenario: &Scenario,
    seed: u64,
    tgoal: SimDuration,
    attacker: bool,
    trace: Option<&LayerTrace>,
) -> Booted {
    let t0 = Instant::now();
    let mut sys = SystemBuilder::new()
        .seed(seed)
        .scenario(scenario)
        .fault_attempt(1)
        .trace(false)
        .telemetry(false)
        .build();
    let build_s = t0.elapsed().as_secs_f64();
    if let Some(t) = trace {
        sys.set_sim_observer(Box::new(t.clone()));
    }
    let mut cfg = SatinConfig::from_profile(&scenario.defense);
    cfg.tgoal = tgoal;
    let (satin, handle) = Satin::new(cfg);
    let t1 = Instant::now();
    sys.try_install_secure_service(satin)
        .expect("SATIN boots on the built-in scenario");
    let enrol_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    if attacker {
        // The deployed tasks hold their own handles to the attack state.
        let _: TzEvader =
            TzEvader::deploy(&mut sys, TzEvaderConfig::from_profile(&scenario.attack));
    }
    let deploy_s = t2.elapsed().as_secs_f64();
    if let Some(t) = trace {
        t.resolve_roles(&sys);
    }
    Booted {
        sys,
        handle,
        times: SetupTimes {
            build_s,
            enrol_s,
            deploy_s,
        },
    }
}

/// The machine `run_single` assembles for a SATIN-on Figure 7 run.
fn boot_fig7(seed: u64) -> SetupTimes {
    let t0 = Instant::now();
    let mut sys = SystemBuilder::new().seed(seed).trace(false).build();
    let build_s = t0.elapsed().as_secs_f64();
    let (satin, _handle) = Satin::new(SatinConfig::paper());
    let t1 = Instant::now();
    sys.try_install_secure_service(satin)
        .expect("SATIN boots on the default platform");
    SetupTimes {
        build_s,
        enrol_s: t1.elapsed().as_secs_f64(),
        deploy_s: 0.0,
    }
}

/// Runs `sys` in slices of one SATIN period until `rounds` rounds are done,
/// as `try_run_scenario` does.
fn run_rounds(
    sys: &mut System,
    handle: &SatinHandle,
    tgoal: SimDuration,
    rounds: usize,
    hard_stop: SimTime,
) -> Result<(), SatinError> {
    let slice = tgoal / 19;
    while handle.round_count() < rounds && sys.now() < hard_stop {
        sys.run_for(slice);
        sys.check_fault_abort()?;
    }
    Ok(())
}

/// The per-layer row of one traced campaign of `detect` or `sweep`.
fn layer_row(
    c: &LayerCounts,
    rounds: usize,
    untraced_wall: f64,
    traced_wall: f64,
) -> Vec<(&'static str, f64)> {
    let polls = c.wakes(Bucket::Rootkit) + c.wakes(Bucket::Prober);
    let secure_s = c.self_s(Bucket::Secure);
    let mut row = vec![
        ("sim.events", c.dispatched as f64),
        ("sim.events_per_s", c.dispatched as f64 / untraced_wall),
        ("sim.scheduled", c.scheduled as f64),
        ("sim.max_queue_depth", c.max_depth as f64),
        ("system.dispatch.count", c.events(Bucket::Dispatch) as f64),
        ("system.dispatch.self_s", c.self_s(Bucket::Dispatch)),
        ("system.tick.count", c.events(Bucket::Tick) as f64),
        ("system.tick.self_s", c.self_s(Bucket::Tick)),
        ("attack.rootkit.wakes", c.wakes(Bucket::Rootkit) as f64),
        ("attack.rootkit.self_s", c.self_s(Bucket::Rootkit)),
        ("attack.prober.wakes", c.wakes(Bucket::Prober) as f64),
        ("attack.prober.self_s", c.self_s(Bucket::Prober)),
        ("secure.rounds", rounds as f64),
        ("secure.bytes_scanned", c.bytes_scanned as f64),
        ("secure.self_s", secure_s),
        ("trace.overhead", traced_wall / untraced_wall),
        ("trace.coverage", c.coverage()),
    ];
    if polls > 0 {
        row.push((
            "attack.poll_useful_ratio",
            c.useful_polls as f64 / polls as f64,
        ));
    }
    if c.bytes_scanned > 0 {
        row.push(("hash.ns_per_byte", secure_s * 1e9 / c.bytes_scanned as f64));
    }
    row
}

const WORKLOAD_LAYER: [&str; 3] = [
    "workload.run_off_s",
    "workload.run_on_s",
    "workload.satin_host_overhead",
];
const RUNNER_LAYER: [&str; 8] = [
    "runner.attempts",
    "runner.useful_attempt_ratio",
    "runner.cell_s",
    "runner.worker_util",
    "faults.retries",
    "faults.salvaged",
    "obs.stream_events",
    "obs.live_dropped",
];

/// Marks the metrics a traced `detect`/`sweep` run cannot measure.
fn traced_machine_unavailable(sheet: &mut Sheet) {
    sheet.unavailable(&WORKLOAD_LAYER, "no run_single calls on this workload");
    sheet.unavailable(&RUNNER_LAYER, "single campaigns, not the campaign runner");
    for (name, why) in [
        (
            "attack.poll_useful_ratio",
            "no poller wakes on this workload",
        ),
        ("hash.ns_per_byte", "no bytes scanned"),
    ] {
        if sheet.get(name).is_none() {
            sheet.unavailable(&[name], why);
        }
    }
}

// ---------------------------------------------------------------- detect

fn detect_seed(opts: &Opts, k: usize) -> u64 {
    if opts.held_out {
        return DETECT_HELD_OUT;
    }
    let n = DETECT_POOL.len() as u64;
    DETECT_POOL[((opts.seed % n + k as u64 % n) % n) as usize]
}

/// Summarizes an untraced campaign for the output check.
fn detect_output(seed: u64, r: &satin_bench::detection::DetectionResult) -> DetectOutput {
    DetectOutput {
        seed,
        rounds: r.rounds,
        events: r.metrics.events_dispatched,
        attacked: r.area14_attacked_checks,
        detected: r.area14_detections,
        other_alarms: r.other_area_alarms,
    }
}

fn detect(opts: &Opts, records: &Records, report: &mut Report) -> Vec<Unit> {
    let scenario = Scenario::paper();
    let mut budget = Budget::new(opts.seconds);
    let mut units = Vec::new();
    let mut rows = Vec::new();
    while budget.another() {
        let seed = detect_seed(opts, budget.units);
        let config = DetectionConfig::quick(seed);
        let (result, wall_s, cpu_s) = timed(|| try_run_scenario(&scenario, config, 1));
        let mut spent = wall_s;
        let checked = match result {
            Ok(r) => {
                units.push(Unit {
                    wall_s,
                    cpu_s,
                    sim_s: r.simulated_secs,
                });
                let mut checked =
                    expected::check_detect(&detect_output(seed, &r), config.rounds, records);
                if opts.trace {
                    let ((counts, traced), traced_wall, _) =
                        timed(|| traced_detect(&scenario, config));
                    spent += traced_wall;
                    let tampered = r.area14_detections
                        + r.area14_early_warning_detections
                        + r.other_area_alarms;
                    let untraced = (r.metrics.events_dispatched, r.rounds, tampered);
                    if traced != untraced {
                        checked = checked.and(Err(format!(
                            "detect seed {seed}: traced (events, rounds, detections) {traced:?} != untraced {untraced:?}"
                        )));
                    }
                    report.breakdown.get_or_insert_with(|| counts.breakdown());
                    rows.push(layer_row(&counts, traced.1, wall_s, traced_wall));
                }
                checked
            }
            Err(e) => Err(format!("detect seed {seed}: {e}")),
        };
        report.operations(1, u64::from(checked.is_ok()), checked);
        budget.spent(spent);
    }
    if opts.trace {
        layer_medians(&mut report.sheet, &rows);
        traced_machine_unavailable(&mut report.sheet);
    }
    units
}

/// `try_run_scenario` rebuilt from its public calls with [`LayerTrace`]
/// installed. Returns the counts and `(events, rounds, detections)`.
fn traced_detect(scenario: &Scenario, config: DetectionConfig) -> (LayerCounts, (u64, usize, u64)) {
    let trace = LayerTrace::new();
    let mut b = boot(scenario, config.seed, config.tgoal, true, Some(&trace));
    let hard_stop = SimTime::ZERO + config.tgoal * 40;
    let ((), loop_s, _) = timed(|| {
        run_rounds(
            &mut b.sys,
            &b.handle,
            config.tgoal,
            config.rounds,
            hard_stop,
        )
        .expect("no fault plan on the paper scenario")
    });
    let rounds = b.handle.rounds();
    let rounds = &rounds[..rounds.len().min(config.rounds)];
    let detections = rounds.iter().filter(|r| r.tampered).count() as u64;
    (
        trace.finish(loop_s),
        (b.sys.events_dispatched(), rounds.len(), detections),
    )
}

// ---------------------------------------------------------------- sweep

fn sweep_seed(opts: &Opts, k: usize) -> u64 {
    let base = if opts.held_out {
        SWEEP_HELD_OUT
    } else {
        opts.seed
    };
    base.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// One sweep unit: `(events, rounds, alarms)`, simulated seconds, and the
/// run loop's host seconds.
fn sweep_unit(seed: u64, trace: Option<&LayerTrace>) -> ((u64, usize, usize), f64, f64) {
    let tgoal = quick_tgoal();
    let mut b = boot(&Scenario::paper(), seed, tgoal, false, trace);
    // Generous: rounds fire on average once per SATIN period.
    let hard_stop = SimTime::ZERO + (tgoal / 19) * (4 * SWEEP_ROUNDS as u64);
    let ((), loop_s, _) = timed(|| {
        run_rounds(&mut b.sys, &b.handle, tgoal, SWEEP_ROUNDS, hard_stop)
            .expect("no fault plan on the paper scenario")
    });
    let out = (
        b.sys.events_dispatched(),
        b.handle.round_count(),
        b.handle.alarms().len(),
    );
    (out, b.sys.now().as_secs_f64(), loop_s)
}

fn sweep(opts: &Opts, report: &mut Report) -> Vec<Unit> {
    let mut budget = Budget::new(opts.seconds);
    let mut units = Vec::new();
    let mut rows = Vec::new();
    while budget.another() {
        let seed = sweep_seed(opts, budget.units);
        let (((events, rounds, alarms), sim_s, _), wall_s, cpu_s) =
            timed(|| sweep_unit(seed, None));
        let mut spent = wall_s;
        units.push(Unit {
            wall_s,
            cpu_s,
            sim_s,
        });
        let mut checked = expected::check_sweep(seed, rounds, SWEEP_ROUNDS, alarms);
        if opts.trace {
            let trace = LayerTrace::new();
            let ((traced, _, loop_s), traced_wall, _) = timed(|| sweep_unit(seed, Some(&trace)));
            spent += traced_wall;
            let untraced = (events, rounds, alarms);
            if traced != untraced {
                checked = checked.and(Err(format!(
                    "sweep seed {seed}: traced (events, rounds, alarms) {traced:?} != untraced {untraced:?}"
                )));
            }
            let counts = trace.finish(loop_s);
            report.breakdown.get_or_insert_with(|| counts.breakdown());
            rows.push(layer_row(&counts, traced.1, wall_s, traced_wall));
        }
        report.operations(1, 1, checked);
        budget.spent(spent);
    }
    if opts.trace {
        layer_medians(&mut report.sheet, &rows);
        traced_machine_unavailable(&mut report.sheet);
    }
    units
}

// ---------------------------------------------------------------- fig7

fn fig7_seed(opts: &Opts, k: usize) -> u64 {
    if opts.held_out {
        return FIG7_HELD_OUT;
    }
    let n = FIG7_POOL.len() as u64;
    FIG7_POOL[((opts.seed % n + k as u64 % n) % n) as usize]
}

/// One Figure 7 study: every benchmark, SATIN off and on, 1 and 6 tasks,
/// through `run_single` (seeded `seed + tasks`, as `repro fig7` does).
/// Returns the reports and the summed host seconds of the off and on runs.
pub fn fig7_study(seed: u64) -> (Vec<OverheadReport>, f64, f64) {
    let duration = SimDuration::from_secs(FIG7_DURATION_SECS);
    let suite = unixbench_suite();
    let (mut off_s, mut on_s) = (0.0, 0.0);
    let mut reports = Vec::new();
    for tasks in [1usize, 6] {
        let study_seed = seed.wrapping_add(tasks as u64);
        let mut rows = Vec::new();
        for w in &suite {
            let t0 = Instant::now();
            let score_off = run_single(w, tasks, duration, None, study_seed);
            let t1 = Instant::now();
            let score_on = run_single(w, tasks, duration, Some(SatinConfig::paper()), study_seed);
            off_s += (t1 - t0).as_secs_f64();
            on_s += t1.elapsed().as_secs_f64();
            rows.push(OverheadRow {
                name: w.name.to_string(),
                score_off,
                score_on,
            });
        }
        reports.push(OverheadReport { tasks, rows });
    }
    (reports, off_s, on_s)
}

/// The degradation table the Figure 7 check compares byte for byte.
pub fn render_fig7(reports: &[OverheadReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let _ = writeln!(out, "{}-task", r.tasks);
        for row in &r.rows {
            let _ = writeln!(
                out,
                "  {:<32} off {} on {} degradation {:.6}%",
                row.name,
                row.score_off,
                row.score_on,
                row.degradation() * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  mean degradation {:.6}%",
            r.mean_degradation() * 100.0
        );
    }
    out
}

fn fig7(opts: &Opts, records: &Records, report: &mut Report) -> Vec<Unit> {
    let runs_per_study = 2 * 2 * unixbench_suite().len();
    let mut budget = Budget::new(opts.seconds);
    let mut units = Vec::new();
    let mut rows = Vec::new();
    while budget.another() {
        let seed = fig7_seed(opts, budget.units);
        let ((reports, off_s, on_s), wall_s, cpu_s) = timed(|| fig7_study(seed));
        report.operations(
            1,
            1,
            expected::check_fig7(seed, &render_fig7(&reports), records),
        );
        let sim_s = (runs_per_study as u64 * FIG7_DURATION_SECS) as f64;
        units.push(Unit {
            wall_s,
            cpu_s,
            sim_s,
        });
        rows.push(vec![
            ("workload.run_off_s", off_s),
            ("workload.run_on_s", on_s),
            ("workload.satin_host_overhead", on_s / off_s - 1.0),
        ]);
        budget.spent(wall_s);
    }
    if opts.trace {
        layer_medians(&mut report.sheet, &rows);
        let hidden = "run_single owns its machine, so no observer can be installed";
        let machine: Vec<&'static str> = crate::metrics::PER_LAYER
            .iter()
            .map(|s| s.name)
            .filter(|n| report.sheet.get(n).is_none() && !RUNNER_LAYER.contains(n))
            .collect();
        report.sheet.unavailable(&machine, hidden);
        report
            .sheet
            .unavailable(&RUNNER_LAYER, "run_single calls, not the campaign runner");
    }
    units
}

// ---------------------------------------------------------------- faults

fn smoke_scenario() -> Scenario {
    let mut sc = Scenario::paper();
    sc.faults = FaultPlan::smoke();
    sc
}

/// One sweep of the 19 areas, the shape the golden stream pins.
fn fault_config() -> DetectionConfig {
    DetectionConfig {
        rounds: 19,
        tgoal: SimDuration::from_millis(9_500),
        seed: 0,
        trace: false,
        telemetry: false,
    }
}

fn faults(opts: &Opts, report: &mut Report) -> Vec<Unit> {
    let scenario = smoke_scenario();
    let runner = CampaignRunner::new(FAULT_WORKERS);
    let mut budget = Budget::new(opts.seconds);
    let mut units = Vec::new();
    let mut rows = Vec::new();
    while budget.another() {
        let (obs, live) = if opts.trace {
            let (obs, rx) = CampaignObs::with_live("faults/smoke", 4096);
            (obs, Some(rx))
        } else {
            (CampaignObs::new("faults/smoke"), None)
        };
        let ((outcomes, stream), wall_s, cpu_s) = timed(|| {
            run_many_faulted_observed(&scenario, fault_config(), &FAULT_SEEDS, &runner, &obs)
        });
        let cells: Vec<(u64, bool, u32)> = outcomes
            .iter()
            .map(|o| (o.seed(), o.is_failed(), o.attempts()))
            .collect();
        let checked = expected::check_faults(&stream.to_jsonl(), expected::EVENTS_SMOKE, &cells);
        let ok = cells.iter().filter(|c| !c.1).count() as u64;
        report.operations(cells.len() as u64, ok, checked);
        let results: Vec<_> = outcomes.iter().filter_map(SeedOutcome::value).collect();
        let sim_s = results.iter().map(|r| r.simulated_secs).sum();
        units.push(Unit {
            wall_s,
            cpu_s,
            sim_s,
        });
        if let Some(rx) = live {
            let dropped = obs.live_dropped();
            drop(obs);
            let live: Vec<LiveEvent> = rx.try_iter().collect();
            let events: u64 = results.iter().map(|r| r.metrics.events_dispatched).sum();
            let mut row = runner_row(&outcomes, &stream, &live, dropped);
            row.extend([
                ("sim.events", events as f64),
                ("sim.events_per_s", events as f64 / wall_s),
                (
                    "secure.rounds",
                    results.iter().map(|r| r.rounds).sum::<usize>() as f64,
                ),
            ]);
            rows.push(row);
        }
        budget.spent(wall_s);
    }
    if opts.trace {
        layer_medians(&mut report.sheet, &rows);
        let machine: Vec<&'static str> = crate::metrics::PER_LAYER
            .iter()
            .map(|s| s.name)
            .filter(|n| {
                report.sheet.get(n).is_none()
                    && !n.starts_with("workload.")
                    && !n.starts_with("setup.")
            })
            .collect();
        report.sheet.unavailable(
            &machine,
            "campaigns run inside the runner's workers, out of an observer's reach",
        );
        report
            .sheet
            .unavailable(&WORKLOAD_LAYER, "no run_single calls on this workload");
    }
    units
}

/// Runner, fault and observability metrics of one observed campaign, from
/// its outcomes, canonical stream and host-tagged live events.
fn runner_row<T>(
    outcomes: &[SeedOutcome<T>],
    stream: &EventStream,
    live: &[LiveEvent],
    dropped: u64,
) -> Vec<(&'static str, f64)> {
    let attempts: u32 = outcomes.iter().map(SeedOutcome::attempts).sum();
    let ok = outcomes.iter().filter(|o| !o.is_failed()).count();
    let count =
        |pred: fn(&ObsEvent) -> bool| stream.events().iter().filter(|e| pred(e)).count() as f64;
    // Per-cell host spans from cell.started to cell.finished/salvaged.
    let mut started: BTreeMap<usize, u64> = BTreeMap::new();
    let mut cell_s = Vec::new();
    let mut busy_ns = 0u64;
    let (mut first, mut last) = (u64::MAX, 0u64);
    for ev in live {
        first = first.min(ev.host_ns);
        last = last.max(ev.host_ns);
        match &ev.event {
            ObsEvent::CellStarted { cell, .. } => {
                started.insert(*cell, ev.host_ns);
            }
            ObsEvent::CellFinished { cell, .. } | ObsEvent::CellSalvaged { cell, .. } => {
                if let Some(t0) = started.remove(cell) {
                    let ns = ev.host_ns.saturating_sub(t0);
                    cell_s.push(ns as f64 / 1e9);
                    busy_ns += ns;
                }
            }
            _ => {}
        }
    }
    let span_ns = last.saturating_sub(first).max(1);
    let util = busy_ns as f64 / (FAULT_WORKERS as u64 * span_ns) as f64;
    vec![
        ("runner.attempts", f64::from(attempts)),
        (
            "runner.useful_attempt_ratio",
            ok as f64 / f64::from(attempts.max(1)),
        ),
        ("runner.cell_s", median_of(cell_s)),
        ("runner.worker_util", util),
        (
            "faults.retries",
            count(|e| matches!(e, ObsEvent::CellRetried { .. })),
        ),
        (
            "faults.salvaged",
            count(|e| matches!(e, ObsEvent::CellSalvaged { .. })),
        ),
        ("obs.stream_events", stream.len() as f64),
        ("obs.live_dropped", dropped as f64),
    ]
}

// ---------------------------------------------------------------- record

/// Runs the recorded workloads' seed pools and returns the record file
/// text (`expected/detect.tsv` or `expected/fig7.txt`).
pub fn record(workload: Workload) -> Result<String, String> {
    match workload {
        Workload::Detect => {
            let mut rows = Vec::new();
            for seed in DETECT_POOL.into_iter().chain([DETECT_HELD_OUT]) {
                let r = try_run_scenario(&Scenario::paper(), DetectionConfig::quick(seed), 1)
                    .map_err(|e| format!("seed {seed}: {e}"))?;
                rows.push((seed, r.metrics.events_dispatched));
            }
            Ok(Records::render_detect(&rows))
        }
        Workload::Fig7 => {
            let tables: Vec<(u64, String)> = FIG7_POOL
                .into_iter()
                .chain([FIG7_HELD_OUT])
                .map(|seed| (seed, render_fig7(&fig7_study(seed).0)))
                .collect();
            Ok(Records::render_fig7(&tables))
        }
        w => Err(format!("{} has no recorded outputs", w.name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> Opts {
        Opts {
            workload: Workload::Detect,
            seed,
            seconds: 1.0,
            trace: false,
            held_out: false,
        }
    }

    #[test]
    fn seeds_come_from_the_seed_argument() {
        assert_eq!(detect_seed(&opts(0), 0), 1);
        assert_eq!(detect_seed(&opts(0), 1), 3);
        assert_eq!(detect_seed(&opts(3), 0), 3);
        assert_eq!(detect_seed(&opts(u64::MAX), 5), 1);
        assert_ne!(sweep_seed(&opts(1), 0), sweep_seed(&opts(2), 0));
        let held = Opts {
            held_out: true,
            ..opts(3)
        };
        assert_eq!(detect_seed(&held, 2), DETECT_HELD_OUT);
        assert_eq!(fig7_seed(&held, 0), FIG7_HELD_OUT);
        assert!(!DETECT_POOL.contains(&DETECT_HELD_OUT));
        assert!(!FIG7_POOL.contains(&FIG7_HELD_OUT));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// A real run, traced and untraced, emits exactly the registered
    /// metrics and passes its own output checks (`sweep` is the cheapest).
    #[test]
    fn a_sweep_run_emits_every_registered_metric() {
        use crate::metrics::{render_result, END_TO_END, PER_LAYER};
        for (trace, specs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(&Opts {
                workload: Workload::Sweep,
                seconds: 0.0,
                trace,
                ..opts(1)
            });
            assert_eq!(report.errors, Vec::<String>::new());
            let line =
                render_result(report.tally(), specs, &report.sheet).expect("complete result");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }

    #[test]
    fn budget_admits_one_unit_then_only_what_fits() {
        let mut b = Budget::new(0.0);
        assert!(b.another(), "the first unit always runs");
        b.spent(0.5);
        assert!(!b.another());
    }
}

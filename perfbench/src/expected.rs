//! Recorded outputs and the output checks that compare a run against them.
//!
//! The records live in `expected/` next to this crate and are compiled in,
//! as is the repository's golden event stream for the fault smoke. Any
//! difference fails the run: a faster simulator must produce the same
//! campaign results.
//!
//! Regenerate a record only for a deliberate behaviour change, with
//! `perfbench --record detect` or `perfbench --record fig7`.

use std::collections::BTreeMap;

const DETECT_TSV: &str = include_str!("../expected/detect.tsv");
const FIG7_TXT: &str = include_str!("../expected/fig7.txt");
/// The canonical event stream of the smoke fault plan over seeds
/// {7, 42, 1009}, pinned by `crates/bench/tests/events_golden.rs`.
pub const EVENTS_SMOKE: &str =
    include_str!("../../crates/bench/tests/golden/events_smoke.jsonl.snap");

/// The recorded outputs, parsed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Records {
    /// Quick detection campaign seed → events dispatched.
    pub detect_events: BTreeMap<u64, u64>,
    /// Figure 7 study seed → rendered degradation table.
    pub fig7_tables: BTreeMap<u64, String>,
}

impl Records {
    /// The records compiled into this binary.
    pub fn compiled() -> Records {
        Records::parse(DETECT_TSV, FIG7_TXT).expect("compiled-in records are well formed")
    }

    /// Parses `detect.tsv` (`seed<TAB>events` lines, `#` comments) and
    /// `fig7.txt` (tables introduced by `# seed N` lines).
    ///
    /// # Errors
    ///
    /// A malformed line.
    pub fn parse(detect_tsv: &str, fig7_txt: &str) -> Result<Records, String> {
        let mut detect_events = BTreeMap::new();
        for line in detect_tsv
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut cols = line.split('\t').map(str::parse::<u64>);
            match (cols.next(), cols.next(), cols.next()) {
                (Some(Ok(seed)), Some(Ok(events)), None) => {
                    detect_events.insert(seed, events);
                }
                _ => return Err(format!("detect.tsv: bad line {line:?}")),
            }
        }
        let mut fig7_tables = BTreeMap::new();
        let mut current: Option<(u64, String)> = None;
        for line in fig7_txt.lines() {
            if let Some(seed) = line.strip_prefix("# seed ") {
                let seed = seed
                    .parse()
                    .map_err(|_| format!("fig7.txt: bad header {line:?}"))?;
                fig7_tables.extend(current.replace((seed, String::new())));
            } else if let Some((_, table)) = current.as_mut() {
                table.push_str(line);
                table.push('\n');
            } else if !line.is_empty() {
                return Err(format!(
                    "fig7.txt: line before the first seed header: {line:?}"
                ));
            }
        }
        fig7_tables.extend(current);
        Ok(Records {
            detect_events,
            fig7_tables,
        })
    }

    /// The `detect.tsv` text for `rows` of `(seed, events)`.
    pub fn render_detect(rows: &[(u64, u64)]) -> String {
        let mut out = String::from(
            "# quick detection campaign (57 rounds, Tgoal 19 s)\n# seed\tevents_dispatched\n",
        );
        for (seed, events) in rows {
            out.push_str(&format!("{seed}\t{events}\n"));
        }
        out
    }

    /// The `fig7.txt` text for `(seed, table)` pairs.
    pub fn render_fig7(tables: &[(u64, String)]) -> String {
        tables
            .iter()
            .map(|(seed, table)| format!("# seed {seed}\n{table}"))
            .collect()
    }
}

/// What one quick detection campaign produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectOutput {
    /// Campaign seed.
    pub seed: u64,
    /// Rounds completed (capped at the target).
    pub rounds: usize,
    /// Events the machine dispatched.
    pub events: u64,
    /// Fair-race checks of the attacked area.
    pub attacked: u64,
    /// Of those, detections.
    pub detected: u64,
    /// Alarms on areas the rootkit never touched.
    pub other_alarms: u64,
}

/// The §VI-B1 check: all `target_rounds` rounds, every attacked check
/// detected, no false alarm, and the recorded event count.
///
/// # Errors
///
/// Which expectation the output broke.
pub fn check_detect(
    out: &DetectOutput,
    target_rounds: usize,
    records: &Records,
) -> Result<(), String> {
    let seed = out.seed;
    if out.rounds != target_rounds {
        return Err(format!(
            "detect seed {seed}: {} of {target_rounds} rounds",
            out.rounds
        ));
    }
    if out.detected != out.attacked {
        return Err(format!(
            "detect seed {seed}: {} of {} attacked checks detected",
            out.detected, out.attacked
        ));
    }
    if out.other_alarms != 0 {
        return Err(format!(
            "detect seed {seed}: {} alarms on clean areas",
            out.other_alarms
        ));
    }
    match records.detect_events.get(&seed) {
        Some(&want) if want == out.events => Ok(()),
        Some(&want) => Err(format!(
            "detect seed {seed}: {} events dispatched, recorded {want}",
            out.events
        )),
        None => Err(format!("detect seed {seed}: no recorded event count")),
    }
}

/// The clean-kernel check: all rounds done and not one alarm.
///
/// # Errors
///
/// Too few rounds, or a false positive.
pub fn check_sweep(
    seed: u64,
    rounds: usize,
    target_rounds: usize,
    alarms: usize,
) -> Result<(), String> {
    if rounds < target_rounds {
        return Err(format!(
            "sweep seed {seed}: {rounds} of {target_rounds} rounds"
        ));
    }
    if alarms != 0 {
        return Err(format!(
            "sweep seed {seed}: {alarms} false alarms on a clean kernel"
        ));
    }
    Ok(())
}

/// The Figure 7 check: the rendered table is byte-identical to the record.
///
/// # Errors
///
/// No record for `seed`, or the first differing line.
pub fn check_fig7(seed: u64, table: &str, records: &Records) -> Result<(), String> {
    let want = records
        .fig7_tables
        .get(&seed)
        .ok_or_else(|| format!("fig7 seed {seed}: no recorded table"))?;
    if want == table {
        return Ok(());
    }
    let diff = want
        .lines()
        .zip(table.lines())
        .find(|(w, g)| w != g)
        .map_or_else(
            || "line count differs".to_string(),
            |(w, g)| format!("want {w:?}, got {g:?}"),
        );
    Err(format!("fig7 seed {seed}: table differs: {diff}"))
}

/// The fault-smoke check: the canonical stream equals `golden` byte for
/// byte, and seed 42 (the only aborted seed) is salvaged after 2 attempts.
///
/// `outcomes` holds `(seed, failed, attempts)` per cell.
///
/// # Errors
///
/// Which expectation the campaign broke.
pub fn check_faults(
    jsonl: &str,
    golden: &str,
    outcomes: &[(u64, bool, u32)],
) -> Result<(), String> {
    if jsonl != golden {
        let line = jsonl
            .lines()
            .zip(golden.lines())
            .position(|(g, w)| g != w)
            .map_or(jsonl.lines().count().min(golden.lines().count()), |i| i);
        return Err(format!(
            "faults: event stream differs from the golden at line {}",
            line + 1
        ));
    }
    for &(seed, failed, attempts) in outcomes {
        let want = if seed == 42 { (true, 2) } else { (false, 1) };
        if (failed, attempts) != want {
            return Err(format!(
                "faults seed {seed}: failed={failed} after {attempts} attempts, want failed={} after {}",
                want.0, want.1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(seed: u64, events: u64) -> DetectOutput {
        DetectOutput {
            seed,
            rounds: 57,
            events,
            attacked: 3,
            detected: 3,
            other_alarms: 0,
        }
    }

    #[test]
    fn records_round_trip() {
        let detect = Records::render_detect(&[(1, 100), (2, 200)]);
        let fig7 = Records::render_fig7(&[(1, "a\nb\n".into()), (4, "c\n".into())]);
        let r = Records::parse(&detect, &fig7).expect("parses");
        assert_eq!(r.detect_events.get(&2), Some(&200));
        assert_eq!(r.fig7_tables.get(&1).map(String::as_str), Some("a\nb\n"));
        assert_eq!(r.fig7_tables.get(&4).map(String::as_str), Some("c\n"));
        assert!(Records::parse("1\tx\n", "").is_err());
        assert!(Records::parse("", "stray\n").is_err());
    }

    #[test]
    fn compiled_records_cover_the_seed_pools() {
        let r = Records::compiled();
        for seed in crate::workloads::DETECT_POOL
            .iter()
            .chain([&crate::workloads::DETECT_HELD_OUT])
        {
            assert!(
                r.detect_events.contains_key(seed),
                "detect seed {seed} unrecorded"
            );
        }
        for seed in crate::workloads::FIG7_POOL
            .iter()
            .chain([&crate::workloads::FIG7_HELD_OUT])
        {
            assert!(
                r.fig7_tables.contains_key(seed),
                "fig7 seed {seed} unrecorded"
            );
        }
    }

    #[test]
    fn detect_check_rejects_a_tampered_record() {
        let good = Records::parse(&Records::render_detect(&[(7, 1000)]), "").expect("parses");
        assert_eq!(check_detect(&output(7, 1000), 57, &good), Ok(()));
        let tampered = Records::parse(&Records::render_detect(&[(7, 1001)]), "").expect("parses");
        assert!(check_detect(&output(7, 1000), 57, &tampered).is_err());
        assert!(
            check_detect(&output(8, 1000), 57, &good).is_err(),
            "unrecorded seed"
        );
        let missed = DetectOutput {
            detected: 2,
            ..output(7, 1000)
        };
        assert!(check_detect(&missed, 57, &good).is_err());
        let false_alarm = DetectOutput {
            other_alarms: 1,
            ..output(7, 1000)
        };
        assert!(check_detect(&false_alarm, 57, &good).is_err());
        let short = DetectOutput {
            rounds: 56,
            ..output(7, 1000)
        };
        assert!(check_detect(&short, 57, &good).is_err());
    }

    #[test]
    fn fig7_check_rejects_a_tampered_table() {
        let table = "1-task\n  dhrystone 2 off 1 on 0.5\n";
        let good = Records::parse("", &Records::render_fig7(&[(3, table.into())])).expect("parses");
        assert_eq!(check_fig7(3, table, &good), Ok(()));
        let tampered = Records::parse(
            "",
            &Records::render_fig7(&[(3, table.replace("0.5", "0.6"))]),
        )
        .expect("parses");
        assert!(check_fig7(3, table, &tampered).is_err());
        assert!(check_fig7(4, table, &good).is_err(), "unrecorded seed");
    }

    #[test]
    fn faults_check_rejects_a_tampered_stream_or_outcome() {
        let ok = [(7, false, 1), (42, true, 2), (1009, false, 1)];
        assert_eq!(check_faults(EVENTS_SMOKE, EVENTS_SMOKE, &ok), Ok(()));
        let tampered = EVENTS_SMOKE.replacen("1009", "1010", 1);
        assert!(check_faults(EVENTS_SMOKE, &tampered, &ok).is_err());
        let unsalvaged = [(7, false, 1), (42, false, 1), (1009, false, 1)];
        assert!(check_faults(EVENTS_SMOKE, EVENTS_SMOKE, &unsalvaged).is_err());
    }

    #[test]
    fn sweep_check_rejects_false_alarms() {
        assert_eq!(check_sweep(1, 1900, 1900, 0), Ok(()));
        assert!(check_sweep(1, 1900, 1900, 1).is_err());
        assert!(check_sweep(1, 1899, 1900, 0).is_err());
    }
}

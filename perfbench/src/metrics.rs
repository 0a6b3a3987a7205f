//! The metric registry and the one-line JSON result.
//!
//! Every metric the benchmark can print is named here once, with its unit.
//! A run fills a [`Sheet`]; [`render_result`] refuses to print unless the
//! sheet holds exactly the registry's metrics for the run's mode, so a
//! metric named in `BENCHMARK.json` can never silently go missing.

use crate::host::json_string;
use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Dotted metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit, e.g. `s`, `count`, `1/s`.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("wall_s", "s"),
    spec("cpu_s", "s"),
    spec("setup_s", "s"),
    spec("sim_s_per_wall_s", "s/s"),
    spec("peak_rss_mb", "MB"),
    spec("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Layers are
/// named after the crates that do the work.
pub const PER_LAYER: &[Spec] = &[
    spec("sim.events", "count"),
    spec("sim.events_per_s", "1/s"),
    spec("sim.scheduled", "count"),
    spec("sim.max_queue_depth", "count"),
    spec("system.dispatch.count", "count"),
    spec("system.dispatch.self_s", "s"),
    spec("system.tick.count", "count"),
    spec("system.tick.self_s", "s"),
    spec("attack.rootkit.wakes", "count"),
    spec("attack.rootkit.self_s", "s"),
    spec("attack.prober.wakes", "count"),
    spec("attack.prober.self_s", "s"),
    spec("attack.poll_useful_ratio", "ratio"),
    spec("workload.run_off_s", "s"),
    spec("workload.run_on_s", "s"),
    spec("workload.satin_host_overhead", "ratio"),
    spec("secure.rounds", "count"),
    spec("secure.bytes_scanned", "B"),
    spec("secure.self_s", "s"),
    spec("hash.ns_per_byte", "ns/B"),
    spec("setup.build_s", "s"),
    spec("setup.enrol_s", "s"),
    spec("runner.attempts", "count"),
    spec("runner.useful_attempt_ratio", "ratio"),
    spec("runner.cell_s", "s"),
    spec("runner.worker_util", "ratio"),
    spec("faults.retries", "count"),
    spec("faults.salvaged", "count"),
    spec("obs.stream_events", "count"),
    spec("obs.live_dropped", "count"),
    spec("trace.overhead", "ratio"),
    spec("trace.coverage", "ratio"),
];

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values one run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Sheet {
    /// Records `value` for metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records that `name` has no measurement on this workload: it is
    /// printed as 0 and the reason is listed in the run's notes.
    pub fn unavailable(&mut self, names: &[&'static str], why: &str) {
        for &name in names {
            self.values.insert(name, 0.0);
            self.notes.push(format!("{name}: unavailable ({why})"));
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Why each unavailable metric is unavailable.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// What a run did: the `correct`, `attempted` and `failed` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Operations (campaigns, study runs) attempted.
    pub attempted: u64,
    /// Operations that failed unexpectedly or produced a wrong output.
    pub failed: u64,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `specs`, in registry order.
///
/// # Errors
///
/// The sheet lacks a metric of `specs`, holds one outside it, or holds a
/// value that is not finite.
pub fn render_result(tally: Tally, specs: &[Spec], sheet: &Sheet) -> Result<String, String> {
    if let Some(extra) = sheet
        .values
        .keys()
        .find(|k| !specs.iter().any(|s| s.name == **k))
    {
        return Err(format!("metric {extra} is not registered for this mode"));
    }
    let mut fields = Vec::with_capacity(specs.len());
    for s in specs {
        if !valid_name(s.name) {
            return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]+", s.name));
        }
        let v = sheet
            .get(s.name)
            .ok_or_else(|| format!("metric {} was not measured", s.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", s.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_string(s.name),
            json_string(s.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_obs::json::Json;

    fn all_specs() -> impl Iterator<Item = &'static Spec> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for s in all_specs() {
            assert!(valid_name(s.name), "bad metric name {:?}", s.name);
            assert!(seen.insert(s.name), "duplicate metric name {}", s.name);
            assert!(
                !s.unit.is_empty() && s.unit.len() <= 16,
                "bad unit for {}",
                s.name
            );
        }
        assert!(!valid_name("sim events"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    /// The registry and `BENCHMARK.json` name the same metrics with the same
    /// units, so every metric the file names is one a run must emit.
    #[test]
    fn registry_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("string field");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let registered: Vec<(String, String)> = registry
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect();
            assert_eq!(listed, registered, "{key} differs from the registry");
        }
    }

    #[test]
    fn result_line_holds_every_metric_or_is_refused() {
        let mut sheet = Sheet::default();
        for s in END_TO_END {
            sheet.set(s.name, 1.5);
        }
        let tally = Tally {
            correct: true,
            attempted: 3,
            failed: 0,
        };
        let line = render_result(tally, END_TO_END, &sheet).expect("complete sheet");
        let doc = Json::parse(&line).expect("result is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for s in END_TO_END {
            let m = metrics.get(s.name).expect("metric present");
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(s.unit));
        }
        // A per-layer metric is refused in an end-to-end result...
        sheet.set("sim.events", 1.0);
        assert!(render_result(tally, END_TO_END, &sheet).is_err());
        // ...and a missing one is refused too.
        assert!(render_result(tally, PER_LAYER, &sheet).is_err());
        let mut nan = Sheet::default();
        for s in END_TO_END {
            nan.set(s.name, f64::NAN);
        }
        assert!(render_result(tally, END_TO_END, &nan).is_err());
    }
}

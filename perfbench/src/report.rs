//! The result line, the check accumulator, and the small measurement
//! helpers every workload shares.

use std::time::{Duration, Instant};

use rootless_util::stats::percentile;

use crate::SETUP_REPEATS;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints as its last stdout line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable descriptions of every failed check (stderr).
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Folds a check list in; the run is correct only if every check held.
    pub fn absorb(&mut self, checks: Checks) {
        self.failures.extend(checks.failures);
    }

    /// The result object. Non-finite values (never expected) are written as
    /// 0 and recorded as a failure, so the line always parses as JSON.
    pub fn to_json(&self) -> String {
        let mut failures = self.failures.clone();
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                m.value
            } else {
                failures.push(format!("metric {} is not finite", m.name));
                0.0
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failures.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Collects named checks; a failed check keeps its description.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    #[cfg(test)]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median wall time in
/// seconds with the last state built; earlier states are dropped before the
/// next one is built, so set-up memory is counted once.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), state.expect("at least one setup"))
}

#[repr(C)]
struct RUsage {
    // struct rusage on LP64 Linux: two timevals, then 14 longs starting
    // with ru_maxrss.
    fields: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a writable, correctly sized `struct rusage` for
    // LP64 Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    usage.fields[4] as f64 / 1024.0 // ru_maxrss is in KiB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("rate_per_s", "1/s", 12.5);
        let line = o.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"rate_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_nan_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let mut c = Checks::default();
        c.eq("answers", 1, 2);
        o.absorb(c);
        assert!(o.to_json().starts_with("{\"correct\": false"));
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metric("x", "ms", f64::NAN);
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}

//! Before/after probes around a call into one layer: wall time, process
//! CPU time, and the program's existing `mpa_obs` counters and generate
//! phase accumulators. The traced run builds every per-layer metric from
//! these deltas; the program itself gains no spans.

use crate::procstat;
use std::time::Instant;

/// State captured before a call.
pub struct Probe {
    at: Instant,
    cpu_s: f64,
    counters: Vec<(&'static str, u64)>,
    phases: Vec<(&'static str, u64)>,
}

/// What happened between a [`Probe`] and [`Probe::delta`].
#[derive(Debug, Clone)]
pub struct Delta {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    counters: Vec<(&'static str, u64)>,
    phases: Vec<(&'static str, u64)>,
}

impl Probe {
    /// Capture the current state.
    pub fn start() -> Self {
        Self {
            counters: mpa_obs::counters::snapshot(),
            phases: mpa_obs::phases::snapshot(),
            cpu_s: procstat::cpu_seconds("self").expect("/proc/self/stat is readable"),
            at: Instant::now(),
        }
    }

    /// The change since [`Probe::start`].
    pub fn delta(&self) -> Delta {
        let wall_s = self.at.elapsed().as_secs_f64();
        let cpu_s =
            procstat::cpu_seconds("self").expect("/proc/self/stat is readable") - self.cpu_s;
        Delta {
            wall_s,
            cpu_s,
            counters: mpa_obs::counters::snapshot_diff(
                &self.counters,
                &mpa_obs::counters::snapshot(),
            ),
            phases: mpa_obs::phases::snapshot_diff(&self.phases, &mpa_obs::phases::snapshot()),
        }
    }
}

impl Delta {
    /// Increase of the named `mpa_obs` counter (0 for an unknown name).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Seconds added to the named generate-phase accumulator.
    pub fn phase_s(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
    }
}

/// Run `f` between two probes.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Delta) {
    let probe = Probe::start();
    let out = f();
    (out, probe.delta())
}

//! The workloads' inputs, generated from the seed at a steady size.
//!
//! The generator's per-network sizes are heavy-tailed (log-normal VLAN
//! counts and network sizes), so at these org sizes the config text of an
//! org varies by about ±25% between org seeds, and its snapshot count, and
//! with them generate time, infer time and peak RSS, vary as much. A
//! benchmark compares runs across seeds, so a seed does not feed the
//! generator directly: it picks one of eight vetted org seeds
//! (`seed % 8`), whose config bytes, snapshot counts, and timed-pass peak
//! RSS and CPU time lie closest to the medians of the generator's
//! distribution (see [`survey`]). The content differs between the eight; the size is stated
//! and held.

use mpa_synth::Scenario;

/// The org sizes the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Org {
    /// 200 networks over the paper's 17-month period (batch_infer).
    Paper200,
    /// `Scenario::medium()`: 220 networks × 10 months (batch_analytics,
    /// serve_mixed).
    Medium,
}

/// `survey("batch_infer", 48, 8)`: 338–392 MB of config text, 107.8k–122.0k
/// snapshots, 167–188 MiB and 2.9–3.2 CPU s per timed pass; each within
/// 10.9% of the medians over org seeds 1..=48.
const VETTED_PAPER200: [u64; 8] = [39, 16, 11, 15, 14, 45, 8, 20];
/// `survey("batch_analytics", 48, 8)`: 215–262 MB, 73.4k–82.1k snapshots,
/// 119–137 MiB and 2.7–3.4 CPU s per timed pass; each within 11.8% of the
/// medians.
const VETTED_MEDIUM: [u64; 8] = [19, 14, 10, 16, 29, 11, 39, 15];

impl Org {
    /// The org a workload runs on.
    pub fn of(workload: &str) -> Org {
        if workload == "batch_infer" {
            Org::Paper200
        } else {
            Org::Medium
        }
    }

    /// The scenario for a concrete org seed.
    pub fn scenario(self, org_seed: u64) -> Scenario {
        match self {
            Org::Paper200 => {
                let mut s = Scenario::paper().with_seed(org_seed);
                s.org.n_networks = 200;
                s
            }
            Org::Medium => Scenario::medium().with_seed(org_seed),
        }
    }

    /// The vetted org seeds of this size.
    pub fn vetted(self) -> &'static [u64; 8] {
        match self {
            Org::Paper200 => &VETTED_PAPER200,
            Org::Medium => &VETTED_MEDIUM,
        }
    }

    /// The org seed a benchmark seed maps to.
    pub fn org_seed(self, seed: u64) -> u64 {
        let vetted = self.vetted();
        vetted[(seed % vetted.len() as u64) as usize]
    }
}

/// One surveyed candidate.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Org seed.
    pub org_seed: u64,
    /// Config text the archive represents (independent of its encoding).
    pub bytes: f64,
    /// Snapshots in the archive.
    pub snapshots: f64,
    /// Peak RSS of one timed pass, input included, in MiB.
    pub pass_rss_mib: f64,
    /// CPU seconds of one timed pass.
    pub pass_cpu_s: f64,
    /// Largest relative distance of the four from the candidates' medians.
    pub deviation: f64,
}

/// Probe org seeds `1..=n`, each in a child process (`--probe-input`),
/// and return the `k` whose config bytes, snapshot count, and timed-pass
/// peak RSS and CPU time all lie closest to the medians over all `n` (smallest
/// largest-relative-deviation first; ties by seed). This is how the vetted
/// lists were chosen (`mpa-perfbench --survey-inputs WORKLOAD N K`).
pub fn survey(workload: &str, n: u64, k: usize) -> std::io::Result<Vec<Candidate>> {
    let mut raw = Vec::new();
    for org_seed in 1..=n {
        let out = std::process::Command::new(std::env::current_exe()?)
            .args(["--probe-input", workload, &org_seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let v: Vec<f64> = text
            .split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect();
        let [bytes, snapshots, rss, cpu] = v[..] else {
            return Err(std::io::Error::other(format!(
                "probe of {org_seed} printed {text:?}"
            )));
        };
        raw.push((org_seed, [bytes, snapshots, rss, cpu]));
    }
    let medians: Vec<f64> = (0..4)
        .map(|i| {
            let xs: Vec<f64> = raw.iter().map(|r| r.1[i]).collect();
            crate::stats::median(&xs).map_or(f64::NAN, |m| m.value)
        })
        .collect();
    let mut out: Vec<Candidate> = raw
        .into_iter()
        .map(|(org_seed, v)| Candidate {
            org_seed,
            bytes: v[0],
            snapshots: v[1],
            pass_rss_mib: v[2],
            pass_cpu_s: v[3],
            deviation: v
                .iter()
                .zip(&medians)
                .map(|(x, m)| (x / m - 1.0).abs())
                .fold(0.0, f64::max),
        })
        .collect();
    out.sort_by(|a, b| {
        a.deviation
            .total_cmp(&b.deviation)
            .then(a.org_seed.cmp(&b.org_seed))
    });
    out.truncate(k);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_map_onto_the_vetted_org_seeds() {
        assert_eq!(Org::of("batch_infer"), Org::Paper200);
        assert_eq!(Org::of("serve_mixed"), Org::Medium);
        for org in [Org::Paper200, Org::Medium] {
            assert_eq!(org.org_seed(3), org.org_seed(11));
            let picked: std::collections::BTreeSet<u64> = (0..8).map(|s| org.org_seed(s)).collect();
            assert_eq!(
                picked.len(),
                8,
                "every vetted org seed is reachable and distinct"
            );
        }
    }
}

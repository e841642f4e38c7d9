//! Output fingerprints, so that a fast but wrong run fails its check.
//!
//! A fingerprint is the 64-bit FNV-1a hash of a canonical text rendering
//! of a result (the same hash `repro --bench-single` uses). Floats are
//! rendered with Rust's shortest round-trip formatting, so two results
//! share a fingerprint only if every value is bit-identical.

use mpa_core::causal::{CausalAnalysis, CausalConfig};
use mpa_core::MiEntry;
use mpa_metrics::CaseTable;
use std::fmt::Write;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex form used in the recorded-values file and the reports.
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Fingerprint of a case table: the hash of its JSON serialization.
pub fn case_table(table: &CaseTable) -> u64 {
    let json = serde_json::to_string(table).expect("a case table always serializes");
    fnv1a64(json.as_bytes())
}

/// The results of one batch_analytics pass that its check covers.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsOutcome {
    /// The MI ranking, in rank order.
    pub mi: Vec<MiEntry>,
    /// Number of CMI entries.
    pub cmi_len: usize,
    /// Causal analyses of the MI top 10, in rank order.
    pub causal: Vec<CausalAnalysis>,
    /// 5-fold CV accuracy per model, in call order (5-class ladder, then
    /// the 2-class list).
    pub cv_accuracy: Vec<f64>,
    /// Mean online accuracy per (history, classes) call, in call order.
    pub online_accuracy: Vec<f64>,
}

/// Fingerprint of the MI order, the causal verdicts and the accuracies.
pub fn analytics(outcome: &AnalyticsOutcome, causal_config: &CausalConfig) -> u64 {
    let mut s = String::new();
    for e in &outcome.mi {
        let _ = write!(s, "mi {} {:?};", e.metric.name(), e.mi);
    }
    let _ = write!(s, "cmi {};", outcome.cmi_len);
    for a in &outcome.causal {
        for c in &a.comparisons {
            let _ = write!(
                s,
                "qed {} {}:{} pairs {} balanced {} causal {};",
                a.metric.name(),
                c.point.0,
                c.point.1,
                c.n_pairs,
                c.balanced(causal_config),
                c.causal(causal_config)
            );
        }
    }
    for acc in &outcome.cv_accuracy {
        let _ = write!(s, "cv {acc:?};");
    }
    for acc in &outcome.online_accuracy {
        let _ = write!(s, "online {acc:?};");
    }
    fnv1a64(s.as_bytes())
}

/// Fingerprints recorded for known inputs, one `workload org_seed hex`
/// triple per line (`#` starts a comment).
pub fn recorded(text: &str, workload: &str, seed: u64) -> Option<String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .find_map(|l| {
            let mut it = l.split_whitespace();
            match (
                it.next(),
                it.next().and_then(|s| s.parse::<u64>().ok()),
                it.next(),
            ) {
                (Some(w), Some(s), Some(h)) if w == workload && s == seed => Some(h.to_string()),
                _ => None,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_synth::Scenario;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(hex(0xab), "00000000000000ab");
    }

    #[test]
    fn case_table_fingerprint_is_stable_and_sensitive() {
        let ds = Scenario::tiny().generate();
        let a = mpa_metrics::infer(&ds, mpa_metrics::DELTA_DEFAULT_MINUTES).table;
        let b = mpa_metrics::infer(&ds, mpa_metrics::DELTA_DEFAULT_MINUTES).table;
        assert_eq!(
            case_table(&a),
            case_table(&b),
            "same input, same fingerprint"
        );
        let mut cases = a.cases().to_vec();
        cases[0].tickets += 1.0;
        assert_ne!(case_table(&a), case_table(&CaseTable::new(cases)));
    }

    #[test]
    fn recorded_values_are_looked_up_by_workload_and_seed() {
        let text = "# header\nbatch_infer 1 00aa\nbatch_analytics 1 00bb # note\n\n";
        assert_eq!(recorded(text, "batch_infer", 1).as_deref(), Some("00aa"));
        assert_eq!(
            recorded(text, "batch_analytics", 1).as_deref(),
            Some("00bb")
        );
        assert_eq!(recorded(text, "batch_infer", 2), None);
    }
}

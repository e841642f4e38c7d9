//! End-to-end pipeline wall-clock benchmark.
//!
//! Times the three pipeline phases the execution engine parallelizes —
//! dataset generation, practice inference, MI ranking — at a set of thread
//! counts, and cross-checks that every run produced identical results
//! (the engine's core guarantee). `repro --bench-out FILE` writes the
//! result as `BENCH_pipeline.json`.
//!
//! ## One process per configuration
//!
//! Peak RSS comes from the kernel's `VmHWM`, which is **monotone across a
//! process's life**: running 1-thread then 8-thread back to back in one
//! process makes the second figure inherit the first run's freed-but-
//! retained allocator high-water (the committed artifact once showed an
//! 8-thread "peak" of 1275 MiB against a 680 MiB baseline for this exact
//! reason). The benchmark is therefore split into [`run_pipeline_single`]
//! (one configuration, returns a JSON-serializable [`SingleRun`]) and
//! [`assemble_pipeline_bench`] (combines runs into the artifact), so
//! `repro` can execute each thread count in a **fresh child process** and
//! reassemble in the parent — every `peak_rss_mib` is then a true
//! per-configuration figure. [`run_pipeline_bench`] keeps the in-process
//! path for tests and library callers who only need timings.

use mpa_metrics::pipeline::infer;
use mpa_metrics::DELTA_DEFAULT_MINUTES;
use mpa_synth::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Below this measured effective parallelism, a multi-thread run's workers
/// were time-sliced rather than concurrent, and its speedup figures
/// describe host occupancy, not the pipeline (see `PipelineBench::
/// occupancy_limited`).
pub const OCCUPANCY_LIMITED_BELOW: f64 = 1.25;

/// One timed run of the pipeline at a fixed thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineRun {
    /// Worker threads used.
    pub threads: usize,
    /// Dataset generation wall-clock seconds.
    pub generate_s: f64,
    /// Generate sub-phase: wall seconds of the per-network parallel
    /// simulation region (includes the workers' render/encode time).
    pub simulate_s: f64,
    /// Generate sub-phase: config text production + line interning,
    /// **summed across workers** — can exceed `simulate_s` at N threads.
    pub render_s: f64,
    /// Generate sub-phase: archive encoding (sort, dedup, delta-encode),
    /// summed across workers.
    pub encode_s: f64,
    /// Generate sub-phase: shard-archive merge wall seconds.
    pub merge_s: f64,
    /// Case-table inference wall-clock seconds.
    pub infer_s: f64,
    /// MI ranking wall-clock seconds.
    pub mi_ranking_s: f64,
    /// Sum of the phases.
    pub total_s: f64,
    /// Process peak RSS (VmHWM) in MiB at the end of this run. Only a true
    /// per-configuration figure when the run had the process to itself —
    /// which is why `repro` executes each thread count in its own child.
    pub peak_rss_mib: f64,
    /// Measured effective parallelism of this run: summed worker CPU time
    /// over region wall time across every region that fanned out (see
    /// `mpa_obs::sched`). Near 1.0 the configured thread count bought
    /// nothing — a one-core or oversubscribed host — which is what
    /// distinguishes "no speedup available" from a scaling regression.
    pub effective_parallelism: f64,
    /// Observability counter deltas attributed to this run (work counted
    /// between the run's start and end; see `mpa_obs::counters`). Counters
    /// are thread-invariant, so these figures should match across the runs
    /// of one bench — a cheap cross-check on top of the output fingerprint.
    pub counters: BTreeMap<String, u64>,
}

/// One run plus the cross-run comparison data, JSON-serializable so the
/// parent `repro` process can collect child runs over a pipe and
/// reassemble the artifact with [`assemble_pipeline_bench`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleRun {
    /// The timed run.
    pub run: PipelineRun,
    /// FNV-1a-64 hex fingerprint of the run's outputs (dataset summary,
    /// case count, MI ranking) — stable across processes, unlike
    /// `DefaultHasher`.
    pub fingerprint: String,
    /// Total configuration text bytes the archive represents.
    pub archive_total_bytes: usize,
    /// Bytes held by the delta-encoded representation.
    pub archive_text_bytes: usize,
}

/// The full benchmark artifact (`BENCH_pipeline.json`).
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBench {
    /// Number of networks in the benchmarked scenario.
    pub networks: usize,
    /// Months in the scenario.
    pub months: usize,
    /// Real parallelism available to the run set: the host's reported core
    /// count, floored by the widest thread count actually exercised (a
    /// containerized host can under-report cores that the runs demonstrably
    /// used). Recorded once per run set.
    pub available_cores: usize,
    /// Total configuration text bytes the archive represents (Table 2's
    /// `config_bytes` figure).
    pub archive_total_bytes: usize,
    /// Bytes held by the delta-encoded representation (line table + ids).
    pub archive_text_bytes: usize,
    /// One entry per benchmarked thread count.
    pub runs: Vec<PipelineRun>,
    /// Total-time ratio of the 1-thread baseline to the widest run. This is
    /// the true measured figure, never clamped: a value below 1.0 records a
    /// real slowdown (e.g. an oversubscribed host where extra workers are
    /// time-sliced), which is exactly what a bench artifact exists to catch.
    pub speedup: f64,
    /// Generate-phase ratio of the baseline to the widest run — per-phase
    /// figures localize a scaling regression to the stage that reintroduced
    /// a serial bottleneck. Like `speedup`, may fall below 1.0.
    pub generate_speedup: f64,
    /// Infer-phase ratio of the baseline to the widest run.
    pub infer_speedup: f64,
    /// MI-ranking-phase ratio of the baseline to the widest run.
    pub mi_ranking_speedup: f64,
    /// True when the widest run's measured effective parallelism fell
    /// below [`OCCUPANCY_LIMITED_BELOW`]: its workers were time-sliced,
    /// so every speedup figure in this artifact reflects host occupancy
    /// rather than pipeline scaling. Readers (and `repro`'s stderr
    /// reporting) must carry this caveat with each per-phase figure.
    pub occupancy_limited: bool,
    /// Distinct snapshot states / snapshots visited during inference
    /// (`parse_cache_misses / parse_snapshots_visited` of the baseline
    /// run): the fraction of replayed snapshots that were distinct states
    /// and so had to be segmented by the delta engine.
    pub snapshot_dedup_ratio: f64,
    /// Whether every run produced bit-identical output (summary, case
    /// rows and MI ranking compared across thread counts).
    pub deterministic: bool,
}

/// Peak resident set size (VmHWM) of the current process in bytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<usize>().ok())
        .map_or(0, |kib| kib * 1024)
}

/// 64-bit FNV-1a. A stable, dependency-free content hash for comparing
/// run outputs across process boundaries (`DefaultHasher` is seeded per
/// process by design).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run the pipeline once at `threads` workers and fingerprint the output.
/// Restores the previously configured thread count before returning.
pub fn run_pipeline_single(scenario: &Scenario, threads: usize) -> SingleRun {
    let saved = mpa_exec::threads();
    mpa_exec::set_threads(threads);
    let counters_before = mpa_obs::counters::snapshot();
    let sched_before = mpa_obs::sched::snapshot();
    let phases_before = mpa_obs::phases::snapshot();

    // Each phase is also wrapped in an obs span (free when no collector
    // is installed) so a `repro --bench-out ... --obs-out ...` run
    // reports its span tree alongside the timings below.
    let run_label = format!("bench_{threads}_threads");
    let (dataset, inference, mi, generate_s, infer_s, mi_ranking_s) =
        mpa_obs::span(&run_label, || {
            let t0 = Instant::now();
            let dataset = mpa_obs::span("generate", || scenario.generate());
            let generate_s = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let inference = mpa_obs::span("infer", || infer(&dataset, DELTA_DEFAULT_MINUTES));
            let infer_s = t1.elapsed().as_secs_f64();

            let t2 = Instant::now();
            let mi = mpa_obs::span("mi_ranking", || mpa_core::mi_ranking(&inference.table, 20));
            let mi_ranking_s = t2.elapsed().as_secs_f64();
            (dataset, inference, mi, generate_s, infer_s, mi_ranking_s)
        });

    // Fingerprint the outputs; any divergence across thread counts (or
    // across the child processes of a multi-process bench) is a
    // determinism bug, which the artifact should loudly record.
    let mut content = format!("{:?}", dataset.summary());
    content.push_str(&inference.table.n_cases().to_string());
    content.push_str(&format!("{mi:?}"));
    let fingerprint = format!("{:016x}", fnv1a64(content.as_bytes()));

    let counters_after = mpa_obs::counters::snapshot();
    let counters = mpa_obs::counters::snapshot_diff(&counters_before, &counters_after)
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    // Occupancy attributed to this run: the busy/wall deltas over the
    // regions that ran between the two sched snapshots.
    let sched_after = mpa_obs::sched::snapshot();
    let busy = sched_after.region_busy_ns.saturating_sub(sched_before.region_busy_ns);
    let wall = sched_after.region_wall_ns.saturating_sub(sched_before.region_wall_ns);
    let effective_parallelism = if wall == 0 { 1.0 } else { busy as f64 / wall as f64 };
    let phases =
        mpa_obs::phases::snapshot_diff(&phases_before, &mpa_obs::phases::snapshot());
    let phase_s = |name: &str| -> f64 {
        phases.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
    };

    let single = SingleRun {
        run: PipelineRun {
            threads,
            generate_s,
            simulate_s: phase_s("simulate"),
            render_s: phase_s("render"),
            encode_s: phase_s("encode"),
            merge_s: phase_s("merge"),
            infer_s,
            mi_ranking_s,
            total_s: generate_s + infer_s + mi_ranking_s,
            peak_rss_mib: peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            effective_parallelism,
            counters,
        },
        fingerprint,
        archive_total_bytes: dataset.archive.total_bytes(),
        archive_text_bytes: dataset.archive.text_bytes(),
    };
    mpa_exec::set_threads(saved);
    single
}

/// Combine per-configuration runs (in thread-count submission order; the
/// first is the speedup baseline, the last the widest) into the
/// `BENCH_pipeline.json` artifact.
pub fn assemble_pipeline_bench(scenario: &Scenario, singles: &[SingleRun]) -> PipelineBench {
    assert!(!singles.is_empty(), "need at least one run");
    let deterministic = singles.iter().all(|s| s.fingerprint == singles[0].fingerprint);
    let runs: Vec<PipelineRun> = singles.iter().map(|s| s.run.clone()).collect();

    // True measured ratio: baseline (1-thread) time over the *widest* run's
    // time, never clamped. A value below 1.0 is a real slowdown and must be
    // recorded as such — the old best-run formula reported 1.0 whenever the
    // widest run was slower than the baseline, hiding exactly the
    // regression a bench artifact exists to catch.
    let phase_speedup = |phase: fn(&PipelineRun) -> f64| -> f64 {
        let base = phase(&runs[0]);
        let widest = phase(runs.last().expect("at least one run"));
        if widest > 0.0 { base / widest } else { 1.0 }
    };
    let dedup_ratio = {
        let c = &runs[0].counters;
        let visited = c.get("parse_snapshots_visited").copied().unwrap_or(0);
        let distinct = c.get("parse_cache_misses").copied().unwrap_or(0);
        if visited > 0 { distinct as f64 / visited as f64 } else { 1.0 }
    };
    let widest = runs.last().expect("at least one run");
    let occupancy_limited =
        widest.threads > 1 && widest.effective_parallelism < OCCUPANCY_LIMITED_BELOW;
    // mpa-lint: allow(R4) -- host core count is bench-artifact metadata (available_cores); it never reaches pipeline output
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = runs.iter().map(|r| r.threads).max().unwrap_or(1);
    PipelineBench {
        networks: scenario.org.n_networks,
        months: scenario.org.n_months,
        available_cores: host_cores.max(max_threads),
        archive_total_bytes: singles.last().expect("non-empty").archive_total_bytes,
        archive_text_bytes: singles.last().expect("non-empty").archive_text_bytes,
        speedup: phase_speedup(|r| r.total_s),
        generate_speedup: phase_speedup(|r| r.generate_s),
        infer_speedup: phase_speedup(|r| r.infer_s),
        mi_ranking_speedup: phase_speedup(|r| r.mi_ranking_s),
        occupancy_limited,
        snapshot_dedup_ratio: dedup_ratio,
        runs,
        deterministic,
    }
}

/// Run the pipeline at each thread count and compare outputs.
///
/// The first entry of `thread_counts` is the baseline for the speedup
/// figure; pass `[1, n]` for the canonical sequential-vs-parallel number.
/// All runs share this process, so later entries' `peak_rss_mib` inherit
/// earlier runs' allocator high-water (`VmHWM` is monotone). For honest
/// per-configuration RSS use `repro --bench-out`, which runs each count
/// in a fresh child via [`run_pipeline_single`].
pub fn run_pipeline_bench(scenario: &Scenario, thread_counts: &[usize]) -> PipelineBench {
    assert!(!thread_counts.is_empty(), "need at least one thread count");
    let singles: Vec<SingleRun> =
        thread_counts.iter().map(|&threads| run_pipeline_single(scenario, threads)).collect();
    assemble_pipeline_bench(scenario, &singles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_is_deterministic_across_thread_counts() {
        let bench = run_pipeline_bench(&Scenario::tiny(), &[1, 2]);
        assert_eq!(bench.runs.len(), 2);
        assert!(bench.deterministic, "thread count changed pipeline output");
        assert!(bench.runs.iter().all(|r| r.total_s > 0.0));
        let json = serde_json::to_string(&bench).expect("serializes");
        assert!(json.contains("\"deterministic\""));
    }

    #[test]
    fn available_cores_covers_the_widest_run() {
        // Regression for the artifact recording `available_cores: 1` next
        // to an 8-thread run: the recorded parallelism must be at least the
        // widest thread count that was actually exercised.
        let bench = run_pipeline_bench(&Scenario::tiny(), &[1, 8]);
        assert!(
            bench.available_cores >= 8,
            "available_cores {} < widest exercised thread count 8",
            bench.available_cores
        );
        assert_eq!(bench.runs.iter().map(|r| r.threads).max(), Some(8));
    }

    #[test]
    fn per_phase_speedups_and_dedup_ratio_are_recorded() {
        let bench = run_pipeline_bench(&Scenario::tiny(), &[1, 2]);
        for (name, v) in [
            ("generate", bench.generate_speedup),
            ("infer", bench.infer_speedup),
            ("mi_ranking", bench.mi_ranking_speedup),
            ("total", bench.speedup),
        ] {
            // The ratio is unclamped: on a busy or one-core host the widest
            // run can be slower than the baseline, so only positivity and
            // finiteness are invariant.
            assert!(v.is_finite() && v > 0.0, "{name} speedup must be a positive finite ratio: {v}");
        }
        assert!(
            bench.snapshot_dedup_ratio > 0.0 && bench.snapshot_dedup_ratio <= 1.0,
            "dedup ratio out of range: {}",
            bench.snapshot_dedup_ratio
        );
        let json = serde_json::to_string(&bench).expect("serializes");
        for key in ["generate_speedup", "infer_speedup", "mi_ranking_speedup", "snapshot_dedup_ratio"] {
            assert!(json.contains(key), "{key} missing from artifact");
        }
    }

    #[test]
    fn archive_byte_stats_are_recorded_and_compressed() {
        let bench = run_pipeline_bench(&Scenario::tiny(), &[1]);
        assert!(bench.archive_total_bytes > 0);
        assert!(bench.archive_text_bytes > 0);
        assert!(
            bench.archive_text_bytes < bench.archive_total_bytes,
            "delta encoding must hold fewer bytes than the full text: {} vs {}",
            bench.archive_text_bytes,
            bench.archive_total_bytes
        );
    }

    #[test]
    fn effective_parallelism_and_generate_sub_phases_are_recorded() {
        let scenario = Scenario::tiny();
        let single = run_pipeline_single(&scenario, 1);
        let r = &single.run;
        assert!(r.effective_parallelism > 0.0);
        // Generation renders and encodes real work; merge/simulate are wall
        // regions that always tick.
        assert!(r.simulate_s > 0.0, "simulate phase must accumulate");
        assert!(r.render_s > 0.0, "render phase must accumulate");
        assert!(r.encode_s > 0.0, "encode phase must accumulate");
        assert!(r.merge_s >= 0.0 && r.merge_s.is_finite());
        // Render + encode happen inside the simulate wall region, so at one
        // thread they cannot exceed it (modulo timer noise).
        assert!(
            r.render_s + r.encode_s <= r.simulate_s * 1.05 + 0.01,
            "worker-summed sub-phases exceed the 1-thread simulate wall: {} + {} vs {}",
            r.render_s,
            r.encode_s,
            r.simulate_s
        );
        let bench = assemble_pipeline_bench(&scenario, &[single]);
        let json = serde_json::to_string(&bench).expect("serializes");
        for key in ["effective_parallelism", "simulate_s", "render_s", "encode_s", "merge_s"] {
            assert!(json.contains(key), "{key} missing from artifact");
        }
    }

    #[test]
    fn single_runs_round_trip_through_json_and_reassemble() {
        // The multi-process bench path: children serialize SingleRun to
        // stdout, the parent deserializes and assembles. The round trip
        // and the assembly must preserve the runs and the determinism
        // verdict.
        let scenario = Scenario::tiny();
        let singles: Vec<SingleRun> = [1usize, 2]
            .iter()
            .map(|&t| {
                let s = run_pipeline_single(&scenario, t);
                let json = serde_json::to_string(&s).expect("single serializes");
                serde_json::from_str(&json).expect("single round-trips")
            })
            .collect();
        assert_eq!(singles[0].fingerprint.len(), 16, "fnv1a64 hex");
        assert_eq!(
            singles[0].fingerprint, singles[1].fingerprint,
            "same scenario, same output, same fingerprint"
        );
        let bench = assemble_pipeline_bench(&scenario, &singles);
        assert!(bench.deterministic);
        assert_eq!(bench.runs.len(), 2);
        assert_eq!(bench.runs[1].threads, 2);
        let json = serde_json::to_string(&bench).expect("serializes");
        assert!(json.contains("\"occupancy_limited\""), "caveat flag missing from artifact");
    }

    #[test]
    fn occupancy_limited_reflects_the_widest_runs_measured_parallelism() {
        let scenario = Scenario::tiny();
        let mut singles = vec![run_pipeline_single(&scenario, 1)];
        singles.push(run_pipeline_single(&scenario, 2));
        // Force both verdicts rather than depending on the host.
        singles[1].run.effective_parallelism = 1.0;
        let limited = assemble_pipeline_bench(&scenario, &singles);
        assert!(limited.occupancy_limited, "parallelism 1.0 at 2 threads is occupancy-limited");
        singles[1].run.effective_parallelism = 1.9;
        let scaling = assemble_pipeline_bench(&scenario, &singles);
        assert!(!scaling.occupancy_limited, "parallelism 1.9 at 2 threads is real concurrency");
        // A single-threaded-only bench is never "limited": there was no
        // concurrency claim to caveat.
        let solo = assemble_pipeline_bench(&scenario, &singles[..1]);
        assert!(!solo.occupancy_limited);
    }

    #[test]
    fn fnv1a64_is_stable() {
        // Known FNV-1a test vectors: the hash must never change across
        // builds or hosts, or cross-process determinism checks break.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn peak_rss_is_observable_on_linux() {
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }
}

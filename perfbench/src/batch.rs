//! The two batch workloads and the traced layer calls they share with
//! serve_mixed.
//!
//! * `batch_infer` — an org over the paper's 17-month period. Set-up is
//!   `Scenario::generate`; the timed work is `mpa_metrics::infer` plus
//!   `mi_ranking`, so synth (set-up) and config/metrics (timed) do nearly
//!   all the work.
//! * `batch_analytics` — `Scenario::medium()`. Set-up is generate + infer;
//!   the timed work is the paper's analytics on the case table, so
//!   core/stats/learn do all the timed work and synth/config none.

use crate::fingerprint::{self, AnalyticsOutcome};
use crate::probe::{measure, Delta};
use crate::report::Report;
use crate::stats::{median, percentile, Ratio};
use crate::{procstat, Ctx};
use mpa_core::causal::{analyze_treatment, CausalConfig};
use mpa_core::predict::{cross_validation, online_accuracy, HealthClasses, ModelKind};
use mpa_core::{cmi_ranking, mi_ranking, MiEntry};
use mpa_learn::ForestVariant;
use mpa_metrics::{Case, CaseTable, InferMode, NetworkInferCtx, DELTA_DEFAULT_MINUTES};
use mpa_synth::{Dataset, Scenario};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed passes per batch run, however long they take.
const MIN_PASSES: usize = 3;
/// The `min_cases_per_month` every MI ranking in the program uses.
const MI_MIN_CASES: usize = 20;
/// How many top-MI practices the causal step analyzes.
const CAUSAL_TOP: usize = 10;
/// Seed of the 5-fold cross-validation splits (the figure-8 experiment's).
const CV_SEED: u64 = 7;
/// Table 9's training histories, in months.
const HISTORIES: [usize; 4] = [1, 3, 6, 9];

/// The 2-class model list of figure 8.
const FIG8_TWO_CLASS: [ModelKind; 9] = [
    ModelKind::Dt,
    ModelKind::DtAb,
    ModelKind::DtOs,
    ModelKind::DtAbOs,
    ModelKind::Majority,
    ModelKind::Svm,
    ModelKind::Forest(ForestVariant::Plain),
    ModelKind::Forest(ForestVariant::Balanced),
    ModelKind::Forest(ForestVariant::Weighted),
];

/// Record the input's size.
pub fn describe_input(report: &mut Report, ds: &Dataset) {
    let devices: usize = ds.networks.iter().map(|n| n.devices.len()).sum();
    report.provenance("networks", ds.networks.len());
    report.provenance("months", ds.period.n_months());
    report.provenance("devices", devices);
    report.provenance("snapshots", ds.archive.n_snapshots());
    report.provenance("tickets", ds.tickets.len());
    report.provenance("config_bytes", ds.archive.total_bytes());
}

// ---------------------------------------------------------------------------
// Traced layer calls shared by every workload
// ---------------------------------------------------------------------------

/// `Scenario::generate`, with the synth layer's metrics.
pub fn traced_generate(scenario: &Scenario, report: &mut Report) -> Dataset {
    let (ds, d) = measure(|| scenario.generate());
    report.put("synth.generate_s", d.wall_s, "s", 1);
    report.put("synth.simulate_s", d.phase_s("simulate"), "s", 1);
    // Summed across worker threads, so it can exceed the generate wall.
    report.put("synth.render_s", d.phase_s("render"), "s", 1);
    report.put("synth.merge_s", d.phase_s("merge"), "s", 1);
    let cache = Ratio {
        num: d.counter("gen_render_cache_hits") as f64,
        base: d.counter("gen_chunks_rendered") as f64,
    };
    report.put(
        "synth.render_cache_hit_ratio",
        cache.value(),
        "ratio",
        cache.base as usize,
    );
    report.put(
        "synth.bytes_rendered",
        d.counter("gen_bytes_rendered") as f64,
        "bytes",
        1,
    );
    report.put(
        "config.lines_interned",
        d.counter("archive_lines_interned") as f64,
        "count",
        1,
    );
    ds
}

/// Batch inference through its public per-network unit, timing each
/// network: the same context, fan-out and merge `mpa_metrics::infer` uses.
/// The change records are kept until the merge is done, as `infer` keeps
/// them: dropping them inside the workers made the pass about 30% slower.
pub fn traced_infer(ds: &Dataset, report: &mut Report) -> CaseTable {
    let (table, d) = measure(|| {
        let ctx = NetworkInferCtx::new(ds, DELTA_DEFAULT_MINUTES, InferMode::default());
        let per_network = mpa_exec::par_map(&ds.networks, |_, net| {
            let t = Instant::now();
            let out = ctx.infer_network(ds, net);
            (out, t.elapsed().as_secs_f64() * 1e3)
        });
        let mut network_ms = Vec::with_capacity(per_network.len());
        let mut changes = Vec::with_capacity(per_network.len());
        let mut cases: Vec<Case> = Vec::new();
        for ((_, net_cases, net_changes), ms) in per_network {
            cases.extend(net_cases);
            changes.push(net_changes);
            network_ms.push(ms);
        }
        let table = CaseTable::new(cases);
        drop(changes);
        (table, network_ms)
    });
    let (table, network_ms) = table;
    report.put("metrics.infer_s", d.wall_s, "s", 1);
    if let (Some(p50), Some(max)) = (
        percentile(&network_ms, 50.0),
        percentile(&network_ms, 100.0),
    ) {
        report.put("metrics.network_p50_ms", p50.value, "ms", p50.n);
        report.put("metrics.network_max_ms", max.value, "ms", max.n);
    }
    let cache = Ratio {
        num: d.counter("parse_cache_hits") as f64,
        base: d.counter("parse_snapshots_visited") as f64,
    };
    report.put(
        "config.parse_cache_hit_ratio",
        cache.value(),
        "ratio",
        cache.base as usize,
    );
    report.put(
        "config.stanzas_reparsed",
        d.counter("infer_stanzas_reparsed") as f64,
        "count",
        1,
    );
    report.put(
        "config.delta_bytes",
        d.counter("infer_delta_bytes") as f64,
        "bytes",
        1,
    );
    table
}

/// `mi_ranking`, timed as the core.dependence layer.
pub fn traced_mi(table: &CaseTable, report: &mut Report) -> Vec<MiEntry> {
    let (mi, d) = measure(|| mi_ranking(table, MI_MIN_CASES));
    report.put("core.mi_s", d.wall_s, "s", 1);
    mi
}

/// The exec layer over a stretch of timed work.
pub fn put_exec(report: &mut Report, d: &Delta) {
    let occupancy = Ratio {
        num: d.cpu_s,
        base: d.wall_s,
    };
    report.put("exec.occupancy", occupancy.value(), "ratio", 1);
    report.put("exec.tasks", d.counter("par_map_tasks") as f64, "count", 1);
}

/// Untraced/traced pass pairs of a traced batch run.
const OVERHEAD_PAIRS: usize = 4;

/// Whether pair `i` runs its traced pass first. The order alternates, so
/// an effect of going second (warm allocator and caches, CPU frequency)
/// falls on both sides equally.
fn traced_first(i: usize) -> bool {
    i % 2 == 1
}

/// Tracing overhead: the median over pairs of (traced − untraced) /
/// untraced pass wall, with the number of pairs.
fn put_overhead(report: &mut Report, pairs: &[(f64, f64)]) {
    let fracs: Vec<f64> = pairs
        .iter()
        .map(|&(untraced, traced)| {
            Ratio {
                num: traced - untraced,
                base: untraced,
            }
            .value()
        })
        .collect();
    if let Some(m) = median(&fracs) {
        report.put("obs.trace_overhead_frac", m.value, "ratio", m.n);
    }
    report.samples(
        "overhead_untraced_wall_s",
        pairs.iter().map(|p| p.0).collect(),
    );
    report.samples(
        "overhead_traced_wall_s",
        pairs.iter().map(|p| p.1).collect(),
    );
}

/// Set up `SETUP_REPS` times and keep the last result; records the median
/// set-up time. All but the last set-up run in child processes
/// (`--setup-only`), so the inputs they build and drop do not raise this
/// process's peak RSS.
fn repeated_setup<T>(ctx: &Ctx, report: &mut Report, setup: impl FnOnce() -> T) -> T {
    let mut times: Vec<f64> = (1..SETUP_REPS)
        .map(|_| setup_in_child(ctx).unwrap_or_else(|e| panic!("set-up child failed: {e}")))
        .collect();
    let t = Instant::now();
    let kept = setup();
    times.push(t.elapsed().as_secs_f64());
    let m = median(&times).expect("at least one set-up");
    report.put("setup_s", m.value, "s", m.n);
    kept
}

fn setup_in_child(ctx: &Ctx) -> std::io::Result<f64> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args(["--setup-only", &ctx.workload, &ctx.org_seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(std::io::Error::other(format!("exit {}", out.status)));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| std::io::Error::other("no set-up time printed"))
}

/// One set-up of a batch workload, timed (the `--setup-only` child).
pub fn setup_seconds(workload: &str, scenario: &Scenario) -> f64 {
    let t = Instant::now();
    if workload == "batch_infer" {
        black_box(scenario.generate());
    } else {
        black_box(analytics_setup(scenario));
    }
    t.elapsed().as_secs_f64()
}

/// Config bytes, snapshot count, and one timed pass's peak RSS (MiB) and
/// CPU seconds, for a batch workload's input (the `--probe-input` child of
/// the input survey).
pub fn probe(workload: &str, scenario: &Scenario) -> [f64; 4] {
    let ds = scenario.generate();
    let (bytes, snapshots) = (
        ds.archive.total_bytes() as f64,
        ds.archive.n_snapshots() as f64,
    );
    let d = if workload == "batch_infer" {
        procstat::reset_peak_rss("self").expect("/proc/self/clear_refs is writable");
        measure(|| black_box(infer_pass(&ds))).1
    } else {
        let n_months = ds.period.n_months();
        let table = mpa_metrics::infer(&ds, DELTA_DEFAULT_MINUTES).table;
        drop(ds);
        procstat::reset_peak_rss("self").expect("/proc/self/clear_refs is writable");
        measure(|| black_box(analytics_pass(&table, n_months, None))).1
    };
    [
        bytes,
        snapshots,
        procstat::peak_rss_mib("self").expect("VmHWM is readable"),
        d.cpu_s,
    ]
}

/// batch_analytics' set-up: the case table and the month count.
fn analytics_setup(scenario: &Scenario) -> (CaseTable, usize) {
    let ds = scenario.generate();
    let table = mpa_metrics::infer(&ds, DELTA_DEFAULT_MINUTES).table;
    (table, ds.period.n_months())
}

/// Passes for `ctx.seconds`: one warm-up pass, then at least
/// `MIN_PASSES` timed ones. Records the median `wall_s` and `cpu_s` of a
/// timed pass, and `peak_rss_mib`, the process's peak RSS during the
/// warm-up pass, input included. The warm-up pass fills the allocator's
/// free lists and the caches the passes share, so its time, which users
/// pay once per process, is left out of the medians. Returns every pass's
/// output, the warm-up pass's first.
fn timed_passes<T>(ctx: &Ctx, report: &mut Report, mut pass: impl FnMut() -> T) -> Vec<(T, Delta)> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut peaks = Vec::new();
    while out.len() < 1 + MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        procstat::reset_peak_rss("self").expect("/proc/self/clear_refs is writable");
        out.push(measure(&mut pass));
        peaks.push(procstat::peak_rss_mib("self").expect("VmHWM is readable"));
    }
    // The first pass peaks at what one batch run needs with its input
    // resident; later passes also carry the heap earlier passes left.
    report.put("peak_rss_mib", peaks[0], "MiB", 1);
    let walls: Vec<f64> = out.iter().map(|(_, d)| d.wall_s).collect();
    let cpus: Vec<f64> = out.iter().map(|(_, d)| d.cpu_s).collect();
    report.samples("pass_wall_s", walls.clone());
    report.samples("pass_cpu_s", cpus.clone());
    report.samples("pass_peak_rss_mib", peaks.clone());
    let wall = median(&walls[1..]).expect("passes ran");
    let cpu = median(&cpus[1..]).expect("passes ran");
    report.put("wall_s", wall.value, "s", wall.n);
    report.put("cpu_s", cpu.value, "s", cpu.n);
    report.attempted += out.len() as u64;
    out
}

/// Compare a run's fingerprint with the value recorded for its input's org
/// seed in `expected.txt`; a missing record fails the check.
fn check_fingerprint(ctx: &Ctx, report: &mut Report, workload: &str, observed: u64) {
    let observed = fingerprint::hex(observed);
    let expected = fingerprint::recorded(&ctx.expected, workload, ctx.org_seed);
    report.check(
        "fingerprint_recorded",
        expected.as_deref() == Some(observed.as_str()),
        match expected {
            Some(expected) => format!("expected {expected} observed {observed}"),
            None => format!(
                "no recorded value for {workload} org seed {}; observed {observed}",
                ctx.org_seed
            ),
        },
    );
}

// ---------------------------------------------------------------------------
// batch_infer
// ---------------------------------------------------------------------------

fn infer_pass(ds: &Dataset) -> CaseTable {
    let inference = mpa_metrics::infer(ds, DELTA_DEFAULT_MINUTES);
    black_box(mi_ranking(&inference.table, MI_MIN_CASES));
    inference.table
}

/// The batch_infer workload.
pub fn batch_infer(ctx: &Ctx, report: &mut Report) {
    let scenario = &ctx.scenario;
    if ctx.trace {
        let ds = traced_generate(scenario, report);
        describe_input(report, &ds);
        let mut pairs = Vec::new();
        let mut fingerprints = Vec::new();
        for i in 0..OVERHEAD_PAIRS {
            let mut pair = (0.0, 0.0);
            for traced in [traced_first(i), !traced_first(i)] {
                let (table, d) = if traced {
                    measure(|| {
                        let table = traced_infer(&ds, report);
                        traced_mi(&table, report);
                        table
                    })
                } else {
                    measure(|| infer_pass(&ds))
                };
                if traced {
                    pair.1 = d.wall_s;
                    put_exec(report, &d);
                } else {
                    pair.0 = d.wall_s;
                }
                fingerprints.push(fingerprint::case_table(&table));
            }
            pairs.push(pair);
        }
        report.attempted += fingerprints.len() as u64;
        report.check(
            "traced_equals_untraced",
            fingerprints.iter().all(|f| *f == fingerprints[0]),
            format!("{} passes", fingerprints.len()),
        );
        put_overhead(report, &pairs);
        return;
    }

    let ds = repeated_setup(ctx, report, || scenario.generate());
    describe_input(report, &ds);
    let passes = timed_passes(ctx, report, || infer_pass(&ds));

    let first = fingerprint::case_table(&passes[0].0);
    report.provenance("cases", passes[0].0.n_cases());
    for (table, d) in &passes {
        let visited = d.counter("parse_snapshots_visited");
        let (hits, misses) = (
            d.counter("parse_cache_hits"),
            d.counter("parse_cache_misses"),
        );
        let ok = fingerprint::case_table(table) == first && hits + misses == visited && visited > 0;
        if !ok {
            report.failed += 1;
        }
    }
    let d = &passes[0].1;
    report.check(
        "parse_cache_accounting",
        d.counter("parse_cache_hits") + d.counter("parse_cache_misses")
            == d.counter("parse_snapshots_visited"),
        format!(
            "hits {} + misses {} vs visited {}",
            d.counter("parse_cache_hits"),
            d.counter("parse_cache_misses"),
            d.counter("parse_snapshots_visited")
        ),
    );
    check_fingerprint(ctx, report, "batch_infer", first);
}

// ---------------------------------------------------------------------------
// batch_analytics
// ---------------------------------------------------------------------------

/// Per-step timings of a traced analytics pass.
#[derive(Default)]
pub struct StepLog {
    steps: Vec<(String, Delta)>,
    causal_call_s: Vec<f64>,
}

fn step<T>(log: &mut Option<&mut StepLog>, name: &str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => {
            let (out, d) = measure(f);
            log.steps.push((name.to_string(), d));
            out
        }
        None => f(),
    }
}

/// One pass of the paper's analytics over a case table: MI and CMI
/// rankings, the QED for the MI top 10, 5-fold CV of the 5-class ladder
/// and figure 8's 2-class list, and online prediction at table 9's
/// histories.
pub fn analytics_pass(
    table: &CaseTable,
    n_months: usize,
    mut log: Option<&mut StepLog>,
) -> AnalyticsOutcome {
    let mi = step(&mut log, "mi", || mi_ranking(table, MI_MIN_CASES));
    let cmi_len = step(&mut log, "cmi", || cmi_ranking(table).len());
    let config = CausalConfig::default();
    let top: Vec<&MiEntry> = mi.iter().take(CAUSAL_TOP).collect();
    let timed = log.is_some();
    let causal_timed = step(&mut log, "causal", || {
        mpa_exec::par_map(&top, |_, e| {
            let t = timed.then(Instant::now);
            let a = analyze_treatment(table, e.metric, &config);
            (a, t.map(|t| t.elapsed().as_secs_f64()))
        })
    });
    let mut causal = Vec::with_capacity(causal_timed.len());
    for (a, t) in causal_timed {
        if let (Some(log), Some(t)) = (log.as_deref_mut(), t) {
            log.causal_call_s.push(t);
        }
        causal.push(a);
    }
    let mut cv_accuracy = Vec::new();
    for kind in ModelKind::LADDER {
        let name = format!("cv5.{}", kind_key(kind));
        let ev = step(&mut log, &name, || {
            cross_validation(table, HealthClasses::Five, kind, CV_SEED)
        });
        cv_accuracy.push(ev.accuracy());
    }
    let cv2 = step(&mut log, "cv2", || {
        FIG8_TWO_CLASS
            .iter()
            .map(|&kind| cross_validation(table, HealthClasses::Two, kind, CV_SEED).accuracy())
            .collect::<Vec<f64>>()
    });
    cv_accuracy.extend(cv2);
    let online_accuracy = step(&mut log, "online", || {
        let mut acc = Vec::new();
        for m in HISTORIES.into_iter().filter(|&m| m < n_months) {
            acc.push(online_accuracy(table, HealthClasses::Five, ModelKind::DtAbOs, m).0);
            acc.push(online_accuracy(table, HealthClasses::Two, ModelKind::Dt, m).0);
        }
        acc
    });
    AnalyticsOutcome {
        mi,
        cmi_len,
        causal,
        cv_accuracy,
        online_accuracy,
    }
}

/// Metric-name key of a ladder model.
fn kind_key(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Dt => "dt",
        ModelKind::DtAb => "dt_ab",
        ModelKind::DtOs => "dt_os",
        ModelKind::DtAbOs => "dt_ab_os",
        _ => "other",
    }
}

/// AdaBoost fits per 5-fold cross-validation of a boosted model.
const FOLDS: usize = 5;

fn is_boosted(kind: ModelKind) -> bool {
    matches!(kind, ModelKind::DtAb | ModelKind::DtAbOs)
}

/// Per-layer metrics of one traced analytics pass.
fn put_analytics_layers(report: &mut Report, log: &StepLog) {
    let get = |name: &str| log.steps.iter().find(|(n, _)| n == name).map(|(_, d)| d);
    if let Some(d) = get("cmi") {
        report.put("core.cmi_s", d.wall_s, "s", 1);
    }
    if let Some(d) = get("mi") {
        report.put("core.mi_s", d.wall_s, "s", 1);
    }
    if let Some(d) = get("causal") {
        report.put("core.causal_s", d.wall_s, "s", 1);
        if let Some(max) = percentile(&log.causal_call_s, 100.0) {
            report.put("core.causal_max_s", max.value, "s", max.n);
        }
        let pairs = d.counter("causal_matched_pairs") as f64;
        let drops = (d.counter("causal_support_drops") + d.counter("causal_caliper_drops")) as f64;
        let ratio = Ratio {
            num: pairs,
            base: pairs + drops,
        };
        report.put(
            "core.causal_match_ratio",
            ratio.value(),
            "ratio",
            ratio.base as usize,
        );
    }
    let mut boost_rounds = 0;
    let mut early_stops = 0;
    for kind in ModelKind::LADDER {
        if let Some(d) = get(&format!("cv5.{}", kind_key(kind))) {
            report.put(format!("learn.cv5_s.{}", kind_key(kind)), d.wall_s, "s", 1);
            boost_rounds += d.counter("boost_rounds");
            early_stops += d.counter("boost_early_stops");
        }
    }
    if let Some(d) = get("cv2") {
        report.put("learn.cv2_s", d.wall_s, "s", 1);
        boost_rounds += d.counter("boost_rounds");
        early_stops += d.counter("boost_early_stops");
    }
    if let Some(d) = get("online") {
        report.put("core.online_s", d.wall_s, "s", 1);
    }
    // Rounds and early stops over the cross-validations, whose boosted
    // fits are known: one per fold of every boosted model.
    let boosted_fits = FOLDS
        * (ModelKind::LADDER.iter().filter(|&&k| is_boosted(k)).count()
            + FIG8_TWO_CLASS.iter().filter(|&&k| is_boosted(k)).count());
    report.put("learn.boost_rounds", boost_rounds as f64, "count", 1);
    let ratio = Ratio {
        num: early_stops as f64,
        base: boosted_fits as f64,
    };
    report.put(
        "learn.boost_early_stop_ratio",
        ratio.value(),
        "ratio",
        boosted_fits,
    );
}

/// The batch_analytics workload.
pub fn batch_analytics(ctx: &Ctx, report: &mut Report) {
    let scenario = &ctx.scenario;
    if ctx.trace {
        let ds = traced_generate(scenario, report);
        describe_input(report, &ds);
        let table = traced_infer(&ds, report);
        let n_months = ds.period.n_months();
        drop(ds);
        let mut pairs = Vec::new();
        let mut fingerprints = Vec::new();
        let config = CausalConfig::default();
        for i in 0..OVERHEAD_PAIRS {
            let mut pair = (0.0, 0.0);
            for traced in [traced_first(i), !traced_first(i)] {
                let mut log = StepLog::default();
                let (out, d) =
                    measure(|| analytics_pass(&table, n_months, traced.then_some(&mut log)));
                if traced {
                    pair.1 = d.wall_s;
                    put_analytics_layers(report, &log);
                    put_exec(report, &d);
                } else {
                    pair.0 = d.wall_s;
                }
                fingerprints.push(fingerprint::analytics(&out, &config));
            }
            pairs.push(pair);
        }
        report.attempted += fingerprints.len() as u64;
        report.check(
            "traced_equals_untraced",
            fingerprints.iter().all(|f| *f == fingerprints[0]),
            format!("{} passes", fingerprints.len()),
        );
        put_overhead(report, &pairs);
        return;
    }

    let (table, n_months) = repeated_setup(ctx, report, || analytics_setup(scenario));
    report.provenance("networks", scenario.org.n_networks);
    report.provenance("months", n_months);
    report.provenance("cases", table.n_cases());
    let passes = timed_passes(ctx, report, || analytics_pass(&table, n_months, None));

    let config = CausalConfig::default();
    let first = fingerprint::analytics(&passes[0].0, &config);
    for (out, _) in &passes {
        if fingerprint::analytics(out, &config) != first {
            report.failed += 1;
        }
    }
    check_fingerprint(ctx, report, "batch_analytics", first);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pairs_alternate_and_report_the_median_ratio_with_its_count() {
        let order: Vec<bool> = (0..OVERHEAD_PAIRS).map(traced_first).collect();
        assert_eq!(order.iter().filter(|&&t| t).count(), OVERHEAD_PAIRS / 2);
        assert!(order.windows(2).all(|w| w[0] != w[1]));
        let mut report = Report::default();
        // Per-pair overheads 0.10, 0.20, -0.05: the median is 0.10.
        put_overhead(&mut report, &[(1.0, 1.1), (2.0, 2.4), (2.0, 1.9)]);
        let m = report.get("obs.trace_overhead_frac").expect("reported");
        assert!((m.value - 0.1).abs() < 1e-12);
        assert_eq!(m.n, 3);
    }
}

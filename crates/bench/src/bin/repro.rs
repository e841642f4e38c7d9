//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale tiny|small|medium|paper] [--threads N] [--out DIR] \
//!       [--bench-out FILE] [--obs-out FILE] [--degrade SPEC] \
//!       <experiment>... | all | calibrate
//! ```
//!
//! Experiment ids are the paper's table/figure numbers (`table3`, `fig8`,
//! ...) plus `comparison` (opinion vs evidence) and `calibrate` (dataset
//! health check). `all` runs everything and, with `--out`, also writes one
//! text file per experiment — the inputs EXPERIMENTS.md records.
//!
//! `--bench-out FILE` times the generate → infer → MI pipeline at 1 thread
//! and at the full worker count, cross-checks that both produced identical
//! results, and writes the JSON artifact (`BENCH_pipeline.json`); each run
//! also records its observability counter deltas (see `mpa_obs`).
//! Each thread count executes in a **fresh child process** (re-invoking
//! this binary with the hidden `--bench-single N` flag) so every recorded
//! peak RSS is a true per-configuration figure — `VmHWM` is monotone per
//! process, and back-to-back in-process runs used to smear the baseline
//! run's allocator high-water into the wider runs' "peaks".
//!
//! `--obs-out FILE` writes an [`mpa_obs::RunReport`] (span tree, counters,
//! scheduling stats, peak RSS) when the process finishes.

use mpa_bench::experiments;
use mpa_bench::fixtures::{by_scale, Fixture, FixtureScale};
use mpa_synth::{CoverageReport, DegradeSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = FixtureScale::Medium;
    let mut out_dir: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut degrade = DegradeSpec::none();
    // Raw flag values, kept verbatim for re-invoking self as a bench child.
    let mut scale_raw = "medium".to_string();
    let mut degrade_raw: Option<String> = None;
    let mut bench_single: Option<usize> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--degrade" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                degrade = DegradeSpec::parse(v).unwrap_or_else(|e| {
                    eprintln!("--degrade: {e}");
                    std::process::exit(2);
                });
                degrade_raw = Some(v.to_string());
            }
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                scale_raw = v.to_string();
                scale = match v {
                    "tiny" => FixtureScale::Tiny,
                    "small" => FixtureScale::Small,
                    "medium" => FixtureScale::Medium,
                    "paper" => FixtureScale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out_dir = it.next().cloned(),
            "--bench-out" => bench_out = it.next().cloned(),
            // Hidden: run ONE bench configuration in this process and
            // print the SingleRun JSON on stdout. The parent `--bench-out`
            // invocation spawns one child per thread count so each
            // configuration gets a fresh VmHWM.
            "--bench-single" => {
                bench_single = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--bench-single needs a thread count");
                    std::process::exit(2);
                }));
            }
            "--obs-out" => obs_out = it.next().cloned(),
            "--threads" => {
                let n = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                });
                mpa_exec::set_threads(n);
            }
            // Reject unknown flags before any work: taken as an experiment
            // id, a mistyped flag would only fail after the bench or the
            // fixture had run.
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
            other => targets.push(other.to_string()),
        }
    }
    mpa_exec::set_phase_timing(true);
    if obs_out.is_some() {
        mpa_obs::install_collector();
    }

    // Child mode: one configuration in a fresh process, JSON on stdout.
    if let Some(threads) = bench_single {
        let single =
            mpa_bench::run_pipeline_single(&scale.scenario().with_degrade(degrade), threads);
        println!("{}", serde_json::to_string(&single).expect("single serializes"));
        return;
    }

    if let Some(path) = &bench_out {
        let threads = mpa_exec::threads();
        let counts: Vec<usize> = if threads > 1 { vec![1, threads] } else { vec![1] };
        // mpa-lint: allow(R4) -- startup banner reports the host's core count on stderr; no artifact contains it
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        eprintln!(
            "[mpa] pipeline bench: scale {scale:?}, thread counts {counts:?} \
             ({host_cores} cores available), one child process per configuration"
        );
        let singles: Vec<mpa_bench::SingleRun> = counts
            .iter()
            .map(|&n| run_bench_child(n, &scale_raw, degrade_raw.as_deref()))
            .collect();
        let bench =
            mpa_bench::assemble_pipeline_bench(&scale.scenario().with_degrade(degrade), &singles);
        let json = serde_json::to_string(&bench).expect("bench serializes");
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        for r in &bench.runs {
            eprintln!(
                "[mpa]   {} thread(s): generate {:.2}s  infer {:.2}s  mi {:.2}s  \
                 total {:.2}s  peak-rss {:.0} MiB",
                r.threads, r.generate_s, r.infer_s, r.mi_ranking_s, r.total_s, r.peak_rss_mib
            );
        }
        eprintln!(
            "[mpa]   archive: {} B of config text held as {} B delta-encoded ({:.1}x)",
            bench.archive_total_bytes,
            bench.archive_text_bytes,
            bench.archive_total_bytes as f64 / bench.archive_text_bytes.max(1) as f64
        );
        eprintln!(
            "[mpa]   snapshot dedup: {:.1}% of replayed snapshots were distinct \
             (segmented once each)",
            bench.snapshot_dedup_ratio * 100.0
        );
        // A speedup figure is only honest when the widest run actually
        // achieved concurrency. On a one-core or oversubscribed host the
        // measured occupancy sits near 1 however many workers were
        // spawned, and "0.97x" would read as a pipeline regression — so
        // every phase line carries the caveat (a reader quoting any single
        // line must get the context with it), and the artifact records it
        // as `occupancy_limited`.
        let widest = bench.runs.last().expect("at least one run");
        let caveat = if bench.occupancy_limited {
            format!(
                " [occupancy-limited: effective parallelism {:.2} at {} threads — \
                 this ratio reflects host occupancy, not pipeline scaling]",
                widest.effective_parallelism, widest.threads
            )
        } else {
            String::new()
        };
        for (phase, ratio) in [
            ("total", bench.speedup),
            ("generate", bench.generate_speedup),
            ("infer", bench.infer_speedup),
            ("mi_ranking", bench.mi_ranking_speedup),
        ] {
            eprintln!("[mpa]   speedup {phase} {ratio:.2}x{caveat}");
        }
        eprintln!(
            "[mpa]   effective parallelism {:.2}, occupancy_limited: {}, \
             deterministic: {} -> wrote {path}",
            widest.effective_parallelism, bench.occupancy_limited, bench.deterministic
        );
        if targets.is_empty() {
            write_obs_report(obs_out.as_deref());
            return;
        }
    }
    if targets.is_empty() {
        eprintln!(
            "usage: repro [--scale tiny|small|medium|paper] [--threads N] [--out DIR] \
             [--bench-out FILE] [--obs-out FILE] \
             [--degrade none|light|heavy|key=rate,...] <experiment>...|all|calibrate"
        );
        eprintln!("experiments: {}", experiments::ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }

    // Degraded scenarios bypass the pristine per-scale cache.
    let custom: Option<Fixture> =
        degrade.is_active().then(|| Fixture::custom(&scale.scenario().with_degrade(degrade)));
    let fx = custom.as_ref().unwrap_or_else(|| by_scale(scale));

    // Publish the scenario coverage scan (RunReport carries it) and print
    // the one-line exercised/total summary per dimension.
    let coverage = CoverageReport::scan(&fx.dataset);
    coverage.publish();
    let summary: Vec<String> = ["dialect", "change_type", "stanza_kind", "degrade_knob"]
        .iter()
        .map(|dim| {
            let (ex, total) = coverage.exercised(dim);
            format!("{dim} {ex}/{total}")
        })
        .collect();
    eprintln!("[mpa] scenario coverage: {}", summary.join(", "));
    let mut ids: Vec<String> = Vec::new();
    for t in targets {
        match t.as_str() {
            "all" => ids.extend(experiments::ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(experiments::ABLATIONS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    for id in &ids {
        let Some(output) = experiments::run(id, fx) else {
            eprintln!("unknown experiment {id:?} (known: {})", experiments::ALL_EXPERIMENTS.join(" "));
            std::process::exit(2);
        };
        println!("{output}");
        println!("{}", "=".repeat(78));
        if let Some(dir) = &out_dir {
            std::fs::write(format!("{dir}/{id}.txt"), &output).expect("write experiment output");
        }
    }
    write_obs_report(obs_out.as_deref());
}

/// Run one bench configuration in a fresh child process (`--bench-single`)
/// and parse its stdout. A fresh process per thread count is what makes
/// `peak_rss_mib` a per-configuration figure: `VmHWM` is monotone, so a
/// shared process would carry the baseline run's high-water into every
/// later run.
fn run_bench_child(
    threads: usize,
    scale_raw: &str,
    degrade_raw: Option<&str>,
) -> mpa_bench::SingleRun {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary for bench child: {e}");
        std::process::exit(1);
    });
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--bench-single", &threads.to_string(), "--scale", scale_raw]);
    if let Some(d) = degrade_raw {
        cmd.args(["--degrade", d]);
    }
    let out = cmd.output().unwrap_or_else(|e| {
        eprintln!("bench child ({threads} threads) failed to start: {e}");
        std::process::exit(1);
    });
    if !out.status.success() {
        eprintln!(
            "bench child ({threads} threads) exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        std::process::exit(1);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(stdout.trim()).unwrap_or_else(|e| {
        eprintln!("bench child ({threads} threads) emitted unparsable output: {e}");
        std::process::exit(1);
    })
}

/// Write the run report if `--obs-out` was given. Called on every normal
/// exit path so a bench-only invocation still produces its report.
fn write_obs_report(path: Option<&str>) {
    let Some(path) = path else { return };
    let report = mpa_obs::RunReport::gather();
    report.write(path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("[mpa] wrote run report {path}");
}

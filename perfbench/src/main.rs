//! `mpa-perfbench` — one run of one benchmark workload.
//!
//! ```text
//! mpa-perfbench --workload batch_infer|batch_analytics|serve_mixed
//!               --seed N --seconds S --trace 0|1 --serve-bin PATH
//! mpa-perfbench --record                      # print recorded fingerprints
//! mpa-perfbench --survey-inputs WORKLOAD N K   # choose vetted org seeds
//! mpa-perfbench --probe-input WORKLOAD ORG_SEED  # one candidate's sizes
//! mpa-perfbench --setup-only WORKLOAD ORG_SEED # print one set-up's seconds
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds this binary and `mpa-serve` first). The inputs are
//! generated from `--seed`; the run measures for `--seconds`, checks its
//! outputs, prints every metric with its unit and sample count, writes the
//! full result to the work directory, and ends with one JSON line holding
//! the metrics `BENCHMARK.json` lists: its `end_to_end` metrics untraced
//! (`--trace 0`), its `per_layer` metrics traced (`--trace 1`). Exit code
//! 0 when every check held, 2 when an output check failed, 1 on error.

mod batch;
mod fingerprint;
mod input;
mod openloop;
mod probe;
mod procstat;
mod report;
mod serve;
mod stats;

use input::Org;
use mpa_synth::Scenario;
use report::Report;
use serde::Value;
use std::path::PathBuf;

/// Settings of one run.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// The vetted org seed the input seed maps to (see [`input`]).
    pub org_seed: u64,
    /// The input generated from the seed (see [`input`]).
    pub scenario: Scenario,
    /// Measured seconds.
    pub seconds: f64,
    /// Worker threads (the host's available parallelism).
    pub threads: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Contents of the recorded-fingerprints file.
    pub expected: String,
    /// The `mpa-serve` binary.
    pub serve_bin: PathBuf,
    /// Where datasets and result artifacts go.
    pub work_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["batch_infer", "batch_analytics", "serve_mixed"];
/// The benchmark spec, whose metric lists the result line follows.
const SPEC: &str = "BENCHMARK.json";
/// Datasets and result artifacts.
const WORK_DIR: &str = "perfbench/work";
/// Recorded output fingerprints.
const EXPECTED: &str = "perfbench/expected.txt";

fn usage() -> ! {
    eprintln!(
        "usage: mpa-perfbench --workload {} --seed N --seconds S --trace 0|1 --serve-bin PATH\n       \
         mpa-perfbench --record\n       mpa-perfbench --survey-inputs WORKLOAD N K\n       \
         mpa-perfbench --setup-only WORKLOAD ORG_SEED",
        WORKLOADS.join("|")
    );
    std::process::exit(1);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("[perfbench] error: {msg}");
    std::process::exit(1);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    v.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(format!("{flag} needs a value")))
}

/// `(name, unit)` of every metric in one list of the benchmark spec.
fn spec_metrics(spec: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    let field = |v: &Value, key: &str| -> Option<Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let items = field(spec, list).ok_or_else(|| format!("spec has no {list}"))?;
    let items = items
        .as_array()
        .ok_or_else(|| format!("{list} is not a list"))?;
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Some(Value::String(n)), Some(Value::String(u))) => Ok((n, u)),
            _ => Err(format!("malformed {list} entry {m:?}")),
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Print the recorded-fingerprint lines of the batch workloads, one per
/// vetted org seed, computed at the host's thread count.
fn record() {
    for org_seed in Org::Paper200.vetted() {
        let ds = Org::Paper200.scenario(*org_seed).generate();
        let table = mpa_metrics::infer(&ds, mpa_metrics::DELTA_DEFAULT_MINUTES).table;
        println!(
            "batch_infer {org_seed} {}",
            fingerprint::hex(fingerprint::case_table(&table))
        );
    }
    for org_seed in Org::Medium.vetted() {
        let ds = Org::Medium.scenario(*org_seed).generate();
        let table = mpa_metrics::infer(&ds, mpa_metrics::DELTA_DEFAULT_MINUTES).table;
        let out = batch::analytics_pass(&table, ds.period.n_months(), None);
        let fp = fingerprint::analytics(&out, &mpa_core::CausalConfig::default());
        println!("batch_analytics {org_seed} {}", fingerprint::hex(fp));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = Some(parse::<u64>(flag, it.next())),
            "--seconds" => seconds = Some(parse::<f64>(flag, it.next())),
            "--trace" => trace = Some(parse::<u8>(flag, it.next())),
            "--serve-bin" => serve_bin = it.next().map(PathBuf::from),
            "--record" => {
                mpa_exec::set_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
                record();
                return;
            }
            "--survey-inputs" => {
                let workload = it.next().cloned().unwrap_or_else(|| usage());
                let (n, k) = (
                    parse::<u64>(flag, it.next()),
                    parse::<usize>(flag, it.next()),
                );
                mpa_exec::set_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
                for c in input::survey(&workload, n, k).unwrap_or_else(|e| fail(e)) {
                    println!(
                        "{} bytes {} snapshots {} pass_rss_mib {:.1} pass_cpu_s {:.2} deviation {:.4}",
                        c.org_seed, c.bytes, c.snapshots, c.pass_rss_mib, c.pass_cpu_s, c.deviation
                    );
                }
                return;
            }
            "--probe-input" => {
                let workload = it.next().cloned().unwrap_or_else(|| usage());
                let org_seed = parse::<u64>(flag, it.next());
                mpa_exec::set_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
                let [bytes, snapshots, rss, cpu] =
                    batch::probe(&workload, &Org::of(&workload).scenario(org_seed));
                println!("{bytes} {snapshots} {rss} {cpu}");
                return;
            }
            "--setup-only" => {
                let workload = it.next().cloned().unwrap_or_else(|| usage());
                let org_seed = parse::<u64>(flag, it.next());
                mpa_exec::set_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
                println!(
                    "{}",
                    batch::setup_seconds(&workload, &Org::of(&workload).scenario(org_seed))
                );
                return;
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin)) =
        (workload, seed, seconds, trace, serve_bin)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) || trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let trace = trace == 1;
    let spec_text =
        std::fs::read_to_string(SPEC).unwrap_or_else(|e| fail(format!("cannot read {SPEC}: {e}")));
    let spec: Value =
        serde_json::from_str(&spec_text).unwrap_or_else(|e| fail(format!("{SPEC}: {e:?}")));
    let names = spec_metrics(&spec, if trace { "per_layer" } else { "end_to_end" })
        .unwrap_or_else(|e| fail(e));
    let expected = std::fs::read_to_string(EXPECTED)
        .unwrap_or_else(|e| fail(format!("cannot read {EXPECTED}: {e}")));
    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir)
        .unwrap_or_else(|e| fail(format!("cannot create {WORK_DIR}: {e}")));

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    mpa_exec::set_threads(threads);
    let org = Org::of(&workload);
    let org_seed = org.org_seed(seed);
    let scenario = org.scenario(org_seed);
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        org_seed,
        scenario,
        seconds,
        threads,
        trace,
        expected,
        serve_bin,
        work_dir,
    };

    let mut report = Report::default();
    report.provenance("workload", &workload);
    report.provenance("seed", seed);
    report.provenance("org_seed", org_seed);
    report.provenance("seconds", seconds);
    report.provenance("trace", u8::from(trace));
    report.provenance("nproc", threads);
    report.provenance("threads", threads);
    report.provenance("cpu_model", cpu_model());
    let (steal0, ticks0) = procstat::host_ticks();
    match workload.as_str() {
        "batch_infer" => batch::batch_infer(&ctx, &mut report),
        "batch_analytics" => batch::batch_analytics(&ctx, &mut report),
        _ => serve::serve_mixed(&ctx, &mut report)
            .unwrap_or_else(|e| fail(format!("serve_mixed: {e}"))),
    }
    // A shared host's contention, for judging this run's timings.
    let (steal1, ticks1) = procstat::host_ticks();
    let steal = stats::Ratio {
        num: steal1.saturating_sub(steal0) as f64,
        base: ticks1.saturating_sub(ticks0) as f64,
    };
    report.provenance("host_steal_share", format!("{:.4}", steal.value()));

    print!("{}", report.table());
    let artifact = ctx.work_dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    std::fs::write(&artifact, report.artifact_json())
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", artifact.display())));
    let line = report.result_line(&names).unwrap_or_else(|e| fail(e));
    println!("{line}");
    if !report.correct() {
        std::process::exit(2);
    }
}

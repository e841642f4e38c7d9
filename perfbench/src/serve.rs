//! The serve_mixed workload: the `mpa-serve` daemon on the medium dataset,
//! driven by the open-loop generator in two phases of one daemon lifetime.
//!
//! * `read` — a fixed-rate GET mix (healthz, practices, MI, causal,
//!   predict) over one connection, the no-ingest control.
//! * `churn` — the same reads, plus a second connection that POSTs one
//!   ingest batch (one ticket and one config snapshot) at a fixed low rate.
//!   Every ingest re-infers its network and refreshes the analytics under
//!   the session's write lock, so reads that arrive meanwhile wait.

use crate::batch::{self, SETUP_REPS};
use crate::fingerprint::fnv1a64;
use crate::openloop::{self, Outcome, Scheduled};
use crate::probe::measure;
use crate::report::Report;
use crate::stats::{due_latency_ms, median, percentile, Pct, Ratio};
use crate::{procstat, Ctx};
use mpa_config::{Snapshot, SnapshotMeta};
use mpa_core::{AnalyticsSession, IngestBatch, SessionConfig};
use mpa_model::{DeviceId, NetworkId, Ticket, TicketId, TicketKind, TicketSeverity, Timestamp};
use mpa_synth::Dataset;
use serde::Value;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// GET requests per second, in every phase.
const READ_RATE: f64 = 200.0;
/// Seconds between ingest batches in the churn phase: one ingest per 50
/// reads, the default mix of the repository's serve load generator
/// (`crates/bench/src/serve_load.rs`, `ingest_every: 50`).
const INGEST_PERIOD_S: f64 = 50.0 / READ_RATE;
/// Sampling interval of the daemon's CPU time.
const CPU_WINDOW: Duration = Duration::from_secs(1);
/// Unmeasured reads before the `read` phase, so caches are warm.
const WARMUP_S: f64 = 1.0;
/// Networks whose practices are fetched to find `/predict` targets.
const STEER_NETWORKS: usize = 24;
/// How long a daemon may take to load, infer and start listening.
const START_TIMEOUT: Duration = Duration::from_secs(150);
/// A daemon left behind by a killed benchmark exits after this much
/// idleness.
const IDLE_SECS: &str = "60";

const PHASE_WARMUP: u32 = 0;
const PHASE_READ: u32 = 1;
const PHASE_CHURN: u32 = 2;
/// The read routes, in mix order, with their metric keys.
const ROUTES: [&str; 5] = [
    "healthz",
    "practices",
    "rankings_mi",
    "causal_summary",
    "predict",
];

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Write the dataset where the daemon will load it from.
fn write_dataset(ds: &Dataset, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string(ds).map_err(|e| io::Error::other(format!("{e:?}")))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)
}

/// Edit one stanza of a config: the first interface MTU line (both
/// dialects render one per interface). `None` if the config has none.
fn edit_one_stanza(text: &str) -> Option<String> {
    let mut out = String::with_capacity(text.len() + 8);
    let mut edited = false;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim_start();
        if !edited {
            if let Some(rest) = trimmed.strip_prefix("mtu ") {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if !digits.is_empty() {
                    let indent = &line[..line.len() - trimmed.len()];
                    let new = if digits == "9216" { "1500" } else { "9216" };
                    out.push_str(indent);
                    out.push_str("mtu ");
                    out.push_str(new);
                    out.push_str(&rest[digits.len()..]);
                    edited = true;
                    continue;
                }
            }
        }
        out.push_str(line);
    }
    edited.then_some(out)
}

/// `n` ingest batches for a seed. Each holds one config snapshot — a
/// device's latest text with one stanza edited, one minute past that
/// device's tip — and one ticket on the same network. Every batch targets
/// a different device, chosen in a seeded order from the middle fifth of
/// the networks by size: each batch then re-infers a comparable network,
/// so the stall it causes does not hinge on which outliers the seed drew.
pub fn ingest_batches(ds: &Dataset, n: usize, seed: u64) -> Vec<IngestBatch> {
    let mut by_size: Vec<&mpa_model::Network> = ds.networks.iter().collect();
    by_size.sort_by_key(|net| (net.devices.len(), net.id));
    let (lo, hi) = (
        by_size.len() * 2 / 5,
        (by_size.len() * 3 / 5).max(by_size.len() * 2 / 5 + 1),
    );
    let devices: Vec<(DeviceId, NetworkId)> = by_size[lo..hi.min(by_size.len())]
        .iter()
        .flat_map(|net| net.devices.iter().map(move |d| (d.id, net.id)))
        .collect();
    let mut order: Vec<usize> = (0..devices.len()).collect();
    order.sort_by_key(|&i| {
        let mut key = seed.to_le_bytes().to_vec();
        key.extend_from_slice(&(i as u64).to_le_bytes());
        fnv1a64(&key)
    });
    let first_ticket = ds.tickets.iter().map(|t| t.id.0).max().unwrap_or(0) + 1;
    let mut out = Vec::with_capacity(n);
    for (dev, net) in order.into_iter().map(|i| devices[i]) {
        if out.len() == n {
            break;
        }
        let Some(last) = ds.archive.device_metas(dev).last() else {
            continue;
        };
        let Some(text) = ds
            .archive
            .latest_at(dev, last.time)
            .and_then(|s| edit_one_stanza(&s.text))
        else {
            continue;
        };
        let k = out.len();
        let month = k % ds.period.n_months();
        let snapshot = Snapshot {
            meta: SnapshotMeta {
                device: dev,
                time: Timestamp(last.time.0 + 1),
                login: last.login.clone(),
            },
            text,
        };
        let ticket = Ticket {
            id: TicketId(first_ticket + k as u32),
            network: net,
            kind: TicketKind::UserReport,
            opened: Timestamp(ds.period.month_start(month).0 + 60 * (k as u64 % 24)),
            resolved: None,
            devices: vec![dev],
            severity: TicketSeverity::Low,
            symptom: "perfbench ingest".into(),
        };
        out.push(IngestBatch {
            snapshots: vec![snapshot],
            tickets: vec![ticket],
        });
    }
    out
}

// ---------------------------------------------------------------------------
// The daemon process
// ---------------------------------------------------------------------------

/// A running `mpa-serve`. Dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
    log: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Spawn the daemon and wait for its first 200 on `/healthz`; returns
    /// it with the seconds that took (load + infer + refresh).
    fn spawn(ctx: &Ctx, dataset: &Path, obs_out: Option<&Path>) -> io::Result<(Daemon, f64)> {
        let started = Instant::now();
        let mut cmd = Command::new(&ctx.serve_bin);
        cmd.arg("--dataset")
            .arg(dataset)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &ctx.threads.to_string(),
            ])
            .args(["--idle-secs", IDLE_SECS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(path) = obs_out {
            cmd.arg("--obs-out").arg(path);
        }
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("[mpa-serve] listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
                lines.push(line);
            }
            lines
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log: Some(log),
        };
        daemon.addr = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            io::Error::other(format!(
                "mpa-serve did not start: {:?}",
                daemon.stop_and_log()
            ))
        })?;
        let (status, _) = openloop::request(&daemon.addr, "GET", "/healthz", "")?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "/healthz answered {status} after start"
            )));
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Kill (if still running), reap, and return the daemon's stderr.
    fn stop_and_log(&mut self) -> Vec<String> {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    /// Ask the daemon to drain and exit; kill it if it does not.
    fn shutdown(mut self) -> io::Result<()> {
        let asked = openloop::request(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                self.stop_and_log();
                return match (asked, status.success()) {
                    (Ok((200, _)), true) => Ok(()),
                    (asked, _) => Err(io::Error::other(format!(
                        "shutdown {asked:?}, exit {status}"
                    ))),
                };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let log = self.stop_and_log();
        Err(io::Error::other(format!(
            "mpa-serve did not exit after /shutdown: {log:?}"
        )))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_and_log();
    }
}

/// The `/healthz` fields the generator steers by.
#[derive(Debug, serde::Deserialize)]
struct Healthz {
    network_ids: Vec<u32>,
    events_applied: u64,
}

#[derive(Debug, serde::Deserialize)]
struct Practices {
    months: Vec<usize>,
}

fn get_json<T: serde::Deserialize>(addr: &str, path: &str) -> io::Result<T> {
    let (status, body) = openloop::request(addr, "GET", path, "")?;
    if status != 200 {
        return Err(io::Error::other(format!("GET {path} answered {status}")));
    }
    serde_json::from_str(&body).map_err(|e| io::Error::other(format!("GET {path}: {e:?}")))
}

// ---------------------------------------------------------------------------
// The schedule
// ---------------------------------------------------------------------------

/// Targets for the read mix, discovered from the daemon before timing.
struct Targets {
    networks: Vec<u32>,
    cases: Vec<(u32, usize)>,
}

fn steer(addr: &str) -> io::Result<Targets> {
    let health: Healthz = get_json(addr, "/healthz")?;
    if health.network_ids.is_empty() {
        return Err(io::Error::other("daemon reports no networks"));
    }
    let mut cases = Vec::new();
    for &net in health.network_ids.iter().take(STEER_NETWORKS) {
        let p: Practices = get_json(addr, &format!("/networks/{net}/practices"))?;
        cases.extend(p.months.iter().map(|&m| (net, m)));
    }
    if cases.is_empty() {
        return Err(io::Error::other("no (network, month) case to predict"));
    }
    Ok(Targets {
        networks: health.network_ids,
        cases,
    })
}

/// Phase lengths in seconds: the measured time split evenly.
fn phases(seconds: f64) -> (f64, f64) {
    (seconds / 2.0, seconds / 2.0)
}

/// The read schedule: a fixed rate across warm-up, `read` and `churn`.
/// The routes go out in passes through the mix, the five requests of a
/// pass due together and sent back to back, so a pass's wall time is the
/// daemon answering the whole mix after one wake-up. `tag` = phase * 8 +
/// route.
fn read_schedule(targets: &Targets, seconds: f64) -> Vec<Scheduled> {
    let (read_s, churn_s) = phases(seconds);
    let total = WARMUP_S + read_s + churn_s;
    let pass_s = ROUTES.len() as f64 / READ_RATE;
    let n = (total * READ_RATE) as usize / ROUTES.len() * ROUTES.len();
    (0..n)
        .map(|i| {
            let due_s = (i / ROUTES.len()) as f64 * pass_s;
            let phase = if due_s < WARMUP_S {
                PHASE_WARMUP
            } else if due_s < WARMUP_S + read_s {
                PHASE_READ
            } else {
                PHASE_CHURN
            };
            let route = i % ROUTES.len();
            let k = i / ROUTES.len();
            let path = match route {
                0 => "/healthz".to_string(),
                1 => format!(
                    "/networks/{}/practices",
                    targets.networks[(k * 7) % targets.networks.len()]
                ),
                2 => "/rankings/mi".to_string(),
                3 => "/causal/summary".to_string(),
                _ => {
                    let (net, month) = targets.cases[(k * 13) % targets.cases.len()];
                    format!("/predict?network={net}&month={month}")
                }
            };
            Scheduled {
                due: Duration::from_secs_f64(due_s),
                method: "GET",
                path,
                body: String::new(),
                tag: phase * 8 + route as u32,
            }
        })
        .collect()
}

/// Number of ingest batches the churn phase sends.
fn n_ingests(seconds: f64) -> usize {
    (phases(seconds).1 / INGEST_PERIOD_S).floor().max(1.0) as usize
}

/// The ingest schedule: one batch every `INGEST_PERIOD_S` through the
/// churn phase, starting half a period in.
fn ingest_schedule(bodies: &[String], seconds: f64) -> Vec<Scheduled> {
    let churn_start = WARMUP_S + phases(seconds).0;
    bodies
        .iter()
        .enumerate()
        .map(|(k, body)| Scheduled {
            due: Duration::from_secs_f64(churn_start + (k as f64 + 0.5) * INGEST_PERIOD_S),
            method: "POST",
            path: "/ingest".to_string(),
            body: body.clone(),
            tag: PHASE_CHURN * 8,
        })
        .collect()
}

/// One open-loop run on a live daemon.
struct LoadRun {
    reads: Vec<Outcome>,
    ingests: Vec<Outcome>,
    read_tags: Vec<u32>,
    /// Daemon CPU seconds over the schedule.
    cpu_s: f64,
    /// Daemon CPU seconds in each `CPU_WINDOW` of the schedule.
    cpu_windows: Vec<f64>,
    /// `events_applied` reported after the run.
    events_applied: u64,
}

fn drive(ctx: &Ctx, daemon: &Daemon, bodies: &[String]) -> io::Result<LoadRun> {
    let targets = steer(&daemon.addr)?;
    let reads = read_schedule(&targets, ctx.seconds);
    let ingests = ingest_schedule(bodies, ctx.seconds);
    let pid = daemon.pid();
    let cpu0 = procstat::cpu_seconds(&pid)?;
    let start = Instant::now() + Duration::from_millis(50);
    let total = reads.last().map_or(Duration::ZERO, |r| r.due);
    let (read_out, ingest_out, cpu_windows) = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| openloop::run_connection(&daemon.addr, start, &ingests));
        // Daemon CPU per second of the schedule.
        let sampler = scope.spawn(|| {
            let mut windows = Vec::new();
            let mut last = cpu0;
            let mut at = start;
            while at + CPU_WINDOW <= start + total {
                at += CPU_WINDOW;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                let Ok(now) = procstat::cpu_seconds(&pid) else {
                    break;
                };
                windows.push(now - last);
                last = now;
            }
            windows
        });
        let read = openloop::run_connection(&daemon.addr, start, &reads);
        (
            read,
            ingest.join().expect("ingest connection panicked"),
            sampler.join().expect("cpu sampler panicked"),
        )
    });
    let cpu_s = procstat::cpu_seconds(&pid)? - cpu0;
    let health: Healthz = get_json(&daemon.addr, "/healthz")?;
    Ok(LoadRun {
        reads: read_out?,
        ingests: ingest_out?,
        read_tags: reads.iter().map(|s| s.tag).collect(),
        cpu_s,
        cpu_windows,
        events_applied: health.events_applied,
    })
}

impl LoadRun {
    /// Due-time latencies (ms) of the answered reads with `pick(tag)`.
    fn read_latencies(&self, pick: impl Fn(u32) -> bool) -> Vec<f64> {
        self.reads
            .iter()
            .zip(&self.read_tags)
            .filter(|(o, &tag)| pick(tag) && o.ok())
            .map(|(o, _)| due_latency_ms(o.due_s, o.done_s.expect("answered")))
            .collect()
    }

    /// Wall time of one pass through the read mix in the `read` phase,
    /// from its due time to its last response: the median over passes in
    /// seconds, with the number of passes.
    fn read_mix_wall_s(&self) -> Option<Pct> {
        let passes: Vec<f64> = self
            .reads
            .chunks(ROUTES.len())
            .zip(self.read_tags.chunks(ROUTES.len()))
            .filter(|(pass, tags)| tags[0] / 8 == PHASE_READ && pass.iter().all(Outcome::ok))
            .filter_map(|(pass, _)| {
                let done = pass.iter().filter_map(|o| o.done_s).fold(0.0, f64::max);
                Some(done - pass.first()?.due_s)
            })
            .collect();
        median(&passes)
    }

    fn ingest_latencies(&self) -> Vec<f64> {
        self.ingests
            .iter()
            .filter(|o| o.ok())
            .map(|o| due_latency_ms(o.due_s, o.done_s.expect("answered")))
            .collect()
    }

    /// How late the generator sent, in ms, over both connections.
    fn lateness(&self) -> Vec<f64> {
        self.reads
            .iter()
            .chain(&self.ingests)
            .filter_map(|o| o.sent_s.map(|s| (s - o.due_s) * 1e3))
            .collect()
    }

    /// How late the generator sent the reads of one phase, in ms.
    fn read_lateness(&self, phase: u32) -> Vec<f64> {
        self.reads
            .iter()
            .zip(&self.read_tags)
            .filter(|(_, &tag)| tag / 8 == phase)
            .filter_map(|(o, _)| o.sent_s.map(|s| (s - o.due_s) * 1e3))
            .collect()
    }

    /// Record attempts, failures and the accounting check.
    fn account(&self, report: &mut Report, label: &str) {
        let all = self.reads.iter().chain(&self.ingests);
        let attempted = self.reads.len() + self.ingests.len();
        let failed = all.filter(|o| !o.ok()).count();
        report.attempted += attempted as u64;
        report.failed += failed as u64;
        let accepted = self.ingests.iter().filter(|o| o.ok()).count() as u64;
        // Each batch holds one snapshot and one ticket.
        report.check(
            format!("{label}events_applied"),
            self.events_applied == 2 * accepted && accepted == self.ingests.len() as u64,
            format!(
                "{} events for {accepted} accepted of {} batches",
                self.events_applied,
                self.ingests.len()
            ),
        );
    }
}

fn put_pct(report: &mut Report, name: &str, samples: &[f64], p: f64) {
    if let Some(v) = percentile(samples, p) {
        report.put(name, v.value, "ms", v.n);
    }
}

/// Every serve latency figure of one run.
fn put_latencies(report: &mut Report, run: &LoadRun) {
    let read = run.read_latencies(|t| t / 8 == PHASE_READ);
    let churn = run.read_latencies(|t| t / 8 == PHASE_CHURN);
    let ingest = run.ingest_latencies();
    put_pct(report, "read_p50_ms", &read, 50.0);
    put_pct(report, "read_p99_ms", &read, 99.0);
    put_pct(report, "churn_read_p50_ms", &churn, 50.0);
    put_pct(report, "churn_read_p99_ms", &churn, 99.0);
    put_pct(report, "ingest_p50_ms", &ingest, 50.0);
    put_pct(report, "ingest_max_ms", &ingest, 100.0);
    put_pct(report, "loadgen.late_p99_ms", &run.lateness(), 99.0);
    // Per phase: the daemon's refreshes in the churn phase take both
    // cores, so the generator may wake later there than in the read phase.
    put_pct(
        report,
        "loadgen.read_late_p99_ms",
        &run.read_lateness(PHASE_READ),
        99.0,
    );
    put_pct(
        report,
        "loadgen.churn_late_p99_ms",
        &run.read_lateness(PHASE_CHURN),
        99.0,
    );
    for (route, key) in ROUTES.iter().enumerate() {
        let lat = run.read_latencies(|t| t == PHASE_READ * 8 + route as u32);
        put_pct(report, &format!("read_p50_ms.{key}"), &lat, 50.0);
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

fn dataset_path(ctx: &Ctx) -> PathBuf {
    ctx.work_dir
        .join(format!("serve_mixed-seed{}.json", ctx.seed))
}

fn batch_bodies(batches: &[IngestBatch]) -> io::Result<Vec<String>> {
    batches
        .iter()
        .map(|b| serde_json::to_string(b).map_err(|e| io::Error::other(format!("{e:?}"))))
        .collect()
}

/// The serve_mixed workload.
pub fn serve_mixed(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let path = dataset_path(ctx);
    if ctx.trace {
        return serve_traced(ctx, report, &path);
    }
    let ds = ctx.scenario.generate();
    batch::describe_input(report, &ds);
    write_dataset(&ds, &path)?;
    let batches = ingest_batches(&ds, n_ingests(ctx.seconds), ctx.seed);
    drop(ds);
    let bodies = batch_bodies(&batches)?;
    report.provenance("ingest_batches", bodies.len());
    report.provenance("read_rate_per_s", READ_RATE);
    report.provenance("ingest_period_s", INGEST_PERIOD_S);

    // Set up several times; the last daemon serves the phases.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (d, s) = Daemon::spawn(ctx, &path, None)?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let setup = median(&setups).expect("set-ups ran");
    report.put("setup_s", setup.value, "s", setup.n);

    // Peak RSS while serving: the start-up peak (dataset load) is set-up.
    procstat::reset_peak_rss(&daemon.pid())?;
    let run = drive(ctx, &daemon, &bodies)?;
    report.put(
        "peak_rss_mib",
        procstat::peak_rss_mib(&daemon.pid())?,
        "MiB",
        1,
    );
    daemon.shutdown()?;
    let _ = std::fs::remove_file(&path);

    run.account(report, "");
    put_latencies(report, &run);
    report.samples("ingest_ms", run.ingest_latencies());
    report.samples("read_ms", run.read_latencies(|t| t / 8 == PHASE_READ));
    report.samples(
        "churn_read_ms",
        run.read_latencies(|t| t / 8 == PHASE_CHURN),
    );
    report.samples("daemon_cpu_window_s", run.cpu_windows.clone());
    if let Some(m) = run.read_mix_wall_s() {
        report.put("wall_s", m.value, "s", m.n);
    }
    report.put("cpu_s", run.cpu_s, "s", 1);
    Ok(())
}

/// Server-side time per route, from the daemon's own per-request spans.
fn put_route_spans(report: &mut Report, obs: &Value) {
    let field = |v: &'_ Value, key: &str| -> Option<Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let labels = [
        ("GET /healthz", "healthz"),
        ("GET /networks/:id/practices", "practices"),
        ("GET /rankings/mi", "rankings_mi"),
        ("GET /causal/summary", "causal_summary"),
        ("GET /predict", "predict"),
        ("POST /ingest", "ingest"),
    ];
    let spans = field(obs, "spans");
    let spans = spans.as_ref().and_then(Value::as_array).unwrap_or(&[]);
    for (label, key) in labels {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| matches!(field(s, "label"), Some(Value::String(l)) if l == label))
            .filter_map(|s| match field(s, "wall_ns") {
                Some(Value::Num(n)) => Some(num(n) / 1e6),
                _ => None,
            })
            .collect();
        put_pct(report, &format!("serve.route_p50_ms.{key}"), &ms, 50.0);
        put_pct(report, &format!("serve.route_p99_ms.{key}"), &ms, 99.0);
    }
    if let Some(Value::Num(peak)) = field(obs, "gauges").and_then(|g| field(&g, "serve_queue_peak"))
    {
        report.put("serve.ingest_queue_peak", num(peak), "count", 1);
    }
}

fn num(n: serde::Number) -> f64 {
    match n {
        serde::Number::I64(i) => i as f64,
        serde::Number::U64(u) => u as f64,
        serde::Number::F64(f) => f,
    }
}

/// The traced serve_mixed run: the layers in-process (generate, infer, MI,
/// and an `AnalyticsSession` replaying the run's exact ingest batches),
/// then the daemon untraced and with `--obs-out`, under the same schedule.
fn serve_traced(ctx: &Ctx, report: &mut Report, path: &Path) -> io::Result<()> {
    let ds = batch::traced_generate(&ctx.scenario, report);
    batch::describe_input(report, &ds);
    write_dataset(&ds, path)?;
    let batches = ingest_batches(&ds, n_ingests(ctx.seconds), ctx.seed);
    let bodies = batch_bodies(&batches)?;
    let (table, d) = measure(|| batch::traced_infer(&ds, report));
    batch::put_exec(report, &d);
    batch::traced_mi(&table, report);
    drop(table);

    // The session layer, replaying the run's batches in-process.
    let (mut session, d) = measure(|| AnalyticsSession::new(ds, SessionConfig::default()));
    report.put("session.new_s", d.wall_s, "s", 1);
    let mut ingest_s = Vec::new();
    let mut refresh_s = Vec::new();
    let mut reinferred = 0;
    for batch in batches {
        let (outcome, d) = measure(|| session.ingest(batch));
        let outcome =
            outcome.map_err(|e| io::Error::other(format!("replayed ingest rejected: {e}")))?;
        reinferred += outcome.networks_reinferred;
        ingest_s.push(d.wall_s);
        let ((), d) = measure(|| session.refresh());
        refresh_s.push(d.wall_s);
    }
    if let (Some(i), Some(r)) = (median(&ingest_s), median(&refresh_s)) {
        report.put("session.ingest_s", i.value, "s", i.n);
        report.put("session.refresh_s", r.value, "s", r.n);
    }
    report.put(
        "session.networks_reinferred",
        reinferred as f64,
        "count",
        ingest_s.len(),
    );
    let replayed_mi = mpa_serve::views::mi_ranking(session.analytics());
    drop(session);

    // The daemon untraced and traced, on the same schedule. Which goes
    // first alternates with the seed, so going second (warm page cache,
    // CPU frequency) does not always fall on the same side.
    let obs_path = ctx
        .work_dir
        .join(format!("serve_mixed-seed{}-obs.json", ctx.seed));
    let serve = |obs: Option<&Path>| -> io::Result<(LoadRun, (u16, String))> {
        let (daemon, _) = Daemon::spawn(ctx, path, obs)?;
        let run = drive(ctx, &daemon, &bodies)?;
        let mi = openloop::request(&daemon.addr, "GET", "/rankings/mi", "")?;
        daemon.shutdown()?;
        Ok((run, mi))
    };
    let ((untraced, untraced_mi), (traced, traced_mi)) = if ctx.seed % 2 == 1 {
        let traced = serve(Some(&obs_path))?;
        (serve(None)?, traced)
    } else {
        let untraced = serve(None)?;
        (untraced, serve(Some(&obs_path))?)
    };
    let _ = std::fs::remove_file(path);
    untraced.account(report, "untraced_");
    traced.account(report, "traced_");
    for (label, (status, served_mi)) in [("untraced_", untraced_mi), ("traced_", traced_mi)] {
        report.check(
            format!("{label}rankings_mi_equals_replay"),
            status == 200 && served_mi == replayed_mi,
            format!(
                "status {status}, {} vs {} bytes",
                served_mi.len(),
                replayed_mi.len()
            ),
        );
    }
    put_latencies(report, &untraced);
    let obs_text = std::fs::read_to_string(&obs_path)?;
    let obs: Value =
        serde_json::from_str(&obs_text).map_err(|e| io::Error::other(format!("{e:?}")))?;
    put_route_spans(report, &obs);
    let overhead = Ratio {
        num: traced.cpu_s - untraced.cpu_s,
        base: untraced.cpu_s,
    };
    report.put("obs.trace_overhead_frac", overhead.value(), "ratio", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_synth::Scenario;

    #[test]
    fn one_stanza_edit_changes_exactly_one_line_in_both_dialects() {
        let cisco = "interface Gi0/1\n description up\n mtu 1500\n!\ninterface Gi0/2\n mtu 1500\n";
        let edited = edit_one_stanza(cisco).expect("has an mtu");
        let changed: Vec<_> = cisco
            .lines()
            .zip(edited.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(changed, vec![(" mtu 1500", " mtu 9216")]);
        let junos = "interfaces {\n    ge-0/0/1 {\n        mtu 9216;\n    }\n}\n";
        assert!(edit_one_stanza(junos)
            .expect("has an mtu")
            .contains("        mtu 1500;\n"));
        assert_eq!(edit_one_stanza("hostname x\n"), None);
    }

    #[test]
    fn ingest_batches_are_seeded_valid_and_accepted_by_a_session() {
        let ds = Scenario::tiny().generate();
        let a = ingest_batches(&ds, 4, 1);
        assert_eq!(a.len(), 4);
        assert_eq!(
            batch_bodies(&a).expect("json"),
            batch_bodies(&ingest_batches(&ds, 4, 1)).expect("json")
        );
        assert_ne!(
            batch_bodies(&a).expect("json"),
            batch_bodies(&ingest_batches(&ds, 4, 2)).expect("json")
        );
        let mut session = AnalyticsSession::new(ds, SessionConfig::default());
        for b in a {
            assert_eq!(b.len(), 2);
            session.ingest(b).expect("batch accepted");
        }
        assert_eq!(session.events_applied(), 8);
    }

    #[test]
    fn schedules_keep_their_rates_and_phases() {
        let targets = Targets {
            networks: vec![1, 2],
            cases: vec![(1, 0)],
        };
        let reads = read_schedule(&targets, 10.0);
        assert_eq!(reads.len(), ((WARMUP_S + 10.0) * READ_RATE) as usize);
        let in_phase = |p: u32| reads.iter().filter(|s| s.tag / 8 == p).count();
        assert_eq!(in_phase(PHASE_WARMUP), (WARMUP_S * READ_RATE) as usize);
        assert_eq!(in_phase(PHASE_READ), in_phase(PHASE_CHURN));
        for pass in reads.chunks(ROUTES.len()) {
            assert!(pass
                .iter()
                .all(|s| s.due == pass[0].due && s.tag / 8 == pass[0].tag / 8));
            let routes: Vec<u32> = pass.iter().map(|s| s.tag % 8).collect();
            assert_eq!(routes, [0, 1, 2, 3, 4]);
        }
        let ingests = ingest_schedule(&vec![String::new(); n_ingests(10.0)], 10.0);
        assert_eq!(in_phase(PHASE_CHURN), 50 * ingests.len());
        assert!(ingests
            .iter()
            .all(|s| s.due.as_secs_f64() >= WARMUP_S + 5.0));
        assert!(ingests
            .iter()
            .all(|s| s.due.as_secs_f64() < WARMUP_S + 10.0));
    }
}

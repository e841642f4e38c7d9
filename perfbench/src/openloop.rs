//! Open-loop HTTP/1.1 load driver.
//!
//! Each connection sends its requests on a fixed schedule: a writer thread
//! sleeps until a request is due and sends it whether or not earlier
//! responses have arrived (HTTP/1.1 pipelining), while a reader thread
//! collects the responses, which the server returns in order. So the
//! offered load does not slow when the server slows, and each request is
//! timed from the moment it was *due*: a request queued behind a stall is
//! charged for the wait (no coordinated omission). The writer's own
//! lateness (send time − due time) is recorded separately, as a check on
//! every latency the driver reports.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long the reader waits for a response before declaring the
/// connection dead.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// When the request is due, relative to the schedule's start.
    pub due: Duration,
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Request target.
    pub path: String,
    /// Request body (empty for `GET`).
    pub body: String,
    /// Caller's label (phase, route) carried through to the outcome.
    pub tag: u32,
}

/// What happened to one scheduled request. Times are seconds from the
/// schedule's start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Due time.
    pub due_s: f64,
    /// When the writer sent it (`None`: never sent).
    pub sent_s: Option<f64>,
    /// When its response was complete (`None`: no response).
    pub done_s: Option<f64>,
    /// HTTP status of the response.
    pub status: Option<u16>,
}

impl Outcome {
    /// A 2xx response arrived.
    pub fn ok(&self) -> bool {
        self.done_s.is_some() && self.status.is_some_and(|s| (200..300).contains(&s))
    }
}

/// Render one request in wire format.
fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read one response: `(status, body)`.
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// One blocking request on a fresh connection: `(status, body)`. Used for
/// steering and checks outside the timed schedule.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    stream.write_all(&wire(method, path, body))?;
    let (status, body) = read_response(&mut BufReader::new(stream))?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok((status, body))
}

/// Drive one connection through `schedule` (sorted by due time), starting
/// at `start`. Returns one outcome per scheduled request, in order. A
/// connection error ends the run early; the requests it cut off come back
/// without a response and count as failed.
pub fn run_connection(
    addr: &str,
    start: Instant,
    schedule: &[Scheduled],
) -> io::Result<Vec<Outcome>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    let mut outcomes: Vec<Outcome> = schedule
        .iter()
        .map(|s| Outcome {
            due_s: s.due.as_secs_f64(),
            ..Outcome::default()
        })
        .collect();
    let (sent, received) = std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            let mut sent: Vec<Option<f64>> = vec![None; schedule.len()];
            for (slot, req) in sent.iter_mut().zip(schedule) {
                let due = start + req.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = start.elapsed().as_secs_f64();
                if writer
                    .write_all(&wire(req.method, &req.path, &req.body))
                    .is_err()
                {
                    break;
                }
                *slot = Some(at);
            }
            sent
        });
        let mut received: Vec<(f64, u16)> = Vec::with_capacity(schedule.len());
        while received.len() < schedule.len() {
            match read_response(&mut reader) {
                Ok((status, _)) => received.push((start.elapsed().as_secs_f64(), status)),
                Err(_) => break,
            }
        }
        // Unblock a writer still waiting on the schedule if the reader
        // gave up early; the remaining requests count as failed.
        if received.len() < schedule.len() {
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        (send.join().expect("writer thread panicked"), received)
    });
    for (o, s) in outcomes.iter_mut().zip(sent) {
        o.sent_s = s;
    }
    for (o, (done, status)) in outcomes.iter_mut().zip(received) {
        o.done_s = Some(done);
        o.status = Some(status);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{due_latency_ms, percentile};
    use std::net::TcpListener;

    /// A stub HTTP server: answers every request with 200, but stalls
    /// `stall` before answering the first one.
    fn stub_server(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut out = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut first = true;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).expect("header");
                    if h.trim_end().is_empty() {
                        break;
                    }
                }
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                let body = "{}";
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                if out.write_all(resp.as_bytes()).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_from_due_time_counts_the_backlog_of_a_stall() {
        let (addr, server) = stub_server(Duration::from_millis(200));
        let schedule: Vec<Scheduled> = (0..10)
            .map(|i| Scheduled {
                due: Duration::from_millis(10 * i),
                method: "GET",
                path: "/x".into(),
                body: String::new(),
                tag: 0,
            })
            .collect();
        let start = Instant::now();
        let out = run_connection(&addr, start, &schedule).expect("run");
        server.join().expect("server");
        assert!(out.iter().all(Outcome::ok));
        let lat: Vec<f64> = out
            .iter()
            .map(|o| due_latency_ms(o.due_s, o.done_s.expect("done")))
            .collect();
        // The last request was due at 90 ms but could only be answered
        // after the 200 ms stall: it waited at least 110 ms.
        assert!(lat[9] >= 110.0, "backlog not counted: {lat:?}");
        assert!(percentile(&lat, 50.0).expect("n").value >= 140.0, "{lat:?}");
        // The writer kept to its schedule while the server stalled.
        let late: Vec<f64> = out
            .iter()
            .map(|o| (o.sent_s.expect("sent") - o.due_s) * 1e3)
            .collect();
        assert!(
            percentile(&late, 100.0).expect("n").value < 50.0,
            "writer was held back: {late:?}"
        );
    }

    #[test]
    fn a_dead_connection_fails_the_requests_it_cut_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            // Accept, then close without answering.
            let (stream, _) = listener.accept().expect("accept");
            drop(stream);
        });
        let schedule: Vec<Scheduled> = (0..3)
            .map(|i| Scheduled {
                due: Duration::from_millis(5 * i),
                method: "GET",
                path: "/x".into(),
                body: String::new(),
                tag: 0,
            })
            .collect();
        let out = run_connection(&addr, Instant::now(), &schedule).expect("run");
        server.join().expect("server");
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| !o.ok()));
    }
}

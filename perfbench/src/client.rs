//! The socket side: one `soc-serve` process per set-up, client
//! connections that keep a fixed window of requests in flight, reply
//! verification, and the `/proc` readings taken around a measured pass.

use crate::workload::Req;
use soctest_multisite::service::{ErrorKind, ServerFrame, ServerStats};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Executor workers of the measured server: one per vCPU of the 2-vCPU
/// VM the benchmark is tuned on.
pub const EXECUTORS: usize = 2;
/// Client connections, one per vCPU.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight. One request per connection
/// lets CPU steal set the pace; four saturate the executors.
pub const WINDOW: usize = 4;
/// Admission queue of the server: above `CONNECTIONS * WINDOW`, so no
/// request is ever shed as `Overloaded`.
const QUEUE_CAP: usize = 64;
/// Longest wait for one reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest wait for a fresh server to accept a connection.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `soc-serve --listen` process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
}

impl ServerProcess {
    /// Starts `bin` listening on `socket` over `cache_dir`, with its
    /// stderr in `log`. The engine runs single-threaded inside each
    /// executor, so the executors are the server's only parallelism.
    pub fn spawn(bin: &Path, socket: &Path, cache_dir: &Path, log: &Path) -> io::Result<Self> {
        match std::fs::remove_file(socket) {
            Err(error) if error.kind() != io::ErrorKind::NotFound => return Err(error),
            _ => {}
        }
        let child = Command::new(bin)
            .arg("--listen")
            .arg(socket)
            .arg("--executors")
            .arg(EXECUTORS.to_string())
            .arg("--queue-cap")
            .arg(QUEUE_CAP.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .env("SOCTEST_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        Ok(ServerProcess { child })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects one client, retrying until the server has bound the
    /// socket.
    pub fn connect(&mut self, socket: &Path) -> io::Result<Lane> {
        let started = Instant::now();
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
                    return Ok(Lane {
                        reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
                        writer: stream,
                    });
                }
                Err(error) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("soc-serve exited: {status}")));
                    }
                    if started.elapsed() > START_TIMEOUT {
                        return Err(error);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Kills the server and waits for it to end.
    pub fn stop(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Already reaped after `stop`; both calls then fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Lane {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Lane {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    fn receive(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        match self.reader.read_line(line)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            _ => Ok(()),
        }
    }

    /// Ends this connection's session and returns its `Bye` statistics.
    pub fn goodbye(&mut self) -> Result<ServerStats, String> {
        self.send(b"\"Shutdown\"\n").map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.receive(&mut line).map_err(|e| e.to_string())?;
        match serde_json::from_str::<ServerFrame>(line.trim_end()) {
            Ok(ServerFrame::Bye(stats)) => Ok(stats),
            other => Err(format!("expected Bye, got {other:?}")),
        }
    }

    /// One admission-answered round trip: a `Cancel` for an id that is
    /// not in flight, which the connection's reader answers
    /// `UnknownRequest` without queueing. Returns the round trip time.
    pub fn ping(&mut self, id: &str) -> Result<Duration, String> {
        let frame = format!("{{\"Cancel\":{{\"request_id\":\"{id}\"}}}}\n");
        let mut line = String::new();
        let sent = Instant::now();
        self.send(frame.as_bytes()).map_err(|e| e.to_string())?;
        self.receive(&mut line).map_err(|e| e.to_string())?;
        let reply = serde_json::from_str::<ServerFrame>(line.trim_end());
        let elapsed = sent.elapsed();
        match reply {
            Ok(ServerFrame::Error(error))
                if error.kind == ErrorKind::UnknownRequest
                    && error.request_id.as_deref() == Some(id) =>
            {
                Ok(elapsed)
            }
            other => Err(format!("{id}: expected UnknownRequest, got {other:?}")),
        }
    }
}

/// Expected response bytes by request key.
pub type Expected = HashMap<String, String>;

/// What one closed-loop pass observed.
#[derive(Debug)]
pub struct PassReport {
    /// From the first send until every lane had read its last reply.
    pub wall: Duration,
    /// Every reply's latency (send → reply read and parsed) in
    /// milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Replies that passed verification.
    pub verified: usize,
    /// Why each failed request failed.
    pub failures: Vec<String>,
}

#[derive(Default)]
struct LaneReport {
    latencies_ms: Vec<f64>,
    verified: usize,
    failures: Vec<String>,
}

/// Sends `reqs` over `lanes` (request `i` on lane `i % lanes.len()`),
/// each lane keeping `window` requests in flight and sending its next
/// request as soon as a reply is read, parsed and checked.
pub fn closed_loop(
    lanes: &mut [Lane],
    reqs: &[Req],
    window: usize,
    expected: &Expected,
) -> PassReport {
    let count = lanes.len();
    let started = Instant::now();
    let reports: Vec<LaneReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(lane_index, lane)| {
                let mine: Vec<&Req> = reqs.iter().skip(lane_index).step_by(count).collect();
                scope.spawn(move || drive_lane(lane, &mine, window, expected))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client lane thread panicked"))
            .collect()
    });
    let mut report = PassReport {
        wall: started.elapsed(),
        latencies_ms: Vec::new(),
        verified: 0,
        failures: Vec::new(),
    };
    for lane in reports {
        report.verified += lane.verified;
        report.failures.extend(lane.failures);
        report.latencies_ms.extend(lane.latencies_ms);
    }
    report
}

fn drive_lane(lane: &mut Lane, reqs: &[&Req], window: usize, expected: &Expected) -> LaneReport {
    let mut report = LaneReport::default();
    let mut in_flight: VecDeque<(&Req, Instant)> = VecDeque::with_capacity(window);
    let mut next = 0;
    let mut line = String::with_capacity(1 << 16);
    loop {
        while next < reqs.len() && in_flight.len() < window {
            let req = reqs[next];
            let sent = Instant::now();
            if let Err(error) = lane.send(req.wire.as_bytes()) {
                fail_rest(
                    &mut report,
                    reqs.len() - next,
                    &format!("send failed: {error}"),
                );
                return report;
            }
            in_flight.push_back((req, sent));
            next += 1;
        }
        let Some((req, sent)) = in_flight.pop_front() else {
            return report;
        };
        if let Err(error) = lane.receive(&mut line) {
            let outstanding = in_flight.len() + 1 + reqs.len() - next;
            fail_rest(&mut report, outstanding, &format!("{}: {error}", req.id));
            return report;
        }
        let parsed = serde_json::from_str::<ServerFrame>(line.trim_end());
        let done = Instant::now();
        report.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
        match verify(req, &line, parsed, expected) {
            Ok(()) => report.verified += 1,
            Err(why) => report.failures.push(why),
        }
    }
}

/// One request alone on `lane`: its latency in milliseconds once the
/// reply is read, parsed and checked.
pub fn round_trip(lane: &mut Lane, req: &Req, expected: &Expected) -> Result<f64, String> {
    let report = drive_lane(lane, &[req], 1, expected);
    match (report.failures.first(), report.latencies_ms.first()) {
        (Some(why), _) => Err(why.clone()),
        (None, Some(&ms)) => Ok(ms),
        (None, None) => Err(format!("{}: no reply", req.id)),
    }
}

fn fail_rest(report: &mut LaneReport, count: usize, why: &str) {
    report.failures.extend((0..count).map(|_| why.to_string()));
}

/// A reply passes when it is a `Result` for the request's id and, for a
/// checked request, its `response` bytes equal the in-process engine's.
pub fn verify(
    req: &Req,
    line: &str,
    parsed: Result<ServerFrame, serde_json::Error>,
    expected: &Expected,
) -> Result<(), String> {
    match parsed {
        Ok(ServerFrame::Result(result)) if result.request_id == req.id => {}
        Ok(ServerFrame::Error(error)) => {
            return Err(format!("{}: {:?}: {}", req.id, error.kind, error.message))
        }
        Ok(other) => return Err(format!("{}: unexpected reply {other:?}", req.id)),
        Err(error) => return Err(format!("{}: unparsable reply: {error}", req.id)),
    }
    if req.checked {
        let want = expected
            .get(&req.key)
            .ok_or_else(|| format!("{}: no reference response", req.id))?;
        if response_bytes(line) != Some(want.as_str()) {
            return Err(format!(
                "{}: response differs from the in-process engine",
                req.id
            ));
        }
    }
    Ok(())
}

/// The `response` value of a stats-free `Result` frame line, exactly as
/// the server wrote it: the last field, closed by the frame's two braces.
pub fn response_bytes(line: &str) -> Option<&str> {
    const FIELD: &str = ",\"response\":";
    let line = line.trim_end();
    let start = line.find(FIELD)? + FIELD.len();
    let end = line.strip_suffix("}}")?.len();
    line.get(start..end)
}

/// User plus system CPU ticks of process `pid` (`/proc/<pid>/stat`).
pub fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name: utime is the 12th,
    // stime the 13th.
    let after = stat
        .rfind(')')
        .map(|end| &stat[end + 1..])
        .ok_or_else(|| io::Error::other("malformed stat"))?;
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || -> io::Result<u64> {
        fields
            .next()
            .and_then(|field| field.parse().ok())
            .ok_or_else(|| io::Error::other("malformed stat"))
    };
    Ok(tick()? + tick()?)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set of process `pid` in KiB (`VmHWM`).
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM"))
}

/// Machine-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`.
pub fn machine_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or_else(|| io::Error::other("no cpu line"))?
        .split_whitespace()
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal: guest time is
    // already inside user and nice.
    let total = fields.iter().take(8).sum();
    Ok((fields.get(7).copied().unwrap_or(0), total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_bytes_are_the_last_field() {
        let line = "{\"Result\":{\"request_id\":\"r1\",\"warm\":true,\"cached\":false,\
                    \"response\":{\"Curves\":[]}}}\n";
        assert_eq!(response_bytes(line), Some("{\"Curves\":[]}"));
        assert_eq!(response_bytes("{\"Bye\":{}}"), None);
    }

    #[test]
    fn proc_readers_parse_this_process() {
        let pid = std::process::id();
        cpu_ticks(pid).unwrap();
        assert!(peak_rss_kib(pid).unwrap() > 0);
        let (steal, total) = machine_ticks().unwrap();
        assert!(total > steal);
    }
}

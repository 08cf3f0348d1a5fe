//! Per-connection request dispatch.
//!
//! One handler thread owns one client socket. Reads run under a short
//! timeout so the loop can notice server shutdown even when the client
//! goes quiet; writes block (a slow watcher throttles only its own
//! feed — every other job's watchers read from their own record
//! buffer, never through this connection).

use crate::protocol::{error_line, parse_request, push_line, write_line, Request};
use crate::server::{ServerShared, Submission};
use crate::store::JobRecord;
use mosaic_runtime::jsonl::{push_json_f64, push_json_string};
use mosaic_runtime::JobOutcome;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-timeout granularity: how often an idle connection re-checks
/// the stopping flag, and how long a watch poll blocks per round.
const POLL: Duration = Duration::from_millis(200);

/// One `next_line` outcome. The two abuse variants (`TooLong`,
/// `TimedOut`) each earn the client exactly one protocol-error line
/// before the connection closes and its permit frees.
enum ReadLine {
    /// A complete request line (newline stripped).
    Line(String),
    /// Clean EOF, abrupt reset, or server shutdown — close silently.
    Closed,
    /// The line outgrew the configured bound before its newline.
    TooLong,
    /// A partial line sat incomplete past the read deadline
    /// (slow-loris); idle connections with an empty buffer never
    /// trip this.
    TimedOut,
}

/// Incremental line splitter over a read-timeout socket. A timeout is
/// not an error here — it is the poll point where the caller's stop
/// check runs; partial lines survive timeouts because the buffer is
/// owned, not borrowed from `BufReader` internals.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Line-length bound; exceeding it without a newline is fatal.
    max_line_bytes: usize,
    /// Partial-line deadline; `partial_since` tracks when the current
    /// incomplete line started accumulating.
    deadline: Duration,
    partial_since: Option<Instant>,
}

impl LineReader {
    fn new(stream: TcpStream, max_line_bytes: usize, deadline: Duration) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            max_line_bytes: max_line_bytes.max(1024),
            deadline,
            partial_since: None,
        }
    }

    /// Next full line (without the newline), or the close reason.
    fn next_line(&mut self, stop: &dyn Fn() -> bool) -> ReadLine {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                // Pipelined bytes already buffered count as a new
                // partial line starting now; an empty buffer clears
                // the deadline (the connection is idle, not slow).
                self.partial_since = (!self.buf.is_empty()).then(Instant::now);
                return ReadLine::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > self.max_line_bytes {
                return ReadLine::TooLong;
            }
            if let Some(since) = self.partial_since {
                if since.elapsed() >= self.deadline {
                    return ReadLine::TimedOut;
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadLine::Closed,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if self.partial_since.is_none() {
                        self.partial_since = Some(Instant::now());
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop() {
                        return ReadLine::Closed;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadLine::Closed,
            }
        }
    }
}

/// Serves one client until it disconnects, abuses the protocol
/// (oversize or stalled request line — one error line, then close, so
/// the connection permit frees), or the server stops.
pub(crate) fn handle_connection(stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(
        stream,
        shared.config.max_line_bytes,
        shared.config.read_deadline,
    );
    loop {
        let line = match reader.next_line(&|| shared.stopping()) {
            ReadLine::Line(line) => line,
            ReadLine::Closed => return,
            ReadLine::TooLong => {
                let _ = write_line(
                    &mut writer,
                    &error_line(&format!(
                        "request line exceeds {} bytes; closing connection",
                        reader.max_line_bytes
                    )),
                );
                return;
            }
            ReadLine::TimedOut => {
                let _ = write_line(
                    &mut writer,
                    &error_line("request line incomplete past read deadline; closing connection"),
                );
                return;
            }
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if dispatch(line, shared, &mut writer).is_err() {
            return; // client is gone; nothing left to tell it
        }
    }
}

/// Parses and executes one request line, writing every response line.
fn dispatch(line: &str, shared: &Arc<ServerShared>, writer: &mut TcpStream) -> std::io::Result<()> {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return write_line(writer, &error_line(&e)),
    };
    match request {
        Request::Submit(params) => match shared.submit(params) {
            Submission::Queued(record) => write_line(writer, &submit_line(&record, false)),
            Submission::Cached(record) => write_line(writer, &submit_line(&record, true)),
            Submission::Refused(reason) => write_line(writer, &error_line(&reason)),
        },
        Request::Watch { job, from } => watch(shared, writer, &job, from),
        Request::Fetch { job } => match shared.store.get(&job) {
            Some(record) => write_line(writer, &fetch_line(&record)),
            None => write_line(writer, &error_line(&format!("unknown job '{job}'"))),
        },
        Request::Cancel { job } => match shared.store.get(&job) {
            Some(record) => {
                // Queued jobs terminalize here; running jobs only get
                // their token fired — the worker terminalizes them at
                // the next iteration boundary.
                let was_queued = record.cancel_queued();
                if !was_queued {
                    record.cancel.cancel();
                }
                let mut o = String::from("{\"ok\":true,\"job\":");
                push_json_string(&mut o, &record.id);
                o.push_str(",\"state\":");
                push_json_string(&mut o, record.state().name());
                o.push('}');
                write_line(writer, &o)
            }
            None => write_line(writer, &error_line(&format!("unknown job '{job}'"))),
        },
        Request::Stats => write_line(writer, &stats_line(shared)),
        Request::Ping => write_line(writer, "{\"ok\":true,\"pong\":true}"),
        Request::Shutdown { drain } => {
            let mode = if drain { "drain" } else { "now" };
            let response = format!("{{\"ok\":true,\"shutting_down\":true,\"mode\":\"{mode}\"}}");
            write_line(writer, &response)?;
            shared.begin_shutdown(drain);
            Ok(())
        }
    }
}

/// Streams a job's feed: full replay from `from`, then live lines until
/// the job terminalizes, closed by a `watch_end` line carrying the
/// terminal state. Lossless by construction — lines come out of the
/// record's append-only buffer, so two concurrent watchers (or a late
/// one) see the identical sequence.
///
/// Each batch `wait_lines` hands back leaves in one write, the ack in
/// front of the first and `watch_end` behind the last: with a write per
/// line, every line after the first would wait out the peer's delayed
/// ACK (Nagle), ~40 ms per watch of a finished job on a reused
/// connection.
fn watch(
    shared: &Arc<ServerShared>,
    writer: &mut TcpStream,
    job: &str,
    from: usize,
) -> std::io::Result<()> {
    let Some(record) = shared.store.get(job) else {
        return write_line(writer, &error_line(&format!("unknown job '{job}'")));
    };
    let mut o = String::from("{\"ok\":true,\"job\":");
    push_json_string(&mut o, &record.id);
    o.push_str(&format!(",\"watching\":true,\"from\":{from}}}"));
    let mut batch = Vec::new();
    push_line(&mut batch, &o);
    let mut next = from;
    // The first fetch does not wait, so the ack never waits on the job.
    let mut wait = Duration::ZERO;
    loop {
        let (lines, state) = record.wait_lines(next, wait);
        wait = POLL;
        for line in &lines {
            push_line(&mut batch, line);
        }
        next += lines.len();
        let done = state.terminal();
        if done {
            // wait_lines returns lines and state from one lock
            // acquisition, and the worker pushes a job's last line
            // before terminalizing it, so a terminal state here means
            // the feed is complete.
            let mut end = String::from("{\"event\":\"watch_end\",\"job\":");
            push_json_string(&mut end, &record.id);
            end.push_str(",\"state\":");
            push_json_string(&mut end, state.name());
            end.push_str(&format!(",\"lines\":{next}"));
            end.push('}');
            push_line(&mut batch, &end);
        }
        if !batch.is_empty() {
            writer.write_all(&batch)?;
            batch.clear();
        }
        if done {
            return Ok(());
        }
    }
}

fn submit_line(record: &Arc<JobRecord>, cached: bool) -> String {
    let mut o = String::from("{\"ok\":true,\"job\":");
    push_json_string(&mut o, &record.id);
    o.push_str(",\"state\":");
    push_json_string(&mut o, record.state().name());
    o.push_str(&format!(",\"cached\":{cached}}}"));
    o
}

fn push_outcome(o: &mut String, outcome: &JobOutcome) {
    o.push_str(&format!(
        ",\"iterations\":{},\"wall_s\":",
        outcome.iterations
    ));
    push_json_f64(o, outcome.wall_s);
    o.push_str(&format!(
        ",\"attempts\":{},\"degraded\":{},\"degrade_step\":{}",
        outcome.attempts, outcome.degraded, outcome.degrade_step
    ));
    o.push_str(",\"error\":");
    match &outcome.error {
        Some(e) => push_json_string(o, e),
        None => o.push_str("null"),
    }
    o.push_str(",\"metrics\":");
    match &outcome.metrics {
        Some(m) => {
            o.push_str(&format!(
                "{{\"epe_violations\":{},\"pvband_nm2\":",
                m.epe_violations
            ));
            push_json_f64(o, m.pvband_nm2);
            o.push_str(&format!(
                ",\"shape_violations\":{},\"quality_score\":",
                m.shape_violations
            ));
            push_json_f64(o, m.quality_score);
            o.push_str(",\"contest_score\":");
            push_json_f64(o, m.contest_score);
            o.push('}');
        }
        None => o.push_str("null"),
    }
}

fn fetch_line(record: &Arc<JobRecord>) -> String {
    let state = record.state();
    let mut o = String::from("{\"ok\":true,\"job\":");
    push_json_string(&mut o, &record.id);
    o.push_str(",\"state\":");
    push_json_string(&mut o, state.name());
    o.push_str(&format!(
        ",\"cached\":{},\"events\":{}",
        record.cached(),
        record.event_count()
    ));
    if let Some(outcome) = record.outcome() {
        push_outcome(&mut o, &outcome);
    }
    o.push('}');
    o
}

/// The server-wide roll-up: the same counters the batch runtime's
/// `batch_summary` event reports (faults, degrades, salvage, cache
/// hits), extended with live service state.
fn stats_line(shared: &Arc<ServerShared>) -> String {
    let counts = shared.store.counts();
    let results = shared.results.stats();
    let mut o = String::from("{\"ok\":true,\"uptime_s\":");
    push_json_f64(&mut o, shared.uptime_s());
    o.push_str(&format!(
        ",\"draining\":{},\"workers\":{},\"max_conns\":{},\"connections\":{}",
        shared.draining(),
        shared.config.workers.max(1),
        shared.config.max_conns.max(1),
        shared.gate.in_use(),
    ));
    o.push_str(&format!(
        ",\"jobs\":{{\"total\":{},\"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"salvaged\":{},\"cancelled\":{}}}",
        counts.total,
        counts.queued,
        counts.running,
        counts.done,
        counts.failed,
        counts.salvaged,
        counts.cancelled,
    ));
    o.push_str(&format!(
        ",\"queue\":{},\"executed\":{}",
        shared.queue_len(),
        shared.executed.load(std::sync::atomic::Ordering::SeqCst),
    ));
    o.push_str(&format!(
        ",\"result_cache\":{{\"hits\":{},\"misses\":{},\"len\":{},\"capacity\":{},\"insertions\":{},\"evictions\":{}}}",
        results.hits,
        results.misses,
        results.len,
        results.capacity,
        results.insertions,
        results.evictions,
    ));
    o.push_str(&format!(
        ",\"sim_cache\":{{\"configs\":{},\"hits\":{},\"misses\":{}}}",
        shared.sim_cache.len(),
        shared.sim_cache.hits(),
        shared.sim_cache.misses(),
    ));
    o.push_str(&format!(
        ",\"faults\":{},\"degrades\":{}}}",
        shared.events.fault_count(),
        shared.events.degrade_count(),
    ));
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_runtime::{JobMetrics, JobStatus};

    fn metrics(epe: usize, pvband: f64, shape: usize, quality: f64) -> JobMetrics {
        JobMetrics {
            epe_violations: epe,
            pvband_nm2: pvband,
            shape_violations: shape,
            quality_score: quality,
            contest_score: quality + 0.125,
        }
    }

    /// The six terminal shapes of the runtime's format pins
    /// (`mosaic_runtime::ledger` tests), in the same order.
    fn shapes() -> [(&'static str, JobOutcome); 6] {
        [
            (
                "finished",
                JobOutcome {
                    status: JobStatus::Finished,
                    error: None,
                    iterations: 10,
                    attempts: 1,
                    wall_s: 1.5,
                    recoveries: 1,
                    degraded: false,
                    degrade_step: 0,
                    metrics: Some(metrics(3, 1234.5678901234, 0, 98765.4321)),
                },
            ),
            (
                "cancelled, salvaged",
                JobOutcome {
                    status: JobStatus::Cancelled,
                    error: None,
                    iterations: 1,
                    attempts: 1,
                    wall_s: 0.25,
                    recoveries: 0,
                    degraded: true,
                    degrade_step: 0,
                    metrics: Some(metrics(7, 2048.5, 1, 150000.0)),
                },
            ),
            (
                "timed out, salvaged",
                JobOutcome {
                    status: JobStatus::TimedOut,
                    error: None,
                    iterations: 3,
                    attempts: 2,
                    wall_s: 2.0,
                    recoveries: 0,
                    degraded: true,
                    degrade_step: 1,
                    metrics: Some(metrics(5, 0.1, 0, 120000.75)),
                },
            ),
            (
                "failed, salvaged",
                JobOutcome::failed(
                    "job panicked: injected fault: B2-fast panics at iteration 1".to_string(),
                    2,
                    1,
                    Some(metrics(9, 4096.0, 2, 150000.0)),
                ),
            ),
            (
                "failed, nothing salvaged",
                JobOutcome::failed(
                    "clip B2 (1024x1024 nm) does not fit".to_string(),
                    2,
                    0,
                    None,
                ),
            ),
            (
                "cancelled without a report",
                JobOutcome::cancelled(
                    1,
                    Some("job panicked: injected fault: B2-fast panics at iteration 0".to_string()),
                ),
            ),
        ]
    }

    #[test]
    fn fetch_outcome_fragment_per_terminal_shape_is_pinned() {
        let expected = [
            ",\"iterations\":10,\"wall_s\":1.5,\"attempts\":1,\"degraded\":false,\"degrade_step\":0,\"error\":null,\"metrics\":{\"epe_violations\":3,\"pvband_nm2\":1234.5678901234,\"shape_violations\":0,\"quality_score\":98765.4321,\"contest_score\":98765.5571}",
            ",\"iterations\":1,\"wall_s\":0.25,\"attempts\":1,\"degraded\":true,\"degrade_step\":0,\"error\":null,\"metrics\":{\"epe_violations\":7,\"pvband_nm2\":2048.5,\"shape_violations\":1,\"quality_score\":150000,\"contest_score\":150000.125}",
            ",\"iterations\":3,\"wall_s\":2,\"attempts\":2,\"degraded\":true,\"degrade_step\":1,\"error\":null,\"metrics\":{\"epe_violations\":5,\"pvband_nm2\":0.1,\"shape_violations\":0,\"quality_score\":120000.75,\"contest_score\":120000.875}",
            ",\"iterations\":0,\"wall_s\":0,\"attempts\":2,\"degraded\":true,\"degrade_step\":1,\"error\":\"job panicked: injected fault: B2-fast panics at iteration 1\",\"metrics\":{\"epe_violations\":9,\"pvband_nm2\":4096,\"shape_violations\":2,\"quality_score\":150000,\"contest_score\":150000.125}",
            ",\"iterations\":0,\"wall_s\":0,\"attempts\":2,\"degraded\":false,\"degrade_step\":0,\"error\":\"clip B2 (1024x1024 nm) does not fit\",\"metrics\":null",
            ",\"iterations\":0,\"wall_s\":0,\"attempts\":1,\"degraded\":false,\"degrade_step\":0,\"error\":\"job panicked: injected fault: B2-fast panics at iteration 0\",\"metrics\":null",
        ];
        for ((name, outcome), want) in shapes().iter().zip(expected) {
            let mut fragment = String::new();
            push_outcome(&mut fragment, outcome);
            assert_eq!(fragment, want, "{name}");
        }
    }
}

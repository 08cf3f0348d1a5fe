//! Loopback integration tests: a real server on an ephemeral port,
//! driven by real [`Client`] connections.
//!
//! These are the service-level guarantees the crate advertises:
//! repeated submissions are answered from the result cache without
//! scheduling a worker, concurrent watchers see identical lossless
//! event streams, the connection gate queues (not drops) clients over
//! the limit, drain shutdown refuses new submissions while finishing
//! running work, and a 64-client mixed-preset storm loses no events.

use mosaic_serve::prelude::*;
use std::time::Duration;

/// Tiny-but-real configuration: B1 at 128 px / 8 nm, two iterations —
/// enough to exercise the full optimize-and-score path in well under a
/// second per job.
const TINY_SUBMIT: &str = "submit clip=B1 grid=128 pixel=8 iterations=2";

fn tiny_server(workers: usize, max_conns: usize) -> ServerHandle {
    ServerHandle::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        max_conns,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral loopback port")
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    mosaic_runtime::jsonl::extract_plain_field(line, key)
        .unwrap_or_else(|| panic!("no '{key}' in {line}"))
}

/// Extracts an unquoted numeric field (`"key":123`); first occurrence.
fn num_field(line: &str, key: &str) -> usize {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no '{key}' in {line}"))
        + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("'{key}' not numeric in {line}"))
}

fn wait_done(client: &mut Client, job: &str) -> String {
    for _ in 0..600 {
        let reply = client
            .request(&format!("fetch job={job}"))
            .expect("fetch succeeds");
        if matches!(
            field(&reply, "state"),
            "done" | "failed" | "salvaged" | "cancelled"
        ) {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {job} never terminalized");
}

#[test]
fn submit_twice_second_is_a_cache_hit_without_a_worker() {
    let server = tiny_server(1, 8);
    let mut client = Client::connect(server.addr()).expect("connect");

    let first = client.request(TINY_SUBMIT).expect("submit");
    assert!(first.starts_with("{\"ok\":true"), "reply: {first}");
    assert!(first.contains("\"cached\":false"), "reply: {first}");
    let job1 = field(&first, "job").to_string();
    let done = wait_done(&mut client, &job1);
    assert_eq!(field(&done, "state"), "done", "first job finishes: {done}");
    assert!(done.contains("\"metrics\":{"), "metrics present: {done}");

    // The identical submission is answered without touching a worker.
    let second = client.request(TINY_SUBMIT).expect("submit again");
    assert!(second.contains("\"cached\":true"), "reply: {second}");
    assert!(second.contains("\"state\":\"done\""), "reply: {second}");
    let job2 = field(&second, "job").to_string();
    assert_ne!(job1, job2, "every submission gets its own job id");

    // The cached job's feed explains itself: a cache_hit event naming
    // the source job, then watch_end.
    let mut lines = Vec::new();
    let end = client
        .watch(&job2, 0, &mut |l| lines.push(l.to_string()))
        .expect("watch cached job");
    assert_eq!(field(&end, "state"), "done");
    assert_eq!(lines.len(), 1, "cache-hit feed is one event: {lines:?}");
    assert!(lines[0].contains("\"event\":\"cache_hit\""));
    assert_eq!(field(&lines[0], "source_job"), job1);

    // stats agrees: one executed, one result-cache hit, two done jobs.
    let stats = client.request("stats").expect("stats");
    assert!(stats.contains("\"executed\":1"), "stats: {stats}");
    assert!(
        stats.contains("\"result_cache\":{\"hits\":1,\"misses\":1"),
        "stats: {stats}"
    );
    assert!(stats.contains("\"done\":2"), "stats: {stats}");

    server.stop(true);
}

#[test]
fn concurrent_watchers_see_identical_lossless_streams() {
    let server = tiny_server(1, 8);
    let addr = server.addr();
    let mut submitter = Client::connect(addr).expect("connect");
    let reply = submitter.request(TINY_SUBMIT).expect("submit");
    let job = field(&reply, "job").to_string();

    // Two watchers race the running job from two separate connections;
    // a third replays after the fact. All three must see the same
    // sequence — the feed is an append-only buffer, not a live tap.
    let watcher = |job: String| {
        let mut c = Client::connect(addr).expect("connect watcher");
        let mut lines = Vec::new();
        let end = c
            .watch(&job, 0, &mut |l| lines.push(l.to_string()))
            .expect("watch");
        (lines, end)
    };
    let (a, b) = std::thread::scope(|s| {
        let ja = s.spawn(|| watcher(job.clone()));
        let jb = s.spawn(|| watcher(job.clone()));
        (ja.join().expect("watcher a"), jb.join().expect("watcher b"))
    });
    let late = watcher(job.clone());

    assert_eq!(a.0, b.0, "concurrent watchers diverged");
    assert_eq!(a.0, late.0, "late replay diverged");
    assert_eq!(field(&a.1, "state"), "done");
    assert_eq!(field(&b.1, "state"), "done");

    // The feed carries the full story in order: job_start, one line
    // per iteration, job_finish.
    assert!(
        a.0[0].contains("\"event\":\"job_start\""),
        "feed: {:?}",
        a.0
    );
    assert!(
        a.0.last()
            .expect("nonempty")
            .contains("\"event\":\"job_finish\""),
        "feed: {:?}",
        a.0
    );
    let iterations =
        a.0.iter()
            .filter(|l| l.contains("\"event\":\"iteration\""))
            .count();
    assert_eq!(iterations, 2, "one line per iteration: {:?}", a.0);
    assert!(
        a.0.iter().all(|l| field(l, "job") == job),
        "only this job's lines: {:?}",
        a.0
    );

    server.stop(true);
}

#[test]
fn connection_gate_queues_the_extra_client_until_a_slot_frees() {
    let server = tiny_server(1, 2);
    let addr = server.addr();
    // Fill both slots with live connections.
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    assert!(a.request("ping").expect("ping a").contains("pong"));
    assert!(b.request("ping").expect("ping b").contains("pong"));

    // The third client connects (OS backlog) but is not served: its
    // request sits unanswered while both permits are held.
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect c");
        c.request("ping").expect("served after a slot frees")
    });
    std::thread::sleep(Duration::from_millis(400));
    assert!(!waiter.is_finished(), "third client served over the limit");

    // Closing one connection frees its permit; the queued client is
    // then served cleanly — nothing was dropped or half-answered.
    drop(a);
    let reply = waiter.join().expect("waiter thread");
    assert!(reply.contains("pong"), "queued client reply: {reply}");

    server.stop(true);
}

#[test]
fn drain_shutdown_finishes_running_work_and_refuses_new_submissions() {
    let server = tiny_server(1, 8);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    // Enough iterations that the job is still running when drain hits.
    let reply = client
        .request("submit clip=B1 grid=128 pixel=8 iterations=12")
        .expect("submit");
    let job = field(&reply, "job").to_string();

    // Watch from a second connection while the server drains: the
    // stream must still end with watch_end, not a dead socket.
    let watch_thread = std::thread::spawn(move || {
        let mut w = Client::connect(addr).expect("connect watcher");
        let mut lines = Vec::new();
        let end = w
            .watch(&job, 0, &mut |l| lines.push(l.to_string()))
            .expect("watch survives drain");
        (lines, end)
    });
    std::thread::sleep(Duration::from_millis(100));
    let ack = client.request("shutdown").expect("shutdown command");
    assert!(ack.contains("\"mode\":\"drain\""), "ack: {ack}");

    // Draining server refuses new work with a clean error.
    let refused = client.request(TINY_SUBMIT).expect("refusal is a response");
    assert!(refused.starts_with("{\"ok\":false"), "refusal: {refused}");
    assert!(refused.contains("shutting down"), "refusal: {refused}");

    let (lines, end) = watch_thread.join().expect("watcher thread");
    assert_eq!(field(&end, "state"), "done", "drained job finished: {end}");
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"job_finish\"")),
        "feed complete under drain: {lines:?}"
    );
    server.join();
}

#[test]
fn storm_of_64_mixed_submissions_loses_no_events() {
    // 64 concurrent clients, two distinct presets (so the sim cache
    // sees exactly two configurations), every job watched to its end.
    let server = tiny_server(2, 64);
    let addr = server.addr();
    let results: Vec<(String, usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let submit = if i % 2 == 0 {
                        "submit clip=B1 grid=128 pixel=8 iterations=1"
                    } else {
                        "submit clip=B1 grid=64 pixel=16 iterations=1"
                    };
                    let reply = c.request(submit).expect("submit");
                    assert!(reply.starts_with("{\"ok\":true"), "reply: {reply}");
                    let job = field(&reply, "job").to_string();
                    let mut lines = Vec::new();
                    let end = c
                        .watch(&job, 0, &mut |l| lines.push(l.to_string()))
                        .expect("watch");
                    // Duplicate-free: line indices are unique because the
                    // feed is append-only; job ids in every line match.
                    assert!(lines.iter().all(|l| field(l, "job") == job));
                    (job, lines.len(), end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut done = 0usize;
    for (job, n_lines, end) in &results {
        assert_eq!(field(end, "state"), "done", "job {job}: {end}");
        // watch_end's line count equals what this watcher received —
        // nothing lost between the feed buffer and the socket.
        assert_eq!(num_field(end, "lines"), *n_lines, "job {job} lost events");
        done += 1;
    }
    assert_eq!(done, 64);

    // Distinct job ids: no submission was folded into another.
    let mut ids: Vec<&String> = results.iter().map(|(j, _, _)| j).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 64, "job ids collided");

    let mut c = Client::connect(addr).expect("connect");
    let stats = c.request("stats").expect("stats");
    assert!(stats.contains("\"done\":64"), "stats: {stats}");
    assert!(
        stats.contains("\"sim_cache\":{\"configs\":2,"),
        "two configurations shared across the storm: {stats}"
    );
    // First submission per preset misses, later identical ones hit the
    // result cache (scheduling order decides the exact split, but
    // hits + executed = 64 and at least the two first runs executed).
    let executed = num_field(&stats, "executed");
    assert!(executed >= 2, "stats: {stats}");
    // First "hits" in the stats line is the result cache's (the
    // sim_cache object renders after it).
    let hits = num_field(&stats, "hits");
    assert_eq!(hits + executed, 64, "every job ran or hit: {stats}");

    server.stop(true);
}

#[test]
fn cancel_and_fetch_round_trip() {
    // Zero workers is clamped to one; use a long job so cancel lands
    // while it is queued or running, then verify a clean terminal fetch.
    let server = tiny_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    // Occupy the single worker so the second submission stays queued.
    let busy = client
        .request("submit clip=B1 grid=128 pixel=8 iterations=12")
        .expect("submit busy");
    let busy_job = field(&busy, "job").to_string();
    let queued = client
        .request("submit clip=B2 grid=128 pixel=8 iterations=12")
        .expect("submit queued");
    let queued_job = field(&queued, "job").to_string();

    let cancelled = client
        .request(&format!("cancel job={queued_job}"))
        .expect("cancel");
    assert!(cancelled.contains("\"state\":\"cancelled\""), "{cancelled}");
    let fetched = client
        .request(&format!("fetch job={queued_job}"))
        .expect("fetch");
    assert_eq!(field(&fetched, "state"), "cancelled");
    assert!(fetched.contains("cancelled while queued"), "{fetched}");

    // Unknown ids are structured errors, not dead sockets.
    let unknown = client.request("fetch job=nope").expect("fetch unknown");
    assert!(unknown.starts_with("{\"ok\":false"), "{unknown}");

    // The busy job still finishes normally after the cancel next door.
    let done = wait_done(&mut client, &busy_job);
    assert_eq!(field(&done, "state"), "done", "{done}");
    server.stop(true);
}

#[test]
fn shutdown_now_cancels_running_jobs_via_their_tokens() {
    let server = tiny_server(1, 4);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    // Long enough that `shutdown now` lands mid-run.
    let reply = client
        .request("submit clip=B1 grid=128 pixel=8 iterations=200")
        .expect("submit long job");
    let job = field(&reply, "job").to_string();
    // A watcher attached before shutdown keeps its stream across it:
    // the handler's watch loop runs until the record terminalizes, so
    // the final state arrives as watch_end, not a dead socket.
    let watch_thread = std::thread::spawn(move || {
        let mut w = Client::connect(addr).expect("connect watcher");
        let mut lines = Vec::new();
        let end = w
            .watch(&job, 0, &mut |l| lines.push(l.to_string()))
            .expect("watch survives shutdown now");
        (lines, end)
    });
    std::thread::sleep(Duration::from_millis(300)); // let the job start
    server.shutdown(false);
    server.join();
    let (lines, end) = watch_thread.join().expect("watcher thread");
    // The job stopped cooperatively: salvaged when the best-so-far mask
    // scored (the common case), cancelled when it had not started yet.
    let state = field(&end, "state").to_string();
    assert!(
        state == "salvaged" || state == "cancelled",
        "job left '{state}', expected a cooperative stop: {end}"
    );
    if state == "salvaged" {
        assert!(
            lines.iter().any(|l| l.contains("\"event\":\"job_finish\"")),
            "salvaged jobs report a terminal event: {lines:?}"
        );
    }
}

/// A server with hardened read limits: tiny line bound (the 1 KiB
/// clamp floor) and a short partial-line deadline so abuse tests run
/// in milliseconds.
fn hardened_server(max_conns: usize, deadline: Duration) -> ServerHandle {
    ServerHandle::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_conns,
        max_line_bytes: 1024,
        read_deadline: deadline,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral loopback port")
}

/// Slow-loris: a client trickles a request line and never finishes it.
/// With one connection permit, it would pin the whole server forever —
/// the read deadline must shed it (one error line, then close) so the
/// next client gets served.
#[test]
fn slow_loris_client_is_shed_and_its_permit_frees() {
    use std::io::{BufRead, BufReader, Write};

    let server = hardened_server(1, Duration::from_millis(300));
    let addr = server.addr();

    let mut loris = std::net::TcpStream::connect(addr).expect("loris connects");
    loris.write_all(b"pi").expect("partial request accepted");
    // Never sends the rest. The honest client queues on the gate and
    // must still be answered once the loris is shed.
    let honest = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect after shed");
        c.request("ping").expect("served once the loris is shed")
    });

    // The loris gets exactly one protocol-error line, then EOF.
    let mut reply = String::new();
    let mut reader = BufReader::new(loris.try_clone().expect("clone"));
    reader.read_line(&mut reply).expect("error line arrives");
    assert!(
        reply.contains("\"ok\":false") && reply.contains("read deadline"),
        "loris reply: {reply}"
    );
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("socket closed");
    assert!(rest.is_empty(), "connection closed after the error: {rest}");

    let pong = honest.join().expect("honest client thread");
    assert!(pong.contains("pong"), "honest client reply: {pong}");
    server.stop(true);
}

/// An unbounded request line cannot grow the handler buffer without
/// limit: past `max_line_bytes` the client gets one error line and the
/// connection closes.
#[test]
fn oversize_request_line_is_rejected_and_closed() {
    use std::io::{BufRead, BufReader, Write};

    let server = hardened_server(4, Duration::from_secs(5));
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // 8 KiB with no newline, far past the 1 KiB floor.
    stream
        .write_all(&vec![b'x'; 8 * 1024])
        .expect("bytes accepted");

    let mut reply = String::new();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    reader.read_line(&mut reply).expect("error line arrives");
    assert!(
        reply.contains("\"ok\":false") && reply.contains("exceeds"),
        "oversize reply: {reply}"
    );
    // Closing with unread client bytes in the receive buffer may
    // surface as RST rather than a clean FIN — either way, no second
    // response line ever arrives.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "closed after the error: {rest}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    server.stop(true);
}

/// Fragmented writes are legitimate TCP behaviour, not abuse: a
/// request trickled byte-by-byte (inside the deadline) still parses
/// and is answered normally.
#[test]
fn byte_at_a_time_request_still_parses() {
    use std::io::{BufRead, BufReader, Write};

    let server = hardened_server(4, Duration::from_secs(10));
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    for byte in b"ping\n" {
        stream.write_all(&[*byte]).expect("byte accepted");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("reply arrives");
    assert!(reply.contains("pong"), "fragmented ping reply: {reply}");
    server.stop(true);
}

/// An abrupt mid-line disconnect (reset, not a clean shutdown) must
/// free the connection permit immediately — the next client on a
/// one-permit server is served without waiting out any deadline.
#[test]
fn abrupt_reset_mid_line_frees_the_permit() {
    use std::io::Write;

    let server = hardened_server(1, Duration::from_secs(30));
    let addr = server.addr();
    {
        let mut doomed = std::net::TcpStream::connect(addr).expect("connect");
        doomed.write_all(b"fetch job=").expect("partial request");
        // Dropped here: the OS sends FIN/RST with half a line buffered.
    }
    let mut c = Client::connect(addr).expect("connect after reset");
    let pong = c.request("ping").expect("served after reset");
    assert!(pong.contains("pong"), "reply: {pong}");
    server.stop(true);
}

/// Each line leaves in one write. Written as the payload and then its
/// newline, every response after a connection's first waited behind the
/// peer's delayed ACK (Nagle), about 40 ms per exchange.
#[test]
fn sequential_pings_on_one_connection_do_not_stall() {
    let server = tiny_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let started = std::time::Instant::now();
    for _ in 0..10 {
        let pong = client.request("ping").expect("ping answered");
        assert!(pong.contains("pong"), "reply: {pong}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "10 sequential pings took {elapsed:?}"
    );
    server.stop(true);
}

/// A watch reply leaves in one write per batch: ack, replayed feed and
/// `watch_end` of a finished job arrive together. With a write per line,
/// every line after the ack would wait out the peer's delayed ACK, about
/// 40 ms per watch on a reused connection.
#[test]
fn watch_of_a_finished_job_on_a_reused_connection_does_not_stall() {
    let server = tiny_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.request(TINY_SUBMIT).expect("submit");
    let job = field(&reply, "job").to_string();
    wait_done(&mut client, &job);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let mut lines = 0;
        let end = client
            .watch(&job, 0, &mut |_| lines += 1)
            .expect("watch finished job");
        best = best.min(started.elapsed());
        assert_eq!(field(&end, "state"), "done", "end: {end}");
        assert!(lines > 1, "replayed feed has several lines");
    }
    assert!(
        best < Duration::from_millis(20),
        "watch of a finished job took {best:?}"
    );
    server.stop(true);
}

/// A daemon in ledger mode: `ledger` and `ckpt` are shared with its
/// peers, `owner` names it in leases and completion records.
fn ledger_server(root: &std::path::Path, owner: &str) -> ServerHandle {
    ServerHandle::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        checkpoint_dir: Some(root.join("ckpt")),
        ledger_dir: Some(root.join("ledger")),
        lease_ttl: Duration::from_secs(2),
        ledger_owner: Some(owner.to_string()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral loopback port")
}

fn ledger_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("mosaic_serve_ledger")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Polls `fetch` until the daemon knows `job` and it is terminal —
/// unlike [`wait_done`], a peer's job may not be registered yet.
fn wait_known_and_done(client: &mut Client, job: &str) -> String {
    for _ in 0..600 {
        let reply = client
            .request(&format!("fetch job={job}"))
            .expect("fetch succeeds");
        if reply.starts_with("{\"ok\":true")
            && matches!(
                field(&reply, "state"),
                "done" | "failed" | "salvaged" | "cancelled"
            )
        {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {job} never terminalized");
}

/// Every feed line of `job` on the daemon at `addr`.
fn feed(addr: std::net::SocketAddr, job: &str) -> Vec<String> {
    let mut lines = Vec::new();
    Client::connect(addr)
        .expect("connect watcher")
        .watch(job, 0, &mut |l| lines.push(l.to_string()))
        .expect("watch a terminal job");
    lines
}

#[test]
fn ledger_daemons_run_a_shared_submission_once() {
    let root = ledger_root("shared_submission");
    let a = ledger_server(&root, "serve-a");
    let b = ledger_server(&root, "serve-b");
    let mut client_a = Client::connect(a.addr()).expect("connect a");
    let mut client_b = Client::connect(b.addr()).expect("connect b");

    let job = field(&client_a.request(TINY_SUBMIT).expect("submit a"), "job").to_string();
    let job_b = field(&client_b.request(TINY_SUBMIT).expect("submit b"), "job").to_string();
    assert_eq!(job, job_b, "one content-derived id on every daemon");
    assert!(
        job.starts_with('g'),
        "ledger ids are content-derived: {job}"
    );

    let done_a = wait_done(&mut client_a, &job);
    let done_b = wait_done(&mut client_b, &job);
    assert_eq!(field(&done_a, "state"), "done", "{done_a}");
    assert_eq!(field(&done_b, "state"), "done", "{done_b}");
    let metrics = |reply: &str| reply[reply.find("\"metrics\":").expect("metrics")..].to_string();
    assert_eq!(metrics(&done_a), metrics(&done_b), "identical answers");

    // Ran once: one job_start across both feeds, one `done` record.
    let starts = [a.addr(), b.addr()]
        .into_iter()
        .flat_map(|addr| feed(addr, &job))
        .filter(|l| l.contains("\"event\":\"job_start\""))
        .count();
    assert_eq!(starts, 1, "the job ran on exactly one daemon");
    let ledger =
        mosaic_runtime::Ledger::open(root.join("ledger"), "reader", Duration::from_secs(2))
            .expect("open ledger");
    assert_eq!(ledger.posted_jobs().unwrap(), vec![job.clone()]);
    assert!(
        ledger.completion(&job).unwrap().is_some(),
        "one done record"
    );

    a.stop(true);
    b.stop(true);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ledger_shutdown_now_hands_the_job_to_a_peer() {
    let root = ledger_root("shutdown_handoff");
    let a = ledger_server(&root, "serve-a");
    let addr = a.addr();
    let reply = Client::connect(addr)
        .expect("connect a")
        .request("submit clip=B1 grid=128 pixel=8 iterations=30")
        .expect("submit");
    let job = field(&reply, "job").to_string();

    // `shutdown mode=now` on the job's first iteration: the job stops at
    // the next boundary with its checkpoint saved and its lease released.
    let mut control = Client::connect(addr).expect("connect control");
    let mut watcher = Client::connect(addr).expect("connect watcher");
    let mut stopped = false;
    let end = watcher
        .watch(&job, 0, &mut |line| {
            if !stopped && line.contains("\"event\":\"iteration\"") {
                stopped = true;
                let ack = control.request("shutdown mode=now").expect("shutdown");
                assert!(ack.starts_with("{\"ok\":true"), "{ack}");
            }
        })
        .expect("watch survives shutdown now");
    assert!(stopped, "the job reached an iteration");
    assert!(
        matches!(field(&end, "state"), "salvaged" | "cancelled"),
        "a cooperative stop: {end}"
    );
    a.join();

    // The peer finds the released job on the ledger and finishes it
    // from the checkpoint — a clean claim, not an adoption.
    let b = ledger_server(&root, "serve-b");
    let done = wait_known_and_done(&mut Client::connect(b.addr()).expect("connect b"), &job);
    assert_eq!(field(&done, "state"), "done", "{done}");
    let lines = feed(b.addr(), &job);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"lease_claimed\"")),
        "{lines:?}"
    );
    assert!(
        !lines
            .iter()
            .any(|l| l.contains("\"event\":\"lease_expired\"")),
        "released leases are claimed, not adopted: {lines:?}"
    );
    let start = lines
        .iter()
        .find(|l| l.contains("\"event\":\"job_start\""))
        .expect("the peer ran the job");
    assert!(num_field(start, "start_iteration") > 0, "resumed: {start}");
    let ledger =
        mosaic_runtime::Ledger::open(root.join("ledger"), "reader", Duration::from_secs(2))
            .expect("open ledger");
    assert_eq!(
        ledger.completion(&job).unwrap().expect("done").owner,
        "serve-b"
    );

    b.stop(true);
    let _ = std::fs::remove_dir_all(&root);
}

/// A submission that fails at set-up (the 1024 nm clip does not fit a
/// 512 nm grid) replies and reports from one outcome: the fetch reply
/// and the feed's `job_finish` agree that nothing was salvaged, that no
/// optimizer wall time was charged and that it ran one attempt, since
/// no retry can make the clip fit.
#[test]
fn failed_submission_reply_and_job_finish_agree() {
    let server = tiny_server(1, 4);
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client
        .request("submit clip=B1 grid=64 pixel=8 iterations=2")
        .expect("submit");
    let job = field(&reply, "job").to_string();
    let fetched = wait_done(&mut client, &job);
    assert_eq!(field(&fetched, "state"), "failed", "{fetched}");
    let finish = feed(server.addr(), &job)
        .into_iter()
        .find(|l| l.contains("\"event\":\"job_finish\""))
        .expect("the failed job's feed carries its job_finish");
    for line in [&fetched, &finish] {
        assert!(line.contains("\"wall_s\":0,"), "{line}");
        assert!(line.contains("\"degraded\":false,"), "{line}");
        assert!(line.contains("\"attempts\":1,"), "{line}");
    }
    server.stop(true);
}

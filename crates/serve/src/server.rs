//! The daemon: listener, connection gate, worker pool, shutdown.
//!
//! [`ServerHandle::start`] binds a TCP listener and spawns three kinds
//! of threads around one shared `ServerShared` state:
//!
//! * **workers** pull queued [`JobRecord`]s off a condvar-guarded queue
//!   and run each through [`mosaic_runtime::run_job`] — the attempt loop
//!   the batch runtime uses, with its retry, panic isolation and ledger
//!   policy — terminalizing each record when done;
//! * the **listener** accepts connections behind a semaphore
//!   (`Gate`): the permit is acquired *before* `accept()`, so when
//!   `max_conns` handlers are live the N+1th client waits in the OS
//!   accept backlog instead of being half-served — it connects, then
//!   queues cleanly until a permit frees;
//! * an optional **watchdog** runs the runtime's [`Supervisor`] scan
//!   loop when any supervision limit is configured.
//!
//! Every runtime event flows through one server-wide [`EventSink`]
//! whose observer routes rendered lines into per-job feeds
//! ([`JobStore::route_line`]), which is what `watch` connections
//! stream. Shutdown is cooperative and two-speed: `drain` refuses new
//! submissions, cancels queued jobs and lets running ones finish; `now`
//! additionally fires every running job's cancel token so it
//! checkpoints at its next iteration boundary. `std` cannot install
//! signal handlers, so shutdown arrives over the wire (`shutdown`
//! command) or programmatically ([`ServerHandle::shutdown`]); a crash
//! instead of a shutdown loses nothing that checkpointing had saved.

use crate::handler;
use crate::protocol::SubmitParams;
use crate::result_cache::{CachedResult, ResultCache};
use crate::store::{JobRecord, JobState, JobStore};
use mosaic_runtime::{
    run_job, salvage, Claim, Event, EventObserver, EventSink, FaultPlan, HeldLeases, JobContext,
    JobOutcome, JobStatus, LeaseHandle, Ledger, RealVfs, RetryPolicy, SimCache, Supervisor,
    SupervisorConfig, Won,
};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon injects no faults: every job runs under the empty plan.
static NO_FAULTS: FaultPlan = FaultPlan::new();

/// Knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing optimizations (clamped to ≥ 1).
    pub workers: usize,
    /// Concurrent connection limit; further clients queue in the OS
    /// accept backlog (clamped to ≥ 1).
    pub max_conns: usize,
    /// Retries per failed job (`1 + retries` attempts each).
    pub retries: u32,
    /// Result-cache capacity in entries (0 disables result caching).
    pub result_cache: usize,
    /// JSONL report path for the server-wide event feed; `None` keeps
    /// events in memory only (feeds still work).
    pub report: Option<PathBuf>,
    /// Checkpoint root directory; `None` disables checkpoint/resume
    /// and checkpoint salvage.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N iterations (0 = only when cancelled).
    pub checkpoint_every: usize,
    /// Supervision knobs (per-job budget, stall grace); disabled
    /// limits spawn no watchdog.
    pub supervise: SupervisorConfig,
    /// Shared job-ledger root; `None` keeps the queue private to this
    /// daemon. With a ledger, submissions get content-derived job ids,
    /// are posted to the ledger, and idle workers also drain jobs
    /// peers posted — multiple daemons (sharing this directory and,
    /// for crash handoff, [`checkpoint_dir`](Self::checkpoint_dir))
    /// serve one queue.
    pub ledger_dir: Option<PathBuf>,
    /// Lease heartbeat deadline horizon for ledger mode.
    pub lease_ttl: Duration,
    /// Ledger owner id; `None` derives `serve-<pid>`.
    pub ledger_owner: Option<String>,
    /// Maximum request-line length in bytes (clamped to ≥ 1024). A
    /// client that exceeds it gets one protocol-error line and is
    /// disconnected — an unbounded line would otherwise grow the
    /// handler's buffer without limit.
    pub max_line_bytes: usize,
    /// How long a *partial* request line may sit incomplete before the
    /// connection is shed (one protocol-error line, then close). This
    /// is the slow-loris defence: a client trickling bytes can hold a
    /// connection permit for at most this long, while idle clients
    /// between complete requests are unaffected.
    pub read_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 1,
            max_conns: 64,
            retries: 1,
            result_cache: 256,
            report: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            supervise: SupervisorConfig::default(),
            ledger_dir: None,
            lease_ttl: Duration::from_secs(5),
            ledger_owner: None,
            max_line_bytes: 64 * 1024,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// Counting semaphore bounding live connections. Permits are acquired
/// by the listener before `accept()` and released when a handler
/// thread drops its [`GatePermit`].
#[derive(Debug)]
pub(crate) struct Gate {
    permits: Mutex<usize>,
    capacity: usize,
    cond: Condvar,
}

impl Gate {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Gate {
            permits: Mutex::new(capacity),
            capacity,
            cond: Condvar::new(),
        }
    }

    /// Blocks until a permit frees or `stop` fires; `None` on stop.
    fn acquire(self: &Arc<Self>, stop: &AtomicBool) -> Option<GatePermit> {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            if *permits > 0 {
                *permits -= 1;
                return Some(GatePermit {
                    gate: Arc::clone(self),
                });
            }
            let (guard, _) = self
                .cond
                .wait_timeout(permits, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            permits = guard;
        }
    }

    fn release(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        *permits += 1;
        drop(permits);
        self.cond.notify_one();
    }

    /// Connections currently holding a permit.
    pub(crate) fn in_use(&self) -> usize {
        let permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        self.capacity - *permits
    }
}

/// RAII connection permit; dropping it frees one accept slot.
#[derive(Debug)]
pub(crate) struct GatePermit {
    gate: Arc<Gate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// State shared by the listener, every handler thread and every worker.
#[derive(Debug)]
pub(crate) struct ServerShared {
    pub(crate) config: ServeConfig,
    pub(crate) store: Arc<JobStore>,
    pub(crate) results: ResultCache,
    pub(crate) sim_cache: SimCache,
    pub(crate) events: Arc<EventSink>,
    pub(crate) supervisor: Arc<Supervisor>,
    pub(crate) gate: Arc<Gate>,
    /// Shared job ledger (ledger mode); `None` keeps the queue local.
    pub(crate) ledger: Option<Ledger>,
    /// Live ledger leases, renewed from the watchdog thread's ticker.
    leases: HeldLeases,
    queue: Mutex<VecDeque<Arc<JobRecord>>>,
    queue_cond: Condvar,
    /// New submissions are refused (shutdown has begun).
    draining: AtomicBool,
    /// Listener and workers must exit.
    stopping: AtomicBool,
    /// Jobs actually executed on a worker (cache hits excluded).
    pub(crate) executed: AtomicUsize,
    pub(crate) started: Instant,
    addr: SocketAddr,
}

/// What `submit` resolved to.
pub(crate) enum Submission {
    /// Enqueued for a worker.
    Queued(Arc<JobRecord>),
    /// Answered from the result cache without scheduling a worker.
    Cached(Arc<JobRecord>),
    /// Refused (server draining).
    Refused(String),
}

/// What a worker's queue poll resolved to.
enum NextJob {
    /// A locally queued record to run.
    Job(Arc<JobRecord>),
    /// The queue stayed empty for one wait window — a chance to drain
    /// the shared ledger.
    Idle,
    /// The server is stopping and the queue is empty.
    Stop,
}

impl ServerShared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    pub(crate) fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Registers a submission: answers it from the result cache when a
    /// completed twin exists, otherwise enqueues it for a worker. In
    /// ledger mode the job id is content-derived and the payload is
    /// posted to the shared ledger, so every daemon on the ledger sees
    /// the same job under the same id.
    pub(crate) fn submit(&self, params: SubmitParams) -> Submission {
        if self.draining() {
            return Submission::Refused("server is shutting down; submissions refused".to_string());
        }
        let fingerprint = ResultCache::fingerprint(&params.cache_key());
        let record = match &self.ledger {
            None => self.store.insert(params),
            Some(ledger) => {
                let id = format!("g{fingerprint:016x}-{}", params.spec_suffix());
                if let Err(e) = ledger.post(&id, &params.cache_key()) {
                    self.events.emit(&Event::Fault {
                        job: id.clone(),
                        attempt: 0,
                        kind: "lease_write_error".to_string(),
                        detail: format!("ledger post failed: {e}"),
                    });
                }
                let (record, fresh) = self.store.register(&id, params);
                if !fresh {
                    // The same work was already submitted (here or via
                    // the ledger drain): converge on the existing record
                    // instead of queueing a duplicate.
                    return Submission::Queued(record);
                }
                record
            }
        };
        if let Some(hit) = self.results.get(fingerprint) {
            // The feed still tells the story: a cache_hit event lands in
            // this job's feed (via the observer route) before the record
            // terminalizes, so watchers see why there are no iterations.
            self.events.emit(&Event::CacheHit {
                job: record.id.clone(),
                fingerprint: format!("{fingerprint:016x}"),
                source_job: hit.source_job.clone(),
            });
            let mut outcome = hit.outcome.clone();
            // The answer is replayed, not recomputed: this job did no
            // optimizer work, so it charges no wall time of its own.
            outcome.wall_s = 0.0;
            record.finish(outcome, true);
            return Submission::Cached(record);
        }
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the queue lock: a shutdown that began after the
        // gate above must not race a job into a queue no worker drains.
        if self.draining() {
            record.cancel_queued();
            return Submission::Refused("server is shutting down; submissions refused".to_string());
        }
        queue.push_back(Arc::clone(&record));
        drop(queue);
        self.queue_cond.notify_one();
        Submission::Queued(record)
    }

    /// Worker side: the next queued record, [`NextJob::Idle`] after one
    /// empty wait window (the worker uses idle windows to drain the
    /// shared ledger), or [`NextJob::Stop`] when the server is stopping
    /// and the queue is empty.
    fn next_job(&self) -> NextJob {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(record) = queue.pop_front() {
            return NextJob::Job(record);
        }
        if self.stopping() {
            return NextJob::Stop;
        }
        let (mut queue, _) = self
            .queue_cond
            .wait_timeout(queue, Duration::from_millis(200))
            .unwrap_or_else(PoisonError::into_inner);
        match queue.pop_front() {
            Some(record) => NextJob::Job(record),
            None if self.stopping() => NextJob::Stop,
            None => NextJob::Idle,
        }
    }

    /// Queued jobs at this instant.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// One worker thread: claim, execute with retries, terminalize.
    /// Idle windows (empty local queue) drain jobs peers posted to the
    /// shared ledger, which is what lets multiple daemons serve one
    /// queue.
    fn run_worker(&self) {
        loop {
            match self.next_job() {
                NextJob::Job(record) => {
                    if !record.start() {
                        // Cancelled while queued; already terminal.
                        continue;
                    }
                    self.executed.fetch_add(1, Ordering::SeqCst);
                    self.claim_and_run(&record);
                }
                NextJob::Idle => {
                    if !self.draining() {
                        self.drain_ledger();
                    }
                }
                NextJob::Stop => return,
            }
        }
    }

    /// One pass over the shared ledger: terminalize local records a
    /// peer completed, then claim and run at most one open job —
    /// including postings from daemons this one has never spoken to,
    /// which are adopted into the store so `fetch`/`watch` work here.
    fn drain_ledger(&self) {
        let Some(ledger) = &self.ledger else { return };
        let Ok(jobs) = ledger.posted_jobs() else {
            return;
        };
        for id in jobs {
            if self.stopping() || self.draining() {
                return;
            }
            let record = self.store.get(&id);
            if let Ok(Some(done)) = ledger.completion(&id) {
                if let Some(record) = &record {
                    record.finish(done.outcome, false);
                }
                continue;
            }
            let Some((lease, adopted_from)) = ledger.claim(&id).ok().and_then(Claim::won) else {
                continue;
            };
            let record = match record {
                Some(record) => record,
                None => {
                    let Ok(Some(payload)) = ledger.payload(&id) else {
                        lease.release();
                        continue;
                    };
                    let Ok(params) = SubmitParams::from_cache_key(&payload) else {
                        lease.release();
                        continue;
                    };
                    self.store.register(&id, params).0
                }
            };
            if !record.start() {
                // Running on another local worker, or already terminal.
                lease.release();
                continue;
            }
            self.executed.fetch_add(1, Ordering::SeqCst);
            self.run(&record, Some((lease, adopted_from)));
            return; // ran one; favour freshly queued local work next
        }
    }

    /// Claims the record's ledger job, then runs it. Jobs a peer holds
    /// are waited out (the peer's completion terminalizes the record);
    /// jobs a peer completed terminalize immediately.
    fn claim_and_run(&self, record: &Arc<JobRecord>) {
        let Some(ledger) = &self.ledger else {
            self.run(record, None);
            return;
        };
        loop {
            let claim = ledger.claim(&record.id);
            if let Ok(Claim::Completed) = claim {
                let outcome = match ledger.completion(&record.id) {
                    Ok(Some(done)) => done.outcome,
                    _ => {
                        let error = "ledger completion record unreadable";
                        let ctx = self.context(record, None);
                        let outcome = salvage::failed_job(&record.spec, &ctx, error, 0);
                        self.events.emit(&Event::JobFinish {
                            job: record.id.clone(),
                            outcome: outcome.clone(),
                        });
                        outcome
                    }
                };
                record.finish(outcome, false);
                return;
            }
            if let Some(won) = claim.ok().and_then(Claim::won) {
                self.run(record, Some(won));
                return;
            }
            // A peer is on it: wait for its completion instead of
            // computing the same answer twice.
            if self.await_remote(ledger, record) {
                return;
            }
        }
    }

    /// Waits one beat for a peer-held job; returns `true` when the
    /// record terminalized (peer completion, cancel or shutdown).
    fn await_remote(&self, ledger: &Ledger, record: &Arc<JobRecord>) -> bool {
        if let Ok(Some(done)) = ledger.completion(&record.id) {
            record.finish(done.outcome, false);
            return true;
        }
        if record.cancel.is_cancelled() || self.stopping() {
            let error = "job is held by a peer daemon; local wait aborted";
            record.finish(JobOutcome::cancelled(0, Some(error.to_string())), false);
            return true;
        }
        std::thread::sleep(self.config.lease_ttl.min(Duration::from_millis(100)));
        false
    }

    /// The runtime context a record's attempts run under.
    fn context<'a>(
        &'a self,
        record: &'a JobRecord,
        lease: Option<&'a LeaseHandle>,
    ) -> JobContext<'a> {
        JobContext {
            cache: &self.sim_cache,
            events: &self.events,
            cancel: &record.cancel,
            deadline: None,
            checkpoint_dir: self.config.checkpoint_dir.as_deref(),
            checkpoint_every: self.config.checkpoint_every,
            faults: &NO_FAULTS,
            supervisor: &self.supervisor,
            retry: RetryPolicy::retries(self.config.retries),
            lease,
            threads: 1,
            vfs: &RealVfs,
        }
    }

    /// Runs a record through the runtime's attempt loop
    /// ([`run_job`]) and terminalizes it from the job's outcome,
    /// announcing a won ledger claim first and admitting cleanly
    /// finished answers to the result cache. When the ledger says a peer
    /// owns the job (fenced lease, lost commit), the record finishes
    /// from the peer's `done` record, never from this daemon's own
    /// answer.
    fn run(&self, record: &Arc<JobRecord>, won: Option<Won>) {
        let (lease, adopted_from) = won.map_or((None, None), |(lease, from)| (Some(lease), from));
        let ctx = self.context(record, lease.as_deref());
        if let (Some(ledger), Some(lease)) = (&self.ledger, &lease) {
            self.leases.announce(&ctx, ledger, lease, adopted_from);
        }
        let Some(outcome) = run_job(&record.spec, &ctx).outcome().cloned() else {
            if let Some(ledger) = &self.ledger {
                while !self.await_remote(ledger, record) {}
            }
            return;
        };
        if outcome.status == JobStatus::Finished && !outcome.degraded && outcome.metrics.is_some() {
            // Only authoritative answers are replayable; salvaged
            // partials must re-run if asked again.
            self.results.put(
                ResultCache::fingerprint(&record.params.cache_key()),
                CachedResult {
                    outcome: outcome.clone(),
                    source_job: record.id.clone(),
                },
            );
        }
        record.finish(outcome, false);
    }

    /// Initiates shutdown. `drain` lets running jobs finish; `!drain`
    /// also fires their cancel tokens so they checkpoint and stop at
    /// the next iteration boundary. Queued jobs are cancelled in both
    /// modes, new submissions are refused, and the listener is woken
    /// with a loopback self-connect so a blocked `accept()` returns.
    pub(crate) fn begin_shutdown(&self, drain: bool) {
        if self.draining.swap(true, Ordering::SeqCst) {
            // Second shutdown can still escalate drain → now.
            if !drain {
                self.cancel_running();
            }
            return;
        }
        // Queued jobs will never run: terminalize them so watchers and
        // fetchers get a definite answer instead of a hang.
        let queued: Vec<Arc<JobRecord>> = {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for record in queued {
            record.cancel_queued();
        }
        if !drain {
            self.cancel_running();
        }
        self.stopping.store(true, Ordering::SeqCst);
        self.queue_cond.notify_all();
        // Wake the listener out of accept(); the throwaway connection is
        // dropped immediately and never handled.
        let _ = TcpStream::connect(self.addr);
    }

    fn cancel_running(&self) {
        for record in self.store.all() {
            if record.state() == JobState::Running {
                record.cancel.cancel();
            }
        }
    }
}

/// Cheap cloneable remote control for a running server: lets another
/// thread (the CLI's stdin reader, a test) initiate shutdown while the
/// owner blocks in [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<ServerShared>,
}

impl ShutdownHandle {
    /// Initiates shutdown; `drain` semantics as
    /// [`ServerHandle::shutdown`].
    pub fn shutdown(&self, drain: bool) {
        self.shared.begin_shutdown(drain);
    }
}

/// A running server: its bound address plus the join/shutdown handle.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl ServerHandle {
    /// Binds `config.addr`, spawns workers, listener and (when
    /// supervision is enabled) the watchdog, and returns the handle.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the report file
    /// cannot be created.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(JobStore::new());
        let route_store = Arc::clone(&store);
        let sink = match &config.report {
            Some(path) => EventSink::to_file(path)?,
            None => EventSink::null(),
        }
        .with_observer(EventObserver::new(move |line| route_store.route_line(line)));
        let ledger = match &config.ledger_dir {
            Some(dir) => {
                let owner = config
                    .ledger_owner
                    .clone()
                    .unwrap_or_else(|| format!("serve-{}", std::process::id()));
                Some(Ledger::open(dir, &owner, config.lease_ttl)?)
            }
            None => None,
        };
        // In ledger mode the watchdog doubles as the heartbeat pump, so
        // it runs even with every supervision limit disabled.
        let leases = HeldLeases::default();
        let supervisor = Arc::new(match &ledger {
            Some(_) => leases.supervisor(config.supervise.clone(), config.lease_ttl),
            None => Supervisor::new(config.supervise.clone()),
        });
        let watchdog_enabled = config.supervise.enabled() || ledger.is_some();
        let workers = config.workers.max(1);
        let shared = Arc::new(ServerShared {
            gate: Arc::new(Gate::new(config.max_conns)),
            results: ResultCache::new(config.result_cache),
            config,
            store,
            sim_cache: SimCache::new(),
            events: Arc::new(sink),
            supervisor,
            ledger,
            leases,
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            executed: AtomicUsize::new(0),
            started: Instant::now(),
            addr,
        });
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.run_worker())
            })
            .collect();
        let watchdog = watchdog_enabled.then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let shared = Arc::clone(&shared);
            let stop_flag = Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                shared.supervisor.watch(&shared.events, &stop_flag);
            });
            (stop, handle)
        });
        let listener_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_listener(&listener, &shared))
        };
        Ok(ServerHandle {
            shared,
            addr,
            listener: Some(listener_handle),
            workers: worker_handles,
            watchdog,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown without waiting. `drain` refuses new
    /// submissions, cancels queued jobs and lets running ones finish;
    /// `!drain` additionally cancels running jobs so they checkpoint
    /// and stop at their next iteration boundary.
    pub fn shutdown(&self, drain: bool) {
        self.shared.begin_shutdown(drain);
    }

    /// A cloneable handle other threads can use to initiate shutdown.
    pub fn controller(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Waits for the listener, workers and watchdog to exit. Running
    /// jobs finish (drain) or stop at their next checkpoint boundary
    /// (now) before the workers return.
    pub fn join(mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some((stop, handle)) = self.watchdog.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }

    /// `shutdown` + `join` in one call.
    pub fn stop(self, drain: bool) {
        self.shutdown(drain);
        self.join();
    }
}

/// Accept loop: permit, accept, hand off. Handler threads are detached
/// — their lifetime is bounded by the client connection and the
/// stopping flag (handlers poll it between reads), and the gate keeps
/// their population bounded.
fn run_listener(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let stop_flag = &shared.stopping;
    loop {
        let Some(permit) = shared.gate.acquire(stop_flag) else {
            return;
        };
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping() {
                    // The shutdown self-connect (or a client racing it):
                    // drop both the stream and the permit and exit.
                    return;
                }
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    handler::handle_connection(stream, &shared);
                    drop(permit);
                });
            }
            Err(_) => {
                drop(permit);
                if shared.stopping() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_permits_and_releases_on_drop() {
        let gate = Arc::new(Gate::new(2));
        let stop = AtomicBool::new(false);
        let a = gate.acquire(&stop).expect("permit available");
        let _b = gate.acquire(&stop).expect("permit available");
        assert_eq!(gate.in_use(), 2);
        drop(a);
        assert_eq!(gate.in_use(), 1);
        let _c = gate.acquire(&stop).expect("released permit reusable");
        assert_eq!(gate.in_use(), 2);
    }

    #[test]
    fn gate_acquire_honours_stop() {
        let gate = Arc::new(Gate::new(1));
        let stop = AtomicBool::new(false);
        let _held = gate.acquire(&stop).expect("permit available");
        stop.store(true, Ordering::SeqCst);
        assert!(gate.acquire(&stop).is_none(), "stop unblocks acquire");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let gate = Arc::new(Gate::new(0));
        let stop = AtomicBool::new(false);
        assert!(gate.acquire(&stop).is_some());
    }
}

//! Filesystem-backed job ledger: lease-based multi-process sharding.
//!
//! The batch runtime parallelizes across threads; this module
//! parallelizes across *processes* (or hosts on a shared mount). Each
//! job gets a directory under the ledger root holding three kinds of
//! file, every one written with the same atomic discipline as v2
//! checkpoints (tmp write, then an atomic commit):
//!
//! * `job.txt` — the posted payload (what to run), committed once.
//! * `lease.e<N>` — the epoch-`N` lease record: owner id, epoch and a
//!   wall-clock heartbeat deadline, FNV-1a-checksummed like a
//!   checkpoint manifest. The *highest* epoch present is the live
//!   lease; older epochs are history and are never deleted, so epochs
//!   are monotonic across crashes.
//! * `done` — the completion record, committed exactly once.
//!
//! # Claim protocol
//!
//! A shard scans a job's newest lease. No lease, a cleanly released
//! lease (`expires_ms 0`), or a corrupt record means the job is open:
//! the shard claims it at epoch `N+1`. An *expired* lease (deadline in
//! the past — the owner stopped heartbeating, i.e. crashed or paused)
//! is adopted at `N+1`. The commit point is `hard_link(tmp, lease.eN)`
//! — true create-new semantics, so when two shards race for the same
//! epoch exactly one link succeeds and the loser sees [`Claim::Raced`].
//! (A plain rename cannot be the commit point: rename *replaces* an
//! existing target on POSIX, so both racers would believe they won.)
//!
//! # Fencing
//!
//! A shard that loses its lease (stale heartbeat, clock pause) learns
//! of the adoption by observing a higher-epoch lease file — checked on
//! every heartbeat renewal and, via [`LeaseHandle::verify_fence`],
//! before every checkpoint save — and abandons the job rather than
//! contending with the adopter. Completion commits via the same
//! create-new `done` marker, so even a fenced straggler racing its
//! adopter cannot double-complete: exactly one `done` link wins.
//!
//! Heartbeat renewals rewrite the shard's *own* lease file via
//! tmp-write + rename — the owner is the only writer of its epoch's
//! file, so replacement semantics are safe there.
//!
//! Deadlines use wall-clock Unix milliseconds ([`std::time::SystemTime`])
//! because they are compared across processes; monotonic instants do
//! not travel.

use crate::checkpoint::fnv1a64;
use crate::job::{JobMetrics, JobOutcome, JobStatus};
use crate::vfs::{commit_replace, RealVfs, Vfs};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

const LEASE_MAGIC: &str = "mosaic-lease v1";
const DONE_MAGIC: &str = "mosaic-done v1";

/// Wall-clock Unix time in milliseconds — lease deadlines must be
/// comparable across processes, which rules out `Instant`.
pub(crate) fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Maps a job or owner id onto the filesystem-safe charset used for
/// ledger paths (alphanumerics plus `-` `.` `_`).
fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Appends the trailing `checksum <16hex>` line over `body` — the same
/// integrity discipline as the checkpoint manifest.
fn seal(mut body: String) -> String {
    let sum = fnv1a64(body.as_bytes());
    let _ = writeln!(body, "checksum {sum:016x}");
    body
}

/// Verifies the trailing checksum line and returns the body it covers,
/// or `None` for truncated / bit-rotted / unsealed text.
fn verify_seal(text: &str) -> Option<&str> {
    let at = text.rfind("checksum ")?;
    if at != 0 && !text[..at].ends_with('\n') {
        return None;
    }
    let body = &text[..at];
    let hex = text[at..].trim_end().strip_prefix("checksum ")?;
    let sum = u64::from_str_radix(hex, 16).ok()?;
    (sum == fnv1a64(body.as_bytes())).then_some(body)
}

/// Writes `text` to `tmp`, then commits it to `target` with create-new
/// semantics via `hard_link`, fsyncing the tmp file before the link and
/// the parent directory after it ([`crate::vfs::commit_new`]). Returns
/// `false` when a racer committed `target` first (the tmp file is
/// cleaned up either way).
fn commit_new(vfs: &dyn Vfs, tmp: &Path, target: &Path, text: &str) -> io::Result<bool> {
    crate::vfs::commit_new(vfs, tmp, target, text.as_bytes())
}

/// One parsed lease record.
struct LeaseRecord {
    owner: String,
    /// Heartbeat deadline, Unix ms; `0` means cleanly released.
    expires_ms: u64,
}

fn render_lease(job: &str, owner: &str, epoch: u64, expires_ms: u64) -> String {
    let mut out = String::with_capacity(128);
    let _ = writeln!(out, "{LEASE_MAGIC}");
    let _ = writeln!(out, "job {job}");
    let _ = writeln!(out, "owner {owner}");
    let _ = writeln!(out, "epoch {epoch}");
    let _ = writeln!(out, "expires_ms {expires_ms}");
    seal(out)
}

fn parse_lease(text: &str) -> Option<LeaseRecord> {
    let body = verify_seal(text)?;
    let mut lines = body.lines();
    if lines.next()? != LEASE_MAGIC {
        return None;
    }
    let mut owner = None;
    let mut expires_ms = None;
    for line in lines {
        match line.split_once(' ')? {
            ("job", _) | ("epoch", _) => {}
            ("owner", v) => owner = Some(v.to_string()),
            ("expires_ms", v) => expires_ms = v.parse().ok(),
            _ => return None,
        }
    }
    Some(LeaseRecord {
        owner: owner?,
        expires_ms: expires_ms?,
    })
}

/// Finds the highest-epoch `lease.e<N>` file in a job directory.
fn newest_epoch(vfs: &dyn Vfs, dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    let entries = match vfs.read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(num) = name.strip_prefix("lease.e") else {
            continue;
        };
        let Ok(epoch) = num.parse::<u64>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| epoch > *b) {
            best = Some((epoch, path));
        }
    }
    Ok(best)
}

/// What a claim attempt found.
#[derive(Debug)]
pub enum Claim {
    /// The job was open (never leased, or cleanly released) and is now
    /// ours.
    Claimed {
        /// The live lease to heartbeat / complete / release.
        lease: Arc<LeaseHandle>,
    },
    /// A dead peer's expired lease was taken over; the caller should
    /// resume from the peer's newest checkpoint if one exists.
    Adopted {
        /// The live lease to heartbeat / complete / release.
        lease: Arc<LeaseHandle>,
        /// Who let the lease lapse.
        prev_owner: String,
        /// How far past its deadline the lapsed lease was, ms.
        stale_ms: u64,
    },
    /// Another shard holds a live lease; try again later.
    Held {
        /// The current lease holder.
        owner: String,
        /// The epoch it holds.
        epoch: u64,
    },
    /// The job already has a committed completion record.
    Completed,
    /// Another shard committed the same epoch first; rescan and retry.
    Raced,
}

/// A won claim's lease plus, for an adoption, the lapsed holder and how
/// stale its heartbeat was (ms).
pub type Won = (Arc<LeaseHandle>, Option<(String, u64)>);

impl Claim {
    /// The lease of a [`Claimed`](Claim::Claimed) or
    /// [`Adopted`](Claim::Adopted) job; `None` for every other outcome.
    pub fn won(self) -> Option<Won> {
        match self {
            Claim::Claimed { lease } => Some((lease, None)),
            Claim::Adopted {
                lease,
                prev_owner,
                stale_ms,
            } => Some((lease, Some((prev_owner, stale_ms)))),
            Claim::Held { .. } | Claim::Completed | Claim::Raced => None,
        }
    }
}

/// The terminal record committed to a job's `done` file — enough for a
/// non-running shard to fold the job exactly as its owner did.
///
/// The outcome is stored with its wall time in whole milliseconds, its
/// error's newlines flattened and its metrics' `f64`s as exact bit
/// patterns; `recoveries` is not stored and reads back as 0.
#[derive(Debug, Clone)]
pub struct CompletionRecord {
    /// The job id.
    pub job: String,
    /// The shard that completed it.
    pub owner: String,
    /// The lease epoch it completed under.
    pub epoch: u64,
    /// How the job ended on the completing shard.
    pub outcome: JobOutcome,
}

fn status_from_name(name: &str) -> Option<JobStatus> {
    Some(match name {
        "finished" => JobStatus::Finished,
        "failed" => JobStatus::Failed,
        "cancelled" => JobStatus::Cancelled,
        "timed_out" => JobStatus::TimedOut,
        _ => return None,
    })
}

fn render_done(record: &CompletionRecord) -> String {
    let outcome = &record.outcome;
    let mut out = String::with_capacity(256);
    let _ = writeln!(out, "{DONE_MAGIC}");
    let _ = writeln!(out, "job {}", record.job);
    let _ = writeln!(out, "owner {}", record.owner);
    let _ = writeln!(out, "epoch {}", record.epoch);
    let _ = writeln!(out, "status {}", outcome.status.name());
    let _ = writeln!(out, "iterations {}", outcome.iterations);
    let _ = writeln!(out, "attempts {}", outcome.attempts);
    let wall_ms = (outcome.wall_s * 1000.0).max(0.0) as u64;
    let _ = writeln!(out, "wall_ms {wall_ms}");
    let _ = writeln!(out, "degraded {}", u8::from(outcome.degraded));
    let _ = writeln!(out, "degrade_step {}", outcome.degrade_step);
    if let Some(error) = &outcome.error {
        let flat: String = error
            .chars()
            .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
            .collect();
        let _ = writeln!(out, "error {flat}");
    }
    if let Some(m) = &outcome.metrics {
        let _ = writeln!(
            out,
            "metrics {} {} {:016x} {:016x} {:016x}",
            m.epe_violations,
            m.shape_violations,
            m.pvband_nm2.to_bits(),
            m.quality_score.to_bits(),
            m.contest_score.to_bits()
        );
    }
    seal(out)
}

fn parse_done(text: &str) -> Option<CompletionRecord> {
    let body = verify_seal(text)?;
    let mut lines = body.lines();
    if lines.next()? != DONE_MAGIC {
        return None;
    }
    // Every field but `status` defaults to its empty value when its
    // line is absent; a record without a status is rejected below.
    let mut record = CompletionRecord {
        job: String::new(),
        owner: String::new(),
        epoch: 0,
        outcome: JobOutcome::cancelled(0, None),
    };
    let outcome = &mut record.outcome;
    let mut saw_status = false;
    for line in lines {
        let (key, value) = line.split_once(' ')?;
        match key {
            "job" => record.job = value.to_string(),
            "owner" => record.owner = value.to_string(),
            "epoch" => record.epoch = value.parse().ok()?,
            "status" => {
                outcome.status = status_from_name(value)?;
                saw_status = true;
            }
            "iterations" => outcome.iterations = value.parse().ok()?,
            "attempts" => outcome.attempts = value.parse().ok()?,
            "wall_ms" => outcome.wall_s = value.parse::<u64>().ok()? as f64 / 1000.0,
            "degraded" => outcome.degraded = value == "1",
            "degrade_step" => outcome.degrade_step = value.parse().ok()?,
            "error" => outcome.error = Some(value.to_string()),
            "metrics" => {
                let mut it = value.split(' ');
                let epe = it.next()?.parse().ok()?;
                let shape = it.next()?.parse().ok()?;
                let pvband = u64::from_str_radix(it.next()?, 16).ok()?;
                let quality = u64::from_str_radix(it.next()?, 16).ok()?;
                let contest = u64::from_str_radix(it.next()?, 16).ok()?;
                outcome.metrics = Some(JobMetrics {
                    epe_violations: epe,
                    pvband_nm2: f64::from_bits(pvband),
                    shape_violations: shape,
                    quality_score: f64::from_bits(quality),
                    contest_score: f64::from_bits(contest),
                });
            }
            _ => return None,
        }
    }
    saw_status.then_some(record)
}

enum Renewal {
    Renewed,
    Fenced(u64),
}

/// A shared, filesystem-backed job ledger rooted at one directory.
///
/// Cloning is cheap; every clone addresses the same ledger. All methods
/// are crash-safe: a process killed at any point leaves either the old
/// or the new file state, never a torn record (writes go to a tmp file,
/// are fsynced, and commit atomically with the parent directory synced
/// behind the commit — see [`crate::vfs`]).
#[derive(Debug, Clone)]
pub struct Ledger {
    root: PathBuf,
    owner: String,
    ttl: Duration,
    vfs: Arc<dyn Vfs>,
}

impl Ledger {
    /// Opens (creating if needed) the ledger at `root`. `owner` is this
    /// process's shard id as recorded in its leases; `ttl` is the
    /// heartbeat deadline horizon — a lease not renewed within `ttl` is
    /// adoptable by peers.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(root: impl Into<PathBuf>, owner: &str, ttl: Duration) -> io::Result<Ledger> {
        Ledger::open_with(Arc::new(RealVfs), root, owner, ttl)
    }

    /// [`Ledger::open`] through an explicit [`Vfs`] — the crash matrix
    /// opens ledgers over a seeded [`crate::vfs::FaultVfs`].
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        root: impl Into<PathBuf>,
        owner: &str,
        ttl: Duration,
    ) -> io::Result<Ledger> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        Ok(Ledger {
            root,
            owner: sanitize(owner),
            ttl: ttl.max(Duration::from_millis(10)),
            vfs,
        })
    }

    /// The ledger root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This process's owner id as recorded in its leases.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// The heartbeat deadline horizon leases are renewed to.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    fn job_dir(&self, job: &str) -> PathBuf {
        self.root.join(sanitize(job))
    }

    fn ttl_ms(&self) -> u64 {
        self.ttl.as_millis() as u64
    }

    /// Posts a job payload (committed once; later posts of the same job
    /// are no-ops returning `false`). The payload must be a single
    /// line; what it encodes is the caller's business.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than losing the commit race.
    pub fn post(&self, job: &str, payload: &str) -> io::Result<bool> {
        let dir = self.job_dir(job);
        self.vfs.create_dir_all(&dir)?;
        let target = dir.join("job.txt");
        if self.vfs.exists(&target) {
            return Ok(false);
        }
        let tmp = dir.join(format!("job.txt.tmp.{}", self.owner));
        commit_new(
            &*self.vfs,
            &tmp,
            &target,
            &format!("{}\n", payload.trim_end()),
        )
    }

    /// Reads a job's posted payload line, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn payload(&self, job: &str) -> io::Result<Option<String>> {
        match self.vfs.read_to_string(&self.job_dir(job).join("job.txt")) {
            Ok(text) => Ok(Some(text.trim_end().to_string())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Lists every job with a posted payload, sorted by id.
    ///
    /// # Errors
    ///
    /// Propagates `read_dir` failures on the ledger root.
    pub fn posted_jobs(&self) -> io::Result<Vec<String>> {
        let mut jobs = Vec::new();
        for path in self.vfs.read_dir(&self.root)? {
            if !self.vfs.exists(&path.join("job.txt")) {
                continue;
            }
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                jobs.push(name.to_string());
            }
        }
        jobs.sort();
        Ok(jobs)
    }

    /// Attempts to claim `job` — see the module docs for the protocol.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; losing a commit race is [`Claim::Raced`],
    /// not an error.
    pub fn claim(&self, job: &str) -> io::Result<Claim> {
        let dir = self.job_dir(job);
        self.vfs.create_dir_all(&dir)?;
        if self.vfs.exists(&dir.join("done")) {
            return Ok(Claim::Completed);
        }
        let (epoch, adopted) = match newest_epoch(&*self.vfs, &dir)? {
            None => (1, None),
            Some((e, path)) => {
                let text = self.vfs.read_to_string(&path).unwrap_or_default();
                match parse_lease(&text) {
                    // Corrupt / torn record: unreadable leases fence
                    // nobody, so the next epoch is open.
                    None => (e + 1, None),
                    Some(rec) => {
                        let now = unix_millis();
                        if rec.expires_ms == 0 {
                            (e + 1, None) // cleanly released
                        } else if now >= rec.expires_ms {
                            (e + 1, Some((rec.owner, now - rec.expires_ms)))
                        } else {
                            return Ok(Claim::Held {
                                owner: rec.owner,
                                epoch: e,
                            });
                        }
                    }
                }
            }
        };
        let text = render_lease(job, &self.owner, epoch, unix_millis() + self.ttl_ms());
        let tmp = dir.join(format!("lease.e{epoch}.tmp.{}", self.owner));
        if !commit_new(
            &*self.vfs,
            &tmp,
            &dir.join(format!("lease.e{epoch}")),
            &text,
        )? {
            return Ok(Claim::Raced);
        }
        let lease = Arc::new(LeaseHandle::new(self.clone(), job, epoch));
        Ok(match adopted {
            None => Claim::Claimed { lease },
            Some((prev_owner, stale_ms)) => Claim::Adopted {
                lease,
                prev_owner,
                stale_ms,
            },
        })
    }

    /// Commits a lease for a *different* owner at the next open epoch,
    /// expired `ttl` from now (`Duration::ZERO` plants an
    /// already-expired lease). Fault-injection and test helper: it
    /// manufactures the peer whose lease a claim races with or adopts.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn plant(&self, job: &str, owner: &str, ttl: Duration) -> io::Result<u64> {
        let dir = self.job_dir(job);
        self.vfs.create_dir_all(&dir)?;
        loop {
            let epoch = match newest_epoch(&*self.vfs, &dir)? {
                None => 1,
                Some((e, _)) => e + 1,
            };
            let expires = if ttl.is_zero() {
                // Already expired, but nonzero (zero means released).
                unix_millis().saturating_sub(1).max(1)
            } else {
                unix_millis() + ttl.as_millis() as u64
            };
            let text = render_lease(job, owner, epoch, expires);
            let tmp = dir.join(format!("lease.e{epoch}.tmp.{}", sanitize(owner)));
            if commit_new(
                &*self.vfs,
                &tmp,
                &dir.join(format!("lease.e{epoch}")),
                &text,
            )? {
                return Ok(epoch);
            }
        }
    }

    /// Renews our lease on `job` at `epoch`, unless a higher epoch has
    /// appeared (we were fenced).
    fn renew(&self, job: &str, epoch: u64) -> io::Result<Renewal> {
        let dir = self.job_dir(job);
        if let Some((newest, _)) = newest_epoch(&*self.vfs, &dir)? {
            if newest > epoch {
                return Ok(Renewal::Fenced(newest));
            }
        }
        let text = render_lease(job, &self.owner, epoch, unix_millis() + self.ttl_ms());
        let tmp = dir.join(format!("lease.e{epoch}.tmp.{}", self.owner));
        commit_replace(
            &*self.vfs,
            &tmp,
            &dir.join(format!("lease.e{epoch}")),
            text.as_bytes(),
        )?;
        Ok(Renewal::Renewed)
    }

    /// Checks for a lease above `epoch`; `Some(newest)` means fenced.
    fn fence_check(&self, job: &str, epoch: u64) -> io::Result<Option<u64>> {
        Ok(newest_epoch(&*self.vfs, &self.job_dir(job))?
            .map(|(newest, _)| newest)
            .filter(|&newest| newest > epoch))
    }

    /// Releases our lease cleanly by rewriting it with a zero deadline
    /// — the lease *file* stays (epochs must stay monotonic), but the
    /// job reads as open, not crashed. Fenced leases are left alone.
    fn release(&self, job: &str, epoch: u64) -> io::Result<()> {
        if self.fence_check(job, epoch)?.is_some() {
            return Ok(());
        }
        let dir = self.job_dir(job);
        let text = render_lease(job, &self.owner, epoch, 0);
        let tmp = dir.join(format!("lease.e{epoch}.tmp.{}", self.owner));
        commit_replace(
            &*self.vfs,
            &tmp,
            &dir.join(format!("lease.e{epoch}")),
            text.as_bytes(),
        )
    }

    /// Commits `record` as the job's completion under create-new
    /// semantics. Returns `false` without committing when the caller
    /// was fenced or another shard completed the job first — exactly
    /// one completion ever lands.
    fn complete(&self, job: &str, epoch: u64, record: &CompletionRecord) -> io::Result<bool> {
        if self.fence_check(job, epoch)?.is_some() {
            return Ok(false);
        }
        let dir = self.job_dir(job);
        let tmp = dir.join(format!("done.tmp.{}", self.owner));
        commit_new(&*self.vfs, &tmp, &dir.join("done"), &render_done(record))
    }

    /// Best-effort name of the peer that completed `job`: its `done`
    /// record's owner, or `"peer"` while none is readable.
    pub fn completed_by(&self, job: &str) -> String {
        self.completion(job)
            .ok()
            .flatten()
            .map_or_else(|| "peer".to_string(), |record| record.owner)
    }

    /// Reads a job's completion record. `None` means not completed (or
    /// a corrupt record, which still blocks re-claiming).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn completion(&self, job: &str) -> io::Result<Option<CompletionRecord>> {
        match self.vfs.read_to_string(&self.job_dir(job).join("done")) {
            Ok(text) => Ok(parse_done(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A live claim on one job: the handle heartbeats, detects fencing,
/// and commits the job's terminal state. Shared (`Arc`) between the
/// worker running the job and the watchdog thread renewing leases.
#[derive(Debug)]
pub struct LeaseHandle {
    ledger: Ledger,
    job: String,
    epoch: u64,
    lost: AtomicBool,
    loss_reported: AtomicBool,
    observed_epoch: AtomicU64,
    retired: AtomicBool,
    paused_until_ms: AtomicU64,
}

impl LeaseHandle {
    fn new(ledger: Ledger, job: &str, epoch: u64) -> LeaseHandle {
        LeaseHandle {
            ledger,
            job: job.to_string(),
            epoch,
            lost: AtomicBool::new(false),
            loss_reported: AtomicBool::new(false),
            observed_epoch: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            paused_until_ms: AtomicU64::new(0),
        }
    }

    /// The job this lease covers.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The epoch this lease holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The owning shard's id.
    pub fn owner(&self) -> &str {
        self.ledger.owner()
    }

    /// Who holds this lease's job now that this holder cannot finish it
    /// (fenced, or its commit lost): see [`Ledger::completed_by`].
    pub fn completed_by(&self) -> String {
        self.ledger.completed_by(&self.job)
    }

    /// Whether the lease has been fenced by a higher epoch — once true
    /// the holder must abandon the job without further writes.
    pub fn lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }

    /// The fencing epoch observed when the lease was lost (0 if not
    /// lost).
    pub fn observed_epoch(&self) -> u64 {
        self.observed_epoch.load(Ordering::Acquire)
    }

    /// Returns `true` exactly once after the lease is lost — gates the
    /// single `lease_lost` event per job.
    pub fn take_loss_report(&self) -> bool {
        self.lost() && !self.loss_reported.swap(true, Ordering::AcqRel)
    }

    /// Suppresses heartbeat renewals for `millis` — the stale-heartbeat
    /// fault: the shard keeps computing but its lease lapses, exactly
    /// like a long GC-style pause or NFS hiccup.
    pub fn pause(&self, millis: u64) {
        self.paused_until_ms
            .store(unix_millis() + millis, Ordering::Release);
    }

    /// Stops future heartbeats (terminal state reached); the watchdog
    /// ticker skips retired handles.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Whether the handle was retired.
    pub fn retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Renews the lease deadline. Returns `false` when the lease was
    /// lost to a fence. Paused handles skip the renewal (that is the
    /// point of the fault); transient renewal I/O errors are tolerated
    /// — the next beat retries, and peers only adopt after a full TTL
    /// of silence.
    pub fn heartbeat(&self) -> bool {
        if self.lost() {
            return false;
        }
        if self.retired() || unix_millis() < self.paused_until_ms.load(Ordering::Acquire) {
            return true;
        }
        match self.ledger.renew(&self.job, self.epoch) {
            Ok(Renewal::Renewed) => true,
            Ok(Renewal::Fenced(newest)) => {
                self.observed_epoch.store(newest, Ordering::Release);
                self.lost.store(true, Ordering::Release);
                false
            }
            Err(_) => true,
        }
    }

    /// Actively checks for a fencing epoch (called before every
    /// checkpoint save, so a fenced shard never writes over its
    /// adopter). Returns `true` when the lease is lost.
    pub fn verify_fence(&self) -> bool {
        if self.lost() {
            return true;
        }
        match self.ledger.fence_check(&self.job, self.epoch) {
            Ok(Some(newest)) => {
                self.observed_epoch.store(newest, Ordering::Release);
                self.lost.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Releases the lease cleanly (deadline zeroed) so peers re-claim
    /// without an adoption. No-op if already lost.
    pub fn release(&self) {
        self.retire();
        if !self.lost() {
            let _ = self.ledger.release(&self.job, self.epoch);
        }
    }

    /// Commits the job's completion record. Returns `false` when the
    /// lease was lost or another shard completed first — the caller
    /// must then treat the job as remotely owned.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn complete(&self, record: &CompletionRecord) -> io::Result<bool> {
        self.retire();
        if self.verify_fence() {
            return Ok(false);
        }
        self.ledger.complete(&self.job, self.epoch, record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mosaic-ledger-{tag}-{}-{}",
            std::process::id(),
            unix_millis()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ledger(root: &Path, owner: &str, ttl_ms: u64) -> Ledger {
        Ledger::open(root, owner, Duration::from_millis(ttl_ms)).unwrap()
    }

    #[test]
    fn claim_heartbeat_release_reclaim() {
        let root = temp_dir("claim");
        let a = ledger(&root, "shard-a", 5_000);
        let Claim::Claimed { lease } = a.claim("j1").unwrap() else {
            panic!("fresh job should be claimable");
        };
        assert_eq!(lease.epoch(), 1);
        assert!(lease.heartbeat());

        // A peer sees the live lease as held.
        let b = ledger(&root, "shard-b", 5_000);
        match b.claim("j1").unwrap() {
            Claim::Held { owner, epoch } => {
                assert_eq!(owner, "shard-a");
                assert_eq!(epoch, 1);
            }
            other => panic!("expected Held, got {other:?}"),
        }

        // Clean release: the next claim is a fresh claim (not an
        // adoption) at the next epoch.
        lease.release();
        match b.claim("j1").unwrap() {
            Claim::Claimed { lease } => assert_eq!(lease.epoch(), 2),
            other => panic!("expected Claimed, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn expired_lease_adopts_and_fences() {
        let root = temp_dir("adopt");
        let a = ledger(&root, "shard-a", 20);
        let Claim::Claimed { lease: lease_a } = a.claim("j1").unwrap() else {
            panic!("fresh claim");
        };
        // Let shard A's lease lapse without a release (crash model).
        std::thread::sleep(Duration::from_millis(40));

        let b = ledger(&root, "shard-b", 5_000);
        let claim = b.claim("j1").unwrap();
        let Claim::Adopted {
            lease: lease_b,
            prev_owner,
            ..
        } = claim
        else {
            panic!("expected Adopted, got {claim:?}");
        };
        assert_eq!(prev_owner, "shard-a");
        assert_eq!(lease_b.epoch(), 2);

        // The zombie's next heartbeat observes the fence and abandons.
        assert!(!lease_a.heartbeat());
        assert!(lease_a.lost());
        assert_eq!(lease_a.observed_epoch(), 2);
        assert!(lease_a.take_loss_report());
        assert!(!lease_a.take_loss_report(), "loss reports exactly once");
        assert!(lease_b.heartbeat(), "the adopter is unaffected");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn completion_is_exactly_once_and_round_trips() {
        let root = temp_dir("done");
        let a = ledger(&root, "shard-a", 20);
        let b = ledger(&root, "shard-b", 5_000);
        let Claim::Claimed { lease: lease_a } = a.claim("j1").unwrap() else {
            panic!("fresh claim");
        };
        std::thread::sleep(Duration::from_millis(40));
        let Claim::Adopted { lease: lease_b, .. } = b.claim("j1").unwrap() else {
            panic!("expected adoption");
        };

        let record = |owner: &Ledger, epoch| CompletionRecord {
            job: "j1".into(),
            owner: owner.owner().into(),
            epoch,
            outcome: JobOutcome {
                status: JobStatus::Finished,
                error: None,
                iterations: 7,
                attempts: 2,
                wall_s: 0.123,
                recoveries: 0,
                degraded: false,
                degrade_step: 1,
                metrics: Some(JobMetrics {
                    epe_violations: 3,
                    pvband_nm2: 1234.5678901234,
                    shape_violations: 0,
                    quality_score: 9876.54321,
                    contest_score: 9999.125,
                }),
            },
        };
        // The fenced straggler cannot complete; the adopter can, once.
        assert!(!lease_a.complete(&record(&a, 1)).unwrap());
        assert!(lease_b.complete(&record(&b, 2)).unwrap());
        assert!(!lease_b.complete(&record(&b, 2)).unwrap());

        let read = a.completion("j1").unwrap().unwrap();
        assert_eq!(read.owner, "shard-b");
        assert_eq!(read.epoch, 2);
        assert_eq!(read.outcome.iterations, 7);
        assert_eq!(read.outcome.degrade_step, 1);
        let m = read.outcome.metrics.unwrap();
        assert_eq!(m.pvband_nm2.to_bits(), 1234.5678901234_f64.to_bits());
        assert_eq!(m.quality_score.to_bits(), 9876.54321_f64.to_bits());

        // Completed jobs are never re-claimable.
        assert!(matches!(a.claim("j1").unwrap(), Claim::Completed));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn racing_claims_have_one_winner() {
        let root = temp_dir("race");
        let a = ledger(&root, "shard-a", 5_000);
        // Plant a rival commit at the epoch `a` is about to claim: the
        // hard-link commit point makes exactly one of them win.
        a.plant("j1", "rival", Duration::from_secs(60)).unwrap();
        let dir = root.join("j1");
        let text = render_lease("j1", "shard-a", 1, unix_millis() + 5_000);
        assert!(
            !commit_new(
                &RealVfs,
                &dir.join("lease.e1.tmp.shard-a"),
                &dir.join("lease.e1"),
                &text
            )
            .unwrap(),
            "second commit at the same epoch must lose"
        );
        assert!(matches!(a.claim("j1").unwrap(), Claim::Held { .. }));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_lease_is_claimable_not_fencing() {
        let root = temp_dir("corrupt");
        let a = ledger(&root, "shard-a", 5_000);
        std::fs::create_dir_all(root.join("j1")).unwrap();
        std::fs::write(root.join("j1/lease.e3"), "garbage, no checksum").unwrap();
        match a.claim("j1").unwrap() {
            Claim::Claimed { lease } => assert_eq!(lease.epoch(), 4),
            other => panic!("corrupt lease should be claimable, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn planted_expired_rival_is_adopted() {
        let root = temp_dir("plant");
        let a = ledger(&root, "shard-a", 5_000);
        let epoch = a.plant("j1", "ghost", Duration::ZERO).unwrap();
        assert_eq!(epoch, 1);
        match a.claim("j1").unwrap() {
            Claim::Adopted {
                lease, prev_owner, ..
            } => {
                assert_eq!(prev_owner, "ghost");
                assert_eq!(lease.epoch(), 2);
            }
            other => panic!("expected Adopted, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pause_lets_the_lease_lapse() {
        let root = temp_dir("pause");
        let a = ledger(&root, "shard-a", 30);
        let Claim::Claimed { lease } = a.claim("j1").unwrap() else {
            panic!("fresh claim");
        };
        lease.pause(10_000);
        assert!(lease.heartbeat(), "paused beats are skipped, not lost");
        std::thread::sleep(Duration::from_millis(60));
        let b = ledger(&root, "shard-b", 5_000);
        assert!(matches!(b.claim("j1").unwrap(), Claim::Adopted { .. }));
        assert!(lease.verify_fence());
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn metrics(epe: usize, pvband: f64, shape: usize, quality: f64) -> JobMetrics {
        JobMetrics {
            epe_violations: epe,
            pvband_nm2: pvband,
            shape_violations: shape,
            quality_score: quality,
            contest_score: quality + 0.125,
        }
    }

    /// The six terminal shapes the format pins run through every
    /// renderer, each built as the code that ends such a job builds it:
    /// a report's outcome (a finished run, or a cancel / time-out that
    /// salvaged its best-so-far mask), a failure with or without
    /// checkpoint salvage, and a cancellation that produced no report.
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
    fn job_finish_line_per_terminal_shape_is_pinned() {
        let expected = [
            "{\"event\":\"job_finish\",\"job\":\"B2-fast\",\"status\":\"finished\",\"iterations\":10,\"epe_violations\":3,\"pvband_nm2\":1234.5678901234,\"shape_violations\":0,\"quality_score\":98765.4321,\"wall_s\":1.5,\"attempts\":1,\"recoveries\":1,\"degraded\":false,\"degrade_step\":0,\"t\":0.5}",
            "{\"event\":\"job_finish\",\"job\":\"B2-fast\",\"status\":\"cancelled\",\"iterations\":1,\"epe_violations\":7,\"pvband_nm2\":2048.5,\"shape_violations\":1,\"quality_score\":150000,\"wall_s\":0.25,\"attempts\":1,\"recoveries\":0,\"degraded\":true,\"degrade_step\":0,\"t\":0.5}",
            "{\"event\":\"job_finish\",\"job\":\"B2-fast\",\"status\":\"timed_out\",\"iterations\":3,\"epe_violations\":5,\"pvband_nm2\":0.1,\"shape_violations\":0,\"quality_score\":120000.75,\"wall_s\":2,\"attempts\":2,\"recoveries\":0,\"degraded\":true,\"degrade_step\":1,\"t\":0.5}",
            "{\"event\":\"job_finish\",\"job\":\"B2-fast\",\"status\":\"failed\",\"error\":\"job panicked: injected fault: B2-fast panics at iteration 1\",\"iterations\":0,\"epe_violations\":9,\"pvband_nm2\":4096,\"shape_violations\":2,\"quality_score\":150000,\"wall_s\":0,\"attempts\":2,\"recoveries\":0,\"degraded\":true,\"degrade_step\":1,\"t\":0.5}",
            "{\"event\":\"job_finish\",\"job\":\"B2-fast\",\"status\":\"failed\",\"error\":\"clip B2 (1024x1024 nm) does not fit\",\"iterations\":0,\"epe_violations\":0,\"pvband_nm2\":null,\"shape_violations\":0,\"quality_score\":null,\"wall_s\":0,\"attempts\":2,\"recoveries\":0,\"degraded\":false,\"degrade_step\":0,\"t\":0.5}",
            "{\"event\":\"job_finish\",\"job\":\"B2-fast\",\"status\":\"cancelled\",\"error\":\"job panicked: injected fault: B2-fast panics at iteration 0\",\"iterations\":0,\"epe_violations\":0,\"pvband_nm2\":null,\"shape_violations\":0,\"quality_score\":null,\"wall_s\":0,\"attempts\":1,\"recoveries\":0,\"degraded\":false,\"degrade_step\":0,\"t\":0.5}",
        ];
        for ((name, outcome), want) in shapes().into_iter().zip(expected) {
            let job = "B2-fast".to_string();
            let line = Event::JobFinish { job, outcome }.to_json(0.5);
            assert_eq!(line, want, "{name}");
        }
    }

    #[test]
    fn done_record_per_terminal_shape_is_pinned_and_round_trips() {
        let expected = [
            "mosaic-done v1\njob B2-fast\nowner shard-a\nepoch 3\nstatus finished\niterations 10\nattempts 1\nwall_ms 1500\ndegraded 0\ndegrade_step 0\nmetrics 3 0 40934a4584fd0ee6 40f81cd6e9e1b08a 40f81cd8e9e1b08a\nchecksum 0847c611a251dbde\n",
            "mosaic-done v1\njob B2-fast\nowner shard-a\nepoch 3\nstatus cancelled\niterations 1\nattempts 1\nwall_ms 250\ndegraded 1\ndegrade_step 0\nmetrics 7 1 40a0010000000000 41024f8000000000 41024f8100000000\nchecksum 3f42dca12bf11f57\n",
            "mosaic-done v1\njob B2-fast\nowner shard-a\nepoch 3\nstatus timed_out\niterations 3\nattempts 2\nwall_ms 2000\ndegraded 1\ndegrade_step 1\nmetrics 5 0 3fb999999999999a 40fd4c0c00000000 40fd4c0e00000000\nchecksum cf3649eb273a7ae7\n",
            "mosaic-done v1\njob B2-fast\nowner shard-a\nepoch 3\nstatus failed\niterations 0\nattempts 2\nwall_ms 0\ndegraded 1\ndegrade_step 1\nerror job panicked: injected fault: B2-fast panics at iteration 1\nmetrics 9 2 40b0000000000000 41024f8000000000 41024f8100000000\nchecksum d34baec58740e54a\n",
            "mosaic-done v1\njob B2-fast\nowner shard-a\nepoch 3\nstatus failed\niterations 0\nattempts 2\nwall_ms 0\ndegraded 0\ndegrade_step 0\nerror clip B2 (1024x1024 nm) does not fit\nchecksum f6300b2bb42baf40\n",
            "mosaic-done v1\njob B2-fast\nowner shard-a\nepoch 3\nstatus cancelled\niterations 0\nattempts 1\nwall_ms 0\ndegraded 0\ndegrade_step 0\nerror job panicked: injected fault: B2-fast panics at iteration 0\nchecksum 4824dba0fa840fdd\n",
        ];
        for ((name, outcome), want) in shapes().into_iter().zip(expected) {
            // Cancelled runs release their lease instead of committing;
            // their records are rendered all the same, to pin the format.
            let record = CompletionRecord {
                job: "B2-fast".to_string(),
                owner: "shard-a".to_string(),
                epoch: 3,
                outcome,
            };
            let text = render_done(&record);
            assert_eq!(text, want, "{name}");
            let read = parse_done(&text).expect("a rendered record parses");
            assert_eq!(read.job, record.job, "{name}");
            assert_eq!(read.owner, record.owner, "{name}");
            assert_eq!(read.epoch, record.epoch, "{name}");
            let (read, record) = (read.outcome, record.outcome);
            assert_eq!(read.status, record.status, "{name}");
            assert_eq!(read.error, record.error, "{name}");
            assert_eq!(read.iterations, record.iterations, "{name}");
            assert_eq!(read.attempts, record.attempts, "{name}");
            assert_eq!(read.wall_s.to_bits(), record.wall_s.to_bits(), "{name}");
            assert_eq!(read.degraded, record.degraded, "{name}");
            assert_eq!(read.degrade_step, record.degrade_step, "{name}");
            let bits = |m: Option<JobMetrics>| {
                m.map(|m| {
                    (
                        m.epe_violations,
                        m.shape_violations,
                        m.pvband_nm2.to_bits(),
                        m.quality_score.to_bits(),
                        m.contest_score.to_bits(),
                    )
                })
            };
            assert_eq!(bits(read.metrics), bits(record.metrics), "{name}");
        }
    }

    #[test]
    fn post_and_payload_round_trip() {
        let root = temp_dir("post");
        let a = ledger(&root, "shard-a", 5_000);
        assert!(a.post("j1", "clip=B3;mode=fast").unwrap());
        assert!(!a.post("j1", "something else").unwrap(), "posts are once");
        assert_eq!(a.payload("j1").unwrap().unwrap(), "clip=B3;mode=fast");
        assert_eq!(a.payload("nope").unwrap(), None);
        assert!(a.post("j0", "clip=B1;mode=fast").unwrap());
        assert_eq!(a.posted_jobs().unwrap(), vec!["j0", "j1"]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

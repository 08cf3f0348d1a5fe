//! Worker pool and the attempt loop: panic isolation, retry and
//! cooperative cancel.
//!
//! Both are deliberately generic: [`run_pool`] maps any `Fn(&T) -> R`
//! over a slice of items until cancelled, and [`run_attempts`] drives
//! any `FnMut(u32) -> Result<R, E>` (`E: Into<AttemptError>`) through
//! its attempts. That keeps the scheduling policy (work stealing off a
//! shared counter, retry, panic capture) testable without running
//! actual lithography jobs. The OPC-specific runner,
//! [`crate::job::run_job`], is [`run_attempts`] over
//! [`crate::job::execute_job`] plus the job's outcome and ledger
//! commit.

use crate::ledger::LeaseHandle;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// The worker count that saturates this host:
/// `std::thread::available_parallelism()`, or 1 when the host cannot
/// report it. Benchmarks on a 1-CPU host show over-subscription is
/// strictly slower (BENCH_runtime.json: jobs=2/4 lose 8–26 % to
/// jobs=1), so this is both the default and the clamp ceiling for
/// user-requested worker counts.
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Clamps a requested worker count to `1..=default_workers()`.
pub fn clamp_workers(requested: usize) -> usize {
    requested.clamp(1, default_workers())
}

/// Clamps a requested per-job thread count so `jobs × threads` never
/// exceeds [`default_workers`] — intra-job threads multiply the job
/// fan-out, and over-subscription is strictly slower (see
/// [`default_workers`]). Always at least 1.
pub fn clamp_threads(jobs: usize, requested: usize) -> usize {
    requested.clamp(1, (default_workers() / jobs.max(1)).max(1))
}

/// How failed attempts are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per failed item (0 = one attempt only). Each item gets
    /// `1 + retries` attempts before it is reported failed.
    pub retries: u32,
    /// Pause on the failing worker before each retry. Zero by default;
    /// useful when failures are transient resource contention.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// No retries: every item gets exactly one attempt.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// `retries` retries with no backoff.
    pub fn retries(retries: u32) -> Self {
        RetryPolicy {
            retries,
            backoff: Duration::ZERO,
        }
    }
}

/// Cooperative cancellation flag shared between the batch driver and
/// every worker/job. Cancelling is sticky and idempotent.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation: running jobs stop at their next iteration
    /// boundary, queued jobs are not started.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Terminal state of one scheduled item.
#[derive(Debug)]
pub enum JobExecution<R> {
    /// The runner returned `Ok` (possibly after a retry).
    Success {
        /// The runner's result.
        result: R,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
    },
    /// Every attempt returned `Err` or panicked.
    Failure {
        /// The last error (panic payloads are rendered into the string).
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Cancellation was requested before the item produced a result:
    /// either it never started (`attempts == 0`) or an attempt failed
    /// and cancellation stopped the retry.
    Cancelled {
        /// Attempts consumed.
        attempts: u32,
        /// The last attempt's error, when one ran.
        error: Option<String>,
    },
    /// The item was (or is being) handled by another process sharing
    /// the job ledger — this process holds no result for it.
    Remote {
        /// Ledger owner id of the process that holds (or held) the job.
        owner: String,
    },
}

impl<R> JobExecution<R> {
    /// The result, if this execution succeeded.
    pub fn success(&self) -> Option<&R> {
        match self {
            JobExecution::Success { result, .. } => Some(result),
            _ => None,
        }
    }
}

/// Why an attempt failed, and whether another attempt could change it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptError {
    /// A failure a later attempt may not repeat (a crash mid-run, a
    /// stall, a checkpoint read): [`run_attempts`] retries it while the
    /// policy allows.
    Retryable(String),
    /// A failure that depends only on the item itself (a job whose clip,
    /// simulator or problem cannot be set up from its spec): every
    /// attempt would fail the same way, so [`run_attempts`] ends after
    /// this one.
    Final(String),
}

impl From<String> for AttemptError {
    fn from(message: String) -> Self {
        AttemptError::Retryable(message)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `runner` over every item on a pool of `workers` OS threads and
/// returns one result per item, in input order.
///
/// * Items are claimed off a shared atomic counter, so workers stay busy
///   until the queue drains regardless of per-item cost.
/// * The runner takes an item to its terminal state — typically through
///   [`run_attempts`], which catches panics, so one bad job cannot sink
///   the batch or its worker.
/// * If `cancel` fires, in-flight items finish (the runner is expected
///   to poll the token itself for a prompt stop) and unclaimed items
///   come back `None` without being started.
///
/// `workers` is clamped to at least 1. With one worker the execution
/// order is exactly the input order, which makes single-threaded runs
/// reproducible baselines for the parallel ones.
pub fn run_pool<T, R>(
    items: &[T],
    workers: usize,
    cancel: &CancelToken,
    runner: &(dyn Fn(&T) -> R + Sync),
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Option<R>)>();
    thread::scope(|s| {
        for _ in 0..workers.max(1) {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let result = (!cancel.is_cancelled()).then(|| runner(&items[i]));
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<Option<R>>> = (0..items.len()).map(|_| None).collect();
        for (i, result) in rx {
            out[i] = Some(result);
        }
        // A worker reports every item it claims unless the runner
        // panicked, and the scope re-raises that panic on exit, so a
        // returned vector has no hole.
        out.into_iter().flatten().collect()
    })
}

/// Runs one item's attempts to a terminal [`JobExecution`]: the only
/// attempt loop in the runtime. `attempt` receives the 1-based attempt
/// number (2 on the retry after a failure).
///
/// * A panicking attempt is caught ([`catch_unwind`]) and counts as a
///   failed attempt.
/// * The item gets `1 + policy.retries` attempts before it is reported
///   failed, with `policy.backoff` slept before each retry. An
///   [`AttemptError::Final`] is reported failed at once.
/// * After a failed attempt, a fenced `lease` ends the loop as
///   [`JobExecution::Remote`] (the adopter owns the job now) and a
///   fired `cancel` as [`JobExecution::Cancelled`]; neither is retried.
pub fn run_attempts<R, E: Into<AttemptError>>(
    policy: RetryPolicy,
    cancel: &CancelToken,
    lease: Option<&LeaseHandle>,
    mut attempt: impl FnMut(u32) -> Result<R, E>,
) -> JobExecution<R> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt(attempts)));
        let (error, last) = match outcome.map(|r| r.map_err(Into::into)) {
            Ok(Ok(result)) => return JobExecution::Success { result, attempts },
            Ok(Err(AttemptError::Retryable(e))) => (e, false),
            Ok(Err(AttemptError::Final(e))) => (e, true),
            Err(payload) => (format!("job panicked: {}", panic_message(payload)), false),
        };
        if let Some(lease) = lease.filter(|lease| lease.lost()) {
            return JobExecution::Remote {
                owner: lease.completed_by(),
            };
        }
        // During shutdown an errored attempt is cancellation, not
        // failure — and never worth a retry.
        if cancel.is_cancelled() {
            return JobExecution::Cancelled {
                attempts,
                error: Some(error),
            };
        }
        if last || attempts > policy.retries {
            return JobExecution::Failure { error, attempts };
        }
        if !policy.backoff.is_zero() {
            thread::sleep(policy.backoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// Every item through [`run_attempts`] on [`run_pool`], with no
    /// ledger lease: the plain batch's shape. Items the pool skipped
    /// after `cancel` fired come back cancelled with no attempt, as the
    /// batch reports them.
    fn pool<T: Sync, R: Send>(
        items: &[T],
        workers: usize,
        policy: RetryPolicy,
        cancel: &CancelToken,
        runner: &(dyn Fn(&T, u32) -> Result<R, String> + Sync),
    ) -> Vec<JobExecution<R>> {
        run_pool(items, workers, cancel, &|item| {
            run_attempts(policy, cancel, None, |attempt| runner(item, attempt))
        })
        .into_iter()
        .map(|execution| {
            execution.unwrap_or(JobExecution::Cancelled {
                attempts: 0,
                error: None,
            })
        })
        .collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..20).collect();
        let out = pool(
            &items,
            4,
            RetryPolicy::none(),
            &CancelToken::new(),
            &|&i, _| Ok::<_, String>(i * i),
        );
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.success(), Some(&(i * i)));
        }
    }

    #[test]
    fn panicking_item_fails_without_sinking_the_pool() {
        let items: Vec<usize> = (0..8).collect();
        let out = pool(
            &items,
            3,
            RetryPolicy::none(),
            &CancelToken::new(),
            &|&i, _| {
                if i == 3 {
                    panic!("boom on {i}");
                }
                Ok::<_, String>(i)
            },
        );
        for (i, e) in out.iter().enumerate() {
            if i == 3 {
                match e {
                    JobExecution::Failure { error, attempts } => {
                        assert!(error.contains("boom on 3"), "error: {error}");
                        assert_eq!(*attempts, 1);
                    }
                    other => panic!("expected failure, got {other:?}"),
                }
            } else {
                assert_eq!(e.success(), Some(&i));
            }
        }
    }

    #[test]
    fn one_retry_rescues_a_flaky_item() {
        let tries: Mutex<HashMap<usize, u32>> = Mutex::new(HashMap::new());
        let items: Vec<usize> = (0..4).collect();
        let out = pool(
            &items,
            2,
            RetryPolicy::retries(1),
            &CancelToken::new(),
            &|&i, _| {
                let mut map = tries.lock().unwrap();
                let n = map.entry(i).or_insert(0);
                *n += 1;
                if i == 2 && *n == 1 {
                    return Err("transient".to_string());
                }
                Ok(i)
            },
        );
        match &out[2] {
            JobExecution::Success { result, attempts } => {
                assert_eq!(*result, 2);
                assert_eq!(*attempts, 2);
            }
            other => panic!("expected retried success, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        let out = pool(
            &[7usize],
            1,
            RetryPolicy::retries(1),
            &CancelToken::new(),
            &|&i, _| Err::<usize, _>(format!("always fails: {i}")),
        );
        match &out[0] {
            JobExecution::Failure { error, attempts } => {
                assert_eq!(error, "always fails: 7");
                assert_eq!(*attempts, 2);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn backoff_delays_each_retry() {
        let policy = RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(30),
        };
        let start = std::time::Instant::now();
        let out = pool(&[0usize], 1, policy, &CancelToken::new(), &|_, _| {
            Err::<usize, _>("always".to_string())
        });
        // 3 attempts → 2 backoff sleeps of 30 ms each.
        assert!(
            start.elapsed() >= Duration::from_millis(60),
            "backoff not applied: {:?}",
            start.elapsed()
        );
        match &out[0] {
            JobExecution::Failure { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_pool_skips_unstarted_items() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let items: Vec<usize> = (0..5).collect();
        let out = pool(&items, 2, RetryPolicy::none(), &cancel, &|&i, _| {
            Ok::<_, String>(i)
        });
        assert!(out.iter().all(|e| matches!(
            e,
            JobExecution::Cancelled {
                attempts: 0,
                error: None
            }
        )));
    }

    #[test]
    fn cancel_between_attempts_keeps_the_attempt_count_and_last_error() {
        let cancel = CancelToken::new();
        let execution = run_attempts(RetryPolicy::retries(3), &cancel, None, |attempt| {
            cancel.cancel();
            Err::<(), _>(format!("attempt {attempt} failed"))
        });
        match execution {
            JobExecution::Cancelled { attempts, error } => {
                assert_eq!(attempts, 1, "no retry after the cancel");
                assert_eq!(error.as_deref(), Some("attempt 1 failed"));
            }
            other => panic!("expected a cancellation, got {other:?}"),
        }
    }

    #[test]
    fn final_error_runs_once_with_retries_and_backoff_left() {
        let policy = RetryPolicy {
            retries: 3,
            backoff: Duration::from_secs(1),
        };
        let mut calls = 0;
        let execution = run_attempts(policy, &CancelToken::new(), None, |attempt| {
            calls += 1;
            Err::<(), _>(AttemptError::Final(format!("attempt {attempt}: no fit")))
        });
        match execution {
            JobExecution::Failure { error, attempts } => {
                assert_eq!(attempts, 1, "no retry after a final error");
                assert_eq!(error, "attempt 1: no fit");
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let out = pool(
            &[1usize, 2],
            0,
            RetryPolicy::none(),
            &CancelToken::new(),
            &|&i, _| Ok::<_, String>(i + 1),
        );
        assert_eq!(out[0].success(), Some(&2));
        assert_eq!(out[1].success(), Some(&3));
    }
}

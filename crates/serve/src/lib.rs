//! Long-running network OPC service over the MOSAIC batch runtime.
//!
//! `mosaic batch` answers one queue and exits; real mask shops run OPC
//! as a *service* — layouts arrive continuously, clients want live
//! progress, and identical resubmissions should cost nothing. This
//! crate turns the batch runtime into that service without adding a
//! single dependency: a std-only TCP daemon speaking a line-oriented
//! protocol you can drive with `nc`.
//!
//! * [`protocol`] — the wire grammar: newline-delimited
//!   `submit` / `watch` / `fetch` / `cancel` / `stats` / `ping` /
//!   `shutdown` requests in, one JSON object per line out, every
//!   string routed through the runtime's wire-safe escaper.
//! * [`store`] — the shared in-memory job registry: lifecycle states
//!   (queued → running → done / failed / salvaged / cancelled) plus an
//!   append-only per-job JSONL feed that makes watch streams lossless
//!   for late and concurrent subscribers alike.
//! * [`result_cache`] — an LRU of completed answers keyed on the
//!   FNV-1a fingerprint of the canonical submission parameters, so a
//!   repeated clip+preset is answered without scheduling a worker.
//! * [`server`] — the daemon: a thread-per-connection listener behind
//!   a semaphore-bounded connection gate, a worker pool running every
//!   job through [`mosaic_runtime::run_job`] (the batch runtime's own
//!   attempt loop, retry / salvage ladder and ledger policy), an
//!   optional supervision watchdog, and two-speed (`drain` / `now`)
//!   cooperative shutdown. With a shared ledger, several daemons serve
//!   one queue; a job whose lease a peer fenced, or whose completion a
//!   peer committed first, finishes from the peer's `done` record.
//! * [`client`] — a thin blocking client used by the `mosaic submit` /
//!   `watch` / `stats` CLI modes and the loopback tests.
//!
//! ```no_run
//! use mosaic_serve::prelude::*;
//!
//! let handle = ServerHandle::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })?;
//! let mut client = Client::connect(handle.addr())?;
//! let reply = client.request("submit clip=B1 grid=128 pixel=8 iterations=2")?;
//! assert!(reply.starts_with("{\"ok\":true"));
//! handle.stop(true); // drain: running jobs finish, then exit
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod handler;
pub mod protocol;
pub mod result_cache;
pub mod server;
pub mod store;

pub use client::Client;
pub use protocol::{parse_request, Request, SubmitParams};
pub use result_cache::{CacheStats, CachedResult, ResultCache};
pub use server::{ServeConfig, ServerHandle, ShutdownHandle};
pub use store::{JobRecord, JobState, JobStore, StoreCounts};

/// Convenience re-exports for `use mosaic_serve::prelude::*`.
pub mod prelude {
    pub use crate::client::Client;
    pub use crate::protocol::{parse_request, Request, SubmitParams};
    pub use crate::result_cache::{CacheStats, CachedResult, ResultCache};
    pub use crate::server::{ServeConfig, ServerHandle, ShutdownHandle};
    pub use crate::store::{JobRecord, JobState, JobStore, StoreCounts};
}

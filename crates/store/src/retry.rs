//! Retry with capped exponential backoff and per-job deadlines.
//!
//! The sweep's graceful-degradation contract lives here: transient
//! store I/O failures (`EINTR`-class blips, a momentarily full disk)
//! are retried with capped exponential backoff until a per-job
//! deadline; when retries run out the job fails with a typed
//! [`FailReason`] and the sweep *continues* — one sick cell is reported,
//! not allowed to poison the run. Simulation errors (OOM, no reference
//! instance) are permanent by construction and never enter the retry
//! loop.

use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Retry/backoff parameters for one store-backed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Wall-clock budget for the whole job, milliseconds.
    pub deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            deadline_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), capped.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(16);
        let ms = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms);
        Duration::from_millis(ms)
    }
}

/// Why a sweep cell failed permanently. Its [`FailReason::code`] is the
/// results CSV `status` column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum FailReason {
    /// Store I/O kept failing until retries ran out.
    RetriesExhausted {
        /// Attempts made (== policy `max_attempts`).
        attempts: u32,
        /// The last I/O error, stringified.
        last_error: String,
    },
    /// The per-job deadline elapsed before an attempt succeeded.
    DeadlineExceeded {
        /// Wall-clock spent, milliseconds.
        elapsed_ms: u64,
        /// The last I/O error, stringified.
        last_error: String,
    },
    /// The simulation itself rejected the cell (OOM, no reference
    /// instance) — permanent, never retried.
    Profile {
        /// The profiler error, stringified.
        error: String,
    },
}

impl FailReason {
    /// Short machine-readable code for CSV columns and exit summaries.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            FailReason::RetriesExhausted { .. } => "retries-exhausted",
            FailReason::DeadlineExceeded { .. } => "deadline-exceeded",
            FailReason::Profile { .. } => "profile-error",
        }
    }
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::RetriesExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts: {last_error}"
            ),
            FailReason::DeadlineExceeded {
                elapsed_ms,
                last_error,
            } => write!(f, "deadline exceeded after {elapsed_ms} ms: {last_error}"),
            FailReason::Profile { error } => write!(f, "profile error: {error}"),
        }
    }
}

/// Runs `op` under `policy`: every [`io::Error`] is treated as
/// transient and retried with capped exponential backoff until attempts
/// or the deadline run out. Each retry increments the
/// `stash_store_retries_total` counter.
///
/// # Errors
///
/// [`FailReason::RetriesExhausted`] or [`FailReason::DeadlineExceeded`],
/// carrying the last underlying error.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, FailReason> {
    let started = Instant::now();
    let attempts = policy.max_attempts.max(1);
    let mut last_error = String::new();
    for attempt in 1..=attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last_error = e.to_string(),
        }
        if attempt == attempts {
            break;
        }
        let backoff = policy.backoff(attempt);
        let elapsed = started.elapsed();
        if elapsed + backoff > Duration::from_millis(policy.deadline_ms) {
            return Err(FailReason::DeadlineExceeded {
                elapsed_ms: elapsed.as_millis() as u64,
                last_error,
            });
        }
        stash_telemetry::metrics::STORE_RETRIES.inc();
        std::thread::sleep(backoff);
    }
    Err(FailReason::RetriesExhausted {
        attempts,
        last_error,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            deadline_ms: 10_000,
        }
    }

    #[test]
    fn first_try_success_needs_no_retry() {
        let calls = Cell::new(0u32);
        let out = with_retry(&fast(), || {
            calls.set(calls.get() + 1);
            Ok::<_, io::Error>(7)
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn transient_failure_is_retried_to_success() {
        let calls = Cell::new(0u32);
        let out = with_retry(&fast(), || {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "blip"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_error() {
        let out: Result<(), _> = with_retry(&fast(), || Err(io::Error::other("still broken")));
        match out.unwrap_err() {
            FailReason::RetriesExhausted {
                attempts,
                last_error,
            } => {
                assert_eq!(attempts, 3);
                assert!(last_error.contains("still broken"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadline_cuts_the_loop_short() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff_ms: 50,
            max_backoff_ms: 50,
            deadline_ms: 1,
        };
        let out: Result<(), _> = with_retry(&policy, || Err(io::Error::other("x")));
        assert!(matches!(
            out.unwrap_err(),
            FailReason::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 10,
            max_backoff_ms: 45,
            deadline_ms: 1_000,
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(45));
        assert_eq!(p.backoff(30), Duration::from_millis(45));
    }

    #[test]
    fn fail_reason_codes_and_messages() {
        let r = FailReason::Profile {
            error: "model does not fit".to_string(),
        };
        assert_eq!(r.code(), "profile-error");
        assert!(r.to_string().contains("model does not fit"));
    }
}

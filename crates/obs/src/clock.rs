//! The workspace's single wall-clock authority.
//!
//! Every monotonic-clock read in library code routes through this file,
//! which keeps the NAB001 whitelist exactly one file wide: any other
//! `Instant::now()`/`SystemTime::now()` is a `clippy::disallowed_methods`
//! error (see `docs/lint.md`). Wall time in this workspace is strictly
//! *observational* — it feeds timed JSON, traces, and perf baselines,
//! never canonical output or control flow — and funneling the reads
//! through one audited chokepoint is what makes that claim checkable.

use std::time::Instant;

/// Reads the process monotonic clock.
///
/// The only sanctioned way for library code to obtain an [`Instant`].
#[inline]
#[expect(clippy::disallowed_methods, reason = "the one sanctioned clock read")]
pub fn mono_now() -> Instant {
    Instant::now()
}

/// Nanoseconds elapsed since `since`, saturating into `u64`.
///
/// Companion to [`mono_now`] for the ubiquitous
/// `let t0 = mono_now(); … elapsed_ns(t0)` measurement pattern.
#[inline]
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_now_is_monotonic() {
        let a = mono_now();
        let b = mono_now();
        assert!(b >= a);
    }

    #[test]
    fn elapsed_ns_is_nonnegative_and_grows() {
        let t0 = mono_now();
        let first = elapsed_ns(t0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let second = elapsed_ns(t0);
        assert!(second > first);
    }
}

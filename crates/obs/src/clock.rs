//! Caller-supplied time sources.
//!
//! No clock here reads real time, so a trace is a function of the run
//! that wrote it: simulations stamp telemetry with their logical time
//! via [`Clock::manual`], and CLI paths that want monotonically
//! increasing but reproducible timestamps use [`Clock::counting`].
//! Speed is measured outside the libraries, by `benchmark/`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

enum Source {
    /// Logical time, advanced explicitly by the owner (e.g. a
    /// simulation loop calling [`Clock::set_ms`] once per tick).
    Manual(AtomicU64),
    /// Deterministic pseudo-time: every read returns the previous
    /// value plus a fixed step, so spans get non-zero, reproducible
    /// durations without any wall-clock dependence.
    Counting { next: AtomicU64, step_ms: u64 },
}

/// A cloneable, thread-safe time source reporting milliseconds.
///
/// A manual clock allocates its shared cell when it is first set or
/// cloned; until then it is just its start value, so the clock of an
/// [`crate::Obs::disabled`] bundle is free.
pub struct Clock {
    /// What an unshared manual clock reads.
    start_ms: u64,
    source: OnceLock<Arc<Source>>,
}

impl Clone for Clock {
    fn clone(&self) -> Self {
        Self::of(self.start_ms, Arc::clone(self.shared()))
    }
}

impl Clock {
    fn of(start_ms: u64, source: Arc<Source>) -> Self {
        Self {
            start_ms,
            source: OnceLock::from(source),
        }
    }

    fn shared(&self) -> &Arc<Source> {
        self.source
            .get_or_init(|| Arc::new(Source::Manual(AtomicU64::new(self.start_ms))))
    }

    /// A logical clock starting at `start_ms`; reads return the last
    /// value passed to [`Clock::set_ms`] (or `start_ms`).
    #[inline]
    #[must_use]
    pub fn manual(start_ms: u64) -> Self {
        Self {
            start_ms,
            source: OnceLock::new(),
        }
    }

    /// A counting clock: the first read returns 0, each subsequent
    /// read advances by `step_ms` (minimum 1).
    #[must_use]
    pub fn counting(step_ms: u64) -> Self {
        Self::of(
            0,
            Arc::new(Source::Counting {
                next: AtomicU64::new(0),
                step_ms: step_ms.max(1),
            }),
        )
    }

    /// Current time in milliseconds. Counting clocks advance on read.
    #[inline]
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        match self.source.get().map(|source| &**source) {
            None => self.start_ms,
            Some(Source::Manual(ms)) => ms.load(Ordering::Acquire),
            Some(Source::Counting { next, step_ms }) => next.fetch_add(*step_ms, Ordering::AcqRel),
        }
    }

    /// Set a manual clock to `ms`. No-op for other sources.
    pub fn set_ms(&self, ms: u64) {
        if let Source::Manual(cur) = &**self.shared() {
            cur.store(ms, Ordering::Release);
        }
    }

    /// Advance a manual clock by `delta_ms`. No-op for other sources.
    pub fn advance_ms(&self, delta_ms: u64) {
        if let Source::Manual(cur) = &**self.shared() {
            cur.fetch_add(delta_ms, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_holds_until_set() {
        let c = Clock::manual(5);
        assert_eq!(c.now_ms(), 5);
        assert_eq!(c.now_ms(), 5);
        c.set_ms(9);
        assert_eq!(c.now_ms(), 9);
        c.advance_ms(3);
        assert_eq!(c.now_ms(), 12);
    }

    #[test]
    fn counting_advances_per_read() {
        let c = Clock::counting(2);
        assert_eq!(c.now_ms(), 0);
        assert_eq!(c.now_ms(), 2);
        assert_eq!(c.now_ms(), 4);
        c.set_ms(100); // no-op for counting clocks
        assert_eq!(c.now_ms(), 6);
    }

    #[test]
    fn clones_share_state() {
        let a = Clock::manual(0);
        let b = a.clone();
        a.set_ms(42);
        assert_eq!(b.now_ms(), 42);
    }

    #[test]
    fn counting_zero_step_clamps_to_one() {
        let c = Clock::counting(0);
        assert_eq!(c.now_ms(), 0);
        assert_eq!(c.now_ms(), 1);
    }
}

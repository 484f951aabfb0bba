//! Parallel scenario sweep machinery.
//!
//! Routing a failure scenario depends only on its `dead_links` *set* —
//! not on its probability, label, or position in the scenario list — so
//! a sweep only has to route each distinct failure set once; the
//! [`RoutePlan`](entitlement_topology::RoutePlan) it routes through
//! holds that index. Enumerated sets are already distinct, but
//! Monte-Carlo sampling draws the same few failure sets over and over
//! (the healthy network alone is usually the large majority of draws),
//! which makes deduplication a superlinear win on sampled sets.
//!
//! Parallelism uses a fixed chunk-per-worker partition of the routed
//! list and merges results in list order, so the output is a pure
//! function of the inputs: identical for any worker count, bitwise equal
//! to the serial sweep.

use entitlement_obs::Obs;
use std::thread;

/// Resolve a `workers` knob: `0` means one worker per available core,
/// anything else is taken literally; always within `[1, jobs]`.
pub fn effective_workers(workers: usize, jobs: usize) -> usize {
    let requested = if workers == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        workers
    };
    requested.clamp(1, jobs.max(1))
}

/// The fan-out under [`sweep_ordered_obs`]. The partition is a fixed
/// contiguous chunk per worker (the first `len % workers` chunks get
/// one extra item), and chunk results are concatenated in chunk order
/// after all workers join — thread timing can never reorder the output,
/// so any worker count produces the exact byte-for-byte result of the
/// `workers == 1` path.
fn sweep_ordered<T, F>(items: &[usize], workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = items.len();
    let workers = effective_workers(workers, n);
    if workers <= 1 {
        return items.iter().map(|&i| job(i)).collect();
    }
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(n);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0;
        for c in 0..workers {
            let len = base + usize::from(c < extra);
            let chunk = &items[start..start + len];
            start += len;
            let job = &job;
            handles.push(scope.spawn(move || chunk.iter().map(|&i| job(i)).collect::<Vec<T>>()));
        }
        for handle in handles {
            out.extend(handle.join().expect("sweep worker panicked"));
        }
    });
    out
}

/// `job` over every element of `items` on `workers` scoped threads,
/// results in input order — the same for any worker count and whatever
/// `obs` is. The obs clock is read around each item, traced or not, so
/// a counting clock advances alike either way.
///
/// On the **serial** path (one resolved worker) of a traced `obs`
/// (see [`Obs::enabled`]) each item also emits a `risk`/`scenario`
/// trace event, parented under whatever span is open (the
/// `risk`/`sweep` span) and timed by those two reads; the metrics fold
/// reads `entitlement_risk_scenario_ms` off them. Parallel sweeps emit
/// none: worker threads would otherwise interleave event order by
/// scheduling, breaking byte-identical traces. Every CI byte-equality
/// gate runs `workers = 1`.
pub fn sweep_ordered_obs<T, F>(items: &[usize], workers: usize, obs: &Obs, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let clock = obs.clock.clone();
    if obs.enabled() && effective_workers(workers, items.len()) == 1 {
        let trace = obs.trace.clone();
        return sweep_ordered(items, 1, move |i| {
            let t0 = clock.now_ms();
            let out = job(i);
            let dur = clock.now_ms().saturating_sub(t0) as f64;
            trace
                .child(t0, dur, "risk", "scenario")
                .label_fmt("scenario", i)
                .finish();
            out
        });
    }
    sweep_ordered(items, workers, move |i| {
        let _ = clock.now_ms();
        let out = job(i);
        let _ = clock.now_ms();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..103).collect();
        let serial = sweep_ordered(&items, 1, |i| i * 7);
        for workers in [2, 3, 8, 64] {
            assert_eq!(sweep_ordered(&items, workers, |i| i * 7), serial);
        }
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(1, 100), 1);
        assert_eq!(effective_workers(5, 0), 1);
        assert!(effective_workers(0, 100) >= 1);
    }
}

//! Parallel experiment sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs one independently seeded experiment per sweep point across a pool
/// of scoped worker threads.
///
/// Each sweep point is a self-contained configuration (its own seeds, its
/// own dataset, its own system), so points share no mutable state and the
/// parallel execution produces *exactly* the numbers the serial loop
/// produces — results come back in input order regardless of which worker
/// finished first. Workers pull points off a shared atomic cursor, so
/// imbalanced points (e.g. larger query sizes) self-balance.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSweep {
    threads: usize,
}

impl ParallelSweep {
    /// A sweep over exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self { threads }
    }

    /// One worker per available hardware thread (at least one).
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `run` on every point, returning results in input order.
    /// `run` receives the point's index and the point itself.
    pub fn run<P, T, F>(&self, points: &[P], run: F) -> Vec<T>
    where
        P: Sync,
        T: Send,
        F: Fn(usize, &P) -> T + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = points.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(points.len().max(1)) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let result = run(i, &points[i]);
                    *slots[i]
                        .lock()
                        .expect("invariant: sweep workers never panic while holding a slot") =
                        Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("invariant: sweep workers never panic while holding a slot")
                    .expect("invariant: the cursor hands every sweep point to exactly one worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let points: Vec<u64> = (0..37).collect();
        let sweep = ParallelSweep::new(4);
        let results = sweep.run(&points, |i, p| {
            // Stagger finish order to exercise the reordering.
            std::thread::sleep(std::time::Duration::from_micros(37 - *p));
            (i, p * 2)
        });
        for (i, (idx, doubled)) in results.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, points[i] * 2);
        }
    }

    #[test]
    fn matches_serial_execution() {
        let points: Vec<u64> = (0..16).collect();
        let f = |_: usize, p: &u64| p.wrapping_mul(0x9e37_79b9).rotate_left(13);
        let serial: Vec<u64> = points.iter().enumerate().map(|(i, p)| f(i, p)).collect();
        let parallel = ParallelSweep::new(3).run(&points, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn single_thread_and_empty_inputs_work() {
        let sweep = ParallelSweep::new(1);
        assert_eq!(sweep.run(&[1, 2, 3], |_, p| p + 1), vec![2, 3, 4]);
        let empty: Vec<i32> = sweep.run(&[] as &[i32], |_, p| *p);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ParallelSweep::new(0);
    }
}

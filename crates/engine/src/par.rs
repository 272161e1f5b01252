//! Deterministic chunked data-parallelism over row ranges.
//!
//! Work is split into fixed-size chunks of [`CHUNK_ROWS`] rows. Chunk
//! boundaries depend only on the row count — never on the thread count — and
//! per-chunk results are combined in ascending chunk order, so any thread
//! count (including 1) produces bit-identical output. Operators that meter
//! cost per chunk accumulate plain integer counters per chunk and sum them
//! in chunk order, which keeps [`crate::meter::ExecutionReport`]s identical
//! between serial and parallel runs.
//!
//! Threads come from the shared [`av_sched`] morsel pool: persistent
//! workers with per-worker deques and an injector, so a parallel query
//! costs a ticket push and a condvar wake instead of a spawn/join cycle.
//! `Par.threads` is the per-query degree of parallelism (the submitting
//! thread plus up to `threads - 1` pool workers). Concurrent queries share
//! the pool's workers rather than oversubscribing the machine: a query
//! whose helpers are busy elsewhere runs on its submitting thread.

use av_sched::{Mutex, Rank};
use std::ops::Range;

/// Rows per chunk. Fixed so that chunk boundaries (and therefore f64
/// accumulation order inside partial aggregates) are independent of the
/// thread count.
pub const CHUNK_ROWS: usize = 1024;

/// Below this many rows the parallel path runs serially even when threads
/// are available. Enlisting pool workers costs a ticket push and a condvar
/// wake per helper; `exec_bench`'s spawn-overhead ladder puts the
/// break-even at ~16k rows and gates this constant. Chunk boundaries do not
/// depend on it, so the cutover cannot affect results — only who computes
/// them.
pub const PAR_MIN_ROWS: usize = 16_384;

/// Parallelism policy for one executor: worker count plus the row cutover
/// below which chunks run on the calling thread. Chunk boundaries depend
/// only on the row count, so every policy produces bit-identical results.
#[derive(Debug, Clone, Copy)]
pub struct Par {
    /// Degree of parallelism: caller plus up to `threads - 1` pool workers
    /// (1 = fully serial).
    pub threads: usize,
    /// Minimum rows before pool workers are enlisted.
    pub min_rows: usize,
}

impl Par {
    /// One worker per core (capped), cutover at [`PAR_MIN_ROWS`].
    pub fn auto() -> Par {
        Par {
            threads: default_threads(),
            min_rows: PAR_MIN_ROWS,
        }
    }

    /// Fully serial policy (the cutover is irrelevant at one thread).
    pub fn serial() -> Par {
        Par {
            threads: 1,
            min_rows: PAR_MIN_ROWS,
        }
    }
}

impl Default for Par {
    fn default() -> Par {
        Par::auto()
    }
}

/// Default executor thread count: the shared pool's worker census (one per
/// available core, capped).
pub fn default_threads() -> usize {
    av_sched::default_workers()
}

/// Number of chunks needed to cover `rows`.
pub fn chunk_count(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS)
}

fn chunk_range(idx: usize, rows: usize) -> Range<usize> {
    let start = idx * CHUNK_ROWS;
    start..rows.min(start + CHUNK_ROWS)
}

/// Apply `f` to every chunk of `0..rows` and return the per-chunk results in
/// ascending chunk order.
///
/// With `par.threads <= 1`, a single chunk, or fewer than `par.min_rows`
/// rows the chunks run sequentially on the calling thread; otherwise chunk
/// indices are claimed from an atomic counter by the caller plus pool
/// workers. Results land in per-chunk slots and are folded by ascending
/// index, so the returned `Vec` is ordered identically no matter who
/// computed what.
pub fn map_chunks<T, F>(rows: usize, par: Par, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let chunks = chunk_count(rows);
    if par.threads <= 1 || chunks <= 1 || rows < par.min_rows {
        return (0..chunks).map(|i| f(i, chunk_range(i, rows))).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = (0..chunks)
        .map(|_| Mutex::new(Rank::ChunkSlot, None))
        .collect();
    let body = |i: usize| {
        let value = f(i, chunk_range(i, rows));
        *slots[i].lock() = Some(value);
    };
    av_sched::global().run(chunks, par.threads, body);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every chunk index is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Policy with `threads` workers and no serial cutover, so small test
    /// row counts still exercise the pool.
    fn eager(threads: usize) -> Par {
        Par {
            threads,
            min_rows: 0,
        }
    }

    #[test]
    fn zero_rows_yield_no_chunks() {
        let r: Vec<usize> = map_chunks(0, eager(4), |_, range| range.len());
        assert!(r.is_empty());
    }

    #[test]
    fn chunks_cover_rows_exactly_once() {
        let rows = 3 * CHUNK_ROWS + 17;
        for threads in [1, 2, 5] {
            let ranges = map_chunks(rows, eager(threads), |i, range| (i, range));
            assert_eq!(ranges.len(), chunk_count(rows));
            let mut expect_start = 0;
            for (k, (i, range)) in ranges.iter().enumerate() {
                assert_eq!(*i, k, "results must be in chunk order");
                assert_eq!(range.start, expect_start);
                expect_start = range.end;
            }
            assert_eq!(expect_start, rows);
        }
    }

    #[test]
    fn parallel_matches_serial_for_any_thread_count() {
        let rows = 2 * CHUNK_ROWS + 100;
        let serial: Vec<u64> = map_chunks(rows, Par::serial(), |_, r| r.map(|x| x as u64).sum());
        for threads in [2, 3, 8] {
            let par: Vec<u64> =
                map_chunks(rows, eager(threads), |_, r| r.map(|x| x as u64).sum());
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn small_batches_stay_on_the_calling_thread() {
        // Below the cutover no pool workers are enlisted, so every chunk
        // runs on the caller — observable via thread ids.
        let caller = std::thread::current().id();
        let rows = PAR_MIN_ROWS - 1;
        let par = Par {
            threads: 8,
            min_rows: PAR_MIN_ROWS,
        };
        let ids: Vec<std::thread::ThreadId> =
            map_chunks(rows, par, |_, _| std::thread::current().id());
        assert_eq!(ids.len(), chunk_count(rows));
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn cutover_changes_no_results() {
        // Rows straddling the cutover produce identical chunking either side.
        for min_rows in [0, PAR_MIN_ROWS] {
            for rows in [PAR_MIN_ROWS - 1, PAR_MIN_ROWS, PAR_MIN_ROWS + 1] {
                let serial: Vec<u64> =
                    map_chunks(rows, Par::serial(), |_, r| r.map(|x| x as u64).sum());
                let par: Vec<u64> = map_chunks(
                    rows,
                    Par {
                        threads: 4,
                        min_rows,
                    },
                    |_, r| r.map(|x| x as u64).sum(),
                );
                assert_eq!(serial, par);
            }
        }
    }
}

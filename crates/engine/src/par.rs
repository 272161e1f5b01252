//! Deterministic chunking for partial aggregation.
//!
//! Aggregation order is this module's only reason to exist. An aggregate
//! folds its input in fixed-size chunks of [`CHUNK_ROWS`] rows, mapped in
//! ascending chunk order on the calling thread: f64 sums add within one
//! chunk before they fold across chunks, so where the chunk boundaries fall
//! decides the result's bits, and fixing them makes batches and
//! [`crate::meter::ExecutionReport`]s depend only on the row count. Every
//! other operator (filter, join probe, projection) runs as one pass over
//! its rows, because chunking would change nothing it computes.
//!
//! Chunks run on the calling thread: a fan-out over chunks won no end-to-end
//! number on a 2-core host (DESIGN.md, "Executor scheduler").

use std::ops::Range;

/// Rows per chunk. Fixed so that chunk boundaries (and therefore f64
/// accumulation order inside partial aggregates) depend on the row count
/// alone.
pub const CHUNK_ROWS: usize = 1024;

/// Number of chunks needed to cover `rows`.
pub fn chunk_count(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS)
}

fn chunk_range(idx: usize, rows: usize) -> Range<usize> {
    let start = idx * CHUNK_ROWS;
    start..rows.min(start + CHUNK_ROWS)
}

/// Apply `f` to every chunk of `0..rows` in ascending chunk order and
/// return the per-chunk results in that order.
pub fn map_chunks<T, F>(rows: usize, f: F) -> Vec<T>
where
    F: Fn(usize, Range<usize>) -> T,
{
    (0..chunk_count(rows))
        .map(|i| f(i, chunk_range(i, rows)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rows_yield_no_chunks() {
        let r: Vec<usize> = map_chunks(0, |_, range| range.len());
        assert!(r.is_empty());
    }

    #[test]
    fn chunks_cover_rows_exactly_once() {
        let rows = 3 * CHUNK_ROWS + 17;
        let ranges = map_chunks(rows, |i, range| (i, range));
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

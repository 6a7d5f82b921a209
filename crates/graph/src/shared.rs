//! Writing one array from parallel tasks.
//!
//! Every parallel write in the workspace goes through plain `&mut` slices:
//! each task owns a contiguous range of the items, and [`carve`] splits
//! each output array into the ranges' disjoint pieces, one per task, so the
//! borrow checker proves that no two tasks write the same index.
//! [`cut_by_work`] cuts the ranges of the graph builder, VF's fill and the
//! sweeps' decide into about equal work. Two steps cut their own ranges:
//! the batch splice bisects the old entries plus vertices
//! (`old_off[v] + v`) into equal shares of at least `SPLICE_GRAIN`, at most
//! `MAX_SPLICE_TASKS`, without a pass over the rows, and the rebuild splits
//! its rows into runs of equal count (`task_rows`). One write does not
//! follow a row range: the rebuild's mirror pass, whose rows read other
//! rows, reads them from the gather's per-task buffers, which nothing
//! writes while it runs.

/// The most pieces a row-parallel step is cut into: the rayon shim's
/// per-region task bound.
pub const MAX_PIECES: usize = 64;

/// The least work a piece holds, the last one excepted, so light work stays
/// one piece, which runs inline on the caller.
pub const MIN_PIECE_WORK: usize = 4096;

/// Cuts items `0..len` into at most `max_pieces` contiguous pieces of about
/// equal work and writes their bounds to `bounds`: piece `s` is
/// `bounds[s]..bounds[s + 1]`.
///
/// The bounds start at 0, end at `len` and strictly increase (no items give
/// the single bound 0 and no piece). The cut is greedy: a piece closes once
/// it holds `max(total / max_pieces, MIN_PIECE_WORK)` work, so every piece
/// but the last holds at least that much, and an item whose work alone
/// reaches it closes its piece, so a heavy item after a closed piece stands
/// alone. So there are at most `max_pieces` pieces, provided every item
/// costs at least 1 (trailing items of no work would make one more). The
/// bounds are a pure function of `len`, `max_pieces` and `work`, never of
/// the thread count.
pub fn cut_by_work(
    len: usize,
    max_pieces: usize,
    work: impl Fn(usize) -> usize,
    bounds: &mut Vec<usize>,
) {
    let total: usize = (0..len).map(&work).sum();
    let target = total.div_ceil(max_pieces).max(MIN_PIECE_WORK);
    bounds.clear();
    bounds.push(0);
    let mut held = 0;
    for i in 0..len {
        held += work(i);
        if held >= target {
            bounds.push(i + 1);
            held = 0;
        }
    }
    if bounds.last() != Some(&len) {
        bounds.push(len);
    }
}

/// Cuts `arena` into consecutive pieces of the given sizes, one `&mut`
/// slice each, so parallel tasks can own them. Panics if the sizes add up
/// to more than the arena holds.
pub fn carve<T>(mut arena: &mut [T], sizes: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    sizes
        .map(|size| {
            let (piece, rest) = std::mem::take(&mut arena).split_at_mut(size);
            arena = rest;
            piece
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cut's bounds, written over stale ones the cut must clear.
    fn cut(len: usize, max_pieces: usize, work: impl Fn(usize) -> usize) -> Vec<usize> {
        let mut bounds = vec![7, 7, 7];
        cut_by_work(len, max_pieces, work, &mut bounds);
        bounds
    }

    #[test]
    fn no_items_give_the_single_bound_zero() {
        assert_eq!(cut(0, MAX_PIECES, |_| 1), [0]);
    }

    #[test]
    fn unit_work_closes_a_piece_every_target() {
        // Below the least piece work everything is one piece.
        assert_eq!(cut(MIN_PIECE_WORK, MAX_PIECES, |_| 1), [0, MIN_PIECE_WORK]);
        // 100 pieces' worth of items in 64 pieces: each of the first 63
        // holds the target ⌈total / 64⌉, and the last holds the rest.
        let len = 100 * MIN_PIECE_WORK + 5;
        let target = len.div_ceil(MAX_PIECES);
        let bounds = cut(len, MAX_PIECES, |_| 1);
        assert_eq!(bounds.len(), MAX_PIECES + 1);
        for (s, w) in bounds.windows(2).enumerate() {
            let size = w[1] - w[0];
            assert!(size == target || s == MAX_PIECES - 1 && size <= target);
        }
        assert_eq!(*bounds.last().unwrap(), len);
    }

    #[test]
    fn a_heavy_item_after_a_closed_piece_stands_alone() {
        // Unit items around two items whose work alone passes the target:
        // the first closes the piece of unit items it ends, and the second,
        // right after that closed piece, is a piece of its own.
        let work = |i: usize| if i == 5_000 || i == 5_001 { 1 << 20 } else { 1 };
        let target = (10_000usize - 2 + (2 << 20)).div_ceil(8);
        assert!(target > MIN_PIECE_WORK && target < 1 << 20);
        assert_eq!(cut(10_000, 8, work), [0, 5_001, 5_002, 10_000]);
    }

    #[test]
    fn never_more_than_max_pieces_whatever_the_pool() {
        // Work that varies wildly, cut for several bounds on the pieces; the
        // same cut inside 1-, 2- and 8-thread pools.
        let work = |i: usize| 1 + (i * 2_654_435_761) % 9_973 * (i % 3);
        for max_pieces in [1, 2, 7, MAX_PIECES] {
            for len in [1, 100, 50_000] {
                let bounds = cut(len, max_pieces, work);
                assert!(bounds.len() - 1 <= max_pieces, "{max_pieces}, {len}");
                assert_eq!((bounds[0], *bounds.last().unwrap()), (0, len));
                assert!(bounds.windows(2).all(|w| w[0] < w[1]));
                for threads in [1, 2, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    assert_eq!(pool.install(|| cut(len, max_pieces, work)), bounds);
                }
            }
        }
    }

    #[test]
    fn carve_hands_out_consecutive_pieces() {
        let mut arena: Vec<u32> = (0..10).collect();
        let pieces = carve(&mut arena, [0, 3, 0, 4, 3].into_iter());
        let lens: Vec<usize> = pieces.iter().map(|p| p.len()).collect();
        assert_eq!(lens, [0, 3, 0, 4, 3]);
        assert_eq!(*pieces[1], [0, 1, 2]);
        assert_eq!(*pieces[3], [3, 4, 5, 6]);
        for piece in pieces {
            piece.iter_mut().for_each(|x| *x += 100);
        }
        assert_eq!(arena, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn carve_may_leave_the_tail_of_the_arena() {
        let mut arena = [0u8; 10];
        for piece in carve(&mut arena, [2, 5].into_iter()) {
            piece.fill(1);
        }
        assert_eq!(arena, [1, 1, 1, 1, 1, 1, 1, 0, 0, 0]);
        assert!(carve(&mut arena, std::iter::empty()).is_empty());
    }

    #[test]
    #[should_panic(expected = "mid > len")]
    fn carve_panics_when_the_sizes_overrun_the_arena() {
        let mut arena = [0u8; 10];
        carve(&mut arena, [6, 5].into_iter());
    }
}

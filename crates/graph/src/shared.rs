//! Writing one array from parallel tasks.
//!
//! Tasks that own contiguous ranges of rows write through plain `&mut`
//! slices: [`cut_by_work`] cuts the rows into ranges of about equal work,
//! and [`carve`] splits each output array into the ranges' disjoint pieces.
//! The graph builder, VF's fill and the sweeps' decide work this way.
//!
//! A scatter whose indices do not follow the task layout uses
//! [`SharedSlice`] instead: the rebuild's mirror pass, whose rows read other
//! rows, and the coloring's scatter by vertex id.

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

/// Raw view of a slice written at provably disjoint indices by parallel
/// workers. Every use site must state its disjointness argument: no index
/// may be read or written by more than one worker while the view is live.
/// Debug builds check the other half of that argument, that every index is
/// in bounds.
pub struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    /// Wraps `slice`; the view must not outlive it (the borrow checker
    /// enforces this at the use sites, which keep the `&mut` borrow alive
    /// for the scatter's duration).
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// `i` must be in bounds and not concurrently written.
    pub unsafe fn read(&self, i: usize) -> T {
        debug_assert!(i < self.len, "SharedSlice read {i} past {}", self.len);
        *self.ptr.add(i)
    }

    /// # Safety
    /// `i` must be in bounds and not concurrently read or written.
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len, "SharedSlice write {i} past {}", self.len);
        *self.ptr.add(i) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::SharedSlice;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SharedSlice write 3 past 3")]
    fn debug_builds_refuse_an_index_past_the_end() {
        let mut v = [0u32; 3];
        let view = SharedSlice::new(&mut v);
        // SAFETY: not in bounds on purpose; the debug check panics before
        // the write happens.
        unsafe { view.write(3, 1) };
    }
}

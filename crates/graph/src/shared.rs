//! A raw view of a slice written at provably disjoint indices by parallel
//! workers — the scatter idiom shared by the graph builder's histogram /
//! scatter stages, the `.grb` chunk decode, the coloring commit, VF's fill
//! pass and the rebuild's mirror pass.

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

// Fixture: `unsafe` blocks with and without SAFETY comments.
// Never compiled — scanned by the analyzer self-tests only.

fn first_ptr(xs: &mut [u32]) -> *mut u32 {
    // VIOLATION: no SAFETY comment on the line or the block above.
    unsafe { xs.as_mut_ptr().add(0) }
}

fn justified(xs: &mut [u32]) -> *mut u32 {
    // SAFETY: the pointer is derived from a live slice and offset 0 is
    // always in bounds.
    unsafe { xs.as_mut_ptr().add(0) }
}

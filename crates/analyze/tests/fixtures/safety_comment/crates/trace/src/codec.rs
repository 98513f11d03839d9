// Fixture: a group-varint-style unrolled decode kernel with and without
// the SAFETY justification on its bounds-check-free unaligned load.
// Never compiled — scanned by the analyzer self-tests only.

fn decode_word_unjustified(bytes: &[u8], off: usize) -> u32 {
    // VIOLATION: bounds-check-free unaligned load, no SAFETY comment.
    let word = unsafe { (bytes.as_ptr().add(off) as *const u32).read_unaligned() };
    u32::from_le(word)
}

fn decode_word_justified(bytes: &[u8], off: usize) -> u32 {
    // SAFETY: the caller guarantees `off + 4 <= bytes.len()`, so the
    // unaligned 4-byte read never leaves the slice.
    let word = unsafe { (bytes.as_ptr().add(off) as *const u32).read_unaligned() };
    u32::from_le(word)
}

//! Violates unsafe-inventory: an unsafe block with no SAFETY comment.

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}

// Fixture: R4 flags every unsafe block, with or without a SAFETY
// comment. As a crate root (lint_source is handed a lib.rs path), the
// missing #![forbid(unsafe_code)] is flagged too.
fn raw_read(p: *const f64) -> f64 {
    unsafe { *p }
}

fn documented_read(p: *const f64) -> f64 {
    // SAFETY: caller guarantees p points to a live, aligned f64.
    unsafe { *p }
}

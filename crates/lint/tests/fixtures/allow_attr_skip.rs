//! An allow comment must reach past attribute lines to the item they
//! decorate: the annotation sits above `#[inline]`, the violation two
//! lines further down.

// rtr-lint: allow(hot-alloc) -- a one-off warm-up buffer, never on the steady-state path
#[inline]
#[must_use]
pub fn warm_into(out: &mut [u32]) -> Vec<u32> { Vec::new() }

//! An allow comment must reach past attribute lines to the item they
//! decorate: the annotation sits above `#[inline]`, the violation two
//! lines further down.

// rtr-lint: allow(wall-clock) -- a one-off calibration stamp, never on a kernel path
#[inline]
#[must_use]
pub fn stamp() -> std::time::Instant { std::time::Instant::now() }

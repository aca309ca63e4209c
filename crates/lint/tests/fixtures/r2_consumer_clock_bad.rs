//! R2 consumer-callback fixture: the measurement crates (harness,
//! bench) may read wall clocks freely — except inside a batch consumer's
//! `consume_batch` callback, where a clock read would time the racy
//! drain schedule instead of the producer's work.

use std::time::Instant;

pub struct TimedConsumer {
    pub batches: u64,
    pub last_nanos: u64,
}

impl TimedConsumer {
    fn consume_batch(&mut self, batch: &[u64]) {
        let start = Instant::now();
        self.batches += batch.len() as u64;
        self.last_nanos = start.elapsed().as_nanos() as u64;
    }

    /// Clock reads outside the callback stay legal in these crates.
    pub fn wall_deadline(&self) -> Instant {
        Instant::now()
    }
}

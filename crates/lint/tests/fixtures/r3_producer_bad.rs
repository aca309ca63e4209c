//! R3 batch-producer fixture: in the trace crate, the channel
//! producer's per-record push, its buffer swaps and the metric publish
//! (`push`, `swap`, `try_swap`, `publish`) are hot spans — any heap
//! allocation inside them is a violation. The same function names
//! outside `crates/trace` stay cold.

pub struct Producer {
    batch: Vec<u64>,
}

impl Producer {
    pub fn push(&mut self, item: u64) {
        let boxed = Box::new(item);
        self.batch.push(*boxed);
    }

    pub fn swap(&mut self) {
        self.batch = Vec::new();
    }

    pub fn try_swap(&mut self) -> bool {
        let copy = self.batch.to_vec();
        copy.is_empty()
    }

    pub fn publish(&mut self, id: u32, value: u64) -> bool {
        let label = vec![id as u64, value];
        !label.is_empty()
    }

    /// Cold helper: allocation here is fine even in the trace crate.
    pub fn drain_names(&self) -> Vec<u64> {
        self.batch.to_vec()
    }
}

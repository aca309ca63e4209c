//! Fixture: an allocating method whose name collides with a method call
//! in another crate.

pub struct GroundAction {
    adds: Vec<u32>,
}

impl GroundAction {
    pub fn apply(&self, state: &State) -> State {
        let mut next = state.clone();
        next.facts.extend(&self.adds);
        next
    }
}

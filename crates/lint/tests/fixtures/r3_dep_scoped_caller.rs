//! Fixture: a hot `step` whose helper calls `.apply(..)` on a transform.
//! The only workspace method named `apply` lives in a crate this crate's
//! manifest does not depend on, so the call cannot resolve there.

pub struct SrecInstance {
    transform: RigidTransform,
}

impl SrecInstance {
    pub fn step(&mut self, p: Point3) -> Point3 {
        assemble(&self.transform, p)
    }
}

fn assemble(t: &RigidTransform, p: Point3) -> Point3 {
    t.apply(p)
}

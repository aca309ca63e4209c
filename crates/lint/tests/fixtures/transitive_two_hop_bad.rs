//! A two-hop transitive violation: the hot entry point below is
//! lexically clean — the allocation hides two calls away, so only the
//! interprocedural pass can see it.

pub fn mul_into(out: &mut Acc) {
    stage(out);
}

fn stage(out: &mut Acc) {
    grow(out);
}

fn grow(out: &mut Acc) {
    out.data = Vec::new();
}

//! `rtr-lint`: workspace invariant checker for the RTRBench suite.
//!
//! Statically enforces the one contract recorded in `ROADMAP.md` that
//! needs a workspace call graph, using a purpose-built lexical scrubber
//! (no external parser dependencies — the build stays offline):
//!
//! - **`hot-alloc`** — inside `*_into` functions, `*Scratch` impls and
//!   the other hot spans, heap allocation (`Vec::new`, `vec!`,
//!   `.to_vec()`, `.collect()`, `Box::new`, `.clone()`) is forbidden,
//!   directly or through any chain of workspace calls.
//!
//! The other contracts are the compiler's. `unsafe_code = "forbid"` in
//! the root manifest's `[workspace.lints.rust]` keeps every target safe
//! code. Each kernel crate has a `clippy.toml` whose `disallowed-types`
//! rejects `HashMap`/`HashSet`, so hash iteration order cannot reach a
//! kernel output. Every crate under `crates/` outside the measurement
//! crates (`bench`, `harness`, `lint`, `scenario`) has a `clippy.toml`
//! whose `disallowed-methods` rejects `Instant::now` and
//! `SystemTime::now`: kernels take time through the harness profiler.
//! Core's `clippy.toml` disallows the cache simulator's types, which
//! only `crates/core/src/trace.rs` may name, and the algorithm crates
//! cannot name them because their manifests do not depend on
//! `rtr-archsim`. CI's `cargo clippy --workspace --all-targets -- -D
//! warnings` fails on any of these; `tests/workspace_lints.rs` checks
//! that the configuration stays in place. Trace gating is a type:
//! `rtr_trace::MemTrace`'s emission methods take a `Gated` token that
//! only a sink's `gate()` hands out, so rustc rejects an ungated
//! emission in every crate.
//!
//! The engine is *interprocedural*: [`index`] builds a workspace-wide
//! fn/call index over the lexer's token stream (every file is lexed
//! exactly once), [`callgraph`] resolves call sites name-best-effort
//! within the workspace, and [`facts`] propagates the `allocates` fact
//! to a fixpoint — so `hot-alloc` fires on hot entry points whose
//! *callees* allocate, with the offending call chain attached to the
//! finding.
//!
//! Findings can be suppressed with an annotation carrying a written
//! reason:
//!
//! ```text
//! // rtr-lint: allow(hot-alloc) -- one-time lazy growth, amortized
//! ```
//!
//! The annotation covers its own line and the next non-attribute line
//! below it. A malformed annotation (unknown rule, missing `-- reason`)
//! is itself reported as an `allow-syntax` finding that cannot be
//! allowed.

pub mod callgraph;
pub mod facts;
pub mod index;
pub mod lexer;
pub mod report;
pub mod rules;

pub use callgraph::CallGraph;
pub use index::{FileAnalysis, WorkspaceIndex};
pub use lexer::{scrub, Allow, Scrubbed, Span};
pub use report::{Finding, Report};
pub use rules::{crate_of, explain, lint_source, lint_workspace, RULES};

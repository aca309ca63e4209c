//! `rtr-lint`: workspace invariant checker for the RTRBench suite.
//!
//! Statically enforces the determinism and allocation-free contracts
//! recorded in `ROADMAP.md` that rustc and clippy cannot check, using a
//! purpose-built lexical scrubber (no external parser dependencies — the
//! build stays offline):
//!
//! - **`wall-clock`** — `Instant::now`/`SystemTime` belong to the
//!   `harness`/`bench` crates only; kernels must not read the clock.
//! - **`hot-alloc`** — inside `*_into` functions and `*Scratch`
//!   impls, heap allocation (`Vec::new`, `vec!`, `.to_vec()`,
//!   `.collect()`, `Box::new`, `.clone()`) is forbidden.
//! - **`par-rng`** — closures passed to `par_map`/`par_chunks_mut`
//!   may only derive RNG state via `chunk_seed`.
//! - **`layering`** — the algorithm crates (and the kernel-adapter
//!   subtree of `core`) never name `rtr_archsim`, in source or manifest:
//!   kernels emit into the `MemTrace` sink and the simulator is wired up
//!   once in `crates/core/src/trace.rs`.
//! - **`trace-gated`** — kernel `MemTrace` emissions are dominated by
//!   a `trace.enabled()` check, lexically or through the call graph.
//!
//! Two contracts are the compiler's: `unsafe_code = "forbid"` in the
//! root manifest's `[workspace.lints.rust]` keeps every target safe
//! code, and each crate in [`KERNEL_CRATES`] has a `clippy.toml` whose
//! `disallowed-types` rejects `HashMap`/`HashSet`, so hash iteration
//! order cannot reach a kernel output. CI's `cargo clippy --workspace
//! --all-targets -- -D warnings` fails on either; `tests/workspace_lints.rs`
//! checks that the configuration stays in place.
//!
//! Beyond the per-file lexical pass, the engine is *interprocedural*:
//! [`index`] builds a workspace-wide fn/call index over the lexer's
//! token stream (every file is lexed exactly once), [`callgraph`]
//! resolves call sites name-best-effort within the workspace, and
//! [`facts`] propagates `allocates` / `reads-clock` facts to a fixpoint
//! — so `hot-alloc` and `wall-clock` fire on hot entry points whose
//! *callees* violate the contract, with the offending call chain
//! attached to the finding.
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
pub use facts::{Facts, Seeds};
pub use index::{FileAnalysis, WorkspaceIndex};
pub use lexer::{scrub, Allow, Scrubbed, Span};
pub use report::{Finding, Report};
pub use rules::{
    crate_of, explain, is_layered, lint_source, lint_workspace, CLOCK_CRATES, KERNEL_CRATES,
    LAYERED_CRATES, RULES,
};

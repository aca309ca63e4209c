//! `rtr-lint`: workspace invariant checker for the RTRBench suite.
//!
//! Statically enforces the determinism and allocation-free contracts
//! recorded in `ROADMAP.md`, using a purpose-built lexical scrubber
//! (no external parser dependencies — the build stays offline):
//!
//! - **R1 `nondet-iter`** — `HashMap`/`HashSet` are flagged in kernel
//!   crates, where iteration order could reach benchmark outputs.
//! - **R2 `wall-clock`** — `Instant::now`/`SystemTime` belong to the
//!   `harness`/`bench` crates only; kernels must not read the clock.
//! - **R3 `hot-alloc`** — inside `*_into` functions and `*Scratch`
//!   impls, heap allocation (`Vec::new`, `vec![`, `.to_vec()`,
//!   `.collect()`, `Box::new`, `.clone()`) is forbidden.
//! - **R4 `unsafe-hygiene`** — every crate root carries an unconditional
//!   `#![forbid(unsafe_code)]`, and any `unsafe` token is a finding.
//! - **R5 `par-rng`** — closures passed to `par_map`/`par_chunks_mut`
//!   may only derive RNG state via `chunk_seed`.
//! - **R6 `layering`** — the algorithm crates (and the kernel-adapter
//!   subtree of `core`) never name `rtr_archsim`, in source or manifest:
//!   kernels emit into the `MemTrace` sink and the simulator is wired up
//!   once in `crates/core/src/trace.rs`.
//! - **R7 `atomic-ordering`** — every memory-ordering token in the
//!   lock-free files (`trace/src/ring.rs`, `trace/src/sync.rs`,
//!   `harness/src/collector.rs`) sits in a fn carrying a `// ORDERING:`
//!   rationale comment; `Ordering::SeqCst` is deny-by-default.
//! - **R8 `trace-gated`** — kernel `MemTrace` emissions are dominated by
//!   a `trace.enabled()` check, lexically or through the call graph.
//!
//! Beyond the per-file lexical pass, the engine is *interprocedural*:
//! [`index`] builds a workspace-wide fn/call index over the lexer's
//! token stream (every file is lexed exactly once), [`callgraph`]
//! resolves call sites name-best-effort within the workspace, and
//! [`facts`] propagates `allocates` / `reads-clock` /
//! `touches-nondet-iter` facts to a fixpoint — so `hot-alloc` and
//! `wall-clock` fire on hot entry points whose *callees* violate the
//! contract, with the offending call chain attached to the finding.
//!
//! Findings can be suppressed with an annotation carrying a written
//! reason:
//!
//! ```text
//! // rtr-lint: allow(nondet-iter) -- keyed lookups only, never iterated
//! ```
//!
//! The annotation covers its own line and the next non-attribute line
//! below it. A malformed annotation (unknown rule, missing `-- reason`)
//! is itself reported as an `allow-syntax` finding that cannot be
//! allowed.

#![forbid(unsafe_code)]

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

//! `11.sym-blkw` / `12.sym-fext` — STRIPS-style symbolic planning.
//!
//! "In symbolic planning, the problem is represented using high-level,
//! human-readable symbols. ... The problem is ultimately represented as a
//! graph search and the planner computes a sequence of actions to reach
//! the goal state from the initial state." The kernel's two dominant
//! operations are graph search over the state space and *string
//! manipulation inside nodes* — facts here are literal strings
//! (`"On(A,B)"`), matched and rewritten on every expansion, exactly the
//! workload the paper says string-matching accelerators could absorb.
//!
//! Two domains reproduce the paper's:
//! [`blocks_world`] (Fig. 13) and [`firefight`] (Fig. 14, the MIT summer-
//! school challenge). The firefighting domain "has more valid actions"
//! and therefore a higher branching factor — the paper's ~3.2× parallelism
//! observation — which [`SymbolicPlanner`] exposes via per-plan branching
//! statistics and a pool-parallel expansion helper.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rtr_harness::{HotRegion, Pool, Profiler};
use rtr_trace::{MemTrace, SharedTrace};

use crate::search::{weighted_astar, SearchSpace};

/// A ground fact, e.g. `On(A,B)`.
pub type Fact = String;

/// A planning state: the set of facts that hold.
pub type State = BTreeSet<Fact>;

/// A lifted action schema with `?0`, `?1`, … parameter placeholders.
#[derive(Debug, Clone)]
pub struct ActionSchema {
    /// Schema name, e.g. `Move`.
    pub name: &'static str,
    /// Number of parameters.
    pub params: usize,
    /// Require pairwise-distinct parameter bindings.
    pub distinct: bool,
    /// Positive preconditions (patterns).
    pub pre: Vec<String>,
    /// Negative preconditions (patterns that must NOT hold).
    pub npre: Vec<String>,
    /// Added facts (patterns).
    pub add: Vec<String>,
    /// Deleted facts (patterns).
    pub del: Vec<String>,
}

/// A fully instantiated action.
#[derive(Debug, Clone)]
pub struct GroundAction {
    /// Human-readable instance name, e.g. `Move(A,B,Table)`.
    pub name: String,
    pre: Vec<Fact>,
    npre: Vec<Fact>,
    add: Vec<Fact>,
    del: Vec<Fact>,
}

impl GroundAction {
    /// Returns `true` when the action is applicable in `state`.
    pub fn applicable(&self, state: &State) -> bool {
        self.pre.iter().all(|f| state.contains(f)) && self.npre.iter().all(|f| !state.contains(f))
    }

    /// Applies the action (preconditions assumed to hold).
    pub fn apply(&self, state: &State) -> State {
        let mut next = state.clone();
        for f in &self.del {
            next.remove(f);
        }
        for f in &self.add {
            next.insert(f.clone());
        }
        next
    }
}

/// A symbolic planning problem: symbols, schemas, initial state and goal.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Object symbols (e.g. block names, locations).
    pub symbols: Vec<String>,
    /// Action schemas.
    pub schemas: Vec<ActionSchema>,
    /// Facts holding initially.
    pub init: Vec<Fact>,
    /// Facts required in the goal state.
    pub goal: Vec<Fact>,
}

impl Domain {
    /// Grounds every schema over all symbol bindings — the string-heavy
    /// instantiation step.
    pub fn ground(&self) -> Vec<GroundAction> {
        let mut out = Vec::new();
        for schema in &self.schemas {
            let mut binding = vec![0usize; schema.params];
            self.ground_rec(schema, 0, &mut binding, &mut out);
        }
        out
    }

    fn ground_rec(
        &self,
        schema: &ActionSchema,
        depth: usize,
        binding: &mut Vec<usize>,
        out: &mut Vec<GroundAction>,
    ) {
        if depth == schema.params {
            if schema.distinct {
                for i in 0..binding.len() {
                    for j in (i + 1)..binding.len() {
                        if binding[i] == binding[j] {
                            return;
                        }
                    }
                }
            }
            let subst = |pattern: &str| -> Fact {
                let mut fact = pattern.to_owned();
                // Substitute longest placeholders first so ?1 does not
                // clobber ?10.
                for p in (0..schema.params).rev() {
                    fact = fact.replace(&format!("?{p}"), &self.symbols[binding[p]]);
                }
                fact
            };
            let args: Vec<&str> = binding.iter().map(|&i| self.symbols[i].as_str()).collect();
            out.push(GroundAction {
                name: format!("{}({})", schema.name, args.join(",")),
                pre: schema.pre.iter().map(|p| subst(p)).collect(),
                npre: schema.npre.iter().map(|p| subst(p)).collect(),
                add: schema.add.iter().map(|p| subst(p)).collect(),
                del: schema.del.iter().map(|p| subst(p)).collect(),
            });
            return;
        }
        for s in 0..self.symbols.len() {
            binding[depth] = s;
            self.ground_rec(schema, depth + 1, binding, out);
        }
    }

    /// The initial state as a set.
    pub fn initial_state(&self) -> State {
        self.init.iter().cloned().collect()
    }

    /// Returns `true` when `state` satisfies the goal.
    pub fn is_goal(&self, state: &State) -> bool {
        self.goal.iter().all(|f| state.contains(f))
    }

    /// Checks that `plan` is executable from the initial state and reaches
    /// the goal (used by tests and the harness).
    pub fn validate_plan(&self, plan: &[String]) -> bool {
        let actions = self.ground();
        let by_name: BTreeMap<&str, &GroundAction> =
            actions.iter().map(|a| (a.name.as_str(), a)).collect();
        let mut state = self.initial_state();
        for step in plan {
            let Some(action) = by_name.get(step.as_str()) else {
                return false;
            };
            if !action.applicable(&state) {
                return false;
            }
            state = action.apply(&state);
        }
        self.is_goal(&state)
    }
}

/// A solved plan with its search statistics.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Action-instance names in execution order.
    pub actions: Vec<String>,
    /// States expanded by the search.
    pub expanded: u64,
    /// Average number of applicable actions per expanded state — the
    /// branching factor behind the paper's `sym-fext` parallelism claim.
    pub mean_branching: f64,
    /// Ground actions in the domain.
    pub ground_actions: usize,
}

/// Synthetic address regions for the interning trace (see [`MemTrace`]):
/// arena slots sit at `id * 32` (an `Rc<State>` record per state), the
/// interning index at [`IDS_REGION`] in 16 B tree nodes, and interned fact
/// strings at [`FACT_REGION`] in 64 B cells keyed by FNV-1a.
const IDS_REGION: u64 = 1 << 42;
/// Interned-fact string storage (reads during state hashing).
const FACT_REGION: u64 = 1 << 43;
const ARENA_SLOT_BYTES: u64 = 32;
const IDS_NODE_BYTES: u64 = 16;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// State-interning search space: states are arbitrary fact sets, but the
/// search engine requires `Copy` nodes, so states live in an arena and the
/// engine sees `usize` ids. Interning emits into the shared trace cell:
/// a fact-string read per member fact, a tree-node read per index level,
/// and (on a miss) arena-slot + index-node writes.
struct SymbolicSpace<'a, 'c, 'd, T: MemTrace + ?Sized> {
    actions: &'a [GroundAction],
    goal: &'a [Fact],
    arena: RefCell<Vec<Rc<State>>>,
    // BTreeMap keeps interning order-independent of any hash seed — state
    // ids are part of the search's observable behavior.
    ids: RefCell<BTreeMap<Rc<State>, usize>>,
    strings: HotRegion,
    expansions: Cell<u64>,
    applicable_total: Cell<u64>,
    /// Set once the search has generated [`SEARCH_BUDGET`] states; from
    /// then on nothing is generated and no state is a goal, so the engine
    /// drains its open list and gives up.
    exhausted: Cell<bool>,
    trace: &'c RefCell<&'d mut T>,
}

impl<'a, 'c, 'd, T: MemTrace + ?Sized> SymbolicSpace<'a, 'c, 'd, T> {
    fn new(
        actions: &'a [GroundAction],
        goal: &'a [Fact],
        init: State,
        timed: bool,
        trace: &'c RefCell<&'d mut T>,
    ) -> Self {
        let init = Rc::new(init);
        let space = SymbolicSpace {
            actions,
            goal,
            arena: RefCell::new(vec![init.clone()]),
            ids: RefCell::new(BTreeMap::new()),
            strings: HotRegion::timed(timed),
            expansions: Cell::new(0),
            applicable_total: Cell::new(0),
            exhausted: Cell::new(false),
            trace,
        };
        space.ids.borrow_mut().insert(init, 0);
        space
    }

    fn intern(&self, state: State) -> usize {
        let state = Rc::new(state);
        let gate = self.trace.borrow().gate();
        let mut h = 0u64;
        if let Some(g) = gate {
            let mut t = self.trace.borrow_mut();
            for fact in state.iter() {
                let fh = fnv1a(fact.as_bytes());
                t.read(FACT_REGION + (fh & 0xFFFF) * 64, g);
                h = h.rotate_left(5) ^ fh;
            }
            // One 16 B node probe per level of the interning index.
            let levels = u64::from(self.ids.borrow().len().max(1).ilog2()) + 1;
            for lvl in 0..levels {
                let node = h.rotate_left(7 * lvl as u32) & 0xF_FFFF;
                t.read(IDS_REGION + node * IDS_NODE_BYTES, g);
            }
        }
        if let Some(&id) = self.ids.borrow().get(&state) {
            return id;
        }
        let mut arena = self.arena.borrow_mut();
        let id = arena.len();
        arena.push(state.clone());
        self.ids.borrow_mut().insert(state, id);
        if let Some(g) = gate {
            let mut t = self.trace.borrow_mut();
            t.write(id as u64 * ARENA_SLOT_BYTES, g);
            t.write(IDS_REGION + (h & 0xF_FFFF) * IDS_NODE_BYTES, g);
        }
        id
    }

    fn state(&self, id: usize) -> Rc<State> {
        self.arena.borrow()[id].clone()
    }
}

impl<T: MemTrace + ?Sized> SearchSpace for SymbolicSpace<'_, '_, '_, T> {
    type Node = usize;

    fn successors(&self, node: usize, out: &mut Vec<(usize, f64)>) {
        if self.exhausted.get() {
            return;
        }
        let state = self.state(node);
        self.expansions.set(self.expansions.get() + 1);
        let start = self.strings.start();
        let mut applicable = 0u64;
        for action in self.actions {
            if action.applicable(&state) {
                if self.applicable_total.get() + applicable == SEARCH_BUDGET {
                    self.exhausted.set(true);
                    break;
                }
                applicable += 1;
                let next = action.apply(&state);
                out.push((self.intern(next), 1.0));
            }
        }
        self.strings.add(start);
        self.applicable_total
            .set(self.applicable_total.get() + applicable);
    }

    fn heuristic(&self, node: usize) -> f64 {
        let state = self.state(node);
        self.goal.iter().filter(|f| !state.contains(*f)).count() as f64
    }

    fn is_goal(&self, node: usize) -> bool {
        if self.exhausted.get() {
            return false;
        }
        let state = self.state(node);
        self.goal.iter().all(|f| state.contains(f))
    }
}

/// States one solve may generate (successors built by applying an
/// action) before it gives up. Every generated state is a fact set the
/// state arena may keep, so the budget bounds the search's memory; an
/// expansion count would not, because one expansion of the 64-block world
/// generates about 4,000 states. The largest solve any binary, test, CI
/// step or benchmark workload makes is `12.sym-fext` at defaults, which
/// generates 1,392 states. Measured on a release build (2 vCPUs), 11
/// blocks still solve (about 17,000 states, 0.4 s), 16 blocks stop after
/// 0.8 s at 64 MB peak RSS, and 64 blocks after 5.5 s at 480 MB, 1.8 s
/// of it grounding.
pub const SEARCH_BUDGET: u64 = 25_000;

/// Why [`SymbolicPlanner::solve`] returned no plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The search exhausted every reachable state: no plan exists.
    Unsolvable,
    /// The search generated [`SEARCH_BUDGET`] states without reaching the
    /// goal; a plan may still exist.
    BudgetExhausted,
}

/// The symbolic planning kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{blocks_world, SymbolicPlanner};
/// use rtr_harness::Profiler;
///
/// let domain = blocks_world(3);
/// let mut profiler = Profiler::new();
/// let plan = SymbolicPlanner::new(1.0)
///     .solve(&domain, &mut profiler, &mut rtr_trace::NullTrace)
///     .expect("solvable");
/// assert!(domain.validate_plan(&plan.actions));
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicPlanner {
    /// Goal-count heuristic weight (1.0 ≈ A*; larger is greedier).
    weight: f64,
}

impl SymbolicPlanner {
    /// Creates a planner with the given heuristic weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative.
    pub fn new(weight: f64) -> Self {
        assert!(weight >= 0.0, "weight must be non-negative");
        SymbolicPlanner { weight }
    }

    /// Solves `domain`, returning the plan.
    ///
    /// Profiler regions: `grounding` (schema instantiation),
    /// `graph_search` (state-space search minus fact matching) and
    /// `string_ops` (precondition matching + effect rewriting). The
    /// string/search split needs the hot-timing knob
    /// ([`Profiler::timed`]); a plain [`Profiler::new`] keeps the solve
    /// loop free of per-expansion clock reads and attributes the whole
    /// search wall time to `graph_search`.
    ///
    /// With a live `trace` sink the solve additionally emits the state
    /// interning traffic (fact-string reads, index probes, arena writes)
    /// and the search engine's open-list stream; pass
    /// [`rtr_trace::NullTrace`] for an untraced solve.
    ///
    /// # Errors
    ///
    /// [`SolveError::Unsolvable`] when no plan exists, and
    /// [`SolveError::BudgetExhausted`] when the search generated
    /// [`SEARCH_BUDGET`] states without finding one.
    pub fn solve<T: MemTrace + ?Sized>(
        &self,
        domain: &Domain,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Result<Plan, SolveError> {
        let actions = profiler.time("grounding", || domain.ground());
        let trace = RefCell::new(trace);
        let space = SymbolicSpace::new(
            &actions,
            &domain.goal,
            domain.initial_state(),
            profiler.hot_timing(),
            &trace,
        );

        let mut engine_trace = SharedTrace::new(&trace);
        let (result, total) = profiler.span(|| {
            weighted_astar(&space, 0usize, self.weight, &mut engine_trace, &mut |&id| {
                id as u64 * ARENA_SLOT_BYTES
            })
        });
        let strings = space.strings.total();
        space.strings.drain_into(profiler, "string_ops");
        profiler.add("graph_search", total.saturating_sub(strings));

        let result = result.ok_or(if space.exhausted.get() {
            SolveError::BudgetExhausted
        } else {
            SolveError::Unsolvable
        })?;
        // Recover action labels by re-matching consecutive states.
        let mut plan_actions = Vec::with_capacity(result.path.len().saturating_sub(1));
        for w in result.path.windows(2) {
            let from = space.state(w[0]);
            let to = space.state(w[1]);
            let action = actions
                .iter()
                .find(|a| a.applicable(&from) && a.apply(&from) == *to)
                .expect("edge action must exist");
            plan_actions.push(action.name.clone());
        }

        let expansions = space.expansions.get().max(1);
        Ok(Plan {
            actions: plan_actions,
            expanded: result.expanded,
            mean_branching: space.applicable_total.get() as f64 / expansions as f64,
            ground_actions: actions.len(),
        })
    }
}

/// Evaluates the applicable-action sets of `states` in parallel on a
/// `threads`-worker [`Pool`], returning them in `states` order.
///
/// "Every action translates into an edge in the graph representation of
/// the problem, and the neighbors of every node at every step can be
/// evaluated in parallel" — this helper is the kernel's parallel neighbor
/// expansion, used by the `sym-fext` parallelism experiment.
pub fn expand_states_parallel(
    actions: &[GroundAction],
    states: &[State],
    threads: usize,
) -> Vec<Vec<usize>> {
    assert!(threads > 0, "need at least one thread");
    Pool::new(threads).par_map(states, |_, state| {
        actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.applicable(state))
            .map(|(i, _)| i)
            .collect()
    })
}

/// The paper's Fig. 13 blocks-world domain with `n` blocks.
///
/// Initially every block sits on the table; the goal is the single stack
/// `B1` on `B2` on … on `Bn` (top to bottom).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn blocks_world(n: usize) -> Domain {
    assert!(n > 0, "need at least one block");
    let mut symbols: Vec<String> = (1..=n).map(|i| format!("B{i}")).collect();
    symbols.push("Table".to_owned());

    let mut init: Vec<Fact> = Vec::new();
    for b in 0..n {
        init.push(format!("On(B{},Table)", b + 1));
        init.push(format!("Clear(B{})", b + 1));
        init.push(format!("Block(B{})", b + 1));
    }

    // Goal stack: B1 on B2 on ... on Bn on Table.
    let mut goal: Vec<Fact> = (1..n).map(|i| format!("On(B{},B{})", i, i + 1)).collect();
    goal.push(format!("On(B{n},Table)"));

    let schemas = vec![
        // Move a clear block b from x onto a clear block y.
        ActionSchema {
            name: "Move",
            params: 3,
            distinct: true,
            pre: vec![
                "On(?0,?1)".into(),
                "Clear(?0)".into(),
                "Clear(?2)".into(),
                "Block(?0)".into(),
                "Block(?2)".into(),
            ],
            npre: vec![],
            add: vec!["On(?0,?2)".into(), "Clear(?1)".into()],
            del: vec!["On(?0,?1)".into(), "Clear(?2)".into()],
        },
        // Move a clear block b from block x onto the table.
        ActionSchema {
            name: "MoveToTable",
            params: 2,
            distinct: true,
            pre: vec![
                "On(?0,?1)".into(),
                "Clear(?0)".into(),
                "Block(?0)".into(),
                "Block(?1)".into(),
            ],
            npre: vec![],
            add: vec!["On(?0,Table)".into(), "Clear(?1)".into()],
            del: vec!["On(?0,?1)".into()],
        },
    ];

    Domain {
        symbols,
        schemas,
        init,
        goal,
    }
}

/// The paper's Fig. 14 firefighting domain: a rover carries a quadcopter
/// between locations; the quad refills its tank at the water source `W`,
/// flies over the fire `F`, and must pour water three times
/// (`ExtThree(F)`), recharging between flights.
pub fn firefight() -> Domain {
    let symbols: Vec<String> = ["A", "B", "C", "W", "F"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();

    let init: Vec<Fact> = vec![
        "Loc(A)".into(),
        "Loc(B)".into(),
        "Loc(C)".into(),
        "Loc(W)".into(),
        "Loc(F)".into(),
        "At(R,A)".into(),
        "OnRob(Q)".into(),
        "BatFull(Q)".into(),
        "EmptyTank(Q)".into(),
        "Poured0(F)".into(),
    ];
    let goal: Vec<Fact> = vec!["ExtThree(F)".into()];

    let mut schemas = vec![
        // The rover drives between locations (carrying the quad if landed).
        ActionSchema {
            name: "MoveToLoc",
            params: 2,
            distinct: true,
            pre: vec!["Loc(?0)".into(), "Loc(?1)".into(), "At(R,?0)".into()],
            npre: vec![],
            add: vec!["At(R,?1)".into()],
            del: vec!["At(R,?0)".into()],
        },
        // Take off from the rover (consumes the battery charge).
        ActionSchema {
            name: "TakeOff",
            params: 1,
            distinct: false,
            pre: vec![
                "Loc(?0)".into(),
                "At(R,?0)".into(),
                "OnRob(Q)".into(),
                "BatFull(Q)".into(),
            ],
            npre: vec![],
            add: vec!["InAir(Q)".into(), "At(Q,?0)".into(), "BatLow(Q)".into()],
            del: vec!["OnRob(Q)".into(), "BatFull(Q)".into()],
        },
        // Fly between locations.
        ActionSchema {
            name: "FlyTo",
            params: 2,
            distinct: true,
            pre: vec![
                "Loc(?0)".into(),
                "Loc(?1)".into(),
                "InAir(Q)".into(),
                "At(Q,?0)".into(),
            ],
            npre: vec![],
            add: vec!["At(Q,?1)".into()],
            del: vec!["At(Q,?0)".into()],
        },
        // Land on the rover (must be co-located).
        ActionSchema {
            name: "Land",
            params: 1,
            distinct: false,
            pre: vec![
                "Loc(?0)".into(),
                "At(R,?0)".into(),
                "At(Q,?0)".into(),
                "InAir(Q)".into(),
            ],
            npre: vec![],
            add: vec!["OnRob(Q)".into()],
            del: vec!["InAir(Q)".into(), "At(Q,?0)".into()],
        },
        // Recharge while docked.
        ActionSchema {
            name: "Charge",
            params: 0,
            distinct: false,
            pre: vec!["OnRob(Q)".into(), "BatLow(Q)".into()],
            npre: vec![],
            add: vec!["BatFull(Q)".into()],
            del: vec!["BatLow(Q)".into()],
        },
        // Fill the tank while docked at the water source (Fig. 14's
        // FillWater: Quad(x), OnRob(x), EmptyTank(x), At(R,W)).
        ActionSchema {
            name: "FillWater",
            params: 0,
            distinct: false,
            pre: vec!["OnRob(Q)".into(), "EmptyTank(Q)".into(), "At(R,W)".into()],
            npre: vec![],
            add: vec!["FullTank(Q)".into()],
            del: vec!["EmptyTank(Q)".into()],
        },
    ];

    // Pour actions advance the extinguish counter.
    for (from, to) in [
        ("Poured0(F)", "Poured1(F)"),
        ("Poured1(F)", "Poured2(F)"),
        ("Poured2(F)", "ExtThree(F)"),
    ] {
        schemas.push(ActionSchema {
            name: match from {
                "Poured0(F)" => "PourWater1",
                "Poured1(F)" => "PourWater2",
                _ => "PourWater3",
            },
            params: 0,
            distinct: false,
            pre: vec![
                "InAir(Q)".into(),
                "At(Q,F)".into(),
                "FullTank(Q)".into(),
                from.into(),
            ],
            npre: vec![],
            add: vec![to.into(), "EmptyTank(Q)".into()],
            del: vec![from.into(), "FullTank(Q)".into()],
        });
    }

    Domain {
        symbols,
        schemas,
        init,
        goal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{NullTrace, RecordingTrace};

    #[test]
    fn traced_solve_is_bit_identical_and_emits_interning_traffic() {
        let domain = blocks_world(4);
        let mut profiler = Profiler::new();
        let mut rec = RecordingTrace::default();
        let traced = SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut rec)
            .unwrap();
        let plain = SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(traced.actions, plain.actions);
        assert_eq!(traced.expanded, plain.expanded);
        // Fact-string reads, index probes and arena-slot writes all show up.
        assert!(rec
            .ops
            .iter()
            .any(|op| !op.is_write && op.addr >= FACT_REGION));
        assert!(rec
            .ops
            .iter()
            .any(|op| op.addr >= IDS_REGION && op.addr < FACT_REGION));
        assert!(rec.ops.iter().any(|op| op.is_write && op.addr < (1 << 40)));
    }

    #[test]
    fn three_block_world_matches_paper_sketch() {
        let domain = blocks_world(3);
        let mut profiler = Profiler::new();
        let plan = SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!(domain.validate_plan(&plan.actions));
        // Stacking three table blocks takes exactly two moves.
        assert_eq!(plan.actions.len(), 2);
    }

    #[test]
    fn five_block_world_solvable() {
        let domain = blocks_world(5);
        let mut profiler = Profiler::new();
        let plan = SymbolicPlanner::new(1.5)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!(domain.validate_plan(&plan.actions));
        assert!(plan.actions.len() >= 4);
    }

    #[test]
    fn firefight_plan_pours_three_times() {
        let domain = firefight();
        let mut profiler = Profiler::new();
        let plan = SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!(domain.validate_plan(&plan.actions));
        let pours = plan
            .actions
            .iter()
            .filter(|a| a.starts_with("PourWater"))
            .count();
        assert_eq!(pours, 3);
        // Refills and recharges are forced between pours.
        assert!(
            plan.actions
                .iter()
                .filter(|a| a.starts_with("FillWater"))
                .count()
                >= 3
        );
        assert!(
            plan.actions
                .iter()
                .filter(|a| a.starts_with("Charge"))
                .count()
                >= 2
        );
    }

    #[test]
    fn fext_branches_wider_than_blkw() {
        // The paper's §V.12 finding: sym-fext has ~3.2x the parallelism
        // because it has more applicable actions per state.
        let mut profiler = Profiler::new();
        let blkw = SymbolicPlanner::new(1.0)
            .solve(&blocks_world(3), &mut profiler, &mut NullTrace)
            .unwrap();
        let fext = SymbolicPlanner::new(1.0)
            .solve(&firefight(), &mut profiler, &mut NullTrace)
            .unwrap();
        assert!(
            fext.mean_branching > blkw.mean_branching,
            "fext {} vs blkw {}",
            fext.mean_branching,
            blkw.mean_branching
        );
    }

    #[test]
    fn invalid_plans_rejected() {
        let domain = blocks_world(3);
        assert!(!domain.validate_plan(&["Move(B1,Table,B9)".to_owned()]));
        assert!(!domain.validate_plan(&["Move(B1,B2,B3)".to_owned()])); // inapplicable
        assert!(!domain.validate_plan(&[])); // goal not satisfied initially
    }

    #[test]
    fn unsolvable_domain_is_unsolvable() {
        let mut domain = blocks_world(2);
        domain.goal.push("On(B1,B9)".to_owned()); // impossible fact
        let mut profiler = Profiler::new();
        assert_eq!(
            SymbolicPlanner::new(1.0)
                .solve(&domain, &mut profiler, &mut NullTrace)
                .unwrap_err(),
            SolveError::Unsolvable
        );
    }

    #[test]
    fn search_stops_at_its_budget() {
        // 16 blocks: about 270 states per expansion, so the budget runs
        // out after some 200 expansions, long before a plan.
        let mut profiler = Profiler::new();
        assert_eq!(
            SymbolicPlanner::new(1.0)
                .solve(&blocks_world(16), &mut profiler, &mut NullTrace)
                .unwrap_err(),
            SolveError::BudgetExhausted
        );
    }

    #[test]
    fn grounding_respects_distinctness() {
        let domain = blocks_world(2);
        let actions = domain.ground();
        assert!(actions.iter().all(|a| {
            // No action moves a block onto itself.
            !a.name.contains("(B1,B1") && !a.name.contains(",B1,B1")
        }));
    }

    #[test]
    fn parallel_expansion_matches_serial() {
        let domain = firefight();
        let actions = domain.ground();
        // Collect a few reachable states.
        let mut states = vec![domain.initial_state()];
        for _ in 0..3 {
            let last = states.last().unwrap().clone();
            if let Some(a) = actions.iter().find(|a| a.applicable(&last)) {
                states.push(a.apply(&last));
            }
        }
        let serial = expand_states_parallel(&actions, &states, 1);
        let parallel = expand_states_parallel(&actions, &states, 4);
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn profiler_regions_recorded() {
        let domain = blocks_world(4);
        let mut profiler = Profiler::timed();
        SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!(profiler.region_calls("grounding") == 1);
        assert!(profiler.region_total("string_ops") > std::time::Duration::ZERO);
    }

    #[test]
    fn hot_timing_off_skips_string_ops_but_keeps_wall_time() {
        let domain = blocks_world(4);
        let mut profiler = Profiler::new();
        SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(profiler.region_calls("string_ops"), 0);
        // Aggregate solve wall time is still attributed.
        assert!(profiler.region_calls("graph_search") >= 1);
    }

    #[test]
    fn negative_preconditions_gate_actions() {
        // A domain where an action is blocked while a fact holds.
        let domain = Domain {
            symbols: vec!["D".into()],
            schemas: vec![
                ActionSchema {
                    name: "Open",
                    params: 1,
                    distinct: false,
                    pre: vec!["Door(?0)".into()],
                    npre: vec!["Locked(?0)".into()],
                    add: vec!["Open(?0)".into()],
                    del: vec![],
                },
                ActionSchema {
                    name: "Unlock",
                    params: 1,
                    distinct: false,
                    pre: vec!["Door(?0)".into(), "Locked(?0)".into()],
                    npre: vec![],
                    add: vec![],
                    del: vec!["Locked(?0)".into()],
                },
            ],
            init: vec!["Door(D)".into(), "Locked(D)".into()],
            goal: vec!["Open(D)".into()],
        };
        let mut profiler = Profiler::new();
        let plan = SymbolicPlanner::new(1.0)
            .solve(&domain, &mut profiler, &mut NullTrace)
            .unwrap();
        // Must unlock before opening.
        assert_eq!(
            plan.actions,
            vec!["Unlock(D)".to_owned(), "Open(D)".to_owned()]
        );
        assert!(domain.validate_plan(&plan.actions));
    }

    #[test]
    fn ground_action_application_is_pure() {
        let domain = blocks_world(3);
        let actions = domain.ground();
        let state = domain.initial_state();
        let applicable: Vec<_> = actions.iter().filter(|a| a.applicable(&state)).collect();
        assert!(!applicable.is_empty());
        let snapshot = state.clone();
        let _ = applicable[0].apply(&state);
        assert_eq!(state, snapshot, "apply must not mutate its input");
    }

    #[test]
    fn blocks_world_goal_is_a_tower() {
        let domain = blocks_world(4);
        assert!(domain.goal.contains(&"On(B1,B2)".to_owned()));
        assert!(domain.goal.contains(&"On(B4,Table)".to_owned()));
    }
}

//! Planning-stage kernel adapters.

use rtr_geom::maps;
use rtr_harness::{Args, OptionSpec, Profiler};
use rtr_planning::{
    blocks_world, firefight, movtar, ArmProblem, MovingTarget, MovtarConfig, Pp2d, Pp2dConfig,
    Pp3d, Pp3dConfig, Prm, PrmConfig, Rrt, RrtConfig, RrtPp, RrtStar, SymbolicPlanner,
};

use rtr_planning::RrtStarRun;
use rtr_trace::MemTrace;

use super::{bad_value, count_arg, report, OneShotInstance};
use crate::{Kernel, KernelError, KernelInstance, KernelReport, Stage, StepStatus, TraceSession};

/// Parses `--weight`, the heuristic weight of the graph-search kernels
/// (default 1.0, plain A*).
fn weight_arg(args: &Args) -> Result<f64, KernelError> {
    let weight = args.get_f64("weight", 1.0)?;
    if weight.is_nan() || weight < 0.0 {
        return Err(bad_value(
            "weight",
            weight,
            "a non-negative heuristic weight",
        ));
    }
    Ok(weight)
}

/// Parses the paper's `--map` option (`map-f` or `map-c`) into an arm
/// problem.
fn arm_problem(args: &Args) -> Result<ArmProblem, KernelError> {
    let seed = args.get_u64("seed", 2)?;
    match args.get_str("map", "map-c").as_str() {
        "map-f" => Ok(ArmProblem::map_f(seed)),
        "map-c" => Ok(ArmProblem::map_c(seed)),
        other => Err(bad_value("map", other, "map-f or map-c")),
    }
}

fn rrt_config(args: &Args, default_samples: usize) -> Result<RrtConfig, KernelError> {
    // A step that is not finite and positive never extends the tree:
    // RRT and RRT++ would spin forever, RRT* would burn its budget.
    let epsilon = args.get_f64("epsilon", 0.3)?;
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(bad_value(
            "epsilon",
            epsilon,
            "a finite positive step length",
        ));
    }
    Ok(RrtConfig {
        max_samples: args.get_usize("samples", default_samples)?,
        epsilon,
        goal_bias: args.get_f64("bias", 0.05)?,
        neighbor_radius: args.get_f64("radius", 0.9)?,
        seed: args.get_u64("seed", 2)?,
        star_refine_factor: Some(8.0),
    })
}

fn arm_options() -> Vec<OptionSpec> {
    let mut options = vec![
        OptionSpec {
            name: "bias",
            help: "Random number generation bias",
        },
        OptionSpec {
            name: "epsilon",
            help: "Epsilon (minimum movement)",
        },
        OptionSpec {
            name: "map",
            help: "Input map file (map-f | map-c)",
        },
        OptionSpec {
            name: "radius",
            help: "Neighborhood distance",
        },
        OptionSpec {
            name: "samples",
            help: "Maximum samples",
        },
        OptionSpec {
            name: "seed",
            help: "Random seed",
        },
    ];
    options.extend(super::trace_options());
    options
}

/// Most cells per side `04.pp2d --size` accepts: 8x the default 512 and
/// 4x the paper's 1024-cell Boston map. The map is one byte per cell
/// (16 MB at the cap) and the search grows with it: 705 MB peak RSS at
/// the cap.
const MAX_CITY_SIDE: usize = 4_096;

/// `04.pp2d`: car path planning across the procedural city.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pp2dKernel;

impl Kernel for Pp2dKernel {
    fn name(&self) -> &'static str {
        "04.pp2d"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Collision detection"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "size",
                help: "City map side length in cells",
            },
            OptionSpec {
                name: "weight",
                help: "Heuristic inflation (1.0 = A*)",
            },
            OptionSpec {
                name: "seed",
                help: "Map generation seed",
            },
            OptionSpec {
                name: "map-file",
                help: "MovingAI .map file (e.g. Boston_1_1024.map)",
            },
            OptionSpec {
                name: "scen-file",
                help: "MovingAI .scen file supplying start/goal",
            },
            OptionSpec {
                name: "scen-index",
                help: "Instance index within the .scen file",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let size = count_arg(
            args,
            "size",
            512,
            MAX_CITY_SIDE,
            "a side of at most 4096 cells",
        )?
        .max(64);
        let weight = weight_arg(args)?;
        let seed = args.get_u64("seed", 3)?;

        // With `--map-file`, plan on a real MovingAI map (the paper's
        // Boston_1_1024 setting); otherwise on the procedural city.
        let map_file = args.get_str("map-file", "");
        let (map, start, goal) = if map_file.is_empty() {
            let map = maps::city_blocks(size, 1.0, seed);
            // Street-guaranteed endpoints: coordinates ≡ 1 modulo the
            // block pitch, with footprint clearance from the map edge.
            let block = (size / 16).max(8);
            let mut g = (size - 7) / block * block + 1;
            if g + 6 >= size {
                g -= block;
            }
            (map, (4, 1), (g, g))
        } else {
            let text = std::fs::read_to_string(&map_file)
                .map_err(|e| KernelError::Input(format!("{map_file}: {e}")))?;
            let map = maps::parse_movingai(&text, 1.0).map_err(KernelError::Input)?;
            let scen_file = args.get_str("scen-file", "");
            let (start, goal) = if scen_file.is_empty() {
                let (w, h) = (map.width(), map.height());
                if w < 5 || h < 5 {
                    return Err(KernelError::Input(format!(
                        "{map_file}: {w}x{h} map is too small for the default start (4, 4) \
                         and goal (width - 5, height - 5); pass --scen-file"
                    )));
                }
                ((4, 4), (w - 5, h - 5))
            } else {
                let scen_text = std::fs::read_to_string(&scen_file)
                    .map_err(|e| KernelError::Input(format!("{scen_file}: {e}")))?;
                let scens = maps::parse_movingai_scen(&scen_text, map.width(), map.height())
                    .map_err(|e| KernelError::Input(format!("{scen_file}: {e}")))?;
                let idx = args.get_usize("scen-index", scens.len().saturating_sub(1))?;
                let scen = scens
                    .get(idx)
                    .ok_or_else(|| KernelError::Input(format!("scen index {idx} out of range")))?;
                (scen.start, scen.goal)
            };
            (map, start, goal)
        };
        let config = Pp2dConfig {
            weight,
            ..Pp2dConfig::car(start, goal)
        };
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = Pp2d::new(config)
                    .plan(&map, profiler, trace)
                    .ok_or(KernelError::Unsolvable("pp2d goal unreachable"))?;
                Ok(vec![
                    ("path cost (m)".into(), format!("{:.1}", result.cost)),
                    ("expanded".into(), result.expanded.to_string()),
                    (
                        "collision checks".into(),
                        result.collision_checks.to_string(),
                    ),
                    ("cells probed".into(), result.cells_probed.to_string()),
                ])
            },
        ))
    }
}

/// Most cells per side `05.pp3d --size` accepts: 8x the default 128.
/// The voxel map is one byte per cell, side² × height: 16 MB at this cap
/// and the default height (25 MB peak RSS), 1 GiB with both caps.
const MAX_CAMPUS_SIDE: usize = 1_024;

/// Most airspace cells `05.pp3d --height` accepts: 64x the default 16;
/// 16 MB of voxels at the default side (32 MB peak RSS).
const MAX_AIRSPACE_HEIGHT: usize = 1_024;

/// `05.pp3d`: UAV path planning across the procedural campus.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pp3dKernel;

impl Kernel for Pp3dKernel {
    fn name(&self) -> &'static str {
        "05.pp3d"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Collision detection, graph search"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "size",
                help: "Campus side length in cells",
            },
            OptionSpec {
                name: "height",
                help: "Airspace height in cells",
            },
            OptionSpec {
                name: "weight",
                help: "Heuristic inflation (1.0 = A*)",
            },
            OptionSpec {
                name: "seed",
                help: "Map generation seed",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let size = count_arg(
            args,
            "size",
            128,
            MAX_CAMPUS_SIDE,
            "a side of at most 1024 cells",
        )?
        .max(16);
        let height = count_arg(
            args,
            "height",
            16,
            MAX_AIRSPACE_HEIGHT,
            "a height of at most 1024 cells",
        )?
        .max(4);
        let weight = weight_arg(args)?;
        let seed = args.get_u64("seed", 11)?;

        let map = maps::campus_3d(size, size, height, 1.0, seed);
        let cruise = height * 2 / 3;
        let config = Pp3dConfig {
            start: (1, 1, cruise),
            goal: (size - 2, size - 2, cruise),
            weight,
        };
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = Pp3d::new(config)
                    .plan(&map, profiler, trace)
                    .ok_or(KernelError::Unsolvable("pp3d goal unreachable"))?;
                Ok(vec![
                    ("path cost (m)".into(), format!("{:.1}", result.cost)),
                    ("expanded".into(), result.expanded.to_string()),
                    ("generated".into(), result.generated.to_string()),
                    (
                        "collision checks".into(),
                        result.collision_checks.to_string(),
                    ),
                ])
            },
        ))
    }
}

/// Most cells per side `06.movtar --size` accepts: 10x the default 96.
/// The cost field is 8 B per cell (8 MB at the cap); the heuristic flood
/// and the search grow with it: 489 MB peak RSS at the cap.
const MAX_FIELD_SIDE: usize = 1_024;

/// Most target steps `06.movtar --horizon` accepts; the default is twice
/// the side (192, at most 2048). The trajectory is 16 B per step, 1.6 MB
/// at the cap.
const MAX_HORIZON: usize = 100_000;

/// `06.movtar`: catching a moving target with WA* and a backward-Dijkstra
/// heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct MovtarKernel;

impl Kernel for MovtarKernel {
    fn name(&self) -> &'static str {
        "06.movtar"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Input-dependent"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "size",
                help: "Environment side length in cells",
            },
            OptionSpec {
                name: "horizon",
                help: "Target trajectory length (steps)",
            },
            OptionSpec {
                name: "epsilon",
                help: "WA* heuristic inflation",
            },
            OptionSpec {
                name: "seed",
                help: "Environment seed",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let size = count_arg(
            args,
            "size",
            96,
            MAX_FIELD_SIDE,
            "a side of at most 1024 cells",
        )?
        .max(8);
        let horizon = count_arg(
            args,
            "horizon",
            size * 2,
            MAX_HORIZON,
            "a horizon of at most 100000 steps",
        )?;
        if horizon == 0 {
            return Err(bad_value(
                "horizon",
                horizon,
                "a horizon of at least 1 step",
            ));
        }
        let epsilon = args.get_f64("epsilon", 2.0)?.max(1.0);
        let seed = args.get_u64("seed", 3)?;

        let (field, start, trajectory) = movtar::synthetic_scenario(size, horizon, seed);
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = MovingTarget::new(MovtarConfig {
                    start,
                    target_trajectory: trajectory,
                    epsilon,
                })
                .plan(&field, profiler, trace)
                .ok_or(KernelError::Unsolvable("target escaped the horizon"))?;
                Ok(vec![
                    ("catch time (steps)".into(), result.catch_time.to_string()),
                    ("path cost".into(), format!("{:.1}", result.cost)),
                    ("expanded".into(), result.expanded.to_string()),
                    ("heuristic cells".into(), result.heuristic_cells.to_string()),
                ])
            },
        ))
    }
}

/// Most vertices `07.prm --roadmap` accepts: 83x the default 1200. The
/// build keeps about 1.1 KB per vertex at 12 neighbors: 122 MB peak RSS
/// at the cap.
const MAX_ROADMAP: usize = 100_000;

/// Most neighbors per vertex `07.prm --neighbors` accepts: 83x the
/// default 12. Candidate lists and collision pairs grow with roadmap ×
/// neighbors (79 MB peak RSS at the cap and the default roadmap).
const MAX_NEIGHBORS: usize = 1_000;

/// `07.prm`: probabilistic roadmap for the 5-DoF arm.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrmKernel;

impl Kernel for PrmKernel {
    fn name(&self) -> &'static str {
        "07.prm"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Graph search, L2-norm calculations"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "map",
                help: "Workspace (map-f | map-c)",
            },
            OptionSpec {
                name: "roadmap",
                help: "Roadmap size (vertices)",
            },
            OptionSpec {
                name: "neighbors",
                help: "Connections attempted per vertex",
            },
            OptionSpec {
                name: "seed",
                help: "Random seed",
            },
            super::threads_option(),
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let config = PrmConfig {
            roadmap_size: count_arg(
                args,
                "roadmap",
                1200,
                MAX_ROADMAP,
                "a roadmap of at most 100000 vertices",
            )?,
            neighbors: count_arg(
                args,
                "neighbors",
                12,
                MAX_NEIGHBORS,
                "a neighbor count of at most 1000",
            )?,
            seed: args.get_u64("seed", 2)?,
            threads: super::threads_arg(args)?,
        };
        let problem = arm_problem(args)?;
        // The offline roadmap construction runs at instantiation, outside
        // the region of interest — only the online query is measured.
        let mut profiler = Profiler::timed();
        let prm = Prm::new(config);
        let roadmap = prm.build(&problem, &mut profiler);
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            profiler,
            move |profiler, trace| {
                let result = prm
                    .query(&problem, &roadmap, profiler, trace)
                    .ok_or(KernelError::Unsolvable("roadmap too sparse for query"))?;
                Ok(vec![
                    ("path cost (rad)".into(), format!("{:.2}", result.cost)),
                    ("roadmap edges".into(), roadmap.edge_count.to_string()),
                    ("online expanded".into(), result.expanded.to_string()),
                    ("L2 evals".into(), result.l2_evals.to_string()),
                ])
            },
        ))
    }
}

/// `08.rrt`: rapidly-exploring random tree for the 5-DoF arm.
#[derive(Debug, Clone, Copy, Default)]
pub struct RrtKernel;

impl Kernel for RrtKernel {
    fn name(&self) -> &'static str {
        "08.rrt"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Collision detection, nearest neighbor search"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        arm_options()
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let problem = arm_problem(args)?;
        let config = rrt_config(args, 50_000)?;
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = Rrt::new(config)
                    .plan(&problem, profiler, trace)
                    .ok_or(KernelError::Unsolvable("rrt exhausted its samples"))?;
                Ok(vec![
                    ("path cost (rad)".into(), format!("{:.2}", result.cost)),
                    ("samples".into(), result.samples.to_string()),
                    ("tree size".into(), result.tree_size.to_string()),
                    ("NN queries".into(), result.nn_queries.to_string()),
                    (
                        "collision checks".into(),
                        result.collision_checks.to_string(),
                    ),
                ])
            },
        ))
    }
}

/// `09.rrtstar`: asymptotically optimal RRT*.
#[derive(Debug, Clone, Copy, Default)]
pub struct RrtStarKernel;

impl Kernel for RrtStarKernel {
    fn name(&self) -> &'static str {
        "09.rrtstar"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Collision detection, nearest neighbor search"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        arm_options()
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let problem = arm_problem(args)?;
        let config = rrt_config(args, 8_000)?;
        let star = RrtStar::new(config);
        let run = star.begin(&problem);
        Ok(Box::new(RrtStarInstance {
            star,
            run: Some(run),
            problem,
            profiler: Profiler::timed(),
        }))
    }
}

/// Stepped lifecycle state for `09.rrtstar`: each step draws one sample
/// and runs the full extend/parent-choice/rewire iteration. The search
/// is anytime — an external driver may stop stepping early and still
/// harvest the best plan found so far.
struct RrtStarInstance {
    star: RrtStar,
    run: Option<RrtStarRun>,
    problem: ArmProblem,
    profiler: Profiler,
}

impl KernelInstance for RrtStarInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        let run = self.run.as_mut().expect("step called after finish");
        let more = self
            .star
            // rtr-lint: allow(hot-alloc) -- rewiring's cost propagation snapshots the children list per accepted sample; tree growth is the RRT* kernel's own measured behavior
            .sample_step(run, &self.problem, &mut self.profiler, trace);
        Ok(if more {
            StepStatus::Running
        } else {
            StepStatus::Done
        })
    }

    fn finish(
        mut self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let run = self.run.take().expect("finish called twice");
        let result = self
            .star
            .finish_plan(run, &self.problem)
            .ok_or(KernelError::Unsolvable("rrtstar never connected the goal"))?;
        let metrics = vec![
            ("path cost (rad)".into(), format!("{:.2}", result.base.cost)),
            ("tree size".into(), result.base.tree_size.to_string()),
            ("rewirings".into(), result.rewirings.to_string()),
            (
                "goal connections".into(),
                result.goal_connections.to_string(),
            ),
            ("NN queries".into(), result.base.nn_queries.to_string()),
        ];
        Ok(report(
            "09.rrtstar",
            Stage::Planning,
            self.profiler,
            roi_seconds,
            metrics,
            session,
        ))
    }
}

/// Most shortcut passes `10.rrtpp --passes` accepts: 166x the default 6.
/// The count was cast to `u32`, so 4294967296 ran no pass at all. The
/// loop stops at the first pass that finds no shortcut, so a run at the
/// cap takes as long as one at the default (about 10 ms, release build,
/// 2-vCPU x86-64 host).
const MAX_SHORTCUT_PASSES: usize = 1_000;

/// `10.rrtpp`: RRT with shortcut post-processing.
#[derive(Debug, Clone, Copy, Default)]
pub struct RrtPpKernel;

impl Kernel for RrtPpKernel {
    fn name(&self) -> &'static str {
        "10.rrtpp"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Collision detection, nearest neighbor search"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = arm_options();
        options.push(OptionSpec {
            name: "passes",
            help: "Shortcut post-processing passes",
        });
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let problem = arm_problem(args)?;
        let config = rrt_config(args, 50_000)?;
        let passes = count_arg(
            args,
            "passes",
            6,
            MAX_SHORTCUT_PASSES,
            "a pass count of at most 1000",
        )? as u32;
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = RrtPp::new(config, passes)
                    .plan(&problem, profiler, trace)
                    .ok_or(KernelError::Unsolvable("rrt exhausted its samples"))?;
                Ok(vec![
                    ("raw cost (rad)".into(), format!("{:.2}", result.raw_cost)),
                    (
                        "final cost (rad)".into(),
                        format!("{:.2}", result.base.cost),
                    ),
                    ("shortcuts".into(), result.shortcuts.to_string()),
                    ("passes".into(), result.passes.to_string()),
                ])
            },
        ))
    }
}

/// Shared stepped adapter for the two symbolic kernels: the whole graph
/// search is one indivisible step, so both ride [`OneShotInstance`].
fn symbolic_instance(
    kernel: &'static str,
    stage: Stage,
    domain: rtr_planning::Domain,
    args: &Args,
) -> Result<Box<dyn KernelInstance>, KernelError> {
    let weight = weight_arg(args)?;
    Ok(OneShotInstance::boxed(
        kernel,
        stage,
        Profiler::timed(),
        move |profiler, trace| {
            let plan = SymbolicPlanner::new(weight)
                .solve(&domain, profiler, trace)
                .ok_or(KernelError::Unsolvable("no symbolic plan exists"))?;
            let valid = domain.validate_plan(&plan.actions);
            Ok(vec![
                ("plan length".into(), plan.actions.len().to_string()),
                ("plan valid".into(), valid.to_string()),
                ("expanded".into(), plan.expanded.to_string()),
                (
                    "mean branching".into(),
                    format!("{:.2}", plan.mean_branching),
                ),
                ("ground actions".into(), plan.ground_actions.to_string()),
            ])
        },
    ))
}

/// Most blocks `11.sym-blkw --blocks` accepts: 10x the default 6. The
/// solve first grounds (n + 1)·n·(n − 1) move actions of about 650 B
/// each, about 170 MB at the cap. The cap does not bound the search that
/// follows, which passed 900 MB in 20 s at 16 blocks.
const MAX_BLOCKS: usize = 64;

/// `11.sym-blkw`: the blocks-world symbolic planning problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymBlkwKernel;

impl Kernel for SymBlkwKernel {
    fn name(&self) -> &'static str {
        "11.sym-blkw"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Graph search, string manipulation"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "blocks",
                help: "Number of blocks",
            },
            OptionSpec {
                name: "weight",
                help: "Goal-count heuristic weight",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let blocks =
            count_arg(args, "blocks", 6, MAX_BLOCKS, "a block count of at most 64")?.max(1);
        symbolic_instance(self.name(), self.stage(), blocks_world(blocks), args)
    }
}

/// `12.sym-fext`: the firefighting symbolic planning problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymFextKernel;

impl Kernel for SymFextKernel {
    fn name(&self) -> &'static str {
        "12.sym-fext"
    }

    fn stage(&self) -> Stage {
        Stage::Planning
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Graph search, string manipulation"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![OptionSpec {
            name: "weight",
            help: "Goal-count heuristic weight",
        }];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        symbolic_instance(self.name(), self.stage(), firefight(), args)
    }
}

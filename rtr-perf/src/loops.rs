//! The closed-loop workloads, `loop-pfl` and `loop-ekfslam`.
//!
//! A pass replays a fixed list of scenario episodes (sense → localize →
//! plan → track until the goal). The two workloads share the world, the
//! route and the tracker and differ only in the localizer: with the
//! particle filter, ray casting is most of the tick; with EKF-SLAM the
//! localizer is a few microseconds and the MPC tracker dominates. A
//! change to ray casting should therefore move `loop-pfl` alone, and a
//! change to the tracker shows at full strength on `loop-ekfslam`.
//!
//! The untraced pass is single-threaded: one ray-casting worker and no
//! telemetry thread. The traced pass streams stage latencies to a
//! collector thread and compares one- and two-worker ray casting.

use std::time::{Duration, Instant};

use rtr_harness::Collector;
use rtr_scenario::{LocalizerKind, ScenarioConfig, ScenarioReport, ScenarioState};
use rtr_trace::{metric_channel, MetricMap, MetricPublisher};

use crate::host::{nproc, NoiseProbe};
use crate::report::{Outcome, PassSamples};
use crate::stats::{quantile, ratio, Budget, Digest, Spread};
use crate::Scope;

/// Episodes per pass. Set-up is about 70 ms of each episode, so twelve
/// keep a pass near one second on the EKF loop and three on the PFL loop,
/// and a run gets enough passes for each world's lower quartile. World
/// to world, the median tick differs by 4 % (EKF) and 9 % (PFL), so
/// twelve worlds make the seed move the result by 1–3 %.
pub const EPISODES: usize = 12;

/// Scenario seeds (map and noise) of the episode pool: the seeds in
/// 1..=147 whose route exists and whose tracker reaches the goal. Of
/// those 147 seeds, 71 have no route and 12 end their tracking run short
/// of the goal; both are properties of the world, not of the localizer
/// (the plant follows the tracker, never the estimate), so one pool
/// serves both loops. A pooled world that stops reaching the goal is a
/// failed operation, not a smaller workload.
pub const WORLDS: [u64; 64] = [
    3, 4, 6, 7, 9, 12, 13, 15, 20, 21, 22, 24, 25, 26, 27, 31, 32, 36, 40, 41, 43, 44, 45, 46, 47,
    51, 52, 55, 56, 59, 60, 62, 65, 66, 70, 71, 72, 74, 82, 83, 85, 88, 90, 94, 95, 97, 99, 100,
    104, 109, 111, 112, 116, 125, 126, 127, 129, 130, 131, 134, 136, 138, 140, 147,
];

/// A localization error above this (m, mean over the episode) fails the
/// episode: the estimate has lost the robot.
const LOC_ERR_LIMIT_M: f64 = 1.0;

/// Episodes the two-worker ray-casting comparison replays.
const THREAD_PROBE_EPISODES: usize = 2;

/// The `count` episode seeds for input seed `seed`: a SplitMix64-driven
/// Fisher–Yates draw from [`WORLDS`], without replacement.
pub fn episodes(seed: u64, count: usize) -> Vec<u64> {
    let mut pool = WORLDS.to_vec();
    let mut state = seed;
    let count = count.min(pool.len());
    for i in 0..count {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = i + (z % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// The scenario configuration of one episode.
fn config(world: u64, localizer: LocalizerKind, threads: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: world,
        localizer,
        threads,
        ..ScenarioConfig::default()
    }
}

/// One replayed episode.
struct Episode {
    begin: Duration,
    ticks: Vec<Duration>,
    report: ScenarioReport,
    publisher: Option<MetricPublisher>,
}

/// Builds and runs one episode, timing `begin` and every `step` from
/// outside; `publisher` (traced runs) receives the stage latencies.
fn replay(config: &ScenarioConfig, publisher: Option<MetricPublisher>) -> Result<Episode, String> {
    let start = Instant::now();
    let mut state =
        ScenarioState::begin(config).map_err(|e| format!("world {}: {e}", config.seed))?;
    let begin = start.elapsed();
    if let Some(publisher) = publisher {
        state.publish_to(publisher);
    }
    let mut ticks = Vec::with_capacity(config.max_ticks);
    loop {
        let start = Instant::now();
        let more = state.step();
        ticks.push(start.elapsed());
        if !more {
            break;
        }
    }
    let (report, publisher) = state.finish();
    Ok(Episode {
        begin,
        ticks,
        report,
        publisher,
    })
}

/// The episode's correctness checks; `golden` holds the digest of the
/// first replay of this world and must not change across passes.
fn check(report: &ScenarioReport, golden: &mut Option<u64>) -> Result<(), String> {
    let mut digest = Digest::default();
    digest.feed(report.golden().as_bytes());
    let world = report.seed;
    if golden.get_or_insert(digest.value()) != &digest.value() {
        return Err(format!(
            "world {world}: golden differs from the first replay"
        ));
    }
    if !report.goal_reached {
        return Err(format!(
            "world {world}: goal not reached in {} ticks",
            report.ticks
        ));
    }
    let errors = [
        report.mean_position_error,
        report.tracking.mean_tracking_error,
    ];
    if !errors.iter().all(|e| e.is_finite()) || report.mean_position_error > LOC_ERR_LIMIT_M {
        return Err(format!(
            "world {world}: localization error {} m, tracking error {} m",
            errors[0], errors[1]
        ));
    }
    Ok(())
}

/// Stage-time totals over one pass, from the scenario's region report.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    sense: f64,
    localize: f64,
    plan: f64,
    track: f64,
}

impl Stages {
    fn add(&mut self, report: &ScenarioReport) {
        for region in &report.regions {
            let seconds = region.total.as_secs_f64();
            match region.name.as_str() {
                "sense" => self.sense += seconds,
                "localize" => self.localize += seconds,
                "plan" => self.plan += seconds,
                "track" => self.track += seconds,
                _ => {}
            }
        }
    }
}

/// Runs a loop workload.
pub fn run(name: &'static str, localizer: LocalizerKind, scope: &Scope, traced: bool) -> Outcome {
    let mut outcome = Outcome::new(name, traced);
    let worlds = episodes(scope.seed, scope.episodes);
    let mut goldens: Vec<Option<u64>> = vec![None; worlds.len()];

    // Warm-up: one untimed episode fills caches and lazy state.
    if let Some(&world) = worlds.first() {
        let _ = replay(&config(world, localizer, 1), None);
    }

    let (mut publisher, collector) = if traced {
        let (publisher, reader) = metric_channel(1 << 14);
        (
            Some(publisher),
            Some(Collector::spawn(reader, MetricMap::new())),
        )
    } else {
        (None, None)
    };

    let mut probe = NoiseProbe::default();
    let mut budget = Budget::new(scope.seconds);
    let mut ticks: Vec<f64> = Vec::new();
    let mut passes = PassSamples::new(worlds.len());
    let mut stage_passes: Vec<Stages> = Vec::new();
    let mut first_pass: Option<Vec<ScenarioReport>> = None;
    while budget.next_pass() {
        probe.sample();
        let (mut pass_setup, mut pass_stages) = (0.0, Stages::default());
        let mut reports = Vec::with_capacity(worlds.len());
        for (i, &world) in worlds.iter().enumerate() {
            let episode = match replay(&config(world, localizer, 1), publisher.take()) {
                Ok(episode) => episode,
                Err(e) => {
                    outcome.op(Err(e));
                    continue;
                }
            };
            publisher = episode.publisher;
            pass_setup += episode.begin.as_secs_f64();
            let mut episode_ticks: Vec<f64> = episode
                .ticks
                .iter()
                .map(|d| d.as_secs_f64() * 1e6)
                .collect();
            ticks.extend_from_slice(&episode_ticks);
            let mean = ratio(episode_ticks.iter().sum(), episode_ticks.len() as f64);
            passes.item(i, quantile(&mut episode_ticks, 0.5), mean);
            pass_stages.add(&episode.report);
            outcome.op(check(&episode.report, &mut goldens[i]));
            reports.push(episode.report);
        }
        passes.end_pass(pass_setup);
        stage_passes.push(pass_stages);
        first_pass.get_or_insert(reports);
    }
    let first_pass = first_pass.unwrap_or_default();

    let mut digest = Digest::default();
    for report in &first_pass {
        digest.feed(report.golden().as_bytes());
    }
    let per_episode = |f: &dyn Fn(&ScenarioReport) -> f64| {
        ratio(first_pass.iter().map(f).sum(), first_pass.len() as f64)
    };
    outcome.note("output_digest", format!("{:016x}", digest.value()));
    outcome.note("loc_err_m", per_episode(&|r| r.mean_position_error));
    outcome.note(
        "track_err_m",
        per_episode(&|r| r.tracking.mean_tracking_error),
    );
    outcome.note("ticks_measured", ticks.len());
    outcome.note("tick_p99_us", quantile(&mut ticks, 0.99));
    crate::host::note(&mut outcome, &probe);

    passes.record(&mut outcome);
    if !traced {
        return outcome;
    }

    // Traced: stage attribution, tails and the two-worker comparison.
    let names = publisher
        .map(MetricPublisher::into_names)
        .unwrap_or_default();
    let metrics = collector.map(Collector::finish).unwrap_or_default();
    let mut stages = Stages::default();
    for pass in &stage_passes {
        stages.sense += pass.sense;
        stages.localize += pass.localize;
        stages.plan += pass.plan;
        stages.track += pass.track;
    }
    let tick_total = stages.sense + stages.localize + stages.plan + stages.track;
    let stage_ms = |f: fn(&Stages) -> f64| {
        let mut per_pass: Vec<f64> = stage_passes.iter().map(|s| f(s) * 1e3).collect();
        Spread::of(&mut per_pass)
    };
    outcome.set_spread("perception.busy_ms", stage_ms(|s| s.localize));
    outcome.set_spread("planning.busy_ms", stage_ms(|s| s.plan));
    outcome.set_spread("control.busy_ms", stage_ms(|s| s.track));
    outcome.set("sim.sense_share", ratio(stages.sense, tick_total));
    outcome.set(
        "scenario.tick_p99_over_p50",
        ratio(quantile(&mut ticks, 0.99), quantile(&mut ticks, 0.5)),
    );
    let pass_sum = |f: fn(&ScenarioReport) -> f64| first_pass.iter().map(f).sum::<f64>();
    outcome.set(
        "planning.route_expanded",
        pass_sum(|r| r.plan_expanded as f64),
    );
    outcome.set(
        "control.opt_iters",
        pass_sum(|r| r.tracking.opt_iterations as f64),
    );

    let localizer_id = match localizer {
        LocalizerKind::Pfl => "01.pfl",
        LocalizerKind::EkfSlam => "02.ekfslam",
    };
    outcome.set(
        &format!("kernel.{localizer_id}.share"),
        ratio(stages.localize, tick_total),
    );
    outcome.set("kernel.14.mpc.share", ratio(stages.track, tick_total));
    // Stage histograms from the scenario's own metric channel.
    let tail = |stage: &str| {
        names
            .iter()
            .position(|n| n == stage)
            .and_then(|id| metrics.get(id as u32))
            .map_or(0.0, |m| ratio(m.hist.p99() as f64, m.hist.p50() as f64))
    };
    outcome.set(
        &format!("kernel.{localizer_id}.step_p99_over_p50"),
        tail("scenario.localize_ns"),
    );
    outcome.set("kernel.14.mpc.step_p99_over_p50", tail("scenario.track_ns"));

    if nproc() >= 2 {
        let probe_worlds = &worlds[..worlds.len().min(THREAD_PROBE_EPISODES)];
        let result = thread_speedup(probe_worlds, localizer);
        if let Ok(speedup) = result {
            outcome.set("harness.pool.localize_speedup_2t", speedup);
        }
        outcome.op(result.map(|_| ()));
    }
    outcome
}

/// Tick time of `worlds` at one ray-casting worker ÷ at two; the goldens
/// must not depend on the worker count.
fn thread_speedup(worlds: &[u64], localizer: LocalizerKind) -> Result<f64, String> {
    let replay_all = |threads: usize| {
        let (mut seconds, mut digest) = (0.0, Digest::default());
        for &world in worlds {
            let episode = replay(&config(world, localizer, threads), None)?;
            seconds += episode.ticks.iter().map(Duration::as_secs_f64).sum::<f64>();
            digest.feed(episode.report.golden().as_bytes());
        }
        Ok((seconds, format!("{:016x}", digest.value())))
    };
    crate::twins::compare(|| replay_all(1), || replay_all(2))
}

//! Integration test: every kernel in the registry runs end-to-end through
//! the harness on a (scaled-down) inputset and produces a well-formed
//! report.

use rtrbench::harness::Args;
use rtrbench::suite::{registry, KernelError, Stage};

/// Scaled-down arguments per kernel so the debug-build test stays fast.
fn small_args(kernel: &str) -> Vec<&'static str> {
    match kernel {
        "01.pfl" => vec!["--particles", "60", "--beams", "20"],
        "02.ekfslam" => vec!["--steps", "80"],
        "03.srec" => vec!["--points", "6000", "--iterations", "10"],
        "04.pp2d" => vec!["--size", "128"],
        "05.pp3d" => vec!["--size", "48", "--height", "12"],
        "06.movtar" => vec!["--size", "48"],
        "07.prm" => vec!["--roadmap", "300", "--map", "map-f"],
        "08.rrt" => vec!["--samples", "30000"],
        "09.rrtstar" => vec!["--samples", "2000"],
        "10.rrtpp" => vec!["--samples", "30000"],
        "11.sym-blkw" => vec!["--blocks", "4"],
        "12.sym-fext" => vec![],
        "13.dmp" => vec!["--dt", "0.002"],
        "14.mpc" => vec!["--length", "60", "--iterations", "10"],
        "15.cem" => vec![],
        "16.bo" => vec!["--iterations", "6", "--candidates", "100"],
        _ => vec![],
    }
}

#[test]
fn all_sixteen_kernels_run_and_report() {
    let kernels = registry();
    assert_eq!(kernels.len(), 16);
    for kernel in &kernels {
        let args = Args::parse_tokens(&small_args(kernel.name())).expect("valid args");
        let report = kernel
            .run(&args)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        assert_eq!(report.name, kernel.name());
        assert_eq!(report.stage, kernel.stage());
        assert!(
            !report.regions.is_empty(),
            "{} reported no profiler regions",
            kernel.name()
        );
        assert!(
            !report.metrics.is_empty(),
            "{} reported no metrics",
            kernel.name()
        );
        assert!(report.roi_seconds >= 0.0);
        // Regions are sorted by descending total.
        for w in report.regions.windows(2) {
            assert!(w[0].total >= w[1].total);
        }
    }
}

#[test]
fn stage_partition_matches_table1() {
    let kernels = registry();
    let count = |stage: Stage| kernels.iter().filter(|k| k.stage() == stage).count();
    assert_eq!(count(Stage::Perception), 3);
    assert_eq!(count(Stage::Planning), 9);
    assert_eq!(count(Stage::Control), 4);
}

#[test]
fn kernels_are_configurable_from_the_command_line() {
    // The paper's §VI flexibility claim: configuration changes must be
    // honored, not just accepted.
    let kernels = registry();
    let blkw = kernels.iter().find(|k| k.name() == "11.sym-blkw").unwrap();

    let small = blkw
        .run(&Args::parse_tokens(&["--blocks", "3"]).unwrap())
        .unwrap();
    let large = blkw
        .run(&Args::parse_tokens(&["--blocks", "6"]).unwrap())
        .unwrap();
    let plan_len = |report: &rtrbench::suite::KernelReport| -> usize {
        report
            .metrics
            .iter()
            .find(|(k, _)| k == "plan length")
            .and_then(|(_, v)| v.parse().ok())
            .expect("plan length metric")
    };
    assert!(plan_len(&large) > plan_len(&small));
}

#[test]
fn bad_cli_values_surface_as_errors() {
    let kernels = registry();
    let pfl = kernels.iter().find(|k| k.name() == "01.pfl").unwrap();
    let args = Args::parse_tokens(&["--particles", "many"]).unwrap();
    assert!(pfl.run(&args).is_err());
}

#[test]
fn roi_markers_fire_during_kernel_runs() {
    use rtrbench::harness::Roi;
    let kernels = registry();
    let cem = kernels.iter().find(|k| k.name() == "15.cem").unwrap();
    let entered_before = Roi::entered_count();
    let exited_before = Roi::exited_count();
    cem.run(&Args::parse_tokens(&[]).unwrap()).unwrap();
    // The run entered and exited at least one region of interest (other
    // tests may run concurrently, so compare deltas, not equality).
    assert!(Roi::entered_count() > entered_before);
    assert!(Roi::exited_count() > exited_before);
}

#[test]
fn pp2d_accepts_movingai_inputsets() {
    // Build a small MovingAI map + scen pair on disk and plan on it, the
    // paper's Boston_1_1024 usage (§IV: kernels run on real inputsets).
    let dir = std::env::temp_dir().join("rtrbench-movingai-test");
    std::fs::create_dir_all(&dir).unwrap();
    let map_path = dir.join("gap.map");
    let scen_path = dir.join("gap.scen");
    let mut rows = String::new();
    for y in 0..32 {
        for x in 0..32 {
            let wall = (24..=28).contains(&y) || (0..=8).contains(&y);
            rows.push(if x == 16 && wall { '@' } else { '.' });
        }
        rows.push('\n');
    }
    std::fs::write(
        &map_path,
        format!("type octile\nheight 32\nwidth 32\nmap\n{rows}"),
    )
    .unwrap();
    std::fs::write(
        &scen_path,
        "version 1\n0\tgap.map\t32\t32\t4\t16\t28\t16\t24.0\n",
    )
    .unwrap();

    let kernels = registry();
    let pp2d = kernels.iter().find(|k| k.name() == "04.pp2d").unwrap();
    let map_arg = map_path.to_str().unwrap();
    let scen_arg = scen_path.to_str().unwrap();
    let args = Args::parse_tokens(&[
        "--map-file",
        map_arg,
        "--scen-file",
        scen_arg,
        "--scen-index",
        "0",
    ])
    .unwrap();
    let report = pp2d.run(&args).expect("scenario solvable");
    assert!(report
        .metrics
        .iter()
        .any(|(k, v)| k == "path cost (m)" && v.parse::<f64>().unwrap() >= 24.0));

    // Missing files surface as input errors, not panics.
    let bad = Args::parse_tokens(&["--map-file", "/nonexistent.map"]).unwrap();
    assert!(pp2d.run(&bad).is_err());

    // A map under 5 cells on a side has no room for the default endpoints
    // (4, 4) and (width - 5, height - 5).
    let tiny_path = dir.join("tiny.map");
    std::fs::write(
        &tiny_path,
        "type octile\nheight 4\nwidth 4\nmap\n....\n....\n....\n....\n",
    )
    .unwrap();
    let tiny = Args::parse_tokens(&["--map-file", tiny_path.to_str().unwrap()]).unwrap();
    match pp2d.run(&tiny) {
        Err(KernelError::Input(msg)) => assert!(msg.contains("too small"), "{msg}"),
        other => panic!("4x4 map without a .scen: expected an input error, got {other:?}"),
    }

    // A .scen start or goal x outside the map width is an input error.
    for (name, line) in [
        ("start-x.scen", "0\tgap.map\t32\t32\t32\t16\t28\t16\t24.0"),
        ("goal-x.scen", "0\tgap.map\t32\t32\t4\t16\t40\t16\t24.0"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, format!("version 1\n{line}\n")).unwrap();
        let args =
            Args::parse_tokens(&["--map-file", map_arg, "--scen-file", path.to_str().unwrap()])
                .unwrap();
        match pp2d.run(&args) {
            Err(KernelError::Input(msg)) => assert!(msg.contains("outside map width"), "{msg}"),
            other => panic!("{name}: expected an input error, got {other:?}"),
        }
    }
}

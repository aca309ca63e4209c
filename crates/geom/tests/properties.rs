//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use proptest::TestCaseError;
use rtr_geom::maps::{parse_movingai, parse_movingai_scen};
use rtr_geom::{
    cast_ray, normalize_angle, Aabb2, Footprint, GridMap2D, KdTree, Point2, Point3, Pose2,
    RigidTransform,
};

fn finite_angle() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

proptest! {
    #[test]
    fn normalize_angle_is_in_range(theta in finite_angle()) {
        let a = normalize_angle(theta);
        prop_assert!(a > -std::f64::consts::PI - 1e-12);
        prop_assert!(a <= std::f64::consts::PI + 1e-12);
        // Same direction: sin/cos agree.
        prop_assert!((a.sin() - theta.sin()).abs() < 1e-9);
        prop_assert!((a.cos() - theta.cos()).abs() < 1e-9);
    }

    #[test]
    fn pose_transform_roundtrip(
        x in -10.0..10.0f64,
        y in -10.0..10.0f64,
        theta in finite_angle(),
        px in -10.0..10.0f64,
        py in -10.0..10.0f64,
    ) {
        let pose = Pose2::new(x, y, theta);
        let p = Point2::new(px, py);
        let back = pose.inverse_transform_point(pose.transform_point(p));
        prop_assert!(back.distance(p) < 1e-9);
    }

    #[test]
    fn rotation_preserves_norm(px in -10.0..10.0f64, py in -10.0..10.0f64, theta in finite_angle()) {
        let p = Point2::new(px, py);
        prop_assert!((p.rotated(theta).norm() - p.norm()).abs() < 1e-9);
    }

    #[test]
    fn ray_distance_never_exceeds_max_range(
        ox in 1.0..31.0f64,
        oy in 1.0..31.0f64,
        theta in finite_angle(),
        max_range in 0.1..100.0f64,
    ) {
        let mut map = GridMap2D::new(32, 32, 1.0);
        map.set_occupied(16, 16, true);
        let hit = cast_ray(&map, Point2::new(ox, oy), theta, max_range);
        prop_assert!(hit.distance <= max_range + 1e-12);
        prop_assert!(hit.distance >= 0.0);
        prop_assert!(hit.cells_visited >= 1);
    }

    #[test]
    fn ray_hits_are_monotone_in_range(
        ox in 1.0..31.0f64,
        oy in 1.0..31.0f64,
        theta in finite_angle(),
    ) {
        // Longer max range can only find the same or a farther hit.
        let map = GridMap2D::new(32, 32, 1.0);
        let near = cast_ray(&map, Point2::new(ox, oy), theta, 5.0);
        let far = cast_ray(&map, Point2::new(ox, oy), theta, 50.0);
        prop_assert!(near.distance <= far.distance + 1e-12);
    }

    #[test]
    fn kdtree_nearest_matches_bruteforce(
        points in prop::collection::vec(
            (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64), 1..60),
        q in (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64),
    ) {
        let mut tree = KdTree::<3>::new();
        for (i, p) in points.iter().enumerate() {
            tree.insert([p.0, p.1, p.2], i);
        }
        let query = [q.0, q.1, q.2];
        let (_, d2) = tree.nearest(&query).unwrap();
        let best = points
            .iter()
            .map(|p| {
                let dx = p.0 - q.0;
                let dy = p.1 - q.1;
                let dz = p.2 - q.2;
                dx * dx + dy * dy + dz * dz
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d2 - best).abs() < 1e-9);
    }

    #[test]
    fn kdtree_radius_matches_bruteforce(
        points in prop::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 1..60),
        q in (-5.0..5.0f64, -5.0..5.0f64),
        radius in 0.1..5.0f64,
    ) {
        let mut tree = KdTree::<2>::new();
        for (i, p) in points.iter().enumerate() {
            tree.insert([p.0, p.1], i);
        }
        let mut got: Vec<usize> = tree
            .within_radius(&[q.0, q.1], radius)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let dx = p.0 - q.0;
                let dy = p.1 - q.1;
                dx * dx + dy * dy <= radius * radius
            })
            .map(|(i, _)| i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn aabb_segment_agrees_with_dense_sampling(
        bx in -5.0..5.0f64, by in -5.0..5.0f64,
        w in 0.5..4.0f64, h in 0.5..4.0f64,
        ax in -10.0..10.0f64, ay in -10.0..10.0f64,
        cx in -10.0..10.0f64, cy in -10.0..10.0f64,
    ) {
        let b = Aabb2::from_center(Point2::new(bx, by), w, h);
        let a = Point2::new(ax, ay);
        let c = Point2::new(cx, cy);
        let fast = b.intersects_segment(a, c);
        // Dense sampling along the segment as ground truth (sufficient
        // density relative to box size).
        let slow = (0..=2000).any(|i| {
            let t = i as f64 / 2000.0;
            b.contains(a + (c - a) * t)
        });
        // Sampling can miss grazing hits; it must never find a hit the
        // slab method missed.
        if slow {
            prop_assert!(fast, "sampling found hit, slab method missed it");
        }
    }

    #[test]
    fn footprint_collision_monotone_in_size(
        x in 10.0..40.0f64,
        y in 10.0..40.0f64,
        theta in finite_angle(),
    ) {
        // If a small footprint collides, any larger one must too.
        let mut map = GridMap2D::new(50, 50, 1.0);
        for i in 0..50 {
            map.set_occupied(i, 25, true);
        }
        let small = Footprint::new(2.0, 1.0);
        let large = Footprint::new(4.0, 2.0);
        let pose = Pose2::new(x, y, theta);
        if small.collides(&map, &pose) {
            prop_assert!(large.collides(&map, &pose));
        }
    }

    #[test]
    fn rigid_transform_preserves_distances(
        yaw in finite_angle(),
        tx in -5.0..5.0f64, ty in -5.0..5.0f64, tz in -5.0..5.0f64,
        p1 in (-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64),
        p2 in (-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64),
    ) {
        let t = RigidTransform::from_yaw_translation(yaw, Point3::new(tx, ty, tz));
        let a = Point3::new(p1.0, p1.1, p1.2);
        let b = Point3::new(p2.0, p2.1, p2.2);
        prop_assert!((t.apply(a).distance(t.apply(b)) - a.distance(b)).abs() < 1e-9);
    }

    #[test]
    fn grid_upscale_preserves_occupancy_ratio(factor in 1usize..5) {
        let mut map = GridMap2D::new(16, 16, 1.0);
        map.fill_rect(2, 2, 7, 9);
        map.fill_rect(10, 12, 14, 14);
        let up = map.upscaled(factor);
        prop_assert!((up.occupancy_ratio() - map.occupancy_ratio()).abs() < 1e-12);
    }
}

proptest! {
    #[test]
    fn kdtree_k_nearest_matches_bruteforce(
        points in prop::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 2..50),
        q in (-5.0..5.0f64, -5.0..5.0f64),
        k in 1usize..8,
    ) {
        let mut tree = KdTree::<2>::new();
        for (i, p) in points.iter().enumerate() {
            tree.insert([p.0, p.1], i);
        }
        let got = tree.k_nearest(&[q.0, q.1], k);
        let mut expect: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let dx = p.0 - q.0;
                let dy = p.1 - q.1;
                (i, dx * dx + dy * dy)
            })
            .collect();
        expect.sort_by(|a, b| a.1.total_cmp(&b.1));
        expect.truncate(k);
        prop_assert_eq!(got.len(), expect.len());
        // Distances agree pairwise (ids may differ under exact ties).
        for (g, e) in got.iter().zip(expect.iter()) {
            prop_assert!((g.1 - e.1).abs() < 1e-9);
        }
    }

    #[test]
    fn inflated_map_contains_original(
        cells in prop::collection::vec(prop::bool::weighted(0.1), 256),
        radius in 0.0..4.0f64,
    ) {
        let mut map = GridMap2D::new(16, 16, 1.0);
        for (i, &b) in cells.iter().enumerate() {
            if b {
                map.set_occupied(i % 16, i / 16, true);
            }
        }
        let fat = map.inflated(radius);
        for y in 0..16i64 {
            for x in 0..16i64 {
                if map.is_occupied(x, y) {
                    prop_assert!(fat.is_occupied(x, y));
                }
            }
        }
        prop_assert!(fat.occupied_count() >= map.occupied_count());
    }
}

/// Number tokens for MovingAI headers and `.scen` fields: small and
/// overflowing sizes, signs, floats and junk.
const NUMBERS: [&str; 14] = [
    "0",
    "1",
    "2",
    "3",
    "7",
    "300000",
    "4000000000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "nan",
    "x",
    "",
];

/// Cells of a `.map` body, passable and blocked, plus a multi-byte char.
const CELLS: [char; 6] = ['.', '@', 'T', 'G', 'S', 'é'];

/// Lines a `.map` file is made of, in or out of grammar.
const MAP_LINES: [&str; 9] = [
    "type octile",
    "height ",
    "width ",
    "map",
    "",
    "..@.",
    "@@@@@@@",
    "version 1",
    "height",
];

fn number() -> impl Strategy<Value = &'static str> {
    (0..NUMBERS.len()).prop_map(|i| NUMBERS[i])
}

/// A header with arbitrary dimensions followed by a ragged body.
fn grammar_map() -> impl Strategy<Value = String> {
    (
        number(),
        number(),
        prop::bool::ANY,
        prop::collection::vec(prop::collection::vec(0..CELLS.len(), 0..6), 0..6),
    )
        .prop_map(|(height, width, typed, rows)| {
            let mut text = String::new();
            if typed {
                text.push_str("type octile\n");
            }
            text.push_str(&format!("height {height}\nwidth {width}\nmap\n"));
            for row in rows {
                text.extend(row.into_iter().map(|c| CELLS[c]));
                text.push('\n');
            }
            text
        })
}

/// Lines drawn from the `.map` vocabulary with numbers spliced in.
fn shuffled_map() -> impl Strategy<Value = String> {
    prop::collection::vec((0..MAP_LINES.len(), number()), 0..12).prop_map(|lines| {
        lines
            .into_iter()
            .map(|(line, n)| format!("{}{n}\n", MAP_LINES[line]))
            .collect()
    })
}

/// Arbitrary bytes, lossily decoded.
fn arbitrary_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=255, 0..160)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// `.scen` lines: nine-ish whitespace-separated fields from [`NUMBERS`].
fn grammar_scen() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(number(), 0..11), 0..6).prop_map(|lines| {
        let mut text = String::from("version 1\n");
        for fields in lines {
            text.push_str(&fields.join("\t"));
            text.push('\n');
        }
        text
    })
}

/// A parsed grid never holds more cells than its source text has bytes.
fn check_map(text: &str) -> Result<(), TestCaseError> {
    if let Ok(map) = parse_movingai(text, 1.0) {
        prop_assert!(map.width() * map.height() <= text.len(), "{text:?}");
    }
    Ok(())
}

proptest! {
    #[test]
    fn movingai_map_parser_never_panics(
        grammar in grammar_map(),
        shuffled in shuffled_map(),
        bytes in arbitrary_text(),
    ) {
        check_map(&grammar)?;
        check_map(&shuffled)?;
        check_map(&bytes)?;
    }

    #[test]
    fn movingai_scen_parser_never_panics(
        grammar in grammar_scen(),
        bytes in arbitrary_text(),
        height in (0..4usize).prop_map(|i| [0, 1, 4, usize::MAX][i]),
    ) {
        for text in [&grammar, &bytes] {
            if let Ok(scens) = parse_movingai_scen(text, height) {
                for s in scens {
                    prop_assert!(s.start.1 < height && s.goal.1 < height);
                }
            }
        }
    }
}

#[test]
fn oversized_movingai_headers_are_errors_not_allocations() {
    for text in [
        "height 4000000000\nwidth 4000000000\nmap\n",
        "height 300000\nwidth 300000\nmap\n",
        "height 300000\nwidth 300000\nmap\n..\n",
    ] {
        assert!(parse_movingai(text, 1.0).is_err(), "{text:?}");
    }
    // A zero-row grid is well formed at any declared width.
    let empty = parse_movingai("height 0\nwidth 4000000000\nmap\n", 1.0).unwrap();
    assert_eq!(empty.width() * empty.height(), 0);
}

//! Map inputs: procedural generators and the MovingAI `.map` parser.
//!
//! The paper evaluates its kernels on concrete datasets — the CMU Wean Hall
//! floor plan (`01.pfl`), MovingAI's `Boston_1_1024` city snapshot
//! (`04.pp2d`), the Freiburg `fr_campus` 3D scan (`05.pp3d`) and two
//! synthetic arm workspaces `Map-F`/`Map-C` (`07.prm`–`10.rrtpp`). The
//! first three are external artifacts, so this module provides procedural
//! generators that reproduce their *structural* properties (room/corridor
//! topology, Manhattan street grids, building/tree clutter) plus a parser
//! for the MovingAI format so the real files can be dropped in when
//! available. `Map-F`/`Map-C` are specified in the paper and are
//! reproduced directly.

use crate::{Aabb2, GridMap2D, GridMap3D, Point2};

/// Deterministic 64-bit mixing (SplitMix64), the seed-stream for all map
/// generators. Self-contained so that generated maps are identical across
/// platforms and `rand` versions.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`.
    fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates an indoor floor plan: perimeter walls, a grid of rooms with
/// door openings, and corridor space between them.
///
/// Stands in for the Wean Hall map of `01.pfl`. The returned map is
/// `cells × cells` at `resolution` meters per cell. Larger `seed`s give
/// different furniture placement, but the room/corridor topology is stable
/// so the five evaluation regions (map quadrants + center) stay comparable.
///
/// # Panics
///
/// Panics if `cells < 32` (too small to fit rooms and corridors).
///
/// # Example
///
/// ```
/// let map = rtr_geom::maps::indoor_floor_plan(128, 0.1, 7);
/// assert_eq!(map.width(), 128);
/// assert!(map.occupancy_ratio() > 0.05);
/// assert!(map.occupancy_ratio() < 0.6);
/// ```
pub fn indoor_floor_plan(cells: usize, resolution: f64, seed: u64) -> GridMap2D {
    assert!(cells >= 32, "indoor map needs at least 32 cells per side");
    let mut rng = SplitMix64::new(seed);
    let mut map = GridMap2D::new(cells, cells, resolution);

    // Perimeter walls.
    map.fill_rect(0, 0, cells - 1, 0);
    map.fill_rect(0, cells - 1, cells - 1, cells - 1);
    map.fill_rect(0, 0, 0, cells - 1);
    map.fill_rect(cells - 1, 0, cells - 1, cells - 1);

    // Interior walls every `room` cells, with door gaps.
    let room = (cells / 4).max(16);
    let door = (room / 4).max(3);
    let mut w = room;
    while w < cells - 1 {
        // Vertical wall at x = w with a door per room row.
        let mut y = 1;
        while y < cells - 1 {
            let door_at = y + rng.below(room.min(cells - 1 - y).max(1));
            for iy in y..(y + room).min(cells - 1) {
                if iy < door_at || iy >= door_at + door {
                    map.set_occupied(w, iy, true);
                }
            }
            y += room;
        }
        // Horizontal wall at y = w with a door per room column.
        let mut x = 1;
        while x < cells - 1 {
            let door_at = x + rng.below(room.min(cells - 1 - x).max(1));
            for ix in x..(x + room).min(cells - 1) {
                if ix < door_at || ix >= door_at + door {
                    map.set_occupied(ix, w, true);
                }
            }
            x += room;
        }
        w += room;
    }

    // Scattered furniture blocks (small rectangles in room interiors).
    let furniture = cells * cells / 600;
    for _ in 0..furniture {
        let fw = 1 + rng.below(3);
        let fh = 1 + rng.below(3);
        let fx = 2 + rng.below(cells - fw - 4);
        let fy = 2 + rng.below(cells - fh - 4);
        map.fill_rect(fx, fy, fx + fw - 1, fy + fh - 1);
    }
    map
}

/// Generates a Manhattan-style city map: rectangular building blocks
/// separated by streets, standing in for MovingAI's `Boston_1_1024`.
///
/// `cells` is the side length (the paper uses 1024); `resolution` the
/// meters-per-cell (1024 cells × 1 m ≈ a 1 km² city tile). Buildings cover
/// most of each block but random gaps (plazas, parking) are carved so paths
/// can cut through, giving the "different obstacle patterns" the paper
/// routes its car through.
///
/// # Example
///
/// ```
/// let map = rtr_geom::maps::city_blocks(256, 1.0, 3);
/// let ratio = map.occupancy_ratio();
/// assert!(ratio > 0.2 && ratio < 0.8, "city density {ratio}");
/// ```
pub fn city_blocks(cells: usize, resolution: f64, seed: u64) -> GridMap2D {
    let mut rng = SplitMix64::new(seed);
    let mut map = GridMap2D::new(cells, cells, resolution);

    let block = (cells / 16).max(8); // block pitch
                                     // Streets must comfortably pass the paper's 1.8 m-wide car footprint
                                     // at 1 m resolution, so keep at least 3 cells of roadway.
    let street = (block / 4).max(3);

    let mut by = street;
    while by + street < cells {
        let mut bx = street;
        let b_h = block - street;
        while bx + street < cells {
            let b_w = block - street;
            // Most blocks hold a building; some are left open.
            if rng.unit() > 0.15 {
                let inset_x = rng.below(3);
                let inset_y = rng.below(3);
                let x1 = (bx + b_w.saturating_sub(1 + inset_x)).min(cells - 1);
                let y1 = (by + b_h.saturating_sub(1 + inset_y)).min(cells - 1);
                if bx + inset_x <= x1 && by + inset_y <= y1 {
                    map.fill_rect(bx + inset_x, by + inset_y, x1, y1);
                }
            }
            bx += block;
        }
        by += block;
    }
    map
}

/// Generates a 3D campus map: a flat occupied ground layer, box buildings
/// of varying heights and thin tree columns, standing in for the Freiburg
/// `fr_campus` scan of `05.pp3d`.
///
/// # Example
///
/// ```
/// let map = rtr_geom::maps::campus_3d(64, 64, 16, 1.0, 11);
/// assert!(map.occupied_count() > 64 * 64); // at least the ground layer
/// ```
pub fn campus_3d(
    width: usize,
    height: usize,
    depth: usize,
    resolution: f64,
    seed: u64,
) -> GridMap3D {
    let mut rng = SplitMix64::new(seed);
    let mut map = GridMap3D::new(width, height, depth, resolution);

    // Ground layer.
    map.fill_box(0, 0, 0, width - 1, height - 1, 0);

    // Buildings: boxes with height 30-80 % of the airspace.
    let buildings = (width * height) / 400;
    for _ in 0..buildings {
        let bw = 4 + rng.below(width / 8 + 1);
        let bh = 4 + rng.below(height / 8 + 1);
        let bd = 1 + (depth * (30 + rng.below(50)) / 100).min(depth - 2);
        let bx = rng.below(width.saturating_sub(bw).max(1));
        let by = rng.below(height.saturating_sub(bh).max(1));
        map.fill_box(bx, by, 1, bx + bw - 1, by + bh - 1, bd);
    }

    // Trees: 1-cell columns reaching 20-50 % of the airspace.
    let trees = (width * height) / 150;
    for _ in 0..trees {
        let tx = rng.below(width);
        let ty = rng.below(height);
        let td = 1 + (depth * (20 + rng.below(30)) / 100).min(depth - 2);
        map.fill_box(tx, ty, 1, tx, ty, td);
    }
    map
}

/// The paper's `Map-F`: a free 50 cm × 50 cm arm workspace with no
/// obstacles (Fig. 9, left).
///
/// Obstacles are expressed as axis-aligned rectangles in meters; the arm
/// base sits at the workspace center `(0.25, 0.25)`.
pub fn arm_map_f() -> Vec<Aabb2> {
    Vec::new()
}

/// The paper's `Map-C`: a cluttered 50 cm × 50 cm arm workspace (Fig. 9,
/// right) with obstacle blocks around the reachable envelope.
pub fn arm_map_c() -> Vec<Aabb2> {
    vec![
        // Four blocks boxing in the upper region.
        Aabb2::new(Point2::new(0.05, 0.35), Point2::new(0.15, 0.45)),
        Aabb2::new(Point2::new(0.30, 0.38), Point2::new(0.42, 0.46)),
        // Side pillars.
        Aabb2::new(Point2::new(0.02, 0.10), Point2::new(0.08, 0.22)),
        Aabb2::new(Point2::new(0.40, 0.08), Point2::new(0.48, 0.20)),
        // Low bar near the base.
        Aabb2::new(Point2::new(0.18, 0.04), Point2::new(0.34, 0.09)),
    ]
}

/// Side length (meters) of the arm workspaces `Map-F`/`Map-C`.
pub const ARM_WORKSPACE_SIDE: f64 = 0.5;

/// The PythonRobotics `a_star.py` demo map used by the paper's §VII
/// library comparison (Fig. 21-a): a 60×60 bordered arena with two interior
/// walls forming an S-shaped detour.
///
/// The returned grid is 61×61 cells at 1 m resolution; start is at cell
/// `(10, 10)` and goal at `(50, 50)`, matching the upstream demo.
///
/// # Example
///
/// ```
/// let map = rtr_geom::maps::pythonrobotics_map();
/// assert_eq!(map.width(), 61);
/// assert!(map.is_occupied(30, 10)); // first interior wall
/// ```
pub fn pythonrobotics_map() -> GridMap2D {
    let n = 61usize;
    let mut map = GridMap2D::new(n, n, 1.0);
    // Border.
    map.fill_rect(0, 0, n - 1, 0);
    map.fill_rect(0, n - 1, n - 1, n - 1);
    map.fill_rect(0, 0, 0, n - 1);
    map.fill_rect(n - 1, 0, n - 1, n - 1);
    // Wall rising from the bottom at x=30 (cells 0..=40).
    map.fill_rect(30, 0, 30, 40);
    // Wall descending from the top at x=45 (cells 25..=60).
    map.fill_rect(45, 25, 45, n - 1);
    map
}

/// Start/goal cells of the [`pythonrobotics_map`] scenario.
pub const PYTHONROBOTICS_START: (usize, usize) = (10, 10);
/// Goal cell of the [`pythonrobotics_map`] scenario.
pub const PYTHONROBOTICS_GOAL: (usize, usize) = (50, 50);

/// Parses a MovingAI Labs `.map` file (the format of `Boston_1_1024`).
///
/// Cells `.`, `G` and `S` are passable; everything else (`@`, `O`, `T`,
/// `W`, …) is an obstacle. `resolution` assigns a metric cell size since
/// the format itself is unitless.
///
/// # Errors
///
/// Returns a descriptive error string when the header is malformed or the
/// grid body does not match the declared dimensions. The body is checked
/// against the header before the grid is allocated, so a file never
/// costs more memory than its own length.
///
/// # Example
///
/// ```
/// let text = "type octile\nheight 2\nwidth 3\nmap\n.@.\n...\n";
/// let map = rtr_geom::maps::parse_movingai(text, 1.0).unwrap();
/// assert_eq!(map.width(), 3);
/// assert!(map.is_occupied(1, 1)); // row 0 of the file is the top row
/// ```
pub fn parse_movingai(text: &str, resolution: f64) -> Result<GridMap2D, String> {
    let mut height: Option<usize> = None;
    let mut width: Option<usize> = None;
    let mut lines = text.lines();

    // Header: `type ...`, `height N`, `width N`, `map` in any order before
    // the body.
    for line in lines.by_ref() {
        let line = line.trim();
        if line == "map" {
            break;
        }
        if let Some(rest) = line.strip_prefix("height ") {
            height = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| format!("bad height: {rest}"))?,
            );
        } else if let Some(rest) = line.strip_prefix("width ") {
            width = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| format!("bad width: {rest}"))?,
            );
        } else if line.starts_with("type ") || line.is_empty() {
            // Accepted and ignored.
        } else {
            return Err(format!("unexpected header line: {line}"));
        }
    }
    let height = height.ok_or("missing height")?;
    let width = width.ok_or("missing width")?;

    // Validate the body before allocating: once every row holds `width`
    // cells and there are `height` rows, the grid is no larger than the
    // text, whatever the header claims.
    let body = lines.map(str::trim_end).filter(|line| !line.is_empty());
    let mut rows = 0usize;
    for line in body.clone() {
        if rows >= height {
            return Err("more map rows than declared height".into());
        }
        let cells = line.chars().count();
        if cells != width {
            return Err(format!("row {rows} has {cells} cells, expected {width}"));
        }
        rows += 1;
    }
    if rows != height {
        return Err(format!("expected {height} rows, found {rows}"));
    }

    let mut map = GridMap2D::new(width, height, resolution);
    for (row, line) in body.enumerate() {
        for (ix, ch) in line.chars().enumerate() {
            let occupied = !matches!(ch, '.' | 'G' | 'S');
            if occupied {
                // File row 0 is the top of the map; grid y grows upward.
                map.set_occupied(ix, height - 1 - row, true);
            }
        }
    }
    Ok(map)
}

/// One start/goal problem instance from a MovingAI `.scen` file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Difficulty bucket (column 1 of the file).
    pub bucket: u32,
    /// Start cell `(x, y)` in grid coordinates (y flipped to match
    /// [`parse_movingai`]'s orientation given the map height).
    pub start: (usize, usize),
    /// Goal cell `(x, y)`.
    pub goal: (usize, usize),
    /// Reference optimal path length from the file.
    pub optimal_length: f64,
}

/// Parses a MovingAI `.scen` scenario file (the benchmark instances that
/// accompany maps like `Boston_1_1024`).
///
/// Each line is `bucket map width height sx sy gx gy optimal`. The file's
/// y axis points down; `map_height` converts into this crate's y-up grid
/// coordinates.
///
/// # Errors
///
/// Returns a descriptive error string on malformed lines.
///
/// # Example
///
/// ```
/// let text = "version 1\n0\tcity.map\t4\t4\t0\t0\t3\t3\t4.24\n";
/// let scens = rtr_geom::maps::parse_movingai_scen(text, 4).unwrap();
/// assert_eq!(scens.len(), 1);
/// assert_eq!(scens[0].start, (0, 3)); // y flipped
/// assert_eq!(scens[0].goal, (3, 0));
/// ```
pub fn parse_movingai_scen(text: &str, map_height: usize) -> Result<Vec<Scenario>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("version") {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 9 {
            return Err(format!(
                "line {}: expected 9 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let parse_usize = |s: &str, what: &str| -> Result<usize, String> {
            s.parse()
                .map_err(|_| format!("line {}: bad {what}: {s}", lineno + 1))
        };
        let sy: usize = parse_usize(fields[5], "start y")?;
        let gy: usize = parse_usize(fields[7], "goal y")?;
        if sy >= map_height || gy >= map_height {
            return Err(format!(
                "line {}: y coordinate outside map height",
                lineno + 1
            ));
        }
        out.push(Scenario {
            bucket: fields[0]
                .parse()
                .map_err(|_| format!("line {}: bad bucket", lineno + 1))?,
            start: (parse_usize(fields[4], "start x")?, map_height - 1 - sy),
            goal: (parse_usize(fields[6], "goal x")?, map_height - 1 - gy),
            optimal_length: fields[8]
                .parse()
                .map_err(|_| format!("line {}: bad optimal length", lineno + 1))?,
        });
    }
    Ok(out)
}

/// Renders a grid map as ASCII art (`#` occupied, `.` free), top row
/// first, optionally overlaying a path as `*`.
///
/// Intended for examples and debugging; large maps are downsampled to at
/// most `max_side` characters per side (a cell renders occupied if any
/// covered source cell is).
pub fn render_ascii(map: &GridMap2D, path: &[(usize, usize)], max_side: usize) -> String {
    let max_side = max_side.max(1);
    let step = (map.width().max(map.height())).div_ceil(max_side).max(1);
    let cols = map.width().div_ceil(step);
    let rows = map.height().div_ceil(step);
    let mut grid = vec![vec!['.'; cols]; rows];
    for (r, row) in grid.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            'scan: for dy in 0..step {
                for dx in 0..step {
                    let x = c * step + dx;
                    let y = r * step + dy;
                    if x < map.width() && y < map.height() && map.is_occupied(x as i64, y as i64) {
                        *cell = '#';
                        break 'scan;
                    }
                }
            }
        }
    }
    for &(x, y) in path {
        let c = x / step;
        let r = y / step;
        if r < rows && c < cols {
            grid[r][c] = '*';
        }
    }
    // y-up grid: print top rows first.
    let mut out = String::with_capacity(rows * (cols + 1));
    for row in grid.iter().rev() {
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scen_parser_flips_y_and_reads_fields() {
        let text = "version 1\n\
                    2\tBoston_1_1024.map\t8\t8\t1\t2\t6\t7\t9.5\n\
                    0\tBoston_1_1024.map\t8\t8\t0\t0\t7\t0\t7\n";
        let scens = parse_movingai_scen(text, 8).unwrap();
        assert_eq!(scens.len(), 2);
        assert_eq!(scens[0].bucket, 2);
        assert_eq!(scens[0].start, (1, 5));
        assert_eq!(scens[0].goal, (6, 0));
        assert_eq!(scens[0].optimal_length, 9.5);
        assert_eq!(scens[1].start, (0, 7));
    }

    #[test]
    fn scen_parser_rejects_malformed() {
        assert!(parse_movingai_scen("0 map 4 4 0 0\n", 4).is_err()); // short
        assert!(parse_movingai_scen("x map 4 4 0 0 1 1 1.0\n", 4).is_err()); // bad bucket
        assert!(parse_movingai_scen("0 map 4 4 0 9 1 1 1.0\n", 4).is_err()); // y overflow
        assert!(parse_movingai_scen("version 1\n", 4).unwrap().is_empty());
    }

    #[test]
    fn ascii_render_marks_walls_and_path() {
        let mut map = GridMap2D::new(8, 8, 1.0);
        map.set_occupied(3, 3, true);
        let art = render_ascii(&map, &[(0, 0), (1, 1)], 8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        // y-up: row (7 - y) of the printout holds grid y.
        assert_eq!(lines[7 - 3].as_bytes()[3], b'#');
        assert_eq!(lines[7].as_bytes()[0], b'*');
        assert_eq!(lines[6].as_bytes()[1], b'*');
    }

    #[test]
    fn ascii_render_downsamples_large_maps() {
        let map = indoor_floor_plan(256, 0.1, 7);
        let art = render_ascii(&map, &[], 64);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines.len() <= 64);
        assert!(lines.iter().all(|l| l.len() <= 64));
        assert!(art.contains('#'));
    }

    #[test]
    fn indoor_map_is_deterministic() {
        let a = indoor_floor_plan(128, 0.1, 42);
        let b = indoor_floor_plan(128, 0.1, 42);
        assert_eq!(a, b);
        let c = indoor_floor_plan(128, 0.1, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn indoor_map_has_walls_and_free_space() {
        let map = indoor_floor_plan(128, 0.1, 1);
        assert!(map.is_occupied(0, 0));
        assert!(map.is_occupied(127, 127));
        let ratio = map.occupancy_ratio();
        assert!(ratio > 0.03, "too sparse: {ratio}");
        assert!(ratio < 0.6, "too dense: {ratio}");
    }

    #[test]
    fn city_map_has_streets() {
        let map = city_blocks(256, 1.0, 5);
        // The street rows between blocks should be largely free.
        let mut free_in_street = 0;
        for ix in 0..256 {
            if map.is_free(ix as i64, 0) {
                free_in_street += 1;
            }
        }
        assert!(free_in_street > 200);
    }

    #[test]
    fn campus_has_ground_and_clutter() {
        let map = campus_3d(64, 64, 16, 1.0, 9);
        for &(x, y) in &[(0i64, 0i64), (32, 32), (63, 63)] {
            assert!(map.is_occupied(x, y, 0), "ground missing at {x},{y}");
        }
        assert!(map.occupied_count() > 64 * 64);
        // Airspace near the ceiling should be mostly free.
        let mut free_top = 0;
        for x in 0..64i64 {
            if map.is_free(x, 32, 15) {
                free_top += 1;
            }
        }
        assert!(free_top > 40);
    }

    #[test]
    fn arm_maps_shapes() {
        assert!(arm_map_f().is_empty());
        let c = arm_map_c();
        assert!(c.len() >= 4);
        for obstacle in &c {
            assert!(obstacle.min.x >= 0.0 && obstacle.max.x <= ARM_WORKSPACE_SIDE);
            assert!(obstacle.min.y >= 0.0 && obstacle.max.y <= ARM_WORKSPACE_SIDE);
        }
    }

    #[test]
    fn pythonrobotics_map_structure() {
        let map = pythonrobotics_map();
        let (sx, sy) = PYTHONROBOTICS_START;
        let (gx, gy) = PYTHONROBOTICS_GOAL;
        assert!(map.is_free(sx as i64, sy as i64));
        assert!(map.is_free(gx as i64, gy as i64));
        assert!(map.is_occupied(30, 20));
        assert!(map.is_occupied(45, 50));
        assert!(map.is_free(30, 50)); // above the first wall
        assert!(map.is_free(45, 10)); // below the second wall
    }

    #[test]
    fn movingai_roundtrip() {
        let text = "type octile\nheight 3\nwidth 4\nmap\n....\n.@T.\n....\n";
        let map = parse_movingai(text, 0.5).unwrap();
        assert_eq!((map.width(), map.height()), (4, 3));
        assert!(map.is_occupied(1, 1));
        assert!(map.is_occupied(2, 1));
        assert!(map.is_free(0, 0));
        assert_eq!(map.occupied_count(), 2);
    }

    #[test]
    fn movingai_rejects_malformed() {
        assert!(parse_movingai("map\n..\n", 1.0).is_err()); // no dims
        assert!(parse_movingai("height 2\nwidth 2\nmap\n..\n", 1.0).is_err()); // short
        assert!(parse_movingai("height 1\nwidth 3\nmap\n..\n", 1.0).is_err()); // narrow row
        assert!(parse_movingai("height x\nwidth 2\nmap\n", 1.0).is_err()); // bad number
    }

    #[test]
    fn movingai_vertical_orientation() {
        // Top row of the file maps to the highest y.
        let text = "height 2\nwidth 1\nmap\n@\n.\n";
        let map = parse_movingai(text, 1.0).unwrap();
        assert!(map.is_occupied(0, 1));
        assert!(map.is_free(0, 0));
    }
}

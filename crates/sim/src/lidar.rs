//! Laser rangefinder sensor model.

use rtr_geom::{cast_ray, GridMap2D, Pose2};

use crate::SimRng;

/// One full sweep of laser readings.
///
/// `ranges[i]` is the measured distance of beam `i`; beams that saw no
/// obstacle within range report the sensor's maximum range.
#[derive(Debug, Clone, PartialEq)]
pub struct LidarScan {
    /// Beam angles relative to the robot heading, ascending.
    pub angles: Vec<f64>,
    /// Measured distance per beam (noisy, clamped to `[0, max_range]`).
    pub ranges: Vec<f64>,
}

impl LidarScan {
    /// Number of beams.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` when the scan holds no beams.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// A 2D scanning laser rangefinder.
///
/// Casts `beam_count` rays evenly spread across `fov` radians (centered on
/// the robot heading), adds Gaussian noise to each return, and clamps to
/// `[0, max_range]`. This is the sensor whose readings particle-filter
/// localization matches against its ray-cast hypotheses.
///
/// # Example
///
/// ```
/// use rtr_sim::{Lidar, SimRng};
/// use rtr_geom::{GridMap2D, Pose2};
///
/// let map = GridMap2D::new(100, 100, 0.1);
/// let lidar = Lidar::new(36, std::f64::consts::TAU, 8.0, 0.0);
/// let mut rng = SimRng::seed_from(0);
/// let scan = lidar.scan(&map, &Pose2::new(5.0, 5.0, 0.0), &mut rng);
/// // Open map: every beam hits the boundary within 8 m or reports 8 m.
/// assert!(scan.ranges.iter().all(|&r| r <= 8.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lidar {
    beam_count: usize,
    fov: f64,
    max_range: f64,
    noise_std: f64,
}

impl Lidar {
    /// Creates a sensor.
    ///
    /// # Panics
    ///
    /// Panics if `beam_count == 0`, `fov` is not positive, `max_range` is
    /// not positive, or `noise_std` is negative.
    pub fn new(beam_count: usize, fov: f64, max_range: f64, noise_std: f64) -> Self {
        assert!(beam_count > 0, "need at least one beam");
        assert!(fov > 0.0 && fov.is_finite(), "fov must be positive");
        assert!(
            max_range > 0.0 && max_range.is_finite(),
            "max_range must be positive"
        );
        assert!(noise_std >= 0.0 && noise_std.is_finite(), "bad noise std");
        Lidar {
            beam_count,
            fov,
            max_range,
            noise_std,
        }
    }

    /// Produces a noisy scan from `pose` in `map`.
    pub fn scan(&self, map: &GridMap2D, pose: &Pose2, rng: &mut SimRng) -> LidarScan {
        let mut out = LidarScan {
            angles: Vec::new(),
            ranges: Vec::new(),
        };
        self.scan_into(map, pose, rng, &mut out);
        out
    }

    /// [`Lidar::scan`] into a caller-owned scan, reusing its buffers.
    /// After the first call the buffers hold one slot per beam, so a
    /// closed-loop tick that rescans every frame never reallocates.
    /// Results are bit-identical to the allocating twin.
    pub fn scan_into(&self, map: &GridMap2D, pose: &Pose2, rng: &mut SimRng, out: &mut LidarScan) {
        out.angles.clear();
        if self.beam_count == 1 {
            out.angles.push(0.0);
        } else {
            let start = -self.fov * 0.5;
            let step = self.fov / (self.beam_count - 1) as f64;
            out.angles
                .extend((0..self.beam_count).map(|i| start + step * i as f64));
        }
        out.ranges.clear();
        for i in 0..out.angles.len() {
            let a = out.angles[i];
            let hit = cast_ray(map, pose.position(), pose.theta + a, self.max_range);
            let r = (hit.distance + rng.gaussian(0.0, self.noise_std)).clamp(0.0, self.max_range);
            out.ranges.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The ground-truth scan from `pose`: the same sensor without noise,
    /// so every range is its ray's exact distance.
    fn ideal(lidar: &Lidar, map: &GridMap2D, pose: &Pose2) -> LidarScan {
        let noiseless = Lidar {
            noise_std: 0.0,
            ..*lidar
        };
        noiseless.scan(map, pose, &mut SimRng::seed_from(0))
    }

    fn walled_map() -> GridMap2D {
        let mut map = GridMap2D::new(100, 100, 0.1); // 10 m x 10 m
        for iy in 0..100 {
            map.set_occupied(80, iy, true); // wall at x = 8.0
        }
        map
    }

    #[test]
    fn forward_beam_measures_wall() {
        let map = walled_map();
        let lidar = Lidar::new(1, 0.1, 20.0, 0.0);
        let scan = ideal(&lidar, &map, &Pose2::new(2.0, 5.0, 0.0));
        assert_eq!(scan.len(), 1);
        assert!(
            (scan.ranges[0] - 6.0).abs() < 0.11,
            "got {}",
            scan.ranges[0]
        );
    }

    #[test]
    fn angles_are_symmetric_and_sorted() {
        let lidar = Lidar::new(9, PI, 10.0, 0.0);
        let angles = ideal(&lidar, &walled_map(), &Pose2::new(2.0, 5.0, 0.0)).angles;
        assert_eq!(angles.len(), 9);
        assert!((angles[0] + PI / 2.0).abs() < 1e-12);
        assert!((angles[8] - PI / 2.0).abs() < 1e-12);
        assert!((angles[4]).abs() < 1e-12);
        assert!(angles.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn noise_perturbs_but_clamps() {
        let map = walled_map();
        let lidar = Lidar::new(37, PI, 20.0, 0.5);
        let pose = Pose2::new(3.0, 5.0, 0.0);
        let mut rng = SimRng::seed_from(2);
        let noisy = lidar.scan(&map, &pose, &mut rng);
        let truth = ideal(&lidar, &map, &pose);
        let diff: f64 = noisy
            .ranges
            .iter()
            .zip(truth.ranges.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0);
        assert!(noisy.ranges.iter().all(|&r| (0.0..=20.0).contains(&r)));
    }

    #[test]
    fn max_range_reported_in_open_space() {
        let map = GridMap2D::new(1000, 1000, 0.1); // 100 m x 100 m open
        let lidar = Lidar::new(5, 0.5, 7.0, 0.0);
        let scan = ideal(&lidar, &map, &Pose2::new(50.0, 50.0, 0.0));
        assert!(scan.ranges.iter().all(|&r| (r - 7.0).abs() < 1e-12));
    }

    #[test]
    fn single_beam_points_forward() {
        let lidar = Lidar::new(1, PI, 5.0, 0.0);
        let scan = ideal(&lidar, &walled_map(), &Pose2::new(2.0, 5.0, 0.0));
        assert_eq!(scan.angles, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn zero_beams_panics() {
        let _ = Lidar::new(0, PI, 5.0, 0.0);
    }

    #[test]
    fn scan_into_matches_scan_and_reuses_buffers() {
        let map = walled_map();
        let lidar = Lidar::new(37, PI, 20.0, 0.4);
        let pose = Pose2::new(3.0, 5.0, 0.2);
        let mut rng_a = SimRng::seed_from(7);
        let mut rng_b = SimRng::seed_from(7);
        let mut reused = LidarScan {
            angles: Vec::new(),
            ranges: Vec::new(),
        };
        lidar.scan_into(&map, &pose, &mut rng_a, &mut reused);
        let caps = (reused.angles.capacity(), reused.ranges.capacity());
        assert_eq!(reused, lidar.scan(&map, &pose, &mut rng_b));
        for step in 0..8 {
            let pose = Pose2::new(3.0 + step as f64 * 0.1, 5.0, 0.2);
            lidar.scan_into(&map, &pose, &mut rng_a, &mut reused);
            assert_eq!(reused, lidar.scan(&map, &pose, &mut rng_b));
        }
        assert_eq!(
            (reused.angles.capacity(), reused.ranges.capacity()),
            caps,
            "rescanning must reuse the buffers"
        );
    }
}

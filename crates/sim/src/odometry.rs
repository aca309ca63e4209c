//! Odometry sensor model.

use rtr_geom::{normalize_angle, Pose2};

use crate::SimRng;

/// One odometry reading: the relative motion the wheel encoders report
/// between two consecutive poses, expressed in the *previous* pose's frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OdometryReading {
    /// Forward translation (meters).
    pub dx: f64,
    /// Lateral translation (meters; ~0 for differential drives).
    pub dy: f64,
    /// Heading change (radians).
    pub dtheta: f64,
}

/// A noisy odometry model.
///
/// Noise grows with the magnitude of the motion, following the standard
/// probabilistic-robotics convention: translation noise scales with
/// distance traveled, rotation noise with both rotation and translation.
/// Particle-filter localization samples its motion update from exactly
/// this model.
///
/// # Example
///
/// ```
/// use rtr_sim::{OdometryModel, SimRng};
/// use rtr_geom::Pose2;
///
/// let odo = OdometryModel::new(0.05, 0.02);
/// let mut rng = SimRng::seed_from(1);
/// let reading = odo.measure(
///     &Pose2::new(0.0, 0.0, 0.0),
///     &Pose2::new(1.0, 0.0, 0.1),
///     &mut rng,
/// );
/// assert!((reading.dx - 1.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdometryModel {
    /// Translation noise per meter traveled (std dev, fraction).
    trans_noise: f64,
    /// Rotation noise per radian turned plus per meter traveled (std dev).
    rot_noise: f64,
}

impl OdometryModel {
    /// Creates a model with the given noise coefficients.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient is negative or non-finite.
    pub const fn new(trans_noise: f64, rot_noise: f64) -> Self {
        assert!(
            trans_noise >= 0.0 && trans_noise.is_finite(),
            "bad translation noise"
        );
        assert!(
            rot_noise >= 0.0 && rot_noise.is_finite(),
            "bad rotation noise"
        );
        OdometryModel {
            trans_noise,
            rot_noise,
        }
    }

    /// A noiseless model (useful in tests).
    pub fn ideal() -> Self {
        OdometryModel {
            trans_noise: 0.0,
            rot_noise: 0.0,
        }
    }

    /// The exact relative motion from `from` to `to` in `from`'s frame.
    pub fn true_delta(from: &Pose2, to: &Pose2) -> OdometryReading {
        let local = from.inverse_transform_point(to.position());
        OdometryReading {
            dx: local.x,
            dy: local.y,
            dtheta: normalize_angle(to.theta - from.theta),
        }
    }

    /// A noisy measurement of the motion from `from` to `to`.
    pub fn measure(&self, from: &Pose2, to: &Pose2, rng: &mut SimRng) -> OdometryReading {
        let ideal = Self::true_delta(from, to);
        let dist = (ideal.dx * ideal.dx + ideal.dy * ideal.dy).sqrt();
        let trans_std = self.trans_noise * dist;
        let rot_std = self.rot_noise * (ideal.dtheta.abs() + dist);
        OdometryReading {
            dx: ideal.dx + rng.gaussian(0.0, trans_std),
            dy: ideal.dy + rng.gaussian(0.0, trans_std),
            dtheta: normalize_angle(ideal.dtheta + rng.gaussian(0.0, rot_std)),
        }
    }

    /// Applies a reading to a pose hypothesis, adding motion noise drawn
    /// from this model — the particle-filter *sample motion* primitive.
    pub fn sample_motion(
        &self,
        pose: &Pose2,
        reading: &OdometryReading,
        rng: &mut SimRng,
    ) -> Pose2 {
        let dist = (reading.dx * reading.dx + reading.dy * reading.dy).sqrt();
        let trans_std = self.trans_noise * dist;
        let rot_std = self.rot_noise * (reading.dtheta.abs() + dist);
        pose.compose(
            reading.dx + rng.gaussian(0.0, trans_std),
            reading.dy + rng.gaussian(0.0, trans_std),
            reading.dtheta + rng.gaussian(0.0, rot_std),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn true_delta_pure_forward() {
        let d = OdometryModel::true_delta(
            &Pose2::new(1.0, 1.0, FRAC_PI_2),
            &Pose2::new(1.0, 3.0, FRAC_PI_2),
        );
        assert!((d.dx - 2.0).abs() < 1e-12);
        assert!(d.dy.abs() < 1e-12);
        assert!(d.dtheta.abs() < 1e-12);
    }

    #[test]
    fn true_delta_rotation_wraps() {
        let d = OdometryModel::true_delta(&Pose2::new(0.0, 0.0, 3.0), &Pose2::new(0.0, 0.0, -3.0));
        // Shortest rotation from 3.0 to -3.0 is +0.283..., not -6.0.
        assert!(d.dtheta > 0.0);
        assert!((d.dtheta - (2.0 * std::f64::consts::PI - 6.0)).abs() < 1e-9);
    }

    #[test]
    fn ideal_measure_equals_true_delta() {
        let from = Pose2::new(2.0, -1.0, 0.4);
        let to = Pose2::new(2.7, -0.3, 0.9);
        let mut rng = SimRng::seed_from(0);
        let noisy = OdometryModel::ideal().measure(&from, &to, &mut rng);
        let exact = OdometryModel::true_delta(&from, &to);
        assert_eq!(noisy, exact);
    }

    #[test]
    fn sample_motion_ideal_matches_compose() {
        let pose = Pose2::new(1.0, 2.0, 0.3);
        let reading = OdometryReading {
            dx: 0.5,
            dy: 0.0,
            dtheta: 0.1,
        };
        let mut rng = SimRng::seed_from(0);
        let next = OdometryModel::ideal().sample_motion(&pose, &reading, &mut rng);
        let expect = pose.compose(0.5, 0.0, 0.1);
        assert!((next.x - expect.x).abs() < 1e-12);
        assert!((next.y - expect.y).abs() < 1e-12);
        assert!((next.theta - expect.theta).abs() < 1e-12);
    }

    #[test]
    fn noise_spreads_particles() {
        let model = OdometryModel::new(0.2, 0.1);
        let pose = Pose2::new(0.0, 0.0, 0.0);
        let reading = OdometryReading {
            dx: 1.0,
            dy: 0.0,
            dtheta: 0.0,
        };
        let mut rng = SimRng::seed_from(11);
        let samples: Vec<Pose2> = (0..200)
            .map(|_| model.sample_motion(&pose, &reading, &mut rng))
            .collect();
        let mean_x = samples.iter().map(|p| p.x).sum::<f64>() / 200.0;
        let var_x = samples.iter().map(|p| (p.x - mean_x).powi(2)).sum::<f64>() / 200.0;
        assert!((mean_x - 1.0).abs() < 0.1);
        assert!(var_x > 1e-4, "no spread: {var_x}");
    }

    #[test]
    fn zero_motion_has_zero_noise() {
        let model = OdometryModel::new(0.3, 0.3);
        let mut rng = SimRng::seed_from(4);
        let pose = Pose2::new(1.0, 1.0, 1.0);
        let next = model.sample_motion(&pose, &OdometryReading::default(), &mut rng);
        assert_eq!(next, pose);
    }
}

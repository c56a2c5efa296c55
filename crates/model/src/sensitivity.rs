//! Application sensitivity curves.
//!
//! A sensitivity curve relates remote-memory bandwidth **pressure** (the
//! ratio of aggregate remote bandwidth demand to the link capacity that
//! serves it) to a **slowdown multiplier** ≥ 1. Pressure 0 means the job
//! has the remote link to itself; pressure 1 means demand exactly saturates
//! the link; pressure > 1 means the link is oversubscribed and everyone
//! queues.
//!
//! Curves are piecewise-linear and monotonically non-decreasing, matching
//! how the original model was fitted from measured co-location runs.

/// A monotone piecewise-linear map from bandwidth pressure to slowdown.
///
/// Invariants (enforced by [`SensitivityCurve::new`]):
/// * at least one point;
/// * pressures strictly increasing;
/// * slowdowns ≥ 1 and non-decreasing.
///
/// Evaluation clamps outside the defined range: below the first point the
/// first slowdown applies, beyond the last point the curve continues with
/// the slope of its final segment (an oversubscribed link degrades roughly
/// linearly in queueing delay).
#[derive(Clone, Debug, PartialEq)]
pub struct SensitivityCurve {
    points: Vec<(f64, f64)>,
}

impl SensitivityCurve {
    /// Build a curve from `(pressure, slowdown)` control points.
    ///
    /// # Errors
    /// Returns a description of the violated invariant.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("sensitivity curve needs at least one point".into());
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "pressures must be strictly increasing: {} then {}",
                    w[0].0, w[1].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "slowdowns must be non-decreasing: {} then {}",
                    w[0].1, w[1].1
                ));
            }
        }
        for &(p, s) in &points {
            if !p.is_finite() || !s.is_finite() {
                return Err("curve points must be finite".into());
            }
            if s < 1.0 {
                return Err(format!("slowdown {s} < 1"));
            }
            if p < 0.0 {
                return Err(format!("pressure {p} < 0"));
            }
        }
        Ok(Self { points })
    }

    /// A curve that never slows down (fully cache-resident application).
    pub fn insensitive() -> Self {
        Self {
            points: vec![(0.0, 1.0)],
        }
    }

    /// Canonical curve family used by the synthetic profile pool.
    ///
    /// `base` is the slowdown at zero contention (pure remote-access
    /// latency cost, ≥ 1); `slope` is the additional slowdown per unit of
    /// pressure once the link saturates; `knee` is the pressure at which
    /// contention starts to bite (typically just below 1).
    pub fn kneed(base: f64, knee: f64, slope: f64) -> Self {
        assert!(base >= 1.0 && knee > 0.0 && slope >= 0.0);
        Self {
            points: vec![
                (0.0, base),
                (knee, base + 0.05 * slope),
                (knee + 1.0, base + 1.05 * slope),
            ],
        }
    }

    /// Evaluate the curve at the given pressure (≥ 0).
    pub fn slowdown(&self, pressure: f64) -> f64 {
        let pressure = pressure.max(0.0);
        let pts = &self.points;
        if pressure <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (p0, s0) = w[0];
            let (p1, s1) = w[1];
            if pressure <= p1 {
                let t = (pressure - p0) / (p1 - p0);
                return s0 + t * (s1 - s0);
            }
        }
        // Extrapolate with the final segment's slope.
        let n = pts.len();
        if n == 1 {
            return pts[0].1;
        }
        let (p0, s0) = pts[n - 2];
        let (p1, s1) = pts[n - 1];
        let slope = (s1 - s0) / (p1 - p0);
        s1 + slope * (pressure - p1)
    }

    /// Slowdown at zero pressure: the pure remote-latency penalty.
    pub fn base_slowdown(&self) -> f64 {
        self.points[0].1
    }

    /// The control points of the curve.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert!(SensitivityCurve::new(vec![]).is_err());
    }

    #[test]
    fn rejects_decreasing_pressure() {
        assert!(SensitivityCurve::new(vec![(0.0, 1.0), (0.0, 1.5)]).is_err());
        assert!(SensitivityCurve::new(vec![(1.0, 1.0), (0.5, 1.5)]).is_err());
    }

    #[test]
    fn rejects_decreasing_slowdown() {
        assert!(SensitivityCurve::new(vec![(0.0, 2.0), (1.0, 1.5)]).is_err());
    }

    #[test]
    fn rejects_sub_unity_slowdown() {
        assert!(SensitivityCurve::new(vec![(0.0, 0.9)]).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        assert!(SensitivityCurve::new(vec![(0.0, f64::NAN)]).is_err());
        assert!(SensitivityCurve::new(vec![(f64::INFINITY, 2.0)]).is_err());
    }

    #[test]
    fn interpolates_linearly() {
        let c = SensitivityCurve::new(vec![(0.0, 1.0), (1.0, 3.0)]).unwrap();
        assert_eq!(c.slowdown(0.0), 1.0);
        assert_eq!(c.slowdown(0.5), 2.0);
        assert_eq!(c.slowdown(1.0), 3.0);
    }

    #[test]
    fn clamps_below_and_extrapolates_above() {
        let c = SensitivityCurve::new(vec![(0.5, 1.2), (1.0, 2.0)]).unwrap();
        assert_eq!(c.slowdown(0.0), 1.2);
        assert_eq!(c.slowdown(-5.0), 1.2);
        // Final slope is (2.0-1.2)/0.5 = 1.6 per unit pressure.
        assert!((c.slowdown(2.0) - (2.0 + 1.6)).abs() < 1e-12);
    }

    #[test]
    fn single_point_is_constant() {
        let c = SensitivityCurve::new(vec![(0.0, 1.5)]).unwrap();
        assert_eq!(c.slowdown(0.0), 1.5);
        assert_eq!(c.slowdown(100.0), 1.5);
    }

    #[test]
    fn insensitive_is_identity() {
        let c = SensitivityCurve::insensitive();
        assert_eq!(c.slowdown(10.0), 1.0);
        assert_eq!(c.base_slowdown(), 1.0);
    }

    #[test]
    fn kneed_shape() {
        let c = SensitivityCurve::kneed(1.1, 0.9, 2.0);
        assert!((c.base_slowdown() - 1.1).abs() < 1e-12);
        // Below knee: near-flat.
        assert!(c.slowdown(0.5) < 1.2);
        // Past knee: grows.
        assert!(c.slowdown(2.0) > c.slowdown(1.0));
    }

    #[test]
    fn monotone_everywhere() {
        let c = SensitivityCurve::kneed(1.05, 0.8, 3.0);
        let mut prev = 0.0;
        for i in 0..200 {
            let p = i as f64 * 0.05;
            let s = c.slowdown(p);
            assert!(s >= prev, "not monotone at pressure {p}");
            prev = s;
        }
    }
}

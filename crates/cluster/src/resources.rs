//! Two-dimensional resource vectors.
//!
//! The paper's consolidation planners optimise CPU and memory jointly
//! ("Consolidation planning optimizes CPU and memory, while using network
//! and disk throughput as constraints"). [`Resources`] is the 2-vector used
//! for demands, capacities and headroom throughout the workspace. CPU is
//! measured in RPE2 units, memory in megabytes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A (CPU, memory) resource vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// CPU in RPE2 units.
    pub cpu_rpe2: f64,
    /// Memory in MB.
    pub mem_mb: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        cpu_rpe2: 0.0,
        mem_mb: 0.0,
    };

    /// Creates a resource vector.
    #[must_use]
    pub fn new(cpu_rpe2: f64, mem_mb: f64) -> Self {
        Self { cpu_rpe2, mem_mb }
    }

    /// Whether both components of `self` fit within `capacity`.
    #[must_use]
    pub fn fits_within(&self, capacity: &Resources) -> bool {
        self.cpu_rpe2 <= capacity.cpu_rpe2 && self.mem_mb <= capacity.mem_mb
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            cpu_rpe2: self.cpu_rpe2.max(other.cpu_rpe2),
            mem_mb: self.mem_mb.max(other.mem_mb),
        }
    }

    /// Component-wise subtraction clamped at zero (remaining headroom).
    #[must_use]
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu_rpe2: (self.cpu_rpe2 - other.cpu_rpe2).max(0.0),
            mem_mb: (self.mem_mb - other.mem_mb).max(0.0),
        }
    }

    /// The dominant share of this demand relative to `capacity`: the larger
    /// of the per-dimension fractions. This is the classic "dominant
    /// resource" scalarisation used to order items in vector bin packing.
    ///
    /// Returns 0 when `capacity` has a non-positive component.
    #[must_use]
    pub fn dominant_share(&self, capacity: &Resources) -> f64 {
        if capacity.cpu_rpe2 <= 0.0 || capacity.mem_mb <= 0.0 {
            return 0.0;
        }
        (self.cpu_rpe2 / capacity.cpu_rpe2).max(self.mem_mb / capacity.mem_mb)
    }

    /// Euclidean norm of the per-dimension fractions relative to
    /// `capacity` — an alternative packing order key.
    #[must_use]
    pub fn normalized_l2(&self, capacity: &Resources) -> f64 {
        if capacity.cpu_rpe2 <= 0.0 || capacity.mem_mb <= 0.0 {
            return 0.0;
        }
        let c = self.cpu_rpe2 / capacity.cpu_rpe2;
        let m = self.mem_mb / capacity.mem_mb;
        (c * c + m * m).sqrt()
    }

    /// CPU(RPE2) / memory(GB) ratio — the paper's "resource ratio" (Fig 6).
    ///
    /// Returns `None` when memory is zero.
    #[must_use]
    pub fn cpu_mem_ratio(&self) -> Option<f64> {
        if self.mem_mb <= 0.0 {
            None
        } else {
            Some(self.cpu_rpe2 / (self.mem_mb / 1024.0))
        }
    }

    /// Whether either component is negative (useful in debug assertions).
    #[must_use]
    pub fn has_negative(&self) -> bool {
        self.cpu_rpe2 < 0.0 || self.mem_mb < 0.0
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu_rpe2: self.cpu_rpe2 + rhs.cpu_rpe2,
            mem_mb: self.mem_mb + rhs.mem_mb,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        self.cpu_rpe2 += rhs.cpu_rpe2;
        self.mem_mb += rhs.mem_mb;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            cpu_rpe2: self.cpu_rpe2 - rhs.cpu_rpe2,
            mem_mb: self.mem_mb - rhs.mem_mb,
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        self.cpu_rpe2 -= rhs.cpu_rpe2;
        self.mem_mb -= rhs.mem_mb;
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;
    fn mul(self, rhs: f64) -> Resources {
        Resources {
            cpu_rpe2: self.cpu_rpe2 * rhs,
            mem_mb: self.mem_mb * rhs,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} RPE2 / {:.0} MB", self.cpu_rpe2, self.mem_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Resources::new(100.0, 1000.0);
        let b = Resources::new(50.0, 500.0);
        assert_eq!(a + b, Resources::new(150.0, 1500.0));
        assert_eq!(a - b, Resources::new(50.0, 500.0));
        assert_eq!(a * 2.0, Resources::new(200.0, 2000.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Resources::new(150.0, 1500.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_of_empty_is_zero() {
        let total: Resources = std::iter::empty().sum();
        assert_eq!(total, Resources::ZERO);
    }

    #[test]
    fn fits_requires_both_dimensions() {
        let cap = Resources::new(100.0, 100.0);
        assert!(Resources::new(100.0, 100.0).fits_within(&cap));
        assert!(!Resources::new(100.1, 50.0).fits_within(&cap));
        assert!(!Resources::new(50.0, 100.1).fits_within(&cap));
    }

    #[test]
    fn dominant_share_picks_larger_fraction() {
        let cap = Resources::new(100.0, 1000.0);
        let d = Resources::new(10.0, 500.0);
        assert!((d.dominant_share(&cap) - 0.5).abs() < 1e-12);
        assert_eq!(
            Resources::new(1.0, 1.0).dominant_share(&Resources::ZERO),
            0.0
        );
    }

    #[test]
    fn normalized_l2_is_norm_of_fractions() {
        let cap = Resources::new(10.0, 10.0);
        let d = Resources::new(6.0, 8.0);
        assert!((d.normalized_l2(&cap) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_matches_paper_units() {
        // 160 RPE2 per GB — the HS23 reference line of Fig 6.
        let r = Resources::new(20480.0, 131072.0);
        assert!((r.cpu_mem_ratio().unwrap() - 160.0).abs() < 1e-9);
        assert_eq!(Resources::new(1.0, 0.0).cpu_mem_ratio(), None);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Resources::new(1.0, 5.0);
        let b = Resources::new(2.0, 3.0);
        assert_eq!(a.saturating_sub(&b), Resources::new(0.0, 2.0));
    }

    #[test]
    fn max_is_componentwise() {
        let a = Resources::new(1.0, 5.0);
        let b = Resources::new(2.0, 3.0);
        assert_eq!(a.max(&b), Resources::new(2.0, 5.0));
    }

    #[test]
    fn display_shows_units() {
        assert_eq!(Resources::new(10.0, 20.0).to_string(), "10 RPE2 / 20 MB");
    }

    #[test]
    fn has_negative_detects_sign() {
        assert!((Resources::new(1.0, 1.0) - Resources::new(2.0, 0.0)).has_negative());
        assert!(!Resources::new(0.0, 0.0).has_negative());
    }
}

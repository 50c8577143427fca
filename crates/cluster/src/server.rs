//! Server models (hardware specifications).

use crate::power::PowerModel;
use crate::resources::Resources;
use crate::rpe2;

/// Hardware specification of a physical server model.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerModel {
    /// Model name.
    pub name: String,
    /// CPU capacity in RPE2 units.
    pub cpu_rpe2: f64,
    /// Installed memory in MB.
    pub mem_mb: f64,
    /// Network link bandwidth in Mbit/s (used by the live-migration model
    /// and as a placement constraint).
    pub net_mbps: f64,
    /// Power model of the server.
    pub power: PowerModel,
}

impl ServerModel {
    /// The IBM HS23 Elite blade the paper uses as its consolidation
    /// target: 2 sockets, 128 GB extended memory ("one of the blade
    /// servers with the highest memory/CPU ratio"), 10 GbE.
    #[must_use]
    pub fn hs23_elite() -> Self {
        Self {
            name: "hs23-elite".to_owned(),
            cpu_rpe2: rpe2::HS23_ELITE_RPE2,
            mem_mb: 128.0 * 1024.0,
            net_mbps: 10_000.0,
            power: PowerModel::new(210.0, 410.0),
        }
    }

    /// The previous blade generation (HS22, 2010): roughly 60% of the
    /// HS23's compute with a quarter of its extended memory — the "old
    /// half" of a mixed estate.
    #[must_use]
    pub fn hs22() -> Self {
        Self {
            name: "hs22".to_owned(),
            cpu_rpe2: rpe2::rating_of("hs22").expect("catalog entry"),
            mem_mb: 32.0 * 1024.0,
            net_mbps: 1_000.0,
            power: PowerModel::new(190.0, 360.0),
        }
    }

    /// A smaller, older rack server, useful as a source-server spec or as
    /// a deliberately weak consolidation target in tests.
    #[must_use]
    pub fn x3550_m3() -> Self {
        Self {
            name: "x3550-m3".to_owned(),
            cpu_rpe2: rpe2::rating_of("x3550-m3").expect("catalog entry"),
            mem_mb: 32.0 * 1024.0,
            net_mbps: 1_000.0,
            power: PowerModel::new(150.0, 300.0),
        }
    }

    /// Total capacity as a resource vector.
    #[must_use]
    pub fn capacity(&self) -> Resources {
        Resources::new(self.cpu_rpe2, self.mem_mb)
    }

    /// Capacity under per-dimension utilization bounds `(cpu, mem)`, e.g.
    /// `(0.8, 0.8)` for a 20% migration reservation.
    #[must_use]
    pub fn effective_capacity(&self, bounds: (f64, f64)) -> Resources {
        Resources::new(self.cpu_rpe2 * bounds.0, self.mem_mb * bounds.1)
    }

    /// CPU(RPE2)/memory(GB) ratio of this model — the Fig 6 reference
    /// quantity (160 for the HS23 Elite).
    #[must_use]
    pub fn cpu_mem_ratio(&self) -> f64 {
        self.capacity().cpu_mem_ratio().unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hs23_matches_paper_reference() {
        let m = ServerModel::hs23_elite();
        assert_eq!(m.mem_mb, 131_072.0);
        assert!((m.cpu_mem_ratio() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_vector_round_trips() {
        let m = ServerModel::x3550_m3();
        let c = m.capacity();
        assert_eq!(c.cpu_rpe2, m.cpu_rpe2);
        assert_eq!(c.mem_mb, m.mem_mb);
    }

    #[test]
    fn hs22_is_the_weaker_blade() {
        let old = ServerModel::hs22();
        let new = ServerModel::hs23_elite();
        assert!(old.cpu_rpe2 < new.cpu_rpe2);
        assert!(old.mem_mb < new.mem_mb);
        assert!(
            old.cpu_mem_ratio() > new.cpu_mem_ratio(),
            "less memory per RPE2"
        );
    }

    #[test]
    fn older_model_has_lower_ratio_headroom() {
        // The HS23's extended memory is the point: more memory per RPE2
        // than a standard rack box of the same era.
        assert!(
            ServerModel::hs23_elite().cpu_mem_ratio()
                < ServerModel::x3550_m3().cpu_mem_ratio() * 2.0
        );
    }
}

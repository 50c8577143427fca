//! Application resource models.
//!
//! The paper validates its emulator with RuBiS and daxpy and motivates the
//! memory/CPU burstiness gap with an Olio measurement (§4.1: "we varied
//! the throughput for Olio ... from 10 to 60 operations/sec ... CPU demand
//! increased from 0.18 core to 1.42 cores (7.9X increase), whereas the
//! memory demand only increased by 3X"). Those benchmarks are not
//! redistributable, so this module provides analytic stand-ins with the
//! same calibration:
//!
//! * [`WebAppModel`] — power-law throughput→resource curves; the
//!   [`WebAppModel::olio`] instance reproduces the 7.9×/3× numbers.
//! * [`BatchKernelModel`] — a daxpy-like kernel: CPU is whatever you give
//!   it, memory is the vector working set.
//! * [`MicroBenchmark`] — the "filler" of §5.2 that consumes a specified
//!   amount of CPU or memory (with small measurement noise).

use rand::Rng;

/// Power-law resource model of a request-driven web application:
/// `resource(t) = coeff × t^exponent` for throughput `t` in ops/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebAppModel {
    /// CPU coefficient (cores at 1 op/s).
    pub cpu_coeff: f64,
    /// CPU exponent (slightly superlinear: context switching, GC).
    pub cpu_exponent: f64,
    /// Memory coefficient (MB at 1 op/s).
    pub mem_coeff: f64,
    /// Memory exponent (sublinear: shared caches, pooled sessions).
    pub mem_exponent: f64,
}

impl WebAppModel {
    /// Olio calibration: 0.18 cores at 10 ops/s, 1.42 cores at 60 ops/s
    /// (7.9×), memory 3× over the same 6× throughput range.
    #[must_use]
    pub fn olio() -> Self {
        Self {
            cpu_coeff: 0.012_76,
            cpu_exponent: 1.15,
            mem_coeff: 85.4,
            mem_exponent: (3.0_f64).ln() / (6.0_f64).ln(),
        }
    }

    /// A RuBiS-like auction site: closer-to-linear CPU, flatter memory.
    #[must_use]
    pub fn rubis() -> Self {
        Self {
            cpu_coeff: 0.02,
            cpu_exponent: 1.05,
            mem_coeff: 120.0,
            mem_exponent: 0.5,
        }
    }

    /// CPU demand in cores at `ops` operations per second.
    #[must_use]
    pub fn cpu_cores(&self, ops: f64) -> f64 {
        self.cpu_coeff * ops.max(0.0).powf(self.cpu_exponent)
    }

    /// Memory demand in MB at `ops` operations per second.
    #[must_use]
    pub fn mem_mb(&self, ops: f64) -> f64 {
        self.mem_coeff * ops.max(0.0).powf(self.mem_exponent)
    }

    /// The throughput that saturates `cores` CPU cores (inverse of
    /// [`WebAppModel::cpu_cores`]).
    #[must_use]
    pub fn ops_at_cpu(&self, cores: f64) -> f64 {
        if cores <= 0.0 {
            0.0
        } else {
            (cores / self.cpu_coeff).powf(1.0 / self.cpu_exponent)
        }
    }
}

/// A daxpy-like batch kernel: compute-bound with a fixed working set per
/// problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchKernelModel {
    /// Bytes per vector element (daxpy touches two f64 vectors: 16).
    pub bytes_per_element: f64,
}

impl BatchKernelModel {
    /// The daxpy kernel.
    #[must_use]
    pub fn daxpy() -> Self {
        Self {
            bytes_per_element: 16.0,
        }
    }

    /// Memory in MB for a problem of `n` elements.
    #[must_use]
    pub fn mem_mb(&self, n: u64) -> f64 {
        self.bytes_per_element * n as f64 / (1024.0 * 1024.0)
    }

    /// CPU demand: daxpy saturates however many cores it is given.
    #[must_use]
    pub fn cpu_cores(&self, cores_requested: f64) -> f64 {
        cores_requested.max(0.0)
    }
}

/// The micro-benchmark "filler" of §5.2: "a micro-benchmark that can use
/// either a specified amount of memory or consume a specific number of
/// cores". Consumption carries small multiplicative measurement noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroBenchmark {
    /// Relative noise (standard deviation) on achieved consumption.
    pub noise_rel_std: f64,
}

impl MicroBenchmark {
    /// A well-behaved filler: 1% relative noise.
    #[must_use]
    pub fn precise() -> Self {
        Self {
            noise_rel_std: 0.01,
        }
    }

    /// Consumes `target` units (cores or MB), returning the achieved
    /// consumption under measurement noise. Never negative.
    pub fn consume<R: Rng + ?Sized>(&self, rng: &mut R, target: f64) -> f64 {
        let noisy = target * (1.0 + vmcw_trace::synth::gaussian(rng, 0.0, self.noise_rel_std));
        noisy.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn olio_matches_paper_calibration() {
        let m = WebAppModel::olio();
        let cpu10 = m.cpu_cores(10.0);
        let cpu60 = m.cpu_cores(60.0);
        assert!((cpu10 - 0.18).abs() < 0.01, "cpu@10 = {cpu10}");
        assert!((cpu60 - 1.42).abs() < 0.03, "cpu@60 = {cpu60}");
        let cpu_ratio = cpu60 / cpu10;
        assert!((cpu_ratio - 7.9).abs() < 0.2, "cpu ratio {cpu_ratio}");
        let mem_ratio = m.mem_mb(60.0) / m.mem_mb(10.0);
        assert!((mem_ratio - 3.0).abs() < 0.05, "mem ratio {mem_ratio}");
    }

    #[test]
    fn memory_grows_slower_than_cpu() {
        for model in [WebAppModel::olio(), WebAppModel::rubis()] {
            let cpu_ratio = model.cpu_cores(80.0) / model.cpu_cores(10.0);
            let mem_ratio = model.mem_mb(80.0) / model.mem_mb(10.0);
            assert!(cpu_ratio > mem_ratio);
        }
    }

    #[test]
    fn ops_at_cpu_inverts_cpu_cores() {
        let m = WebAppModel::olio();
        for ops in [5.0, 20.0, 55.0] {
            let round_trip = m.ops_at_cpu(m.cpu_cores(ops));
            assert!((round_trip - ops).abs() < 1e-9);
        }
        assert_eq!(m.ops_at_cpu(0.0), 0.0);
    }

    #[test]
    fn daxpy_memory_is_working_set() {
        let k = BatchKernelModel::daxpy();
        // 1 M elements × 16 B ≈ 15.26 MB.
        assert!((k.mem_mb(1_000_000) - 15.26).abs() < 0.01);
        assert_eq!(k.cpu_cores(2.0), 2.0);
        assert_eq!(k.cpu_cores(-1.0), 0.0);
    }

    #[test]
    fn filler_tracks_target_with_noise() {
        let f = MicroBenchmark::precise();
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..5000).map(|_| f.consume(&mut rng, 100.0)).collect();
        let mean = vmcw_trace::stats::mean(&samples).unwrap();
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        assert!(samples.iter().all(|&s| s >= 0.0));
    }
}

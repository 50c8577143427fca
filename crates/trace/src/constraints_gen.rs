//! Synthesis of realistic deployment-constraint sets.
//!
//! §2.2.4: "Enterprise applications often have deployment constraints,
//! which consolidation algorithms need to take into account." The paper's
//! engagements see affinity (app server + cache), anti-affinity (HA
//! pairs), license host pinning and DMZ subnet pinning. Since the real
//! constraint inventories are as proprietary as the traces, this module
//! synthesises a constraint mix with the knobs an engagement would
//! recognise, deterministically from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative frequencies of the §2.2.4 constraint kinds, as fractions of
/// the server population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstraintMix {
    /// Fraction of servers that form an HA anti-affinity pair with a
    /// randomly chosen partner.
    pub ha_pair_frac: f64,
    /// Fraction of servers colocated with a companion (cache, sidecar).
    pub affinity_frac: f64,
    /// Fraction of servers pinned to a subnet (DMZ-style zoning).
    pub subnet_pin_frac: f64,
    /// Number of subnets the pins draw from.
    pub subnets: u16,
}

impl ConstraintMix {
    /// A typical enterprise mix: ~6% HA pairs, ~4% affinity companions,
    /// ~5% subnet-zoned, over 4 subnets.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            ha_pair_frac: 0.06,
            affinity_frac: 0.04,
            subnet_pin_frac: 0.05,
            subnets: 4,
        }
    }

    /// No constraints at all.
    #[must_use]
    pub fn none() -> Self {
        Self {
            ha_pair_frac: 0.0,
            affinity_frac: 0.0,
            subnet_pin_frac: 0.0,
            subnets: 1,
        }
    }

    /// A heavily constrained estate (regulated industries).
    #[must_use]
    pub fn heavy() -> Self {
        Self {
            ha_pair_frac: 0.15,
            affinity_frac: 0.10,
            subnet_pin_frac: 0.15,
            subnets: 4,
        }
    }
}

impl Default for ConstraintMix {
    fn default() -> Self {
        Self::typical()
    }
}

/// A synthesised constraint list over `n` server indices (`0..n`), to be
/// mapped onto VM ids by the caller.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SynthesisedConstraints {
    /// Anti-affinity pairs (HA).
    pub anti_pairs: Vec<(u32, u32)>,
    /// Affinity pairs (colocated companions).
    pub affinity_pairs: Vec<(u32, u32)>,
    /// Subnet pins `(server, subnet)`.
    pub subnet_pins: Vec<(u32, u16)>,
}

impl SynthesisedConstraints {
    /// Total number of constraints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.anti_pairs.len() + self.affinity_pairs.len() + self.subnet_pins.len()
    }

    /// Whether no constraints were synthesised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Synthesises a constraint set over `n` servers.
///
/// Each server participates in at most one pairwise constraint (HA *or*
/// affinity), mirroring the disjoint application boundaries real
/// inventories have — and guaranteeing the result is internally
/// consistent (no colocate/anti-colocate contradictions, no oversized
/// affinity groups).
#[must_use]
pub fn synthesise(n: usize, mix: &ConstraintMix, seed: u64) -> SynthesisedConstraints {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_57_A1_57);
    let mut out = SynthesisedConstraints::default();
    if n < 2 {
        return out;
    }
    let mut unpaired: Vec<u32> = (0..n as u32).collect();
    // Fisher–Yates-style pair drawing.
    let draw_pair = |unpaired: &mut Vec<u32>, rng: &mut StdRng| -> Option<(u32, u32)> {
        if unpaired.len() < 2 {
            return None;
        }
        let i = rng.random_range(0..unpaired.len());
        let a = unpaired.swap_remove(i);
        let j = rng.random_range(0..unpaired.len());
        let b = unpaired.swap_remove(j);
        Some((a, b))
    };
    let ha_pairs = ((n as f64 * mix.ha_pair_frac / 2.0).round() as usize).min(n / 2);
    for _ in 0..ha_pairs {
        let Some(pair) = draw_pair(&mut unpaired, &mut rng) else {
            break;
        };
        out.anti_pairs.push(pair);
    }
    let affinity_pairs = ((n as f64 * mix.affinity_frac / 2.0).round() as usize).min(n / 2);
    for _ in 0..affinity_pairs {
        let Some(pair) = draw_pair(&mut unpaired, &mut rng) else {
            break;
        };
        out.affinity_pairs.push(pair);
    }
    // Subnet pins: zoning may hit any server, but colocated companions
    // must land in the same zone — a split-zone affinity pair would be
    // unsatisfiable.
    let companion: std::collections::BTreeMap<u32, u32> = out
        .affinity_pairs
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    let pins = (n as f64 * mix.subnet_pin_frac).round() as usize;
    let mut pinned = std::collections::BTreeMap::new();
    let mut guard = 0;
    while pinned.len() < pins.min(n) && guard < n * 10 {
        guard += 1;
        let s = rng.random_range(0..n as u32);
        if pinned.contains_key(&s) {
            continue;
        }
        let subnet = companion
            .get(&s)
            .and_then(|c| pinned.get(c).copied())
            .unwrap_or_else(|| rng.random_range(0..mix.subnets.max(1)));
        pinned.insert(s, subnet);
    }
    out.subnet_pins = pinned.into_iter().collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_mix_produces_expected_counts() {
        let c = synthesise(1000, &ConstraintMix::typical(), 7);
        assert_eq!(c.anti_pairs.len(), 30, "6% of 1000 servers = 30 pairs");
        assert_eq!(c.affinity_pairs.len(), 20);
        assert_eq!(c.subnet_pins.len(), 50);
        assert!(!c.is_empty());
    }

    #[test]
    fn servers_participate_in_at_most_one_pair() {
        let c = synthesise(500, &ConstraintMix::heavy(), 3);
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in c.anti_pairs.iter().chain(&c.affinity_pairs) {
            assert_ne!(a, b);
            assert!(seen.insert(a), "server {a} in two pairs");
            assert!(seen.insert(b), "server {b} in two pairs");
        }
    }

    #[test]
    fn subnet_pins_are_unique_and_in_range() {
        let mix = ConstraintMix {
            subnets: 3,
            ..ConstraintMix::heavy()
        };
        let c = synthesise(200, &mix, 9);
        let mut servers = std::collections::BTreeSet::new();
        for &(s, subnet) in &c.subnet_pins {
            assert!(servers.insert(s), "duplicate pin for {s}");
            assert!(subnet < 3);
        }
    }

    #[test]
    fn colocated_companions_share_their_zone() {
        // Exhaustively over seeds: a pinned affinity pair never splits.
        for seed in 0..20 {
            let c = synthesise(400, &ConstraintMix::heavy(), seed);
            let pins: std::collections::BTreeMap<u32, u16> =
                c.subnet_pins.iter().copied().collect();
            for &(a, b) in &c.affinity_pairs {
                if let (Some(&sa), Some(&sb)) = (pins.get(&a), pins.get(&b)) {
                    assert_eq!(sa, sb, "seed {seed}: pair ({a},{b}) split across zones");
                }
            }
        }
    }

    #[test]
    fn none_mix_is_empty_and_tiny_populations_are_safe() {
        assert!(synthesise(1000, &ConstraintMix::none(), 1).is_empty());
        assert!(synthesise(1, &ConstraintMix::heavy(), 1).is_empty());
        assert!(synthesise(0, &ConstraintMix::heavy(), 1).is_empty());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesise(300, &ConstraintMix::typical(), 42);
        let b = synthesise(300, &ConstraintMix::typical(), 42);
        assert_eq!(a, b);
        let c = synthesise(300, &ConstraintMix::typical(), 43);
        assert_ne!(a, c);
    }
}

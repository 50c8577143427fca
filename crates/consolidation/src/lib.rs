//! Consolidation planners for the reproduction of *Virtual Machine
//! Consolidation in the Wild* (Middleware 2014).
//!
//! The paper compares three planning algorithms (§5.1):
//!
//! * **Semi-Static** — "vanilla semi-static algorithm that uses peak
//!   expected resource demand for sizing and first-fit-decreasing for
//!   placement" → [`PlannerKind::SemiStatic`].
//! * **Stochastic** — "inspired from the PCP algorithm in \[27\]. Body of
//!   the distribution = 90 percentile, Tail of the distribution = Max" →
//!   [`PlannerKind::Stochastic`].
//! * **Dynamic** — "a state-of-the-art dynamic consolidation scheme that
//!   compares various adaptation actions possible and selects the one with
//!   least cost. The actual sizing function used in this case is the
//!   estimated peak demand in the consolidation window" →
//!   [`PlannerKind::Dynamic`].
//!
//! Static consolidation (§2.2.1) is also provided for completeness.
//! [`Planner::plan`] runs any of them.
//!
//! Module map:
//!
//! * [`input`] — planning inputs: VM demand traces split into a 30-day
//!   planning history and a 14-day evaluation window, plus the
//!   virtualisation overhead model.
//! * [`sizing`] — sizing functions (max, percentile, mean) and
//!   consolidation-window demand estimation.
//! * [`prediction`] — the online predictors the dynamic planner uses for
//!   "estimated peak demand in the consolidation window".
//! * [`placement`] — placement representation and capacity accounting.
//! * [`ffd`] — constraint-aware two-dimensional First-Fit-Decreasing, with
//!   Best-Fit-Decreasing as a second policy of the same model.
//! * [`pcp`] — the stochastic Peak-Clustering variant.
//! * [`correlation`] — the second stochastic variant of \[27\]: explicit
//!   pairwise-correlation charging instead of bucket envelopes.
//! * [`dynamic`] — the migration-cost-aware dynamic planner.
//! * [`drain`] — host maintenance evacuation (§1.2's production use of
//!   live migration).
//! * [`fixed_pool`] — packing into an existing, possibly heterogeneous
//!   estate ("does what we own hold this workload?").
//! * [`planner`] — the facade tying everything together.
//!
//! # Example
//!
//! Plan the (shrunk) Airlines data center with the stochastic planner:
//!
//! ```
//! use vmcw_consolidation::{Planner, PlannerKind, PlanningInput, VirtualizationModel};
//! use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};
//!
//! let workload = GeneratorConfig::new(DataCenterId::Airlines)
//!     .scale(0.05)
//!     .days(21)
//!     .generate(1);
//! let input = PlanningInput::from_workload(&workload, 14, VirtualizationModel::default());
//! let plan = Planner::baseline().plan(PlannerKind::Stochastic, &input)?;
//! assert!(plan.provisioned_hosts() > 0);
//! # Ok::<(), vmcw_consolidation::PackError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod drain;
pub mod dynamic;
pub mod ffd;
pub mod fixed_pool;
pub mod input;
pub mod pcp;
pub mod placement;
pub mod planner;
pub mod prediction;
pub mod sizing;

pub use ffd::PackingAlgorithm;
pub use input::{PlanningInput, VirtualizationModel, VmTrace};
pub use placement::{PackError, Placement};
pub use planner::{ConsolidationPlan, PlanPlacements, Planner, PlannerKind, StochasticVariant};
pub use prediction::Predictor;
pub use sizing::SizingFunction;

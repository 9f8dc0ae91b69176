//! # d2net-analysis
//!
//! Analytic and heuristic characterization of the diameter-two
//! topologies (paper §2.3):
//!
//! - [`scale`]: the Fig. 3 scalability/cost comparison and Moore-bound
//!   fractions;
//! - [`bisection`](mod@bisection): Fiduccia–Mattheyses balanced min-cut bisection — the
//!   Fig. 4 bisection-bandwidth approximation (METIS substitute);
//! - [`diversity`]: the §2.3.3 shortest-path-diversity census;
//! - [`linkload`]: static channel-load analysis predicting the §4.2
//!   saturation bounds analytically;
//! - [`oracle`]: the analytic oracle — traffic-matrix channel loads,
//!   saturation envelopes, zero-load latency and cost-per-bandwidth
//!   predictions over the *real* route tables;
//! - [`error`]: `Result`-based error reporting shared by the above.

pub mod bisection;
pub mod diversity;
pub mod error;
pub mod linkload;
pub mod oracle;
pub mod scale;

pub use bisection::{bisection, is_balanced, try_bisection, Bisection};
pub use diversity::{endpoint_diversity, non_adjacent_diversity, DiversityStats};
pub use error::AnalysisError;
pub use linkload::{permutation_link_load, try_permutation_link_load, LinkLoadReport, LoadModel};
pub use oracle::{
    algorithm_label, analyze_all_indirect, analyze_minimal, analyze_policy, Envelope, LatencyModel,
    LinkIndex, OracleReport, PolicyAnalysis, TrafficMatrix,
};
pub use scale::{moore_bound, scale_table, slim_fly_moore_fraction, slim_fly_scale, ScaleRow};

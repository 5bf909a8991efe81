//! SimPoint: off-line phase classification by clustering basic block
//! vectors, and simulation-point selection (paper Sections 2.2 and 6.2).
//!
//! This reimplements the published SimPoint algorithm the paper builds
//! on:
//!
//! * [`kmeans`] — weighted Lloyd iteration with k-means++ seeding
//!   (weights support the paper's SimPoint 3.0 *variable-length
//!   interval* mode, where each interval represents a different fraction
//!   of execution; uniform weights recover SimPoint 2.0),
//! * [`bic`] — the Bayesian Information Criterion used to choose the
//!   number of clusters: the smallest `k` scoring at least 90% of the
//!   observed BIC range,
//! * [`pick_simpoints`] — clusters interval vectors and picks one
//!   representative (simulation point) per cluster: the median of the
//!   intervals nearest its centroid, and
//! * [`estimate`] / [`filter_top`] — whole-program metric estimation
//!   from the simulation points and the paper's 95%/99% weight filters
//!   that trade accuracy for simulation time.
//!
//! # Examples
//!
//! ```
//! use spm_simpoint::{pick_simpoints, SimPointConfig};
//!
//! // Two obvious clusters of 2-D "BBVs", equal weights.
//! let vectors = vec![
//!     vec![1.0, 0.0],
//!     vec![0.9, 0.1],
//!     vec![0.0, 1.0],
//!     vec![0.1, 0.9],
//! ];
//! let weights = vec![1.0; 4];
//! let sp = pick_simpoints(&vectors, &weights, &SimPointConfig::new(3, 2, 42)).unwrap();
//! assert_eq!(sp.k, 2);
//! assert_eq!(sp.assignments[0], sp.assignments[1]);
//! assert_ne!(sp.assignments[0], sp.assignments[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod estimate;
mod kmeans;
mod points;

pub use estimate::{
    cluster_covs, error_bound, estimate, filter_top, relative_error, simulated_weight,
    true_weighted_mean,
};
pub use kmeans::{bic, kmeans, Clustering, KmeansError};
pub use points::{pick_simpoints, ClusterInfo, SimPointConfig, SimPoints};

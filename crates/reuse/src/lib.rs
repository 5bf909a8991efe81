//! The reuse-distance phase-marker baseline of Shen, Zhong & Ding
//! ("Locality Phase Prediction", ASPLOS'04) — the approach the paper
//! compares against in Section 6.1 / Figure 10.
//!
//! The paper obtained Shen's binaries and markers; we rebuild the whole
//! pipeline instead:
//!
//! 1. [`ReuseTracker`] — exact LRU stack (reuse) distances over the data
//!    stream, computed in `O(log n)` per access with a Fenwick tree;
//! 2. [`ReuseSignalCollector`] — a trace observer condensing the
//!    distance stream into a per-window signal (mean log2 distance);
//! 3. [`haar`] — Haar wavelet analysis of the signal; phase boundaries
//!    are where the finest-scale detail coefficients spike;
//! 4. [`sequitur`] — the Sequitur grammar-inference algorithm, used (as
//!    in Shen et al.) to detect whether the boundary-segment sequence
//!    has repeating structure — programs whose segment grammar does not
//!    compress (gcc, vortex in the paper) yield **no** reuse markers;
//! 5. [`locality`] — correlates basic-block executions with the detected
//!    boundaries and selects high-precision/high-recall blocks as the
//!    *data reuse markers* driving cache reconfiguration.
//!
//! The analysis runs at one parameter set, fixed in [`locality`]; the
//! only knob is the signal window, [`ReuseSignalCollector::new`]'s
//! argument.
//!
//! Two companions round the crate out: [`ReuseTracker::miss_ratio_curve`]
//! derives fully-associative LRU miss-ratio curves from the stack
//! distances (what the paper's Cheetah simulator computed), and
//! [`hierarchy`] applies Sequitur to marker phase sequences to expose
//! super-phases at multiple time scales.
//!
//! # Examples
//!
//! ```
//! use spm_reuse::ReuseTracker;
//!
//! let mut t = ReuseTracker::new(64);
//! assert_eq!(t.access(0x000), None);      // cold
//! assert_eq!(t.access(0x100), None);      // cold
//! assert_eq!(t.access(0x000), Some(1));   // one distinct line between
//! assert_eq!(t.access(0x100), Some(1));
//! assert_eq!(t.access(0x108), Some(0));   // same line: distance 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod haar;
pub mod hierarchy;
pub mod locality;
pub mod sequitur;

mod tracker;

pub use haar::{detect_boundaries, haar_details};
pub use hierarchy::{phase_hierarchy, PhaseHierarchy, SuperPhase};
pub use locality::{LocalityAnalysis, ReuseMarkerRuntime, ReuseSignalCollector};
pub use sequitur::{Grammar, Sequitur};
pub use tracker::ReuseTracker;

//! Weighted k-means with k-means++ seeding, and the BIC model-selection
//! score.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index per point.
    pub assignments: Vec<usize>,
    /// Cluster centroids (k rows).
    pub centroids: Vec<Vec<f64>>,
    /// Weighted sum of squared distances to assigned centroids.
    pub distortion: f64,
    /// Lloyd iterations executed (assignment + update rounds).
    pub iterations: u64,
    /// Whether the assignment stabilized before the iteration cap.
    pub converged: bool,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Total weight per cluster.
    pub fn cluster_weights(&self, weights: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.k()];
        for (i, &c) in self.assignments.iter().enumerate() {
            out[c] += weights[i];
        }
        out
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Errors from [`kmeans`]: input shapes a clustering cannot be defined
/// on. (Degenerate *values* — non-finite coordinates or weights — are
/// sanitized, not errors; see [`kmeans`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmeansError {
    /// No points to cluster (an empty BBV set).
    NoPoints,
    /// `points` and `weights` lengths disagree.
    WeightCountMismatch {
        /// Number of points.
        points: usize,
        /// Number of weights.
        weights: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// A point's dimensionality differs from the first point's.
    DimensionMismatch {
        /// Index of the offending point.
        index: usize,
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality found.
        found: usize,
    },
}

impl std::fmt::Display for KmeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmeansError::NoPoints => write!(f, "kmeans needs at least one point"),
            KmeansError::WeightCountMismatch { points, weights } => {
                write!(f, "{points} points but {weights} weights")
            }
            KmeansError::ZeroK => write!(f, "k must be at least 1"),
            KmeansError::DimensionMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "point {index} has {found} dimensions, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for KmeansError {}

/// The width every point shares (0 for no points).
///
/// # Errors
///
/// [`KmeansError::DimensionMismatch`] naming the first point whose
/// width differs from the first point's.
pub(crate) fn row_width(points: &[Vec<f64>]) -> Result<usize, KmeansError> {
    let d = points.first().map_or(0, Vec::len);
    match points.iter().position(|p| p.len() != d) {
        None => Ok(d),
        Some(index) => Err(KmeansError::DimensionMismatch {
            index,
            expected: d,
            found: points[index].len(),
        }),
    }
}

/// Weighted Lloyd's algorithm with k-means++ initialization.
///
/// `points` are the (projected) interval vectors; `weights` are the
/// interval sizes in instructions (the SimPoint 3.0 VLI extension —
/// pass uniform weights for classic SimPoint 2.0). Runs until the
/// assignment is stable or 100 iterations. Deterministic in `seed`.
///
/// The result is bit-identical to plain Lloyd iteration: the
/// assignment step skips a point only when Hamerly's bounds prove the
/// full scan would keep its cluster, and a fit that enters an exact
/// 2-cycle stops early in the state the iteration cap would leave,
/// reporting 100 iterations and no convergence.
///
/// Degenerate inputs are tolerated rather than fatal: `k` is clamped to
/// the number of points, any dimension containing a non-finite
/// coordinate in *any* point is zeroed across all points (it carries no
/// usable distance information), and non-finite or negative weights are
/// treated as zero.
///
/// # Errors
///
/// Returns a [`KmeansError`] when `points` is empty, the `weights`
/// length disagrees, the points are ragged, or `k` is zero.
pub fn kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
) -> Result<Clustering, KmeansError> {
    if points.is_empty() {
        return Err(KmeansError::NoPoints);
    }
    if points.len() != weights.len() {
        return Err(KmeansError::WeightCountMismatch {
            points: points.len(),
            weights: weights.len(),
        });
    }
    if k == 0 {
        return Err(KmeansError::ZeroK);
    }
    let d = row_width(points)?;
    let k = k.min(points.len());
    let (clustering, fit) = match sanitized(points, weights, d) {
        Some((pts, ws)) => kmeans_unchecked(&pts, &ws, k, seed),
        None => kmeans_unchecked(points, weights, k, seed),
    };
    Ok(report(clustering, fit, points.len()))
}

/// Copies of `points` with every dimension that holds a non-finite
/// coordinate zeroed, and of `weights` with non-finite or negative
/// weights zeroed; `None` when the inputs need neither.
fn sanitized(points: &[Vec<f64>], weights: &[f64], d: usize) -> Option<(Vec<Vec<f64>>, Vec<f64>)> {
    let bad_dim: Vec<bool> = (0..d)
        .map(|j| points.iter().any(|p| !p[j].is_finite()))
        .collect();
    let bad_weight = weights.iter().any(|w| !w.is_finite() || *w < 0.0);
    if !bad_weight && !bad_dim.iter().any(|&b| b) {
        return None;
    }
    let pts = points
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(j, &x)| if bad_dim[j] { 0.0 } else { x })
                .collect()
        })
        .collect();
    let ws = weights
        .iter()
        .map(|&w| if w.is_finite() && w >= 0.0 { w } else { 0.0 })
        .collect();
    Some((pts, ws))
}

/// What one fit did beyond its [`Clustering`], for the trace.
#[derive(Debug, Clone, Copy, Default)]
struct FitStats {
    /// Exact point–centroid distances computed in assignment rounds.
    dist_evals: u64,
    /// Whether the fit stopped on a proven 2-cycle.
    cycled: bool,
}

/// Emits the per-run convergence counter when a recorder is installed.
fn report(clustering: Clustering, fit: FitStats, n: usize) -> Clustering {
    if spm_obs::enabled() {
        spm_obs::counter_with(
            "simpoint/kmeans_iters",
            clustering.iterations,
            &[
                ("k", (clustering.k() as u64).into()),
                ("n", (n as u64).into()),
                ("converged", clustering.converged.into()),
                ("dist_evals", fit.dist_evals.into()),
                ("cycled", fit.cycled.into()),
            ],
        );
    }
    clustering
}

/// The iteration cap of a fit.
const MAX_ROUNDS: usize = 100;

/// Absolute slack of every pruning bound. It covers the absolute error
/// `sq_dist` makes where squares underflow, so two points closer than
/// this are never told apart by a bound.
const BOUND_ABS: f64 = 1e-150;

/// Squared distances are capped here before they become lower bounds,
/// so a sum that overflowed to `inf` claims no more than it shows, and
/// a point passing the prune test has a squared distance to its own
/// centroid that cannot overflow.
const BOUND_CAP2: f64 = 1e300;

/// An upper bound on the true distance whose square `sq_dist` computed
/// as `s`; NaN (a centroid with a NaN coordinate) bounds nothing.
fn dist_hi(s: f64, rel: f64) -> f64 {
    if s.is_nan() {
        return f64::INFINITY;
    }
    s.sqrt() * (1.0 + rel) + BOUND_ABS
}

/// A lower bound on the true distance whose square `sq_dist` computed
/// as `s`; non-positive when there is none.
fn dist_lo(s: f64, rel: f64) -> f64 {
    if s.is_nan() {
        return 0.0;
    }
    s.min(BOUND_CAP2).sqrt() * (1.0 - rel) - BOUND_ABS
}

/// Bit equality of two centroid sets (`==` would equate `0.0` with
/// `-0.0` and tell NaN from itself).
fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.iter()
        .flatten()
        .map(|x| x.to_bits())
        .eq(b.iter().flatten().map(|x| x.to_bits()))
}

/// k-means++ seeding: `k` centroids, each a copy of a point sampled by
/// weight times squared distance to the nearest centroid so far.
fn plus_plus(points: &[Vec<f64>], weights: &[f64], k: usize, rng: &mut SmallRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = weighted_sample(rng, weights);
    centroids.push(points[first].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let scores: Vec<f64> = d2.iter().zip(weights).map(|(d, w)| d * w).collect();
        let total: f64 = scores.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with a centroid; take any.
            weighted_sample(rng, weights)
        } else {
            weighted_sample(rng, &scores)
        };
        centroids.push(points[next].clone());
        let newest = centroids.len() - 1;
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, &centroids[newest]));
        }
    }
    centroids
}

/// The algorithm proper; inputs already validated and sanitized.
///
/// Lloyd iteration with two savings that leave every output bit as
/// plain Lloyd would:
///
/// * **Hamerly bounds.** `upper[i]` bounds the distance from point `i`
///   to its centroid from above, `lower[i]` its distance to every other
///   centroid from below, and `half_sep[c]` half the distance from
///   centroid `c` to its nearest neighbour from below. All three are
///   rounded outward by `rel` (which covers `sq_dist`'s relative error
///   for width `d`) and [`BOUND_ABS`], and a NaN or overflowed distance
///   turns into a bound that proves nothing (no bound is ever NaN). A
///   point is skipped only when its upper bound, inflated once more, is
///   strictly below the larger of the other two: then every other
///   centroid's computed distance is strictly larger than its own
///   centroid's, so the scan with its strict `<` would keep it.
///   Otherwise the point gets that very scan, after one exact distance
///   to its own centroid has failed to tighten the bound enough.
/// * **2-cycle stop.** A round is a pure function of `(centroids,
///   assignments)` at its top. When that state matches the one two
///   rounds back bit for bit, the fit alternates between two states
///   that do not converge until the cap, so it stops at whichever of
///   the two the cap would leave.
fn kmeans_unchecked(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
) -> (Clustering, FitStats) {
    let n = points.len();
    let d = points[0].len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = plus_plus(points, weights, k, &mut rng);

    let rel = 4.0 * (d as f64 + 8.0) * f64::EPSILON;
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![0.0; n];
    let mut half_sep = vec![0.0; k];
    let mut previous = centroids.clone();
    // The state at the top of rounds t-2 and t-1, indexed by t % 2.
    let mut history: [(Vec<Vec<f64>>, Vec<usize>); 2] = Default::default();
    let mut fit = FitStats::default();

    let mut assignments = vec![0usize; n];
    let mut iterations = 0u64;
    let mut converged = false;
    for round in 0..MAX_ROUNDS {
        if round >= 2 {
            let (then_c, then_a) = &history[round % 2];
            if *then_a == assignments && same_bits(then_c, &centroids) {
                // From here the states alternate, and the cap leaves the
                // one at the top of round `round + (100 - round) % 2`:
                // this one, or the next, which equals the previous one.
                if (MAX_ROUNDS - round) % 2 == 1 {
                    (centroids, assignments) = std::mem::take(&mut history[(round + 1) % 2]);
                }
                fit.cycled = true;
                iterations = MAX_ROUNDS as u64;
                break;
            }
        }
        let (then_c, then_a) = &mut history[round % 2];
        then_c.clone_from(&centroids);
        then_a.clone_from(&assignments);
        iterations = round as u64 + 1;

        if round > 0 {
            half_sep.fill(f64::INFINITY);
            for a in 0..k {
                for b in a + 1..k {
                    let s = 0.5 * dist_lo(sq_dist(&centroids[a], &centroids[b]), rel);
                    half_sep[a] = half_sep[a].min(s);
                    half_sep[b] = half_sep[b].min(s);
                }
            }
        }
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let own = assignments[i];
            let gap = half_sep[own].max(lower[i]);
            if upper[i] * (1.0 + rel) + BOUND_ABS < gap {
                continue;
            }
            if upper[i].is_finite() {
                // Tighten to the exact distance before paying for a scan.
                fit.dist_evals += 1;
                upper[i] = dist_hi(sq_dist(p, &centroids[own]), rel);
                if upper[i] * (1.0 + rel) + BOUND_ABS < gap {
                    continue;
                }
            }
            fit.dist_evals += k as u64;
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            let mut second_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let dist = sq_dist(p, centroid);
                if dist < best_d {
                    second_d = best_d;
                    best_d = dist;
                    best = c;
                } else if dist < second_d {
                    second_d = dist;
                }
            }
            upper[i] = dist_hi(best_d, rel);
            lower[i] = dist_lo(second_d, rel);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed && round > 0 {
            converged = true;
            break;
        }
        previous.clone_from(&centroids);
        // Update step (weighted means).
        let mut sums = vec![vec![0.0; d]; centroids.len()];
        let mut wsum = vec![0.0; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            wsum[c] += weights[i];
            for (s, x) in sums[c].iter_mut().zip(p) {
                *s += weights[i] * x;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if wsum[c] > 0.0 {
                for (dst, s) in centroid.iter_mut().zip(&sums[c]) {
                    *dst = s / wsum[c];
                }
            }
        }
        // Reseed any empty cluster at the point currently farthest from
        // its assigned centroid.
        for c in 0..centroids.len() {
            if wsum[c] > 0.0 {
                continue;
            }
            let far = (0..n)
                .max_by(|&a, &b| {
                    let da = sq_dist(&points[a], &centroids[assignments[a]]);
                    let db = sq_dist(&points[b], &centroids[assignments[b]]);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            centroids[c] = points[far].clone();
        }
        // Widen the bounds by how far each centroid moved: a point's own
        // centroid by its own move, every other by the largest move of
        // the rest.
        let moved: Vec<f64> = previous
            .iter()
            .zip(&centroids)
            .map(|(old, new)| dist_hi(sq_dist(old, new), rel))
            .collect();
        let (mut top, mut top_c, mut runner_up) = (0.0, usize::MAX, 0.0);
        for (c, &m) in moved.iter().enumerate() {
            if m > top {
                (runner_up, top, top_c) = (top, m, c);
            } else if m > runner_up {
                runner_up = m;
            }
        }
        for (i, &own) in assignments.iter().enumerate() {
            upper[i] = (upper[i] + moved[own]) * (1.0 + rel);
            let others = if own == top_c { runner_up } else { top };
            lower[i] = (lower[i] - others) * (1.0 - rel);
        }
    }

    let distortion = points
        .iter()
        .enumerate()
        .map(|(i, p)| weights[i] * sq_dist(p, &centroids[assignments[i]]))
        .sum();
    let clustering = Clustering {
        assignments,
        centroids,
        distortion,
        iterations,
        converged,
    };
    (clustering, fit)
}

/// Samples an index proportionally to the given non-negative scores.
fn weighted_sample(rng: &mut SmallRng, scores: &[f64]) -> usize {
    let total: f64 = scores.iter().sum();
    // NaN too: a squared distance that overflowed to `inf`, times a
    // zero weight, leaves no distribution to sample from.
    if total.is_nan() || total <= 0.0 {
        return 0;
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &s) in scores.iter().enumerate() {
        if s <= 0.0 {
            continue;
        }
        if target < s {
            return i;
        }
        target -= s;
    }
    scores.len() - 1
}

/// Bayesian Information Criterion of a clustering, per SimPoint (the
/// x-means formulation): a spherical-Gaussian log-likelihood minus a
/// `(p / 2) ln n` complexity penalty with `p = k (d + 1)` free
/// parameters. Larger is better.
///
/// `weights` scale each point's contribution (uniform weights recover
/// the classic formula); they are normalized so the effective sample
/// size stays `n`.
pub fn bic(clustering: &Clustering, points: &[Vec<f64>], weights: &[f64]) -> f64 {
    let n = points.len() as f64;
    let d = points.first().map_or(0, Vec::len) as f64;
    let k = clustering.k() as f64;
    if n <= k || d == 0.0 {
        return f64::NEG_INFINITY;
    }
    let total_w: f64 = weights.iter().sum();
    if total_w <= 0.0 {
        return f64::NEG_INFINITY;
    }
    // Effective (weight-scaled) cluster sizes summing to n.
    let mut n_i = vec![0.0; clustering.k()];
    for (i, &c) in clustering.assignments.iter().enumerate() {
        n_i[c] += weights[i] / total_w * n;
    }
    // Variance estimate from the (weight-scaled) distortion.
    let sigma2 = (clustering.distortion / total_w * n / (d * (n - k))).max(1e-12);
    let mut log_l = -(n * d / 2.0) * (2.0 * std::f64::consts::PI * sigma2).ln() - d * (n - k) / 2.0;
    for &ni in &n_i {
        if ni > 0.0 {
            log_l += ni * (ni / n).ln();
        }
    }
    let p = k * (d + 1.0);
    log_l - p / 2.0 * n.ln()
}

/// Plain Lloyd iteration as it ran before the bounds and the 2-cycle
/// stop, kept verbatim as the oracle [`kmeans_unchecked`] must match
/// bit for bit.
#[cfg(test)]
fn lloyd_reference(points: &[Vec<f64>], weights: &[f64], k: usize, seed: u64) -> Clustering {
    let n = points.len();
    let d = points[0].len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = plus_plus(points, weights, k, &mut rng);
    let mut assignments = vec![0usize; n];
    let mut iterations = 0u64;
    let mut converged = false;
    for _iter in 0..100 {
        iterations = _iter as u64 + 1;
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let dist = sq_dist(p, centroid);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed && _iter > 0 {
            converged = true;
            break;
        }
        // Update step (weighted means).
        let mut sums = vec![vec![0.0; d]; centroids.len()];
        let mut wsum = vec![0.0; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            wsum[c] += weights[i];
            for (s, x) in sums[c].iter_mut().zip(p) {
                *s += weights[i] * x;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if wsum[c] > 0.0 {
                for (dst, s) in centroid.iter_mut().zip(&sums[c]) {
                    *dst = s / wsum[c];
                }
            }
        }
        // Reseed any empty cluster at the point currently farthest from
        // its assigned centroid.
        for c in 0..centroids.len() {
            if wsum[c] > 0.0 {
                continue;
            }
            let far = (0..n)
                .max_by(|&a, &b| {
                    let da = sq_dist(&points[a], &centroids[assignments[a]]);
                    let db = sq_dist(&points[b], &centroids[assignments[b]]);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            centroids[c] = points[far].clone();
        }
    }

    let distortion = points
        .iter()
        .enumerate()
        .map(|(i, p)| weights[i] * sq_dist(p, &centroids[assignments[i]]))
        .sum();
    Clustering {
        assignments,
        centroids,
        distortion,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    fn blobs(per: usize, centers: &[(f64, f64)], spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                out.push(vec![
                    cx + rng.gen_range(-spread..spread),
                    cy + rng.gen_range(-spread..spread),
                ]);
            }
        }
        out
    }

    #[test]
    fn separates_clear_blobs() {
        let points = blobs(20, &[(0.0, 0.0), (10.0, 10.0)], 0.5, 1);
        let weights = vec![1.0; points.len()];
        let c = kmeans(&points, &weights, 2, 7).unwrap();
        // All of blob 1 in one cluster, all of blob 2 in the other.
        let first = c.assignments[0];
        assert!(c.assignments[..20].iter().all(|&a| a == first));
        assert!(c.assignments[20..].iter().all(|&a| a != first));
        assert!(c.distortion < 20.0);
    }

    #[test]
    fn k_one_centroid_is_weighted_mean() {
        let points = vec![vec![0.0], vec![10.0]];
        let weights = vec![3.0, 1.0];
        let c = kmeans(&points, &weights, 1, 0).unwrap();
        assert!((c.centroids[0][0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn k_clamped_to_n() {
        let points = vec![vec![0.0], vec![1.0]];
        let weights = vec![1.0, 1.0];
        let c = kmeans(&points, &weights, 10, 0).unwrap();
        assert!(c.k() <= 2);
        assert!(c.distortion < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let points = blobs(15, &[(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)], 1.0, 3);
        let weights = vec![1.0; points.len()];
        let a = kmeans(&points, &weights, 3, 11).unwrap();
        let b = kmeans(&points, &weights, 3, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_weight_pulls_centroid() {
        let points = vec![vec![0.0], vec![1.0], vec![100.0]];
        let weights = vec![1.0, 1.0, 1000.0];
        let c = kmeans(&points, &weights, 1, 2).unwrap();
        assert!(c.centroids[0][0] > 90.0, "heavy point dominates the mean");
    }

    #[test]
    fn bic_prefers_true_k() {
        let points = blobs(30, &[(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)], 0.8, 5);
        let weights = vec![1.0; points.len()];
        let scores: Vec<f64> = (1..=6)
            .map(|k| {
                let c = kmeans(&points, &weights, k, 13).unwrap();
                bic(&c, &points, &weights)
            })
            .collect();
        let best_k = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
            + 1;
        assert!(
            (3..=4).contains(&best_k),
            "BIC best k = {best_k}, scores {scores:?}"
        );
        // And k=3 must beat k=1 decisively.
        assert!(scores[2] > scores[0]);
    }

    #[test]
    fn shape_errors_are_typed() {
        assert_eq!(kmeans(&[], &[], 2, 0), Err(KmeansError::NoPoints));
        assert_eq!(
            kmeans(&[vec![0.0]], &[1.0, 2.0], 1, 0),
            Err(KmeansError::WeightCountMismatch {
                points: 1,
                weights: 2
            })
        );
        assert_eq!(kmeans(&[vec![0.0]], &[1.0], 0, 0), Err(KmeansError::ZeroK));
        assert_eq!(
            kmeans(&[vec![0.0, 1.0], vec![0.0]], &[1.0, 1.0], 1, 0),
            Err(KmeansError::DimensionMismatch {
                index: 1,
                expected: 2,
                found: 1
            })
        );
        for e in [
            KmeansError::NoPoints,
            KmeansError::WeightCountMismatch {
                points: 1,
                weights: 2,
            },
            KmeansError::ZeroK,
            KmeansError::DimensionMismatch {
                index: 1,
                expected: 2,
                found: 1,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn nan_dimension_is_ignored_not_fatal() {
        // Dim 1 carries NaN for one point: it must be zeroed for all,
        // and clustering driven by dim 0 alone.
        let points = vec![
            vec![0.0, f64::NAN],
            vec![0.1, 5.0],
            vec![10.0, -3.0],
            vec![10.1, 2.0],
        ];
        let weights = vec![1.0; 4];
        let c = kmeans(&points, &weights, 2, 3).unwrap();
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[2], c.assignments[3]);
        assert_ne!(c.assignments[0], c.assignments[2]);
        assert!(c.centroids.iter().flatten().all(|x| x.is_finite()));
        assert!(c.distortion.is_finite());
    }

    #[test]
    fn non_finite_weights_are_treated_as_zero() {
        let points = vec![vec![0.0], vec![1.0], vec![100.0]];
        let weights = vec![1.0, 1.0, f64::NAN];
        let c = kmeans(&points, &weights, 1, 2).unwrap();
        // The NaN-weighted outlier must not drag the centroid.
        assert!(c.centroids[0][0] < 50.0, "centroid {}", c.centroids[0][0]);
        assert!(c.distortion.is_finite());
    }

    #[test]
    fn cluster_weights_sum_to_total() {
        let points = blobs(10, &[(0.0, 0.0), (9.0, 9.0)], 0.4, 8);
        let weights: Vec<f64> = (0..points.len()).map(|i| 1.0 + i as f64).collect();
        let c = kmeans(&points, &weights, 2, 4).unwrap();
        let cw = c.cluster_weights(&weights);
        let total: f64 = weights.iter().sum();
        assert!((cw.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    /// `kmeans` with the bound-free loop: the same validation-free
    /// clamping and sanitizing, then [`lloyd_reference`].
    fn reference(points: &[Vec<f64>], weights: &[f64], k: usize, seed: u64) -> Clustering {
        let k = k.min(points.len());
        match sanitized(points, weights, points[0].len()) {
            Some((pts, ws)) => lloyd_reference(&pts, &ws, k, seed),
            None => lloyd_reference(points, weights, k, seed),
        }
    }

    /// Every output of a fit, floats as bits.
    fn bits(c: &Clustering) -> (Vec<usize>, Vec<u64>, u64, u64, bool) {
        (
            c.assignments.clone(),
            c.centroids.iter().flatten().map(|x| x.to_bits()).collect(),
            c.distortion.to_bits(),
            c.iterations,
            c.converged,
        )
    }

    /// `n` points drawn with repetition from `distinct` random vectors
    /// of width `d`, at one of four scales: generic, a small integer
    /// grid (exact distance ties), squares that overflow to `inf`, and
    /// squares that underflow. Weights include zeros; with `nan`, one
    /// coordinate is NaN.
    fn case(
        seed: u64,
        n: usize,
        d: usize,
        distinct: usize,
        scale: u8,
        nan: bool,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool: Vec<Vec<f64>> = (0..distinct)
            .map(|_| {
                (0..d)
                    .map(|_| match scale {
                        0 => rng.gen_range(-1.0..1.0),
                        1 => f64::from(rng.gen_range(-2i32..3)),
                        2 => rng.gen_range(-1.0..1.0) * 1e155,
                        _ => rng.gen_range(-1.0..1.0) * 1e-160,
                    })
                    .collect()
            })
            .collect();
        let mut points: Vec<Vec<f64>> = (0..n)
            .map(|_| pool[rng.gen_range(0..distinct)].clone())
            .collect();
        if nan {
            points[rng.gen_range(0..n)][rng.gen_range(0..d)] = f64::NAN;
        }
        let weights = (0..n)
            .map(|_| [0.0, 0.5, 1.0, 3.0][rng.gen_range(0..4usize)])
            .collect();
        (points, weights)
    }

    #[test]
    fn two_cycle_stops_in_the_capped_state() {
        // 3 distinct vectors, 10 copies each, k = 8: every empty
        // cluster is reseeded at the same farthest point, round after
        // round.
        let pool = [[0.1, 0.2], [0.7, 0.3], [0.4, 0.9]];
        let points: Vec<Vec<f64>> = (0..30).map(|i| pool[i % 3].to_vec()).collect();
        let weights = vec![1.0; points.len()];
        let (fast, fit) = kmeans_unchecked(&points, &weights, 8, 5);
        assert!(fit.cycled);
        assert_eq!(fast.iterations, 100);
        assert!(!fast.converged);
        assert_eq!(bits(&fast), bits(&reference(&points, &weights, 8, 5)));
        assert_eq!(fast, kmeans(&points, &weights, 8, 5).unwrap());
    }

    #[test]
    fn bounds_prune_well_separated_blobs() {
        let points = blobs(200, &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 1.0, 9);
        let weights = vec![1.0; points.len()];
        let (fast, fit) = kmeans_unchecked(&points, &weights, 3, 2);
        assert!(!fit.cycled);
        let full_scans = fast.iterations * (points.len() * 3) as u64;
        assert!(fit.dist_evals < full_scans, "{fit:?}");
        assert_eq!(bits(&fast), bits(&reference(&points, &weights, 3, 2)));
    }

    proptest! {
        #[test]
        fn distortion_non_increasing_in_k(
            seed in 0u64..1000,
        ) {
            let points = blobs(12, &[(0.0, 0.0), (6.0, 3.0), (1.0, 8.0)], 1.5, seed);
            let weights = vec![1.0; points.len()];
            // Not strictly guaranteed for single runs of Lloyd, but with
            // k-means++ on these blobs larger k should never be much worse.
            let d2 = kmeans(&points, &weights, 2, seed).unwrap().distortion;
            let d6 = kmeans(&points, &weights, 6, seed).unwrap().distortion;
            prop_assert!(d6 <= d2 * 1.5 + 1e-9, "d2={d2}, d6={d6}");
        }

        #[test]
        fn assignments_pick_nearest_centroid(seed in 0u64..200) {
            let points = blobs(8, &[(0.0, 0.0), (10.0, 10.0)], 1.0, seed);
            let weights = vec![1.0; points.len()];
            let c = kmeans(&points, &weights, 2, seed).unwrap();
            for (i, p) in points.iter().enumerate() {
                let assigned = sq_dist(p, &c.centroids[c.assignments[i]]);
                for centroid in &c.centroids {
                    prop_assert!(assigned <= sq_dist(p, centroid) + 1e-9);
                }
            }
        }

        #[test]
        fn kmeans_matches_plain_lloyd_bit_for_bit(
            seed in 0u64..u64::MAX,
            n in 1usize..80,
            d in 1usize..5,
            distinct in 1usize..12,
            k in 1usize..16,
            scale in 0u8..4,
            nan in 0u8..4,
        ) {
            let (points, weights) = case(seed, n, d, distinct, scale, nan == 0);
            let fast = kmeans(&points, &weights, k, seed).unwrap();
            let slow = reference(&points, &weights, k, seed);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }
}

//! SimPoint selection by basic-block-vector clustering (§4.1).
//!
//! The paper traces "200M-instruction SimPoints" per workload — the
//! SimPoint methodology picks *representative* regions: execution is
//! divided into intervals, each summarized by a basic-block vector (BBV,
//! the histogram of code executed), the BBVs are k-means clustered, and
//! the interval closest to each centroid is simulated in detail with its
//! cluster's population as weight.
//!
//! This module implements that pipeline over synthetic workloads: BBVs
//! are bucketed code-line visit histograms (no simulation needed — only
//! the instruction stream), clustered with `psca-ml`'s k-means.

use psca_ml::kmeans::kmeans;
use psca_ml::Matrix;
use psca_trace::TraceSource;

/// Dimensionality of the bucketed basic-block vectors.
pub const BBV_DIM: usize = 64;

/// One selected SimPoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Interval index (of `interval_insts`-sized intervals) where the
    /// representative region starts.
    pub start_interval: usize,
    /// Fraction of scanned execution the SimPoint represents.
    pub weight: f64,
}

/// Computes the bucketed BBV of one interval of an instruction stream.
/// Returns `None` if the source is exhausted before any instruction.
pub fn interval_bbv<S: TraceSource>(source: &mut S, interval_insts: u64) -> Option<[f64; BBV_DIM]> {
    let mut v = [0.0f64; BBV_DIM];
    let mut n = 0u64;
    for _ in 0..interval_insts {
        let Some(inst) = source.next_instruction() else {
            break;
        };
        let line = inst.pc >> 6;
        // Multiplicative hash into the bucketed BBV.
        let bucket = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        v[bucket] += 1.0;
        n += 1;
    }
    if n == 0 {
        return None;
    }
    for x in v.iter_mut() {
        *x /= n as f64;
    }
    Some(v)
}

/// The SimPoints of one workload scan, with the workload checkpointed at
/// every scanned interval boundary so each point's region can be reached
/// without regenerating the workload from its start.
#[derive(Debug, Clone)]
pub struct Selection<S> {
    /// The selected points, sorted by start interval.
    pub points: Vec<SimPoint>,
    /// `checkpoints[i]`: the source as it stood before scanned interval
    /// `i` (the last one is where the scan stopped).
    checkpoints: Vec<S>,
    interval_insts: u64,
}

impl<S: TraceSource + Clone> Selection<S> {
    /// The workload advanced `insts` instructions past where the scan
    /// started: a clone of the last checkpoint at or before `insts`,
    /// advanced by the rest (less than one interval inside the scan).
    pub fn resume(&self, insts: u64) -> S {
        let at = (insts / self.interval_insts).min(self.checkpoints.len() as u64 - 1);
        let mut src = self.checkpoints[at as usize].clone();
        src.skip(insts - at * self.interval_insts);
        src
    }
}

/// Scans `scan_intervals` intervals of a workload, clusters their BBVs,
/// and returns `k` SimPoints sorted by start interval, with a checkpoint
/// of `source` at every interval boundary of the scan.
///
/// # Panics
/// Panics if `k == 0` or `interval_insts == 0`.
pub fn select_simpoints<S: TraceSource + Clone>(
    mut source: S,
    interval_insts: u64,
    scan_intervals: usize,
    k: usize,
    seed: u64,
) -> Selection<S> {
    assert!(k >= 1, "need at least one SimPoint");
    assert!(interval_insts >= 1, "interval must be positive");
    let mut bbvs: Vec<Vec<f64>> = Vec::with_capacity(scan_intervals);
    let mut checkpoints = Vec::with_capacity(scan_intervals + 1);
    checkpoints.push(source.clone());
    for _ in 0..scan_intervals {
        match interval_bbv(&mut source, interval_insts) {
            Some(v) => bbvs.push(v.to_vec()),
            None => break,
        }
        checkpoints.push(source.clone());
    }
    let points = cluster_points(&bbvs, k, seed);
    Selection {
        points,
        checkpoints,
        interval_insts,
    }
}

/// Clusters the scanned BBVs into `k` SimPoints sorted by start interval.
fn cluster_points(bbvs: &[Vec<f64>], k: usize, seed: u64) -> Vec<SimPoint> {
    if bbvs.is_empty() {
        return Vec::new();
    }
    let refs: Vec<&[f64]> = bbvs.iter().map(|r| r.as_slice()).collect();
    let data = Matrix::from_rows(&refs);
    let km = kmeans(&data, k.min(bbvs.len()), 100, seed);
    let total = bbvs.len() as f64;
    let mut points: Vec<SimPoint> = km
        .representatives(&data)
        .into_iter()
        .map(|r| SimPoint {
            start_interval: r,
            weight: km.sizes[km.assignment[r]] as f64 / total,
        })
        .collect();
    points.sort_by_key(|p| p.start_interval);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_workloads::{ApplicationModel, Archetype, Category, PhaseGenerator};

    #[test]
    fn bbv_is_a_distribution() {
        let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), 1);
        let v = interval_bbv(&mut gen, 5_000).unwrap();
        let total: f64 = v.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn different_archetypes_have_different_bbvs() {
        let mut a = PhaseGenerator::new(Archetype::Balanced.center(), 1);
        let mut b = PhaseGenerator::new(Archetype::IcacheHeavy.center(), 1);
        let va = interval_bbv(&mut a, 5_000).unwrap();
        let vb = interval_bbv(&mut b, 5_000).unwrap();
        let d2: f64 = va.iter().zip(&vb).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!(d2 > 1e-4, "BBVs too similar: {d2}");
    }

    #[test]
    fn simpoints_cover_distinct_phases() {
        // A phase-structured application should yield SimPoints from
        // different regions, with weights summing to 1.
        let app = ApplicationModel::synth("sp", Category::HpcPerf, 5, 20_000);
        let points = select_simpoints(app.trace(1), 2_000, 100, 4, 9).points;
        assert!(!points.is_empty() && points.len() <= 4);
        let weight: f64 = points.iter().map(|p| p.weight).sum();
        assert!((weight - 1.0).abs() < 1e-9);
        // Starts are sorted and within the scan.
        for w in points.windows(2) {
            assert!(w[0].start_interval < w[1].start_interval);
        }
        assert!(points.iter().all(|p| p.start_interval < 100));
    }

    #[test]
    fn exhausted_source_yields_no_points() {
        let empty = psca_trace::VecTrace::default();
        assert!(select_simpoints(empty, 1_000, 10, 3, 1).points.is_empty());
    }

    #[test]
    fn selection_is_deterministic() {
        let app = ApplicationModel::synth("sp", Category::Multimedia, 6, 10_000);
        let a = select_simpoints(app.trace(2), 2_000, 50, 3, 4);
        let b = select_simpoints(app.trace(2), 2_000, 50, 3, 4);
        assert_eq!(a.points, b.points);
    }
}

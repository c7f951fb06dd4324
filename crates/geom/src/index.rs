//! Adaptive spatial index: the static grid with a kd-tree fallback.
//!
//! Every disk query outside the streaming kernel goes through
//! [`SpatialIndex`]. On uniformly dense instances the [`SoaGrid`] wins
//! by a wide constant factor, but degenerate spreads defeat any single
//! cell size: the exponential node chain packs half its points into a
//! sliver 2^-n of the span wide, and one far outlier stretches the
//! bounding box of an otherwise uniform set. The grid's memory budget
//! then inflates the cell until most of the point set lands in one
//! bucket and queries degrade to linear scans. The [`KdTree`] has no
//! cell size to tune and stays logarithmic there.
//!
//! [`SpatialIndex::build`] picks the structure from the data: it measures
//! how badly the grid's budget clamp would distort the requested cell and
//! falls back to the kd-tree past a fixed distortion threshold. Both
//! structures answer disk queries with the identical *closed*
//! distance-level predicate `dist(p, c) <= r` (see the crate-level
//! floating-point policy), so the choice never changes results — only
//! speed.

use crate::grid::{cell_budget, cell_count, usable_cell};
use crate::kdtree::KdTree;
use crate::point::Point;
use crate::soa::SoaPoints;
use crate::soa_grid::SoaGrid;

/// How many times over the grid's cell budget the requested cell may go
/// before the build switches to a kd-tree. At 64x the clamp would enlarge
/// the cell by at least 8x per axis, putting ~64 query radii into every
/// bucket — the point where bucket scans stop being output-sensitive.
const GRID_DISTORTION_LIMIT: f64 = 64.0;

/// Median of `values` by [`f64::total_cmp`] (the upper median for an
/// even count), or `1.0` when `values` is empty — the cell hint every
/// index builder derives from its query radii. Callers filter the values
/// first (positive radii, all edge lengths, ...); an empty set means
/// nothing will be queried, so any grid shape works.
pub fn median_hint(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let mid = values.len() / 2;
    *values.select_nth_unstable_by(mid, f64::total_cmp).1
}

/// The transmitter-disk relation of Definition 3.1: calls `visit(u, v)`
/// for every transmitter `u` (a node with `radius(u) = Some(r_u)`) and
/// every `v != u` with `dist(p_u, p_v) <= r_u`, and returns the number of
/// disk queries issued (one per transmitter).
///
/// Transmitters are walked in ascending `u` over one [`SpatialIndex`]
/// whose cell hint is the [`median_hint`] of the positive radii. The
/// order of the `v` visited inside one query depends on the backend, so
/// callers that keep lists per transmitter sort them; per-receiver
/// accumulations see each `u` once and in ascending order, which keeps
/// floating-point sums bit-identical to an ascending `O(n²)` scan.
pub fn for_each_covered(
    points: &[Point],
    radius: impl Fn(usize) -> Option<f64>,
    mut visit: impl FnMut(usize, usize),
) -> u64 {
    let index = {
        let _span = rim_obs::span("geom/covered_index_build");
        let positive = (0..points.len()).filter_map(&radius).filter(|&r| r > 0.0);
        SpatialIndex::build(points, median_hint(positive.collect()))
    };
    let mut queries = 0u64;
    for (u, &pu) in points.iter().enumerate() {
        let Some(r_u) = radius(u) else { continue };
        queries += 1;
        index.for_each_in_disk(pu, r_u, |v| {
            if v != u {
                visit(u, v);
            }
        });
    }
    queries
}

/// A spatial index over a fixed set of points, backed by either a
/// [`SoaGrid`] or a [`KdTree`] — chosen at build time from the spread
/// of the data. Point indices are preserved, and disk queries use the
/// closed distance-level predicate of both backends.
#[derive(Debug, Clone)]
pub enum SpatialIndex {
    /// Bucket grid (dense, well-conditioned instances).
    Grid(SoaGrid),
    /// Balanced kd-tree (degenerate spreads, e.g. exponential chains).
    Kd(KdTree),
}

impl SpatialIndex {
    /// Builds an index over `points`, using `cell_hint` (typically the
    /// dominant query radius) to size grid buckets. Falls back to a
    /// kd-tree when honouring the hint would blow the grid's linear
    /// memory budget by more than a fixed factor — the signature of a
    /// spread-out instance with tiny typical radii, where a clamped grid
    /// would scan most points per query anyway.
    ///
    /// Degenerate hints (non-positive, non-finite) are fine; the grid
    /// sanitizes them (see [`SoaGrid::build`]).
    pub fn build(points: &[Point], cell_hint: f64) -> Self {
        let soa = SoaPoints::from_points(points);
        let bbox = soa.bbox();
        if !bbox.is_empty()
            && usable_cell(cell_hint)
            && cell_count(&bbox, cell_hint) > cell_budget(points.len()) * GRID_DISTORTION_LIMIT
        {
            rim_obs::counter_add("geom.index.kd_builds", 1);
            return SpatialIndex::Kd(KdTree::build(points));
        }
        rim_obs::counter_add("geom.index.grid_builds", 1);
        let grid = SoaGrid::build(&soa, cell_hint);
        if rim_obs::active() {
            for occ in grid.nonempty_bucket_sizes() {
                rim_obs::record("geom.grid.cell_occupancy", occ as u64);
            }
        }
        SpatialIndex::Grid(grid)
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SpatialIndex::Grid(g) => g.len(),
            SpatialIndex::Kd(t) => t.len(),
        }
    }

    /// Returns `true` if the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f(i)` for every point index `i` with `dist(points[i], c) <= r`
    /// (closed disk, distance-level comparison). Visit order depends on the
    /// backend; callers needing determinism must sort.
    ///
    /// When an observability sink is active, each query records its hit
    /// count (and, on the grid backend, the candidate count — occupants
    /// scanned before the distance predicate) as histograms; the enabled
    /// check is a single atomic load, so the disabled path stays on the
    /// plain dispatch below.
    #[inline]
    pub fn for_each_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) {
        if rim_obs::active() {
            let mut hits = 0u64;
            match self {
                SpatialIndex::Grid(g) => {
                    let candidates = g.for_each_in_disk(c, r, |i| {
                        hits += 1;
                        f(i);
                    });
                    rim_obs::record("geom.index.query_candidates", candidates as u64);
                }
                SpatialIndex::Kd(t) => t.for_each_in_disk(c, r, |i| {
                    hits += 1;
                    f(i);
                }),
            }
            rim_obs::record("geom.index.query_hits", hits);
            return;
        }
        match self {
            SpatialIndex::Grid(g) => {
                g.for_each_in_disk(c, r, f);
            }
            SpatialIndex::Kd(t) => t.for_each_in_disk(c, r, f),
        }
    }

    /// Collects the indices of all points within distance `r` of `c`,
    /// sorted ascending.
    pub fn query_disk(&self, c: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_disk(c, r, |i| out.push(i));
        out.sort_unstable();
        out
    }

    /// Counts the points within distance `r` of `c`.
    pub fn count_in_disk(&self, c: Point, r: f64) -> usize {
        let mut n = 0;
        self.for_each_in_disk(c, r, |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_disk(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| points[i].dist(&c) <= r)
            .collect()
    }

    #[test]
    fn uniform_instances_pick_the_grid() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let idx = SpatialIndex::build(&pts, 1.0);
        assert!(matches!(idx, SpatialIndex::Grid(_)));
        assert_eq!(
            idx.query_disk(Point::new(5.0, 5.0), 1.5),
            brute_disk(&pts, Point::new(5.0, 5.0), 1.5)
        );
    }

    #[test]
    fn exponential_spreads_pick_the_kdtree() {
        // Exponential chain over a unit span: the natural cell hint is the
        // smallest gap, 2^-47 of the span — hopeless for a grid.
        let pts: Vec<Point> = (0..48)
            .map(|i| Point::on_line((2f64.powi(i) - 1.0) / 2f64.powi(48)))
            .collect();
        let hint = pts[1].x - pts[0].x;
        let idx = SpatialIndex::build(&pts, hint);
        assert!(matches!(idx, SpatialIndex::Kd(_)));
        for q in [0usize, 5, 47] {
            assert_eq!(
                idx.query_disk(pts[q], 0.25),
                brute_disk(&pts, pts[q], 0.25),
                "q={q}"
            );
        }
    }

    #[test]
    fn degenerate_hints_build_a_working_index() {
        let pts = [Point::ORIGIN, Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        for hint in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let idx = SpatialIndex::build(&pts, hint);
            assert_eq!(idx.len(), 3);
            assert_eq!(idx.query_disk(Point::new(1.0, 1.0), 0.0), vec![1, 2]);
            assert_eq!(idx.count_in_disk(Point::ORIGIN, 2.0), 3);
        }
        let empty = SpatialIndex::build(&[], 1.0);
        assert!(empty.is_empty());
        assert!(empty.query_disk(Point::ORIGIN, 10.0).is_empty());
    }

    #[test]
    fn both_backends_share_closed_disk_semantics() {
        let a = Point::new(0.3, 0.4);
        let b = Point::new(1.1, 2.2);
        let r = a.dist(&b);
        let pts = [a, b];
        let grid = SpatialIndex::Grid(SoaGrid::build(&SoaPoints::from_points(&pts), r));
        let kd = SpatialIndex::Kd(KdTree::build(&pts));
        for idx in [&grid, &kd] {
            assert_eq!(idx.query_disk(a, r), vec![0, 1]);
            let below = f64::from_bits(r.to_bits() - 1);
            assert_eq!(idx.query_disk(a, below), vec![0]);
        }
    }

    #[test]
    fn uniform_plus_outlier_picks_the_kdtree() {
        // A uniform set at unit density plus one node at (10⁶, 10⁶): the
        // outlier stretches the bounding box so far that a grid at the
        // query radius would need ~10¹² cells, and the budget-clamped
        // grid would put the whole uniform set into a few buckets. The
        // kd-tree answers the same closed-disk queries.
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let side = 40.0;
        let mut pts: Vec<Point> = (0..1600)
            .map(|_| Point::new(next() * side, next() * side))
            .collect();
        pts.push(Point::new(1.0e6, 1.0e6));
        let idx = SpatialIndex::build(&pts, 1.0);
        assert!(matches!(idx, SpatialIndex::Kd(_)));
        assert_eq!(idx.len(), pts.len());
        for q in [0usize, 7, 800, 1599, 1600] {
            for r in [0.0, 0.5, 1.0, 3.0, 100.0, 2.0e6] {
                assert_eq!(
                    idx.query_disk(pts[q], r),
                    brute_disk(&pts, pts[q], r),
                    "q={q} r={r}"
                );
            }
        }
    }

    #[test]
    fn covered_scatter_matches_brute_force() {
        // Coincident points, a zero radius, a silent node (`None`) and a
        // radius that is exactly a pairwise distance (closed boundary).
        let pts = [
            Point::ORIGIN,
            Point::ORIGIN,
            Point::new(3.0, 4.0),
            Point::new(1.0, 0.0),
            Point::new(9.0, 9.0),
        ];
        let radius = |u: usize| [Some(5.0), Some(0.0), None, Some(1.0), Some(0.5)][u];
        let mut got = Vec::new();
        let queries = for_each_covered(&pts, radius, |u, v| got.push((u, v)));
        assert_eq!(queries, 4);
        let mut want = Vec::new();
        for u in 0..pts.len() {
            if let Some(r) = radius(u) {
                let hits = brute_disk(&pts, pts[u], r);
                want.extend(hits.into_iter().filter(|&v| v != u).map(|v| (u, v)));
            }
        }
        // Transmitters come in ascending order; within one, order is free.
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "{got:?}");
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn median_hint_is_the_total_order_median() {
        assert_eq!(median_hint(Vec::new()), 1.0);
        assert_eq!(median_hint(vec![3.0]), 3.0);
        assert_eq!(median_hint(vec![5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        // Even counts take the upper median, as `sorted[len / 2]` does.
        assert_eq!(median_hint(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        // Agrees with the full sort on an unsorted set with duplicates.
        let values = vec![0.7, 0.1, 0.7, 2.5, 0.3, 0.3, 1.9, 0.0];
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(median_hint(values), sorted[sorted.len() / 2]);
    }
}

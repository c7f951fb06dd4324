//! Structure-of-arrays bucket grid — the workspace's static spatial grid.
//!
//! Every closed-disk query of the model — interference coverage, UDG
//! construction, Gabriel/RNG witnesses, the sender measure, the dynamic
//! engine's patches and the million-node streaming kernel — runs on
//! [`SoaGrid`], directly or through [`crate::SpatialIndex`]. At build
//! time the coordinate columns of a [`SoaPoints`] are permuted into
//! bucket-major order, so a bucket scan reads `sxs[lo..hi]` /
//! `sys[lo..hi]` sequentially and only touches the id column for actual
//! hits: no per-candidate indirection into a point array. The cell size
//! policy and the cache-blocked bucket fill live in [`crate::grid`].
//!
//! Queries use the *closed* distance-level predicate `dist(p, c) <= r`
//! (see the crate-level floating-point policy), so results are
//! bit-compatible with the kd-tree and the naive scans.

use crate::grid::{bucket_scatter, fits_u32_index, layout, GridCapacityError, Layout};
use crate::point::Point;
use crate::soa::SoaPoints;

/// A uniform bucket grid over a [`SoaPoints`] store, with bucket-major
/// coordinate columns for sequential scans.
///
/// Indices reported by queries refer to the original point order of the
/// store the grid was built from.
///
/// ```
/// use rim_geom::{Point, SoaGrid, SoaPoints};
///
/// let pts = SoaPoints::from_points(&[
///     Point::new(0.0, 0.0),
///     Point::new(0.5, 0.0),
///     Point::new(2.0, 2.0),
/// ]);
/// let grid = SoaGrid::build(&pts, 0.5);
/// assert_eq!(grid.query_disk(Point::new(0.1, 0.0), 0.5), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct SoaGrid {
    origin: Point,
    cell: f64,
    nx: usize,
    ny: usize,
    starts: Vec<u32>,
    /// Original point ids, bucket-major, insertion-stable per bucket.
    items: Vec<u32>,
    /// X-coordinates permuted into the `items` order.
    sxs: Vec<f64>,
    /// Y-coordinates permuted into the `items` order.
    sys: Vec<f64>,
}

impl SoaGrid {
    /// Builds a grid over `points` with the given `cell` size hint.
    ///
    /// A good choice for `cell` is the dominant query radius; queries with
    /// radius `r` touch `O((r/cell + 2)^2)` buckets. The hint is
    /// sanitized and budget-clamped by the grid layout policy:
    /// degenerate hints fall back to the bounding-box diagonal, and cell
    /// counts stay `O(n)`.
    ///
    /// Panics if the store exceeds the `u32` item capacity; use
    /// [`SoaGrid::try_build`] to handle that case as an error.
    // rim-lint: allow(panic-freedom) — the capacity assert replaces silent `as u32` id truncation
    pub fn build(points: &SoaPoints, cell: f64) -> Self {
        match Self::try_build(points, cell) {
            Ok(grid) => grid,
            // rim-lint: allow(no-unwrap-in-lib) — intentional capacity assert, fallible twin is try_build
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`SoaGrid::build`]: errors when `points` has
    /// more entries than `u32` bucket item ids can address.
    pub fn try_build(points: &SoaPoints, cell: f64) -> Result<Self, GridCapacityError> {
        let n = points.len();
        if !fits_u32_index(n) {
            return Err(GridCapacityError { points: n });
        }
        rim_obs::counter_add("geom.index.soa_builds", 1);
        let Layout {
            origin,
            cell,
            nx,
            ny,
        } = layout(&points.bbox(), n, cell);

        let ncells = nx * ny;
        let xs = points.xs();
        let ys = points.ys();
        // rim-lint: allow(panic-freedom) — cell coordinates are clamped into the grid
        let cells: Vec<u32> = (0..n)
            .map(|i| {
                let cx = cell_coord(xs[i], origin.x, cell, nx);
                let cy = cell_coord(ys[i], origin.y, cell, ny);
                (cy * nx + cx) as u32
            })
            .collect();
        let (starts, items) = bucket_scatter(&cells, ncells);
        // Gather the coordinate columns into bucket order: after this,
        // every bucket scan is a sequential read of both columns.
        let sxs: Vec<f64> = items.iter().map(|&i| xs[i as usize]).collect();
        let sys: Vec<f64> = items.iter().map(|&i| ys[i as usize]).collect();

        Ok(SoaGrid {
            origin,
            cell,
            nx,
            ny,
            starts,
            items,
            sxs,
            sys,
        })
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the grid indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Original point id stored at bucket-order position `k`.
    #[inline]
    // rim-lint: allow(panic-freedom) — positions are caller-validated against len()
    pub fn item(&self, k: usize) -> usize {
        self.items[k] as usize
    }

    /// Coordinates stored at bucket-order position `k` (exact copy of
    /// the original point `self.item(k)`).
    #[inline]
    // rim-lint: allow(panic-freedom) — positions are caller-validated against len()
    pub fn point_at(&self, k: usize) -> Point {
        Point::new(self.sxs[k], self.sys[k])
    }

    /// Calls `f(k)` with the *bucket-order position* of every point with
    /// `dist(points[k], c) <= r`, and returns the number of candidates
    /// scanned (bucket occupants tested against the distance predicate,
    /// whether or not they passed) — the output-sensitivity signal the
    /// observability layer reports per query. Positions index
    /// [`SoaGrid::item`] / [`SoaGrid::point_at`]; kernels that iterate
    /// the whole store in bucket order use this variant so neighbor
    /// coordinates never go through the id indirection.
    // Inlined so that callers ignoring the candidate count (the streaming
    // kernel) compile the counter away.
    #[inline]
    // rim-lint: allow(panic-freedom) — cell coordinates are clamped to the grid; `starts` has `ncells + 1` entries and bounds the column slices
    pub fn for_each_pos_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) -> usize {
        debug_assert!(r >= 0.0);
        // One extra cell of margin on every side: `c.x + r` rounds to
        // nearest and can land *below* the coordinate of a point at
        // distance exactly `r` (e.g. 0.2 + 0.7 rounds down), which would
        // silently drop a closed-disk boundary point from the scan. The
        // rounding error is a few ulps — far below one cell — so a
        // single-cell margin restores the superset guarantee; the exact
        // distance predicate below still decides membership.
        let x0 = ((c.x - r - self.origin.x) / self.cell).floor() - 1.0;
        let x1 = ((c.x + r - self.origin.x) / self.cell).floor() + 1.0;
        let y0 = ((c.y - r - self.origin.y) / self.cell).floor() - 1.0;
        let y1 = ((c.y + r - self.origin.y) / self.cell).floor() + 1.0;
        let cx0 = x0.max(0.0) as usize;
        let cx1 = (x1.max(-1.0) as isize).min(self.nx as isize - 1);
        let cy0 = y0.max(0.0) as usize;
        let cy1 = (y1.max(-1.0) as isize).min(self.ny as isize - 1);
        if cx1 < cx0 as isize || cy1 < cy0 as isize {
            return 0;
        }
        let mut candidates = 0;
        for cy in cy0..=(cy1 as usize) {
            // Contiguous run of cells within the row: one slice scan per
            // row instead of one per cell keeps the loop tight.
            let row = cy * self.nx;
            let lo = self.starts[row + cx0] as usize;
            let hi = self.starts[row + cx1 as usize + 1] as usize;
            candidates += hi - lo;
            for k in lo..hi {
                // Same formula as Point::dist — sqrt of dx² + dy², then a
                // distance-level closed comparison — so hits agree with
                // the naive scan bit for bit.
                let p = Point::new(self.sxs[k], self.sys[k]);
                if p.dist(&c) <= r {
                    f(k);
                }
            }
        }
        candidates
    }

    /// Calls `f(i)` for every *original point index* `i` with
    /// `dist(points[i], c) <= r` (closed disk, distance level — the
    /// workspace's exactness policy), and returns the number of
    /// candidates scanned, as [`SoaGrid::for_each_pos_in_disk`]. Visit
    /// order is deterministic: bucket-major, insertion order within
    /// buckets.
    #[inline]
    pub fn for_each_in_disk<F: FnMut(usize)>(&self, c: Point, r: f64, mut f: F) -> usize {
        self.for_each_pos_in_disk(c, r, |k| f(self.items[k] as usize))
    }

    /// Occupancy of every non-empty bucket, in cell order — the cell
    /// occupancy distribution the observability layer histograms at build
    /// time.
    pub fn nonempty_bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .filter(|&occ| occ > 0)
    }

    /// Collects the indices of all points within distance `r` of `c`, in
    /// deterministic bucket-major order.
    pub fn query_disk(&self, c: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_disk(c, r, |i| out.push(i));
        out
    }

    /// Counts the points within distance `r` of `c`.
    pub fn count_in_disk(&self, c: Point, r: f64) -> usize {
        let mut count = 0;
        self.for_each_in_disk(c, r, |_| count += 1);
        count
    }

    /// Distance from the point at *bucket-order position* `k` to its
    /// nearest other indexed point — the streaming nearest-neighbor
    /// radius assignment. Returns `None` for a store with fewer than two
    /// points or an out-of-range position.
    ///
    /// The search walks Chebyshev rings of cells around the query's own
    /// cell `(qx, qy)`: first the 3×3 block (rings 0 and 1, one
    /// contiguous slice per row), then ring 2, 3, …, keeping the minimum
    /// `dist_sq` of every candidate other than `k`. After ring `j` it
    /// stops as soon as `best_sq <= fl(g·g)` with
    /// `g = fl((j − 1/32)·cell)`, or once the rings cover the grid. The
    /// value is `min dist_sq` followed by one `sqrt`, bit-equal to
    /// [`Point::dist`] of the closest pair; `dist_sq` values that are
    /// NaN (a non-finite coordinate) never win. A non-finite query is at
    /// distance `+∞` or NaN from every point and gets `+∞`.
    ///
    /// # Exactness of the stop rule
    ///
    /// Write `s` for the cell size, `o` for the grid origin, `u = 2⁻⁵³`
    /// and `t(x) = fl(fl(x − o) / s)`, so a point's column is `⌊t(x)⌋`
    /// clamped to `nx − 1` — the one expression (`cell_coord`) used by
    /// the build for candidates and here for the query. Both roundings
    /// are relative (a subnormal difference is exact, and a quotient
    /// `>= 1` is normal), so `t(x) = (x − o)/s · (1 + θ)` with
    /// `|θ| <= 2u + u²`. For finite coordinates `t(x) <= fl(width / s)`
    /// by monotonicity, so the clamp never binds, and the build's cell
    /// budget keeps `nx` below 2³²; hence `|t(x) − (x − o)/s| < 2⁻¹⁹`.
    /// The same holds per row.
    ///
    /// Let rings `0..=j` be scanned, `j >= 1`, and let `p` be an
    /// unscanned finite point. Its cell is at Chebyshev distance
    /// `>= j + 1`, say `⌊t(p.x)⌋ >= qx + j + 1` (the other three sides
    /// are symmetric). With `t(c.x) < qx + 1`, exact arithmetic gives
    /// `p.x − c.x > s·(j − 2⁻¹⁸) >= s·(j − 1/32)`. Correctly rounded
    /// operations are monotone, overflow included, and `j − 1/32` is
    /// exact, so the computed `|dx| >= g`, `dx·dx >= fl(g·g)`, and
    /// adding `dy·dy >= 0` cannot round below it:
    /// `dist_sq(p, c) >= fl(g·g) >= best_sq`. An unscanned point with a
    /// non-finite coordinate has `dist_sq` of `+∞` or NaN, which cannot
    /// win either. So the scanned superset holds the minimum, and the
    /// answer equals the `O(n²)` scan bit for bit. A `+∞` cell size
    /// arises only from an unbounded bounding box and gives a 1×1 grid,
    /// which the 3×3 block covers.
    // rim-lint: allow(panic-freedom) — `k` is range-checked; cell coordinates are clamped into the grid and every ring bound is clamped to `0..nx` / `0..ny`
    pub fn nearest_dist_at(&self, k: usize) -> Option<f64> {
        if self.len() < 2 || k >= self.len() {
            return None;
        }
        let c = Point::new(self.sxs[k], self.sys[k]);
        if !(c.x.is_finite() && c.y.is_finite()) {
            return Some(f64::INFINITY);
        }
        let (nx, ny) = (self.nx, self.ny);
        let qx = cell_coord(c.x, self.origin.x, self.cell, nx);
        let qy = cell_coord(c.y, self.origin.y, self.cell, ny);
        let mut best_sq = f64::INFINITY;
        let (x0, x1) = (qx.saturating_sub(1), (qx + 1).min(nx - 1));
        for cy in qy.saturating_sub(1)..=(qy + 1).min(ny - 1) {
            best_sq = self.row_min_dist_sq(cy, x0, x1, c, k, best_sq);
        }
        let mut ring = 1;
        while !(qx <= ring && qx + ring >= nx - 1 && qy <= ring && qy + ring >= ny - 1) {
            let gap = (ring as f64 - RING_SLACK) * self.cell;
            if best_sq <= gap * gap {
                break;
            }
            ring += 1;
            let (x0, x1) = (qx.saturating_sub(ring), (qx + ring).min(nx - 1));
            if qy >= ring {
                best_sq = self.row_min_dist_sq(qy - ring, x0, x1, c, k, best_sq);
            }
            if qy + ring < ny {
                best_sq = self.row_min_dist_sq(qy + ring, x0, x1, c, k, best_sq);
            }
            for cy in (qy + 1).saturating_sub(ring)..=(qy + ring - 1).min(ny - 1) {
                if qx >= ring {
                    best_sq = self.row_min_dist_sq(cy, qx - ring, qx - ring, c, k, best_sq);
                }
                if qx + ring < nx {
                    best_sq = self.row_min_dist_sq(cy, qx + ring, qx + ring, c, k, best_sq);
                }
            }
        }
        Some(best_sq.sqrt())
    }

    /// Folds `dist_sq(p, c)` of every point in cells `x0..=x1` of row
    /// `cy` (one contiguous slice of the columns), except position `k`,
    /// into the running minimum `best_sq`. NaN distances never replace it.
    #[inline]
    // rim-lint: allow(panic-freedom) — callers clamp `cy < ny` and `x0 <= x1 < nx`, and `starts` has `nx·ny + 1` entries bounding the column slices
    fn row_min_dist_sq(
        &self,
        cy: usize,
        x0: usize,
        x1: usize,
        c: Point,
        k: usize,
        mut best_sq: f64,
    ) -> f64 {
        let row = cy * self.nx;
        let lo = self.starts[row + x0] as usize;
        let hi = self.starts[row + x1 + 1] as usize;
        for (j, (&x, &y)) in (lo..).zip(self.sxs[lo..hi].iter().zip(&self.sys[lo..hi])) {
            let d_sq = Point::new(x, y).dist_sq(&c);
            if d_sq < best_sq && j != k {
                best_sq = d_sq;
            }
        }
        best_sq
    }
}

/// Cells of slack in the ring search's stop rule: far above the `2⁻¹⁸`
/// cells that cell-assignment rounding can cost (see
/// [`SoaGrid::nearest_dist_at`]), and `j − 1/32` is exact in `f64`.
const RING_SLACK: f64 = 1.0 / 32.0;

/// Column (or row) of coordinate `v` in a grid with the given origin,
/// cell size and `n >= 1` columns: `⌊(v − origin)/cell⌋` clamped into
/// `0..n` (NaN lands in 0). The build and the nearest-neighbor search
/// both bucket through this one expression.
#[inline]
fn cell_coord(v: f64, origin: f64, cell: f64, n: usize) -> usize {
    (((v - origin) / cell).floor() as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_INDEXED_POINTS;

    fn lcg_points(n: usize, side: f64) -> Vec<Point> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Point::new(next() * side, next() * side)).collect()
    }

    #[test]
    fn matches_uniform_grid_queries() {
        // Disk queries on a uniform random set equal the brute-force scan,
        // in ascending id order once sorted.
        let pts = lcg_points(600, 10.0);
        let grid = SoaGrid::build(&SoaPoints::from_points(&pts), 0.7);
        for (qi, q) in pts.iter().enumerate().step_by(17) {
            for r in [0.0, 0.35, 0.7, 1.4, 3.0] {
                let mut got = grid.query_disk(*q, r);
                got.sort_unstable();
                let want: Vec<usize> = (0..pts.len()).filter(|&j| pts[j].dist(q) <= r).collect();
                assert_eq!(got, want, "query {qi} r={r}");
            }
        }
        assert_eq!(grid.len(), pts.len());
        assert!(!grid.is_empty());
    }

    #[test]
    fn positions_expose_exact_coordinates() {
        let pts = lcg_points(128, 4.0);
        let soa = SoaPoints::from_points(&pts);
        let grid = SoaGrid::build(&soa, 0.5);
        let mut seen = vec![false; pts.len()];
        for k in 0..grid.len() {
            let i = grid.item(k);
            assert_eq!(grid.point_at(k), pts[i]);
            assert!(!seen[i], "id {i} appears twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Position and id query variants agree.
        let q = pts[3];
        let mut by_pos: Vec<usize> = Vec::new();
        grid.for_each_pos_in_disk(q, 1.0, |k| by_pos.push(grid.item(k)));
        assert_eq!(by_pos, grid.query_disk(q, 1.0));
        assert_eq!(grid.count_in_disk(q, 1.0), by_pos.len());
    }

    #[test]
    fn nearest_dist_matches_naive() {
        let pts = lcg_points(300, 6.0);
        let soa = SoaPoints::from_points(&pts);
        let grid = SoaGrid::build(&soa, 0.4);
        for k in 0..grid.len() {
            let c = grid.point_at(k);
            let want = (0..pts.len())
                .filter(|&j| j != grid.item(k))
                .map(|j| pts[j].dist_sq(&c))
                .fold(f64::INFINITY, f64::min)
                .sqrt();
            let got = grid.nearest_dist_at(k).expect("n >= 2");
            assert_eq!(got.to_bits(), want.to_bits(), "position {k}");
        }
    }

    #[test]
    fn nearest_dist_handles_duplicates_and_small_stores() {
        let empty = SoaGrid::build(&SoaPoints::new(), 1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.nearest_dist_at(0), None);
        let one = SoaGrid::build(&SoaPoints::from_points(&[Point::new(1.0, 1.0)]), 1.0);
        assert_eq!(one.nearest_dist_at(0), None);
        // Coincident points: nearest distance is exactly zero.
        let dup = SoaGrid::build(
            &SoaPoints::from_points(&[Point::new(2.0, 2.0), Point::new(2.0, 2.0)]),
            1.0,
        );
        assert_eq!(dup.nearest_dist_at(0), Some(0.0));
        assert_eq!(dup.nearest_dist_at(1), Some(0.0));
        assert_eq!(dup.nearest_dist_at(2), None);
    }

    #[test]
    fn try_build_reports_capacity() {
        let soa = SoaPoints::from_points(&lcg_points(4, 1.0));
        assert!(SoaGrid::try_build(&soa, 0.5).is_ok());
        assert!(fits_u32_index(MAX_INDEXED_POINTS));
        assert!(!fits_u32_index(MAX_INDEXED_POINTS + 1));
    }

    #[test]
    fn degenerate_hints_fall_back() {
        let pts = lcg_points(50, 3.0);
        let soa = SoaPoints::from_points(&pts);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let grid = SoaGrid::build(&soa, bad);
            assert_eq!(grid.count_in_disk(pts[0], 0.0), 1);
        }
    }
}

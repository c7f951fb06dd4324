//! Differential suite for the ring-bounded nearest-neighbor search:
//! [`SoaGrid::nearest_dist_at`] must equal the `O(n²)` scan — the
//! minimum `dist_sq` over every other point, then one `sqrt` — bit for
//! bit, at every position, on inputs built to stress its stop rule:
//!
//! * lattices whose spacing is the cell size, a third of it, or three
//!   times it, so points sit exactly on cell boundaries;
//! * the same lattices offset by 10⁶, where `(x − origin) / cell`
//!   rounds non-trivially;
//! * duplicate points (nearest distance exactly 0);
//! * collinear input (a bounding box of width or height 0), with a cell
//!   hint so small that the build's cell budget sets the cell size;
//! * dense clusters far apart plus isolated outliers, so a search has
//!   to walk many empty rings;
//! * stores of 0, 1 and 2 points, and stores with NaN or infinite
//!   coordinates.

use rim_geom::{Point, SoaGrid, SoaPoints};
use rim_rng::prop::check;
use rim_rng::{prop_ensure, SmallRng};

/// The `O(n²)` oracle: `None` below two points or out of range, else the
/// `sqrt` of the minimum `dist_sq` to every other position (NaN values
/// never win, as in `f64::min`).
fn naive_nearest(grid: &SoaGrid, k: usize) -> Option<f64> {
    if grid.len() < 2 || k >= grid.len() {
        return None;
    }
    let c = grid.point_at(k);
    let best_sq = (0..grid.len())
        .filter(|&j| j != k)
        .map(|j| grid.point_at(j).dist_sq(&c))
        .fold(f64::INFINITY, f64::min);
    Some(best_sq.sqrt())
}

/// Checks every position (and one past the end) against the oracle.
fn agrees_with_naive(points: &[Point], cell: f64) -> Result<(), String> {
    let grid = SoaGrid::build(&SoaPoints::from_points(points), cell);
    for k in 0..=grid.len() {
        let got = grid.nearest_dist_at(k).map(f64::to_bits);
        let want = naive_nearest(&grid, k).map(f64::to_bits);
        prop_ensure!(
            got == want,
            "position {k} of {} (cell hint {cell}): got {got:?}, want {want:?}",
            grid.len()
        );
    }
    Ok(())
}

/// A lattice of up to 20×20 points with the given spacing and origin,
/// with about a quarter of the sites dropped so nearest distances vary.
fn lattice(rng: &mut SmallRng, spacing: f64, origin: Point) -> Vec<Point> {
    let (w, h) = (rng.gen_range(1usize..20), rng.gen_range(1usize..20));
    let mut pts = Vec::new();
    for j in 0..h {
        for i in 0..w {
            if rng.gen_range(0u32..4) != 0 {
                pts.push(Point::new(
                    origin.x + i as f64 * spacing,
                    origin.y + j as f64 * spacing,
                ));
            }
        }
    }
    pts
}

/// `(points, cell hint)` for a boundary lattice: spacing = cell, cell/3
/// or 3·cell.
fn boundary_lattice(rng: &mut SmallRng, origin: Point) -> (Vec<Point>, f64) {
    let cell = [0.1, 0.25, 1.0, 3.0][rng.gen_range(0usize..4)];
    let spacing = [cell, cell / 3.0, 3.0 * cell][rng.gen_range(0usize..3)];
    (lattice(rng, spacing, origin), cell)
}

#[test]
fn lattices_on_cell_boundaries() {
    check(
        "lattices_on_cell_boundaries",
        96,
        |rng| boundary_lattice(rng, Point::ORIGIN),
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn lattices_offset_by_a_million() {
    check(
        "lattices_offset_by_a_million",
        96,
        |rng| {
            let origin = Point::new(1.0e6 + rng.gen_range(0.0f64..1.0), -1.0e6);
            boundary_lattice(rng, origin)
        },
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn duplicate_points() {
    check(
        "duplicate_points",
        96,
        |rng| {
            let n = rng.gen_range(1usize..60);
            let mut pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0f64..5.0), rng.gen_range(0.0f64..5.0)))
                .collect();
            for _ in 0..rng.gen_range(1usize..n + 2) {
                let p = pts[rng.gen_range(0..pts.len())];
                pts.push(p);
            }
            (pts, rng.gen_range(0.05f64..2.0))
        },
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn collinear_points_with_budget_clamped_cells() {
    check(
        "collinear_points_with_budget_clamped_cells",
        96,
        |rng| {
            let n = rng.gen_range(2usize..80);
            let at = rng.gen_range(-3.0f64..3.0);
            let vertical = rng.gen_bool(0.5);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    let t = rng.gen_range(-100.0f64..100.0);
                    if vertical {
                        Point::new(at, t)
                    } else {
                        Point::new(t, at)
                    }
                })
                .collect();
            // Far below the spacing: the build's cell budget decides.
            (pts, 1.0e-9)
        },
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn dense_clusters_and_outliers() {
    check(
        "dense_clusters_and_outliers",
        96,
        |rng| {
            let mut pts = Vec::new();
            for _ in 0..rng.gen_range(1usize..5) {
                let c = Point::new(
                    rng.gen_range(-500.0f64..500.0),
                    rng.gen_range(-500.0f64..500.0),
                );
                let spread = [1.0e-6, 1.0e-3, 0.5][rng.gen_range(0usize..3)];
                for _ in 0..rng.gen_range(1usize..50) {
                    pts.push(Point::new(
                        c.x + rng.gen_range(-spread..spread),
                        c.y + rng.gen_range(-spread..spread),
                    ));
                }
            }
            for _ in 0..rng.gen_range(0usize..4) {
                pts.push(Point::new(
                    rng.gen_range(-900.0f64..900.0),
                    rng.gen_range(-900.0f64..900.0),
                ));
            }
            // The streaming kernel's hint: about one point per cell.
            let cell = (1000.0 * 1000.0 / pts.len() as f64).sqrt();
            (pts, [cell, 1.0, 1.0e-3][rng.gen_range(0usize..3)])
        },
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn tiny_stores() {
    check(
        "tiny_stores",
        64,
        |rng| {
            let n = rng.gen_range(0usize..3);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(-2.0f64..2.0), rng.gen_range(-2.0f64..2.0)))
                .collect();
            (pts, [0.0, f64::NAN, 0.5, 1.0e9][rng.gen_range(0usize..4)])
        },
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn non_finite_coordinates() {
    check(
        "non_finite_coordinates",
        64,
        |rng| {
            let mut pts: Vec<Point> = (0..rng.gen_range(0usize..30))
                .map(|_| Point::new(rng.gen_range(0.0f64..4.0), rng.gen_range(0.0f64..4.0)))
                .collect();
            let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for _ in 0..rng.gen_range(1usize..4) {
                let v = odd[rng.gen_range(0usize..3)];
                let w = rng.gen_range(0.0f64..4.0);
                pts.push(if rng.gen_bool(0.5) {
                    Point::new(v, w)
                } else {
                    Point::new(w, v)
                });
            }
            (pts, 0.5)
        },
        |(pts, cell)| agrees_with_naive(pts, *cell),
    );
}

#[test]
fn extreme_magnitudes_overflow_to_infinity() {
    // |dx| overflows: the only other point is at distance +∞.
    let pts = [Point::new(-1.0e308, 0.0), Point::new(1.0e308, 0.0)];
    agrees_with_naive(&pts, 1.0).unwrap();
    let grid = SoaGrid::build(&SoaPoints::from_points(&pts), 1.0);
    assert_eq!(grid.nearest_dist_at(0), Some(f64::INFINITY));
    let three = [
        Point::new(-1.0e308, 0.0),
        Point::new(1.0e308, 0.0),
        Point::new(9.0e307, 1.0),
    ];
    agrees_with_naive(&three, 1.0).unwrap();
}

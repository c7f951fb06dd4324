//! Property-based tests: the fast geometric structures must agree with
//! their brute-force counterparts on arbitrary inputs (seeded in-repo
//! harness, `rim_rng::prop`).

use rim_geom::{
    closest_pair, closest_pair_brute_force, convex_hull, KdTree, Point, SoaGrid, SoaPoints,
};
use rim_rng::prop::check_default;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};

fn arb_point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_range(-10.0f64..10.0), rng.gen_range(-10.0f64..10.0))
}

fn arb_points(rng: &mut SmallRng, max: usize) -> Vec<Point> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| arb_point(rng)).collect()
}

fn brute_disk(points: &[Point], c: Point, r: f64) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| points[i].dist(&c) <= r)
        .collect()
}

#[test]
fn grid_disk_query_matches_brute_force() {
    check_default(
        "grid_disk_query_matches_brute_force",
        |rng| {
            (
                arb_points(rng, 60),
                arb_point(rng),
                rng.gen_range(0.0f64..5.0),
                rng.gen_range(0.05f64..3.0),
            )
        },
        |(pts, q, r, cell)| {
            let grid = SoaGrid::build(&SoaPoints::from_points(pts), *cell);
            let mut got = grid.query_disk(*q, *r);
            got.sort_unstable();
            prop_ensure_eq!(got, brute_disk(pts, *q, *r));
            Ok(())
        },
    );
}

#[test]
fn kdtree_disk_query_matches_brute_force() {
    check_default(
        "kdtree_disk_query_matches_brute_force",
        |rng| (arb_points(rng, 60), arb_point(rng), rng.gen_range(0.0f64..5.0)),
        |(pts, q, r)| {
            let tree = KdTree::build(pts);
            prop_ensure_eq!(tree.query_disk(*q, *r), brute_disk(pts, *q, *r));
            Ok(())
        },
    );
}

#[test]
fn closest_pair_matches_brute_force() {
    check_default(
        "closest_pair_matches_brute_force",
        |rng| arb_points(rng, 80),
        |pts| {
            let fast = closest_pair(pts);
            let brute = closest_pair_brute_force(pts);
            match (fast, brute) {
                (None, None) => Ok(()),
                (Some((_, _, df)), Some((_, _, db))) => {
                    prop_ensure!(
                        df.total_cmp(&db).is_eq(),
                        "closest-pair distance {} != brute {}",
                        df,
                        db
                    );
                    Ok(())
                }
                _ => Err("existence mismatch".into()),
            }
        },
    );
}

#[test]
fn hull_contains_all_points() {
    check_default(
        "hull_contains_all_points",
        |rng| arb_points(rng, 50),
        |pts| {
            let hull = convex_hull(pts);
            if hull.len() >= 3 {
                // Every input point must lie inside or on the hull polygon:
                // cross products with every CCW edge must be >= -eps (exactly
                // zero up to f64 rounding of the cross product itself).
                for p in pts {
                    for k in 0..hull.len() {
                        let a = pts[hull[k]];
                        let b = pts[hull[(k + 1) % hull.len()]];
                        prop_ensure!(
                            Point::cross(&a, &b, p) >= -1e-9,
                            "point {:?} outside hull edge {:?}->{:?}",
                            p,
                            a,
                            b
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

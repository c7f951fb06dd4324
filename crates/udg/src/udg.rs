//! Unit Disk Graph construction.

use crate::node_set::NodeSet;
use rim_graph::AdjacencyList;
use rim_geom::SpatialIndex;

/// Builds the Unit Disk Graph of `nodes`: an edge `{u, v}` (weighted by
/// Euclidean distance) for every pair with `|uv| <= max_range`.
///
/// The paper normalizes the maximum transmission range to 1; pass
/// `max_range = 1.0` for the standard UDG. Construction scatters one
/// closed-disk query per node over a [`SpatialIndex`] (the static
/// [`rim_geom::SoaGrid`] with cell `max_range`, or a kd-tree when the
/// spread defeats a uniform cell) and runs in `O(n + m)` expected time
/// for bounded densities.
pub fn unit_disk_graph_with_range(nodes: &NodeSet, max_range: f64) -> AdjacencyList {
    assert!(max_range > 0.0 && max_range.is_finite());
    let mut g = AdjacencyList::new(nodes.len());
    if nodes.len() < 2 {
        return g;
    }
    let index = SpatialIndex::build(nodes.points(), max_range);
    for u in 0..nodes.len() {
        let pu = nodes.pos(u);
        index.for_each_in_disk(pu, max_range, |v| {
            if v > u {
                g.add_edge(u, v, nodes.dist(u, v));
            }
        });
    }
    g
}

/// Builds the standard Unit Disk Graph (`max_range = 1`).
pub fn unit_disk_graph(nodes: &NodeSet) -> AdjacencyList {
    unit_disk_graph_with_range(nodes, 1.0)
}

/// Maximum node degree `Δ` of the UDG — the quantity the paper's bounds
/// are expressed in (`O(√Δ)` interference, `O(Δ^{1/4})` approximation).
pub fn max_degree(udg: &AdjacencyList) -> usize {
    udg.max_degree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_geom::Point;
    use rim_graph::traversal::is_connected;

    #[test]
    fn edges_iff_within_unit_distance() {
        let ns = NodeSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),  // exactly at range: edge
            Point::new(2.01, 0.0), // 1.01 from node 1: no edge
        ]);
        let g = unit_disk_graph(&ns);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut state = 7u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..150).map(|_| Point::new(rnd() * 3.0, rnd() * 3.0)).collect();
        let ns = NodeSet::new(pts);
        let g = unit_disk_graph(&ns);
        for u in 0..ns.len() {
            for v in (u + 1)..ns.len() {
                assert_eq!(
                    g.has_edge(u, v),
                    ns.dist(u, v) <= 1.0,
                    "u={u} v={v} d={}",
                    ns.dist(u, v)
                );
            }
        }
    }

    #[test]
    fn dense_cluster_is_complete() {
        let ns = NodeSet::on_line(&[0.0, 0.1, 0.2, 0.3]);
        let g = unit_disk_graph(&ns);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(max_degree(&g), 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn custom_range_scales_connectivity() {
        let ns = NodeSet::on_line(&[0.0, 2.0, 4.0]);
        assert_eq!(unit_disk_graph(&ns).num_edges(), 0);
        let g = unit_disk_graph_with_range(&ns, 2.0);
        assert_eq!(g.num_edges(), 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(unit_disk_graph(&NodeSet::new(vec![])).num_vertices(), 0);
        let g = unit_disk_graph(&NodeSet::on_line(&[0.5]));
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}

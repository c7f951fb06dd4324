//! Kernel microbench: the SINR physical-model engines of `rim-phys` —
//! naive `O(n²)` oracle vs spatial-index kernels — for both the
//! θ-coverage count and the cutoff-truncated interference sum, on MST
//! instances under a *local* link budget (noise floor one decade below
//! the coverage threshold, so `cutoff ≈ √10·ρ` and the grid can prune).
//!
//! The disk-equivalent parameterisation is deliberately *not* used
//! here: its `10⁻¹²` mW noise floor puts every node inside every
//! cutoff disk, which is the regime the differential tests pin but the
//! worst case for the index. Claims the JSONL should witness: the
//! indexed SINR kernels beat the naive scans from a few thousand nodes
//! up, and the attached `phys.coverage_queries` / `phys.cutoff_queries`
//! counter deltas show the index pruning candidate pairs relative to
//! the `n²` scan.

use rim_bench::timing::Harness;
use rim_core::physical::{
    coverage_vector_naive, physical_interference_vector, sinr_interference,
    sinr_interference_naive, PhysModel, PhysParams,
};
use rim_topology_control::emst::euclidean_mst;
use rim_udg::udg::unit_disk_graph;
use rim_udg::Topology;

fn mst_instance(n: usize) -> Topology {
    let nodes = rim_workloads::uniform_square(n, (n as f64).sqrt() / 10.0, 3);
    let udg = unit_disk_graph(&nodes);
    euclidean_mst(&nodes, &udg)
}

/// Path-loss model over the MST disks with a noise floor 10 dB below
/// the coverage threshold: `ρ_u = r_u` exactly (as in the disk limit)
/// but `cutoff_u = √10·r_u`, so interference stays a local sum.
fn local_model(t: &Topology) -> PhysModel {
    let params = PhysParams {
        alpha: 2.0,
        near_field: 1e-6,
        theta_mw: 1.0,
        noise_mw: 0.1,
        beta: 1.0,
        sigma_db: 0.0,
        shadow_seed: 0,
    };
    let power_mw: Vec<f64> = t.radii().iter().map(|&r| r * r).collect();
    PhysModel::with_params(t, params, &power_mw)
}

fn main() {
    let mut h = Harness::new("physical_kernel");
    for n in [512usize, 2_048, 4_096, 8_192] {
        let t = mst_instance(n);
        let m = local_model(&t);
        if n <= 4_096 {
            h.bench(&format!("coverage/naive/{n}"), || coverage_vector_naive(&m));
            h.bench(&format!("sinr/naive/{n}"), || sinr_interference_naive(&m));
        }
        // Both index-backed kernels include their index build, as
        // `rim analyze --phy` runs them.
        h.bench(&format!("coverage/indexed/{n}"), || {
            physical_interference_vector(&m)
        });
        h.bench(&format!("sinr/indexed/{n}"), || sinr_interference(&m));
        // The model-level entry point `rim analyze --phy` calls first. It
        // is the same function as `coverage/indexed`; the case stays so
        // committed records keep their names.
        h.bench(&format!("engine/physical-indexed/{n}"), || {
            physical_interference_vector(&m)
        });
    }
    h.finish();
}

//! Construction bench: the topology-control pipeline across engines —
//! brute-force witness scans (`naive`) vs index-backed local queries,
//! threaded from 2048 nodes (`auto`) — for every engine-sensitive
//! baseline at 512–8192 uniform nodes.
//!
//! Claims the JSONL should witness: index-backed Gabriel and RNG beat
//! the naive `O(n·m)` witness scans by ≥ 5× at 4096 nodes. Instances
//! keep constant density (side = √n / 2, about 4 nodes per unit
//! disk-area ⇒ mean degree ≈ 12.5), so per-node neighborhoods — and
//! thus the indexed per-edge work — stay flat while `n` grows.

use rim_bench::timing::Harness;
use rim_core::receiver::Engine;
use rim_topology_control::Baseline;
use rim_udg::udg::unit_disk_graph;

/// The baselines with an engine-sensitive construction stage.
const ALGOS: [Baseline; 5] = [
    Baseline::Gabriel,
    Baseline::Rng,
    Baseline::Lmst,
    Baseline::Xtc,
    Baseline::Yao6,
];

fn main() {
    let mut h = Harness::new("topology_pipeline");
    for n in [512usize, 2_048, 4_096, 8_192] {
        let nodes = rim_workloads::uniform_square(n, (n as f64).sqrt() / 2.0, 3);
        let udg = unit_disk_graph(&nodes);
        for algo in ALGOS {
            for engine in Engine::ALL {
                h.bench(&format!("{}/{}/{n}", algo.name(), engine.name()), || {
                    algo.build_with(&nodes, &udg, engine)
                });
            }
        }
    }
    h.finish();
}

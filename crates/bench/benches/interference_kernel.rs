//! Kernel microbench: the receiver-centric interference engines —
//! naive `O(n²)` oracle vs `auto` (the sharded streaming SoA kernel) —
//! plus the incremental structure on single-edge updates and the
//! batched sender-centric measure.
//!
//! Claims the JSONL should witness: the auto engine beats the naive
//! scan from a few hundred nodes up, a single-edge update through
//! [`DynamicInterference`] beats recomputing from scratch, and the
//! streaming UDG-free path takes a uniform instance from raw
//! coordinates to the full interference vector at 10⁵–10⁷ nodes with a
//! peak-RSS footprint linear in `n` (the `peak_rss_delta_kb` field is
//! the witness that no edge list is ever materialized).
//!
//! The large tiers double as the statistical correctness gate: on
//! unit-density uniform instances the maximum receiver-centric
//! interference under nearest-neighbor radii is Θ(√(log n)) w.h.p.
//! (Devroye–Morin, arXiv:1202.5945), so each tier asserts
//! `max I ∈ [c₁·√(ln n), c₂·√(ln n)]` across three seeds — the regime
//! where the `O(n²)` differential oracle can no longer run.

use rim_bench::timing::{CaseMeta, Harness};
use rim_core::receiver::{interference_vector_naive, interference_vector_with, Engine};
use rim_core::sender::sender_graph_interference;
use rim_core::{sqrt_log_envelope, DynamicInterference, StreamInstance};
use rim_topology_control::emst::euclidean_mst;
use rim_udg::udg::unit_disk_graph;
use rim_udg::Topology;

fn mst_instance(n: usize) -> Topology {
    let nodes = rim_workloads::uniform_square(n, (n as f64).sqrt() / 10.0, 3);
    let udg = unit_disk_graph(&nodes);
    euclidean_mst(&nodes, &udg)
}

/// The large streaming tiers: `(n, warmup, timed iters)`. Iteration
/// counts shrink with `n` so the 10⁷ tier runs each phase exactly once.
const STREAM_TIERS: &[(usize, u32, u32)] = &[(100_000, 1, 3), (1_000_000, 1, 2), (10_000_000, 0, 1)];

/// Seeds the Θ(√(log n)) gate must pass at every tier.
const GATE_SEEDS: &[u64] = &[1, 2, 3];

fn main() {
    let mut h = Harness::new("interference_kernel");
    for n in [512usize, 2_048, 4_096, 8_192] {
        let t = mst_instance(n);
        if n <= 4_096 {
            h.bench_with(
                &format!("naive/{n}"),
                CaseMeta::engine_sized("naive", n as u64),
                || interference_vector_naive(&t),
            );
        }
        h.bench_with(
            &format!("auto/{n}"),
            CaseMeta::engine_sized("auto", n as u64),
            || interference_vector_with(&t, Engine::Auto),
        );
        if n == 512 {
            h.bench_with(&format!("sender/{n}"), CaseMeta::sized(n as u64), || {
                sender_graph_interference(&t)
            });
        }
    }

    // Single-edge update at n = 4096: toggling one MST edge through the
    // incremental structure vs recomputing I(G') with the default batch
    // kernel. Both closures answer the same question ("what is I(G')
    // after this update?"); the batch path pays the full scatter.
    let n = 4_096usize;
    let t = mst_instance(n);
    let (eu, ev) = t.edges()[t.num_edges() / 2].pair();
    let mut d = DynamicInterference::from_topology(&t);
    h.bench_with(
        &format!("incremental/edge-update/{n}"),
        CaseMeta::sized(n as u64),
        || {
            d.remove_edge(eu, ev);
            d.insert_edge(eu, ev);
            d.graph_interference()
        },
    );
    h.bench_with(
        &format!("recompute/edge-update/{n}"),
        CaseMeta::engine_sized("auto", n as u64),
        || rim_core::receiver::graph_interference_with(&t, Engine::Auto),
    );

    // Million-node tiers: the UDG-free streaming path from raw
    // coordinates (nearest-neighbor radii — pointwise ≤ the MST radii,
    // so the Θ(√(log n)) envelope applies) to the interference vector.
    // `build_nn` times grid construction + NN radius assignment;
    // `count` times the sharded counting kernel alone.
    for &(n, warmup, iters) in STREAM_TIERS {
        let side = (n as f64).sqrt(); // unit density
        let soa = rim_workloads::uniform_soa(n, side, GATE_SEEDS[0]);
        h.bench_scaled(
            &format!("streaming/build_nn/{n}"),
            CaseMeta::engine_sized("streaming", n as u64),
            warmup,
            iters,
            || StreamInstance::with_nn_radii(soa.clone()),
        );
        let inst = StreamInstance::with_nn_radii(soa);
        let threads = rim_core::parallel::num_threads();
        h.bench_scaled(
            &format!("streaming/count/{n}"),
            CaseMeta::engine_sized("streaming", n as u64),
            warmup,
            iters,
            || inst.interference_counts_sharded(threads),
        );

        // Statistical gate: max I must sit inside the √(log n) envelope
        // on every seed. A violation is a correctness bug (or a broken
        // generator), so the bench aborts loudly rather than recording a
        // silently wrong timing.
        let (lo, hi) = sqrt_log_envelope(n);
        for &seed in GATE_SEEDS {
            let max = if seed == GATE_SEEDS[0] {
                f64::from(inst.max_interference())
            } else {
                let soa = rim_workloads::uniform_soa(n, side, seed);
                f64::from(StreamInstance::with_nn_radii(soa).max_interference())
            };
            assert!(
                (lo..=hi).contains(&max),
                "sqrt(log n) gate violated: n={n} seed={seed} max I = {max} outside [{lo:.2}, {hi:.2}]"
            );
            println!("  gate: n={n:>8} seed={seed} max I = {max:>2} in [{lo:.2}, {hi:.2}]");
        }
    }
    h.finish();
}

//! `pipeline-20k`: one op is one user request, `rim control --algo A`
//! followed by `rim analyze --engine auto` on its output, replayed
//! in-process with the library calls of `crates/cli/src/commands.rs` in
//! the same order. Node and topology files round-trip through memory.

use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::{steal_ns, Elapsed, Op, Workload};
use rim_core::analysis::InterferenceSummary;
use rim_core::receiver::Engine;
use rim_core::sender::sender_graph_interference;
use rim_core::StreamInstance;
use rim_topology_control::Baseline;
use rim_udg::io;
use rim_udg::udg::unit_disk_graph;
use std::collections::BTreeMap;

const N: usize = 20_000;
const INSTANCES: usize = 8;

/// The constructions the requests cycle through, with their span names.
const ALGOS: [(Baseline, &str); 5] = [
    (Baseline::Gabriel, "topology_control.build_ms.GG"),
    (Baseline::Rng, "topology_control.build_ms.RNG"),
    (Baseline::Lmst, "topology_control.build_ms.LMST"),
    (Baseline::Xtc, "topology_control.build_ms.XTC"),
    (Baseline::Yao6, "topology_control.build_ms.Yao6"),
];

pub struct Pipeline {
    /// Node-file text of each instance.
    texts: Vec<String>,
    next: usize,
    /// First digest seen for each (instance, algorithm) pair.
    digests: BTreeMap<(usize, usize), u64>,
}

impl Workload for Pipeline {
    const N: usize = N;
    const ROUND: u64 = ALGOS.len() as u64;

    fn workers() -> usize {
        rim_core::parallel::num_threads()
    }

    fn setup(seed: u64) -> Self {
        // Side √n/2: density 4, mean UDG degree 4π ≈ 12.5.
        let side = (N as f64).sqrt() / 2.0;
        let texts = (0..INSTANCES as u64)
            .map(|k| {
                let s = seed.wrapping_mul(INSTANCES as u64).wrapping_add(k);
                io::format_nodes(&rim_workloads::uniform_square(N, side, s))
            })
            .collect();
        Pipeline {
            texts,
            next: 0,
            digests: BTreeMap::new(),
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Op {
        let i = self.next;
        self.next += 1;
        // 8 and 5 are coprime: every 40 requests cover each pair once.
        let (inst, algo) = (i % INSTANCES, i % ALGOS.len());
        let (baseline, build_span) = ALGOS[algo];
        let text = &self.texts[inst];
        let mut resume_ns = 0;

        let steal = steal_ns();
        let (out, ns) = tr.op(|tr| {
            // rim control --algo A --nodes FILE --out TOPO
            let nodes = tr
                .layer("udg.io.parse_nodes_ms", || io::parse_nodes(text))
                .ok()?;
            let udg = tr.layer("udg.unit_disk_graph_ms", || unit_disk_graph(&nodes));
            let topology = tr.layer(build_span, || {
                baseline.build_with(&nodes, &udg, Engine::Auto)
            });
            let mut content = tr.layer("udg.io.format_topology_ms", || {
                io::format_topology(&topology)
            });
            let kept = tr.layer("udg.topology.preserves_connectivity_ms", || {
                topology.preserves_connectivity_of(&udg)
            });
            content.push_str(&format!(
                "# algo = {}, edges = {}, preserves connectivity = {kept}\n",
                baseline.name(),
                topology.num_edges()
            ));
            let edges = udg.num_edges();

            // rim analyze --nodes FILE --topology TOPO --engine auto
            let t_resume = std::time::Instant::now();
            let nodes = tr
                .layer("udg.io.parse_nodes_ms", || io::parse_nodes(text))
                .ok()?;
            let topology = tr
                .layer("udg.io.parse_topology_ms", || {
                    io::parse_topology(&content, &nodes)
                })
                .ok()?;
            resume_ns = t_resume.elapsed().as_nanos() as u64;
            let udg = tr.layer("udg.unit_disk_graph_ms", || unit_disk_graph(&nodes));
            let summary = tr.layer("core.analysis.interference_ms", || {
                InterferenceSummary::with_engine(&topology, Engine::Auto)
            });
            tr.count("udg.edges", (edges + udg.num_edges()) as u64);
            let report = (udg.max_degree(), topology.num_edges());
            let forest = tr.layer("udg.topology.is_forest_ms", || topology.is_forest());
            let kept_again = tr.layer("udg.topology.preserves_connectivity_ms", || {
                topology.preserves_connectivity_of(&udg)
            });
            let sender = tr.layer("core.sender.sender_interference_ms", || {
                sender_graph_interference(&topology)
            });
            let energy = tr.layer("udg.topology.energy_ms", || topology.energy(2.0));
            let worst = summary.argmax();
            let mut h = Fnv::new();
            h.bytes(content.as_bytes());
            for v in [summary.max, sender, usize::from(forest), report.0, report.1] {
                h.u64(v as u64);
            }
            h.u64(summary.mean.to_bits())
                .u64(energy.to_bits())
                .u64(worst.unwrap_or(0) as u64);
            Some((topology, summary, kept && kept_again, h.finish()))
        });
        let t = Elapsed::since(steal, ns);

        let ok = tr.aside(|_| {
            let Some((topology, summary, kept, digest)) = out else {
                return false;
            };
            // Every engine must give the streaming kernel's exact counts.
            let want: Vec<usize> = StreamInstance::from_topology(&topology)
                .interference_counts()
                .into_iter()
                .map(|c| c as usize)
                .collect();
            let first = *self.digests.entry((inst, algo)).or_insert(digest);
            kept && summary.per_node == want && first == digest
        });
        Op {
            ns: t.net(),
            busy_ns: t.wall_ns,
            stolen_ns: t.stolen_ns,
            resume_ns: Some(t.scale(resume_ns)),
            ok,
        }
    }

    fn layers(&mut self, tr: &Tracer, ops: u64) -> BTreeMap<&'static str, f64> {
        let per_op = |v: f64| v / ops as f64;
        let mut m = BTreeMap::new();
        for name in [
            "udg.io.parse_nodes_ms",
            "udg.io.parse_topology_ms",
            "udg.io.format_topology_ms",
            "udg.unit_disk_graph_ms",
            "udg.topology.preserves_connectivity_ms",
            "udg.topology.is_forest_ms",
            "udg.topology.energy_ms",
            "core.analysis.interference_ms",
            "core.sender.sender_interference_ms",
        ] {
            m.insert(name, per_op(tr.layer_total(name).ns as f64 / 1e6));
        }
        // A construction's time is per build of that construction.
        for (_, name) in ALGOS {
            m.insert(name, tr.layer_total(name).ms_per_call());
        }
        let c = tr.op_counters();
        let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
        m.insert("udg.edges", per_op(tr.count_total("udg.edges") as f64));
        m.insert(
            "control.keep_ratio",
            get("control.edges_kept") / get("control.edges_in"),
        );
        m.insert(
            "geom.index.grid_builds",
            per_op(get("geom.index.grid_builds")),
        );
        m.insert(
            "geom.index.hit_ratio",
            get("geom.index.query_hits.sum") / get("geom.index.query_candidates.sum"),
        );
        m.insert("core.disk_queries", per_op(get("core.disk_queries")));
        m.insert("par.scatter_chunks", per_op(get("par.scatter_chunks")));
        m
    }
}

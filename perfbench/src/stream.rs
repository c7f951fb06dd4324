//! `stream-1m`: one op is the `rim analyze --generate uniform:1000000`
//! path — `uniform_soa` → `StreamInstance::try_with_nn_radii` →
//! `interference_counts_sharded(nproc)` — on a fresh seed every op.

use crate::stats::{digest_u32, mix};
use crate::trace::Tracer;
use crate::{steal_ns, timed, Elapsed, Op, Workload};
use rim_core::{sqrt_log_envelope, StreamInstance};
use rim_geom::{SoaGrid, SoaPoints};
use std::collections::BTreeMap;

const N: usize = 1_000_000;

pub struct Stream {
    seed: u64,
    next: u64,
    threads: usize,
}

/// Unit density, as `analyze --generate` defaults to.
fn side() -> f64 {
    (N as f64).sqrt()
}

/// The cell size `StreamInstance::try_with_nn_radii` gives its grid:
/// about one point per cell.
fn kernel_cell(points: &SoaPoints) -> f64 {
    let bbox = points.bbox();
    let area = (bbox.width() * bbox.height()).max(f64::MIN_POSITIVE);
    (area / points.len().max(1) as f64).sqrt()
}

impl Workload for Stream {
    const N: usize = N;

    fn workers() -> usize {
        rim_core::parallel::num_threads()
    }

    /// Builds one warm-up instance, so the allocator and page tables
    /// have seen an op's working set before timing starts.
    fn setup(seed: u64) -> Self {
        let points = rim_workloads::uniform_soa(N, side(), mix(seed, u64::MAX));
        let warm = StreamInstance::try_with_nn_radii(points);
        std::hint::black_box(warm.map(|w| w.len()).ok());
        Stream {
            seed,
            next: 0,
            threads: Self::workers(),
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Op {
        let s = mix(self.seed, self.next);
        self.next += 1;
        let threads = self.threads;
        let mut resume_ns = 0;
        let steal = steal_ns();
        let (out, ns) = tr.op(|tr| {
            // Resuming from the instance spec: regenerate the points, then
            // rebuild the grid and radii the count needs.
            let (inst, t) = timed(|| {
                let soa = tr.layer("workloads.uniform_soa_ms", || {
                    rim_workloads::uniform_soa(N, side(), s)
                });
                tr.layer("core.stream.build_nn_ms", || {
                    StreamInstance::try_with_nn_radii(soa)
                })
            });
            resume_ns = t;
            let inst = inst.ok()?;
            let counts = tr.layer("core.stream.count_ms", || {
                inst.interference_counts_sharded(threads)
            });
            Some((inst, counts))
        });
        let t = Elapsed::since(steal, ns);
        let ok = tr.aside(|tr| {
            let Some((inst, counts)) = out else {
                return false;
            };
            if tr.recording() {
                // The grid build on its own, with the kernel's cell size.
                let points = rim_workloads::uniform_soa(N, side(), s);
                let cell = kernel_cell(&points);
                let grid = tr.layer("geom.soa_grid.build_ms", || {
                    SoaGrid::try_build(&points, cell)
                });
                std::hint::black_box(grid.map(|g| g.len()).ok());
            }
            // The single-worker baseline: the thread sweep's other point
            // and the oracle for thread-count invariance.
            let single = tr.layer("core.stream.count_ms_t1", || inst.interference_counts());
            let (lo, hi) = sqrt_log_envelope(N);
            let max = f64::from(counts.iter().copied().max().unwrap_or(0));
            let sum: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            counts.len() == N
                && (lo..=hi).contains(&max)
                && sum >= N as u64
                && digest_u32(&counts) == digest_u32(&single)
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
        let mut m = BTreeMap::new();
        for name in [
            "workloads.uniform_soa_ms",
            "core.stream.build_nn_ms",
            "core.stream.count_ms",
            "core.stream.count_ms_t1",
            "geom.soa_grid.build_ms",
        ] {
            m.insert(name, tr.layer_total(name).ms_per_call());
        }
        m.insert(
            "par.count_speedup",
            m["core.stream.count_ms_t1"] / m["core.stream.count_ms"],
        );
        let c = tr.op_counters();
        let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64 / ops as f64;
        m.insert("par.scatter_chunks", get("par.scatter_chunks"));
        m.insert("core.disk_queries", get("core.disk_queries"));
        m
    }
}

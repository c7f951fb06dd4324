//! `churn-4096`: one op is one steady-state `ChurnSim::step` on the
//! uniform family at n0 = 4096. Every `CHECKPOINT_EVERY` edits the loop
//! checkpoints — `checkpoint_record`, `encode_snapshot`, then
//! `decode_snapshot`, the `rim churn --resume` cost.

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{steal_ns, timed, Op, Workload};
use rim_churn::{decode_snapshot, encode_snapshot, ChurnConfig, ChurnSim, Family};
use rim_core::receiver::interference_vector_naive;
use std::collections::BTreeMap;

const N0: usize = 4_096;
const CHECKPOINT_EVERY: u64 = 50_000;
/// An edit (~10 µs) is far too short for the 10-ms steal counter, so the
/// counter is read every this many edits (~40 ms) and its steal taken off
/// the busy time only; a steal slice lands on a few edits, which leaves
/// the median edit alone.
const STEAL_EVERY: u64 = 4_096;
/// Edit budget: far more than any run applies (the budget only truncates
/// the op stream).
const BUDGET: u64 = 1 << 40;

pub struct Churn {
    sim: ChurnSim,
    /// Wall time of the traced steps during which a compaction ran.
    compaction_ns: Samples,
    snapshot_bytes: u64,
    checkpoints: u64,
    /// Steal counter at the last read, advanced past output checks.
    steal_mark: u64,
}

/// The churn-calibrated √(ln n) envelope of `crates/churn/tests/
/// replay_differential.rs`: relink ops attach k-th-nearest links (k ≤ 4),
/// so the upper edge gets a 1.35× allowance.
fn churn_envelope(live: usize) -> (f64, f64) {
    let (lo, hi) = rim_core::sqrt_log_envelope(live);
    (lo, hi * 1.35)
}

/// Whether the maintained counts equal the naive oracle on the live
/// topology.
fn matches_oracle(sim: &ChurnSim) -> bool {
    let (t, slots) = sim.engine().live_topology();
    let want = interference_vector_naive(&t);
    slots
        .iter()
        .map(|&v| sim.engine().interference_at(v))
        .eq(want)
}

impl Workload for Churn {
    const N: usize = N0;

    fn workers() -> usize {
        1
    }

    /// The bootstrap ramp: n0 arrivals grow the instance to its target
    /// population, so every timed op is a steady-state edit.
    fn setup(seed: u64) -> Self {
        let mut sim = ChurnSim::new(
            ChurnConfig {
                family: Family::Uniform,
                n0: N0,
                seed,
            },
            BUDGET,
        );
        for _ in 0..N0 {
            sim.step();
        }
        Churn {
            sim,
            compaction_ns: Samples::default(),
            snapshot_bytes: 0,
            checkpoints: 0,
            steal_mark: steal_ns(),
        }
    }

    fn step(&mut self, tr: &mut Tracer) -> Op {
        let sim = &mut self.sim;
        let compactions = sim.counts().compactions;
        let (stepped, ns) = tr.op(|tr| tr.layer("churn.sim.step_ms", || sim.step()));
        if sim.counts().compactions != compactions && tr.recording() {
            self.compaction_ns.push(ns);
        }
        let mut op = Op {
            ns,
            busy_ns: ns,
            stolen_ns: 0,
            resume_ns: None,
            ok: stepped.is_some(),
        };
        if sim.counts().edits.is_multiple_of(STEAL_EVERY) {
            let now = steal_ns();
            op.stolen_ns = now.saturating_sub(self.steal_mark);
            self.steal_mark = now;
        }
        if sim.counts().edits.is_multiple_of(CHECKPOINT_EVERY) {
            let ((record, bytes, decoded), busy) = timed(|| {
                let record = tr.layer("churn.sim.checkpoint_record_ms", || sim.checkpoint_record());
                let bytes = tr.layer("churn.snapshot.encode_ms", || encode_snapshot(sim));
                let (decoded, resume) =
                    timed(|| tr.layer("churn.snapshot.decode_ms", || decode_snapshot(&bytes)));
                op.resume_ns = Some(resume);
                (record, bytes, decoded)
            });
            op.busy_ns += busy;
            if tr.recording() {
                self.snapshot_bytes += bytes.len() as u64;
                self.checkpoints += 1;
            }
            let steal = steal_ns();
            op.ok &= tr.aside(|_| {
                let restored = decoded.is_ok_and(|d| d.checkpoint_record() == record);
                restored && matches_oracle(sim)
            });
            self.steal_mark += steal_ns().saturating_sub(steal);
        }
        op
    }

    fn finish(&mut self) -> bool {
        let (lo, hi) = churn_envelope(self.sim.live_count());
        let max = self.sim.graph_interference() as f64;
        (lo..=hi).contains(&max) && matches_oracle(&self.sim)
    }

    fn layers(&mut self, tr: &Tracer, ops: u64) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        for name in [
            "churn.sim.step_ms",
            "churn.sim.checkpoint_record_ms",
            "churn.snapshot.encode_ms",
            "churn.snapshot.decode_ms",
        ] {
            m.insert(name, tr.layer_total(name).ms_per_call());
        }
        m.insert(
            "churn.compaction_step_ms",
            self.compaction_ns.median() / 1e6,
        );
        m.insert(
            "churn.snapshot.bytes",
            self.snapshot_bytes as f64 / self.checkpoints.max(1) as f64,
        );
        let c = tr.op_counters();
        let per_op = |k: &str| c.get(k).copied().unwrap_or(0) as f64 / ops as f64;
        for name in [
            "dynamic.edge_inserts",
            "dynamic.edge_removes",
            "dynamic.node_inserts",
            "dynamic.node_removes",
            "dynamic.index_rebuilds",
            "churn.compactions",
        ] {
            m.insert(name, per_op(name));
        }
        m
    }
}

//! Differential suite for the streaming (SoA, UDG-free) interference
//! kernel: [`StreamInstance`] must agree *exactly* — bit for bit, not
//! within a tolerance — with [`interference_vector_naive`], the `O(n²)`
//! oracle transcribing Definition 3.1, across the same five adversarial
//! instance families the engines are pinned by (`differential.rs`) plus
//! a uniform set with one far outlier, and the sharded accumulator
//! variant must be invariant in the worker count.
//!
//! The family generators are deliberately duplicated from
//! `differential.rs` rather than shared: each suite stays a
//! self-contained witness, so a refactor of one cannot silently weaken
//! the other.

use rim_core::physical::{physical_interference_vector, PhysModel};
use rim_core::receiver::{interference_vector_naive, interference_vector_with, Engine};
use rim_core::{sqrt_log_envelope, StreamInstance};
use rim_geom::{Point, SoaGrid, SoaPoints};
use rim_rng::prop::check;
use rim_rng::{prop_ensure, SmallRng};
use rim_udg::{NodeSet, Topology};

/// Random edge selection over `n` nodes: up to `2n` draws, deduped.
fn arb_pairs(rng: &mut SmallRng, n: usize) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    for _ in 0..rng.gen_range(0usize..2 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && seen.insert((a.min(b), a.max(b))) {
            pairs.push((a, b));
        }
    }
    pairs
}

fn topology_from(rng: &mut SmallRng, points: Vec<Point>) -> Topology {
    let n = points.len();
    let pairs = arb_pairs(rng, n);
    Topology::from_pairs(NodeSet::new(points), &pairs)
}

/// Uniform points in a square.
fn gen_uniform(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..48);
    let side = rng.gen_range(0.5f64..4.0);
    let pts = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    topology_from(rng, pts)
}

/// A few tight clusters far apart: grid buckets are wildly uneven.
fn gen_clustered(rng: &mut SmallRng) -> Topology {
    let clusters = rng.gen_range(1usize..5);
    let per = rng.gen_range(2usize..10);
    let mut pts = Vec::new();
    for _ in 0..clusters {
        let cx = rng.gen_range(0.0f64..20.0);
        let cy = rng.gen_range(0.0f64..20.0);
        for _ in 0..per {
            pts.push(Point::new(
                cx + rng.gen_range(-0.05f64..0.05),
                cy + rng.gen_range(-0.05f64..0.05),
            ));
        }
    }
    topology_from(rng, pts)
}

/// Exponentially growing gaps (the paper's Figure 7 instance shape):
/// radii spread over many orders of magnitude.
fn gen_exponential_chain(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(3usize..24);
    let scale = 2f64.powi(-(rng.gen_range(0u32..30) as i32));
    let pts: Vec<Point> = (0..n)
        .map(|i| Point::on_line((2f64.powi(i as i32) - 1.0) * scale))
        .collect();
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    for (a, b) in arb_pairs(rng, n) {
        if b != a + 1 && a != b + 1 {
            pairs.push((a, b));
        }
    }
    Topology::from_pairs(NodeSet::new(pts), &pairs)
}

/// Collinear points: a degenerate (height-zero) bounding box.
fn gen_collinear(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..32);
    let pts = (0..n)
        .map(|_| Point::on_line(rng.gen_range(0.0f64..3.0)))
        .collect();
    topology_from(rng, pts)
}

/// Duplicate coordinates: coincident nodes, zero-length links, exact
/// boundary ties at `d = 0`.
fn gen_duplicates(rng: &mut SmallRng) -> Topology {
    let distinct = rng.gen_range(1usize..8);
    let sites: Vec<Point> = (0..distinct)
        .map(|_| Point::new(rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0)))
        .collect();
    let n = rng.gen_range(distinct..3 * distinct + 2);
    let pts = (0..n).map(|i| sites[i % distinct]).collect();
    topology_from(rng, pts)
}

/// A uniform set plus one node at (10⁶, 10⁶): the outlier stretches the
/// bounding box so far that the scatter's index falls back from the
/// grid to the kd-tree (the grid's budget clamp would put the uniform
/// set into a few buckets).
fn gen_far_outlier(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(2usize..47);
    let side = rng.gen_range(0.5f64..4.0);
    let mut pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    pts.push(Point::new(1.0e6, 1.0e6));
    topology_from(rng, pts)
}

/// The streaming kernel (and its sharded variant) must reproduce the
/// naive oracle exactly on any topology.
fn streaming_matches_oracle(t: &Topology) -> Result<(), String> {
    let oracle = interference_vector_naive(t);
    let inst = StreamInstance::from_topology(t);
    let got: Vec<usize> = inst.interference_counts().into_iter().map(|c| c as usize).collect();
    prop_ensure!(
        got == oracle,
        "streaming kernel diverged from the naive oracle\n  got:    {:?}\n  oracle: {:?}",
        got,
        oracle
    );
    // Sharded accumulation must not depend on the worker count.
    for threads in 1..=8 {
        let sharded: Vec<usize> = inst
            .interference_counts_sharded(threads)
            .into_iter()
            .map(|c| c as usize)
            .collect();
        prop_ensure!(
            sharded == oracle,
            "sharded kernel with {threads} worker(s) diverged\n  got:    {:?}\n  oracle: {:?}",
            sharded,
            oracle
        );
    }
    for engine in Engine::ALL {
        prop_ensure!(
            interference_vector_with(t, engine) == oracle,
            "engine {} diverged from the naive oracle",
            engine.name()
        );
    }
    Ok(())
}

#[test]
fn streaming_differential_uniform() {
    check("streaming_differential_uniform", 128, gen_uniform, streaming_matches_oracle);
}

#[test]
fn streaming_differential_clustered() {
    check("streaming_differential_clustered", 128, gen_clustered, streaming_matches_oracle);
}

#[test]
fn streaming_differential_exponential_chain() {
    check(
        "streaming_differential_exponential_chain",
        128,
        gen_exponential_chain,
        streaming_matches_oracle,
    );
}

#[test]
fn streaming_differential_collinear() {
    check("streaming_differential_collinear", 128, gen_collinear, streaming_matches_oracle);
}

#[test]
fn streaming_differential_duplicate_coordinates() {
    check(
        "streaming_differential_duplicate_coordinates",
        128,
        gen_duplicates,
        streaming_matches_oracle,
    );
}

#[test]
fn streaming_differential_far_outlier() {
    check("streaming_differential_far_outlier", 128, gen_far_outlier, streaming_matches_oracle);
}

/// Deterministic large instances right at the suite's size bound: the
/// property generators stay small for iteration count, so this pins the
/// kernels against the oracle at `n = 2048` explicitly.
#[test]
fn streaming_matches_oracle_at_2048() {
    for seed in [1u64, 2, 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2048;
        let side = (n as f64).sqrt();
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let t = topology_from(&mut rng, pts);
        streaming_matches_oracle(&t).unwrap();
    }
}

/// Mid-scale agreement with an index-backed kernel, where the `O(n²)`
/// oracle is no longer practical: the streaming path and the
/// [`rim_geom::SpatialIndex`]-backed coverage kernel of `rim-phys`, in its
/// disk-equivalent instantiation, must still be integer-identical on the
/// same topology.
#[test]
fn streaming_agrees_with_indexed_at_scale() {
    let mut rng = SmallRng::seed_from_u64(9);
    let n = 20_000;
    let side = (n as f64).sqrt();
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    // A sparse chain plus random shortcuts keeps radii local, so the
    // indexed kernel's disk queries stay cheap in debug builds.
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    let mut extra = std::collections::HashSet::new();
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n - 2);
        if extra.insert(a) {
            pairs.push((a, a + 2));
        }
    }
    let t = Topology::from_pairs(NodeSet::new(pts), &pairs);

    let indexed = physical_interference_vector(&PhysModel::disk_equivalent(&t));
    let streaming: Vec<usize> = StreamInstance::from_topology(&t)
        .interference_counts()
        .into_iter()
        .map(|c| c as usize)
        .collect();
    assert_eq!(streaming, indexed);
    assert_eq!(interference_vector_with(&t, Engine::Auto), indexed);
}

/// The UDG-free nearest-neighbor path at statistical scale: on a uniform
/// unit-density instance the maximum receiver-centric interference must
/// sit inside the Θ(√(log n)) envelope (Devroye–Morin), and neither the
/// radii nor the counts may depend on the worker count.
#[test]
fn nn_radii_gate_at_1e5() {
    let n: usize = 100_000;
    let side = (n as f64).sqrt();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut soa = SoaPoints::with_capacity(n);
    for _ in 0..n {
        soa.push(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    }
    // Radius level: the parallel radius column equals a sequential
    // nearest-neighbor search over an independently built grid with a
    // different cell size, node for node and bit for bit.
    let grid = SoaGrid::build(&soa, 2.0);
    let mut sequential = vec![None; n];
    for k in 0..grid.len() {
        sequential[grid.item(k)] = grid.nearest_dist_at(k).map(f64::to_bits);
    }
    let inst = StreamInstance::with_nn_radii(soa);
    let radii: Vec<Option<u64>> = inst
        .radii()
        .into_iter()
        .map(|r| r.map(f64::to_bits))
        .collect();
    assert_eq!(
        radii, sequential,
        "parallel radii differ from a sequential search on another grid"
    );
    let counts = inst.interference_counts_sharded(4);
    let max = counts.iter().copied().max().unwrap_or(0);
    let (lo, hi) = sqrt_log_envelope(n);
    assert!(
        f64::from(max) >= lo && f64::from(max) <= hi,
        "max I = {max} outside [{lo:.2}, {hi:.2}] at n = {n}"
    );
    assert_eq!(counts, inst.interference_counts_sharded(1), "sharding changed the counts");
}

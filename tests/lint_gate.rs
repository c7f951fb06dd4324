//! Tier-1 lint gate: `cargo test -q` from the workspace root fails if
//! `cargo run -p rim-xtask -- lint` would report anything. This is the
//! enforcement point for the project's numeric discipline (no exact
//! float equality, distance-level comparisons), hermeticity (no
//! external dependencies, ever), the panic-freedom and
//! concurrency-discipline obligations on the hot paths, and the
//! differential-testing policy: the `naive-oracle-retained` audit fails
//! the gate if any `O(n²)` reference oracle ever loses its test
//! callers.
//!
//! The gate also pins the call-graph layer itself: the graph must stay
//! populated (a degenerate parse would silently disable every
//! graph-driven rule), every retained oracle must be reachable from a
//! test in it, and a full lint run must stay inside a wall-clock budget
//! so the gate remains cheap enough to run on every `cargo test`.

use std::path::Path;
use std::time::{Duration, Instant};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_lint_is_clean() {
    let diags = rim_xtask::run_lint(root()).expect("lint must run on the workspace");
    let rendered: Vec<String> = diags.iter().map(|d| d.human()).collect();
    assert!(
        diags.is_empty(),
        "`cargo run -p rim-xtask -- lint` would report {} diagnostic(s):\n{}\n\
         fix the findings or annotate intentional sites with `// rim-lint: allow(<rule>)`",
        diags.len(),
        rendered.join("\n")
    );
}

#[test]
fn call_graph_stays_populated() {
    let members = rim_xtask::load_workspace(root()).expect("workspace loads");
    let ws = rim_xtask::model::build(&members);
    assert!(
        ws.fns.len() > 200,
        "call graph has only {} fns; the parser or model degenerated",
        ws.fns.len()
    );
    assert!(
        ws.edges.len() > ws.fns.len(),
        "only {} edges over {} fns; call resolution degenerated",
        ws.edges.len(),
        ws.fns.len()
    );
    // The JSONL export carries one record per fn and per edge.
    let jsonl = ws.export_jsonl();
    assert_eq!(jsonl.lines().count(), ws.fns.len() + ws.edges.len());
    assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    // Every retained oracle must be defined *and* reachable from a test
    // in the graph — the reachability side of `naive-oracle-retained`.
    let reach = ws.reachable_from_tests();
    for oracle in rim_xtask::audit::RETAINED_ORACLES {
        let reachable = ws
            .defs_named(oracle)
            .iter()
            .any(|&i| !ws.fns[i].in_test && reach[i]);
        assert!(reachable, "`{oracle}` is not test-reachable in the call graph");
    }
}

#[test]
fn physical_engine_obligations_stay_registered() {
    // The SINR layer's standing obligations: the naive SINR oracle is a
    // retained differential reference (so `naive-oracle-retained` fails
    // the gate if the physical differential suite stops calling it), and
    // both physical kernel entry points carry the panic-freedom closure
    // check. Dropping any of these from the registries would silently
    // un-audit rim-phys; pin them here.
    for oracle in ["interference_vector_naive", "sinr_interference_naive"] {
        assert!(
            rim_xtask::audit::RETAINED_ORACLES.contains(&oracle),
            "`{oracle}` must stay in RETAINED_ORACLES"
        );
    }
    for root in ["physical_interference_vector", "sinr_interference"] {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    assert!(
        rim_xtask::rules::rule_known("power-domain-mismatch"),
        "the dBm/mW mixing rule must stay registered"
    );
}

#[test]
fn streaming_kernel_obligations_stay_registered() {
    // The million-node streaming path's standing obligations: both
    // counting entry points, the sharded scatter primitive, the
    // nearest-neighbor radius build and its ring search carry the
    // panic-freedom closure check, the thread-count-invariant kernels
    // (the parallel radius build among them) are determinism roots, and
    // the naive oracle the streaming differential suite pins against
    // stays retained. Dropping any of these would silently un-audit the
    // SoA/streaming layer.
    for root in [
        "interference_counts",
        "interference_counts_sharded",
        "par_scatter_u32",
        "try_with_nn_radii",
        "nearest_dist_at",
    ] {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    for root in ["interference_counts_sharded", "par_scatter_u32", "try_with_nn_radii"] {
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
    assert!(
        rim_xtask::audit::RETAINED_ORACLES.contains(&"interference_vector_naive"),
        "the naive oracle anchors the streaming differential suite"
    );
}

#[test]
fn churn_hot_path_obligations_stay_registered() {
    // The churn layer's standing obligations: the whole edit hot path
    // (op application and tombstoning departures) plus both snapshot
    // codec entry points are panic-free roots, and the replay-equality
    // surface (apply_edit, remove_node, the snapshot encoder) must not
    // reach RNG draws, wall-clock reads, or atomic RMW — bit-exact
    // (seed, trace) replay and snapshot restore depend on it. Dropping
    // any of these would silently un-audit rim-churn.
    for root in ["remove_node", "apply_edit", "encode_snapshot", "decode_snapshot"] {
        assert!(
            rim_xtask::audit::PANIC_FREE_ROOTS.contains(&root),
            "`{root}` must stay in PANIC_FREE_ROOTS"
        );
    }
    for root in ["remove_node", "apply_edit", "encode_snapshot"] {
        assert!(
            rim_xtask::flow::DETERMINISM_ROOTS.contains(&root),
            "`{root}` must stay in DETERMINISM_ROOTS"
        );
    }
    assert!(
        rim_xtask::audit::RETAINED_ORACLES.contains(&"interference_vector_naive"),
        "the naive oracle anchors the churn replay-differential suite"
    );
}

#[test]
fn lint_runtime_stays_within_budget() {
    // The whole point of an in-tree linter is that it rides along with
    // `cargo test`. Parsing every file, building the call graph, running
    // the expression-level dataflow passes, and running all rules must
    // stay comfortably interactive even in debug builds; 45s is ~20x the
    // current debug-profile cost, so this only trips on accidental
    // quadratic blowups, not on slow CI machines.
    let start = Instant::now();
    rim_xtask::run_lint(root()).expect("lint must run on the workspace");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(45),
        "full lint took {elapsed:?}; the gate must stay cheap"
    );
}

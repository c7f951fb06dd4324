//! `perfbench` — the repository's end-to-end benchmark.
//!
//! One command runs one of three seeded, closed-loop, single-client
//! workloads against the public library API, checks every output, and
//! prints one JSON object as the last line of stdout:
//!
//! ```text
//! perfbench --workload pipeline-20k|stream-1m|churn-4096 --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the process never installs the rim-obs recorder and
//! reports the end-to-end metrics. With `--trace 1` it spends the first
//! half of `--seconds` on the untraced measurement (for the trace
//! overhead ratio), then installs the recorder, which stays on for the
//! rest of the process, and measures the second half with the
//! benchmark's own spans around every call into a layer; it reports the
//! per-layer metrics. End-to-end times are wall times less hypervisor
//! steal ([`Elapsed`]), scaled to a nominal host speed ([`calib`]). A
//! provenance row precedes the result line. See `perfbench/README.md` for
//! the metric definitions.

mod calib;
mod churn;
mod pipeline;
mod stats;
mod stream;
mod trace;

use calib::HostSpeed;
use stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload pipeline-20k|stream-1m|churn-4096 --seed N --seconds S --trace 0|1";

/// A run repeats its set-up at least `MIN_SETUPS` times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median and the last one is kept.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer its workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("udg.io.parse_nodes_ms", "ms"),
    ("udg.io.parse_topology_ms", "ms"),
    ("udg.io.format_topology_ms", "ms"),
    ("udg.unit_disk_graph_ms", "ms"),
    ("udg.edges", "count/op"),
    ("udg.topology.preserves_connectivity_ms", "ms"),
    ("udg.topology.is_forest_ms", "ms"),
    ("udg.topology.energy_ms", "ms"),
    ("topology_control.build_ms.GG", "ms"),
    ("topology_control.build_ms.RNG", "ms"),
    ("topology_control.build_ms.LMST", "ms"),
    ("topology_control.build_ms.XTC", "ms"),
    ("topology_control.build_ms.Yao6", "ms"),
    ("control.keep_ratio", "ratio"),
    ("geom.index.grid_builds", "count/op"),
    ("geom.index.hit_ratio", "ratio"),
    ("core.analysis.interference_ms", "ms"),
    ("core.sender.sender_interference_ms", "ms"),
    ("core.disk_queries", "count/op"),
    ("workloads.uniform_soa_ms", "ms"),
    ("geom.soa_grid.build_ms", "ms"),
    ("core.stream.build_nn_ms", "ms"),
    ("core.stream.count_ms", "ms"),
    ("core.stream.count_ms_t1", "ms"),
    ("par.count_speedup", "ratio"),
    ("par.scatter_chunks", "count/op"),
    ("churn.sim.step_ms", "ms"),
    ("dynamic.edge_inserts", "count/op"),
    ("dynamic.edge_removes", "count/op"),
    ("dynamic.node_inserts", "count/op"),
    ("dynamic.node_removes", "count/op"),
    ("dynamic.index_rebuilds", "count/op"),
    ("churn.compactions", "count/op"),
    ("churn.compaction_step_ms", "ms"),
    ("churn.sim.checkpoint_record_ms", "ms"),
    ("churn.snapshot.encode_ms", "ms"),
    ("churn.snapshot.decode_ms", "ms"),
    ("churn.snapshot.bytes", "B"),
    ("bench.unattributed_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// One closed-loop op as a workload reports it.
pub struct Op {
    /// Time of the op, the latency sample: its wall time, less the steal
    /// inside it where the op is long enough to measure that.
    pub ns: u64,
    /// Client wall time the op consumed, the op plus in-loop work such as
    /// a checkpoint.
    pub busy_ns: u64,
    /// Steal measured inside `busy_ns`. `ops_per_s` divides by the busy
    /// time less this.
    pub stolen_ns: u64,
    /// Time to restore the workload's state from its serialized form, if
    /// this op did so.
    pub resume_ns: Option<u64>,
    /// Whether every output check of the op passed.
    pub ok: bool,
}

/// A seeded workload: set up, then a closed loop of ops.
pub trait Workload: Sized {
    /// Nodes in one instance.
    const N: usize;
    /// Ops in one round of the op mix. A measured phase ends only on a
    /// round boundary, so every run measures the same mix.
    const ROUND: u64 = 1;
    /// Worker threads an op may use.
    fn workers() -> usize;
    /// Builds the inputs and state the ops need from the run seed.
    fn setup(seed: u64) -> Self;
    /// Runs, times and checks the next op.
    fn step(&mut self, tr: &mut Tracer) -> Op;
    /// End-of-run checks; `false` if one failed.
    fn finish(&mut self) -> bool {
        true
    }
    /// Per-layer metrics of the traced phase (`ops` ops, tracer `tr`).
    fn layers(&mut self, tr: &Tracer, ops: u64) -> BTreeMap<&'static str, f64>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let mut get = |k: &str| flags.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `f` and returns its result with its wall time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Time the hypervisor has given this VM's CPUs to other guests so far:
/// the `steal` column of the `cpu` line of /proc/stat, summed over CPUs,
/// in nanoseconds at the counter's resolution of one clock tick (10 ms).
/// 0 where the counter is unavailable, so nothing is subtracted there.
pub fn steal_ns() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // SAFETY: `sysconf` has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks * 1_000_000_000 / u64::try_from(hz).unwrap_or(100).max(1)
}

/// A timed interval of 50 ms or more: its wall time and the steal inside
/// it.
///
/// On a shared host the time the hypervisor gives to other guests varies
/// from run to run, and it, not the program, then sets most of the spread
/// of wall times: over four interleaved 20-second runs on a 2-vCPU VM
/// with 0.4 to 8.3 s of steal each, the median `pipeline-20k` op read 258
/// to 441 ms in wall time and 240 to 269 ms less steal. The counter sums all CPUs,
/// so where both of an op's worker threads were held at once the op is
/// corrected by both.
#[derive(Clone, Copy)]
pub struct Elapsed {
    pub wall_ns: u64,
    pub stolen_ns: u64,
}

impl Elapsed {
    /// An interval of `wall_ns` that ends now and began when
    /// [`steal_ns`] read `steal_before`.
    pub fn since(steal_before: u64, wall_ns: u64) -> Self {
        Elapsed {
            wall_ns,
            stolen_ns: steal_ns().saturating_sub(steal_before),
        }
    }

    /// Wall time less steal: how long the interval would have taken had
    /// no other guest run on this VM's CPUs.
    pub fn net(self) -> u64 {
        self.wall_ns.saturating_sub(self.stolen_ns)
    }

    /// `ns`, the length of a part of this interval, less that part's share
    /// of the interval's steal.
    pub fn scale(self, ns: u64) -> u64 {
        (ns as f64 * self.net() as f64 / self.wall_ns.max(1) as f64) as u64
    }
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    op_ns: Samples,
    busy_ns: u64,
    stolen_ns: u64,
    resume_ns: Samples,
    attempted: u64,
    failed: u64,
}

/// Runs ops back to back until `limit` of wall time has passed and the
/// current round of the op mix is complete, sampling the host's speed
/// between ops.
fn measure<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    speed: &mut HostSpeed,
    limit: Duration,
) -> Phase {
    let t0 = Instant::now();
    let mut p = Phase::default();
    loop {
        let op = w.step(tr);
        speed.tick();
        p.attempted += 1;
        p.failed += u64::from(!op.ok);
        p.op_ns.push(op.ns);
        p.busy_ns += op.busy_ns;
        p.stolen_ns += op.stolen_ns;
        if let Some(ns) = op.resume_ns {
            p.resume_ns.push(ns);
        }
        if p.attempted.is_multiple_of(W::ROUND) && t0.elapsed() >= limit {
            break;
        }
    }
    p
}

/// Output of a command run inside the checkout, trimmed; `None` if it
/// failed. Waits for the process to end.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV digest of the library sources and manifests: identifies the code
/// measured where no git metadata is available.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() && e.file_name() != "target" {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = stats::Fnv::new();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

fn json_str(s: Option<&str>) -> String {
    match s {
        Some(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".into(),
    }
}

/// The provenance fields of a result row.
fn provenance<W: Workload>(args: &Args) -> String {
    // Only consult git for a checkout that has its own metadata, so the
    // lookup never reads outside the working directory.
    let (rev, dirty) = if Path::new(".git").exists() {
        let rev = command_output("git", &["rev-parse", "HEAD"]);
        let dirty = command_output("git", &["status", "--porcelain", "--untracked-files=no"])
            .map(|s| if s.is_empty() { "false" } else { "true" });
        (rev, dirty)
    } else {
        (None, None)
    };
    format!(
        "\"workload\":\"{}\",\"seed\":{},\"n\":{},\"seconds\":{},\"trace\":{},\
         \"git_rev\":{},\"git_dirty\":{},\"src_fnv\":\"{:016x}\",\"nproc\":{},\
         \"worker_threads\":{},\"rustc\":{}",
        args.workload,
        args.seed,
        W::N,
        args.seconds,
        u8::from(args.trace),
        json_str(rev.as_deref()),
        dirty.unwrap_or("null"),
        source_digest(),
        rim_core::parallel::num_threads(),
        W::workers(),
        json_str(command_output("rustc", &["-V"]).as_deref()),
    )
}

/// Pins the calling thread, and the threads it starts later, to the CPU
/// it is running on; `false` if that failed.
///
/// On a shared host the vCPUs slow down and speed up independently, and a
/// thread the scheduler moves between them also leaves its cache behind.
/// Pinned, the single-threaded workload's run-to-run spread was about a
/// sixth of the unpinned one (interquartile range over median of
/// `ops_per_s`, six interleaved 10-second runs each on a 2-vCPU VM: 0.03
/// against 0.21).
fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` has no preconditions.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return false;
    };
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and its size in bytes is passed
    // with it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn run<W: Workload>(args: &Args) {
    let prov = provenance::<W>(args);
    // Only a workload that runs on one thread is pinned: pinning a
    // multi-threaded one would put all its workers on a single CPU.
    let pinned = W::workers() == 1 && pin_to_current_cpu();
    let mut speed = HostSpeed::new();
    let mut setup_ns = Vec::new();
    let t0 = Instant::now();
    let mut w = loop {
        let steal = steal_ns();
        let (x, ns) = timed(|| W::setup(args.seed));
        setup_ns.push(Elapsed::since(steal, ns).net());
        speed.tick();
        if setup_ns.len() >= MIN_SETUPS && t0.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break x;
        }
    };
    // A traced run splits its time between the untraced and the traced
    // phase, so it takes as long as an untraced one.
    let phases = if args.trace { 2 } else { 1 };
    let limit = Duration::from_secs(args.seconds) / phases;
    let mut base = measure(&mut w, &mut Tracer::off(), &mut speed, limit);
    let mut traced = args.trace.then(|| {
        let mut tr = Tracer::on();
        let p = measure(&mut w, &mut tr, &mut speed, limit);
        (p, tr)
    });
    let finished = w.finish();

    let base_p50 = base.op_ns.median();
    let (tail, tail_pct) = base.op_ns.tail();
    // Times are reported at nominal host speed (see `calib`).
    let scale = speed.time_scale();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut attempted = base.attempted;
    let mut failed = base.failed;
    match &mut traced {
        None => {
            let ops = base.op_ns.len() as f64;
            metrics.extend([
                (
                    "setup_s",
                    setup_ns.iter().copied().collect::<Samples>().median() * scale / 1e9,
                    "s",
                ),
                (
                    "ops_per_s",
                    ops / (base.busy_ns.saturating_sub(base.stolen_ns) as f64 * scale / 1e9),
                    "1/s",
                ),
                ("op_p50_ms", base_p50 * scale / 1e6, "ms"),
                ("op_tail_ms", tail * scale / 1e6, "ms"),
                (
                    "peak_rss_mb",
                    rim_obs::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0),
                    "MB",
                ),
                ("resume_p50_ms", base.resume_ns.median() * scale / 1e6, "ms"),
            ]);
        }
        Some((p, tr)) => {
            attempted += p.attempted;
            failed += p.failed;
            let mut layers = w.layers(tr, p.op_ns.len() as u64);
            layers.insert("bench.unattributed_ratio", tr.unattributed_ratio());
            layers.insert("bench.trace_overhead_ratio", p.op_ns.median() / base_p50);
            for &(name, unit) in PER_LAYER {
                metrics.push((name, layers.remove(name).unwrap_or(0.0), unit));
            }
            assert!(
                layers.is_empty(),
                "layer metrics missing from PER_LAYER: {layers:?}"
            );
            write_span_log(args, tr);
        }
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let correct = failed == 0 && finished && finite;

    let mut row = format!("{{\"record\":\"perfbench_run\",{prov}");
    let _ = write!(
        row,
        ",\"op_samples\":{},\"op_tail_pct\":{tail_pct},\
         \"fail_ratio\":{},\"fail_base\":\"ops attempted\",\"attempted\":{attempted},\
         \"setup_ns\":{setup_ns:?},\"resumes\":{},\"pinned\":{pinned},\
         \"time_scale\":{scale},\"ref_ns\":{},\"ref_samples\":{}}}",
        base.op_ns.len(),
        failed as f64 / attempted as f64,
        base.resume_ns.len(),
        speed.reference_ns(),
        speed.samples(),
    );
    println!("{row}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// A finite JSON number; non-finite values (an unmeasurable metric,
/// which already fails `correct`) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Writes the traced phase's span log next to the build output.
fn write_span_log(args: &Args, tr: &Tracer) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = Path::new(&dir).join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let result = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.log_jsonl()));
    match result {
        Ok(()) => eprintln!("perfbench: span log written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write span log {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "pipeline-20k" => run::<pipeline::Pipeline>(&args),
        "stream-1m" => run::<stream::Stream>(&args),
        "churn-4096" => run::<churn::Churn>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

//! Closed-loop benchmark of the TOUCH workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from one process with one client. With `--trace 0` it
//! times set-up and a closed loop of ops, tracing off, and reports the
//! end-to-end metrics; with `--trace 1` it replays ops through each layer's
//! public functions inside spans and reports the per-layer metrics. Every op's
//! pairs are checked against a reference join. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod harness;
mod host;
mod oneshot;
mod parallel;
mod serve;
mod spans;
mod stats;
mod tick;

use harness::{Checks, EndToEnd, Layers, MIB};
use oneshot::OneShot;
use serve::Churn;
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use tick::Tick;
use touch_datagen::{NeuroscienceSpec, SyntheticDistribution, SyntheticSpec};
use touch_geom::{Dataset, SpatialObject};

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("objects_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not run reports 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("core.query.prep_ms", "ms"),
    ("index.str_sort.ns_per_obj", "ns"),
    ("index.str_sort.share", "frac"),
    ("core.tree.pack.ns_per_obj", "ns"),
    ("core.assign.ns_per_b", "ns"),
    ("core.assign.node_tests_per_b", "count"),
    ("core.assign.filtered_frac", "frac"),
    ("core.assign.share", "frac"),
    ("core.join.share", "frac"),
    ("core.join.ns_per_comparison", "ns"),
    ("core.join.node_p50_us", "us"),
    ("core.join.node_max_us", "us"),
    ("core.join.comparisons", "count"),
    ("core.join.node_tests", "count"),
    ("core.join.filter_hit_ratio", "frac"),
    ("core.join.pair_ratio", "frac"),
    ("core.join.scratch_mb", "MiB"),
    ("parallel.str_sort.speedup", "x"),
    ("parallel.assign.speedup", "x"),
    ("parallel.join.speedup", "x"),
    ("sim.step_ms", "ms"),
    ("sim.stats_ms", "ms"),
    ("sim.replans", "count"),
    ("serve.publish_fold_ms", "ms"),
    ("serve.snapshot_ns", "ns"),
    ("serve.query_ms", "ms"),
    ("serve.publish_rebuild_ms", "ms"),
    ("metrics.trace_overhead_frac", "frac"),
    ("unattributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["neuro_touch", "uniform_sparse", "tick_selfjoin", "serve_churn"];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads the workloads use.
#[derive(Debug, Clone, Copy)]
struct Threads {
    /// Threads the parallel layer is compared at, against one.
    compare: usize,
    /// Threads of the tick engine.
    tick: usize,
}

impl Threads {
    /// At most two threads, and no more than `nproc`. The tick engine gets
    /// half the vCPUs: with every vCPU of a shared machine busy, each
    /// parallel phase waits for the most-delayed one, and on a 2-vCPU host
    /// two-thread ticks were both slower and three times as spread between
    /// runs as one-thread ticks (p50 146 vs 140 ms, spread 18% vs 6%).
    fn for_nproc(nproc: usize) -> Self {
        Threads { compare: nproc.min(2), tick: (nproc / 2).clamp(1, 2) }
    }
}

/// A workload with its generated inputs.
enum Workload {
    OneShot(OneShot),
    Tick(Tick),
    Churn(Churn),
}

/// Neuroscience samples `neuro_touch` cycles through: one small sample's
/// cost depends much on where its few neurons grow, so a run averages over
/// several.
const NEURO_SAMPLES: u64 = 32;

/// Seed of sample `i` of a run seeded with `seed`.
fn sample_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(NEURO_SAMPLES).wrapping_add(i)
}

/// Seed of the `stream`-th generated input after the one seeded with `seed`.
fn derived_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn uniform(count: usize, seed: u64) -> Dataset {
    SyntheticSpec::new(count, SyntheticDistribution::Uniform).generate(seed)
}

impl Workload {
    /// Generates the inputs of `name` from `seed` (and the one-shot
    /// references).
    fn build(name: &str, seed: u64, threads: Threads) -> Result<Workload, String> {
        let Threads { compare: threads, tick } = threads;
        Ok(match name {
            "neuro_touch" => {
                let spec = NeuroscienceSpec::scaled(0.01);
                let inputs = (0..NEURO_SAMPLES).map(|i| {
                    let data = spec.generate(sample_seed(seed, i));
                    (data.axons, data.dendrites)
                });
                Workload::OneShot(OneShot::new(inputs, 5.0, threads)?)
            }
            "uniform_sparse" => {
                let inputs = [(uniform(160_000, seed), uniform(160_000, derived_seed(seed, 1)))];
                Workload::OneShot(OneShot::new(inputs, 3.0, threads)?)
            }
            "tick_selfjoin" => Workload::Tick(Tick::new(80_000, seed, 3.0, tick, threads)),
            "serve_churn" => Workload::Churn(Churn {
                a: uniform(160_000, seed).extended(3.0),
                b: uniform(160_000, derived_seed(seed, 1)),
                moves: 512,
                window: 4096,
                threads,
                seed: derived_seed(seed, 2),
            }),
            _ => return Err(format!("unknown workload {name:?}")),
        })
    }

    /// Input samples the ops cycle through.
    fn samples(&self) -> usize {
        match self {
            Workload::OneShot(w) => w.samples.len(),
            Workload::Tick(_) | Workload::Churn(_) => 1,
        }
    }

    /// `(name, objects)` of each input of one op (a mean over the samples).
    fn inputs(&self) -> Vec<(&'static str, usize)> {
        match self {
            Workload::OneShot(w) => {
                let per_sample = |side: fn(&oneshot::Sample) -> usize| {
                    w.samples.iter().map(side).sum::<usize>() / w.samples.len()
                };
                vec![("a", per_sample(|s| s.a.len())), ("b", per_sample(|s| s.b.len()))]
            }
            Workload::Tick(w) => vec![("entities", w.world.len())],
            Workload::Churn(w) => vec![("a", w.a.len()), ("b", w.b.len()), ("window", w.window)],
        }
    }

    fn end_to_end(&self, seconds: f64) -> Result<EndToEnd, String> {
        match self {
            Workload::OneShot(w) => w.end_to_end(seconds),
            Workload::Tick(w) => w.end_to_end(seconds),
            Workload::Churn(w) => w.end_to_end(seconds),
        }
    }

    fn per_layer(
        &self,
        seconds: f64,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Result<(), String> {
        match self {
            Workload::OneShot(w) => w.per_layer(seconds, rec, layers, checks),
            Workload::Tick(w) => w.per_layer(seconds, rec, layers, checks),
            Workload::Churn(w) => w.per_layer(seconds, rec, layers, checks),
        }
    }
}

/// What the numbers were measured on, as one JSON object.
fn environment(args: &Args, threads: Threads, workload: &Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let no_simd = std::env::var_os("TOUCH_NO_SIMD").is_some();
    let inputs: Vec<String> = workload
        .inputs()
        .iter()
        .map(|(name, n)| {
            let bytes = n * std::mem::size_of::<SpatialObject>();
            format!("\"{name}\":{{\"objects\":{n},\"bytes\":{bytes}}}")
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"compare_threads\":{},\"tick_threads\":{},\"simd_backend\":\"{}\",\"touch_no_simd\":{no_simd},\
         \"git_commit\":\"{}\",\"samples\":{},\"inputs\":{{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        threads.compare,
        threads.tick,
        touch_core::simd::backend().name(),
        git_commit(),
        workload.samples(),
        inputs.join(","),
    )
}

/// The commit of the working directory, or `unknown` outside a git
/// checkout. Git is kept from searching directories above it.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(PathBuf::from).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size of this process (the kernel's high-water mark,
/// VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `usage` is a writable struct laid out as Linux's 64-bit
    // `struct rusage` (two `timeval`s, then fourteen `long`s), which is all
    // `getrusage` writes.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if status == 0 {
        usage.maxrss_kib as f64 * 1024.0 / MIB
    } else {
        0.0
    }
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Formats the result line.
fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(",")
    )
}

fn run(args: &Args) -> Result<(Checks, Vec<Metric>), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = Threads::for_nproc(nproc);
    let (built, workload) = harness::timed(|| Workload::build(&args.workload, args.seed, threads));
    let workload = workload?;
    let env = environment(args, threads, &workload);
    println!("env {env}");
    println!("inputs and references built in {:.3} s", built.as_secs_f64());

    if !args.trace {
        let run = workload.end_to_end(args.seconds)?;
        let values = [
            stats::median(&run.setup_s),
            stats::median(&run.op_ms),
            stats::p90(&run.op_ms),
            run.objects_per_s(),
            peak_rss_mib(),
        ];
        println!("ops {} (set-ups {})", run.op_ms.len(), run.setup_s.len());
        println!(
            "unscaled op p50 {:.3} ms, p90 {:.3} ms; host scale median {:.3} (min {:.3}, max {:.3})",
            stats::median(&run.wall_op_ms),
            stats::p90(&run.wall_op_ms),
            stats::median(&run.host_scale),
            run.host_scale.iter().copied().fold(f64::INFINITY, f64::min),
            run.host_scale.iter().copied().fold(0.0, f64::max),
        );
        let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
        return Ok((run.checks, metrics));
    }

    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    workload.per_layer(args.seconds, &mut rec, &mut layers, &mut checks)?;
    layers.push("failed_frac", checks.failed_frac());
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(&path, format!("{{\"env\":{env},\"spans\":{}}}\n", rec.to_json()))
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans {} written to {}", rec.spans().len(), path.display());
    let metrics = PER_LAYER.iter().map(|&(n, u)| (n, layers.value(n), u)).collect();
    Ok((checks, metrics))
}

/// Turns off glibc malloc's adaptive thresholds by pinning them to their
/// defaults, before anything is allocated. glibc raises its mmap and trim
/// thresholds as large blocks are freed, and where they end up depends on
/// the sizes of the first few frees: with them adapting, `serve_churn` ran at
/// 37 or 31 ms per cycle and peaked at 91 or 101 MiB by seed alone. Pinned,
/// every seed gets the same allocator, which maps large buffers from the
/// kernel and returns them on every op.
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const DEFAULT_THRESHOLD: i32 = 128 * 1024;
        for param in [M_TRIM_THRESHOLD, M_MMAP_THRESHOLD] {
            // SAFETY: `mallopt` only sets allocator parameters; it is called
            // before this program starts any thread.
            let _ = unsafe { mallopt(param, DEFAULT_THRESHOLD) };
        }
    }
}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((checks, metrics)) => {
            for (name, value, unit) in &metrics {
                println!("{name:<32} {value:>16.6} {unit}");
            }
            println!("{}", result_json(&checks, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let checks = Checks { attempted: 3, failed: 1 };
        let line = result_json(&checks, &[("op_p50_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"op_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}

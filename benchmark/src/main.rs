//! The repository's end-to-end benchmark.
//!
//! ```text
//! lossburst-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process: times cold set-ups of it in
//! short-lived child processes (the median is `setup_s`), sets it up
//! itself, then repeats whole rounds of its operations until the next round
//! would end past `--seconds`, checking every output outside the timed
//! calls. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics of the traced run.
//! Lines before it, each starting with `#`, are the run header and one line
//! per round. See README.md for the workloads and metrics.

mod bsp;
mod checks;
mod clock;
mod grid;
mod reproduce;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use clock::{calibrate, median, peak_rss_mib};
use trace::{self_times, Tracer};
use workload::{Layers, Round, Workload};

const USAGE: &str =
    "usage: lossburst-benchmark --workload <reproduce-quick|grid-campaign|bsp-sweep> \
--seed <n> --seconds <s> --trace <0|1>";

/// How many cold set-ups a run times, each in a child process of its own;
/// `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// The flag that makes a child process time one cold set-up and exit.
const SETUP_ONLY: &str = "--setup-only";

/// The layers whose self time the traced run reports, with the metric.
const SELF_TIMES: [(&str, &str); 10] = [
    ("campaign", "self.campaign_s"),
    ("emu", "self.emu_s"),
    ("analysis", "self.analysis_s"),
    ("inet", "self.inet_s"),
    ("model", "self.model_s"),
    ("impact", "self.impact_s"),
    ("fairness", "self.fairness_s"),
    ("supervisor", "self.supervisor_s"),
    ("shard", "self.shard_s"),
    ("bsp", "self.bsp_s"),
];

/// Every per-layer metric with its unit. A workload that does not reach a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("pool.busy_s", "s"),
    ("pool.idle_s", "s"),
    ("pool.imbalance", "ratio"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "events/s"),
    ("netsim.timers", "count"),
    ("netsim.arrivals", "count"),
    ("netsim.tx_completes", "count"),
    ("netsim.rate_changes", "count"),
    ("netsim.droptail_cells_s", "s"),
    ("netsim.red_cells_s", "s"),
    ("transport.newreno_s", "s"),
    ("transport.sack_s", "s"),
    ("transport.cubic_s", "s"),
    ("transport.bbr_s", "s"),
    ("transport.tfrc_s", "s"),
    ("emu.cells_s", "s"),
    ("emu.cell_max_s", "s"),
    ("emu.trace_mib", "MiB"),
    ("inet.fig4_s", "s"),
    ("inet.scenario_us", "us"),
    ("inet.path_p50_ms", "ms"),
    ("inet.path_p90_ms", "ms"),
    ("impact.competition_s", "s"),
    ("impact.transfer_p50_s", "s"),
    ("impact.transfer_max_s", "s"),
    ("analysis.batch_s", "s"),
    ("analysis.stream_aggregate_s", "s"),
    ("shard.shards_s", "s"),
    ("shard.merge_s", "s"),
    ("checkpoint.read_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("supervisor.attempts_per_path", "ratio"),
    ("bsp.workers_s", "s"),
    ("bsp.finalize_s", "s"),
    ("bsp.transfers_per_s", "transfers/s"),
    ("bsp.superstep_p50_ms", "ms"),
    ("bsp.superstep_p90_ms", "ms"),
    ("bsp.none_ms", "ms"),
    ("bsp.diversity3_ms", "ms"),
    ("bsp.redundancy10_ms", "ms"),
    ("bsp.burstaware_ms", "ms"),
    ("self.campaign_s", "s"),
    ("self.emu_s", "s"),
    ("self.analysis_s", "s"),
    ("self.inet_s", "s"),
    ("self.model_s", "s"),
    ("self.impact_s", "s"),
    ("self.fairness_s", "s"),
    ("self.supervisor_s", "s"),
    ("self.shard_s", "s"),
    ("self.bsp_s", "s"),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one cold set-up, print it and exit (the set-up children).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (None, None, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            SETUP_ONLY => setup_only = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        setup_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "reproduce-quick" => run::<reproduce::Reproduce>(&args),
        "grid-campaign" => run::<grid::Grid>(&args),
        "bsp-sweep" => run::<bsp::Bsp>(&args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// The commit and dirty flag of the checkout, when it is a git checkout.
fn git_state() -> String {
    if !Path::new(".git").exists() {
        return "commit=unknown dirty=unknown (not a git checkout)".into();
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    format!("commit={commit} dirty={dirty}")
}

fn print_header(args: &Args) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let policy = match rayon::execution_policy() {
        rayon::ExecutionPolicy::Serial => "serial",
        rayon::ExecutionPolicy::StaticChunk => "static",
        rayon::ExecutionPolicy::WorkStealing => "workstealing",
    };
    println!(
        "# lossburst-benchmark workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# {} profile={}",
        git_state(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!(
        "# host_cores={cores} pool_width={} {}={} scheduler={policy}",
        rayon::current_num_threads(),
        rayon::THREADS_ENV,
        std::env::var(rayon::THREADS_ENV).unwrap_or_else(|_| "unset".into()),
    );
}

/// Pool busy time, idle time and imbalance over one round of `run_s`.
fn pool_layers(run_s: f64, out: &mut Layers) {
    let cpu: Vec<f64> = rayon::worker_cpu_nanos()
        .into_iter()
        .filter(|&c| c > 0)
        .map(|c| c as f64 * 1e-9)
        .collect();
    let busy: f64 = cpu.iter().sum();
    let mean = busy / cpu.len().max(1) as f64;
    let max = cpu.iter().copied().fold(0.0, f64::max);
    out.insert("pool.busy_s", busy);
    out.insert(
        "pool.idle_s",
        (rayon::current_num_threads() as f64 * run_s - busy).max(0.0),
    );
    out.insert("pool.imbalance", if mean > 0.0 { max / mean } else { 1.0 });
}

/// Set `W` up once in this process, timed, with a fresh scratch directory.
fn timed_setup<W: Workload>(seed: u64, scratch: &Path) -> Result<(W, f64), String> {
    std::fs::remove_dir_all(scratch).ok();
    let t0 = Instant::now();
    let w = W::setup(seed, scratch);
    let secs = t0.elapsed().as_secs_f64();
    w.map(|w| (w, secs))
        .map_err(|e| format!("set-up failed: {e}"))
}

/// Time `SETUP_REPS` cold set-ups, one after another, each in a child
/// process running this binary with `SETUP_ONLY`. The worker pool starts
/// once per process, so only a fresh process sets up from cold: pool start,
/// configs, enumeration of the work and the scratch directories.
fn cold_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let seed = args.seed.to_string();
    let seconds = args.seconds.to_string();
    (0..SETUP_REPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", "0", SETUP_ONLY])
                .stdin(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("cannot start a set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s="))
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up process exited {}: {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })
        })
        .collect()
}

fn run<W: Workload>(args: &Args) -> i32 {
    let scratch: PathBuf =
        Path::new(".bench_scratch").join(format!("{}-{}", args.workload, std::process::id()));
    if args.setup_only {
        let r = timed_setup::<W>(args.seed, &scratch);
        clean(&scratch);
        return match r {
            Ok((_, secs)) => {
                println!("setup_s={secs}");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }

    print_header(args);
    let calibration_before = calibrate();
    println!("# calibration_before_s={calibration_before:.4}");
    let setups = match cold_setups(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (mut w, first) = match timed_setup::<W>(args.seed, &scratch) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            clean(&scratch);
            return 1;
        }
    };
    println!(
        "# setup_s over {SETUP_REPS} cold set-ups: min={:.6} max={:.6}; this process's own set-up {first:.6}",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
    );

    let tracer = args.trace.then(Tracer::default);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let (mut run_s, mut cpu_s) = (Vec::new(), Vec::new());
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let t0 = Instant::now();
    loop {
        rayon::reset_worker_busy();
        let mut r = Round::new(tracer.as_ref());
        w.round(&mut r);
        println!(
            "# round {}: run_s={:.4} cpu_s={:.4} ops={} failed={} check_failures={}",
            run_s.len(),
            r.spent.wall,
            r.spent.cpu,
            r.attempted,
            r.failed,
            r.errors.len()
        );
        attempted += r.attempted;
        failed += r.failed;
        errors.extend(r.errors);
        run_s.push(r.spent.wall);
        cpu_s.push(r.spent.cpu);
        if let Some(tr) = &tracer {
            let spans = tr.drain();
            let mut m = Layers::new();
            w.layers(&spans, &mut m);
            pool_layers(r.spent.wall, &mut m);
            let st = self_times(&spans);
            for (layer, metric) in SELF_TIMES {
                m.insert(metric, st.get(layer).copied().unwrap_or(0.0));
            }
            m.insert("trace.run_s", r.spent.wall);
            m.insert("trace.spans", spans.len() as f64);
            for (k, v) in m {
                layers.entry(k).or_default().push(v);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / run_s.len() as f64 > args.seconds {
            break;
        }
    }
    let peak = peak_rss_mib();
    clean(&scratch);
    let calibration_after = calibrate();
    println!("# calibration_after_s={calibration_after:.4}");
    for e in errors.iter().take(20) {
        eprintln!("# check failed: {e}");
    }
    if errors.len() > 20 {
        eprintln!("# ... and {} more check failures", errors.len() - 20);
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers.get(name).map(|v| median(v)).unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        vec![
            ("setup_s", median(&setups), "s"),
            ("run_s", median(&run_s), "s"),
            ("cpu_s", median(&cpu_s), "s"),
            ("peak_rss_mib", peak, "MiB"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    0
}

/// Remove this run's scratch directory, and the scratch root if it is left
/// empty.
fn clean(scratch: &Path) {
    std::fs::remove_dir_all(scratch).ok();
    if let Some(root) = scratch.parent() {
        std::fs::remove_dir(root).ok();
    }
}

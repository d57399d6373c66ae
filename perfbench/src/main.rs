//! kge-rs benchmark: three workloads, end-to-end metrics with tracing off
//! and per-layer metrics from a traced replay.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-replica|train-sharded|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest   # prints BENCHMARK.json
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end table with `--trace 0`, the per-layer table with
//! `--trace 1`). A human-readable table goes to standard error, and the
//! full result (provenance, spreads, digests, the workload's headline
//! metrics) to `perfbench/out/`; a traced run also writes its spans there
//! as Chrome trace-event JSON. `python3 perfbench/spread.py` summarises the
//! run-to-run spread of the results found there.

mod digest;
mod metrics;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

use metrics::{num, quote, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{failed_share, Spread};
use trace::Span;

/// Simulated ranks of the training workloads.
pub const RANKS: usize = 2;
/// Worker threads per rank, set explicitly (never taken from the host).
pub const POOL_THREADS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Trace track of the benchmark's own thread (ranks use 0..RANKS).
pub const DRIVER_TRACK: usize = RANKS;
/// `run_seconds` written into BENCHMARK.json.
const RUN_SECONDS: u64 = 15;
const OUT_DIR: &str = "perfbench/out";
const PINS: &str = include_str!("../pins.json");

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Correctness checks: each is one attempted operation; a false one fails.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }

    /// `attempted` operations of one kind, `failed` of them failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && !self.failures.iter().any(|f| f == what) {
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what.to_string());
        }
    }
}

/// What a workload hands back: metrics, provenance and spans.
pub struct RunResult {
    args_line: String,
    seed: u64,
    trace: bool,
    pub metrics: Metrics,
    /// The workload's own end-to-end numbers under their specific names
    /// (train_triples_per_s, sim_epoch_s, serve_p99_ms, ...), with units.
    headlines: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64)>,
    spreads: Vec<(String, Spread)>,
    digests: Vec<(String, String, Option<String>)>,
    pub model_digest: Option<String>,
    pub spans: Vec<Span>,
    pub checks: Checks,
}

impl RunResult {
    pub fn new(args: &RunArgs) -> Self {
        RunResult {
            args_line: format!(
                "--workload {} --seed {} --seconds {} --trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            ),
            seed: args.seed,
            trace: args.trace,
            metrics: Metrics::default(),
            headlines: Vec::new(),
            notes: Vec::new(),
            spreads: Vec::new(),
            digests: Vec::new(),
            model_digest: None,
            spans: Vec::new(),
            checks: Checks::default(),
        }
    }

    pub fn headline(&mut self, name: &str, value: f64, unit: &'static str) {
        self.headlines.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    pub fn spread(&mut self, name: &str, xs: &[f64]) {
        self.spreads.push((name.to_string(), Spread::of(xs)));
    }

    /// Record an input digest and, when one is pinned, count a mismatch
    /// as a failed run.
    pub fn check_input(&mut self, what: &str, got: &str, pinned: Option<String>) {
        if let Some(want) = &pinned {
            self.checks.expect(
                got == want,
                &format!("{what} digest equals the pinned digest"),
            );
        }
        self.digests
            .push((what.to_string(), got.to_string(), pinned));
    }
}

fn parse_args() -> Result<Option<RunArgs>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return Ok(None);
    }
    if argv.iter().any(|a| a == "--explain") {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            println!("{:<40} {:<6} {:<6} {}", m.name, m.unit, m.better, m.why);
        }
        return Ok(None);
    }
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Pinned digests for `workload`: the canary and the pinned seeds.
fn pins_for(workload: &str) -> Result<Vec<(String, String)>, String> {
    let doc = serde_json::from_str(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let Some(serde_json::Value::Object(entries)) = doc.get("inputs").and_then(|i| i.get(workload))
    else {
        return Ok(Vec::new());
    };
    Ok(entries
        .iter()
        .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
        .collect())
}

/// VmHWM of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, read from `.git` in the working directory (no
/// subprocess, nothing read outside the checkout); "unknown" without one.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(&format!(" {r}")))?;
            Some(line.split(' ').next()?.to_string())
        }),
        None => Some(head),
    };
    match rev.map(|r| r.trim().to_string()) {
        Some(r) if r.len() >= 12 => r[..12].to_string(),
        _ => "unknown".to_string(),
    }
}

/// The full result file: provenance, every metric, spreads and digests.
/// `ranks` is the thread budget used: simulated ranks, each with a
/// `POOL_THREADS`-wide pool (serving runs on one thread).
fn result_file(
    res: &RunResult,
    host_cores: usize,
    ranks: usize,
    table: &[metrics::MetricDef],
) -> String {
    let kv = |xs: Vec<String>| format!("{{{}}}", xs.join(","));
    let headlines = kv(res
        .headlines
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(n),
                num(*v),
                quote(u)
            )
        })
        .collect());
    let notes = kv(res
        .notes
        .iter()
        .map(|(n, v)| format!("{}:{}", quote(n), num(*v)))
        .collect());
    let spreads = kv(res
        .spreads
        .iter()
        .map(|(n, s)| {
            format!(
                "{}:{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                quote(n),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            )
        })
        .collect());
    let digests = kv(res
        .digests
        .iter()
        .map(|(n, got, pin)| {
            format!(
                "{}:{{\"digest\":{},\"pinned\":{}}}",
                quote(n),
                quote(got),
                pin.as_deref().map_or("null".to_string(), quote)
            )
        })
        .collect());
    let failures: Vec<String> = res.checks.failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"args\":{},\"git_rev\":{},\"host_cores\":{host_cores},\"seed\":{},\
         \"threads\":{{\"ranks\":{},\"pool_threads_per_rank\":{POOL_THREADS}}},\
         \"model_digest\":{},\"headline\":{headlines},\"metrics\":{},\"spreads\":{spreads},\
         \"notes\":{notes},\"digests\":{digests},\"failed_checks\":[{}]}}\n",
        quote(&res.args_line),
        quote(&git_rev()),
        res.seed,
        ranks,
        res.model_digest
            .as_deref()
            .map_or("null".to_string(), quote),
        res.metrics.render(table),
        failures.join(","),
    )
}

fn run_all(args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("workload {} failed: {status}", w.name));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Thread budget: RANKS simulated ranks, each with an explicit
    // POOL_THREADS-wide worker pool; serving uses one thread.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if RANKS * POOL_THREADS > host_cores {
        eprintln!("perfbench: {RANKS} ranks x {POOL_THREADS} threads exceed the host's {host_cores} cores");
        return ExitCode::FAILURE;
    }
    std::env::set_var("RAYON_NUM_THREADS", POOL_THREADS.to_string());

    let pins = match pins_for(&args.workload) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pinned = |key: &str| pins.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let mut res = match args.workload.as_str() {
        "train-replica" => train::run(&train::REPLICA, &args, &pinned),
        "train-sharded" => train::run(&train::SHARDED, &args, &pinned),
        _ => serve::run(&args, &pinned),
    };
    res.metrics.set("bench.peak_rss_mb", peak_rss_mb());
    let share = failed_share(res.checks.failed, res.checks.attempted);
    res.metrics.set("bench.failed_share", share);
    let rss = res
        .metrics
        .get("peak_rss_mb")
        .expect("workloads measure peak_rss_mb");
    res.headline("peak_rss_mb", rss, "MB");
    res.headline("failed_share", share, "ratio");

    let table: &[metrics::MetricDef] = if res.trace { &PER_LAYER } else { &END_TO_END };
    let ranks = if args.workload == "serve" { 1 } else { RANKS };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{OUT_DIR}/{tag}.json"),
            result_file(&res, host_cores, ranks, table),
        )?;
        if res.trace {
            std::fs::write(
                format!("{OUT_DIR}/{tag}.trace.json"),
                trace::chrome_json(&res.spans, &tag, |t| {
                    if t == DRIVER_TRACK {
                        "benchmark".to_string()
                    } else {
                        format!("rank {t}")
                    }
                }),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing {OUT_DIR}: {e}");
    }

    eprintln!(
        "perfbench {} (seed {}, host_cores {host_cores}, git {})",
        args.workload,
        args.seed,
        git_rev()
    );
    for (name, value, unit) in &res.headlines {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    for m in table {
        if let Some(v) = res.metrics.get(m.name) {
            eprintln!("  {:<36} {v:>16.6} {}", m.name, m.unit);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.checks.failed == 0,
        res.checks.attempted.max(1),
        res.checks.failed,
        res.metrics.render(table)
    );
    ExitCode::SUCCESS
}

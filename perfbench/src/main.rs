//! perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads drive the public API of `topogen`, `routesim`, `irr`,
//! `mrt`, `hybrid_tor` and `hybridd` from outside, with a fixed worker
//! count and explicitly built options:
//!
//! * `paper-batch` — paper-scale synthesis, then repeated E1 reports and
//!   E1+F2 reports (`batch`).
//! * `stream-50k` — a 50,000-AS scenario, then BGP4MP update windows
//!   replayed through `LiveRib` and the ingest caches (`stream`).
//! * `service-paper` — a paper-scale resident snapshot served by an
//!   in-process `hybridd::Server` to closed-loop loopback clients
//!   (`service`).
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1`
//! replays every layer sequentially on the workload's scenario with a
//! span around each call and reports per-layer self times (`layers`).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod inputs;
mod layers;
mod service;
mod stats;
mod stream;
mod trace;

use std::time::Duration;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBatch,
    Stream50k,
    ServicePaper,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "paper-batch" => Ok(Workload::PaperBatch),
            "stream-50k" => Ok(Workload::Stream50k),
            "service-paper" => Ok(Workload::ServicePaper),
            other => Err(format!(
                "unknown workload {other:?}; expected paper-batch, stream-50k or service-paper"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper-batch",
            Workload::Stream50k => "stream-50k",
            Workload::ServicePaper => "service-paper",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set the workload up once, print the elapsed seconds and exit (the
    /// child-process form of a set-up repetition).
    setup_only: bool,
}

/// The flag that makes a child process run one set-up repetition.
const SETUP_ONLY: &str = "--setup-only";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == SETUP_ONLY {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag} {v:?} is not a count"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_only { 0 } else { seconds.ok_or("--seconds is required")? },
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// One set-up of `workload`, in this process; returns its elapsed time.
fn setup_once(workload: Workload, seed: u64) -> Duration {
    match workload {
        Workload::PaperBatch => batch::setup(seed).1,
        Workload::Stream50k => stream::setup(seed).1,
        Workload::ServicePaper => service::setup(seed).1,
    }
}

/// `setup_s`: the median of `in_process` and `SETUP_REPS - 1` further
/// set-ups, each run in a child process of this binary.
pub fn setup_seconds(workload: Workload, seed: u64, in_process: Duration) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut seconds = vec![in_process.as_secs_f64()];
    for _ in 1..inputs::SETUP_REPS {
        let seed = seed.to_string();
        let child = std::process::Command::new(&exe)
            .args([SETUP_ONLY, "--workload", workload.name(), "--seed", seed.as_str()])
            .output()
            .expect("start a set-up child process");
        let stdout = String::from_utf8_lossy(&child.stdout);
        let elapsed = stdout.trim().parse::<f64>().ok().filter(|_| child.status.success());
        seconds.push(elapsed.unwrap_or_else(|| {
            panic!(
                "set-up child failed ({}): {}",
                child.status,
                String::from_utf8_lossy(&child.stderr)
            )
        }));
    }
    stats::median(&seconds)
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run measured and checked.
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

/// The end-to-end metrics every untraced run prints (see README.md for
/// what each means on each workload).
pub const END_TO_END: [&str; 5] =
    ["setup_s", "result_ms", "slow_result_ms", "results_per_s", "peak_rss_mb"];

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    // The library's experiment harness reads HYBRID_* knobs from the
    // environment; none of the calls below do, but a stray knob would
    // still mislabel what was measured, so refuse to run at all.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("HYBRID_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with HYBRID_* knobs set: {}", knobs.join(", "));
        std::process::exit(2);
    }

    if args.setup_only {
        println!("{}", setup_once(args.workload, args.seed).as_secs_f64());
        return;
    }
    let seconds = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        layers::run(args.workload, args.seed)
    } else {
        match args.workload {
            Workload::PaperBatch => batch::run(args.seed, seconds),
            Workload::Stream50k => stream::run(args.seed, seconds),
            Workload::ServicePaper => service::run(args.seed, seconds),
        }
    };
    let expected: &[&str] = if args.trace { &layers::PER_LAYER } else { &END_TO_END };
    let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    assert_eq!(printed, expected, "metric list out of step with BENCHMARK.json");

    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", render(&outcome));
}

//! `paper-batch`: synthesise the paper-scale scenario, then alternate the
//! E1 report (`Pipeline::run`) and the E1+F2 report (with the Figure 2
//! correction sweep) until the measuring time is up.

use std::time::{Duration, Instant};

use hybrid_tor::pipeline::{Pipeline, PipelineInput};
use hybrid_tor::Report;
use routesim::Scenario;

use crate::inputs;
use crate::stats::{digest, median, peak_rss_mb};
use crate::{Outcome, Workload};

/// At least this many E1/E1+F2 pairs are measured, however short the run.
const MIN_PAIRS: usize = 5;

/// One timed report: input assembly (pooling, dictionary) plus the run.
pub fn timed_report(scenario: &Scenario, pipeline: &Pipeline) -> (Duration, Report) {
    let start = Instant::now();
    let input = PipelineInput::builder()
        .scenario(scenario)
        .options(pipeline.options)
        .build()
        .expect("scenario inputs cannot fail");
    let report = pipeline.run(input);
    (start.elapsed(), report)
}

/// Set-up: synthesise the paper-scale scenario.
pub fn setup(seed: u64) -> (Scenario, Duration) {
    let scale = inputs::paper(seed);
    let start = Instant::now();
    let scenario = Scenario::build(&scale.topology, &scale.sim);
    (scenario, start.elapsed())
}

pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let (scenario, elapsed) = setup(seed);
    let setup_s = crate::setup_seconds(Workload::PaperBatch, seed, elapsed);

    let (e1, f2) = (inputs::e1_pipeline(), inputs::f2_pipeline());
    let (mut e1_ms, mut f2_ms) = (Vec::new(), Vec::new());
    let (mut e1_digests, mut f2_digests) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while e1_ms.len() < MIN_PAIRS || started.elapsed() < seconds {
        let (elapsed, report) = timed_report(&scenario, &e1);
        e1_ms.push(elapsed.as_secs_f64() * 1e3);
        e1_digests.push(digest(report.to_json().as_bytes()));
        let (elapsed, report) = timed_report(&scenario, &f2);
        f2_ms.push(elapsed.as_secs_f64() * 1e3);
        f2_digests.push(digest(report.to_json().as_bytes()));
    }

    let peak_rss_mb = peak_rss_mb();

    // Every report of a kind must be byte-identical, and equal to the
    // digest recorded for this seed when there is one.
    let recorded = inputs::recorded_digests(seed);
    let expected_e1 = recorded.map_or(e1_digests[0], |(e1, _)| e1);
    let expected_f2 = recorded.map_or(f2_digests[0], |(_, f2)| f2);
    let failed = e1_digests.iter().filter(|&&d| d != expected_e1).count()
        + f2_digests.iter().filter(|&&d| d != expected_f2).count();
    let attempted = e1_digests.len() + f2_digests.len();
    let busy_s = (e1_ms.iter().sum::<f64>() + f2_ms.iter().sum::<f64>()) / 1e3;

    let report_s = median(&e1_ms) / 1e3;
    let impact_report_s = median(&f2_ms) / 1e3;
    Outcome {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("result_ms", median(&e1_ms), "ms"),
            ("slow_result_ms", median(&f2_ms), "ms"),
            ("results_per_s", attempted as f64 / busy_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        notes: vec![
            format!(
                "paper-batch seed {seed}: {} RIB entries, {} E1 + {} E1+F2 reports",
                scenario.total_rib_entries(),
                e1_ms.len(),
                f2_ms.len()
            ),
            format!("report_s {report_s:.4}  impact_report_s {impact_report_s:.4}"),
            format!("E1 ms {e1_ms:.0?}  E1+F2 ms {f2_ms:.0?}"),
            format!(
                "digests: {seed} {:016x} {:016x} (recorded: {})",
                e1_digests[0],
                f2_digests[0],
                if recorded.is_some() { "yes" } else { "no" }
            ),
        ],
    }
}

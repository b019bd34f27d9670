//! Quickstart: simulate a small Internet, run the paper's measurement
//! pipeline, and print the report.
//!
//! ```sh
//! cargo run --release --example quickstart            # human-readable report
//! cargo run --release --example quickstart -- --json  # JSON report
//! cargo run --release --example quickstart -- --seed 7 --scale small
//! cargo run --release --example quickstart -- --threads 1   # sequential run
//! ```
//!
//! `--threads 0` (the default) uses all available cores; the report is
//! byte-identical at every thread count.

use hybrid_as_rel::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(20100801);
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(0);
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "tiny".to_string());

    let mut topology = match scale.as_str() {
        "small" => TopologyConfig::small(),
        "default" => TopologyConfig::default(),
        _ => TopologyConfig::tiny(),
    };
    topology.seed = seed;

    eprintln!(
        "generating a synthetic Internet: {} ASes (seed {seed}) ...",
        topology.total_as_count()
    );
    let scenario = Scenario::build(&topology, &SimConfig::small().with_concurrency(threads));
    eprintln!(
        "collectors recorded {} RIB entries; IRR documents {} ASes",
        scenario.total_rib_entries(),
        scenario.registry.len()
    );

    eprintln!("running the hybrid-relationship measurement pipeline ...");
    let pipeline = Pipeline::with_concurrency(threads);
    let report = pipeline.run(
        PipelineInput::builder()
            .scenario(&scenario)
            .options(pipeline.options)
            .build()
            .expect("scenario inputs cannot fail"),
    );

    if json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
        println!(
            "ground truth for comparison: {} hybrid links injected ({:.1}% of dual-stack links)",
            scenario.truth.hybrid_links.len(),
            100.0 * scenario.truth.hybrid_fraction()
        );
    }
}

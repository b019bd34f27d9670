//! The inputs every workload builds from its `--seed`, and the execution
//! options it runs them with. Everything is set explicitly here; nothing
//! is read from `HYBRID_*` variables.

use hybrid_tor::impact::SweepOptions;
use hybrid_tor::pipeline::{Pipeline, PipelineOptions};
use routesim::SimConfig;
use topogen::TopologyConfig;

use crate::stats::sub_seed;

/// Worker threads for synthesis, the pipeline, the sweep and the server.
pub const WORKERS: usize = 2;

/// How many times a run sets up its workload; `setup_s` is the median.
/// All but one set-up run in child processes, so each starts from a fresh
/// heap and the measured process holds only one set-up's memory.
pub const SETUP_REPS: usize = 3;

/// The Figure 2 sweep the E1+F2 report runs: correct the 20 most visible
/// hybrids, measuring over at most 400 BFS sources.
pub const IMPACT_TOP_K: usize = 20;
pub const IMPACT_SOURCE_CAP: usize = 400;

/// Events per synthetic update window.
pub const EVENTS_PER_WINDOW: usize = 1000;

/// Sub-seed tags, one per input generator.
const SIMULATION: u64 = 2;
pub const UPDATES: u64 = 3;
pub const QUERIES: u64 = 4;

/// One scenario's configuration pair.
pub struct Scale {
    pub topology: TopologyConfig,
    pub sim: SimConfig,
}

/// Paper scale: 6,012 ASes, every origin, 4 collectors x 12 feeders.
pub fn paper(seed: u64) -> Scale {
    seeded(TopologyConfig::default(), SimConfig::default(), seed)
}

/// The 50,000-AS internet-shaped topology, every 128th origin propagated.
pub fn internet_50k(seed: u64) -> Scale {
    seeded(TopologyConfig::internet_50k(), SimConfig::default().with_origin_sample(128), seed)
}

fn seeded(topology: TopologyConfig, sim: SimConfig, seed: u64) -> Scale {
    Scale {
        topology,
        sim: SimConfig { seed: sub_seed(seed, SIMULATION), ..sim }
            .with_concurrency(WORKERS)
            .with_frontier(1)
            .with_scheduling(routesim::OriginScheduling::Degree)
            .with_csr(true),
    }
}

/// Pipeline execution options: `WORKERS` threads, sweep memoisation and
/// incremental repair on, removal repair off (the library defaults,
/// pinned).
pub fn options() -> PipelineOptions {
    PipelineOptions::with_concurrency(WORKERS)
        .with_frontier(1)
        .with_scheduling(routesim::OriginScheduling::Degree)
        .with_csr(true)
        .with_sweep(
            SweepOptions::with_concurrency(WORKERS)
                .with_incremental(true)
                .with_removal_repair(false),
        )
}

/// The E1 measurement pipeline (no Figure 2 sweep).
pub fn e1_pipeline() -> Pipeline {
    Pipeline { options: options(), ..Pipeline::default() }
}

/// The E1+F2 pipeline: E1 plus the Figure 2 correction sweep.
pub fn f2_pipeline() -> Pipeline {
    Pipeline { options: options(), ..Pipeline::with_impact(IMPACT_TOP_K, Some(IMPACT_SOURCE_CAP)) }
}

/// Recorded report digests, `seed e1 f2` per line (hex FNV-1a of the
/// report JSON), for the paper-batch check.
const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded `(e1, f2)` digests for `seed`, if any.
pub fn recorded_digests(seed: u64) -> Option<(u64, u64)> {
    DIGESTS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut fields = line.split_whitespace();
        let s: u64 = fields.next()?.parse().ok()?;
        let e1 = u64::from_str_radix(fields.next()?, 16).ok()?;
        let f2 = u64::from_str_radix(fields.next()?, 16).ok()?;
        (s == seed).then_some((e1, f2))
    })
}

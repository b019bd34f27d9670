//! `stream-50k`: synthesise a 50,000-AS scenario, then replay update
//! windows that arrive as BGP4MP bytes through `LiveRib`, the ingest
//! caches and `Pipeline::run_with_caches`, one report per window.

use std::time::{Duration, Instant};

use asgraph::RemovalPolicy;
use bgp_types::RibSnapshot;
use bytes::Bytes;
use hybrid_tor::ingest::{ApplyStats, IngestCaches, LiveRib, UpdateStream};
use hybrid_tor::pipeline::PipelineInput;
use irr::CommunityDictionary;
use mrt::MrtRecord;
use routesim::{Scenario, UpdateStreamConfig};
use topogen::GroundTruth;

use crate::inputs::{self, EVENTS_PER_WINDOW, WORKERS};
use crate::stats::{digest, peak_rss_mb, percentile, sub_seed};
use crate::{Outcome, Workload};

/// At least this many windows are replayed, however short the run, so the
/// 90th percentile has ten samples beyond it.
pub const MIN_WINDOWS: usize = 100;

/// Windows synthesised per run; the replay stops early when time is up.
const MAX_WINDOWS: usize = 200;

/// The update stream as it arrives: BGP4MP records on the wire. Making it
/// is input generation, not part of the measured program.
pub fn stream_bytes(scenario: &Scenario, seed: u64, windows: usize) -> Bytes {
    let config = UpdateStreamConfig {
        windows,
        events_per_window: EVENTS_PER_WINDOW,
        seed: sub_seed(seed, inputs::UPDATES),
    };
    UpdateStream::from_windows(scenario.update_stream(&config)).to_bytes()
}

/// Decode the BGP4MP bytes into update windows.
pub fn decode(bytes: Bytes) -> UpdateStream {
    UpdateStream::from_bytes(bytes).expect("synthesised stream decodes")
}

/// A live ingest session over one scenario.
pub struct Session {
    /// The pooled table the session started from.
    pub base: RibSnapshot,
    pub live: LiveRib,
    pub caches: IngestCaches,
    pub dictionary: CommunityDictionary,
    pub truth: GroundTruth,
}

impl Session {
    /// Seed the resident table and caches from the scenario's pooled RIB.
    pub fn new(scenario: &Scenario) -> Self {
        let base = scenario.pooled_snapshot(WORKERS);
        let live = LiveRib::from_snapshot(&base);
        // Rebuild is the removal policy of the default sweep options.
        let caches = IngestCaches::from_rib(&live, RemovalPolicy::Rebuild);
        Session {
            base,
            live,
            caches,
            dictionary: scenario.registry.build_dictionary(),
            truth: scenario.truth.clone(),
        }
    }

    /// Apply one window's records to the table and the extraction cache.
    pub fn apply(&mut self, window: &[MrtRecord], stats: &mut ApplyStats) {
        for record in window {
            for delta in self.live.apply_record(record, stats) {
                self.caches.extract.apply(&delta);
            }
        }
    }

    /// The pipeline input for a table state.
    pub fn input(&self, snapshot: RibSnapshot) -> PipelineInput {
        PipelineInput {
            snapshot,
            dictionary: self.dictionary.clone(),
            truth: Some(self.truth.clone()),
        }
    }

    /// Replay `windows` on a fresh table from the session's base and count
    /// the windows whose report digest differs from a full `Pipeline::run`
    /// of the same table state.
    pub fn mismatches(&self, windows: &[Vec<MrtRecord>], digests: &[u64]) -> usize {
        let pipeline = inputs::e1_pipeline();
        let mut live = LiveRib::from_snapshot(&self.base);
        let mut stats = ApplyStats::default();
        windows
            .iter()
            .zip(digests)
            .filter(|(window, &reported)| {
                for record in window.iter() {
                    live.apply_record(record, &mut stats);
                }
                let full = pipeline.run(self.input(live.snapshot()));
                digest(full.to_json().as_bytes()) != reported
            })
            .count()
    }
}

/// Set-up: synthesise the 50k scenario, decode the update stream that
/// arrives for it and seed a live session. Making the stream's bytes is
/// input generation and is left out of the elapsed time.
pub fn setup(seed: u64) -> ((UpdateStream, Session), Duration) {
    let scale = inputs::internet_50k(seed);
    let start = Instant::now();
    let scenario = Scenario::build(&scale.topology, &scale.sim);
    let mut elapsed = start.elapsed();
    let bytes = stream_bytes(&scenario, seed, MAX_WINDOWS);
    let start = Instant::now();
    let live = (decode(bytes), Session::new(&scenario));
    elapsed += start.elapsed();
    (live, elapsed)
}

pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let ((stream, mut session), elapsed) = setup(seed);
    let setup_s = crate::setup_seconds(Workload::Stream50k, seed, elapsed);

    let pipeline = inputs::e1_pipeline();
    let mut window_ms = Vec::with_capacity(stream.len());
    let mut digests = Vec::with_capacity(stream.len());
    let (mut apply, mut resets) = (ApplyStats::default(), 0);
    let started = Instant::now();
    for window in stream.windows() {
        if window_ms.len() >= MIN_WINDOWS && started.elapsed() >= seconds {
            break;
        }
        let start = Instant::now();
        session.apply(window, &mut apply);
        let input = session.input(session.live.snapshot());
        let (report, _) = pipeline.run_with_caches(input, &mut session.caches);
        window_ms.push(start.elapsed().as_secs_f64() * 1e3);

        resets += session.caches.valley.take_stats().resets;
        digests.push(digest(report.to_json().as_bytes()));
    }
    let peak_rss_mb = peak_rss_mb();
    let failed = session.mismatches(stream.windows(), &digests);

    let busy_s = window_ms.iter().sum::<f64>() / 1e3;
    let (p50, p90) = (percentile(&window_ms, 50.0), percentile(&window_ms, 90.0));
    Outcome {
        attempted: window_ms.len() as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("result_ms", p50, "ms"),
            ("slow_result_ms", p90, "ms"),
            ("results_per_s", window_ms.len() as f64 / busy_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        notes: vec![
            format!(
                "stream-50k seed {seed}: {} windows of {EVENTS_PER_WINDOW} events, {} routes resident, {} changed, {} redundant, {} valley-cache resets",
                window_ms.len(),
                session.live.len(),
                apply.changed,
                apply.redundant,
                resets
            ),
            format!("window_p50_ms {p50:.3}  window_p90_ms {p90:.3}"),
        ],
    }
}

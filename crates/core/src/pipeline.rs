//! End-to-end orchestration of the measurement.

use std::path::{Path, PathBuf};

use bgp_types::{IpVersion, RibSnapshot};
use irr::{CommunityDictionary, IrrRegistry};
use topogen::GroundTruth;

use crate::baselines::{gao_inference, BaselineInput, InferenceAccuracy};
use crate::communities::{CommunityInference, InferenceSource};
use crate::extract::extract;
use crate::hybrid::detect_hybrids;
use crate::impact::{correction_sweep_in, ImpactOptions, SweepCache, SweepOptions, SweepStats};
use crate::ingest::{run_valley_stage, ApplyStats, IngestCaches, LiveRib, UpdateStream};
use crate::locpref::LocPrfRosetta;
use crate::report::{DatasetSummary, Report};

/// The data a pipeline run consumes: a pooled RIB snapshot, the community
/// dictionary mined from the IRR, and (optionally, for simulated
/// scenarios) the ground truth for accuracy evaluation.
#[derive(Debug, Clone)]
pub struct PipelineInput {
    /// The pooled collector snapshot.
    pub snapshot: RibSnapshot,
    /// The community dictionary.
    pub dictionary: CommunityDictionary,
    /// Ground truth, when available.
    pub truth: Option<GroundTruth>,
}

impl PipelineInput {
    /// Start describing an input: pick one base source (a simulated
    /// scenario, MRT files on disk, or a raw snapshot), optionally replay
    /// an [`UpdateStream`] on top of it, and set the execution options
    /// once.
    ///
    /// ```
    /// use hybrid_tor::pipeline::PipelineInput;
    /// use routesim::{Scenario, SimConfig};
    /// use topogen::TopologyConfig;
    ///
    /// let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
    /// let input = PipelineInput::builder().scenario(&scenario).build().unwrap();
    /// assert!(input.snapshot.len() > 0);
    /// ```
    pub fn builder() -> PipelineInputBuilder<'static> {
        PipelineInputBuilder::default()
    }
}

/// One base source for a [`PipelineInputBuilder`].
#[derive(Debug, Default)]
enum InputSource<'a> {
    /// No source chosen yet; [`PipelineInputBuilder::build`] rejects it.
    #[default]
    Empty,
    /// A simulated scenario (snapshot pooling + registry parsing).
    Scenario(&'a routesim::Scenario),
    /// MRT TABLE_DUMP_V2 files plus an IRR registry dump on disk.
    Files { mrt: Vec<PathBuf>, registry: PathBuf },
    /// An already-pooled snapshot with its dictionary (and optional
    /// truth). Boxed: the assembled input dwarfs the other variants.
    Snapshot(Box<PipelineInput>),
}

/// Builder for [`PipelineInput`]: one base source, an optional update
/// stream replayed on top of it, and the execution options — declared
/// once, in one place (see [`PipelineInput::builder`]).
#[derive(Debug, Default)]
pub struct PipelineInputBuilder<'a> {
    options: PipelineOptions,
    source: InputSource<'a>,
    updates: Option<&'a UpdateStream>,
}

impl<'a> PipelineInputBuilder<'a> {
    /// Use a simulated scenario as the base source (replaces any source
    /// chosen earlier): its collectors are pooled — sharded, alongside the
    /// IRR dictionary build, when more than one worker is allowed — and
    /// its ground truth is carried along. The pooled entry order is
    /// worker-count independent.
    pub fn scenario(self, scenario: &'a routesim::Scenario) -> Self {
        PipelineInputBuilder { source: InputSource::Scenario(scenario), ..self }
    }

    /// Use MRT files plus an IRR registry dump as the base source
    /// (replaces any source chosen earlier) — the shape a measurement
    /// against real archives would take. The files are parsed on worker
    /// threads and merged in path order, so the pooled snapshot — and the
    /// first error surfaced, if any — are the same at every worker count.
    pub fn files(self, mrt_paths: &[impl AsRef<Path>], registry_path: impl AsRef<Path>) -> Self {
        let source = InputSource::Files {
            mrt: mrt_paths.iter().map(|p| p.as_ref().to_path_buf()).collect(),
            registry: registry_path.as_ref().to_path_buf(),
        };
        PipelineInputBuilder { source, ..self }
    }

    /// Use an already-pooled snapshot as the base source (replaces any
    /// source chosen earlier). `truth` enables accuracy evaluation.
    pub fn snapshot(
        self,
        snapshot: RibSnapshot,
        dictionary: CommunityDictionary,
        truth: Option<GroundTruth>,
    ) -> Self {
        PipelineInputBuilder {
            source: InputSource::Snapshot(Box::new(PipelineInput { snapshot, dictionary, truth })),
            ..self
        }
    }

    /// Replay an update stream on top of the base source: the built input
    /// holds the [`LiveRib`] state after the stream's last window — the
    /// one-shot "table at time T" shape. For per-window measurement use
    /// [`crate::ingest::TemporalSweep`] instead.
    pub fn updates(self, stream: &'a UpdateStream) -> Self {
        PipelineInputBuilder { updates: Some(stream), ..self }
    }

    /// Execution options for source assembly (pooling / file-parse
    /// parallelism). Execution only — the built input is byte-identical
    /// at every worker count.
    pub fn options(self, options: PipelineOptions) -> Self {
        PipelineInputBuilder { options, ..self }
    }

    /// Assemble the input. Fails when no source was chosen or a file
    /// source fails to read.
    pub fn build(self) -> Result<PipelineInput, std::io::Error> {
        let options = self.options;
        let mut input = match self.source {
            InputSource::Empty => {
                return Err(std::io::Error::other(
                    "PipelineInput::builder(): no source chosen (scenario / files / snapshot)",
                ))
            }
            InputSource::Scenario(scenario) => {
                // The caller thread builds the dictionary, so pooling gets
                // one worker less to keep the total at the budget.
                let workers = options.workers();
                let (snapshot, dictionary) = join(
                    workers,
                    || scenario.pooled_snapshot((workers - 1).max(1)),
                    || scenario.registry.build_dictionary(),
                );
                PipelineInput { snapshot, dictionary, truth: Some(scenario.truth.clone()) }
            }
            InputSource::Files { mrt, registry } => {
                let parsed = routesim::shard_map(&mrt, options.workers(), |path| {
                    mrt::read_snapshot_from_path(path)
                        .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
                });
                let mut snapshot = RibSnapshot::default();
                for snap in parsed {
                    snapshot.merge(snap?);
                }
                let registry = IrrRegistry::load(registry)?;
                PipelineInput { snapshot, dictionary: registry.build_dictionary(), truth: None }
            }
            InputSource::Snapshot(input) => *input,
        };
        if let Some(stream) = self.updates {
            let mut live = LiveRib::from_snapshot(&input.snapshot);
            let mut stats = ApplyStats::default();
            for record in stream.windows().iter().flatten() {
                live.apply_record(record, &mut stats);
            }
            input.snapshot = live.snapshot();
        }
        Ok(input)
    }
}

/// Execution options for the pipeline: how much of the hardware to use.
///
/// Parallelism in this codebase is an execution detail, never an output
/// knob — every worker count produces byte-identical reports (the
/// determinism suite runs the same seeds at `concurrency` 1, 2 and 8 and
/// compares the JSON byte-for-byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Worker threads for the parallel sections: `0` uses all available
    /// parallelism (the default), `1` is the fully sequential path.
    pub concurrency: usize,
    /// Worker threads for the within-origin frontier expansion of any
    /// route propagation run on this pipeline's behalf (`0` = all cores,
    /// `1` — the default — = sequential level scans). The pipeline itself
    /// consumes already-propagated snapshots; callers that build or
    /// rebuild scenarios for a run stamp it onto
    /// `SimConfig::frontier_concurrency` through
    /// [`configure_sim`](Self::configure_sim). Selectable from code only
    /// (the experiment bins always run the default; the determinism
    /// suite's `frontier_matrix_*` row covers the others). Execution only
    /// — never a byte of the report.
    pub frontier_concurrency: usize,
    /// How route propagation assigns origins to its workers. There is one
    /// schedule ([`routesim::OriginScheduling::Degree`]); the field and
    /// [`with_scheduling`](Self::with_scheduling) remain only because the
    /// end-to-end benchmark pins them by name.
    pub scheduling: routesim::OriginScheduling,
    /// Serve the pipeline's graph walks (hybrid detection, valley
    /// analysis, the correction sweep) from the frozen CSR mirror of the
    /// extracted graph (`true`, the default) or the adjacency-map
    /// reference backend (`false`). Resolved into `SimConfig::csr` by
    /// [`configure_sim`](Self::configure_sim); execution only — the CSR
    /// iterates neighbours in adjacency order, so reports are
    /// byte-identical either way.
    pub csr: bool,
    /// Execution options for the Figure 2 impact subsystem (worker threads
    /// for the sharded correction sweep and the cross-step memoization
    /// switch). `SweepOptions::default()` — all cores, cache on — is what
    /// `PipelineOptions::default()` carries; like `concurrency`, the knob
    /// never changes the report bytes.
    pub sweep: SweepOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            concurrency: 0,
            frontier_concurrency: 1,
            scheduling: routesim::OriginScheduling::default(),
            csr: true,
            sweep: SweepOptions::default(),
        }
    }
}

impl PipelineOptions {
    /// Options pinned to `concurrency` worker threads (the sweep follows
    /// the same worker count, with memoization enabled; the frontier
    /// expansion stays sequential unless [`with_frontier`](Self::with_frontier)
    /// retunes it).
    pub fn with_concurrency(concurrency: usize) -> Self {
        PipelineOptions {
            concurrency,
            sweep: SweepOptions::with_concurrency(concurrency),
            ..Default::default()
        }
    }

    /// The fully sequential execution path (sweep memoization stays on —
    /// it trades memory, not determinism).
    pub fn sequential() -> Self {
        Self::with_concurrency(1)
    }

    /// These options with the given sweep execution settings.
    pub fn with_sweep(self, sweep: SweepOptions) -> Self {
        PipelineOptions { sweep, ..self }
    }

    /// These options with the given within-origin frontier worker count.
    pub fn with_frontier(self, frontier_concurrency: usize) -> Self {
        PipelineOptions { frontier_concurrency, ..self }
    }

    /// These options with the given origin-to-worker schedule.
    pub fn with_scheduling(self, scheduling: routesim::OriginScheduling) -> Self {
        PipelineOptions { scheduling, ..self }
    }

    /// These options with the CSR mirror enabled (`true`) or the
    /// adjacency-map reference backend (`false`).
    pub fn with_csr(self, csr: bool) -> Self {
        PipelineOptions { csr, ..self }
    }

    /// The worker count these options resolve to (`0` = all cores).
    pub fn workers(&self) -> usize {
        routesim::effective_concurrency(self.concurrency)
    }

    /// Stamp these options' execution fields onto a simulator
    /// configuration so a scenario built for this pipeline run propagates
    /// under the same worker budget, frontier split, origin schedule and
    /// graph backend. The four fields are overwritten unconditionally —
    /// they are byte-invisible by contract — and the configuration's
    /// output knobs (`policy_scenario`, `policy_deployment`, …) are left
    /// as they are.
    pub fn configure_sim(&self, sim: routesim::SimConfig) -> routesim::SimConfig {
        routesim::SimConfig {
            concurrency: self.concurrency,
            frontier_concurrency: self.frontier_concurrency,
            scheduling: self.scheduling,
            csr: self.csr,
            ..sim
        }
    }
}

/// The intermediate products of a pipeline run that a resident service
/// wants to keep alive after the report is assembled: the extracted
/// per-plane data, the final (LocPrf-extended) inference, and the
/// inference-annotated graph the valley analysis walked. A one-shot
/// experiment drops these; a query daemon answers relationship,
/// customer-tree, visibility and what-if queries straight from them
/// without a second `Pipeline::run`.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// The extracted graph, paths and entry counts.
    pub data: crate::extract::ExtractedData,
    /// The community inference after the LocPrf extension.
    pub inference: CommunityInference,
    /// `data.graph` with the inferred relationships annotated onto it —
    /// the graph every relationship/valley point query reads.
    pub annotated: asgraph::AsGraph,
    /// How the Figure 2 sweep executed (memo hits, delta repairs vs full
    /// BFS); `Some` exactly when the sweep ran. The counters describe
    /// execution, not the measurement — they depend on the sweep knobs —
    /// so they stay out of the report.
    pub sweep_stats: Option<SweepStats>,
}

/// What to measure: the paper's fixed measurement (E1 coverage, the
/// E2–E4 census, baseline accuracy whenever the input carries ground
/// truth), plus the Figure 2 sweep when `impact` is set. A report's bytes
/// depend only on the input and `impact`; `options` say how to run, never
/// what comes out.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Run the Figure 2 customer-tree correction sweep (all-pairs valley-
    /// free BFS over the tree union — the expensive part) with these
    /// options.
    pub impact: Option<ImpactOptions>,
    /// Execution options (worker threads for the parallel sections).
    pub options: PipelineOptions,
}

/// Run `a` on a scoped helper thread while the caller runs `b` when
/// `workers > 1`; otherwise run both inline, `a` first. The pipeline's
/// one fork primitive: every concurrent stage pair goes through it.
fn join<RA: Send, RB>(
    workers: usize,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB,
) -> (RA, RB) {
    if workers <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let a = scope.spawn(a);
        let b = b();
        (a.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), b)
    })
}

impl Pipeline {
    /// A pipeline that also runs the Figure 2 sweep.
    pub fn with_impact(top_k: usize, source_cap: Option<usize>) -> Self {
        Pipeline { impact: Some(ImpactOptions { top_k, source_cap }), ..Default::default() }
    }

    /// A pipeline pinned to `concurrency` worker threads.
    pub fn with_concurrency(concurrency: usize) -> Self {
        Pipeline { options: PipelineOptions::with_concurrency(concurrency), ..Default::default() }
    }

    /// Run the full measurement and produce a [`Report`].
    ///
    /// The stages run as one fixed sequence: extraction ‖ community
    /// inference → CSR freeze → LocPrf extension → hybrid detection ‖
    /// (valley analysis ‖ Gao baseline) → dataset summary and baseline
    /// accuracy → the optional Figure 2 sweep. Each `‖` is a fork point:
    /// with more than one worker the left side runs on a helper thread
    /// while the caller runs the right side, and the inner valley ‖ Gao
    /// fork needs a third worker. With one worker every stage runs inline
    /// on the caller. Each stage computes exactly the same thing wherever
    /// it runs, so the report is byte-identical at every worker count.
    pub fn run(&self, input: PipelineInput) -> Report {
        self.run_with_artifacts(input).0
    }

    /// [`run`](Self::run), additionally returning the
    /// [`PipelineArtifacts`] the run produced along the way. The report is
    /// byte-identical to [`run`](Self::run) — the artifacts are state the
    /// run already built (the annotated graph existed transiently inside
    /// the valley-analysis stage) handed to the caller instead of dropped.
    pub fn run_with_artifacts(&self, input: PipelineInput) -> (Report, PipelineArtifacts) {
        self.run_inner(input, None)
    }

    /// [`run_with_artifacts`](Self::run_with_artifacts) against a live
    /// ingest session: the extraction stage materialises the incrementally
    /// maintained counters in `caches.extract` instead of rescanning the
    /// snapshot, and the valley stage's reachability oracle serves from
    /// the delta-repaired distance maps in `caches.valley`. Both caches
    /// are exact, so the report is byte-identical to
    /// [`run`](Self::run) over the same input — the streaming driver
    /// ([`crate::ingest::TemporalSweep`]) pins that per window, and the
    /// determinism suite pins it across worker counts.
    pub fn run_with_caches(
        &self,
        input: PipelineInput,
        caches: &mut IngestCaches,
    ) -> (Report, PipelineArtifacts) {
        self.run_inner(input, Some(caches))
    }

    fn run_inner(
        &self,
        input: PipelineInput,
        caches: Option<&mut IngestCaches>,
    ) -> (Report, PipelineArtifacts) {
        let PipelineInput { snapshot, dictionary, truth } = input;
        let workers = self.options.workers();
        // Split the cache bundle: extraction reads one half, the valley
        // stage mutates the other.
        let (extract_cache, valley_cache) = match caches {
            Some(caches) => (Some(&caches.extract), Some(&mut caches.valley)),
            None => (None, None),
        };

        // 1+2. Extraction and communities-based inference are independent
        //      scans of the pooled snapshot. A streaming session skips the
        //      extraction scan entirely: the counters were maintained
        //      route-by-route as updates applied.
        let communities = || CommunityInference::from_snapshot(&snapshot, &dictionary);
        let (mut data, mut inference) = match extract_cache {
            Some(cache) => (cache.materialize(), communities()),
            None => join(workers, || extract(&snapshot), communities),
        };
        if self.options.csr {
            // Freeze once the graph is structurally complete; every later
            // stage only *annotates* (which the frozen mirror absorbs in
            // place), so hybrid detection, valley analysis, the baseline
            // and the correction sweep — and any clone they take — all
            // walk the flat CSR arrays.
            data.graph.freeze();
        }

        // 3. LocPrf Rosetta Stone (reads and extends the inference, so it
        //    stays on the critical path).
        let mut rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
        rosetta.apply(&snapshot, &dictionary, &mut inference);

        // 4+5+7a. Hybrid detection, valley analysis and the Gao baseline
        //         all read (data, inference) without touching each other.
        //         The caller thread counts against the worker budget:
        //         hybrids take a helper, and valleys fork from the baseline
        //         only when a third worker is left.
        let valleys = || {
            let mut annotated = data.graph.clone();
            inference.annotate_graph(&mut annotated);
            (run_valley_stage(&data, &annotated, valley_cache), annotated)
        };
        let baseline = || gao_inference(&data, BaselineInput::BothPlanes);
        let (hybrids, ((valleys, annotated), baseline)) = join(
            workers,
            || detect_hybrids(&data, &inference),
            || join(workers - 1, valleys, baseline),
        );

        // 6. Dataset summary.
        let dual_stack_classified_both = data
            .graph
            .dual_stack_edges()
            .filter(|e| {
                inference.relationship(e.a, e.b, IpVersion::V4).is_some()
                    && inference.relationship(e.a, e.b, IpVersion::V6).is_some()
            })
            .count();
        let dataset = DatasetSummary {
            ipv6_paths: data.paths_v6.len(),
            ipv4_paths: data.paths_v4.len(),
            ipv6_entries: data.entries_v6,
            ipv4_entries: data.entries_v4,
            ipv6_links: data.link_count(IpVersion::V6),
            ipv4_links: data.link_count(IpVersion::V4),
            dual_stack_links: data.dual_stack_link_count(),
            ipv6_links_classified: inference.inferred_link_count(IpVersion::V6),
            dual_stack_links_classified: dual_stack_classified_both,
            ipv6_links_from_communities: inference
                .inferred_by_source(IpVersion::V6, InferenceSource::Communities),
            ipv6_links_from_locpref: inference
                .inferred_by_source(IpVersion::V6, InferenceSource::LocalPref),
            conflicted_links: inference.conflicted_links,
            dictionary_size: dictionary.len(),
        };

        // 7b. Baseline accuracy against ground truth (the baseline itself
        //     was computed above, alongside the other independent stages).
        let (baseline_accuracy_v4, baseline_accuracy_v6) = match &truth {
            Some(truth) => (
                Some(InferenceAccuracy::evaluate(&baseline, &truth.graph, IpVersion::V4)),
                Some(InferenceAccuracy::evaluate(&baseline, &truth.graph, IpVersion::V6)),
            ),
            None => (None, None),
        };

        // 8. Figure 2 sweep: start from the plane-blind annotation (the
        //    IPv4-derived relationship applied to the IPv6 plane, which is
        //    what the pre-existing datasets encode) and correct the most
        //    visible hybrid links with their community-derived IPv6
        //    relationship.
        let (impact, sweep_stats) = self
            .impact
            .as_ref()
            .map(|impact_options| {
                let misinferred = crate::impact::plane_blind_annotation_with(
                    &data.graph,
                    &inference,
                    &baseline,
                    self.options.sweep.concurrency,
                );
                let mut cache = SweepCache::new();
                let curve = correction_sweep_in(
                    &misinferred,
                    &hybrids.findings,
                    impact_options,
                    &self.options.sweep,
                    &mut cache,
                );
                (curve, cache.stats())
            })
            .unzip();

        let report = Report {
            dataset,
            hybrids,
            valleys,
            impact,
            baseline_accuracy_v4,
            baseline_accuracy_v6,
        };
        (report, PipelineArtifacts { data, inference, annotated, sweep_stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesim::{Scenario, SimConfig};
    use topogen::TopologyConfig;

    fn scenario() -> routesim::Scenario {
        Scenario::build(&TopologyConfig::tiny(), &SimConfig::small())
    }

    fn input(scenario: &routesim::Scenario) -> PipelineInput {
        PipelineInput::builder().scenario(scenario).build().unwrap()
    }

    #[test]
    fn pipeline_runs_end_to_end_on_a_simulated_scenario() {
        let scenario = scenario();
        let report = Pipeline::default().run(input(&scenario));
        assert!(report.dataset.ipv6_paths > 0);
        assert!(report.dataset.ipv6_links > 0);
        assert!(report.dataset.dual_stack_links > 0);
        assert!(report.dataset.ipv6_links_classified > 0);
        assert!(report.dataset.ipv6_coverage() > 0.2, "{}", report.dataset.ipv6_coverage());
        assert!(report.dataset.ipv6_coverage() <= 1.0);
        // Dual-stack coverage should not be lower than... it usually exceeds
        // overall v6 coverage, but at minimum it is a valid fraction.
        assert!(report.dataset.dual_stack_coverage() <= 1.0);
        assert!(report.baseline_accuracy_v4.is_some());
        assert!(report.baseline_accuracy_v6.is_some());
        assert!(report.impact.is_none());
        // The display and JSON forms render without panicking.
        assert!(!report.to_string().is_empty());
        assert!(report.to_json().contains("dataset"));
    }

    #[test]
    fn detected_hybrids_match_ground_truth_relationships() {
        let scenario = scenario();
        let report = Pipeline::default().run(input(&scenario));
        // Every detected hybrid whose relationships we compare against the
        // ground truth must agree with it (communities never lie in the
        // simulator; coverage, not correctness, is the limiting factor).
        for finding in &report.hybrids.findings {
            let truth_pair = scenario.truth.relationship_pair(finding.a, finding.b).unwrap();
            assert_eq!(
                finding.relationships, truth_pair,
                "hybrid {}-{} disagrees with ground truth",
                finding.a, finding.b
            );
        }
    }

    #[test]
    fn locpref_extension_increases_or_preserves_coverage() {
        let scenario = scenario();
        let snapshot = scenario.merged_snapshot();
        let dictionary = scenario.registry.build_dictionary();
        let before = CommunityInference::from_snapshot(&snapshot, &dictionary);
        let mut after = before.clone();
        let mut rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &before);
        rosetta.apply(&snapshot, &dictionary, &mut after);
        for plane in IpVersion::BOTH {
            assert!(after.inferred_link_count(plane) >= before.inferred_link_count(plane));
            // Every link LocPrf added is sourced from LocPrf; the
            // community-derived links are left as they were.
            assert_eq!(
                after.inferred_by_source(plane, InferenceSource::Communities),
                before.inferred_by_source(plane, InferenceSource::Communities)
            );
            assert_eq!(before.inferred_by_source(plane, InferenceSource::LocalPref), 0);
            assert_eq!(
                after.inferred_link_count(plane) - before.inferred_link_count(plane),
                after.inferred_by_source(plane, InferenceSource::LocalPref)
            );
        }
    }

    #[test]
    fn impact_sweep_is_produced_when_requested() {
        let scenario = scenario();
        let pipeline = Pipeline::with_impact(5, Some(64));
        let report = pipeline.run(input(&scenario));
        let curve = report.impact.expect("impact requested");
        assert!(!curve.steps.is_empty());
        assert_eq!(curve.steps[0].corrected, 0);
        assert!(curve.steps.len() <= 6);
    }

    #[test]
    fn sweep_stats_are_emitted_only_on_request_and_never_change_the_curve() {
        let scenario = scenario();
        let (plain, artifacts) = Pipeline::default().run_with_artifacts(input(&scenario));
        assert!(plain.impact.is_none());
        assert!(artifacts.sweep_stats.is_none(), "no sweep, no counters");
        let pipeline = Pipeline::with_impact(5, Some(64));
        let (report, artifacts) = pipeline.run_with_artifacts(input(&scenario));
        let stats = artifacts.sweep_stats.expect("the sweep ran");
        assert!(stats.lookups() > 0);
        assert_eq!(stats.misses, stats.delta_repairs + stats.full_rebuilds);
        // Handing the counters back leaves the report as `run` renders it.
        assert_eq!(report.to_json(), pipeline.run(input(&scenario)).to_json());
    }

    #[test]
    fn pipeline_from_files_round_trips_through_disk() {
        let scenario = scenario();
        let dir = std::env::temp_dir().join(format!("hybrid-tor-pipeline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mrt_paths = scenario.write_mrt_files(&dir).unwrap();
        let registry_path = dir.join("irr.txt");
        scenario.registry.save(&registry_path).unwrap();

        let from_disk = Pipeline::default()
            .run(PipelineInput::builder().files(&mrt_paths, &registry_path).build().unwrap());
        let in_memory = Pipeline::default().run(input(&scenario));
        // LocPrf and communities survive the MRT round trip, so the headline
        // numbers match exactly.
        assert_eq!(from_disk.dataset.ipv6_links, in_memory.dataset.ipv6_links);
        assert_eq!(
            from_disk.dataset.ipv6_links_classified,
            in_memory.dataset.ipv6_links_classified
        );
        assert_eq!(from_disk.hybrids.findings.len(), in_memory.hybrids.findings.len());
        assert!(from_disk.baseline_accuracy_v4.is_none(), "no ground truth from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_surface_an_error() {
        // Every worker count reports the same error: the first failing
        // file in path order.
        let missing = ["/nonexistent/a.mrt", "/nonexistent/b.mrt"];
        let errors: Vec<String> = [1, 2]
            .into_iter()
            .map(|workers| {
                PipelineInput::builder()
                    .files(&missing, "/nonexistent/irr.txt")
                    .options(PipelineOptions::with_concurrency(workers))
                    .build()
                    .expect_err("missing MRT files must fail")
                    .to_string()
            })
            .collect();
        assert_eq!(errors[0], errors[1]);
        assert!(errors[0].contains(missing[0]), "{}", errors[0]);
    }

    #[test]
    fn pipeline_options_resolve_worker_counts() {
        assert!(PipelineOptions::default().workers() >= 1, "auto resolves to at least one");
        assert_eq!(PipelineOptions::sequential().workers(), 1);
        assert_eq!(PipelineOptions::with_concurrency(5).workers(), 5);
        assert_eq!(Pipeline::with_concurrency(3).options.concurrency, 3);
        // The sweep follows the pipeline's worker count unless overridden.
        assert!(PipelineOptions::default().sweep.cache);
        assert_eq!(PipelineOptions::with_concurrency(5).sweep.concurrency, 5);
        assert_eq!(Pipeline::with_concurrency(3).options.sweep.workers(), 3);
        let custom = PipelineOptions::with_concurrency(4).with_sweep(SweepOptions::sequential());
        assert_eq!(custom.concurrency, 4);
        assert_eq!(custom.sweep, SweepOptions::sequential());
    }

    #[test]
    fn frontier_knob_resolves_and_stamps_unpinned_sim_configs() {
        assert_eq!(PipelineOptions::default().frontier_concurrency, 1, "default is sequential");
        let options = PipelineOptions::with_concurrency(4).with_frontier(2);
        assert_eq!(options.frontier_concurrency, 2);
        let sim = options.configure_sim(SimConfig::small());
        assert_eq!(sim.concurrency, 4);
        assert_eq!(sim.frontier_concurrency, 2);
    }

    #[test]
    fn scheduling_knob_resolves_and_stamps_unpinned_sim_configs() {
        use routesim::OriginScheduling;
        assert_eq!(PipelineOptions::default().scheduling, OriginScheduling::Degree);
        let options =
            PipelineOptions::with_concurrency(4).with_scheduling(OriginScheduling::Degree);
        assert_eq!(options.scheduling, OriginScheduling::Degree);
        let sim = options.configure_sim(SimConfig::small());
        assert_eq!(sim.scheduling, OriginScheduling::Degree);
    }

    #[test]
    fn csr_knob_resolves_and_stamps_unpinned_sim_configs() {
        assert!(PipelineOptions::default().csr, "the CSR mirror is the default backend");
        let options = PipelineOptions::default().with_csr(false);
        assert!(!options.csr);
        let sim = options.configure_sim(SimConfig::small());
        assert!(!sim.csr);
    }

    #[test]
    fn configure_sim_overwrites_execution_fields_and_keeps_output_knobs() {
        use routesim::{OriginScheduling, PolicyScenario};
        let sim = SimConfig::small()
            .with_concurrency(3)
            .with_frontier(5)
            .with_csr(false)
            .with_scenario(PolicyScenario::SubprefixHijack)
            .with_deployment(0.25);
        // The options' execution fields win, even over pinned values ...
        let stamped = PipelineOptions::default().configure_sim(sim);
        assert_eq!(stamped.concurrency, 0);
        assert_eq!(stamped.frontier_concurrency, 1);
        assert_eq!(stamped.scheduling, OriginScheduling::Degree);
        assert!(stamped.csr);
        // ... and the sim's output fields are left alone.
        assert_eq!(stamped.policy_scenario, PolicyScenario::SubprefixHijack);
        assert_eq!(stamped.policy_deployment, 0.25);
    }

    #[test]
    fn concurrent_pipeline_reports_are_byte_identical_to_sequential() {
        let scenario = scenario();
        let render = |options: PipelineOptions| {
            let pipeline = Pipeline {
                impact: Some(ImpactOptions { top_k: 3, source_cap: Some(64) }),
                options,
            };
            let input =
                PipelineInput::builder().scenario(&scenario).options(options).build().unwrap();
            serde_json::to_string_pretty(&pipeline.run(input)).expect("report serializes")
        };
        let sequential = render(PipelineOptions::sequential());
        for workers in [2usize, 4] {
            let parallel = render(PipelineOptions::with_concurrency(workers));
            assert!(parallel == sequential, "concurrency={workers} diverged");
            // The sweep memoization switch must not change a byte either.
            let uncached =
                render(PipelineOptions::with_concurrency(workers).with_sweep(SweepOptions {
                    concurrency: workers,
                    cache: false,
                    incremental: false,
                    removal_repair: false,
                }));
            assert!(uncached == sequential, "concurrency={workers} uncached sweep diverged");
            // Neither may the removal-repair tier.
            let repair = render(
                PipelineOptions::with_concurrency(workers)
                    .with_sweep(SweepOptions::with_concurrency(workers).with_removal_repair(true)),
            );
            assert!(repair == sequential, "concurrency={workers} removal repair diverged");
            // Nor may the graph backend: the adjacency-map reference path
            // must render the same bytes as the frozen CSR mirror.
            let map_backend = render(PipelineOptions::with_concurrency(workers).with_csr(false));
            assert!(map_backend == sequential, "concurrency={workers} map backend diverged");
        }
    }
}

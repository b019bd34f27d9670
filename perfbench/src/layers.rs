//! The traced run: replay every layer sequentially on the workload's
//! scenario, with a span around each call into a layer, and report the
//! per-layer self times and counters.
//!
//! Every traced run covers every layer, so each per-layer metric exists
//! on each workload; the workload picks the scale and how much of the
//! ingest and service layers runs (its own layer at full size, the others
//! as a short probe). Next to the replay the run also makes the
//! end-to-end calls (`Scenario::build_from_truth`, `Pipeline::run`) so
//! the unattributed remainder and the tracing overhead can be computed.
//! `Pipeline::run` overlaps extraction with communities, and
//! hybrids/valleys with Gao, so the sequential stage sum can exceed the
//! end-to-end report time: a layer saves at most its share of the
//! blocking stages.

use std::time::Instant;

use asgraph::AsGraph;
use bgp_types::IpVersion;
use hybrid_tor::baselines::{gao_inference, BaselineInput};
use hybrid_tor::communities::CommunityInference;
use hybrid_tor::extract::extract;
use hybrid_tor::hybrid::detect_hybrids;
use hybrid_tor::impact::SweepCache;
use hybrid_tor::impact::{correction_sweep_in, plane_blind_annotation_with, ImpactOptions};
use hybrid_tor::ingest::{ApplyStats, RepairStats};
use hybrid_tor::locpref::LocPrfRosetta;
use hybrid_tor::service::ResidentState;
use hybrid_tor::valley::analyze_valleys;
use hybridd::{answer, Connection, Request, Response};
use routesim::policy::PolicyDeployment;
use routesim::{propagate_origins, PropagationOptions, Scenario};

use crate::batch::timed_report;
use crate::inputs::{self, Scale, IMPACT_SOURCE_CAP, IMPACT_TOP_K, WORKERS};
use crate::stats::{digest, median, percentile};
use crate::stream::{self, Session};
use crate::trace::Tracer;
use crate::{service, Metric, Outcome, Workload};

/// Every per-layer metric, in print order.
pub const PER_LAYER: [&str; 46] = [
    "topogen.generate_ms",
    "routesim.propagate_v4_ms",
    "routesim.propagate_v6_ms",
    "routesim.routed_nodes",
    "routesim.ns_per_routed_node",
    "routesim.materialise_ms",
    "routesim.rib_entries",
    "routesim.pool_snapshot_ms",
    "irr.dictionary_ms",
    "core.extract_ms",
    "core.communities_ms",
    "core.locpref_ms",
    "core.hybrid_ms",
    "core.valley_ms",
    "core.gao_ms",
    "core.impact.plane_blind_ms",
    "core.impact.sweep_ms",
    "core.impact.sweep_hit_ratio",
    "core.impact.full_rebuilds",
    "mrt.bgp4mp_decode_ms",
    "core.ingest.seed_ms",
    "core.ingest.apply_us",
    "core.ingest.changed",
    "core.ingest.redundant",
    "core.ingest.snapshot_ms",
    "core.ingest.input_ms",
    "core.pipeline.report_ms",
    "core.ingest.valley_resets",
    "core.ingest.valley_rebuilt",
    "core.ingest.valley_maps_reused_ratio",
    "core.service.build_ms",
    "core.service.memory_bytes",
    "hybridd.answer_relationship_ns",
    "hybridd.answer_visibility_ns",
    "hybridd.answer_customer_tree_ns",
    "hybridd.answer_what_if_p50_ns",
    "hybridd.answer_what_if_p99_ns",
    "hybridd.protocol_ns",
    "hybridd.network_us",
    "trace.setup_coverage",
    "trace.setup_unattributed_ms",
    "trace.report_coverage",
    "trace.report_unattributed_ms",
    "trace.impact_coverage",
    "trace.overhead_ms",
    "trace.spans",
];

/// Stages of the E1 report as `Pipeline::run` orders them: span name and
/// metric name.
const REPORT_LAYERS: [(&str, &str); 8] = [
    ("routesim.pool_snapshot", "routesim.pool_snapshot_ms"),
    ("irr.dictionary", "irr.dictionary_ms"),
    ("core.extract", "core.extract_ms"),
    ("core.communities", "core.communities_ms"),
    ("core.locpref", "core.locpref_ms"),
    ("core.hybrid", "core.hybrid_ms"),
    ("core.valley", "core.valley_ms"),
    ("core.gao", "core.gao_ms"),
];

/// End-to-end repetitions (untraced and traced each) of the E1 report.
const REPORT_REPS: usize = 2;

/// Ingest windows and service requests a traced run replays.
struct Sizes {
    windows: usize,
    requests: usize,
}

/// Output checks: operations compared against an independent result.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("report parts serialize")
}

pub fn run(workload: Workload, seed: u64) -> Outcome {
    let (scale, sizes) = match workload {
        Workload::PaperBatch => (inputs::paper(seed), Sizes { windows: 4, requests: 2000 }),
        Workload::Stream50k => {
            (inputs::internet_50k(seed), Sizes { windows: stream::MIN_WINDOWS, requests: 2000 })
        }
        Workload::ServicePaper => (inputs::paper(seed), Sizes { windows: 4, requests: 20_000 }),
    };
    let run_id = format!("{}-seed{seed}-pid{}", workload.name(), std::process::id());
    let mut t = Tracer::new(run_id);
    let mut checks = Checks::default();
    let mut m: Vec<Metric> = Vec::new();

    // Set-up: the end-to-end build, and the layer replay around it.
    let (scenario, routed, setup_e2e_ms) = t.span("setup", |t| setup(t, &scale, &mut checks));
    let propagate_ms = t.self_ms("routesim.propagate_v4") + t.self_ms("routesim.propagate_v6");
    m.push(("topogen.generate_ms", t.self_ms("topogen.generate"), "ms"));
    m.push(("routesim.propagate_v4_ms", t.self_ms("routesim.propagate_v4"), "ms"));
    m.push(("routesim.propagate_v6_ms", t.self_ms("routesim.propagate_v6"), "ms"));
    m.push(("routesim.routed_nodes", routed as f64, "count"));
    m.push(("routesim.ns_per_routed_node", propagate_ms * 1e6 / routed as f64, "ns"));
    m.push(("routesim.materialise_ms", t.self_ms("routesim.materialise"), "ms"));
    m.push(("routesim.rib_entries", scenario.total_rib_entries() as f64, "count"));
    let setup_layers_ms = ["topogen.generate", "routesim.materialise"]
        .iter()
        .map(|name| t.self_ms(name))
        .sum::<f64>()
        + propagate_ms;

    // The E1 report: end to end (untraced, then inside one span each) and
    // as a sequential stage replay.
    let e1 = inputs::e1_pipeline();
    let mut untraced_ms = Vec::new();
    let mut reference = None;
    for _ in 0..REPORT_REPS {
        let (elapsed, report) = timed_report(&scenario, &e1);
        untraced_ms.push(elapsed.as_secs_f64() * 1e3);
        reference = Some(report);
        t.span("e2e.report", |_| timed_report(&scenario, &e1));
    }
    let reference = reference.expect("at least one report");
    let traced_ms: Vec<f64> = t.named("e2e.report").map(|s| s.duration_ns() as f64 / 1e6).collect();
    let stages = t.span("report", |t| report_stages(t, &scenario));
    checks.check(json(&stages.hybrids) == json(&reference.hybrids));
    checks.check(json(&stages.valleys) == json(&reference.valleys));
    for (span, metric) in REPORT_LAYERS {
        m.push((metric, t.self_ms(span), "ms"));
    }
    let report_layers_ms: f64 = REPORT_LAYERS.iter().map(|(span, _)| t.self_ms(span)).sum();
    let report_e2e_ms = median(&untraced_ms);

    // The Figure 2 sweep on the replayed stages.
    let (impact_e2e, f2_report) =
        t.span("e2e.impact_report", |_| timed_report(&scenario, &inputs::f2_pipeline()));
    let (hit_ratio, full_rebuilds) = t.span("impact", |t| {
        let misinferred = t.span("core.impact.plane_blind", |_| {
            plane_blind_annotation_with(
                &stages.data_graph,
                &stages.inference,
                &stages.baseline,
                WORKERS,
            )
        });
        let mut cache = SweepCache::new();
        let options = ImpactOptions { top_k: IMPACT_TOP_K, source_cap: Some(IMPACT_SOURCE_CAP) };
        let curve = t.span("core.impact.sweep", |_| {
            correction_sweep_in(
                &misinferred,
                &stages.hybrids.findings,
                &options,
                &inputs::options().sweep,
                &mut cache,
            )
        });
        checks.check(Some(json(&curve)) == f2_report.impact.as_ref().map(json));
        (cache.hit_rate(), cache.full_rebuilds())
    });
    m.push(("core.impact.plane_blind_ms", t.self_ms("core.impact.plane_blind"), "ms"));
    m.push(("core.impact.sweep_ms", t.self_ms("core.impact.sweep"), "ms"));
    m.push(("core.impact.sweep_hit_ratio", hit_ratio, "ratio"));
    m.push(("core.impact.full_rebuilds", full_rebuilds as f64, "count"));
    let impact_layers_ms =
        report_layers_ms + t.self_ms("core.impact.plane_blind") + t.self_ms("core.impact.sweep");
    let impact_e2e_ms = impact_e2e.as_secs_f64() * 1e3;

    // Streaming ingest.
    let bytes = stream::stream_bytes(&scenario, seed, sizes.windows);
    let (apply, repair) = t.span("ingest", |t| ingest(t, &scenario, bytes, &mut checks));
    let per_window = |name: &str| median(&t.self_ns_each(name));
    m.push(("mrt.bgp4mp_decode_ms", t.self_ms("mrt.bgp4mp_decode"), "ms"));
    m.push(("core.ingest.seed_ms", t.self_ms("core.ingest.seed"), "ms"));
    m.push(("core.ingest.apply_us", per_window("core.ingest.apply") / 1e3, "us"));
    m.push(("core.ingest.changed", apply.changed as f64, "count"));
    m.push(("core.ingest.redundant", apply.redundant as f64, "count"));
    m.push(("core.ingest.snapshot_ms", per_window("core.ingest.snapshot") / 1e6, "ms"));
    m.push(("core.ingest.input_ms", per_window("core.ingest.input") / 1e6, "ms"));
    m.push(("core.pipeline.report_ms", per_window("core.pipeline.report") / 1e6, "ms"));
    m.push(("core.ingest.valley_resets", repair.resets as f64, "count"));
    m.push(("core.ingest.valley_rebuilt", repair.rebuilt as f64, "count"));
    let lookups = repair.maps_reused + repair.maps_computed;
    m.push((
        "core.ingest.valley_maps_reused_ratio",
        repair.maps_reused as f64 / lookups as f64,
        "ratio",
    ));

    // The resident service: build, in-process answers, loopback.
    let service = t.span("service", |t| serve(t, scenario, seed, sizes.requests, &mut checks));
    m.push(("core.service.build_ms", t.self_ms("core.service.build"), "ms"));
    m.push(("core.service.memory_bytes", service.memory_bytes, "bytes"));
    for (metric, name) in [
        ("hybridd.answer_relationship_ns", "hybridd.answer.relationship"),
        ("hybridd.answer_visibility_ns", "hybridd.answer.visibility"),
        ("hybridd.answer_customer_tree_ns", "hybridd.answer.customer_tree"),
    ] {
        m.push((metric, median(&t.self_ns_each(name)), "ns"));
    }
    let what_if = t.self_ns_each("hybridd.answer.what_if");
    m.push(("hybridd.answer_what_if_p50_ns", percentile(&what_if, 50.0), "ns"));
    m.push(("hybridd.answer_what_if_p99_ns", percentile(&what_if, 99.0), "ns"));
    m.push(("hybridd.protocol_ns", median(&t.self_ns_each("hybridd.protocol")), "ns"));
    m.push(("hybridd.network_us", median(&service.network_ns) / 1e3, "us"));

    // Layers the workload's set-up runs beyond synthesis count on both
    // sides.
    let extra_setup_ms = workload_setup_layers_ms(workload, &t);
    let (setup_e2e_ms, setup_layers_ms) =
        (setup_e2e_ms + extra_setup_ms, setup_layers_ms + extra_setup_ms);
    m.push(("trace.setup_coverage", setup_layers_ms / setup_e2e_ms, "ratio"));
    m.push(("trace.setup_unattributed_ms", setup_e2e_ms - setup_layers_ms, "ms"));
    m.push(("trace.report_coverage", report_layers_ms / report_e2e_ms, "ratio"));
    m.push(("trace.report_unattributed_ms", report_e2e_ms - report_layers_ms, "ms"));
    m.push(("trace.impact_coverage", impact_layers_ms / impact_e2e_ms, "ratio"));
    m.push(("trace.overhead_ms", median(&traced_ms) - report_e2e_ms, "ms"));
    m.push(("trace.spans", t.len() as f64, "count"));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    t.write_jsonl(&path).expect("write the trace");

    let share = |name: &str| 100.0 * t.self_ms(name) / setup_e2e_ms;
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
        notes: vec![
            format!("traced {} seed {seed}: {} spans written to {}", workload.name(), t.len(), path.display()),
            format!(
                "set-up {setup_e2e_ms:.0} ms: topogen {:.1}%, propagation {:.1}%, materialise {:.1}%",
                share("topogen.generate"),
                100.0 * propagate_ms / setup_e2e_ms,
                share("routesim.materialise")
            ),
            format!(
                "E1 report {report_e2e_ms:.0} ms end to end, {report_layers_ms:.0} ms of sequential stages; E1+F2 {impact_e2e_ms:.0} ms"
            ),
        ],
    }
}

/// Build the scenario end to end (`topogen::generate` +
/// `Scenario::build_from_truth`), replaying propagation per plane and
/// materialisation as separate layer calls. Returns the scenario, the
/// routed-node count and the end-to-end build time in milliseconds.
fn setup(t: &mut Tracer, scale: &Scale, checks: &mut Checks) -> (Scenario, usize, f64) {
    let truth = t.span("topogen.generate", |_| topogen::generate(&scale.topology));

    // Propagation as `Scenario::build` runs it: every origin present on
    // the plane (strided by the origin sample), on the frozen graph.
    let sim = &scale.sim;
    let mut graph: AsGraph = truth.graph.clone();
    graph.freeze();
    let (origin_workers, frontier_workers) = sim.propagation_split();
    let mut routed = 0;
    for plane in IpVersion::BOTH {
        let options = PropagationOptions {
            reachability_relaxation: plane == IpVersion::V6 && sim.v6_reachability_relaxation,
            leak_probability: sim.leak_probability,
            seed: sim.seed,
            scenario: sim.policy_scenario,
            deployment: PolicyDeployment {
                fraction: sim.policy_deployment,
                seed: sim.seed ^ 0x6465_706c,
            },
            frontier_concurrency: frontier_workers,
            scheduling: sim.scheduling,
        };
        let mut origins: Vec<_> = graph.asns().filter(|a| graph.degree(*a, plane) > 0).collect();
        origins.sort();
        if sim.origin_sample > 1 {
            origins = origins.into_iter().step_by(sim.origin_sample).collect();
        }
        let name = match plane {
            IpVersion::V4 => "routesim.propagate_v4",
            IpVersion::V6 => "routesim.propagate_v6",
        };
        let outcomes =
            t.span(name, |_| propagate_origins(&graph, &origins, plane, &options, origin_workers));
        routed += outcomes.iter().map(|o| o.routed_count()).sum::<usize>();
    }
    drop(graph);

    let scenario = t.span("e2e.build_from_truth", |_| {
        Scenario::build_from_truth(truth, scale.topology.clone(), &scale.sim)
    });
    // Materialisation: a rebuild whose patch changes only the snapshot
    // timestamp, so both planes' propagation is served from the cache.
    let rebuilt = t.span("routesim.materialise", |_| scenario.rebuild_with(|s| s.timestamp += 1));
    checks.check(rebuilt.total_rib_entries() == scenario.total_rib_entries());
    drop(rebuilt);

    let e2e_ms = t.self_ms("topogen.generate") + t.self_ms("e2e.build_from_truth");
    (scenario, routed, e2e_ms)
}

/// What the sequential report replay computed.
struct Stages {
    data_graph: AsGraph,
    inference: CommunityInference,
    baseline: hybrid_tor::baselines::BaselineInference,
    hybrids: hybrid_tor::HybridReport,
    valleys: hybrid_tor::ValleyReport,
}

/// The E1 report's stages, one call each, in `Pipeline::run`'s order.
fn report_stages(t: &mut Tracer, scenario: &Scenario) -> Stages {
    // Input assembly: pooling runs on one worker while the main thread
    // builds the dictionary.
    let snapshot = t.span("routesim.pool_snapshot", |_| scenario.pooled_snapshot(WORKERS - 1));
    let dictionary = t.span("irr.dictionary", |_| scenario.registry.build_dictionary());
    let mut data = t.span("core.extract", |_| {
        let mut data = extract(&snapshot);
        data.graph.freeze();
        data
    });
    let mut inference =
        t.span("core.communities", |_| CommunityInference::from_snapshot(&snapshot, &dictionary));
    t.span("core.locpref", |_| {
        let mut rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
        rosetta.apply(&snapshot, &dictionary, &mut inference);
    });
    let hybrids = t.span("core.hybrid", |_| detect_hybrids(&data, &inference));
    let valleys = t.span("core.valley", |_| {
        let mut annotated = data.graph.clone();
        inference.annotate_graph(&mut annotated);
        analyze_valleys(&data, &annotated, IpVersion::V6)
    });
    let baseline = t.span("core.gao", |_| gao_inference(&data, BaselineInput::BothPlanes));
    let data_graph = std::mem::take(&mut data.graph);
    Stages { data_graph, inference, baseline, hybrids, valleys }
}

/// Decode the update stream, seed a live session and replay every window
/// through the ingest caches, checking each window's report against a
/// full recompute.
fn ingest(
    t: &mut Tracer,
    scenario: &Scenario,
    bytes: bytes::Bytes,
    checks: &mut Checks,
) -> (ApplyStats, RepairStats) {
    let updates = t.span("mrt.bgp4mp_decode", |_| stream::decode(bytes));
    let mut session = t.span("core.ingest.seed", |_| Session::new(scenario));
    let pipeline = inputs::e1_pipeline();
    let mut apply = ApplyStats::default();
    let mut repair = RepairStats::default();
    let mut digests = Vec::with_capacity(updates.len());
    for window in updates.windows() {
        let report = t.span("ingest.window", |t| {
            t.span("core.ingest.apply", |_| session.apply(window, &mut apply));
            let snapshot = t.span("core.ingest.snapshot", |_| session.live.snapshot());
            let input = t.span("core.ingest.input", |_| session.input(snapshot));
            t.span("core.pipeline.report", |_| {
                pipeline.run_with_caches(input, &mut session.caches).0
            })
        });
        let stats = session.caches.valley.take_stats();
        repair.resets += stats.resets;
        repair.rebuilt += stats.rebuilt;
        repair.maps_reused += stats.maps_reused;
        repair.maps_computed += stats.maps_computed;
        digests.push(digest(report.to_json().as_bytes()));
    }
    let failed = session.mismatches(updates.windows(), &digests);
    checks.attempted += digests.len() as u64;
    checks.failed += failed as u64;
    (apply, repair)
}

/// What the service replay measured.
struct ServiceRun {
    memory_bytes: f64,
    /// Per request: loopback round trip minus in-process answer and
    /// protocol time.
    network_ns: Vec<f64>,
}

/// The set-up layers beyond synthesis that each workload's set-up runs.
fn workload_setup_layers_ms(workload: Workload, t: &Tracer) -> f64 {
    match workload {
        Workload::ServicePaper => t.self_ms("core.service.build"),
        Workload::Stream50k => t.self_ms("mrt.bgp4mp_decode") + t.self_ms("core.ingest.seed"),
        Workload::PaperBatch => 0.0,
    }
}

fn answer_span(request: &Request) -> &'static str {
    match request {
        Request::Relationship { .. } => "hybridd.answer.relationship",
        Request::CustomerTree { .. } => "hybridd.answer.customer_tree",
        Request::Visibility { .. } => "hybridd.answer.visibility",
        Request::WhatIf { .. } => "hybridd.answer.what_if",
        _ => "hybridd.answer.other",
    }
}

/// Build the resident state, answer `requests` of the query mix in
/// process (answer and protocol spans per request), then send the same
/// requests over loopback and check every response's bytes.
fn serve(
    t: &mut Tracer,
    scenario: Scenario,
    seed: u64,
    requests: usize,
    checks: &mut Checks,
) -> ServiceRun {
    let state =
        t.span("core.service.build", |_| ResidentState::build(&scenario, &inputs::e1_pipeline()));
    let memory_bytes = state.memory().total() as f64;
    let served = service::serve(scenario, state);
    let state = served.snapshot.value();
    let mixes: Vec<Vec<Request>> = (0..service::CLIENTS)
        .map(|c| service::client_mix(state, seed, c, requests / service::CLIENTS))
        .collect();

    // In process: the answer and the four protocol steps (request
    // encode/decode, response encode/decode), each in its own span.
    let mut in_process_ns = Vec::with_capacity(requests);
    let mut expected = Vec::with_capacity(requests);
    t.span("hybridd.in_process", |t| {
        for request in mixes.iter().flatten() {
            let start = Instant::now();
            let response = t.span(answer_span(request), |_| answer(state, request));
            let raw = t.span("hybridd.protocol", |_| {
                let decoded = Request::decode(&request.encode()).expect("request round trips");
                assert_eq!(decoded, *request);
                let raw = response.encode();
                Response::decode(&raw).expect("response round trips");
                raw
            });
            in_process_ns.push(start.elapsed().as_nanos() as f64);
            expected.push(digest(&raw));
        }
    });

    // Over loopback, closed loop, as the end-to-end run sends them.
    let runs: Vec<(service::ClientRun, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter()
            .map(|mix| {
                let addr = served.addr.to_string();
                scope.spawn(move || {
                    let mut conn = Connection::connect(&addr).expect("connect");
                    let start = Instant::now();
                    let run = service::closed_loop(&mut conn, mix, std::time::Duration::MAX);
                    (run, start, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut network_ns = Vec::with_capacity(requests);
    let mut local = in_process_ns.iter().zip(&expected);
    for (run, start, end) in &runs {
        t.record("hybridd.loopback", *start, *end);
        for (rtt_ns, got) in run.latencies_ns.iter().zip(&run.digests) {
            let (local_ns, want) = local.next().expect("one in-process answer per request");
            network_ns.push(rtt_ns - local_ns);
            checks.check(got == want);
        }
    }
    ServiceRun { memory_bytes, network_ns }
}

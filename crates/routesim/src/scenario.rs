//! End-to-end scenario assembly: topology → policies → propagation →
//! collector RIBs → IRR registry → MRT files — plus the sweep-point reuse
//! layer ([`Scenario::rebuild_with`] / [`ScenarioPool`]) that patches a
//! built scenario into a neighbouring configuration without recomputing
//! the state the patch provably cannot change.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use asgraph::AsGraph;
use bgp_types::{
    Asn, CollectorId, IpVersion, Ipv4Net, Ipv6Net, PathAttributes, Prefix, RibEntry, RibSnapshot,
    RouteSource,
};
use irr::{IrrRegistry, TrafficAction};
use topogen::{GroundTruth, TopologyConfig};

use crate::collector::{build_collectors, CollectorSetup, FeederKind};
use crate::config::SimConfig;
use crate::policy::{PolicyDeployment, PolicyScenario, PolicyTable};
use crate::propagate::{propagate_origins, PropagationOptions, RoutingOutcome};
use crate::shard::shard_map;

/// How many per-plane propagation outcomes [`PropagationCache`] retains.
/// Four covers the sweep shapes the harness actually runs (an A/B
/// alternation plus the base point, with headroom) without letting a
/// long one-shot sweep pin unbounded memory.
pub const PROPAGATION_LRU_CAPACITY: usize = 4;

/// The per-plane propagation outcomes a built [`Scenario`] carries so
/// sweep-point rebuilds can reuse them. Outcomes are `Arc`-shared: cloning
/// a scenario (or rebuilding one with an unchanged propagation
/// configuration) costs pointer bumps, not a re-propagation.
///
/// Per plane this is a small options-keyed LRU (capacity
/// [`PROPAGATION_LRU_CAPACITY`], keyed by the route-model subset of
/// [`PropagationOptions`] — execution knobs never key anything): sweep
/// points that *alternate* between option sets, as the A2/A3 bins do,
/// keep hitting instead of evicting each other the way the old
/// one-entry-per-plane cache did. Eviction is deterministic — the
/// least-recently-used entry (the back of the list) goes first.
///
/// A cache is only meaningful against the ground truth it was computed
/// from — [`Scenario::rebuild_with`] maintains that invariant by always
/// pairing `self.propagation` with `self.truth`.
#[derive(Debug, Clone, Default)]
pub struct PropagationCache {
    /// Per-plane entries, most recently used first.
    planes: [Vec<PlaneOutcomes>; 2],
}

#[derive(Debug, Clone)]
struct PlaneOutcomes {
    options: PropagationOptions,
    /// The origin-sampling stride the outcomes were computed under —
    /// part of the cache key because it selects *which* origins were
    /// propagated, upstream of the route model.
    origin_sample: usize,
    outcomes: Arc<Vec<RoutingOutcome>>,
}

fn plane_slot(plane: IpVersion) -> usize {
    match plane {
        IpVersion::V4 => 0,
        IpVersion::V6 => 1,
    }
}

impl PropagationCache {
    /// The cached outcomes for a plane, if any entry was computed under
    /// the same *route model* as `options` and the same origin-sampling
    /// stride — execution knobs (frontier worker count, origin
    /// scheduling) are ignored, so retuning them between sweep points
    /// still reuses the cached propagation.
    fn matching(
        &self,
        plane: IpVersion,
        options: &PropagationOptions,
        origin_sample: usize,
    ) -> Option<Arc<Vec<RoutingOutcome>>> {
        self.planes[plane_slot(plane)]
            .iter()
            .find(|entry| {
                entry.origin_sample == origin_sample && entry.options.same_route_model(options)
            })
            .map(|entry| Arc::clone(&entry.outcomes))
    }

    /// Record `outcomes` as the plane's most recently used entry: any
    /// existing entry with the same route model is replaced (so a reuse
    /// refreshes its recency instead of duplicating it), and the
    /// least-recently-used entry is evicted once the plane exceeds
    /// [`PROPAGATION_LRU_CAPACITY`].
    fn insert(
        &mut self,
        plane: IpVersion,
        options: PropagationOptions,
        origin_sample: usize,
        outcomes: Arc<Vec<RoutingOutcome>>,
    ) {
        let entries = &mut self.planes[plane_slot(plane)];
        entries.retain(|entry| {
            entry.origin_sample != origin_sample || !entry.options.same_route_model(&options)
        });
        entries.insert(0, PlaneOutcomes { options, origin_sample, outcomes });
        entries.truncate(PROPAGATION_LRU_CAPACITY);
    }

    /// True when `self`'s most recently used outcomes for the plane are
    /// the *same allocation* as any entry of `other` — the tell that a
    /// rebuild served the plane from `other`'s cache rather than
    /// recomputing it.
    pub fn shares_outcomes(&self, other: &PropagationCache, plane: IpVersion) -> bool {
        let slot = plane_slot(plane);
        let Some(used) = self.planes[slot].first() else { return false };
        other.planes[slot].iter().any(|entry| Arc::ptr_eq(&used.outcomes, &entry.outcomes))
    }
}

/// A fully materialised measurement scenario: the synthetic Internet, what
/// its operators configured, and what the collectors recorded.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The ground-truth topology and relationships.
    pub truth: GroundTruth,
    /// Per-AS policies (LocPrf plans, community schemes, tagging).
    pub policies: PolicyTable,
    /// The synthetic IRR: documentation for a subset of the schemes.
    pub registry: IrrRegistry,
    /// The collectors and their feeders.
    pub collectors: Vec<CollectorSetup>,
    /// One RIB snapshot per collector.
    pub snapshots: Vec<RibSnapshot>,
    /// The topology configuration used.
    pub topology_config: TopologyConfig,
    /// The simulation configuration used.
    pub sim_config: SimConfig,
    /// The propagation outcomes the snapshots were materialised from,
    /// kept (Arc-shared) so [`Scenario::rebuild_with`] can patch the
    /// configuration without re-running propagation.
    pub propagation: PropagationCache,
}

/// Every [`SimConfig`] knob that feeds the generated artefacts (policies,
/// registry, collectors, propagation and RIB materialisation) — i.e.
/// everything except `concurrency`, `frontier_concurrency`, `scheduling`
/// and `csr`, which are execution details with byte-identical output by
/// contract. `origin_sample` *is* in the key: sampling origins changes
/// which routes exist, so it is an output knob like the probabilities.
/// The exhaustive destructuring is the point: adding a field to
/// `SimConfig` refuses to compile here until the rebuild logic accounts
/// for it.
type OutputKey = (
    (u64, f64, f64, f64, f64),
    (f64, f64, f64, bool, f64),
    (usize, usize, f64, u64, usize),
    (PolicyScenario, f64),
);

fn output_key(sim: &SimConfig) -> OutputKey {
    let SimConfig {
        seed,
        transit_tagging_probability,
        stub_tagging_probability,
        documentation_probability,
        te_documentation_probability,
        te_request_probability,
        location_tag_probability,
        community_scrub_probability,
        v6_reachability_relaxation,
        leak_probability,
        collector_count,
        feeders_per_collector,
        full_feeder_fraction,
        timestamp,
        origin_sample,
        policy_scenario,
        policy_deployment,
        concurrency: _,
        frontier_concurrency: _,
        scheduling: _,
        csr: _,
    } = *sim;
    (
        (
            seed,
            transit_tagging_probability,
            stub_tagging_probability,
            documentation_probability,
            te_documentation_probability,
        ),
        (
            te_request_probability,
            location_tag_probability,
            community_scrub_probability,
            v6_reachability_relaxation,
            leak_probability,
        ),
        (collector_count, feeders_per_collector, full_feeder_fraction, timestamp, origin_sample),
        (policy_scenario, policy_deployment),
    )
}

/// The propagation configuration of one plane, derived from the
/// simulation config exactly as the build derives it. The frontier
/// worker count comes from [`SimConfig::propagation_split`], so nested
/// parallelism (origins × frontier) stays within the worker budget.
fn propagation_options(sim_config: &SimConfig, plane: IpVersion) -> PropagationOptions {
    let (_, frontier_workers) = sim_config.propagation_split();
    PropagationOptions {
        reachability_relaxation: plane == IpVersion::V6 && sim_config.v6_reachability_relaxation,
        leak_probability: sim_config.leak_probability,
        seed: sim_config.seed,
        scenario: sim_config.policy_scenario,
        deployment: PolicyDeployment {
            fraction: sim_config.policy_deployment,
            seed: sim_config.seed ^ 0x6465_706c,
        },
        frontier_concurrency: frontier_workers,
        scheduling: sim_config.scheduling,
    }
}

/// The deterministic prefix an AS originates on a plane.
///
/// 16-bit ASNs keep the historical mapping (`10.hi.lo.0/24`,
/// `2001:db8:asn::/48`) so existing golden artefacts stay byte-identical;
/// larger ASNs — the internet-scale synthetic topologies overflow the
/// 16-bit space — map into disjoint ranges (first octet `64 + (asn >>
/// 16)` for v4, a `/64` with the high half in the third hextet for v6),
/// so prefixes stay unique across the whole generated ASN space. The v4
/// scheme has 23 usable bits; topologies are nowhere near that, and the
/// assert turns any future overflow into a loud failure instead of a
/// silent prefix collision.
pub fn origin_prefix(asn: Asn, plane: IpVersion) -> Prefix {
    let a = asn.value();
    match plane {
        IpVersion::V4 if a <= 0xFFFF => Prefix::V4(Ipv4Net::new_truncated(
            Ipv4Addr::new(10, ((a >> 8) & 0xFF) as u8, (a & 0xFF) as u8, 0),
            24,
        )),
        IpVersion::V4 => {
            assert!(a < 1 << 23, "origin_prefix cannot map ASN {a} uniquely into 10/8 + 64/2");
            Prefix::V4(Ipv4Net::new_truncated(
                Ipv4Addr::new(
                    64 + ((a >> 16) & 0x7F) as u8,
                    ((a >> 8) & 0xFF) as u8,
                    (a & 0xFF) as u8,
                    0,
                ),
                24,
            ))
        }
        IpVersion::V6 if a <= 0xFFFF => Prefix::V6(Ipv6Net::new_truncated(
            Ipv6Addr::new(0x2001, 0xdb8, (a & 0xFFFF) as u16, 0, 0, 0, 0, 0),
            48,
        )),
        IpVersion::V6 => Prefix::V6(Ipv6Net::new_truncated(
            Ipv6Addr::new(0x2001, 0xdb8, (a >> 16) as u16, (a & 0xFFFF) as u16, 0, 0, 0, 0),
            64,
        )),
    }
}

impl Scenario {
    /// Build a scenario: generate the topology, assign policies, document a
    /// subset in the IRR, select collectors, propagate every origin on both
    /// planes, and record what each feeder exports to its collector.
    pub fn build(topology_config: &TopologyConfig, sim_config: &SimConfig) -> Scenario {
        sim_config.validate().expect("invalid simulation configuration");
        let truth = topogen::generate(topology_config);
        Self::build_from_truth(truth, topology_config.clone(), sim_config)
    }

    /// Build a scenario on an existing ground truth (used by fixtures and
    /// ablations that reuse one topology under several measurement setups).
    pub fn build_from_truth(
        truth: GroundTruth,
        topology_config: TopologyConfig,
        sim_config: &SimConfig,
    ) -> Scenario {
        Self::assemble(truth, topology_config, sim_config, &PropagationCache::default())
    }

    /// Rebuild this scenario under a patched configuration, reusing every
    /// cached artefact the patch provably cannot change:
    ///
    /// * the ground truth is always reused (the topology is a function of
    ///   `topology_config` alone);
    /// * per-plane propagation outcomes are reused whenever the patch
    ///   leaves that plane's [`PropagationOptions`] (seed, leak
    ///   probability, v6 relaxation) untouched — this is the expensive
    ///   part of a build, and it is independent of policies, collectors
    ///   and documentation by construction;
    /// * if the patch changes *nothing* that feeds the generated
    ///   artefacts (e.g. only `concurrency`), the policies, registry,
    ///   collectors and RIB snapshots are cloned outright.
    ///
    /// The result is byte-identical to `Scenario::build` with the patched
    /// configuration — reuse is an execution detail, never an output knob
    /// (the scenario tests and the determinism suite enforce it).
    pub fn rebuild_with(&self, patch: impl FnOnce(&mut SimConfig)) -> Scenario {
        let mut sim = self.sim_config.clone();
        patch(&mut sim);
        sim.validate().expect("invalid simulation configuration");
        if output_key(&sim) == output_key(&self.sim_config) {
            // Clone-and-patch: nothing that reaches the outputs changed.
            return Scenario { sim_config: sim, ..self.clone() };
        }
        Self::assemble(self.truth.clone(), self.topology_config.clone(), &sim, &self.propagation)
    }

    /// The shared build path: generate policies, registry and collectors
    /// for `sim_config`, reuse propagation outcomes from `reuse` where the
    /// options match (computing and caching them otherwise), and
    /// materialise the collector RIBs.
    fn assemble(
        mut truth: GroundTruth,
        topology_config: TopologyConfig,
        sim_config: &SimConfig,
        reuse: &PropagationCache,
    ) -> Scenario {
        sim_config.validate().expect("invalid simulation configuration");
        // Serve the hot per-plane walks from the flat CSR mirror (or drop
        // it when the reference adjacency-map backend was requested). A
        // pure execution knob: the CSR iterates neighbours in the exact
        // adjacency order, so every downstream byte is identical.
        if sim_config.csr {
            truth.graph.freeze();
        } else {
            truth.graph.thaw();
        }
        let policies = PolicyTable::build(&truth, sim_config);

        // Document the chosen subset of schemes in the registry.
        let mut registry = IrrRegistry::new();
        for policy in policies.iter() {
            if policy.documented {
                registry.document_scheme(&policy.scheme, policy.documents_te);
            }
        }

        let mut rng = ChaCha8Rng::seed_from_u64(sim_config.seed ^ 0x636f_6c6c);
        let collectors = build_collectors(&truth, sim_config, &mut rng);

        let mut snapshots: Vec<RibSnapshot> = collectors
            .iter()
            .map(|c| RibSnapshot::new(c.id.clone(), sim_config.timestamp))
            .collect();

        // Inherit the reuse cache wholesale so entries the *current*
        // options do not match stay available to later rebuilds — that is
        // what lets an A/B/A sweep alternation keep hitting. The entry
        // actually used is (re)inserted, refreshing its LRU position.
        let mut propagation = reuse.clone();
        for plane in IpVersion::BOTH {
            let options = propagation_options(sim_config, plane);
            let outcomes =
                reuse.matching(plane, &options, sim_config.origin_sample).unwrap_or_else(|| {
                    Arc::new(Self::propagate_plane(&truth, sim_config, plane, &options))
                });
            Self::materialise_plane(
                &truth,
                &policies,
                &collectors,
                &mut snapshots,
                sim_config,
                plane,
                &outcomes,
            );
            propagation.insert(plane, options, sim_config.origin_sample, outcomes);
        }

        Scenario {
            truth,
            policies,
            registry,
            collectors,
            snapshots,
            topology_config,
            sim_config: sim_config.clone(),
            propagation,
        }
    }

    /// One plane's propagation round: every origin present on the plane,
    /// sharded across worker threads, each origin's own walk expanded
    /// with the frontier workers `options` carries (the split computed by
    /// [`SimConfig::propagation_split`], so origins × frontier stays
    /// within the budget); the outcomes come back in origin order, so the
    /// rest of the build is oblivious to how (or whether) it was
    /// parallelised.
    fn propagate_plane(
        truth: &GroundTruth,
        sim_config: &SimConfig,
        plane: IpVersion,
        options: &PropagationOptions,
    ) -> Vec<RoutingOutcome> {
        let graph = &truth.graph;
        let mut origins: Vec<Asn> = graph.asns().filter(|a| graph.degree(*a, plane) > 0).collect();
        origins.sort();
        // Origin sampling strides the *sorted* origin list, so which
        // origins survive is a pure function of the topology and the
        // knob — never of iteration order or worker count.
        if sim_config.origin_sample > 1 {
            origins = origins.into_iter().step_by(sim_config.origin_sample).collect();
        }
        let (origin_workers, _) = sim_config.propagation_split();
        propagate_origins(graph, &origins, plane, options, origin_workers)
    }

    /// Materialise one plane's RIB entries from its propagation outcomes.
    fn materialise_plane(
        truth: &GroundTruth,
        policies: &PolicyTable,
        collectors: &[CollectorSetup],
        snapshots: &mut [RibSnapshot],
        sim_config: &SimConfig,
        plane: IpVersion,
        outcomes: &[RoutingOutcome],
    ) {
        let graph = &truth.graph;
        // Feeder -> collector index, for the feeders active on this plane.
        let mut feeder_map: Vec<(Asn, usize, FeederKind)> = Vec::new();
        for (ci, collector) in collectors.iter().enumerate() {
            for feeder in collector.plane_feeders(plane) {
                feeder_map.push((feeder.asn, ci, feeder.kind));
            }
        }
        feeder_map.sort_by_key(|(asn, _, _)| *asn);

        let workers = sim_config.effective_concurrency();

        // Materialise each origin's RIB entries, sharded: everything an
        // origin contributes is a pure function of (origin, outcome)
        // because the route RNG is seeded per origin. Batches are pushed
        // into the per-collector snapshots in origin order, reproducing
        // the sequential entry sequence exactly.
        let batches: Vec<Vec<(usize, RibEntry)>> = shard_map(outcomes, workers, |outcome| {
            let origin = outcome.origin;
            let prefix = origin_prefix(origin, plane);
            // Per-origin deterministic RNG so results do not depend on how
            // many feeders or collectors exist.
            let mut route_rng = ChaCha8Rng::seed_from_u64(
                sim_config.seed ^ (u64::from(origin.value()) << 32) ^ u64::from(plane.afi()),
            );
            // TE request: does this origin ask its first provider for lower
            // preference on this prefix?
            let te_requested = route_rng.gen_bool(sim_config.te_request_probability);

            let mut batch: Vec<(usize, RibEntry)> = Vec::new();
            for &(feeder_asn, collector_idx, kind) in &feeder_map {
                let Some(path) = outcome.path(graph, feeder_asn) else { continue };
                let mut entry = build_rib_entry(
                    graph,
                    policies,
                    sim_config,
                    plane,
                    prefix,
                    &path,
                    feeder_asn,
                    kind,
                    te_requested,
                    &mut route_rng,
                );
                let feeder = collectors[collector_idx]
                    .feeders
                    .iter()
                    .find(|f| f.asn == feeder_asn)
                    .expect("feeder map is built from collectors");
                entry.peer = feeder.peer_id(plane);
                batch.push((collector_idx, entry));
            }
            batch
        });
        for batch in batches {
            for (collector_idx, entry) in batch {
                snapshots[collector_idx].push(entry);
            }
        }
    }

    /// Pool every collector's snapshot into one view, as the paper pools
    /// RouteViews and RIS. Uses the scenario's configured concurrency.
    pub fn merged_snapshot(&self) -> RibSnapshot {
        self.pooled_snapshot(self.sim_config.concurrency)
    }

    /// [`merged_snapshot`](Self::merged_snapshot) with an explicit worker
    /// count (`0` = all cores, `1` = sequential). Per-collector entry
    /// cloning is sharded; the pooled entry order — collector order, then
    /// each collector's own order — is identical at every worker count.
    pub fn pooled_snapshot(&self, concurrency: usize) -> RibSnapshot {
        let mut merged = RibSnapshot::new(CollectorId::new("merged"), self.sim_config.timestamp);
        let workers = crate::shard::effective_concurrency(concurrency);
        let chunks: Vec<Vec<RibEntry>> =
            shard_map(&self.snapshots, workers, |snap| snap.entries.clone());
        merged.entries = chunks.into_iter().flatten().collect();
        merged
    }

    /// Write one MRT TABLE_DUMP_V2 file per collector into `dir` and return
    /// the file paths (the directory is created if needed).
    pub fn write_mrt_files(&self, dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.snapshots.len());
        for snap in &self.snapshots {
            let name = snap
                .collector
                .as_ref()
                .map(|c| c.name().to_string())
                .unwrap_or_else(|| "collector".to_string());
            let path = dir.join(format!("{name}.rib.mrt"));
            mrt::write_snapshot_to_path(&path, snap)
                .map_err(|e| io::Error::other(e.to_string()))?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The total number of RIB entries across all collectors.
    pub fn total_rib_entries(&self) -> usize {
        self.snapshots.iter().map(|s| s.len()).sum()
    }
}

/// A sweep-point factory over one topology: builds a base scenario once,
/// then derives every further sweep point from it with
/// [`Scenario::rebuild_with`], so the topology is never regenerated and
/// propagation is only re-run when a patch actually changes its inputs.
///
/// This is the layer the paper-scale experiment bins sweep on (the
/// coverage sweep patches `documentation_probability`, the collector
/// sensitivity sweep patches `collector_count`; neither touches
/// propagation, so every point after the first reuses the routed
/// outcomes). The reuse counters report how often that happened.
#[derive(Debug, Clone)]
pub struct ScenarioPool {
    base: Scenario,
    propagation_reuses: u64,
    propagation_computes: u64,
}

impl ScenarioPool {
    /// Build the base scenario (topology generation + full build) the
    /// pool derives sweep points from.
    pub fn new(topology: &TopologyConfig, sim: &SimConfig) -> ScenarioPool {
        // The base build propagated both planes itself.
        let base = Scenario::build(topology, sim);
        ScenarioPool { base, propagation_reuses: 0, propagation_computes: 2 }
    }

    /// The base scenario sweep points are derived from.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// Build the sweep point obtained by patching the base configuration
    /// — byte-identical to `Scenario::build` with the patched config.
    pub fn scenario_with(&mut self, patch: impl FnOnce(&mut SimConfig)) -> Scenario {
        let scenario = self.base.rebuild_with(patch);
        for plane in IpVersion::BOTH {
            if scenario.propagation.shares_outcomes(&self.base.propagation, plane) {
                self.propagation_reuses += 1;
            } else {
                self.propagation_computes += 1;
            }
        }
        // Adopt the sweep point's cache as the pool's: it carries every
        // entry the base had plus whatever this point computed (all
        // against the same, never-changing ground truth), so a later
        // point that returns to these options reuses instead of
        // recomputing. Without this write-back the base cache never
        // learns and an A/B/A alternation re-propagates every iteration.
        self.base.propagation = scenario.propagation.clone();
        scenario
    }

    /// Per-plane propagation rounds served from the base's cache.
    pub fn propagation_reuses(&self) -> u64 {
        self.propagation_reuses
    }

    /// Per-plane propagation rounds actually computed (including the two
    /// the base build ran).
    pub fn propagation_computes(&self) -> u64 {
        self.propagation_computes
    }
}

/// Construct one collector RIB entry from a feeder's path to an origin.
#[allow(clippy::too_many_arguments)]
fn build_rib_entry<R: Rng>(
    graph: &AsGraph,
    policies: &PolicyTable,
    sim_config: &SimConfig,
    plane: IpVersion,
    prefix: Prefix,
    path: &[Asn],
    feeder_asn: Asn,
    feeder_kind: FeederKind,
    te_requested: bool,
    rng: &mut R,
) -> RibEntry {
    let as_path: bgp_types::AsPath = bgp_types::AsPath::from_sequence(path.to_vec());
    let mut attrs = PathAttributes::with_path(as_path);
    attrs.next_hop = Some(match plane {
        IpVersion::V4 => std::net::IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)),
        IpVersion::V6 => std::net::IpAddr::V6("2001:db8:beef::1".parse().unwrap()),
    });

    // The TE community the origin attached, addressed to its first upstream
    // (the AS right before the origin on the path), if that AS has a
    // documented lower-preference value.
    let origin = *path.last().expect("paths are never empty");
    let mut te_target: Option<(Asn, bgp_types::Community)> = None;
    if te_requested && path.len() >= 2 {
        let upstream = path[path.len() - 2];
        if let Some(upstream_policy) = policies.get(upstream) {
            if let Some(c) = upstream_policy.scheme.te_community(TrafficAction::LowerPreference) {
                te_target = Some((upstream, c));
            }
        }
    }
    if let Some((_, c)) = te_target {
        attrs.communities.insert(c);
    }

    // Walk the path from the origin towards the feeder, accumulating the
    // communities each AS adds at ingress (and dropping foreign ones at
    // scrubbing ASes).
    let mut per_as_locations: HashMap<Asn, u16> = HashMap::new();
    for i in (0..path.len() - 1).rev() {
        let this_as = path[i];
        let learned_from = path[i + 1];
        let Some(policy) = policies.get(this_as) else { continue };
        if policy.scrubs_foreign_communities {
            // Keep only communities defined by this AS (the usual
            // "delete foreign communities" policy), plus the TE community
            // addressed to an AS we have not reached yet.
            let own: Vec<bgp_types::Community> = attrs.communities.defined_by(this_as).collect();
            let keep_te = te_target.filter(|(target, _)| {
                // The TE target is upstream of the origin; once passed it is
                // allowed to be scrubbed like anything else.
                path.iter().position(|a| a == target).map(|p| p < i).unwrap_or(false)
            });
            attrs.communities = own.into_iter().collect();
            if let Some((_, c)) = keep_te {
                attrs.communities.insert(c);
            }
        }
        if let Some(rel) = graph.relationship(this_as, learned_from, plane) {
            if let Some(c) = policy.ingress_community(rel) {
                attrs.communities.insert(c);
            }
        }
        if policy.scheme.location_count > 0 && rng.gen_bool(sim_config.location_tag_probability) {
            let index = *per_as_locations
                .entry(this_as)
                .or_insert_with(|| rng.gen_range(0..policy.scheme.location_count));
            if let Some(c) = policy.scheme.location_community(index) {
                attrs.communities.insert(c);
            }
        }
    }

    // LocPrf: only full feeders expose it; the value is what the feeder
    // assigned given the relationship towards the neighbor it learned the
    // route from, or the TE-lowered value if the route carries the feeder's
    // lower-preference community.
    if feeder_kind == FeederKind::Full {
        if let Some(policy) = policies.get(feeder_asn) {
            let lowered = policy
                .scheme
                .te_community(TrafficAction::LowerPreference)
                .map(|c| attrs.communities.contains(c))
                .unwrap_or(false);
            let local_pref = if path.len() >= 2 {
                let learned_from = path[1];
                match graph.relationship(feeder_asn, learned_from, plane) {
                    Some(rel) if lowered => {
                        let _ = rel;
                        policy.locprf.lowered
                    }
                    Some(rel) => policy.locprf.for_relationship(rel),
                    None => policy.locprf.provider,
                }
            } else {
                // The feeder originates the prefix itself.
                policy.locprf.customer
            };
            attrs.local_pref = Some(local_pref);
        }
    }

    let mut entry = RibEntry::new(
        // Placeholder peer id; the caller overwrites it with the feeder's
        // session address for the right plane.
        bgp_types::PeerId::new(feeder_asn, std::net::IpAddr::V4(Ipv4Addr::UNSPECIFIED)),
        prefix,
        attrs,
    );
    entry.source = RouteSource::Simulated;
    let _ = origin;
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Relationship;

    fn small_scenario() -> Scenario {
        Scenario::build(&TopologyConfig::tiny(), &SimConfig::small())
    }

    #[test]
    fn origin_prefixes_are_unique_and_plane_appropriate() {
        let mut seen = std::collections::HashSet::new();
        for asn in [100u32, 101, 356, 65000] {
            for plane in IpVersion::BOTH {
                let p = origin_prefix(Asn(asn), plane);
                assert_eq!(p.version(), plane);
                assert!(seen.insert(p), "duplicate prefix {p}");
            }
        }
    }

    #[test]
    fn origin_prefixes_stay_unique_past_the_16_bit_asn_boundary() {
        // The internet-scale topologies hand out ASNs past 65535; the
        // legacy truncating mapping collided there (ASN 65636 aliased ASN
        // 100 on both planes). Sweep a dense band straddling the boundary
        // plus the aliasing pairs explicitly.
        let mut seen = std::collections::HashSet::new();
        let asns = (65000u32..66000).chain([100, 356, 131172, 200_000, (1 << 23) - 1]);
        for asn in asns {
            for plane in IpVersion::BOTH {
                let p = origin_prefix(Asn(asn), plane);
                assert_eq!(p.version(), plane);
                assert!(seen.insert(p), "duplicate prefix {p} for ASN {asn}");
            }
        }
        // And the 16-bit mapping itself is untouched (golden stability).
        assert_eq!(origin_prefix(Asn(0x1234), IpVersion::V4).to_string(), "10.18.52.0/24");
        assert_eq!(origin_prefix(Asn(0x1234), IpVersion::V6).to_string(), "2001:db8:1234::/48");
    }

    #[test]
    fn csr_knob_is_invisible_in_scenario_outputs() {
        let frozen = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        assert!(frozen.truth.graph.is_frozen(), "csr defaults on");
        let map = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_csr(false));
        assert!(!map.truth.graph.is_frozen());
        assert_same_outputs(&frozen, &map, "csr backend");
        // And a csr-only patch is the clone-and-patch fast path.
        let patched = frozen.rebuild_with(|s| s.csr = false);
        assert_eq!(patched.snapshots, frozen.snapshots);
        for plane in IpVersion::BOTH {
            assert!(patched.propagation.shares_outcomes(&frozen.propagation, plane));
        }
    }

    #[test]
    fn origin_sampling_prunes_routes_deterministically() {
        let full = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let sampled =
            Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_origin_sample(4));
        assert!(sampled.total_rib_entries() > 0);
        assert!(
            sampled.total_rib_entries() < full.total_rib_entries(),
            "a stride of 4 must drop origins"
        );
        // Sampled origins are a subset selected by sorted-ASN stride, so
        // every surviving prefix also exists in the full build.
        let full_prefixes: std::collections::HashSet<Prefix> =
            full.merged_snapshot().entries.iter().map(|e| e.prefix).collect();
        for entry in &sampled.merged_snapshot().entries {
            assert!(full_prefixes.contains(&entry.prefix));
        }
        // An output knob: rebuild_with must re-materialise, and the two
        // strides must agree with from-scratch builds byte for byte.
        let rebuilt = full.rebuild_with(|s| s.origin_sample = 4);
        assert_same_outputs(&rebuilt, &sampled, "origin_sample rebuild");
    }

    #[test]
    fn scenario_builds_and_has_routes_on_both_planes() {
        let s = small_scenario();
        assert_eq!(s.snapshots.len(), s.collectors.len());
        assert!(s.total_rib_entries() > 0);
        let merged = s.merged_snapshot();
        assert_eq!(merged.len(), s.total_rib_entries());
        assert!(merged.plane_entries(IpVersion::V4).count() > 0);
        assert!(merged.plane_entries(IpVersion::V6).count() > 0);
        // v4 visibility exceeds v6 visibility (partial adoption).
        assert!(
            merged.plane_entries(IpVersion::V4).count()
                > merged.plane_entries(IpVersion::V6).count()
        );
    }

    #[test]
    fn parallel_scenario_build_is_byte_identical_to_sequential() {
        let sequential =
            Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_concurrency(1));
        for workers in [0usize, 2, 4] {
            let parallel = Scenario::build(
                &TopologyConfig::tiny(),
                &SimConfig::small().with_concurrency(workers),
            );
            assert_eq!(parallel.snapshots, sequential.snapshots, "workers={workers}");
            assert_eq!(parallel.registry, sequential.registry, "workers={workers}");
            // Pooling order is independent of the pooling worker count too.
            assert_eq!(parallel.pooled_snapshot(workers), sequential.merged_snapshot());
        }
    }

    #[test]
    fn frontier_knob_is_invisible_in_scenario_outputs() {
        let sequential =
            Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_concurrency(1));
        for (workers, frontier) in [(1usize, 2usize), (1, 0), (2, 2), (0, 4), (4, 1)] {
            let parallel = Scenario::build(
                &TopologyConfig::tiny(),
                &SimConfig::small().with_concurrency(workers).with_frontier(frontier),
            );
            assert_eq!(
                parallel.snapshots, sequential.snapshots,
                "workers={workers} frontier={frontier}"
            );
            assert_eq!(parallel.registry, sequential.registry);
        }
    }

    #[test]
    fn rebuild_with_a_frontier_only_patch_reuses_everything() {
        let base = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        // The frontier knob never reaches the outputs, so the rebuild is
        // the clone-and-patch fast path: snapshots identical, propagation
        // outcomes Arc-shared on both planes.
        let patched = base.rebuild_with(|s| s.frontier_concurrency = 4);
        assert_eq!(patched.snapshots, base.snapshots);
        assert_eq!(patched.sim_config.frontier_concurrency, 4);
        for plane in IpVersion::BOTH {
            assert!(patched.propagation.shares_outcomes(&base.propagation, plane));
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = small_scenario();
        let b = small_scenario();
        assert_eq!(a.total_rib_entries(), b.total_rib_entries());
        let ma = a.merged_snapshot();
        let mb = b.merged_snapshot();
        assert_eq!(ma, mb);
        assert_eq!(a.registry, b.registry);
    }

    #[test]
    fn paths_in_ribs_are_loop_free_and_end_at_the_origin_prefix_owner() {
        let s = small_scenario();
        for entry in &s.merged_snapshot().entries {
            assert!(!entry.has_bogus_path(), "bogus path {}", entry.attrs.as_path);
            let origin = entry.origin_asn().unwrap();
            assert_eq!(origin_prefix(origin, entry.plane()), entry.prefix);
            assert_eq!(entry.attrs.as_path.first(), Some(entry.peer.asn));
            assert_eq!(entry.peer.plane(), entry.plane());
        }
    }

    #[test]
    fn full_feeders_expose_locpref_partial_feeders_do_not() {
        let s = small_scenario();
        let full: std::collections::HashSet<Asn> = s
            .collectors
            .iter()
            .flat_map(|c| c.feeders.iter())
            .filter(|f| f.kind == FeederKind::Full)
            .map(|f| f.asn)
            .collect();
        let mut saw_full = false;
        for entry in &s.merged_snapshot().entries {
            if full.contains(&entry.peer.asn) {
                assert!(entry.attrs.local_pref.is_some(), "full feeder without LocPrf");
                saw_full = true;
            } else {
                assert!(entry.attrs.local_pref.is_none(), "partial feeder leaked LocPrf");
            }
        }
        assert!(saw_full, "expected at least one full feeder entry");
    }

    #[test]
    fn locpref_ordering_reflects_relationships_for_untainted_routes() {
        let s = small_scenario();
        // For every full feeder, group LocPrf by the true relationship to the
        // first hop and verify customer > peer > provider on average.
        let mut by_rel: HashMap<(Asn, Relationship), Vec<u32>> = HashMap::new();
        for entry in &s.merged_snapshot().entries {
            let Some(lp) = entry.attrs.local_pref else { continue };
            let path: Vec<Asn> = entry.attrs.as_path.asns().collect();
            if path.len() < 2 {
                continue;
            }
            let rel = s.truth.graph.relationship(path[0], path[1], entry.plane());
            if let Some(rel) = rel {
                by_rel.entry((entry.peer.asn, rel)).or_default().push(lp);
            }
        }
        let mut checked = 0;
        for ((feeder, _), _) in by_rel.iter() {
            let get = |rel: Relationship| {
                by_rel.get(&(*feeder, rel)).map(|v| v.iter().copied().max().unwrap_or(0))
            };
            if let (Some(c), Some(p)) =
                (get(Relationship::ProviderToCustomer), get(Relationship::CustomerToProvider))
            {
                assert!(c > p, "feeder {feeder}: customer max {c} <= provider max {p}");
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one feeder with both classes");
    }

    #[test]
    fn communities_on_routes_reflect_true_relationships() {
        let s = small_scenario();
        let mut verified = 0;
        for entry in &s.merged_snapshot().entries {
            let path: Vec<Asn> = entry.attrs.as_path.asns().collect();
            for community in entry.attrs.communities.iter() {
                let tagger = community.asn();
                // Find the tagger on the path; the community may be a
                // relationship tag about the next hop towards the origin.
                let Some(pos) = path.iter().position(|a| *a == tagger) else { continue };
                if pos + 1 >= path.len() {
                    continue;
                }
                let Some(policy) = s.policies.get(tagger) else { continue };
                let Some(meaning) = policy.scheme.meaning_of(community.value()) else { continue };
                if let Some(tag) = meaning.relationship_tag() {
                    let expected = tag.implied_relationship();
                    let actual = s
                        .truth
                        .graph
                        .relationship(tagger, path[pos + 1], entry.plane())
                        .expect("tagged link must exist");
                    assert_eq!(
                        actual, expected,
                        "community {community} on {}",
                        entry.attrs.as_path
                    );
                    verified += 1;
                }
            }
        }
        assert!(verified > 50, "expected many relationship tags, verified {verified}");
    }

    #[test]
    fn registry_documents_only_documented_policies() {
        let s = small_scenario();
        let documented = s.policies.documented_ases();
        assert_eq!(s.registry.len(), documented.len());
        for asn in documented {
            assert!(s.registry.get(asn).is_some());
        }
    }

    #[test]
    fn mrt_files_round_trip_through_the_codec() {
        let s = small_scenario();
        let dir = std::env::temp_dir().join(format!("routesim-mrt-{}", std::process::id()));
        let paths = s.write_mrt_files(&dir).unwrap();
        assert_eq!(paths.len(), s.snapshots.len());
        let mut total = 0;
        for (path, snap) in paths.iter().zip(&s.snapshots) {
            let decoded = mrt::read_snapshot_from_path(path).unwrap();
            assert_eq!(decoded.len(), snap.len());
            assert_eq!(decoded.collector, snap.collector);
            total += decoded.len();
        }
        assert_eq!(total, s.total_rib_entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Canonical comparison of two scenarios' outputs: snapshots,
    /// registry and collectors must match entry for entry.
    fn assert_same_outputs(a: &Scenario, b: &Scenario, what: &str) {
        assert_eq!(a.snapshots, b.snapshots, "{what}: snapshots diverged");
        assert_eq!(a.registry, b.registry, "{what}: registry diverged");
        assert_eq!(a.collectors, b.collectors, "{what}: collectors diverged");
    }

    #[test]
    fn rebuild_with_matches_a_from_scratch_build() {
        let topology = TopologyConfig::tiny();
        let base = Scenario::build(&topology, &SimConfig::small());
        // Patches the three sweep bins apply, plus a propagation-relevant
        // one that must force a recompute — all must be byte-identical to
        // building from config.
        type Patch = Box<dyn Fn(&mut SimConfig)>;
        let patches: Vec<(&str, Patch)> = vec![
            (
                "documentation rate",
                Box::new(|s: &mut SimConfig| s.documentation_probability = 0.25),
            ),
            ("collector count", Box::new(|s: &mut SimConfig| s.collector_count = 3)),
            ("leak probability", Box::new(|s: &mut SimConfig| s.leak_probability = 0.2)),
            ("concurrency only", Box::new(|s: &mut SimConfig| s.concurrency = 2)),
            ("identity", Box::new(|_| {})),
        ];
        for (what, patch) in &patches {
            let rebuilt = base.rebuild_with(patch);
            let mut sim = SimConfig::small();
            patch(&mut sim);
            let scratch = Scenario::build(&topology, &sim);
            assert_same_outputs(&rebuilt, &scratch, what);
            assert_eq!(rebuilt.sim_config, sim, "{what}: sim config not patched");
        }
    }

    #[test]
    fn rebuild_with_reuses_propagation_only_when_its_inputs_are_unchanged() {
        let base = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let doc_patched = base.rebuild_with(|s| s.documentation_probability = 0.3);
        let leak_patched = base.rebuild_with(|s| s.leak_probability = 0.3);
        for plane in IpVersion::BOTH {
            assert!(
                doc_patched.propagation.shares_outcomes(&base.propagation, plane),
                "documentation patch must reuse {plane:?} propagation"
            );
            assert!(
                !leak_patched.propagation.shares_outcomes(&base.propagation, plane),
                "leak patch must recompute {plane:?} propagation"
            );
        }
        // Relaxation is a v6-only input: v4 outcomes survive the patch.
        let relax_patched = base.rebuild_with(|s| s.v6_reachability_relaxation = false);
        assert!(relax_patched.propagation.shares_outcomes(&base.propagation, IpVersion::V4));
        assert!(!relax_patched.propagation.shares_outcomes(&base.propagation, IpVersion::V6));
    }

    #[test]
    fn scenario_pool_counts_reuse_and_reproduces_builds() {
        let topology = TopologyConfig::tiny();
        let mut pool = ScenarioPool::new(&topology, &SimConfig::small());
        assert_eq!(pool.propagation_computes(), 2, "the base build propagates both planes");
        assert_eq!(pool.propagation_reuses(), 0);
        assert!(pool.base().total_rib_entries() > 0);
        for rate in [0.1, 0.5, 1.0] {
            let pooled = pool.scenario_with(|s| s.documentation_probability = rate);
            let mut sim = SimConfig::small();
            sim.documentation_probability = rate;
            let scratch = Scenario::build(&topology, &sim);
            assert_same_outputs(&pooled, &scratch, "pooled sweep point");
        }
        assert_eq!(pool.propagation_reuses(), 6, "3 sweep points × 2 planes reused");
        assert_eq!(pool.propagation_computes(), 2, "no sweep point re-propagated");
        let _ = pool.scenario_with(|s| s.leak_probability = 0.5);
        assert_eq!(pool.propagation_computes(), 4, "a leak patch re-propagates both planes");
    }

    #[test]
    fn pool_alternating_sweep_points_hit_the_propagation_lru() {
        // Regression: the old one-entry-per-plane cache thrashed on an
        // A/B/A/B alternation of propagation-relevant options — every
        // sweep point evicted the other's outcomes and re-propagated.
        // With the options-keyed LRU (plus the pool's cache write-back)
        // the second A and the second B must both be served from cache.
        let topology = TopologyConfig::tiny();
        let mut pool = ScenarioPool::new(&topology, &SimConfig::small());
        for leak in [0.1, 0.2, 0.1, 0.2] {
            let pooled = pool.scenario_with(|s| s.leak_probability = leak);
            let mut sim = SimConfig::small();
            sim.leak_probability = leak;
            let scratch = Scenario::build(&topology, &sim);
            assert_same_outputs(&pooled, &scratch, "alternating sweep point");
        }
        assert!(pool.propagation_reuses() >= 1, "the A/B/A revisits must hit the cache");
        assert_eq!(pool.propagation_reuses(), 4, "second A and second B reuse both planes");
        assert_eq!(pool.propagation_computes(), 6, "base + first A + first B compute");
    }

    #[test]
    fn propagation_lru_evicts_the_oldest_entry_deterministically() {
        let mut cache = PropagationCache::default();
        let options_for = |seed: u64| PropagationOptions { seed, ..Default::default() };
        let distinct_outcomes = || Arc::new(Vec::new());
        for seed in 0..=PROPAGATION_LRU_CAPACITY as u64 {
            cache.insert(IpVersion::V4, options_for(seed), 0, distinct_outcomes());
        }
        // One past capacity: the oldest (seed 0) is gone, everything else
        // — and nothing on the untouched plane — survives.
        assert!(cache.matching(IpVersion::V4, &options_for(0), 0).is_none(), "oldest evicted");
        for seed in 1..=PROPAGATION_LRU_CAPACITY as u64 {
            assert!(cache.matching(IpVersion::V4, &options_for(seed), 0).is_some(), "seed {seed}");
        }
        assert!(cache.matching(IpVersion::V6, &options_for(1), 0).is_none(), "planes are separate");
        // The sampling stride is part of the key: a different stride under
        // the same route model must miss, never alias.
        assert!(cache.matching(IpVersion::V4, &options_for(1), 4).is_none(), "stride keys");
        // A re-insert of an existing route model replaces (refreshes)
        // instead of duplicating: inserting seed 1 again and then one
        // fresh entry must evict seed 2, not seed 1.
        cache.insert(IpVersion::V4, options_for(1), 0, distinct_outcomes());
        cache.insert(IpVersion::V4, options_for(99), 0, distinct_outcomes());
        assert!(cache.matching(IpVersion::V4, &options_for(1), 0).is_some(), "refreshed survives");
        assert!(cache.matching(IpVersion::V4, &options_for(2), 0).is_none(), "LRU evicted");
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn rebuild_with_rejects_invalid_patches() {
        let base = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let _ = base.rebuild_with(|s| s.collector_count = 0);
    }

    #[test]
    fn v6_relaxation_produces_paths_where_strict_would_not() {
        // Build the same truth twice with and without relaxation and verify
        // the relaxed scenario sees at least as many IPv6 routes.
        let truth = topogen::generate(&TopologyConfig::tiny());
        let mut strict_cfg = SimConfig::small();
        strict_cfg.v6_reachability_relaxation = false;
        strict_cfg.leak_probability = 0.0;
        let mut relaxed_cfg = strict_cfg.clone();
        relaxed_cfg.v6_reachability_relaxation = true;

        let strict = Scenario::build_from_truth(truth.clone(), TopologyConfig::tiny(), &strict_cfg);
        let relaxed = Scenario::build_from_truth(truth, TopologyConfig::tiny(), &relaxed_cfg);
        let strict_v6 = strict.merged_snapshot().plane_entries(IpVersion::V6).count();
        let relaxed_v6 = relaxed.merged_snapshot().plane_entries(IpVersion::V6).count();
        assert!(relaxed_v6 >= strict_v6);
    }
}

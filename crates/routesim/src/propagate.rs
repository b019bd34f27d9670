//! Per-origin route propagation under Gao–Rexford export policies.
//!
//! For every origin prefix the simulator computes, for every AS, the best
//! route that AS would select, following the standard model:
//!
//! * an AS prefers routes learned from customers over routes learned from
//!   peers over routes learned from providers (this is what the LocPrf
//!   bases encode), breaking ties by AS-path length and then by lowest
//!   next-hop ASN;
//! * customer-learned (and self-originated) routes are exported to
//!   everyone; peer- and provider-learned routes are exported only to
//!   customers;
//! * sibling links are transparent: routes cross them without changing
//!   class.
//!
//! Two controlled deviations produce the non-valley-free paths the paper
//! observes on the IPv6 plane:
//!
//! * **reachability relaxation** — an AS that would otherwise have *no*
//!   route accepts one from any neighbor (and passes it on downhill);
//! * **route leaks** — with a small probability an AS re-exports a peer-
//!   or provider-learned route to a peer/provider that should not have
//!   received it.
//!
//! On top of the classic walk, every adoption point dispatches through a
//! per-AS [`PolicyEngine`]: under the
//! default [`PolicyScenario::Classic`] assignment every AS accepts
//! everything and the walk reproduces the pre-refactor routes bit for
//! bit, while the adversarial scenarios (route leak, prefix and
//! subprefix hijack) seed extra origins or deterministic leaks and let
//! partially deployed defensive policies (ROV, ASPA-lite) veto the
//! tainted candidates — see [`propagate_origin_with`].
//!
//! The walk never filters an AS's full adjacency. A batch of origins on
//! one plane shares a [`PlaneContext`]: the policy engine plus a link view
//! that holds every AS's annotated neighbours on that plane, grouped as
//! customers | peers | providers | siblings, each group in
//! [`AsGraph::neighbors_by_id`] order. Unannotated links are dropped; no
//! phase follows them. Each phase reads only the groups it follows:
//!
//! * Phase 1, the customer climb: providers and siblings;
//! * Phase 2, the peer export: peers;
//! * Phase 3, the provider descent: customers;
//! * the sibling closures after Phases 2 and 3: siblings, with the queue
//!   seeded only from ASes that have siblings;
//! * Phase 4 and the scenario's deterministic leak: providers and peers
//!   (the leak's downhill spread: customers and siblings);
//! * Phase 5, the relaxation: every group, with the heap seeded only from
//!   the routed neighbours of unrouted ASes.
//!
//! Each of these only skips scans and pops that can never change a route,
//! so the selected routes are those of the full-adjacency walk.
//!
//! Execution is parallel on two levels, both steered by knobs that never
//! change the selected routes: origins shard across workers
//! ([`propagate_origins`]), and *within* one origin the Phase 1/3 walks
//! run level-synchronously with each level's neighbor scan striped across
//! workers ([`PropagationOptions::frontier_concurrency`], resolved with
//! the usual `0` = all cores / `1` = sequential convention).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use asgraph::{AsGraph, NodeId};
use bgp_types::{Asn, IpVersion, Relationship};

use crate::policy::{PolicyDeployment, PolicyEngine, PolicyScenario};
use crate::shard::shard_frontier;

/// How origins are assigned to the workers of [`propagate_origins`].
///
/// There is one schedule. The type, [`PropagationOptions::scheduling`],
/// `SimConfig::scheduling` and the `with_scheduling` setters on
/// `SimConfig` and `PipelineOptions` remain only because the end-to-end
/// benchmark under `perfbench/` pins them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OriginScheduling {
    /// Degree-aware LPT binning: origins are weighted by their out-degree
    /// on the propagated plane and assigned longest-first to the
    /// least-loaded worker, so a handful of high-degree origins cannot
    /// serialize the batch behind them. Outcomes merge back in origin
    /// order, so the schedule is invisible in the output.
    #[default]
    Degree,
}

/// How an AS learned its best route towards the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// The AS originates the prefix itself.
    Origin,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
    /// Accepted from an arbitrary neighbor to restore reachability
    /// (valley-free relaxation).
    Relaxed,
    /// Received through a route leak.
    Leaked,
}

impl RouteClass {
    /// True for the classes that violate (or may violate) the valley-free
    /// export discipline.
    pub fn is_irregular(self) -> bool {
        matches!(self, RouteClass::Relaxed | RouteClass::Leaked)
    }
}

/// What a route has been through on its way here. Candidates inherit the
/// taint of the route their sender selected, so the bits are transitive:
/// any AS downstream of a hijacked origin or a leaked hop sees them, and
/// the defensive policies ([`crate::policy::RovPolicy`],
/// [`crate::policy::AspaLitePolicy`]) key their vetoes off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RouteTaint {
    /// The route's origin is a hijacker, not the legitimate holder.
    pub hijacked: bool,
    /// The route traversed at least one leaked export.
    pub leaked: bool,
}

/// One AS's selected route towards the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// How the route was learned.
    pub class: RouteClass,
    /// AS-path length in hops (origin = 0).
    pub path_len: u32,
    /// The neighbor the route was learned from (towards the origin).
    /// Meaningless for the origin itself.
    pub next_hop: NodeId,
    /// What the route has been through (hijacked origin, leaked hop).
    pub taint: RouteTaint,
}

/// Options controlling the propagation deviations and its execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationOptions {
    /// Enable the reachability relaxation phase.
    pub reachability_relaxation: bool,
    /// Per-(AS, origin) probability of leaking a peer/provider route.
    pub leak_probability: f64,
    /// Seed mixed with the origin ASN for the leak draws.
    pub seed: u64,
    /// The adversarial scenario the walk runs under (see
    /// [`PolicyScenario`]). Route model, not an execution detail: the
    /// non-classic scenarios change the selected routes.
    pub scenario: PolicyScenario,
    /// Partial deployment of the scenario's defensive policy (see
    /// [`PolicyDeployment`]). Route model like the scenario itself.
    pub deployment: PolicyDeployment,
    /// Worker threads for the *within-origin* frontier expansion: each
    /// level of the Phase 1/3 level-synchronous walks and the Phase 2
    /// exporter scan stripe their neighbor scans across this many
    /// threads. `0` = all available cores, `1` (the default) = the plain
    /// sequential scan — the same convention as every other concurrency
    /// knob. Execution only: the selected routes are identical at every
    /// value (see [`PropagationOptions::same_route_model`]).
    pub frontier_concurrency: usize,
    /// How [`propagate_origins`] assigns origins to its workers — always
    /// [`OriginScheduling::Degree`], the only schedule; kept because the
    /// end-to-end benchmark builds these options as a struct literal.
    pub scheduling: OriginScheduling,
}

impl Default for PropagationOptions {
    fn default() -> Self {
        PropagationOptions {
            reachability_relaxation: false,
            leak_probability: 0.0,
            seed: 0,
            scenario: PolicyScenario::default(),
            deployment: PolicyDeployment::default(),
            frontier_concurrency: 1,
            scheduling: OriginScheduling::default(),
        }
    }
}

impl PropagationOptions {
    /// These options pinned to `frontier_concurrency` within-origin
    /// workers.
    pub fn with_frontier(self, frontier_concurrency: usize) -> Self {
        PropagationOptions { frontier_concurrency, ..self }
    }

    /// These options pinned to an adversarial scenario.
    pub fn with_scenario(self, scenario: PolicyScenario) -> Self {
        PropagationOptions { scenario, ..self }
    }

    /// These options pinned to a defensive deployment plan.
    pub fn with_deployment(self, deployment: PolicyDeployment) -> Self {
        PropagationOptions { deployment, ..self }
    }

    /// True when `other` selects exactly the same routes: every field
    /// that feeds route selection matches, ignoring the execution-only
    /// `frontier_concurrency` and `scheduling`. The scenario layer's
    /// propagation cache compares options with this (not `==`), so
    /// retuning the frontier knob between sweep points neither
    /// invalidates cached outcomes nor smuggles an execution detail into
    /// reuse decisions. The exhaustive destructuring makes a new field
    /// refuse to compile until it is classified as route model or
    /// execution detail.
    pub fn same_route_model(&self, other: &PropagationOptions) -> bool {
        let PropagationOptions {
            reachability_relaxation,
            leak_probability,
            seed,
            scenario,
            deployment,
            frontier_concurrency: _,
            scheduling: _,
        } = *self;
        reachability_relaxation == other.reachability_relaxation
            && leak_probability == other.leak_probability
            && seed == other.seed
            && scenario == other.scenario
            && deployment == other.deployment
    }
}

/// The result of propagating one origin on one plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// The origin AS.
    pub origin: Asn,
    /// The plane the propagation ran on.
    pub plane: IpVersion,
    routes: Vec<Option<RouteInfo>>,
}

impl RoutingOutcome {
    /// The selected route of an AS, if it has one.
    pub fn route(&self, graph: &AsGraph, asn: Asn) -> Option<RouteInfo> {
        graph.node(asn).and_then(|n| self.routes[n.index()])
    }

    /// Number of ASes (including the origin) that have a route.
    pub fn routed_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// The AS path `from → ... → origin` (inclusive on both ends) that
    /// `from` would use, reconstructed through the next-hop pointers.
    pub fn path(&self, graph: &AsGraph, from: Asn) -> Option<Vec<Asn>> {
        let mut node = graph.node(from)?;
        self.routes[node.index()]?;
        let mut path = vec![graph.asn(node)];
        let mut guard = 0usize;
        while let Some(info) = self.routes[node.index()] {
            if info.class == RouteClass::Origin {
                break;
            }
            node = info.next_hop;
            path.push(graph.asn(node));
            guard += 1;
            if guard > self.routes.len() {
                // A replacement introduced a pointer loop; treat as unroutable.
                return None;
            }
        }
        Some(path)
    }

    /// True when the route of `from` traverses at least one irregular
    /// (relaxed or leaked) hop.
    pub fn path_is_irregular(&self, graph: &AsGraph, from: Asn) -> Option<bool> {
        let mut node = graph.node(from)?;
        self.routes[node.index()]?;
        let mut guard = 0usize;
        while let Some(info) = self.routes[node.index()] {
            if info.class.is_irregular() {
                return Some(true);
            }
            if info.class == RouteClass::Origin {
                return Some(false);
            }
            node = info.next_hop;
            guard += 1;
            if guard > self.routes.len() {
                return Some(true);
            }
        }
        Some(false)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    path_len: u32,
    tie_break: u32,
    node: u32,
}

/// Fixed-capacity bitset over node ids: the next-frontier accumulator of
/// the level-synchronous walks. One bit per node replaces the old
/// `Vec<NodeId>` push-per-candidate frontier — membership stays a set
/// under duplicate insertions and the drain yields ids in ascending
/// order. The reordering is output-invariant: each level's candidate
/// merge is a per-target minimum over `(path_len, next-hop ASN)` (see
/// [`better`]), so neither the winners nor the next level's membership
/// depend on the order the frontier was accumulated in.
struct NodeBitSet {
    words: Vec<u64>,
}

impl NodeBitSet {
    fn new(nodes: usize) -> Self {
        NodeBitSet { words: vec![0; nodes.div_ceil(64)] }
    }

    #[inline]
    fn insert(&mut self, node: NodeId) {
        let i = node.index();
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Move the set bits into `out` (cleared first) in ascending node-id
    /// order, leaving the set empty for the next level.
    fn drain_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(NodeId((w as u32) * 64 + b));
                bits &= bits - 1;
            }
        }
    }
}

/// Below this many frontier nodes per worker, scanning a level is cheaper
/// than spawning the scoped threads that would stripe it, so the
/// expansion stays sequential whatever the knob says. Execution only:
/// [`shard_frontier`] produces the same candidate sequence at any worker
/// count, this merely skips the spawn when it cannot pay for itself.
const MIN_FRONTIER_PER_WORKER: usize = 128;

/// The worker count actually used for one level's scan: the requested
/// count, capped so every worker gets at least
/// [`MIN_FRONTIER_PER_WORKER`] nodes.
fn level_workers(requested: usize, frontier_len: usize) -> usize {
    requested.min(frontier_len / MIN_FRONTIER_PER_WORKER).max(1)
}

/// The link groups of [`PlaneLinks`], indexed in layout order.
const CUSTOMERS: usize = 0;
const PEERS: usize = 1;
const PROVIDERS: usize = 2;
const SIBLINGS: usize = 3;
const GROUP_COUNT: usize = 4;

/// The group of a link whose relationship, oriented `node → neighbour`,
/// is `rel`.
fn group_of(rel: Relationship) -> usize {
    match rel {
        Relationship::ProviderToCustomer => CUSTOMERS,
        Relationship::PeerToPeer => PEERS,
        Relationship::CustomerToProvider => PROVIDERS,
        Relationship::SiblingToSibling => SIBLINGS,
    }
}

/// One plane's annotated links, partitioned by relationship: each node's
/// neighbours laid out as customers | peers | providers | siblings, every
/// group a stable partition of [`AsGraph::neighbors_by_id`] order. Links
/// present on the plane without an annotation are dropped, because no
/// phase of the walk follows them. The layout puts the mix each phase
/// follows into one contiguous slice (the route-leak spread's customers +
/// siblings is the one exception), so a phase reads exactly the links it
/// can use instead of filtering the node's full adjacency per origin.
#[derive(Debug)]
struct PlaneLinks {
    /// `GROUP_COUNT * node_count + 1` offsets into `targets`: group `g`
    /// of node `i` is `targets[starts[4 * i + g]..starts[4 * i + g + 1]]`.
    starts: Vec<u32>,
    targets: Vec<NodeId>,
    /// The nodes with at least one sibling, ascending: the only nodes a
    /// sibling closure can export from.
    sibling_nodes: Vec<NodeId>,
}

impl PlaneLinks {
    fn build(graph: &AsGraph, plane: IpVersion) -> Self {
        let mut starts = Vec::with_capacity(GROUP_COUNT * graph.node_count() + 1);
        let mut targets = Vec::new();
        let mut grouped: [Vec<NodeId>; GROUP_COUNT] = Default::default();
        starts.push(0);
        for node in graph.nodes() {
            for (next, rel) in graph.neighbors_by_id(node, plane) {
                if let Some(rel) = rel {
                    grouped[group_of(rel)].push(next);
                }
            }
            for group in &mut grouped {
                targets.append(group);
                starts.push(u32::try_from(targets.len()).expect("link count exceeds u32"));
            }
        }
        let mut links = PlaneLinks { starts, targets, sibling_nodes: Vec::new() };
        links.sibling_nodes =
            graph.nodes().filter(|&node| !links.siblings(node).is_empty()).collect();
        links
    }

    /// Groups `first..=last` of `node`, one slice by the layout.
    #[inline]
    fn groups(&self, node: NodeId, first: usize, last: usize) -> &[NodeId] {
        let base = GROUP_COUNT * node.index();
        &self.targets[self.starts[base + first] as usize..self.starts[base + last + 1] as usize]
    }

    fn customers(&self, node: NodeId) -> &[NodeId] {
        self.groups(node, CUSTOMERS, CUSTOMERS)
    }

    fn peers(&self, node: NodeId) -> &[NodeId] {
        self.groups(node, PEERS, PEERS)
    }

    fn siblings(&self, node: NodeId) -> &[NodeId] {
        self.groups(node, SIBLINGS, SIBLINGS)
    }

    /// Providers and siblings: where a customer route climbs.
    fn uphill(&self, node: NodeId) -> &[NodeId] {
        self.groups(node, PROVIDERS, SIBLINGS)
    }

    /// Peers and providers: the exports a leak adds.
    fn leak_targets(&self, node: NodeId) -> &[NodeId] {
        self.groups(node, PEERS, PROVIDERS)
    }

    /// Every annotated neighbour.
    fn annotated(&self, node: NodeId) -> &[NodeId] {
        self.groups(node, CUSTOMERS, SIBLINGS)
    }
}

/// What every origin propagated on one plane shares, read-only: the
/// graph, the scenario's [`PolicyEngine`] and the plane's links
/// partitioned by relationship. [`propagate_origins`] builds one per
/// batch and shares it across its workers; callers that propagate
/// origins one at a time build it once and pass it to
/// [`propagate_origin_with`].
#[derive(Debug)]
pub struct PlaneContext<'g> {
    graph: &'g AsGraph,
    plane: IpVersion,
    engine: PolicyEngine,
    links: PlaneLinks,
}

impl<'g> PlaneContext<'g> {
    /// The context of `plane` on `graph` under `engine`, which must match
    /// the `scenario` and `deployment` of the options the origins are
    /// propagated with ([`propagate_origin`] and [`propagate_origins`]
    /// guarantee this).
    pub fn new(graph: &'g AsGraph, plane: IpVersion, engine: PolicyEngine) -> Self {
        PlaneContext { graph, plane, engine, links: PlaneLinks::build(graph, plane) }
    }
}

/// Propagate one origin's prefix over one plane, building the scenario's
/// [`PolicyEngine`] and the plane's [`PlaneContext`] from the options.
/// Batch callers should build the context once and use
/// [`propagate_origin_with`] instead — [`propagate_origins`] does.
pub fn propagate_origin(
    graph: &AsGraph,
    origin: Asn,
    plane: IpVersion,
    options: &PropagationOptions,
) -> RoutingOutcome {
    let engine = PolicyEngine::build(graph, options.scenario, options.deployment);
    propagate_origin_with(&PlaneContext::new(graph, plane, engine), origin, options)
}

/// Propagate one origin's prefix over the plane of a prebuilt
/// [`PlaneContext`].
///
/// The scenario decides the seeding:
///
/// * `Classic` and `RouteLeak` run the single-source walk from the
///   origin (`RouteLeak` adds the deterministic leak step);
/// * `PrefixHijack` seeds the attacker as a second, tainted origin and
///   lets the ordinary preference order pick the winner per AS;
/// * `SubprefixHijack` runs the attacker's walk (with the victim
///   blocked — it knows its own prefix) and the victim's walk
///   separately, then merges with the attacker winning wherever its
///   more-specific announcement was heard (longest-prefix match).
pub fn propagate_origin_with(
    context: &PlaneContext<'_>,
    origin: Asn,
    options: &PropagationOptions,
) -> RoutingOutcome {
    let PlaneContext { graph, plane, ref engine, .. } = *context;
    let n = graph.node_count();
    let Some(origin_node) = graph.node(origin) else {
        return RoutingOutcome { origin, plane, routes: vec![None; n] };
    };
    if graph.degree(origin, plane) == 0 {
        // The origin is not present on this plane at all.
        return RoutingOutcome { origin, plane, routes: vec![None; n] };
    }
    let clean = RouteTaint::default();
    let hijacked = RouteTaint { hijacked: true, leaked: false };
    // A node never attacks itself: when the structural pick lands on the
    // origin, the scenario degenerates to the classic walk for this one
    // origin.
    let attacker = match engine.scenario() {
        PolicyScenario::PrefixHijack | PolicyScenario::SubprefixHijack => {
            engine.attacker(plane).filter(|&a| a != origin_node)
        }
        _ => None,
    };
    let routes = match (engine.scenario(), attacker) {
        (PolicyScenario::SubprefixHijack, Some(attacker)) => {
            let attacker_routes =
                run_walk(context, origin, options, &[(attacker, hijacked)], Some(origin_node));
            let victim_routes = run_walk(context, origin, options, &[(origin_node, clean)], None);
            attacker_routes
                .iter()
                .zip(victim_routes.iter())
                .enumerate()
                .map(|(i, (atk, vic))| if i == origin_node.index() { *vic } else { atk.or(*vic) })
                .collect()
        }
        (PolicyScenario::PrefixHijack, Some(attacker)) => {
            run_walk(context, origin, options, &[(origin_node, clean), (attacker, hijacked)], None)
        }
        _ => run_walk(context, origin, options, &[(origin_node, clean)], None),
    };
    RoutingOutcome { origin, plane, routes }
}

/// The five-phase walk from `seeds`, with every adoption gated by the
/// engine's per-AS policy and `blocked` never installing anything
/// (neither a route nor an export — its prefix knowledge is handled by
/// the caller). Every phase reads only the link groups it follows.
/// Deterministic at every worker count: the per-target merges are
/// order-independent minima and every candidate batch is sorted before it
/// is applied.
fn run_walk(
    context: &PlaneContext<'_>,
    origin: Asn,
    options: &PropagationOptions,
    seeds: &[(NodeId, RouteTaint)],
    blocked: Option<NodeId>,
) -> Vec<Option<RouteInfo>> {
    let PlaneContext { graph, ref engine, ref links, .. } = *context;
    let n = graph.node_count();
    let mut routes: Vec<Option<RouteInfo>> = vec![None; n];
    for &(seed, taint) in seeds {
        routes[seed.index()] =
            Some(RouteInfo { class: RouteClass::Origin, path_len: 0, next_hop: seed, taint });
    }
    let admit =
        |target: NodeId, cand: &RouteInfo| Some(target) != blocked && engine.accepts(target, cand);
    let workers = crate::shard::effective_concurrency(options.frontier_concurrency);

    // ---- Phase 1: customer routes (and the origin's siblings) -----------
    // A route travels "upward": from a node to its providers, and across
    // sibling links, keeping the Customer class. Level-synchronous
    // frontier expansion: every node's final path length is its level in
    // the climb BFS, and a level's candidates all come from the previous
    // level, so scanning one level at a time and merging with `better(..)`
    // reaches exactly the fixed point of the old priority-queue walk —
    // while each level's neighbor scan stripes across `workers` threads.
    {
        let mut frontier: Vec<NodeId> = seeds.iter().map(|&(seed, _)| seed).collect();
        frontier.sort_by_key(|seed| seed.0);
        let mut next_frontier = NodeBitSet::new(n);
        let mut next_len: u32 = 0;
        while !frontier.is_empty() {
            next_len += 1;
            // The route moves node -> next: `next` learns it from `node`,
            // its customer or sibling.
            let candidates: Vec<(NodeId, NodeId)> =
                shard_frontier(&frontier, level_workers(workers, frontier.len()), |&node, out| {
                    out.extend(links.uphill(node).iter().map(|&next| (next, node)));
                });
            // Deterministic merge: `better(..)` is a strict total order on
            // (path_len, next-hop ASN), so the per-target winner does not
            // depend on candidate order.
            for (target, sender) in candidates {
                let cand = RouteInfo {
                    class: RouteClass::Customer,
                    path_len: next_len,
                    next_hop: sender,
                    taint: routes[sender.index()].expect("frontier nodes are routed").taint,
                };
                if admit(target, &cand)
                    && better(&routes[target.index()], &cand, graph, RouteClass::Customer)
                {
                    // A node newly routed at this level joins the next
                    // frontier; later candidates can only improve the
                    // next hop, and the bitset keeps membership a set.
                    if routes[target.index()].is_none() {
                        next_frontier.insert(target);
                    }
                    routes[target.index()] = Some(cand);
                }
            }
            next_frontier.drain_into(&mut frontier);
        }
    }

    // ---- Phase 2: peer routes --------------------------------------------
    // Nodes with a customer/origin route export it across one peering
    // link; the exporter scan stripes across workers and the sort below
    // makes the merge order-independent.
    {
        let exporters: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|&id| {
                matches!(
                    routes[id.index()].map(|r| r.class),
                    Some(RouteClass::Origin) | Some(RouteClass::Customer)
                ) && !links.peers(id).is_empty()
            })
            .collect();
        let mut peer_candidates: Vec<(NodeId, RouteInfo)> =
            shard_frontier(&exporters, level_workers(workers, exporters.len()), |&node, out| {
                let info = routes[node.index()].expect("exporters are routed");
                let cand = RouteInfo {
                    class: RouteClass::Peer,
                    path_len: info.path_len + 1,
                    next_hop: node,
                    taint: info.taint,
                };
                out.extend(links.peers(node).iter().map(|&next| (next, cand)));
            });
        // Deterministic order: by target node, then candidate quality.
        peer_candidates
            .sort_by_key(|(next, cand)| (next.0, cand.path_len, graph.asn(cand.next_hop).value()));
        for (next, cand) in peer_candidates {
            if admit(next, &cand) && better(&routes[next.index()], &cand, graph, RouteClass::Peer) {
                routes[next.index()] = Some(cand);
            }
        }
        // Sibling closure for peer routes.
        sibling_closure(context, &mut routes, RouteClass::Peer, blocked);
    }

    // ---- Phase 3: provider routes ------------------------------------------
    // Any routed node exports its best route to its customers; customers
    // that still lack a better route take it, and pass it on downhill.
    // Same level-synchronous scheme as Phase 1, with multiple sources at
    // different levels: every routed node with customers exports once, at
    // its route's path length, and a customer accepting a provider route
    // at level d+1 exports at level d+1. Same-level improvements only
    // change the next hop (never the level), so each node is scheduled
    // exactly once and the levels can be processed strictly in order.
    {
        let mut buckets: Vec<NodeBitSet> = Vec::new();
        let schedule = |buckets: &mut Vec<NodeBitSet>, level: usize, node: NodeId| {
            if links.customers(node).is_empty() {
                return;
            }
            if buckets.len() <= level {
                buckets.resize_with(level + 1, || NodeBitSet::new(n));
            }
            buckets[level].insert(node);
        };
        for id in 0..n as u32 {
            if let Some(info) = routes[id as usize] {
                schedule(&mut buckets, info.path_len as usize, NodeId(id));
            }
        }
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut level = 0;
        while level < buckets.len() {
            buckets[level].drain_into(&mut frontier);
            level += 1;
            if frontier.is_empty() {
                continue;
            }
            // `next` is node's customer and learns the route from its
            // provider. Sibling links also carry it (class preserved,
            // handled by the closure below).
            let candidates: Vec<(NodeId, NodeId)> =
                shard_frontier(&frontier, level_workers(workers, frontier.len()), |&node, out| {
                    out.extend(links.customers(node).iter().map(|&next| (next, node)));
                });
            let next_len = level as u32;
            for (target, sender) in candidates {
                let cand = RouteInfo {
                    class: RouteClass::Provider,
                    path_len: next_len,
                    next_hop: sender,
                    taint: routes[sender.index()].expect("frontier nodes are routed").taint,
                };
                if admit(target, &cand)
                    && better(&routes[target.index()], &cand, graph, RouteClass::Provider)
                {
                    if routes[target.index()].is_none() {
                        schedule(&mut buckets, next_len as usize, target);
                    }
                    routes[target.index()] = Some(cand);
                }
            }
        }
        sibling_closure(context, &mut routes, RouteClass::Provider, blocked);
    }

    // ---- Scenario: deterministic route leak -------------------------------------
    // The chosen leaker re-exports its peer-/provider-learned route to
    // every peer and provider — a full-table leak — and the adopters pass
    // it on downhill. Runs between the strict phases and the
    // probabilistic deviations so the seeded Phase 4/5 draws observe the
    // post-leak state exactly like any other route.
    if engine.scenario() == PolicyScenario::RouteLeak {
        if let Some(leaker) = engine.leaker(context.plane) {
            if Some(leaker) != blocked {
                if let Some(info) = routes[leaker.index()] {
                    if matches!(info.class, RouteClass::Peer | RouteClass::Provider) {
                        deterministic_leak(context, &mut routes, leaker, info, blocked);
                    }
                }
            }
        }
    }

    // ---- Phase 4: route leaks -------------------------------------------------
    if options.leak_probability > 0.0 {
        let mut rng = ChaCha8Rng::seed_from_u64(
            options.seed ^ (u64::from(origin.value()) << 20) ^ 0x6c65616b,
        );
        // Decide leaks against the pre-leak state so adoption cannot
        // cycle: this loop only reads `routes`, every adoption waits in
        // `adoptions` until the decisions are done.
        let mut adoptions: Vec<(NodeId, RouteInfo)> = Vec::new();
        let mut leakers: Vec<bool> = vec![false; n];
        for id in 0..n as u32 {
            let node = NodeId(id);
            let Some(info) = routes[node.index()] else { continue };
            if !matches!(info.class, RouteClass::Peer | RouteClass::Provider) {
                continue;
            }
            if !rng.gen_bool(options.leak_probability) {
                continue;
            }
            leakers[node.index()] = true;
            let cand = RouteInfo {
                class: RouteClass::Leaked,
                path_len: info.path_len + 1,
                next_hop: node,
                taint: RouteTaint { hijacked: info.taint.hijacked, leaked: true },
            };
            // Forbidden exports: to providers and peers.
            for &next in links.leak_targets(node) {
                let adopt = match routes[next.index()] {
                    None => true,
                    // The receiver believes it is a customer/peer route, so
                    // it may replace a provider-learned route.
                    Some(existing) => {
                        existing.class == RouteClass::Provider && cand.path_len < existing.path_len
                    }
                };
                if adopt {
                    adoptions.push((next, cand));
                }
            }
        }
        adoptions
            .sort_by_key(|(next, cand)| (next.0, cand.path_len, graph.asn(cand.next_hop).value()));
        for (next, cand) in adoptions {
            // Never replace the route of a node that is itself leaking (its
            // exported route was decided on the pre-leak state).
            if leakers[next.index()] || !admit(next, &cand) {
                continue;
            }
            let replace = match routes[next.index()] {
                None => true,
                Some(existing) => {
                    existing.class == RouteClass::Provider && cand.path_len < existing.path_len
                }
            };
            if replace {
                routes[next.index()] = Some(cand);
            }
        }
    }

    // ---- Phase 5: reachability relaxation ---------------------------------------
    // Holes are filled in (path_len, next-hop ASN, node) order from the
    // heap. Routes only ever appear, so a routed node without an unrouted
    // neighbour here never gains one: only the routed neighbours of
    // unrouted nodes are seeded.
    if options.reachability_relaxation {
        let mut sources = NodeBitSet::new(n);
        for id in (0..n as u32).map(NodeId).filter(|id| routes[id.index()].is_none()) {
            for &next in links.annotated(id) {
                if routes[next.index()].is_some() {
                    sources.insert(next);
                }
            }
        }
        let mut seeded: Vec<NodeId> = Vec::new();
        sources.drain_into(&mut seeded);
        let mut heap: BinaryHeap<Reverse<Candidate>> = seeded
            .into_iter()
            .map(|id| {
                let path_len = routes[id.index()].expect("seeds are routed").path_len;
                Reverse(Candidate { path_len, tie_break: 0, node: id.0 })
            })
            .collect();
        while let Some(Reverse(Candidate { node, .. })) = heap.pop() {
            let node = NodeId(node);
            // Each node enters the heap once, and a route never changes
            // in this phase: the popped entry is always current.
            let current = routes[node.index()].expect("heap nodes are routed");
            for &next in links.annotated(node) {
                if routes[next.index()].is_some() {
                    continue; // relaxation only fills holes
                }
                let cand = RouteInfo {
                    class: RouteClass::Relaxed,
                    path_len: current.path_len + 1,
                    next_hop: node,
                    taint: current.taint,
                };
                if !admit(next, &cand) {
                    continue;
                }
                routes[next.index()] = Some(cand);
                heap.push(Reverse(Candidate {
                    path_len: cand.path_len,
                    tie_break: graph.asn(node).value(),
                    node: next.0,
                }));
            }
        }
    }

    routes
}

/// The [`PolicyScenario::RouteLeak`] step: the leaker exports its
/// selected peer-/provider-learned route to every peer and provider
/// (the forbidden directions — customers already received it through the
/// ordinary Phase 3 export), and the leaked routes then spread downhill
/// over provider-to-customer and sibling links. An AS adopts a leaked
/// route only where it looks attractive — it has no route at all, or the
/// leak is strictly shorter than its provider-learned route — and a node
/// that adopted never re-adopts, so the spread is monotone and
/// terminates. Deterministic: every round's candidate batch is sorted by
/// `(target, path_len, next-hop ASN)` before it is applied, and there is
/// no RNG anywhere.
fn deterministic_leak(
    context: &PlaneContext<'_>,
    routes: &mut [Option<RouteInfo>],
    leaker: NodeId,
    info: RouteInfo,
    blocked: Option<NodeId>,
) {
    let PlaneContext { graph, ref engine, ref links, .. } = *context;
    let leak_adopt = |current: &Option<RouteInfo>, cand: &RouteInfo| match current {
        None => true,
        Some(existing) => {
            existing.class == RouteClass::Provider && cand.path_len < existing.path_len
        }
    };
    let leaked = RouteInfo {
        class: RouteClass::Leaked,
        path_len: info.path_len + 1,
        next_hop: leaker,
        taint: RouteTaint { hijacked: info.taint.hijacked, leaked: true },
    };
    let mut candidates: Vec<(NodeId, RouteInfo)> =
        links.leak_targets(leaker).iter().map(|&next| (next, leaked)).collect();
    let mut frontier: Vec<NodeId> = Vec::new();
    while !candidates.is_empty() {
        candidates
            .sort_by_key(|(next, cand)| (next.0, cand.path_len, graph.asn(cand.next_hop).value()));
        frontier.clear();
        for (next, cand) in candidates.drain(..) {
            if next == leaker || Some(next) == blocked || !engine.accepts(next, &cand) {
                continue;
            }
            if leak_adopt(&routes[next.index()], &cand) {
                // First adoption per target wins (the batch is sorted
                // best-first); an adopter joins the frontier once.
                if routes[next.index()].map(|r| r.class) != Some(RouteClass::Leaked) {
                    frontier.push(next);
                }
                routes[next.index()] = Some(cand);
            }
        }
        for &node in &frontier {
            let Some(adopted) = routes[node.index()] else { continue };
            let cand = RouteInfo {
                class: RouteClass::Leaked,
                path_len: adopted.path_len + 1,
                next_hop: node,
                taint: adopted.taint,
            };
            let downhill = links.customers(node).iter().chain(links.siblings(node));
            candidates.extend(downhill.map(|&next| (next, cand)));
        }
    }
}

/// Propagate many origins on one plane, sharding the per-origin rounds
/// across up to `concurrency` worker threads (`0` = all available cores,
/// `1` = the plain sequential loop).
///
/// Each origin's round is an independent pure function of `(graph, origin,
/// plane, options)` — the leak RNG is seeded per origin — so the shards
/// never interact. Outcomes are merged back in the order of `origins`
/// (callers pass a sorted origin list), making the result byte-identical
/// to the sequential run at every worker count.
///
/// `options.frontier_concurrency` adds a second, nested level of
/// parallelism *inside* each origin's round; callers that use both should
/// bound `concurrency × frontier workers` by the core budget (the
/// scenario layer does this via `SimConfig::propagation_split`) so the
/// two levels do not oversubscribe the host.
///
/// Origins are binned onto the workers by plane out-degree (LPT — an
/// estimate of how wide the origin's climb/descent fans out, see
/// [`OriginScheduling::Degree`]) and merged back in origin order, so the
/// schedule is invisible in the output.
pub fn propagate_origins(
    graph: &AsGraph,
    origins: &[Asn],
    plane: IpVersion,
    options: &PropagationOptions,
    concurrency: usize,
) -> Vec<RoutingOutcome> {
    let workers = crate::shard::effective_concurrency(concurrency);
    // One context for the whole batch: the policy assignment, the
    // attacker/leaker picks and the partitioned links depend only on
    // (graph, plane, scenario, deployment), never on the origin, and
    // sharing the read-only context across the workers keeps the
    // per-origin rounds pure.
    let engine = PolicyEngine::build(graph, options.scenario, options.deployment);
    let context = PlaneContext::new(graph, plane, engine);
    crate::shard::shard_map_lpt(
        origins,
        workers,
        |&origin| graph.degree(origin, plane) as u64,
        |&origin| propagate_origin_with(&context, origin, options),
    )
}

/// Is `candidate` better than the current route, given that the candidate
/// belongs to propagation phase `phase`? Routes installed by earlier
/// (more-preferred) phases are never displaced; within the same class the
/// shorter path wins, then the lower next-hop ASN.
fn better(
    current: &Option<RouteInfo>,
    candidate: &RouteInfo,
    graph: &AsGraph,
    phase: RouteClass,
) -> bool {
    match current {
        None => true,
        Some(existing) => {
            if existing.class < phase {
                return false;
            }
            if existing.class > phase {
                return true;
            }
            (candidate.path_len, graph.asn(candidate.next_hop).value())
                < (existing.path_len, graph.asn(existing.next_hop).value())
        }
    }
}

/// Propagate routes of the given class across sibling links (transparent
/// forwarding within an organisation), observing the per-AS policies and
/// the walk's blocked node like every other adoption point. Only nodes
/// with siblings can export, so only they seed the queue.
fn sibling_closure(
    context: &PlaneContext<'_>,
    routes: &mut [Option<RouteInfo>],
    class: RouteClass,
    blocked: Option<NodeId>,
) {
    let PlaneContext { graph, ref engine, ref links, .. } = *context;
    let mut queue: Vec<NodeId> = links
        .sibling_nodes
        .iter()
        .copied()
        .filter(|id| routes[id.index()].map(|r| r.class) == Some(class))
        .collect();
    while let Some(node) = queue.pop() {
        let Some(info) = routes[node.index()] else { continue };
        for &next in links.siblings(node) {
            let cand =
                RouteInfo { class, path_len: info.path_len + 1, next_hop: node, taint: info.taint };
            if Some(next) == blocked || !engine.accepts(next, &cand) {
                continue;
            }
            if better(&routes[next.index()], &cand, graph, class) {
                routes[next.index()] = Some(cand);
                queue.push(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::valley::classify_path;
    use topogen::fixtures::two_plane_fixture;

    fn fixture_graph() -> AsGraph {
        two_plane_fixture().graph
    }

    #[test]
    fn origin_not_on_plane_routes_nothing() {
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V4, Relationship::ProviderToCustomer);
        let outcome = propagate_origin(&g, Asn(2), IpVersion::V6, &PropagationOptions::default());
        assert_eq!(outcome.routed_count(), 0);
        assert_eq!(outcome.route(&g, Asn(2)), None);
        // Unknown origin behaves the same.
        let outcome = propagate_origin(&g, Asn(99), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.routed_count(), 0);
    }

    #[test]
    fn every_as_gets_a_route_in_a_connected_hierarchy() {
        let g = fixture_graph();
        let outcome = propagate_origin(&g, Asn(50), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.routed_count(), g.node_count());
        // The origin's provider learned it from a customer.
        assert_eq!(outcome.route(&g, Asn(30)).unwrap().class, RouteClass::Customer);
        // The tier-1 above learned from its customer chain.
        assert_eq!(outcome.route(&g, Asn(10)).unwrap().class, RouteClass::Customer);
        // The other tier-1 learned it over the peering (v4 plane).
        assert_eq!(outcome.route(&g, Asn(20)).unwrap().class, RouteClass::Peer);
        // A stub in the other branch learns it from its provider.
        assert_eq!(outcome.route(&g, Asn(53)).unwrap().class, RouteClass::Provider);
    }

    #[test]
    fn paths_are_valley_free_under_strict_policies() {
        let g = fixture_graph();
        for origin in [50u32, 53, 30, 10] {
            let outcome =
                propagate_origin(&g, Asn(origin), IpVersion::V4, &PropagationOptions::default());
            for asn in g.asns() {
                if let Some(path) = outcome.path(&g, asn) {
                    if path.len() > 1 {
                        assert!(
                            classify_path(&g, &path, IpVersion::V4).is_valley_free(),
                            "path {path:?} from {asn} to {origin} is not valley-free"
                        );
                        assert_eq!(path.last(), Some(&Asn(origin)));
                        assert_eq!(path.first(), Some(&asn));
                    }
                    assert_eq!(outcome.path_is_irregular(&g, asn), Some(false));
                }
            }
        }
    }

    #[test]
    fn customer_routes_beat_shorter_peer_routes() {
        // 1 --p2p-- 2, 1 --p2c--> 3 --p2c--> 2's prefix? Build explicitly:
        // origin 4; 2 is 4's provider; 1 peers with 4 and is provider of 2.
        // From 1: customer route via 2 (len 2) vs peer route via 4 (len 1).
        // BGP prefers the customer route despite being longer.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(4), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(4), Relationship::PeerToPeer);
        let outcome = propagate_origin(&g, Asn(4), IpVersion::V4, &PropagationOptions::default());
        let route = outcome.route(&g, Asn(1)).unwrap();
        assert_eq!(route.class, RouteClass::Customer);
        assert_eq!(outcome.path(&g, Asn(1)).unwrap(), vec![Asn(1), Asn(2), Asn(4)]);
    }

    #[test]
    fn shorter_path_wins_within_a_class() {
        // Origin 5 has two providers (2 and 3); 1 is provider of both.
        // 1's customer routes via 2 and 3 are both length 2 -> tie-break by
        // lower next-hop ASN (2).
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(5), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(3), Asn(5), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(3), Relationship::ProviderToCustomer);
        let outcome = propagate_origin(&g, Asn(5), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.path(&g, Asn(1)).unwrap(), vec![Asn(1), Asn(2), Asn(5)]);
    }

    #[test]
    fn peer_only_second_hop_is_not_reachable_without_relaxation() {
        // 1 --p2p-- 2 --p2p-- 3: 3's prefix reaches 2 but must not reach 1.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::PeerToPeer);
        g.annotate_both(Asn(2), Asn(3), Relationship::PeerToPeer);
        let strict = propagate_origin(&g, Asn(3), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(strict.route(&g, Asn(2)).unwrap().class, RouteClass::Peer);
        assert_eq!(strict.route(&g, Asn(1)), None);

        // With the reachability relaxation the hole is filled and marked.
        let relaxed = propagate_origin(
            &g,
            Asn(3),
            IpVersion::V4,
            &PropagationOptions { reachability_relaxation: true, ..Default::default() },
        );
        let route = relaxed.route(&g, Asn(1)).unwrap();
        assert_eq!(route.class, RouteClass::Relaxed);
        assert_eq!(relaxed.path_is_irregular(&g, Asn(1)), Some(true));
        // And the resulting path is indeed a valley.
        let path = relaxed.path(&g, Asn(1)).unwrap();
        assert!(classify_path(&g, &path, IpVersion::V4).is_valley());
    }

    #[test]
    fn relaxation_fills_partitioned_v6_plane() {
        let truth = two_plane_fixture();
        // AS52's prefix on v6: AS20's side is reachable only by descending
        // the hybrid link; fine. But check a v6-only peer path: from 41,
        // routes to 52 must exist strictly too (41 -> 20 -> 10 -> 40 -> 52
        // is c2p, peer?? 20-10 is p2c for 20 (20 is customer on v6) so
        // 41 climbs to 20, climbs to 10? no: 10->20 is p2c so 20->10 is c2p;
        // 41->20 c2p, 20->10 c2p, 10->40 p2c, 40->52 p2c: valley-free.
        let strict =
            propagate_origin(&truth.graph, Asn(52), IpVersion::V6, &PropagationOptions::default());
        assert!(strict.route(&truth.graph, Asn(41)).is_some());
        assert_eq!(strict.routed_count(), truth.graph.node_count());
    }

    #[test]
    fn leaks_create_valley_paths_deterministically() {
        // 1 and 2 are tier-1 peers; 3 buys from both; 4 buys from 1 only.
        // Origin = 4. Without leaks AS3 reaches 4 via provider 1 (3,1,4) and
        // AS2 via peer 1. With a forced leak (probability 1.0) AS3 leaks its
        // provider route to its other provider 2 — but 2 already has a peer
        // route, so adoption only happens where allowed.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::PeerToPeer);
        g.annotate_both(Asn(1), Asn(3), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(3), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(4), Relationship::ProviderToCustomer);
        // 5 buys from 3: it will receive whatever 3 selected.
        g.annotate_both(Asn(3), Asn(5), Relationship::ProviderToCustomer);

        let leaky = PropagationOptions { leak_probability: 1.0, seed: 1, ..Default::default() };
        // The frontier knob must not perturb the seeded deviations either.
        assert_eq!(
            propagate_origin(&g, Asn(4), IpVersion::V4, &leaky.with_frontier(4)),
            propagate_origin(&g, Asn(4), IpVersion::V4, &leaky),
        );
        let outcome = propagate_origin(&g, Asn(4), IpVersion::V4, &leaky);
        // Every AS still has a route and paths still terminate at the origin.
        assert_eq!(outcome.routed_count(), g.node_count());
        for asn in g.asns() {
            let path = outcome.path(&g, asn).unwrap();
            assert_eq!(path.last(), Some(&Asn(4)));
        }
        // The same propagation without leaks has no irregular paths.
        let clean = propagate_origin(&g, Asn(4), IpVersion::V4, &PropagationOptions::default());
        for asn in g.asns() {
            assert_eq!(clean.path_is_irregular(&g, asn), Some(false));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let g = fixture_graph();
        let opts = PropagationOptions {
            reachability_relaxation: true,
            leak_probability: 0.5,
            seed: 99,
            ..Default::default()
        };
        let a = propagate_origin(&g, Asn(50), IpVersion::V6, &opts);
        let b = propagate_origin(&g, Asn(50), IpVersion::V6, &opts);
        for asn in g.asns() {
            assert_eq!(a.path(&g, asn), b.path(&g, asn));
        }
    }

    #[test]
    fn sharded_propagation_matches_sequential_at_every_worker_count() {
        let g = fixture_graph();
        let mut origins: Vec<Asn> = g.asns().collect();
        origins.sort();
        // Exercise both the strict policy path and the seeded deviations.
        let variants = [
            PropagationOptions::default(),
            PropagationOptions {
                reachability_relaxation: true,
                leak_probability: 0.5,
                seed: 7,
                ..Default::default()
            },
        ];
        for plane in IpVersion::BOTH {
            for options in &variants {
                let sequential = propagate_origins(&g, &origins, plane, options, 1);
                for workers in [0usize, 2, 3, 8] {
                    let parallel = propagate_origins(&g, &origins, plane, options, workers);
                    assert_eq!(parallel, sequential, "plane {plane:?}, workers {workers}");
                }
            }
        }
    }

    #[test]
    fn frontier_parallel_propagation_matches_sequential_at_every_worker_count() {
        let g = fixture_graph();
        let mut origins: Vec<Asn> = g.asns().collect();
        origins.sort();
        let variants = [
            PropagationOptions::default(),
            PropagationOptions {
                reachability_relaxation: true,
                leak_probability: 0.5,
                seed: 7,
                ..Default::default()
            },
        ];
        for plane in IpVersion::BOTH {
            for options in &variants {
                let sequential = propagate_origins(&g, &origins, plane, options, 1);
                // Nested combinations: frontier workers × origin workers.
                for frontier in [0usize, 2, 3, 8] {
                    for workers in [1usize, 2] {
                        let parallel = propagate_origins(
                            &g,
                            &origins,
                            plane,
                            &options.with_frontier(frontier),
                            workers,
                        );
                        assert_eq!(
                            parallel, sequential,
                            "plane {plane:?}, frontier {frontier}, workers {workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_frontiers_stripe_across_workers_and_match_sequential() {
        // Levels wider than MIN_FRONTIER_PER_WORKER × workers, so the
        // scans genuinely run on multiple threads (the fixture graphs are
        // too small to clear the sequential cutoff): the origin has WIDE
        // providers (Phase 1 level 1), each with a customer of its own
        // (Phase 3), a peering ring across the providers (Phase 2), and
        // ties everywhere — every provider reaches the origin at the same
        // distance, so the deterministic next-hop ASN tie-break is what
        // keeps the merged routes identical at every worker count.
        const WIDE: u32 = 4 * MIN_FRONTIER_PER_WORKER as u32 + 17;
        let mut g = AsGraph::new();
        for i in 0..WIDE {
            let provider = Asn(2 + i);
            g.annotate_both(provider, Asn(1), Relationship::ProviderToCustomer);
            g.annotate_both(provider, Asn(10_000 + i), Relationship::ProviderToCustomer);
            g.annotate_both(provider, Asn(2 + ((i + 1) % WIDE)), Relationship::PeerToPeer);
        }
        assert_eq!(level_workers(4, WIDE as usize), 4, "the wide level must actually stripe");
        for options in [
            PropagationOptions::default(),
            PropagationOptions {
                reachability_relaxation: true,
                leak_probability: 0.3,
                seed: 11,
                ..Default::default()
            },
        ] {
            let sequential = propagate_origin(&g, Asn(1), IpVersion::V4, &options);
            for frontier in [0usize, 2, 4, 7] {
                let parallel =
                    propagate_origin(&g, Asn(1), IpVersion::V4, &options.with_frontier(frontier));
                assert_eq!(parallel, sequential, "frontier={frontier}");
            }
        }
    }

    #[test]
    fn level_workers_caps_by_frontier_size() {
        assert_eq!(level_workers(8, 0), 1);
        assert_eq!(level_workers(8, MIN_FRONTIER_PER_WORKER - 1), 1);
        assert_eq!(level_workers(8, 2 * MIN_FRONTIER_PER_WORKER), 2);
        assert_eq!(level_workers(2, 100 * MIN_FRONTIER_PER_WORKER), 2);
        assert_eq!(level_workers(1, 100 * MIN_FRONTIER_PER_WORKER), 1);
    }

    #[test]
    fn same_route_model_ignores_only_the_execution_knobs() {
        let base = PropagationOptions { seed: 9, ..Default::default() };
        assert!(base.same_route_model(&base.with_frontier(8)));
        assert!(!base.same_route_model(&PropagationOptions { seed: 10, ..base }));
        assert!(
            !base.same_route_model(&PropagationOptions { reachability_relaxation: true, ..base })
        );
        assert!(!base.same_route_model(&PropagationOptions { leak_probability: 0.5, ..base }));
        // The adversarial knobs are route-model fields, not execution
        // knobs: changing either must invalidate a cached propagation.
        assert!(!base.same_route_model(&base.with_scenario(PolicyScenario::RouteLeak)));
        assert!(!base
            .same_route_model(&base.with_deployment(PolicyDeployment { fraction: 0.5, seed: 0 })));
    }

    #[test]
    fn sharded_propagation_handles_empty_origin_sets() {
        let g = fixture_graph();
        assert!(
            propagate_origins(&g, &[], IpVersion::V4, &PropagationOptions::default(), 4).is_empty()
        );
    }

    #[test]
    fn sibling_links_carry_routes_transparently() {
        // origin 3; 2 is 3's provider; 1 is 2's sibling; 0 buys from 1.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(3), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(2), Relationship::SiblingToSibling);
        g.annotate_both(Asn(1), Asn(9), Relationship::ProviderToCustomer);
        let outcome = propagate_origin(&g, Asn(3), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.route(&g, Asn(1)).unwrap().class, RouteClass::Customer);
        assert_eq!(outcome.path(&g, Asn(9)).unwrap(), vec![Asn(9), Asn(1), Asn(2), Asn(3)]);
        assert_eq!(outcome.route(&g, Asn(9)).unwrap().class, RouteClass::Provider);
    }

    // ---- adversarial scenarios -------------------------------------------

    /// Options pinned to `scenario` at the given deployment fraction
    /// (deployment seed fixed so tests are reproducible).
    fn scenario_options(scenario: PolicyScenario, fraction: f64) -> PropagationOptions {
        PropagationOptions::default()
            .with_scenario(scenario)
            .with_deployment(PolicyDeployment { fraction, seed: 0xadd5 })
    }

    #[test]
    fn route_leak_scenario_injects_tainted_routes_deterministically() {
        // Origin 1 sells transit to nobody: 1 --c2p--> 2, 2 --p2p-- 3,
        // 3 --c2p--> 4. Under Gao-Rexford, 3 learns 1's prefix over the
        // peering but must not re-export it upward, so 4 stays unrouted.
        // The leaker (3: the highest-degree AS that has a provider)
        // re-exports the peer route to 4 — a textbook route leak.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(1), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(3), Relationship::PeerToPeer);
        g.annotate_both(Asn(4), Asn(3), Relationship::ProviderToCustomer);
        let engine =
            PolicyEngine::build(&g, PolicyScenario::RouteLeak, PolicyDeployment::default());
        assert_eq!(engine.leaker(IpVersion::V4), g.node(Asn(3)), "3 is the expected leaker");

        let classic = propagate_origin(&g, Asn(1), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(classic.route(&g, Asn(4)), None, "valley-free export keeps 4 unrouted");

        let options = scenario_options(PolicyScenario::RouteLeak, 0.0);
        let leaked = propagate_origin(&g, Asn(1), IpVersion::V4, &options);
        let route_at_4 = leaked.route(&g, Asn(4)).expect("the leak must reach 4");
        assert_eq!(route_at_4.class, RouteClass::Leaked);
        assert!(route_at_4.taint.leaked, "the leaked route carries its taint");
        // No RNG anywhere in the deterministic leak step: the outcome is
        // identical run to run.
        assert_eq!(leaked, propagate_origin(&g, Asn(1), IpVersion::V4, &options));

        // Full ASPA-lite deployment filters the leaked export back out.
        let defended = propagate_origin(
            &g,
            Asn(1),
            IpVersion::V4,
            &scenario_options(PolicyScenario::RouteLeak, 1.0),
        );
        assert_eq!(defended.route(&g, Asn(4)), None, "ASPA-lite at 100% drops the leak");
    }

    #[test]
    fn prefix_hijack_diverts_routes_and_rov_filters_them() {
        let g = fixture_graph();
        let engine =
            PolicyEngine::build(&g, PolicyScenario::PrefixHijack, PolicyDeployment::default());
        let attacker = engine.attacker(IpVersion::V4).expect("fixture has a highest-degree node");
        // Pick a victim that is not the attacker.
        let victim = g.asns().find(|&a| g.node(a) != Some(attacker)).unwrap();
        let options = scenario_options(PolicyScenario::PrefixHijack, 0.0);
        let outcome = propagate_origin(&g, victim, IpVersion::V4, &options);
        // The victim always keeps its own clean origin route; the
        // attacker originates the hijacked copy.
        let victim_route = outcome.route(&g, victim).unwrap();
        assert_eq!(victim_route.class, RouteClass::Origin);
        assert!(!victim_route.taint.hijacked);
        let attacker_route = outcome.routes[attacker.index()].unwrap();
        assert_eq!(attacker_route.class, RouteClass::Origin);
        assert!(attacker_route.taint.hijacked);
        // Undefended, the hijack captures part of the topology.
        let hijacked_count = outcome.routes.iter().flatten().filter(|r| r.taint.hijacked).count();
        assert!(hijacked_count > 1, "the hijack must spread past the attacker");
        // Full ROV deployment confines the hijack to the attacker itself.
        let defended = propagate_origin(
            &g,
            victim,
            IpVersion::V4,
            &scenario_options(PolicyScenario::PrefixHijack, 1.0),
        );
        let defended_hijacked: Vec<usize> = defended
            .routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.filter(|r| r.taint.hijacked).map(|_| i))
            .collect();
        assert_eq!(defended_hijacked, vec![attacker.index()], "ROV at 100% confines the hijack");
    }

    #[test]
    fn subprefix_hijack_wins_everywhere_it_reaches_except_the_victim() {
        let g = fixture_graph();
        let engine =
            PolicyEngine::build(&g, PolicyScenario::SubprefixHijack, PolicyDeployment::default());
        let attacker = engine.attacker(IpVersion::V4).expect("fixture has a highest-degree node");
        let victim = g.asns().find(|&a| g.node(a) != Some(attacker)).unwrap();
        let options = scenario_options(PolicyScenario::SubprefixHijack, 0.0);
        let outcome = propagate_origin(&g, victim, IpVersion::V4, &options);
        // Longest-prefix match: the victim keeps its own clean route no
        // matter what; everything the attacker's (victim-blocked)
        // announcement reaches is captured.
        let victim_node = g.node(victim).unwrap();
        assert!(!outcome.routes[victim_node.index()].unwrap().taint.hijacked);
        let hijacked: Vec<usize> = outcome
            .routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.filter(|r| r.taint.hijacked).map(|_| i))
            .collect();
        assert!(hijacked.len() > 1, "the more-specific prefix must capture real estate");
        // Every captured node is genuinely attacker-reachable (the
        // blocked walk covers at most the unblocked reach) ...
        let reference = propagate_origin(&g, g.asn(attacker), IpVersion::V4, &options);
        for &i in &hijacked {
            assert!(reference.routes[i].is_some(), "node {i} hijacked but attacker-unreachable");
        }
        // ... and nobody loses connectivity outright: the merge falls
        // back to the victim's clean walk wherever the attacker is
        // absent, so the classic routed set survives.
        let classic = propagate_origin(&g, victim, IpVersion::V4, &PropagationOptions::default());
        for (i, route) in classic.routes.iter().enumerate() {
            if route.is_some() {
                assert!(outcome.routes[i].is_some(), "node {i} lost its route to the hijack");
            }
        }
    }

    /// FNV-1a over every field of every route of `outcomes`, in order: a
    /// digest that is stable across toolchains (unlike `DefaultHasher`).
    fn outcome_digest(outcomes: &[RoutingOutcome]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for outcome in outcomes {
            eat(u64::from(outcome.origin.value()));
            eat(outcome.plane as u64);
            for route in &outcome.routes {
                match route {
                    None => eat(u64::MAX),
                    Some(r) => {
                        eat(r.class as u64);
                        eat(u64::from(r.path_len));
                        eat(u64::from(r.next_hop.0));
                        eat(u64::from(r.taint.hijacked) | u64::from(r.taint.leaked) << 1);
                    }
                }
            }
        }
        h
    }

    #[test]
    fn propagation_bytes_are_pinned_on_a_generated_topology() {
        // A generated two-plane topology with extra siblings, plus links
        // that are observed but never annotated (which no phase may
        // follow), propagated from every origin on both planes with
        // relaxation and leaks on under every scenario. The digests were
        // recorded on a walk that filtered each AS's full adjacency, so
        // they pin the link view's routes to that walk's; any change to
        // a selected route, in any phase, changes them.
        let mut graph = topogen::generate(&topogen::TopologyConfig {
            sibling_fraction: 0.05,
            ..topogen::TopologyConfig::small()
        })
        .graph;
        let asns: Vec<Asn> = {
            let mut asns: Vec<Asn> = graph.asns().collect();
            asns.sort();
            asns
        };
        for (i, pair) in asns.windows(2).enumerate().step_by(7) {
            let plane = if i % 2 == 0 { IpVersion::V4 } else { IpVersion::V6 };
            if graph.edge_id(pair[0], pair[1]).is_none() {
                graph.observe_link(pair[0], pair[1], plane);
            }
        }
        graph.freeze();
        let expected: [(PolicyScenario, [u64; 2]); 4] = [
            (PolicyScenario::Classic, [0x7395_4896_ef5b_3850, 0xfb7e_2d06_934d_36c5]),
            (PolicyScenario::RouteLeak, [0x97fe_5ae8_414b_5c30, 0xd353_079f_ead2_6612]),
            (PolicyScenario::PrefixHijack, [0xcf13_d44a_0e1f_6486, 0xbbab_b242_bcda_84ce]),
            (PolicyScenario::SubprefixHijack, [0x0723_ffa8_dcb4_0b9e, 0x77de_0f92_439d_5bad]),
        ];
        for (scenario, digests) in expected {
            for (plane, want) in IpVersion::BOTH.into_iter().zip(digests) {
                let options = PropagationOptions {
                    reachability_relaxation: true,
                    leak_probability: 0.05,
                    seed: 0x5eed,
                    ..scenario_options(scenario, 0.3)
                };
                let origins: Vec<Asn> =
                    asns.iter().copied().filter(|&a| graph.degree(a, plane) > 0).collect();
                let got = outcome_digest(&propagate_origins(&graph, &origins, plane, &options, 2));
                assert_eq!(got, want, "scenario={scenario:?} plane={plane:?}");
            }
        }
    }

    #[test]
    fn scenario_outcomes_are_worker_count_invisible() {
        let g = fixture_graph();
        let mut origins: Vec<Asn> = g.asns().collect();
        origins.sort();
        for scenario in [
            PolicyScenario::RouteLeak,
            PolicyScenario::PrefixHijack,
            PolicyScenario::SubprefixHijack,
        ] {
            for fraction in [0.0, 0.5, 1.0] {
                let options = scenario_options(scenario, fraction).with_frontier(2);
                let sequential = propagate_origins(&g, &origins, IpVersion::V6, &options, 1);
                for workers in [2usize, 8] {
                    let parallel =
                        propagate_origins(&g, &origins, IpVersion::V6, &options, workers);
                    assert_eq!(
                        parallel, sequential,
                        "scenario={scenario:?} fraction={fraction} workers={workers} diverged"
                    );
                }
            }
        }
    }
}

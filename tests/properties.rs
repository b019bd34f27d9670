//! Property-based tests (proptest) on the core data structures and
//! invariants: text and wire round trips, orientation consistency of the
//! annotated graph, the valley-free rule, and the parallel-equals-
//! sequential contract of the sharded execution layer.

use proptest::prelude::*;

use hybrid_as_rel::graph::valley::{first_violation, is_valley_free};
use hybrid_as_rel::graph::AsGraph;
use hybrid_as_rel::mrt::bgp::{decode_attributes, encode_attributes, AttrContext};
use hybrid_as_rel::prelude::{Scenario, SimConfig, TopologyConfig};
use hybrid_as_rel::sim::propagate::{propagate_origins, PropagationOptions};
use hybrid_as_rel::topology::HybridClass;
use hybrid_as_rel::tor::extract::ExtractedData;
use hybrid_as_rel::tor::hybrid::HybridFinding;
use hybrid_as_rel::tor::impact::{correction_sweep_in, ImpactOptions, SweepCache, SweepOptions};
use hybrid_as_rel::types::{
    AsPath, AsPathSegment, Asn, Community, CommunitySet, IpVersion, PathAttributes, PeerId, Prefix,
    Relationship, RelationshipPair, RibEntry, RibSnapshot,
};

fn arb_relationship() -> impl Strategy<Value = Relationship> {
    prop_oneof![
        Just(Relationship::ProviderToCustomer),
        Just(Relationship::CustomerToProvider),
        Just(Relationship::PeerToPeer),
        Just(Relationship::SiblingToSibling),
    ]
}

/// How a random link appears on one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnPlane {
    /// Not carried on the plane.
    Absent,
    /// Observed on the plane but never annotated (`observe_link`).
    Observed,
    /// Observed and annotated with the link's relationship.
    Annotated,
}

fn arb_on_plane() -> impl Strategy<Value = OnPlane> {
    // Annotated links stay the majority, so the walks have a hierarchy
    // to follow.
    prop_oneof![
        Just(OnPlane::Absent),
        Just(OnPlane::Observed),
        Just(OnPlane::Annotated),
        Just(OnPlane::Annotated),
    ]
}

/// A random link: its endpoints, its relationship (oriented `a → b`) and
/// how it appears on the v4 and v6 planes.
type RandomLink = (u32, u32, Relationship, OnPlane, OnPlane);

fn arb_links() -> impl Strategy<Value = Vec<RandomLink>> {
    prop::collection::vec(
        (1u32..40, 1u32..40, arb_relationship(), arb_on_plane(), arb_on_plane()),
        1..60,
    )
}

/// The graph of `links`: links present on one plane only, links observed
/// but unannotated, and annotated links side by side. With `only` set,
/// just that plane's annotated links are applied; every other link is
/// still created, absent from both planes, so node ids match the full
/// graph's.
fn mixed_plane_graph(links: &[RandomLink], only: Option<IpVersion>) -> AsGraph {
    let mut graph = AsGraph::new();
    for &(a, b, rel, v4, v6) in links {
        let (a, b) = (Asn(a), Asn(b));
        if graph.add_link(a, b).is_none() {
            continue;
        }
        for (plane, on) in [(IpVersion::V4, v4), (IpVersion::V6, v6)] {
            match on {
                OnPlane::Annotated if only.is_none_or(|kept| kept == plane) => {
                    graph.annotate(a, b, plane, rel);
                }
                OnPlane::Observed if only.is_none() => {
                    graph.observe_link(a, b, plane);
                }
                _ => {}
            }
        }
    }
    graph
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
            Prefix::V4(hybrid_as_rel::types::Ipv4Net::new_truncated(addr.into(), len))
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
            Prefix::V6(hybrid_as_rel::types::Ipv6Net::new_truncated(addr.into(), len))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- bgp-types ------------------------------------------------------

    #[test]
    fn asn_display_parse_roundtrip(raw in any::<u32>()) {
        let asn = Asn(raw);
        prop_assert_eq!(asn.to_string().parse::<Asn>().unwrap(), asn);
        prop_assert_eq!(asn.to_asdot().parse::<Asn>().unwrap(), asn);
    }

    #[test]
    fn community_u32_and_text_roundtrip(raw in any::<u32>()) {
        let c = Community::from_u32(raw);
        prop_assert_eq!(c.as_u32(), raw);
        prop_assert_eq!(c.to_string().parse::<Community>().unwrap(), c);
    }

    #[test]
    fn as_path_display_parse_roundtrip(asns in prop::collection::vec(1u32..1_000_000, 1..12)) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let parsed: AsPath = path.to_string().parse().unwrap();
        prop_assert_eq!(parsed, path);
    }

    #[test]
    fn deprepending_is_idempotent_and_preserves_links(
        asns in prop::collection::vec(1u32..200, 1..20)
    ) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let once = path.deprepended();
        prop_assert_eq!(once.deprepended(), once.clone());
        // Every link of the de-prepended path is a link of the original.
        let original: std::collections::HashSet<_> = path.links().collect();
        for link in once.links() {
            prop_assert!(original.contains(&link));
        }
    }

    #[test]
    fn prefix_text_roundtrip(prefix in arb_prefix()) {
        let parsed: Prefix = prefix.to_string().parse().unwrap();
        prop_assert_eq!(parsed, prefix);
    }

    // ---- mrt wire codec --------------------------------------------------

    #[test]
    fn path_attributes_survive_the_wire(
        asns in prop::collection::vec(1u32..4_000_000, 1..8),
        locpref in prop::option::of(any::<u32>()),
        med in prop::option::of(any::<u32>()),
        communities in prop::collection::vec(any::<u32>(), 0..8),
        prefix in arb_prefix(),
    ) {
        let mut attrs = PathAttributes::with_path(
            AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>()),
        );
        attrs.local_pref = locpref;
        attrs.med = med;
        attrs.communities = communities.iter().copied().map(Community::from_u32).collect::<CommunitySet>();
        let blob = encode_attributes(&attrs, &prefix, AttrContext::TableDumpV2).freeze();
        let decoded = decode_attributes(blob, AttrContext::TableDumpV2).unwrap();
        prop_assert_eq!(decoded.attrs, attrs);
    }

    // ---- communities ------------------------------------------------------

    #[test]
    fn community_set_text_and_wire_roundtrip(raws in prop::collection::vec(any::<u32>(), 0..16)) {
        let set: CommunitySet = raws.iter().copied().map(Community::from_u32).collect();
        // Textual round trip, element by element (the set renders as a
        // space-separated list of `asn:value` communities).
        for c in set.iter() {
            prop_assert_eq!(c.to_string().parse::<Community>().unwrap(), c);
        }
        let text = set.to_string();
        let reparsed: CommunitySet =
            text.split_whitespace().map(|t| t.parse::<Community>().unwrap()).collect();
        prop_assert_eq!(reparsed, set.clone());
        // Wire round trip on both planes, through the shared attribute codec.
        for prefix in ["198.51.100.0/24".parse::<Prefix>().unwrap(), "2001:db8::/32".parse().unwrap()]
        {
            let mut attrs = PathAttributes::with_path("6939 3333".parse().unwrap());
            attrs.communities = set.clone();
            let blob = encode_attributes(&attrs, &prefix, AttrContext::TableDumpV2).freeze();
            let decoded = decode_attributes(blob, AttrContext::TableDumpV2).unwrap();
            prop_assert_eq!(&decoded.attrs.communities, &set);
        }
    }

    #[test]
    fn community_set_is_an_ordered_set(raws in prop::collection::vec(any::<u32>(), 0..24)) {
        let set: CommunitySet = raws.iter().copied().map(Community::from_u32).collect();
        let listed: Vec<Community> = set.iter().collect();
        // Deduplicated ...
        let distinct: std::collections::HashSet<u32> = raws.iter().copied().collect();
        prop_assert_eq!(listed.len(), distinct.len());
        // ... and iterated in sorted order, so serializations are canonical.
        let mut sorted = listed.clone();
        sorted.sort();
        prop_assert_eq!(listed, sorted);
        // Re-inserting every member is a no-op.
        let mut again = set.clone();
        for c in set.iter() {
            prop_assert!(!again.insert(c));
        }
        prop_assert_eq!(again, set);
    }

    // ---- AS-path prepending ----------------------------------------------

    #[test]
    fn prepend_extends_without_disturbing_the_tail(
        asns in prop::collection::vec(1u32..1_000_000, 1..10),
        head in 1u32..1_000_000
    ) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let prepended = path.prepended(Asn(head));
        prop_assert_eq!(prepended.len(), path.len() + 1);
        prop_assert_eq!(prepended.first(), Some(Asn(head)));
        prop_assert_eq!(prepended.origin(), path.origin());
        // The original path's links all survive the prepend.
        let links: std::collections::HashSet<_> = prepended.links().collect();
        for link in path.links() {
            prop_assert!(links.contains(&link));
        }
    }

    #[test]
    fn repeated_prepends_collapse_under_deprepending(
        asns in prop::collection::vec(1u32..1_000_000, 1..10),
        head in 1u32..1_000_000,
        repeats in 1usize..6
    ) {
        let path = AsPath::from_sequence(asns.iter().copied().map(Asn).collect::<Vec<_>>());
        let mut padded = path.prepended(Asn(head));
        for _ in 1..repeats {
            padded.prepend(Asn(head));
        }
        // However many times the head AS prepends itself, the de-prepended
        // path is the one a single export would have produced.
        prop_assert_eq!(padded.deprepended(), path.prepended(Asn(head)).deprepended());
        // Path-selection length counts every prepend (RFC 4271 §9.1.2.2).
        prop_assert_eq!(padded.routing_length(), path.routing_length() + repeats);
        // And de-prepending never invents links.
        let original: std::collections::HashSet<_> = path.prepended(Asn(head)).links().collect();
        for link in padded.links() {
            prop_assert!(original.contains(&link));
        }
    }

    // ---- valley-free rule -------------------------------------------------

    #[test]
    fn canonical_valley_free_paths_are_accepted(
        ups in 0usize..5, peer in any::<bool>(), downs in 0usize..5
    ) {
        let mut rels = vec![Relationship::CustomerToProvider; ups];
        if peer {
            rels.push(Relationship::PeerToPeer);
        }
        rels.extend(std::iter::repeat_n(Relationship::ProviderToCustomer, downs));
        prop_assert!(is_valley_free(&rels));
    }

    #[test]
    fn violation_index_is_a_real_violation(
        rels in prop::collection::vec(arb_relationship(), 0..12)
    ) {
        match first_violation(&rels) {
            None => prop_assert!(is_valley_free(&rels)),
            Some(idx) => {
                prop_assert!(idx < rels.len());
                prop_assert!(!is_valley_free(&rels));
                // Truncating just before the violation yields a valley-free
                // prefix.
                prop_assert!(is_valley_free(&rels[..idx]));
            }
        }
    }

    // ---- annotated graph invariants ----------------------------------------

    #[test]
    fn graph_orientation_is_antisymmetric(
        links in prop::collection::vec((1u32..60, 1u32..60, arb_relationship(), any::<bool>()), 1..60)
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel, v6) in &links {
            if a == b {
                continue;
            }
            let plane = if *v6 { IpVersion::V6 } else { IpVersion::V4 };
            graph.annotate(Asn(*a), Asn(*b), plane, *rel);
        }
        for edge in graph.edges() {
            for plane in IpVersion::BOTH {
                if let Some(rel) = graph.relationship(edge.a, edge.b, plane) {
                    prop_assert_eq!(
                        graph.relationship(edge.b, edge.a, plane),
                        Some(rel.reverse())
                    );
                }
            }
        }
        // Degree sums equal twice the edge count, per plane.
        for plane in IpVersion::BOTH {
            let degree_sum: usize = graph.asns().map(|a| graph.degree(a, plane)).sum();
            prop_assert_eq!(degree_sum, 2 * graph.plane_edge_count(plane));
        }
    }

    #[test]
    fn valley_free_distances_never_exceed_bfs_distances(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..80)
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        if graph.node_count() == 0 {
            return Ok(());
        }
        let root = graph.asns().next().unwrap();
        let policy = hybrid_as_rel::graph::valley::valley_free_distances(&graph, root, IpVersion::V6);
        let plain = hybrid_as_rel::graph::metrics::bfs_distances(&graph, root, IpVersion::V6);
        for (p, b) in policy.iter().zip(plain.iter()) {
            match (p, b) {
                (Some(pd), Some(bd)) => prop_assert!(pd >= bd),
                (Some(_), None) => prop_assert!(false, "policy path without physical path"),
                _ => {}
            }
        }
    }
}

// ---- sharded execution: parallel == sequential -------------------------
//
// Scenario building is orders of magnitude heavier than a wire round
// trip, so these run with far fewer cases than the codec properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_propagation_matches_sequential_on_random_graphs(
        links in arb_links(),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let graph = mixed_plane_graph(&links, None);
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            ..Default::default()
        };
        for plane in IpVersion::BOTH {
            let sequential = propagate_origins(&graph, &origins, plane, &options, 1);
            for threads in [2usize, 4] {
                let parallel = propagate_origins(&graph, &origins, plane, &options, threads);
                prop_assert_eq!(&parallel, &sequential, "plane={:?} threads={}", plane, threads);
            }
        }
    }

    #[test]
    fn frontier_parallel_propagation_matches_sequential_on_random_graphs(
        links in arb_links(),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let graph = mixed_plane_graph(&links, None);
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            ..Default::default()
        };
        for plane in IpVersion::BOTH {
            // The reference: the fully sequential walk (one origin worker,
            // sequential level scans).
            let sequential = propagate_origins(&graph, &origins, plane, &options, 1);
            for frontier in [2usize, 4] {
                for threads in [1usize, 2] {
                    let parallel = propagate_origins(
                        &graph,
                        &origins,
                        plane,
                        &options.with_frontier(frontier),
                        threads,
                    );
                    prop_assert_eq!(
                        &parallel,
                        &sequential,
                        "plane={:?} frontier={} threads={}",
                        plane,
                        frontier,
                        threads
                    );
                }
            }
        }
    }

    #[test]
    fn propagation_follows_only_the_annotated_links_of_its_plane(
        links in arb_links(),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        // Each plane's walk reads that plane's annotated links and nothing
        // else: on the two-plane graph it selects exactly the routes it
        // selects on a graph that holds only those links. The reference
        // keeps every other link as an edge absent from both planes, so
        // node ids, and with them the outcomes, are directly comparable.
        // Origins whose links on the plane are all unannotated are absent
        // from the reference's plane and left out.
        let graph = mixed_plane_graph(&links, None);
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            ..Default::default()
        };
        for plane in IpVersion::BOTH {
            let reference = mixed_plane_graph(&links, Some(plane));
            let mut origins: Vec<Asn> =
                reference.asns().filter(|&a| reference.degree(a, plane) > 0).collect();
            origins.sort();
            prop_assert_eq!(
                propagate_origins(&graph, &origins, plane, &options, 1),
                propagate_origins(&reference, &origins, plane, &options, 1),
                "plane={:?}",
                plane
            );
        }
    }

    #[test]
    fn classic_policy_dispatch_is_invisible_on_random_graphs(
        links in arb_links(),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        deployment_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        use hybrid_as_rel::sim::propagate::{propagate_origin_with, PlaneContext};
        use hybrid_as_rel::sim::{PolicyDeployment, PolicyEngine};
        let graph = mixed_plane_graph(&links, None);
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        // Under the classic (default) scenario the per-AS policy dispatch
        // must be a pure refactoring artefact: whatever the deployment
        // sampler says, every route equals the one an engine-free classic
        // walk selects — which is what pins the committed goldens to the
        // pre-dispatch propagation, route by route, on arbitrary graphs.
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            deployment: PolicyDeployment {
                fraction: f64::from(deployment_tenths) / 10.0,
                seed: seed ^ 0xd3b107,
            },
            ..Default::default()
        };
        for plane in IpVersion::BOTH {
            let classic = PlaneContext::new(&graph, plane, PolicyEngine::classic());
            for &origin in &origins {
                let dispatched =
                    hybrid_as_rel::sim::propagate_origin(&graph, origin, plane, &options);
                let reference = propagate_origin_with(&classic, origin, &options);
                prop_assert_eq!(&dispatched, &reference, "plane={:?} origin={}", plane, origin);
            }
        }
    }

    #[test]
    fn csr_backend_matches_the_map_backend_on_random_graphs(
        links in arb_links(),
        relaxation in any::<bool>(),
        leak_tenths in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let graph = mixed_plane_graph(&links, None);
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        let options = PropagationOptions {
            reachability_relaxation: relaxation,
            leak_probability: f64::from(leak_tenths) / 10.0,
            seed,
            ..Default::default()
        };
        // The reference: the mutable adjacency-map backend the graph is
        // born with. The frozen CSR arrays must serve the exact same
        // neighbor sequences, so propagation and the valley-free walks
        // are equal — not just equivalent — on arbitrary graphs.
        let mut frozen = graph.clone();
        frozen.freeze();
        prop_assert!(frozen.is_frozen());
        for plane in IpVersion::BOTH {
            let map_outcomes = propagate_origins(&graph, &origins, plane, &options, 1);
            for threads in [1usize, 2] {
                let csr_outcomes = propagate_origins(&frozen, &origins, plane, &options, threads);
                prop_assert_eq!(
                    &csr_outcomes,
                    &map_outcomes,
                    "plane={:?} threads={}",
                    plane,
                    threads
                );
            }
            if let Some(root) = origins.first().copied() {
                use hybrid_as_rel::graph::valley::valley_free_distances;
                prop_assert_eq!(
                    valley_free_distances(&frozen, root, plane),
                    valley_free_distances(&graph, root, plane)
                );
            }
        }
    }

    #[test]
    fn parallel_correction_sweep_matches_sequential_on_random_graphs(
        links in prop::collection::vec((1u32..40, 1u32..40, arb_relationship()), 1..60),
        corrections in prop::collection::vec((any::<usize>(), arb_relationship()), 0..8),
        top_k in 0usize..8,
        source_cap in prop::option::of(1usize..24),
    ) {
        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        // Turn random link indices into hybrid findings whose IPv6
        // relationship gets corrected to a random value; visibility is
        // descending, matching how the hybrid detector sorts its report.
        let findings: Vec<HybridFinding> = corrections
            .iter()
            .enumerate()
            .filter_map(|(i, (idx, corrected))| {
                let (a, b, v4) = links[idx % links.len()];
                (a != b).then(|| HybridFinding {
                    a: Asn(a),
                    b: Asn(b),
                    relationships: RelationshipPair::new(v4, *corrected),
                    class: HybridClass::PeeringV4TransitV6,
                    v6_path_visibility: corrections.len() - i,
                })
            })
            .collect();
        let options = ImpactOptions { top_k, source_cap };
        // The reference: fully sequential, uncached and fully
        // recomputing, exactly the computation the pre-sharding
        // implementation performed.
        let sweep_with = |sweep: &SweepOptions| {
            correction_sweep_in(&graph, &findings, &options, sweep, &mut SweepCache::new())
        };
        let sequential = sweep_with(&SweepOptions::sequential());
        for threads in [2usize, 4] {
            for cache in [false, true] {
                for incremental in [false, true] {
                    for removal_repair in [false, true] {
                        let sweep = SweepOptions { concurrency: threads, cache, incremental, removal_repair };
                        let curve = sweep_with(&sweep);
                        prop_assert_eq!(
                            &curve.steps,
                            &sequential.steps,
                            "threads={} cache={} incremental={} removal_repair={}",
                            threads,
                            cache,
                            incremental,
                            removal_repair
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_delta_bfs_matches_full_recompute_on_random_graphs(
        links in prop::collection::vec((1u32..30, 1u32..30, arb_relationship()), 1..50),
        corrections in prop::collection::vec((any::<usize>(), arb_relationship()), 1..10),
    ) {
        use hybrid_as_rel::graph::delta::{DistanceMap, EdgeCorrection};
        use hybrid_as_rel::graph::valley::valley_free_distances;

        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        if graph.node_count() == 0 {
            return Ok(());
        }
        // One reusable map per root, driven through the whole correction
        // sequence; after every correction each map must equal a fresh
        // full BFS on the mutated graph.
        let roots: Vec<Asn> = graph.asns().take(6).collect();
        let mut maps: Vec<DistanceMap> =
            roots.iter().map(|&r| DistanceMap::compute(&graph, r, IpVersion::V6)).collect();
        for (idx, corrected) in &corrections {
            let (a, b, _) = links[idx % links.len()];
            if a == b {
                continue;
            }
            let correction =
                EdgeCorrection::observe(&graph, Asn(a), Asn(b), IpVersion::V6, *corrected);
            graph.annotate(Asn(a), Asn(b), IpVersion::V6, *corrected);
            for map in &mut maps {
                map.apply_correction(&graph, &correction);
                let full = valley_free_distances(&graph, map.root(), IpVersion::V6);
                prop_assert_eq!(
                    map.distances(),
                    &full[..],
                    "root {} diverged after correcting {}-{} to {:?}",
                    map.root(),
                    a,
                    b,
                    corrected
                );
            }
        }
    }

    #[test]
    fn removal_repair_matches_full_recompute_on_random_graphs(
        links in prop::collection::vec((1u32..30, 1u32..30, arb_relationship()), 1..50),
        corrections in prop::collection::vec((any::<usize>(), arb_relationship()), 1..10),
    ) {
        use hybrid_as_rel::graph::delta::{DistanceMap, EdgeCorrection, RemovalPolicy};
        use hybrid_as_rel::graph::valley::valley_free_distances;

        let mut graph = AsGraph::new();
        for (a, b, rel) in &links {
            if a != b {
                graph.annotate(Asn(*a), Asn(*b), IpVersion::V6, *rel);
            }
        }
        if graph.node_count() == 0 {
            return Ok(());
        }
        // The in-place removal repair pitted against a fresh full BFS over
        // random graphs × random correction (removal) sequences: one map
        // per root runs the whole chain under `RemovalPolicy::Repair`,
        // the only path `apply_correction` never takes on its own.
        let roots: Vec<Asn> = graph.asns().take(6).collect();
        let mut maps: Vec<DistanceMap> =
            roots.iter().map(|&r| DistanceMap::compute(&graph, r, IpVersion::V6)).collect();
        for (idx, corrected) in &corrections {
            let (a, b, _) = links[idx % links.len()];
            if a == b {
                continue;
            }
            let correction =
                EdgeCorrection::observe(&graph, Asn(a), Asn(b), IpVersion::V6, *corrected);
            graph.annotate(Asn(a), Asn(b), IpVersion::V6, *corrected);
            for map in &mut maps {
                map.apply_correction_with(&graph, &correction, RemovalPolicy::Repair);
                let full = valley_free_distances(&graph, map.root(), IpVersion::V6);
                prop_assert_eq!(
                    map.distances(),
                    &full[..],
                    "root {} diverged under removal repair after correcting {}-{} to {:?}",
                    map.root(),
                    a,
                    b,
                    corrected
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_scenario_build_yields_identical_rib_snapshots(
        topo_seed in any::<u64>(),
        sim_seed in any::<u64>(),
        collector_count in 1usize..3,
        feeders_per_collector in 2usize..6,
        relaxation in any::<bool>(),
    ) {
        let topology = TopologyConfig { seed: topo_seed, ..TopologyConfig::tiny() };
        let sim = SimConfig {
            seed: sim_seed,
            collector_count,
            feeders_per_collector,
            v6_reachability_relaxation: relaxation,
            ..SimConfig::small()
        };
        let sequential = Scenario::build(&topology, &sim.clone().with_concurrency(1));
        for threads in [2usize, 4] {
            let parallel = Scenario::build(&topology, &sim.clone().with_concurrency(threads));
            prop_assert_eq!(
                &parallel.merged_snapshot(),
                &sequential.merged_snapshot(),
                "threads={}",
                threads
            );
        }
    }

    #[test]
    fn replayed_update_stream_matches_the_equivalent_table_dump(
        stream_seed in any::<u64>(),
        windows in 1usize..4,
        events in 4usize..32,
    ) {
        use hybrid_as_rel::mrt::{read_snapshot_bytes, write_snapshot};
        use hybrid_as_rel::sim::UpdateStreamConfig;
        use hybrid_as_rel::tor::ingest::{ApplyStats, LiveRib, TemporalSweep, UpdateStream};
        use hybrid_as_rel::tor::pipeline::{Pipeline, PipelineInput};

        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let config =
            UpdateStreamConfig { windows, events_per_window: events, seed: stream_seed };
        let stream = UpdateStream::from_windows(scenario.update_stream(&config));
        let base = scenario.pooled_snapshot(1);
        let dictionary = scenario.registry.build_dictionary();
        let pipeline = Pipeline::with_concurrency(1);

        // Streaming replay with delta-repaired caches.
        let outcomes = TemporalSweep::new(pipeline.clone(), true).run(
            &base,
            &dictionary,
            Some(&scenario.truth),
            &stream,
        );
        let replayed = outcomes.last().expect("stream has windows").report.to_json();

        // The equivalent final table dump: apply the same records to a
        // fresh RIB, round-trip its snapshot through the MRT wire format
        // (what a collector would have dumped at time T), and run a
        // one-shot pipeline on the re-read table.
        let mut live = LiveRib::from_snapshot(&base);
        let mut stats = ApplyStats::default();
        for record in stream.windows().iter().flatten() {
            live.apply_record(record, &mut stats);
        }
        let mut dump = Vec::new();
        write_snapshot(&mut dump, &live.snapshot()).expect("encode table dump");
        let reread = read_snapshot_bytes(dump.into()).expect("decode table dump");
        prop_assert_eq!(&reread, &live.snapshot(), "table dump round trip");

        let input = PipelineInput::builder()
            .snapshot(reread, dictionary, Some(scenario.truth.clone()))
            .build()
            .expect("snapshot inputs cannot fail");
        prop_assert_eq!(pipeline.run(input).to_json(), replayed);
    }
}

/// An ASN for hostile paths: a tiny pool (so prepends and loops are
/// common), a wider clean range, and the reserved 0, 23456 and 64512.
fn arb_hostile_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![
        1u32..4,
        1u32..4,
        10u32..60,
        10u32..60,
        10u32..60,
        10u32..60,
        10u32..60,
        Just(0u32),
        Just(23_456u32),
        Just(64_512u32),
    ]
    .prop_map(Asn)
}

/// A hostile AS path: an optional AS_SET between two optional sequence
/// segments, all drawn from [`arb_hostile_asn`]; no segment at all is the
/// empty path.
fn arb_hostile_path() -> impl Strategy<Value = AsPath> {
    (
        prop::collection::vec(arb_hostile_asn(), 0..6),
        prop::option::of(prop::collection::vec(arb_hostile_asn(), 1..3)),
        prop::collection::vec(arb_hostile_asn(), 0..3),
    )
        .prop_map(|(head, set, tail)| {
            let segments = [
                (!head.is_empty()).then_some(AsPathSegment::Sequence(head)),
                set.map(AsPathSegment::Set),
                (!tail.is_empty()).then_some(AsPathSegment::Sequence(tail)),
            ];
            AsPath::from_segments(segments.into_iter().flatten().collect()).expect("short path")
        })
}

/// Everything extraction yields, graph layout included, in comparable
/// form.
fn extraction_layout(data: &ExtractedData) -> impl PartialEq + std::fmt::Debug {
    let mut visibility: Vec<_> = data.v6_link_path_count.iter().map(|(&k, &v)| (k, v)).collect();
    visibility.sort();
    let edges = |plane| data.graph.plane_edges(plane).map(|e| (e.a, e.b)).collect::<Vec<_>>();
    (
        (data.entries_v4, data.entries_v6, data.discarded_entries),
        (data.paths_v4.clone(), data.paths_v6.clone(), visibility),
        data.graph.asns().collect::<Vec<_>>(),
        (edges(IpVersion::V4), edges(IpVersion::V6)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `hops` and `links` collapse prepends on the fly; they must agree
    /// with the de-prepended path they stand in for, AS_SETs included.
    #[test]
    fn hops_and_links_match_the_deprepended_path(path in arb_hostile_path()) {
        let once = path.deprepended();
        prop_assert_eq!(path.hops().collect::<Vec<_>>(), once.asns().collect::<Vec<_>>());
        let windows: Vec<(Asn, Asn)> = once
            .segments()
            .iter()
            .filter(|seg| !seg.is_set())
            .flat_map(|seg| seg.asns().windows(2).map(|w| (w[0], w[1])))
            .collect();
        prop_assert_eq!(path.links().collect::<Vec<_>>(), windows);
    }

    /// Random hostile BGP4MP sequences — announce and withdraw over a few
    /// peers and prefixes on both planes, prepends, AS_SETs, loops,
    /// reserved ASNs, out-of-order timestamps — keep the streaming
    /// extraction counters equal to a fresh extraction after every record.
    #[test]
    fn hostile_update_sequences_keep_the_extract_cache_exact(
        base in prop::collection::vec((0usize..3, 0usize..4, arb_hostile_path()), 0..6),
        records in prop::collection::vec(
            (0usize..3, 0u8..16, 0u8..16, arb_hostile_path(), any::<u32>()),
            1..24,
        ),
    ) {
        use hybrid_as_rel::mrt::bgp::BgpUpdate;
        use hybrid_as_rel::mrt::record::bgp4mp_subtype;
        use hybrid_as_rel::mrt::{Bgp4mpMessage, MrtHeader, MrtRecord, MrtRecordBody, MrtType};
        use hybrid_as_rel::tor::extract::{extract, ExtractCache};
        use hybrid_as_rel::tor::ingest::{ApplyStats, LiveRib};

        let peers = [(1, "192.0.2.1"), (2, "2001:db8::2"), (3, "192.0.2.3")]
            .map(|(asn, addr)| PeerId::new(Asn(asn), addr.parse().unwrap()));
        let prefixes: [Prefix; 4] =
            ["10.0.0.0/24", "10.0.1.0/24", "2001:db8:1::/48", "2001:db8:2::/48"]
                .map(|text| text.parse().unwrap());
        let pick = |mask: u8| -> Vec<Prefix> {
            (0..4).filter(|i| mask & (1 << i) != 0).map(|i| prefixes[i]).collect()
        };

        let mut snapshot = RibSnapshot::default();
        for (peer, prefix, path) in base {
            let attrs = PathAttributes::with_path(path);
            snapshot.push(RibEntry::new(peers[peer], prefixes[prefix], attrs));
        }
        let mut live = LiveRib::from_snapshot(&snapshot);
        let mut cache = ExtractCache::from_rib(&live);
        prop_assert_eq!(
            extraction_layout(&cache.materialize()),
            extraction_layout(&extract(&live.snapshot()))
        );
        let mut stats = ApplyStats::default();
        for (i, (peer, withdrawn, announced, path, timestamp)) in records.into_iter().enumerate() {
            let peer = peers[peer];
            let message = Bgp4mpMessage {
                peer_asn: peer.asn,
                local_asn: Asn(6447),
                interface_index: 0,
                peer_addr: peer.addr,
                local_addr: peer.addr,
                update: Some(BgpUpdate {
                    withdrawn: pick(withdrawn),
                    attrs: PathAttributes::with_path(path),
                    announced: pick(announced),
                }),
            };
            let header = MrtHeader {
                timestamp,
                mrt_type: MrtType::Bgp4mp.code(),
                subtype: bgp4mp_subtype::MESSAGE_AS4,
                length: 0,
            };
            let record = MrtRecord::new(header, MrtRecordBody::Bgp4mp(message));
            for delta in live.apply_record(&record, &mut stats) {
                cache.apply(&delta);
            }
            prop_assert_eq!(
                extraction_layout(&cache.materialize()),
                extraction_layout(&extract(&live.snapshot())),
                "record {}",
                i
            );
        }
    }
}

// Deterministic (non-proptest) checks that belong with the properties.
#[test]
fn relationship_reverse_is_involutive_for_all_variants() {
    for rel in Relationship::ALL {
        assert_eq!(rel.reverse().reverse(), rel);
    }
}

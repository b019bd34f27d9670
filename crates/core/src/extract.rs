//! Extraction of AS paths and AS links from collector RIB snapshots.
//!
//! One engine, [`ExtractCache`], counts what the paper's cleaning step
//! extracts: de-prepended AS paths, per-plane links and per-link IPv6
//! path visibility. Batch [`extract`] seeds it from a snapshot; streaming
//! ingest seeds it from a [`LiveRib`] and keeps it current by applying
//! [`RibDelta`]s.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use asgraph::AsGraph;
use bgp_types::{AsPath, Asn, IpVersion, RibSnapshot};

use crate::ingest::{LiveRib, RibDelta};

/// One distinct observed AS path on one plane, with how many RIB entries
/// carried it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservedPath {
    /// The de-prepended AS path, collector peer first, origin last.
    pub path: Vec<Asn>,
    /// How many (peer, prefix) RIB entries used this exact path.
    pub occurrences: usize,
}

/// Everything extracted from the RIBs, per plane.
#[derive(Debug, Clone, Default)]
pub struct ExtractedData {
    /// Link-presence graph: every AS link observed on either plane
    /// (no relationship annotations yet).
    pub graph: AsGraph,
    /// Distinct IPv4 paths.
    pub paths_v4: Vec<ObservedPath>,
    /// Distinct IPv6 paths.
    pub paths_v6: Vec<ObservedPath>,
    /// Number of RIB entries inspected per plane (after sanitisation).
    pub entries_v4: usize,
    /// Number of RIB entries inspected on the IPv6 plane.
    pub entries_v6: usize,
    /// Number of RIB entries discarded as bogus (loops, reserved ASNs,
    /// empty paths), across both planes.
    pub discarded_entries: usize,
    /// How many distinct IPv6 paths traverse each link (canonical
    /// lower-ASN-first key); the paper's "visibility" of a link.
    pub v6_link_path_count: HashMap<(Asn, Asn), usize>,
}

impl ExtractedData {
    /// Distinct paths on a plane.
    pub fn paths(&self, plane: IpVersion) -> &[ObservedPath] {
        match plane {
            IpVersion::V4 => &self.paths_v4,
            IpVersion::V6 => &self.paths_v6,
        }
    }

    /// Number of distinct AS links observed on a plane.
    pub fn link_count(&self, plane: IpVersion) -> usize {
        self.graph.plane_edge_count(plane)
    }

    /// Number of distinct AS links observed on both planes.
    pub fn dual_stack_link_count(&self) -> usize {
        self.graph.dual_stack_edges().count()
    }

    /// The number of distinct IPv6 paths that traverse the given link.
    pub fn v6_link_visibility(&self, a: Asn, b: Asn) -> usize {
        self.v6_link_path_count.get(&link_key(a, b)).copied().unwrap_or(0)
    }
}

/// The canonical key of the undirected link between `a` and `b`: lower
/// ASN first.
pub(crate) fn link_key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Extract paths and links from a pooled snapshot:
/// [`ExtractCache::from_snapshot`] followed by
/// [`ExtractCache::materialize`].
///
/// Paths are de-prepended and deduplicated; entries whose AS path is bogus
/// (empty, contains a loop after de-prepending, or contains reserved ASNs)
/// are discarded, as the paper's data cleaning does. Links adjacent to
/// AS_SET segments are not extracted because the true adjacency is unknown.
/// The result depends only on the multiset of entries, not their order.
pub fn extract(snapshot: &RibSnapshot) -> ExtractedData {
    ExtractCache::from_snapshot(snapshot).materialize()
}

/// One plane's extraction counters.
#[derive(Debug, Clone, Default)]
struct PlaneCounts {
    entries: usize,
    /// Distinct de-prepended paths (AS_SET members flattened in stored
    /// order) with the number of entries carrying each.
    paths: BTreeMap<Vec<Asn>, usize>,
    /// Link references, keyed by [`link_key`].
    links: BTreeMap<(Asn, Asn), usize>,
}

/// The extraction engine: per-plane entry counters, distinct de-prepended
/// paths with occurrence counts, link reference counts and the per-link
/// distinct-IPv6-path visibility.
///
/// Batch [`extract`] seeds it from a snapshot; a streaming session seeds it
/// from a [`LiveRib`] and folds each [`RibDelta`] into it, at a cost
/// proportional to the changed route's path length, not to the table.
/// Every entry goes through the same add path, so the counters — and what
/// [`ExtractCache::materialize`] builds from them — depend only on the
/// multiset of routes counted.
#[derive(Debug, Clone, Default)]
pub struct ExtractCache {
    discarded: usize,
    v4: PlaneCounts,
    v6: PlaneCounts,
    /// Distinct IPv6 paths per link, over flattened hops.
    v6_path_links: BTreeMap<(Asn, Asn), usize>,
}

impl ExtractCache {
    /// Count every entry of a snapshot, duplicates included.
    pub fn from_snapshot(snapshot: &RibSnapshot) -> Self {
        Self::from_routes(snapshot.entries.iter().map(|e| (e.plane(), &e.attrs.as_path)))
    }

    /// Count every route of a resident table.
    pub fn from_rib(rib: &LiveRib) -> Self {
        Self::from_routes(rib.routes().map(|(prefix, _, attrs)| (prefix.version(), &attrs.as_path)))
    }

    fn from_routes<'a>(routes: impl Iterator<Item = (IpVersion, &'a AsPath)>) -> Self {
        let mut cache = ExtractCache::default();
        for (plane, path) in routes {
            cache.add(plane, path);
        }
        cache
    }

    /// Fold one route-level change into the counters.
    pub fn apply(&mut self, delta: &RibDelta) {
        let plane = delta.prefix.version();
        if let Some(old) = &delta.old {
            self.remove(plane, &old.as_path);
        }
        if let Some(new) = &delta.new {
            self.add(plane, &new.as_path);
        }
    }

    fn add(&mut self, plane: IpVersion, path: &AsPath) {
        if path.is_bogus() {
            self.discarded += 1;
            return;
        }
        let counts = match plane {
            IpVersion::V4 => &mut self.v4,
            IpVersion::V6 => &mut self.v6,
        };
        counts.entries += 1;
        for (a, b) in path.links() {
            *counts.links.entry(link_key(a, b)).or_insert(0) += 1;
        }
        match counts.paths.entry(path.hops().collect()) {
            Entry::Occupied(mut seen) => *seen.get_mut() += 1,
            Entry::Vacant(new) => {
                // A new distinct IPv6 path raises the visibility of every
                // link it traverses, over flattened hops.
                if plane == IpVersion::V6 {
                    for pair in new.key().windows(2) {
                        *self.v6_path_links.entry(link_key(pair[0], pair[1])).or_insert(0) += 1;
                    }
                }
                new.insert(1);
            }
        }
    }

    fn remove(&mut self, plane: IpVersion, path: &AsPath) {
        if path.is_bogus() {
            self.discarded -= 1;
            return;
        }
        let counts = match plane {
            IpVersion::V4 => &mut self.v4,
            IpVersion::V6 => &mut self.v6,
        };
        counts.entries -= 1;
        for (a, b) in path.links() {
            release(&mut counts.links, &link_key(a, b));
        }
        let hops: Vec<Asn> = path.hops().collect();
        if release(&mut counts.paths, &hops) && plane == IpVersion::V6 {
            for pair in hops.windows(2) {
                release(&mut self.v6_path_links, &link_key(pair[0], pair[1]));
            }
        }
    }

    /// Materialise the counters as [`ExtractedData`]. The graph inserts the
    /// IPv4 links in sorted order, then the IPv6 links, so node and edge
    /// ids depend only on the counted routes: batch and streaming
    /// extraction of the same table build the same graph.
    pub fn materialize(&self) -> ExtractedData {
        let mut data = ExtractedData {
            entries_v4: self.v4.entries,
            entries_v6: self.v6.entries,
            discarded_entries: self.discarded,
            ..Default::default()
        };
        for (plane, counts) in [(IpVersion::V4, &self.v4), (IpVersion::V6, &self.v6)] {
            for &(a, b) in counts.links.keys() {
                data.graph.observe_link(a, b, plane);
            }
        }
        let observed = |counts: &PlaneCounts| -> Vec<ObservedPath> {
            counts
                .paths
                .iter()
                .map(|(path, &occurrences)| ObservedPath { path: path.clone(), occurrences })
                .collect()
        };
        data.paths_v4 = observed(&self.v4);
        data.paths_v6 = observed(&self.v6);
        data.v6_link_path_count = self.v6_path_links.iter().map(|(&k, &v)| (k, v)).collect();
        data
    }
}

/// Drop one reference to `key`, forgetting it at zero; true when that was
/// the last reference. Every released key was counted by an add.
fn release<K: Ord>(counts: &mut BTreeMap<K, usize>, key: &K) -> bool {
    let count = counts.get_mut(key).expect("released key was counted on add");
    *count -= 1;
    let last = *count == 0;
    if last {
        counts.remove(key);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{CollectorId, PathAttributes, PeerId, Prefix, RibEntry};
    use std::net::IpAddr;

    fn entry(peer_asn: u32, peer_addr: &str, prefix: &str, path: &str) -> RibEntry {
        RibEntry::new(
            PeerId::new(Asn(peer_asn), peer_addr.parse::<IpAddr>().unwrap()),
            prefix.parse::<Prefix>().unwrap(),
            PathAttributes::with_path(path.parse().unwrap()),
        )
    }

    fn snapshot(entries: Vec<RibEntry>) -> RibSnapshot {
        let mut s = RibSnapshot::new(CollectorId::new("t"), 1);
        for e in entries {
            s.push(e);
        }
        s
    }

    #[test]
    fn extracts_paths_and_links_per_plane() {
        let snap = snapshot(vec![
            entry(10, "2001:db8::1", "2001:db8:100::/48", "10 20 30"),
            entry(10, "2001:db8::1", "2001:db8:200::/48", "10 20 30"), // same path
            entry(10, "2001:db8::1", "2001:db8:300::/48", "10 40"),
            entry(10, "192.0.2.1", "198.51.100.0/24", "10 20 30"),
        ]);
        let data = extract(&snap);
        assert_eq!(data.paths_v6.len(), 2);
        assert_eq!(data.paths_v4.len(), 1);
        assert_eq!(data.entries_v6, 3);
        assert_eq!(data.entries_v4, 1);
        assert_eq!(data.discarded_entries, 0);
        assert_eq!(data.link_count(IpVersion::V6), 3); // 10-20, 20-30, 10-40
        assert_eq!(data.link_count(IpVersion::V4), 2);
        assert_eq!(data.dual_stack_link_count(), 2);
        // The duplicated path has occurrences 2.
        let p = data.paths_v6.iter().find(|p| p.path == vec![Asn(10), Asn(20), Asn(30)]).unwrap();
        assert_eq!(p.occurrences, 2);
        assert_eq!(data.paths(IpVersion::V6).len(), 2);
        assert_eq!(data.paths(IpVersion::V4).len(), 1);
    }

    #[test]
    fn bogus_paths_are_discarded() {
        let snap = snapshot(vec![
            entry(10, "192.0.2.1", "198.51.100.0/24", "10 20 10"), // loop
            entry(10, "192.0.2.1", "198.51.101.0/24", "10 64512 30"), // private ASN
            entry(10, "192.0.2.1", "198.51.102.0/24", "10 20"),
        ]);
        let data = extract(&snap);
        assert_eq!(data.discarded_entries, 2);
        assert_eq!(data.paths_v4.len(), 1);
        assert_eq!(data.link_count(IpVersion::V4), 1);
    }

    #[test]
    fn prepending_is_collapsed_and_sets_break_links() {
        let snap = snapshot(vec![entry(
            10,
            "2001:db8::1",
            "2001:db8:100::/48",
            "10 10 20 {30,31} 40 40 50",
        )]);
        let data = extract(&snap);
        assert_eq!(data.paths_v6.len(), 1);
        // Links: only within sequences: 10-20 and 40-50.
        assert_eq!(data.link_count(IpVersion::V6), 2);
        assert!(data.graph.has_link(Asn(10), Asn(20), IpVersion::V6));
        assert!(data.graph.has_link(Asn(40), Asn(50), IpVersion::V6));
        assert!(!data.graph.has_link(Asn(20), Asn(30), IpVersion::V6));
        // The stored path is de-prepended but keeps set members.
        assert_eq!(
            data.paths_v6[0].path,
            vec![Asn(10), Asn(20), Asn(30), Asn(31), Asn(40), Asn(50)]
        );
    }

    #[test]
    fn link_visibility_counts_distinct_v6_paths() {
        let snap = snapshot(vec![
            entry(10, "2001:db8::1", "2001:db8:100::/48", "10 20 30"),
            entry(11, "2001:db8::2", "2001:db8:100::/48", "11 20 30"),
            entry(10, "2001:db8::1", "2001:db8:200::/48", "10 20 40"),
        ]);
        let data = extract(&snap);
        assert_eq!(data.v6_link_visibility(Asn(20), Asn(30)), 2);
        assert_eq!(data.v6_link_visibility(Asn(30), Asn(20)), 2);
        assert_eq!(data.v6_link_visibility(Asn(10), Asn(20)), 2);
        assert_eq!(data.v6_link_visibility(Asn(20), Asn(40)), 1);
        assert_eq!(data.v6_link_visibility(Asn(99), Asn(100)), 0);
    }

    #[test]
    fn entry_order_does_not_change_the_extraction() {
        let entries = vec![
            entry(10, "2001:db8::1", "2001:db8:100::/48", "10 20 30"),
            entry(11, "192.0.2.2", "198.51.100.0/24", "11 40 30"),
            entry(10, "2001:db8::1", "2001:db8:200::/48", "10 10 50 {60,61}"),
            entry(10, "192.0.2.1", "198.51.101.0/24", "10 20 10"),
            entry(12, "2001:db8::3", "2001:db8:100::/48", "12 20 30"),
        ];
        let forward = extract(&snapshot(entries.clone()));
        let reversed = extract(&snapshot(entries.into_iter().rev().collect()));
        assert_eq!(forward.paths_v4, reversed.paths_v4);
        assert_eq!(forward.paths_v6, reversed.paths_v6);
        assert_eq!(forward.v6_link_path_count, reversed.v6_link_path_count);
        assert_eq!(
            (forward.entries_v4, forward.entries_v6, forward.discarded_entries),
            (reversed.entries_v4, reversed.entries_v6, reversed.discarded_entries)
        );
        let asns = |data: &ExtractedData| data.graph.asns().collect::<Vec<_>>();
        assert_eq!(asns(&forward), asns(&reversed), "node order");
        for plane in IpVersion::BOTH {
            let edges = |data: &ExtractedData| {
                data.graph.plane_edges(plane).map(|e| (e.a, e.b)).collect::<Vec<_>>()
            };
            assert_eq!(edges(&forward), edges(&reversed), "{plane} edges");
        }
    }

    #[test]
    fn empty_snapshot_extracts_nothing() {
        let data = extract(&RibSnapshot::default());
        assert_eq!(data.paths_v4.len() + data.paths_v6.len(), 0);
        assert_eq!(data.graph.node_count(), 0);
        assert_eq!(data.dual_stack_link_count(), 0);
    }

    #[test]
    fn extraction_from_simulated_scenario_is_consistent_with_truth() {
        use routesim::{Scenario, SimConfig};
        use topogen::TopologyConfig;
        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let data = extract(&scenario.merged_snapshot());
        // Every observed link must exist in the ground-truth graph on the
        // same plane.
        for plane in IpVersion::BOTH {
            for edge in data.graph.plane_edges(plane) {
                assert!(
                    scenario.truth.graph.has_link(edge.a, edge.b, plane),
                    "observed {}-{} on {plane} not in ground truth",
                    edge.a,
                    edge.b
                );
            }
        }
        assert!(data.paths_v6.len() > 10);
        assert!(data.link_count(IpVersion::V4) >= data.dual_stack_link_count());
    }
}

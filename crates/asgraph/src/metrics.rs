//! Plain (policy-free) graph statistics: degrees, components, distances.
//!
//! These are the sanity metrics used to validate that the synthetic
//! topologies produced by `topogen` look like the measured AS graph
//! (heavy-tailed degrees, a single giant component per plane, small
//! diameter), and to report the dataset summary of experiment E1.

use std::collections::VecDeque;

use bgp_types::{Asn, IpVersion};

use crate::graph::{AsGraph, NodeId};

/// Degree statistics for one plane.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegreeStats {
    /// Number of ASes with at least one link on the plane.
    pub nodes: usize,
    /// Number of links on the plane.
    pub edges: usize,
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: usize,
    /// Median degree.
    pub median: usize,
}

/// Compute [`DegreeStats`] for a plane.
pub fn degree_stats(graph: &AsGraph, plane: IpVersion) -> DegreeStats {
    let mut degrees: Vec<usize> =
        graph.asns().map(|a| graph.degree(a, plane)).filter(|&d| d > 0).collect();
    degrees.sort_unstable();
    let nodes = degrees.len();
    let edges = graph.plane_edge_count(plane);
    if nodes == 0 {
        return DegreeStats::default();
    }
    DegreeStats {
        nodes,
        edges,
        mean: degrees.iter().sum::<usize>() as f64 / nodes as f64,
        max: *degrees.last().unwrap(),
        median: degrees[nodes / 2],
    }
}

/// Connected components of the plane's link graph (ignoring relationship
/// annotations), largest first, equal sizes by lowest ASN. Each component
/// is a sorted list of ASNs, so the result does not depend on node ids.
pub fn connected_components(graph: &AsGraph, plane: IpVersion) -> Vec<Vec<Asn>> {
    let n = graph.node_count();
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if seen[start] || graph.degree(graph.asn(NodeId(start as u32)), plane) == 0 {
            continue;
        }
        let mut queue = VecDeque::new();
        queue.push_back(NodeId(start as u32));
        seen[start] = true;
        let mut members = Vec::new();
        while let Some(node) = queue.pop_front() {
            members.push(graph.asn(node));
            for (next, _) in graph.neighbors_by_id(node, plane) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        members.sort();
        components.push(members);
    }
    components.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
    components
}

/// Breadth-first (policy-free) distances from `root` on a plane, in hops.
pub fn bfs_distances(graph: &AsGraph, root: Asn, plane: IpVersion) -> Vec<Option<u32>> {
    let n = graph.node_count();
    let mut dist = vec![None; n];
    let Some(root_node) = graph.node(root) else { return dist };
    dist[root_node.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(root_node);
    while let Some(node) = queue.pop_front() {
        let d = dist[node.index()].unwrap();
        for (next, _) in graph.neighbors_by_id(node, plane) {
            if dist[next.index()].is_none() {
                dist[next.index()] = Some(d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

/// A one-struct summary of a plane's topology, for reports and examples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphSummary {
    /// ASes present on the plane.
    pub nodes: usize,
    /// Links present on the plane.
    pub edges: usize,
    /// Links annotated with a relationship on the plane.
    pub annotated_edges: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
}

impl GraphSummary {
    /// Compute the summary for a plane.
    pub fn compute(graph: &AsGraph, plane: IpVersion) -> Self {
        let stats = degree_stats(graph, plane);
        let components = connected_components(graph, plane);
        let annotated_edges = graph.plane_edges(plane).filter(|e| e.rel(plane).is_some()).count();
        GraphSummary {
            nodes: stats.nodes,
            edges: stats.edges,
            annotated_edges,
            mean_degree: stats.mean,
            max_degree: stats.max,
            components: components.len(),
            largest_component: components.first().map(|c| c.len()).unwrap_or(0),
        }
    }

    /// Fraction of plane links carrying a relationship annotation — the
    /// "coverage" number the paper reports (72% for IPv6).
    pub fn annotation_coverage(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.annotated_edges as f64 / self.edges as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Relationship;

    fn two_component_graph() -> AsGraph {
        let mut g = AsGraph::new();
        // Component A: a chain 1-2-3 on v6 (annotated) and v4.
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.observe_link(Asn(2), Asn(3), IpVersion::V6);
        g.observe_link(Asn(2), Asn(3), IpVersion::V4);
        // Component B (v6 only): 10-11.
        g.observe_link(Asn(10), Asn(11), IpVersion::V6);
        g
    }

    #[test]
    fn degree_stats_basics() {
        let g = two_component_graph();
        let v6 = degree_stats(&g, IpVersion::V6);
        assert_eq!(v6.nodes, 5);
        assert_eq!(v6.edges, 3);
        assert_eq!(v6.max, 2);
        assert!((v6.mean - 1.2).abs() < 1e-9);
        let v4 = degree_stats(&g, IpVersion::V4);
        assert_eq!(v4.nodes, 3);
        assert_eq!(v4.edges, 2);

        let empty = degree_stats(&AsGraph::new(), IpVersion::V4);
        assert_eq!(empty.nodes, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn components_are_sorted_largest_first() {
        let g = two_component_graph();
        let comps = connected_components(&g, IpVersion::V6);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(comps[1], vec![Asn(10), Asn(11)]);
        // The v4 plane has a single component.
        assert_eq!(connected_components(&g, IpVersion::V4).len(), 1);
        assert!(connected_components(&AsGraph::new(), IpVersion::V4).is_empty());
    }

    #[test]
    fn equal_size_components_do_not_depend_on_insertion_order() {
        let build = |links: &[(Asn, Asn)]| {
            let mut g = AsGraph::new();
            for &(a, b) in links {
                g.observe_link(a, b, IpVersion::V6);
            }
            connected_components(&g, IpVersion::V6)
        };
        let mut links = [(Asn(30), Asn(31)), (Asn(20), Asn(21)), (Asn(10), Asn(11))];
        let forward = build(&links);
        links.reverse();
        assert_eq!(forward, build(&links));
        assert_eq!(forward[0], vec![Asn(10), Asn(11)]);
    }

    #[test]
    fn bfs_distances_ignore_relationships() {
        let g = two_component_graph();
        let dist = bfs_distances(&g, Asn(1), IpVersion::V6);
        assert_eq!(dist[g.node(Asn(3)).unwrap().index()], Some(2));
        assert_eq!(dist[g.node(Asn(10)).unwrap().index()], None);
        let nowhere = bfs_distances(&g, Asn(404), IpVersion::V6);
        assert!(nowhere.iter().all(Option::is_none));
    }

    #[test]
    fn summary_and_coverage() {
        let g = two_component_graph();
        let s = GraphSummary::compute(&g, IpVersion::V6);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 3);
        assert_eq!(s.annotated_edges, 1);
        assert_eq!(s.components, 2);
        assert_eq!(s.largest_component, 3);
        assert!((s.annotation_coverage() - 1.0 / 3.0).abs() < 1e-9);
        let empty = GraphSummary::compute(&AsGraph::new(), IpVersion::V6);
        assert_eq!(empty.annotation_coverage(), 0.0);
    }
}

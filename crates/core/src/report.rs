//! The consolidated measurement report (everything Section 3 states).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::baselines::InferenceAccuracy;
use crate::hybrid::HybridReport;
use crate::impact::ImpactCurve;
use crate::valley::ValleyReport;

/// Dataset and coverage summary — the paper's first paragraph of Section 3
/// (experiment E1, `exp_e1_dataset`; see the README's experiment list).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Distinct IPv6 AS paths observed.
    pub ipv6_paths: usize,
    /// Distinct IPv4 AS paths observed.
    pub ipv4_paths: usize,
    /// RIB entries inspected (IPv6 plane).
    pub ipv6_entries: usize,
    /// RIB entries inspected (IPv4 plane).
    pub ipv4_entries: usize,
    /// Distinct IPv6 AS links.
    pub ipv6_links: usize,
    /// Distinct IPv4 AS links.
    pub ipv4_links: usize,
    /// Links visible on both planes.
    pub dual_stack_links: usize,
    /// IPv6 links with an inferred relationship (communities + LocPrf).
    pub ipv6_links_classified: usize,
    /// Dual-stack links whose relationship is known on *both* planes.
    pub dual_stack_links_classified: usize,
    /// IPv6 links classified from communities alone.
    pub ipv6_links_from_communities: usize,
    /// IPv6 links classified via the LocPrf Rosetta Stone.
    pub ipv6_links_from_locpref: usize,
    /// Links dropped because their community votes conflicted.
    pub conflicted_links: usize,
    /// Community values present in the dictionary.
    pub dictionary_size: usize,
}

impl DatasetSummary {
    /// Fraction of IPv6 links with a known relationship (the paper's 72%).
    pub fn ipv6_coverage(&self) -> f64 {
        if self.ipv6_links == 0 {
            0.0
        } else {
            self.ipv6_links_classified as f64 / self.ipv6_links as f64
        }
    }

    /// Fraction of dual-stack links classified on both planes (the 81%).
    pub fn dual_stack_coverage(&self) -> f64 {
        if self.dual_stack_links == 0 {
            0.0
        } else {
            self.dual_stack_links_classified as f64 / self.dual_stack_links as f64
        }
    }
}

/// Everything the pipeline measured.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// E1: dataset and coverage.
    pub dataset: DatasetSummary,
    /// E2 + E3: hybrid census and visibility.
    pub hybrids: HybridReport,
    /// E4: valley paths on the IPv6 plane.
    pub valleys: ValleyReport,
    /// F2: the customer-tree correction curve, if the pipeline ran it.
    pub impact: Option<ImpactCurve>,
    /// A1: baseline accuracy against ground truth, when ground truth is
    /// available (simulated scenarios only).
    pub baseline_accuracy_v4: Option<InferenceAccuracy>,
    /// A1: baseline accuracy on the IPv6 plane.
    pub baseline_accuracy_v6: Option<InferenceAccuracy>,
}

impl Report {
    /// Serialize to pretty JSON (used by the experiment binaries and the
    /// examples' `--json` flag).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.dataset;
        writeln!(f, "== Dataset (E1) ==")?;
        writeln!(f, "IPv6 AS paths (distinct): {}", d.ipv6_paths)?;
        writeln!(f, "IPv6 AS links:            {}", d.ipv6_links)?;
        writeln!(f, "IPv4/IPv6 (dual) links:   {}", d.dual_stack_links)?;
        writeln!(
            f,
            "IPv6 link coverage:       {:.1}% ({} links; {} communities, {} LocPrf)",
            100.0 * d.ipv6_coverage(),
            d.ipv6_links_classified,
            d.ipv6_links_from_communities,
            d.ipv6_links_from_locpref
        )?;
        writeln!(
            f,
            "Dual-stack coverage:      {:.1}% ({} links)",
            100.0 * d.dual_stack_coverage(),
            d.dual_stack_links_classified
        )?;
        let h = &self.hybrids;
        writeln!(f, "== Hybrid relationships (E2/E3) ==")?;
        writeln!(
            f,
            "Hybrid links:             {} of {} classified dual-stack links ({:.1}%)",
            h.findings.len(),
            h.dual_stack_classified,
            100.0 * h.hybrid_fraction()
        )?;
        writeln!(
            f,
            "  p2p(v4)/transit(v6):    {} ({:.0}%)",
            h.peering_v4_transit_v6,
            100.0 * h.peering_v4_transit_v6_share()
        )?;
        writeln!(f, "  transit(v4)/p2p(v6):    {}", h.transit_v4_peering_v6)?;
        writeln!(f, "  opposite transit:       {}", h.opposite_transit)?;
        writeln!(
            f,
            "IPv6 paths with >=1 hybrid link: {:.1}%",
            100.0 * h.path_visibility_fraction()
        )?;
        let v = &self.valleys;
        writeln!(f, "== Valley paths (E4) ==")?;
        writeln!(
            f,
            "Valley IPv6 paths:        {:.1}% ({} of {} classifiable)",
            100.0 * v.valley_fraction(),
            v.valley_paths,
            v.classifiable_paths
        )?;
        writeln!(
            f,
            "  due to reachability:    {:.1}% of valley paths",
            100.0 * v.reachability_fraction()
        )?;
        if let Some(curve) = &self.impact {
            if let (Some(b), Some(last)) = (curve.baseline(), curve.r#final()) {
                writeln!(f, "== Customer-tree impact (F2) ==")?;
                writeln!(
                    f,
                    "avg valley-free path:     {:.2} -> {:.2} hops",
                    b.avg_path_length, last.avg_path_length
                )?;
                writeln!(f, "diameter:                 {} -> {} hops", b.diameter, last.diameter)?;
                writeln!(
                    f,
                    "reachability:             {:.1}% -> {:.1}%",
                    100.0 * b.reachability,
                    100.0 * last.reachability
                )?;
                writeln!(
                    f,
                    "after {} corrections:     avg {:+.2} hops, diameter {:+}",
                    curve.steps.len().saturating_sub(1),
                    curve.avg_path_delta(),
                    curve.diameter_delta()
                )?;
            }
        }
        if let (Some(v4), Some(v6)) = (&self.baseline_accuracy_v4, &self.baseline_accuracy_v6) {
            writeln!(f, "== Baseline (Gao) accuracy vs ground truth (A1) ==")?;
            writeln!(f, "IPv4: {:.1}% of {} links", 100.0 * v4.accuracy(), v4.comparable)?;
            writeln!(f, "IPv6: {:.1}% of {} links", 100.0 * v6.accuracy(), v6.comparable)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_fractions_handle_empty_and_normal_cases() {
        let mut d = DatasetSummary::default();
        assert_eq!(d.ipv6_coverage(), 0.0);
        assert_eq!(d.dual_stack_coverage(), 0.0);
        d.ipv6_links = 100;
        d.ipv6_links_classified = 72;
        d.dual_stack_links = 50;
        d.dual_stack_links_classified = 40;
        assert!((d.ipv6_coverage() - 0.72).abs() < 1e-9);
        assert!((d.dual_stack_coverage() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn display_and_json_contain_the_headline_numbers() {
        let mut report = Report::default();
        report.dataset.ipv6_paths = 1234;
        report.dataset.ipv6_links = 100;
        report.dataset.ipv6_links_classified = 72;
        report.hybrids.dual_stack_classified = 50;
        report.valleys.classifiable_paths = 10;
        report.valleys.valley_paths = 2;
        let text = report.to_string();
        assert!(text.contains("1234"));
        assert!(text.contains("72.0%"));
        assert!(text.contains("Valley"));
        let json = report.to_json();
        assert!(json.contains("\"ipv6_paths\": 1234"));
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dataset.ipv6_paths, 1234);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn display_includes_optional_sections_when_present() {
        use crate::impact::{CorrectionStep, ImpactCurve};
        let mut report = Report::default();
        report.impact = Some(ImpactCurve {
            steps: vec![
                CorrectionStep {
                    corrected: 0,
                    link: None,
                    avg_path_length: 3.8,
                    diameter: 11,
                    reachability: 0.8,
                },
                CorrectionStep {
                    corrected: 1,
                    link: None,
                    avg_path_length: 2.23,
                    diameter: 7,
                    reachability: 0.95,
                },
            ],
        });
        report.baseline_accuracy_v4 =
            Some(InferenceAccuracy { comparable: 10, correct: 9, ..Default::default() });
        report.baseline_accuracy_v6 =
            Some(InferenceAccuracy { comparable: 10, correct: 7, ..Default::default() });
        let text = report.to_string();
        assert!(text.contains("3.80 -> 2.23"));
        assert!(text.contains("11 -> 7"));
        assert!(text.contains("after 1 corrections"));
        assert!(text.contains("-1.57"));
        assert!(text.contains("diameter -4"));
        assert!(text.contains("Gao"));
    }
}

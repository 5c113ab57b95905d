//! Golden pins for the paper's competitor schemes: FNV-1a-64 digests of the
//! seven Table II reports of `Fixture::paper_default().run_all_schemes()`
//! and of the Figure 9 Hybrid-AL and Hybrid-Para reports at 2, 4, 6, 8 and
//! 10 queries per cycle.
//!
//! Each report is pinned by two digests. The first covers every
//! `SchemeReport` field except `name` and `scores`: the confusion counts,
//! `truths`, every `SummaryStats` (samples, mean and standard deviation as
//! bits), `spent_cents`, `cycles` and `queries_issued`. The second covers
//! the `scores` bits alone. A change to how a scheme is driven that keeps
//! its labels, delays and spend shows up in neither.

use crowdlearn::{CrowdLearnConfig, SchemeReport};
use crowdlearn_bench::Fixture;
use crowdlearn_metrics::SummaryStats;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn push_stats(out: &mut Vec<u8>, stats: &SummaryStats) {
    out.extend(stats.len().to_le_bytes());
    for sample in stats.samples() {
        out.extend(sample.to_bits().to_le_bytes());
    }
    for moment in [stats.try_mean(), stats.try_std_dev()] {
        out.extend(moment.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
}

/// `(everything but name and scores, scores)` digests of one report.
fn digests(report: &SchemeReport) -> (u64, u64) {
    let mut rest = Vec::new();
    let classes = report.confusion.classes();
    for truth in 0..classes {
        for pred in 0..classes {
            rest.extend(report.confusion.count(truth, pred).to_le_bytes());
        }
    }
    for &truth in &report.truths {
        rest.extend(truth.to_le_bytes());
    }
    push_stats(&mut rest, &report.algorithm_delay);
    push_stats(&mut rest, &report.crowd_delay);
    push_stats(&mut rest, &report.query_delay);
    for stats in &report.crowd_delay_by_context {
        push_stats(&mut rest, stats);
    }
    rest.extend(report.spent_cents.to_le_bytes());
    rest.extend(report.cycles.to_le_bytes());
    rest.extend(report.queries_issued.to_le_bytes());

    let scores: Vec<u8> = report
        .scores
        .iter()
        .flatten()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    (fnv1a64(&rest), fnv1a64(&scores))
}

fn assert_pins(reports: &[SchemeReport], names: &[String], pins: &[(u64, u64)]) {
    let got: Vec<(u64, u64)> = reports.iter().map(digests).collect();
    for (name, got) in names.iter().zip(&got) {
        eprintln!("{name}: ({:#018x}, {:#018x})", got.0, got.1);
    }
    assert_eq!(got.len(), pins.len());
    for ((name, got), pin) in names.iter().zip(&got).zip(pins) {
        assert_eq!(got, pin, "{name} moved");
    }
}

#[test]
fn table2_scheme_reports_are_pinned() {
    const PINS: [(u64, u64); 7] = [
        (0xa46c_3fc7_0f49_ade6, 0x9e33_0c2c_978c_d677), // CrowdLearn
        (0xe169_2175_6f86_a786, 0xa4c5_98ed_c92b_c494), // VGG16
        (0xa353_fdbc_41d6_148a, 0xbd96_60cf_bef4_ff05), // BoVW
        (0x3235_78f0_2177_35b8, 0x231f_9ef3_2817_5bdc), // DDM
        (0x30c5_5833_4d93_ba37, 0xe40c_c96d_fcde_d498), // Ensemble
        (0xce72_829a_9921_07d4, 0x0a15_9c50_04e6_379b), // Hybrid-Para
        (0xfa01_590d_1b25_a736, 0x9598_ac88_8cbc_c28e), // Hybrid-AL
    ];
    let reports = Fixture::paper_default().run_all_schemes();
    let names = crowdlearn_bench::paper_reference::SCHEMES.map(str::to_owned);
    assert_pins(&reports, &names, &PINS);
}

#[test]
fn fig9_hybrid_reports_are_pinned() {
    const PINS: [(u64, u64); 10] = [
        (0x8136_fd75_7f9b_e5db, 0x2f17_ea98_33d2_05b9), // Hybrid-AL q=2
        (0x2ad8_9380_5c08_7758, 0xc663_05e7_b359_4bcf), // Hybrid-Para q=2
        (0x1b4e_5eb1_df49_b4c5, 0xf77b_cb0d_86c3_9b1e), // Hybrid-AL q=4
        (0x518b_1163_142e_4b8d, 0x4307_f4d3_52e1_df14), // Hybrid-Para q=4
        (0x3d13_4367_8504_9d6b, 0x4f90_a6be_8ed4_78f4), // Hybrid-AL q=6
        (0x3c8b_aae9_1cfb_0ee4, 0xd890_5b76_c1b3_539f), // Hybrid-Para q=6
        (0xa90b_633a_7199_d260, 0x1932_8b90_37a4_e32f), // Hybrid-AL q=8
        (0x161b_093c_5951_8b10, 0x13a3_9c06_d0ed_98e5), // Hybrid-Para q=8
        (0x46e8_dc79_2588_dfe0, 0xb4da_e57b_e4fa_003b), // Hybrid-AL q=10
        (0x199b_431d_70e1_8394, 0x0a3d_8c8c_d383_f33e), // Hybrid-Para q=10
    ];
    let fixture = Fixture::paper_default();
    let mut reports = Vec::new();
    let mut names = Vec::new();
    for q in [2, 4, 6, 8, 10] {
        reports
            .push(fixture.run_crowdlearn(CrowdLearnConfig::hybrid_al().with_queries_per_cycle(q)));
        names.push(format!("Hybrid-AL q={q}"));
        reports.push(
            fixture.run_crowdlearn(CrowdLearnConfig::hybrid_para().with_queries_per_cycle(q)),
        );
        names.push(format!("Hybrid-Para q={q}"));
    }
    assert_pins(&reports, &names, &PINS);
}

//! Golden parity: the trait-based backends must reproduce the exact
//! numbers of the original per-platform enum paths.
//!
//! The golden file was generated from the pre-refactor `Platform` enum
//! dispatch (`REGEN_GOLDEN=1 cargo test --test parity`) and is compared
//! bit-for-bit: every `f64` is stored as its IEEE-754 bit pattern, so
//! even a 1-ulp drift in any layer of any network on any platform fails
//! the test.

use sma::models::Network;
use sma::runtime::{DrivingPipeline, NetworkProfile, Platform};

mod common;
use common::{configs, executor, networks, platforms};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_profiles.txt");

fn profile_line(platform: Platform, network: &Network, config: &str, p: &NetworkProfile) -> String {
    let m = &p.mem;
    let mem_fields = [
        m.rf_reads,
        m.rf_writes,
        m.shared_reads,
        m.shared_writes,
        m.shared_conflict_cycles,
        m.l1_hits,
        m.l1_misses,
        m.l2_hits,
        m.l2_misses,
        m.dram_bytes,
        m.const_reads,
        m.simd_macs,
        m.tc_macs,
        m.systolic_macs,
        m.alu_ops,
        m.instructions,
        m.pe_transfers,
    ]
    .map(|v| v.to_string())
    .join(",");
    let layers = p
        .layers
        .iter()
        .map(|l| format!("{:016x}", l.ms.to_bits()))
        .collect::<Vec<_>>()
        .join(";");
    format!(
        "profile|{}|{}|{}|{:016x}|{:016x}|{:016x}|{:016x}|{}|{}|{}",
        platform.label(),
        network.name(),
        config,
        p.total_ms.to_bits(),
        p.gemm_ms.to_bits(),
        p.irregular_ms.to_bits(),
        p.transfer_ms.to_bits(),
        p.sm_cycles,
        mem_fields,
        layers,
    )
}

fn driving_line(platform: Platform) -> String {
    let pipe = DrivingPipeline::try_new(platform).unwrap();
    let s = pipe.schedule();
    let skips = (1..=9)
        .map(|n| format!("{:016x}", pipe.frame_latency_skipping_ms(n).to_bits()))
        .collect::<Vec<_>>()
        .join(";");
    format!(
        "driving|{}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{}",
        platform.label(),
        s.det_ms.to_bits(),
        s.det_split_ms.to_bits(),
        s.tra_ms.to_bits(),
        s.loc_ms.to_bits(),
        s.loc_boosted_ms.to_bits(),
        pipe.frame_latency_ms().to_bits(),
        skips,
    )
}

fn current_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for network in networks() {
        for platform in platforms() {
            for config in configs() {
                let p = executor(platform, config).try_run(&network).unwrap();
                lines.push(profile_line(platform, &network, config, &p));
            }
        }
    }
    // The GPU family (SIMD, 4-TC, 2-SMA, 3-SMA) leads `Platform::ALL`.
    for &platform in &Platform::ALL[..4] {
        lines.push(driving_line(platform));
    }
    lines
}

#[test]
fn backends_reproduce_golden_enum_numbers() {
    let lines = current_lines();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "tests/golden_profiles.txt missing; regenerate with REGEN_GOLDEN=1 cargo test --test parity",
    );
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), lines.len(), "golden line count");
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(
            got.as_str(),
            *want,
            "profile diverged from the pre-refactor enum path"
        );
    }
}

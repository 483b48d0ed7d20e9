//! Section VI-D: s-bit save/restore cost at context switches.
//!
//! The paper computes the snapshot copy sizes per cache capacity (two
//! 64-byte transfers for a 64 KB L1, 256 for an 8 MB LLC), prices the DMA
//! at 1.08 µs per switch, and measures the resulting bookkeeping overhead
//! at 0.024 % of execution time. This experiment reproduces the transfer
//! table analytically and the bookkeeping share by measurement.

use crate::output::{print_table, write_csv};
use crate::runner::{timecache_mode, RunKey, RunParams, RunTable, Workload};
use std::io;
use timecache_core::{SBitArray, Snapshot, TimestampWidth};
use timecache_workloads::SpecBenchmark::Lbm;

/// The pair whose bookkeeping share is measured: 2Xlbm, plenty of
/// switches.
const PAIR: Workload = Workload::Spec(Lbm, Lbm);

/// 2Xlbm under TimeCache (the share needs no baseline).
pub fn keys(params: &RunParams) -> Vec<RunKey> {
    vec![RunKey::new(PAIR, timecache_mode(params), params)]
}

/// Prints the per-cache-size transfer table and the measured bookkeeping
/// share.
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    // Analytical transfer table (Section VI-D). The per-line column shows
    // how a single-channel DMA would scale; the paper itself charges a
    // constant 1.08 us (2160 cycles) per switch, which is the default
    // model used by the performance runs.
    let header = [
        "cache",
        "lines",
        "s-bit bytes",
        "64B transfers",
        "per-line dma cycles (save+restore)",
    ];
    let per_line = 16u64; // ~1.08 us for the Table I hierarchy
    let mut rows = Vec::new();
    for (name, bytes) in [
        ("64 KB L1", 64 * 1024u64),
        ("32 KB L1 (Table I)", 32 * 1024),
        ("2 MB LLC (Table I)", 2 * 1024 * 1024),
        ("4 MB LLC", 4 * 1024 * 1024),
        ("8 MB LLC", 8 * 1024 * 1024),
    ] {
        let lines = (bytes / 64) as usize;
        let snap = Snapshot::new(SBitArray::new(lines), 0, TimestampWidth::default());
        let transfers = snap.transfer_lines() as u64;
        rows.push(vec![
            name.into(),
            lines.to_string(),
            snap.sbits().storage_bytes().to_string(),
            transfers.to_string(),
            (2 * transfers * per_line).to_string(),
        ]);
    }
    print_table(
        "Section VI-D: s-bit snapshot transfer costs",
        &header,
        &rows,
    );
    write_csv("vi_d_transfer_costs.csv", &header, &rows)?;

    // Measured bookkeeping share (paper: ~0.024 % of execution time).
    let tc = table.get(&keys(params)[0]);
    let share = tc.tc_switch_cycles as f64 / tc.cycles.max(1) as f64;
    println!(
        "context-switch bookkeeping: {} cycles over {} ({:.4}% of execution; paper 0.024%)",
        tc.tc_switch_cycles,
        tc.cycles,
        share * 100.0
    );
    write_csv(
        "vi_d_bookkeeping.csv",
        &[
            "workload",
            "tc-switch-cycles",
            "total-cycles",
            "share-%",
            "paper-%",
        ],
        &[vec![
            PAIR.label(),
            tc.tc_switch_cycles.to_string(),
            tc.cycles.to_string(),
            format!("{:.4}", share * 100.0),
            "0.024".into(),
        ]],
    )?;
    Ok(())
}

//! Ablation study of TimeCache's design choices:
//!
//! 1. **Snapshot save/restore** (Section V-B argues it is essential): with
//!    snapshots discarded, every context switch resets the caching context
//!    — behaviourally equivalent to flushing visibility — and the overhead
//!    balloons.
//! 2. **Bit-serial vs line-serial comparison** (Section V-C): cycles per
//!    context switch scale with timestamp width instead of line count.

use crate::output::{geomean, print_table, write_csv};
use crate::runner::{RunKey, RunParams, RunTable, Workload};
use std::io;
use timecache_core::BitSerialComparator;
use timecache_workloads::SpecBenchmark::{self, Gobmk, H264ref, Perlbench, Wrf};

/// The "2X" pairs of the save/restore ablation, in Table II order.
const PAIRS: [SpecBenchmark; 4] = [Gobmk, Wrf, Perlbench, H264ref];

/// `params` with snapshots discarded at every context switch.
fn dropped(params: &RunParams) -> RunParams {
    RunParams {
        discard_snapshots: true,
        ..*params
    }
}

/// Both modes of each pair with snapshots kept (SPEC sweep runs) and
/// discarded.
pub fn keys(params: &RunParams) -> Vec<RunKey> {
    [*params, dropped(params)]
        .iter()
        .flat_map(|p| PAIRS.map(|b| RunKey::pair(Workload::Spec(b, b), p)))
        .flatten()
        .collect()
}

/// Renders the save/restore ablation and prints the comparator-cost table
/// analytically.
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    // --- Ablation 1: discard snapshots. ---
    let header = ["workload", "timecache", "no-save/restore"];
    let mut rows = Vec::new();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for b in PAIRS {
        let pair = Workload::Spec(b, b);
        let keep = table.compare(pair, params);
        let drop = table.compare(pair, &dropped(params));
        with.push(keep.overhead());
        without.push(drop.overhead());
        rows.push(vec![
            keep.label.clone(),
            format!("{:.4}", keep.overhead()),
            format!("{:.4}", drop.overhead()),
        ]);
    }
    rows.push(vec![
        "geomean".into(),
        format!("{:.4}", geomean(&with)),
        format!("{:.4}", geomean(&without)),
    ]);
    print_table(
        "Ablation: snapshot save/restore vs reset-on-switch (normalized time)",
        &header,
        &rows,
    );
    write_csv("ablation_save_restore.csv", &header, &rows)?;

    // --- Ablation 2: comparator organisation. ---
    let header = ["cache", "lines", "bit-serial cycles", "line-serial cycles"];
    let rows: Vec<Vec<String>> = [
        ("32 KB L1", 512u64),
        ("2 MB LLC", 32768),
        ("8 MB LLC", 131072),
    ]
    .into_iter()
    .map(|(name, lines)| {
        vec![
            name.into(),
            lines.to_string(),
            BitSerialComparator::sweep_cycles(32).to_string(),
            // A line-serial comparator reads and compares one timestamp
            // per cycle.
            lines.to_string(),
        ]
    })
    .collect();
    print_table(
        "Ablation: bit-serial (O(width)) vs line-serial (O(lines)) comparison",
        &header,
        &rows,
    );
    write_csv("ablation_comparator.csv", &header, &rows)?;
    Ok(())
}

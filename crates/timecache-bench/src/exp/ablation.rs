//! Ablation study of TimeCache's design choices:
//!
//! 1. **Snapshot save/restore** (Section V-B argues it is essential): with
//!    snapshots discarded, every context switch resets the caching context
//!    — behaviourally equivalent to flushing visibility — and the overhead
//!    balloons.
//! 2. **Bit-serial vs line-serial comparison** (Section V-C): cycles per
//!    context switch scale with timestamp width instead of line count.

use crate::exp::sweep_pairs;
use crate::output::{geomean, print_table, write_csv};
use crate::runner::{Comparison, RunParams};
use std::io;
use timecache_core::BitSerialComparator;
use timecache_workloads::mixes;

/// Runs the save/restore ablation over a few representative pairs on
/// `jobs` workers and prints the comparator-cost table analytically.
pub fn run(params: &RunParams, jobs: usize) -> io::Result<()> {
    // --- Ablation 1: discard snapshots. ---
    let labels = ["2Xperlbench", "2Xwrf", "2Xgobmk", "2Xh264ref"];
    let pairs: Vec<_> = mixes::all_pairs()
        .into_iter()
        .filter(|p| labels.contains(&p.label().as_str()))
        .collect();

    // Two engine sweeps over the same pairs: snapshots kept vs discarded.
    let kept = sweep_pairs(&pairs, params, jobs);
    let dropped = sweep_pairs(
        &pairs,
        &RunParams {
            discard_snapshots: true,
            ..*params
        },
        jobs,
    );

    let header = ["workload", "timecache", "no-save/restore"];
    let mut rows = Vec::new();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for (keep, drop) in kept.iter().zip(&dropped) {
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
    let _ = Comparison::overhead; // referenced for doc-link stability
    Ok(())
}

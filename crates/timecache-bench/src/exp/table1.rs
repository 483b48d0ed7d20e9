//! Table I: the evaluation setup. Echoes the simulated-system
//! configuration so runs are self-describing.

use crate::output::{print_table, write_csv};
use std::io;
use timecache_os::SystemConfig;

/// Prints the simulated-system parameters (the gem5 half of Table I; the
/// "real processor" half has no analogue here — everything is simulated).
pub fn run() -> io::Result<()> {
    let cfg = SystemConfig::default();
    let h = &cfg.hierarchy;
    let rows: Vec<Vec<String>> = vec![
        vec![
            "core model".into(),
            "in-order, 1 cycle/instr + memory stalls (TimingSimpleCPU-like)".into(),
        ],
        vec!["cores".into(), h.cores.to_string()],
        vec!["smt per core".into(), h.smt_per_core.to_string()],
        vec!["L1I".into(), h.l1i.geometry.to_string()],
        vec!["L1D".into(), h.l1d.geometry.to_string()],
        vec!["LLC".into(), h.llc.geometry.to_string()],
        vec!["L1 hit".into(), format!("{} cycles", h.latencies.l1_hit)],
        vec!["LLC hit".into(), format!("{} cycles", h.latencies.llc_hit)],
        vec!["DRAM".into(), format!("{} cycles", h.latencies.dram)],
        vec![
            "remote L1".into(),
            format!("{} cycles", h.latencies.remote_l1),
        ],
        vec![
            "scheduler quantum".into(),
            format!("{} cycles (1 ms @ 2 GHz)", cfg.quantum_cycles),
        ],
        vec!["timestamp width".into(), "32 bits".into()],
    ];
    print_table(
        "Table I: evaluation setup (simulated system)",
        &["parameter", "value"],
        &rows,
    );
    write_csv("table1_setup.csv", &["parameter", "value"], &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_prints_without_panicking() {
        crate::output::test_results_dir();
        super::run().unwrap();
    }
}

//! FTM comparison (Section VIII-B2): the paper argues its threat model is
//! strictly stronger than First Time Miss's. This experiment makes the
//! comparison executable: a security matrix (which attacker placements each
//! defense stops) and a performance comparison on the Table II pairs.

use crate::output::{geomean, print_table, write_csv};
use crate::runner::{timecache_mode, RunKey, RunParams, RunTable, Workload};
use std::io;
use timecache_attacks::harness;
use timecache_attacks::rsa_attack::run_rsa_attack;
use timecache_attacks::spectre::run_spectre;
use timecache_sim::SecurityMode;
use timecache_workloads::rsa::Mpi;
use timecache_workloads::SpecBenchmark::{self, Gobmk, Lbm, Namd, Perlbench};

/// The "2X" pairs of the overhead comparison, in Table II order.
const PAIRS: [SpecBenchmark; 4] = [Lbm, Gobmk, Perlbench, Namd];

/// The baseline, FTM and TimeCache runs of each pair.
pub fn keys(params: &RunParams) -> Vec<RunKey> {
    let modes = [
        SecurityMode::Baseline,
        SecurityMode::Ftm,
        timecache_mode(params),
    ];
    PAIRS
        .iter()
        .flat_map(|&b| modes.map(|mode| RunKey::new(Workload::Spec(b, b), mode, params)))
        .collect()
}

/// Runs the security matrix and renders the overhead comparison.
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    // --- Security matrix: same-core RSA extraction + spectre. ---
    let key = Mpi::from_u64(0xB5C3_9A6D);
    let secret = b"ftm-test";
    let header = ["attack (same core)", "baseline", "ftm", "timecache"];
    let mut rows = Vec::new();

    eprintln!("  same-core rsa extraction under three modes ...");
    let rsa = |mode: SecurityMode| {
        let r = run_rsa_attack(mode, &key);
        format!("{:.0}% of key", r.accuracy * 100.0)
    };
    rows.push(vec![
        "rsa flush+reload".into(),
        rsa(SecurityMode::Baseline),
        rsa(SecurityMode::Ftm),
        rsa(harness::timecache_mode()),
    ]);

    eprintln!("  same-core spectre-v1 under three modes ...");
    let sp = |mode: SecurityMode| {
        let r = run_spectre(mode, secret);
        format!("{:.0}% of secret", r.accuracy() * 100.0)
    };
    rows.push(vec![
        "spectre-v1".into(),
        sp(SecurityMode::Baseline),
        sp(SecurityMode::Ftm),
        sp(harness::timecache_mode()),
    ]);

    print_table(
        "FTM comparison (VIII-B2): same-core attacks (FTM requires core isolation)",
        &header,
        &rows,
    );
    write_csv("viii_b2_ftm_security.csv", &header, &rows)?;

    // --- Overhead comparison on a few representative pairs. ---
    let header = ["workload", "ftm", "timecache"];
    let mut rows = Vec::new();
    let (mut f_ovh, mut t_ovh) = (Vec::new(), Vec::new());
    for b in PAIRS {
        let pair = Workload::Spec(b, b);
        let cycles = |mode| table.get(&RunKey::new(pair, mode, params)).cycles as f64;
        let base = cycles(SecurityMode::Baseline).max(1.0);
        let fo = cycles(SecurityMode::Ftm) / base;
        let to = cycles(timecache_mode(params)) / base;
        f_ovh.push(fo);
        t_ovh.push(to);
        rows.push(vec![pair.label(), format!("{fo:.4}"), format!("{to:.4}")]);
    }
    rows.push(vec![
        "geomean".into(),
        format!("{:.4}", geomean(&f_ovh)),
        format!("{:.4}", geomean(&t_ovh)),
    ]);
    print_table(
        "FTM comparison: normalized execution time (both defenses are cheap; \
         only TimeCache also covers same-core and SMT attackers)",
        &header,
        &rows,
    );
    write_csv("viii_b2_ftm_overhead.csv", &header, &rows)?;
    Ok(())
}

//! FTM comparison (Section VIII-B2): the paper argues its threat model is
//! strictly stronger than First Time Miss's. This experiment makes the
//! comparison executable: a security matrix (which attacker placements each
//! defense stops) and a performance comparison on the Table II pairs.

use crate::output::{geomean, print_table, write_csv};
use crate::runner::{run_spec_pair_mode, RunParams};
use std::io;
use timecache_attacks::harness::timecache_mode;
use timecache_attacks::rsa_attack::run_rsa_attack;
use timecache_attacks::spectre::run_spectre;
use timecache_sim::SecurityMode;
use timecache_workloads::mixes;
use timecache_workloads::rsa::Mpi;

/// Runs the security matrix and the overhead comparison.
pub fn run(params: &RunParams) -> io::Result<()> {
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
        rsa(timecache_mode()),
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
        sp(timecache_mode()),
    ]);

    print_table(
        "FTM comparison (VIII-B2): same-core attacks (FTM requires core isolation)",
        &header,
        &rows,
    );
    write_csv("viii_b2_ftm_security.csv", &header, &rows)?;

    // --- Overhead comparison on a few representative pairs. ---
    let labels = ["2Xperlbench", "2Xlbm", "2Xgobmk", "2Xnamd"];
    let pairs: Vec<_> = mixes::all_pairs()
        .into_iter()
        .filter(|p| labels.contains(&p.label().as_str()))
        .collect();
    let header = ["workload", "ftm", "timecache"];
    let mut rows = Vec::new();
    let (mut f_ovh, mut t_ovh) = (Vec::new(), Vec::new());
    for spec in &pairs {
        eprintln!("  measuring {} ...", spec.label());
        let base = run_spec_pair_mode(spec, SecurityMode::Baseline, params);
        let ftm = run_spec_pair_mode(spec, SecurityMode::Ftm, params);
        let tc = run_spec_pair_mode(spec, timecache_mode(), params);
        let fo = ftm.cycles as f64 / base.cycles.max(1) as f64;
        let to = tc.cycles as f64 / base.cycles.max(1) as f64;
        f_ovh.push(fo);
        t_ovh.push(to);
        rows.push(vec![spec.label(), format!("{fo:.4}"), format!("{to:.4}")]);
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

//! Section VII: the other attacks on shared software — LRU state,
//! invalidate+transfer, flush+flush, evict+time — plus prime+probe to
//! delimit the defense. Each attack reports whether it leaks under the
//! baseline, under TimeCache, and (where applicable) under the documented
//! complementary mitigation.

use crate::output::{print_table, write_csv};
use std::io;
use timecache_attacks::{
    coherence, covert, evict_reload, evict_time, flush_flush, lru, prime_probe, spectre,
};

/// Runs every Section VII demonstration and prints the status matrix.
pub fn run() -> io::Result<()> {
    let header = ["attack", "mode", "leaks", "detail"];
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    eprintln!("  evict+reload ...");
    outcomes.extend(evict_reload::demo());
    eprintln!("  spectre-v1 ...");
    outcomes.extend(spectre::demo());
    eprintln!("  reuse covert channel ...");
    outcomes.extend(covert::demo());
    eprintln!("  lru-state ...");
    outcomes.extend(lru::demo());
    eprintln!("  invalidate+transfer ...");
    outcomes.extend(coherence::demo());
    eprintln!("  flush+flush ...");
    outcomes.extend(flush_flush::demo());
    eprintln!("  evict+time ...");
    outcomes.extend(evict_time::demo());
    eprintln!("  prime+probe ...");
    outcomes.extend(prime_probe::demo());

    for o in &outcomes {
        rows.push(vec![
            o.attack.clone(),
            o.mode.clone(),
            if o.leaked { "yes".into() } else { "no".into() },
            o.detail.clone(),
        ]);
    }
    print_table(
        "Section VII: other attacks on shared software",
        &header,
        &rows,
    );
    println!("paper's position: reuse channels close under TimeCache; LRU and");
    println!("contention channels need a randomizing cache (keyed index rows);");
    println!("flush+flush needs constant-time clflush; evict+time remains noisy.");
    write_csv("vii_other_attacks.csv", &header, &rows)?;
    Ok(())
}

//! The differential campaign the `oracle-differential` CI job scales up:
//! thousands of fixed-seed random traces with zero divergences, plus
//! mutation checks proving that a deliberately introduced s-bit bug is
//! caught *and* shrunk to a tiny trace.

use timecache_oracle::{generate, replay, run_random, BugKind, TraceDoc};

/// Fixed seed of the in-test campaign (the CI job reuses it at 10k+).
const CAMPAIGN_SEED: u64 = 0xD1FF;

#[test]
fn ten_thousand_fixed_seed_traces_zero_divergences() {
    let report = run_random(10_000, CAMPAIGN_SEED, None);
    if let Some(found) = &report.divergence {
        panic!(
            "seed {} diverged: {}\nshrunk trace:\n{}",
            found.seed,
            found.divergence,
            found.shrunk.to_text()
        );
    }
    assert_eq!(report.traces, 10_000);
}

/// Runs a mutation campaign: the bug must be detected, shrunk to
/// at most 20 events, and the shrunken trace must survive a round-trip
/// through the corpus text format while still witnessing the bug.
fn mutation_is_caught_and_shrunk(bug: BugKind) {
    let report = run_random(5_000, CAMPAIGN_SEED, Some(bug));
    let found = report
        .divergence
        .unwrap_or_else(|| panic!("{bug:?} must diverge within 5000 traces"));
    assert!(
        found.shrunk.events.len() <= 20,
        "{bug:?}: shrunk to {} events, want <= 20:\n{}",
        found.shrunk.events.len(),
        found.shrunk.to_text()
    );
    // A witness whose two sides print alike would not show what diverged.
    assert_ne!(
        found.divergence.real, found.divergence.reference,
        "{bug:?}: {}",
        found.divergence
    );
    // Exactly one divergence: the campaign stops at the first, and every
    // trace before it replayed clean.
    assert_eq!(found.seed, CAMPAIGN_SEED + report.traces - 1);
    // The minimized witness is deterministic and format-stable.
    let doc = TraceDoc::from_text(&found.shrunk.to_text()).expect("valid text");
    assert_eq!(doc, found.shrunk);
    assert!(replay(&doc, Some(bug)).is_err(), "witness must still fail");
    assert!(
        replay(&doc, None).is_ok(),
        "witness must pass without the bug (it blames the mutation, not the sim)"
    );
}

#[test]
fn mutation_skip_grant_on_fill_is_caught() {
    mutation_is_caught_and_shrunk(BugKind::SkipGrantOnFill);
}

#[test]
fn mutation_skip_sbit_clear_on_evict_is_caught() {
    mutation_is_caught_and_shrunk(BugKind::SkipSbitClearOnEvict);
}

#[test]
fn mutation_first_access_treated_as_hit_is_caught() {
    mutation_is_caught_and_shrunk(BugKind::FirstAccessTreatedAsHit);
}

#[test]
fn mutation_ignore_rollover_is_caught() {
    mutation_is_caught_and_shrunk(BugKind::IgnoreRollover);
}

#[test]
fn baseline_and_timecache_modes_both_covered_by_the_generator() {
    let (mut baseline, mut tc, mut narrow) = (0, 0, 0);
    for seed in 0..1_000 {
        match generate(seed).cfg.ts_bits {
            None => baseline += 1,
            Some(bits) if bits < 32 => narrow += 1,
            Some(_) => tc += 1,
        }
    }
    assert!(baseline > 50, "baseline traces generated: {baseline}");
    assert!(tc > 50, "wide TimeCache traces generated: {tc}");
    assert!(narrow > 300, "narrow (rollover-prone) traces: {narrow}");
}

//! The differential campaign the `oracle-differential` CI job scales up:
//! thousands of fixed-seed random traces with zero divergences, plus
//! mutation checks proving that a deliberately introduced s-bit bug is
//! caught *and* shrunk to a tiny trace.

use timecache_core::Fnv1a;
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

/// What a mutation campaign finds: the first diverging seed, the
/// observable that disagreed, and the FNV-1a digest of the shrunk
/// witness's corpus text. A change to what the reference model computes
/// moves one of these even when the bug is still caught.
struct Pin {
    seed: u64,
    field: &'static str,
    witness_digest: u64,
}

/// Runs a mutation campaign: the bug must be detected, shrunk to
/// at most 20 events, and the shrunken trace must survive a round-trip
/// through the corpus text format while still witnessing the bug.
fn mutation_is_caught_and_shrunk(bug: BugKind, want: Pin) {
    let report = run_random(5_000, CAMPAIGN_SEED, Some(bug));
    let found = report
        .divergence
        .unwrap_or_else(|| panic!("{bug:?} must diverge within 5000 traces"));
    let text = found.shrunk.to_text();
    let mut digest = Fnv1a::new();
    digest.write(text.as_bytes());
    assert_eq!(
        (found.seed, found.divergence.field, digest.finish()),
        (want.seed, want.field, want.witness_digest),
        "{bug:?}: (seed, field, witness digest) moved; witness:\n{text}"
    );
    assert!(
        found.shrunk.events.len() <= 20,
        "{bug:?}: shrunk to {} events, want <= 20:\n{text}",
        found.shrunk.events.len(),
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
    let doc = TraceDoc::from_text(&text).expect("valid text");
    assert_eq!(doc, found.shrunk);
    assert!(replay(&doc, Some(bug)).is_err(), "witness must still fail");
    assert!(
        replay(&doc, None).is_ok(),
        "witness must pass without the bug (it blames the mutation, not the sim)"
    );
}

#[test]
fn mutation_skip_grant_on_fill_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::SkipGrantOnFill,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "switch cost",
            witness_digest: 0xb88e_37d9_edc4_d7db,
        },
    );
}

#[test]
fn mutation_skip_sbit_clear_on_evict_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::SkipSbitClearOnEvict,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "switch cost",
            witness_digest: 0x5e3d_a7e0_7312_ec57,
        },
    );
}

#[test]
fn mutation_first_access_treated_as_hit_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::FirstAccessTreatedAsHit,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "access outcome",
            witness_digest: 0xe972_3434_0def_3fc3,
        },
    );
}

#[test]
fn mutation_ignore_rollover_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::IgnoreRollover,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "switch cost",
            witness_digest: 0xbd08_76fd_ec38_a677,
        },
    );
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

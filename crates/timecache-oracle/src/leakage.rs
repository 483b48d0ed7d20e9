//! The statistical leakage oracle: every attack channel, assessed
//! uniformly with Welch's t-test.
//!
//! For each [`Channel`] the oracle runs two *arms* — victim active
//! (secret-dependent access happens) and victim idle/secret-0 — collects
//! the attacker-observable latency sample per round, and compares the arms
//! with [`welch_t`]. This is done twice: at **baseline** (no defense),
//! where |t| must exceed [`LEAKAGE_THRESHOLD`] (the channel genuinely
//! works), and under the channel's **defended** configuration, where |t|
//! must stay below it (the defense genuinely closes it).
//!
//! Channels are modeled directly at the [`Hierarchy`] level with an
//! explicit save/restore context-switch choreography (the `Duet`
//! helper), so the oracle is independent of the attack programs in
//! `timecache-attacks` — it cross-checks them rather than re-using them.
//!
//! Defended configurations follow the paper's taxonomy: reuse channels
//! (flush+reload, evict+reload, coherence, covert, spectre, RSA) fall to
//! plain TimeCache; flush+flush additionally needs the constant-time
//! `clflush` of Section VII-C; contention channels (prime+probe,
//! evict+time) and the LRU-state channel travel through tag/replacement
//! state that TimeCache deliberately leaves shared, and are closed by the
//! keyed (randomized) index the paper points to.

use std::collections::BTreeMap;

use crate::welch::{welch_t, LEAKAGE_THRESHOLD};
use timecache_core::TimeCacheConfig;
use timecache_sim::{
    AccessKind, CacheConfig, ContextSnapshot, Hierarchy, HierarchyConfig, IndexFn, LineAddr,
    SecurityMode,
};

/// One attack channel under assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    FlushReload,
    EvictReload,
    PrimeProbe,
    FlushFlush,
    EvictTime,
    LruState,
    Coherence,
    Covert,
    Spectre,
    Rsa,
}

impl Channel {
    /// Every channel, in matrix order.
    pub const ALL: [Channel; 10] = [
        Channel::FlushReload,
        Channel::EvictReload,
        Channel::PrimeProbe,
        Channel::FlushFlush,
        Channel::EvictTime,
        Channel::LruState,
        Channel::Coherence,
        Channel::Covert,
        Channel::Spectre,
        Channel::Rsa,
    ];

    /// Stable name (CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            Channel::FlushReload => "flush+reload",
            Channel::EvictReload => "evict+reload",
            Channel::PrimeProbe => "prime+probe",
            Channel::FlushFlush => "flush+flush",
            Channel::EvictTime => "evict+time",
            Channel::LruState => "lru-state",
            Channel::Coherence => "coherence",
            Channel::Covert => "covert",
            Channel::Spectre => "spectre",
            Channel::Rsa => "rsa",
        }
    }

    /// The defended configuration's label.
    pub fn defense(self) -> &'static str {
        match self {
            Channel::PrimeProbe | Channel::EvictTime => "timecache+keyed-llc",
            Channel::LruState => "timecache+keyed-l1d",
            Channel::FlushFlush => "timecache+ct-clflush",
            _ => "timecache",
        }
    }
}

const LINE: u64 = 64;
/// L1: 1 KiB, 2-way → 8 sets, 512 B span.
const L1_SPAN: u64 = 512;
const L1_SETS: u64 = 8;
/// LLC: 8 KiB, 4-way → 32 sets, 2 KiB span.
const LLC_SPAN: u64 = 2048;
const LLC_SETS: u64 = 32;
const LLC_WAYS: u64 = 4;

/// The victim's secret-dependent line (L1 set 5, LLC set 5 under modulo).
const TARGET: u64 = 0x2_0000 + 5 * LINE;
/// Same LLC *and* L1 set as [`TARGET`] (modulo): LLC eviction lines.
fn evictor(k: u64) -> u64 {
    TARGET + k * LLC_SPAN
}
/// Same L1 set as [`TARGET`], different LLC set: keeps the idle arm's L1
/// pressure identical to the active arm's without touching the LLC set.
fn decoy(k: u64) -> u64 {
    TARGET + 8 * LINE + k * LLC_SPAN
}
/// LRU-channel filler/evictor: same L1 set as [`TARGET`], distinct LLC
/// sets, so the channel lives purely in L1 replacement state.
const LRU_FILLER: u64 = TARGET + L1_SPAN;
const LRU_EVICTOR: u64 = TARGET + 2 * L1_SPAN;
/// Covert-channel bit lines (adjacent sets; the receiver probes bit 1).
const COVERT_0: u64 = 0x3_0000;
const COVERT_1: u64 = 0x3_0000 + LINE;
/// Spectre probe array entries for secret bit 0/1.
const SPECTRE_T0: u64 = 0x4_0000;
const SPECTRE_T1: u64 = 0x4_0000 + LINE;
/// RSA square-and-multiply lines: the squaring code (always touched) and
/// the multiply routine (touched only for 1-bits of the exponent).
const RSA_SQUARE: u64 = 0x5_0000;
const RSA_MULTIPLY: u64 = 0x5_0000 + LINE;

/// Smallest key whose permutation maps `isolate` to a set none of `others`
/// lands in — the oracle's stand-in for "the attacker cannot build an
/// eviction set without the key".
fn pick_key(num_sets: u64, isolate: u64, others: &[u64]) -> u64 {
    let set = |key: u64, addr: u64| {
        IndexFn::Keyed { key }.set_of(LineAddr::from_raw(addr / LINE), num_sets)
    };
    (1u64..65_536)
        .find(|&k| {
            let s = set(k, isolate);
            others.iter().all(|&o| set(k, o) != s)
        })
        .expect("a non-colliding key exists")
}

/// Hierarchy configuration for one channel/arm.
fn config(channel: Channel, defended: bool) -> HierarchyConfig {
    let cores = if channel == Channel::Coherence { 2 } else { 1 };
    let mut cfg = HierarchyConfig::with_cores(cores);
    cfg.l1i = CacheConfig::new(1024, 2, LINE);
    cfg.l1d = CacheConfig::new(1024, 2, LINE);
    cfg.llc = CacheConfig::new(8192, LLC_WAYS as u32, LINE);
    if defended {
        // 32-bit timestamps: wide enough that these short runs never roll
        // over, so the arms cannot desynchronize through rollover resets.
        let mut tc = TimeCacheConfig::new(32);
        if channel == Channel::FlushFlush {
            tc = tc.with_constant_time_clflush(true);
        }
        cfg.security = SecurityMode::TimeCache(tc);
        match channel {
            Channel::PrimeProbe => {
                let primes: Vec<u64> = (1..=LLC_WAYS).map(evictor).collect();
                cfg.llc.index = IndexFn::Keyed {
                    key: pick_key(LLC_SETS, TARGET, &primes),
                };
            }
            Channel::EvictTime => {
                let lines: Vec<u64> = (1..=8).flat_map(|k| [evictor(k), decoy(k)]).collect();
                cfg.llc.index = IndexFn::Keyed {
                    key: pick_key(LLC_SETS, TARGET, &lines),
                };
            }
            Channel::LruState => {
                cfg.l1d.index = IndexFn::Keyed {
                    key: pick_key(L1_SETS, TARGET, &[LRU_FILLER, LRU_EVICTOR]),
                };
            }
            _ => {}
        }
    }
    cfg
}

const VICTIM: u32 = 1;
const ATTACKER: u32 = 2;

/// Two time-multiplexed processes on one hardware context, with the full
/// save/restore choreography a kernel would perform at each switch.
struct Duet {
    h: Hierarchy,
    now: u64,
    current: u32,
    snaps: BTreeMap<u32, ContextSnapshot>,
}

impl Duet {
    fn new(cfg: HierarchyConfig) -> Duet {
        Duet {
            h: Hierarchy::new(cfg).expect("leakage configs are valid"),
            now: 1,
            current: ATTACKER,
            snaps: BTreeMap::new(),
        }
    }

    fn switch_to(&mut self, pid: u32) {
        if pid == self.current {
            return;
        }
        let snap = self.h.save_context(0, 0, self.now);
        self.snaps.insert(self.current, snap);
        let cost = self.h.restore_context(0, 0, self.snaps.get(&pid), self.now);
        self.now += cost.comparator_cycles + cost.transfer_lines + 1;
        self.current = pid;
    }

    fn load(&mut self, addr: u64) -> u64 {
        let out = self.h.access(0, 0, AccessKind::Load, addr, self.now);
        self.now += out.latency + 1;
        out.latency
    }

    fn flush(&mut self, addr: u64) -> u64 {
        let lat = self.h.clflush(addr);
        self.now += lat + 1;
        lat
    }
}

/// Rounds discarded while per-round state reaches its steady cycle.
const WARMUP: usize = 2;

/// Collects one arm's attacker-observable samples for a channel.
fn collect(channel: Channel, defended: bool, active: bool, rounds: usize) -> Vec<f64> {
    if channel == Channel::Coherence {
        return collect_coherence(defended, active, rounds);
    }
    let mut d = Duet::new(config(channel, defended));
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds + WARMUP {
        let sample = match channel {
            Channel::FlushReload => {
                d.switch_to(ATTACKER);
                d.flush(TARGET);
                d.switch_to(VICTIM);
                if active {
                    d.load(TARGET);
                }
                d.switch_to(ATTACKER);
                d.load(TARGET) as f64
            }
            Channel::EvictReload => {
                d.switch_to(ATTACKER);
                for k in 1..=8 {
                    d.load(evictor(k));
                }
                d.switch_to(VICTIM);
                if active {
                    d.load(TARGET);
                }
                d.switch_to(ATTACKER);
                d.load(TARGET) as f64
            }
            Channel::PrimeProbe => {
                d.switch_to(ATTACKER);
                for k in 1..=LLC_WAYS {
                    d.load(evictor(k));
                }
                d.switch_to(VICTIM);
                if active {
                    d.load(TARGET);
                }
                d.switch_to(ATTACKER);
                (1..=LLC_WAYS).map(|k| d.load(evictor(k))).sum::<u64>() as f64
            }
            Channel::FlushFlush => {
                d.switch_to(ATTACKER);
                d.flush(TARGET);
                d.switch_to(VICTIM);
                if active {
                    d.load(TARGET);
                }
                d.switch_to(ATTACKER);
                d.flush(TARGET) as f64
            }
            Channel::EvictTime => {
                // Victim-timed: the sample is the victim's own access
                // latency (observable to the attacker as total runtime).
                d.switch_to(VICTIM);
                d.load(TARGET);
                d.switch_to(ATTACKER);
                for k in 1..=8 {
                    d.load(if active { evictor(k) } else { decoy(k) });
                }
                d.switch_to(VICTIM);
                d.load(TARGET) as f64
            }
            Channel::LruState => {
                d.switch_to(ATTACKER);
                d.load(TARGET);
                d.load(LRU_FILLER);
                d.switch_to(VICTIM);
                if active {
                    d.load(TARGET);
                }
                d.switch_to(ATTACKER);
                d.load(LRU_EVICTOR);
                d.load(TARGET) as f64
            }
            Channel::Covert => {
                // Sender (victim role) transmits a 1-bit (active) or 0-bit
                // (idle) per round; the receiver probes the 1-line.
                d.switch_to(ATTACKER);
                d.flush(COVERT_1);
                d.flush(COVERT_0);
                d.switch_to(VICTIM);
                d.load(if active { COVERT_1 } else { COVERT_0 });
                d.switch_to(ATTACKER);
                d.load(COVERT_1) as f64
            }
            Channel::Spectre => {
                // The transient gadget touches probe_array[bit]; the
                // attacker reloads both entries and takes the difference.
                d.switch_to(ATTACKER);
                d.flush(SPECTRE_T0);
                d.flush(SPECTRE_T1);
                d.switch_to(VICTIM);
                d.load(if active { SPECTRE_T1 } else { SPECTRE_T0 });
                d.switch_to(ATTACKER);
                let t1 = d.load(SPECTRE_T1) as f64;
                let t0 = d.load(SPECTRE_T0) as f64;
                t1 - t0
            }
            Channel::Rsa => {
                // Square-and-multiply: squaring always runs; the multiply
                // routine runs only for a 1-bit of the exponent.
                d.switch_to(ATTACKER);
                d.flush(RSA_MULTIPLY);
                d.switch_to(VICTIM);
                d.load(RSA_SQUARE);
                if active {
                    d.load(RSA_MULTIPLY);
                }
                d.switch_to(ATTACKER);
                d.load(RSA_MULTIPLY) as f64
            }
            Channel::Coherence => unreachable!("handled above"),
        };
        if round >= WARMUP {
            out.push(sample);
        }
    }
    out
}

/// Invalidate+transfer: attacker and victim free-run on different cores,
/// no context switches — the flush itself clears the attacker's s-bit.
fn collect_coherence(defended: bool, active: bool, rounds: usize) -> Vec<f64> {
    let mut h = Hierarchy::new(config(Channel::Coherence, defended)).expect("valid config");
    let mut now = 1u64;
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds + WARMUP {
        let lat = h.clflush(TARGET);
        now += lat + 1;
        if active {
            let o = h.access(0, 0, AccessKind::Store, TARGET, now);
            now += o.latency + 1;
        }
        let o = h.access(1, 0, AccessKind::Load, TARGET, now);
        now += o.latency + 1;
        if round >= WARMUP {
            out.push(o.latency as f64);
        }
    }
    out
}

/// One channel's t-statistics at baseline and under its defense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assessment {
    pub channel: Channel,
    /// Samples per arm.
    pub rounds: usize,
    /// Welch's t between active/idle arms with no defense.
    pub t_baseline: f64,
    /// Welch's t between active/idle arms under [`Channel::defense`].
    pub t_defended: f64,
}

impl Assessment {
    /// The undefended channel is statistically detectable (it must be —
    /// otherwise the "defense" below proves nothing).
    pub fn baseline_leaks(&self) -> bool {
        self.t_baseline.abs() > LEAKAGE_THRESHOLD
    }

    /// The defended channel is statistically silent.
    pub fn defended_silent(&self) -> bool {
        self.t_defended.abs() < LEAKAGE_THRESHOLD
    }

    /// Both criteria hold.
    pub fn pass(&self) -> bool {
        self.baseline_leaks() && self.defended_silent()
    }
}

/// Assesses one channel with `rounds` samples per arm.
pub fn assess(channel: Channel, rounds: usize) -> Assessment {
    let t = |defended: bool| {
        welch_t(
            &collect(channel, defended, true, rounds),
            &collect(channel, defended, false, rounds),
        )
    };
    Assessment {
        channel,
        rounds,
        t_baseline: t(false),
        t_defended: t(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_channel_leaks_at_baseline_and_is_silenced_by_its_defense() {
        for channel in Channel::ALL {
            let a = assess(channel, 40);
            assert!(
                a.baseline_leaks(),
                "{} must leak at baseline: {a:?}",
                channel.name()
            );
            assert!(
                a.defended_silent(),
                "{} must be silent under {}: {a:?}",
                channel.name(),
                channel.defense()
            );
        }
    }

    #[test]
    fn assessments_are_deterministic() {
        assert_eq!(
            assess(Channel::PrimeProbe, 24),
            assess(Channel::PrimeProbe, 24)
        );
    }

    #[test]
    fn keyed_index_key_search_isolates_the_target() {
        let primes: Vec<u64> = (1..=LLC_WAYS).map(evictor).collect();
        let key = pick_key(LLC_SETS, TARGET, &primes);
        let f = IndexFn::Keyed { key };
        let s = f.set_of(LineAddr::from_raw(TARGET / LINE), LLC_SETS);
        for p in primes {
            assert_ne!(f.set_of(LineAddr::from_raw(p / LINE), LLC_SETS), s);
        }
    }
}

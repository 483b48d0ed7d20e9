//! Pins the instruction streams of every SPEC and PARSEC preset.
//!
//! Each preset's first [`OPS`] ops are hashed (FNV-1a over a fixed byte
//! encoding of every [`Op`]) and compared with a recorded digest, so any
//! change to the generator — a reordered RNG draw, a different cursor wrap,
//! a retuned constant — fails here with the preset's name instead of
//! surfacing later as a shifted figure.
//!
//! To re-record after an *intended* stream change, run
//! `cargo test -p timecache-workloads --test streams -- --nocapture` and
//! copy the printed `got` values into the tables below.

use timecache_core::Fnv1a;
use timecache_os::{DataKind, Op, Program};
use timecache_workloads::parsec::ParsecBenchmark;
use timecache_workloads::{SpecBenchmark, SyntheticWorkload};

/// Ops hashed per stream.
const OPS: usize = 200_000;

/// FNV-1a over the first [`OPS`] ops: a tag word per op, then its fields.
fn stream_digest(mut w: SyntheticWorkload) -> u64 {
    let mut h = Fnv1a::new();
    for _ in 0..OPS {
        match w.next_op() {
            Op::Instr { pc, data } => {
                h.write_u64(0);
                h.write_u64(pc);
                match data {
                    None => h.write_u64(0),
                    Some((DataKind::Load, addr)) => {
                        h.write_u64(1);
                        h.write_u64(addr);
                    }
                    Some((DataKind::Store, addr)) => {
                        h.write_u64(2);
                        h.write_u64(addr);
                    }
                }
            }
            Op::Flush { pc, target } => {
                h.write_u64(1);
                h.write_u64(pc);
                h.write_u64(target);
            }
            Op::Yield { pc } => {
                h.write_u64(2);
                h.write_u64(pc);
            }
            Op::Done => h.write_u64(3),
        }
    }
    h.finish()
}

/// Compares every `(name, got)` with its recorded digest and reports all
/// mismatches at once.
fn check(label: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    assert_eq!(got.len(), want.len(), "{label}: preset count changed");
    let mut drift = Vec::new();
    for ((name, g), (wname, w)) in got.iter().zip(want) {
        println!("{label} {name}: got {g:#018x}");
        assert_eq!(name, wname, "{label}: preset order changed");
        if g != w {
            drift.push(format!("{name}: got {g:#018x}, recorded {w:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "{label} generator stream drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn spec_streams_are_pinned() {
    // (preset/instance, digest), instances 0 and 1 of each preset.
    const WANT: [(&str, u64); 34] = [
        ("specrand/0", 0x8e7058a389a52b7a),
        ("specrand/1", 0x7930e5bad6abe572),
        ("lbm/0", 0x3f684387dcab2f75),
        ("lbm/1", 0x71fbe8e9ec2f522a),
        ("leslie3d/0", 0x9132b618fc8c7878),
        ("leslie3d/1", 0xe9e58feb2ff72bf4),
        ("gobmk/0", 0x1c259056c5186113),
        ("gobmk/1", 0xa817c3d5c36aa7de),
        ("libquantum/0", 0x3c0317e358211c26),
        ("libquantum/1", 0x437747eeb12e4b07),
        ("wrf/0", 0xf50b09c298c7a3b0),
        ("wrf/1", 0xc910c6fe80c376d4),
        ("calculix/0", 0xc599685287f9bd1f),
        ("calculix/1", 0xe7351103d6faa100),
        ("sjeng/0", 0x3a5fb94cc1721111),
        ("sjeng/1", 0xa56dc2b66d80b2f4),
        ("perlbench/0", 0xa8570bbf4a1e6574),
        ("perlbench/1", 0x20234998893fc723),
        ("astar/0", 0x765398a3ccadb46d),
        ("astar/1", 0x007ec9dbff1868af),
        ("h264ref/0", 0x55ca44ebd6c6ee81),
        ("h264ref/1", 0x56d3b2965c5b981f),
        ("milc/0", 0x4a8cf630f28b9a38),
        ("milc/1", 0x6568142b8e2a8f33),
        ("sphinx3/0", 0xb83a70818b6d2e42),
        ("sphinx3/1", 0x04ef5cac657d2fc5),
        ("namd/0", 0x0a46c8b25ef570ec),
        ("namd/1", 0xf24c015e2cbaeb94),
        ("gromacs/0", 0x32e778b2b7f0fcc4),
        ("gromacs/1", 0x185a233269b00bca),
        ("zeusmp/0", 0x8ecf8a7d0aa141cb),
        ("zeusmp/1", 0x00f474089b8c69be),
        ("cactus/0", 0xfced5aa7cec8de23),
        ("cactus/1", 0x63b82da9ce024fe2),
    ];
    let got: Vec<(String, u64)> = SpecBenchmark::ALL
        .iter()
        .flat_map(|&b| {
            (0..2).map(move |i| (format!("{}/{i}", b.name()), stream_digest(b.workload(i))))
        })
        .collect();
    check("spec", &got, &WANT);
}

#[test]
fn parsec_streams_are_pinned() {
    // (preset/thread, digest); threads 0 and 1 are instances 16 and 17.
    const WANT: [(&str, u64); 12] = [
        ("fluidanimate/16", 0x8b7eafa0f691d96e),
        ("fluidanimate/17", 0x4c0cf3749e9a2d6b),
        ("raytrace/16", 0x6caee7cf882447d4),
        ("raytrace/17", 0x8c7c86185767a195),
        ("blackscholes/16", 0xef84e12c659c23d1),
        ("blackscholes/17", 0x9e919ac9fbd9fccf),
        ("x264/16", 0xd10b64bb5f3e9364),
        ("x264/17", 0x5e7416052747841a),
        ("swaptions/16", 0xa5e7329b839b59b8),
        ("swaptions/17", 0xdbeb90b42f05f6ab),
        ("facesim/16", 0x6a53dda482c8b324),
        ("facesim/17", 0xc5daa176ebbaf724),
    ];
    let got: Vec<(String, u64)> = ParsecBenchmark::ALL
        .iter()
        .flat_map(|&b| {
            (0..2).map(move |t| {
                (
                    format!("{}/{}", b.name(), 16 + t),
                    stream_digest(b.thread_workload(t)),
                )
            })
        })
        .collect();
    check("parsec", &got, &WANT);
}

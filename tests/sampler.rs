//! The resolved sampler the engine draws addresses with,
//! `rand::distributions::Uniform`, against `Rng::gen_range` and against
//! the rejection draw both are defined by: value for value and word for
//! word, so that lowering the engine's draws moved no address, trip or
//! branch of any workload. Covers spans from 8 to 2^28 (powers of two
//! and others), spans where rejection is frequent, and every region
//! size and hot-prefix size of the 16 built-ins and the committed
//! workload files under both inputs.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use spm::ir::{parse_workload, AccessPattern, Input, Program, Stmt};
use spm::workloads::suite;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Draws per span and generator.
const DRAWS: usize = 2_000;

/// The unbiased draw from `0..span` spelled out: reject words above
/// the largest multiple of `span` that fits, reduce the first accepted.
fn reference(rng: &mut SmallRng, span: u64) -> u64 {
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// Checks one span over three seeds: the sampler, `gen_range` and the
/// reference agree on every value and leave the generators equal.
fn check_span(span: u64) {
    let sampler = Uniform::new(0, span);
    for seed in [1, 0x5eed, u64::MAX] {
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = a.clone();
        let mut c = a.clone();
        for i in 0..DRAWS {
            let value = sampler.sample(&mut a);
            assert_eq!(value, b.gen_range(0..span), "span {span}, draw {i}");
            assert_eq!(value, reference(&mut c, span), "span {span}, draw {i}");
            assert!(value < span);
        }
        assert!(a == b && b == c, "span {span}: generators drifted apart");
    }
}

#[test]
fn spans_from_8_to_2_pow_28_draw_as_gen_range() {
    let mut spans = BTreeSet::new();
    for shift in 3..=28 {
        let pow = 1u64 << shift;
        spans.extend([pow, pow - 1, pow + 1, pow / 2 * 3, pow / 8 * 5 + 8]);
    }
    spans.extend([10, 100, 1000, 4_095, 65_521, 1_000_003, 100_000_000]);
    for span in spans.range(8..=1 << 28) {
        check_span(*span);
    }
}

#[test]
fn spans_that_reject_often_draw_as_gen_range() {
    // Nearly half the words fall outside the zone of a span just over
    // 2^63, so the rejection loop runs many times.
    for span in [
        (1 << 63) + 1,
        (1 << 63) + 12_345,
        u64::MAX / 3 * 2,
        u64::MAX,
    ] {
        check_span(span);
    }
}

#[test]
fn inclusive_and_signed_ranges_draw_as_gen_range() {
    let mut a = SmallRng::seed_from_u64(7);
    let mut b = a.clone();
    let mut c = a.clone();
    let trips = Uniform::new_inclusive(1_000u64, 1_500);
    let full = Uniform::new_inclusive(0u64, u64::MAX);
    let signed = Uniform::new_inclusive(i64::MIN, i64::MAX);
    let small = Uniform::new(-5i32, 9);
    for _ in 0..DRAWS {
        let trip = trips.sample(&mut a);
        assert_eq!(trip, b.gen_range(1_000..=1_500u64));
        assert_eq!(trip, 1_000 + reference(&mut c, 501));
        // The full domain takes each word as it comes.
        let word = full.sample(&mut a);
        assert_eq!(word, b.gen_range(0..=u64::MAX));
        assert_eq!(word, c.next_u64());
        let wide = signed.sample(&mut a);
        assert_eq!(wide, b.gen_range(i64::MIN..=i64::MAX));
        assert_eq!(wide, c.next_u64() as i64);
        let narrow = small.sample(&mut a);
        assert_eq!(narrow, b.gen_range(-5..9i32));
        assert_eq!(narrow, -5 + reference(&mut c, 14) as i32);
    }
    assert!(a == b && b == c);
}

#[test]
fn gen_ratio_is_the_rejection_draw_below_the_numerator() {
    for seed in [1, 2, 3] {
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = a.clone();
        let ten = Uniform::new(0u64, 10);
        let mut hits = 0;
        for _ in 0..20 * DRAWS {
            let hit = a.gen_ratio(9, 10);
            assert_eq!(hit, reference(&mut b, 10) < 9);
            hits += u32::from(hit);
        }
        assert!(a == b);
        assert!((35_000..37_000).contains(&hits), "{hits} of 40000");
        // The same words through a resolved sampler.
        let mut c = SmallRng::seed_from_u64(seed);
        let mut d = c.clone();
        for _ in 0..DRAWS {
            assert_eq!(c.gen_ratio(9, 10), ten.sample(&mut d) < 9);
        }
        assert!(c == d);
    }
}

/// Adds every span the engine samples for `program` under `input`: the
/// size of each region, and each hotspot's hot prefix.
fn engine_spans(program: &Program, input: &Input, spans: &mut BTreeSet<u64>) {
    fn walk(stmts: &[Stmt], sizes: &[u64], spans: &mut BTreeSet<u64>) {
        for stmt in stmts {
            match stmt {
                Stmt::Block(block) => {
                    for mem in &block.mem {
                        if let AccessPattern::Hotspot { hot_pct } = mem.pattern {
                            let size = sizes[mem.region.index()];
                            spans.insert((size * u64::from(hot_pct.clamp(1, 100)) / 100).max(8));
                        }
                    }
                }
                Stmt::Loop(l) => walk(&l.body, sizes, spans),
                Stmt::If(i) => {
                    walk(&i.then_body, sizes, spans);
                    walk(&i.else_body, sizes, spans);
                }
                Stmt::Call(_) => {}
            }
        }
    }
    let sizes: Vec<u64> = program
        .regions()
        .iter()
        .map(|r| r.size.resolve(input))
        .collect();
    spans.extend(sizes.iter().copied());
    for proc in program.procs() {
        walk(&proc.body, &sizes, spans);
    }
}

#[test]
fn every_workload_region_draws_as_gen_range() {
    let mut spans = BTreeSet::new();
    for w in suite() {
        for input in [&w.train_input, &w.ref_input] {
            engine_spans(&w.program, input, &mut spans);
        }
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "spm") {
            let parsed = parse_workload(&std::fs::read_to_string(&path).unwrap()).unwrap();
            for name in ["train", "ref"] {
                engine_spans(&parsed.program, parsed.input(name).unwrap(), &mut spans);
            }
            files += 1;
        }
    }
    assert!(files >= 4, "committed workload suite shrank");
    assert!(spans.len() >= 30, "only {} distinct spans", spans.len());
    assert!(spans.iter().any(|s| !s.is_power_of_two()));
    for span in spans {
        check_span(span);
    }
}

//! Float labels read back as `{}` prints them.
//!
//! The trace sink writes a float label with its own shortest
//! round-trip encoder, not `core::fmt`. These cases go through the
//! public path only — `point(..).label_f64(key!("x"), v)`, then `events()` —
//! and hold the text read back to `format!("{v}")`, or `0` for a
//! non-finite value, where shortest printing is hardest: every power
//! of two, every power of ten and its neighbours, the integers where
//! doubles stop being consecutive, and the ends of the range.

use network_entitlement::obs::{key, Clock, TraceSink};
use proptest::prelude::*;

/// What a float label must read back as.
fn expected(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `values` and their negations as labels of one sink, each read back
/// and compared; returns how many were checked.
fn check(values: impl IntoIterator<Item = f64>) -> usize {
    let values: Vec<f64> = values.into_iter().flat_map(|v| [v, -v]).collect();
    let sink = TraceSink::new();
    let clock = Clock::manual(0);
    for &v in &values {
        sink.point(&clock, "float", "label")
            .label_f64(key!("x"), v)
            .finish();
    }
    let events = sink.events();
    assert_eq!(events.len(), values.len());
    for (event, &v) in events.iter().zip(&values) {
        let want = expected(v);
        assert_eq!(
            event.label("x"),
            Some(want.as_str()),
            "{v:e} = {:#018x}",
            v.to_bits()
        );
    }
    values.len()
}

/// The double nearest `m × 10^k`, as the parser rounds it.
fn decimal(m: u32, k: i32) -> f64 {
    format!("{m}e{k}").parse().expect("a decimal literal")
}

/// `v` and the doubles one ulp either side of it (for positive `v`).
fn with_neighbours(v: f64) -> [f64; 3] {
    let bits = v.to_bits();
    [f64::from_bits(bits - 1), v, f64::from_bits(bits + 1)]
}

#[test]
fn every_power_of_two() {
    // 2^-1074 to 2^-1023 are subnormal, one mantissa bit each.
    let subnormal = (0..52).map(|bit| f64::from_bits(1 << bit));
    let normal = (1..=2046u64).map(|exponent| f64::from_bits(exponent << 52));
    assert_eq!(check(subnormal.chain(normal)), 2 * 2098);
}

#[test]
fn every_power_of_ten_and_its_neighbours() {
    check((-323..=308).flat_map(|k| with_neighbours(decimal(1, k))));
}

#[test]
fn from_1e21_to_1e23() {
    // Where `{}` pads with zeros past what a `u64` holds; 1e23 is the
    // double whose shortest digits are not its closest ones.
    check((1..=100).flat_map(|m| with_neighbours(decimal(m, 21))));
}

#[test]
fn integers_around_2_pow_53_and_2_pow_64() {
    let around = |centre: f64| {
        (-600..=600i64).map(move |d| f64::from_bits(centre.to_bits().wrapping_add_signed(d)))
    };
    check(around(9_007_199_254_740_992.0).chain(around(18_446_744_073_709_551_616.0)));
}

#[test]
fn the_ends_of_the_range_and_the_specials() {
    check([
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::EPSILON,
        0.0,
        // 2^50 + 0.25, an exact half at the last digit: `{}` rounds it up.
        f64::from_bits(0x4310_0000_0000_0001),
        f64::NAN,
        f64::INFINITY,
    ]);
}

proptest! {
    #[test]
    fn random_bit_patterns(bits in proptest::collection::vec(any::<u64>(), 1..64)) {
        check(bits.into_iter().map(f64::from_bits));
    }
}

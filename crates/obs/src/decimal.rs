//! Numbers as text, without `core::fmt`: an unsigned integer in
//! decimal, and a finite `f64` exactly as `{}` prints it — the
//! shortest digits that read back as the same double (the closest of
//! them when several are that short), laid out in plain decimal with
//! no exponent (`0.001`, `1e21` as `1000000000000000000000`, `-0`).
//!
//! The digits come from Ryu (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the double's rounding interval is scaled
//! into decimal by one 64 × 128-bit multiply against a power of five,
//! and digits are dropped while the interval's two ends still differ
//! in them. The two tables of 125-bit powers of five are computed on
//! the first float by the few lines of big-integer arithmetic below;
//! they are the values Ryu's `d2s_full_table.h` lists.

use std::sync::OnceLock;

/// `00` to `99`, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"\
    00010203040506070809101112131415161718192021222324\
    25262728293031323334353637383940414243444546474849\
    50515253545556575859606162636465666768697071727374\
    75767778798081828384858687888990919293949596979899";

/// The decimal digits of `v`, written at the end of `buf` two per
/// division: four numbers open every trace line, and a digit at a
/// time they cost as much as its labels.
fn digits(buf: &mut [u8; 20], mut v: u64) -> &str {
    let mut at = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    // ASCII digits, so this never fails.
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// Append `v` in decimal.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    out.push_str(digits(&mut [0; 20], v));
}

/// Append the finite `v` as `{}` prints it. Integral values below 2^53
/// — every count and every counting- or manual-clock duration — are
/// written as the integer they are; the rest go through [`shortest`].
pub(crate) fn push_finite(out: &mut String, v: f64) {
    const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;
    debug_assert!(v.is_finite(), "{v} has no decimal digits");
    if v.is_sign_negative() {
        out.push('-');
    }
    let v = v.abs();
    if v < EXACT_INTEGERS && v.fract() == 0.0 {
        return push_u64(out, v as u64);
    }
    let (mantissa, exponent) = shortest(v.to_bits());
    let mut buf = [0; 20];
    let digits = digits(&mut buf, mantissa);
    // How many of the digits stand before the point.
    let whole = digits.len() as i32 + exponent;
    if whole <= 0 {
        out.push_str("0.");
        push_zeros(out, -whole);
        out.push_str(digits);
    } else if exponent < 0 {
        let (int, frac) = digits.split_at(whole as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        push_zeros(out, exponent);
    }
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat_n('0', n.max(0) as usize));
}

/// Bits kept of each power of five (Ryu's `DOUBLE_POW5_BITCOUNT`).
const POW5_BITS: i32 = 125;
/// Bits kept of each inverse (`DOUBLE_POW5_INV_BITCOUNT`).
const POW5_INV_BITS: i32 = 125;
/// 5^0 to 5^325: the smallest subnormal needs 5^325.
const POW5_COUNT: usize = 326;
/// 5^-0 to 5^-291: `f64::MAX` needs 5^-291.
const POW5_INV_COUNT: usize = 292;

/// `pow5[i]` is 5^i to its first 125 bits; `inv[q]` is 2^(b − 1 +
/// 125) / 5^q rounded down, plus one, where 5^q has `b` bits.
struct Tables {
    pow5: [u128; POW5_COUNT],
    inv: [u128; POW5_INV_COUNT],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Tables {
            pow5: [0; POW5_COUNT],
            inv: [0; POW5_INV_COUNT],
        };
        let mut pow5 = Big::ONE;
        for (i, split) in tables.pow5.iter_mut().enumerate() {
            *split = pow5.top(POW5_BITS as u32);
            if let Some(inv) = tables.inv.get_mut(i) {
                *inv = pow5.inverse() + 1;
            }
            pow5.mul5();
        }
        tables
    })
}

/// Limbs of a [`Big`]: 5^325 has 755 bits.
const LIMBS: usize = 16;

/// A non-negative integer below 2^1024 in 64-bit limbs, least
/// significant first: just the arithmetic the tables are computed with.
#[derive(Clone, Copy)]
struct Big([u64; LIMBS]);

impl Big {
    const ONE: Big = {
        let mut limbs = [0; LIMBS];
        limbs[0] = 1;
        Big(limbs)
    };

    fn mul5(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let wide = u128::from(*limb) * 5 + carry;
            *limb = wide as u64;
            carry = wide >> 64;
        }
    }

    fn double(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
    }

    fn sub(&mut self, other: &Big) {
        let mut borrow = false;
        for (limb, &o) in self.0.iter_mut().zip(&other.0) {
            let (d, b1) = limb.overflowing_sub(o);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *limb = d;
            borrow = b1 || b2;
        }
    }

    fn ge(&self, other: &Big) -> bool {
        self.0.iter().rev().cmp(other.0.iter().rev()).is_ge()
    }

    fn bit(&self, i: u32) -> u128 {
        u128::from((self.0[(i / 64) as usize] >> (i % 64)) & 1)
    }

    /// Bits up to and including the highest set one.
    fn len(&self) -> u32 {
        let top = self.0.iter().rposition(|&limb| limb != 0).unwrap_or(0);
        64 * top as u32 + (64 - self.0[top].leading_zeros())
    }

    /// The `count` most significant bits, shifted up to `count` bits
    /// when there are fewer.
    fn top(&self, count: u32) -> u128 {
        let len = self.len();
        let taken = (len.saturating_sub(count)..len).rev();
        let bits = taken.fold(0, |acc, i| (acc << 1) | self.bit(i));
        bits << count.saturating_sub(len)
    }

    /// 2^(len − 1 + [`POW5_INV_BITS`]) / self, rounded down, by long
    /// division a quotient bit at a time. The dividend's leading `len`
    /// bits are 2^(len − 1), less than twice `self`, so the division
    /// starts there with at most one quotient bit.
    fn inverse(&self) -> u128 {
        let high = self.len() - 1;
        let mut rest = Big([0; LIMBS]);
        rest.0[(high / 64) as usize] = 1 << (high % 64);
        let mut quotient = 0;
        for step in 0..=POW5_INV_BITS {
            if step > 0 {
                rest.double();
                quotient <<= 1;
            }
            if rest.ge(self) {
                rest.sub(self);
                quotient |= 1;
            }
        }
        quotient
    }
}

/// ⌊log10 2^e⌋ for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    (e * 78_913) >> 18
}

/// ⌊log10 5^e⌋ for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    (e * 732_923) >> 20
}

/// ⌈log2 5^e⌉ for `1 <= e <= 3528`, and 1 for `e == 0`.
fn pow5_bits(e: i32) -> i32 {
    ((e * 1_217_359) >> 19) + 1
}

/// Whether 5^p divides `v` (which is not zero).
fn multiple_of_pow5(mut v: u64, p: i32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^j⌋`, for `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `mantissa × 10^exponent` that reads back as the
/// positive finite double with these `bits`; of several that short,
/// the closest, and of two as close, the larger (Ryu's `d2d`, whose
/// exact halves round to even where `{}` rounds them up:
/// `1125899906842624.25` prints as `…624.3`).
fn shortest(bits: u64) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // Two more bits than the double has, for the interval's ends.
    let (e2, m2) = match ieee_exponent {
        0 => (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa),
        e => (
            e - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        ),
    };
    // Read back round-half-even, an even mantissa owns its interval's ends.
    let accept_bounds = m2.is_multiple_of(2);
    // The value and its interval's ends, `× 2^e2`; the interval is half
    // as wide below a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // All three scaled to `× 10^e10` and rounded down, and whether
    // that dropped nothing but zeros.
    let (q, e10, mul, j) = if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        let j = -e2 + q + POW5_INV_BITS + pow5_bits(q) - 1;
        (q, q, tables().inv[q as usize], j)
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        let i = -e2 - q;
        let j = q - (pow5_bits(i) - POW5_BITS);
        (q, q + e2, tables().pow5[i as usize], j)
    };
    let (mut vr, mut vp, mut vm) = (
        mul_shift(mv, mul, j),
        mul_shift(mp, mul, j),
        mul_shift(mm, mul, j),
    );
    // Whether scaling dropped nothing but zeros from an end: a lower
    // end that is exact is a candidate when the interval owns it, an
    // upper end that is exact must be stepped off when it does not.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else if q <= 1 {
        // mp has at least one trailing zero bit, mm one when mm_shift
        // is 1.
        if accept_bounds {
            vm_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while the interval's ends still differ in them.
    let mut removed = 0;
    let mantissa = if vm_trailing_zeros {
        // The rare case: the lower end may be exact in fewer digits.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let below = vr == vm && !vm_trailing_zeros;
        vr + u64::from(below || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (mantissa, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn finite(v: f64) -> String {
        let mut out = String::new();
        push_finite(&mut out, v);
        out
    }

    #[test]
    fn integers_print_as_display_prints_them() {
        let mut cases = vec![0, 9, 10, 11, 99, 100, 101, 999, 1_000, 1_009, u64::MAX];
        cases.extend((1..20).flat_map(|p| [10u64.pow(p) - 1, 10u64.pow(p), 10u64.pow(p) + 1]));
        for v in cases {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    /// The first entries of Ryu's published `DOUBLE_POW5_SPLIT` and
    /// `DOUBLE_POW5_INV_SPLIT`, as their `(low, high)` words.
    #[test]
    fn the_tables_are_ryus() {
        let t = tables();
        let words = |v: u128| (v as u64, (v >> 64) as u64);
        assert_eq!(words(t.pow5[0]), (0, 1_152_921_504_606_846_976));
        assert_eq!(words(t.pow5[1]), (0, 1_441_151_880_758_558_720));
        assert_eq!(words(t.inv[0]), (1, 2_305_843_009_213_693_952));
        assert_eq!(
            words(t.inv[1]),
            (11_068_046_444_225_730_970, 1_844_674_407_370_955_161)
        );
        // 5^i is kept whole while it fits in 125 bits, then its top 125.
        for (i, &p) in t.pow5.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros(), 125, "5^{i}");
            if i <= 53 {
                assert_eq!(p >> p.trailing_zeros(), 5u128.pow(i as u32), "5^{i}");
            }
        }
    }

    #[test]
    fn floats_print_as_display_prints_them() {
        for v in [
            0.1,
            0.3,
            1.5,
            1e-7,
            123.456,
            2.5e-3,
            1e21,
            1e22,
            1e23,
            9_007_199_254_740_993.0,
            f64::from_bits(0x4310_0000_0000_0001),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::EPSILON,
            -0.0,
            -2.75,
            std::f64::consts::PI,
        ] {
            assert_eq!(finite(v), format!("{v}"), "{:#x}", v.to_bits());
        }
    }

    /// The full oracle: ten million finite doubles, bit patterns drawn
    /// uniformly, each against `{}`. Seconds in a release build:
    /// `cargo test --release -p entitlement-obs -- --ignored`.
    #[test]
    #[ignore = "ten million doubles: run it in release"]
    fn ten_million_random_doubles_print_as_display_prints_them() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let (mut ours, mut theirs) = (String::new(), String::new());
        let mut checked = 0;
        while checked < 10_000_000 {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let v = f64::from_bits(z ^ (z >> 31));
            if !v.is_finite() {
                continue;
            }
            ours.clear();
            theirs.clear();
            push_finite(&mut ours, v);
            let _ = write!(theirs, "{v}");
            assert_eq!(ours, theirs, "{:#x}", v.to_bits());
            checked += 1;
        }
    }
}

//! Shortest round-trip `f64` formatting, laid out as `format!("{v:e}")`.
//!
//! This is Ryū (Adams, PLDI 2018): the shortest decimal that reads back
//! as the same `f64`, found with one 64×128-bit multiply per interval
//! bound instead of big-number arithmetic. It differs from the reference
//! implementation in one place, to match `core::fmt`: when the digits
//! removed are exactly one half (`…50…0`), std rounds the kept digits
//! up where Ryū rounds them to even. With that rule gone, Ryū's
//! `vr_is_trailing_zeros` bookkeeping has no reader and is not kept.

/// Bits kept of each power of five (`POW5_SPLIT`) and of each inverse
/// (`POW5_INV_SPLIT`).
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;

/// A 1024-bit unsigned integer, least significant limb first.
type Limbs = [u64; 16];

const fn bit_len(x: &Limbs) -> u32 {
    let mut k = x.len();
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return k as u32 * 64 + 64 - x[k].leading_zeros();
        }
    }
    0
}

const fn limb(x: &Limbs, k: usize) -> u128 {
    if k < x.len() {
        x[k] as u128
    } else {
        0
    }
}

/// The 128 bits of `x` from bit `shift` up.
const fn bits_at(x: &Limbs, shift: u32) -> u128 {
    let k = (shift / 64) as usize;
    let bit = shift % 64;
    let low = limb(x, k) | (limb(x, k + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(x, k + 2) << (128 - bit))
    }
}

const fn mul5(x: &mut Limbs) {
    let mut carry = 0u128;
    let mut k = 0;
    while k < x.len() {
        let v = x[k] as u128 * 5 + carry;
        x[k] = v as u64;
        carry = v >> 64;
        k += 1;
    }
}

const fn div5(x: &mut Limbs) {
    let mut rem = 0u128;
    let mut k = x.len();
    while k > 0 {
        k -= 1;
        let v = (rem << 64) | x[k] as u128;
        x[k] = (v / 5) as u64;
        rem = v % 5;
    }
}

/// `POW5_SPLIT[i]`: the top 125 bits of `5^i`.
const POW5_SPLIT: [u128; 326] = {
    let mut table = [0u128; 326];
    let mut pow: Limbs = [0; 16];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_len(&pow);
        table[i] = if len <= 125 {
            bits_at(&pow, 0) << (125 - len)
        } else {
            bits_at(&pow, len - 125)
        };
        mul5(&mut pow);
        i += 1;
    }
    table
};

/// `POW5_INV_SPLIT[i]`: `⌊2^j / 5^i⌋ + 1` with `j = bitlen(5^i) − 1 + 125`,
/// read off `⌊2^1023 / 5^i⌋` (built by repeated ÷5) shifted right by
/// `1023 − j`: nested floors compose, so the shift loses nothing.
const POW5_INV_SPLIT: [u128; 342] = {
    let mut table = [0u128; 342];
    let mut pow: Limbs = [0; 16];
    pow[0] = 1;
    let mut inv: Limbs = [0; 16];
    inv[15] = 1 << 63;
    let mut i = 0;
    while i < table.len() {
        let j = bit_len(&pow) - 1 + 125;
        table[i] = bits_at(&inv, 1023 - j) + 1;
        mul5(&mut pow);
        div5(&mut inv);
        i += 1;
    }
    table
};

/// `⌈log2 5^e⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, exponent)` with `digits · 10^exponent` inside
/// the rounding interval of the positive `f64` with these fields, the
/// nearest such one, and an exact tie rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            (1 << 52) | ieee_mantissa,
        )
    };
    // Round-to-even reads an even mantissa's interval bounds back as it.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower neighbour is half as far away just above a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // With `mv` a multiple of 5 only `vr` can be exact, and exactness
        // of `vr` decided only the tie rule std does not follow.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    let round_up = (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// `"00" "01" … "99"`: two digits per table read.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the decimal digits of `v` at the end of `buf`, two at a time;
/// returns the index of the first.
pub(crate) fn digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Appends `v` exactly as `format!("{v:e}")` writes a finite `f64`: the
/// shortest digits that read back as `v`, a `.` after the first only when
/// there are more, then `e` and the decimal exponent.
pub(crate) fn push_exp(out: &mut Vec<u8>, v: f64) {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    let (mantissa, exponent) = if ieee_mantissa == 0 && ieee_exponent == 0 {
        (0, 0)
    } else {
        shortest(ieee_mantissa, ieee_exponent)
    };
    let mut buf = [0u8; 20];
    let first = digits(mantissa, &mut buf);
    out.push(buf[first]);
    if first + 1 < buf.len() {
        out.push(b'.');
        out.extend_from_slice(&buf[first + 1..]);
    }
    out.push(b'e');
    let exponent = exponent + (buf.len() - first) as i32 - 1;
    if exponent < 0 {
        out.push(b'-');
    }
    let first = digits(u64::from(exponent.unsigned_abs()), &mut buf);
    out.extend_from_slice(&buf[first..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exp(v: f64) -> String {
        let mut out = Vec::new();
        push_exp(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    fn check(v: f64) {
        assert_eq!(exp(v), format!("{v:e}"), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn exact_ties_round_up_as_std_does() {
        let v = f64::from_bits(0x4318_0467_b3a7_ed6d);
        assert_eq!(exp(v), "1.6900607208313233e15");
        check(v);
    }

    #[test]
    fn fixed_vectors_match_std() {
        for v in [
            0.0,
            -0.0,
            1.0,
            1.5,
            0.1,
            0.3,
            2.0 / 3.0,
            956_140.5,
            4.437_840_153_221_639_3e5,
            5e-324,
            f64::from_bits(2),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::EPSILON,
            9.0e15,
            9.0e15 - 1.0,
            9.0e15 + 2.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e23,
            123_456_789.012_345_67,
        ] {
            check(v);
        }
        for e in -1074..1024 {
            check(2f64.powi(e));
        }
        for e in -323..309 {
            let v: f64 = format!("1e{e}").parse().unwrap();
            check(v);
            check(f64::from_bits(v.to_bits() + 1));
            check(f64::from_bits(v.to_bits() - 1));
        }
    }

    #[test]
    fn tables_hold_the_reference_entries() {
        // Entries of Ryū's published `d2s_full_table.h`, as (high, low).
        let split = |v: u128| ((v >> 64) as u64, v as u64);
        assert_eq!(split(POW5_INV_SPLIT[0]), (2_305_843_009_213_693_952, 1));
        assert_eq!(
            split(POW5_INV_SPLIT[1]),
            (1_844_674_407_370_955_161, 11_068_046_444_225_730_970)
        );
        assert_eq!(split(POW5_SPLIT[0]), (1_152_921_504_606_846_976, 0));
        assert_eq!(split(POW5_SPLIT[1]), (1_441_151_880_758_558_720, 0));
    }

    #[test]
    fn digits_match_display() {
        let mut buf = [0u8; 20];
        for v in [
            0,
            7,
            10,
            99,
            100,
            101,
            956_140,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let first = digits(v, &mut buf);
            assert_eq!(&buf[first..], v.to_string().as_bytes());
        }
    }

    /// A long sweep against std: 5·10^7 random bit patterns and 5·10^7
    /// random values in [10^3, 10^9), where acquired compute amounts lie.
    /// Run it with `cargo test --release -p titrace float_sweep --
    /// --ignored`.
    #[test]
    #[ignore]
    fn float_sweep_matches_std() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut out = Vec::with_capacity(32);
        let mut mismatches = 0u64;
        for _ in 0..50_000_000 {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            for v in [f64::from_bits(z), 1e3 + unit * (1e9 - 1e3)] {
                if !v.is_finite() {
                    continue;
                }
                out.clear();
                push_exp(&mut out, v);
                if out != format!("{v:e}").as_bytes() {
                    mismatches += 1;
                    eprintln!("mismatch at bits {:#018x}", v.to_bits());
                }
            }
        }
        assert_eq!(mismatches, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Any finite `f64` is written byte for byte as `{:e}` writes it.
        #[test]
        fn any_finite_f64_matches_std(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                prop_assert_eq!(exp(v), format!("{v:e}"));
            }
        }
    }
}

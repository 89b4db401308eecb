//! Software IEEE 754 binary16 ("half precision").
//!
//! The paper's iso-FLOP comparison (Fig. 7) pairs two FP16 MAC units per
//! FP32 lane: a 4-TC configuration has 256 FP16 units and a 2-SMA
//! configuration reconfigures the same lanes into two 8×16 FP16 systolic
//! arrays. To make the functional engines faithful to that precision we
//! emulate binary16 in software with round-to-nearest-even, rather than
//! computing in `f32` and pretending.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// IEEE 754 binary16 value stored as its raw bit pattern.
///
/// Arithmetic is performed by widening to `f32`, computing, and rounding
/// back — the same behaviour as hardware FP16 FMA with a single rounding per
/// operation group, which is how TensorCore-class units behave for separate
/// multiply/add instructions.
///
/// # Example
///
/// ```
/// use sma_tensor::F16;
///
/// let x = F16::from_f32(1.5);
/// let y = F16::from_f32(2.25);
/// assert_eq!((x * y).to_f32(), 3.375);
/// // 2049 is not representable in binary16 (11-bit significand):
/// assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub(crate) const ONE: F16 = F16(0x3C00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);

    /// Converts from `f32` with round-to-nearest-even, handling subnormals,
    /// overflow to infinity and NaN propagation.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve a quiet NaN payload bit.
            let payload = if frac != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent in f32 is exp - 127; f16 bias is 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return F16(sign | 0x7C00); // overflow -> inf
        }
        if unbiased >= -14 {
            // Normal range: keep 10 fraction bits, round-to-nearest-even.
            let mut f16_exp = (unbiased + 15) as u16;
            let shifted = frac >> 13;
            let round_bits = frac & 0x1FFF;
            let mut mant = shifted as u16;
            let halfway = 0x1000;
            if round_bits > halfway || (round_bits == halfway && (mant & 1) == 1) {
                mant += 1;
                if mant == 0x400 {
                    mant = 0;
                    f16_exp += 1;
                    if f16_exp >= 0x1F {
                        return F16(sign | 0x7C00);
                    }
                }
            }
            return F16(sign | (f16_exp << 10) | mant);
        }

        // Subnormal or underflow-to-zero.
        if unbiased < -25 {
            return F16(sign); // too small even for subnormal
        }
        // Implicit leading 1 joins the fraction, shifted into subnormal range.
        let full = 0x0080_0000 | frac; // 24-bit significand
        let shift = (-14 - unbiased) as u32 + 13;
        let mant = full >> shift;
        let rem = full & ((1 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut mant = mant as u16;
        if rem > halfway || (rem == halfway && (mant & 1) == 1) {
            mant += 1; // may carry into exponent, which is correct behaviour
        }
        F16(sign | mant)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & 0x8000) << 16;
        let exp = (self.0 >> 10) & 0x1F;
        let frac = u32::from(self.0 & 0x03FF);

        let bits = match (exp, frac) {
            (0, 0) => sign,
            (0, _) => {
                // Subnormal: value = frac * 2^-24. Normalise around the
                // most-significant set bit t: frac = 1.xxx * 2^t, so the
                // value is 1.xxx * 2^(t-24) and the f32 exponent field is
                // (t - 24) + 127 = t + 103.
                let t = 31 - frac.leading_zeros();
                let exp32 = t + 103;
                let mant = (frac << (23 - t)) & 0x007F_FFFF;
                sign | (exp32 << 23) | mant
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, _) => sign | 0x7FC0_0000 | (frac << 13),
            _ => {
                // f16 bias 15 -> f32 bias 127 is a flat +112 on the field.
                let exp32 = u32::from(exp) + 112;
                sign | (exp32 << 23) | (frac << 13)
            }
        };
        f32::from_bits(bits)
    }

    /// Quantises a whole `f32` slice to binary16, appending to `dst`.
    ///
    /// The batched form of [`F16::from_f32`]: the inner loop runs in
    /// fixed 8-element lanes so the conversion overhead amortises
    /// across a shape-batch (the sweep hot path converts operand
    /// panels, not scalars). The conversion itself is elementwise
    /// round-to-nearest-even, so the result is bit-identical to
    /// mapping [`F16::from_f32`] one value at a time.
    pub(crate) fn quantize_slice(src: &[f32], dst: &mut Vec<F16>) {
        dst.reserve(src.len());
        let mut chunks = src.chunks_exact(8);
        for c in &mut chunks {
            let lane: [F16; 8] = [
                F16::from_f32(c[0]),
                F16::from_f32(c[1]),
                F16::from_f32(c[2]),
                F16::from_f32(c[3]),
                F16::from_f32(c[4]),
                F16::from_f32(c[5]),
                F16::from_f32(c[6]),
                F16::from_f32(c[7]),
            ];
            dst.extend_from_slice(&lane);
        }
        for &v in chunks.remainder() {
            dst.push(F16::from_f32(v));
        }
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl Add for F16 {
    type Output = F16;
    fn add(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F16 {
    type Output = F16;
    fn sub(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = F16;
    fn mul(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = F16;
    fn div(self, rhs: Self) -> Self {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    fn neg(self) -> Self {
        F16(self.0 ^ 0x8000)
    }
}

impl AddAssign for F16 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = F16::from_f32(i as f32);
            assert_eq!(x.to_f32(), i as f32, "integer {i} should be exact");
        }
    }

    #[test]
    fn rounding_to_nearest_even() {
        // Above 2048 the f16 step is 2. 2049 lies exactly between 2048 and
        // 2050; the even mantissa (2048) wins.
        assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
        // 2051 lies exactly between 2050 and 2052; the even mantissa (2052).
        assert_eq!(F16::from_f32(2051.0).to_f32(), 2052.0);
        // Non-halfway values round to nearest.
        assert_eq!(F16::from_f32(2050.9).to_f32(), 2050.0);
        assert_eq!(F16::from_f32(2051.1).to_f32(), 2052.0);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(1e6).0, F16::INFINITY.0);
        assert_eq!(F16::from_f32(-1e6).0, F16::NEG_INFINITY.0);
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        let sub = 3.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).to_f32(), 0.0);
    }

    #[test]
    fn nan_propagates() {
        let nan = F16::from_f32(f32::NAN);
        assert!((nan.0 & 0x7C00) == 0x7C00 && (nan.0 & 0x03FF) != 0);
        assert!(nan.to_f32().is_nan());
    }

    #[test]
    fn negation_flips_sign_bit_only() {
        let x = F16::from_f32(1.5);
        assert_eq!((-x).to_f32(), -1.5);
        assert_eq!((-(-x)).to_f32(), 1.5);
    }

    #[test]
    fn all_bit_patterns_roundtrip_through_f32() {
        // Exhaustive: every finite f16 converts to f32 and back unchanged.
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if h.to_f32().is_nan() {
                assert!(F16::from_f32(h.to_f32()).to_f32().is_nan());
            } else {
                let back = F16::from_f32(h.to_f32());
                assert_eq!(back.0, bits, "bits {bits:#06x} failed roundtrip");
            }
        }
    }

    #[test]
    fn arithmetic_matches_f32_then_round() {
        let a = F16::from_f32(0.1);
        let b = F16::from_f32(0.2);
        let sum = a + b;
        assert_eq!(
            sum.to_f32(),
            F16::from_f32(a.to_f32() + b.to_f32()).to_f32()
        );
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(F16::ONE.to_string(), "1");
    }

    #[test]
    fn slice_kernels_match_elementwise_bitwise() {
        // Lengths straddling the 8-wide lane boundary, including 0 and
        // remainders of every size.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 100] {
            let src: Vec<f32> = (0..len)
                .map(|i| (i as f32 - 31.5) * 0.37 + 1.0 / (i as f32 + 1.0))
                .collect();
            let mut batched = Vec::new();
            F16::quantize_slice(&src, &mut batched);
            assert_eq!(batched.len(), len);
            for (i, (&b, &v)) in batched.iter().zip(&src).enumerate() {
                assert_eq!(b.0, F16::from_f32(v).0, "len {len} idx {i}");
            }
        }
    }

    #[test]
    fn slice_kernels_append_without_clearing() {
        let mut dst = vec![F16::ONE];
        F16::quantize_slice(&[2.0, 3.0], &mut dst);
        assert_eq!(dst.len(), 3);
        assert_eq!(dst[0].to_f32(), 1.0);
        assert_eq!(dst[2].to_f32(), 3.0);
    }
}

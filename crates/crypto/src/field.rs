//! Arithmetic in GF(2²⁵⁵ − 19), the base field of Curve25519/Ed25519.
//!
//! Elements are stored as five 51-bit limbs (radix 2⁵¹), the classic
//! ref10/donna representation: products of weakly-reduced limbs fit
//! comfortably in `u128`, and the modulus folds the overflow of limb 4
//! back into limb 0 multiplied by 19.

/// Deterministic per-thread field-operation counters, compiled in only
/// under the `op-count` feature. The CI perf gate uses these to prove —
/// without a stopwatch — that a signature verify performs ≥5× fewer
/// field multiplications than the seed double-and-add path did.
///
/// Accounting convention: `muls` counts calls to [`Fe::mul`] only;
/// `squares` counts calls to [`Fe::square`]. The seed code routed
/// squarings and small-constant scalings through `Fe::mul`, so its
/// whole cost shows up in `muls`; the rebuilt core reports the M/S
/// split honestly (see DESIGN.md §8).
#[cfg(any(test, feature = "op-count"))]
pub mod opcount {
    use std::cell::Cell;

    thread_local! {
        static MULS: Cell<u64> = const { Cell::new(0) };
        static SQUARES: Cell<u64> = const { Cell::new(0) };
    }

    /// Zero both counters for the current thread.
    pub fn reset() {
        MULS.with(|c| c.set(0));
        SQUARES.with(|c| c.set(0));
    }

    /// Field multiplications (`Fe::mul`) on this thread since [`reset`].
    #[must_use]
    pub fn muls() -> u64 {
        MULS.with(Cell::get)
    }

    /// Field squarings (`Fe::square`) on this thread since [`reset`].
    #[must_use]
    pub fn squares() -> u64 {
        SQUARES.with(Cell::get)
    }

    pub(crate) fn record_mul() {
        MULS.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn record_square() {
        SQUARES.with(|c| c.set(c.get() + 1));
    }
}

/// A field element of GF(2²⁵⁵ − 19) in radix-2⁵¹ representation.
///
/// Limb-bound contract (the donna/dalek one; table in DESIGN.md §8):
///
/// * **carried** — every limb below 2⁵² — is what `from_bytes`,
///   `from_u64`, `sub`, `neg`, `mul`, `square` and `mul_small` return;
/// * [`Fe::add`] does **not** carry: its result's limbs are the plain sums
///   of its operands' limbs;
/// * `mul`, `square`, `sub` and `neg` accept operands with limbs up to
///   [`LAZY_LIMB_MAX`] = 2⁵⁴ — three chained `add`s of carried values —
///   and `debug_assert` it; `mul_small` and everything that goes through
///   `to_bytes` (`is_zero`, `is_odd`, `equals`, `==`) accept any limbs.
///
/// Nothing in this crate chains more than two `add`s before one of the
/// carrying operations (`d.add(c)` with `d = z.add(z)` in the point
/// additions is the deepest).
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

const MASK51: u64 = (1u64 << 51) - 1;

/// Largest limb `mul`/`square`/`sub`/`neg` accept. With limbs ≤ 2⁵⁴ the
/// ×19 pre-scaling fits `u64` (19·2⁵⁴ < 2⁵⁹), every column sum of five
/// such products fits `u128` (5·2⁵⁴·2⁵⁹ < 2¹¹⁶), the carry out of the
/// un-scaled top column is below 2⁶⁰ so its 19-fold fits `u64`, and
/// `16p − rhs` cannot go negative limb-wise (16·(2⁵¹ − 19) > 2⁵⁴).
const LAZY_LIMB_MAX: u64 = 1 << 54;

#[allow(clippy::should_implement_trait)] // `add`/`sub`/`mul`/`neg` mirror
                                         // the ref10 field API; operator traits would hide the reduction contract.
impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Construct from a small integer.
    #[must_use]
    pub fn from_u64(v: u64) -> Fe {
        let mut fe = Fe([0; 5]);
        fe.0[0] = v & MASK51;
        fe.0[1] = v >> 51;
        fe
    }

    /// Parse 32 little-endian bytes, masking the top bit (as both RFC 7748
    /// and RFC 8032 require).
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(buf)
        };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Serialize to 32 little-endian bytes with full (canonical) reduction.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_full();
        let mut out = [0u8; 32];
        // Pack 5 × 51 bits into 255 bits.
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in t.0.iter_mut() {
            acc |= u128::from(*limb) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        if idx < 32 {
            out[idx] = (acc & 0xff) as u8;
        }
        out
    }

    /// Carry-propagate once so every limb ends below 2⁵² (weak
    /// reduction); folds the limb-4 carry back into limb 0 multiplied by 19.
    ///
    /// A single pass suffices for the one caller, `sub`: its limbs are
    /// below 2⁵⁶, so the final carry is at most 2⁵ and the 19-fold adds
    /// under 2¹⁰ to limb 0 — which the masking already left below 2⁵¹.
    #[inline]
    #[must_use]
    fn weak_reduce(mut self) -> Fe {
        let mut carry = 0u64;
        for limb in self.0.iter_mut() {
            let v = *limb + carry;
            *limb = v & MASK51;
            carry = v >> 51;
        }
        self.0[0] += carry * 19;
        self
    }

    /// True iff every limb is within the lazy-add bound the carrying
    /// operations accept (see the type-level contract).
    #[inline]
    fn within_lazy_bound(&self) -> bool {
        self.0.iter().all(|&l| l <= LAZY_LIMB_MAX)
    }

    /// Fully reduce into the canonical range [0, p).
    #[must_use]
    fn reduce_full(self) -> Fe {
        let mut t = self;
        // Carry until no fold is pending: each fold strictly decreases any
        // value ≥ 2²⁵⁵, so this terminates with all limbs < 2⁵¹.
        loop {
            let mut carry = 0u64;
            for limb in t.0.iter_mut() {
                let v = *limb + carry;
                *limb = v & MASK51;
                carry = v >> 51;
            }
            if carry == 0 {
                break;
            }
            t.0[0] += carry * 19;
        }
        // Now 0 ≤ t < 2²⁵⁵ = p + 19 < 2p: one conditional subtract of p.
        let p = [MASK51 - 18, MASK51, MASK51, MASK51, MASK51];
        let mut borrow: i128 = 0;
        let mut sub = [0u64; 5];
        for i in 0..5 {
            let d = i128::from(t.0[i]) - i128::from(p[i]) + borrow;
            if d < 0 {
                sub[i] = (d + (1i128 << 51)) as u64;
                borrow = -1;
            } else {
                sub[i] = d as u64;
                borrow = 0;
            }
        }
        if borrow == 0 {
            t.0 = sub;
        }
        t
    }

    /// Field addition **without a carry pass**: limbs are summed as they
    /// are. The result may feed `mul`/`square`/`sub`/`neg` as long as its
    /// limbs stay within 2⁵⁴ (see the type-level contract).
    #[inline]
    #[must_use]
    pub fn add(self, rhs: Fe) -> Fe {
        Fe(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }

    /// Field subtraction; carries, so the result's limbs are below 2⁵².
    #[inline]
    #[must_use]
    pub fn sub(self, rhs: Fe) -> Fe {
        debug_assert!(self.within_lazy_bound() && rhs.within_lazy_bound());
        // Add 16p before subtracting so limbs never go negative, even
        // for an un-carried `rhs`.
        const P16: [u64; 5] = [
            16 * (MASK51 - 18),
            16 * MASK51,
            16 * MASK51,
            16 * MASK51,
            16 * MASK51,
        ];
        Fe(std::array::from_fn(|i| self.0[i] + P16[i] - rhs.0[i])).weak_reduce()
    }

    /// Field negation.
    #[inline]
    #[must_use]
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Shared tail of `mul` and `square`: carry five `u128` column sums
    /// (each below 2¹¹⁶, the top one below 2¹¹¹) down to limbs below 2⁵².
    #[inline(always)]
    fn carry_columns(t: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut carry = 0u64;
        for (limb, col) in out.iter_mut().zip(t) {
            let v = col + u128::from(carry);
            *limb = (v as u64) & MASK51;
            carry = (v >> 51) as u64;
        }
        // The top column holds no ×19 term, so its carry is below 2⁶⁰
        // and the fold stays inside u64; its spill into limb 1 is under
        // 2¹³, so the result is carried without another pass.
        out[0] += carry * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    /// Field multiplication.
    #[inline]
    #[must_use]
    pub fn mul(self, rhs: Fe) -> Fe {
        #[cfg(any(test, feature = "op-count"))]
        opcount::record_mul();
        debug_assert!(self.within_lazy_bound() && rhs.within_lazy_bound());
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);

        // Schoolbook with the 19-fold for limbs >= 5, the ×19 applied to
        // the 64-bit operand rather than the 128-bit sum.
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        Self::carry_columns([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// Field squaring.
    ///
    /// Dedicated formula (15 limb products instead of `mul`'s 25); the
    /// per-column integer sums are identical to `self.mul(self)`, so the
    /// carry chain produces bit-identical limbs.
    #[inline]
    #[must_use]
    pub fn square(self) -> Fe {
        #[cfg(any(test, feature = "op-count"))]
        opcount::record_square();
        debug_assert!(self.within_lazy_bound());
        let a = &self.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);

        // Doublings and ×19 on the 64-bit operands (2·19·2⁵⁴ < 2⁶⁰).
        let d0 = 2 * a[0];
        let d1 = 2 * a[1];
        let d2 = 2 * a[2];
        let d3 = 2 * a[3];
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        Self::carry_columns([
            m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19),
            m(d0, a[1]) + m(d2, a4_19) + m(a[3], a3_19),
            m(d0, a[2]) + m(a[1], a[1]) + m(d3, a4_19),
            m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19),
            m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]),
        ])
    }

    /// Multiply by a small constant.
    ///
    /// Per-limb scaling: with `k < 2³²` in limb 0 of a field element the
    /// schoolbook product degenerates to `t[i] = a[i]·k`, so this computes
    /// exactly the same column sums as `self.mul(Fe::from_u64(k))` did.
    /// Accepts any limbs (`a[i]·k` stays below 2⁹⁶); the result is carried.
    #[inline]
    #[must_use]
    pub fn mul_small(self, k: u32) -> Fe {
        let k = u128::from(k);
        let mut out = [0u64; 5];
        let mut carry: u128 = 0;
        for (limb, a) in out.iter_mut().zip(self.0) {
            let v = u128::from(a) * k + carry;
            *limb = (v as u64) & MASK51;
            carry = v >> 51;
        }
        let fold = carry * 19;
        let v = u128::from(out[0]) + fold;
        out[0] = (v as u64) & MASK51;
        out[1] += (v >> 51) as u64;
        // Weakly reduced by the same argument as `mul`.
        Fe(out)
    }

    /// Raise to an arbitrary 256-bit exponent given as 32 little-endian
    /// bytes (variable-time square-and-multiply; fine for this codebase).
    #[must_use]
    pub fn pow_bytes_le(self, exp: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        for byte in exp.iter().rev() {
            for bit in (0..8).rev() {
                result = result.square();
                if (byte >> bit) & 1 == 1 {
                    result = result.mul(self);
                }
            }
        }
        result
    }

    /// Shared prefix of the [`Fe::invert`] and [`Fe::pow_p58`] addition
    /// chains (ref10's `pow22501`): returns `(self^(2²⁵⁰−1), self^11)`
    /// in ~11 multiplications and 249 squarings.
    fn pow22501(self) -> (Fe, Fe) {
        let sq_n = |mut x: Fe, n: u32| {
            for _ in 0..n {
                x = x.square();
            }
            x
        };
        let t0 = self.square(); // 2
        let t1 = self.mul(sq_n(t0, 2)); // 9
        let z11 = t0.mul(t1); // 11
        let t1 = t1.mul(z11.square()); // 31 = 2^5 - 1
        let t1 = sq_n(t1, 5).mul(t1); // 2^10 - 1
        let t2 = sq_n(t1, 10).mul(t1); // 2^20 - 1
        let t3 = sq_n(t2, 20).mul(t2); // 2^40 - 1
        let t3 = sq_n(t3, 10).mul(t1); // 2^50 - 1
        let t4 = sq_n(t3, 50).mul(t3); // 2^100 - 1
        let t5 = sq_n(t4, 100).mul(t4); // 2^200 - 1
        let t5 = sq_n(t5, 50).mul(t3); // 2^250 - 1
        (t5, z11)
    }

    /// Multiplicative inverse via Fermat: x^(p−2), computed with the
    /// standard addition chain (~254 squarings + 12 multiplications; the
    /// seed's generic square-and-multiply burned ~507 `Fe::mul` calls).
    #[must_use]
    pub fn invert(self) -> Fe {
        // p - 2 = 2^255 - 21 = (2^250 - 1)·2^5 + 11.
        let (t, z11) = self.pow22501();
        let mut t = t;
        for _ in 0..5 {
            t = t.square();
        }
        t.mul(z11)
    }

    /// Invert every element in place with Montgomery's trick: one real
    /// inversion plus three multiplications per element, instead of one
    /// ~254-squaring addition chain each.
    ///
    /// Zero elements stay zero — exactly what [`Fe::invert`] returns for
    /// zero (Fermat: 0^(p−2) = 0) — so the results are value-identical
    /// to inverting each element individually, and `to_bytes` of each
    /// result is byte-identical.
    pub fn batch_invert(elems: &mut [Fe]) {
        // Prefix products over the nonzero elements: prefix[i] is the
        // product of all nonzero elems[..i].
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = Fe::ONE;
        for e in elems.iter() {
            prefix.push(acc);
            if !e.is_zero() {
                acc = acc.mul(*e);
            }
        }
        // One real inversion of the grand product, then walk backwards
        // peeling one element off per step.
        let mut inv = acc.invert();
        for (e, p) in elems.iter_mut().zip(prefix.iter()).rev() {
            if e.is_zero() {
                continue;
            }
            let e_inv = inv.mul(*p);
            inv = inv.mul(*e);
            *e = e_inv;
        }
    }

    /// x^((p−5)/8) = x^(2²⁵² − 3), used in Ed25519 point decompression,
    /// via the same addition chain: (2²⁵⁰ − 1)·4 + 1.
    #[must_use]
    pub fn pow_p58(self) -> Fe {
        let (t, _) = self.pow22501();
        t.square().square().mul(self)
    }

    /// True iff this element reduces to zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// True iff the canonical encoding is odd (bit 0 of byte 0).
    #[must_use]
    pub fn is_odd(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Canonical equality.
    #[must_use]
    pub fn equals(self, rhs: Fe) -> bool {
        self.to_bytes() == rhs.to_bytes()
    }

    /// √−1 mod p, computed once as 2^((p−1)/4) and cached (it costs a
    /// 255-bit exponentiation).
    #[must_use]
    pub fn sqrt_m1() -> Fe {
        static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| {
            // (p - 1) / 4 = 2^253 - 5 -> LE bytes: 0xfb, 0xff × 30, 0x1f.
            let mut exp = [0xffu8; 32];
            exp[0] = 0xfb;
            exp[31] = 0x1f;
            Fe::from_u64(2).pow_bytes_le(&exp)
        })
    }

    /// The Edwards curve constant d = −121665/121666 mod p, computed once
    /// and cached (the division is a full field inversion).
    #[must_use]
    pub fn edwards_d() -> Fe {
        static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| {
            Fe::from_u64(121665)
                .neg()
                .mul(Fe::from_u64(121666).invert())
        })
    }

    /// 2·d, cached (used by every point addition).
    #[must_use]
    pub fn edwards_2d() -> Fe {
        static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| Fe::edwards_d().add(Fe::edwards_d()))
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.equals(*other)
    }
}
impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe_from_u64s(a: u64, b: u64) -> Fe {
        Fe::from_u64(a)
            .mul(Fe::from_u64(1 << 32))
            .add(Fe::from_u64(b))
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Fe::ONE.mul(Fe::ONE), Fe::ONE);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Fe::from_u64(123456789);
        let b = Fe::from_u64(987654321);
        assert_eq!(a.add(b).sub(b), a);
    }

    #[test]
    fn invert_small() {
        let a = Fe::from_u64(7);
        assert_eq!(a.mul(a.invert()), Fe::ONE);
    }

    #[test]
    fn batch_invert_matches_individual() {
        // Mixed batch: small values, a large value, zero, and one — the
        // batch results must be byte-identical to element-wise invert().
        let mut elems = vec![
            Fe::from_u64(7),
            Fe::ZERO,
            fe_from_u64s(0xdead_beef, 0x1234_5678),
            Fe::ONE,
            Fe::from_u64(2).neg(),
            Fe::ZERO,
        ];
        let expected: Vec<[u8; 32]> = elems.iter().map(|e| e.invert().to_bytes()).collect();
        Fe::batch_invert(&mut elems);
        let got: Vec<[u8; 32]> = elems.iter().map(|e| e.to_bytes()).collect();
        assert_eq!(got, expected);
        // Degenerate sizes.
        Fe::batch_invert(&mut []);
        let mut one = [Fe::from_u64(3)];
        Fe::batch_invert(&mut one);
        assert_eq!(one[0].to_bytes(), Fe::from_u64(3).invert().to_bytes());
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 encoded little-endian.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = Fe::from_bytes(&p_bytes);
        assert!(p.is_zero());
    }

    #[test]
    fn p_plus_one_is_one() {
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xee;
        bytes[31] = 0x7f;
        assert_eq!(Fe::from_bytes(&bytes), Fe::ONE);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
    }

    #[test]
    fn edwards_d_satisfies_definition() {
        let d = Fe::edwards_d();
        // d * 121666 == -121665
        assert_eq!(d.mul(Fe::from_u64(121666)), Fe::from_u64(121665).neg());
    }

    #[test]
    fn bytes_roundtrip_canonical() {
        let a = fe_from_u64s(0xdead_beef, 0x1234_5678);
        let b = Fe::from_bytes(&a.to_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn neg_neg_is_identity() {
        let a = Fe::from_u64(42);
        assert_eq!(a.neg().neg(), a);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let x = Fe::from_u64(3);
        let mut exp = [0u8; 32];
        exp[0] = 13;
        let by_pow = x.pow_bytes_le(&exp);
        let mut by_mul = Fe::ONE;
        for _ in 0..13 {
            by_mul = by_mul.mul(x);
        }
        assert_eq!(by_pow, by_mul);
    }

    /// The canonical (fully reduced, hence carried) form of `x`: what an
    /// eager implementation would hold after every operation.
    fn eager(x: Fe) -> Fe {
        Fe::from_bytes(&x.to_bytes())
    }

    /// Every carrying operation on `lazy` (and on a second lazy operand)
    /// must produce the same field element as on the eagerly reduced
    /// values.
    fn assert_lazy_matches_eager(lazy: Fe, other: Fe) {
        let (l, o) = (eager(lazy), eager(other));
        assert_eq!(lazy.to_bytes(), l.to_bytes());
        assert_eq!(lazy.mul(other), l.mul(o));
        assert_eq!(other.mul(lazy), o.mul(l));
        assert_eq!(lazy.square(), l.square());
        assert_eq!(lazy.sub(other), l.sub(o));
        assert_eq!(other.sub(lazy), o.sub(l));
        assert_eq!(lazy.neg(), l.neg());
        assert_eq!(lazy.mul_small(121_665), l.mul_small(121_665));
        assert_eq!(lazy.is_zero(), l.is_zero());
        assert_eq!(lazy.is_odd(), l.is_odd());
        for out in [lazy.mul(other), lazy.square(), lazy.sub(other), lazy.neg()] {
            assert!(
                out.0.iter().all(|&limb| limb < 1 << 52),
                "result not carried"
            );
        }
    }

    #[test]
    fn limbs_at_the_lazy_bound_are_accepted() {
        let top = Fe([LAZY_LIMB_MAX; 5]);
        assert_lazy_matches_eager(top, top);
        assert_lazy_matches_eager(top, Fe::ONE);
        assert_lazy_matches_eager(Fe::ZERO, top);
        // Four carried operands with every limb at its maximum stay inside.
        let max_carried = Fe([(1 << 52) - 1; 5]);
        let chain = max_carried
            .add(max_carried)
            .add(max_carried)
            .add(max_carried);
        assert!(chain.within_lazy_bound());
        assert_lazy_matches_eager(chain, chain);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn limbs_past_the_lazy_bound_are_caught_in_debug_builds() {
        let _ = Fe([LAZY_LIMB_MAX + 1, 0, 0, 0, 0]).square();
    }

    proptest! {
        #[test]
        fn prop_lazy_add_chains_match_eager_reduction(
            operands in proptest::collection::vec(any::<[[u8; 32]; 2]>(), 1..5),
            other in proptest::collection::vec(any::<[[u8; 32]; 2]>(), 1..5),
        ) {
            // Carried operands as the code produces them: products and
            // differences, not just freshly parsed (< 2⁵¹) values.
            let carried = |[a, b]: &[[u8; 32]; 2], i: usize| {
                let (x, y) = (Fe::from_bytes(a), Fe::from_bytes(b));
                if i.is_multiple_of(2) { x.mul(y) } else { x.sub(y) }
            };
            let chain = |ops: &[[[u8; 32]; 2]]| {
                let mut lazy = carried(&ops[0], 0);
                let mut reference = eager(lazy);
                for (i, op) in ops.iter().enumerate().skip(1) {
                    let e = carried(op, i);
                    lazy = lazy.add(e);
                    reference = eager(reference.add(e));
                }
                (lazy, reference)
            };
            let (lazy, reference) = chain(&operands);
            let (lazy_other, _) = chain(&other);
            prop_assert!(lazy.within_lazy_bound());
            prop_assert_eq!(lazy, reference);
            assert_lazy_matches_eager(lazy, lazy_other);
        }

        #[test]
        fn prop_mul_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&a);
            let y = Fe::from_bytes(&b);
            prop_assert_eq!(x.mul(y), y.mul(x));
        }

        #[test]
        fn prop_distributive(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&a);
            let y = Fe::from_bytes(&b);
            let z = Fe::from_bytes(&c);
            prop_assert_eq!(x.mul(y.add(z)), x.mul(y).add(x.mul(z)));
        }

        #[test]
        fn prop_invert(a in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&a);
            prop_assume!(!x.is_zero());
            prop_assert_eq!(x.mul(x.invert()), Fe::ONE);
        }

        #[test]
        fn prop_square_matches_mul(a in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&a);
            prop_assert_eq!(x.square(), x.mul(x));
        }

        #[test]
        fn prop_addition_chains_match_generic_pow(a in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&a);
            let mut inv_exp = [0xffu8; 32];
            inv_exp[0] = 0xeb;
            inv_exp[31] = 0x7f;
            prop_assert_eq!(x.invert(), x.pow_bytes_le(&inv_exp));
            let mut p58_exp = [0xffu8; 32];
            p58_exp[0] = 0xfd;
            p58_exp[31] = 0x0f;
            prop_assert_eq!(x.pow_p58(), x.pow_bytes_le(&p58_exp));
        }

        #[test]
        fn prop_mul_small_matches_full_mul(a in any::<[u8; 32]>(), k in any::<u32>()) {
            let x = Fe::from_bytes(&a);
            prop_assert_eq!(x.mul_small(k), x.mul(Fe::from_u64(u64::from(k))));
        }

        #[test]
        fn prop_roundtrip(a in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&a);
            let y = Fe::from_bytes(&x.to_bytes());
            prop_assert_eq!(x, y);
        }
    }
}

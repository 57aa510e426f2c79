//! Precomputed-table scalar multiplication for the Ed25519 group.
//!
//! The seed implementation multiplied points with a schoolbook 256-bit
//! double-and-add (≈256 doublings + ≈128 additions **per scalar**, with
//! every squaring and small-constant scaling routed through a full field
//! multiplication). This module replaces that core with the standard
//! table-driven machinery — identical group math, so every compressed
//! point, signature, and shared secret stays bit-for-bit the same:
//!
//! * a radix-16 signed-digit **fixed-base table** (64 positions × 8 odd
//!   multiples, affine Niels form) serving key generation and the `r·B`
//!   of signing — 64 mixed additions, zero doublings;
//! * **w-NAF** recodings with cached-point (Niels) odd-multiple tables
//!   for variable bases (w = 5) and a static w = 8 odd-multiple table
//!   for the basepoint;
//! * a **Strauss–Shamir / multiscalar** ladder sharing one doubling
//!   chain across every term of `s·B + Σ kᵢ·Pᵢ`, which is what both
//!   single verification (`s·B − k·A =? R`) and batch verification run;
//! * a bounded FIFO **verifier-key cache** mapping compressed key bytes
//!   to ready-made odd-multiple tables of `−A`, so repeat verifiers skip
//!   both the `pow_p58` decompression and the table build.
//!
//! Everything here is variable-time, like the seed code it replaces (see
//! the crate-level security disclaimer).

use crate::ed25519::Point;
use crate::field::Fe;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// A precomputed point in affine Niels form: `(y+x, y−x, 2d·x·y)`.
///
/// Mixed addition against this form costs 7 field muls (the `Z2 = 1`
/// case of add-2008-hwcd-3).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// A precomputed point in projective Niels form:
/// `(Y+X, Y−X, Z, 2d·T)`. Addition against this form costs 8 field muls.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// A point without the extended `T` coordinate, used inside doubling
/// chains where `T` is only materialized on the doubling that feeds an
/// addition (saving one mul on every other doubling).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Projective {
    pub(crate) x: Fe,
    pub(crate) y: Fe,
    pub(crate) z: Fe,
}

impl Projective {
    fn identity() -> Projective {
        Projective {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
        }
    }

    fn from_point(p: &Point) -> Projective {
        Projective {
            x: p.x,
            y: p.y,
            z: p.z,
        }
    }

    /// dbl-2008-hwcd intermediates (E, F, G, H); the caller assembles
    /// whichever output coordinates it needs.
    fn double_efgh(&self) -> (Fe, Fe, Fe, Fe) {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
        let d = a.neg();
        let e = self.x.add(self.y).square().sub(a).sub(b);
        let g = d.add(b);
        let f = g.sub(c);
        let h = d.sub(b);
        (e, f, g, h)
    }

    /// Double without producing `T`: 3 muls + 4 squares.
    fn double(&self) -> Projective {
        let (e, f, g, h) = self.double_efgh();
        Projective {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
        }
    }

    /// Double producing the full extended point (4 muls + 4 squares);
    /// used on the doubling immediately before an addition, which needs
    /// `T` of the accumulator.
    fn double_with_t(&self) -> Point {
        let (e, f, g, h) = self.double_efgh();
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Projective equality against an extended point, cross-multiplied.
    #[cfg(test)]
    pub(crate) fn equals_point(&self, other: &Point) -> bool {
        self.x.mul(other.z).equals(other.x.mul(self.z))
            && self.y.mul(other.z).equals(other.y.mul(self.z))
    }

    /// True iff this is the group identity (0 : 1 : 1).
    pub(crate) fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.equals(self.z)
    }

    /// True iff `[8]·self` is the identity, i.e. `self` lies in the
    /// eight-element torsion subgroup: three T-free doublings.
    pub(crate) fn is_small_order(&self) -> bool {
        self.double().double().double().is_identity()
    }

    /// True iff `[8](self − q) = 𝒪`: equality up to a torsion point.
    /// Lifts `(X : Y : Z)` to extended `(XZ : YZ : Z² : XY)` for one
    /// cached subtraction, then clears the cofactor.
    pub(crate) fn equals_point_cofactored(&self, q: &Point) -> bool {
        let ext = Point {
            x: self.x.mul(self.z),
            y: self.y.mul(self.z),
            z: self.z.square(),
            t: self.x.mul(self.y),
        };
        Projective::from_point(&add_cached(&ext, &q.to_projective_niels(), true)).is_small_order()
    }
}

/// Mixed addition `p ± q` (add-2008-hwcd-3 with `Z2 = 1`): 7 muls.
fn add_affine(p: &Point, q: &AffineNiels, subtract: bool) -> Point {
    // Negating an affine point swaps (y+x, y−x) and negates xy2d; rather
    // than negate, fold the swap into the operand selection and flip the
    // sign of C in the F/G terms.
    let (q_plus, q_minus) = if subtract {
        (q.y_minus_x, q.y_plus_x)
    } else {
        (q.y_plus_x, q.y_minus_x)
    };
    let a = p.y.sub(p.x).mul(q_minus);
    let b = p.y.add(p.x).mul(q_plus);
    let c = p.t.mul(q.xy2d);
    let d = p.z.add(p.z);
    let e = b.sub(a);
    let (f, g) = if subtract {
        (d.add(c), d.sub(c))
    } else {
        (d.sub(c), d.add(c))
    };
    let h = b.add(a);
    Point {
        x: e.mul(f),
        y: g.mul(h),
        t: e.mul(h),
        z: f.mul(g),
    }
}

/// Cached-point addition `p ± q` (add-2008-hwcd-3): 8 muls.
fn add_cached(p: &Point, q: &ProjectiveNiels, subtract: bool) -> Point {
    let (q_plus, q_minus) = if subtract {
        (q.y_minus_x, q.y_plus_x)
    } else {
        (q.y_plus_x, q.y_minus_x)
    };
    let a = p.y.sub(p.x).mul(q_minus);
    let b = p.y.add(p.x).mul(q_plus);
    let c = p.t.mul(q.t2d);
    let zz = p.z.mul(q.z);
    let d = zz.add(zz);
    let e = b.sub(a);
    let (f, g) = if subtract {
        (d.add(c), d.sub(c))
    } else {
        (d.sub(c), d.add(c))
    };
    let h = b.add(a);
    Point {
        x: e.mul(f),
        y: g.mul(h),
        t: e.mul(h),
        z: f.mul(g),
    }
}

impl Point {
    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(Fe::edwards_2d()),
        }
    }

    fn to_affine_niels(self) -> AffineNiels {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        AffineNiels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(Fe::edwards_2d()),
        }
    }
}

/// Build the odd-multiple table `[P, 3P, 5P, …, 15P]` (w = 5 w-NAF) for
/// a variable base: 1 cached conversion + 1 doubling + 7 cached adds.
pub(crate) fn odd_multiples(p: &Point) -> [ProjectiveNiels; 8] {
    let p2 = Projective::from_point(p).double_with_t();
    let mut table = [p.to_projective_niels(); 8];
    let mut prev = table[0];
    for slot in table.iter_mut().skip(1) {
        prev = add_cached(&p2, &prev, false).to_projective_niels();
        *slot = prev;
    }
    table
}

/// The signed radix-256 fixed-base table: `table[i][j] = (j+1)·256^i·B`
/// in affine Niels form, 32 positions × 128 multiples (~490 KiB). Built
/// once per process; halves the mixed additions of the former radix-16
/// table (32 vs 64) at the cost of a bigger, still-static table.
fn basepoint_radix256_table() -> &'static [[AffineNiels; 128]; 32] {
    static CACHE: OnceLock<Box<[[AffineNiels; 128]; 32]>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut table = vec![[Point::base().to_affine_niels(); 128]; 32];
        let mut pow256 = Point::base();
        for row in table.iter_mut() {
            let mut multiple = pow256;
            let cached = pow256.to_projective_niels();
            for slot in row.iter_mut() {
                *slot = multiple.to_affine_niels();
                multiple = add_cached(&multiple, &cached, false);
            }
            for _ in 0..8 {
                pow256 = Projective::from_point(&pow256).double_with_t();
            }
        }
        let boxed: Box<[[AffineNiels; 128]; 32]> =
            table.into_boxed_slice().try_into().expect("32 rows");
        boxed
    })
}

/// Static w = 8 odd-multiple basepoint table `[B, 3B, …, 127B]` in
/// affine Niels form, for the fixed-base half of Strauss–Shamir.
fn basepoint_naf_table() -> &'static [AffineNiels; 64] {
    static CACHE: OnceLock<Box<[AffineNiels; 64]>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let b = Point::base();
        let b2 = Projective::from_point(&b)
            .double_with_t()
            .to_projective_niels();
        let mut table = Vec::with_capacity(64);
        let mut multiple = b;
        table.push(multiple.to_affine_niels());
        for _ in 1..64 {
            multiple = add_cached(&multiple, &b2, false);
            table.push(multiple.to_affine_niels());
        }
        let boxed: Box<[AffineNiels; 64]> = table.into_boxed_slice().try_into().expect("64 odd");
        boxed
    })
}

/// Recode a little-endian scalar `< 2²⁵⁵` into 64 signed radix-16
/// digits in `[−8, 8]` (the final digit absorbs the last carry).
fn radix16_digits(scalar: &[u8; 32]) -> [i8; 64] {
    debug_assert!(scalar[31] <= 0x7f, "fixed-base scalar must be < 2^255");
    let mut e = [0i8; 64];
    for (i, byte) in scalar.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    e
}

/// Recode a little-endian scalar `< 2²⁵⁵` into 32 signed radix-256
/// digits in `[−128, 128]` (no overflow digit: the top byte is ≤ 0x7f,
/// so the final carry is absorbed).
fn radix256_digits(scalar: &[u8; 32]) -> [i16; 32] {
    debug_assert!(scalar[31] <= 0x7f, "fixed-base scalar must be < 2^255");
    let mut e = [0i16; 32];
    let mut carry = 0i16;
    for (digit, byte) in e.iter_mut().zip(scalar.iter()) {
        let v = i16::from(*byte) + carry;
        if v > 128 {
            carry = 1;
            *digit = v - 256;
        } else {
            carry = 0;
            *digit = v;
        }
    }
    debug_assert_eq!(carry, 0);
    e
}

/// Fixed-base scalar multiplication `scalar·B` via the signed radix-256
/// table: at most 32 mixed additions, no doublings.
pub(crate) fn mul_base(scalar: &[u8; 32]) -> Point {
    let table = basepoint_radix256_table();
    let mut acc = Point::identity();
    for (digit, row) in radix256_digits(scalar).iter().zip(table.iter()) {
        if *digit > 0 {
            acc = add_affine(&acc, &row[(*digit - 1) as usize], false);
        } else if *digit < 0 {
            acc = add_affine(&acc, &row[(-*digit - 1) as usize], true);
        }
    }
    acc
}

/// Width-`w` non-adjacent form of a little-endian scalar `< 2²⁵³`:
/// at each nonzero position an odd digit with `|d| < 2^(w−1)`.
fn non_adjacent_form(scalar: &[u8; 32], w: u32) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    debug_assert!(scalar[31] <= 0x1f, "w-NAF scalar must be < 2^253");
    let mut limbs = [0u64; 5]; // fifth limb: zero sentinel for window reads
    for (i, chunk) in scalar.chunks_exact(8).enumerate() {
        limbs[i] = u64::from_le_bytes(chunk.try_into().unwrap());
    }
    let width = 1u64 << w;
    let window_mask = width - 1;
    let mut naf = [0i8; 256];
    let mut pos = 0usize;
    let mut carry = 0u64;
    while pos < 256 {
        let idx = pos / 64;
        let shift = pos % 64;
        let bit_buf = if shift <= 64 - w as usize {
            limbs[idx] >> shift
        } else {
            (limbs[idx] >> shift) | (limbs[idx + 1] << (64 - shift))
        };
        let window = carry + (bit_buf & window_mask);
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = window.wrapping_sub(width) as i8;
        }
        pos += w as usize;
    }
    naf
}

/// Variable-time multiscalar multiplication
/// `base_scalar·B + Σ scalarᵢ·Pᵢ` with one shared doubling chain:
/// the basepoint term runs width-8 NAF against the static affine table,
/// each dynamic term width-5 NAF against its cached odd-multiple table.
///
/// All scalars must be reduced (`< 2²⁵³`, i.e. below the group order).
pub(crate) fn multiscalar_mul_vartime(
    base_scalar: &[u8; 32],
    terms: &[([u8; 32], &[ProjectiveNiels; 8])],
) -> Projective {
    let base_naf = non_adjacent_form(base_scalar, 8);
    let term_nafs: Vec<[i8; 256]> = terms.iter().map(|(s, _)| non_adjacent_form(s, 5)).collect();

    let mut top = None;
    for i in (0..256).rev() {
        if base_naf[i] != 0 || term_nafs.iter().any(|n| n[i] != 0) {
            top = Some(i);
            break;
        }
    }
    let Some(top) = top else {
        return Projective::identity();
    };

    let base_table = basepoint_naf_table();
    let mut acc = Projective::identity();
    for i in (0..=top).rev() {
        let digit_here = base_naf[i] != 0 || term_nafs.iter().any(|n| n[i] != 0);
        if !digit_here {
            acc = acc.double();
            continue;
        }
        let mut ext = acc.double_with_t();
        let d = base_naf[i];
        if d > 0 {
            ext = add_affine(&ext, &base_table[(d / 2) as usize], false);
        } else if d < 0 {
            ext = add_affine(&ext, &base_table[(-d / 2) as usize], true);
        }
        for (naf, (_, table)) in term_nafs.iter().zip(terms.iter()) {
            let d = naf[i];
            if d > 0 {
                ext = add_cached(&ext, &table[(d / 2) as usize], false);
            } else if d < 0 {
                ext = add_cached(&ext, &table[(-d / 2) as usize], true);
            }
        }
        acc = Projective::from_point(&ext);
    }
    acc
}

/// Ready-to-use verification tables for one public key: the odd
/// multiples of `−A`, so `verify` can evaluate `s·B + k·(−A)` directly.
pub(crate) struct VerifierTables {
    pub(crate) neg_a: [ProjectiveNiels; 8],
}

impl VerifierTables {
    pub(crate) fn build(a: &Point) -> VerifierTables {
        let neg = Point {
            x: a.x.neg(),
            y: a.y,
            z: a.z,
            t: a.t.neg(),
        };
        VerifierTables {
            neg_a: odd_multiples(&neg),
        }
    }
}

/// FIFO-bounded cache of [`VerifierTables`] keyed on compressed key
/// bytes. Entries are immutable (a compressed encoding fully determines
/// the point), so invalidation is only ever capacity eviction: when the
/// cache is full the oldest insertion is dropped. Only keys that
/// decompressed successfully are inserted.
struct KeyCache {
    map: HashMap<[u8; 32], Arc<VerifierTables>>,
    order: VecDeque<[u8; 32]>,
}

/// Capacity of the global verifier-key cache. The simulation's working
/// set is one key per principal (UEs dominate: ≈1k at the largest swept
/// scale), so 4096 keeps every hot key resident while bounding memory
/// to ~4 MiB worst-case.
const KEY_CACHE_CAP: usize = 4096;

/// Lock stripes per process-global cache. At W ≥ 2 the broker core
/// splits each batch's verification across W threads, each hammering
/// the same caches; a single mutex would serialize exactly the phase
/// the split exists to parallelize. Striping by a uniformly-distributed key byte keeps
/// contention ~1/8th while preserving the lookup contract: a given key
/// always lands on the same stripe, so hit/miss behavior is unchanged;
/// only eviction order differs (per-stripe FIFO, same total capacity).
const CACHE_STRIPES: usize = 8;

/// Stripe index from a uniformly-distributed key byte (compressed
/// points, signature bytes, and hashes all qualify).
fn stripe_of(byte: u8) -> usize {
    byte as usize & (CACHE_STRIPES - 1)
}

fn key_cache() -> &'static [Mutex<KeyCache>; CACHE_STRIPES] {
    static CACHE: OnceLock<[Mutex<KeyCache>; CACHE_STRIPES]> = OnceLock::new();
    CACHE.get_or_init(|| {
        std::array::from_fn(|_| {
            Mutex::new(KeyCache {
                map: HashMap::new(),
                order: VecDeque::new(),
            })
        })
    })
}

// ----- Repeated-recipient X25519 acceleration -----

/// Signed-digit table for an arbitrary (repeated) base point — the same
/// structure as the static basepoint tables, built at runtime for a peer
/// point that keeps coming back (a sealed-box recipient key). Two tiers:
///
/// * `R16` — radix-16 projective Niels rows (`rows[i][j] = (j+1)·16ⁱ·P`,
///   ~80 KiB, ~150 µs build): what a repeated peer gets once it has
///   paid about one build in ladder runs ([`DH_ADMIT_SIGHTINGS`]). One
///   multiplication is 64 cached additions, zero doublings, versus the
///   ~255-step Montgomery ladder.
/// * `R256` — radix-256 affine Niels rows (~490 KiB, ~3 ms build): the
///   basepoint treatment, earned only by *hot* peers
///   ([`DH_PROMOTE_HITS`]) whose remaining traffic amortizes the build.
///   One multiplication is 32 mixed additions.
pub(crate) enum DhTable {
    R16(Box<[[ProjectiveNiels; 8]; 64]>),
    R256(Box<[[AffineNiels; 128]; 32]>),
}

fn dh_table_build(p: &Point) -> DhTable {
    let mut rows = vec![[p.to_projective_niels(); 8]; 64];
    let mut pow16 = *p;
    for row in rows.iter_mut() {
        let cached = pow16.to_projective_niels();
        let mut multiple = pow16;
        for slot in row.iter_mut() {
            *slot = multiple.to_projective_niels();
            multiple = add_cached(&multiple, &cached, false);
        }
        for _ in 0..4 {
            pow16 = Projective::from_point(&pow16).double_with_t();
        }
    }
    let rows: Box<[[ProjectiveNiels; 8]; 64]> =
        rows.into_boxed_slice().try_into().expect("64 rows");
    DhTable::R16(rows)
}

/// Build the hot-peer radix-256 tier. The 4096 entries are generated
/// projectively and normalized to affine with **one** real inversion
/// via [`Fe::batch_invert`] — entry values are identical to a per-entry
/// `to_affine_niels` (the field inverse is unique), just ~4000
/// inversions cheaper.
fn dh_table_build_r256(p: &Point) -> DhTable {
    let mut points = Vec::with_capacity(32 * 128);
    let mut pow256 = *p;
    for _ in 0..32 {
        let cached = pow256.to_projective_niels();
        let mut multiple = pow256;
        for _ in 0..128 {
            points.push(multiple);
            multiple = add_cached(&multiple, &cached, false);
        }
        for _ in 0..8 {
            pow256 = Projective::from_point(&pow256).double_with_t();
        }
    }
    let mut zs: Vec<Fe> = points.iter().map(|pt| pt.z).collect();
    Fe::batch_invert(&mut zs);
    let affine: Vec<AffineNiels> = points
        .iter()
        .zip(&zs)
        .map(|(pt, zinv)| {
            let x = pt.x.mul(*zinv);
            let y = pt.y.mul(*zinv);
            AffineNiels {
                y_plus_x: y.add(x),
                y_minus_x: y.sub(x),
                xy2d: x.mul(y).mul(Fe::edwards_2d()),
            }
        })
        .collect();
    let rows: Vec<[AffineNiels; 128]> = affine
        .chunks_exact(128)
        .map(|chunk| <[AffineNiels; 128]>::try_from(chunk).expect("128 entries"))
        .collect();
    let rows: Box<[[AffineNiels; 128]; 32]> = rows.into_boxed_slice().try_into().expect("32 rows");
    DhTable::R256(rows)
}

/// `scalar·P` through a [`DhTable`]: 64 cached additions (`R16`) or 32
/// mixed additions (`R256`). The scalar must be below 2²⁵⁵ (clamped
/// X25519 scalars are). Both tiers walk the same group elements up to
/// representation, so the projective fraction a caller derives from the
/// result is the same field element either way.
pub(crate) fn mul_dh_table(scalar: &[u8; 32], table: &DhTable) -> Point {
    match table {
        DhTable::R16(rows) => {
            let mut acc = Point::identity();
            for (digit, row) in radix16_digits(scalar).iter().zip(rows.iter()) {
                if *digit > 0 {
                    acc = add_cached(&acc, &row[(*digit - 1) as usize], false);
                } else if *digit < 0 {
                    acc = add_cached(&acc, &row[(-*digit - 1) as usize], true);
                }
            }
            acc
        }
        DhTable::R256(rows) => {
            let mut acc = Point::identity();
            for (digit, row) in radix256_digits(scalar).iter().zip(rows.iter()) {
                if *digit > 0 {
                    acc = add_affine(&acc, &row[(*digit - 1) as usize], false);
                } else if *digit < 0 {
                    acc = add_affine(&acc, &row[(-*digit - 1) as usize], true);
                }
            }
            acc
        }
    }
}

/// Map a Montgomery u-coordinate to the corresponding Edwards point via
/// the birational equivalence `y = (u−1)/(u+1)` (sign of x immaterial:
/// `±P` share every scalar multiple's u-coordinate). `None` when the
/// u-coordinate has no curve point — `u = −1`, or a point of the
/// quadratic twist — in which case callers stay on the ladder, which
/// handles both.
fn edwards_from_montgomery_u(u_bytes: &[u8; 32]) -> Option<Point> {
    let u = Fe::from_bytes(u_bytes); // masks bit 255, like the ladder
    let denom = u.add(Fe::ONE);
    if denom.is_zero() {
        return None;
    }
    let y = u.sub(Fe::ONE).mul(denom.invert());
    Point::decompress(&y.to_bytes())
}

/// How a peer u-coordinate is currently classified by the DH cache.
enum DhState {
    /// On the curve, table built: take the fast path. `hits` counts
    /// multiplications served, driving the R16 → R256 promotion;
    /// `recent` is the second-chance bit eviction consults.
    Table {
        table: Arc<DhTable>,
        hits: u32,
        recent: bool,
    },
    /// `u = −1` or a twist point: permanently ladder.
    Unsupported,
}

impl DhState {
    fn table(&self) -> Option<Arc<DhTable>> {
        match self {
            DhState::Table { table, .. } => Some(Arc::clone(table)),
            DhState::Unsupported => None,
        }
    }
}

/// One lock stripe of the DH cache: the sighting counts of peers still
/// on the ladder, and the built tables in second-chance (CLOCK) order.
struct DhCache {
    /// Ladder runs paid so far by peers without a table, inside a FIFO
    /// window: one-shot ephemeral keys (every sealed-box `open`) churn
    /// through here without ever reaching [`DH_ADMIT_SIGHTINGS`].
    seen: HashMap<[u8; 32], u8>,
    seen_order: VecDeque<[u8; 32]>,
    tables: HashMap<[u8; 32], DhState>,
    table_order: VecDeque<[u8; 32]>,
    /// R256 tables resident or being built, bounded by this stripe's
    /// share of [`DH_R256_CAP`].
    promoted: usize,
}

/// What [`DhCache::lookup`] asks of its caller. The builds happen with
/// the stripe unlocked (150 µs and 3 ms are long enough to stall every
/// other worker whose peer hashes here) and are handed back through
/// [`DhCache::install`] / [`DhCache::finish_promotion`].
enum DhLookup {
    Use(Arc<DhTable>),
    Ladder,
    /// The peer just paid its [`DH_ADMIT_SIGHTINGS`]-th ladder run.
    Admit,
    /// The peer earned the R256 tier and a slot is reserved for it.
    Promote,
}

/// Peers whose sightings are being counted. Entries are 33 bytes;
/// ephemeral keys churn through here without ever graduating to a table.
const DH_SEEN_CAP: usize = 8192;

/// Built tables (and twist verdicts). An R16 table is ~80 KiB, so this
/// bounds base-tier memory to ~20 MiB; the working set is one entry per
/// sealed-box recipient (broker + telcos + active UE population slice).
const DH_TABLE_CAP: usize = 256;

// Admission and promotion are ski-rental decisions: keep renting (the
// ladder, or the lower tier) until the rent paid equals the price of
// buying (the build), then buy — within 2× of the best offline choice
// whatever the peer does next. The prices, measured by the timing probe
// `dh_cache_costs` (in this file's tests at commit fbfdd4d, `git show
// fbfdd4d:crates/crypto/src/precomp.rs`; 2-core KVM guest, each in a hot
// loop, median of 8 runs):
//
//   ladder run            ≈  43 µs      R16 build   ≈ 155 µs
//   R16 multiplication    ≈  10 µs      R256 build  ≈ 2.1 ms (3.3 ms when
//   R256 multiplication   ≈ 4.6 µs                    its pages fault in)

/// Sightings (ladder runs inside the seen window) after which a peer's
/// R16 table is built: 155 µs of build ÷ 43 µs a ladder run ≈ 4 runs
/// paid, so the build happens on the 5th. The seed rule — build on the
/// second sighting — spent ≈ 17 µs per authorization on tables for
/// uniform-stream UEs that were evicted before a second use.
const DH_ADMIT_SIGHTINGS: u8 = 5;

/// Multiplications an R16 table serves between attempts to rebuild it as
/// R256: 2.1–3.3 ms of build ÷ ≈ 5.7 µs saved per use ≈ 370–580, rounded
/// up to 600 because the hot-loop saving flatters a 490 KiB table that
/// in service competes for cache with every other resident. Must move
/// together with the eviction rule: second-chance eviction keeps hot
/// tables resident, and promoting them at the seed's 48 hits filled
/// every R256 slot (+32 MB resident on the saturated wire workload).
const DH_PROMOTE_HITS: u32 = 600;

/// Resident R256 tables (~490 KiB each): bounds hot-tier memory to
/// ~47 MiB even if a pathological workload makes every peer hot.
const DH_R256_CAP: usize = 96;

impl DhCache {
    fn new() -> DhCache {
        DhCache {
            seen: HashMap::new(),
            seen_order: VecDeque::new(),
            tables: HashMap::new(),
            table_order: VecDeque::new(),
            promoted: 0,
        }
    }

    fn lookup(&mut self, u: &[u8; 32]) -> DhLookup {
        match self.tables.get_mut(u) {
            Some(DhState::Table {
                table,
                hits,
                recent,
            }) => {
                cellbricks_telemetry::counter("crypto.dhcache.hit").inc();
                *hits = hits.wrapping_add(1);
                *recent = true;
                if *hits % DH_PROMOTE_HITS == 0
                    && self.promoted < DH_R256_CAP / CACHE_STRIPES
                    && matches!(table.as_ref(), DhTable::R16(_))
                {
                    self.promoted += 1;
                    return DhLookup::Promote;
                }
                return DhLookup::Use(Arc::clone(table));
            }
            Some(DhState::Unsupported) => {
                cellbricks_telemetry::counter("crypto.dhcache.miss").inc();
                return DhLookup::Ladder;
            }
            None => {}
        }
        cellbricks_telemetry::counter("crypto.dhcache.miss").inc();
        let sightings = match self.seen.entry(*u) {
            Entry::Occupied(mut count) => {
                *count.get_mut() += 1;
                *count.get()
            }
            Entry::Vacant(slot) => {
                slot.insert(1);
                self.seen_order.push_back(*u);
                if self.seen_order.len() > DH_SEEN_CAP / CACHE_STRIPES {
                    if let Some(old) = self.seen_order.pop_front() {
                        self.seen.remove(&old);
                    }
                }
                1
            }
        };
        if sightings < DH_ADMIT_SIGHTINGS {
            return DhLookup::Ladder;
        }
        self.seen.remove(u);
        DhLookup::Admit
    }

    /// Insert the verdict built for an admitted peer and return the
    /// resident table. Re-checks first: another worker may have admitted
    /// the same peer while this one was building.
    fn install(&mut self, u: &[u8; 32], state: DhState) -> Option<Arc<DhTable>> {
        if let Some(resident) = self.tables.get(u) {
            return resident.table();
        }
        let out = state.table();
        self.tables.insert(*u, state);
        self.table_order.push_back(*u);
        if self.table_order.len() > DH_TABLE_CAP / CACHE_STRIPES {
            self.evict_one();
        }
        out
    }

    /// Second-chance eviction: a table hit since it last reached the
    /// front goes round again with its bit cleared, so a stream of
    /// newly admitted peers cannot push out the ones in steady use. One
    /// sweep clears every bit, so this terminates.
    fn evict_one(&mut self) {
        while let Some(old) = self.table_order.pop_front() {
            if let Some(DhState::Table { recent, .. }) = self.tables.get_mut(&old) {
                if *recent {
                    *recent = false;
                    self.table_order.push_back(old);
                    continue;
                }
            }
            if let Some(DhState::Table { table, .. }) = self.tables.remove(&old) {
                if matches!(table.as_ref(), DhTable::R256(_)) {
                    self.promoted -= 1;
                }
            }
            return;
        }
    }

    /// Swap in the R256 table built for a [`DhLookup::Promote`], or give
    /// the reserved slot back if the peer was evicted (or promoted by
    /// another worker) meanwhile.
    fn finish_promotion(&mut self, u: &[u8; 32], r256: &Arc<DhTable>) {
        match self.tables.get_mut(u) {
            Some(DhState::Table { table, .. }) if matches!(table.as_ref(), DhTable::R16(_)) => {
                *table = Arc::clone(r256);
            }
            _ => self.promoted -= 1,
        }
    }
}

fn dh_cache() -> &'static [Mutex<DhCache>; CACHE_STRIPES] {
    static CACHE: OnceLock<[Mutex<DhCache>; CACHE_STRIPES]> = OnceLock::new();
    CACHE.get_or_init(|| std::array::from_fn(|_| Mutex::new(DhCache::new())))
}

/// Fetch the table for a repeated DH peer, building it when the peer
/// has earned one (see [`DH_ADMIT_SIGHTINGS`], [`DH_PROMOTE_HITS`]).
/// `None` means "use the Montgomery ladder": the peer is new, has not
/// repeated enough yet, or is not on the curve.
pub(crate) fn dh_accel(u: &[u8; 32]) -> Option<Arc<DhTable>> {
    dh_accel_in(&dh_cache()[stripe_of(u[0])], u)
}

/// [`dh_accel`] against one stripe; tables are built with it unlocked.
fn dh_accel_in(stripe: &Mutex<DhCache>, u: &[u8; 32]) -> Option<Arc<DhTable>> {
    let locked = || stripe.lock().expect("dh cache poisoned");
    let step = locked().lookup(u);
    match step {
        DhLookup::Use(table) => Some(table),
        DhLookup::Ladder => None,
        DhLookup::Admit => {
            let state = match edwards_from_montgomery_u(u) {
                Some(p) => {
                    cellbricks_telemetry::counter("crypto.dhcache.build").inc();
                    DhState::Table {
                        table: Arc::new(dh_table_build(&p)),
                        hits: 0,
                        recent: true,
                    }
                }
                None => DhState::Unsupported,
            };
            locked().install(u, state)
        }
        DhLookup::Promote => {
            let p = edwards_from_montgomery_u(u)
                .expect("a peer with an R16 table mapped to the curve when it was built");
            cellbricks_telemetry::counter("crypto.dhcache.promote").inc();
            let r256 = Arc::new(dh_table_build_r256(&p));
            locked().finish_promotion(u, &r256);
            Some(r256)
        }
    }
}

// ----- Verifier-key cache -----

/// Look up cached verifier tables for a compressed key.
pub(crate) fn key_cache_get(key: &[u8; 32]) -> Option<Arc<VerifierTables>> {
    let cache = key_cache()[stripe_of(key[0])]
        .lock()
        .expect("key cache poisoned");
    let hit = cache.map.get(key).cloned();
    if hit.is_some() {
        cellbricks_telemetry::counter("crypto.keycache.hit").inc();
    } else {
        cellbricks_telemetry::counter("crypto.keycache.miss").inc();
    }
    hit
}

/// Insert verifier tables for a compressed key, evicting FIFO at the
/// stripe's share of the cap.
pub(crate) fn key_cache_put(key: [u8; 32], tables: Arc<VerifierTables>) {
    let mut cache = key_cache()[stripe_of(key[0])]
        .lock()
        .expect("key cache poisoned");
    if cache.map.insert(key, tables).is_none() {
        cache.order.push_back(key);
        if cache.order.len() > KEY_CACHE_CAP / CACHE_STRIPES {
            if let Some(evicted) = cache.order.pop_front() {
                cache.map.remove(&evicted);
            }
        }
    }
}

// ----- Verified-signature memo -----

/// Memo key for one verification instance: `key ‖ sig ‖ SHA-512(msg)`.
/// The triple fully determines accept/reject (the challenge scalar is
/// `H(R ‖ A ‖ msg)` and `R`, `s` are the signature halves), so a
/// remembered success can be replayed without touching the curve.
type SigMemoKey = [u8; 160];

struct SigMemo {
    map: HashMap<SigMemoKey, ()>,
    order: VecDeque<SigMemoKey>,
    /// Doorkeeper: fingerprints of triples that verified once, direct-
    /// mapped. A triple enters `map` on its *second* success, so the two
    /// one-shot request signatures of every authorization (fresh nonce,
    /// never seen again) cost 8 bytes here instead of a 160-byte entry
    /// that pushes a recurring certificate out of the FIFO. A collision
    /// only memoizes a verified triple one success early, or late.
    verified_once: Vec<u64>,
}

/// Capacity of the verified-signature memo. Entries are 160 bytes, so
/// this bounds memo memory to ~2.5 MiB. The hot set is the static
/// signatures that recur on every authentication — subscriber and telco
/// certificates — one entry per (certificate, signer) pair.
const SIG_MEMO_CAP: usize = 16384;

/// Doorkeeper slots per stripe (8 KiB): a recurring triple's second
/// success finds its fingerprint unless ~1 000 one-shot signatures
/// landed on the stripe in between.
const SIG_ONCE_SLOTS: usize = 1024;

fn sig_memo() -> &'static [Mutex<SigMemo>; CACHE_STRIPES] {
    static CACHE: OnceLock<[Mutex<SigMemo>; CACHE_STRIPES]> = OnceLock::new();
    CACHE.get_or_init(|| {
        std::array::from_fn(|_| {
            Mutex::new(SigMemo {
                map: HashMap::new(),
                order: VecDeque::new(),
                verified_once: vec![0; SIG_ONCE_SLOTS],
            })
        })
    })
}

fn sig_memo_key(key: &[u8; 32], sig: &[u8; 64], msg_hash: &[u8; 64]) -> SigMemoKey {
    let mut k = [0u8; 160];
    k[..32].copy_from_slice(key);
    k[32..96].copy_from_slice(sig);
    k[96..].copy_from_slice(msg_hash);
    k
}

/// True iff this exact (key, signature, message-hash) triple has already
/// verified successfully. Only successes are memoized, so a hit is a
/// sound "accept"; failures always re-run the full check.
pub(crate) fn sig_memo_hit(key: &[u8; 32], sig: &[u8; 64], msg_hash: &[u8; 64]) -> bool {
    // Stripe on a signature byte (the compressed R point is uniform);
    // the key byte would pile every CA-signed certificate on one lock.
    let memo = sig_memo()[stripe_of(sig[0])]
        .lock()
        .expect("sig memo poisoned");
    let hit = memo.map.contains_key(&sig_memo_key(key, sig, msg_hash));
    if hit {
        cellbricks_telemetry::counter("crypto.sigmemo.hit").inc();
    } else {
        cellbricks_telemetry::counter("crypto.sigmemo.miss").inc();
    }
    hit
}

/// Record a successful verification. The first success of a triple only
/// leaves its fingerprint with the doorkeeper; the second inserts it,
/// evicting FIFO at cap.
pub(crate) fn sig_memo_put(key: &[u8; 32], sig: &[u8; 64], msg_hash: &[u8; 64]) {
    // Bytes 8..16 of R: uniform, and independent of the stripe byte.
    let fingerprint = u64::from_le_bytes(sig[8..16].try_into().expect("8 bytes"))
        ^ u64::from_le_bytes(msg_hash[..8].try_into().expect("8 bytes"));
    let mut memo = sig_memo()[stripe_of(sig[0])]
        .lock()
        .expect("sig memo poisoned");
    let slot = &mut memo.verified_once[fingerprint as usize % SIG_ONCE_SLOTS];
    if *slot != fingerprint {
        *slot = fingerprint;
        return;
    }
    let k = sig_memo_key(key, sig, msg_hash);
    if memo.map.insert(k, ()).is_none() {
        memo.order.push_back(k);
        if memo.order.len() > SIG_MEMO_CAP / CACHE_STRIPES {
            if let Some(evicted) = memo.order.pop_front() {
                memo.map.remove(&evicted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points_equal(p: &Point, q: &Point) -> bool {
        p.x.mul(q.z).equals(q.x.mul(p.z)) && p.y.mul(q.z).equals(q.y.mul(p.z))
    }

    // Both DhTable tiers must compute the same group element for any
    // clamped scalar — the R256 promotion may change a hot peer's
    // representation mid-stream, never its DH outputs.
    #[test]
    fn dh_table_tiers_agree() {
        let mut base = Point::base();
        for _ in 0..3 {
            // A few distinct (non-base) points as the table's peer.
            base = add_affine(&base, &basepoint_naf_table()[5], false);
            let r16 = dh_table_build(&base);
            let r256 = dh_table_build_r256(&base);
            for seed in 0..4u8 {
                let mut scalar = [seed.wrapping_mul(73).wrapping_add(11); 32];
                scalar[0] &= 248;
                scalar[31] &= 127;
                scalar[31] |= 64;
                let a = mul_dh_table(&scalar, &r16);
                let b = mul_dh_table(&scalar, &r256);
                assert!(points_equal(&a, &b));
            }
        }
    }

    /// The u-coordinate of `k·B` for a small distinct `k`: a real curve
    /// point per index, which is what an admitted peer must be.
    fn peer_u(i: u32) -> [u8; 32] {
        let mut k = [0u8; 32];
        k[..4].copy_from_slice(&(i + 1).to_le_bytes());
        let p = mul_base(&k);
        p.z.add(p.y).mul(p.z.sub(p.y).invert()).to_bytes()
    }

    // The admission rule on one stripe, driven directly: a scan of peers
    // that never reach the admission threshold builds nothing and evicts
    // nobody, however long it runs; each hot peer is built exactly once;
    // and the R256 tier stays inside its cap however many peers earn it.
    #[test]
    fn dh_cache_scan_never_builds_or_evicts_hot_peers() {
        const HOT: u32 = 16; // more than the stripe's R256 share (12)
        let stripe = Mutex::new(DhCache::new());
        let hot: Vec<[u8; 32]> = (0..HOT).map(peer_u).collect();
        // Scan keys are never decompressed (never admitted), so any 32
        // distinct bytes do.
        let scan_key = |i: u32| {
            let mut u = [0x5au8; 32];
            u[..4].copy_from_slice(&i.to_le_bytes());
            u
        };

        let mut first_table: Vec<Option<Arc<DhTable>>> = vec![None; HOT as usize];
        let mut r16_builds = 0;
        let mut next_scan = 0u32;
        // Each round: every hot peer once, then 16 scan sightings (four
        // fresh keys, four sightings each — one short of admission).
        for round in 0..2_500u32 {
            for (slot, u) in hot.iter().enumerate() {
                let got = dh_accel_in(&stripe, u);
                let sightings = round + 1;
                if sightings < u32::from(DH_ADMIT_SIGHTINGS) {
                    assert!(got.is_none(), "admitted after {sightings} sightings");
                    continue;
                }
                let got = got.expect("hot peer lost its table");
                match &first_table[slot] {
                    None => {
                        assert!(matches!(got.as_ref(), DhTable::R16(_)));
                        first_table[slot] = Some(got);
                        r16_builds += 1;
                    }
                    Some(first) => assert!(
                        Arc::ptr_eq(first, &got) || matches!(got.as_ref(), DhTable::R256(_)),
                        "hot peer {slot} was evicted and rebuilt"
                    ),
                }
            }
            for _ in 0..4 {
                for _ in 0..DH_ADMIT_SIGHTINGS - 1 {
                    assert!(dh_accel_in(&stripe, &scan_key(next_scan)).is_none());
                }
                next_scan += 1;
            }
        }
        assert_eq!(next_scan, 10_000);
        assert_eq!(r16_builds, HOT);

        let cache = stripe.lock().unwrap();
        assert_eq!(cache.tables.len(), HOT as usize, "a scan peer was built");
        assert!(cache.seen.len() <= DH_SEEN_CAP / CACHE_STRIPES);
        let resident_r256 = cache
            .tables
            .values()
            .filter(|s| matches!(s.table().as_deref(), Some(DhTable::R256(_))))
            .count();
        // 2 500 uses each: every hot peer tried to promote (at 600, 1 200,
        // …), and exactly the stripe's share of the cap got a slot.
        assert_eq!(resident_r256, DH_R256_CAP / CACHE_STRIPES);
        assert_eq!(cache.promoted, resident_r256);
    }

    // Eviction gives a recently hit table a second chance: admitting one
    // peer past the cap evicts the resident that has not been used, not
    // the oldest.
    #[test]
    fn dh_cache_eviction_spares_recently_hit_tables() {
        let cap = (DH_TABLE_CAP / CACHE_STRIPES) as u32;
        let stripe = Mutex::new(DhCache::new());
        let peers: Vec<[u8; 32]> = (0..=cap).map(|i| peer_u(100 + i)).collect();
        let admit = |u: &[u8; 32]| {
            for _ in 0..DH_ADMIT_SIGHTINGS {
                let _ = dh_accel_in(&stripe, u);
            }
        };
        for u in &peers[..cap as usize] {
            admit(u);
        }
        // Age every bit, then touch all but peer 3.
        for state in stripe.lock().unwrap().tables.values_mut() {
            if let DhState::Table { recent, .. } = state {
                *recent = false;
            }
        }
        for (i, u) in peers[..cap as usize].iter().enumerate() {
            if i != 3 {
                assert!(dh_accel_in(&stripe, u).is_some());
            }
        }
        admit(&peers[cap as usize]);
        let cache = stripe.lock().unwrap();
        assert_eq!(cache.tables.len(), cap as usize);
        assert!(!cache.tables.contains_key(&peers[3]), "idle table kept");
        assert!(
            cache.tables.contains_key(&peers[0]),
            "oldest hot table evicted"
        );
        assert!(cache.tables.contains_key(&peers[cap as usize]));
    }
}

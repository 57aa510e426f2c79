//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes)
//! crate, providing the subset this workspace uses: [`Bytes`] (an
//! immutable, cheaply-cloneable byte buffer), [`BytesMut`] (a growable
//! builder), and the [`BufMut`] write helpers. Built so the workspace
//! resolves without crates.io access (see `crates/shims/README.md`).
//!
//! `Bytes` is shared storage (an `Arc<[u8]>`, or a borrowed `&'static
//! [u8]` for literals) plus a sub-range, so `clone` and `slice` are
//! O(1) and never copy — the property the packet plumbing relies on
//! when fanning one payload out to several simulated hops. Matching
//! upstream, [`Bytes::from_static`] performs **no allocation at all**:
//! control-plane packets built from literals (keepalives, ticks) stay
//! out of the allocator entirely, which the steady-state engine guard
//! in `crates/bench/tests/alloc_guards.rs` relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Backing storage: borrowed statics never touch the allocator.
#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Storage {
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Static(s) => s,
            Storage::Shared(a) => a,
        }
    }
}

/// An immutable, reference-counted byte buffer; `clone` is O(1).
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Self::from_static(&[])
    }
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap a static byte slice (zero-copy, no allocation).
    #[must_use]
    pub const fn from_static(data: &'static [u8]) -> Self {
        Self {
            data: Storage::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Copy an arbitrary slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-range sharing the same storage (O(1), no copy).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or decreasing.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copy the contents out into a `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Self {
            data: Storage::Shared(data),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::from_static(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Self::from(v.into_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_ref() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

/// Write-side helpers (big-endian integer appends, as in upstream).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no bytes have been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`] (consumes the buffer).
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b.len(), 5);
        let c = b.clone();
        assert_eq!(c, b);
        assert!(std::ptr::eq(c.as_ref().as_ptr(), b.as_ref().as_ptr()));
        assert!(std::ptr::eq(s.as_ref().as_ptr(), &b[1]));
    }

    #[test]
    fn from_static_is_zero_copy() {
        static PAYLOAD: &[u8] = b"tick";
        let b = Bytes::from_static(PAYLOAD);
        // The buffer borrows the literal itself — nothing was copied
        // (and, with the counting allocator in the bench crate,
        // nothing is allocated on this path).
        assert!(std::ptr::eq(b.as_ref().as_ptr(), PAYLOAD.as_ptr()));
        let c = b.clone().slice(1..3);
        assert_eq!(&c[..], b"ic");
        assert!(std::ptr::eq(c.as_ref().as_ptr(), &PAYLOAD[1]));
    }

    #[test]
    fn slice_of_slice() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6]);
        let s = b.slice(2..6).slice(1..3);
        assert_eq!(&s[..], &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(0..4);
    }

    #[test]
    fn bytes_mut_roundtrip_big_endian() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_u64(0x0708090A0B0C0D0E);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, b'x', b'y']
        );
    }

    #[test]
    fn equality_across_shapes() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b, *b"hello");
        assert_eq!(b, b"hello");
        assert_eq!(b, b"hello".to_vec());
        assert!(b == Bytes::from(b"hello".to_vec()));
    }

    #[test]
    fn empty_is_cheap() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}

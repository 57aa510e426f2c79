//! Tiny binary codec helpers shared by the NAS, S6A and SAP wire formats.
//!
//! Hand-rolled (rather than serde) because these stand in for 3GPP
//! protocol encodings: fixed-width integers, length-prefixed byte strings,
//! and explicit type tags, with decoding returning `None` on any
//! truncation or garbage.
//!
//! The [`frame_into`]/[`frame`]/[`unframe`] family is the *transport*
//! framing for control-plane messages carried over real sockets (the
//! `brokerd` daemon, its load generator, and the `broker_server`
//! example): one frame per datagram, a u32 big-endian length prefix
//! followed by exactly that many payload bytes.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

/// Incremental writer over a growable buffer.
#[derive(Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a u8.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }
    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_u16(v);
        self
    }
    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32(v);
        self
    }
    /// Append a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64(v);
        self
    }
    /// Append raw bytes (fixed-width field; length not encoded).
    pub fn put_fixed(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }
    /// Append a u32-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32(v.len() as u32);
        self.buf.put_slice(v);
        self
    }
    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }
    /// Append an IPv4 address.
    pub fn put_ip(&mut self, v: Ipv4Addr) -> &mut Self {
        self.buf.put_slice(&v.octets());
        self
    }

    /// Finish, returning the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Incremental reader; every accessor returns `None` on truncation.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    /// Read a u8.
    pub fn get_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.take(2)?.try_into().ok()?))
    }
    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }
    /// Read a big-endian u64.
    pub fn get_u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }
    /// Read `N` raw bytes into an array.
    pub fn get_fixed<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }
    /// Read a u32-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.get_u32()? as usize;
        if len > 1 << 24 {
            return None; // Hostile length.
        }
        Some(self.take(len)?.to_vec())
    }
    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Option<String> {
        String::from_utf8(self.get_bytes()?).ok()
    }
    /// Read an IPv4 address.
    pub fn get_ip(&mut self) -> Option<Ipv4Addr> {
        let o: [u8; 4] = self.get_fixed()?;
        Some(Ipv4Addr::from(o))
    }
    /// True when fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Largest frame payload either side will accept. Generously above any
/// legitimate control-plane message (an `authReqT` is well under 1 KiB);
/// a prefix past this is a protocol error, not a reason to allocate.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Why a length-prefixed frame could not be parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The hostile declared length.
        len: usize,
    },
    /// The buffer ends before the declared payload does (or before the
    /// 4-byte prefix itself is complete).
    Truncated,
    /// A datagram carried bytes past the end of its single frame.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} > {MAX_FRAME_LEN} bytes")
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TrailingBytes => write!(f, "bytes after end of frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append one length-prefixed frame to `out` (a reusable buffer — the
/// datagram send path frames every reply into one scratch allocation).
pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// One length-prefixed frame as a fresh buffer.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    frame_into(payload, &mut out);
    out
}

/// Parse a datagram as exactly one length-prefixed frame, returning the
/// payload in place (no copy).
///
/// # Errors
/// [`FrameError`] on a hostile length, a short datagram, or trailing
/// bytes — the caller counts these and drops the datagram.
pub fn unframe(datagram: &[u8]) -> Result<&[u8], FrameError> {
    let Some(prefix) = datagram.get(..4) else {
        return Err(FrameError::Truncated);
    };
    let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let body = &datagram[4..];
    match body.len().cmp(&len) {
        std::cmp::Ordering::Less => Err(FrameError::Truncated),
        std::cmp::Ordering::Greater => Err(FrameError::TrailingBytes),
        std::cmp::Ordering::Equal => Ok(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u16(300)
            .put_u32(70_000)
            .put_u64(1 << 40)
            .put_fixed(&[1, 2, 3])
            .put_bytes(b"hello")
            .put_str("world")
            .put_ip(Ipv4Addr::new(10, 1, 2, 3));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u16(), Some(300));
        assert_eq!(r.get_u32(), Some(70_000));
        assert_eq!(r.get_u64(), Some(1 << 40));
        assert_eq!(r.get_fixed::<3>(), Some([1, 2, 3]));
        assert_eq!(r.get_bytes().as_deref(), Some(b"hello".as_slice()));
        assert_eq!(r.get_str().as_deref(), Some("world"));
        assert_eq!(r.get_ip(), Some(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_returns_none() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes[..2]);
        assert_eq!(r.get_u32(), None);
    }

    #[test]
    fn hostile_length_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), None);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), None);
    }

    #[test]
    fn frame_roundtrips_datagram() {
        let payload = b"hello broker";
        let datagram = frame(payload);
        assert_eq!(unframe(&datagram), Ok(payload.as_slice()));
    }

    #[test]
    fn unframe_rejects_hostile_shapes() {
        assert_eq!(unframe(&[]), Err(FrameError::Truncated));
        assert_eq!(unframe(&[0, 0, 1]), Err(FrameError::Truncated));
        assert_eq!(unframe(&[0, 0, 0, 2, 7]), Err(FrameError::Truncated));
        assert_eq!(unframe(&[0, 0, 0, 1, 7, 8]), Err(FrameError::TrailingBytes));
        let oversized = frame(b"x");
        let mut evil = oversized.clone();
        evil[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            unframe(&evil),
            Err(FrameError::Oversized {
                len: u32::MAX as usize
            })
        );
    }
}

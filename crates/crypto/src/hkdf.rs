//! HKDF (RFC 5869) over HMAC-SHA-256.
//!
//! Used by the SAP key hierarchy: the shared secret `ss` issued by the
//! broker plays the role of KASME; NAS/AS ciphering and integrity keys are
//! derived from it with domain-separating `info` labels, mirroring the LTE
//! key derivation tree (paper §4.1).

use crate::hmac::{hmac_sha256, HmacSha256Key};

/// HKDF-Extract: derive a pseudo-random key from input keying material.
#[must_use]
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: expand `prk` into `out.len()` bytes of output keying
/// material bound to `info`.
///
/// # Panics
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit).
pub fn expand(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF-Expand output too long");
    let keyed = HmacSha256Key::new(prk);
    let mut t = [0u8; 32];
    let mut t_len = 0; // T(0) is empty
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        let counter = u8::try_from(i + 1).expect("at most 255 blocks");
        t = keyed.mac(&[&t[..t_len], info, &[counter]]);
        t_len = 32;
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// One-shot HKDF: extract-then-expand.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    let prk = extract(salt, ikm);
    expand(&prk, info, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0b; 22];
        let prk = extract(&[], &ikm);
        let mut okm = [0u8; 42];
        expand(&prk, &[], &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_multi_block_lengths() {
        let prk = extract(b"salt", b"ikm");
        let mut a = vec![0u8; 80];
        expand(&prk, b"label", &mut a);
        let mut b = vec![0u8; 33];
        expand(&prk, b"label", &mut b);
        // Prefix property: shorter output is a prefix of longer output.
        assert_eq!(&a[..33], &b[..]);
    }

    #[test]
    fn domain_separation() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        derive(b"s", b"ikm", b"nas-enc", &mut a);
        derive(b"s", b"ikm", b"nas-int", &mut b);
        assert_ne!(a, b);
    }
}

//! HMAC (RFC 2104 / FIPS 198-1) over SHA-256.

use crate::sha2::Sha256;

/// An HMAC-SHA-256 key with its two padded key blocks already absorbed:
/// each [`mac`](Self::mac) under it skips those two compressions. HKDF
/// expands several blocks under one key, which is what this is for.
pub(crate) struct HmacSha256Key {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256Key {
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&crate::sha2::sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        Self { inner, outer }
    }

    /// The MAC of the concatenation of `parts`.
    pub(crate) fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 of `data` under `key`.
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    HmacSha256Key::new(key).mac(&[data])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex(&hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_repeated_bytes() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_exactly_block_size() {
        // Block-size keys must be used as-is (no hashing, no padding effect).
        let key = [0x42; 64];
        let a = hmac_sha256(&key, b"msg");
        let mut key65 = [0x42; 65];
        key65[64] = 0;
        let b = hmac_sha256(&key65, b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}

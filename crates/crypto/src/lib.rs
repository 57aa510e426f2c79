//! From-scratch cryptographic primitives for the CellBricks reproduction.
//!
//! The CellBricks secure attachment protocol (SAP, paper §4.1) replaces the
//! shared-secret EPS-AKA trust model with standard public-key cryptography:
//! every principal (UE, broker, bTelco) owns a key pair, broker and bTelco
//! keys are certified by a CA, attachment requests are encrypted to the
//! broker's public key and signed by the sender, and traffic reports are
//! sealed on the UE baseband. This crate provides everything those protocols
//! need, implemented in-tree so the reproduction has no out-of-workspace
//! dependencies:
//!
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4),
//! * [`hmac`] — HMAC (RFC 2104) over SHA-256,
//! * [`hkdf`] — HKDF (RFC 5869), used for the KASME-style key hierarchy,
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439),
//! * [`field`] / [`x25519`] — Curve25519 Diffie–Hellman (RFC 7748),
//! * [`ed25519`] — Ed25519 signatures (RFC 8032),
//! * [`sealed`] — ECIES-style authenticated public-key encryption
//!   (X25519 + HKDF + ChaCha20 + HMAC, encrypt-then-MAC),
//! * [`cert`] — a minimal certificate/CA scheme standing in for the web PKI
//!   the paper assumes for broker and bTelco identities.
//!
//! # Security disclaimer
//!
//! This is research code written for a systems reproduction. It follows the
//! RFCs and passes their test vectors, but it is **not** constant-time, has
//! not been audited, and must not be used to protect real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod chacha20;
pub mod ed25519;
pub mod field;
pub mod hkdf;
pub mod hmac;
mod metrics;
mod precomp;
pub mod sealed;
pub mod sha2;
pub mod x25519;

pub use ed25519::{sign_batch, verify_batch, BatchItem, Signature, SigningKey, VerifyingKey};
pub use sealed::{
    open, open_batch, seal, seal_begin, seal_finish_batch, PendingSeal, SealedBox, SealedBoxError,
};

/// Constant-time byte-slice equality: used when comparing MACs and
/// signatures so tampering tests don't observe short-circuit behaviour.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_lengths() {
        assert!(!ct_eq(b"abc", b"ab"));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"abc", b"abd"));
    }
}

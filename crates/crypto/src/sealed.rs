//! ECIES-style authenticated public-key encryption ("sealed boxes").
//!
//! SAP encrypts the UE's authentication vector to the broker's public key so
//! the bTelco forwarding it never sees a cleartext UE identifier (the
//! anti-IMSI-catcher property, paper §4.1), and the broker encrypts each
//! authorization sub-response to its recipient. The construction is the
//! standard one:
//!
//! 1. generate an ephemeral X25519 key pair,
//! 2. `shared = X25519(ephemeral_sk, recipient_pk)`,
//! 3. `key ‖ mac_key = HKDF(shared, ephemeral_pk ‖ recipient_pk)`,
//! 4. ciphertext = ChaCha20(key, plaintext); tag = HMAC(mac_key, ct)
//!    (encrypt-then-MAC).

use crate::field::Fe;
use crate::hkdf;
use crate::hmac::hmac_sha256;
use crate::x25519::{DeferredU, X25519PublicKey, X25519SecretKey};
use crate::{chacha20, ct_eq};

/// A sealed (encrypted + authenticated) message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// The sender's ephemeral X25519 public key.
    pub ephemeral_pk: [u8; 32],
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 tag over the ciphertext.
    pub tag: [u8; 32],
}

/// Errors from [`open`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealedBoxError {
    /// The HMAC tag did not verify: the box was tampered with or is
    /// addressed to a different key.
    TagMismatch,
}

impl core::fmt::Display for SealedBoxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SealedBoxError::TagMismatch => write!(f, "sealed box authentication tag mismatch"),
        }
    }
}

impl std::error::Error for SealedBoxError {}

fn derive_keys(
    shared: &[u8; 32],
    ephemeral_pk: &[u8; 32],
    recipient_pk: &[u8; 32],
) -> ([u8; 32], [u8; 32]) {
    let mut info = [0u8; 16 + 64];
    info[..16].copy_from_slice(b"cellbricks-seal:");
    info[16..48].copy_from_slice(ephemeral_pk);
    info[48..].copy_from_slice(recipient_pk);
    let mut okm = [0u8; 64];
    hkdf::derive(b"", shared, &info, &mut okm);
    let mut enc_key = [0u8; 32];
    let mut mac_key = [0u8; 32];
    enc_key.copy_from_slice(&okm[..32]);
    mac_key.copy_from_slice(&okm[32..]);
    (enc_key, mac_key)
}

/// Seal `plaintext` to `recipient`.
#[must_use]
pub fn seal<R: rand::Rng + ?Sized>(
    rng: &mut R,
    recipient: &X25519PublicKey,
    plaintext: &[u8],
) -> SealedBox {
    let t0 = crate::metrics::SEAL.begin();
    let ephemeral = X25519SecretKey::generate(rng);
    let ephemeral_pk = ephemeral.public_key().0;
    let shared = ephemeral.diffie_hellman(recipient);
    let (enc_key, mac_key) = derive_keys(&shared, &ephemeral_pk, &recipient.0);
    let nonce = [0u8; 12]; // Safe: enc_key is unique per message (fresh ephemeral).
    let ciphertext = chacha20::apply(&enc_key, &nonce, 0, plaintext);
    let tag = hmac_sha256(&mac_key, &ciphertext);
    crate::metrics::SEAL.finish(t0);
    SealedBox {
        ephemeral_pk,
        ciphertext,
        tag,
    }
}

/// A seal whose elliptic-curve work is done but whose two field
/// inversions (ephemeral public key, shared secret) are deferred so a
/// batch of seals can share one real inversion.
///
/// Draws the ephemeral key from `rng` at `begin` time, in the same
/// order [`seal`] would, so a code path switching between the eager and
/// staged forms consumes an identical rng stream — and
/// [`seal_finish_batch`] then produces byte-identical boxes.
pub struct PendingSeal {
    ephemeral_pk: DeferredU,
    shared: DeferredU,
    recipient: [u8; 32],
}

/// Start sealing to `recipient`: draw the ephemeral key and run both
/// curve multiplications, deferring their final inversions.
#[must_use]
pub fn seal_begin<R: rand::Rng + ?Sized>(rng: &mut R, recipient: &X25519PublicKey) -> PendingSeal {
    seal_begin_with(X25519SecretKey::generate(rng), recipient)
}

/// [`seal_begin`] with a caller-supplied ephemeral key instead of an rng.
///
/// Lets a coordinator thread draw every ephemeral key of a batch in
/// arrival order (the rng is a sequential stream) and then fan the
/// curve work out to workers: the boxes are byte-identical to
/// [`seal_begin`] fed the same draws, whatever thread runs the math.
#[must_use]
pub fn seal_begin_with(ephemeral: X25519SecretKey, recipient: &X25519PublicKey) -> PendingSeal {
    PendingSeal {
        ephemeral_pk: ephemeral.public_key_deferred(),
        shared: ephemeral.diffie_hellman_deferred(recipient),
        recipient: recipient.0,
    }
}

/// Finish a batch of [`seal_begin`]s against their plaintexts, sharing
/// one field inversion across all `2·n` deferred denominators. Output
/// boxes are byte-identical to calling [`seal`] with the same rng draws.
///
/// # Panics
/// Panics if the two slices differ in length.
#[must_use]
pub fn seal_finish_batch(pendings: &[PendingSeal], plaintexts: &[&[u8]]) -> Vec<SealedBox> {
    assert_eq!(pendings.len(), plaintexts.len());
    let mut dens: Vec<Fe> = Vec::with_capacity(pendings.len() * 2);
    for p in pendings {
        dens.push(p.ephemeral_pk.den());
        dens.push(p.shared.den());
    }
    Fe::batch_invert(&mut dens);
    pendings
        .iter()
        .zip(plaintexts)
        .enumerate()
        .map(|(i, (p, plaintext))| {
            let ephemeral_pk = p.ephemeral_pk.finish(dens[2 * i]);
            let shared = p.shared.finish(dens[2 * i + 1]);
            let (enc_key, mac_key) = derive_keys(&shared, &ephemeral_pk, &p.recipient);
            let nonce = [0u8; 12]; // Safe: enc_key is unique per message.
            let ciphertext = chacha20::apply(&enc_key, &nonce, 0, plaintext);
            let tag = hmac_sha256(&mac_key, &ciphertext);
            SealedBox {
                ephemeral_pk,
                ciphertext,
                tag,
            }
        })
        .collect()
}

/// Open many boxes addressed to the same recipient, sharing one field
/// inversion across all the Diffie–Hellman computations. Each result is
/// identical to [`open`] on that box.
pub fn open_batch(
    recipient_sk: &X25519SecretKey,
    boxes: &[&SealedBox],
) -> Vec<Result<Vec<u8>, SealedBoxError>> {
    let recipient_pk = recipient_sk.public_key_cached().0;
    let peers: Vec<X25519PublicKey> = boxes
        .iter()
        .map(|b| X25519PublicKey(b.ephemeral_pk))
        .collect();
    let pendings: Vec<DeferredU> = recipient_sk.diffie_hellman_deferred_many(&peers);
    let mut dens: Vec<Fe> = pendings.iter().map(DeferredU::den).collect();
    Fe::batch_invert(&mut dens);
    boxes
        .iter()
        .zip(pendings.iter().zip(&dens))
        .map(|(b, (p, den_inv))| {
            let shared = p.finish(*den_inv);
            let (enc_key, mac_key) = derive_keys(&shared, &b.ephemeral_pk, &recipient_pk);
            let expected_tag = hmac_sha256(&mac_key, &b.ciphertext);
            if !ct_eq(&expected_tag, &b.tag) {
                return Err(SealedBoxError::TagMismatch);
            }
            let nonce = [0u8; 12];
            Ok(chacha20::apply(&enc_key, &nonce, 0, &b.ciphertext))
        })
        .collect()
}

/// Open a sealed box with the recipient's secret key.
///
/// # Errors
/// Returns [`SealedBoxError::TagMismatch`] if authentication fails.
pub fn open(recipient_sk: &X25519SecretKey, boxed: &SealedBox) -> Result<Vec<u8>, SealedBoxError> {
    let t0 = crate::metrics::OPEN.begin();
    let recipient_pk = recipient_sk.public_key_cached().0;
    let shared = recipient_sk.diffie_hellman(&X25519PublicKey(boxed.ephemeral_pk));
    let (enc_key, mac_key) = derive_keys(&shared, &boxed.ephemeral_pk, &recipient_pk);
    let expected_tag = hmac_sha256(&mac_key, &boxed.ciphertext);
    if !ct_eq(&expected_tag, &boxed.tag) {
        crate::metrics::OPEN.finish(t0);
        return Err(SealedBoxError::TagMismatch);
    }
    let nonce = [0u8; 12];
    let plaintext = chacha20::apply(&enc_key, &nonce, 0, &boxed.ciphertext);
    crate::metrics::OPEN.finish(t0);
    Ok(plaintext)
}

impl SealedBox {
    /// Serialized length: 32 (ephemeral pk) + 32 (tag) + ciphertext.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        64 + self.ciphertext.len()
    }

    /// Serialize as `ephemeral_pk ‖ tag ‖ ciphertext`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.ephemeral_pk);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parse from the [`Self::to_bytes`] layout.
    ///
    /// Returns `None` if the slice is shorter than the 64-byte header.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<SealedBox> {
        if bytes.len() < 64 {
            return None;
        }
        let mut ephemeral_pk = [0u8; 32];
        ephemeral_pk.copy_from_slice(&bytes[..32]);
        let mut tag = [0u8; 32];
        tag.copy_from_slice(&bytes[32..64]);
        Some(SealedBox {
            ephemeral_pk,
            tag,
            ciphertext: bytes[64..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xce11b41c)
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public_key(), b"authVec payload");
        let opened = open(&recipient, &boxed).unwrap();
        assert_eq!(opened, b"authVec payload");
    }

    #[test]
    fn empty_plaintext() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public_key(), b"");
        assert_eq!(open(&recipient, &boxed).unwrap(), b"");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let mut boxed = seal(&mut rng, &recipient.public_key(), b"secret");
        boxed.ciphertext[0] ^= 1;
        assert_eq!(open(&recipient, &boxed), Err(SealedBoxError::TagMismatch));
    }

    #[test]
    fn tampered_tag_rejected() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let mut boxed = seal(&mut rng, &recipient.public_key(), b"secret");
        boxed.tag[5] ^= 0x80;
        assert_eq!(open(&recipient, &boxed), Err(SealedBoxError::TagMismatch));
    }

    #[test]
    fn wrong_recipient_rejected() {
        let mut rng = rng();
        let alice = X25519SecretKey::generate(&mut rng);
        let eve = X25519SecretKey::generate(&mut rng);
        let boxed = seal(&mut rng, &alice.public_key(), b"for alice");
        assert_eq!(open(&eve, &boxed), Err(SealedBoxError::TagMismatch));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public_key(), b"IMSI-001010123456789");
        // The cleartext identifier must not appear in the wire form
        // (the anti-IMSI-catcher property).
        let wire = boxed.to_bytes();
        assert!(!wire.windows(b"IMSI".len()).any(|w| w == b"IMSI"));
    }

    #[test]
    fn wire_roundtrip() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public_key(), b"some payload");
        let parsed = SealedBox::from_bytes(&boxed.to_bytes()).unwrap();
        assert_eq!(parsed, boxed);
        assert_eq!(open(&recipient, &parsed).unwrap(), b"some payload");
    }

    #[test]
    fn wire_too_short_rejected() {
        assert!(SealedBox::from_bytes(&[0u8; 63]).is_none());
    }

    // The staged path must consume the same rng draws as the eager path
    // and produce byte-identical boxes, for any batch size.
    #[test]
    fn staged_seal_matches_eager() {
        let mut rng_a = rng();
        let mut rng_b = rng();
        let recipient = X25519SecretKey::generate(&mut rng_a);
        let _ = X25519SecretKey::generate(&mut rng_b); // keep streams aligned
        let pk = recipient.public_key();
        let msgs: [&[u8]; 3] = [b"alpha", b"", b"a longer plaintext body"];
        let eager: Vec<SealedBox> = msgs.iter().map(|m| seal(&mut rng_a, &pk, m)).collect();
        let pendings: Vec<PendingSeal> = msgs.iter().map(|_| seal_begin(&mut rng_b, &pk)).collect();
        let staged = seal_finish_batch(&pendings, &msgs);
        assert_eq!(staged, eager);
        for (b, m) in staged.iter().zip(msgs) {
            assert_eq!(open(&recipient, b).unwrap(), m);
        }
    }

    #[test]
    fn open_batch_matches_open() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let pk = recipient.public_key();
        let mut boxes: Vec<SealedBox> =
            (0..3).map(|i| seal(&mut rng, &pk, &[i as u8; 9])).collect();
        boxes[1].tag[0] ^= 1; // one tampered box mid-batch
        let refs: Vec<&SealedBox> = boxes.iter().collect();
        let batch = open_batch(&recipient, &refs);
        for (b, r) in boxes.iter().zip(batch) {
            assert_eq!(r, open(&recipient, b));
        }
        assert!(open_batch(&recipient, &[]).is_empty());
    }

    /// RFC 7748 §6.1: X25519 against a small-order peer key gives the
    /// all-zero shared secret, whatever the secret scalar (clamping makes
    /// it a multiple of 8). Neither side checks for it, so the box key
    /// is then a function of public bytes alone: a box sealed *to* such a
    /// key is readable by anyone, and a box whose ephemeral key is one
    /// can be formed by anyone who knows the recipient's public key —
    /// `open` and `open_batch` accept it.
    #[test]
    fn small_order_peer_key_gives_an_all_zero_secret_and_a_public_box_key() {
        let hex = |h: &str| -> [u8; 32] {
            let mut out = [0u8; 32];
            for (i, b) in out.iter_mut().enumerate() {
                *b = u8::from_str_radix(&h[2 * i..2 * i + 2], 16).unwrap();
            }
            out
        };
        let small_order = [
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0100000000000000000000000000000000000000000000000000000000000000",
            "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
            "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        ]
        .map(hex);
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let recipient_pk = recipient.public_key().0;
        let nonce = [0u8; 12];
        for u in small_order {
            assert_eq!(recipient.diffie_hellman(&X25519PublicKey(u)), [0u8; 32]);

            // Sealed to a small-order key: readable from public bytes.
            let boxed = seal_finish_batch(
                &[seal_begin_with(
                    X25519SecretKey::generate(&mut rng),
                    &X25519PublicKey(u),
                )],
                &[b"for nobody"],
            )
            .remove(0);
            let (enc_key, mac_key) = derive_keys(&[0u8; 32], &boxed.ephemeral_pk, &u);
            assert_eq!(boxed.tag, hmac_sha256(&mac_key, &boxed.ciphertext));
            assert_eq!(
                chacha20::apply(&enc_key, &nonce, 0, &boxed.ciphertext),
                b"for nobody"
            );

            // A small-order ephemeral key: formed without any secret,
            // accepted by the recipient.
            let (enc_key, mac_key) = derive_keys(&[0u8; 32], &u, &recipient_pk);
            let ciphertext = chacha20::apply(&enc_key, &nonce, 0, b"from anyone");
            let forged = SealedBox {
                ephemeral_pk: u,
                tag: hmac_sha256(&mac_key, &ciphertext),
                ciphertext,
            };
            assert_eq!(open(&recipient, &forged).unwrap(), b"from anyone");
            assert_eq!(
                open_batch(&recipient, &[&forged]),
                vec![Ok(b"from anyone".to_vec())]
            );
        }
    }

    #[test]
    fn fresh_ephemeral_every_message() {
        let mut rng = rng();
        let recipient = X25519SecretKey::generate(&mut rng);
        let a = seal(&mut rng, &recipient.public_key(), b"x");
        let b = seal(&mut rng, &recipient.public_key(), b"x");
        assert_ne!(a.ephemeral_pk, b.ephemeral_pk);
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}

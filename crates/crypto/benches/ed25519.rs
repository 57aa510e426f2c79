//! Criterion microbenchmarks for the control-plane crypto hot paths:
//! sign, single verify (cold-cache and cached), a 32-signature batch
//! verify, the sealed-box round trip, and the three kernels under them
//! (scalar reduction mod L, the X25519 ladder, a lazy field add/sub
//! chain). `ci.sh` runs this as a smoke test; numbers on the 1-core CI
//! box carry ±20% noise, so treat them as ballpark (the deterministic
//! op-count gate is the hard check).

use cellbricks_crypto::ed25519::scalar_reduce_wide;
use cellbricks_crypto::field::Fe;
use cellbricks_crypto::{open, seal, verify_batch, x25519, BatchItem, SigningKey, X25519SecretKey};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_kernels(c: &mut Criterion) {
    // A full-width input (what SHA-512 hands the reduction), chained so
    // each reduction depends on the last.
    let mut wide = [0xc3u8; 64];
    c.bench_function("kernel/scalar_reduce_wide", |b| {
        b.iter(|| {
            let r = scalar_reduce_wide(black_box(&wide));
            wide[..32].copy_from_slice(&r);
            wide[63] = r[0] | 0x80;
        });
    });

    let k = [0x55u8; 32];
    let mut u = [9u8; 32];
    c.bench_function("kernel/x25519_ladder", |b| {
        b.iter(|| {
            u = x25519(black_box(&k), &u);
        });
    });

    // The add/sub pattern of one ladder step (two lazy adds feeding two
    // carrying subs), 16 steps per iteration.
    let mut x = Fe::from_bytes(&[0x42u8; 32]);
    let mut z = Fe::from_bytes(&[0x17u8; 32]);
    c.bench_function("kernel/fe_add_sub_chain", |b| {
        b.iter(|| {
            for _ in 0..16 {
                let a = x.add(z);
                let b = x.sub(z);
                x = a.sub(b);
                z = a.add(b).sub(x);
            }
            black_box((x, z));
        });
    });
}

fn bench_sign(c: &mut Criterion) {
    let sk = SigningKey::from_seed([1u8; 32]);
    let msg = [0xa5u8; 96];
    c.bench_function("ed25519/sign", |b| {
        b.iter(|| black_box(sk.sign(black_box(&msg))));
    });
}

fn bench_verify(c: &mut Criterion) {
    let sk = SigningKey::from_seed([2u8; 32]);
    let vk = sk.verifying_key();
    let msg = [0x5au8; 96];
    let sig = sk.sign(&msg);
    assert!(vk.verify(&msg, &sig));
    c.bench_function("ed25519/verify", |b| {
        b.iter(|| assert!(vk.verify(black_box(&msg), black_box(&sig))));
    });
    c.bench_function("ed25519/verify_cached", |b| {
        b.iter(|| assert!(vk.verify_cached(black_box(&msg), black_box(&sig))));
    });
}

fn bench_verify_batch(c: &mut Criterion) {
    let keys: Vec<SigningKey> = (0..32u8).map(|i| SigningKey::from_seed([i; 32])).collect();
    let msgs: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64]).collect();
    let items: Vec<BatchItem<'_>> = keys
        .iter()
        .zip(msgs.iter())
        .map(|(k, m)| BatchItem {
            msg: m,
            sig: k.sign(m),
            key: k.verifying_key(),
        })
        .collect();
    assert!(verify_batch(&items));
    c.bench_function("ed25519/verify_batch_32", |b| {
        b.iter(|| assert!(verify_batch(black_box(&items))));
    });
}

fn bench_sealed_box(c: &mut Criterion) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let recipient = X25519SecretKey::generate(&mut rng);
    let recipient_pk = recipient.public_key();
    let msg = [0x3cu8; 128];
    let boxed = seal(&mut rng, &recipient_pk, &msg);
    assert_eq!(open(&recipient, &boxed).expect("open"), msg);
    c.bench_function("sealed/seal", |b| {
        b.iter(|| black_box(seal(&mut rng, &recipient_pk, black_box(&msg))));
    });
    c.bench_function("sealed/open", |b| {
        b.iter(|| black_box(open(&recipient, black_box(&boxed)).expect("open")));
    });
}

criterion_group!(
    benches,
    bench_kernels,
    bench_sign,
    bench_verify,
    bench_verify_batch,
    bench_sealed_box
);
criterion_main!(benches);

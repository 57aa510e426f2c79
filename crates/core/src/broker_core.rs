//! The broker's authorization state machine — the one piece of code
//! that decides a SAP attachment, whichever transport asked (DESIGN §12).
//!
//! Sans-IO, in the shape `cellbricks_transport::quic` already has: the
//! caller moves bytes and time, the core only decides. An adapter hands
//! [`BrokerCore::authorize`] a batch of decoded [`AuthReqT`]s (a single
//! request is a batch of one) and gets one [`Verdict`] per request, in
//! arrival order. Three phases:
//!
//! * **check** (pure): prechecks around one pooled [`open_batch`], then
//!   one pooled [`verify_batch`] across the chunk. Anything that fails
//!   is re-run through [`sap::broker_authenticate_sequential`] purely to
//!   name the error.
//! * **decide** (sequential, arrival order): the adapter's admission
//!   policy, anti-replay, session ids and every RNG draw
//!   ([`sap::grant_draws`]) — so a replay observes every earlier request
//!   of its own batch, nothing is drawn or sealed for a refused request,
//!   and replies are byte-identical at any worker count or batch split.
//!   Policy sits here because the simulator's reputation system lives
//!   behind a lock and cannot follow a chunk onto another thread; it is
//!   the *last* check of the seed-order path, so the named error is the
//!   same.
//! * **grant** (pure): pooled seal + sign against the pre-drawn material
//!   ([`sap::broker_grant_batch_prepared`]).
//!
//! With W ≥ 2 workers each pure phase splits its batch into at most W
//! contiguous ranges: the calling thread runs the first, scoped threads
//! borrowing the batch run the rest, and the results are concatenated
//! in range order. No thread outlives the call, and a batch too small to
//! split never spawns one — W = 0 and W = 1 are the same inline path.
//!
//! The durable half ([`AuthState`]) is kept apart from the per-process
//! half ([`BrokerCore`]) so the two replicas of a pair decide over one
//! shared state. What a grant means beyond the reply is the adapter's
//! business: the simulated broker opens a billing session, the wire
//! server bumps a counter.

use crate::principal::{BrokerKeys, Identity};
use crate::sap::{self, AuthReqT, AuthVec, BrokerReply, SapError, SubscriberEntry};
use cellbricks_crypto::ed25519::{verify_batch, BatchItem, VerifyingKey};
use cellbricks_crypto::sealed::open_batch;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_sim::SimRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

/// FIFO cap on the anti-replay nonce window, mirroring the crypto-layer
/// key caches: a replayed `authReqT` is only useful to an attacker while
/// the original authorization is recent, so the window holds the most
/// recent authorizations and evicts the oldest past the cap. 64 Ki
/// nonces (1 MiB) is orders of magnitude more than any in-flight attach
/// horizon; without the cap, million-UE attach churn grows the set
/// forever.
pub const NONCE_WINDOW_CAP: usize = 1 << 16;

type Subscribers = HashMap<Identity, SubscriberEntry>;

/// The durable authorization state of one broker: what the
/// paper's broker keeps in replicated cloud storage.
pub struct AuthState {
    subscribers: Subscribers,
    /// Nonces seen in authorized requests: a replayed `authReqT`
    /// (captured on the wire and re-submitted, e.g. by a bTelco trying
    /// to open ghost billing sessions) is rejected — the UE nonce in
    /// `authVec` is the anti-replay anchor the paper describes (§4.1).
    seen_nonces: HashSet<[u8; 16]>,
    /// FIFO order of `seen_nonces` for bounded eviction.
    nonce_order: VecDeque<[u8; 16]>,
    next_session: u64,
}

impl AuthState {
    /// Fresh state whose session ids start at `session_base`.
    #[must_use]
    pub fn new(session_base: u64) -> Self {
        Self {
            subscribers: HashMap::new(),
            seen_nonces: HashSet::new(),
            nonce_order: VecDeque::new(),
            next_session: session_base,
        }
    }

    /// Provision a subscriber (issue keys out of band; store publics).
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        self.subscribers.insert(
            id,
            SubscriberEntry {
                sign_pk,
                encrypt_pk,
                plan_mbr_bps,
                // Suspicion is the adapter's admission policy, asked in
                // the decision stage; no table entry carries it.
                suspect: false,
                alias: 0,
                lawful_intercept: false,
            },
        );
    }

    /// Number of provisioned subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// The provisioned entry for `id`.
    #[must_use]
    pub fn subscriber(&self, id: Identity) -> Option<&SubscriberEntry> {
        self.subscribers.get(&id)
    }

    /// Record a nonce; `false` means it was already in the window (a
    /// replay). Past [`NONCE_WINDOW_CAP`] the oldest nonce is evicted.
    fn insert_nonce(&mut self, nonce: [u8; 16]) -> bool {
        if !self.seen_nonces.insert(nonce) {
            return false;
        }
        self.nonce_order.push_back(nonce);
        if self.nonce_order.len() > NONCE_WINDOW_CAP {
            if let Some(oldest) = self.nonce_order.pop_front() {
                self.seen_nonces.remove(&oldest);
            }
        }
        true
    }
}

/// A granted authorization: the reply for the bTelco plus what an
/// adapter needs to account for the session it opens.
pub struct Grant {
    /// The broker's reply (`authRespT` ‖ `authRespU` ‖ certificate).
    pub reply: BrokerReply,
    /// The UE's decoded authentication vector.
    pub vec: AuthVec,
    /// The billing session bound into both sub-responses.
    pub session_id: u64,
    /// The forwarding bTelco's signing key (its traffic reports for this
    /// session must verify under it).
    pub telco_key: VerifyingKey,
}

/// The core's decision on one request: granted, or refused with the
/// first failing check named.
pub type Verdict = Result<Grant, SapError>;

/// The check stage's result for one request.
type Checked = Result<(AuthVec, SubscriberEntry), SapError>;

/// One authorized request between the decision stage and its grant.
struct GrantItem {
    idx: usize,
    vec: AuthVec,
    entry: SubscriberEntry,
    session_id: u64,
}

/// What [`sap::broker_grant_batch_prepared`] returns per grant.
type GrantOut = (BrokerReply, sap::QosInfo, [u8; 32]);

/// What the pure stages read of the broker.
struct CoreKeys {
    keys: BrokerKeys,
    ca: VerifyingKey,
}

/// Never split a batch below this many requests per range: tiny ranges
/// pay a thread spawn without amortizing anything.
const MIN_CHUNK: usize = 4;

/// Split `0..n` into at most `parallelism` near-equal contiguous ranges
/// (0 counts as 1), each at least [`MIN_CHUNK`] long unless the whole
/// batch is shorter, and run `run` over each: the first on the calling
/// thread, the rest on scoped threads that borrow the caller's inputs.
/// The results are concatenated in range order, i.e. in arrival order.
/// A batch that fits one range never spawns, so `parallelism` 0 and 1
/// are the same inline call.
fn scatter<R: Send>(
    parallelism: usize,
    n: usize,
    run: impl Fn(Range<usize>) -> Vec<R> + Sync,
) -> Vec<R> {
    let k = (n / MIN_CHUNK).clamp(1, parallelism.max(1)).min(n);
    let range = move |i: usize| i * n / k..(i + 1) * n / k;
    match k {
        0 => Vec::new(),
        1 => run(0..n),
        _ => std::thread::scope(|s| {
            let run = &run;
            let rest: Vec<_> = (1..k).map(|i| s.spawn(move || run(range(i)))).collect();
            let mut out = run(range(0));
            for h in rest {
                out.extend(h.join().expect("crypto range"));
            }
            out
        }),
    }
}

/// Exact error attribution via the seed-order sequential checks. Pure
/// with respect to broker state, so it runs inside any range.
fn attribute_failure(ctx: &CoreKeys, subs: &Subscribers, req: &AuthReqT) -> SapError {
    match sap::broker_authenticate_sequential(
        &ctx.keys,
        &ctx.ca,
        req,
        &|id| subs.get(&id).cloned(),
        &|_| true,
    ) {
        // Unreachable in practice (precheck/verify failed), but if the
        // sequential path accepts, granting would be wrong — report the
        // one error that cannot mint a session here.
        Ok(_) => SapError::PolicyRefused,
        Err(e) => e,
    }
}

/// The pure check stage over one chunk of decoded requests: structural
/// prechecks with the expensive unseals pooled into one [`open_batch`],
/// then one pooled [`verify_batch`] spanning the chunk, with per-request
/// fallback and exact attribution on failure. No broker state is
/// written — chunks from the same batch can run on any threads in any
/// order and gather to the same verdicts.
fn check_chunk(ctx: &CoreKeys, subs: &Subscribers, reqs: &[AuthReqT]) -> Vec<Checked> {
    let pre: Vec<Option<Identity>> = reqs
        .iter()
        .map(|r| sap::broker_precheck_pre_open(&ctx.keys, r))
        .collect();
    let boxes: Vec<&cellbricks_crypto::SealedBox> = reqs
        .iter()
        .zip(&pre)
        .filter(|(_, id_t)| id_t.is_some())
        .map(|(r, _)| &r.req_u.sealed_vec)
        .collect();
    let mut opened = open_batch(&ctx.keys.encrypt, &boxes).into_iter();
    let self_id = ctx.keys.identity();
    let prechecked: Vec<Option<(AuthVec, SubscriberEntry, sap::AuthBatchMaterial)>> = reqs
        .iter()
        .zip(&pre)
        .map(|(r, pre_id)| {
            let id_t = (*pre_id)?;
            let vec_bytes = opened.next().expect("one open per precheck").ok()?;
            sap::broker_precheck_post_open(
                self_id,
                &ctx.ca,
                r,
                id_t,
                &vec_bytes,
                &|id| subs.get(&id).cloned(),
                &|_| true,
            )
        })
        .collect();

    // One pooled verify across the whole chunk; a failed pool degrades
    // per-request (batch-of-3, then sequential attribution), preserving
    // exact error codes.
    let pooled_ok = {
        let items: Vec<BatchItem<'_>> = prechecked
            .iter()
            .flatten()
            .flat_map(|(_, _, material)| material.items())
            .collect();
        verify_batch(&items)
    };
    reqs.iter()
        .zip(prechecked)
        .map(|(r, checked)| match checked {
            Some((vec, entry, material)) if pooled_ok || verify_batch(&material.items()) => {
                Ok((vec, entry))
            }
            _ => Err(attribute_failure(ctx, subs, r)),
        })
        .collect()
}

/// The pure grant stage over one chunk: pooled seal + sign against
/// pre-drawn material.
fn grant_chunk<'a>(
    keys: &BrokerKeys,
    work: impl Iterator<Item = (&'a AuthReqT, &'a GrantItem)>,
    draws: &[sap::GrantDraws],
) -> Vec<GrantOut> {
    let jobs: Vec<sap::GrantJob<'_>> = work
        .map(|(req, g)| sap::GrantJob {
            req,
            vec: &g.vec,
            entry: &g.entry,
            session_id: g.session_id,
        })
        .collect();
    sap::broker_grant_batch_prepared(keys, &jobs, draws)
}

/// The per-process half of a broker: keys + CA, the grant rng, and how
/// many threads the pure phases may split a batch across. See the
/// module docs for the phases.
pub struct BrokerCore {
    ctx: CoreKeys,
    rng: SimRng,
    workers: usize,
}

impl BrokerCore {
    /// A core that splits the pure phases of a batch across `workers`
    /// threads, the calling thread included (0 and 1 = every phase
    /// inline on the calling thread). Verdicts are byte-identical at any
    /// worker count — parallelism changes only where the pure phases
    /// execute.
    #[must_use]
    pub fn new(keys: BrokerKeys, ca: VerifyingKey, rng: SimRng, workers: usize) -> Self {
        Self {
            ctx: CoreKeys { keys, ca },
            rng,
            workers,
        }
    }

    /// The configured worker count (0 or 1 = inline processing).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Decide one batch of decoded requests against `state`; one verdict
    /// per request, in order. `admit(user, telco)` is the adapter's
    /// admission policy (suspect users, disreputable bTelcos); `false`
    /// refuses with [`SapError::PolicyRefused`].
    pub fn authorize(
        &mut self,
        state: &mut AuthState,
        reqs: &[AuthReqT],
        admit: impl Fn(Identity, Identity) -> bool,
    ) -> Vec<Verdict> {
        let checked = self.run_checks(&state.subscribers, reqs);

        // Decide in arrival order: a replayed nonce must observe every
        // earlier request of its own batch.
        let mut granted: Vec<GrantItem> = Vec::new();
        let refused: Vec<Option<SapError>> = checked
            .into_iter()
            .enumerate()
            .map(|(idx, chk)| {
                let (vec, entry) = match chk {
                    Ok(ok) => ok,
                    Err(e) => return Some(e),
                };
                if !admit(vec.id_u, vec.id_t) {
                    return Some(SapError::PolicyRefused);
                }
                // Replay protection: each authVec nonce authorizes once.
                if !state.insert_nonce(vec.nonce) {
                    return Some(SapError::NonceMismatch);
                }
                let session_id = state.next_session;
                state.next_session += 1;
                granted.push(GrantItem {
                    idx,
                    vec,
                    entry,
                    session_id,
                });
                None
            })
            .collect();

        // All RNG material is drawn here, sequentially, in grant order —
        // the grant ranges then do only pure curve math.
        let draws = sap::grant_draws(&mut self.rng, granted.len());
        let replies = self.run_grants(reqs, &granted, &draws);

        let mut grants = granted.into_iter().zip(replies);
        refused
            .into_iter()
            .map(|refusal| match refusal {
                Some(e) => Err(e),
                None => {
                    let (g, (reply, _qos, _ss)) = grants.next().expect("one reply per grant");
                    Ok(Grant {
                        reply,
                        vec: g.vec,
                        session_id: g.session_id,
                        telco_key: reqs[g.idx].t_cert.key,
                    })
                }
            })
            .collect()
    }

    /// The check stage, split into contiguous ranges of the batch.
    fn run_checks(&self, subs: &Subscribers, reqs: &[AuthReqT]) -> Vec<Checked> {
        scatter(self.workers, reqs.len(), |r| {
            check_chunk(&self.ctx, subs, &reqs[r])
        })
    }

    /// The grant stage against pre-drawn RNG material, split into
    /// contiguous ranges of the grants. Each range pools its own seal
    /// and signature inversions; the result is byte-identical to one big
    /// batch under the same draws.
    fn run_grants(
        &self,
        reqs: &[AuthReqT],
        granted: &[GrantItem],
        draws: &[sap::GrantDraws],
    ) -> Vec<GrantOut> {
        scatter(self.workers, granted.len(), |r| {
            let work = granted[r.clone()].iter().map(|g| (&reqs[g.idx], g));
            grant_chunk(&self.ctx.keys, work, &draws[r])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::{TelcoKeys, UeKeys};
    use crate::sap::QosCap;
    use cellbricks_crypto::cert::CertificateAuthority;

    /// What a bTelco calls the UE is per session: two attaches of one UE
    /// through one bTelco carry different `ue_alias` values, so the
    /// bTelco cannot link the visits by it.
    #[test]
    fn two_attaches_of_one_ue_carry_different_aliases() {
        let mut rng = SimRng::new(7);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker = BrokerKeys::generate("broker.example", &ca, &mut rng);
        let telco = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
        let ue = UeKeys::generate(&mut rng);
        let mut state = AuthState::new(1);
        let (sign_pk, encrypt_pk) = ue.public();
        state.provision(ue.identity(), sign_pk, encrypt_pk, 50_000_000);
        let mut core = BrokerCore::new(broker.clone(), ca.public_key(), rng.fork(), 0);
        let aliases: Vec<u64> = (0..2)
            .map(|_| {
                let (req_u, _) = sap::ue_build_request(
                    &ue,
                    "broker.example",
                    &broker.encrypt.public_key(),
                    telco.identity(),
                    &mut rng,
                );
                let cap = QosCap {
                    max_mbr_bps: 100_000_000,
                    qci_supported: vec![9],
                    li_capable: true,
                };
                let req = sap::telco_wrap_request(&telco, req_u, cap);
                let grant = core.authorize(&mut state, &[req], |_, _| true).remove(0);
                let reply = grant.expect("granted").reply;
                sap::telco_verify_reply(&telco, &ca.public_key(), &reply)
                    .expect("bTelco accepts")
                    .ue_alias
            })
            .collect();
        assert_ne!(aliases[0], aliases[1], "one alias across two attaches");
    }

    /// Over parallelism 0..=9 × n 0..=300, the ranges `scatter` runs
    /// cover `0..n` exactly once and come back in order, there are at
    /// most `max(parallelism, 1)` of them, each holds at least
    /// `MIN_CHUNK` items unless the whole batch is shorter, and the
    /// first runs on the calling thread.
    #[test]
    fn scatter_ranges_partition_the_batch_in_order() {
        let caller = std::thread::current().id();
        for parallelism in 0..=9 {
            for n in 0..=300 {
                let ran = scatter(parallelism, n, |r| vec![(r, std::thread::current().id())]);
                assert!(ran.len() <= parallelism.max(1), "p={parallelism} n={n}");
                let mut next = 0;
                for (r, _) in &ran {
                    assert_eq!(r.start, next, "p={parallelism} n={n}: gap or overlap");
                    assert!(
                        n < MIN_CHUNK || r.len() >= MIN_CHUNK,
                        "p={parallelism} n={n}: range {r:?} below MIN_CHUNK"
                    );
                    next = r.end;
                }
                assert_eq!(next, n, "p={parallelism} n={n}: ranges stop short");
                if let Some((_, first)) = ran.first() {
                    assert_eq!(*first, caller, "p={parallelism} n={n}: first range inline");
                }
            }
        }
    }

    /// The anti-replay window is bounded (FIFO eviction past the cap)
    /// while replays inside the window are still rejected.
    #[test]
    fn nonce_window_bounded_with_fifo_eviction() {
        let mut state = AuthState::new(1);
        let nonce_of = |i: u64| -> [u8; 16] {
            let mut n = [0u8; 16];
            n[..8].copy_from_slice(&i.to_le_bytes());
            n
        };
        for i in 0..(NONCE_WINDOW_CAP as u64 + 1_000) {
            assert!(state.insert_nonce(nonce_of(i)), "fresh nonce {i} accepted");
        }
        assert_eq!(
            state.seen_nonces.len(),
            NONCE_WINDOW_CAP,
            "window bounded at the cap"
        );
        assert_eq!(state.nonce_order.len(), NONCE_WINDOW_CAP);
        // A replay inside the window is still caught...
        let recent = nonce_of(NONCE_WINDOW_CAP as u64 + 999);
        assert!(!state.insert_nonce(recent), "recent replay rejected");
        // ...while the oldest entries were evicted (the replay horizon
        // the cap trades away).
        assert!(!state.seen_nonces.contains(&nonce_of(0)));
        assert!(!state.seen_nonces.contains(&nonce_of(999)));
        assert!(state.seen_nonces.contains(&nonce_of(1_000)));
    }
}

//! The broker's authorization state machine — the one piece of code
//! that decides a SAP attachment, whichever transport asked (DESIGN §12).
//!
//! Sans-IO, in the shape `cellbricks_transport::quic` already has: the
//! caller moves bytes and time, the core only decides. An adapter hands
//! [`BrokerCore::authorize`] a batch of decoded [`AuthReqT`]s (a single
//! request is a batch of one) and gets one [`Verdict`] per request, in
//! arrival order. Three phases:
//!
//! * **check** (pure; on the crypto workers when there is a pool):
//!   prechecks around one pooled [`open_batch`], then one pooled
//!   [`verify_batch`] across the chunk. Anything that fails is re-run
//!   through [`sap::broker_authenticate_sequential`] purely to name the
//!   error.
//! * **decide** (sequential, arrival order): the adapter's admission
//!   policy, anti-replay, session ids and every RNG draw
//!   ([`sap::grant_draws`]) — so a replay observes every earlier request
//!   of its own batch, nothing is drawn or sealed for a refused request,
//!   and replies are byte-identical at any worker count or batch split.
//!   Policy sits here because the simulator's reputation system lives
//!   behind a lock and cannot follow a chunk onto a worker; it is the
//!   *last* check of the seed-order path, so the named error is the same.
//! * **grant** (pure; workers again): pooled seal + sign against the
//!   pre-drawn material ([`sap::broker_grant_batch_prepared`]).
//!
//! The durable half ([`AuthState`]) is kept apart from the per-process
//! half ([`BrokerCore`]) so the replicas of one shard decide over one
//! shared state. What a grant means beyond the reply is the adapter's
//! business: the simulated broker opens a billing session, the wire
//! server bumps a counter.

use crate::principal::{BrokerKeys, Identity};
use crate::sap::{self, AuthReqT, AuthVec, BrokerReply, SapError, SubscriberEntry};
use cellbricks_crypto::ed25519::{verify_batch, BatchItem, VerifyingKey};
use cellbricks_crypto::sealed::open_batch;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// FIFO cap on the anti-replay nonce window, mirroring the crypto-layer
/// key caches: a replayed `authReqT` is only useful to an attacker while
/// the original authorization is recent, so the window holds the most
/// recent authorizations and evicts the oldest past the cap. 64 Ki
/// nonces (1 MiB) is orders of magnitude more than any in-flight attach
/// horizon; without the cap, million-UE attach churn grows the set
/// forever.
pub const NONCE_WINDOW_CAP: usize = 1 << 16;

type Subscribers = HashMap<Identity, SubscriberEntry>;

/// The durable authorization state of one broker (shard): what the
/// paper's broker keeps in replicated cloud storage.
pub struct AuthState {
    /// Behind an `Arc` so crypto workers read it lock-free while the
    /// decision stage holds `&mut self`.
    subscribers: Arc<Subscribers>,
    /// Nonces seen in authorized requests: a replayed `authReqT`
    /// (captured on the wire and re-submitted, e.g. by a bTelco trying
    /// to open ghost billing sessions) is rejected — the UE nonce in
    /// `authVec` is the anti-replay anchor the paper describes (§4.1).
    seen_nonces: HashSet<[u8; 16]>,
    /// FIFO order of `seen_nonces` for bounded eviction.
    nonce_order: VecDeque<[u8; 16]>,
    next_session: u64,
    next_alias: u64,
}

impl AuthState {
    /// Fresh state whose session ids start at `session_base` — shards of
    /// a broker plane carve the id space so sessions stay globally
    /// unique.
    #[must_use]
    pub fn new(session_base: u64) -> Self {
        Self {
            subscribers: Arc::new(HashMap::new()),
            seen_nonces: HashSet::new(),
            nonce_order: VecDeque::new(),
            next_session: session_base,
            next_alias: 1,
        }
    }

    /// Provision a subscriber (issue keys out of band; store publics)
    /// under the next billing alias.
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        let alias = self.next_alias;
        self.next_alias += 1;
        Arc::make_mut(&mut self.subscribers).insert(
            id,
            SubscriberEntry {
                sign_pk,
                encrypt_pk,
                plan_mbr_bps,
                // Suspicion is the adapter's admission policy, asked in
                // the decision stage; no table entry carries it.
                suspect: false,
                alias,
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
#[derive(Clone)]
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

/// Never split a batch below this many requests per chunk: tiny chunks
/// pay scatter overhead without amortizing anything. With W=1 the chunk
/// length is always ≥ the whole batch, so a single-worker pipeline runs
/// the exact same pooled calls as the inline path.
const MIN_CHUNK: usize = 4;

/// Per-worker job-queue bound. A scatter sends at most one chunk per
/// worker, so a small bound suffices; it exists to make any future
/// misuse (flooding the pool without gathering) fail loudly by blocking.
const POOL_QUEUE_BOUND: usize = 8;

/// One chunk of a scatter, closed over its inputs and result channel.
type PoolJob = Box<dyn FnOnce() + Send>;

/// One crypto worker: its bounded job channel, thread, and busy clock.
struct Worker {
    tx: mpsc::SyncSender<PoolJob>,
    handle: std::thread::JoinHandle<()>,
    busy_ns: Arc<AtomicU64>,
    util_gauge: telemetry::Gauge,
}

/// The crypto worker pool: W persistent threads. Chunk i of a scatter
/// goes to worker i, results are gathered by chunk index — arrival order
/// is preserved by construction.
struct CryptoPool {
    workers: Vec<Worker>,
    queued: Arc<AtomicUsize>,
    started: Instant,
}

impl CryptoPool {
    fn new(workers: usize) -> Self {
        let queued = Arc::new(AtomicUsize::new(0));
        let workers = (0..workers)
            .map(|i| {
                let (tx, rx) = mpsc::sync_channel::<PoolJob>(POOL_QUEUE_BOUND);
                let busy_ns = Arc::new(AtomicU64::new(0));
                let (busy, queued) = (Arc::clone(&busy_ns), Arc::clone(&queued));
                let handle = std::thread::Builder::new()
                    .name(format!("brokerd-crypto-{i}"))
                    .spawn(move || crypto_worker(&rx, &busy, &queued))
                    .expect("spawn crypto worker");
                let util_gauge = telemetry::gauge(format!("brokerd.worker{i}.util_permille"));
                Worker {
                    tx,
                    handle,
                    busy_ns,
                    util_gauge,
                }
            })
            .collect();
        Self {
            workers,
            queued,
            started: Instant::now(),
        }
    }

    /// Busy-time share of each worker since pool start, in permille.
    fn utilization_permille(&self) -> Vec<u64> {
        let wall = (self.started.elapsed().as_nanos() as u64).max(1);
        self.workers
            .iter()
            .map(|w| w.busy_ns.load(Ordering::Relaxed) * 1000 / wall)
            .collect()
    }

    fn publish_util(&self) {
        for (util, w) in self.utilization_permille().iter().zip(&self.workers) {
            w.util_gauge.set(*util as i64);
        }
    }

    /// Contiguous chunk length for `n` items over this pool.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil(self.workers.len()).max(MIN_CHUNK)
    }

    /// Run `run` over each of `chunks` on the workers (chunk i → worker
    /// i mod W) and gather the results back by chunk index, i.e. in
    /// arrival order.
    fn scatter<C: Send + 'static, R: Send + 'static>(
        &self,
        chunks: impl Iterator<Item = C>,
        run: impl Fn(C) -> Vec<R> + Clone + Send + 'static,
    ) -> Vec<R> {
        let (tx, rx) = mpsc::channel();
        let mut sent = 0usize;
        for chunk in chunks {
            let (tx, run) = (tx.clone(), run.clone());
            self.queued.fetch_add(1, Ordering::Relaxed);
            self.workers[sent % self.workers.len()]
                .tx
                .send(Box::new(move || {
                    let _ = tx.send((sent, run(chunk)));
                }))
                .expect("crypto worker alive");
            sent += 1;
        }
        drop(tx);
        telemetry::histogram("brokerd.queue_depth")
            .record(self.queued.load(Ordering::Relaxed) as u64);
        let mut parts: Vec<Vec<R>> = (0..sent).map(|_| Vec::new()).collect();
        for _ in 0..sent {
            let (ci, out) = rx.recv().expect("crypto worker reply");
            parts[ci] = out;
        }
        parts.into_iter().flatten().collect()
    }
}

impl Drop for CryptoPool {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.tx); // closing its job channel ends the worker's recv loop
            let _ = w.handle.join();
        }
    }
}

fn crypto_worker(rx: &mpsc::Receiver<PoolJob>, busy: &AtomicU64, queued: &AtomicUsize) {
    while let Ok(job) = rx.recv() {
        let t0 = Instant::now();
        job();
        busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        queued.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Exact error attribution via the seed-order sequential checks. Pure
/// with respect to broker state, so it runs inside worker chunks.
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

/// The per-process half of a broker: keys + CA, the grant rng, and the
/// optional crypto worker pool. See the module docs for the phases.
pub struct BrokerCore {
    ctx: Arc<CoreKeys>,
    rng: SimRng,
    pool: Option<CryptoPool>,
}

impl BrokerCore {
    /// A core backed by a pool of `workers` crypto threads (0 = every
    /// phase inline on the calling thread). Verdicts are byte-identical
    /// at any worker count — parallelism changes only where the pure
    /// phases execute.
    #[must_use]
    pub fn new(keys: BrokerKeys, ca: VerifyingKey, rng: SimRng, workers: usize) -> Self {
        Self {
            ctx: Arc::new(CoreKeys { keys, ca }),
            rng,
            pool: (workers > 0).then(|| CryptoPool::new(workers)),
        }
    }

    /// Number of crypto workers (0 = inline processing).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.workers.len())
    }

    /// Busy-share of each crypto worker since startup, in permille of
    /// wall time. Empty for an inline core.
    #[must_use]
    pub fn worker_utilization_permille(&self) -> Vec<u64> {
        self.pool
            .as_ref()
            .map_or_else(Vec::new, CryptoPool::utilization_permille)
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
        // workers then do only pure curve math.
        let draws = sap::grant_draws(&mut self.rng, granted.len());
        let replies = self.run_grants(reqs, &granted, draws);

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

    /// The check stage: inline without a pool, otherwise scattered in
    /// contiguous chunks.
    fn run_checks(&self, subs: &Arc<Subscribers>, reqs: &[AuthReqT]) -> Vec<Checked> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let Some(pool) = &self.pool else {
            return check_chunk(&self.ctx, subs, reqs);
        };
        let (ctx, table) = (Arc::clone(&self.ctx), Arc::clone(subs));
        let out = pool.scatter(
            reqs.chunks(pool.chunk_len(reqs.len())).map(<[_]>::to_vec),
            move |reqs| check_chunk(&ctx, &table, &reqs),
        );
        pool.publish_util();
        out
    }

    /// The grant stage against pre-drawn RNG material: inline without a
    /// pool, scattered with one. Each chunk pools its own seal and
    /// signature inversions; the result is byte-identical to one big
    /// batch under the same draws.
    fn run_grants(
        &self,
        reqs: &[AuthReqT],
        granted: &[GrantItem],
        draws: Vec<sap::GrantDraws>,
    ) -> Vec<GrantOut> {
        if granted.is_empty() {
            return Vec::new();
        }
        let Some(pool) = &self.pool else {
            let work = granted.iter().map(|g| (&reqs[g.idx], g));
            return grant_chunk(&self.ctx.keys, work, &draws);
        };
        let ctx = Arc::clone(&self.ctx);
        let mut draws = draws.into_iter();
        let chunks = granted.chunks(pool.chunk_len(granted.len())).map(|slice| {
            let work: Vec<(AuthReqT, GrantItem)> = slice
                .iter()
                .map(|g| (reqs[g.idx].clone(), g.clone()))
                .collect();
            let draws: Vec<sap::GrantDraws> = draws.by_ref().take(slice.len()).collect();
            (work, draws)
        });
        pool.scatter(chunks, move |(work, draws)| {
            grant_chunk(&ctx.keys, work.iter().map(|(req, g)| (req, g)), &draws)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

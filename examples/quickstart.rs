//! Quickstart: the CellBricks secure attachment protocol in five minutes.
//!
//! Runs the SAP message flow (paper §4.1, Figs. 2–3) entirely in memory —
//! no simulated network — so you can see exactly what each party computes
//! and learns:
//!
//! ```text
//! UE ──authReqU──▶ bTelco ──authReqT──▶ broker
//! UE ◀─authRespU── bTelco ◀─brokerReply─┘
//! ```
//!
//! Run with: `cargo run --example quickstart`

use cellbricks::core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks::core::sap::{self, QosCap};
use cellbricks::core::{AuthState, BrokerCore};
use cellbricks::crypto::cert::CertificateAuthority;
use cellbricks::epc::aka::{derive_nas_enc_key, derive_nas_int_key};
use cellbricks::sim::SimRng;

fn main() {
    let mut rng = SimRng::new(0xce11_b41c);

    // --- Setup: the PKI the paper assumes (§4.1). ---
    // Brokers and bTelcos have CA-certified keys; the UE's key pair is
    // issued by its broker and lives in the broker's subscriber DB.
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker = BrokerKeys::generate("broker.example", &ca, &mut rng);
    let telco = TelcoKeys::generate("corner-cafe-tower.example", &ca, &mut rng);
    let ue = UeKeys::generate(&mut rng);
    println!(
        "UE identity (key digest): {:02x?}...",
        &ue.identity().0[..4]
    );
    println!("bTelco:  {} (single tower, no prior contracts)", telco.name);
    println!("broker:  {}\n", broker.name);

    // --- Step 1: the UE requests service from a tower it has never seen.
    let (req_u, nonce) = sap::ue_build_request(
        &ue,
        "broker.example",
        &broker.encrypt.public_key(),
        telco.identity(),
        &mut rng,
    );
    let wire = req_u.encode();
    println!(
        "1. UE → bTelco   authReqU ({} bytes on the wire)",
        wire.len()
    );
    println!("   The UE identity is sealed to the broker: the bTelco cannot");
    println!("   act as an IMSI catcher.");

    // --- Step 2: the bTelco augments with its QoS capabilities and signs.
    let req_t = sap::telco_wrap_request(
        &telco,
        req_u,
        QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9, 8],
            li_capable: true,
        },
    );
    println!(
        "2. bTelco → broker  authReqT ({} bytes, + certificate + qosCap)",
        req_t.encode().len()
    );

    // --- Step 3: the broker authenticates BOTH parties and authorizes.
    // The broker core decides batches of decoded requests against its
    // durable state (subscriber table, anti-replay window, session
    // ids); one attach is a batch of one.
    let (sign_pk, encrypt_pk) = ue.public();
    let mut state = AuthState::new(1001); // First billing session id.
    state.provision(ue.identity(), sign_pk, encrypt_pk, 50_000_000);
    let mut core = BrokerCore::new(broker.clone(), ca.public_key(), rng.fork(), 0);
    let grant = core
        .authorize(&mut state, &[req_t], |_ue, _telco| true) // Reputation admits both.
        .remove(0)
        .expect("broker authorizes");
    let reply = grant.reply;
    println!("3. broker → bTelco  brokerReply (authRespT ‖ authRespU)");
    println!("   broker verified: bTelco cert ✓  bTelco sig ✓  UE sig ✓");
    assert_eq!(grant.vec.nonce, nonce);

    // --- Step 4: bTelco extracts its authorization proof; UE verifies.
    let t_body = sap::telco_verify_reply(&telco, &ca.public_key(), &reply)
        .expect("bTelco accepts the authorization");
    println!(
        "4. bTelco: authorization proof for UE alias #{} (never the identity)",
        t_body.ue_alias
    );
    println!(
        "   granted QoS: {} Mbps MBR, QCI {} (min of plan and qosCap)",
        t_body.qos.mbr_bps / 1_000_000,
        t_body.qos.qci
    );
    let u_body = sap::ue_verify_response(
        &ue,
        &broker.sign.verifying_key(),
        &nonce,
        telco.identity(),
        &reply.resp_u,
    )
    .expect("UE accepts (nonce fresh, broker signature valid)");
    println!("   UE: broker signature ✓  nonce echo ✓  target bTelco ✓");

    // --- Both sides now share `ss`, the KASME-equivalent (§4.1): derive
    // the standard NAS key hierarchy from it, unmodified.
    assert_eq!(u_body.ss, t_body.ss);
    let k_int = derive_nas_int_key(&u_body.ss);
    let k_enc = derive_nas_enc_key(&u_body.ss);
    println!("\nShared secret established; NAS security context derived:");
    println!("   K_NASint = {:02x?}...", &k_int[..4]);
    println!("   K_NASenc = {:02x?}...", &k_enc[..4]);
    println!("\nOne UE→bTelco→broker round trip — versus two S6A round trips");
    println!("for today's EPS-AKA attach. That difference is Fig. 7.");
}

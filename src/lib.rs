//! CellBricks: a Rust reproduction of *Democratizing Cellular Access with
//! CellBricks* (SIGCOMM 2021).
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | **The paper's contribution**: the SAP secure attachment protocol, `brokerd`, the bTelco gateway, the CellBricks UE (host-driven mobility + sealed baseband metering), verifiable billing and the reputation system |
//! | [`transport`] | TCP (CUBIC + SACK), MPTCP with break-before-make subflow replacement, a QUIC-style migrating transport, the simulated [`transport::Host`] |
//! | [`epc`] | The baseline LTE core: NAS, EPS-AKA, S6A, bearers, PGW accounting |
//! | [`ran`] | Towers, pathloss, cell selection, drive-test mobility |
//! | [`net`] | The packet network: links, token-bucket policers, routing, the event loop |
//! | [`crypto`] | From-scratch SHA-2 / HMAC / HKDF / ChaCha20 / X25519 / Ed25519 / sealed boxes / CA |
//! | [`apps`] | Evaluation workloads (iperf, ping, VoIP, video, web) and the §6.2 drive emulation |
//! | [`sim`] | The deterministic discrete-event kernel everything runs on |
//!
//! # Quick taste
//!
//! The secure attachment protocol, in memory (see
//! `examples/quickstart.rs` for the narrated version and
//! `examples/full_stack_handover.rs` for the full system over the
//! simulated network):
//!
//! ```
//! use cellbricks::core::principal::{BrokerKeys, TelcoKeys, UeKeys};
//! use cellbricks::core::sap::{self, QosCap};
//! use cellbricks::core::{AuthState, BrokerCore};
//! use cellbricks::crypto::cert::CertificateAuthority;
//! use cellbricks::sim::SimRng;
//!
//! let mut rng = SimRng::new(7);
//! let ca = CertificateAuthority::from_seed([0xCA; 32]);
//! let broker = BrokerKeys::generate("broker.example", &ca, &mut rng);
//! let telco = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
//! let ue = UeKeys::generate(&mut rng);
//!
//! // UE → bTelco → broker, one round trip:
//! let (req_u, nonce) = sap::ue_build_request(
//!     &ue, "broker.example", &broker.encrypt.public_key(), telco.identity(), &mut rng);
//! let req_t = sap::telco_wrap_request(
//!     &telco, req_u,
//!     QosCap { max_mbr_bps: 100_000_000, qci_supported: vec![9], li_capable: true });
//! // The broker core decides a batch of one against its state:
//! let (sign_pk, encrypt_pk) = ue.public();
//! let mut state = AuthState::new(1);
//! state.provision(ue.identity(), sign_pk, encrypt_pk, 50_000_000);
//! let mut core = BrokerCore::new(broker.clone(), ca.public_key(), rng.fork(), 0);
//! let grant = core.authorize(&mut state, &[req_t], |_, _| true).remove(0).expect("authorized");
//! let reply = grant.reply;
//!
//! // Both ends verify and share the session secret:
//! let t = sap::telco_verify_reply(&telco, &ca.public_key(), &reply).unwrap();
//! let u = sap::ue_verify_response(
//!     &ue, &broker.sign.verifying_key(), &nonce, telco.identity(), &reply.resp_u).unwrap();
//! assert_eq!(t.ss, u.ss);
//! ```

#![forbid(unsafe_code)]

pub use cellbricks_apps as apps;
pub use cellbricks_core as core;
pub use cellbricks_crypto as crypto;
pub use cellbricks_epc as epc;
pub use cellbricks_net as net;
pub use cellbricks_ran as ran;
pub use cellbricks_sim as sim;
pub use cellbricks_transport as transport;

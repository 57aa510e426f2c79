//! Shared gateway building blocks: UE IP pools, bearer tables and
//! PGW-style usage accounting.
//!
//! Both the baseline [`crate::agw::Agw`] and the CellBricks bTelco gateway
//! (in `cellbricks-core`) compose these: CellBricks changes *who
//! authorizes* an attachment, not how bearers and accounting work.

use cellbricks_sim::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Allocates UE addresses from an operator's /16 pool.
#[derive(Clone, Debug)]
pub struct IpPool {
    base: Ipv4Addr,
    next: u16,
    free: Vec<u16>,
}

impl IpPool {
    /// A pool over `base/16` (host part allocated sequentially, starting
    /// at .0.2 to avoid the network and gateway addresses).
    #[must_use]
    pub fn new(base: Ipv4Addr) -> Self {
        Self {
            base,
            next: 2,
            free: Vec::new(),
        }
    }

    /// Allocate an address; `None` when exhausted.
    pub fn allocate(&mut self) -> Option<Ipv4Addr> {
        let host = if let Some(h) = self.free.pop() {
            h
        } else {
            if self.next == u16::MAX {
                return None;
            }
            let h = self.next;
            self.next += 1;
            h
        };
        let o = self.base.octets();
        Some(Ipv4Addr::new(o[0], o[1], (host >> 8) as u8, host as u8))
    }

    /// Return an address to the pool.
    pub fn release(&mut self, ip: Ipv4Addr) {
        let o = ip.octets();
        let base = self.base.octets();
        if o[0] == base[0] && o[1] == base[1] {
            self.free.push((u16::from(o[2]) << 8) | u16::from(o[3]));
        }
    }
}

/// One UE's bearer: its assigned address, QoS cap and usage counters —
/// the PGW measurement point today's billing relies on (paper §4.3).
#[derive(Clone, Debug)]
pub struct Bearer {
    /// Subscriber identity (IMSI in the baseline, a UE pseudonym id in
    /// CellBricks — the bTelco never learns the real identity there).
    pub subscriber: u64,
    /// Assigned data-plane address.
    pub ue_ip: Ipv4Addr,
    /// The UE's signalling address.
    pub ue_sig: Ipv4Addr,
    /// Downlink bytes forwarded.
    pub dl_bytes: u64,
    /// Uplink bytes forwarded.
    pub ul_bytes: u64,
    /// Downlink packets dropped before the bearer (for QoS metrics).
    pub dl_dropped: u64,
    /// Maximum bit rate in bits/s (None = unmetered), from qosInfo.
    pub mbr_bps: Option<f64>,
    /// MBR policer bucket level, bytes.
    mbr_tokens: f64,
    /// When the policer bucket was last refilled.
    mbr_at: SimTime,
}

impl Bearer {
    /// Enforce the granted maximum bit rate on a downlink packet of
    /// `size` bytes (3GPP MBR policing of the negotiated `qosInfo`).
    /// Returns false — and counts the drop — when the bearer is over rate.
    pub fn police_dl(&mut self, now: SimTime, size: u32) -> bool {
        let Some(rate) = self.mbr_bps else {
            return true; // Unmetered bearer.
        };
        let burst = rate / 8.0 * 0.0625; // 62.5 ms of burst at MBR, bytes.
        let elapsed = now.saturating_since(self.mbr_at).as_secs_f64();
        self.mbr_tokens = (self.mbr_tokens + rate / 8.0 * elapsed).min(burst.max(f64::from(size)));
        self.mbr_at = now;
        if self.mbr_tokens >= f64::from(size) {
            self.mbr_tokens -= f64::from(size);
            true
        } else {
            self.dl_dropped += 1;
            false
        }
    }
}

/// The gateway's bearer table, indexed by UE address.
#[derive(Default)]
pub struct BearerTable {
    by_ip: HashMap<Ipv4Addr, Bearer>,
    next_bearer_id: u8,
}

impl BearerTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a bearer for `subscriber` with address `ue_ip`.
    pub fn establish(
        &mut self,
        subscriber: u64,
        ue_ip: Ipv4Addr,
        ue_sig: Ipv4Addr,
        mbr_bps: Option<f64>,
        now: SimTime,
    ) -> u8 {
        let bearer_id = self.next_bearer_id;
        self.next_bearer_id = self.next_bearer_id.wrapping_add(1);
        self.by_ip.insert(
            ue_ip,
            Bearer {
                subscriber,
                ue_ip,
                ue_sig,
                dl_bytes: 0,
                ul_bytes: 0,
                dl_dropped: 0,
                mbr_bps,
                // Start with one burst's worth of tokens.
                mbr_tokens: mbr_bps.map_or(0.0, |r| r / 8.0 * 0.0625),
                mbr_at: now,
            },
        );
        bearer_id
    }

    /// Tear down the bearer for `ue_ip`, returning it for final accounting.
    pub fn release(&mut self, ue_ip: Ipv4Addr) -> Option<Bearer> {
        self.by_ip.remove(&ue_ip)
    }

    /// Look up by UE address.
    #[must_use]
    pub fn get(&self, ue_ip: Ipv4Addr) -> Option<&Bearer> {
        self.by_ip.get(&ue_ip)
    }

    /// Mutable lookup by UE address.
    pub fn get_mut(&mut self, ue_ip: Ipv4Addr) -> Option<&mut Bearer> {
        self.by_ip.get_mut(&ue_ip)
    }

    /// Number of active bearers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_ip.len()
    }

    /// True if no bearers are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_ip.is_empty()
    }

    /// Iterate over active bearers.
    pub fn iter(&self) -> impl Iterator<Item = &Bearer> {
        self.by_ip.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_distinct() {
        let mut p = IpPool::new(Ipv4Addr::new(10, 1, 0, 0));
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, Ipv4Addr::new(10, 1, 0, 2));
    }

    #[test]
    fn pool_recycles_released() {
        let mut p = IpPool::new(Ipv4Addr::new(10, 1, 0, 0));
        let a = p.allocate().unwrap();
        p.release(a);
        assert_eq!(p.allocate().unwrap(), a);
    }

    #[test]
    fn pool_ignores_foreign_release() {
        let mut p = IpPool::new(Ipv4Addr::new(10, 1, 0, 0));
        p.release(Ipv4Addr::new(10, 2, 0, 5));
        assert_eq!(p.allocate().unwrap(), Ipv4Addr::new(10, 1, 0, 2));
    }

    #[test]
    fn pool_crosses_third_octet() {
        let mut p = IpPool::new(Ipv4Addr::new(10, 1, 0, 0));
        for _ in 0..300 {
            p.allocate().unwrap();
        }
        let ip = p.allocate().unwrap();
        assert_eq!(ip.octets()[2], 1);
    }

    #[test]
    fn bearer_lifecycle() {
        let mut t = BearerTable::new();
        let ip = Ipv4Addr::new(10, 1, 0, 2);
        let sig = Ipv4Addr::new(169, 254, 0, 1);
        t.establish(42, ip, sig, Some(1e6), SimTime::ZERO);
        assert_eq!(t.len(), 1);
        let b = t.get(ip).unwrap();
        assert_eq!(b.subscriber, 42);
        t.get_mut(ip).unwrap().dl_bytes += 100;
        let released = t.release(ip).unwrap();
        assert_eq!(released.dl_bytes, 100);
        assert!(t.is_empty());
        assert!(t.release(ip).is_none());
    }

    #[test]
    fn mbr_policer_caps_rate() {
        let mut t = BearerTable::new();
        let ip = Ipv4Addr::new(10, 1, 0, 2);
        let sig = Ipv4Addr::new(169, 254, 0, 1);
        // 8 Mbit/s = 1 MB/s granted.
        t.establish(1, ip, sig, Some(8.0e6), SimTime::ZERO);
        let b = t.get_mut(ip).unwrap();
        // Offer 2 MB over one second in 1500-byte packets: ~half must drop.
        let mut passed = 0u64;
        for i in 0..1334 {
            let now = SimTime::from_nanos(i * 750_000); // 1334 pkts over 1 s.
            if b.police_dl(now, 1500) {
                passed += 1;
            }
        }
        let passed_bytes = passed * 1500;
        assert!(
            (900_000..1_200_000).contains(&passed_bytes),
            "passed {passed_bytes} bytes through an 1 MB/s policer"
        );
        assert!(b.dl_dropped > 0);
    }

    #[test]
    fn unmetered_bearer_never_drops() {
        let mut t = BearerTable::new();
        let ip = Ipv4Addr::new(10, 1, 0, 2);
        let sig = Ipv4Addr::new(169, 254, 0, 1);
        t.establish(1, ip, sig, None, SimTime::ZERO);
        let b = t.get_mut(ip).unwrap();
        for _ in 0..10_000 {
            assert!(b.police_dl(SimTime::ZERO, 1500));
        }
        assert_eq!(b.dl_dropped, 0);
    }

    #[test]
    fn bearer_ids_distinct() {
        let mut t = BearerTable::new();
        let sig = Ipv4Addr::new(169, 254, 0, 1);
        let a = t.establish(1, Ipv4Addr::new(10, 1, 0, 2), sig, None, SimTime::ZERO);
        let b = t.establish(2, Ipv4Addr::new(10, 1, 0, 3), sig, None, SimTime::ZERO);
        assert_ne!(a, b);
    }
}

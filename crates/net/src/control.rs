//! The control-plane adapter: the one implementation of the cost model
//! every simulated control-plane party shares (DESIGN §5).
//!
//! A party — UE, eNB, gateway, HSS, broker — is protocol logic behind
//! [`ControlParty`]. [`ControlEndpoint`] makes it an [`Endpoint`] and
//! runs its [`ControlPort`]: the processing-delay line (FIFO at equal
//! instants), the `proc_time` ledger behind the Fig. 7 buckets, serial
//! service, and the outage gate that scripted faults close. The party
//! holds its port because its owner may send outside any callback (a
//! harness starting a UE's attach), into the same line, with no extra
//! wakeup. The four send shapes:
//!
//! | shape | call | leaves at | ledger |
//! |---|---|---|---|
//! | delayed, billed | [`ControlPort::send`] | `now + proc_delay`; serial: after the previous send | `+ proc_delay` |
//! | delayed, not billed | [`ControlPort::send_unbilled`] | `now + proc_delay` | — |
//! | staged | [`ControlPort::stage`] | `now`, on the next poll | — |
//! | forwarded | `out.push` in a callback | at once | — |

use crate::engine::earlier;
use crate::fault::EndpointFault;
use crate::packet::Packet;
use crate::topology::NodeId;
use crate::world::Endpoint;
use cellbricks_sim::{EventQueue, SimDuration, SimTime};
use std::ops::{Deref, DerefMut};

/// A party's delay line, ledger, service queue and outage gate.
pub struct ControlPort {
    node: NodeId,
    proc_delay: SimDuration,
    /// [`ControlParty::SERIAL`], set by [`ControlEndpoint::new`].
    serial: bool,
    line: EventQueue<Packet>,
    proc_time: SimDuration,
    /// When the previous billed send is done (read only when serial).
    busy_until: SimTime,
    /// Down before this instant: arrivals drop, timers and line wait.
    down_until: SimTime,
    dropped_while_down: u64,
}

impl ControlPort {
    /// The port of a party on `node` spending `proc_delay` per message.
    #[must_use]
    pub fn new(node: NodeId, proc_delay: SimDuration) -> Self {
        Self {
            node,
            proc_delay,
            serial: false,
            line: EventQueue::new(),
            proc_time: SimDuration::ZERO,
            busy_until: SimTime::ZERO,
            down_until: SimTime::ZERO,
            dropped_while_down: 0,
        }
    }

    /// Delayed and billed: `pkt` leaves `proc_delay` after its service
    /// starts — at `now`, or when the previous send is done if serial.
    pub fn send(&mut self, now: SimTime, pkt: Packet) {
        self.proc_time = self.proc_time + self.proc_delay;
        let start = if self.serial {
            self.busy_until.max(now)
        } else {
            now
        };
        self.busy_until = start + self.proc_delay;
        self.line.push(self.busy_until, pkt);
    }

    /// Delayed but not billed: `pkt` leaves at `now + proc_delay`.
    pub fn send_unbilled(&mut self, now: SimTime, pkt: Packet) {
        self.line.push(now + self.proc_delay, pkt);
    }

    /// Staged: `pkt` leaves at `now`, behind what the line holds for
    /// `now` already.
    pub fn stage(&mut self, now: SimTime, pkt: Packet) {
        self.line.push(now, pkt);
    }

    /// Bill `d` of processing that sends nothing (a UE verifying an
    /// accept).
    pub fn bill(&mut self, d: SimDuration) {
        self.proc_time = self.proc_time + d;
    }
}

/// A control-plane party's protocol logic, called by its
/// [`ControlEndpoint`] only while the gate is open.
pub trait ControlParty {
    /// Serve one request at a time: billed sends queue behind one
    /// another instead of each starting at `now`.
    const SERIAL: bool = false;

    /// The party's port.
    fn port(&self) -> &ControlPort;
    /// The party's port, to send through.
    fn port_mut(&mut self) -> &mut ControlPort;

    /// A packet arrived.
    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>);

    /// The earliest of the party's own timers.
    fn next_timer(&self) -> Option<SimTime> {
        None
    }

    /// Fire the timers due at `now`; the line releases after.
    fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Packet>) {}

    /// A scripted fault hit, already applied by the adapter: the gate
    /// is closed until `up_at`, and a crash dropped the line and idled
    /// the service. The ledger survives.
    fn on_fault(&mut self, _fault: &EndpointFault, _up_at: SimTime) {}
}

/// Implements [`ControlParty::port`] and [`ControlParty::port_mut`] for
/// a party that keeps its port in a field named `port`.
#[macro_export]
macro_rules! port_field {
    () => {
        fn port(&self) -> &$crate::ControlPort {
            &self.port
        }
        fn port_mut(&mut self) -> &mut $crate::ControlPort {
            &mut self.port
        }
    };
}

/// A [`ControlParty`] as an [`Endpoint`]; derefs to the party.
pub struct ControlEndpoint<P>(P);

impl<P: ControlParty> ControlEndpoint<P> {
    /// Wrap `party`, served serially if [`ControlParty::SERIAL`].
    #[must_use]
    pub fn new(mut party: P) -> Self {
        party.port_mut().serial = P::SERIAL;
        Self(party)
    }

    /// Processing billed so far (the party's Fig. 7 bucket).
    #[must_use]
    pub fn proc_time(&self) -> SimDuration {
        self.0.port().proc_time
    }

    /// Packets that arrived while the party was down.
    #[must_use]
    pub fn dropped_while_down(&self) -> u64 {
        self.0.port().dropped_while_down
    }
}

impl<P> Deref for ControlEndpoint<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.0
    }
}

impl<P> DerefMut for ControlEndpoint<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.0
    }
}

impl<P: ControlParty> Endpoint for ControlEndpoint<P> {
    fn node(&self) -> NodeId {
        self.0.port().node
    }

    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        let port = self.0.port_mut();
        if now < port.down_until {
            port.dropped_while_down += 1;
            return;
        }
        self.0.on_packet(now, pkt, out);
    }

    fn poll_at(&self) -> Option<SimTime> {
        let port = self.0.port();
        earlier(port.line.peek_time(), self.0.next_timer()).map(|t| t.max(port.down_until))
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if now < self.0.port().down_until {
            return;
        }
        self.0.on_timer(now, out);
        let line = &mut self.0.port_mut().line;
        while let Some((_, pkt)) = line.pop_due(now) {
            out.push(pkt);
        }
    }

    fn inject_fault(&mut self, now: SimTime, fault: &EndpointFault) {
        let port = self.0.port_mut();
        port.down_until = match *fault {
            EndpointFault::Unavailable { until } => until.max(port.down_until),
            EndpointFault::CrashRestart { restart_at } => {
                port.line.clear();
                port.busy_until = SimTime::ZERO;
                restart_at.max(now)
            }
        };
        let up_at = port.down_until;
        self.0.on_fault(fault, up_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    /// Sends each arrival back in the shape its tag starts with: `b`
    /// billed, `u` unbilled, `s` staged, anything else forwarded.
    struct Echo<const S: bool> {
        port: ControlPort,
    }

    impl<const S: bool> ControlParty for Echo<S> {
        const SERIAL: bool = S;
        crate::port_field!();
        fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
            match tag(&pkt).as_bytes()[0] {
                b'b' => self.port.send(now, pkt),
                b'u' => self.port.send_unbilled(now, pkt),
                b's' => self.port.stage(now, pkt),
                _ => out.push(pkt),
            }
        }
    }

    fn tag(pkt: &Packet) -> &str {
        let PacketKind::Control(b) = &pkt.kind else {
            unreachable!()
        };
        std::str::from_utf8(b).expect("ascii")
    }

    /// Move `out` onto `left` as `tag@ms`.
    fn record(out: &mut Vec<Packet>, at: SimTime, left: &mut Vec<String>) {
        let ms = at.as_nanos() / 1_000_000;
        left.extend(out.drain(..).map(|p| format!("{}@{ms}", tag(&p))));
    }

    fn poll_before<P: ControlParty>(
        ep: &mut ControlEndpoint<P>,
        t: SimTime,
        left: &mut Vec<String>,
    ) {
        let mut out = Vec::new();
        while let Some(at) = ep.poll_at().filter(|&at| at < t) {
            ep.poll(at, &mut out);
            record(&mut out, at, left);
        }
    }

    /// Play `script` against a party with a 2 ms processing delay and
    /// return what left (`tag@ms`, in order), the ledger in ms and the
    /// drop count. A token is `tag@ms` for an arrival, `U<ms>@ms` for an
    /// outage until `<ms>`, `C<ms>@ms` for a crash restarting at `<ms>`.
    fn play<const S: bool>(script: &str) -> (String, u64, u64) {
        let delay = SimDuration::from_millis(2);
        let port = ControlPort::new(NodeId(0), delay);
        let mut ep = ControlEndpoint::new(Echo::<S> { port });
        let mut left = Vec::new();
        for token in script.split_whitespace() {
            let (what, t) = token.split_once('@').expect("tag@ms");
            let now = SimTime::from_millis(t.parse().expect("ms"));
            poll_before(&mut ep, now, &mut left);
            let arg = || SimTime::from_millis(what[1..].parse().expect("ms"));
            let fault = match what.as_bytes()[0] {
                b'U' => EndpointFault::Unavailable { until: arg() },
                b'C' => EndpointFault::CrashRestart { restart_at: arg() },
                _ => {
                    let ip = Ipv4Addr::LOCALHOST;
                    let pkt = Packet::control(ip, ip, Bytes::copy_from_slice(what.as_bytes()));
                    let mut out = Vec::new();
                    ep.handle_packet(now, pkt, &mut out);
                    record(&mut out, now, &mut left);
                    continue;
                }
            };
            ep.inject_fault(now, &fault);
        }
        poll_before(&mut ep, SimTime::FAR_FUTURE, &mut left);
        let ledger = ep.proc_time().as_nanos() / 1_000_000;
        (left.join(" "), ledger, ep.dropped_while_down())
    }

    /// The adapter's contract, one row per behaviour the parties rely
    /// on: (what, serial, script, what left, ledger ms, dropped).
    #[test]
    fn adapter_contract() {
        #[rustfmt::skip]
        let cases = [
            ("FIFO at equal instants, across shapes", false,
             "b1@0 u2@0 b3@0 s4@2", "b1@2 u2@2 b3@2 s4@2", 4, 0),
            ("only billed sends reach the ledger; forwards leave at once", false,
             "b1@0 u2@0 f3@1", "f3@1 b1@2 u2@2", 2, 0),
            ("serial service queues behind busy_until", true,
             "b1@0 b2@0 b3@1 b4@10", "b1@2 b2@4 b3@6 b4@12", 8, 0),
            ("an outage drops and counts arrivals and holds the line", false,
             "b1@0 U5@1 b2@3 f3@4 b4@5", "b1@5 b4@7", 4, 2),
            ("a crash drops the line, idles the service, keeps the ledger", true,
             "b1@0 b2@0 b3@0 C4@3 b4@3 b5@4", "b1@2 b5@6", 8, 1),
        ];
        for (what, serial, script, left, ledger, dropped) in cases {
            let got = if serial {
                play::<true>(script)
            } else {
                play::<false>(script)
            };
            assert_eq!(got, (left.to_string(), ledger, dropped), "{what}");
        }
    }
}

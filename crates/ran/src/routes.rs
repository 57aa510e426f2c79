//! Drive-test routes calibrated to the paper's measured MTTHO.
//!
//! Table 1 reports mean-time-to-handover for three routes, day (D) and
//! night (N):
//!
//! | route    | D (s) | N (s) |
//! |----------|-------|-------|
//! | suburb   | 73.50 | 65.60 |
//! | downtown | 68.16 | 50.60 |
//! | highway  | 44.72 | 25.50 |
//!
//! The model places towers along a straight road with spacing
//! `speed × target MTTHO` (±jitter) and lets the cell selector produce
//! emergent handovers; night drives are faster (empty roads), matching
//! the paper's observation that MTTHO drops at night.

use crate::mobility::HandoverEvent;
use crate::radio::{Tower, TowerId};
use cellbricks_net::TimeOfDay;
use cellbricks_sim::SimRng;

/// Which of the paper's three drive routes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RouteKind {
    /// Suburban arterial roads.
    Suburb,
    /// City-centre grid.
    Downtown,
    /// Freeway.
    Highway,
}

impl RouteKind {
    /// All routes, in Table 1 order.
    pub const ALL: [RouteKind; 3] = [RouteKind::Suburb, RouteKind::Downtown, RouteKind::Highway];

    /// Display name matching Table 1.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RouteKind::Suburb => "Suburb",
            RouteKind::Downtown => "Downtown",
            RouteKind::Highway => "Highway",
        }
    }

    /// The paper's measured MTTHO in seconds for calibration/reporting.
    #[must_use]
    pub fn paper_mttho_secs(self, tod: TimeOfDay) -> f64 {
        match (self, tod) {
            (RouteKind::Suburb, TimeOfDay::Day) => 73.50,
            (RouteKind::Suburb, TimeOfDay::Night) => 65.60,
            (RouteKind::Downtown, TimeOfDay::Day) => 68.16,
            (RouteKind::Downtown, TimeOfDay::Night) => 50.60,
            (RouteKind::Highway, TimeOfDay::Day) => 44.72,
            (RouteKind::Highway, TimeOfDay::Night) => 25.50,
        }
    }

    /// Drive speed, m/s. Day speeds are traffic-limited; night drives on
    /// empty roads are faster (the paper's explanation for lower MTTHO).
    #[must_use]
    pub fn speed_mps(self, tod: TimeOfDay) -> f64 {
        match (self, tod) {
            (RouteKind::Suburb, TimeOfDay::Day) => 12.0,
            (RouteKind::Suburb, TimeOfDay::Night) => 13.4,
            (RouteKind::Downtown, TimeOfDay::Day) => 8.0,
            (RouteKind::Downtown, TimeOfDay::Night) => 10.8,
            (RouteKind::Highway, TimeOfDay::Day) => 28.0,
            (RouteKind::Highway, TimeOfDay::Night) => 33.0,
        }
    }
}

/// A fully instantiated drive scenario: towers plus motion parameters.
#[derive(Clone, Debug)]
pub struct DriveProfile {
    /// Drive speed, m/s.
    pub speed_mps: f64,
    /// Towers along the route.
    pub towers: Vec<Tower>,
}

impl DriveProfile {
    /// Build a profile long enough for `duration_secs` of driving.
    ///
    /// Tower spacing is `speed × MTTHO_target` with ±15% jitter; in the
    /// paper's CellBricks scenario each tower is its own single-tower
    /// bTelco, so `operator == tower id`.
    #[must_use]
    pub fn build(
        kind: RouteKind,
        tod: TimeOfDay,
        duration_secs: f64,
        rng: &mut SimRng,
    ) -> DriveProfile {
        let speed = kind.speed_mps(tod);
        let target_spacing = speed * kind.paper_mttho_secs(tod);
        let route_len = speed * duration_secs + 2.0 * target_spacing;
        let mut towers = Vec::new();
        // First tower slightly behind the start so the UE begins attached.
        let mut x = -target_spacing * rng.uniform(0.2, 0.6);
        let mut id = 0u32;
        while x < route_len {
            let side = if id.is_multiple_of(2) { 1.0 } else { -1.0 };
            towers.push(Tower {
                id: TowerId(id),
                x,
                y: side * rng.uniform(30.0, 80.0),
                operator: id,
            });
            x += target_spacing * rng.uniform(0.85, 1.15);
            id += 1;
        }
        DriveProfile {
            speed_mps: speed,
            towers,
        }
    }

    /// UE position (metres along the route) at time `t_secs`.
    #[must_use]
    pub fn position_at(&self, t_secs: f64) -> f64 {
        self.speed_mps * t_secs
    }
}

/// Mean time between handovers, seconds (NaN if fewer than 2 events).
#[must_use]
pub fn mttho(events: &[HandoverEvent]) -> f64 {
    if events.len() < 2 {
        return f64::NAN;
    }
    let first = events.first().unwrap().at.as_secs_f64();
    let last = events.last().unwrap().at.as_secs_f64();
    (last - first) / (events.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_duration() {
        let mut rng = SimRng::new(1);
        let p = DriveProfile::build(RouteKind::Downtown, TimeOfDay::Day, 600.0, &mut rng);
        let end = p.position_at(600.0);
        assert!(p.towers.last().unwrap().x >= end);
        assert!(p.towers.len() >= 9, "{} towers", p.towers.len());
    }

    #[test]
    fn night_faster_than_day() {
        for kind in RouteKind::ALL {
            assert!(kind.speed_mps(TimeOfDay::Night) > kind.speed_mps(TimeOfDay::Day));
        }
    }

    #[test]
    fn spacing_tracks_target() {
        let mut rng = SimRng::new(2);
        let p = DriveProfile::build(RouteKind::Highway, TimeOfDay::Night, 2000.0, &mut rng);
        let spacings: Vec<f64> = p.towers.windows(2).map(|w| w[1].x - w[0].x).collect();
        let mean = spacings.iter().sum::<f64>() / spacings.len() as f64;
        let target = 33.0 * 25.50;
        assert!(
            (mean - target).abs() / target < 0.1,
            "mean spacing {mean}, target {target}"
        );
    }

    #[test]
    fn each_tower_is_its_own_operator() {
        let mut rng = SimRng::new(3);
        let p = DriveProfile::build(RouteKind::Suburb, TimeOfDay::Day, 300.0, &mut rng);
        for t in &p.towers {
            assert_eq!(t.operator, t.id.0);
        }
    }

    #[test]
    fn mttho_of_evenly_spaced_events() {
        use cellbricks_sim::SimTime;
        let events: Vec<HandoverEvent> = (0..5)
            .map(|i| HandoverEvent {
                at: SimTime::from_secs(10 * (i + 1)),
                from: TowerId(i as u32),
                to: TowerId(i as u32 + 1),
                crosses_operator: true,
            })
            .collect();
        assert!((mttho(&events) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mttho_undefined_for_single_event() {
        assert!(mttho(&[]).is_nan());
    }
}

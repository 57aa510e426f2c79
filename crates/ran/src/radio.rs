//! Towers and the radio propagation model.

use cellbricks_sim::SimRng;

/// Identifies a tower (and, in CellBricks mode, its single-tower bTelco).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TowerId(pub u32);

/// A cell tower along the drive route.
#[derive(Clone, Debug)]
pub struct Tower {
    /// Identity.
    pub id: TowerId,
    /// Position along the route axis, metres.
    pub x: f64,
    /// Perpendicular offset from the road, metres.
    pub y: f64,
    /// Operator this tower belongs to (one per tower in CellBricks mode).
    pub operator: u32,
}

impl Tower {
    /// Straight-line distance to a UE at route position `ue_x` (on the
    /// road, y = 0), metres. Clamped to 10 m so pathloss stays finite.
    #[must_use]
    pub fn distance_to(&self, ue_x: f64) -> f64 {
        let dx = self.x - ue_x;
        (dx * dx + self.y * self.y).sqrt().max(10.0)
    }
}

/// Log-distance pathloss with log-normal shadow fading
/// (3GPP-UMa-flavoured: `PL(d) = 128.1 + 37.6·log10(d_km)`).
#[derive(Clone, Debug)]
pub struct PathlossModel {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Pathloss at 1 km, dB.
    pub pl_1km_db: f64,
    /// Pathloss exponent ×10 (37.6 → n = 3.76).
    pub slope_db_per_decade: f64,
    /// Shadow-fading standard deviation, dB.
    pub shadow_std_db: f64,
}

impl Default for PathlossModel {
    fn default() -> Self {
        Self {
            tx_power_dbm: 46.0,
            pl_1km_db: 128.1,
            slope_db_per_decade: 37.6,
            shadow_std_db: 4.0,
        }
    }
}

impl PathlossModel {
    /// Median received power (RSRP-like) at distance `d` metres, dBm.
    #[must_use]
    pub fn median_rsrp_dbm(&self, d_m: f64) -> f64 {
        let d_km = (d_m / 1000.0).max(1e-3);
        self.tx_power_dbm - (self.pl_1km_db + self.slope_db_per_decade * d_km.log10())
    }

    /// Received power with a shadow-fading draw.
    #[must_use]
    pub fn rsrp_dbm(&self, d_m: f64, rng: &mut SimRng) -> f64 {
        self.median_rsrp_dbm(d_m) + rng.normal(0.0, self.shadow_std_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_clamps_at_10m() {
        let t = Tower {
            id: TowerId(0),
            x: 100.0,
            y: 0.0,
            operator: 0,
        };
        assert_eq!(t.distance_to(100.0), 10.0);
        assert!((t.distance_to(400.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn pathloss_monotonic_in_distance() {
        let m = PathlossModel::default();
        let near = m.median_rsrp_dbm(100.0);
        let far = m.median_rsrp_dbm(1000.0);
        assert!(near > far);
        // 1 km median: 46 - 128.1 = -82.1 dBm.
        assert!((m.median_rsrp_dbm(1000.0) + 82.1).abs() < 1e-9);
    }

    #[test]
    fn slope_is_37_6_per_decade() {
        let m = PathlossModel::default();
        let d1 = m.median_rsrp_dbm(100.0);
        let d2 = m.median_rsrp_dbm(1000.0);
        assert!((d1 - d2 - 37.6).abs() < 1e-9);
    }

    #[test]
    fn shadowing_has_configured_std() {
        let m = PathlossModel::default();
        let mut rng = SimRng::new(5);
        let samples: Vec<f64> = (0..20_000).map(|_| m.rsrp_dbm(500.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((var.sqrt() - 4.0).abs() < 0.1, "std {}", var.sqrt());
        assert!((mean - m.median_rsrp_dbm(500.0)).abs() < 0.1);
    }
}

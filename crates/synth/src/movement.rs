use rand::Rng;

use mobipriv_geo::{Point, Seconds};
use mobipriv_model::Timestamp;

use crate::randutil::truncated_normal;
use crate::City;

/// Parameters of the movement model.
#[derive(Debug, Clone, PartialEq)]
pub struct MovementConfig {
    /// Mean and std of walking speed, m/s.
    pub walk_speed: (f64, f64),
    /// Mean and std of motorised/transit speed, m/s.
    pub transit_speed: (f64, f64),
    /// Trips shorter than this are walked, longer ones ride.
    pub walk_max_distance_m: f64,
    /// Relative per-segment speed jitter (std of a factor around 1.0).
    pub segment_jitter: f64,
    /// Probability that a trip is routed through the nearest hub —
    /// the source of natural path crossings.
    pub via_hub_probability: f64,
    /// Radius of the small wandering movements while dwelling at a site.
    pub dwell_wander_m: f64,
    /// Interval between wander way-points while dwelling.
    pub dwell_wander_interval: Seconds,
}

impl Default for MovementConfig {
    fn default() -> Self {
        MovementConfig {
            walk_speed: (1.4, 0.2),
            transit_speed: (9.0, 2.0),
            walk_max_distance_m: 800.0,
            segment_jitter: 0.15,
            via_hub_probability: 0.5,
            dwell_wander_m: 8.0,
            dwell_wander_interval: Seconds::from_minutes(5.0),
        }
    }
}

/// A timestamped planar way-point of the ground-truth movement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Planar position in the city frame.
    pub position: Point,
    /// Instant the agent is there.
    pub time: Timestamp,
}

/// Generates the way-points of a trip `from -> to` departing at `depart`.
///
/// The trip follows the city's road grid (optionally via the nearest
/// hub), at a leg speed drawn from the walk or transit distribution, with
/// per-segment jitter. Returns the way-points **excluding** the starting
/// point (the caller already has it) and the arrival time.
pub fn travel<R: Rng + ?Sized>(
    city: &City,
    from: Point,
    to: Point,
    depart: Timestamp,
    config: &MovementConfig,
    rng: &mut R,
) -> (Vec<Waypoint>, Timestamp) {
    let via_hub = config.via_hub_probability > 0.0
        && rng.gen_bool(config.via_hub_probability.clamp(0.0, 1.0));
    let x_first = rng.gen_bool(0.5);
    let path = match (via_hub, city.hub_between(from, to)) {
        (true, Some(hub))
            if hub.position.distance(from).get() > 1.0 && hub.position.distance(to).get() > 1.0 =>
        {
            city.route_via(from, hub.position, to, x_first)
        }
        _ => city.route(from, to, x_first),
    };
    waypoints_along(&path, depart, config, rng)
}

/// Lays timestamps over an explicit planar path (used directly by
/// hand-crafted scenarios). Returns way-points excluding the first vertex
/// and the arrival time at the final vertex.
pub fn waypoints_along<R: Rng + ?Sized>(
    path: &[Point],
    depart: Timestamp,
    config: &MovementConfig,
    rng: &mut R,
) -> (Vec<Waypoint>, Timestamp) {
    let total: f64 = path.windows(2).map(|w| w[0].distance(w[1]).get()).sum();
    if total <= f64::EPSILON {
        return (Vec::new(), depart);
    }
    let leg_speed = if total <= config.walk_max_distance_m {
        truncated_normal(rng, config.walk_speed.0, config.walk_speed.1, 0.5, 3.0)
    } else {
        truncated_normal(
            rng,
            config.transit_speed.0,
            config.transit_speed.1,
            2.0,
            40.0,
        )
    };
    let mut t = depart;
    let mut out = Vec::with_capacity(path.len());
    for w in path.windows(2) {
        let seg_len = w[0].distance(w[1]).get();
        if seg_len <= f64::EPSILON {
            continue;
        }
        let jitter = truncated_normal(rng, 1.0, config.segment_jitter, 0.5, 1.5);
        let seg_seconds = (seg_len / (leg_speed * jitter)).max(1.0);
        t += Seconds::new(seg_seconds);
        out.push(Waypoint {
            position: w[1],
            time: t,
        });
    }
    (out, t)
}

/// Generates the way-points of a dwell at `site` between `arrival` and
/// `departure`: the agent stays put up to small wandering offsets, which
/// is what makes stops appear as dense clusters to a POI attack.
///
/// Way-points at `arrival` and `departure` (exact site position) are
/// included; intermediate wander points are emitted every
/// `config.dwell_wander_interval`.
pub fn dwell<R: Rng + ?Sized>(
    site: Point,
    arrival: Timestamp,
    departure: Timestamp,
    config: &MovementConfig,
    rng: &mut R,
) -> Vec<Waypoint> {
    let mut out = vec![Waypoint {
        position: site,
        time: arrival,
    }];
    let step = config.dwell_wander_interval.get().max(1.0);
    let wander = config.dwell_wander_m.max(0.0);
    let mut t = arrival + Seconds::new(step);
    while t < departure {
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let radius = rng.gen_range(0.0..=wander);
        out.push(Waypoint {
            position: site + Point::new(angle.cos(), angle.sin()) * radius,
            time: t,
        });
        t += Seconds::new(step);
    }
    if departure > arrival {
        out.push(Waypoint {
            position: site,
            time: departure,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CityConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn city() -> City {
        let mut rng = StdRng::seed_from_u64(3);
        City::generate(CityConfig::default(), &mut rng)
    }

    #[test]
    fn travel_reaches_destination_with_increasing_times() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(1);
        let from = Point::new(-1_000.0, -500.0);
        let to = Point::new(800.0, 900.0);
        let (wps, arrival) = travel(
            &city,
            from,
            to,
            Timestamp::new(1_000),
            &MovementConfig::default(),
            &mut rng,
        );
        assert!(!wps.is_empty());
        assert_eq!(wps.last().unwrap().position, to);
        assert_eq!(wps.last().unwrap().time, arrival);
        let mut prev = Timestamp::new(1_000);
        for wp in &wps {
            assert!(wp.time > prev, "times must strictly increase");
            prev = wp.time;
        }
    }

    #[test]
    fn travel_speed_is_plausible() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(2);
        let from = Point::new(-2_000.0, 0.0);
        let to = Point::new(2_000.0, 0.0);
        let cfg = MovementConfig {
            via_hub_probability: 0.0,
            ..MovementConfig::default()
        };
        let (wps, arrival) = travel(&city, from, to, Timestamp::new(0), &cfg, &mut rng);
        let dist: f64 = {
            let mut d = from.distance(wps[0].position).get();
            for w in wps.windows(2) {
                d += w[0].position.distance(w[1].position).get();
            }
            d
        };
        let speed = dist / (arrival.get() as f64);
        assert!((2.0..=40.0).contains(&speed), "speed {speed}");
    }

    #[test]
    fn zero_length_trip_is_empty() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(1);
        let p = Point::new(0.0, 0.0);
        let (wps, arrival) = travel(
            &city,
            p,
            p,
            Timestamp::new(42),
            &MovementConfig::default(),
            &mut rng,
        );
        assert!(wps.is_empty());
        assert_eq!(arrival.get(), 42);
    }

    #[test]
    fn dwell_stays_within_wander_radius() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = MovementConfig::default();
        let site = Point::new(100.0, 200.0);
        let wps = dwell(
            site,
            Timestamp::new(0),
            Timestamp::new(3_600),
            &cfg,
            &mut rng,
        );
        assert!(wps.len() > 5);
        assert_eq!(wps.first().unwrap().position, site);
        assert_eq!(wps.last().unwrap().position, site);
        assert_eq!(wps.last().unwrap().time.get(), 3_600);
        for wp in &wps {
            assert!(site.distance(wp.position).get() <= cfg.dwell_wander_m + 1e-9);
        }
    }

    #[test]
    fn dwell_zero_duration_is_single_point() {
        let mut rng = StdRng::seed_from_u64(5);
        let wps = dwell(
            Point::new(0.0, 0.0),
            Timestamp::new(10),
            Timestamp::new(10),
            &MovementConfig::default(),
            &mut rng,
        );
        assert_eq!(wps.len(), 1);
    }

    #[test]
    fn waypoints_along_segment_durations_at_least_one_second() {
        let mut rng = StdRng::seed_from_u64(6);
        // Very short segments: rounding must still give strictly
        // increasing times.
        let path: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.5, 0.0)).collect();
        let (wps, _) = waypoints_along(
            &path,
            Timestamp::new(0),
            &MovementConfig::default(),
            &mut rng,
        );
        let mut prev = Timestamp::new(0);
        for wp in &wps {
            assert!(wp.time > prev);
            prev = wp.time;
        }
    }
}

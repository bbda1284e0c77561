use rand::rngs::StdRng;
use rand::SeedableRng;

use mobipriv_geo::Seconds;
use mobipriv_model::{Dataset, Fix, Timestamp, Trace, TraceBuilder, UserId};

use crate::movement::{self, Waypoint};
use crate::schedule::{self, AgentProfile, ScheduleConfig};
use crate::truth::{GroundTruth, Visit};
use crate::{City, CityConfig, GpsConfig, MovementConfig};

/// Seconds in a simulated day.
pub(crate) const DAY: i64 = 86_400;

/// Top-level configuration of the synthetic-dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// City layout parameters.
    pub city: CityConfig,
    /// Number of simulated users.
    pub users: usize,
    /// Number of simulated days (one trace per user per day).
    pub days: usize,
    /// Daily-schedule parameters.
    pub schedule: ScheduleConfig,
    /// Movement-model parameters.
    pub movement: MovementConfig,
    /// GPS receiver parameters.
    pub gps: GpsConfig,
    /// How long before leaving home (and after returning) the published
    /// trace extends. Real mobility datasets are *activity sessions*
    /// (phones rarely record all night indoors), so the published trace
    /// covers the active day plus this margin at home on each side —
    /// long enough for home to show up as a stop, short enough that the
    /// trace is movement-dominated.
    pub home_margin: Seconds,
    /// RNG seed: identical configs generate identical outputs.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            city: CityConfig::default(),
            users: 20,
            days: 3,
            schedule: ScheduleConfig::default(),
            movement: MovementConfig::default(),
            gps: GpsConfig::default(),
            home_margin: Seconds::from_minutes(20.0),
            seed: 0,
        }
    }
}

/// Everything a generation run produces: the published-style dataset, the
/// ground truth to score attacks against, and the city itself.
#[derive(Debug, Clone)]
pub struct SynthOutput {
    /// The city the agents live in.
    pub city: City,
    /// One noisy GPS trace per trip session (several per user per day).
    pub dataset: Dataset,
    /// True visits behind every trace.
    pub truth: GroundTruth,
}

/// The synthetic-mobility generator. See the [crate docs](crate) for the
/// behavioural properties it guarantees.
///
/// ```
/// use mobipriv_synth::{Generator, GeneratorConfig};
///
/// let out = Generator::new(GeneratorConfig {
///     users: 2,
///     days: 1,
///     ..GeneratorConfig::default()
/// })
/// .generate();
/// // Two users, at least two trip sessions each.
/// assert!(out.dataset.len() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Generator {
    config: GeneratorConfig,
}

impl Generator {
    /// Creates a generator for `config`.
    pub fn new(config: GeneratorConfig) -> Self {
        Generator { config }
    }

    /// The configuration this generator runs with.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Panics when the city configuration has no home or no work site, or
    /// when `users`/`days` is zero and the result would be meaningless
    /// (an empty dataset is returned instead of panicking in that case).
    pub fn generate(&self) -> SynthOutput {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let city = City::generate(self.config.city.clone(), &mut rng);
        let mut dataset = Dataset::new();
        let mut truth = GroundTruth::new();
        for user_index in 0..self.config.users {
            let user = UserId::new(user_index as u64);
            let profile = AgentProfile::sample(&city, user_index, &mut rng);
            for day in 0..self.config.days {
                let (sessions, visits) =
                    self.simulate_day(&city, user, &profile, day as i64, &mut rng);
                dataset.extend(sessions);
                truth.extend(visits);
            }
        }
        SynthOutput {
            city,
            dataset,
            truth,
        }
    }

    /// Simulates one day of one user: returns one noisy GPS trace per
    /// *trip session* plus the true visits.
    ///
    /// Published mobility datasets (Geolife, Cabspotting, PRIVA'MOV) are
    /// structured as recording *sessions* — the device records around
    /// trips, not continuously through 8-hour indoor dwells. Each trip is
    /// therefore published as its own trace consisting of a short dwell
    /// margin at the origin stop, the (one-way) travel leg, and a margin
    /// at the destination stop. The margins are what leaks POIs from raw
    /// sessions; the travel leg is what speed smoothing preserves.
    fn simulate_day(
        &self,
        city: &City,
        user: UserId,
        profile: &AgentProfile,
        day: i64,
        rng: &mut StdRng,
    ) -> (Vec<Trace>, Vec<Visit>) {
        let day_start = Timestamp::new(day * DAY);
        let day_end = Timestamp::new((day + 1) * DAY);
        let plan = schedule::generate_day(profile, &self.config.schedule, rng);
        let mut sessions: Vec<Trace> = Vec::new();
        let mut visits = Vec::new();
        let margin = Seconds::new(self.config.home_margin.get().max(60.0));

        let home = city.site(profile.home);
        let leave_home = day_start + plan.leave_home;
        visits.push(Visit {
            user,
            site: home.id,
            category: home.category,
            position: city.frame().unproject(home.position),
            arrival: day_start,
            departure: leave_home,
        });

        let mut current_site = home;
        let mut current_departure = leave_home;
        let last_index = plan.stops.len().saturating_sub(1);
        for (stop_index, stop) in plan.stops.iter().enumerate() {
            let site = city.site(stop.site);
            let (travel_wps, arrival) = movement::travel(
                city,
                current_site.position,
                site.position,
                current_departure,
                &self.config.movement,
                rng,
            );
            if arrival >= day_end {
                break;
            }
            // The final stop is home, dwelling until "the recording
            // stops" shortly after arrival.
            let dwell = if stop_index == last_index {
                margin
            } else {
                stop.dwell
            };
            let departure = (arrival + dwell).min(day_end);

            // Assemble the session: origin margin + travel + head of the
            // destination dwell.
            let session_start =
                (current_departure - margin).max(visits.last().expect("home visit").arrival);
            let mut waypoints = movement::dwell(
                current_site.position,
                session_start,
                current_departure,
                &self.config.movement,
                rng,
            );
            waypoints.extend(travel_wps);
            let head_end = (arrival + margin).min(departure);
            waypoints.extend(movement::dwell(
                site.position,
                arrival,
                head_end,
                &self.config.movement,
                rng,
            ));
            let truth_trace = waypoints_to_trace(city, user, &waypoints);
            sessions.push(
                crate::gps::sample_trace(&truth_trace, &self.config.gps, rng)
                    .expect("gps config validated; truth trace non-empty"),
            );

            visits.push(Visit {
                user,
                site: site.id,
                category: site.category,
                position: city.frame().unproject(site.position),
                arrival,
                departure,
            });
            current_site = site;
            current_departure = departure;
            if departure >= day_end {
                break;
            }
        }
        (sessions, visits)
    }
}

/// Converts planar way-points to a geographic [`Trace`], silently merging
/// way-points whose rounded timestamps collide.
pub(crate) fn waypoints_to_trace(city: &City, user: UserId, waypoints: &[Waypoint]) -> Trace {
    let mut builder = TraceBuilder::new(user);
    for wp in waypoints {
        builder.push_lenient(Fix::new(city.frame().unproject(wp.position), wp.time));
    }
    builder.build().expect("at least the morning dwell exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::Point;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            users: 3,
            days: 2,
            seed: 42,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn several_sessions_per_user_per_day() {
        let out = Generator::new(small_config()).generate();
        assert_eq!(out.dataset.users().len(), 3);
        // Minimum itinerary is home -> work -> home: 2 sessions/day.
        assert!(
            out.dataset.len() >= 3 * 2 * 2,
            "{} sessions",
            out.dataset.len()
        );
        // Maximum is 5 sessions/day (lunch + evening leisure).
        assert!(out.dataset.len() <= 3 * 2 * 5);
    }

    #[test]
    fn sessions_fit_inside_their_day() {
        let out = Generator::new(small_config()).generate();
        for t in out.dataset.traces() {
            let day = t.start_time().get() / DAY;
            assert!(t.start_time().get() >= day * DAY);
            assert!(t.end_time().get() <= (day + 1) * DAY);
            // A session is a trip with margins, not a whole day.
            assert!(
                t.duration().get() <= 4.0 * 3_600.0,
                "session too long: {}",
                t.duration()
            );
            assert!(t.duration().get() >= 10.0 * 60.0, "session too short");
        }
    }

    #[test]
    fn sessions_are_one_way_trips() {
        // Sessions must not double back on themselves (no U-turn): the
        // path length must be close to the origin-destination Manhattan
        // distance — or, for trips routed "via downtown", to the
        // Manhattan distance through the hub the router would pick
        // (`City::hub_between` is deterministic in the endpoints) —
        // never a round trip.
        let out = Generator::new(small_config()).generate();
        let frame = out.city.frame();
        let manhattan = |p: Point, q: Point| (p.x - q.x).abs() + (p.y - q.y).abs();
        for t in out.dataset.traces() {
            let a = frame.project(t.first().position);
            let b = frame.project(t.last().position);
            let direct = manhattan(a, b);
            let via_hub = out
                .city
                .hub_between(a, b)
                .map(|h| manhattan(a, h.position) + manhattan(h.position, b))
                .unwrap_or(0.0);
            let path = t.path_length().get();
            let allowed = direct.max(via_hub).max(200.0) * 1.5 + 400.0;
            assert!(
                path <= allowed,
                "session doubles back: path {path} vs direct {direct} / via-hub {via_hub}"
            );
        }
    }

    #[test]
    fn truth_contains_home_and_work_visits() {
        let out = Generator::new(small_config()).generate();
        for user in out.dataset.users() {
            let visits = out.truth.visits_of_user(user);
            assert!(visits.len() >= 2 * 2, "user {user} visits {}", visits.len());
            assert!(visits
                .iter()
                .any(|v| v.category == crate::SiteCategory::Home));
            assert!(visits
                .iter()
                .any(|v| v.category == crate::SiteCategory::Work));
        }
    }

    #[test]
    fn visits_are_chronological_and_positive() {
        let out = Generator::new(small_config()).generate();
        for user in out.dataset.users() {
            let visits = out.truth.visits_of_user(user);
            for v in &visits {
                assert!(v.departure >= v.arrival);
            }
            for w in visits.windows(2) {
                assert!(w[1].arrival >= w[0].departure);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Generator::new(small_config()).generate();
        let b = Generator::new(small_config()).generate();
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.truth, b.truth);
        let c = Generator::new(GeneratorConfig {
            seed: 43,
            ..small_config()
        })
        .generate();
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn zero_users_is_empty_not_panicking() {
        let out = Generator::new(GeneratorConfig {
            users: 0,
            ..small_config()
        })
        .generate();
        assert!(out.dataset.is_empty());
        assert!(out.truth.is_empty());
    }

    #[test]
    fn user_stays_inside_city_bounds_with_margin() {
        let out = Generator::new(small_config()).generate();
        let frame = out.city.frame();
        let bounds = out.city.bounds().inflated(100.0);
        for t in out.dataset.traces() {
            for f in t.fixes() {
                assert!(
                    bounds.contains(frame.project(f.position)),
                    "fix outside bounds"
                );
            }
        }
    }
}

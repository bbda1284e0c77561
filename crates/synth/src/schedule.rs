use rand::Rng;

use mobipriv_geo::Seconds;

use crate::randutil::truncated_normal;
use crate::{City, SiteCategory, SiteId};

/// One planned destination of a daily schedule, after leaving home.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stop {
    /// Where to go.
    pub site: SiteId,
    /// How long to stay once arrived. The generator clamps the final stop
    /// to the end of the day.
    pub dwell: Seconds,
}

/// Parameters of the daily-schedule sampler. All times are hours,
/// all `(a, b)` pairs are (mean, standard deviation).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleConfig {
    /// Hour of leaving home in the morning.
    pub leave_home_hour: (f64, f64),
    /// Morning stint at work, in hours.
    pub work_morning_dwell_h: (f64, f64),
    /// Probability of going out for lunch.
    pub lunch_probability: f64,
    /// Lunch dwell, in hours.
    pub lunch_dwell_h: (f64, f64),
    /// Afternoon stint at work, in hours.
    pub work_afternoon_dwell_h: (f64, f64),
    /// Probability of an evening leisure stop on the way home.
    pub evening_leisure_probability: f64,
    /// Evening leisure dwell, in hours.
    pub evening_dwell_h: (f64, f64),
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            leave_home_hour: (7.75, 0.5),
            work_morning_dwell_h: (3.75, 0.4),
            lunch_probability: 0.6,
            lunch_dwell_h: (0.8, 0.2),
            work_afternoon_dwell_h: (4.25, 0.5),
            evening_leisure_probability: 0.4,
            evening_dwell_h: (1.5, 0.4),
        }
    }
}

/// The habitual places of one agent. Stability across days is what makes
/// users re-identifiable — exactly the threat model of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentProfile {
    /// Residence (start and end of every day).
    pub home: SiteId,
    /// Workplace.
    pub work: SiteId,
    /// Favourite leisure sites (lunch spots, evening venues).
    pub favourites: Vec<SiteId>,
}

impl AgentProfile {
    /// Samples a profile: a distinct home (round-robin over home sites),
    /// a random workplace and two favourite leisure sites.
    pub fn sample<R: Rng + ?Sized>(city: &City, agent_index: usize, rng: &mut R) -> Self {
        let homes = city.sites_of(SiteCategory::Home);
        let works = city.sites_of(SiteCategory::Work);
        let leisures = city.sites_of(SiteCategory::Leisure);
        assert!(
            !homes.is_empty() && !works.is_empty(),
            "city must have at least one home and one work site"
        );
        let home = homes[agent_index % homes.len()].id;
        let work = works[rng.gen_range(0..works.len())].id;
        let mut favourites = Vec::new();
        if !leisures.is_empty() {
            let first = rng.gen_range(0..leisures.len());
            favourites.push(leisures[first].id);
            if leisures.len() > 1 {
                let mut second = rng.gen_range(0..leisures.len());
                while second == first {
                    second = rng.gen_range(0..leisures.len());
                }
                favourites.push(leisures[second].id);
            }
        }
        AgentProfile {
            home,
            work,
            favourites,
        }
    }

    /// A favourite leisure site, or `None` when the agent has none.
    pub fn favourite<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SiteId> {
        if self.favourites.is_empty() {
            return None;
        }
        Some(self.favourites[rng.gen_range(0..self.favourites.len())])
    }
}

/// A sampled day: when to leave home and the ordered destinations.
#[derive(Debug, Clone, PartialEq)]
pub struct DayPlan {
    /// Offset from midnight at which the agent leaves home.
    pub leave_home: Seconds,
    /// Destinations after leaving home; the last stop is always home.
    pub stops: Vec<Stop>,
}

/// Samples one day of activity for `profile` (commuter pattern:
/// home → work → [lunch] → work → [leisure] → home).
pub fn generate_day<R: Rng + ?Sized>(
    profile: &AgentProfile,
    config: &ScheduleConfig,
    rng: &mut R,
) -> DayPlan {
    let hours = |rng: &mut R, (mu, sigma): (f64, f64), lo: f64, hi: f64| {
        Seconds::from_hours(truncated_normal(rng, mu, sigma, lo, hi))
    };
    let leave_home = hours(rng, config.leave_home_hour, 4.0, 12.0);
    let mut stops = Vec::new();
    stops.push(Stop {
        site: profile.work,
        dwell: hours(rng, config.work_morning_dwell_h, 1.0, 8.0),
    });
    if rng.gen_bool(config.lunch_probability) {
        if let Some(site) = profile.favourite(rng) {
            stops.push(Stop {
                site,
                dwell: hours(rng, config.lunch_dwell_h, 0.25, 2.0),
            });
            stops.push(Stop {
                site: profile.work,
                dwell: hours(rng, config.work_afternoon_dwell_h, 1.0, 8.0),
            });
        }
    }
    if rng.gen_bool(config.evening_leisure_probability) {
        if let Some(site) = profile.favourite(rng) {
            stops.push(Stop {
                site,
                dwell: hours(rng, config.evening_dwell_h, 0.5, 4.0),
            });
        }
    }
    stops.push(Stop {
        site: profile.home,
        // Clamped by the generator to the end of the day.
        dwell: Seconds::from_hours(24.0),
    });
    DayPlan { leave_home, stops }
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
    fn profile_sampling_uses_all_categories() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(1);
        let p = AgentProfile::sample(&city, 0, &mut rng);
        assert_eq!(city.site(p.home).category, SiteCategory::Home);
        assert_eq!(city.site(p.work).category, SiteCategory::Work);
        assert_eq!(p.favourites.len(), 2);
        assert_ne!(p.favourites[0], p.favourites[1]);
        for f in &p.favourites {
            assert_eq!(city.site(*f).category, SiteCategory::Leisure);
        }
    }

    #[test]
    fn homes_are_round_robin_distinct() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(1);
        let p0 = AgentProfile::sample(&city, 0, &mut rng);
        let p1 = AgentProfile::sample(&city, 1, &mut rng);
        assert_ne!(p0.home, p1.home);
    }

    #[test]
    fn day_plan_starts_at_work_and_ends_home() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(2);
        let profile = AgentProfile::sample(&city, 0, &mut rng);
        for _ in 0..50 {
            let plan = generate_day(&profile, &ScheduleConfig::default(), &mut rng);
            assert_eq!(plan.stops.first().unwrap().site, profile.work);
            assert_eq!(plan.stops.last().unwrap().site, profile.home);
            assert!(plan.leave_home.get() >= 4.0 * 3_600.0);
            assert!(plan.leave_home.get() <= 12.0 * 3_600.0);
            for stop in &plan.stops {
                assert!(stop.dwell.get() > 0.0);
            }
        }
    }

    #[test]
    fn lunch_probability_zero_means_no_midday_stop() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(2);
        let profile = AgentProfile::sample(&city, 0, &mut rng);
        let config = ScheduleConfig {
            lunch_probability: 0.0,
            evening_leisure_probability: 0.0,
            ..ScheduleConfig::default()
        };
        let plan = generate_day(&profile, &config, &mut rng);
        assert_eq!(plan.stops.len(), 2); // work + home
    }

    #[test]
    fn always_lunch_and_evening_gives_five_stops() {
        let city = city();
        let mut rng = StdRng::seed_from_u64(2);
        let profile = AgentProfile::sample(&city, 0, &mut rng);
        let config = ScheduleConfig {
            lunch_probability: 1.0,
            evening_leisure_probability: 1.0,
            ..ScheduleConfig::default()
        };
        let plan = generate_day(&profile, &config, &mut rng);
        // work, lunch, work, leisure, home
        assert_eq!(plan.stops.len(), 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let city = city();
        let make = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let profile = AgentProfile::sample(&city, 0, &mut rng);
            generate_day(&profile, &ScheduleConfig::default(), &mut rng)
        };
        assert_eq!(make(9), make(9));
    }
}

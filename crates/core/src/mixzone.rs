use std::collections::{BTreeMap, HashMap};

use rand::seq::SliceRandom;
use rand::RngCore;

use mobipriv_geo::{GridIndex, LatLng, LocalFrame, Point, Seconds};
#[cfg(test)]
use mobipriv_model::Fix;
use mobipriv_model::{Dataset, Timestamp, Trace, TraceBuilder, UserId};

use crate::error::require_positive;
use crate::{CoreError, DatasetStage, Mechanism, Report, Stage};

/// Parameters of mix-zone detection and swapping.
#[derive(Debug, Clone, PartialEq)]
pub struct MixZoneConfig {
    /// Radius of a mix-zone disc, meters.
    pub radius_m: f64,
    /// Two users "meet" when they are within the radius at instants at
    /// most this far apart.
    pub time_tolerance: Seconds,
    /// Interpolation step used when scanning traces for meetings.
    pub sampling: Seconds,
    /// Width of the time slices meetings are grouped into: an upper
    /// bound on the duration of a single mix-zone (long co-presence —
    /// e.g. a shared office — becomes a *sequence* of zones). Keeping
    /// zones short keeps the suppressed-point loss small, per the
    /// paper's "as long as mix-zones remain reasonably small".
    pub zone_window: Seconds,
    /// Minimum number of distinct users required to form a zone
    /// (at least 2).
    pub min_members: usize,
    /// Minimum instantaneous speed (m/s) of *both* participants for a
    /// co-location to count as a meeting. Mix-zones are pass-through
    /// areas (Beresford & Stajano): two users parked in the same
    /// building all day gain no unlinkability from "mixing" there, and
    /// suppressing their whole co-dwell would wreck utility. Set to
    /// `0.0` to disable the gate.
    pub min_speed_mps: f64,
}

impl Default for MixZoneConfig {
    fn default() -> Self {
        MixZoneConfig {
            radius_m: 100.0,
            time_tolerance: Seconds::new(60.0),
            sampling: Seconds::new(20.0),
            zone_window: Seconds::new(300.0),
            min_members: 2,
            min_speed_mps: 0.5,
        }
    }
}

impl MixZoneConfig {
    fn validate(&self) -> Result<(), CoreError> {
        require_positive("mix-zone radius", self.radius_m)?;
        require_positive("time tolerance", self.time_tolerance.get())?;
        require_positive("sampling interval", self.sampling.get())?;
        require_positive("zone window", self.zone_window.get())?;
        if self.min_members < 2 {
            return Err(CoreError::KTooSmall(self.min_members));
        }
        if !self.min_speed_mps.is_finite() || self.min_speed_mps < 0.0 {
            return Err(CoreError::InvalidParameter {
                what: "minimum speed",
                value: self.min_speed_mps,
            });
        }
        Ok(())
    }
}

/// A detected mix-zone: a disc and a time interval during which at least
/// [`MixZoneConfig::min_members`] users passed through it.
#[derive(Debug, Clone, PartialEq)]
pub struct MixZone {
    /// Center of the zone.
    pub center: LatLng,
    /// Radius, meters.
    pub radius_m: f64,
    /// Start of the zone's activity interval.
    pub start: Timestamp,
    /// End of the zone's activity interval.
    pub end: Timestamp,
    /// Distinct users observed meeting inside, ascending.
    pub members: Vec<UserId>,
}

impl MixZone {
    /// Whether `position` at instant `time` falls inside the zone.
    pub fn contains(&self, frame: &LocalFrame, position: LatLng, time: Timestamp) -> bool {
        time >= self.start
            && time <= self.end
            && frame
                .project(position)
                .distance(frame.project(self.center))
                .get()
                <= self.radius_m
    }

    /// Duration of the zone's activity interval.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// Outcome report of a [`MixZones`] run — the quantities experiment T4
/// tabulates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwapReport {
    /// The zones that were detected and used.
    pub zones: Vec<MixZone>,
    /// Fixes suppressed because they fell inside a zone.
    pub suppressed_fixes: usize,
    /// Total fixes in the input dataset.
    pub input_fixes: usize,
    /// Zones where the applied permutation moved at least one label.
    pub swap_events: usize,
    /// For every published label: how many fixes each *original* user
    /// contributed. The off-diagonal mass is what confuses an attacker.
    pub label_flows: BTreeMap<UserId, BTreeMap<UserId, usize>>,
}

impl SwapReport {
    /// Fraction of input fixes that were suppressed.
    pub fn suppression_ratio(&self) -> f64 {
        if self.input_fixes == 0 {
            0.0
        } else {
            self.suppressed_fixes as f64 / self.input_fixes as f64
        }
    }

    /// The true user contributing the most fixes to `label`'s published
    /// traces (ties broken toward the smaller id), or `None` when the
    /// label published nothing. The honest re-identification score after
    /// swapping compares the adversary's guess to this owner.
    pub fn majority_owner(&self, label: mobipriv_model::UserId) -> Option<mobipriv_model::UserId> {
        self.label_flows.get(&label).and_then(|flows| {
            flows
                .iter()
                .max_by_key(|(user, count)| (**count, std::cmp::Reverse(**user)))
                .map(|(user, _)| *user)
        })
    }

    /// Fraction of published fixes whose label differs from their true
    /// user — the headline "confusion" number.
    pub fn mixed_fix_ratio(&self) -> f64 {
        let mut total = 0usize;
        let mut mixed = 0usize;
        for (label, flows) in &self.label_flows {
            for (origin, count) in flows {
                total += count;
                if origin != label {
                    mixed += count;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            mixed as f64 / total as f64
        }
    }
}

/// A meeting event: two distinct users sampled within the radius at
/// nearly the same instant.
#[derive(Debug, Clone, Copy)]
struct Meeting {
    midpoint: Point,
    time: i64,
    trace_a: usize,
    trace_b: usize,
}

/// Detects the natural mix-zones of a dataset (step 1 of the swapping
/// mechanism; also the subject of experiment T4).
///
/// Each trace is sampled every [`MixZoneConfig::sampling`] seconds;
/// samples of different users within `radius_m` of each other and within
/// `time_tolerance` seconds form *meetings*; meetings are grouped into
/// time slices of `zone_window` and spatially merged within a slice.
///
/// # Panics
///
/// Panics if `config` is invalid (use [`MixZones::new`] for validated
/// construction).
pub fn detect_mix_zones(dataset: &Dataset, config: &MixZoneConfig) -> Vec<MixZone> {
    config.validate().expect("invalid mix-zone config");
    // Frame reuse only: zone detection works on *interpolated* positions,
    // so the cached per-fix projection columns do not apply here — but
    // the canonical frame itself (one bounding-box scan) is shared.
    let Some(frame) = dataset.columns().frame().copied() else {
        return Vec::new();
    };
    let meetings = find_meetings(dataset, config, &frame);
    build_zones(dataset, config, &frame, &meetings)
}

/// Samples every trace and returns all pairwise meetings.
fn find_meetings(dataset: &Dataset, config: &MixZoneConfig, frame: &LocalFrame) -> Vec<Meeting> {
    // (time, trace index, planar position, speed); times are bucketed by
    // the tolerance so partners are found in adjacent buckets only.
    let tol = config.time_tolerance.get().max(1.0) as i64;
    let step = config.sampling.get().max(1.0) as i64;
    let mut buckets: HashMap<i64, Vec<(i64, usize, Point, f64)>> = HashMap::new();
    for (idx, trace) in dataset.traces().iter().enumerate() {
        let mut t = trace.start_time().get();
        let end = trace.end_time().get();
        let mut prev: Option<(i64, Point)> = None;
        while t <= end {
            let p = frame.project(trace.position_at(Timestamp::new(t)));
            let speed = match prev {
                Some((pt, pp)) if t > pt => pp.distance(p).get() / (t - pt) as f64,
                // First sample: no displacement evidence, treat as
                // stationary (conservative under the pass-through gate).
                _ => 0.0,
            };
            buckets
                .entry(t.div_euclid(tol))
                .or_default()
                .push((t, idx, p, speed));
            prev = Some((t, p));
            if t == end {
                break;
            }
            t = (t + step).min(end);
        }
    }
    let users: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
    let mut meetings = Vec::new();
    let mut bucket_ids: Vec<i64> = buckets.keys().copied().collect();
    bucket_ids.sort_unstable();
    for &b in &bucket_ids {
        let current = &buckets[&b];
        // Spatial index over this bucket and the previous one.
        let mut index = GridIndex::new(config.radius_m.max(1.0)).expect("positive radius");
        for source in [b - 1, b] {
            if let Some(events) = buckets.get(&source) {
                for e in events {
                    index.insert(e.2, *e);
                }
            }
        }
        for &(t, idx, p, speed) in current {
            if speed < config.min_speed_mps {
                continue;
            }
            for (_, &(t2, idx2, _p2, speed2)) in index.entries_within(p, config.radius_m) {
                // Each unordered pair once: require a strict order on
                // (time, index); equal-time pairs ordered by index.
                let after = (t2, idx2) < (t, idx);
                if !after || idx2 == idx || users[idx2] == users[idx] {
                    continue;
                }
                if speed2 < config.min_speed_mps {
                    continue;
                }
                if (t - t2).abs() <= tol {
                    meetings.push(Meeting {
                        midpoint: frame.project(
                            dataset.traces()[idx]
                                .position_at(Timestamp::new(t))
                                .midpoint(dataset.traces()[idx2].position_at(Timestamp::new(t2))),
                        ),
                        time: t.midpoint(t2),
                        trace_a: idx,
                        trace_b: idx2,
                    });
                }
            }
        }
    }
    meetings
}

/// Groups meetings into zones: time slices of `zone_window`, spatial
/// union-find within each slice.
fn build_zones(
    dataset: &Dataset,
    config: &MixZoneConfig,
    frame: &LocalFrame,
    meetings: &[Meeting],
) -> Vec<MixZone> {
    let window = config.zone_window.get().max(1.0) as i64;
    let mut slices: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, m) in meetings.iter().enumerate() {
        slices.entry(m.time.div_euclid(window)).or_default().push(i);
    }
    let users: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
    let mut zones = Vec::new();
    for (_slice, ids) in slices {
        // Union-find over the meetings of this slice by midpoint
        // proximity.
        let mut parent: Vec<usize> = (0..ids.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut index = GridIndex::new(config.radius_m.max(1.0)).expect("positive radius");
        for (local, &mi) in ids.iter().enumerate() {
            index.insert(meetings[mi].midpoint, local);
        }
        for (local, &mi) in ids.iter().enumerate() {
            let neighbours: Vec<usize> = index
                .neighbours_within(meetings[mi].midpoint, config.radius_m)
                .copied()
                .collect();
            for other in neighbours {
                let (a, b) = (find(&mut parent, local), find(&mut parent, other));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for local in 0..ids.len() {
            let root = find(&mut parent, local);
            groups.entry(root).or_default().push(local);
        }
        let mut slice_zones: Vec<MixZone> = groups
            .into_values()
            .filter_map(|locals| {
                let ms: Vec<&Meeting> = locals.iter().map(|&l| &meetings[ids[l]]).collect();
                let mut members: Vec<UserId> = ms
                    .iter()
                    .flat_map(|m| [users[m.trace_a], users[m.trace_b]])
                    .collect();
                members.sort_unstable();
                members.dedup();
                if members.len() < config.min_members {
                    return None;
                }
                let n = ms.len() as f64;
                let center = ms.iter().fold(Point::ORIGIN, |acc, m| acc + m.midpoint) / n;
                let t_min = ms.iter().map(|m| m.time).min().expect("non-empty");
                let t_max = ms.iter().map(|m| m.time).max().expect("non-empty");
                let tol = config.time_tolerance.get() as i64;
                Some(MixZone {
                    center: frame.unproject(center),
                    radius_m: config.radius_m,
                    start: Timestamp::new(t_min - tol),
                    end: Timestamp::new(t_max + tol),
                    members,
                })
            })
            .collect();
        slice_zones.sort_by_key(|z| (z.start, ordered(z.center)));
        zones.extend(slice_zones);
    }
    zones.sort_by_key(|z| (z.start, ordered(z.center)));
    zones
}

fn ordered(ll: LatLng) -> (i64, i64) {
    ((ll.lat() * 1e7) as i64, (ll.lng() * 1e7) as i64)
}

/// The mix-zone swapping mechanism — step 2 of the paper.
///
/// Points inside detected zones are suppressed, and each zone applies a
/// uniformly random permutation to the identifiers of the traces
/// traversing it ("a user entering labelled A could leave labelled B or
/// remain A"). Location data outside zones is published untouched: the
/// mechanism costs no spatial accuracy at all.
///
/// ```
/// use mobipriv_core::{MixZoneConfig, MixZones};
/// let mech = MixZones::new(MixZoneConfig::default()).unwrap();
/// assert!(MixZones::new(MixZoneConfig { radius_m: -1.0, ..Default::default() }).is_err());
/// # let _ = mech;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixZones {
    config: MixZoneConfig,
}

impl MixZones {
    /// Creates the mechanism after validating `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive radius /
    /// intervals and [`CoreError::KTooSmall`] when `min_members < 2`.
    pub fn new(config: MixZoneConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(MixZones { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &MixZoneConfig {
        &self.config
    }

    /// Runs the mechanism and returns the protected dataset together
    /// with the [`SwapReport`].
    pub fn protect_with_report(
        &self,
        dataset: &Dataset,
        rng: &mut dyn RngCore,
    ) -> (Dataset, SwapReport) {
        let Some(frame) = dataset.columns().frame().copied() else {
            return (Dataset::new(), SwapReport::default());
        };
        let zones = detect_mix_zones(dataset, &self.config);
        let crossings = self.find_crossings(dataset, &frame, &zones);

        // Chronological label permutation. labels[i] = label currently
        // carried by physical trace i.
        let mut labels: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
        // Per-trace label timeline: (effective_from, label).
        let mut timelines: Vec<Vec<(Timestamp, UserId)>> = dataset
            .traces()
            .iter()
            .map(|t| vec![(Timestamp::new(i64::MIN), t.user())])
            .collect();
        let mut swap_events = 0usize;
        for (zi, zone) in zones.iter().enumerate() {
            let participants: Vec<(usize, Timestamp)> = crossings
                .iter()
                .filter(|c| c.zone == zi)
                .map(|c| (c.trace, c.exit))
                .collect();
            if participants.len() < 2 {
                continue;
            }
            let mut perm: Vec<UserId> = participants.iter().map(|(t, _)| labels[*t]).collect();
            perm.shuffle(rng);
            let moved = participants
                .iter()
                .zip(&perm)
                .any(|((t, _), new)| labels[*t] != *new);
            if moved {
                swap_events += 1;
            }
            let _ = zone;
            for ((trace, exit), new_label) in participants.iter().zip(&perm) {
                labels[*trace] = *new_label;
                timelines[*trace].push((*exit, *new_label));
            }
        }
        for timeline in &mut timelines {
            timeline.sort_by_key(|(t, _)| *t);
        }

        // Emit published fixes under the label in effect at their time,
        // skipping fixes inside any zone. Each maximal run of one input
        // trace under one label becomes its own published trace: the
        // session structure of the input is preserved (merging a label's
        // sessions into one long trace would re-introduce dwell geometry
        // at the session boundaries).
        let mut out = Dataset::new();
        let mut suppressed = 0usize;
        let mut input_fixes = 0usize;
        let mut label_flows: BTreeMap<UserId, BTreeMap<UserId, usize>> = BTreeMap::new();
        for (idx, trace) in dataset.traces().iter().enumerate() {
            let mut run: Option<TraceBuilder> = None;
            let mut run_label = trace.user();
            for fix in trace.fixes() {
                input_fixes += 1;
                if zones
                    .iter()
                    .any(|z| z.contains(&frame, fix.position, fix.time))
                {
                    suppressed += 1;
                    continue;
                }
                let label = label_at(&timelines[idx], fix.time);
                if run.is_none() || label != run_label {
                    if let Some(builder) = run.take() {
                        if let Ok(t) = builder.build() {
                            out.push(t);
                        }
                    }
                    run = Some(TraceBuilder::new(label));
                    run_label = label;
                }
                run.as_mut().expect("run just ensured").push_lenient(*fix);
                *label_flows
                    .entry(label)
                    .or_default()
                    .entry(trace.user())
                    .or_insert(0) += 1;
            }
            if let Some(builder) = run.take() {
                if let Ok(t) = builder.build() {
                    out.push(t);
                }
            }
        }
        let report = SwapReport {
            zones,
            suppressed_fixes: suppressed,
            input_fixes,
            swap_events,
            label_flows,
        };
        (out, report)
    }

    /// For every (trace, zone) pair, the first/last sampled instants the
    /// trace spends inside the zone.
    fn find_crossings(
        &self,
        dataset: &Dataset,
        frame: &LocalFrame,
        zones: &[MixZone],
    ) -> Vec<Crossing> {
        let step = self.config.sampling.get().max(1.0) as i64;
        let mut out = Vec::new();
        for (zi, zone) in zones.iter().enumerate() {
            let center = frame.project(zone.center);
            for (idx, trace) in dataset.traces().iter().enumerate() {
                if trace.end_time() < zone.start || trace.start_time() > zone.end {
                    continue;
                }
                let from = trace.start_time().max(zone.start).get();
                let to = trace.end_time().min(zone.end).get();
                let mut entry: Option<i64> = None;
                let mut exit: Option<i64> = None;
                let mut t = from;
                while t <= to {
                    let p = frame.project(trace.position_at(Timestamp::new(t)));
                    if p.distance(center).get() <= zone.radius_m {
                        entry.get_or_insert(t);
                        exit = Some(t);
                    }
                    if t == to {
                        break;
                    }
                    t = (t + step).min(to);
                }
                if let (Some(_), Some(exit)) = (entry, exit) {
                    out.push(Crossing {
                        trace: idx,
                        zone: zi,
                        exit: Timestamp::new(exit),
                    });
                }
            }
        }
        out
    }
}

/// One traversal of a zone by a trace.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    trace: usize,
    zone: usize,
    exit: Timestamp,
}

/// The label in effect at instant `t` (timeline sorted by start).
fn label_at(timeline: &[(Timestamp, UserId)], t: Timestamp) -> UserId {
    let mut current = timeline[0].1;
    for (from, label) in timeline {
        if *from <= t {
            current = *label;
        } else {
            break;
        }
    }
    current
}

impl Mechanism for MixZones {
    fn name(&self) -> String {
        format!(
            "mixzones(r={}m,w={}s)",
            self.config.radius_m,
            self.config.zone_window.get()
        )
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![Stage::Dataset(self)]
    }
}

impl DatasetStage for MixZones {
    fn run(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> (Dataset, Report) {
        let (output, report) = self.protect_with_report(dataset, rng);
        (output, Report::Swap(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two users crossing at the origin around t = 500.
    fn crossing_dataset() -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64, horizontal: bool| {
            let fixes: Vec<Fix> = (0..=100)
                .map(|i| {
                    let d = -1_000.0 + 20.0 * i as f64; // 2 km at 2 m/s... 20 m per 10 s
                    let p = if horizontal {
                        Point::new(d, 0.0)
                    } else {
                        Point::new(0.0, d)
                    };
                    Fix::new(frame.unproject(p), Timestamp::new(i * 10))
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        Dataset::from_traces(vec![make(1, true), make(2, false)])
    }

    /// Two users moving far apart, never meeting.
    fn disjoint_dataset() -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64, y: f64| {
            let fixes: Vec<Fix> = (0..=50)
                .map(|i| {
                    let p = Point::new(-500.0 + 20.0 * i as f64, y);
                    Fix::new(frame.unproject(p), Timestamp::new(i * 10))
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        Dataset::from_traces(vec![make(1, 0.0), make(2, 5_000.0)])
    }

    #[test]
    fn config_validation() {
        assert!(MixZones::new(MixZoneConfig::default()).is_ok());
        assert!(MixZones::new(MixZoneConfig {
            radius_m: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(MixZones::new(MixZoneConfig {
            min_members: 1,
            ..Default::default()
        })
        .is_err());
        assert!(MixZones::new(MixZoneConfig {
            sampling: Seconds::new(-1.0),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn detects_the_crossing() {
        let d = crossing_dataset();
        let zones = detect_mix_zones(&d, &MixZoneConfig::default());
        assert!(!zones.is_empty(), "no zone detected");
        // At least one zone near the origin containing both users.
        let frame = d.local_frame().unwrap();
        let z = zones
            .iter()
            .find(|z| frame.project(z.center).norm() < 150.0)
            .expect("zone at the crossing");
        assert_eq!(z.members, vec![UserId::new(1), UserId::new(2)]);
        assert!(z.duration().get() > 0.0);
    }

    #[test]
    fn no_meeting_no_zone() {
        let zones = detect_mix_zones(&disjoint_dataset(), &MixZoneConfig::default());
        assert!(zones.is_empty(), "{zones:?}");
    }

    #[test]
    fn empty_dataset_is_fine() {
        let zones = detect_mix_zones(&Dataset::new(), &MixZoneConfig::default());
        assert!(zones.is_empty());
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (out, report) = mech.protect_with_report(&Dataset::new(), &mut rng);
        assert!(out.is_empty());
        assert_eq!(report.suppressed_fixes, 0);
    }

    #[test]
    fn suppresses_in_zone_points() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (out, report) = mech.protect_with_report(&d, &mut rng);
        assert!(report.suppressed_fixes > 0);
        assert_eq!(out.total_fixes() + report.suppressed_fixes, d.total_fixes());
        // No published fix lies inside any zone.
        let frame = d.local_frame().unwrap();
        for t in out.traces() {
            for f in t.fixes() {
                assert!(!report
                    .zones
                    .iter()
                    .any(|z| z.contains(&frame, f.position, f.time)));
            }
        }
    }

    #[test]
    fn labels_remain_a_permutation_of_users() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (out, _) = mech.protect_with_report(&d, &mut rng);
        let mut labels = out.users();
        labels.sort_unstable();
        assert_eq!(labels, d.users());
    }

    #[test]
    fn some_seed_produces_a_swap() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        // A uniform permutation of 2 elements swaps half the time: among
        // 16 seeds at least one must swap (p_fail = 2^-16).
        let mut swapped_any = false;
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, report) = mech.protect_with_report(&d, &mut rng);
            if report.swap_events > 0 {
                assert!(report.mixed_fix_ratio() > 0.0);
                swapped_any = true;
                break;
            }
        }
        assert!(swapped_any, "no seed produced a swap");
    }

    #[test]
    fn swapped_output_exchanges_suffixes() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        // Find a seed that swaps.
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (out, report) = mech.protect_with_report(&d, &mut rng);
            if report.swap_events == 0 {
                continue;
            }
            let frame = d.local_frame().unwrap();
            // Label 1's published runs must cover BOTH arms: the prefix
            // run on user 1's horizontal arm and, after the swap, a
            // suffix run on user 2's vertical arm (or vice versa).
            let runs: Vec<_> = out
                .traces()
                .iter()
                .filter(|t| t.user() == UserId::new(1))
                .collect();
            assert!(runs.len() >= 2, "expected prefix+suffix runs");
            let on_horizontal = |t: &&&mobipriv_model::Trace| {
                frame.project(t.first().position).y.abs() < 1.0
                    && frame.project(t.last().position).y.abs() < 1.0
            };
            let on_vertical = |t: &&&mobipriv_model::Trace| {
                frame.project(t.first().position).x.abs() < 1.0
                    && frame.project(t.last().position).x.abs() < 1.0
            };
            assert!(
                runs.iter().any(|t| on_horizontal(&t)) && runs.iter().any(|t| on_vertical(&t)),
                "label 1 does not span both arms after the swap"
            );
            return;
        }
        panic!("no seed produced a swap");
    }

    #[test]
    fn report_ratios_are_sane() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, report) = mech.protect_with_report(&d, &mut rng);
        assert!(report.suppression_ratio() > 0.0);
        assert!(report.suppression_ratio() < 0.5);
        assert!(report.mixed_fix_ratio() <= 1.0);
    }

    #[test]
    fn disjoint_dataset_published_unchanged() {
        let d = disjoint_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let (out, report) = mech.protect_with_report(&d, &mut rng);
        assert_eq!(report.suppressed_fixes, 0);
        assert_eq!(report.swap_events, 0);
        assert_eq!(out.total_fixes(), d.total_fixes());
        assert_eq!(report.mixed_fix_ratio(), 0.0);
    }

    #[test]
    fn stationary_co_dwell_forms_no_zone_by_default() {
        // Two users parked at the same spot all day: the pass-through
        // speed gate must reject this ("mix-zones" only form where users
        // actually move through).
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64| {
            let fixes: Vec<Fix> = (0..=120)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(0.0, 0.0)),
                        Timestamp::new(i * 30),
                    )
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![make(1), make(2)]);
        let zones = detect_mix_zones(&d, &MixZoneConfig::default());
        assert!(zones.is_empty(), "{zones:?}");
    }

    #[test]
    fn majority_owner_reads_label_flows() {
        let mut report = SwapReport::default();
        report
            .label_flows
            .entry(UserId::new(1))
            .or_default()
            .insert(UserId::new(2), 10);
        report
            .label_flows
            .entry(UserId::new(1))
            .or_default()
            .insert(UserId::new(1), 3);
        assert_eq!(report.majority_owner(UserId::new(1)), Some(UserId::new(2)));
        assert_eq!(report.majority_owner(UserId::new(9)), None);
    }

    #[test]
    fn output_preserves_session_boundaries() {
        // Two disjoint sessions of one user, no zones: the published
        // dataset must keep them as two traces (merging would fabricate
        // a dwell between the sessions).
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let session = |t0: i64| {
            let fixes: Vec<Fix> = (0..=10)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(i as f64 * 50.0, 0.0)),
                        Timestamp::new(t0 + i * 10),
                    )
                })
                .collect();
            Trace::new(UserId::new(1), fixes).unwrap()
        };
        let other = {
            let fixes: Vec<Fix> = (0..=10)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(i as f64 * 50.0, 9_000.0)),
                        Timestamp::new(i * 10),
                    )
                })
                .collect();
            Trace::new(UserId::new(2), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![session(0), session(20_000), other]);
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (out, _) = mech.protect_with_report(&d, &mut rng);
        assert_eq!(out.len(), 3, "sessions must stay separate traces");
    }

    #[test]
    fn zone_window_caps_zone_duration() {
        // Two users dwelling together for a long time produce a series
        // of short zones, not one giant zone.
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64| {
            let fixes: Vec<Fix> = (0..=120)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(0.0, 0.0)),
                        Timestamp::new(i * 30),
                    )
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![make(1), make(2)]);
        // Disable the pass-through speed gate: this test exercises the
        // window capping on a deliberate co-dwell.
        let cfg = MixZoneConfig {
            min_speed_mps: 0.0,
            ..MixZoneConfig::default()
        };
        let zones = detect_mix_zones(&d, &cfg);
        assert!(
            zones.len() > 3,
            "expected a series of zones, got {}",
            zones.len()
        );
        for z in &zones {
            assert!(
                z.duration().get() <= cfg.zone_window.get() + 2.0 * cfg.time_tolerance.get(),
                "zone too long: {}s",
                z.duration().get()
            );
        }
    }
}

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use mobipriv_geo::{GridIndex, Point, Rect};
use mobipriv_model::{Dataset, Timestamp};

/// The multi-target tracking adversary (Hoh & Gruteser, SECURECOMM'05).
///
/// The adversary receives the dataset with identifiers removed — a bag
/// of `(time, position)` samples — and tries to re-link them into
/// per-user tracks. The implementation is the classical greedy
/// nearest-neighbour data association: samples are processed in time
/// order; each sample is appended to the open track whose predicted
/// extension is closest, subject to a maximum-speed gate, otherwise a
/// new track is opened.
///
/// Where two users' paths cross closely (in space *and* time) the
/// nearest-neighbour assignment is ambiguous and the tracker may swap
/// targets — this is precisely the confusion mix-zones formalize, and
/// experiment T8 measures it as a function of crossing density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tracker {
    /// Gating speed: a sample can extend a track only if reaching it
    /// needs at most this speed (m/s).
    pub max_speed_mps: f64,
    /// Tracks silent for longer than this are closed (seconds).
    pub max_silence_s: f64,
}

impl Default for Tracker {
    fn default() -> Self {
        Tracker {
            max_speed_mps: 40.0,
            max_silence_s: 300.0,
        }
    }
}

/// The tracking quality achieved by the adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerOutcome {
    /// Fraction of consecutive same-user sample pairs that the tracker
    /// kept in the same inferred track (1.0 = perfect tracking, lower =
    /// more confusion).
    pub continuity: f64,
    /// Mean purity of inferred tracks: the share of each track's samples
    /// contributed by its majority true user, weighted by track length.
    pub purity: f64,
    /// Number of inferred tracks.
    pub tracks: usize,
    /// Number of samples processed.
    pub samples: usize,
}

impl Tracker {
    /// Creates a tracker with the given gating speed (m/s).
    pub fn new(max_speed_mps: f64) -> Self {
        Tracker {
            max_speed_mps,
            ..Tracker::default()
        }
    }

    /// Runs the attack on `dataset` (labels are used only for scoring,
    /// never for the assignment itself) and reports tracking quality.
    ///
    /// Samples are assembled straight from the dataset's cached
    /// [`columns`](Dataset::columns) — the per-dataset projection is
    /// reused, not recomputed. Open tracks live in an
    /// incrementally-updated [`GridIndex`] keyed by their last position:
    /// each sample queries only the tracks the speed gate could possibly
    /// admit (within `max_speed × max_silence`), expanding outward and
    /// stopping at the first ring that cannot beat the best gated match.
    /// The association is bit-identical to
    /// [`run_naive`](Tracker::run_naive) — ties in distance resolve to
    /// the lowest track index, exactly like the sequential scan.
    pub fn run(&self, dataset: &Dataset) -> TrackerOutcome {
        self.run_inner(dataset, true)
    }

    /// Brute-force reference implementation: samples are projected fix
    /// by fix from the row-oriented traces, and every sample is tested
    /// against every open track. Kept public for the indexed≡naive
    /// equivalence tests and the `mobipriv-bench-perf` before/after
    /// comparison.
    pub fn run_naive(&self, dataset: &Dataset) -> TrackerOutcome {
        self.run_inner(dataset, false)
    }

    fn run_inner(&self, dataset: &Dataset, indexed: bool) -> TrackerOutcome {
        if dataset.local_frame().is_err() {
            return TrackerOutcome {
                continuity: 0.0,
                purity: 0.0,
                tracks: 0,
                samples: 0,
            };
        }
        // Anonymous samples: (time, position, true trace index).
        let mut samples: Vec<(Timestamp, Point, usize)> = Vec::with_capacity(dataset.total_fixes());
        if indexed {
            // The column cache already holds every fix projected into
            // the canonical frame; sample assembly is a pure copy.
            let cols = dataset.columns();
            let (time, x, y) = (cols.time(), cols.x(), cols.y());
            for idx in 0..cols.trace_count() {
                for i in cols.span(idx) {
                    samples.push((Timestamp::new(time[i]), Point::new(x[i], y[i]), idx));
                }
            }
        } else {
            let frame = dataset.local_frame().expect("non-empty dataset");
            for (idx, trace) in dataset.traces().iter().enumerate() {
                for fix in trace.fixes() {
                    samples.push((fix.time, frame.project(fix.position), idx));
                }
            }
        }
        samples.sort_by_key(|(t, _, _)| *t);

        let (tracks, assignment) = if indexed {
            self.associate_indexed(&samples)
        } else {
            self.associate_naive(&samples)
        };

        // Continuity: consecutive same-trace samples kept together.
        let mut last_sample_of_trace: BTreeMap<usize, usize> = BTreeMap::new();
        let mut pairs = 0usize;
        let mut kept = 0usize;
        for (i, &(_, _, trace)) in samples.iter().enumerate() {
            if let Some(&prev) = last_sample_of_trace.get(&trace) {
                pairs += 1;
                if assignment[prev] == assignment[i] {
                    kept += 1;
                }
            }
            last_sample_of_trace.insert(trace, i);
        }
        // Purity: majority share per inferred track.
        let mut pure = 0usize;
        for track in &tracks {
            let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
            for &s in &track.members {
                *counts.entry(samples[s].2).or_insert(0) += 1;
            }
            pure += counts.values().copied().max().unwrap_or(0);
        }
        TrackerOutcome {
            continuity: if pairs == 0 {
                1.0
            } else {
                kept as f64 / pairs as f64
            },
            purity: if samples.is_empty() {
                1.0
            } else {
                pure as f64 / samples.len() as f64
            },
            tracks: tracks.len(),
            samples: samples.len(),
        }
    }

    /// Greedy nearest-neighbour association, one full scan of the open
    /// tracks per sample.
    fn associate_naive(&self, samples: &[(Timestamp, Point, usize)]) -> (Vec<Track>, Vec<usize>) {
        let mut tracks: Vec<Track> = Vec::new();
        // assignment[i] = inferred track of sample i.
        let mut assignment: Vec<usize> = vec![usize::MAX; samples.len()];
        for (i, &(t, p, _)) in samples.iter().enumerate() {
            // Find the nearest open track within the speed gate.
            let mut best: Option<(f64, usize)> = None;
            for (ti, track) in tracks.iter().enumerate() {
                let dt = (t - track.last_time).get();
                if dt < 0.0 || dt > self.max_silence_s {
                    continue;
                }
                let d = track.last_pos.distance(p).get();
                // Simultaneous samples cannot belong to the same target.
                if dt == 0.0 {
                    continue;
                }
                if d / dt <= self.max_speed_mps && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, ti));
                }
            }
            extend_or_open(
                &mut tracks,
                &mut assignment,
                i,
                t,
                p,
                best.map(|(_, ti)| ti),
            );
        }
        (tracks, assignment)
    }

    /// The same greedy association with the open tracks kept in a
    /// [`GridIndex`] keyed by `last_pos`: extending a track moves its
    /// entry, and tracks silent past `max_silence_s` are evicted as the
    /// sample clock passes them, so each query touches only local,
    /// still-open tracks.
    fn associate_indexed(&self, samples: &[(Timestamp, Point, usize)]) -> (Vec<Track>, Vec<usize>) {
        let mut tracks: Vec<Track> = Vec::new();
        let mut assignment: Vec<usize> = vec![usize::MAX; samples.len()];
        let Some(bounds) = Rect::of(samples.iter().map(|&(_, p, _)| p)) else {
            return (tracks, assignment);
        };
        // Cell size: fine enough to prune, coarse enough that a track's
        // own continuation (typically one sampling interval away) sits
        // within the first ring or two.
        let diag = bounds.width().hypot(bounds.height());
        let cell = (diag / 32.0).clamp(50.0, 5_000.0);
        let mut index: GridIndex<usize> = GridIndex::new(cell).expect("positive cell size");
        // No admissible track is farther than the gate allows at the
        // longest allowed silence (plus slack for rounding).
        let reach = self.max_speed_mps.max(0.0) * self.max_silence_s.max(0.0);
        let reach = reach * (1.0 + 1e-9) + 1e-6;
        // Eviction queue: (last_time, track) pairs; an entry is stale
        // when the track moved on since it was queued.
        let mut eviction: BinaryHeap<Reverse<(Timestamp, usize)>> = BinaryHeap::new();
        for (i, &(t, p, _)) in samples.iter().enumerate() {
            while let Some(&Reverse((queued, ti))) = eviction.peek() {
                if tracks[ti].last_time != queued {
                    eviction.pop(); // the track was extended since
                    continue;
                }
                if (t - queued).get() > self.max_silence_s {
                    eviction.pop();
                    index.remove(tracks[ti].last_pos, &ti);
                    continue;
                }
                break;
            }
            let best = index
                .nearest_within_by(p, reach, |d, _, &ti| {
                    let dt = (t - tracks[ti].last_time).get();
                    // Same gate as the naive scan; simultaneous samples
                    // cannot belong to the same target.
                    if dt <= 0.0 || dt > self.max_silence_s {
                        return None;
                    }
                    // The track index is the tie-break key: equidistant
                    // candidates resolve exactly like the ascending
                    // sequential scan.
                    (d / dt <= self.max_speed_mps).then_some(ti)
                })
                .map(|(_, &ti)| ti);
            if let Some(ti) = best {
                index.remove(tracks[ti].last_pos, &ti);
            }
            extend_or_open(&mut tracks, &mut assignment, i, t, p, best);
            let ti = assignment[i];
            index.insert(p, ti);
            eviction.push(Reverse((t, ti)));
        }
        (tracks, assignment)
    }
}

/// One open (or closed) inferred track.
struct Track {
    last_time: Timestamp,
    last_pos: Point,
    members: Vec<usize>, // sample indices
}

/// Appends sample `i` to track `best` when the association found one,
/// otherwise opens a new track; records the assignment either way.
fn extend_or_open(
    tracks: &mut Vec<Track>,
    assignment: &mut [usize],
    i: usize,
    t: Timestamp,
    p: Point,
    best: Option<usize>,
) {
    match best {
        Some(ti) => {
            tracks[ti].last_time = t;
            tracks[ti].last_pos = p;
            tracks[ti].members.push(i);
            assignment[i] = ti;
        }
        None => {
            tracks.push(Track {
                last_time: t,
                last_pos: p,
                members: vec![i],
            });
            assignment[i] = tracks.len() - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::{LatLng, LocalFrame};
    use mobipriv_model::{Fix, Trace, UserId};

    fn frame() -> LocalFrame {
        LocalFrame::new(LatLng::new(45.0, 5.0).unwrap())
    }

    fn lane_trace(user: u64, y: f64, speed: f64) -> Trace {
        let f = frame();
        let fixes = (0..60)
            .map(|i| {
                let p = Point::new(speed * 30.0 * i as f64, y);
                Fix::new(f.unproject(p), Timestamp::new(i * 30))
            })
            .collect();
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    #[test]
    fn well_separated_users_are_perfectly_tracked() {
        let d = Dataset::from_traces(vec![lane_trace(1, 0.0, 5.0), lane_trace(2, 5_000.0, 5.0)]);
        let outcome = Tracker::default().run(&d);
        assert_eq!(outcome.tracks, 2);
        assert_eq!(outcome.continuity, 1.0);
        assert_eq!(outcome.purity, 1.0);
        assert_eq!(outcome.samples, 120);
    }

    #[test]
    fn crossing_users_confuse_the_tracker() {
        // Two users crossing at the origin within seconds of each
        // other. The 5 s clock offset between them means the nearest
        // open track for the first post-crossing sample is genuinely
        // the *other* user's — the classical association error.
        let f = frame();
        let make = |user: u64, horizontal: bool, offset: i64| {
            let fixes: Vec<Fix> = (0..=80)
                .map(|i| {
                    let d = -2_000.0 + 50.0 * i as f64;
                    let p = if horizontal {
                        Point::new(d, 0.0)
                    } else {
                        Point::new(0.0, d)
                    };
                    Fix::new(f.unproject(p), Timestamp::new(i * 10 + offset))
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![make(1, true, 0), make(2, false, 5)]);
        let outcome = Tracker::default().run(&d);
        // Near the crossing, samples of the two users are closer to each
        // other than to their own track — purity dips below 1.
        assert!(
            outcome.purity < 1.0 || outcome.continuity < 1.0,
            "no confusion at a perfect crossing: {outcome:?}"
        );
    }

    #[test]
    fn indexed_run_matches_naive() {
        let d = Dataset::from_traces(vec![
            lane_trace(1, 0.0, 5.0),
            lane_trace(2, 40.0, 5.0),
            lane_trace(3, 5_000.0, 8.0),
        ]);
        let tracker = Tracker::default();
        assert_eq!(tracker.run(&d), tracker.run_naive(&d));
    }

    #[test]
    fn speed_gate_splits_teleporting_tracks() {
        let f = frame();
        // One user whose published fixes jump 10 km between samples
        // (e.g. after heavy perturbation): the tracker cannot follow.
        let fixes = (0..10)
            .map(|i| {
                let p = Point::new((i % 2) as f64 * 10_000.0, 0.0);
                Fix::new(f.unproject(p), Timestamp::new(i * 30))
            })
            .collect();
        let d = Dataset::from_traces(vec![Trace::new(UserId::new(1), fixes).unwrap()]);
        let outcome = Tracker::default().run(&d);
        assert!(outcome.tracks > 1);
        assert!(outcome.continuity < 1.0);
    }

    #[test]
    fn long_silence_closes_tracks() {
        let f = frame();
        let mut fixes = Vec::new();
        for i in 0..5 {
            fixes.push(Fix::new(
                f.unproject(Point::new(i as f64 * 10.0, 0.0)),
                Timestamp::new(i * 30),
            ));
        }
        // 1-hour gap, then resume nearby.
        for i in 0..5 {
            fixes.push(Fix::new(
                f.unproject(Point::new(200.0 + i as f64 * 10.0, 0.0)),
                Timestamp::new(3_600 + 150 + i * 30),
            ));
        }
        let d = Dataset::from_traces(vec![Trace::new(UserId::new(1), fixes).unwrap()]);
        let outcome = Tracker::default().run(&d);
        assert_eq!(outcome.tracks, 2);
    }

    #[test]
    fn empty_dataset() {
        let outcome = Tracker::default().run(&Dataset::new());
        assert_eq!(outcome.tracks, 0);
        assert_eq!(outcome.samples, 0);
    }

    #[test]
    fn single_fix_traces_each_form_a_track() {
        let f = frame();
        let make = |user: u64, x: f64| {
            Trace::new(
                UserId::new(user),
                vec![Fix::new(f.unproject(Point::new(x, 0.0)), Timestamp::new(0))],
            )
            .unwrap()
        };
        let d = Dataset::from_traces(vec![make(1, 0.0), make(2, 10.0)]);
        let outcome = Tracker::default().run(&d);
        // Simultaneous samples can never share a track.
        assert_eq!(outcome.tracks, 2);
        assert_eq!(outcome.continuity, 1.0); // no pairs at all
    }
}

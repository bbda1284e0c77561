use rand::Rng;

use mobipriv_geo::{LatLng, LocalFrame, Point, Rect};

/// Index of a [`Site`] within its [`City`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

/// What kind of place a site is. Categories drive both the schedule
/// generator and the semantic labelling of ground-truth POIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteCategory {
    /// A residence — each agent is assigned one.
    Home,
    /// A workplace.
    Work,
    /// Restaurants, shops, gyms, parks…
    Leisure,
    /// A transit hub (station, mall): the shared way-points where many
    /// agents naturally cross paths. Mix-zones form here.
    Hub,
}

impl SiteCategory {
    /// All categories, in declaration order.
    pub const ALL: [SiteCategory; 4] = [
        SiteCategory::Home,
        SiteCategory::Work,
        SiteCategory::Leisure,
        SiteCategory::Hub,
    ];
}

/// A named place in the synthetic city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Site {
    /// Identifier within the city.
    pub id: SiteId,
    /// Category of the place.
    pub category: SiteCategory,
    /// Planar position in the city frame.
    pub position: Point,
}

/// Configuration for [`City::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CityConfig {
    /// Geographic anchor of the city (the local-frame origin).
    pub center: LatLng,
    /// Half-side of the square city extent, in meters.
    pub half_extent_m: f64,
    /// Spacing of the road grid, in meters.
    pub road_spacing_m: f64,
    /// Number of home sites.
    pub homes: usize,
    /// Number of work sites.
    pub works: usize,
    /// Number of leisure sites.
    pub leisures: usize,
    /// Number of transit hubs.
    pub hubs: usize,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            center: LatLng::new(45.7640, 4.8357).expect("valid constant"),
            half_extent_m: 4_000.0,
            road_spacing_m: 200.0,
            homes: 40,
            works: 10,
            leisures: 12,
            hubs: 3,
        }
    }
}

/// The synthetic city: a square extent, a Manhattan road grid and a set
/// of sites.
///
/// All geometry is planar, in a [`LocalFrame`] anchored at the city
/// center; [`City::frame`] converts back to geographic coordinates.
///
/// ```
/// use mobipriv_synth::{City, CityConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let city = City::generate(CityConfig::default(), &mut rng);
/// assert!(city.sites().len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct City {
    frame: LocalFrame,
    bounds: Rect,
    road_spacing: f64,
    sites: Vec<Site>,
}

impl City {
    /// Generates a city: sites are placed uniformly at random on road-grid
    /// nodes (snapped), with a minimum separation of one grid cell between
    /// sites of the same category.
    pub fn generate<R: Rng + ?Sized>(config: CityConfig, rng: &mut R) -> Self {
        let frame = LocalFrame::new(config.center);
        let h = config.half_extent_m.abs().max(config.road_spacing_m);
        let bounds = Rect::new(Point::new(-h, -h), Point::new(h, h));
        let mut city = City {
            frame,
            bounds,
            road_spacing: config.road_spacing_m.max(1.0),
            sites: Vec::new(),
        };
        let plan = [
            (SiteCategory::Home, config.homes),
            (SiteCategory::Work, config.works),
            (SiteCategory::Leisure, config.leisures),
            (SiteCategory::Hub, config.hubs),
        ];
        for (category, count) in plan {
            for _ in 0..count {
                let position = city.random_site_position(category, rng);
                city.sites.push(Site {
                    id: SiteId(city.sites.len()),
                    category,
                    position,
                });
            }
        }
        city
    }

    /// Builds a city from an explicit list of site positions — used by
    /// hand-crafted scenarios (e.g. the Fig. 1 reproduction).
    pub fn from_sites(
        center: LatLng,
        half_extent_m: f64,
        road_spacing_m: f64,
        sites: Vec<(SiteCategory, Point)>,
    ) -> Self {
        let h = half_extent_m.abs().max(road_spacing_m);
        City {
            frame: LocalFrame::new(center),
            bounds: Rect::new(Point::new(-h, -h), Point::new(h, h)),
            road_spacing: road_spacing_m.max(1.0),
            sites: sites
                .into_iter()
                .enumerate()
                .map(|(i, (category, position))| Site {
                    id: SiteId(i),
                    category,
                    position,
                })
                .collect(),
        }
    }

    fn random_site_position<R: Rng + ?Sized>(&self, category: SiteCategory, rng: &mut R) -> Point {
        // Homes spread out; works/leisure/hubs bias toward the center
        // (downtown), matching real city structure.
        let shrink = match category {
            SiteCategory::Home => 1.0,
            SiteCategory::Work => 0.5,
            SiteCategory::Leisure => 0.7,
            SiteCategory::Hub => 0.6,
        };
        for _ in 0..128 {
            let x = rng.gen_range(self.bounds.min().x * shrink..=self.bounds.max().x * shrink);
            let y = rng.gen_range(self.bounds.min().y * shrink..=self.bounds.max().y * shrink);
            let snapped = self.snap_to_grid(Point::new(x, y));
            let too_close = self
                .sites
                .iter()
                .any(|s| s.position.distance(snapped).get() < self.road_spacing * 0.5);
            if !too_close {
                return snapped;
            }
        }
        // Dense configuration: accept a collision rather than loop forever.
        let x = rng.gen_range(self.bounds.min().x..=self.bounds.max().x);
        let y = rng.gen_range(self.bounds.min().y..=self.bounds.max().y);
        self.snap_to_grid(Point::new(x, y))
    }

    /// The local planar frame of the city.
    pub fn frame(&self) -> &LocalFrame {
        &self.frame
    }

    /// The square bounds of the city, in frame coordinates.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Road-grid spacing in meters.
    pub fn road_spacing(&self) -> f64 {
        self.road_spacing
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The site with the given id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this city.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// All sites of a category.
    pub fn sites_of(&self, category: SiteCategory) -> Vec<&Site> {
        self.sites
            .iter()
            .filter(|s| s.category == category)
            .collect()
    }

    /// A uniformly random site of `category`, or `None` when the city has
    /// none of that kind.
    pub fn random_site<R: Rng + ?Sized>(
        &self,
        category: SiteCategory,
        rng: &mut R,
    ) -> Option<&Site> {
        let of_kind = self.sites_of(category);
        if of_kind.is_empty() {
            return None;
        }
        Some(of_kind[rng.gen_range(0..of_kind.len())])
    }

    /// The hub nearest to the midpoint of `a` and `b`, or `None` when the
    /// city has no hub. Used to route trips "via downtown".
    pub fn hub_between(&self, a: Point, b: Point) -> Option<&Site> {
        let mid = (a + b) / 2.0;
        self.sites
            .iter()
            .filter(|s| s.category == SiteCategory::Hub)
            .min_by(|s1, s2| {
                s1.position
                    .distance_sq(mid)
                    .partial_cmp(&s2.position.distance_sq(mid))
                    .expect("finite distances")
            })
    }

    /// Snaps a point to the nearest road-grid node.
    pub fn snap_to_grid(&self, p: Point) -> Point {
        let s = self.road_spacing;
        Point::new((p.x / s).round() * s, (p.y / s).round() * s)
    }

    /// A road-constrained path from `from` to `to`: an L-shaped Manhattan
    /// route along grid roads with a vertex at every crossed grid node
    /// (so movement can vary speed smoothly). Endpoints are included
    /// verbatim; `x_first` picks which leg comes first.
    pub fn route(&self, from: Point, to: Point, x_first: bool) -> Vec<Point> {
        let mut path = vec![from];
        let a = self.snap_to_grid(from);
        let b = self.snap_to_grid(to);
        push_unless_duplicate(&mut path, a);
        let corner = if x_first {
            Point::new(b.x, a.y)
        } else {
            Point::new(a.x, b.y)
        };
        append_grid_leg(&mut path, a, corner, self.road_spacing);
        append_grid_leg(&mut path, corner, b, self.road_spacing);
        push_unless_duplicate(&mut path, to);
        path
    }

    /// Like [`route`](City::route) but passing through `via` (used for
    /// trips routed through a hub).
    pub fn route_via(&self, from: Point, via: Point, to: Point, x_first: bool) -> Vec<Point> {
        let mut first = self.route(from, via, x_first);
        let second = self.route(via, to, !x_first);
        for p in second {
            push_unless_duplicate(&mut first, p);
        }
        first
    }
}

/// Appends every grid node along the axis-aligned segment `from -> to`
/// (exclusive of `from`, inclusive of `to`).
fn append_grid_leg(path: &mut Vec<Point>, from: Point, to: Point, spacing: f64) {
    let delta = to - from;
    let (steps, step) = if delta.x.abs() > delta.y.abs() {
        let n = (delta.x.abs() / spacing).round() as usize;
        (n, Point::new(spacing * delta.x.signum(), 0.0))
    } else {
        let n = (delta.y.abs() / spacing).round() as usize;
        (n, Point::new(0.0, spacing * delta.y.signum()))
    };
    let mut cur = from;
    for _ in 0..steps {
        cur += step;
        push_unless_duplicate(path, cur);
    }
    push_unless_duplicate(path, to);
}

fn push_unless_duplicate(path: &mut Vec<Point>, p: Point) {
    if path.last().is_none_or(|last| last.distance(p).get() > 1e-9) {
        path.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_city() -> City {
        let mut rng = StdRng::seed_from_u64(11);
        City::generate(CityConfig::default(), &mut rng)
    }

    #[test]
    fn generate_creates_requested_sites() {
        let city = test_city();
        let cfg = CityConfig::default();
        assert_eq!(
            city.sites().len(),
            cfg.homes + cfg.works + cfg.leisures + cfg.hubs
        );
        assert_eq!(city.sites_of(SiteCategory::Home).len(), cfg.homes);
        assert_eq!(city.sites_of(SiteCategory::Hub).len(), cfg.hubs);
    }

    #[test]
    fn sites_are_inside_bounds_and_on_grid() {
        let city = test_city();
        for s in city.sites() {
            assert!(city.bounds().contains(s.position), "{:?}", s);
            let snapped = city.snap_to_grid(s.position);
            assert!(snapped.distance(s.position).get() < 1e-9);
        }
    }

    #[test]
    fn site_ids_are_dense() {
        let city = test_city();
        for (i, s) in city.sites().iter().enumerate() {
            assert_eq!(s.id, SiteId(i));
            assert_eq!(city.site(SiteId(i)).id, SiteId(i));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let c1 = City::generate(CityConfig::default(), &mut r1);
        let c2 = City::generate(CityConfig::default(), &mut r2);
        assert_eq!(c1.sites(), c2.sites());
    }

    #[test]
    fn random_site_picks_correct_category() {
        let city = test_city();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = city.random_site(SiteCategory::Work, &mut rng).unwrap();
            assert_eq!(s.category, SiteCategory::Work);
        }
        let empty = City::from_sites(
            CityConfig::default().center,
            1_000.0,
            100.0,
            vec![(SiteCategory::Home, Point::new(0.0, 0.0))],
        );
        assert!(empty.random_site(SiteCategory::Hub, &mut rng).is_none());
    }

    #[test]
    fn route_is_manhattan_and_connected() {
        let city = test_city();
        let from = Point::new(-1_000.0, -1_000.0);
        let to = Point::new(1_000.0, 600.0);
        let path = city.route(from, to, true);
        assert_eq!(path[0], from);
        assert_eq!(*path.last().unwrap(), to);
        // Consecutive hops are short (≤ grid spacing + snap slack) and
        // axis-aligned except the snap hops at the ends.
        for w in path.windows(2).skip(1).take(path.len().saturating_sub(3)) {
            let d = w[0].distance(w[1]).get();
            assert!(d <= city.road_spacing() + 1e-6, "hop {d}");
            let dx = (w[1].x - w[0].x).abs();
            let dy = (w[1].y - w[0].y).abs();
            assert!(dx < 1e-9 || dy < 1e-9, "diagonal hop {:?} {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn route_same_point_is_trivial() {
        let city = test_city();
        let p = Point::new(100.0, 100.0);
        let path = city.route(p, p, true);
        assert!(!path.is_empty());
        assert_eq!(path[0], p);
        assert_eq!(*path.last().unwrap(), p);
    }

    #[test]
    fn route_via_passes_through_waypoint() {
        let city = test_city();
        let from = Point::new(-400.0, -400.0);
        let via = city.snap_to_grid(Point::new(0.0, 0.0));
        let to = Point::new(600.0, 600.0);
        let path = city.route_via(from, via, to, true);
        assert!(path.iter().any(|p| p.distance(via).get() < 1e-9));
        assert_eq!(path[0], from);
        assert_eq!(*path.last().unwrap(), to);
    }

    #[test]
    fn hub_between_picks_nearest_to_midpoint() {
        let city = City::from_sites(
            CityConfig::default().center,
            2_000.0,
            100.0,
            vec![
                (SiteCategory::Hub, Point::new(0.0, 0.0)),
                (SiteCategory::Hub, Point::new(1_500.0, 1_500.0)),
            ],
        );
        let hub = city
            .hub_between(Point::new(-200.0, 0.0), Point::new(200.0, 0.0))
            .unwrap();
        assert_eq!(hub.position, Point::new(0.0, 0.0));
        let no_hub = City::from_sites(CityConfig::default().center, 500.0, 100.0, vec![]);
        assert!(no_hub
            .hub_between(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
            .is_none());
    }

    #[test]
    fn snap_to_grid_rounds_to_nearest_node() {
        let city = test_city();
        let s = city.road_spacing();
        assert_eq!(
            city.snap_to_grid(Point::new(0.4 * s, 0.6 * s)),
            Point::new(0.0, s)
        );
    }
}

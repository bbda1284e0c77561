//! Geodesy primitives for the `mobipriv` mobility-privacy toolkit.
//!
//! This crate provides the low-level geometric vocabulary shared by every
//! other `mobipriv` crate:
//!
//! * [`LatLng`] — a validated WGS-84 coordinate with great-circle
//!   ([haversine](LatLng::haversine_distance)) distance, bearings and
//!   destination points;
//! * [`Point`] — a planar point in a local metric frame (meters east /
//!   north), the workhorse of every algorithm;
//! * [`LocalFrame`] — an equirectangular local tangent projection mapping
//!   between the two;
//! * [`Polyline`] — cumulative-length queries, interpolation at a given
//!   travelled distance, nearest-point queries and uniform re-sampling;
//! * [`GridIndex`] — a uniform spatial hash answering neighbourhood and
//!   nearest-neighbour queries in (amortized) constant time, with
//!   deterministic brute-force-equivalent tie-breaking;
//! * [`FootprintIndex`] — the rectangle counterpart, bucketing trace or
//!   polyline bounding boxes for footprint-join prefilters;
//! * strongly-typed units ([`Meters`], [`Seconds`], [`MetersPerSecond`]).
//!
//! # Example
//!
//! ```
//! use mobipriv_geo::{LatLng, LocalFrame, Meters};
//!
//! # fn main() -> Result<(), mobipriv_geo::GeoError> {
//! let lyon = LatLng::new(45.7640, 4.8357)?;
//! let paris = LatLng::new(48.8566, 2.3522)?;
//! let d = lyon.haversine_distance(paris);
//! assert!((d.get() - 391_500.0).abs() < 2_000.0); // ~391.5 km
//!
//! let frame = LocalFrame::new(lyon);
//! let p = frame.project(paris);
//! assert!((p.norm() - d.get()).abs() / d.get() < 0.01);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

mod bbox;
mod error;
mod footprint;
mod grid;
mod latlng;
mod point;
mod polyline;
mod projection;
mod units;

pub use bbox::{BoundingBox, Rect};
pub use error::GeoError;
pub use footprint::FootprintIndex;
pub use grid::{CellId, GridIndex};
pub use latlng::{LatLng, EARTH_RADIUS_M};
pub use point::Point;
pub use polyline::{PathSample, Polyline};
pub use projection::LocalFrame;
pub use units::{Meters, MetersPerSecond, Seconds};

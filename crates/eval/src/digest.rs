//! Stable 64-bit digests for datasets and cell seeds.
//!
//! The content digest itself (FNV-1a over the dataset's canonical CSV
//! serialization) lives in [`mobipriv_model::digest`] so the service's
//! content-addressed dataset registry and this crate's golden corpus
//! address datasets *identically*; this module re-exports it and adds
//! the eval-specific seed derivation.

pub use mobipriv_model::digest::{dataset_digest, digest_hex, fnv1a64};

use mobipriv_model::digest::mix64;

/// The RNG seed of one evaluation cell, derived from the plan seed and
/// the cell's *names* rather than its position: filtering or reordering
/// the plan never changes what any surviving cell computes.
pub fn cell_seed(plan_seed: u64, scenario: &str, mechanism: &str) -> u64 {
    let name = [scenario.as_bytes(), b"\x00", mechanism.as_bytes()].concat();
    // Mixed so structurally similar names do not yield correlated seeds.
    mix64(fnv1a64(&name) ^ plan_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId};

    #[test]
    fn reexported_digest_still_tracks_content() {
        // The golden corpus depends on these exact values staying put
        // across the move into mobipriv-model.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let trace = |user: u64, lat: f64| {
            Trace::new(
                UserId::new(user),
                vec![Fix::new(LatLng::new(lat, 5.0).unwrap(), Timestamp::new(0))],
            )
            .unwrap()
        };
        let a = Dataset::from_traces(vec![trace(1, 45.0)]);
        let b = Dataset::from_traces(vec![trace(1, 45.0)]);
        let c = Dataset::from_traces(vec![trace(1, 45.001)]);
        assert_eq!(dataset_digest(&a), dataset_digest(&b));
        assert_ne!(dataset_digest(&a), dataset_digest(&c));
        assert_eq!(dataset_digest(&a).len(), 16);
    }

    #[test]
    fn cell_seeds_differ_across_cells_and_agree_across_calls() {
        let a = cell_seed(42, "commuter_town", "promesse_a100");
        assert_eq!(a, cell_seed(42, "commuter_town", "promesse_a100"));
        assert_ne!(a, cell_seed(42, "commuter_town", "promesse_a200"));
        assert_ne!(a, cell_seed(42, "dense_downtown", "promesse_a100"));
        assert_ne!(a, cell_seed(43, "commuter_town", "promesse_a100"));
        // The separator keeps (scenario, mechanism) concatenation
        // unambiguous.
        assert_ne!(cell_seed(1, "ab", "c"), cell_seed(1, "a", "bc"));
    }
}

//! Stable 64-bit content digests for datasets.
//!
//! `std::hash` offers no stability guarantee across releases or
//! processes, so every subsystem that addresses a dataset by content —
//! the eval harness's golden corpus, the service's dataset registry and
//! result cache — pins its own hash: FNV-1a over the dataset's
//! *canonical CSV* serialization. The CSV writer quantizes coordinates
//! and fixes trace order, so two datasets digest equal iff they publish
//! equal, regardless of the wire format (CSV vs NDJSON, chunked vs
//! fixed-length) they arrived in.
//!
//! This module lives in `mobipriv-model` (rather than the eval crate
//! where it was born) because the digest is a property of the *data
//! model's* canonical form; the eval crate re-exports it unchanged.

use crate::{write_csv, Dataset};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the one byte hash behind content
/// digests, cell seeds, shard placement, chaos rolls and retry jitter.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The SplitMix64 finalizer: a bijective, full-avalanche mix of a
/// `u64`. Seeds and scores derived from structured inputs (FNV-1a's
/// weak low bits, consecutive ids) go through it so near-identical
/// inputs do not yield correlated outputs.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical digest of a published dataset: FNV-1a over its CSV
/// bytes, rendered as 16 lowercase hex digits.
pub fn dataset_digest(dataset: &Dataset) -> String {
    let mut bytes = Vec::new();
    write_csv(dataset, &mut bytes).expect("serializing to memory cannot fail");
    digest_hex(&bytes)
}

/// FNV-1a of arbitrary bytes as 16 lowercase hex digits — the textual
/// form every content address in the system uses. For a dataset, pass
/// its canonical CSV bytes (or use [`dataset_digest`]).
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fix, Timestamp, Trace, UserId};
    use mobipriv_geo::LatLng;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn dataset_digest_tracks_content() {
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
    fn digest_hex_matches_dataset_digest_on_canonical_bytes() {
        let trace = Trace::new(
            UserId::new(7),
            vec![Fix::new(
                LatLng::new(45.76, 4.84).unwrap(),
                Timestamp::new(0),
            )],
        )
        .unwrap();
        let dataset = Dataset::from_traces(vec![trace]);
        let mut bytes = Vec::new();
        write_csv(&dataset, &mut bytes).unwrap();
        assert_eq!(digest_hex(&bytes), dataset_digest(&dataset));
    }
}

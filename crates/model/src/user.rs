use std::fmt;

/// An opaque user (or pseudonym) identifier.
///
/// Identifier swapping in mix-zones permutes `UserId`s between traces, so
/// the type is deliberately a small `Copy` value.
///
/// ```
/// use mobipriv_model::UserId;
/// let u = UserId::new(42);
/// assert_eq!(u.get(), 42);
/// assert_eq!(u.to_string(), "u42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct UserId(u64);

impl UserId {
    /// Creates an identifier from a raw integer.
    pub const fn new(id: u64) -> Self {
        UserId(id)
    }

    /// Returns the raw integer.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u64> for UserId {
    fn from(id: u64) -> Self {
        UserId(id)
    }
}

impl From<UserId> for u64 {
    fn from(id: UserId) -> u64 {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let u: UserId = 7u64.into();
        let raw: u64 = u.into();
        assert_eq!(raw, 7);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(UserId::new(1) < UserId::new(2));
    }

    #[test]
    fn display_prefix() {
        assert_eq!(UserId::new(0).to_string(), "u0");
    }
}

//! Identifiers used across the PrivApprox pipeline.
//!
//! The paper requires a unique query identifier `QID` ("generated by
//! concatenating the identifier of the analyst with a serial number
//! unique to the analyst", §3.1) and a per-message identifier `MID`
//! that lets the aggregator re-join the XOR shares transmitted through
//! independent proxies (§3.2.3).

/// Identifier of an analyst publishing queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnalystId(pub u32);

/// Identifier of a client device holding private data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// Identifier of a proxy in the anonymizing relay set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProxyId(pub u16);

/// Unique query identifier: analyst identifier concatenated with a
/// serial number unique to that analyst (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// The issuing analyst.
    pub analyst: AnalystId,
    /// Analyst-local serial number.
    pub serial: u32,
}

impl QueryId {
    /// Builds a query identifier from an analyst id and a serial number.
    pub const fn new(analyst: AnalystId, serial: u32) -> Self {
        QueryId { analyst, serial }
    }

    /// Packs the identifier into a single `u64` for wire transmission
    /// (analyst id in the high 32 bits, serial in the low 32 bits).
    pub const fn to_u64(self) -> u64 {
        ((self.analyst.0 as u64) << 32) | self.serial as u64
    }

    /// Inverse of [`QueryId::to_u64`].
    pub const fn from_u64(raw: u64) -> Self {
        QueryId {
            analyst: AnalystId((raw >> 32) as u32),
            serial: raw as u32,
        }
    }
}

impl core::fmt::Display for QueryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q{}-{}", self.analyst.0, self.serial)
    }
}

/// Unique message identifier attached to every XOR share so the
/// aggregator can re-join the `n` split messages (paper §3.2.3).
///
/// The identifier must be unlinkable to the client, so clients draw it
/// uniformly at random from a 128-bit space; collisions are negligible
/// at any realistic population size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u128);

impl MessageId {
    /// Serializes the identifier to its 16-byte big-endian form.
    pub const fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Deserializes from the 16-byte big-endian form.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        MessageId(u128::from_be_bytes(bytes))
    }
}

impl core::fmt::Display for MessageId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "M{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_round_trips_through_u64() {
        let qid = QueryId::new(AnalystId(0xDEAD_BEEF), 42);
        assert_eq!(QueryId::from_u64(qid.to_u64()), qid);
    }

    #[test]
    fn query_id_packing_is_disjoint() {
        let a = QueryId::new(AnalystId(1), 0).to_u64();
        let b = QueryId::new(AnalystId(0), 1).to_u64();
        assert_ne!(a, b);
        assert_eq!(a, 1u64 << 32);
        assert_eq!(b, 1u64);
    }

    #[test]
    fn message_id_round_trips_through_bytes() {
        let mid = MessageId(0x0123_4567_89AB_CDEF_0011_2233_4455_6677);
        assert_eq!(MessageId::from_bytes(mid.to_bytes()), mid);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(QueryId::new(AnalystId(7), 3).to_string(), "Q7-3");
        assert_eq!(
            MessageId(1).to_string(),
            "M00000000000000000000000000000001"
        );
    }
}

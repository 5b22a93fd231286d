//! Replica streams: the multiple instantiations of one looped packet on
//! one link.

use crate::key::ReplicaKey;
use net_types::Ipv4Prefix;

/// One sighting of the looping packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observation {
    /// Capture time (ns since trace epoch).
    pub timestamp_ns: u64,
    /// TTL at this sighting.
    pub ttl: u8,
}

/// A set of replicas of a single unique packet (§IV: "each replica stream
/// originates from a single unique packet").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStream {
    /// The invariant header fields shared by all replicas.
    pub key: ReplicaKey,
    /// Sightings in time order (TTL strictly decreasing).
    pub observations: Vec<Observation>,
    /// Indices into the source record vector, parallel to `observations`
    /// (used by validation to mark looped records).
    pub record_indices: Vec<usize>,
}

impl ReplicaStream {
    /// Number of replicas (sightings).
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True when the stream holds fewer than two sightings (not actually a
    /// replica stream; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// First sighting time.
    pub fn start_ns(&self) -> u64 {
        self.observations.first().map_or(0, |o| o.timestamp_ns)
    }

    /// Last sighting time.
    pub fn end_ns(&self) -> u64 {
        self.observations.last().map_or(0, |o| o.timestamp_ns)
    }

    /// Stream duration: last minus first sighting (Fig. 8's quantity).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns() - self.start_ns()
    }

    /// TTL of the first sighting.
    pub fn first_ttl(&self) -> u8 {
        self.observations.first().map_or(0, |o| o.ttl)
    }

    /// TTL of the last sighting.
    pub fn last_ttl(&self) -> u8 {
        self.observations.last().map_or(0, |o| o.ttl)
    }

    /// The TTL delta: the most common decrease between successive
    /// sightings — "the number of nodes involved in the routing loop"
    /// (Fig. 2's quantity). Returns 0 for singleton streams.
    pub fn ttl_delta(&self) -> u8 {
        let mut counts = std::collections::BTreeMap::new();
        for w in self.observations.windows(2) {
            let d = w[0].ttl - w[1].ttl;
            *counts.entry(d).or_insert(0u32) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(d, _)| d)
            .unwrap_or(0)
    }

    /// Mean inter-replica spacing in nanoseconds (Fig. 4 uses "an average
    /// of all inter-replica spacing times calculated per replica stream").
    /// Zero for singleton streams.
    pub fn mean_spacing_ns(&self) -> u64 {
        if self.observations.len() < 2 {
            return 0;
        }
        self.duration_ns() / (self.observations.len() as u64 - 1)
    }

    /// The destination /24 the stream aggregates under.
    pub fn dst_slash24(&self) -> Ipv4Prefix {
        Ipv4Prefix::slash24_of(self.key.dst)
    }

    /// Whether the packet *could* have escaped the loop: its last sighting
    /// still had more TTL left than one loop traversal burns. A packet seen
    /// last with TTL <= delta necessarily died in the loop.
    pub fn may_have_escaped(&self) -> bool {
        self.last_ttl() > self.ttl_delta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use net_types::{Packet, TcpFlags};
    use std::net::Ipv4Addr;

    fn stream_with(ttls: &[u8], times: &[u64]) -> ReplicaStream {
        assert_eq!(ttls.len(), times.len());
        let p = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, 5),
            1,
            2,
            TcpFlags::ACK,
            &b""[..],
        );
        let rec = TraceRecord::from_packet(0, &p);
        ReplicaStream {
            key: ReplicaKey::of(&rec),
            observations: ttls
                .iter()
                .zip(times)
                .map(|(&ttl, &timestamp_ns)| Observation { timestamp_ns, ttl })
                .collect(),
            record_indices: (0..ttls.len()).collect(),
        }
    }

    #[test]
    fn basic_metrics() {
        let s = stream_with(&[60, 58, 56, 54], &[1000, 2000, 3000, 4100]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.start_ns(), 1000);
        assert_eq!(s.end_ns(), 4100);
        assert_eq!(s.duration_ns(), 3100);
        assert_eq!(s.first_ttl(), 60);
        assert_eq!(s.last_ttl(), 54);
        assert_eq!(s.ttl_delta(), 2);
        assert_eq!(s.mean_spacing_ns(), 3100 / 3);
    }

    #[test]
    fn ttl_delta_majority_wins() {
        // Deltas 2, 2, 4 (a missed sighting): mode is 2.
        let s = stream_with(&[60, 58, 56, 52], &[0, 10, 20, 30]);
        assert_eq!(s.ttl_delta(), 2);
    }

    #[test]
    fn ttl_delta_tie_prefers_smaller() {
        let s = stream_with(&[60, 58, 54], &[0, 10, 20]); // deltas 2, 4
        assert_eq!(s.ttl_delta(), 2);
    }

    #[test]
    fn escape_possibility() {
        // Last TTL 54, delta 2: could still cross the loop -> may escape.
        assert!(stream_with(&[60, 58, 56, 54], &[0, 1, 2, 3]).may_have_escaped());
        // Last TTL 2, delta 2: dies on the next traversal.
        assert!(!stream_with(&[6, 4, 2], &[0, 1, 2]).may_have_escaped());
    }

    #[test]
    fn slash24_aggregation() {
        let s = stream_with(&[10, 8], &[0, 1]);
        assert_eq!(s.dst_slash24(), "203.0.113.0/24".parse().unwrap());
    }

    #[test]
    fn singleton_degenerates_gracefully() {
        let s = stream_with(&[60], &[5]);
        assert_eq!(s.ttl_delta(), 0);
        assert_eq!(s.mean_spacing_ns(), 0);
        assert_eq!(s.duration_ns(), 0);
    }
}

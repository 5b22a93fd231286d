//! Detector configuration.

/// Tunables of the three-step detection algorithm. Defaults reproduce the
/// paper; the extra switches exist for the ablation experiments (A1, A2 in
/// DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Minimum TTL decrease between successive replicas (§IV-A.1: "their
    /// TTL values differ by at least two").
    pub min_ttl_delta: u8,
    /// Minimum replicas per stream (§IV-A.2 rejects 2-element sets as
    /// link-layer duplication).
    pub min_stream_len: usize,
    /// Maximum silence between successive replicas of one stream before
    /// the candidate is closed. Loop round-trips are milliseconds; one
    /// second of silence means the packet is gone.
    pub max_replica_gap_ns: u64,
    /// Step-3 merge gap (1 minute in the paper; 2 and 5 minutes are the A1
    /// ablation).
    pub merge_gap_ns: u64,
    /// Enforce the prefix co-loop validation (§IV-A.2 second rule). Off is
    /// the A2 ablation.
    pub covalidate_prefix: bool,
    /// Verify that each replica's IP header checksum is arithmetically
    /// consistent (RFC 1624) with its TTL relative to the previous replica.
    /// Real looped packets always are (routers patch incrementally);
    /// header-corrupted coincidences are not. Requires traces with valid
    /// checksums; disable for captures that zero them.
    pub verify_checksum_consistency: bool,
    /// Slack applied to the co-loop validation window on each side,
    /// expressed as a multiple of the stream's mean inter-replica spacing.
    /// A packet that entered the loop just before it healed crosses the
    /// monitor once and would otherwise (wrongly) veto the stream that
    /// proves the loop. One loop round-trip of slack absorbs exactly that
    /// boundary case.
    pub covalidate_slack_spacings: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            min_ttl_delta: 2,
            min_stream_len: 3,
            max_replica_gap_ns: 1_000_000_000,
            merge_gap_ns: 60_000_000_000,
            covalidate_prefix: true,
            verify_checksum_consistency: true,
            covalidate_slack_spacings: 1.0,
        }
    }
}

impl DetectorConfig {
    /// Paper defaults.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A2 ablation: raw replica sets, no validation.
    pub fn no_validation() -> Self {
        Self {
            min_stream_len: 2,
            covalidate_prefix: false,
            ..Self::default()
        }
    }

    /// A1 ablation: alternative merge gap in minutes.
    pub fn with_merge_gap_minutes(mut self, minutes: u64) -> Self {
        self.merge_gap_ns = minutes * 60 * 1_000_000_000;
        self
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_ttl_delta == 0 {
            return Err("min_ttl_delta must be >= 1".into());
        }
        if self.min_stream_len < 2 {
            return Err("min_stream_len must be >= 2 (a stream needs a replica)".into());
        }
        if self.max_replica_gap_ns == 0 || self.merge_gap_ns == 0 {
            return Err("gaps must be positive".into());
        }
        if self.covalidate_slack_spacings < 0.0 {
            return Err("slack must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_faithful() {
        let c = DetectorConfig::default();
        c.validate().unwrap();
        assert_eq!(c.min_ttl_delta, 2);
        assert_eq!(c.min_stream_len, 3);
        assert_eq!(c.merge_gap_ns, 60_000_000_000);
        assert!(c.covalidate_prefix);
    }

    #[test]
    fn ablation_configs() {
        let a2 = DetectorConfig::no_validation();
        a2.validate().unwrap();
        assert!(!a2.covalidate_prefix);
        assert_eq!(a2.min_stream_len, 2);
        let a1 = DetectorConfig::default().with_merge_gap_minutes(5);
        assert_eq!(a1.merge_gap_ns, 300_000_000_000);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = DetectorConfig::default();
        c.min_ttl_delta = 0;
        assert!(c.validate().is_err());
        let mut c = DetectorConfig::default();
        c.min_stream_len = 1;
        assert!(c.validate().is_err());
        let mut c = DetectorConfig::default();
        c.merge_gap_ns = 0;
        assert!(c.validate().is_err());
        let mut c = DetectorConfig::default();
        c.covalidate_slack_spacings = -1.0;
        assert!(c.validate().is_err());
    }
}

//! The replica key: every header field that must match *exactly* between
//! replicas of one looped packet.
//!
//! §IV-A.1: "two packets … are considered to be replicas of a single looped
//! packet if their headers are identical **except for the TTL and IP header
//! checksum fields**; their TTL values differ by at least two; and their
//! payloads are identical", with equal TCP/UDP checksums standing in for
//! payload identity on 40-byte captures. The key therefore covers all IP
//! fields *except* TTL and header checksum, plus the full transport
//! summary (which includes the transport checksum).

use crate::record::{TraceRecord, TransportSummary};
use std::net::Ipv4Addr;

/// One round of the Fx multiply-rotate mixer (see [`crate::fxhash`]).
#[inline]
fn fp_mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(crate::fxhash::SEED)
}

/// Hashable identity of a (potentially looping) packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaKey {
    /// IP source.
    pub src: Ipv4Addr,
    /// IP destination.
    pub dst: Ipv4Addr,
    /// IP protocol.
    pub protocol: u8,
    /// IP identification — the field that separates distinct packets of
    /// one flow.
    pub ident: u16,
    /// IP total length.
    pub total_len: u16,
    /// Type of service.
    pub tos: u8,
    /// Flags/fragment word.
    pub frag_word: u16,
    /// Transport summary (ports, seq/ack, flags, transport checksum, …).
    pub transport: TransportSummary,
}

impl ReplicaKey {
    /// Extracts the key from a record.
    pub fn of(rec: &TraceRecord) -> Self {
        Self {
            src: rec.src,
            dst: rec.dst,
            protocol: rec.protocol,
            ident: rec.ident,
            total_len: rec.total_len,
            tos: rec.tos,
            frag_word: rec.frag_word,
            transport: rec.transport,
        }
    }

    /// The 64-bit level-0 fingerprint of this key: the identity probed by
    /// the two-level candidate index ([`crate::CandidateScanner`]) before
    /// any full-key hashing happens.
    ///
    /// It is a *pure function of exactly the key fields* — nothing more
    /// (TTL, IP checksum, and timestamp never feed it, so replicas of one
    /// looped packet always share a fingerprint) and nothing less (two
    /// keys that differ somewhere *usually* get different fingerprints).
    /// Collisions are possible and harmless: the scanner resolves them
    /// with a full key compare, so they can cost a probe but never change
    /// results. Computed once at ingest and carried on
    /// [`TraceRecord::fingerprint`] through every engine.
    ///
    /// The mixer is the same multiply-rotate Fx scheme as
    /// [`crate::fxhash`], folded over hand-packed words so the whole key
    /// costs five multiplies.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fp_mix(
            0,
            (u64::from(u32::from(self.src)) << 32) | u64::from(u32::from(self.dst)),
        );
        h = fp_mix(
            h,
            u64::from(self.protocol)
                | (u64::from(self.ident) << 8)
                | (u64::from(self.total_len) << 24)
                | (u64::from(self.tos) << 40)
                | (u64::from(self.frag_word) << 48),
        );
        // A variant tag leads each transport word so e.g. a UDP and an
        // "Other" summary with coinciding bytes cannot alias.
        match self.transport {
            TransportSummary::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                checksum,
                urgent,
            } => {
                h = fp_mix(
                    h,
                    1u64 | (u64::from(src_port) << 8)
                        | (u64::from(dst_port) << 24)
                        | (u64::from(flags) << 40)
                        | (u64::from(window) << 48),
                );
                h = fp_mix(h, (u64::from(seq) << 32) | u64::from(ack));
                fp_mix(h, u64::from(checksum) | (u64::from(urgent) << 16))
            }
            TransportSummary::Udp {
                src_port,
                dst_port,
                length,
                checksum,
            } => {
                h = fp_mix(
                    h,
                    2u64 | (u64::from(src_port) << 8)
                        | (u64::from(dst_port) << 24)
                        | (u64::from(length) << 40),
                );
                fp_mix(h, u64::from(checksum))
            }
            TransportSummary::Icmp {
                icmp_type,
                code,
                checksum,
                rest,
            } => {
                h = fp_mix(
                    h,
                    3u64 | (u64::from(icmp_type) << 8)
                        | (u64::from(code) << 16)
                        | (u64::from(checksum) << 24),
                );
                fp_mix(h, u64::from(u32::from_le_bytes(rest)))
            }
            TransportSummary::Other { lead, len } => {
                h = fp_mix(h, 4u64 | (u64::from(len) << 8));
                fp_mix(h, u64::from_le_bytes(lead))
            }
        }
    }

    /// A reduced key that drops the transport checksum — used by the
    /// `ablation_key` bench to show why the payload proxy matters (without
    /// it, distinct retransmissions collapse into phantom replicas).
    pub fn without_transport_checksum(rec: &TraceRecord) -> Self {
        let mut key = Self::of(rec);
        key.transport = match key.transport {
            TransportSummary::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                urgent,
                ..
            } => TransportSummary::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                checksum: 0,
                urgent,
            },
            TransportSummary::Udp {
                src_port,
                dst_port,
                length,
                ..
            } => TransportSummary::Udp {
                src_port,
                dst_port,
                length,
                checksum: 0,
            },
            TransportSummary::Icmp {
                icmp_type,
                code,
                rest,
                ..
            } => TransportSummary::Icmp {
                icmp_type,
                code,
                checksum: 0,
                rest,
            },
            other @ TransportSummary::Other { .. } => other,
        };
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{Packet, TcpFlags};

    fn base_packet() -> Packet {
        Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            4444,
            80,
            TcpFlags::ACK,
            &b"payload"[..],
        )
    }

    #[test]
    fn replicas_share_a_key() {
        // Simulate a router hop: decrement TTL, patch checksum.
        let p = base_packet();
        let r1 = TraceRecord::from_packet(0, &p);
        let mut hop = p.clone();
        hop.ip.decrement_ttl();
        hop.ip.decrement_ttl();
        let r2 = TraceRecord::from_packet(10, &hop);
        assert_ne!(r1.ttl, r2.ttl);
        assert_ne!(r1.ip_checksum, r2.ip_checksum);
        assert_eq!(ReplicaKey::of(&r1), ReplicaKey::of(&r2));
        // The level-0 fingerprint must respect the same equivalence: TTL
        // and IP-checksum rewrites never perturb it.
        assert_eq!(r1.fingerprint, r2.fingerprint);
        assert_eq!(r1.fingerprint, ReplicaKey::of(&r1).fingerprint());
    }

    #[test]
    fn fingerprint_separates_distinct_keys() {
        // Not a statistical test — just the keys this suite already knows
        // are distinct must not collide at 64 bits.
        let p1 = base_packet();
        let mut p2 = base_packet();
        p2.ip.ident = p1.ip.ident.wrapping_add(1);
        p2.fill_checksums();
        let f1 = ReplicaKey::of(&TraceRecord::from_packet(0, &p1)).fingerprint();
        let f2 = ReplicaKey::of(&TraceRecord::from_packet(0, &p2)).fingerprint();
        assert_ne!(f1, f2);
    }

    #[test]
    fn different_ident_different_key() {
        let p1 = base_packet();
        let mut p2 = base_packet();
        p2.ip.ident = p1.ip.ident.wrapping_add(1);
        p2.fill_checksums();
        let k1 = ReplicaKey::of(&TraceRecord::from_packet(0, &p1));
        let k2 = ReplicaKey::of(&TraceRecord::from_packet(0, &p2));
        assert_ne!(k1, k2);
    }

    #[test]
    fn different_payload_different_key_via_checksum() {
        // Same flow, same ident, different payload: the transport checksum
        // is the only witness under 40-byte truncation — and it must
        // differentiate the keys.
        let p1 = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            4444,
            80,
            TcpFlags::ACK,
            &b"payload-a"[..],
        );
        let p2 = Packet::tcp_flags(
            Ipv4Addr::new(100, 0, 0, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            4444,
            80,
            TcpFlags::ACK,
            &b"payload-b"[..],
        );
        let k1 = ReplicaKey::of(&TraceRecord::from_packet(0, &p1));
        let k2 = ReplicaKey::of(&TraceRecord::from_packet(0, &p2));
        assert_ne!(k1, k2);
        // The ablation key, by contrast, collapses them.
        let a1 = ReplicaKey::without_transport_checksum(&TraceRecord::from_packet(0, &p1));
        let a2 = ReplicaKey::without_transport_checksum(&TraceRecord::from_packet(0, &p2));
        assert_eq!(a1, a2);
    }

    #[test]
    fn different_flags_different_key() {
        let p1 = base_packet();
        let mut p2 = base_packet();
        if let net_types::Transport::Tcp(h) = &mut p2.transport {
            h.flags = TcpFlags::ACK | TcpFlags::PSH;
        }
        p2.fill_checksums();
        let k1 = ReplicaKey::of(&TraceRecord::from_packet(0, &p1));
        let k2 = ReplicaKey::of(&TraceRecord::from_packet(0, &p2));
        assert_ne!(k1, k2);
    }

    #[test]
    fn tos_and_frag_in_key() {
        let p1 = base_packet();
        let mut p2 = base_packet();
        p2.ip.tos = 0x10;
        p2.fill_checksums();
        assert_ne!(
            ReplicaKey::of(&TraceRecord::from_packet(0, &p1)),
            ReplicaKey::of(&TraceRecord::from_packet(0, &p2))
        );
        let mut p3 = base_packet();
        p3.ip.dont_frag = true;
        p3.fill_checksums();
        assert_ne!(
            ReplicaKey::of(&TraceRecord::from_packet(0, &p1)),
            ReplicaKey::of(&TraceRecord::from_packet(0, &p3))
        );
    }
}

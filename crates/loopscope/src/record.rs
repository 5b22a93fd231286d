//! Compact trace records: what a 40-byte-snaplen monitor knows about a
//! packet.

use net_types::{Ipv4Header, Ipv4Prefix, Packet, Transport};
use std::net::Ipv4Addr;

/// Everything the detector can see of the transport layer within the first
/// 40 bytes of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportSummary {
    /// TCP header fields.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgement number.
        ack: u32,
        /// Raw flag byte (low 6 bits).
        flags: u8,
        /// Receive window.
        window: u16,
        /// TCP checksum — the payload-identity proxy.
        checksum: u16,
        /// Urgent pointer.
        urgent: u16,
    },
    /// UDP header fields.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Datagram length.
        length: u16,
        /// UDP checksum — the payload-identity proxy.
        checksum: u16,
    },
    /// ICMP header fields.
    Icmp {
        /// Message type.
        icmp_type: u8,
        /// Message code.
        code: u8,
        /// ICMP checksum — covers the body, so it doubles as the payload
        /// proxy.
        checksum: u16,
        /// Rest-of-header bytes (echo ident/seq).
        rest: [u8; 4],
    },
    /// Anything else: the first 8 bytes after the IP header, zero-padded.
    Other {
        /// Leading post-IP bytes.
        lead: [u8; 8],
        /// How many of `lead` were actually captured.
        len: u8,
    },
}

/// One trace record: timestamp plus the header fields of one captured
/// packet. ~56 bytes, so multi-million-packet traces stay cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Capture timestamp in nanoseconds since the trace epoch.
    pub timestamp_ns: u64,
    /// IP source.
    pub src: Ipv4Addr,
    /// IP destination.
    pub dst: Ipv4Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// IP identification.
    pub ident: u16,
    /// IP total length.
    pub total_len: u16,
    /// Type of service.
    pub tos: u8,
    /// Time to live — the field that *varies* across replicas.
    pub ttl: u8,
    /// Flags/fragment-offset word (DF/MF + 13-bit offset).
    pub frag_word: u16,
    /// IP header checksum — varies with the TTL.
    pub ip_checksum: u16,
    /// Transport summary.
    pub transport: TransportSummary,
    /// Level-0 fingerprint of the replica-key fields
    /// ([`crate::ReplicaKey::fingerprint`]), computed once here at ingest
    /// and carried through every engine so no later stage rehashes the
    /// full key. Zero is a legal (if unlikely) value; the candidate
    /// scanner normalises it away from its empty-slot sentinel.
    pub fingerprint: u64,
}

impl TraceRecord {
    /// Builds a record from a full in-memory packet (simulated taps).
    pub fn from_packet(timestamp_ns: u64, p: &Packet) -> Self {
        let transport = match &p.transport {
            Transport::Tcp(h) => TransportSummary::Tcp {
                src_port: h.src_port,
                dst_port: h.dst_port,
                seq: h.seq,
                ack: h.ack,
                flags: h.flags.0,
                window: h.window,
                checksum: h.checksum,
                urgent: h.urgent,
            },
            Transport::Udp(h) => TransportSummary::Udp {
                src_port: h.src_port,
                dst_port: h.dst_port,
                length: h.length,
                checksum: h.checksum,
            },
            Transport::Icmp(h) => TransportSummary::Icmp {
                icmp_type: h.icmp_type.as_u8(),
                code: h.code,
                checksum: h.checksum,
                rest: h.rest,
            },
            Transport::Opaque(b) => {
                let mut lead = [0u8; 8];
                let n = b.len().min(8);
                lead[..n].copy_from_slice(&b[..n]);
                TransportSummary::Other { lead, len: n as u8 }
            }
        };
        Self {
            timestamp_ns,
            src: p.ip.src,
            dst: p.ip.dst,
            protocol: p.ip.protocol.as_u8(),
            ident: p.ip.ident,
            total_len: p.ip.total_len,
            tos: p.ip.tos,
            ttl: p.ip.ttl,
            frag_word: frag_word(&p.ip),
            ip_checksum: p.ip.checksum,
            transport,
            fingerprint: 0,
        }
        .with_fingerprint()
    }

    /// Parses a record from captured wire bytes (pcap path). The IP header
    /// must be complete; a truncated or missing transport header degrades
    /// to [`TransportSummary::Other`] over whatever bytes exist, rather
    /// than failing — monitors capture what they capture.
    pub fn from_wire_bytes(timestamp_ns: u64, bytes: &[u8]) -> net_types::Result<Self> {
        let (ip, ip_len) = Ipv4Header::parse(bytes)?;
        let body = &bytes[ip_len..];
        let transport = match net_types::IpProtocol::from_u8(ip.protocol.as_u8()) {
            net_types::IpProtocol::Tcp => match net_types::TcpHeader::parse(body) {
                Ok((h, _)) => TransportSummary::Tcp {
                    src_port: h.src_port,
                    dst_port: h.dst_port,
                    seq: h.seq,
                    ack: h.ack,
                    flags: h.flags.0,
                    window: h.window,
                    checksum: h.checksum,
                    urgent: h.urgent,
                },
                Err(_) => other_summary(body),
            },
            net_types::IpProtocol::Udp => match net_types::UdpHeader::parse(body) {
                Ok((h, _)) => TransportSummary::Udp {
                    src_port: h.src_port,
                    dst_port: h.dst_port,
                    length: h.length,
                    checksum: h.checksum,
                },
                Err(_) => other_summary(body),
            },
            net_types::IpProtocol::Icmp => match net_types::IcmpHeader::parse(body) {
                Ok((h, _)) => TransportSummary::Icmp {
                    icmp_type: h.icmp_type.as_u8(),
                    code: h.code,
                    checksum: h.checksum,
                    rest: h.rest,
                },
                Err(_) => other_summary(body),
            },
            _ => other_summary(body),
        };
        Ok(Self {
            timestamp_ns,
            src: ip.src,
            dst: ip.dst,
            protocol: ip.protocol.as_u8(),
            ident: ip.ident,
            total_len: ip.total_len,
            tos: ip.tos,
            ttl: ip.ttl,
            frag_word: frag_word(&ip),
            ip_checksum: ip.checksum,
            transport,
            fingerprint: 0,
        }
        .with_fingerprint())
    }

    /// Stamps [`Self::fingerprint`] from the replica-key fields — the
    /// tail of both constructors, so every record the detector ever sees
    /// carries a fingerprint consistent with its key. Public for code
    /// that materialises records outside the wire constructors (the
    /// columnar corpus, synthetic fixtures).
    pub fn with_fingerprint(mut self) -> Self {
        self.fingerprint = crate::key::ReplicaKey::of(&self).fingerprint();
        self
    }

    /// The destination's /24 — the stream-aggregation unit (§IV-A.2).
    pub fn dst_slash24(&self) -> Ipv4Prefix {
        Ipv4Prefix::slash24_of(self.dst)
    }

    /// The transport checksum used as the payload-identity proxy, when the
    /// transport has one.
    pub fn transport_checksum(&self) -> Option<u16> {
        match self.transport {
            TransportSummary::Tcp { checksum, .. }
            | TransportSummary::Udp { checksum, .. }
            | TransportSummary::Icmp { checksum, .. } => Some(checksum),
            TransportSummary::Other { .. } => None,
        }
    }
}

fn frag_word(ip: &Ipv4Header) -> u16 {
    let mut w = ip.frag_offset & 0x1fff;
    if ip.dont_frag {
        w |= 0x4000;
    }
    if ip.more_frags {
        w |= 0x2000;
    }
    w
}

fn other_summary(body: &[u8]) -> TransportSummary {
    let mut lead = [0u8; 8];
    let n = body.len().min(8);
    lead[..n].copy_from_slice(&body[..n]);
    TransportSummary::Other { lead, len: n as u8 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{IcmpHeader, IpProtocol, TcpFlags, UdpHeader};

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(100, 1, 1, 1), Ipv4Addr::new(203, 0, 113, 44))
    }

    #[test]
    fn from_packet_and_from_wire_agree() {
        let (src, dst) = addrs();
        let packets = vec![
            Packet::tcp_flags(src, dst, 999, 80, TcpFlags::SYN | TcpFlags::ACK, &b"xy"[..]),
            Packet::udp(src, dst, UdpHeader::new(53, 53), &b"q"[..]),
            Packet::icmp(src, dst, IcmpHeader::echo(true, 7, 3), &b"ping"[..]),
            Packet::opaque(src, dst, IpProtocol::Igmp, vec![0x16, 1, 2, 3]),
        ];
        for p in packets {
            let a = TraceRecord::from_packet(555, &p);
            let b = TraceRecord::from_wire_bytes(555, &p.emit()).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snaplen_40_keeps_tcp_summary() {
        let (src, dst) = addrs();
        let p = Packet::tcp_flags(src, dst, 5, 6, TcpFlags::ACK, vec![0u8; 1000]);
        let rec = TraceRecord::from_wire_bytes(1, &p.snap(40)).unwrap();
        match rec.transport {
            TransportSummary::Tcp {
                src_port, checksum, ..
            } => {
                assert_eq!(src_port, 5);
                assert_eq!(Some(checksum), p.transport_checksum());
            }
            _ => panic!("expected TCP summary"),
        }
        assert_eq!(rec.total_len, 1040);
        assert_eq!(rec.transport_checksum(), p.transport_checksum());
    }

    #[test]
    fn truncated_transport_degrades_to_other() {
        let (src, dst) = addrs();
        let p = Packet::tcp_flags(src, dst, 5, 6, TcpFlags::ACK, &b""[..]);
        // 30 bytes: full IP header + 10 bytes of TCP.
        let rec = TraceRecord::from_wire_bytes(1, &p.snap(30)).unwrap();
        match rec.transport {
            TransportSummary::Other { len, .. } => assert_eq!(len, 8),
            _ => panic!("expected Other for truncated TCP"),
        }
    }

    #[test]
    fn truncated_ip_header_errors() {
        let (src, dst) = addrs();
        let p = Packet::udp(src, dst, UdpHeader::new(1, 2), &b""[..]);
        assert!(TraceRecord::from_wire_bytes(1, &p.snap(12)).is_err());
    }

    #[test]
    fn dst_slash24() {
        let (src, dst) = addrs();
        let p = Packet::udp(src, dst, UdpHeader::new(1, 2), &b""[..]);
        let rec = TraceRecord::from_packet(0, &p);
        assert_eq!(rec.dst_slash24(), "203.0.113.0/24".parse().unwrap());
    }

    #[test]
    fn frag_word_encodes_flags() {
        let (src, dst) = addrs();
        let mut p = Packet::udp(src, dst, UdpHeader::new(1, 2), &b""[..]);
        p.ip.dont_frag = true;
        p.ip.frag_offset = 0x123;
        p.fill_checksums();
        let rec = TraceRecord::from_packet(0, &p);
        assert_eq!(rec.frag_word, 0x4000 | 0x123);
    }

    #[test]
    fn opaque_lead_padded() {
        let (src, dst) = addrs();
        let p = Packet::opaque(src, dst, IpProtocol::Other(47), vec![9, 8, 7]);
        let rec = TraceRecord::from_packet(0, &p);
        match rec.transport {
            TransportSummary::Other { lead, len } => {
                assert_eq!(len, 3);
                assert_eq!(&lead[..3], &[9, 8, 7]);
                assert_eq!(&lead[3..], &[0; 5]);
            }
            _ => panic!(),
        }
        assert_eq!(rec.transport_checksum(), None);
    }
}

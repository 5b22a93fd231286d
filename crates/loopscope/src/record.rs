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

    /// Parses a record from captured wire bytes (pcap path), reading the
    /// IPv4 and transport fields straight from the bytes. The IP header
    /// must be complete and consistent, by [`Ipv4Header::parse`]'s rules
    /// (version 4, IHL of at least 5, every header byte captured, a total
    /// length covering the header), and a refused capture gets that
    /// parser's error. A truncated or inconsistent transport header
    /// degrades to [`TransportSummary::Other`] over whatever bytes exist,
    /// rather than failing — monitors capture what they capture.
    // Inlined into the per-record loops of `PcapSource::for_each_record`'s
    // callers, most of them in other crates.
    #[inline]
    pub fn from_wire_bytes(timestamp_ns: u64, bytes: &[u8]) -> net_types::Result<Self> {
        let Some(ip) = bytes.first_chunk::<20>() else {
            return Err(ipv4_error(bytes));
        };
        let ip_len = usize::from(ip[0] & 0x0f) * 4;
        let total_len = be16(ip, 2);
        if ip[0] >> 4 != 4 || ip_len < 20 || bytes.len() < ip_len || usize::from(total_len) < ip_len
        {
            return Err(ipv4_error(bytes));
        }
        let body = &bytes[ip_len..];
        let transport = match ip[9] {
            // TCP: a data offset of at least 5 words, all of them captured.
            6 => match body.first_chunk::<20>() {
                Some(h) if h[12] >> 4 >= 5 && body.len() >= usize::from(h[12] >> 4) * 4 => {
                    TransportSummary::Tcp {
                        src_port: be16(h, 0),
                        dst_port: be16(h, 2),
                        seq: be32(h, 4),
                        ack: be32(h, 8),
                        flags: h[13] & 0x3f,
                        window: be16(h, 14),
                        checksum: be16(h, 16),
                        urgent: be16(h, 18),
                    }
                }
                _ => other_summary(body),
            },
            // UDP: a length covering its own 8-byte header.
            17 => match body.first_chunk::<8>() {
                Some(h) if be16(h, 4) >= 8 => TransportSummary::Udp {
                    src_port: be16(h, 0),
                    dst_port: be16(h, 2),
                    length: be16(h, 4),
                    checksum: be16(h, 6),
                },
                _ => other_summary(body),
            },
            // ICMP: its 8-byte header.
            1 => match body.first_chunk::<8>() {
                Some(h) => TransportSummary::Icmp {
                    icmp_type: h[0],
                    code: h[1],
                    checksum: be16(h, 2),
                    rest: [h[4], h[5], h[6], h[7]],
                },
                None => other_summary(body),
            },
            _ => other_summary(body),
        };
        Ok(Self {
            timestamp_ns,
            src: Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]),
            dst: Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]),
            protocol: ip[9],
            ident: be16(ip, 4),
            total_len,
            tos: ip[1],
            ttl: ip[8],
            // DF, MF and the 13-bit offset; the reserved bit is dropped.
            frag_word: be16(ip, 6) & 0x7fff,
            ip_checksum: be16(ip, 10),
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
    // Inlined with `ReplicaKey::of` and `fingerprint` into the pcap
    // decode, whose transport match then folds into this one: `loopmond`
    // over the benchmark's 640 links ran about 3% faster.
    #[inline]
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

/// The big-endian `u16` at `at`.
#[inline]
fn be16(bytes: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([bytes[at], bytes[at + 1]])
}

/// The big-endian `u32` at `at`.
#[inline]
fn be32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// The error [`Ipv4Header::parse`] gives a capture whose IP header
/// [`TraceRecord::from_wire_bytes`] refused: the same rules refuse it.
#[cold]
fn ipv4_error(bytes: &[u8]) -> net_types::Error {
    Ipv4Header::parse(bytes).expect_err("the IPv4 parser refuses what the direct decode refuses")
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
    use net_types::{IcmpHeader, IpProtocol, TcpFlags, TcpHeader, UdpHeader};
    use proptest::test_runner::TestRng;

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

    /// The decode as `net_types`' general parsers give it, sharing no code
    /// with the direct decode but the fingerprint: the oracle
    /// [`TraceRecord::from_wire_bytes`] must match.
    fn oracle(timestamp_ns: u64, bytes: &[u8]) -> net_types::Result<TraceRecord> {
        let (ip, ip_len) = Ipv4Header::parse(bytes)?;
        let body = &bytes[ip_len..];
        let transport = match ip.protocol {
            IpProtocol::Tcp => TcpHeader::parse(body)
                .ok()
                .map(|(h, _)| TransportSummary::Tcp {
                    src_port: h.src_port,
                    dst_port: h.dst_port,
                    seq: h.seq,
                    ack: h.ack,
                    flags: h.flags.0,
                    window: h.window,
                    checksum: h.checksum,
                    urgent: h.urgent,
                }),
            IpProtocol::Udp => UdpHeader::parse(body)
                .ok()
                .map(|(h, _)| TransportSummary::Udp {
                    src_port: h.src_port,
                    dst_port: h.dst_port,
                    length: h.length,
                    checksum: h.checksum,
                }),
            IpProtocol::Icmp => IcmpHeader::parse(body)
                .ok()
                .map(|(h, _)| TransportSummary::Icmp {
                    icmp_type: h.icmp_type.as_u8(),
                    code: h.code,
                    checksum: h.checksum,
                    rest: h.rest,
                }),
            _ => None,
        };
        let transport = transport.unwrap_or_else(|| {
            let mut lead = [0u8; 8];
            let len = body.len().min(8);
            lead[..len].copy_from_slice(&body[..len]);
            TransportSummary::Other {
                lead,
                len: len as u8,
            }
        });
        let flags = u16::from(ip.dont_frag) << 14 | u16::from(ip.more_frags) << 13;
        Ok(TraceRecord {
            timestamp_ns,
            src: ip.src,
            dst: ip.dst,
            protocol: ip.protocol.as_u8(),
            ident: ip.ident,
            total_len: ip.total_len,
            tos: ip.tos,
            ttl: ip.ttl,
            frag_word: flags | ip.frag_offset,
            ip_checksum: ip.checksum,
            transport,
            fingerprint: 0,
        }
        .with_fingerprint())
    }

    /// `len` random bytes.
    fn random_bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// Byte strings of 0–64 bytes at the edges of each acceptance rule:
    /// every version and IHL against total lengths and capture lengths
    /// around the header length, and then, under a valid IPv4 header,
    /// every TCP data offset, UDP lengths around 8, and transport headers
    /// cut at every length.
    fn edge_cases(rng: &mut TestRng) -> Vec<Vec<u8>> {
        let mut cases = Vec::new();
        for version in [0u8, 4, 5, 6, 15] {
            for ihl in 0..16u8 {
                let header_len = usize::from(ihl) * 4;
                for total_len in [
                    0,
                    header_len.saturating_sub(1),
                    header_len,
                    header_len + 1,
                    65535,
                ] {
                    for len in 0..=64 {
                        let mut b = random_bytes(rng, len);
                        if let Some(first) = b.first_mut() {
                            *first = version << 4 | ihl;
                        }
                        if len >= 4 {
                            b[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
                        }
                        cases.push(b);
                    }
                }
            }
        }
        for ihl in [5u8, 6, 7] {
            let ip_len = usize::from(ihl) * 4;
            for protocol in [1u8, 6, 17, 2, 47] {
                for body_len in 0..=64 - ip_len {
                    for field in 0..16u16 {
                        let mut b = random_bytes(rng, ip_len + body_len);
                        b[0] = 0x40 | ihl;
                        b[2..4].copy_from_slice(&1500u16.to_be_bytes());
                        b[9] = protocol;
                        let body = &mut b[ip_len..];
                        match protocol {
                            6 if body.len() > 12 => body[12] = (field as u8) << 4 | body[12] & 0x0f,
                            17 if body.len() > 5 => {
                                let length = if field < 12 { field } else { 65535 - field };
                                body[4..6].copy_from_slice(&length.to_be_bytes());
                            }
                            _ => {}
                        }
                        cases.push(b);
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn direct_decode_matches_the_net_types_oracle() {
        let mut rng = TestRng::from_seed(0x0dec_0de5);
        let mut cases = edge_cases(&mut rng);
        for len in 0..=64 {
            for _ in 0..200 {
                let mut b = random_bytes(&mut rng, len);
                // Half with an option-less IPv4 first byte, so random
                // strings get past the version and IHL checks.
                if len > 0 && rng.below(2) == 0 {
                    b[0] = 0x45;
                }
                cases.push(b);
            }
        }
        let mut kinds = [0usize; 5];
        for (i, bytes) in cases.iter().enumerate() {
            let got = TraceRecord::from_wire_bytes(i as u64, bytes);
            assert_eq!(got, oracle(i as u64, bytes), "bytes {bytes:02x?}");
            kinds[match got.map(|r| r.transport) {
                Ok(TransportSummary::Tcp { .. }) => 0,
                Ok(TransportSummary::Udp { .. }) => 1,
                Ok(TransportSummary::Icmp { .. }) => 2,
                Ok(TransportSummary::Other { .. }) => 3,
                Err(_) => 4,
            }] += 1;
        }
        // Every outcome is exercised, not only the refusals.
        assert!(kinds.iter().all(|&n| n > 100), "outcomes {kinds:?}");
    }
}

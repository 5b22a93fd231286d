//! Traffic-type classification (Figures 5 and 6).
//!
//! "Note that a single replica can show up in multiple categories, a TCP
//! SYN-ACK being listed in all of the TCP, SYN, and ACK categories for
//! example."
//!
//! Everything the classifier reads — the six TCP flag bits, or UDP, ICMP
//! or anything else, and whether the destination is multicast — fits in
//! one of 134 class codes. The per-record fold is therefore one counter
//! bump in a table of them; the category rules run once per code, when
//! the table is expanded into a [`CategoricalDist`].

use crate::record::{TraceRecord, TransportSummary};
use stats::CategoricalDist;
use std::net::Ipv4Addr;

/// The categories of Figures 5/6, in the paper's x-axis order.
pub const CATEGORIES: [&str; 11] = [
    "TCP", "ACK", "PSH", "RST", "URG", "SYN", "FIN", "UDP", "MCAST", "ICMP", "OTHER",
];

// Indices into `CATEGORIES`.
const C_TCP: u16 = 1 << 0;
const C_UDP: u16 = 1 << 7;
const C_MCAST: u16 = 1 << 8;
const C_ICMP: u16 = 1 << 9;
const C_OTHER: u16 = 1 << 10;

/// Each TCP flag bit with the category it counts towards.
const TCP_FLAGS: [(u8, u16); 6] = [
    (0x10, 1 << 1), // ACK
    (0x08, 1 << 2), // PSH
    (0x04, 1 << 3), // RST
    (0x20, 1 << 4), // URG
    (0x02, 1 << 5), // SYN
    (0x01, 1 << 6), // FIN
];

/// Transport kinds per destination kind: the 64 patterns of the six TCP
/// flag bits, then UDP, ICMP and anything else.
const KINDS: u8 = 64 + 3;
const KIND_UDP: u8 = 64;
const KIND_ICMP: u8 = 65;
const KIND_OTHER: u8 = 66;

/// Number of distinct class codes: every transport kind, to a unicast or
/// a multicast destination.
const CLASS_CODES: usize = 2 * KINDS as usize;

/// A set of [`CATEGORIES`]: bit `i` stands for `CATEGORIES[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classes(u16);

impl Classes {
    /// The categories every record of class `code` hits — the category
    /// rules of Figures 5/6, and their only statement.
    ///
    /// # Panics
    /// Panics when `code` is not below [`CLASS_CODES`].
    fn of_code(code: u8) -> Classes {
        assert!(usize::from(code) < CLASS_CODES, "class code {code}");
        let (kind, mcast) = (code % KINDS, code >= KINDS);
        let mut bits = match kind {
            KIND_UDP => C_UDP,
            KIND_ICMP => C_ICMP,
            // Multicast that is neither TCP, UDP nor ICMP (IGMP, say)
            // counts as MCAST only.
            KIND_OTHER if mcast => 0,
            KIND_OTHER => C_OTHER,
            flags => TCP_FLAGS
                .iter()
                .filter(|&&(flag, _)| flags & flag != 0)
                .fold(C_TCP, |bits, &(_, class)| bits | class),
        };
        if mcast {
            bits |= C_MCAST;
        }
        Classes(bits)
    }

    /// The set as a bitmask over schema indices, the form
    /// [`CategoricalDist::record_set`] takes.
    fn bits(self) -> u64 {
        u64::from(self.0)
    }

    /// The labels in the set, in [`CATEGORIES`] order.
    pub fn labels(self) -> impl Iterator<Item = &'static str> {
        CATEGORIES
            .iter()
            .enumerate()
            .filter(move |&(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, l)| *l)
    }
}

/// The class code of a destination and transport summary: the low six
/// TCP flag bits (the two high bits of the flag byte are ignored), or
/// UDP, ICMP or other, offset by the number of those kinds when the
/// destination is multicast (224.0.0.0/4).
#[inline]
fn class_code(dst: Ipv4Addr, transport: &TransportSummary) -> u8 {
    let kind = match *transport {
        TransportSummary::Tcp { flags, .. } => flags & 0x3f,
        TransportSummary::Udp { .. } => KIND_UDP,
        TransportSummary::Icmp { .. } => KIND_ICMP,
        TransportSummary::Other { .. } => KIND_OTHER,
    };
    let mcast = dst.octets()[0] & 0xf0 == 224;
    kind + KINDS * u8::from(mcast)
}

/// The categories a single record hits.
pub fn classify(rec: &TraceRecord) -> Classes {
    Classes::of_code(class_code(rec.dst, &rec.transport))
}

/// Items counted by class code: the allocation-free fold behind Figures
/// 5 and 6. [`ClassCounts::dist`] expands it into the categorical
/// distribution.
#[derive(Debug, Clone)]
pub(crate) struct ClassCounts([u64; CLASS_CODES]);

impl ClassCounts {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self([0; CLASS_CODES])
    }

    /// Counts `n` items of one destination and transport summary — the
    /// fields a [`crate::ReplicaKey`] carries, shared by every replica of
    /// a stream, which is what lets the looped-traffic mix (Figure 6) be
    /// counted from validated streams without their records.
    #[inline]
    pub(crate) fn add(&mut self, dst: Ipv4Addr, transport: &TransportSummary, n: u64) {
        self.0[usize::from(class_code(dst, transport))] += n;
    }

    /// Counts one record.
    #[inline]
    pub(crate) fn add_record(&mut self, rec: &TraceRecord) {
        self.add(rec.dst, &rec.transport, 1);
    }

    /// The distribution over [`CATEGORIES`] of everything counted.
    pub(crate) fn dist(&self) -> CategoricalDist {
        let mut dist = CategoricalDist::new(&CATEGORIES);
        for (code, &n) in (0..).zip(&self.0) {
            if n > 0 {
                dist.record_set(Classes::of_code(code).bits(), n);
            }
        }
        dist
    }
}

/// Classifies every record the iterator yields.
pub fn distribution<'a>(records: impl Iterator<Item = &'a TraceRecord>) -> CategoricalDist {
    let mut counts = ClassCounts::new();
    for rec in records {
        counts.add_record(rec);
    }
    counts.dist()
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{IcmpHeader, IpProtocol, Packet, TcpFlags, UdpHeader};
    use std::net::Ipv4Addr;

    fn rec_of(p: &Packet) -> TraceRecord {
        TraceRecord::from_packet(0, p)
    }

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(100, 0, 0, 1), Ipv4Addr::new(203, 0, 113, 1))
    }

    #[test]
    fn synack_hits_three_categories() {
        let (s, d) = addrs();
        let p = Packet::tcp_flags(s, d, 1, 2, TcpFlags::SYN | TcpFlags::ACK, &b""[..]);
        let hits = classify(&rec_of(&p)).labels().collect::<Vec<_>>();
        assert_eq!(hits, vec!["TCP", "ACK", "SYN"]);
    }

    #[test]
    fn all_tcp_flags_classified() {
        let (s, d) = addrs();
        let p = Packet::tcp_flags(
            s,
            d,
            1,
            2,
            TcpFlags::ACK | TcpFlags::PSH | TcpFlags::RST | TcpFlags::URG | TcpFlags::FIN,
            &b""[..],
        );
        let hits = classify(&rec_of(&p)).labels().collect::<Vec<_>>();
        assert_eq!(hits, vec!["TCP", "ACK", "PSH", "RST", "URG", "FIN"]);
    }

    #[test]
    fn udp_icmp_other() {
        let (s, d) = addrs();
        let labels = |rec: TraceRecord| classify(&rec).labels().collect::<Vec<_>>();
        assert_eq!(
            labels(rec_of(&Packet::udp(s, d, UdpHeader::new(1, 2), &b""[..]))),
            vec!["UDP"]
        );
        assert_eq!(
            labels(rec_of(&Packet::icmp(
                s,
                d,
                IcmpHeader::echo(true, 1, 1),
                &b""[..]
            ))),
            vec!["ICMP"]
        );
        assert_eq!(
            labels(rec_of(&Packet::opaque(
                s,
                d,
                IpProtocol::Other(47),
                vec![0; 4]
            ))),
            vec!["OTHER"]
        );
    }

    #[test]
    fn multicast_destination_is_mcast() {
        let (s, _) = addrs();
        let mc = Ipv4Addr::new(224, 0, 1, 1);
        // IGMP to a multicast group: MCAST only, not OTHER.
        let p = Packet::opaque(s, mc, IpProtocol::Igmp, vec![0x16, 0, 0, 0]);
        assert_eq!(
            classify(&rec_of(&p)).labels().collect::<Vec<_>>(),
            vec!["MCAST"]
        );
        // UDP to a multicast group hits both UDP and MCAST.
        let p = Packet::udp(s, mc, UdpHeader::new(1, 2), &b""[..]);
        assert_eq!(
            classify(&rec_of(&p)).labels().collect::<Vec<_>>(),
            vec!["UDP", "MCAST"]
        );
        // 239.x is still multicast; 240.x is not.
        let p = Packet::udp(
            s,
            Ipv4Addr::new(239, 1, 1, 1),
            UdpHeader::new(1, 2),
            &b""[..],
        );
        assert!(classify(&rec_of(&p)).labels().any(|l| l == "MCAST"));
        let p = Packet::udp(
            s,
            Ipv4Addr::new(240, 1, 1, 1),
            UdpHeader::new(1, 2),
            &b""[..],
        );
        assert!(!classify(&rec_of(&p)).labels().any(|l| l == "MCAST"));
    }

    #[test]
    fn distribution_counts_items_once() {
        let (s, d) = addrs();
        let records = [
            rec_of(&Packet::tcp_flags(
                s,
                d,
                1,
                2,
                TcpFlags::SYN | TcpFlags::ACK,
                &b""[..],
            )),
            rec_of(&Packet::udp(s, d, UdpHeader::new(1, 2), &b""[..])),
        ];
        let dist = distribution(records.iter());
        assert_eq!(dist.items(), 2);
        assert_eq!(dist.count("TCP"), 1);
        assert_eq!(dist.count("SYN"), 1);
        assert_eq!(dist.count("ACK"), 1);
        assert_eq!(dist.count("UDP"), 1);
        assert_eq!(dist.count("FIN"), 0);
    }
}

//! Property test: the in-place record path
//! ([`pcaplib::PcapReader::next_record`], each record borrowed from the
//! reader's block) yields byte-for-byte the same captures — and hence the
//! same detector [`TraceRecord`]s — as the owned-`Vec` path
//! ([`pcaplib::PcapReader::next_packet`]), across random snap lengths and
//! TCP/UDP/ICMP/opaque packets.

use loopscope::TraceRecord;
use net_types::{IcmpHeader, IpProtocol, Packet, TcpFlags, UdpHeader};
use pcaplib::{FileHeader, PcapReader, PcapWriter};
use proptest::prelude::*;
use std::io::Cursor;
use std::net::Ipv4Addr;

/// One randomly-parameterised packet: (protocol selector, ident, TTL,
/// port/ident material, payload length).
type PacketSpec = (u8, u16, u8, u16, usize);

fn build_packet(spec: PacketSpec) -> Packet {
    let (proto, ident, ttl, ports, payload_len) = spec;
    let src = Ipv4Addr::new(100, 64, (ident >> 8) as u8, ident as u8);
    let dst = Ipv4Addr::new(203, 0, 113, (ports % 250) as u8 + 1);
    let payload = vec![(ident % 251) as u8; payload_len];
    let mut p = match proto % 4 {
        0 => Packet::tcp_flags(src, dst, ports, 80, TcpFlags::ACK, payload),
        1 => Packet::udp(src, dst, UdpHeader::new(ports, 53), payload),
        2 => Packet::icmp(src, dst, IcmpHeader::echo(true, ident, ports), payload),
        _ => Packet::opaque(src, dst, IpProtocol::Other(103), payload),
    };
    p.ip.ident = ident;
    p.ip.ttl = ttl.max(1);
    p.fill_checksums();
    p
}

proptest! {
    #[test]
    fn inline_and_vec_paths_agree(
        specs in proptest::collection::vec(
            (any::<u8>(),
             any::<u16>(),
             any::<u8>(),
             any::<u16>(),
             0usize..120),
            1..40,
        ),
        snaplen in 20u32..160,
    ) {
        // Write every packet at a distinct, increasing timestamp.
        let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(snaplen)).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            w.write_bytes(i as u64 * 1_000_000, &build_packet(*spec).emit()).unwrap();
        }
        let file = w.finish().unwrap();

        // Owned path: one Vec per record.
        let mut owned_reader = PcapReader::new(Cursor::new(&file[..])).unwrap();
        let owned = owned_reader.read_all().unwrap();
        prop_assert_eq!(owned.len(), specs.len());

        // In-place path: each record borrowed from the block.
        let mut in_place = PcapReader::new(Cursor::new(&file[..])).unwrap();
        for cap in &owned {
            let rec = in_place.next_record().unwrap().expect("both paths hold the record");
            prop_assert_eq!(rec.timestamp_ns, cap.timestamp_ns);
            prop_assert_eq!(rec.orig_len, cap.orig_len);
            prop_assert_eq!(rec.data, cap.data.as_slice());
            prop_assert_eq!(rec.is_truncated(), cap.is_truncated());

            // Detector view: both paths parse to the identical TraceRecord
            // (or fail identically on captures too short to parse).
            let via_vec = TraceRecord::from_wire_bytes(cap.timestamp_ns, &cap.data);
            let via_block = TraceRecord::from_wire_bytes(rec.timestamp_ns, rec.data);
            match (via_vec, via_block) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "paths diverged: {:?} vs {:?}", a, b),
            }
        }
        prop_assert!(in_place.next_record().unwrap().is_none(), "both paths end together");
    }
}

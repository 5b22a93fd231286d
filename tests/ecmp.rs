//! Equal-cost multipath end-to-end: load sharing in steady state, transient
//! loops during reconvergence — the "can forwarding loops appear when
//! activating multipath load sharing?" question, answered with packets.

#[path = "../crates/loopscope/tests/oracle/mod.rs"]
mod oracle;

use routing_loops::loopscope::{BlockParallelDetector, Detector, DetectorConfig, TraceRecord};
use routing_loops::net_types::{Ipv4Prefix, Packet, TcpFlags};
use routing_loops::routing::scenario::{compile, NetEvent, Scenario};
use routing_loops::routing::IgpConfig;
use routing_loops::simnet::{
    Engine, NodeId, SimConfig, SimDuration, SimTime, Topology, TopologyBuilder,
};
use std::net::Ipv4Addr;

/// Diamond with a source: src -> a -> {b, c} -> d (owns the prefix), and a
/// long backup a -> e -> d so failures reroute rather than partition.
fn diamond() -> (
    Topology,
    Vec<NodeId>,
    Vec<routing_loops::simnet::LinkId>,
    Vec<u64>,
) {
    let mut bld = TopologyBuilder::new();
    let src = bld.node("src", Ipv4Addr::new(10, 90, 0, 1));
    let a = bld.node("a", Ipv4Addr::new(10, 90, 0, 2));
    let b = bld.node("b", Ipv4Addr::new(10, 90, 0, 3));
    let c = bld.node("c", Ipv4Addr::new(10, 90, 0, 4));
    let d = bld.node("d", Ipv4Addr::new(10, 90, 0, 5));
    bld.attach_prefix(src, "100.64.0.0/12".parse().unwrap());
    bld.attach_prefix(d, "203.0.113.0/24".parse().unwrap());
    let mut links = Vec::new();
    let mut costs = Vec::new();
    for (x, y, cost) in [
        (src, a, 1u64),
        (a, b, 1),
        (a, c, 1),
        (b, d, 1),
        (c, d, 1),
        // Backup path through b<->c so that losing one diamond arm still
        // leaves connectivity and creates reconvergence pressure.
        (b, c, 2),
    ] {
        let (f, r) = bld.duplex(x, y, 622_000_000, SimDuration::from_millis(1));
        links.push(f);
        links.push(r);
        costs.push(cost);
        costs.push(cost);
    }
    (bld.build(), vec![src, a, b, c, d], links, costs)
}

#[test]
fn ecmp_steady_state_shares_load_and_stays_loop_free() {
    let (topo, nodes, _links, costs) = diamond();
    let mut scenario = Scenario::new(SimTime::from_secs(20));
    scenario.costs = Some(costs);
    scenario.igp = IgpConfig {
        ecmp_max_paths: 4,
        ..IgpConfig::default()
    };
    let compiled = compile(&topo, &scenario);
    assert!(
        compiled.windows.is_empty(),
        "steady state must be loop-free"
    );

    let mut engine = Engine::new(topo, SimConfig::default());
    compiled.apply(&mut engine);
    // Taps on both diamond arms (a->b is link index 2, a->c is 4).
    engine.add_tap(routing_loops::simnet::LinkId(2));
    engine.add_tap(routing_loops::simnet::LinkId(4));
    for f in 0..300u16 {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 64, 0, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            20_000 + f,
            80,
            TcpFlags::ACK,
            vec![0u8; 100],
        );
        p.ip.ident = f;
        p.fill_checksums();
        engine.schedule_inject(SimTime(u64::from(f) * 1_000_000), nodes[0], p);
    }
    let report = engine.run();
    assert_eq!(report.delivered, 300);
    assert!(report.loop_events.is_empty());
    let via_b = engine.taps()[0].records.len();
    let via_c = engine.taps()[1].records.len();
    assert_eq!(via_b + via_c, 300);
    assert!(
        via_b > 75 && via_c > 75,
        "ECMP must share load: {via_b}/{via_c}"
    );
}

#[test]
fn ecmp_reconvergence_loops_are_detected() {
    let (topo, nodes, links, costs) = diamond();
    let prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    // Find a seed whose post-failure stagger opens a window; with ECMP the
    // windows are "potential loops" and most seeds produce one.
    let mut chosen = None;
    for seed in 0..60 {
        let mut scenario = Scenario::new(SimTime::from_secs(30));
        scenario.costs = Some(costs.clone());
        scenario.seed = seed;
        scenario.igp = IgpConfig {
            ecmp_max_paths: 4,
            fib_node_jitter_max: SimDuration::from_millis(1_500),
            ..IgpConfig::default()
        };
        // Fail b->d: the b arm must fall back through c (or a), shrinking
        // the ECMP set and opening a transient window.
        scenario.events.push(NetEvent::LinkFail {
            time: SimTime::from_secs(5),
            link: links[6], // b -> d forward link
        });
        let compiled = compile(&topo, &scenario);
        if compiled
            .windows
            .iter()
            .any(|w| w.duration_until(compiled.horizon) > SimDuration::from_millis(200))
        {
            chosen = Some(compiled);
            break;
        }
    }
    let compiled = chosen.expect("some seed opens an ECMP transient window");

    let mut engine = Engine::new(
        topo,
        SimConfig {
            generate_time_exceeded: false,
            ..SimConfig::default()
        },
    );
    compiled.apply(&mut engine);
    let tap_ab = engine.add_tap(links[2]); // a -> b
    let tap_ac = engine.add_tap(links[4]); // a -> c
    let mut t = SimTime::ZERO;
    let mut ident = 0u16;
    while t < SimTime::from_secs(10) {
        // Many flows so some hash onto the looping arm.
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(100, 64, 0, 1),
            Ipv4Addr::new(203, 0, 113, 9),
            30_000 + (ident % 512),
            80,
            TcpFlags::ACK,
            vec![0u8; 100],
        );
        p.ip.ident = ident;
        p.ip.ttl = 60;
        p.fill_checksums();
        engine.schedule_inject(t, nodes[0], p);
        ident = ident.wrapping_add(1);
        t += SimDuration::from_millis(2);
    }
    let report = engine.run();
    assert!(report.is_conserved());
    assert!(
        !report.loop_events.is_empty(),
        "packets must loop during ECMP reconvergence"
    );
    // Detect per monitored link, as the paper's deployment does. Merging
    // parallel ECMP arms into one trace would break the §IV-A.2 co-loop
    // rule: under multipath only the flows hashed onto the looping arm
    // loop, so "all packets to the prefix" holds per-link, not per-bundle.
    let mut found_streams = 0usize;
    for tap in [tap_ab, tap_ac] {
        let records: Vec<TraceRecord> = engine.taps()[tap]
            .records
            .iter()
            .map(|r| TraceRecord::from_packet(r.time.as_nanos(), &r.packet))
            .collect();
        let detection = Detector::new(DetectorConfig::default()).run(&records);
        assert!(detection.streams.iter().all(|s| s.dst_slash24() == prefix));
        // The block detector must agree with the serial one on this
        // reconvergence fixture, at every worker count the CI gate exercises.
        for threads in [2, 4, 8] {
            let block =
                BlockParallelDetector::new(DetectorConfig::default(), threads).run(&records);
            assert_eq!(
                detection.streams, block.streams,
                "streams diverge at {threads} threads"
            );
            assert_eq!(
                detection.loops, block.loops,
                "loops diverge at {threads} threads"
            );
            assert_eq!(
                detection.looped_flags, block.looped_flags,
                "looped flags diverge at {threads} threads"
            );
        }
        // And the detection matches the independent oracle on the
        // reconvergence fixture as well.
        let want = oracle::detect(&records, &DetectorConfig::default()).unwrap();
        assert_eq!(
            detection.streams, want.streams,
            "streams diverge from the oracle"
        );
        assert_eq!(detection.loops, want.loops, "loops diverge from the oracle");
        assert_eq!(detection.stats, want.stats, "stats diverge from the oracle");
        assert_eq!(
            detection.looped_flags, want.looped_flags,
            "looped flags diverge from the oracle"
        );
        found_streams += detection.streams.len();
    }
    assert!(
        found_streams > 0,
        "some monitored arm must show replica streams under ECMP"
    );
}

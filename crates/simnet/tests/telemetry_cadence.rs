//! The engine accumulates `simnet.tap_emits` and `simnet.queue_depth`
//! locally and publishes them in batches, at each new queue-depth peak and
//! at the end of [`Engine::run`]; after a run the shared metrics, and one
//! engine's queue-depth high-water, must still be exact. This file holds
//! exactly one test, so no sibling test thread moves them meanwhile.

use net_types::{Ipv4Prefix, Packet, TcpFlags};
use simnet::{Engine, FaultConfig, Route, SimConfig, SimDuration, SimTime, TopologyBuilder};
use std::net::Ipv4Addr;

fn metrics() -> (u64, u64, i64) {
    let reg = telemetry::global();
    (
        reg.counter("simnet.events_processed").get(),
        reg.counter("simnet.tap_emits").get(),
        reg.gauge("simnet.queue_depth").get(),
    )
}

#[test]
fn batched_simulator_metrics_are_exact_after_a_run() {
    // Two routers pointing at each other: every packet loops until its
    // TTL runs out, crossing the tapped link about 30 times, so the run
    // spans many publication batches.
    let mut b = TopologyBuilder::new();
    let a = b.node("a", Ipv4Addr::new(10, 0, 0, 1));
    let z = b.node("z", Ipv4Addr::new(10, 0, 0, 2));
    let faults = FaultConfig {
        duplicate_prob: 0.01,
        duplicate_ttl_skew: 2,
        drop_prob: 0.0,
    };
    let az = b.link_with(a, z, 100_000_000, SimDuration::from_micros(300), 64, faults);
    let za = b.link_with(z, a, 100_000_000, SimDuration::from_micros(300), 64, faults);
    let mut engine = Engine::new(
        b.build(),
        SimConfig {
            seed: 7,
            generate_time_exceeded: false,
            icmp_min_interval: SimDuration::from_micros(100),
            record_deliveries: false,
            max_events: 5_000_000,
        },
    );
    let prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    engine.install_route(a, prefix, Route::Link(az));
    engine.install_route(z, prefix, Route::Link(za));
    engine.add_tap(az);
    const BURST: u16 = 48;
    for i in 0..BURST + 400 {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(198, 51, 100, 7),
            Ipv4Addr::new(203, 0, 113, 9),
            4000,
            80,
            TcpFlags::ACK,
            vec![0u8; 40],
        );
        p.ip.ident = i;
        p.ip.ttl = 64;
        p.fill_checksums();
        // One burst at the start, queued at once; then one packet every
        // 2 ms, a light load that keeps the queues short. The run's
        // peak is the burst, long before the first batched publication.
        let at = 2 * u64::from(i.saturating_sub(BURST - 1));
        engine.schedule_inject(SimTime::from_millis(at), a, p);
    }

    let before = metrics();
    let depth = telemetry::global().gauge("simnet.queue_depth");
    assert_eq!((before.2, depth.high_water()), (0, 0), "no engine ran yet");
    let report = engine.run();
    let after = metrics();
    assert!(!report.truncated);
    assert!(
        report.events_processed > 4 * 4096,
        "the run must span several publication batches"
    );
    assert_eq!(after.0 - before.0, report.events_processed);
    assert_eq!(after.1 - before.1, engine.taps()[0].len() as u64);
    assert_eq!(
        after.2, before.2,
        "every queue drained by the end of the run"
    );
    assert!(
        report.queue_depth_peak >= u64::from(BURST),
        "the burst must have queued at once"
    );
    assert_eq!(
        depth.high_water(),
        report.queue_depth_peak as i64,
        "one engine's high-water is its exact peak"
    );
}

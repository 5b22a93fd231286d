//! The discrete-event simulation engine.

use crate::fib::{Fib, Route};
use crate::link::{LinkCounters, LinkState};
use crate::tap::Tap;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, Topology};
use net_types::{Ipv4Prefix, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use telemetry::{LazyCounter, LazyGauge};

static TM_EVENTS_PROCESSED: LazyCounter = LazyCounter::new("simnet.events_processed");
static TM_TAP_EMITS: LazyCounter = LazyCounter::new("simnet.tap_emits");
static TM_QUEUE_DEPTH: LazyGauge = LazyGauge::new("simnet.queue_depth");

/// Events [`Engine::run`] processes between publications of the engine's
/// locally accumulated `simnet.tap_emits` and `simnet.queue_depth`
/// changes. Engines on different threads share those metrics, so they are
/// not written per event; the queue depth is also published whenever it
/// reaches a new peak for the run, so one engine's high-water stays exact.
const PUBLISH_EVERY_EVENTS: u64 = 4096;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Whether routers generate ICMP Time Exceeded when a TTL expires —
    /// the mechanism behind the paper's observation that looped traffic is
    /// ICMP-heavy ("routers dropping packets that expire due to loops").
    pub generate_time_exceeded: bool,
    /// Per-router minimum interval between generated ICMP messages
    /// (real routers rate-limit ICMP generation).
    pub icmp_min_interval: SimDuration,
    /// Record one [`DeliveryRecord`] per delivered packet (needed for the
    /// escape-delay analysis; turn off for memory-constrained runs).
    pub record_deliveries: bool,
    /// Safety valve: abort after this many events (loops with ICMP storms
    /// could otherwise run away).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            generate_time_exceeded: true,
            icmp_min_interval: SimDuration::ZERO,
            record_deliveries: true,
            max_events: u64::MAX,
        }
    }
}

/// Why a packet was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Output queue overflow (congestion — including loop-induced
    /// congestion, the paper's §VI loss mechanism).
    QueueFull,
    /// TTL reached zero (the fate of most looping packets).
    TtlExpired,
    /// No FIB entry matched.
    NoRoute,
    /// The selected output link was down.
    LinkDown,
    /// Injected link fault (line corruption).
    Fault,
    /// An explicit blackhole route.
    Blackhole,
}

impl DropCause {
    /// All causes, for report iteration.
    pub const ALL: [DropCause; 6] = [
        DropCause::QueueFull,
        DropCause::TtlExpired,
        DropCause::NoRoute,
        DropCause::LinkDown,
        DropCause::Fault,
        DropCause::Blackhole,
    ];

    fn index(self) -> usize {
        match self {
            DropCause::QueueFull => 0,
            DropCause::TtlExpired => 1,
            DropCause::NoRoute => 2,
            DropCause::LinkDown => 3,
            DropCause::Fault => 4,
            DropCause::Blackhole => 5,
        }
    }

    /// Human-readable label.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::QueueFull => "queue-full",
            DropCause::TtlExpired => "ttl-expired",
            DropCause::NoRoute => "no-route",
            DropCause::LinkDown => "link-down",
            DropCause::Fault => "fault",
            DropCause::Blackhole => "blackhole",
        }
    }
}

/// One delivered packet (when [`SimConfig::record_deliveries`] is set).
#[derive(Debug, Clone, Copy)]
pub struct DeliveryRecord {
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Injection time.
    pub inject_time: SimTime,
    /// Delivery time.
    pub deliver_time: SimTime,
    /// Whether the packet revisited some router — i.e. it was caught in a
    /// loop and *escaped* (the paper: 25–300 ms extra delay for escapees).
    pub looped: bool,
    /// Router hops traversed.
    pub hops: u32,
}

impl DeliveryRecord {
    /// End-to-end delay.
    pub fn delay(&self) -> SimDuration {
        self.deliver_time - self.inject_time
    }
}

/// One dropped packet.
#[derive(Debug, Clone, Copy)]
pub struct DropRecord {
    /// Drop time.
    pub time: SimTime,
    /// Why.
    pub cause: DropCause,
    /// Destination of the dropped packet.
    pub dst: Ipv4Addr,
    /// Whether the packet had revisited a router before being dropped.
    pub looped: bool,
}

/// Ground truth: a packet arrived at a router it had already visited. The
/// set of these events is exactly "a routing loop was live here", against
/// which the trace-based detector is validated.
#[derive(Debug, Clone, Copy)]
pub struct LoopEvent {
    /// When the revisit happened.
    pub time: SimTime,
    /// The revisited router.
    pub node: NodeId,
    /// Destination of the looping packet.
    pub dst: Ipv4Addr,
}

/// Results of a run.
#[derive(Debug, Default)]
pub struct SimReport {
    /// Host-injected packets.
    pub injected: u64,
    /// Delivered packets.
    pub delivered: u64,
    /// Router-generated ICMP messages.
    pub icmp_generated: u64,
    /// Link-layer duplicates created by fault injection.
    pub duplicates_generated: u64,
    /// Drop counters indexed per [`DropCause`].
    drops: [u64; 6],
    /// Per-delivery records (empty unless configured).
    pub deliveries: Vec<DeliveryRecord>,
    /// Per-drop records.
    pub drop_records: Vec<DropRecord>,
    /// Ground-truth loop events.
    pub loop_events: Vec<LoopEvent>,
    /// Per-link counters (indexed by `LinkId`).
    pub link_counters: Vec<LinkCounters>,
    /// Virtual time of the last processed event.
    pub end_time: SimTime,
    /// Events processed.
    pub events_processed: u64,
    /// True when the run hit `max_events` and stopped early.
    pub truncated: bool,
    /// Most packets queued at once over all links, reached by an enqueue
    /// during this run.
    pub queue_depth_peak: u64,
}

impl SimReport {
    /// Drop count for one cause.
    pub fn drop_count(&self, cause: DropCause) -> u64 {
        self.drops[cause.index()]
    }

    /// Total drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Conservation check: every injected or generated packet must be
    /// accounted for as delivered or dropped. (In-flight packets cannot
    /// remain once the event queue drains.)
    pub fn is_conserved(&self) -> bool {
        self.injected + self.icmp_generated + self.duplicates_generated
            == self.delivered + self.total_drops()
    }
}

#[derive(Debug)]
struct Flight {
    packet: Packet,
    inject_time: SimTime,
    visited: Vec<NodeId>,
    looped: bool,
    hops: u32,
    /// True for router-generated ICMP (never spawns further ICMP errors).
    generated: bool,
}

#[derive(Debug)]
enum EventKind {
    Inject {
        node: NodeId,
        packet: Box<Packet>,
    },
    Arrive {
        node: NodeId,
        slot: usize,
    },
    Dequeue {
        link: LinkId,
    },
    FibInsert {
        node: NodeId,
        prefix: Ipv4Prefix,
        route: Route,
    },
    FibRemove {
        node: NodeId,
        prefix: Ipv4Prefix,
    },
    LinkDown {
        link: LinkId,
    },
    LinkUp {
        link: LinkId,
    },
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The simulator.
pub struct Engine {
    topo: Topology,
    cfg: SimConfig,
    fibs: Vec<Fib>,
    links: Vec<LinkState>,
    taps: Vec<Tap>,
    tap_of_link: Vec<Option<usize>>,
    flights: Vec<Option<Flight>>,
    free_slots: Vec<usize>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: SimTime,
    rng: StdRng,
    last_icmp: Vec<Option<SimTime>>,
    icmp_ident: u16,
    report: SimReport,
    /// Tap emissions not yet published.
    unpublished_tap_emits: u64,
    /// Packets queued over all links now, and the depth last added to
    /// `simnet.queue_depth`.
    queue_depth: i64,
    published_queue_depth: i64,
}

impl Engine {
    /// Creates an engine over a topology.
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        for l in topo.links() {
            l.faults.validate();
        }
        let n_nodes = topo.num_nodes();
        let n_links = topo.num_links();
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            fibs: (0..n_nodes).map(|_| Fib::new()).collect(),
            links: (0..n_links).map(|_| LinkState::new()).collect(),
            taps: Vec::new(),
            tap_of_link: vec![None; n_links],
            flights: Vec::new(),
            free_slots: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng,
            last_icmp: vec![None; n_nodes],
            icmp_ident: 0,
            report: SimReport {
                link_counters: vec![LinkCounters::default(); n_links],
                ..SimReport::default()
            },
            unpublished_tap_emits: 0,
            queue_depth: 0,
            published_queue_depth: 0,
            topo,
            cfg,
        }
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read access to a node's FIB.
    pub fn fib(&self, node: NodeId) -> &Fib {
        &self.fibs[node.0]
    }

    /// Installs a route immediately (pre-run setup).
    pub fn install_route(&mut self, node: NodeId, prefix: Ipv4Prefix, route: Route) {
        self.fibs[node.0].insert(prefix, route);
    }

    /// Removes a route immediately (pre-run setup).
    pub fn remove_route(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        self.fibs[node.0].remove(prefix);
    }

    /// Attaches a tap to a link; returns its index into [`Engine::taps`].
    ///
    /// # Panics
    /// Panics when the link already has a tap.
    pub fn add_tap(&mut self, link: LinkId) -> usize {
        assert!(self.tap_of_link[link.0].is_none(), "link already has a tap");
        let idx = self.taps.len();
        self.taps.push(Tap::new(link));
        self.tap_of_link[link.0] = Some(idx);
        idx
    }

    /// Taps and their records (valid after `run`).
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Consumes the taps (to avoid cloning large traces).
    pub fn take_taps(&mut self) -> Vec<Tap> {
        for slot in self.tap_of_link.iter_mut() {
            *slot = None;
        }
        std::mem::take(&mut self.taps)
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    /// Schedules a host packet injection.
    pub fn schedule_inject(&mut self, time: SimTime, node: NodeId, packet: Packet) {
        self.push_event(
            time,
            EventKind::Inject {
                node,
                packet: Box::new(packet),
            },
        );
    }

    /// Schedules a FIB route installation (control-plane update).
    pub fn schedule_fib_insert(
        &mut self,
        time: SimTime,
        node: NodeId,
        prefix: Ipv4Prefix,
        route: Route,
    ) {
        self.push_event(
            time,
            EventKind::FibInsert {
                node,
                prefix,
                route,
            },
        );
    }

    /// Schedules a FIB route withdrawal.
    pub fn schedule_fib_remove(&mut self, time: SimTime, node: NodeId, prefix: Ipv4Prefix) {
        self.push_event(time, EventKind::FibRemove { node, prefix });
    }

    /// Schedules a link failure.
    pub fn schedule_link_down(&mut self, time: SimTime, link: LinkId) {
        self.push_event(time, EventKind::LinkDown { link });
    }

    /// Schedules a link recovery.
    pub fn schedule_link_up(&mut self, time: SimTime, link: LinkId) {
        self.push_event(time, EventKind::LinkUp { link });
    }

    fn alloc(&mut self, flight: Flight) -> usize {
        if let Some(slot) = self.free_slots.pop() {
            self.flights[slot] = Some(flight);
            slot
        } else {
            self.flights.push(Some(flight));
            self.flights.len() - 1
        }
    }

    fn take(&mut self, slot: usize) -> Flight {
        let f = self.flights[slot].take().expect("flight slot empty");
        self.free_slots.push(slot);
        f
    }

    /// Runs until the event queue drains (or `max_events`), returning the
    /// report. Taps stay on the engine; fetch them with
    /// [`Engine::taps`]/[`Engine::take_taps`].
    pub fn run(&mut self) -> SimReport {
        while let Some(Reverse(ev)) = self.events.pop() {
            if self.report.events_processed >= self.cfg.max_events {
                self.report.truncated = true;
                break;
            }
            self.report.events_processed += 1;
            if self
                .report
                .events_processed
                .is_multiple_of(PUBLISH_EVERY_EVENTS)
            {
                self.publish_telemetry();
            }
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            match ev.kind {
                EventKind::Inject { node, packet } => self.handle_inject(node, *packet),
                EventKind::Arrive { node, slot } => {
                    let flight = self.take(slot);
                    self.route_and_forward(node, flight);
                }
                EventKind::Dequeue { link } => self.handle_dequeue(link),
                EventKind::FibInsert {
                    node,
                    prefix,
                    route,
                } => {
                    self.fibs[node.0].insert(prefix, route);
                }
                EventKind::FibRemove { node, prefix } => {
                    self.fibs[node.0].remove(prefix);
                }
                EventKind::LinkDown { link } => self.handle_link_down(link),
                EventKind::LinkUp { link } => {
                    self.links[link.0].up = true;
                }
            }
        }
        self.report.end_time = self.now;
        TM_EVENTS_PROCESSED.add(self.report.events_processed);
        self.publish_telemetry();
        for (i, l) in self.links.iter().enumerate() {
            self.report.link_counters[i] = l.counters;
        }
        std::mem::replace(
            &mut self.report,
            SimReport {
                link_counters: vec![LinkCounters::default(); self.topo.num_links()],
                ..SimReport::default()
            },
        )
    }

    /// Adds the locally accumulated tap emissions and queue-depth change
    /// to the shared metrics.
    fn publish_telemetry(&mut self) {
        if self.unpublished_tap_emits > 0 {
            TM_TAP_EMITS.add(std::mem::take(&mut self.unpublished_tap_emits));
        }
        self.publish_queue_depth();
    }

    fn publish_queue_depth(&mut self) {
        let delta = self.queue_depth - self.published_queue_depth;
        if delta != 0 {
            TM_QUEUE_DEPTH.add(delta);
            self.published_queue_depth = self.queue_depth;
        }
    }

    fn handle_inject(&mut self, node: NodeId, packet: Packet) {
        self.report.injected += 1;
        let flight = Flight {
            packet,
            inject_time: self.now,
            visited: Vec::new(),
            looped: false,
            hops: 0,
            generated: false,
        };
        self.route_and_forward(node, flight);
    }

    fn record_drop(&mut self, cause: DropCause, flight: &Flight) {
        self.report.drops[cause.index()] += 1;
        self.report.drop_records.push(DropRecord {
            time: self.now,
            cause,
            dst: flight.packet.ip.dst,
            looped: flight.looped,
        });
    }

    fn deliver(&mut self, flight: Flight) {
        self.report.delivered += 1;
        if self.cfg.record_deliveries {
            self.report.deliveries.push(DeliveryRecord {
                dst: flight.packet.ip.dst,
                inject_time: flight.inject_time,
                deliver_time: self.now,
                looped: flight.looped,
                hops: flight.hops,
            });
        }
    }

    fn route_and_forward(&mut self, node: NodeId, mut flight: Flight) {
        let dst = flight.packet.ip.dst;
        let node_cfg = self.topo.node(node);
        // Local delivery?
        if dst == node_cfg.address || node_cfg.local_prefixes.iter().any(|p| p.contains(dst)) {
            self.deliver(flight);
            return;
        }
        // Ground-truth loop detection: a revisit means the packet is caught
        // in a forwarding loop right now.
        if flight.visited.contains(&node) {
            flight.looped = true;
            self.report.loop_events.push(LoopEvent {
                time: self.now,
                node,
                dst,
            });
        }
        flight.visited.push(node);
        match self.fibs[node.0].lookup(dst) {
            None => self.record_drop(DropCause::NoRoute, &flight),
            Some(Route::Blackhole) => self.record_drop(DropCause::Blackhole, &flight),
            Some(Route::Local) => self.deliver(flight),
            Some(route @ (Route::Link(_) | Route::Ecmp(_))) => {
                let link = route
                    .resolve(flow_hash(&flight.packet))
                    .expect("Link/Ecmp always resolve");
                // A router forwards by decrementing the TTL first; a packet
                // whose TTL hits zero is discarded with Time Exceeded.
                if flight.packet.ip.ttl <= 1 {
                    let expired_src = flight.packet.ip.src;
                    let expired_bytes = flight.packet.emit();
                    let was_generated = flight.generated;
                    let is_icmp = flight.packet.protocol() == net_types::IpProtocol::Icmp;
                    self.record_drop(DropCause::TtlExpired, &flight);
                    if self.cfg.generate_time_exceeded && !was_generated && !is_icmp {
                        self.generate_time_exceeded(node, expired_src, &expired_bytes);
                    }
                    return;
                }
                let ok = flight.packet.ip.decrement_ttl();
                debug_assert!(ok);
                flight.hops += 1;
                self.enqueue(link, flight);
            }
        }
    }

    fn generate_time_exceeded(&mut self, node: NodeId, dst: Ipv4Addr, expired_bytes: &[u8]) {
        // Per-router rate limit.
        if self.cfg.icmp_min_interval > SimDuration::ZERO {
            if let Some(last) = self.last_icmp[node.0] {
                if self.now.since(last) < self.cfg.icmp_min_interval {
                    return;
                }
            }
        }
        self.last_icmp[node.0] = Some(self.now);
        let src = self.topo.node(node).address;
        // RFC 792: the body carries the offending IP header + first 8 bytes
        // of its payload.
        let body_len = expired_bytes.len().min(28);
        let mut pkt = Packet::icmp(
            src,
            dst,
            net_types::IcmpHeader::time_exceeded(),
            expired_bytes[..body_len].to_vec(),
        );
        pkt.ip.ttl = 255;
        self.icmp_ident = self.icmp_ident.wrapping_add(1);
        pkt.ip.ident = self.icmp_ident;
        pkt.fill_checksums();
        self.report.icmp_generated += 1;
        let flight = Flight {
            packet: pkt,
            inject_time: self.now,
            visited: Vec::new(),
            looped: false,
            hops: 0,
            generated: true,
        };
        self.route_and_forward(node, flight);
    }

    fn enqueue(&mut self, link_id: LinkId, flight: Flight) {
        let capacity = self.topo.link(link_id).queue_capacity;
        let link = &mut self.links[link_id.0];
        if !link.up {
            link.counters.down_drops += 1;
            self.record_drop(DropCause::LinkDown, &flight);
            return;
        }
        if link.queue.len() >= capacity {
            link.counters.queue_drops += 1;
            self.record_drop(DropCause::QueueFull, &flight);
            return;
        }
        let slot = self.alloc(flight);
        let link = &mut self.links[link_id.0];
        link.queue.push_back(slot);
        if !link.busy {
            link.busy = true;
            self.push_event(self.now, EventKind::Dequeue { link: link_id });
        }
        self.queue_depth += 1;
        if self.queue_depth as u64 > self.report.queue_depth_peak {
            self.report.queue_depth_peak = self.queue_depth as u64;
            self.publish_queue_depth();
        }
    }

    fn handle_dequeue(&mut self, link_id: LinkId) {
        let cfg = self.topo.link(link_id).clone();
        let state = &mut self.links[link_id.0];
        if !state.up {
            // Link died while busy: queued packets were already drained by
            // handle_link_down; just go idle.
            state.busy = false;
            return;
        }
        let Some(slot) = state.queue.pop_front() else {
            state.busy = false;
            return;
        };
        self.queue_depth -= 1;
        let flight = self.take(slot);
        let wire_len = flight.packet.wire_len();
        let packet_copy = flight.packet.clone();
        let ser = SimDuration::serialization(wire_len, cfg.bandwidth_bps);
        let state = &mut self.links[link_id.0];
        state.counters.tx_packets += 1;
        state.counters.tx_bytes += wire_len as u64;
        // Fault decisions (skip the RNG entirely on clean links so runs with
        // and without faults consume the same random stream for clean links).
        let (dup, corrupt) = if cfg.faults.is_none() {
            (false, false)
        } else {
            (
                self.rng.gen_bool(cfg.faults.duplicate_prob),
                self.rng.gen_bool(cfg.faults.drop_prob),
            )
        };
        // The monitor sees the packet as it hits the wire.
        if let Some(tap_idx) = self.tap_of_link[link_id.0] {
            self.taps[tap_idx].record(self.now, flight.packet.clone());
            self.unpublished_tap_emits += 1;
        }
        let mut next_free = self.now + ser;
        if corrupt {
            self.links[link_id.0].counters.fault_drops += 1;
            self.record_drop(DropCause::Fault, &flight);
        } else {
            let arrive_at = self.now + ser + cfg.prop_delay;
            let slot = self.alloc(flight);
            self.push_event(arrive_at, EventKind::Arrive { node: cfg.to, slot });
        }
        if dup {
            // The duplicate occupies the wire for a second serialization
            // slot immediately after the original — a link-layer artefact,
            // not a routing loop. A protection-path duplicate arrives with
            // extra TTL decrements (it crossed more routers), checksum
            // patched per RFC 1624 like real forwarding hardware.
            self.links[link_id.0].counters.duplicates += 1;
            self.report.duplicates_generated += 1;
            let mut packet_copy = packet_copy;
            for _ in 0..cfg.faults.duplicate_ttl_skew {
                if !packet_copy.ip.decrement_ttl() {
                    break;
                }
            }
            if let Some(tap_idx) = self.tap_of_link[link_id.0] {
                self.taps[tap_idx].record(self.now + ser, packet_copy.clone());
                self.unpublished_tap_emits += 1;
            }
            let dup_flight = Flight {
                packet: packet_copy,
                inject_time: self.now,
                visited: Vec::new(),
                looped: false,
                hops: 0,
                generated: true, // duplicates never spawn ICMP
            };
            let slot = self.alloc(dup_flight);
            self.push_event(
                self.now + ser + ser + cfg.prop_delay,
                EventKind::Arrive { node: cfg.to, slot },
            );
            next_free = self.now + ser + ser;
        }
        let state = &mut self.links[link_id.0];
        state.busy = true;
        state.busy_until = next_free;
        self.push_event(next_free, EventKind::Dequeue { link: link_id });
    }

    fn handle_link_down(&mut self, link_id: LinkId) {
        let state = &mut self.links[link_id.0];
        state.up = false;
        let queued: Vec<usize> = state.queue.drain(..).collect();
        self.queue_depth -= queued.len() as i64;
        for slot in queued {
            let flight = self.take(slot);
            self.links[link_id.0].counters.down_drops += 1;
            self.record_drop(DropCause::LinkDown, &flight);
        }
    }
}

/// Flow hash for ECMP path selection: identical for every packet of a
/// flow (5-tuple when ports exist, 3-tuple otherwise), well-mixed so
/// `hash % n` balances. Deterministic across runs — the same flow always
/// rides the same path, as real hashed multipath does.
fn flow_hash(p: &Packet) -> u64 {
    let (sp, dp) = p.ports().unwrap_or((0, 0));
    let mut x = (u64::from(u32::from(p.ip.src)) << 32) | u64::from(u32::from(p.ip.dst));
    x ^= u64::from(p.ip.protocol.as_u8()) << 17;
    x ^= (u64::from(sp) << 48) | (u64::from(dp) << 32);
    // splitmix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::topology::TopologyBuilder;
    use net_types::tcp::TcpFlags;

    const MBPS: u64 = 1_000_000;

    fn addr(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 200, 0, i)
    }

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn test_packet(dst: Ipv4Addr, ttl: u8) -> Packet {
        let mut p = Packet::tcp_flags(
            Ipv4Addr::new(172, 16, 0, 1),
            dst,
            40000,
            80,
            TcpFlags::ACK,
            vec![0u8; 100],
        );
        p.ip.ttl = ttl;
        p.ip.ident = 0x1111;
        p.fill_checksums();
        p
    }

    /// host -- r1 -- r2 -- dest(192.0.2.0/24)
    fn line_topology() -> (Topology, [NodeId; 4], [LinkId; 3]) {
        let mut b = TopologyBuilder::new();
        let host = b.node("host", addr(1));
        let r1 = b.node("r1", addr(2));
        let r2 = b.node("r2", addr(3));
        let dest = b.node("dest", addr(4));
        b.attach_prefix(dest, pfx("192.0.2.0/24"));
        let l0 = b.link(host, r1, 100 * MBPS, SimDuration::from_millis(1));
        let l1 = b.link(r1, r2, 100 * MBPS, SimDuration::from_millis(1));
        let l2 = b.link(r2, dest, 100 * MBPS, SimDuration::from_millis(1));
        (b.build(), [host, r1, r2, dest], [l0, l1, l2])
    }

    fn wire_line(engine: &mut Engine, nodes: &[NodeId; 4], links: &[LinkId; 3]) {
        let p = pfx("192.0.2.0/24");
        engine.install_route(nodes[0], p, Route::Link(links[0]));
        engine.install_route(nodes[1], p, Route::Link(links[1]));
        engine.install_route(nodes[2], p, Route::Link(links[2]));
    }

    #[test]
    fn delivers_along_line() {
        let (topo, nodes, links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        wire_line(&mut e, &nodes, &links);
        let dst = Ipv4Addr::new(192, 0, 2, 55);
        e.schedule_inject(SimTime::ZERO, nodes[0], test_packet(dst, 64));
        let report = e.run();
        assert_eq!(report.injected, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.total_drops(), 0);
        assert!(report.is_conserved());
        let d = &report.deliveries[0];
        assert_eq!(d.dst, dst);
        assert_eq!(d.hops, 3);
        assert!(!d.looped);
        // 3 links × (serialization + 1 ms propagation); 140 B at 100 Mbps
        // is 11.2 µs per hop.
        let delay = d.delay();
        assert!(delay > SimDuration::from_millis(3), "delay {delay}");
        assert!(delay < SimDuration::from_millis(4), "delay {delay}");
    }

    #[test]
    fn ttl_decremented_per_hop_and_checksum_valid() {
        let (topo, nodes, links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        wire_line(&mut e, &nodes, &links);
        e.add_tap(links[2]);
        let dst = Ipv4Addr::new(192, 0, 2, 55);
        e.schedule_inject(SimTime::ZERO, nodes[0], test_packet(dst, 64));
        e.run();
        let rec = &e.taps()[0].records[0];
        // host, r1, r2 each decrement before transmitting on the next link;
        // on the final link the TTL has gone 64 -> 61.
        assert_eq!(rec.packet.ip.ttl, 61);
        assert!(rec.packet.ip.verify_checksum());
    }

    #[test]
    fn no_route_drops() {
        let (topo, nodes, _links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        // No routes installed at all.
        e.schedule_inject(
            SimTime::ZERO,
            nodes[0],
            test_packet(Ipv4Addr::new(192, 0, 2, 55), 64),
        );
        let report = e.run();
        assert_eq!(report.drop_count(DropCause::NoRoute), 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn blackhole_route_drops() {
        let (topo, nodes, _links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        e.install_route(nodes[0], pfx("192.0.2.0/24"), Route::Blackhole);
        e.schedule_inject(
            SimTime::ZERO,
            nodes[0],
            test_packet(Ipv4Addr::new(192, 0, 2, 1), 64),
        );
        let report = e.run();
        assert_eq!(report.drop_count(DropCause::Blackhole), 1);
    }

    /// Two routers pointing at each other: the classic transient micro-loop.
    fn loop_topology() -> (Topology, [NodeId; 3], [LinkId; 4]) {
        let mut b = TopologyBuilder::new();
        let host = b.node("host", addr(1));
        let r1 = b.node("r1", addr(2));
        let r2 = b.node("r2", addr(3));
        let l_host = b.link(host, r1, 100 * MBPS, SimDuration::from_micros(100));
        let (l12, l21) = b.duplex(r1, r2, 100 * MBPS, SimDuration::from_micros(500));
        // An exit link that is never wired into any FIB, so packets cannot
        // escape; it exists to make the topology realistic.
        let l_exit = b.link(r2, host, 100 * MBPS, SimDuration::from_micros(100));
        (b.build(), [host, r1, r2], [l_host, l12, l21, l_exit])
    }

    #[test]
    fn forwarding_loop_expires_ttl_and_replicates_on_tap() {
        let (topo, nodes, links) = loop_topology();
        let mut e = Engine::new(
            topo,
            SimConfig {
                generate_time_exceeded: false,
                ..SimConfig::default()
            },
        );
        let p = pfx("203.0.113.0/24");
        // r1 -> r2 and r2 -> r1: a two-node loop for this prefix.
        e.install_route(nodes[0], p, Route::Link(links[0]));
        e.install_route(nodes[1], p, Route::Link(links[1]));
        e.install_route(nodes[2], p, Route::Link(links[2]));
        e.add_tap(links[1]); // monitor r1 -> r2
        let dst = Ipv4Addr::new(203, 0, 113, 7);
        e.schedule_inject(SimTime::ZERO, nodes[0], test_packet(dst, 64));
        let report = e.run();
        assert_eq!(report.delivered, 0);
        assert_eq!(report.drop_count(DropCause::TtlExpired), 1);
        assert!(report.is_conserved());
        // Ground truth saw the loop.
        assert!(!report.loop_events.is_empty());
        assert!(report.loop_events.iter().all(|ev| ev.dst == dst));
        // The tap saw the packet many times with TTL decreasing by 2 each
        // traversal (two routers in the loop).
        let recs = &e.taps()[0].records;
        // TTL 64 at injection, host decrements to 63; r1 transmits at 62,
        // 60, 58, ... -> 31 sightings for the r1->r2 direction.
        assert!(recs.len() >= 30, "got {} sightings", recs.len());
        for w in recs.windows(2) {
            let a = w[0].packet.ip.ttl;
            let b = w[1].packet.ip.ttl;
            assert_eq!(a - b, 2, "TTL delta between replicas");
            assert_eq!(w[0].packet.ip.ident, w[1].packet.ip.ident);
            assert_eq!(
                w[0].packet.transport_checksum(),
                w[1].packet.transport_checksum()
            );
            assert!(w[1].packet.ip.verify_checksum());
        }
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded_back_to_source() {
        let (topo, nodes, links) = loop_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        let p = pfx("203.0.113.0/24");
        e.install_route(nodes[0], p, Route::Link(links[0]));
        e.install_route(nodes[1], p, Route::Link(links[1]));
        e.install_route(nodes[2], p, Route::Link(links[2]));
        // Route back to the source so the ICMP can travel: r1 -> r2 -> host
        // (links[3] is the r2 -> host exit link).
        let back = pfx("172.16.0.0/16");
        e.install_route(nodes[1], back, Route::Link(links[1]));
        e.install_route(nodes[2], back, Route::Link(links[3]));
        let dst = Ipv4Addr::new(203, 0, 113, 7);
        e.schedule_inject(SimTime::ZERO, nodes[0], test_packet(dst, 8));
        let report = e.run();
        assert_eq!(report.icmp_generated, 1);
        assert_eq!(report.drop_count(DropCause::TtlExpired), 1);
        // The ICMP either reached the host (no local prefix -> dropped as
        // no-route at host) — either way conservation holds.
        assert!(report.is_conserved());
    }

    #[test]
    fn queue_overflow_drops() {
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let c = b.node("c", addr(2));
        b.attach_prefix(c, pfx("192.0.2.0/24"));
        // Slow link (1 Mbps), tiny queue (2 packets).
        let l = b.link_with(
            a_,
            c,
            MBPS,
            SimDuration::from_millis(1),
            2,
            FaultConfig::none(),
        );
        let topo = b.build();
        let mut e = Engine::new(topo, SimConfig::default());
        e.install_route(a_, pfx("192.0.2.0/24"), Route::Link(l));
        // Burst of 10 packets at t=0. The serializer only starts after the
        // whole same-instant burst has been enqueued, so the queue (capacity
        // 2, including the head being transmitted) admits 2 and drops 8.
        for _ in 0..10 {
            e.schedule_inject(
                SimTime::ZERO,
                a_,
                test_packet(Ipv4Addr::new(192, 0, 2, 1), 64),
            );
        }
        let report = e.run();
        assert_eq!(report.delivered, 2);
        assert_eq!(report.drop_count(DropCause::QueueFull), 8);
        assert_eq!(report.link_counters[l.0].queue_drops, 8);
        assert!(report.is_conserved());
    }

    #[test]
    fn link_down_drops_and_up_restores() {
        let (topo, nodes, links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        wire_line(&mut e, &nodes, &links);
        e.schedule_link_down(SimTime::from_millis(10), links[1]);
        e.schedule_link_up(SimTime::from_millis(20), links[1]);
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        // One packet while up, one while down, one after recovery.
        e.schedule_inject(SimTime::ZERO, nodes[0], test_packet(dst, 64));
        e.schedule_inject(SimTime::from_millis(15), nodes[0], test_packet(dst, 64));
        e.schedule_inject(SimTime::from_millis(25), nodes[0], test_packet(dst, 64));
        let report = e.run();
        assert_eq!(report.delivered, 2);
        assert_eq!(report.drop_count(DropCause::LinkDown), 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn midrun_fib_update_heals_loop() {
        let (topo, nodes, links) = loop_topology();
        let mut e = Engine::new(
            topo,
            SimConfig {
                generate_time_exceeded: false,
                ..SimConfig::default()
            },
        );
        let p = pfx("203.0.113.0/24");
        e.install_route(nodes[0], p, Route::Link(links[0]));
        e.install_route(nodes[1], p, Route::Link(links[1]));
        e.install_route(nodes[2], p, Route::Link(links[2])); // loop!
                                                             // At t = 3 ms, r2 learns the truth: deliver locally.
        e.schedule_fib_insert(SimTime::from_millis(3), nodes[2], p, Route::Local);
        let dst = Ipv4Addr::new(203, 0, 113, 7);
        e.schedule_inject(SimTime::ZERO, nodes[0], test_packet(dst, 255));
        let report = e.run();
        // The packet loops for ~3 ms, then escapes and is delivered.
        assert_eq!(report.delivered, 1);
        assert!(report.deliveries[0].looped, "the escapee must be marked");
        assert!(!report.loop_events.is_empty());
        assert!(report.deliveries[0].delay() >= SimDuration::from_millis(3));
        assert!(report.is_conserved());
    }

    #[test]
    fn duplicate_fault_produces_unchanged_ttl_copies() {
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let c = b.node("c", addr(2));
        b.attach_prefix(c, pfx("192.0.2.0/24"));
        let l = b.link_with(
            a_,
            c,
            100 * MBPS,
            SimDuration::from_millis(1),
            64,
            FaultConfig::duplicates(1.0), // always duplicate
        );
        let topo = b.build();
        let mut e = Engine::new(topo, SimConfig::default());
        e.install_route(a_, pfx("192.0.2.0/24"), Route::Link(l));
        e.add_tap(l);
        e.schedule_inject(
            SimTime::ZERO,
            a_,
            test_packet(Ipv4Addr::new(192, 0, 2, 1), 64),
        );
        let report = e.run();
        // Original + duplicate both delivered (duplicate counts as
        // generated traffic for conservation).
        assert_eq!(report.delivered, 2);
        assert_eq!(report.duplicates_generated, 1);
        assert!(report.is_conserved());
        let recs = &e.taps()[0].records;
        assert_eq!(recs.len(), 2, "tap sees both copies");
        assert_eq!(
            recs[0].packet.ip.ttl, recs[1].packet.ip.ttl,
            "TTL unchanged"
        );
        assert_eq!(recs[0].packet, recs[1].packet);
        assert_eq!(report.link_counters[l.0].duplicates, 1);
    }

    #[test]
    fn protection_duplicate_arrives_with_skewed_ttl() {
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let c = b.node("c", addr(2));
        b.attach_prefix(c, pfx("192.0.2.0/24"));
        let l = b.link_with(
            a_,
            c,
            100 * MBPS,
            SimDuration::from_millis(1),
            64,
            FaultConfig::protection_duplicates(1.0, 2),
        );
        let topo = b.build();
        let mut e = Engine::new(topo, SimConfig::default());
        e.install_route(a_, pfx("192.0.2.0/24"), Route::Link(l));
        e.add_tap(l);
        e.schedule_inject(
            SimTime::ZERO,
            a_,
            test_packet(Ipv4Addr::new(192, 0, 2, 1), 64),
        );
        let report = e.run();
        assert_eq!(report.delivered, 2);
        let recs = &e.taps()[0].records;
        assert_eq!(recs.len(), 2);
        // The copy shows up 2 TTL lower with a consistent checksum — the
        // 2-element false replica stream §IV-A.2 guards against.
        assert_eq!(recs[0].packet.ip.ttl - recs[1].packet.ip.ttl, 2);
        assert!(recs[1].packet.ip.verify_checksum());
        assert_eq!(
            recs[0].packet.transport_checksum(),
            recs[1].packet.transport_checksum()
        );
    }

    #[test]
    fn random_drop_fault() {
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let c = b.node("c", addr(2));
        b.attach_prefix(c, pfx("192.0.2.0/24"));
        let l = b.link_with(
            a_,
            c,
            100 * MBPS,
            SimDuration::from_millis(1),
            4096,
            FaultConfig::drops(1.0), // drop everything
        );
        let topo = b.build();
        let mut e = Engine::new(topo, SimConfig::default());
        e.install_route(a_, pfx("192.0.2.0/24"), Route::Link(l));
        for _ in 0..5 {
            e.schedule_inject(
                SimTime::ZERO,
                a_,
                test_packet(Ipv4Addr::new(192, 0, 2, 1), 64),
            );
        }
        let report = e.run();
        assert_eq!(report.delivered, 0);
        assert_eq!(report.drop_count(DropCause::Fault), 5);
        assert!(report.is_conserved());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (topo, nodes, links) = line_topology();
            let mut e = Engine::new(
                topo,
                SimConfig {
                    seed: 42,
                    ..SimConfig::default()
                },
            );
            wire_line(&mut e, &nodes, &links);
            e.add_tap(links[1]);
            for i in 0..50u64 {
                let mut p = test_packet(Ipv4Addr::new(192, 0, 2, (i % 200) as u8), 64);
                p.ip.ident = i as u16;
                p.fill_checksums();
                e.schedule_inject(SimTime(i * 10_000), nodes[0], p);
            }
            let report = e.run();
            let tap_sig: Vec<(u64, u16)> = e.taps()[0]
                .records
                .iter()
                .map(|r| (r.time.as_nanos(), r.packet.ip.ident))
                .collect();
            (report.delivered, report.events_processed, tap_sig)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_events_truncates() {
        let (topo, nodes, links) = loop_topology();
        let mut e = Engine::new(
            topo,
            SimConfig {
                max_events: 10,
                generate_time_exceeded: false,
                ..SimConfig::default()
            },
        );
        let p = pfx("203.0.113.0/24");
        e.install_route(nodes[0], p, Route::Link(links[0]));
        e.install_route(nodes[1], p, Route::Link(links[1]));
        e.install_route(nodes[2], p, Route::Link(links[2]));
        e.schedule_inject(
            SimTime::ZERO,
            nodes[0],
            test_packet(Ipv4Addr::new(203, 0, 113, 1), 255),
        );
        let report = e.run();
        assert!(report.truncated);
    }

    #[test]
    fn tap_on_busy_link_observes_everything_in_order() {
        let (topo, nodes, links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        wire_line(&mut e, &nodes, &links);
        e.add_tap(links[0]);
        for i in 0..20u16 {
            let mut p = test_packet(Ipv4Addr::new(192, 0, 2, 1), 64);
            p.ip.ident = i;
            p.fill_checksums();
            e.schedule_inject(SimTime::ZERO, nodes[0], p);
        }
        let report = e.run();
        assert_eq!(report.delivered, 20);
        let recs = &e.taps()[0].records;
        assert_eq!(recs.len(), 20);
        // FIFO order preserved; timestamps strictly increase (serialization
        // separates transmissions).
        for w in recs.windows(2) {
            assert!(w[0].time < w[1].time);
            assert!(w[0].packet.ip.ident < w[1].packet.ip.ident);
        }
    }

    #[test]
    fn icmp_rate_limit_suppresses_bursts() {
        // A burst of TTL-expiring packets at one router must generate at
        // most one Time Exceeded per rate-limit interval.
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let r = b.node("r", addr(2));
        let l = b.link(a_, r, 100 * MBPS, SimDuration::from_micros(100));
        let topo = b.build();
        let mut e = Engine::new(
            topo,
            SimConfig {
                icmp_min_interval: SimDuration::from_millis(100),
                ..SimConfig::default()
            },
        );
        e.install_route(a_, pfx("192.0.2.0/24"), Route::Link(l));
        // r has no route: packets arrive with TTL 1 and expire there.
        e.install_route(r, pfx("192.0.2.0/24"), Route::Link(l));
        // Wait: r's only link goes back... give r a blackhole-free setup:
        // actually force expiry AT r by sending TTL=2 packets (a_ burns 1).
        for i in 0..50u16 {
            let mut p = test_packet(Ipv4Addr::new(192, 0, 2, 1), 2);
            p.ip.ident = i;
            p.fill_checksums();
            e.schedule_inject(SimTime(u64::from(i) * 10_000), a_, p);
        }
        let report = e.run();
        assert_eq!(report.drop_count(DropCause::TtlExpired), 50);
        // 50 packets over ~0.5 ms: only the first ICMP fits the 100 ms
        // rate-limit window.
        assert_eq!(report.icmp_generated, 1, "{report:?}");
        assert!(report.is_conserved());
    }

    #[test]
    fn icmp_never_generated_for_icmp_or_generated_packets() {
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let r = b.node("r", addr(2));
        let l = b.link(a_, r, 100 * MBPS, SimDuration::from_micros(100));
        let topo = b.build();
        let mut e = Engine::new(topo, SimConfig::default());
        e.install_route(a_, pfx("192.0.2.0/24"), Route::Link(l));
        e.install_route(r, pfx("192.0.2.0/24"), Route::Link(l));
        // An ICMP echo that expires: no Time Exceeded about ICMP.
        let mut p = Packet::icmp(
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(192, 0, 2, 1),
            net_types::IcmpHeader::echo(true, 1, 1),
            vec![0u8; 8],
        );
        p.ip.ttl = 2;
        p.fill_checksums();
        e.schedule_inject(SimTime::ZERO, a_, p);
        let report = e.run();
        assert_eq!(report.drop_count(DropCause::TtlExpired), 1);
        assert_eq!(report.icmp_generated, 0);
    }

    #[test]
    fn link_flapping_drains_and_recovers_repeatedly() {
        let (topo, nodes, links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        wire_line(&mut e, &nodes, &links);
        // Flap the middle link five times.
        for k in 0..5u64 {
            e.schedule_link_down(SimTime::from_millis(10 + 20 * k), links[1]);
            e.schedule_link_up(SimTime::from_millis(20 + 20 * k), links[1]);
        }
        // Steady packet stream across the flaps.
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        for i in 0..120u64 {
            let mut p = test_packet(dst, 64);
            p.ip.ident = i as u16;
            p.fill_checksums();
            e.schedule_inject(SimTime::from_millis(i), nodes[0], p);
        }
        let report = e.run();
        assert!(report.is_conserved());
        // Roughly half the stream falls into down windows.
        assert!(report.delivered > 40, "delivered {}", report.delivered);
        assert!(report.drop_count(DropCause::LinkDown) > 20, "{report:?}");
        assert_eq!(
            report.delivered + report.total_drops(),
            120 + report.icmp_generated
        );
    }

    #[test]
    fn ecmp_member_link_down_drops_hashed_flows() {
        use crate::fib::EcmpSet;
        // ECMP over two links, one of which is down: flows hashed onto the
        // dead member drop (the FIB has not yet reconverged — exactly the
        // transient the control plane later repairs).
        let mut b = TopologyBuilder::new();
        let a_ = b.node("a", addr(1));
        let nb = b.node("b", addr(2));
        let nc = b.node("c", addr(3));
        let nd = b.node("d", addr(4));
        b.attach_prefix(nd, pfx("192.0.2.0/24"));
        let l_ab = b.link(a_, nb, 100 * MBPS, SimDuration::from_millis(1));
        let l_ac = b.link(a_, nc, 100 * MBPS, SimDuration::from_millis(1));
        let l_bd = b.link(nb, nd, 100 * MBPS, SimDuration::from_millis(1));
        let l_cd = b.link(nc, nd, 100 * MBPS, SimDuration::from_millis(1));
        let topo = b.build();
        let mut e = Engine::new(topo, SimConfig::default());
        let p = pfx("192.0.2.0/24");
        e.install_route(a_, p, Route::Ecmp(EcmpSet::new(&[l_ab, l_ac])));
        e.install_route(nb, p, Route::Link(l_bd));
        e.install_route(nc, p, Route::Link(l_cd));
        e.schedule_link_down(SimTime::ZERO, l_ab);
        for f in 0..100u16 {
            let mut pkt = Packet::tcp_flags(
                Ipv4Addr::new(172, 16, 0, 1),
                Ipv4Addr::new(192, 0, 2, 1),
                5_000 + f,
                80,
                net_types::TcpFlags::ACK,
                vec![0u8; 64],
            );
            pkt.ip.ident = f;
            pkt.fill_checksums();
            e.schedule_inject(SimTime(1_000 + u64::from(f)), a_, pkt);
        }
        let report = e.run();
        assert!(report.is_conserved());
        let dropped = report.drop_count(DropCause::LinkDown);
        assert!(dropped > 20 && dropped < 80, "hash split, got {dropped}");
        assert_eq!(report.delivered + dropped, 100);
    }

    #[test]
    fn ecmp_splits_flows_across_paths() {
        use crate::fib::EcmpSet;
        // a -> {b, c} -> d(local prefix): two equal paths from a.
        let mut bld = TopologyBuilder::new();
        let a_ = bld.node("a", addr(1));
        let nb = bld.node("b", addr(2));
        let nc = bld.node("c", addr(3));
        let nd = bld.node("d", addr(4));
        bld.attach_prefix(nd, pfx("192.0.2.0/24"));
        let l_ab = bld.link(a_, nb, 100 * MBPS, SimDuration::from_millis(1));
        let l_ac = bld.link(a_, nc, 100 * MBPS, SimDuration::from_millis(1));
        let l_bd = bld.link(nb, nd, 100 * MBPS, SimDuration::from_millis(1));
        let l_cd = bld.link(nc, nd, 100 * MBPS, SimDuration::from_millis(1));
        let topo = bld.build();
        let mut e = Engine::new(topo, SimConfig::default());
        let p = pfx("192.0.2.0/24");
        e.install_route(a_, p, Route::Ecmp(EcmpSet::new(&[l_ab, l_ac])));
        e.install_route(nb, p, Route::Link(l_bd));
        e.install_route(nc, p, Route::Link(l_cd));
        e.add_tap(l_ab);
        e.add_tap(l_ac);
        // 200 flows (distinct ports) of 3 packets each.
        for f in 0..200u16 {
            for k in 0..3u16 {
                let mut pkt = Packet::tcp_flags(
                    Ipv4Addr::new(172, 16, 0, 1),
                    Ipv4Addr::new(192, 0, 2, 50),
                    10_000 + f,
                    80,
                    net_types::TcpFlags::ACK,
                    vec![0u8; 64],
                );
                pkt.ip.ident = f * 4 + k;
                pkt.fill_checksums();
                e.schedule_inject(SimTime(u64::from(f) * 100_000 + u64::from(k)), a_, pkt);
            }
        }
        let report = e.run();
        assert_eq!(report.delivered, 600);
        assert!(report.is_conserved());
        let via_b = e.taps()[0].records.len();
        let via_c = e.taps()[1].records.len();
        assert_eq!(via_b + via_c, 600);
        // Both paths used, roughly balanced (flow hash, 200 flows).
        assert!(via_b > 150 && via_c > 150, "split {via_b}/{via_c}");
        // Flow affinity: all packets of one flow take the same path.
        for tap in e.taps() {
            let mut ports: std::collections::HashMap<u16, u32> = Default::default();
            for r in &tap.records {
                if let Some((sp, _)) = r.packet.ports() {
                    *ports.entry(sp).or_insert(0) += 1;
                }
            }
            assert!(
                ports.values().all(|&c| c == 3),
                "flows must not straddle paths"
            );
        }
    }

    #[test]
    fn ecmp_flow_hash_deterministic() {
        let p1 = test_packet(Ipv4Addr::new(192, 0, 2, 1), 64);
        let p2 = test_packet(Ipv4Addr::new(192, 0, 2, 1), 33); // TTL differs
        assert_eq!(flow_hash(&p1), flow_hash(&p2), "TTL must not affect path");
        let p3 = test_packet(Ipv4Addr::new(192, 0, 2, 2), 64);
        assert_ne!(flow_hash(&p1), flow_hash(&p3));
    }

    #[test]
    #[should_panic(expected = "already has a tap")]
    fn double_tap_rejected() {
        let (topo, _nodes, links) = line_topology();
        let mut e = Engine::new(topo, SimConfig::default());
        e.add_tap(links[0]);
        e.add_tap(links[0]);
    }
}

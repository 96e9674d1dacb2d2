//! The four workloads. Each repetition ("rep") builds its world from the
//! spec, runs it to its stop condition through [`crate::engine::drive`],
//! and checks the outcome. Traffic is generated in simulated time by the
//! simulator's own application models; the host side is a batch run.

use crate::engine::{drive, nanos, EventKind, LoopCounts, LoopTimes};
use itb_core::{ClusterSpec, McpFlavor, RoutingPolicy};
use itb_gm::{AppBehavior, Cluster, ClusterEvent, FlowWorld, FlowWorldEvent, FlowWorldSpec};
use itb_routing::figures;
use itb_sim::{EventQueue, SimDuration, SimRng, SimTime};
use itb_topo::builders::{self, Fig6Testbed};
use itb_topo::HostId;
use std::time::Instant;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_testbed",
    "stream_16sw",
    "poisson_32sw",
    "flows_1024sw",
];

/// Size of a workload's repetition: the benchmark size, or a smoke size
/// for the benchmark's own tests (same code path, less work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Full,
    /// A few milliseconds of work.
    Smoke,
}

/// A workload at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// Repetition size.
    pub scale: Scale,
}

/// One timed interval of a rep (a set-up phase, the event loop, or the gate).
#[derive(Debug, Clone)]
pub struct Phase {
    /// `setup.topology`, `setup.cluster_build`, `setup.flownet_build`,
    /// `setup.start`, `loop` or `gate`.
    pub name: &'static str,
    /// When it began.
    pub start: Instant,
    /// How long it took, in host nanoseconds.
    pub ns: u64,
}

/// The Fig. 6 ping-pong results of one firmware/route configuration: mean
/// half round trip per message size, in sim nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// `fig7.original`, `fig7.modified`, `fig8.ud` or `fig8.itb`.
    pub label: &'static str,
    /// `(size, mean half-RTT ns)` in ladder order.
    pub points: Vec<(u32, f64)>,
}

/// Sim-side outcome of a rep: a pure function of workload and seed, so
/// every rep of a run (traced or not) must produce the same one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Messages (flows on `flows_1024sw`) the workload sent.
    pub attempted: u64,
    /// Delivered exactly once.
    pub delivered: u64,
    /// Not delivered exactly once, plus GM connection failures.
    pub failed: u64,
    /// Still in flight at the horizon of an open-loop run (not failures).
    pub in_flight: u64,
    /// Message latencies, `sent_at` to `delivered_at`, sim picoseconds,
    /// sorted ascending.
    pub latencies_ps: Vec<u64>,
    /// Sim time of the last delivery (summed over the runs of a rep).
    pub makespan_ps: u64,
    /// Named sim-side counters (`nic.itb_forwards`, `flow.solves`, ...).
    pub counters: Vec<(&'static str, u64)>,
    /// Fig. 7 / Fig. 8 curves (`paper_testbed` and the calibration check).
    pub curves: Vec<Curve>,
    /// Correctness problems found by the rep's own gate.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .sum()
    }

    fn add_counter(&mut self, name: &'static str, v: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => slot.1 += v,
            None => self.counters.push((name, v)),
        }
    }

    /// Latency percentile `p` (0–100, nearest rank) in sim microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        let n = self.latencies_ps.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.latencies_ps[rank.clamp(1, n) - 1] as f64 / 1e6
    }
}

/// One repetition: phase timings, exact work counters, optional per-layer
/// times, allocation counts of the event loops, and the sim outcome.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Timed phases in the order they ran.
    pub phases: Vec<Phase>,
    /// Work counters of the event loops.
    pub counts: LoopCounts,
    /// Per-layer host times (traced reps only).
    pub times: Option<LoopTimes>,
    /// Allocation calls inside the event loops.
    pub allocs: u64,
    /// Bytes requested inside the event loops.
    pub alloc_bytes: u64,
    /// What the simulation did.
    pub outcome: Outcome,
}

impl Rep {
    /// Total seconds in phases named `name`.
    pub fn phase_s(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .fold(0.0, |acc, p| acc + p.ns as f64 / 1e9)
    }

    /// Spec to first dispatch: every `setup.*` phase.
    pub fn setup_s(&self) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name.starts_with("setup."))
            .fold(0.0, |acc, p| acc + p.ns as f64 / 1e9)
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.close_phase(name, start);
        out
    }

    /// Record a phase that began at `start` and ends now.
    fn close_phase(&mut self, name: &'static str, start: Instant) {
        let ns = nanos(start.elapsed());
        self.phases.push(Phase { name, start, ns });
    }

    /// Run one event loop inside a `loop` phase.
    fn run_loop<W, F>(
        &mut self,
        world: &mut W,
        q: &mut EventQueue<W::Event>,
        until: SimTime,
        traced: bool,
        observe: F,
    ) where
        W: itb_sim::World,
        W::Event: EventKind,
        F: FnMut(SimTime, &W::Event),
    {
        let run = self.timed("loop", || drive(world, q, until, traced, observe));
        self.allocs += run.allocs.0;
        self.alloc_bytes += run.allocs.1;
        self.counts.absorb(&run.counts);
        if let Some(t) = run.times {
            self.times.get_or_insert_with(LoopTimes::default).absorb(&t);
        }
    }
}

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
        NAMES
            .iter()
            .find(|&&n| n == name)
            .map(|&name| Workload { name, scale })
    }

    /// Run one repetition with traffic seed `seed`.
    pub fn rep(&self, seed: u64, traced: bool) -> Rep {
        let smoke = self.scale == Scale::Smoke;
        match self.name {
            "paper_testbed" => paper_testbed(seed, if smoke { 1 } else { PAPER_ITERS }, traced),
            "stream_16sw" => {
                let (count, perms) = if smoke {
                    (2, 2)
                } else {
                    (STREAM_COUNT, STREAM_PERMS)
                };
                stream_16sw(seed, count, perms, traced)
            }
            "poisson_32sw" => {
                let horizon = if smoke { 100 } else { POISSON_HORIZON_US };
                poisson_32sw(seed, horizon, POISSON_GAP_US, traced)
            }
            "flows_1024sw" => flows_1024sw(seed, smoke, traced),
            other => unreachable!("unknown workload {other}"),
        }
    }
}

/// Recorded ping-pong iterations per size on `paper_testbed`. The paper
/// averages 100; the simulated iterations after warm-up are identical, so
/// 25 give the same means in a quarter of the host time.
pub const PAPER_ITERS: u32 = 25;

/// Mean per-host gap between `poisson_32sw` messages (about 4% injection
/// load). At 40 µs the links near the up*/down* root run close to
/// saturation: tail latency then grows with the horizon and its p99 moves
/// by a third from seed to seed, so no regression bound could hold it.
pub const POISSON_GAP_US: u64 = 80;

/// Simulated horizon of one `poisson_32sw` rep.
pub const POISSON_HORIZON_US: u64 = 4_000;

/// Backstop for runs that drain on their own: a stuck run stops here and
/// fails its delivery gate instead of spinning.
const BACKSTOP: SimTime = SimTime::from_ps(60_000_000_000_000);

/// Fill delivery facts of a finished packet-level cluster into `out`.
/// `horizon_open` marks an open-loop run cut at its horizon, where
/// undelivered messages are in flight rather than failed — unless the
/// fabric dropped anything, in which case they count as failed.
fn cluster_outcome(c: &Cluster, now: SimTime, horizon_open: bool, out: &mut Outcome) {
    let snap = c.metrics_snapshot(now);
    let sum_nic = |suffix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with("nic.") && k.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    };
    let itb_forwards = sum_nic(".itb_forwards");
    let rx_stalls = sum_nic(".rx_stalls");
    let flushed = sum_nic(".flushed");
    let crc_drops = sum_nic(".crc_drops");
    let drops =
        flushed + crc_drops + snap.counter("gm.drops_observed") + snap.counter("net.fault_drops");

    let mut ids: Vec<u32> = c.delivery_log().iter().map(|&(_, _, id)| id).collect();
    ids.sort_unstable();
    let logged = ids.len() as u64;
    ids.dedup();
    let duplicates = logged - ids.len() as u64;

    let mut delivered = 0u64;
    let mut undelivered = 0u64;
    let mut last = SimTime::ZERO;
    for rec in c.messages().values() {
        match rec.delivered_at {
            Some(at) => {
                delivered += 1;
                last = last.max(at);
                out.latencies_ps.push((at - rec.sent_at).as_ps());
            }
            None => undelivered += 1,
        }
    }
    let conn_failures = c.connection_failures().len() as u64;
    let (in_flight, lost) = if horizon_open && drops == 0 {
        (undelivered, 0)
    } else {
        (0, undelivered)
    };
    out.attempted += c.messages().len() as u64;
    out.delivered += delivered.saturating_sub(duplicates);
    out.failed += lost + duplicates + conn_failures;
    out.in_flight += in_flight;
    out.makespan_ps += last.as_ps();
    out.add_counter("nic.itb_forwards", itb_forwards);
    out.add_counter("nic.rx_stalls", rx_stalls);
    out.add_counter("nic.flushed", flushed);
    out.add_counter("gm.retransmissions", snap.counter("gm.retransmissions"));
    out.add_counter("gm.connection_failures", conn_failures);
    if logged != delivered {
        out.problems.push(format!(
            "delivery log holds {logged} entries for {delivered} delivered messages"
        ));
    }
    if duplicates > 0 {
        out.problems
            .push(format!("{duplicates} duplicate deliveries"));
    }
    if conn_failures > 0 {
        out.problems
            .push(format!("{conn_failures} GM connection failures"));
    }
    if lost > 0 {
        out.problems.push(format!(
            "{lost} messages never delivered ({drops} packets dropped)"
        ));
    }
}

// ---------------------------------------------------------------------
// paper_testbed
// ---------------------------------------------------------------------

/// The four Fig. 6 configurations: Fig. 7 (Original vs ITB MCP over
/// up*/down*) and Fig. 8 (UD vs UD-ITB route, ITB MCP).
const PAPER_RUNS: [&str; 4] = ["fig7.original", "fig7.modified", "fig8.ud", "fig8.itb"];

fn paper_spec(label: &str, seed: u64) -> (ClusterSpec, Fig6Testbed) {
    let base = ClusterSpec::fig6_testbed().with_seed(seed);
    let tb = base
        .testbed
        .clone()
        .expect("the Fig. 6 spec carries its testbed");
    let route: Option<fn(&Fig6Testbed) -> itb_routing::SourceRoute> = match label {
        "fig8.ud" => Some(figures::fig8_ud_route),
        "fig8.itb" => Some(figures::fig8_itb_route),
        _ => None,
    };
    let spec = match route {
        None => base
            .with_mcp(if label == "fig7.original" {
                McpFlavor::Original
            } else {
                McpFlavor::Itb
            })
            .with_routing(RoutingPolicy::UpDown),
        Some(r) => base
            .with_mcp(McpFlavor::Itb)
            .with_route_override(r(&tb))
            .with_route_override(figures::fig8_return_route(&tb)),
    };
    (spec, tb)
}

/// Run the four Fig. 6 ping-pongs with `iters` recorded iterations per
/// ladder size (2 warm-up iterations each, as the paper's harness does).
pub fn paper_testbed(seed: u64, iters: u32, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let sizes = itb_core::experiments::allsize_ladder();
    for label in PAPER_RUNS {
        let (spec, tb) = rep.timed("setup.topology", || paper_spec(label, seed));
        let mut behaviors = vec![AppBehavior::Sink; spec.num_hosts()];
        behaviors[tb.host1.idx()] = AppBehavior::PingPong {
            peer: tb.host2,
            sizes: sizes.clone(),
            iters,
            warmup: 2,
        };
        behaviors[tb.host2.idx()] = AppBehavior::Echo;
        let mut cluster = rep.timed("setup.cluster_build", || spec.build(behaviors));
        let mut q = EventQueue::new();
        rep.timed("setup.start", || cluster.start(&mut q));
        rep.run_loop(
            &mut cluster,
            &mut q,
            BACKSTOP,
            traced,
            |_, _: &ClusterEvent| {},
        );
        let start = Instant::now();
        let state = cluster.ping_state(tb.host1);
        if !state.done || !q.is_empty() {
            rep.outcome
                .problems
                .push(format!("{label}: ping-pong did not finish and drain"));
        }
        let points = sizes
            .iter()
            .map(|&s| {
                let rtts: Vec<f64> = state
                    .samples
                    .iter()
                    .filter(|&&(size, _)| size == s)
                    .map(|&(_, rtt)| rtt.as_ns_f64() / 2.0)
                    .collect();
                if rtts.len() != iters as usize {
                    rep.outcome.problems.push(format!(
                        "{label}: {} samples at {s} B, expected {iters}",
                        rtts.len()
                    ));
                }
                (s, rtts.iter().sum::<f64>() / rtts.len().max(1) as f64)
            })
            .collect();
        rep.outcome.curves.push(Curve { label, points });
        cluster_outcome(&cluster, q.now(), false, &mut rep.outcome);
        rep.close_phase("gate", start);
    }
    rep.outcome.latencies_ps.sort_unstable();
    rep
}

/// Fig. 7 average overhead (ns): mean over sizes of modified minus
/// original half round trip.
pub fn fig7_overhead_ns(orig: &Curve, modified: &Curve) -> f64 {
    let d: Vec<f64> = orig
        .points
        .iter()
        .zip(&modified.points)
        .map(|(&(_, o), &(_, m))| m - o)
        .collect();
    d.iter().sum::<f64>() / d.len().max(1) as f64
}

/// Fig. 8 mean per-ITB overhead (µs): twice the half-RTT difference (only
/// one direction carries the ITB), averaged over sizes.
pub fn fig8_overhead_us(ud: &Curve, itb: &Curve) -> f64 {
    let d: Vec<f64> = ud
        .points
        .iter()
        .zip(&itb.points)
        .map(|(&(_, u), &(_, i))| 2.0 * (i - u) / 1000.0)
        .collect();
    d.iter().sum::<f64>() / d.len().max(1) as f64
}

// ---------------------------------------------------------------------
// stream_16sw
// ---------------------------------------------------------------------

/// A seeded derangement of `0..n`: every host gets one partner, never
/// itself. `k` picks one of several independent permutations per seed.
pub fn derangement(n: usize, seed: u64, k: u64) -> Vec<usize> {
    let mut rng = SimRng::new(seed).child(0x5354_5245_414d_0000 + k);
    let mut p: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut p);
    for i in 0..n {
        if p[i] == i {
            let j = (i + 1) % n;
            p.swap(i, j);
        }
    }
    p
}

/// Permutations per `stream_16sw` rep, and messages per host in each.
/// One permutation's contention pattern sets its latencies (per-permutation
/// median latency spreads by about a quarter from seed to seed), so a rep
/// pools many short streams: 32 x 15 keeps the seed-to-seed spread of the
/// sim metrics within a few percent.
pub const STREAM_PERMS: u64 = 32;
/// Messages per host per permutation on `stream_16sw`.
pub const STREAM_COUNT: u32 = 15;

/// 16-switch irregular fabric (64 hosts), ITB routing, GM reliability on;
/// every host streams `count` 512 B messages to its partner in a seeded
/// permutation, all posted at t=0. A rep runs `perms` permutations, each
/// on a freshly built cluster.
pub fn stream_16sw(seed: u64, count: u32, perms: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    for k in 0..perms {
        let spec = rep.timed("setup.topology", || {
            let mut s = ClusterSpec::irregular(16, 1)
                .with_routing(RoutingPolicy::Itb)
                .with_seed(seed);
            s.calib.gm.reliability = true;
            s
        });
        let n = spec.num_hosts();
        let perm = derangement(n, seed, k);
        let behaviors = (0..n)
            .map(|i| AppBehavior::Stream {
                dst: HostId(u16::try_from(perm[i]).expect("host ids fit u16")),
                size: 512,
                count,
            })
            .collect();
        let mut cluster = rep.timed("setup.cluster_build", || spec.build(behaviors));
        let mut q = EventQueue::new();
        rep.timed("setup.start", || cluster.start(&mut q));
        rep.run_loop(
            &mut cluster,
            &mut q,
            BACKSTOP,
            traced,
            |_, _: &ClusterEvent| {},
        );
        let start = Instant::now();
        let before = (rep.outcome.attempted, rep.outcome.delivered);
        cluster_outcome(&cluster, q.now(), false, &mut rep.outcome);
        let expected = n as u64 * u64::from(count);
        let (sent, got) = (
            rep.outcome.attempted - before.0,
            rep.outcome.delivered - before.1,
        );
        if sent != expected || got != expected {
            rep.outcome.problems.push(format!(
                "stream perm {k}: {sent} of {expected} messages sent, {got} delivered"
            ));
        }
        if !q.is_empty() {
            rep.outcome
                .problems
                .push(format!("stream perm {k}: queue did not drain"));
        }
        rep.close_phase("gate", start);
    }
    rep.outcome.latencies_ps.sort_unstable();
    rep
}

// ---------------------------------------------------------------------
// poisson_32sw
// ---------------------------------------------------------------------

/// 32-switch irregular fabric (128 hosts), ITB routing; every host sends
/// 512 B messages to uniform random destinations with `gap_us` mean gaps
/// (open loop in sim time), timeline and health sampling every 50 µs, cut at a
/// fixed horizon.
pub fn poisson_32sw(seed: u64, horizon_us: u64, gap_us: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let spec = rep.timed("setup.topology", || {
        ClusterSpec::irregular(32, 1)
            .with_routing(RoutingPolicy::Itb)
            .with_seed(seed)
    });
    let behaviors = vec![
        AppBehavior::Poisson {
            size: 512,
            mean_gap: SimDuration::from_us(gap_us),
            limit: 0,
        };
        spec.num_hosts()
    ];
    let mut cluster = rep.timed("setup.cluster_build", || spec.build(behaviors));
    let mut q = EventQueue::new();
    rep.timed("setup.start", || {
        cluster.enable_timeline(SimDuration::from_us(50));
        cluster.enable_health(SimDuration::from_us(50), SimDuration::from_ms(50));
        cluster.start(&mut q);
    });
    let horizon = SimTime::ZERO + SimDuration::from_us(horizon_us);
    rep.run_loop(
        &mut cluster,
        &mut q,
        horizon,
        traced,
        |_, _: &ClusterEvent| {},
    );
    let start = Instant::now();
    cluster_outcome(&cluster, horizon, true, &mut rep.outcome);
    match cluster.health_report(horizon) {
        Some(h) if h.healthy => {}
        Some(h) => rep
            .outcome
            .problems
            .push(format!("poisson: unhealthy run: {:?}", h.violations)),
        None => rep
            .outcome
            .problems
            .push("poisson: no health report".into()),
    }
    let samples = cluster.take_timeline().map_or(0, |t| t.len() as u64);
    if samples == 0 {
        rep.outcome
            .problems
            .push("poisson: timeline recorded nothing".into());
    }
    rep.outcome.add_counter("obs.timeline_samples", samples);
    rep.outcome.latencies_ps.sort_unstable();
    rep.close_phase("gate", start);
    rep
}

// ---------------------------------------------------------------------
// flows_1024sw
// ---------------------------------------------------------------------

/// `FlowWorld` on the 1024-switch irregular preset (4096 hosts), 30 flows
/// of 64 KiB per host with seeded exponential arrivals (100 µs mean gap)
/// and 1 ms rate-solve rounds. Smoke scale uses a 24-switch fabric.
pub fn flows_1024sw(seed: u64, smoke: bool, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let topo = rep.timed("setup.topology", || {
        if smoke {
            builders::irregular_big(24, builders::IRREGULAR1024_SEED)
        } else {
            builders::irregular1024()
        }
    });
    let spec = FlowWorldSpec {
        flows_per_host: if smoke { 4 } else { 30 },
        flow_bytes: if smoke { 16_384 } else { 65_536 },
        mean_gap: SimDuration::from_us(100),
        round: SimDuration::from_ms(1),
        seed,
        link_bytes_per_ns: 0.16,
    };
    let total = u64::from(spec.flows_per_host) * topo.num_hosts() as u64;
    let mut world = rep.timed("setup.flownet_build", || FlowWorld::new(&topo, spec));
    let mut q = EventQueue::new();
    rep.timed("setup.start", || world.start(&mut q));
    // FlowWorld numbers flows in arrival order, so the k-th dispatched
    // arrival opened flow k; its completion time closes the flow.
    let mut opened_at: Vec<SimTime> = Vec::with_capacity(total as usize);
    let mut done_at: Vec<Option<SimTime>> = vec![None; total as usize];
    let mut duplicates = 0u64;
    let mut unknown = 0u64;
    rep.run_loop(
        &mut world,
        &mut q,
        BACKSTOP,
        traced,
        |now, ev: &FlowWorldEvent| match *ev {
            FlowWorldEvent::Arrival { .. } => opened_at.push(now),
            FlowWorldEvent::Deliver { id } => match done_at.get_mut(id as usize) {
                Some(slot @ None) => *slot = Some(now),
                Some(Some(_)) => duplicates += 1,
                None => unknown += 1,
            },
            FlowWorldEvent::Round => {}
        },
    );
    let start = Instant::now();
    let out = &mut rep.outcome;
    out.attempted = opened_at.len() as u64;
    for (id, d) in done_at.iter().enumerate() {
        if let (Some(at), Some(&open)) = (d, opened_at.get(id)) {
            out.delivered += 1;
            out.latencies_ps.push((*at - open).as_ps());
            out.makespan_ps = out.makespan_ps.max(at.as_ps());
        }
    }
    out.failed = (total - out.delivered) + duplicates + unknown;
    if out.attempted != total || out.delivered != total || world.delivered() != total {
        out.problems.push(format!(
            "flows: {} opened, {} delivered by the benchmark's count, {} by FlowWorld, expected {total}",
            out.attempted,
            out.delivered,
            world.delivered()
        ));
    }
    if duplicates + unknown > 0 {
        out.problems.push(format!(
            "flows: {duplicates} duplicate and {unknown} unknown completions"
        ));
    }
    if !smoke && world.peak_live() < 100_000 {
        out.problems
            .push(format!("flows: peak live {} below 100k", world.peak_live()));
    }
    out.add_counter("flow.solves", world.solves());
    out.add_counter("flow.service_ops", world.service_ops());
    out.add_counter("flow.peak_live", world.peak_live() as u64);
    out.latencies_ps.sort_unstable();
    rep.close_phase("gate", start);
    rep
}

// ---------------------------------------------------------------------
// Paper-accuracy gate
// ---------------------------------------------------------------------

/// The paper's Fig. 7 average overhead, ns.
pub const PAPER_FIG7_NS: f64 = 125.0;
/// The paper's Fig. 8 per-ITB overhead, µs.
pub const PAPER_FIG8_US: f64 = 1.3;

/// Load the committed Fig. 7 / Fig. 8 curves from `<root>/results`.
pub fn committed_curves(root: &std::path::Path) -> Result<Vec<Curve>, String> {
    let mut curves = Vec::new();
    for (file, keys) in [
        (
            "fig7.json",
            [("original", "fig7.original"), ("modified", "fig7.modified")],
        ),
        ("fig8.json", [("ud", "fig8.ud"), ("itb", "fig8.itb")]),
    ] {
        let path = root.join("results").join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for (key, label) in keys {
            let points = doc
                .get(key)
                .and_then(|c| c.get("points"))
                .and_then(|p| p.arr())
                .ok_or_else(|| format!("{}: no {key}.points", path.display()))?
                .iter()
                .map(|p| {
                    let size = p.get("size").and_then(|s| s.num());
                    let mean = p
                        .get("half_rtt_ns")
                        .and_then(|h| h.get("mean"))
                        .and_then(|m| m.num());
                    match (size, mean) {
                        (Some(s), Some(m)) => Ok((s as u32, m)),
                        _ => Err(format!("{}: malformed point in {key}", path.display())),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            curves.push(Curve { label, points });
        }
    }
    Ok(curves)
}

/// Fig. 7 average overhead (ns) and Fig. 8 per-ITB overhead (µs) of a set
/// of curves.
pub fn paper_summaries(curves: &[Curve]) -> Option<(f64, f64)> {
    let find = |l: &str| curves.iter().find(|c| c.label == l);
    Some((
        fig7_overhead_ns(find("fig7.original")?, find("fig7.modified")?),
        fig8_overhead_us(find("fig8.ud")?, find("fig8.itb")?),
    ))
}

/// Compare simulated curves against the committed ones: every per-size
/// mean and both summaries must match (to float-rounding precision).
pub fn paper_gate(sim: &[Curve], committed: &[Curve]) -> Vec<String> {
    let mut problems = Vec::new();
    for c in committed {
        let Some(s) = sim.iter().find(|s| s.label == c.label) else {
            problems.push(format!("{}: curve missing", c.label));
            continue;
        };
        if s.points.len() != c.points.len() {
            problems.push(format!(
                "{}: {} sizes, committed {}",
                c.label,
                s.points.len(),
                c.points.len()
            ));
        }
        for (&(size, got), &(csize, want)) in s.points.iter().zip(&c.points) {
            if size != csize || (got - want).abs() > 1e-6 {
                problems.push(format!(
                    "{}: {size} B -> {got} ns, committed {csize} B -> {want} ns",
                    c.label
                ));
            }
        }
    }
    match (paper_summaries(sim), paper_summaries(committed)) {
        (Some((f7, f8)), Some((c7, c8))) => {
            if (f7 - c7).abs() > 1e-6 || (f8 - c8).abs() > 1e-9 {
                problems.push(format!(
                    "summaries {f7} ns / {f8} us, committed {c7} ns / {c8} us"
                ));
            }
        }
        _ => problems.push("Fig. 7/8 summaries unavailable".into()),
    }
    problems
}

//! Perf gauntlet: the simulator's own wall-clock benchmark.
//!
//! The paper counts firmware nanoseconds; this harness counts *our*
//! nanoseconds — how many simulation events per second the engine
//! dispatches, and how many heap allocations each simulated packet costs.
//! It runs the Figure-6 testbed workloads plus a larger synthetic
//! multi-switch fabric under load, prints a table, and writes:
//!
//! * `results/perf_gauntlet.json` — the full report (wall-clock included),
//! * `results/perf_gauntlet_digest.json` — only the deterministic sim-side
//!   numbers (events, sim time, deliveries), byte-identical across same-seed
//!   runs; CI compares two smoke runs of this file,
//! * `BENCH_perf.json` at the workspace root (full mode only) — the
//!   events/sec trajectory every future PR must not regress.
//!
//! `cargo run --release -p itb-bench --bin perf_gauntlet [--smoke] [--label NAME]`

// The counting allocator below is the one sanctioned unsafe block in the
// workspace; everything else is denied (U001).
#![deny(unsafe_code)]

use itb_core::ClusterSpec;
use itb_gm::{AppBehavior, Cluster, ClusterEvent, FlowWorld, FlowWorldSpec};
use itb_nic::McpFlavor;
use itb_routing::{figures, RoutingPolicy};
use itb_sim::{run_until, run_while, EventQueue, SimDuration, SimTime};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
// detlint::allow(D002, the gauntlet measures wall-clock throughput by design; sim facts go in the digest)
use std::time::Instant;

/// Counting wrapper around the system allocator: every `alloc`/`realloc`
/// bumps a global counter, so scenarios can report allocations per packet.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counters are side effects.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Full per-scenario report (wall-clock and allocation numbers vary run to
/// run; the digest subset below does not).
#[derive(Debug, Clone, Serialize)]
struct ScenarioReport {
    name: String,
    events: u64,
    sim_us: f64,
    delivered: u64,
    injected: u64,
    wall_s: f64,
    events_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    allocs_per_packet: f64,
}

/// The deterministic subset: a pure function of the scenario seed, so two
/// same-mode runs must serialize byte-identically (the CI perf smoke).
#[derive(Debug, Clone, Serialize)]
struct ScenarioDigest {
    name: String,
    events: u64,
    sim_us: f64,
    delivered: u64,
    injected: u64,
}

impl ScenarioReport {
    fn digest(&self) -> ScenarioDigest {
        ScenarioDigest {
            name: self.name.clone(),
            events: self.events,
            sim_us: self.sim_us,
            delivered: self.delivered,
            injected: self.injected,
        }
    }
}

/// Run one prepared cluster to its stop condition, measuring wall time,
/// dispatched events and allocation cost.
fn measure(
    name: &str,
    cluster: &mut Cluster,
    q: &mut EventQueue<ClusterEvent>,
    run: impl FnOnce(&mut Cluster, &mut EventQueue<ClusterEvent>),
) -> ScenarioReport {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    // detlint::allow(D002, wall-clock section: Mev/s and allocs/packet are host-side metrics)
    let t0 = Instant::now();
    run(cluster, q);
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - b0;
    let events = q.events_dispatched();
    let injected = cluster.net.stats().injected;
    ScenarioReport {
        name: name.to_string(),
        events,
        sim_us: q.now().as_us_f64(),
        delivered: cluster.delivered_count() as u64,
        injected,
        wall_s,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        allocs,
        alloc_bytes,
        allocs_per_packet: allocs as f64 / injected.max(1) as f64,
    }
}

/// Figure-6 testbed, ITB route, ping-pong over the size ladder — the
/// paper's own workload, exercising the ITB firmware path.
fn fig6_pingpong(iters: u32) -> ScenarioReport {
    let base = ClusterSpec::fig6_testbed().with_mcp(McpFlavor::Itb);
    let tb = base.testbed.clone().expect("testbed spec");
    let spec = base
        .with_route_override(figures::fig8_itb_route(&tb))
        .with_route_override(figures::fig8_return_route(&tb));
    let sizes = itb_core::experiments::allsize_ladder();
    let n = spec.num_hosts();
    let mut behaviors = vec![AppBehavior::Sink; n];
    behaviors[tb.host1.idx()] = AppBehavior::PingPong {
        peer: tb.host2,
        sizes,
        iters,
        warmup: 2,
    };
    behaviors[tb.host2.idx()] = AppBehavior::Echo;
    let mut cluster = spec.build(behaviors);
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    measure("fig6_pingpong_itb", &mut cluster, &mut q, |c, q| {
        run_while(c, q, |c| !c.all_pingpongs_done());
    })
}

/// A 16-switch irregular fabric streaming a permutation pattern — sustained
/// wormhole traffic across the core, no randomness in arrivals.
fn perm_stream_16sw(count: u32) -> ScenarioReport {
    let spec = ClusterSpec::irregular(16, 1).with_routing(RoutingPolicy::Itb);
    let n = spec.num_hosts();
    let behaviors: Vec<AppBehavior> = (0..n)
        .map(|i| AppBehavior::Stream {
            dst: itb_topo::HostId(((i + n / 2) % n) as u16),
            size: 512,
            count,
        })
        .collect();
    let mut cluster = spec.build(behaviors);
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    let expected = n * count as usize;
    measure("perm_stream_16sw", &mut cluster, &mut q, move |c, q| {
        run_while(c, q, |c| c.delivered_count() < expected);
    })
}

/// A Poisson-loaded irregular fabric of `switches` switches (4 hosts each)
/// run for a fixed simulated window. The 32-switch run is the workload
/// class the BENCH trajectory gates on; the 64-switch run doubles the host
/// count.
///
/// `sample` turns on timeline + health sampling and writes their
/// artifacts: the committed BENCH trajectory prices observability in, so a
/// regression in the sampling path shows up as a throughput regression
/// here. Smoke runs keep sampling off.
fn large_load(name: &str, switches: usize, window_us: u64, sample: bool) -> ScenarioReport {
    let spec = ClusterSpec::irregular(switches, 1).with_routing(RoutingPolicy::Itb);
    let n = spec.num_hosts();
    let behaviors = vec![
        AppBehavior::Poisson {
            size: 512,
            mean_gap: SimDuration::from_us(40),
            limit: 0,
        };
        n
    ];
    let horizon = SimTime::ZERO + SimDuration::from_us(window_us);
    let mut cluster = spec.build(behaviors);
    if sample {
        cluster.enable_timeline(SimDuration::from_us(50));
        cluster.enable_health(SimDuration::from_us(50), SimDuration::from_ms(50));
    }
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    let report = measure(name, &mut cluster, &mut q, move |c, q| {
        run_until(c, q, horizon);
    });
    if sample {
        // Prove the observers actually ran, then write their artifacts.
        let t = cluster.take_timeline().expect("timeline was enabled");
        assert!(!t.is_empty(), "a sampled load run must record intervals");
        itb_bench::dump_stream(&format!("{name}_timeline.jsonl"), |w| t.write_jsonl(w));
        let h = cluster.health_report(q.now()).expect("health was enabled");
        assert!(
            h.healthy,
            "loaded {name} run must stay healthy: {:?}",
            h.violations
        );
        itb_bench::dump_stream(&format!("{name}_health.json"), |w| h.write_json(w));
    }
    report
}

/// The planet-scale scenario: the 1024-switch irregular fabric (4096
/// hosts) driven entirely by the hybrid engine's flow side. A packet-level
/// Cluster at this scale would precompute ~16.7 million source routes
/// before the first event fired; the flow engine models the same fabric
/// with per-flow max-min rates and coarse solve rounds, which is the whole
/// point of the hybrid split.
///
/// Throughput accounting: a flow round does real modelling work for every
/// live flow (rate solve share + service commit), so the scenario reports
/// *equivalent events* — dispatched queue events plus per-flow service
/// touches (`FlowWorld::service_ops`). The BENCH trajectory gates on that
/// number; `injected` counts opened flows so allocs/packet reads as
/// allocations per flow.
///
/// Full mode runs 4096 hosts x 30 flows (122 880 flows, >100k live at the
/// peak — asserted, it is the scenario's reason to exist). Smoke mode
/// shrinks the fabric but keeps the exact same code path for the CI digest
/// byte-compare.
fn large_load_1024sw(smoke: bool) -> ScenarioReport {
    let (topo, spec) = if smoke {
        (
            itb_topo::builders::irregular_big(24, itb_topo::builders::IRREGULAR1024_SEED),
            FlowWorldSpec {
                flows_per_host: 4,
                flow_bytes: 16_384,
                mean_gap: SimDuration::from_us(50),
                round: SimDuration::from_us(200),
                seed: 1024,
                link_bytes_per_ns: 0.16,
            },
        )
    } else {
        (
            itb_topo::builders::irregular1024(),
            FlowWorldSpec {
                flows_per_host: 30,
                flow_bytes: 65_536,
                mean_gap: SimDuration::from_us(100),
                round: SimDuration::from_ms(1),
                seed: 1024,
                link_bytes_per_ns: 0.16,
            },
        )
    };
    let total_flows = u64::from(spec.flows_per_host) * topo.num_hosts() as u64;
    let mut w = FlowWorld::new(&topo, spec);
    let mut q = EventQueue::new();
    w.start(&mut q);
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    // detlint::allow(D002, wall-clock section: Mev/s and allocs/packet are host-side metrics)
    let t0 = Instant::now();
    // The queue drains itself once the last flow delivers; the generous
    // horizon is a stuck-run backstop, not a workload parameter.
    run_until(&mut w, &mut q, SimTime::ZERO + SimDuration::from_ms(60_000));
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - b0;
    assert_eq!(w.delivered(), total_flows, "every flow must drain");
    if !smoke {
        assert!(
            w.peak_live() >= 100_000,
            "planet-scale scenario must hold 100k+ concurrent flows (peak_live={})",
            w.peak_live()
        );
    }
    let events = q.events_dispatched() + w.service_ops();
    eprintln!(
        "  1024sw: flows={total_flows} peak_live={} solves={} rounds_sim_us={:.0}",
        w.peak_live(),
        w.solves(),
        q.now().as_us_f64()
    );
    ScenarioReport {
        name: "large_load_1024sw".to_string(),
        events,
        sim_us: q.now().as_us_f64(),
        delivered: w.delivered(),
        injected: total_flows,
        wall_s,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        allocs,
        alloc_bytes,
        allocs_per_packet: allocs as f64 / total_flows.max(1) as f64,
    }
}

#[derive(Debug, Serialize)]
struct GauntletReport {
    mode: &'static str,
    scenarios: Vec<ScenarioReport>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "current".to_string());

    // Smoke mode: tiny deterministic runs for the CI byte-compare. Full
    // mode: long enough that events/sec is a stable engine metric. The
    // 64-switch fabric carries twice the host count and runs a shorter
    // window.
    let (pp_iters, stream_count, window_us, window_64_us) = if smoke {
        (2, 4, 300, 300)
    } else {
        (40, 60, 4000, 1500)
    };

    eprintln!(
        "running perf gauntlet ({})...",
        if smoke { "smoke" } else { "full" }
    );
    let scenarios = vec![
        fig6_pingpong(pp_iters),
        perm_stream_16sw(stream_count),
        large_load("large_load_32sw", 32, window_us, !smoke),
        // Historical `_par` name: the digest and BENCH_perf.json key on it.
        large_load("large_load_64sw_par", 64, window_64_us, false),
        large_load_1024sw(smoke),
    ];

    println!("# Perf gauntlet — simulator wall-clock throughput");
    println!(
        "{:<22} {:>12} {:>10} {:>9} {:>8} {:>14} {:>12}",
        "scenario", "events", "sim(us)", "wall(s)", "Mev/s", "allocs/packet", "delivered"
    );
    for s in &scenarios {
        println!(
            "{:<22} {:>12} {:>10.1} {:>9.3} {:>8.2} {:>14.1} {:>12}",
            s.name,
            s.events,
            s.sim_us,
            s.wall_s,
            s.events_per_sec / 1e6,
            s.allocs_per_packet,
            s.delivered
        );
    }

    let report = GauntletReport {
        mode: if smoke { "smoke" } else { "full" },
        scenarios: scenarios.clone(),
    };
    itb_bench::dump_json("perf_gauntlet", &report);
    let digest: Vec<ScenarioDigest> = scenarios.iter().map(|s| s.digest()).collect();
    itb_bench::dump_json("perf_gauntlet_digest", &digest);

    // The committed trajectory: full runs append/update their labelled
    // entry so each PR's speedup is measured against the recorded baseline.
    if !smoke {
        update_bench_perf(&label, &scenarios);
    }
}

/// One trajectory entry of `BENCH_perf.json`, serialized on a single line
/// so the file can be spliced without a JSON parser (the vendored
/// serde_json stub only serializes).
#[derive(Debug, Serialize)]
struct TrajectoryEntry {
    label: String,
    events_per_sec: Vec<(String, f64)>,
    allocs_per_packet: Vec<(String, f64)>,
}

/// Merge this run into `BENCH_perf.json` (workspace root): one entry per
/// label, one line per entry, most recent run for a label wins. The file
/// stays valid JSON; the line discipline is the append convention.
fn update_bench_perf(label: &str, scenarios: &[ScenarioReport]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_perf.json");
    let entry = TrajectoryEntry {
        label: label.to_string(),
        events_per_sec: scenarios
            .iter()
            .map(|s| (s.name.clone(), s.events_per_sec))
            .collect(),
        allocs_per_packet: scenarios
            .iter()
            .map(|s| (s.name.clone(), s.allocs_per_packet))
            .collect(),
    };
    let line = format!(
        "    {}",
        serde_json::to_string(&entry).expect("entry serializes")
    );
    let needle = format!("\"label\":\"{label}\"");
    let mut lines: Vec<String> = match std::fs::read_to_string(&path) {
        Ok(s) => s.lines().map(str::to_string).collect(),
        Err(_) => vec![
            "{".into(),
            "  \"benchmark\": \"perf_gauntlet\",".into(),
            "  \"unit\": \"events_per_sec (wall-clock)\",".into(),
            "  \"trajectory\": [".into(),
            "  ]".into(),
            "}".into(),
        ],
    };
    if let Some(slot) = lines.iter_mut().find(|l| l.contains(&needle)) {
        let keep_comma = slot.trim_end().ends_with(',');
        *slot = if keep_comma { format!("{line},") } else { line };
    } else {
        let close = lines
            .iter()
            .position(|l| l.trim() == "]")
            .expect("trajectory array close");
        if close > 0 && lines[close - 1].trim().starts_with('{') {
            let prev = &mut lines[close - 1];
            if !prev.trim_end().ends_with(',') {
                prev.push(',');
            }
        }
        lines.insert(close, line);
    }
    let mut txt = lines.join("\n");
    txt.push('\n');
    std::fs::write(&path, txt).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("[wrote {}]", path.display());
}

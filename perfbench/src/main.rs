//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--root <repo>] [--trace-out <file>]`
//!
//! Runs one workload on the sequential engine in this process and thread:
//! one untimed warm-up rep, then timed reps until `--seconds` have passed
//! (at least [`MIN_REPS`]). Every rep must reproduce the warm-up's sim
//! outcome and work counters exactly. With `--trace 0` the result line
//! carries the end-to-end metrics; with `--trace 1` reps alternate
//! untraced/traced, the result line carries the per-layer metrics, and the
//! aggregated spans go to `--trace-out`.
//!
//! The last line of standard output is the JSON result.

use perfbench::alloc;
use perfbench::report::{median, num, result_line, Metrics};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, Outcome, Rep, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Fewest timed reps per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut root = PathBuf::from(".");
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::by_name(&v, Scale::Full).ok_or_else(|| {
                    format!("unknown workload {v:?}; one of {:?}", workloads::NAMES)
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--root" => root = PathBuf::from(value()?),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        root,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let committed = match workloads::committed_curves(&args.root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot load the committed Fig. 7/8 results: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let mut problems: Vec<String> = Vec::new();
    let epoch = Instant::now();

    // Warm-up rep: fills caches and fixes the reference outcome.
    let reference = wl.rep(args.seed, false);
    // Peak memory of set-up plus one run. Read here because later reps
    // reuse freed heap unevenly, so the process peak would depend on how
    // many reps fit in `--seconds`.
    let rss = alloc::peak_rss_mb();
    problems.extend(reference.outcome.problems.iter().cloned());

    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    while plain.len() + traced.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        let tracing = args.trace && (plain.len() + traced.len()) % 2 == 1;
        let mut rep = wl.rep(args.seed, tracing);
        let i = plain.len() + traced.len() + 1;
        if rep.outcome != reference.outcome {
            problems.push(format!("rep {i}: sim outcome differs from the warm-up rep"));
        }
        // Keep only the totals: holding every rep's latency samples would
        // make peak memory grow with the number of reps.
        rep.outcome = Outcome {
            attempted: rep.outcome.attempted,
            delivered: rep.outcome.delivered,
            failed: rep.outcome.failed,
            ..Outcome::default()
        };
        if rep.counts != reference.counts {
            problems.push(format!(
                "rep {i} ({}): work counters differ from the warm-up rep",
                if tracing { "traced" } else { "untraced" }
            ));
        }
        if tracing {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();

    // Paper accuracy: the timed workload itself on paper_testbed, a
    // one-iteration calibration of the same four runs elsewhere.
    let calibration;
    let curves = if wl.name == "paper_testbed" {
        &reference.outcome.curves
    } else {
        calibration = workloads::paper_testbed(args.seed, 1, false);
        problems.extend(calibration.outcome.problems.iter().cloned());
        &calibration.outcome.curves
    };
    problems.extend(workloads::paper_gate(curves, &committed));
    let (fig7_ns, fig8_us) = workloads::paper_summaries(curves).unwrap_or((0.0, 0.0));

    let out = &reference.outcome;
    let counts = &reference.counts;
    let attempted: u64 = all.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.outcome.failed).sum();
    let delivered = out.delivered.max(1) as f64;
    let setup: Vec<f64> = all.iter().map(|r| r.setup_s()).collect();

    // Work counters: machine-independent, identical on every rep.
    let kinds: Vec<String> = counts
        .by_kind
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    let flit_events = counts.kind("net.tx_done") + counts.kind("net.rx_flit");
    println!(
        "workload {} seed {}: {} timed reps ({} traced), {} sent / {} delivered / {} in flight / {} failed per rep",
        wl.name,
        args.seed,
        all.len(),
        traced.len(),
        out.attempted,
        out.delivered,
        out.in_flight,
        out.failed
    );
    println!("counters: events={} {}", counts.pops, kinds.join(" "));
    println!(
        "counters: queue pushes={} pops={} max_depth={} flit_events_per_msg={:.3} allocs_per_msg={:.3}",
        counts.pushes,
        counts.pops,
        counts.max_depth,
        flit_events as f64 / delivered,
        reference.allocs as f64 / delivered
    );
    let sim_counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    println!("counters: {}", sim_counters.join(" "));

    let mut m = Metrics::default();
    if !args.trace {
        let rates: Vec<f64> = plain
            .iter()
            .map(|r| r.outcome.delivered as f64 / r.phase_s("loop"))
            .collect();
        m.push("delivered_per_s", median(&rates), "1/s");
        m.push("setup_s", median(&setup), "s");
        if rss.is_none() {
            problems.push("peak RSS unavailable (no VmHWM in /proc/self/status)".into());
        }
        m.push("peak_rss_mb", rss.unwrap_or(0.0), "MiB");
        m.push("sim_latency_p50_us", out.latency_us(50.0), "sim_us");
        m.push("sim_latency_p99_us", out.latency_us(99.0), "sim_us");
        m.push("sim_makespan_us", out.makespan_ps as f64 / 1e6, "sim_us");
        m.push(
            "fig7_error_pct",
            (fig7_ns - workloads::PAPER_FIG7_NS).abs() / workloads::PAPER_FIG7_NS * 100.0,
            "%",
        );
        m.push(
            "fig8_error_pct",
            (fig8_us - workloads::PAPER_FIG8_US).abs() / workloads::PAPER_FIG8_US * 100.0,
            "%",
        );
        println!(
            "latency samples per rep: {} (p99 has {} beyond it); Fig. 7 {fig7_ns:.1} ns, Fig. 8 {fig8_us:.4} us",
            out.latencies_ps.len(),
            out.latencies_ps.len() / 100
        );
    } else {
        per_layer_metrics(&mut m, &reference, &plain, &traced, &all);
    }
    for (name, value, unit) in &m.0 {
        println!("{name:<28} {:>18} {unit}", num(*value));
    }

    if args.trace {
        let mut tracer = Tracer::new(epoch);
        for r in &traced {
            tracer.record_rep(r);
        }
        if let Some(path) = &args.trace_out {
            let header = [
                ("workload", format!("\"{}\"", wl.name)),
                ("seed", args.seed.to_string()),
                ("untraced_reps", plain.len().to_string()),
                ("traced_reps", traced.len().to_string()),
                (
                    "trace_overhead_pct",
                    num(m.get("trace.overhead_pct").unwrap_or(0.0)),
                ),
            ];
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, tracer.to_json(&header)));
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => problems.push(format!("cannot write spans to {}: {e}", path.display())),
            }
        }
    }

    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &m));
    ExitCode::SUCCESS
}

/// Per-layer metrics of a `--trace 1` run. Counts come from the reference
/// rep (every rep has the same); times from the traced reps; set-up phase
/// times are medians over all timed reps.
fn per_layer_metrics(
    m: &mut Metrics,
    reference: &Rep,
    plain: &[Rep],
    traced: &[Rep],
    all: &[&Rep],
) {
    let counts = &reference.counts;
    let out = &reference.outcome;
    let delivered = out.delivered.max(1) as f64;
    let phase = |name: &str| median(&all.iter().map(|r| r.phase_s(name)).collect::<Vec<_>>());
    m.push("setup.topology_s", phase("setup.topology"), "s");
    m.push("setup.cluster_build_s", phase("setup.cluster_build"), "s");
    m.push("setup.flownet_build_s", phase("setup.flownet_build"), "s");
    m.push("setup.start_s", phase("setup.start"), "s");

    let mut times = perfbench::LoopTimes::default();
    let mut traced_counts = perfbench::LoopCounts::default();
    for r in traced {
        if let Some(t) = &r.times {
            times.absorb(t);
        }
        traced_counts.absorb(&r.counts);
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let kind_ns = |k: &str| per(times.handle(k), traced_counts.kind(k));

    m.push("sim.pop.count", counts.pops as f64, "count");
    m.push(
        "sim.pop.ns_per_call",
        per(times.pop_ns, traced_counts.pops),
        "ns",
    );
    m.push("sim.push.count", counts.pushes as f64, "count");
    m.push("sim.queue.max_depth", counts.max_depth as f64, "count");

    m.push(
        "net.tx_done.count",
        counts.kind("net.tx_done") as f64,
        "count",
    );
    m.push("net.tx_done.ns_per_event", kind_ns("net.tx_done"), "ns");
    m.push(
        "net.rx_flit.count",
        counts.kind("net.rx_flit") as f64,
        "count",
    );
    m.push("net.rx_flit.ns_per_event", kind_ns("net.rx_flit"), "ns");
    m.push("net.ctrl.count", counts.kind("net.ctrl") as f64, "count");
    m.push(
        "net.route_ready.count",
        counts.kind("net.route_ready") as f64,
        "count",
    );
    m.push(
        "net.flit_events_per_msg",
        (counts.kind("net.tx_done") + counts.kind("net.rx_flit")) as f64 / delivered,
        "count/msg",
    );

    m.push("nic.cpu.count", counts.kind("nic.cpu") as f64, "count");
    m.push("nic.cpu.ns_per_event", kind_ns("nic.cpu"), "ns");
    m.push("nic.dma.count", counts.kind("nic.dma") as f64, "count");
    m.push("nic.dma.ns_per_event", kind_ns("nic.dma"), "ns");
    m.push(
        "nic.itb_forwards",
        out.counter("nic.itb_forwards") as f64,
        "count",
    );
    m.push(
        "nic.rx_stalls",
        out.counter("nic.rx_stalls") as f64,
        "count",
    );

    m.push("gm.host.count", counts.kind("gm.host") as f64, "count");
    m.push("gm.host.ns_per_event", kind_ns("gm.host"), "ns");
    m.push(
        "gm.retransmissions",
        out.counter("gm.retransmissions") as f64,
        "count",
    );
    let handle_total: u64 = times.handle_ns.iter().map(|&(_, ns)| ns).sum();
    m.push(
        "gm.handle.ns_per_event",
        per(handle_total, traced_counts.pops),
        "ns",
    );

    m.push(
        "obs.sample.count",
        counts.kind("obs.sample") as f64,
        "count",
    );
    m.push("obs.sample.ns_per_event", kind_ns("obs.sample"), "ns");

    m.push(
        "flow.round.count",
        counts.kind("flow.round") as f64,
        "count",
    );
    m.push("flow.round.ns_per_event", kind_ns("flow.round"), "ns");
    m.push(
        "flow.arrival.count",
        counts.kind("flow.arrival") as f64,
        "count",
    );
    m.push("flow.arrival.ns_per_event", kind_ns("flow.arrival"), "ns");
    m.push(
        "flow.deliver.count",
        counts.kind("flow.deliver") as f64,
        "count",
    );
    m.push("flow.solves", out.counter("flow.solves") as f64, "count");
    m.push(
        "flow.service_ops",
        out.counter("flow.service_ops") as f64,
        "count",
    );
    m.push(
        "flow.peak_live",
        out.counter("flow.peak_live") as f64,
        "count",
    );

    m.push("run.events", counts.pops as f64, "count");
    m.push(
        "run.allocs_per_msg",
        reference.allocs as f64 / delivered,
        "count/msg",
    );
    m.push(
        "run.alloc_bytes_per_msg",
        reference.alloc_bytes as f64 / delivered,
        "B/msg",
    );
    let self_ns = times
        .loop_ns
        .saturating_sub(times.pop_ns)
        .saturating_sub(handle_total);
    m.push("run.loop_self_pct", per(self_ns * 100, times.loop_ns), "%");
    let loop_s = |reps: &[Rep]| median(&reps.iter().map(|r| r.phase_s("loop")).collect::<Vec<_>>());
    m.push(
        "trace.overhead_pct",
        (loop_s(traced) / loop_s(plain) - 1.0) * 100.0,
        "%",
    );
}

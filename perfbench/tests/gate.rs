//! The benchmark's own tests: counter consistency, tracing that does not
//! perturb the model, and a smoke-sized run of every workload through the
//! correctness gate.

use perfbench::trace::Tracer;
use perfbench::workloads::{self, Scale, Workload, NAMES};
use std::path::Path;

fn smoke(name: &str) -> Workload {
    Workload::by_name(name, Scale::Smoke).expect("known workload")
}

#[test]
fn per_kind_tallies_sum_to_events_dispatched() {
    for name in NAMES {
        let rep = smoke(name).rep(3, false);
        let sum: u64 = rep.counts.by_kind.iter().map(|&(_, n)| n).sum();
        assert!(rep.counts.pops > 0, "{name}: no events");
        assert_eq!(
            sum, rep.counts.pops,
            "{name}: kinds {:?}",
            rep.counts.by_kind
        );
        assert!(
            rep.counts.pushes >= rep.counts.pops,
            "{name}: fewer pushes than pops"
        );
    }
}

#[test]
fn traced_and_untraced_runs_agree_on_every_sim_counter() {
    for name in NAMES {
        let plain = smoke(name).rep(5, false);
        let traced = smoke(name).rep(5, true);
        assert_eq!(plain.counts, traced.counts, "{name}: work counters");
        assert_eq!(plain.outcome, traced.outcome, "{name}: sim outcome");
        assert_eq!(
            plain.allocs, traced.allocs,
            "{name}: tracing must not allocate in the loop"
        );
        assert!(plain.times.is_none());
        let t = traced.times.expect("traced rep carries times");
        let handled: u64 = t.handle_ns.iter().map(|&(_, ns)| ns).sum();
        assert!(
            t.pop_ns + handled <= t.loop_ns,
            "{name}: children exceed the loop"
        );
    }
}

#[test]
fn smoke_runs_pass_the_correctness_gate() {
    for name in NAMES {
        let rep = smoke(name).rep(7, false);
        let o = &rep.outcome;
        assert!(o.problems.is_empty(), "{name}: {:?}", o.problems);
        assert_eq!(o.failed, 0, "{name}");
        assert!(o.delivered > 0, "{name}");
        assert_eq!(o.delivered + o.in_flight, o.attempted, "{name}");
        assert_eq!(o.latencies_ps.len() as u64, o.delivered, "{name}");
        assert!(o.makespan_ps > 0, "{name}");
        assert!(rep.setup_s() > 0.0 && rep.phase_s("loop") > 0.0, "{name}");
    }
}

#[test]
fn same_seed_reproduces_and_seed_moves_traffic() {
    let a = smoke("poisson_32sw").rep(11, false);
    let b = smoke("poisson_32sw").rep(11, false);
    let c = smoke("poisson_32sw").rep(12, false);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.counts, b.counts);
    assert_ne!(a.outcome.latencies_ps, c.outcome.latencies_ps);
}

#[test]
fn paper_curves_match_the_committed_figures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let committed = workloads::committed_curves(&root).expect("results/fig7.json and fig8.json");
    let rep = workloads::paper_testbed(1, 1, false);
    let problems = workloads::paper_gate(&rep.outcome.curves, &committed);
    assert!(problems.is_empty(), "{problems:?}");
    let (fig7, fig8) = workloads::paper_summaries(&rep.outcome.curves).unwrap();
    assert!(
        (fig8 - 1.316).abs() < 5e-4,
        "Fig. 8 per-ITB overhead {fig8} us"
    );
    assert!(
        fig7 > 121.0 && fig7 < 200.0,
        "Fig. 7 average overhead {fig7} ns"
    );
    // A perturbed curve must fail the gate.
    let mut bad = rep.outcome.curves.clone();
    bad[1].points[4].1 += 1.0;
    assert!(!workloads::paper_gate(&bad, &committed).is_empty());
}

#[test]
fn derangements_are_permutations_without_fixed_points() {
    for seed in 0..20 {
        let p = workloads::derangement(64, seed, seed % 3);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert!(p.iter().enumerate().all(|(i, &d)| i != d));
    }
}

#[test]
fn spans_nest_and_account_for_the_loop() {
    let rep = smoke("stream_16sw").rep(2, true);
    let mut tracer = Tracer::new(rep.phases[0].start);
    tracer.record_rep(&rep);
    let spans = tracer.spans();
    let root = spans.iter().position(|s| s.name == "run").unwrap();
    assert!(spans[root].parent.is_none());
    for name in [
        "setup.topology",
        "setup.cluster_build",
        "setup.start",
        "loop",
        "gate",
    ] {
        let s = spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(s.parent, Some(root), "{name}");
    }
    let handle = spans
        .iter()
        .position(|s| s.name == "World::handle")
        .unwrap();
    let kinds: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(handle))
        .map(|s| s.count)
        .sum();
    assert_eq!(kinds, rep.counts.pops);
    assert_eq!(
        tracer.self_ns(handle),
        0,
        "handle time is exactly the sum of its kinds"
    );
    let json = tracer.to_json(&[("workload", "\"stream_16sw\"".into())]);
    let doc = perfbench::json::parse(&json).expect("span dump is JSON");
    assert_eq!(
        doc.get("spans").and_then(|s| s.arr()).map(<[_]>::len),
        Some(spans.len())
    );
}

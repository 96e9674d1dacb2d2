//! Criterion bench: route computation speed — up*/down* BFS vs the ITB
//! planner's (links, ITBs)-lexicographic Dijkstra, and whole-table builds.
//! A single route is one search from the source switch plus the O(path)
//! read-back; a table runs one search per source switch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itb_routing::planner::{ItbHostSelection, ItbPlanner};
use itb_routing::updown::{direct_route, updown_tree};
use itb_routing::{RouteTable, RoutingPolicy};
use itb_topo::builders::{random_irregular, IrregularSpec};
use itb_topo::{HostId, UpDown};
use std::hint::black_box;

fn bench_single_routes(c: &mut Criterion) {
    let topo = random_irregular(&IrregularSpec::evaluation_default(16, 1));
    let ud = UpDown::compute_default(&topo);
    let mut g = c.benchmark_group("single_route");
    let (src, dst) = (HostId(0), HostId(63));
    let src_sw = topo.host_attachment(src).0;
    g.bench_function("updown_bfs", |b| {
        b.iter(|| {
            let tree = updown_tree(&topo, &ud, src_sw);
            black_box(direct_route(&topo, &tree, src, dst).unwrap())
        })
    });
    g.bench_function("itb_planner", |b| {
        let mut p = ItbPlanner::new(ItbHostSelection::First);
        b.iter(|| {
            let tree = ItbPlanner::search(&topo, &ud, src_sw);
            black_box(p.assemble(&topo, &tree, src, dst).unwrap())
        })
    });
    g.finish();
}

fn bench_full_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_table");
    g.sample_size(10);
    for switches in [8usize, 16, 32] {
        let topo = random_irregular(&IrregularSpec::evaluation_default(switches, 1));
        let ud = UpDown::compute_default(&topo);
        for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
            g.bench_with_input(
                BenchmarkId::new(format!("{policy:?}"), switches),
                &switches,
                |b, _| {
                    b.iter(|| {
                        let t = RouteTable::compute(&topo, &ud, policy).unwrap();
                        black_box(t)
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_single_routes, bench_full_tables);
criterion_main!(benches);

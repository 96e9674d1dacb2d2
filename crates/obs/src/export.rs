//! Artifact exporters: JSONL event dumps, Chrome `trace_event` JSON of
//! packet lifecycles and per-stage latency attribution.

use crate::stage::Stage;
use crate::tracer::{PacketTracer, StageEvent};
use serde::Value;
use std::io;

/// The interval between two consecutive lifecycle events of one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Packet id the interval belongs to.
    pub packet: u64,
    /// Stage the interval starts at.
    pub from: Stage,
    /// Stage the interval ends at (this stage names the span).
    pub to: Stage,
    /// Node of the ending event.
    pub node: u32,
    /// Interval start, nanoseconds since t = 0.
    pub start_ns: f64,
    /// Interval length in nanoseconds.
    pub ns: f64,
}

/// Turn a packet's event stream into consecutive spans. Events must belong
/// to one packet (as [`PacketTracer::for_packet`] returns them); they are
/// sorted by timestamp first, because layers record some stages at their
/// *completion* time, which can lag the recording call order. The spans
/// tile the packet's life exactly, so their `ns` sum equals last-event time
/// minus first-event time.
pub fn spans(events: &[StageEvent]) -> Vec<Span> {
    let mut events = events.to_vec();
    events.sort_by_key(|e| e.t);
    events
        .windows(2)
        .map(|w| Span {
            packet: w[1].packet,
            from: w[0].stage,
            to: w[1].stage,
            node: w[1].node,
            start_ns: w[0].t.as_ns_f64(),
            ns: w[1].t.saturating_since(w[0].t).as_ns_f64(),
        })
        .collect()
}

/// The four stages a half-RTT decomposes into (paper Figs. 7 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Attribution {
    /// Host software and NIC send-side work before the first byte hits the
    /// wire.
    Injection,
    /// Time on links and in switches: routing, channel arbitration,
    /// STOP/GO blocking and flit transmission.
    WormholeTransit,
    /// In-transit-buffer firmware work at intermediate hosts: Early-Recv
    /// inspection, ITB detection, send-DMA reprogramming and re-injection
    /// start (the paper's ~1.3 µs/hop).
    ItbHop,
    /// Receive-side firmware and host delivery at the final destination.
    Delivery,
}

impl Attribution {
    /// All categories, in report order.
    pub const ALL: [Attribution; 4] = [
        Attribution::Injection,
        Attribution::WormholeTransit,
        Attribution::ItbHop,
        Attribution::Delivery,
    ];

    /// Stable report label.
    pub fn as_str(self) -> &'static str {
        match self {
            Attribution::Injection => "injection",
            Attribution::WormholeTransit => "wormhole_transit",
            Attribution::ItbHop => "itb_hop",
            Attribution::Delivery => "delivery",
        }
    }
}

impl std::fmt::Display for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which category a span belongs to. `idx` is the span's position within
/// its packet's span list — needed because the ITB firmware raises
/// Early-Recv at the final destination too: an interval ending at
/// `mcp.early_recv` counts as [`Attribution::ItbHop`] only when the next
/// event is `mcp.itb_detect`, otherwise it is receive-side
/// [`Attribution::Delivery`].
fn categorize(all: &[Span], idx: usize) -> Attribution {
    match all[idx].to {
        Stage::HostInject | Stage::NetInject => Attribution::Injection,
        Stage::NetLinkAcquire
        | Stage::NetLinkBlock
        | Stage::NetRoute
        | Stage::NetHead
        | Stage::NetTail => Attribution::WormholeTransit,
        Stage::McpEarlyRecv => match all.get(idx + 1) {
            Some(next) if next.to == Stage::McpItbDetect => Attribution::ItbHop,
            _ => Attribution::Delivery,
        },
        Stage::McpItbDetect | Stage::McpItbForward | Stage::NetReinject => Attribution::ItbHop,
        Stage::McpRecvFinish | Stage::NicDeliver | Stage::HostDeliver => Attribution::Delivery,
    }
}

/// Decompose one packet's spans into per-category nanosecond totals.
///
/// Always returns all four categories in [`Attribution::ALL`] order (zeros
/// included), so the totals sum to the packet's end-to-end latency.
pub fn attribute(packet_spans: &[Span]) -> Vec<(Attribution, f64)> {
    let mut totals = [0.0f64; 4];
    for (i, s) in packet_spans.iter().enumerate() {
        let cat = categorize(packet_spans, i);
        let slot = Attribution::ALL
            .iter()
            .position(|&a| a == cat)
            // detlint::allow(S001, every event category is listed in ALL)
            .expect("category in ALL");
        totals[slot] += s.ns;
    }
    Attribution::ALL.into_iter().zip(totals).collect()
}

/// Stream the trace as JSONL — one JSON object per line per event:
/// `{"packet":7,"stage":"mcp.itb_detect","node":2,"t_ns":1234.5}`.
/// Each line is one small write, so callers writing to a file wrap the sink
/// in a `BufWriter` (see `itb_bench`'s `dump_stream`).
pub fn write_jsonl<W: io::Write>(tracer: &PacketTracer, w: &mut W) -> io::Result<()> {
    for e in tracer.events() {
        let v = Value::Object(vec![
            ("packet".to_string(), Value::UInt(e.packet)),
            (
                "stage".to_string(),
                Value::Str(e.stage.as_str().to_string()),
            ),
            ("node".to_string(), Value::UInt(u64::from(e.node))),
            ("t_ns".to_string(), Value::Float(e.t.as_ns_f64())),
        ]);
        // detlint::allow(S001, event records serialize by construction)
        let line = serde_json::to_string(&v).expect("jsonl event serializes");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// The JSONL trace as a string (delegates to [`write_jsonl`]).
pub fn to_jsonl(tracer: &PacketTracer) -> String {
    let mut buf = Vec::new();
    // detlint::allow(S001, writing into a Vec cannot fail)
    write_jsonl(tracer, &mut buf).expect("Vec sink never errors");
    // detlint::allow(S001, JSON output is ASCII)
    String::from_utf8(buf).expect("JSONL is valid UTF-8")
}

/// Render the trace in Chrome `trace_event` JSON (open in Perfetto or
/// `chrome://tracing`). Each packet becomes one "thread" (tid = packet id);
/// each inter-event interval becomes one complete ("X") slice named after
/// the stage it ends at. Timestamps and durations are microseconds, per the
/// format spec.
pub fn to_chrome_trace(tracer: &PacketTracer) -> String {
    let mut events = Vec::new();
    for packet in tracer.packets() {
        events.push(Value::Object(vec![
            ("name".to_string(), Value::Str("thread_name".to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(packet)),
            (
                "args".to_string(),
                Value::Object(vec![(
                    "name".to_string(),
                    Value::Str(format!("packet {packet}")),
                )]),
            ),
        ]));
        for s in spans(&tracer.for_packet(packet)) {
            events.push(Value::Object(vec![
                ("name".to_string(), Value::Str(s.to.as_str().to_string())),
                ("cat".to_string(), Value::Str("packet".to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Float(s.start_ns / 1e3)),
                ("dur".to_string(), Value::Float(s.ns / 1e3)),
                ("pid".to_string(), Value::UInt(0)),
                ("tid".to_string(), Value::UInt(packet)),
                (
                    "args".to_string(),
                    Value::Object(vec![("node".to_string(), Value::UInt(u64::from(s.node)))]),
                ),
            ]));
        }
    }
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ]);
    // detlint::allow(S001, the chrome trace document serializes by construction)
    serde_json::to_string_pretty(&doc).expect("chrome trace serializes")
}

/// Stream the packet-lifecycle Chrome trace into `w` (delegates to
/// [`to_chrome_trace`]; wrap file sinks in a `BufWriter`).
pub fn write_chrome_trace<W: io::Write>(tracer: &PacketTracer, w: &mut W) -> io::Result<()> {
    w.write_all(to_chrome_trace(tracer).as_bytes())?;
    w.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_sim::SimTime;

    /// A hand-built source → ITB host → destination lifecycle.
    fn itb_path_tracer() -> PacketTracer {
        let mut t = PacketTracer::new(64);
        t.enable();
        let ev: [(Stage, u32, u64); 12] = [
            (Stage::HostInject, 0, 0),
            (Stage::NetInject, 0, 300),
            (Stage::NetLinkAcquire, 0, 350),
            (Stage::NetHead, 2, 600),
            (Stage::NetTail, 2, 900),
            (Stage::McpEarlyRecv, 2, 1172), // followed by detect → ItbHop
            (Stage::McpItbDetect, 2, 1200),
            (Stage::McpItbForward, 2, 1927),
            (Stage::NetReinject, 2, 2157),
            (Stage::NetTail, 5, 2800),
            (Stage::McpEarlyRecv, 5, 3072), // no detect follows → Delivery
            (Stage::HostDeliver, 5, 3500),
        ];
        for (stage, node, ns) in ev {
            t.record(42, stage, node, SimTime::from_ns(ns));
        }
        t
    }

    #[test]
    fn spans_tile_the_packet_lifetime() {
        let t = itb_path_tracer();
        let sp = spans(&t.for_packet(42));
        assert_eq!(sp.len(), 11);
        let total: f64 = sp.iter().map(|s| s.ns).sum();
        assert!((total - 3500.0).abs() < 1e-9, "spans must sum to e2e");
        assert_eq!(sp[0].from, Stage::HostInject);
        assert_eq!(sp[0].to, Stage::NetInject);
        assert!((sp[0].ns - 300.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_sums_to_end_to_end_and_groups_itb_work() {
        let t = itb_path_tracer();
        let sp = spans(&t.for_packet(42));
        let attr = attribute(&sp);
        assert_eq!(attr.len(), 4);
        let total: f64 = attr.iter().map(|&(_, ns)| ns).sum();
        assert!((total - 3500.0).abs() < 1e-9);
        let get = |cat: Attribution| {
            attr.iter()
                .find(|&&(a, _)| a == cat)
                .map(|&(_, ns)| ns)
                .unwrap()
        };
        // ItbHop = tail→early_recv (272) + early_recv→detect (28)
        //        + detect→forward (727) + forward→reinject (230) = 1257.
        assert!((get(Attribution::ItbHop) - 1257.0).abs() < 1e-9);
        // Delivery = dst tail→early_recv (272) + early_recv→deliver (428).
        assert!((get(Attribution::Delivery) - 700.0).abs() < 1e-9);
        assert!((get(Attribution::Injection) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn early_recv_without_detect_is_delivery() {
        // A direct (no-ITB) path: early_recv leads straight to recv_finish.
        let mut t = PacketTracer::new(16);
        t.enable();
        for (stage, ns) in [
            (Stage::NetTail, 100u64),
            (Stage::McpEarlyRecv, 372),
            (Stage::McpRecvFinish, 800),
        ] {
            t.record(1, stage, 4, SimTime::from_ns(ns));
        }
        let attr = attribute(&spans(&t.for_packet(1)));
        let itb: f64 = attr
            .iter()
            .filter(|&&(a, _)| a == Attribution::ItbHop)
            .map(|&(_, ns)| ns)
            .sum();
        assert_eq!(itb, 0.0, "no ITB work on a direct path");
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let t = itb_path_tracer();
        let out = to_jsonl(&t);
        assert_eq!(out.lines().count(), 12);
        let first = out.lines().next().unwrap();
        assert!(first.contains("\"stage\""));
        assert!(first.contains("host.inject"));
        assert!(first.contains("\"packet\""));
    }

    #[test]
    fn chrome_trace_emits_slices_and_thread_names() {
        let t = itb_path_tracer();
        let out = to_chrome_trace(&t);
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"thread_name\""));
        assert!(out.contains("\"mcp.itb_forward\""));
        // One metadata record + 11 slices.
        assert_eq!(out.matches("\"ph\"").count(), 12);
        // ts/dur are microseconds: the 300 ns injection span is 0.3 µs.
        assert!(out.contains("0.3"));
    }

    #[test]
    fn empty_tracer_exports_are_valid() {
        let t = PacketTracer::new(4);
        assert_eq!(to_jsonl(&t), "");
        let chrome = to_chrome_trace(&t);
        assert!(chrome.contains("\"traceEvents\": []"));
    }

    #[test]
    fn streaming_writers_match_string_exports() {
        let t = itb_path_tracer();
        let mut buf = Vec::new();
        write_chrome_trace(&t, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), to_chrome_trace(&t) + "\n");
    }
}

//! # itb-net — the Myrinet wormhole network model
//!
//! An event-driven, flit-granular model of the physical network of the
//! paper's testbed:
//!
//! * full-duplex **links** serializing bytes at 160 MB/s with cable
//!   propagation delay;
//! * **Stop&Go flow control** — each switch input port has a slack buffer
//!   with STOP/GO thresholds; STOP pauses the upstream sender after its
//!   current flit, exactly like Myrinet's control bytes;
//! * **cut-through crossbar switches** — the head flit's route byte selects
//!   (and is consumed by) the output port after a fall-through delay that
//!   depends on the port kinds involved (the paper notes switch latency
//!   depends on whether LAN or SAN ports are traversed); body flits stream
//!   through as they arrive, and a blocked worm backs up link by link;
//! * **host ports** — injection is paced at link rate from a per-host queue
//!   (the send-DMA serialization), and ejection raises indications the NIC
//!   layer consumes ([`HostIndication`]); availability can grow while a
//!   packet is still being received, which is what lets the ITB firmware
//!   re-inject a packet virtual-cut-through style.
//!
//! The network schedules its own follow-up events through the [`NetSched`]
//! trait so the integrating crate can embed [`NetEvent`] in its union event
//! type.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod fault;
pub mod flow;
pub mod network;
pub mod packet;
pub mod slab;
pub mod stats;

pub use config::{FallThrough, NetConfig};
pub use fault::{FaultPlan, HostCrash, LinkDownWindow, LinkFault};
pub use flow::{Flow, FlowCompletion, FlowNet};
pub use network::{HostIndication, NetEvent, NetSched, Network};
pub use packet::{PacketDesc, PacketId};

//! `mxn-wire`: the Unix-domain-socket transport for the M×N runtime.
//!
//! The in-proc runtime (`mxn-runtime`) models ranks as threads in one
//! address space: envelopes move by pointer, broadcasts share one `Arc`.
//! This crate carries the same envelopes between *real OS processes*:
//! length-prefixed CRC-checked frames over Unix-domain sockets, delivered
//! into the same [`mxn_runtime::Mailbox`] a thread rank reads, and the paper's robustness story
//! (heartbeat liveness, bounded reconnect, survivor shrink) carried across
//! a wire that can actually fail.
//!
//! Layers, bottom to top:
//!
//! * [`crc32`] — CRC-32C (the Castagnoli polynomial): the SSE4.2 `crc32`
//!   instruction where the CPU has it — three interleaved chains on long
//!   inputs, and a 512-bit carry-less-multiply fold on inputs of 1 KiB or
//!   more where AVX-512 VPCLMULQDQ exists — and a const-built slice-by-8
//!   table everywhere else.
//! * [`codec`] — [`codec::WireCodec`], byte serialization for payloads
//!   that cross a process boundary, plus the [`codec::CodecRegistry`]
//!   mapping `TypeId` ⇄ wire tag.
//! * [`frame`] — `MxN1` framing: 40-byte header (own CRC) + payload
//!   (own CRC), resync-on-damage, never trusts a length the header CRC
//!   has not vouched for. Payloads are encoded in place after the header,
//!   and large bodies are read from the socket straight into a reused
//!   buffer — a large `Vec<f64>` body straight into a reused vector — or
//!   pulled out of the sender's memory when a descriptor stands for it.
//! * [`WireFaults`] — seeded frame-level fault injection (drop / bit-flip /
//!   delay), set per node by [`WireConfig::faults`] and drawn per schedule
//!   by the seeded link explorer (`tests/link_explorer.rs`); the
//!   `MXN_FAULT_SEED` × `MXN_FAULT_KIND` environment drives only the
//!   in-proc fault plane.
//! * [`LinkSender`] — per-peer sequencing and the resend ring behind session
//!   resume, trimmed to the peer's acks and fences and capped in frames
//!   and bytes; control frames ride outside the sequence space. A large
//!   `Vec<f64>` is retained and written as itself, never encoded — or lent
//!   as a descriptor on a stream whose receiver pulls.
//! * [`peer`] — [`peer::Link`]: one peer link's protocol (seqs, acks and
//!   fences, NACKs, resume, liveness, quarantine) as an I/O-free machine,
//!   and [`peer::Peer`], the machine beside its `LinkSender` under the rule
//!   that no service thread ever waits on a peer's `io` lock.
//! * [`WireNode`] — the mesh endpoint. Acceptor, reader
//!   and monitor threads; heartbeats feeding a [`mxn_runtime::Liveness`]
//!   registry; reconnect with seeded exponential backoff bounded at
//!   N attempts, after which the peer is *dead* and recovery proceeds
//!   exactly as for an in-proc rank death. Progress fences catch the
//!   failure heartbeats cannot — a *zombie* whose sockets stay open while
//!   its application is frozen — quarantining it (reversible) and
//!   evicting it (final) on frozen delivery watermarks. The membership is
//!   elastic up to `max_size`: a spare OS process joins at runtime through
//!   the same join vote the in-proc membership plane runs
//!   ([`mxn_runtime::reconfig`]).
//! * [`MuxServer`] — connection multiplexing over *one* UDS listener: the
//!   serving plane's wire front. Any number of client connections, each
//!   with a reader/writer thread pair, requests handed to a pluggable
//!   [`MuxHandler`]; blocking the handler parks exactly one client.
//! * [`spawn_worker`] and its siblings — self re-exec helpers for multi-process tests and
//!   examples (spawn workers and spare joiners, kill-on-drop guards,
//!   `kill -9` / SIGSTOP / SIGCONT on demand).

#![warn(unreachable_pub)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod codec;
mod crc;
mod fault;
pub mod frame;
mod link;
mod mux;
mod node;
pub mod peer;
mod process;

pub use codec::{decode_value, encode_value, CodecError, CodecRegistry, WireCodec};
pub use crc::{crc32, crc32_continue};
pub use fault::{WireFaults, WireVerdict};
pub use frame::{
    Arrival, Descriptor, Frame, FrameError, FrameKind, FrameReader, PullError, SpareValues,
    BODY_IN_PLACE, DESCRIPTOR_CODEC, HEADER_LEN, MAX_PAYLOAD, SPARE_BYTES, SPARE_VALUES,
};
pub use link::{Conn, LinkSender, RING_BYTES, RING_FRAMES};
pub use mux::{
    ConnId, MuxClient, MuxHandler, MuxReplier, MuxRequest, MuxResponse, MuxServer, MuxStatus,
    MUX_REQ_CODEC, MUX_RESP_CODEC,
};
pub use node::{
    WireConfig, WireNode, WireStats, JOIN_OFFER_TAG, JOIN_REQ_TAG, JOIN_STATE_TAG,
    WIRE_CTRL_CONTEXT,
};
pub use process::{spawn_spare, spawn_worker, spawn_worker_max, wire_role, WireRole, WorkerGuard};

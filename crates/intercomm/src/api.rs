//! The import/export coupling API.
//!
//! "Programs only express potential data transfers with import and export
//! calls, thereby freeing each program (component) developer from having to
//! know in advance the communication patterns of its potential partners.
//! The actual data transfers take place based on coordination rules …
//! separation of control issues from data transfers enables InterComm to
//! potentially hide the cost of data transfers behind other program
//! activities." (paper §4.4)
//!
//! * The **exporter** calls [`Exporter::export`] each time-step: the
//!   version is buffered (bounded window) and any queued import requests
//!   that have become decidable are answered — so transfers overlap the
//!   exporter's simulation instead of blocking it.
//! * The **importer** calls [`Importer::import`] with a request timestamp;
//!   the shared [`MatchRule`] decides which exported version it receives.

use std::collections::VecDeque;

use mxn_dad::{Dad, LocalArray};
use mxn_runtime::{InterComm, MsgSize, Result, Src};
use mxn_schedule::RegionSchedule;

use crate::rules::{MatchDecision, MatchRule};

const IMP_REQ_TAG: i32 = 0x4943; // "IC"
const IMP_RESP_TAG: i32 = 0x4944;
const IMP_DATA_TAG: i32 = 0x4945;

/// Importer → exporter: "I want the version matching time `t`".
struct ImportReq {
    t: f64,
}

impl MsgSize for ImportReq {
    fn msg_size(&self) -> usize {
        8
    }
}

/// Exporter → importer: the decision header (data follows separately when
/// matched and this exporter rank is a schedule partner).
struct ImportResp {
    /// `Some(version)` when matched; `None` for a final no-match.
    matched: Option<f64>,
}

impl MsgSize for ImportResp {
    fn msg_size(&self) -> usize {
        9
    }
}

/// What an import call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImportOutcome {
    /// Data arrived; it is the exported version with this timestamp.
    Fulfilled {
        /// Timestamp of the version received.
        version: f64,
    },
    /// The rule decided no exported version satisfies the request.
    NoMatch,
}

/// Counters describing an exporter rank's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExportStats {
    /// Versions exported (buffered).
    pub exports: u64,
    /// Import requests answered with data.
    pub transfers: u64,
    /// Import requests answered with a final no-match.
    pub no_matches: u64,
    /// Versions dropped by the bounded buffer.
    pub evictions: u64,
}

struct PendingRequest {
    importer: usize,
    t: f64,
}

/// The exporting side of one coupled field, per rank.
pub struct Exporter {
    dad: Dad,
    rule: MatchRule,
    /// `(timestamp, snapshot)`, ascending time, bounded length.
    buffer: VecDeque<(f64, LocalArray<f64>)>,
    capacity: usize,
    frontier: f64,
    pending: Vec<PendingRequest>,
    schedule: RegionSchedule,
    peer_dad: Dad,
    stats: ExportStats,
}

impl Exporter {
    /// Creates an exporter for a field distributed as `dad` on this side
    /// and as `peer_dad` on the importing side, keeping at most `capacity`
    /// buffered versions. The `rule` must equal the importers' rule.
    pub fn new(dad: Dad, peer_dad: Dad, my_rank: usize, rule: MatchRule, capacity: usize) -> Self {
        assert!(capacity > 0, "version buffer needs capacity");
        assert!(dad.conforms(&peer_dad), "export/import descriptors must conform");
        Exporter {
            schedule: RegionSchedule::for_sender(&dad, &peer_dad, my_rank),
            dad,
            peer_dad,
            rule,
            buffer: VecDeque::new(),
            capacity,
            frontier: f64::NEG_INFINITY,
            pending: Vec::new(),
            stats: ExportStats::default(),
        }
    }

    /// This rank's activity counters.
    pub fn stats(&self) -> ExportStats {
        self.stats
    }

    /// Exports the field at time `t` (strictly increasing across calls):
    /// snapshots the data, then answers every queued request that has
    /// become decidable.
    pub fn export(&mut self, ic: &InterComm, t: f64, data: &LocalArray<f64>) -> Result<()> {
        assert!(t > self.frontier, "export times must be strictly increasing");
        self.frontier = t;
        self.buffer.push_back((t, data.clone()));
        self.stats.exports += 1;
        if self.buffer.len() > self.capacity {
            self.buffer.pop_front();
            self.stats.evictions += 1;
        }
        self.drain_requests(ic)?;
        self.answer_decidable(ic)
    }

    /// Declares the export stream finished: all remaining and future
    /// requests are decided against the final buffer.
    pub fn close(&mut self, ic: &InterComm) -> Result<()> {
        self.frontier = f64::INFINITY;
        self.drain_requests(ic)?;
        self.answer_decidable(ic)
    }

    /// Services requests until `total` of them (over the exporter's whole
    /// lifetime) have been answered — the post-`close` serving loop.
    /// Returns immediately if that many were already answered.
    pub fn serve_until_answered(&mut self, ic: &InterComm, total: u64) -> Result<()> {
        assert!(self.frontier.is_infinite(), "close the exporter before the serving loop");
        while self.stats.transfers + self.stats.no_matches < total {
            let (req, info) = ic.recv_with_info::<ImportReq>(Src::Any, IMP_REQ_TAG)?;
            self.pending.push(PendingRequest { importer: info.src, t: req.t });
            self.answer_decidable(ic)?;
        }
        Ok(())
    }

    fn drain_requests(&mut self, ic: &InterComm) -> Result<()> {
        while let Some((req, info)) = ic.try_recv::<ImportReq>(Src::Any, IMP_REQ_TAG)? {
            self.pending.push(PendingRequest { importer: info.src, t: req.t });
        }
        Ok(())
    }

    fn answer_decidable(&mut self, ic: &InterComm) -> Result<()> {
        let versions: Vec<f64> = self.buffer.iter().map(|(t, _)| *t).collect();
        let mut remaining = Vec::new();
        for req in self.pending.drain(..) {
            match self.rule.decide(&versions, self.frontier, req.t) {
                MatchDecision::Pending => remaining.push(req),
                MatchDecision::NoMatch => {
                    self.stats.no_matches += 1;
                    ic.send(req.importer, IMP_RESP_TAG, ImportResp { matched: None })?;
                }
                MatchDecision::Matched { version } => {
                    // Decisions are made over the *buffered* versions, so a
                    // match always has its snapshot (evicted versions were
                    // never candidates — they surface as NoMatch instead).
                    let (_, data) = self
                        .buffer
                        .iter()
                        .find(|(t, _)| *t == version)
                        .expect("matched version is buffered");
                    self.stats.transfers += 1;
                    ic.send(req.importer, IMP_RESP_TAG, ImportResp { matched: Some(version) })?;
                    // Pairwise data only to this importer, per the
                    // precomputed schedule.
                    let pairs = self.schedule.pairs();
                    if let Some(i) = pairs.iter().position(|p| p.peer == req.importer) {
                        let mut buf = Vec::new();
                        self.schedule.pack_pair_into(i, data, &mut buf);
                        ic.send(req.importer, IMP_DATA_TAG, buf)?;
                    }
                }
            }
        }
        self.pending = remaining;
        Ok(())
    }

    /// The export-side descriptor.
    pub fn dad(&self) -> &Dad {
        &self.dad
    }

    /// The import-side descriptor.
    pub fn peer_dad(&self) -> &Dad {
        &self.peer_dad
    }

    /// The rank this exporter serves.
    pub fn rank(&self) -> usize {
        self.schedule.rank()
    }
}

/// The importing side of one coupled field, per rank.
pub struct Importer {
    schedule: RegionSchedule,
    rule: MatchRule,
    imports: u64,
}

impl Importer {
    /// Creates an importer; `peer_dad` is the exporting side's descriptor.
    pub fn new(dad: &Dad, peer_dad: &Dad, my_rank: usize, rule: MatchRule) -> Self {
        Importer {
            schedule: RegionSchedule::for_receiver(peer_dad, dad, my_rank),
            rule,
            imports: 0,
        }
    }

    /// The matching rule in force.
    pub fn rule(&self) -> MatchRule {
        self.rule
    }

    /// Number of import calls made.
    pub fn imports(&self) -> u64 {
        self.imports
    }

    /// Requests the version matching time `t`; blocks until the rule
    /// decides, then fills `dst` if matched.
    pub fn import(
        &mut self,
        ic: &InterComm,
        t: f64,
        dst: &mut LocalArray<f64>,
    ) -> Result<ImportOutcome> {
        self.imports += 1;
        // Ask every exporter rank (each buffers only its own portion).
        for x in 0..ic.remote_size() {
            ic.send(x, IMP_REQ_TAG, ImportReq { t })?;
        }
        // Every exporter answers with a header; schedule partners attach
        // data. All headers carry the same decision (same rule, same
        // collective version history).
        let mut outcome = None;
        for x in 0..ic.remote_size() {
            let resp: ImportResp = ic.recv(x, IMP_RESP_TAG)?;
            let this = match resp.matched {
                Some(v) => ImportOutcome::Fulfilled { version: v },
                None => ImportOutcome::NoMatch,
            };
            if let Some(prev) = outcome {
                debug_assert_eq!(prev, this, "exporters agree on the decision");
            }
            outcome = Some(this);
            if resp.matched.is_some() {
                // Receive pairwise data if exporter x is a partner.
                if let Some(i) = self.schedule.pairs().iter().position(|p| p.peer == x) {
                    let data: Vec<f64> = ic.recv(x, IMP_DATA_TAG)?;
                    self.schedule.unpack_pair_from(i, dst, &data);
                }
            }
        }
        Ok(outcome.expect("at least one exporter rank"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;
    use mxn_runtime::Universe;

    fn dads() -> (Dad, Dad) {
        (
            Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap(),
            Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap(),
        )
    }

    fn field(dad: &Dad, rank: usize, t: f64) -> LocalArray<f64> {
        LocalArray::from_fn(dad, rank, |idx| (idx[0] * 4 + idx[1]) as f64 + t * 1000.0)
    }

    #[test]
    fn lower_bound_coupling_over_time() {
        Universe::run(&[2, 2], |_, ctx| {
            let (xd, md) = dads();
            let rule = MatchRule::LowerBound;
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let rank = ctx.comm.rank();
                let mut ex = Exporter::new(xd.clone(), md.clone(), rank, rule, 16);
                for step in 0..5 {
                    let t = step as f64;
                    ex.export(ic, t, &field(&xd, rank, t)).unwrap();
                }
                ex.close(ic).unwrap();
                // 2 importer ranks × 2 imports each = 4 answers owed.
                ex.serve_until_answered(ic, 4).unwrap();
                assert_eq!(ex.stats().exports, 5);
            } else {
                let ic = ctx.intercomm(0);
                let rank = ctx.comm.rank();
                let mut im = Importer::new(&md, &xd, rank, rule);
                let mut dst: LocalArray<f64> = LocalArray::allocate(&md, rank);
                // Request 2.5 → version 2.0.
                let out = im.import(ic, 2.5, &mut dst).unwrap();
                assert_eq!(out, ImportOutcome::Fulfilled { version: 2.0 });
                for (idx, &v) in dst.iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64 + 2000.0);
                }
                // Request 100 after close → newest = 4.0.
                let out = im.import(ic, 100.0, &mut dst).unwrap();
                assert_eq!(out, ImportOutcome::Fulfilled { version: 4.0 });
            }
        });
    }

    #[test]
    fn exact_rule_no_match_is_final() {
        Universe::run(&[1, 1], |_, ctx| {
            let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ex = Exporter::new(dad.clone(), dad.clone(), 0, MatchRule::Exact, 8);
                for step in [0.0, 2.0, 4.0] {
                    ex.export(ic, step, &field2(&dad, step)).unwrap();
                }
                ex.close(ic).unwrap();
                ex.serve_until_answered(ic, 2).unwrap();
                assert_eq!(ex.stats().no_matches, 1);
                assert_eq!(ex.stats().transfers, 1);
            } else {
                let ic = ctx.intercomm(0);
                let mut im = Importer::new(&dad, &dad, 0, MatchRule::Exact);
                let mut dst: LocalArray<f64> = LocalArray::allocate(&dad, 0);
                assert_eq!(
                    im.import(ic, 2.0, &mut dst).unwrap(),
                    ImportOutcome::Fulfilled { version: 2.0 }
                );
                assert_eq!(im.import(ic, 3.0, &mut dst).unwrap(), ImportOutcome::NoMatch);
            }
            fn field2(dad: &Dad, t: f64) -> LocalArray<f64> {
                LocalArray::from_fn(dad, 0, |idx| idx[0] as f64 + t)
            }
        });
    }

    #[test]
    fn pending_request_fulfilled_by_later_export() {
        // The importer asks for a time the exporter hasn't reached yet; the
        // answer arrives when the exporter's frontier passes it — transfers
        // overlap the exporter's stepping.
        Universe::run(&[1, 1], |_, ctx| {
            let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
            let rule = MatchRule::UpperBound;
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ex = Exporter::new(dad.clone(), dad.clone(), 0, rule, 8);
                for step in 0..6 {
                    // Simulate compute time so the request queues mid-run.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    let t = step as f64;
                    let data = LocalArray::from_fn(&dad, 0, |idx| idx[0] as f64 * t);
                    ex.export(ic, t, &data).unwrap();
                }
                ex.close(ic).unwrap();
                // Covers the (unlikely) case where the request arrives
                // after close's drain; no-op when already answered.
                ex.serve_until_answered(ic, 1).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let mut im = Importer::new(&dad, &dad, 0, rule);
                let mut dst: LocalArray<f64> = LocalArray::allocate(&dad, 0);
                let out = im.import(ic, 3.0, &mut dst).unwrap();
                assert_eq!(out, ImportOutcome::Fulfilled { version: 3.0 });
                assert_eq!(*dst.get(&[2]).unwrap(), 6.0);
            }
        });
    }

    #[test]
    fn eviction_turns_match_into_no_match() {
        Universe::run(&[1, 1], |_, ctx| {
            let dad = Dad::block(Extents::new([2]), &[1]).unwrap();
            let rule = MatchRule::LowerBound;
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                // Tiny buffer: only the 2 newest versions survive.
                let mut ex = Exporter::new(dad.clone(), dad.clone(), 0, rule, 2);
                for step in 0..5 {
                    let data = LocalArray::from_fn(&dad, 0, |_| step as f64);
                    ex.export(ic, step as f64, &data).unwrap();
                }
                ex.close(ic).unwrap();
                // Only now let the importer ask, so version 1.0 is
                // deterministically evicted before the request arrives.
                ic.send(0, 0x70, ()).unwrap();
                ex.serve_until_answered(ic, 1).unwrap();
                assert!(ex.stats().evictions >= 3);
            } else {
                let ic = ctx.intercomm(0);
                let mut im = Importer::new(&dad, &dad, 0, rule);
                let mut dst: LocalArray<f64> = LocalArray::allocate(&dad, 0);
                ic.recv::<()>(0, 0x70).unwrap();
                // Version 1.0 was evicted (buffer holds 3.0, 4.0).
                assert_eq!(im.import(ic, 1.0, &mut dst).unwrap(), ImportOutcome::NoMatch);
            }
        });
    }

    #[test]
    fn regular_interval_coupling_frequency() {
        // Components "coupled at a frequency of multiple time-steps".
        Universe::run(&[1, 1], |_, ctx| {
            let dad = Dad::block(Extents::new([2]), &[1]).unwrap();
            let rule = MatchRule::RegularInterval { start: 0.0, every: 2.0 };
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ex = Exporter::new(dad.clone(), dad.clone(), 0, rule, 16);
                for step in 0..6 {
                    let data = LocalArray::from_fn(&dad, 0, |_| step as f64);
                    ex.export(ic, step as f64, &data).unwrap();
                }
                ex.close(ic).unwrap();
                ex.serve_until_answered(ic, 3).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let mut im = Importer::new(&dad, &dad, 0, rule);
                let mut dst: LocalArray<f64> = LocalArray::allocate(&dad, 0);
                for (treq, want) in [(1.0, 0.0), (3.7, 2.0), (5.9, 4.0)] {
                    let out = im.import(ic, treq, &mut dst).unwrap();
                    assert_eq!(out, ImportOutcome::Fulfilled { version: want });
                    assert_eq!(*dst.get(&[0]).unwrap(), want);
                }
            }
        });
    }
}

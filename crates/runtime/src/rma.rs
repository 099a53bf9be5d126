//! One-sided RMA windows: expose / get / fence over the envelope
//! transport.
//!
//! Dynamic reconfiguration wants one-sided data motion: when an epoch's
//! membership changes, the new owner of a region knows what it needs and
//! *pulls* it without the peer posting a matching receive — the argument
//! of the RMA-reconfiguration line of work (see PAPERS.md). This module
//! reproduces the MPI one-sided model in BSP-style *active target* form,
//! the flavor every redistribution epoch actually uses:
//!
//! * [`RmaWindow::expose`] publishes a rank's local `f64` block to a
//!   window group.
//! * [`RmaWindow::get_runs`] issues a one-sided read eagerly; it
//!   completes only at the fence.
//! * [`RmaWindow::fence`] closes the access epoch: every member announces
//!   how many gets it issued toward each peer, serves all gets, and
//!   collects its own get results (returned in issue order).
//!
//! The fence is deterministic and deadlock-free by construction: all sends
//! (operation traffic at issue time, completion counts at fence entry)
//! precede every blocking receive, and the drain walks the member list in
//! one agreed order. Under the in-process transport a get response is an
//! ownership transfer — the "network" cost is the envelope, exactly like
//! the rest of the runtime, so the trace plane ([`EventId::RmaGet`] et
//! al.) is how experiments see one-sidedness.

use std::collections::VecDeque;
use std::time::Duration;

use crate::comm::Comm;
use crate::envelope::Tag;
use crate::error::{Result, RuntimeError};
use crate::membership::RMA_TAG_BASE;
use crate::msgsize::MsgSize;
use mxn_trace::{emit_instant, span, EventId};

/// How long a fence waits on any single peer's contribution before
/// declaring the epoch broken. Alive peers in the in-process runtime
/// deliver promptly; only a death mid-epoch pays this.
const RMA_FENCE_TIMEOUT: Duration = Duration::from_secs(5);

/// Message kinds multiplexed onto a window's tag block.
const KIND_FIN: u8 = 0;
const KIND_GET_REQ: u8 = 2;
const KIND_GET_RESP: u8 = 3;

/// Tag for `(win_id, kind)`: windows get disjoint 4-tag blocks inside the
/// reserved RMA range (window ids collide modulo 4096; concurrent windows
/// on one communicator should use distinct low bits).
fn rma_tag(win_id: u32, kind: u8) -> i32 {
    RMA_TAG_BASE + (((win_id & 0xfff) as i32) << 2) + kind as i32
}

/// Fence announcement: how many gets the sender issued toward the
/// receiver this epoch.
#[derive(Debug, Clone, Copy)]
struct RmaFin {
    gets: u64,
}

impl MsgSize for RmaFin {
    /// Two words, as when the announcement also counted puts: traced byte
    /// counts and the golden trace digests depend on this size.
    fn msg_size(&self) -> usize {
        2 * std::mem::size_of::<u64>()
    }
}

/// One-sided get request: read the `(offset, len)` runs of the target's
/// exposed block.
#[derive(Debug, Clone)]
struct RmaGetReq {
    runs: Vec<(usize, usize)>,
}

impl MsgSize for RmaGetReq {
    fn msg_size(&self) -> usize {
        self.runs.len() * 2 * std::mem::size_of::<u64>()
    }
}

/// Get response: the requested runs, concatenated, or why the target
/// refused them.
#[derive(Debug, Clone)]
struct RmaGetResp {
    data: std::result::Result<Vec<f64>, String>,
}

impl MsgSize for RmaGetResp {
    fn msg_size(&self) -> usize {
        self.data.as_ref().map_or(0, |data| data.len() * std::mem::size_of::<f64>())
    }
}

/// An exposed local block plus the access-epoch state of one member.
///
/// All members pass identical `(win_id, members)`; `members` are
/// comm-local ranks, ascending, and include the caller (self-targeted
/// operations are legal and go through the same path). See the module docs
/// for the epoch discipline.
pub struct RmaWindow<'a> {
    comm: &'a Comm,
    members: Vec<usize>,
    win_id: u32,
    data: Vec<f64>,
    /// Per-member gets issued this epoch, indexed like `members`.
    sent: Vec<u64>,
    /// Member index of each issued get, in issue order.
    get_order: Vec<usize>,
}

impl<'a> RmaWindow<'a> {
    /// Opens a window exposing `data` to `members` (comm-local ranks,
    /// strictly ascending, self included). Collective over the members.
    pub fn expose(
        comm: &'a Comm,
        win_id: u32,
        members: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<RmaWindow<'a>> {
        if members.is_empty() || members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "window members must be non-empty and strictly ascending".into(),
            });
        }
        if let Some(&bad) = members.iter().find(|&&m| m >= comm.size()) {
            return Err(RuntimeError::InvalidRank { rank: bad, size: comm.size() });
        }
        if !members.contains(&comm.rank()) {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("window members must include the caller (rank {})", comm.rank()),
            });
        }
        emit_instant(
            EventId::RmaExpose,
            [win_id as u64, data.len() as u64, members.len() as u64, 0],
        );
        let sent = vec![0; members.len()];
        Ok(RmaWindow { comm, members, win_id, data, sent, get_order: Vec::new() })
    }

    fn member_index(&self, target: usize) -> Result<usize> {
        self.members
            .binary_search(&target)
            .map_err(|_| RuntimeError::InvalidRank { rank: target, size: self.comm.size() })
    }

    /// One-sided read of the `(offset, len)` runs of `target`'s exposed
    /// block. The data arrives at the next [`RmaWindow::fence`], which
    /// returns all issued gets' runs (concatenated per get) in issue order.
    pub fn get_runs(&mut self, target: usize, runs: Vec<(usize, usize)>) -> Result<()> {
        let idx = self.member_index(target)?;
        let elems: usize = runs.iter().map(|&(_, len)| len).sum();
        emit_instant(
            EventId::RmaGet,
            [self.win_id as u64, target as u64, runs.len() as u64, elems as u64],
        );
        self.comm.send(target, rma_tag(self.win_id, KIND_GET_REQ), RmaGetReq { runs })?;
        self.sent[idx] += 1;
        self.get_order.push(idx);
        Ok(())
    }

    /// Closes the access epoch: serves every get against the exposed
    /// block and returns this rank's own get results in issue order. Collective over the members;
    /// afterwards the window is ready for the next epoch.
    ///
    /// Deterministic drain order (ascending member rank) keeps traces
    /// digest-stable; a peer silent past the fence timeout (it died
    /// mid-epoch) surfaces as a failure-detection error. A get that reads
    /// past the target's block is answered with a refusal, so the fence
    /// still runs to its end on every member and then fails with
    /// [`RuntimeError::CollectiveMismatch`] on the target and the issuer.
    pub fn fence(&mut self) -> Result<Vec<Vec<f64>>> {
        // The span's second argument, once the put count, stays 0 so the
        // golden trace digests do not move.
        let my_gets: u64 = self.sent.iter().sum();
        let mut guard = span(EventId::RmaFence, [self.win_id as u64, 0, my_gets, 0]);

        // Phase 0: announce per-peer completion counts. All operation
        // traffic was already sent eagerly at issue time, so after this
        // loop everything the drain below waits for is in flight.
        for (&m, &gets) in self.members.iter().zip(&self.sent) {
            self.comm.send(m, rma_tag(self.win_id, KIND_FIN), RmaFin { gets })?;
        }

        // Phase 1: drain each member in ascending order — its counts, then
        // its gets against our block (served immediately; responses are
        // sends, so no cycle).
        let fin_tag = Tag::Value(rma_tag(self.win_id, KIND_FIN));
        let req_tag = Tag::Value(rma_tag(self.win_id, KIND_GET_REQ));
        let mut served_gets = 0u64;
        let mut failure = None;
        for &m in &self.members {
            let fin: RmaFin = self.comm.recv_timeout(m, fin_tag, RMA_FENCE_TIMEOUT)?;
            for _ in 0..fin.gets {
                let req: RmaGetReq = self.comm.recv_timeout(m, req_tag, RMA_FENCE_TIMEOUT)?;
                let data = self.serve_get(m, &req.runs);
                if let Err(detail) = &data {
                    failure.get_or_insert_with(|| detail.clone());
                }
                self.comm.send(m, rma_tag(self.win_id, KIND_GET_RESP), RmaGetResp { data })?;
                served_gets += 1;
            }
        }

        // Phase 2: collect our own get results. Per-peer FIFO order is
        // guaranteed by the transport; reassemble into global issue order.
        let resp_tag = Tag::Value(rma_tag(self.win_id, KIND_GET_RESP));
        let mut per_member: Vec<VecDeque<Vec<f64>>> =
            self.members.iter().map(|_| VecDeque::new()).collect();
        for (idx, &m) in self.members.iter().enumerate() {
            for _ in 0..self.sent[idx] {
                let resp: RmaGetResp = self.comm.recv_timeout(m, resp_tag, RMA_FENCE_TIMEOUT)?;
                match resp.data {
                    Ok(data) => per_member[idx].push_back(data),
                    Err(detail) => {
                        failure.get_or_insert(detail);
                    }
                }
            }
        }
        self.sent.iter_mut().for_each(|s| *s = 0);
        if let Some(detail) = failure {
            self.get_order.clear();
            return Err(RuntimeError::CollectiveMismatch { detail });
        }
        let results: Vec<Vec<f64>> = self
            .get_order
            .iter()
            .map(|&idx| per_member[idx].pop_front().expect("one response per issued get"))
            .collect();

        self.get_order.clear();
        guard.set_end([self.win_id as u64, 0, served_gets, 0]);
        Ok(results)
    }

    /// The `runs` of the exposed block that member `m` asked for,
    /// concatenated, or why they cannot be served.
    fn serve_get(
        &self,
        m: usize,
        runs: &[(usize, usize)],
    ) -> std::result::Result<Vec<f64>, String> {
        let total: usize = runs.iter().map(|&(_, len)| len).sum();
        let mut out = Vec::with_capacity(total);
        for &(off, len) in runs {
            let end = off + len;
            if end > self.data.len() {
                return Err(format!(
                    "get from member {m} reads {off}..{end} but the exposed block of member {} \
                     has {} elements",
                    self.comm.rank(),
                    self.data.len()
                ));
            }
            out.extend_from_slice(&self.data[off..end]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn get_runs_return_in_issue_order() {
        World::run(3, |p| {
            let c = p.world();
            let base = (c.rank() * 10) as f64;
            let mine: Vec<f64> = (0..6).map(|i| base + i as f64).collect();
            let mut win = RmaWindow::expose(c, 3, vec![0, 1, 2], mine).unwrap();
            if c.rank() == 0 {
                // Issue order deliberately interleaves targets, including a
                // second get to the same peer and a self-get.
                win.get_runs(2, vec![(0, 2)]).unwrap();
                win.get_runs(1, vec![(4, 2), (0, 1)]).unwrap();
                win.get_runs(2, vec![(5, 1)]).unwrap();
                win.get_runs(0, vec![(3, 3)]).unwrap();
            }
            let got = win.fence().unwrap();
            if c.rank() == 0 {
                assert_eq!(
                    got,
                    vec![vec![20.0, 21.0], vec![14.0, 15.0, 10.0], vec![25.0], vec![3.0, 4.0, 5.0],]
                );
            } else {
                assert!(got.is_empty());
            }
        });
    }

    #[test]
    fn window_supports_repeated_epochs() {
        World::run(2, |p| {
            let c = p.world();
            let mine: Vec<f64> = (0..3).map(|i| (10 * c.rank() + i) as f64).collect();
            let mut win = RmaWindow::expose(c, 9, vec![0, 1], mine).unwrap();
            for epoch in 0..3usize {
                if c.rank() == 0 {
                    win.get_runs(1, vec![(epoch, 1)]).unwrap();
                }
                // Each fence returns only its own epoch's gets.
                let got = win.fence().unwrap();
                if c.rank() == 0 {
                    assert_eq!(got, vec![vec![(10 + epoch) as f64]]);
                } else {
                    assert!(got.is_empty());
                }
            }
        });
    }

    #[test]
    fn single_rank_window_self_operations() {
        World::run(1, |p| {
            let c = p.world();
            let mut win = RmaWindow::expose(c, 5, vec![0], vec![1.0, 2.0, 3.0]).unwrap();
            win.get_runs(0, vec![(1, 2)]).unwrap();
            win.get_runs(0, vec![(0, 1)]).unwrap();
            assert_eq!(win.fence().unwrap(), vec![vec![2.0, 3.0], vec![1.0]]);
        });
    }

    #[test]
    fn window_subset_of_a_larger_comm() {
        World::run(3, |p| {
            let c = p.world();
            // Rank 1 is not a member and does nothing.
            if c.rank() == 1 {
                return;
            }
            let mut win = RmaWindow::expose(c, 2, vec![0, 2], vec![c.rank() as f64; 2]).unwrap();
            if c.rank() == 0 {
                win.get_runs(2, vec![(1, 1)]).unwrap();
            }
            let got = win.fence().unwrap();
            if c.rank() == 0 {
                assert_eq!(got, vec![vec![2.0]]);
            }
        });
    }

    #[test]
    fn invalid_members_and_targets_are_rejected() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                assert!(RmaWindow::expose(c, 0, vec![], vec![]).is_err(), "empty");
                assert!(RmaWindow::expose(c, 0, vec![0, 0], vec![]).is_err(), "not ascending");
                assert!(RmaWindow::expose(c, 0, vec![0, 9], vec![]).is_err(), "out of range");
                assert!(RmaWindow::expose(c, 0, vec![1], vec![]).is_err(), "caller excluded");
                let mut win = RmaWindow::expose(c, 0, vec![0], vec![0.0]).unwrap();
                assert!(win.get_runs(1, vec![(0, 1)]).is_err(), "non-member target");
            }
        });
    }

    #[test]
    fn out_of_bounds_get_fails_the_target_fence() {
        World::run(2, |p| {
            let c = p.world();
            let mut win = RmaWindow::expose(c, 4, vec![0, 1], vec![0.0; 2]).unwrap();
            if c.rank() == 0 {
                win.get_runs(1, vec![(1, 2)]).unwrap();
            }
            // The target refuses the read and answers the issuer, so both
            // fences fail with the range error, the issuer's well inside
            // the fence timeout.
            let start = std::time::Instant::now();
            let e = win.fence().unwrap_err();
            assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }), "{e}");
            assert!(e.to_string().contains("reads 1..3"), "{e}");
            assert!(start.elapsed() < Duration::from_secs(1), "rank {}: {e}", c.rank());
        });
    }
}

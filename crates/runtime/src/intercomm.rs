//! Inter-communicators: point-to-point messaging between two disjoint
//! groups ("parallel programs"), the substrate for inter-framework M×N
//! transfers (Figure 3 of the paper).
//!
//! An [`InterComm`] is the same [`Endpoint`] as a [`Comm`], addressing the
//! *remote* group instead of its own: rank numbers name remote-local
//! ranks, exactly like inter-communicator point-to-point in MPI, and every
//! send and receive is the endpoint's (see [`crate::comm`] for the receive
//! flavours and their accounting). What is added here is the two-group
//! bookkeeping: creation, the side index, liveness queries over both
//! groups, and the epoch changes (shrink, expand, contract, join).

use std::sync::Arc;
use std::time::Duration;

use crate::comm::{Comm, Endpoint};
use crate::envelope::Src;
use crate::error::{Result, RuntimeError};
use crate::membership::{agree_over, JoinOffer, ReconfigReport, ShrinkReport, JOIN_TAG};
use crate::reconfig::{mask, Rule};
use crate::shared::WorldShared;
use crate::stats::MailboxGauge;
use crate::tracing::ctx_class;
use mxn_trace::{emit_instant, EventId};

/// What only an [`InterComm`] carries beside its endpoint.
pub struct Inter {
    /// Global ranks of my own (local) group, index = local rank.
    local_group: Arc<Vec<usize>>,
    /// Which side of the intercomm this handle is (0 or 1, as passed to
    /// [`InterComm::create`]); gives the two programs a symmetric identity.
    side: usize,
}

/// A one-sided handle to an inter-communicator: an [`Endpoint`] whose
/// rank numbers address the *other* side's ranks by their remote-local
/// rank (0-based within the remote group), exactly like
/// `MPI_Comm_remote_size` / inter-communicator point-to-point in MPI.
pub type InterComm = Endpoint<Inter>;

impl std::fmt::Debug for InterComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterComm")
            .field("side", &self.kind.side)
            .field("local_rank", &self.rank)
            .field("local_group", &self.kind.local_group)
            .field("remote_group", &self.group)
            .field("context", &self.context)
            .finish()
    }
}

impl InterComm {
    /// Builds both-side handles collectively over `pair`, a communicator
    /// containing exactly the union of the two groups. `side` is 0 or 1 and
    /// must be consistent per group. Returns `(local_comm, intercomm)`.
    pub fn create(pair: &Comm, side: usize) -> Result<(Comm, InterComm)> {
        assert!(side < 2, "side must be 0 or 1");
        let sides: Vec<usize> = pair.allgather(side)?;
        let local = pair.split(side as i64, 0)?.expect("side is a valid non-negative color");

        // Remote group in pair-rank order (split preserves parent order for
        // equal keys, so remote-local rank k is the k-th remote pair rank).
        let remote_group: Vec<usize> =
            (0..pair.size()).filter(|&r| sides[r] != side).map(|r| pair.group()[r]).collect();
        if remote_group.is_empty() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "intercomm requires both sides non-empty".into(),
            });
        }

        let ctx = if pair.rank() == 0 {
            let ctx = pair.shared.allocate_context_pair();
            pair.bcast(0, Some(ctx))?
        } else {
            pair.bcast::<u32>(0, None)?
        };

        let groups = [local.group().to_vec(), remote_group];
        let ic = Self::at(&pair.shared, pair.global_rank(), groups, ctx, side);
        Ok((local, ic.expect("a rank belongs to its own side")))
    }

    /// `my_global`'s handle on the epoch `context` between `[local, remote]`
    /// groups, or `None` if it is not in the local one.
    fn at(
        shared: &Arc<WorldShared>,
        my_global: usize,
        [local, remote]: [Vec<usize>; 2],
        context: u32,
        side: usize,
    ) -> Option<InterComm> {
        let local_rank = local.iter().position(|&g| g == my_global)?;
        let kind = Inter { local_group: Arc::new(local), side };
        Some(Endpoint::new(shared.clone(), my_global, local_rank, Arc::new(remote), context, kind))
    }

    /// This handle's side index (0 or 1) — consistent across the ranks of
    /// one program and opposite on the peer program.
    pub fn side(&self) -> usize {
        self.kind.side
    }

    /// My rank within my own group.
    pub fn local_rank(&self) -> usize {
        self.rank
    }

    /// Size of my own group.
    pub fn local_size(&self) -> usize {
        self.kind.local_group.len()
    }

    /// Size of the remote group.
    pub fn remote_size(&self) -> usize {
        self.group.len()
    }

    /// The world ranks of my own group, in local-rank order. Elastic
    /// reconfiguration (connection-level expand/contract) uses these as
    /// the member lists of the redistribution window.
    pub(crate) fn local_group(&self) -> &[usize] {
        &self.kind.local_group
    }

    /// The world ranks of the remote group, in remote-rank order.
    pub(crate) fn remote_group(&self) -> &[usize] {
        &self.group
    }

    /// Takes one *measured* mailbox-depth sample for this rank: live bytes,
    /// the byte high-water mark since the previous sample, and the number
    /// of queued envelopes. The peak is reset as part of the read (so each
    /// sample covers exactly the interval since the last) — this is the
    /// sampling point autoscaling policies are meant to feed on, replacing
    /// caller-invented synthetic load numbers.
    pub fn sample_mailbox_gauge(&self) -> MailboxGauge {
        let mb = self.shared.mailbox(self.me);
        let gauge = MailboxGauge {
            live_bytes: mb.live_bytes(),
            peak_bytes: mb.peak_bytes(),
            depth_msgs: mb.len() as u64,
        };
        mb.reset_peak_bytes();
        gauge
    }

    /// Whether remote-local rank `r` has been marked dead.
    pub fn is_remote_dead(&self, r: usize) -> bool {
        self.remote_group().get(r).is_some_and(|&g| self.shared.liveness().is_dead(g))
    }

    /// The lowest-numbered dead rank on *either* side of the intercomm, as
    /// a world rank — or `None` while everyone is alive. Lets a collective
    /// transfer fail consistently on every surviving rank.
    pub fn any_dead(&self) -> Option<usize> {
        let liveness = self.shared.liveness();
        self.local_group()
            .iter()
            .chain(self.remote_group())
            .copied()
            .filter(|&g| liveness.is_dead(g))
            .min()
    }

    /// Both groups' global ranks, sorted — the agreement membership, which
    /// every rank of either side computes identically.
    fn union_sorted(&self) -> Vec<usize> {
        let mut m: Vec<usize> =
            self.local_group().iter().chain(self.remote_group()).copied().collect();
        m.sort_unstable();
        m
    }

    /// Fault-tolerant agreement across *both* groups: returns the bitwise
    /// AND of every surviving participant's `value`. Must be called by all
    /// survivors of both sides, in the same recovery order.
    pub(crate) fn agree(&self, value: u64) -> Result<u64> {
        self.decide(&self.union_sorted(), Rule::Value, value)
    }

    /// Boolean all-or-nothing vote over both groups: `true` iff every
    /// surviving participant voted `true`. The decision is a pure function
    /// of the agreed value, so all survivors decide identically — the
    /// primitive under transactional transfer commit.
    pub fn agree_all(&self, ok: bool) -> Result<bool> {
        self.agree(if ok { u64::MAX } else { 0 }).map(|v| v == u64::MAX)
    }

    /// Shrinks the intercomm to its survivors: both sides agree on the
    /// alive set, dead ranks are dropped from both groups, and each side is
    /// densely renumbered in ascending old-rank order on a fresh context.
    /// Idempotent for a given failure pattern (the survivor context is
    /// keyed on the agreed mask), so repeated heals of the same failure
    /// converge. The report maps new ranks back to old ones so coupling
    /// layers can re-derive data decompositions. A live participant that
    /// enters the shrink more than `(participants − 1) × 150 ms` after the
    /// others is voted out like a dead one and gets
    /// [`RuntimeError::PeerDead`].
    pub fn shrink_with_report(&self) -> Result<(InterComm, ShrinkReport)> {
        let members = self.union_sorted();
        let liveness = self.shared.liveness();
        let seen = mask(members.len(), |i| !liveness.is_dead(members[i]));
        let agreed = self.decide(&members, Rule::Membership, seen)?;
        let alive = |g: usize| {
            let i = members.binary_search(&g).expect("member lists are identical");
            agreed & (1 << i) != 0
        };
        let local_survivors: Vec<usize> =
            (0..self.local_group().len()).filter(|&r| alive(self.local_group()[r])).collect();
        let remote_survivors: Vec<usize> =
            (0..self.remote_group().len()).filter(|&r| alive(self.remote_group()[r])).collect();
        if local_survivors.is_empty() || remote_survivors.is_empty() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "shrink would leave one side of the intercomm empty".into(),
            });
        }
        if !local_survivors.contains(&self.rank) {
            return Err(RuntimeError::PeerDead { rank: self.rank });
        }
        let (ctx, epoch) = self.shared.epoch_context(self.context, agreed, None);
        emit_instant(
            EventId::Shrink,
            [
                members.len() as u64,
                (local_survivors.len() + remote_survivors.len()) as u64,
                ctx_class(ctx),
                0,
            ],
        );
        let groups = [
            local_survivors.iter().map(|&r| self.local_group()[r]).collect(),
            remote_survivors.iter().map(|&r| self.remote_group()[r]).collect(),
        ];
        let ic = Self::at(&self.shared, self.me, groups, ctx, self.kind.side);
        let ic = ic.expect("survivors include the caller");
        Ok((ic, ShrinkReport { local_survivors, remote_survivors, epoch }))
    }

    /// Collectively rebuilds this intercomm over new memberships — the
    /// grow-direction twin of [`InterComm::shrink_with_report`], and also
    /// the *graceful* (data-preserving) contract.
    ///
    /// `new_local` / `new_remote` are the complete global-rank lists of the
    /// two sides after the reconfiguration, from the caller's perspective;
    /// every incumbent member (both sides, including members that are about
    /// to leave) must call this with consistent arguments. Ranks present in
    /// the new membership but not in the old one are *newcomers* and must
    /// concurrently be parked in [`InterComm::await_join_with_report`] on
    /// the same world.
    ///
    /// The handshake is a join vote: the lowest incumbent (the *sponsor*)
    /// sends each newcomer a [`JoinOffer`], then every participant, leavers
    /// included, votes the alive set it sees in one [`Rule::Membership`]
    /// agreement on the proposed context's channel (a participant silent
    /// past the agreement's timeout is voted out, so a newcomer that is not
    /// parked aborts the attempt). Anything short of unanimity returns
    /// [`RuntimeError::ReconfigAborted`] everywhere with the old intercomm
    /// untouched — that error *is* the rollback. On commit the sponsor
    /// revokes the old context and every participant emits `Expand`.
    ///
    /// Returns `(None, report)` for a leaver, `(Some(ic), report)` for a
    /// member of the new epoch; `ic.recovery_seq` restarts at 0 for all.
    pub(crate) fn reconfigure(
        &self,
        new_local: Vec<usize>,
        new_remote: Vec<usize>,
    ) -> Result<(Option<InterComm>, ReconfigReport)> {
        if new_local.is_empty() || new_remote.is_empty() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "reconfigure requires both sides non-empty".into(),
            });
        }
        let mut new_members: Vec<usize> =
            new_local.iter().chain(new_remote.iter()).copied().collect();
        new_members.sort_unstable();
        if new_members.windows(2).any(|w| w[0] == w[1]) {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "new memberships must be disjoint and duplicate-free".into(),
            });
        }
        let old_members = self.union_sorted();
        let mut participants = old_members.clone();
        participants.extend(new_members.iter().copied());
        participants.sort_unstable();
        participants.dedup();

        // In lockstep on every incumbent: reconfigure is collective.
        let attempt = self.recovery_seq.get();
        self.recovery_seq.set(attempt + 1);
        let new_mask =
            mask(participants.len(), |i| new_members.binary_search(&participants[i]).is_ok());
        let (ctx, epoch) = self.shared.epoch_context(self.context, new_mask, Some(attempt));

        // The reconfiguration as rank `g` sees it; `flip` for the far side.
        let view = |g: usize, flip: bool| {
            let (mut sides, mut old) =
                ([&new_local[..], &new_remote[..]], [self.local_group(), self.remote_group()]);
            if flip {
                sides.reverse();
                old.reverse();
            }
            JoinOffer {
                side: self.kind.side ^ usize::from(flip),
                local_rank: sides[0].iter().position(|&x| x == g).unwrap_or(sides[0].len()),
                context: ctx,
                attempt,
                epoch,
                local_group: sides[0].to_vec(),
                remote_group: sides[1].to_vec(),
                old_local_group: old[0].to_vec(),
                old_remote_group: old[1].to_vec(),
                participants: participants.clone(),
            }
        };
        let sponsor = old_members[0] == self.me;
        let world = Comm::world(self.shared.clone(), self.me);
        let _reliable = self.shared.reliable(self.me);
        if sponsor {
            for &g in participants.iter().filter(|g| old_members.binary_search(g).is_err()) {
                world.send(g, JOIN_TAG, view(g, !new_local.contains(&g)))?;
            }
        }
        let joined = Self::join(&world, view(self.me, false))?;
        // One designated revoker: the Revoke trace event fires only on the
        // newly-revoking caller, so racing revokes would be digest-racy.
        if sponsor {
            self.shared.revoke_context(self.context);
        }
        Ok(joined)
    }

    /// Grows the intercomm: appends `add_local` / `add_remote` (global
    /// ranks, each parked in [`InterComm::await_join_with_report`]) to the
    /// two groups. Collective over every incumbent member. The sponsor
    /// offers each newcomer its seat and everyone votes once: anything
    /// short of a unanimous commit returns [`RuntimeError::ReconfigAborted`]
    /// everywhere with the old intercomm untouched.
    pub fn expand(
        &self,
        add_local: &[usize],
        add_remote: &[usize],
    ) -> Result<(InterComm, ReconfigReport)> {
        let mut new_local = self.local_group().to_vec();
        new_local.extend_from_slice(add_local);
        let mut new_remote = self.remote_group().to_vec();
        new_remote.extend_from_slice(add_remote);
        let (ic, report) = self.reconfigure(new_local, new_remote)?;
        Ok((ic.expect("expand keeps every incumbent member"), report))
    }

    /// Gracefully contracts the intercomm to the given *local ranks* on
    /// each side (ascending), with the leavers still participating in the
    /// commit vote (unlike [`InterComm::shrink_with_report`], which drops
    /// the dead). Leavers receive `(None, report)`; the data they own can
    /// be moved off before the old context is retired via the report.
    pub fn contract(
        &self,
        keep_local_ranks: &[usize],
        keep_remote_ranks: &[usize],
    ) -> Result<(Option<InterComm>, ReconfigReport)> {
        let pick = |group: &[usize], keep: &[usize]| -> Result<Vec<usize>> {
            keep.iter()
                .map(|&r| {
                    group
                        .get(r)
                        .copied()
                        .ok_or(RuntimeError::InvalidRank { rank: r, size: group.len() })
                })
                .collect()
        };
        let new_local = pick(self.local_group(), keep_local_ranks)?;
        let new_remote = pick(self.remote_group(), keep_remote_ranks)?;
        self.reconfigure(new_local, new_remote)
    }

    /// Parks a newcomer rank until a reconfiguration sponsor invites it,
    /// then takes part in the commit vote. `world` must be the rank's world
    /// communicator. On commit returns the newcomer's handle in the new
    /// epoch plus the same [`ReconfigReport`] every incumbent receives (a
    /// joiner needs the old groups to know who holds the pre-grow shards);
    /// on an aborted handshake returns [`RuntimeError::ReconfigAborted`]
    /// (the caller may park again for the retry), and on `timeout` without
    /// any invitation the underlying [`RuntimeError::Timeout`].
    pub fn await_join_with_report(
        world: &Comm,
        timeout: Duration,
    ) -> Result<(InterComm, ReconfigReport)> {
        let _reliable = world.shared.reliable(world.global_rank());
        let offer: JoinOffer = world.recv_timeout(Src::Any, JOIN_TAG, timeout)?;
        let (ic, report) = Self::join(world, offer)?;
        Ok((ic.expect("an offer names the newcomer in its new group"), report))
    }

    /// Any participant's seat in the join vote on `offer` (written from its
    /// side); on commit, its handle in the new epoch (`None` for a leaver).
    fn join(world: &Comm, offer: JoinOffer) -> Result<(Option<InterComm>, ReconfigReport)> {
        let shared = &world.shared;
        let members = &offer.participants;
        let n = members.len();
        let liveness = shared.liveness();
        let alive = mask(n, |i| !liveness.is_dead(members[i]));
        let agreed = agree_over(world, members, (offer.context, 0), Rule::Membership, alive)?;
        if agreed != mask(n, |_| true) {
            return Err(RuntimeError::ReconfigAborted {
                context: offer.context,
                attempt: offer.attempt,
            });
        }
        emit_instant(
            EventId::Expand,
            [
                n as u64,
                (offer.local_group.len() + offer.remote_group.len()) as u64,
                ctx_class(offer.context),
                offer.attempt,
            ],
        );
        let groups = [offer.local_group.clone(), offer.remote_group.clone()];
        let ic = Self::at(shared, world.global_rank(), groups, offer.context, offer.side);
        let report = ReconfigReport {
            old_local_group: offer.old_local_group,
            old_remote_group: offer.old_remote_group,
            new_local_group: offer.local_group,
            new_remote_group: offer.remote_group,
            epoch: offer.epoch,
            attempt: offer.attempt,
        };
        Ok((ic, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Tag;
    use crate::world::{RunOpts, World};

    /// Splits a world of m + n ranks into two programs joined by an
    /// intercomm; returns per-rank (local_rank, remote_size, probe result).
    fn two_programs(m: usize, n: usize) {
        World::run(m + n, move |p| {
            let world = p.world();
            let side = usize::from(p.rank() >= m);
            let (local, ic) = InterComm::create(world, side).unwrap();

            assert_eq!(local.size(), if side == 0 { m } else { n });
            assert_eq!(ic.local_size(), local.size());
            assert_eq!(ic.remote_size(), if side == 0 { n } else { m });
            assert_eq!(ic.local_rank(), local.rank());

            // Every rank of side 0 sends its local rank to remote rank
            // (local_rank % n); side 1 counts what it receives.
            if side == 0 {
                ic.send(local.rank() % n, 7, local.rank() as u64).unwrap();
            } else {
                let expect: Vec<usize> = (0..m).filter(|r| r % n == local.rank()).collect();
                let mut got = Vec::new();
                for _ in &expect {
                    let (v, info) = ic.recv_with_info::<u64>(Src::Any, 7).unwrap();
                    assert_eq!(v as usize, info.src);
                    got.push(v as usize);
                }
                got.sort_unstable();
                assert_eq!(got, expect);
            }
        });
    }

    #[test]
    fn m_equals_n() {
        two_programs(3, 3);
    }

    #[test]
    fn m_greater_than_n() {
        two_programs(8, 3);
    }

    #[test]
    fn m_less_than_n() {
        two_programs(2, 5);
    }

    #[test]
    fn one_sided_singleton() {
        two_programs(1, 4);
    }

    #[test]
    fn intercomm_isolated_from_world_traffic() {
        World::run(2, |p| {
            let world = p.world();
            let (_, ic) = InterComm::create(world, p.rank()).unwrap();
            if p.rank() == 0 {
                world.send(1, 3, 1u8).unwrap();
                ic.send(0, 3, 2u8).unwrap();
            } else {
                // The intercomm receive must not see the world message even
                // though src/tag patterns would match.
                assert_eq!(ic.recv::<u8>(0, 3).unwrap(), 2);
                assert_eq!(world.recv::<u8>(0, 3).unwrap(), 1);
            }
        });
    }

    #[test]
    fn invalid_remote_rank() {
        World::run(2, |p| {
            let (_, ic) = InterComm::create(p.world(), p.rank()).unwrap();
            assert!(matches!(
                ic.send(5, 0, 0u8),
                Err(RuntimeError::InvalidRank { rank: 5, size: 1 })
            ));
        });
    }

    #[test]
    fn empty_side_rejected() {
        World::run(2, |p| {
            let r = InterComm::create(p.world(), 0);
            assert!(matches!(r, Err(RuntimeError::CollectiveMismatch { .. })));
        });
    }

    #[test]
    fn timeout_across_programs() {
        World::run(2, |p| {
            let (_, ic) = InterComm::create(p.world(), p.rank()).unwrap();
            let e = ic.recv_timeout::<u8>(0, 0, Duration::from_millis(10)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }));
        });
    }

    #[test]
    fn revoke_poisons_both_sides() {
        World::run(4, |p| {
            let side = usize::from(p.rank() >= 2);
            let (local, ic) = InterComm::create(p.world(), side).unwrap();
            if p.rank() == 0 {
                assert!(ic.revoke());
                assert!(!ic.revoke(), "idempotent");
                assert!(ic.shared.revocations().is_revoked(ic.context));
                let e = ic.send(0, 1, 1u8).unwrap_err();
                assert!(matches!(e, RuntimeError::Revoked { .. }));
            } else {
                let e = ic.recv::<u8>(Src::Any, Tag::Any).unwrap_err();
                assert!(
                    matches!(e, RuntimeError::Revoked { .. }),
                    "both sides fall out of the epoch: {e}"
                );
            }
            // Intra-side communicators and the world keep working.
            local.barrier().unwrap();
        });
    }

    #[test]
    fn agree_all_is_unanimous_or_false_everywhere() {
        let votes = World::run(4, |p| {
            let side = usize::from(p.rank() >= 2);
            let (_, ic) = InterComm::create(p.world(), side).unwrap();
            let first = ic.agree_all(true).unwrap();
            let second = ic.agree_all(p.rank() != 3).unwrap();
            (first, second)
        });
        for (first, second) in votes {
            assert!(first, "unanimous yes commits");
            assert!(!second, "one dissent rolls everyone back");
        }
    }

    #[test]
    fn expand_admits_newcomers_on_both_sides() {
        World::run(6, |p| {
            let world = p.world();
            // Start: side 0 = {0,1}, side 1 = {2,3}; ranks 4 and 5 are
            // spare capacity that joins one side each.
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() >= 4 {
                let (ic, _) =
                    InterComm::await_join_with_report(world, Duration::from_secs(5)).unwrap();
                assert_eq!(ic.side(), usize::from(p.rank() == 5));
                assert_eq!(ic.local_rank(), 2, "appended after the incumbents");
                assert_eq!(ic.local_size(), 3);
                assert_eq!(ic.remote_size(), 3);
                // The new epoch carries traffic newcomer-to-newcomer.
                let (mine, theirs) = (p.rank() as u64, if p.rank() == 4 { 5 } else { 4 });
                ic.send(2, 9, mine).unwrap();
                assert_eq!(ic.recv::<u64>(2, 9).unwrap(), theirs);
                return;
            }
            let side = usize::from(p.rank() >= 2);
            let (_, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
            let (add_local, add_remote) =
                if side == 0 { (&[4][..], &[5][..]) } else { (&[5][..], &[4][..]) };
            let (grown, report) = ic.expand(add_local, add_remote).unwrap();
            assert_eq!(report.epoch, 1);
            assert_eq!(grown.local_size(), 3);
            assert_eq!(grown.remote_size(), 3);
            assert_eq!(grown.local_rank(), ic.local_rank(), "incumbents keep their rank");
            if side == 0 {
                assert_eq!(report.old_local_group, vec![0, 1]);
                assert_eq!(report.new_local_group, vec![0, 1, 4]);
                assert_eq!(report.new_remote_group, vec![2, 3, 5]);
            }
            // The old epoch is retired (by the sponsor, so slightly after
            // other ranks commit): stale traffic cannot match.
            while !ic.shared.revocations().is_revoked(ic.context) {
                std::thread::yield_now();
            }
            // And the grown channel works incumbent-to-incumbent too.
            grown.send(grown.local_rank(), 3, p.rank() as u64).unwrap();
            let (v, info) = grown.recv_with_info::<u64>(Src::Any, 3).unwrap();
            assert_eq!(info.src, grown.local_rank());
            let expect = if side == 0 { p.rank() + 2 } else { p.rank() - 2 };
            assert_eq!(v, expect as u64);
        });
    }

    #[test]
    fn expand_aborts_and_rolls_back_when_newcomer_dies_then_retry_commits() {
        use crate::fault::FaultConfig;
        let cfg = FaultConfig::reliable(17);
        let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
        World::run_opts(6, opts, |p| {
            let world = p.world();
            // side 0 = {0,1}, side 1 = {2,3}; rank 4 dies before joining,
            // rank 5 is the healthy spare the retry admits instead.
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() == 4 {
                p.kill_rank(4);
                return;
            }
            if p.rank() == 5 {
                let (ic, _) =
                    InterComm::await_join_with_report(world, Duration::from_secs(5)).unwrap();
                assert_eq!(ic.local_rank(), 2);
                assert_eq!(ic.recv::<u64>(0, 11).unwrap(), 7);
                return;
            }
            // The kill must be visible before the vote so every incumbent
            // observes the same (partial) alive set.
            while !p.is_dead(4) {
                std::thread::yield_now();
            }
            let side = usize::from(p.rank() >= 2);
            let (_, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
            let attempt1 =
                if side == 0 { ic.expand(&[4], &[]) } else { ic.expand(&[], &[4]) }.unwrap_err();
            assert!(attempt1.is_reconfig_aborted(), "dead joiner aborts the vote: {attempt1}");
            // Transactional rollback: the old epoch is untouched and live.
            assert!(!ic.shared.revocations().is_revoked(ic.context));
            ic.send(ic.local_rank(), 3, p.rank() as u64).unwrap();
            let echoed = ic.recv::<u64>(ic.local_rank(), 3).unwrap();
            let expect = if side == 0 { p.rank() + 2 } else { p.rank() - 2 };
            assert_eq!(echoed, expect as u64);
            // Retry with the healthy spare commits on a fresh attempt.
            let (grown, report) =
                if side == 0 { ic.expand(&[5], &[]) } else { ic.expand(&[], &[5]) }.unwrap();
            assert_eq!(report.attempt, 1, "second attempt");
            assert_eq!(grown.local_size() + grown.remote_size(), 5);
            // Rank 5 joined side 0; side 1's first rank greets it.
            if p.rank() == 2 {
                grown.send(2, 11, 7u64).unwrap();
            }
        });
    }

    #[test]
    fn an_expand_naming_an_unparked_rank_leaves_no_debt_on_its_tag() {
        World::run(3, |p| {
            let world = p.world();
            // side 0 = {0}, side 1 = {1}; rank 2 is alive but never parks,
            // so the expand that names it aborts on its silence.
            let pair = world.split(if p.rank() < 2 { 0 } else { -1 }, 0).unwrap();
            let ctx = if let Some(pair) = pair {
                let (_, ic) = InterComm::create(&pair, p.rank()).unwrap();
                let add: [&[usize]; 2] = [&[2], &[]];
                let e = ic.expand(add[p.rank()], add[1 - p.rank()]).unwrap_err();
                let RuntimeError::ReconfigAborted { context, .. } = e else { panic!("{e}") };
                world.send(2, 1, context).unwrap();
                context
            } else {
                world.recv::<u32>(0, 1).unwrap()
            };
            // An agreement whose tags collide with the aborted vote's: it
            // must hear rank 2, and rank 2 must skip the votes it never read.
            let agreed = agree_over(world, &[0, 1, 2], (ctx + 1024, 64), Rule::Membership, 0b111);
            assert_eq!(agreed.unwrap(), 0b111);
        });
    }

    #[test]
    fn contract_retires_leavers_gracefully() {
        World::run(5, |p| {
            // side 0 = {0,1,2}, side 1 = {3,4}; local rank 2 of side 0
            // leaves voluntarily (no death involved).
            let side = usize::from(p.rank() >= 3);
            let (_, ic) = InterComm::create(p.world(), side).unwrap();
            let (shrunk, report) = ic.contract(&[0, 1], &[0, 1]).unwrap();
            assert_eq!(report.epoch, 1);
            if p.rank() == 2 {
                assert!(shrunk.is_none(), "leavers get no handle in the new epoch");
                assert_eq!(report.new_local_group, vec![0, 1]);
                return;
            }
            let shrunk = shrunk.unwrap();
            assert_eq!(shrunk.local_size() + shrunk.remote_size(), 4);
            // Retired by the sponsor once the contract commits.
            while !ic.shared.revocations().is_revoked(ic.context) {
                std::thread::yield_now();
            }
            shrunk.send(shrunk.local_rank(), 6, p.rank() as u64).unwrap();
            let v = shrunk.recv::<u64>(shrunk.local_rank(), 6).unwrap();
            let expect = if side == 0 { p.rank() + 3 } else { p.rank() - 3 };
            assert_eq!(v, expect as u64);
        });
    }

    #[test]
    fn await_join_times_out_without_invitation() {
        World::run(1, |p| {
            let e = InterComm::await_join_with_report(p.world(), Duration::from_millis(10))
                .unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }));
        });
    }

    #[test]
    fn shrink_drops_dead_ranks_from_both_groups() {
        use crate::fault::FaultConfig;
        let cfg = FaultConfig::reliable(5);
        let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
        World::run_opts(5, opts, |p| {
            // Side 0 = ranks {0,1,2}, side 1 = ranks {3,4}; rank 1 dies.
            let side = usize::from(p.rank() >= 3);
            let (_, ic) = InterComm::create(p.world(), side).unwrap();
            if p.rank() == 1 {
                p.kill_rank(1);
                return;
            }
            // Shrink drops only deaths already visible; wait for the kill.
            while !p.is_dead(1) {
                std::thread::yield_now();
            }
            let (healed, report) = ic.shrink_with_report().unwrap();
            if side == 0 {
                assert_eq!(report.local_survivors, vec![0, 2]);
                assert_eq!(report.remote_survivors, vec![0, 1]);
                assert_eq!(healed.local_size(), 2);
                assert_eq!(healed.remote_size(), 2);
                assert_eq!(healed.local_rank(), if p.rank() == 0 { 0 } else { 1 });
            } else {
                assert_eq!(report.local_survivors, vec![0, 1]);
                assert_eq!(report.remote_survivors, vec![0, 2]);
                assert_eq!(healed.remote_size(), 2);
            }
            assert_eq!(report.epoch, 1);
            // The healed channel carries traffic with the new numbering:
            // side-0 new rank r sends to side-1 new rank r.
            if side == 0 {
                healed.send(healed.local_rank(), 9, p.rank() as u64).unwrap();
            } else {
                let (v, info) = healed.recv_with_info::<u64>(Src::Any, 9).unwrap();
                assert_eq!(info.src, healed.local_rank());
                assert_eq!(v, 2 * healed.local_rank() as u64, "old rank of the new sender");
            }
        });
    }

    #[test]
    fn agree_ands_votes_and_skips_the_dead() {
        use crate::fault::FaultConfig;
        let opts = RunOpts { faults: Some(FaultConfig::reliable(7)), ..RunOpts::default() };
        let masks = World::run_opts(4, opts, |p| {
            // Side 0 = ranks {0,1}, side 1 = ranks {2,3}; rank 0 dies.
            let (_, ic) = InterComm::create(p.world(), usize::from(p.rank() >= 2)).unwrap();
            if p.rank() == 0 {
                p.kill_rank(0);
                return 0;
            }
            ic.agree(if p.rank() == 1 { 0b110 } else { 0b111 }).unwrap()
        })
        .results;
        assert_eq!(masks[1..], [0b110; 3], "all survivors agree on the AND of survivor votes");
    }

    #[test]
    fn a_late_vote_does_not_poison_the_agreement_64_instances_later() {
        // Rank 1's first vote lands after rank 0's 150 ms deadline, so it
        // waits in rank 0's mailbox on a tag that agreement #64 reuses.
        let decided = World::run(2, |p| {
            let (_, ic) = InterComm::create(p.world(), p.rank()).unwrap();
            if p.rank() == 1 {
                std::thread::sleep(Duration::from_millis(200));
            }
            ic.agree(if p.rank() == 1 { 0 } else { u64::MAX }).unwrap();
            for _ in 1..64 {
                ic.agree(u64::MAX).unwrap();
            }
            ic.agree(u64::MAX).unwrap()
        });
        assert_eq!(decided, vec![u64::MAX; 2], "agreement #64 read #0's late vote");
    }

    #[test]
    fn membership_above_64_ranks_is_a_typed_error_on_every_rank() {
        let errors = World::run(65, |p| {
            let (_, ic) = InterComm::create(p.world(), usize::from(p.rank() >= 64)).unwrap();
            let shrink = ic.shrink_with_report().expect_err("65 ranks cannot shrink");
            [ic.agree(1).unwrap_err(), shrink]
        });
        for e in errors.iter().flatten() {
            assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }), "{e}");
        }
    }

    #[test]
    fn a_live_rank_entering_shrink_late_within_its_budget_survives() {
        // Three participants give each round (3 − 1) × 150 ms: a rank 170 ms
        // late is still heard, and nobody is voted out.
        World::run(3, |p| {
            let (_, ic) = InterComm::create(p.world(), usize::from(p.rank() >= 2)).unwrap();
            if p.rank() == 2 {
                std::thread::sleep(Duration::from_millis(170));
            }
            let (_, report) = ic.shrink_with_report().unwrap();
            let sizes = (report.local_survivors.len(), report.remote_survivors.len());
            assert_eq!(sizes, if p.rank() < 2 { (2, 1) } else { (1, 2) });
        });
    }

    #[test]
    fn repeated_shrink_is_idempotent_on_the_same_failure() {
        use crate::fault::FaultConfig;
        let opts = RunOpts { faults: Some(FaultConfig::reliable(13)), ..RunOpts::default() };
        World::run_opts(4, opts, |p| {
            // Side 0 = ranks {0,1}, side 1 = ranks {2,3}; rank 3 dies.
            let (_, ic) = InterComm::create(p.world(), usize::from(p.rank() >= 2)).unwrap();
            if p.rank() == 3 {
                p.kill_rank(3);
                return;
            }
            while !p.is_dead(3) {
                std::thread::yield_now();
            }
            let (first, first_report) = ic.shrink_with_report().unwrap();
            let (second, second_report) = ic.shrink_with_report().unwrap();
            assert_eq!(first.context, second.context, "same survivor mask, same context");
            assert_eq!(first.local_rank(), second.local_rank());
            assert_eq!(first_report, second_report);
        });
    }
}

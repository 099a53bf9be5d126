//! Reconfiguration is one machine: every membership decision — a value
//! agreement, a shrink's survivor mask, a join's commit vote, the wire's
//! survivor list — is one [`Reconfig`] instance, a pure state machine that
//! [`drive`] runs over a carrier's [`ControlPlane`].
//!
//! Two rounds of complete-graph flooding AND-combine `u64` values: round 0
//! sends the own value, round 1 the round-0 combination, and the decision
//! is that combination ANDed with every round-1 value heard. Round `r`
//! closes `(r + 1) × timeout` after the participant started, so it decides
//! within `2 × timeout`. Under [`Rule::Membership`] values carry one
//! bit per participant, and a participant silent to me in round 0 has its
//! bit cleared from the value I send in round 1; round-1 silence changes
//! nothing. So a bit survives in my decision only if I heard its
//! participant, and all correct participants decide alike under at most
//! one fault per instance: one crash at any step, or one message past its
//! deadline. A join is a sponsor's offers (carrier code, sent before the
//! instance starts) followed by a [`Rule::Membership`] instance over
//! readiness masks that commits only when unanimous. DESIGN §4k states the
//! model.

use std::time::{Duration, Instant};

use crate::error::{Result, RuntimeError};

/// Largest participant count: decisions are `u64` masks, one bit each.
pub const MAX_PARTICIPANTS: usize = 64;

/// How silence shapes the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The AND of the values heard; silent participants are left out.
    Value,
    /// Survivor and readiness masks: round-0 silence clears the silent
    /// participant's bit.
    Membership,
}

/// What the carrier tells the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `from`'s round-`round` value arrived.
    Heard { from: usize, round: u8, value: u64 },
    /// The outstanding [`Action::Expect`] passed its deadline, or its
    /// sender is dead or its message damaged.
    Silent { from: usize, round: u8 },
}

/// What the machine asks of the carrier, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send `to` this participant's round-`round` value.
    Send { to: usize, round: u8, value: u64 },
    /// Wait for `from`'s round-`round` value until `deadline` (since the
    /// start). At most one wait is outstanding.
    Expect { from: usize, round: u8, deadline: Duration },
    /// The decision; later events change nothing.
    Decide(u64),
}

/// The mask of participants `i < n` for which `f(i)` holds. Bits from
/// [`MAX_PARTICIPANTS`] up are dropped: [`Reconfig::new`] rejects those.
pub fn mask(n: usize, f: impl Fn(usize) -> bool) -> u64 {
    (0..n.min(MAX_PARTICIPANTS)).filter(|&i| f(i)).fold(0, |m, i| m | 1 << i)
}

/// One instance, from one participant's seat.
#[derive(Debug, Clone)]
pub struct Reconfig {
    n: usize,
    me: usize,
    rule: Rule,
    timeout: Duration,
    start: Duration,
    /// Current round; 2 once decided.
    round: u8,
    /// Own value ANDed with the round-0 values heard (bits cleared for
    /// round-0 silence under the membership rule).
    acc: u64,
    /// AND of the round-1 values heard, some possibly during round 0.
    late: u64,
    /// Per round, the participants heard or given up on.
    done: [u64; 2],
}

impl Reconfig {
    /// Participant `me` of `n`, contributing `value`, waiting at most
    /// `timeout` per round. Over [`MAX_PARTICIPANTS`] participants, or `me`
    /// outside them, is a [`RuntimeError::CollectiveMismatch`] — on every
    /// participant alike.
    pub fn new(n: usize, me: usize, value: u64, rule: Rule, timeout: Duration) -> Result<Self> {
        if n > MAX_PARTICIPANTS || me >= n {
            let detail = format!("participant {me} of {n}: masks are u64, at most 64 participants");
            return Err(RuntimeError::CollectiveMismatch { detail });
        }
        let (start, late, done) = (Duration::ZERO, u64::MAX, [1 << me; 2]);
        Ok(Reconfig { n, me, rule, timeout, start, round: 0, acc: value, late, done })
    }

    /// Starts at `now`: the round-0 sends, then the first wait.
    pub fn start(&mut self, now: Duration) -> Vec<Action> {
        self.start = now;
        let mut out = Vec::new();
        self.send_round(&mut out);
        self.advance(&mut out);
        out
    }

    /// Feeds one event and returns what it unblocks. Duplicates, values
    /// for a closed round and silences nobody waits for change nothing.
    pub fn step(&mut self, event: Event, _now: Duration) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Heard { from, round, value } => {
                if round < self.round || round > 1 || from >= self.n || self.done(round, from) {
                    return out;
                }
                self.done[round as usize] |= 1 << from;
                *if round == 0 { &mut self.acc } else { &mut self.late } &= value;
            }
            Event::Silent { from, round } => {
                if round != self.round || self.next() != Some(from) {
                    return out;
                }
                self.done[round as usize] |= 1 << from;
                if round == 0 && self.rule == Rule::Membership {
                    self.acc &= !(1 << from);
                }
            }
        }
        self.advance(&mut out);
        out
    }

    fn done(&self, round: u8, i: usize) -> bool {
        self.done[round as usize] & 1 << i != 0
    }

    /// Whom the current round waits for next.
    fn next(&self) -> Option<usize> {
        (0..self.n).find(|&i| self.round < 2 && !self.done(self.round, i))
    }

    fn send_round(&self, out: &mut Vec<Action>) {
        let (round, value) = (self.round, self.acc);
        out.extend((0..self.n).filter(|&to| to != self.me).map(|to| Action::Send {
            to,
            round,
            value,
        }));
    }

    /// Emits the next wait, closing rounds (and deciding) as they fill up.
    fn advance(&mut self, out: &mut Vec<Action>) {
        while self.round < 2 && self.next().is_none() {
            self.round += 1;
            if self.round == 2 {
                out.push(Action::Decide(self.acc & self.late));
            } else {
                self.send_round(out);
            }
        }
        if let Some(from) = self.next() {
            let deadline = self.start + self.timeout * (u32::from(self.round) + 1);
            out.push(Action::Expect { from, round: self.round, deadline });
        }
    }
}

/// A carrier's control plane, addressed by participant index.
pub trait ControlPlane {
    /// Sends `to` this participant's round-`round` value; a dead receiver
    /// is not an error.
    fn send(&mut self, to: usize, round: u8, value: u64) -> Result<()>;

    /// Receives `from`'s round-`round` value within `timeout`. Timeouts,
    /// dead senders and damaged messages are silence; other errors abort.
    fn recv(&mut self, from: usize, round: u8, timeout: Duration) -> Result<u64>;
}

/// Runs `machine` to its decision over `plane`, in real time.
pub fn drive(machine: &mut Reconfig, plane: &mut impl ControlPlane) -> Result<u64> {
    let clock = Instant::now();
    let mut actions = machine.start(Duration::ZERO);
    loop {
        let mut event = None;
        for action in actions {
            match action {
                Action::Send { to, round, value } => plane.send(to, round, value)?,
                Action::Expect { from, round, deadline } => {
                    let got = plane.recv(from, round, deadline.saturating_sub(clock.elapsed()));
                    event = Some(match got {
                        Ok(value) => Event::Heard { from, round, value },
                        Err(RuntimeError::Corrupt { .. }) => Event::Silent { from, round },
                        Err(e) if e.is_failure_detection() => Event::Silent { from, round },
                        Err(e) => return Err(e),
                    });
                }
                Action::Decide(value) => return Ok(value),
            }
        }
        actions = machine.step(event.expect("the machine waits until it decides"), clock.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_than_64_participants_is_a_typed_error() {
        let t = Duration::from_millis(1);
        assert!(Reconfig::new(64, 63, 0, Rule::Value, t).is_ok());
        let e = Reconfig::new(65, 0, 0, Rule::Value, t).unwrap_err();
        assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }), "{e}");
        assert!(Reconfig::new(3, 3, 0, Rule::Value, t).is_err(), "me outside the instance");
        assert_eq!(mask(70, |_| true), u64::MAX);
    }

    #[test]
    fn a_lone_participant_decides_its_own_value_at_once() {
        let mut m = Reconfig::new(1, 0, 0b101, Rule::Membership, Duration::from_secs(1)).unwrap();
        assert_eq!(m.start(Duration::ZERO), vec![Action::Decide(0b101)]);
    }

    #[test]
    fn round_zero_silence_clears_the_bit_only_under_the_membership_rule() {
        let t = Duration::from_millis(10);
        for (rule, want) in [(Rule::Value, 0b111), (Rule::Membership, 0b011)] {
            let mut m = Reconfig::new(3, 0, 0b111, rule, t).unwrap();
            let a = m.start(Duration::ZERO);
            assert_eq!(a.last(), Some(&Action::Expect { from: 1, round: 0, deadline: t }));
            m.step(Event::Heard { from: 1, round: 0, value: 0b111 }, Duration::ZERO);
            let a = m.step(Event::Silent { from: 2, round: 0 }, t);
            assert_eq!(a[0], Action::Send { to: 1, round: 1, value: want });
            assert_eq!(a[2], Action::Expect { from: 1, round: 1, deadline: t * 2 });
            m.step(Event::Heard { from: 1, round: 1, value: 0b111 }, t);
            // Silence in round 1 changes nothing, under either rule.
            let a = m.step(Event::Silent { from: 2, round: 1 }, t * 2);
            assert_eq!(a, vec![Action::Decide(want)]);
        }
    }
}

//! Explores the reconfiguration machine (`mxn_runtime::reconfig`) under a
//! virtual clock. Each seeded schedule runs 2–6 participants — newcomers
//! among them in join schedules — whose messages are reordered, delayed
//! (to `deadline − ε`, `deadline + ε`, or far past it) and duplicated, with
//! at most one crash at any step: the sponsor in the middle of its offers,
//! or any participant between two of its sends. The sponsor sends its
//! offers before its instance starts, as both carriers do, and the join
//! commits only on a unanimous [`Rule::Membership`] decision. Participants
//! read their mailboxes the way `reconfig::drive` over a real carrier does:
//! one wait at a time, FIFO per sender and round tag, and back-to-back
//! agreements share their tags (the worst case of a wrapped sequence), so
//! a reader drops arrivals of earlier instances as the in-proc carrier's
//! in-flight ledger does.
//!
//! Checked on every schedule: validity (a decision never exceeds the
//! decider's own value; under the membership rules every bit set in it
//! belongs to a participant the decider heard in round 0, so a join never
//! commits a participant nobody heard), termination within
//! `Reconfig::bound` of the start, duplicates changing nothing, and
//! isolation (no participant ever reads a message of another instance).
//! Checked on schedules with at most one fault per instance — one crash,
//! or one message read as silent although it was sent: agreement.
//!
//! A violation names the seed that replays it:
//! `MXN_EXPLORER_SEED=<seed> cargo test -p mxn-runtime --test reconfig_explorer`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::time::Duration;

use mxn_runtime::reconfig::{mask, Action, Event, Reconfig, Rule};
use mxn_runtime::splitmix64;

/// Seeds the sweep explores.
const SCHEDULES: u64 = 100_000;
/// Per-round timeout, in virtual microseconds.
const T: u64 = 1_000;
const EPS: u64 = 1;

fn at(t: u64) -> Duration {
    Duration::from_micros(t)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Value,
    Membership,
    /// Participant 0 sponsors; `newcomers` start only once its offer lands.
    Join {
        newcomers: u64,
    },
}

/// How message delays are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Delays {
    /// Every message takes exactly this long.
    Fixed(u64),
    /// Within `T/3`, or exactly `deadline − ε`.
    Timely,
    /// Timely, except message number `late` arrives `deadline + ε` (or far
    /// past it when the receiver has not started yet).
    OneLate { late: usize },
    /// Anything, late ones included.
    Chaos,
}

#[derive(Debug, Clone)]
struct Schedule {
    kind: Kind,
    n: usize,
    /// `values[instance][participant]`.
    values: Vec<Vec<u64>>,
    /// Start times of the participants that start on their own.
    starts: Vec<u64>,
    /// Crash participant `.0` just before its `.1`-th send (offers count).
    crash: Option<(usize, usize)>,
    delays: Delays,
    /// Chance, in percent, that a message already read is delivered again.
    dup_pct: u64,
    seed: u64,
}

impl Schedule {
    fn random(seed: u64) -> Schedule {
        let mut rng = Rng(seed);
        let n = 2 + rng.below(5) as usize;
        let kind = match rng.below(3) {
            0 => Kind::Value,
            1 => Kind::Membership,
            _ => {
                let coin = rng.next();
                Kind::Join { newcomers: mask(n, |i| i > 0 && (i == n - 1 || coin & 1 << i != 0)) }
            }
        };
        let instances = if matches!(kind, Kind::Join { .. }) { 1 } else { 2 };
        let values = (0..instances)
            .map(|_| {
                (0..n)
                    .map(|_| match kind {
                        Kind::Value => !(rng.next() & rng.next() & rng.next() & 0xff),
                        _ if rng.below(10) == 0 => mask(n, |_| true) & !(1 << rng.below(n as u64)),
                        _ => mask(n, |_| true),
                    })
                    .collect()
            })
            .collect();
        let starts = (0..n).map(|_| rng.below(T / 3)).collect();
        let sends = instances * 2 * (n - 1) + n;
        let crash = (rng.below(10) < 6)
            .then(|| (rng.below(n as u64) as usize, rng.below(sends as u64 + 1) as usize));
        let delays = match rng.below(10) {
            0..=4 => Delays::Timely,
            5..=7 => Delays::OneLate { late: rng.below(sends as u64) as usize },
            _ => Delays::Chaos,
        };
        let dup_pct = rng.below(30);
        Schedule { kind, n, values, starts, crash, delays, dup_pct, seed }
    }

    fn rule(&self) -> Rule {
        match self.kind {
            Kind::Value => Rule::Value,
            _ => Rule::Membership,
        }
    }

    fn self_starting(&self, p: usize) -> bool {
        !matches!(self.kind, Kind::Join { newcomers } if newcomers & 1 << p != 0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Start {
        p: usize,
        inst: usize,
    },
    /// A round message (`round < 2`) or an offer (`round == 2`).
    Arrive {
        to: usize,
        from: usize,
        round: u8,
        inst: usize,
        value: u64,
    },
    Timeout {
        p: usize,
        inst: usize,
        from: usize,
        round: u8,
    },
    Dup {
        p: usize,
        inst: usize,
        from: usize,
        round: u8,
        value: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    value: u64,
    heard0: u64,
    start: u64,
    time: u64,
}

#[derive(Default)]
struct Part {
    machine: Option<Reconfig>,
    inst: usize,
    start: u64,
    wait: Option<(usize, u8)>,
    /// FIFO per `(sender, round)`: `(instance, value)`.
    mailbox: Vec<VecDeque<(usize, u64)>>,
    sends: usize,
    crashed: Option<usize>,
    heard0: u64,
    decided: Vec<Option<Decision>>,
}

struct Sim<'a> {
    s: &'a Schedule,
    rng: Rng,
    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    parts: Vec<Part>,
    /// Last arrival per link, so every link stays FIFO.
    link: Vec<u64>,
    sends: usize,
    sent: HashSet<(usize, usize, u8, usize)>,
    silences: Vec<(usize, usize, u8, usize)>,
}

impl Sim<'_> {
    fn push(&mut self, time: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, ev)));
    }

    /// When a message sent now to `to` for `round` of `inst` lands.
    fn arrival(&mut self, from: usize, to: usize, round: u8, inst: usize) -> u64 {
        let r = &self.parts[to];
        let deadline = (round < 2 && r.machine.is_some() && r.inst == inst)
            .then(|| r.start + (u64::from(round) + 1) * T);
        let timely = |rng: &mut Rng, now: u64| match deadline {
            Some(d) if rng.below(8) == 0 && d > now + EPS => d - EPS,
            _ => now + rng.below(T / 3),
        };
        let late = |rng: &mut Rng, now: u64| match deadline {
            Some(d) if d >= now => d + EPS,
            _ => now + 3 * T + rng.below(T),
        };
        let now = self.now;
        let t = match self.s.delays {
            Delays::Fixed(d) => now + d,
            Delays::Timely => timely(&mut self.rng, now),
            Delays::OneLate { late: k } if k == self.sends => late(&mut self.rng, now),
            Delays::OneLate { .. } => timely(&mut self.rng, now),
            Delays::Chaos => match self.rng.below(10) {
                0..=5 => timely(&mut self.rng, now),
                6..=7 => now + self.rng.below(3 * T),
                _ => late(&mut self.rng, now),
            },
        };
        let link = &mut self.link[from * self.s.n + to];
        *link = t.max(*link);
        *link
    }

    fn start(&mut self, p: usize, inst: usize) -> Result<(), String> {
        let s = self.s;
        let part = &mut self.parts[p];
        if part.crashed.is_some() || part.machine.is_some() || part.inst != inst {
            return Ok(());
        }
        let mut m = Reconfig::new(s.n, p, s.values[inst][p], s.rule(), at(T)).unwrap();
        (part.start, part.heard0) = (self.now, 0);
        if let (Kind::Join { newcomers }, 0) = (s.kind, p) {
            for to in (0..s.n).filter(|&i| newcomers & 1 << i != 0) {
                if !self.send(p, to, 2, 0) {
                    return Ok(());
                }
            }
        }
        let actions = m.start(at(self.now));
        self.parts[p].machine = Some(m);
        self.pump(p, actions)
    }

    /// Sends `to` `p`'s round-`round` value (an offer for round 2), or
    /// crashes `p` instead and returns `false`.
    fn send(&mut self, p: usize, to: usize, round: u8, value: u64) -> bool {
        let inst = self.parts[p].inst;
        if self.s.crash == Some((p, self.parts[p].sends)) {
            (self.parts[p].crashed, self.parts[p].wait) = (Some(inst), None);
            return false;
        }
        self.parts[p].sends += 1;
        let t = self.arrival(p, to, round, inst);
        self.sends += 1;
        self.sent.insert((p, to, round, inst));
        self.push(t, Ev::Arrive { to, from: p, round, inst, value });
        true
    }

    /// Carries out `actions` for `p`, then feeds it whatever its mailbox
    /// already holds for its wait, until it blocks or decides.
    fn pump(&mut self, p: usize, mut actions: Vec<Action>) -> Result<(), String> {
        loop {
            for a in std::mem::take(&mut actions) {
                let inst = self.parts[p].inst;
                match a {
                    Action::Send { to, round, value } => {
                        if !self.send(p, to, round, value) {
                            return Ok(());
                        }
                    }
                    Action::Expect { from, round, deadline } => {
                        self.parts[p].wait = Some((from, round));
                        let t = deadline.as_micros() as u64;
                        self.push(t, Ev::Timeout { p, inst, from, round });
                    }
                    Action::Decide(value) => {
                        let part = &mut self.parts[p];
                        let (heard0, start) = (part.heard0, part.start);
                        part.decided[inst] =
                            Some(Decision { value, heard0, start, time: self.now });
                        (part.machine, part.wait) = (None, None);
                        part.inst += 1;
                        if part.inst < self.s.values.len() {
                            let gap = self.rng.below(T / 10);
                            self.push(self.now + gap, Ev::Start { p, inst: inst + 1 });
                        }
                        return Ok(());
                    }
                }
            }
            let Some((from, round)) = self.parts[p].wait else { return Ok(()) };
            let part = &mut self.parts[p];
            let slot = from * 2 + round as usize;
            while part.mailbox[slot].front().is_some_and(|&(inst, _)| inst < part.inst) {
                part.mailbox[slot].pop_front();
            }
            let Some((inst, value)) = part.mailbox[slot].pop_front() else { return Ok(()) };
            if inst != part.inst {
                return Err(format!(
                    "isolation: {p} read instance {inst}'s round-{round} value from {from} in \
                     instance {}",
                    part.inst
                ));
            }
            if round == 0 {
                part.heard0 |= 1 << from;
            }
            let event = Event::Heard { from, round, value };
            actions = part.machine.as_mut().unwrap().step(event, at(self.now));
            if self.rng.below(100) < self.s.dup_pct {
                let t = self.now + self.rng.below(2 * T);
                self.push(t, Ev::Dup { p, inst, from, round, value });
            }
        }
    }

    fn handle(&mut self, ev: Ev) -> Result<(), String> {
        match ev {
            Ev::Start { p, inst } => self.start(p, inst),
            Ev::Arrive { to, round: 2, .. } => self.start(to, 0),
            Ev::Arrive { to, from, round, inst, value } => {
                if self.parts[to].crashed.is_some() {
                    return Ok(());
                }
                self.parts[to].mailbox[from * 2 + round as usize].push_back((inst, value));
                if self.parts[to].wait == Some((from, round)) {
                    self.pump(to, Vec::new())?;
                }
                Ok(())
            }
            Ev::Timeout { p, inst, from, round } => {
                let part = &mut self.parts[p];
                if part.crashed.is_some() || part.inst != inst || part.wait != Some((from, round)) {
                    return Ok(());
                }
                self.silences.push((from, p, round, inst));
                let event = Event::Silent { from, round };
                let actions = part.machine.as_mut().unwrap().step(event, at(self.now));
                self.pump(p, actions)
            }
            Ev::Dup { p, inst, from, round, value } => {
                let part = &mut self.parts[p];
                match part.machine.as_mut() {
                    Some(m) if part.inst == inst && part.crashed.is_none() => {
                        let event = Event::Heard { from, round, value };
                        let actions = m.step(event, at(self.now));
                        if actions.is_empty() {
                            Ok(())
                        } else {
                            Err(format!("duplicate: {p} acted on a second copy: {actions:?}"))
                        }
                    }
                    _ => Ok(()),
                }
            }
        }
    }
}

/// Runs `s` to quiescence and checks every property; `Err` names the first
/// violation. Returns the decisions per instance (`None` where a
/// participant crashed or never started).
fn explore(s: &Schedule) -> Result<Vec<Vec<Option<u64>>>, String> {
    let (n, instances) = (s.n, s.values.len());
    let mut sim = Sim {
        s,
        rng: Rng(s.seed ^ 0x5eed),
        now: 0,
        seq: 0,
        events: BinaryHeap::new(),
        parts: (0..n)
            .map(|_| Part {
                mailbox: vec![VecDeque::new(); 2 * n],
                decided: vec![None; instances],
                ..Part::default()
            })
            .collect(),
        link: vec![0; n * n],
        sends: 0,
        sent: HashSet::new(),
        silences: Vec::new(),
    };
    for p in (0..n).filter(|&p| s.self_starting(p)) {
        sim.push(s.starts[p], Ev::Start { p, inst: 0 });
    }
    while let Some(Reverse((t, _, ev))) = sim.events.pop() {
        sim.now = t;
        sim.handle(ev)?;
    }

    let full = mask(n, |_| true);
    for inst in 0..instances {
        let crashes = sim.parts.iter().filter(|p| p.crashed == Some(inst)).count();
        let late = sim
            .silences
            .iter()
            .filter(|&&(f, p, r, i)| i == inst && sim.sent.contains(&(f, p, r, i)));
        let faults = crashes + late.count();
        let values = &s.values[inst];
        let and_all = values.iter().fold(u64::MAX, |a, v| a & v);
        let mut decided = Vec::new();
        for (p, part) in sim.parts.iter().enumerate() {
            let Some(d) = part.decided[inst] else {
                let started = part.inst > inst || part.machine.is_some();
                if started && part.crashed.is_none() {
                    return Err(format!("termination: {p} never decided instance {inst}"));
                }
                continue;
            };
            if d.time - d.start > 2 * T {
                return Err(format!(
                    "termination: {p} decided {}µs after its start",
                    d.time - d.start
                ));
            }
            if d.value & !values[p] != 0 {
                return Err(format!("validity: {p} decided {:#x} beyond its value", d.value));
            }
            match s.kind {
                Kind::Value if and_all & !d.value != 0 => {
                    return Err(format!(
                        "validity: {p} decided {:#x} below the AND of all",
                        d.value
                    ));
                }
                Kind::Value => {}
                _ if d.value & full & !(d.heard0 | 1 << p) != 0 => {
                    return Err(format!(
                        "validity: {p} decided {:#x} with participants it never heard (heard {:#x})",
                        d.value, d.heard0
                    ));
                }
                _ => {}
            }
            if faults == 0 && sim.parts.iter().all(|q| q.crashed.is_none()) && d.value != and_all {
                return Err(format!(
                    "validity: fault-free {p} decided {:#x} ≠ {and_all:#x}",
                    d.value
                ));
            }
            if part.crashed.is_none() {
                decided.push((p, d.value));
            }
        }
        if faults <= 1 && decided.windows(2).any(|w| w[0].1 != w[1].1) {
            return Err(format!("agreement: instance {inst} split {decided:x?}"));
        }
    }
    Ok((0..instances)
        .map(|i| {
            let alive = |p: &Part| p.crashed.is_none();
            sim.parts.iter().map(|p| p.decided[i].filter(|_| alive(p)).map(|d| d.value)).collect()
        })
        .collect())
}

#[test]
fn seeded_schedules_keep_every_property() {
    if let Some(seed) = std::env::var("MXN_EXPLORER_SEED").ok().and_then(|v| v.parse().ok()) {
        let s = Schedule::random(seed);
        explore(&s).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{s:?}"));
        return;
    }
    let t0 = std::time::Instant::now();
    for seed in 0..SCHEDULES {
        if let Err(e) = explore(&Schedule::random(seed)) {
            panic!("seed {seed}: {e}\nreplay: MXN_EXPLORER_SEED={seed} cargo test -p mxn-runtime --test reconfig_explorer");
        }
    }
    println!("{SCHEDULES} schedules explored in {:?}", t0.elapsed());
}

fn pinned(kind: Kind, n: usize, crash: Option<(usize, usize)>) -> Schedule {
    let full = mask(n, |_| true);
    let instances = if matches!(kind, Kind::Join { .. }) { 1 } else { 2 };
    Schedule {
        kind,
        n,
        values: vec![vec![full; n]; instances],
        starts: vec![0; n],
        crash,
        delays: Delays::Fixed(T / 10),
        dup_pct: 0,
        seed: 0,
    }
}

/// The old wire join sent its commit verdict to the incumbents one at a
/// time, so a sponsor dying after k of them split the mesh. Its last sends
/// now are the round-1 values; a crash after any k of them (or after any k
/// offers) leaves every survivor with the same verdict.
#[test]
fn sponsor_crash_after_k_of_n_last_sends_never_splits() {
    for n in 3..=6 {
        let newcomer = 1 << (n - 1);
        for (offer_to, offers) in [(newcomer, 1), (mask(n, |i| i > 0), n - 1)] {
            let kind = Kind::Join { newcomers: offer_to };
            let round_one = offers + (n - 1);
            for step in (0..offers).chain(round_one..round_one + n - 1) {
                let s = pinned(kind, n, Some((0, step)));
                let decided = explore(&s).unwrap_or_else(|e| panic!("n={n} step={step}: {e}"));
                let verdicts: HashSet<_> = decided[0].iter().flatten().collect();
                assert!(verdicts.len() <= 1, "n={n} step={step}: split {verdicts:?}");
            }
        }
    }
}

/// The old wire survivor agreement marked a peer dead when it was silent
/// in round 2, so a peer dying between its round-2 sends left survivors
/// with different lists. Round-2 silence now changes nothing.
#[test]
fn peer_crash_between_second_round_sends_never_splits() {
    for n in 3..=6 {
        for victim in 0..n {
            for k in 1..n - 1 {
                let s = pinned(Kind::Membership, n, Some((victim, (n - 1) + k)));
                let decided = explore(&s).unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
                let lists: HashSet<_> = decided[0].iter().flatten().collect();
                assert_eq!(lists.len(), 1, "n={n} victim={victim} k={k}: split {lists:?}");
            }
        }
    }
}

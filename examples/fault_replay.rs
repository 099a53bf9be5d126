//! Fault replay: the README's lossy coupling, run twice from one seed.
//!
//! A 2-rank producer program and a 3-rank consumer program exchange
//! messages under a fault plane that drops 25% of messages, corrupts
//! 15%, delays everything by 200µs, and kills world rank 3 at its 40th
//! messaging op. The run executes twice with the same seed; the fault
//! traces must be byte-identical. Run with:
//!
//! ```text
//! cargo run --example fault_replay
//! ```

use std::time::Duration;

use mxn::runtime::{ChannelPolicy, FaultConfig, FaultTrace, RunOpts, RuntimeError, Universe};

/// One lossy coupling round-trip; returns a per-rank outcome summary.
fn coupled_run(seed: u64) -> (Vec<String>, FaultTrace) {
    let faults = FaultConfig::reliable(seed)
        .with_default_policy(ChannelPolicy {
            drop: 0.25,
            corrupt: 0.15,
            delay: Duration::from_micros(200),
            ..ChannelPolicy::reliable()
        })
        .with_death(3, 40);

    let opts = RunOpts { faults: Some(faults), ..RunOpts::default() };
    let report = Universe::run_opts(&[2, 3], opts, |p, ctx| {
        let timeout = Duration::from_millis(50);
        let mut delivered = 0u32;
        let mut dropped = 0u32;
        let mut corrupt = 0u32;
        let mut peer_dead = 0u32;

        for round in 0..30 {
            if ctx.program == 0 {
                // Producers blast every consumer; a send only fails when
                // the sender's own scheduled death fires.
                for dst in 0..ctx.intercomm(1).remote_size() {
                    if ctx.intercomm(1).send(dst, round, round as u64).is_err() {
                        return format!("rank {}: died mid-send", p.rank());
                    }
                }
            } else {
                // Consumers treat every failure mode as an outcome.
                for _ in 0..ctx.intercomm(0).local_size() {
                    match ctx.intercomm(0).recv_timeout::<u64>(
                        mxn::runtime::Src::Any,
                        round,
                        timeout,
                    ) {
                        Ok(_) => delivered += 1,
                        Err(RuntimeError::Timeout { .. }) => dropped += 1,
                        Err(RuntimeError::Corrupt { .. }) => corrupt += 1,
                        Err(RuntimeError::PeerDead { .. }) => peer_dead += 1,
                        Err(e) => return format!("rank {}: unexpected {e:?}", p.rank()),
                    }
                }
            }
        }
        format!(
            "rank {}: delivered={delivered} dropped={dropped} corrupt={corrupt} peer_dead={peer_dead}",
            p.rank()
        )
    });
    (report.results, report.fault_trace)
}

fn main() {
    let seed = 7;
    let (results_a, trace_a) = coupled_run(seed);
    let (results_b, trace_b) = coupled_run(seed);

    println!("run A (seed {seed}):");
    for line in &results_a {
        println!("  {line}");
    }
    println!("run A: {} fault(s) injected, trace digest {:016x}", trace_a.len(), trace_a.digest());
    println!("run B: {} fault(s) injected, trace digest {:016x}", trace_b.len(), trace_b.digest());

    assert_eq!(trace_a.digest(), trace_b.digest(), "same seed must replay identically");
    assert_eq!(results_a, results_b, "per-rank outcomes must replay identically");
    println!("\nsame seed ⇒ byte-identical fault trace and identical per-rank outcomes");
}

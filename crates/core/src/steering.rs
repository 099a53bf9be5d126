//! Computational steering.
//!
//! CUMULVS — one of the two parents of the M×N component — "is designed
//! for interactive visualization and computational steering" (paper §4.1):
//! alongside the periodic data channels, a viewer can adjust named
//! parameters of the running simulation. This module provides that
//! control plane: the component registers steerable parameters and polls
//! for updates between time-steps; the viewer pushes new values (to every
//! rank, keeping the SPMD copies consistent) and can query snapshots.

use std::collections::HashMap;

use mxn_runtime::{InterComm, MsgSize, Result};

const STEER_TAG: i32 = (1 << 20) - 5;
const SNAP_REQ_TAG: i32 = (1 << 20) - 6;
const SNAP_RESP_TAG: i32 = (1 << 20) - 7;

struct SteerUpdate {
    name: String,
    value: f64,
}

impl MsgSize for SteerUpdate {
    fn msg_size(&self) -> usize {
        self.name.len() + 8
    }
}

/// The component side: a per-rank table of steerable parameters.
#[derive(Debug, Default)]
pub struct SteeringRegistry {
    params: HashMap<String, f64>,
    updates_applied: u64,
}

impl SteeringRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a steerable parameter with its initial value.
    pub fn register(&mut self, name: &str, initial: f64) {
        self.params.insert(name.to_string(), initial);
    }

    /// Current value of a parameter.
    ///
    /// # Panics
    /// On unknown parameter names (a programming error on the component
    /// side, not a steering-protocol error).
    pub fn get(&self, name: &str) -> f64 {
        self.params[name]
    }

    /// Registered parameter names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.params.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of steering updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Drains pending steering messages (non-blocking) and applies them.
    /// Unknown parameter names are ignored (the viewer may be newer than
    /// the component). Returns the applied `(name, value)` pairs in
    /// arrival order. Called between time-steps.
    pub fn poll(&mut self, ic: &InterComm) -> Result<Vec<(String, f64)>> {
        let mut applied = Vec::new();
        while let Some((u, _)) = ic.try_recv::<SteerUpdate>(mxn_runtime::Src::Any, STEER_TAG)? {
            if let Some(slot) = self.params.get_mut(&u.name) {
                *slot = u.value;
                self.updates_applied += 1;
                applied.push((u.name, u.value));
            }
        }
        // Also answer any snapshot requests.
        while let Some(((), info)) = ic.try_recv::<()>(mxn_runtime::Src::Any, SNAP_REQ_TAG)? {
            let snap: Vec<(String, f64)> =
                self.names().into_iter().map(|n| (n.clone(), self.params[&n])).collect();
            ic.send(info.src, SNAP_RESP_TAG, snap)?;
        }
        Ok(applied)
    }
}

/// Viewer side: sets `name` to `value` on **every** rank of the remote
/// component, preserving the SPMD convention that parameters agree across
/// the cohort.
pub fn steer(ic: &InterComm, name: &str, value: f64) -> Result<()> {
    for r in 0..ic.remote_size() {
        ic.send(r, STEER_TAG, SteerUpdate { name: name.to_string(), value })?;
    }
    Ok(())
}

/// Viewer side: asks remote rank `rank` for a snapshot of all parameters.
/// The component answers at its next [`SteeringRegistry::poll`].
pub fn request_snapshot(ic: &InterComm, rank: usize) -> Result<()> {
    ic.send(rank, SNAP_REQ_TAG, ())
}

/// Viewer side: receives a previously requested snapshot.
pub fn receive_snapshot(ic: &InterComm, rank: usize) -> Result<Vec<(String, f64)>> {
    ic.recv(rank, SNAP_RESP_TAG)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_runtime::Universe;

    /// A simulation steers its timestep mid-run; all ranks stay agreed.
    #[test]
    fn steering_updates_all_ranks_between_steps() {
        Universe::run(&[3, 1], |_, ctx| {
            if ctx.program == 0 {
                // The simulation component, 3 ranks.
                let ic = ctx.intercomm(1);
                let mut steering = SteeringRegistry::new();
                steering.register("dt", 0.1);
                steering.register("viscosity", 1.0);

                let mut dts = Vec::new();
                for step in 0..20 {
                    if step == 5 {
                        // Tell the viewer this rank reached step 5.
                        ic.send(0, 1, ()).unwrap();
                    }
                    if step == 19 {
                        // The viewer's token follows its update from the
                        // same rank, so once it is here the update is too.
                        ic.recv::<()>(0, 2).unwrap();
                    }
                    steering.poll(ic).unwrap();
                    dts.push(steering.get("dt"));
                }
                // The steered value eventually took effect...
                assert_eq!(*dts.last().unwrap(), 0.05);
                // ...and the early steps used the original.
                assert_eq!(dts[0], 0.1);
                // All ranks agree at the end.
                let all: Vec<f64> = ctx.comm.allgather(steering.get("dt")).unwrap();
                assert!(all.iter().all(|&v| v == 0.05));
            } else {
                // The viewer.
                let ic = ctx.intercomm(0);
                // Steer once every rank is past its early steps.
                for r in 0..ic.remote_size() {
                    ic.recv::<()>(r, 1).unwrap();
                }
                steer(ic, "dt", 0.05).unwrap();
                for r in 0..ic.remote_size() {
                    ic.send(r, 2, ()).unwrap();
                }
            }
        });
    }

    #[test]
    fn unknown_parameters_are_ignored() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut s = SteeringRegistry::new();
                s.register("alpha", 2.0);
                // Wait for both updates to be queued.
                ic.recv::<()>(0, 2).unwrap();
                let applied = s.poll(ic).unwrap();
                assert_eq!(applied, vec![("alpha".to_string(), 3.0)]);
                assert_eq!(s.get("alpha"), 3.0);
                assert_eq!(s.updates_applied(), 1);
            } else {
                let ic = ctx.intercomm(0);
                steer(ic, "no_such_param", 9.9).unwrap();
                steer(ic, "alpha", 3.0).unwrap();
                ic.send(0, 2, ()).unwrap();
            }
        });
    }

    #[test]
    fn snapshot_roundtrip() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut s = SteeringRegistry::new();
                s.register("dt", 0.25);
                s.register("cfl", 0.9);
                // Serve until the snapshot request has been answered.
                ic.recv::<()>(0, 3).unwrap();
                s.poll(ic).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                request_snapshot(ic, 0).unwrap();
                ic.send(0, 3, ()).unwrap();
                let snap = receive_snapshot(ic, 0).unwrap();
                assert_eq!(snap, vec![("cfl".to_string(), 0.9), ("dt".to_string(), 0.25)]);
            }
        });
    }

    #[test]
    fn poll_with_no_traffic_is_cheap_and_empty() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut s = SteeringRegistry::new();
                s.register("x", 1.0);
                assert!(s.poll(ic).unwrap().is_empty());
                assert_eq!(s.get("x"), 1.0);
            }
        });
    }
}

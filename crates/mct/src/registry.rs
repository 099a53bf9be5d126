//! The model registry.
//!
//! "A lightweight model registry that defines the MPI processes on which a
//! module resides, and a process ID look-up table that obviates the need
//! for inter-communicators between concurrently executing modules"
//! (paper §4.5, MCT's `MCTWorld`).

use std::collections::HashMap;

use mxn_runtime::{Comm, Result, RuntimeError};

/// The coupled system's component layout: which world ranks each component
/// (model) occupies. Replicated on every rank after [`ModelRegistry::init`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRegistry {
    /// component id → world ranks, in component-rank order.
    components: HashMap<u32, Vec<usize>>,
}

impl ModelRegistry {
    /// Collectively builds the registry over the *world* communicator:
    /// every rank declares its component id; the table is assembled by an
    /// allgather, so afterwards any rank can address any other component's
    /// processes directly by world rank — no inter-communicator needed.
    pub fn init(world: &Comm, my_component: u32) -> Result<Self> {
        let ids: Vec<u32> = world.allgather(my_component)?;
        let mut components: HashMap<u32, Vec<usize>> = HashMap::new();
        for (world_rank, id) in ids.iter().enumerate() {
            components.entry(*id).or_default().push(world.group()[world_rank]);
        }
        Ok(ModelRegistry { components })
    }

    /// The process ID look-up: world rank of `component`'s rank `r`.
    pub(crate) fn world_rank(&self, component: u32, r: usize) -> Result<usize> {
        let ranks = self.components.get(&component).ok_or_else(|| {
            RuntimeError::CollectiveMismatch { detail: format!("unknown component id {component}") }
        })?;
        ranks.get(r).copied().ok_or(RuntimeError::InvalidRank { rank: r, size: ranks.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_runtime::World;

    #[test]
    fn registry_from_interleaved_components() {
        World::run(6, |p| {
            let world = p.world();
            // Even ranks are the "atmosphere" (id 1), odd the "ocean" (2).
            let my = if p.rank() % 2 == 0 { 1 } else { 2 };
            let reg = ModelRegistry::init(world, my).unwrap();
            assert_eq!(reg.components.len(), 2);
            assert_eq!(reg.components[&1].len(), 3);
            assert_eq!(reg.components[&2].len(), 3);
            // Process ID lookup: ocean rank 2 lives at world rank 5.
            assert_eq!(reg.world_rank(2, 2).unwrap(), 5);
            assert_eq!(reg.world_rank(1, 0).unwrap(), 0);
            assert!(reg.world_rank(1, 3).is_err());
            assert!(reg.world_rank(9, 0).is_err());
        });
    }

    #[test]
    fn direct_messaging_without_intercomm() {
        // The point of the registry: components message each other on the
        // world communicator using looked-up ranks.
        World::run(4, |p| {
            let world = p.world();
            let my = if p.rank() < 2 { 10 } else { 20 };
            let reg = ModelRegistry::init(world, my).unwrap();
            if my == 10 {
                // Component 10 rank r sends to component 20 rank r.
                let me = reg.components[&10].iter().position(|&w| w == p.rank()).unwrap();
                let dst = reg.world_rank(20, me).unwrap();
                world.send(dst, 1, me as u64).unwrap();
            } else {
                let me = reg.components[&20].iter().position(|&w| w == p.rank()).unwrap();
                let src = reg.world_rank(10, me).unwrap();
                let v: u64 = world.recv(src, 1).unwrap();
                assert_eq!(v as usize, me);
            }
        });
    }
}

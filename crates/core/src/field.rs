//! Parallel data field registration.
//!
//! "Parallel components can register their parallel data fields by
//! providing a handle to a Distributed Array Descriptor (DAD) object …
//! The M×N registration process allows a component to express the required
//! DAD information for any dense rectangular array decomposition, and also
//! indicates which access modes for M×N transfers with that data field are
//! allowed (read, write or read/write)." (paper §4.1)

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mxn_dad::{AccessMode, Dad, LocalArray};
use mxn_schedule::ScheduleCache;

use crate::error::{MxnError, Result};

/// Shared, lockable handle to a rank's local field storage.
pub type FieldData = Arc<RwLock<LocalArray<f64>>>;

/// A registered parallel data field on one rank.
#[derive(Clone)]
pub struct FieldEntry {
    dad: Dad,
    access: AccessMode,
    data: FieldData,
}

impl FieldEntry {
    /// The field's distribution descriptor.
    pub fn dad(&self) -> &Dad {
        &self.dad
    }

    /// The allowed transfer directions.
    pub fn access(&self) -> AccessMode {
        self.access
    }

    /// The rank-local storage handle.
    pub fn data(&self) -> &FieldData {
        &self.data
    }
}

/// One rank's registry of M×N-visible fields, and the schedule cache its
/// connections transfer through.
#[derive(Default)]
pub struct FieldRegistry {
    rank: usize,
    fields: HashMap<String, FieldEntry>,
    /// Schedules and transfer buffers of every `data_ready` on this rank.
    /// One pool serves the rank's import and export connections, so they
    /// feed each other: what one transfer drained serves the next one's
    /// sends.
    cache: ScheduleCache,
}

impl FieldRegistry {
    /// Creates an empty registry for this rank.
    pub fn new(rank: usize) -> Self {
        FieldRegistry { rank, ..Self::default() }
    }

    /// The rank this registry belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The schedule cache, with its transfer-buffer pool, that this rank's
    /// connections transfer through.
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Registers `data` (this rank's storage of a field distributed as
    /// `dad`) under `name` with the given access mode.
    pub fn register(
        &mut self,
        name: &str,
        dad: Dad,
        access: AccessMode,
        data: FieldData,
    ) -> Result<()> {
        if self.fields.contains_key(name) {
            return Err(MxnError::FieldExists { field: name.to_string() });
        }
        {
            let local = data.read();
            let expected = dad.local_size(self.rank);
            if local.len() != expected {
                return Err(MxnError::StorageMismatch {
                    field: name.to_string(),
                    expected,
                    actual: local.len(),
                });
            }
        }
        self.fields.insert(name.to_string(), FieldEntry { dad, access, data });
        Ok(())
    }

    /// Registers a freshly allocated (zeroed) field — the usual receiving
    /// side pattern. Returns the storage handle.
    pub fn register_allocated(
        &mut self,
        name: &str,
        dad: Dad,
        access: AccessMode,
    ) -> Result<FieldData> {
        let data: FieldData = Arc::new(RwLock::new(LocalArray::allocate(&dad, self.rank)));
        self.register(name, dad, access, data.clone())?;
        Ok(data)
    }

    /// Rebinds `name` to a post-shrink descriptor: reallocates this rank's
    /// storage for `new_dad` at `new_rank`, carrying over every element the
    /// rank owned under the old descriptor (as `old_rank`) and zeroing the
    /// rest. Elements owned only by ranks that did not survive are the data
    /// lost to the failure. The `FieldData` handle itself is preserved —
    /// the new storage is swapped in under the same `Arc`, so every clone
    /// held by application code observes the rebound field.
    pub fn rebind(
        &mut self,
        name: &str,
        new_dad: Dad,
        old_rank: usize,
        new_rank: usize,
    ) -> Result<()> {
        let entry = self
            .fields
            .get_mut(name)
            .ok_or_else(|| MxnError::FieldNotFound { field: name.to_string() })?;
        // The old local patches are exactly what `old_rank` owned: carry
        // each one's overlap with a new patch over row by row.
        let mut fresh = LocalArray::allocate(&new_dad, new_rank);
        {
            let old = entry.data.read();
            debug_assert_eq!(old.rank(), old_rank, "storage of another rank");
            for patch in new_dad.patches(new_rank) {
                for part in old.regions().filter_map(|owned| owned.intersect(&patch)) {
                    fresh.unpack_region(&part, &old.pack_region(&part));
                }
            }
        }
        *entry.data.write() = fresh;
        entry.dad = new_dad;
        Ok(())
    }

    /// Rebinds `name` after an *elastic* reconfiguration: swaps `fresh` —
    /// this rank's storage assembled by
    /// [`crate::elastic::redistribute_elastic`] for `new_rank` under
    /// `new_dad` — in under the same `Arc`, so every clone of the
    /// [`FieldData`] handle observes the new decomposition. Unlike
    /// [`FieldRegistry::rebind`] (the lossy death-shrink path), nothing is
    /// zeroed here: the caller moved every element through the RMA window
    /// before rebinding.
    pub fn rebind_elastic(
        &mut self,
        name: &str,
        new_dad: Dad,
        new_rank: usize,
        fresh: LocalArray<f64>,
    ) -> Result<()> {
        let entry = self
            .fields
            .get_mut(name)
            .ok_or_else(|| MxnError::FieldNotFound { field: name.to_string() })?;
        let expected = new_dad.local_size(new_rank);
        if fresh.len() != expected {
            return Err(MxnError::StorageMismatch {
                field: name.to_string(),
                expected,
                actual: fresh.len(),
            });
        }
        *entry.data.write() = fresh;
        entry.dad = new_dad;
        Ok(())
    }

    /// Unregisters a field (e.g. before re-decomposition).
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.fields
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| MxnError::FieldNotFound { field: name.to_string() })
    }

    /// Looks up a field.
    pub fn get(&self, name: &str) -> Result<&FieldEntry> {
        self.fields.get(name).ok_or_else(|| MxnError::FieldNotFound { field: name.to_string() })
    }

    /// Registered field names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.fields.keys().cloned().collect();
        v.sort();
        v
    }

    /// Checks a field may serve as a transfer *source*.
    pub fn check_exportable(&self, name: &str) -> Result<&FieldEntry> {
        let f = self.get(name)?;
        if f.access.readable() {
            Ok(f)
        } else {
            Err(MxnError::AccessDenied { field: name.to_string(), needed: "read" })
        }
    }

    /// Checks a field may serve as a transfer *destination*.
    pub fn check_importable(&self, name: &str) -> Result<&FieldEntry> {
        let f = self.get(name)?;
        if f.access.writable() {
            Ok(f)
        } else {
            Err(MxnError::AccessDenied { field: name.to_string(), needed: "write" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::{AxisDist, ExplicitDist, Extents, Template};

    fn dad() -> Dad {
        Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = FieldRegistry::new(0);
        let data = reg.register_allocated("temp", dad(), AccessMode::ReadWrite).unwrap();
        assert_eq!(data.read().len(), 8);
        let f = reg.get("temp").unwrap();
        assert_eq!(f.access(), AccessMode::ReadWrite);
        assert_eq!(reg.names(), vec!["temp".to_string()]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut reg = FieldRegistry::new(0);
        reg.register_allocated("t", dad(), AccessMode::Read).unwrap();
        assert!(matches!(
            reg.register_allocated("t", dad(), AccessMode::Read),
            Err(MxnError::FieldExists { .. })
        ));
    }

    #[test]
    fn storage_size_validated() {
        let mut reg = FieldRegistry::new(0);
        // Storage allocated for rank 1 has the wrong shape for rank 0...
        // here sizes happen to be equal (8 elements), so craft a real
        // mismatch: allocate for a different descriptor.
        let wrong = Arc::new(RwLock::new(LocalArray::allocate(
            &Dad::block(Extents::new([2, 2]), &[1, 1]).unwrap(),
            0,
        )));
        assert!(matches!(
            reg.register("t", dad(), AccessMode::Read, wrong),
            Err(MxnError::StorageMismatch { expected: 8, actual: 4, .. })
        ));
    }

    #[test]
    fn access_mode_enforcement() {
        let mut reg = FieldRegistry::new(0);
        reg.register_allocated("ro", dad(), AccessMode::Read).unwrap();
        reg.register_allocated("wo", dad(), AccessMode::Write).unwrap();
        assert!(reg.check_exportable("ro").is_ok());
        assert!(matches!(
            reg.check_importable("ro"),
            Err(MxnError::AccessDenied { needed: "write", .. })
        ));
        assert!(reg.check_importable("wo").is_ok());
        assert!(matches!(
            reg.check_exportable("wo"),
            Err(MxnError::AccessDenied { needed: "read", .. })
        ));
    }

    #[test]
    fn rebind_carries_over_surviving_data() {
        // 4×4 over 2 row-block ranks; rank 0 owns rows 0..2. After rank 1
        // dies the survivor descriptor gives everything to (new) rank 0.
        let old = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
        let mut reg = FieldRegistry::new(0);
        let data = reg.register_allocated("t", old.clone(), AccessMode::ReadWrite).unwrap();
        {
            let mut d = data.write();
            for r in 0..2 {
                for c in 0..4 {
                    *d.get_mut(&[r, c]).unwrap() = (r * 4 + c) as f64 + 1.0;
                }
            }
        }
        let shrunk = old.shrink(&[0]).unwrap();
        reg.rebind("t", shrunk.clone(), 0, 0).unwrap();
        assert_eq!(reg.get("t").unwrap().dad().fingerprint(), shrunk.fingerprint());
        let local = data.read();
        assert_eq!(local.len(), 16, "same Arc now holds the full array");
        assert_eq!(*local.get(&[0, 0]).unwrap(), 1.0, "owned-before data carried over");
        assert_eq!(*local.get(&[1, 3]).unwrap(), 8.0);
        assert_eq!(*local.get(&[3, 3]).unwrap(), 0.0, "dead rank's data is zeroed");
    }

    /// A descriptor over 4 ranks: a 3×5 block on a 2×2 grid, 12×6 rows in
    /// blocks of `block` dealt cyclically, or those row blocks dealt out
    /// explicitly to ranks drawn from `owners`.
    fn dad_of(kind: usize, block: usize, owners: &[usize]) -> Dad {
        let dist = vec![AxisDist::BlockCyclic { block, nprocs: 4 }, AxisDist::Collapsed];
        let cyclic = Dad::regular(Template::new(Extents::new([12, 6]), dist).unwrap());
        match kind {
            0 => Dad::block(Extents::new([3, 5]), &[2, 2]).unwrap(),
            1 => cyclic,
            _ => {
                let patches = (0..4).flat_map(|r| cyclic.patches(r)).zip(owners.iter().copied());
                let explicit = ExplicitDist::new(cyclic.extents().clone(), patches.collect(), 4);
                Dad::explicit(explicit.unwrap())
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn rebind_matches_the_per_element_formula(
            kind in 0usize..3,
            block in 1usize..5,
            owners in proptest::collection::vec(0usize..4, 12),
            dead in 0usize..4,
            survivor in 0usize..3,
        ) {
            let old = dad_of(kind, block, &owners);
            let survivors: Vec<usize> = (0..4).filter(|&r| r != dead).collect();
            let new = old.shrink(&survivors).unwrap();
            let (old_rank, new_rank) = (survivors[survivor], survivor);
            let mut reg = FieldRegistry::new(old_rank);
            let value = |idx: &[usize]| (idx[0] * 100 + idx[1]) as f64 + 1.0;
            let data = Arc::new(RwLock::new(LocalArray::from_fn(&old, old_rank, value)));
            reg.register("t", old.clone(), AccessMode::ReadWrite, data.clone()).unwrap();
            // The formula `rebind` replaced: per element, the old value
            // where `old_rank` owned it, zero elsewhere.
            let want = LocalArray::from_fn(&new, new_rank, |idx| {
                if old.owner(idx) == old_rank { value(idx) } else { 0.0 }
            });
            reg.rebind("t", new, old_rank, new_rank).unwrap();
            proptest::prop_assert_eq!(&*data.read(), &want);
        }
    }

    #[test]
    fn rebind_elastic_swaps_storage_under_the_same_arc() {
        let old = Dad::block(Extents::new([6]), &[2]).unwrap();
        let new = old.expand(3).unwrap();
        let mut reg = FieldRegistry::new(0);
        let handle = reg.register_allocated("t", old.clone(), AccessMode::ReadWrite).unwrap();
        let fresh = LocalArray::from_fn(&new, 0, |idx| idx[0] as f64 + 1.0);
        reg.rebind_elastic("t", new.clone(), 0, fresh).unwrap();
        assert_eq!(reg.get("t").unwrap().dad().fingerprint(), new.fingerprint());
        let d = handle.read();
        assert_eq!(d.len(), new.local_size(0), "old clones see the rebound storage");
        for (idx, &v) in d.iter() {
            assert_eq!(v, idx[0] as f64 + 1.0);
        }
        // A wrong-sized shard is rejected before anything is swapped.
        let wrong = LocalArray::from_fn(&old, 1, |_| 0.0);
        assert!(matches!(
            reg.rebind_elastic("t", new, 0, wrong),
            Err(MxnError::StorageMismatch { .. })
        ));
    }

    #[test]
    fn rebind_missing_field_errors() {
        let mut reg = FieldRegistry::new(0);
        assert!(matches!(reg.rebind("nope", dad(), 0, 0), Err(MxnError::FieldNotFound { .. })));
    }

    #[test]
    fn unregister_then_missing() {
        let mut reg = FieldRegistry::new(0);
        reg.register_allocated("t", dad(), AccessMode::Read).unwrap();
        reg.unregister("t").unwrap();
        assert!(matches!(reg.get("t"), Err(MxnError::FieldNotFound { .. })));
        assert!(matches!(reg.unregister("t"), Err(MxnError::FieldNotFound { .. })));
    }
}

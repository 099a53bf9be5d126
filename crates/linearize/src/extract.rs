//! Moving values between local patch storage and linear segments.
//!
//! These are the de/serialization kernels of linearization-based transfer:
//! given a rank's [`LocalArray`] and an [`ArrayOrder`], extract the values
//! at a linear segment, or insert received values at a segment. Positions
//! are translated element-by-element through the linearization — the
//! "structureless" cost the paper contrasts with compact descriptors
//! (§2.2.2): correctness is easy, but every element pays an O(ndim) index
//! translation.

use mxn_dad::{Extents, LocalArray};

use crate::order::ArrayOrder;
use crate::segments::SegmentList;

/// Extracts the values at linear run `(start, len)` from local storage.
///
/// # Panics
/// If any position in the run is not locally stored.
pub(crate) fn extract_run<T: Copy>(
    local: &LocalArray<T>,
    extents: &Extents,
    order: ArrayOrder,
    run: (usize, usize),
) -> Vec<T> {
    let (start, len) = run;
    let mut out = Vec::with_capacity(len);
    // Row-major fast path: a linear run is a sequence of last-axis row
    // fragments, each contiguous in patch storage — copy them as slices
    // instead of translating every element.
    if order == ArrayOrder::RowMajor && extents.ndim() > 0 {
        let nd = extents.ndim();
        let row_len = extents.dim(nd - 1);
        let mut p = start;
        while p < start + len {
            let idx = order.index(extents, p);
            let room_in_row = row_len - idx[nd - 1];
            let take = room_in_row.min(start + len - p);
            let mut hi: Vec<usize> = idx.iter().map(|&i| i + 1).collect();
            hi[nd - 1] = idx[nd - 1] + take;
            let region = mxn_dad::Region::new(idx, hi);
            out.extend(local.pack_region(&region));
            p += take;
        }
        return out;
    }
    for p in start..start + len {
        let idx = order.index(extents, p);
        let v = local
            .get(&idx)
            .unwrap_or_else(|| panic!("linear position {p} (index {idx:?}) not local"));
        out.push(*v);
    }
    out
}

/// Extracts the values at every run of `segs`, concatenated in order.
pub fn extract_segments<T: Copy>(
    local: &LocalArray<T>,
    extents: &Extents,
    order: ArrayOrder,
    segs: &SegmentList,
) -> Vec<T> {
    let mut out = Vec::with_capacity(segs.total_len());
    for &run in segs.runs() {
        out.extend(extract_run(local, extents, order, run));
    }
    out
}

/// Writes `data` into local storage at linear run `(start, len)`.
///
/// # Panics
/// If lengths mismatch or any position is not locally stored.
pub(crate) fn insert_run<T: Copy>(
    local: &mut LocalArray<T>,
    extents: &Extents,
    order: ArrayOrder,
    run: (usize, usize),
    data: &[T],
) {
    let (start, len) = run;
    assert_eq!(data.len(), len, "insert length mismatch");
    // Mirror of the extract fast path: write whole row fragments.
    if order == ArrayOrder::RowMajor && extents.ndim() > 0 {
        let nd = extents.ndim();
        let row_len = extents.dim(nd - 1);
        let mut p = start;
        let mut cursor = 0;
        while p < start + len {
            let idx = order.index(extents, p);
            let room_in_row = row_len - idx[nd - 1];
            let take = room_in_row.min(start + len - p);
            let mut hi: Vec<usize> = idx.iter().map(|&i| i + 1).collect();
            hi[nd - 1] = idx[nd - 1] + take;
            let region = mxn_dad::Region::new(idx, hi);
            local.unpack_region(&region, &data[cursor..cursor + take]);
            p += take;
            cursor += take;
        }
        return;
    }
    for (k, p) in (start..start + len).enumerate() {
        let idx = order.index(extents, p);
        let slot = local
            .get_mut(&idx)
            .unwrap_or_else(|| panic!("linear position {p} (index {idx:?}) not local"));
        *slot = data[k];
    }
}

/// Writes concatenated `data` into local storage at every run of `segs`.
pub fn insert_segments<T: Copy>(
    local: &mut LocalArray<T>,
    extents: &Extents,
    order: ArrayOrder,
    segs: &SegmentList,
    data: &[T],
) {
    assert_eq!(data.len(), segs.total_len(), "insert length mismatch");
    let mut cursor = 0;
    for &(s, l) in segs.runs() {
        insert_run(local, extents, order, (s, l), &data[cursor..cursor + l]);
        cursor += l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Dad;

    fn setup() -> (Dad, LocalArray<i64>) {
        let dad = Dad::block(Extents::new([4, 4]), &[2, 2]).unwrap();
        // Rank 0 owns rows 0..2, cols 0..2 with values 10*i + j.
        let local = LocalArray::from_fn(&dad, 0, |idx| (idx[0] * 10 + idx[1]) as i64);
        (dad, local)
    }

    #[test]
    fn extract_row_major_run() {
        let (dad, local) = setup();
        // Linear positions 0..2 are (0,0), (0,1).
        let v = extract_run(&local, dad.extents(), ArrayOrder::RowMajor, (0, 2));
        assert_eq!(v, vec![0, 1]);
        // Positions 4..6 are (1,0), (1,1).
        let v = extract_run(&local, dad.extents(), ArrayOrder::RowMajor, (4, 2));
        assert_eq!(v, vec![10, 11]);
    }

    #[test]
    fn extract_col_major_run() {
        let (dad, local) = setup();
        // Col-major position p = j*4 + i; positions 0..2 = (0,0), (1,0).
        let v = extract_run(&local, dad.extents(), ArrayOrder::ColMajor, (0, 2));
        assert_eq!(v, vec![0, 10]);
    }

    #[test]
    #[should_panic(expected = "not local")]
    fn extract_nonlocal_panics() {
        let (dad, local) = setup();
        // Position 2 is (0,2), owned by rank 1.
        extract_run(&local, dad.extents(), ArrayOrder::RowMajor, (2, 1));
    }

    #[test]
    fn roundtrip_through_segments() {
        let (dad, mut local) = setup();
        let segs = ArrayOrder::RowMajor.rank_segments(&dad, 0);
        let data = extract_segments(&local, dad.extents(), ArrayOrder::RowMajor, &segs);
        assert_eq!(data.len(), 4);
        // Zero everything, re-insert, verify restored.
        let doubled: Vec<i64> = data.iter().map(|v| v * 2).collect();
        insert_segments(&mut local, dad.extents(), ArrayOrder::RowMajor, &segs, &doubled);
        assert_eq!(*local.get(&[1, 1]).unwrap(), 22);
        assert_eq!(*local.get(&[0, 1]).unwrap(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn insert_length_checked() {
        let (dad, mut local) = setup();
        insert_run(&mut local, dad.extents(), ArrayOrder::RowMajor, (0, 2), &[1]);
    }
}

//! Shared support for the gated benches.
//!
//! Each bench target in `benches/` is a plain `harness = false` main that
//! measures one subsystem at scale, asserts its invariants and writes one
//! `BENCH_*.json` report at the repository root; see `EXPERIMENTS.md`
//! for the experiment each one regenerates.

#![warn(unreachable_pub)]

/// A deterministic synthetic field value.
pub fn field_value(idx: &[usize]) -> f64 {
    let mut v = 7.0;
    for (d, &i) in idx.iter().enumerate() {
        v = v * 31.0 + (i * (d + 1)) as f64;
    }
    v
}

/// Formats a bytes count human-readably for bench logs.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(100), "100 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 << 20).contains("MiB"));
    }

    #[test]
    fn field_value_distinguishes_indices() {
        assert_ne!(field_value(&[0, 1]), field_value(&[1, 0]));
    }
}

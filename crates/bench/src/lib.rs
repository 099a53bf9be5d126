//! Shared support for the experiment benchmarks.
//!
//! Each bench target in `benches/` regenerates one figure/table of the
//! paper (or one of its quantitative claims); see `DESIGN.md`'s experiment
//! index. The helpers here time *inside* a running universe so that
//! thread-spawn and wiring costs don't pollute per-transfer numbers.

#![warn(unreachable_pub)]

use std::time::Duration;

use mxn_runtime::{ProgramCtx, Universe};

/// Runs `f` on a universe and returns the maximum of the per-rank
/// durations that participating ranks report (ranks may return
/// `Duration::ZERO` to opt out of timing).
pub fn time_universe<F>(sizes: &[usize], f: F) -> Duration
where
    F: Fn(&ProgramCtx) -> Duration + Send + Sync,
{
    let durations = Universe::run(sizes, |_, ctx| f(ctx));
    durations.into_iter().max().unwrap_or(Duration::ZERO)
}

/// Standard tiny-but-stable Criterion configuration for benches that spawn
/// whole universes per measurement.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

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
    fn time_universe_returns_max() {
        let d = time_universe(&[1, 1], |ctx| {
            if ctx.program == 0 {
                Duration::from_millis(5)
            } else {
                Duration::ZERO
            }
        });
        assert_eq!(d, Duration::from_millis(5));
    }

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

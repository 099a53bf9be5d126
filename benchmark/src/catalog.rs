//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` is printed from these tables by the
//! `manifest` subcommand and `check` fails when the two drift apart.

use std::collections::BTreeMap;

use crate::json::Json;

/// Seconds one run measures (the driver passes this as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` on per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// `(name, why)`; the order is the order `run` and `check` execute them in.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "couple_inproc_bulk",
        "4 MiB field over the in-proc mailbox through data_ready with a held schedule: pack/unpack and mailbox do the work, wire does none",
    ),
    (
        "couple_uds_bulk",
        "same field and step loop over a 4-node UDS mesh: 1 MiB messages, so codec, CRC, framing, copies and syscalls dominate; progress fences off (fence_interval 1 h), the default stalls on 1 MiB frames",
    ),
    (
        "couple_uds_fine",
        "same UDS path and fence setting with a 2 KiB field: per-frame cost dominates and bytes do not, so a bulk-path change that taxes small messages shows",
    ),
    (
        "couple_inproc_regrid",
        "block-cyclic block sizes change every step, so every step misses the schedule cache: descriptor, overlap and plan building dominate",
    ),
    (
        "couple_inproc_budgeted",
        "the bulk field under a 1.25x-shard memory budget: must plan Chunked and runs as ack-fenced rounds instead of one eager post",
    ),
    (
        "prmi_serve_uds",
        "64-byte PRMI calls from 2 UDS connections through WireFront, plane and PrmiBackend, all threads on one CPU: synchronous back to back for latency, pipelined for throughput",
    ),
];

/// What a user of the system sees. An *op* is one two-way coupling step
/// (forward M→N, reverse N→M) or one PRMI call. Each bound follows from
/// [`BOUND_BASIS`].
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_ms_p90", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
];

/// Widest bound the driver admits.
pub const BOUND_CAP: f64 = 0.25;

/// Where each bound comes from: `(metric, the issue's bound, observed
/// spread)`. The issue fixes a bound per metric and lets the builder widen
/// it to 1.5 × the run-to-run spread observed on the seed, recorded beside
/// it; `BENCHMARK.json` admits no key for that, so it is recorded here. The
/// spread is the interquartile distance over the median of ten 10-second
/// runs with ten seeds, the driver's own statistic; the figure is the widest
/// over the six workloads and three such sets taken one after the other on
/// the 2-vCPU reference VM (README, *Bounds and noise*, has all of them;
/// `prmi_serve_uds` as it runs now, on one CPU, is never the widest).
/// The VM's host slows every workload by 20–70 % for minutes at a time, so
/// the widest set is several times the quietest, and 1.5 × it is past the
/// cap for every metric.
pub const BOUND_BASIS: &[(&str, f64, f64)] = &[
    ("setup_s", 0.25, 0.343),
    ("op_ms_p50", 0.10, 0.27),
    ("op_ms_p90", 0.20, 0.28),
    ("ops_per_s", 0.10, 0.232),
];

use Better::{Higher, Lower};

/// Single layers, measured in the traced pass. `_ns` metrics are per rank
/// per step; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("dad.describe_ns", "ns", Lower),
    layer("dad.allocate_ns", "ns", Lower),
    layer("dad.overlap_probes", "count", Lower),
    layer("schedule.build_ns", "ns", Lower),
    layer("schedule.cache_hit_ratio", "ratio", Higher),
    layer("schedule.pack_ns", "ns", Lower),
    layer("schedule.unpack_ns", "ns", Lower),
    layer("schedule.copy_runs", "count", Lower),
    layer("schedule.pack_gb_per_s", "GB/s", Higher),
    layer("schedule.fresh_allocs", "count", Lower),
    layer("schedule.route_plan_ns", "ns", Lower),
    layer("schedule.route_exec_ns", "ns", Lower),
    layer("schedule.route_rounds", "count", Lower),
    layer("schedule.round_ms", "ms", Lower),
    layer("runtime.send_ns", "ns", Lower),
    layer("runtime.recv_wait_ns", "ns", Lower),
    layer("runtime.msgs_per_step", "count", Lower),
    layer("runtime.bytes_per_step", "count", Lower),
    layer("runtime.payload_clones", "count", Lower),
    layer("runtime.payload_allocs", "count", Lower),
    layer("runtime.mailbox_peak_bytes", "count", Lower),
    layer("runtime.peak_over_shard", "ratio", Lower),
    layer("core.overhead_ratio", "ratio", Lower),
    layer("wire.codec.encode_ns", "ns", Lower),
    layer("wire.codec.decode_ns", "ns", Lower),
    layer("wire.codec.gb_per_s", "GB/s", Higher),
    layer("wire.crc.gb_per_s", "GB/s", Higher),
    layer("wire.frame.encode_ns", "ns", Lower),
    layer("wire.frame.decode_ns", "ns", Lower),
    layer("wire.node.send_ns", "ns", Lower),
    layer("wire.node.recv_wait_ns", "ns", Lower),
    layer("wire.node.residual_ns", "ns", Lower),
    layer("wire.node.frames_sent", "count", Lower),
    layer("wire.node.frames_received", "count", Lower),
    layer("wire.node.corrupt_frames", "count", Lower),
    layer("wire.node.duplicates_dropped", "count", Lower),
    layer("wire.node.reconnect_dials", "count", Lower),
    layer("wire.mux.rtt_us", "us", Lower),
    layer("serve.call_us", "us", Lower),
    layer("serve.prmi_call_us", "us", Lower),
    layer("serve.batch_mean", "count", Higher),
    layer("serve.queue_peak", "count", Lower),
    layer("serve.sheds", "count", Lower),
    layer("serve.parks", "count", Lower),
    layer("prmi.call_us", "us", Lower),
    layer("prmi_serve.full_call_us", "us", Lower),
    layer("prmi_serve.call_us_p99", "us", Lower),
    layer("prmi_serve.paced_calls_per_s", "1/s", Higher),
    layer("host.memcpy_gb_per_s", "GB/s", Higher),
    layer("host.uds_raw_gb_per_s", "GB/s", Higher),
    layer("host.uds_raw_rtt_us", "us", Lower),
    layer("bench.op_span_ns", "ns", Lower),
    layer("bench.unattributed_ratio", "ratio", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.late_us_p99", "us", Lower),
    layer("bench.peak_rss_mib", "MiB", Lower),
];

/// Per-layer counts that must repeat exactly between two passes.
pub const EXACT_COUNTS: &[&str] = &[
    "dad.overlap_probes",
    "schedule.copy_runs",
    "schedule.route_rounds",
    "runtime.msgs_per_step",
    "runtime.bytes_per_step",
    "runtime.payload_clones",
    "runtime.payload_allocs",
    "wire.node.frames_sent",
    "wire.node.frames_received",
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// Names may hold letters, digits, `_`, `.` and `-`, start with a letter or
/// digit, and run to 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The values of one run, keyed by metric name. Starts with every metric
/// of its table at 0 so a run always reports the whole table.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(table: &'static [MetricDef]) -> Self {
        Metrics { table, values: table.iter().map(|m| (m.name, 0.0)).collect() }
    }

    /// # Panics
    /// If `name` is not in this run's table: a typo must not add a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
    }

    /// In catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.table.iter().map(|m| (m, self.values[m.name]))
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(m, v)| {
            (m.name, Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]))
        }))
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = ["cargo", "run", "--release", "--quiet", "--offline", "--manifest-path"]
        .into_iter()
        .chain(["benchmark/Cargo.toml", "--", "bench"]);
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound.expect("end-to-end metrics are bounded"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_meets_the_manifest_limits() {
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(*name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "metric name {}", m.name);
            assert!(m.unit.len() <= 16, "unit of {}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= BOUND_CAP)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
        assert!(EXACT_COUNTS.iter().all(|c| PER_LAYER.iter().any(|m| m.name == *c)));
        assert!(manifest().pretty().len() < 64 * 1024);
    }

    #[test]
    fn bounds_are_the_issues_widened_by_the_recorded_spread() {
        assert_eq!(BOUND_BASIS.len(), END_TO_END.len());
        for (m, (name, issue, spread)) in END_TO_END.iter().zip(BOUND_BASIS) {
            assert_eq!(m.name, *name);
            // Never narrower than the issue's, never wider than 1.5 × the
            // observed spread allows, never past the cap.
            assert_eq!(m.bound, Some(issue.max(1.5 * spread).min(BOUND_CAP)), "{name}");
        }
    }

    #[test]
    fn names_outside_the_charset_are_refused() {
        assert!(valid_name("wire.node.send_ns") && valid_name("0-a_b.c"));
        for bad in ["", ".lead", "_lead", "has space", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn setting_an_unknown_metric_panics() {
        Metrics::new(END_TO_END).set("op_ms_p51", 1.0);
    }
}

//! One run of one workload: the bring-ups it takes and how their raw
//! samples become the metrics of the catalog.

use std::time::{Duration, Instant};

use crate::catalog::{Metrics, END_TO_END, PER_LAYER};
use crate::couple::{
    self, CarrierKind, CoupleRun, CoupleSpec, Path, COUNT_STEPS, MAX_TRACED_STEPS, SIDE,
};
use crate::json::Json;
use crate::spans::{self_time_by_name, Span, OP_SPAN};
use crate::stats::{median_of, percentile, sort};
use crate::{host, prmi};

/// Fresh bring-ups a full untraced run splits its measured time over. Every
/// end-to-end metric is the median over them, so a disturbance shorter than
/// half the run cannot move a result.
pub const BRING_UPS: usize = 10;

/// What one run reports.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Spans of the traced window, one list per thread.
    pub spans: Vec<Vec<Span>>,
    /// Derived, human-facing facts (`payload MB/s`, planned route, …).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line of the contract.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// One entry of `results.json`.
    pub fn record_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".to_string(), Json::str(self.workload.as_str())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("trace".to_string(), Json::Num(f64::from(u8::from(self.traced)))),
        ];
        if let Json::Obj(rest) = self.result_json() {
            pairs.extend(rest);
        }
        pairs.push((
            "notes".to_string(),
            Json::obj(self.notes.iter().map(|(k, v)| (k.as_str(), Json::str(v.as_str())))),
        ));
        Json::Obj(pairs)
    }

    pub fn print_table(&self) {
        println!(
            "{} seed {} {}: attempted {} failed {}",
            self.workload,
            self.seed,
            if self.traced { "traced pass" } else { "untraced pass" },
            self.attempted,
            self.failed
        );
        for (def, value) in self.metrics.iter() {
            println!("  {:<32} {:>16.4} {}", def.name, value, def.unit);
        }
        for (k, v) in &self.notes {
            println!("  # {k}: {v}");
        }
    }
}

fn secs(total: f64, share: f64) -> Duration {
    Duration::from_secs_f64(total * share)
}

fn p(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, q)
}

/// Runs `workload` once. `seconds` is the measured time, split over
/// `bring_ups` fresh bring-ups when untraced; set-up, settling and oracle
/// checks come on top.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, bring_ups: usize) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome {
        workload: workload.to_string(),
        seed,
        traced,
        attempted: 0,
        failed: 0,
        metrics: Metrics::new(if traced { PER_LAYER } else { END_TO_END }),
        spans: Vec::new(),
        notes: vec![("inputs_digest".into(), format!("{:016x}", crate::gen::inputs_digest(seed)))],
    };
    match (couple::spec(workload), traced) {
        (Some(spec), false) => couple_end_to_end(&mut out, &spec, seconds, bring_ups, epoch),
        (Some(spec), true) => couple_layers(&mut out, &spec, seconds, epoch),
        (None, false) => prmi_end_to_end(&mut out, seconds, bring_ups, epoch),
        (None, true) => prmi_layers(&mut out, seconds, epoch),
    }
    if traced {
        host_baselines(&mut out, seconds);
        out.metrics.set("bench.peak_rss_mib", host::peak_rss_mib());
    } else {
        out.notes.push(("peak_rss_mib".into(), format!("{:.1}", host::peak_rss_mib())));
    }
    out
}

fn absorb(out: &mut Outcome, attempted: u64, failed: u64) {
    out.attempted += attempted;
    out.failed += failed;
}

// ---------------------------------------------------------------------------
// couple_*
// ---------------------------------------------------------------------------

/// Fresh bring-ups of `spec` until `window` seconds of timed steps are in
/// (never fewer than `min`). Thread placement and memory are re-rolled by
/// every bring-up, so a metric reported as the median over bring-ups is
/// steadier than the same time spent in one. Only the first bring-up runs
/// the count window.
#[allow(clippy::too_many_arguments)]
fn episodes(
    out: &mut Outcome,
    spec: &CoupleSpec,
    path: Path,
    window: f64,
    min: usize,
    count: bool,
    traced: bool,
    epoch: Instant,
) -> Vec<CoupleRun> {
    let share = window / min as f64;
    // A bring-up with a step limit spends its few steps measuring, not settling.
    let settle = if spec.episode_steps.is_some() { 0.0 } else { 0.1 * share };
    let mut runs: Vec<CoupleRun> = Vec::new();
    let mut measured = 0.0;
    let mut steps = 0;
    // A traced pass keeps a bounded number of spans however short the steps.
    while runs.len() < min || (measured < 0.95 * window && !(traced && steps >= MAX_TRACED_STEPS)) {
        let phases = couple::Phases {
            settle: secs(settle, 1.0),
            count: count && runs.is_empty(),
            window: secs(share.min((window - measured).max(0.2 * share)), 1.0),
        };
        let r = couple::run(
            spec,
            path,
            out.seed,
            runs.len() as u64,
            &phases,
            traced,
            epoch,
            &out.workload,
        );
        absorb(out, r.attempted, r.failed);
        measured += r.window_s;
        steps += r.op_ms.len() as u64;
        runs.push(r);
    }
    runs
}

fn median_over(runs: &[CoupleRun], stat: impl Fn(&CoupleRun) -> f64) -> f64 {
    median_of(runs.iter().map(stat).collect())
}

fn couple_end_to_end(
    out: &mut Outcome,
    spec: &CoupleSpec,
    seconds: f64,
    bring_ups: usize,
    epoch: Instant,
) {
    let runs = episodes(out, spec, Path::User, seconds, bring_ups, false, false, epoch);
    out.metrics.set("setup_s", median_over(&runs, |r| r.setup_s));
    out.metrics.set("op_ms_p50", median_over(&runs, |r| p(&r.op_ms, 0.5)));
    out.metrics.set("op_ms_p90", median_over(&runs, |r| p(&r.op_ms, 0.9)));
    let rate = median_over(&runs, |r| r.op_ms.len() as f64 / r.window_s);
    out.metrics.set("ops_per_s", rate);
    let steps: usize = runs.iter().map(|r| r.op_ms.len()).sum();
    let field_mb = spec.field(out.seed).bytes() as f64 / 1e6;
    out.notes.push(("bring_ups".into(), runs.len().to_string()));
    out.notes.push(("steps_in_windows".into(), steps.to_string()));
    out.notes.push(("payload_mb_per_s".into(), format!("{:.1}", rate * 2.0 * field_mb)));
    out.notes.push(("peak_over_shard".into(), format!("{:.4}", runs[0].peak_over_shard)));
    note_route(out, &runs[0]);
}

fn note_route(out: &mut Outcome, run: &CoupleRun) {
    if let Some(route) = &run.route {
        out.notes.push((
            "route".into(),
            format!(
                "{:?}, {} rounds of {} KiB chunks, declared peak {} B of budget {} B",
                route.kind,
                route.rounds(),
                route.chunk_elems() * size_of::<f64>() / 1024,
                route.peak_bytes,
                route.budget_bytes
            ),
        ));
    }
}

fn couple_layers(out: &mut Outcome, spec: &CoupleSpec, seconds: f64, epoch: Instant) {
    let uds = spec.carrier == CarrierKind::Uds;
    // A UDS coupling has no call above the decomposed one, so its user
    // window is the untraced decomposed window.
    let share = seconds * if uds { 0.42 } else { 0.28 };
    let user_path = if uds { Path::Decomposed } else { Path::User };
    let user = episodes(out, spec, user_path, share, 1, true, false, epoch);
    let plain = if uds {
        None
    } else {
        Some(episodes(out, spec, Path::Decomposed, share, 1, true, false, epoch))
    };
    let traced = episodes(out, spec, Path::Decomposed, share, 1, true, true, epoch);
    let plain = plain.as_ref().unwrap_or(&user);
    let p50 = |runs: &[CoupleRun]| median_over(runs, |r| p(&r.op_ms, 0.5));
    // Counts and gauges are those of the first bring-up.
    let (user_p50, plain_p50, traced_p50) = (p50(&user), p50(plain), p50(&traced));
    let (user, plain) = (&user[0], &plain[0]);

    let m = &mut out.metrics;
    let counts = user.counts.expect("the count window ran");
    m.set("runtime.msgs_per_step", counts.msgs);
    m.set("runtime.bytes_per_step", counts.bytes);
    m.set("runtime.payload_clones", counts.payload_clones);
    m.set("runtime.payload_allocs", counts.payload_allocs);
    m.set("dad.overlap_probes", counts.overlap_probes);
    m.set("schedule.copy_runs", counts.copy_runs);
    m.set("schedule.fresh_allocs", counts.fresh_allocs);
    m.set("wire.node.frames_sent", counts.wire.frames_sent as f64 / COUNT_STEPS as f64);
    m.set("wire.node.frames_received", counts.wire.frames_received as f64 / COUNT_STEPS as f64);
    m.set("wire.node.corrupt_frames", counts.wire.corrupt_frames as f64);
    m.set("wire.node.duplicates_dropped", counts.wire.duplicates_dropped as f64);
    m.set("wire.node.reconnect_dials", counts.wire.reconnect_dials as f64);
    let cache = plain.counts.and_then(|c| c.cache_hit_ratio).expect("decomposed paths use a cache");
    m.set("schedule.cache_hit_ratio", cache);
    if !uds {
        m.set("runtime.mailbox_peak_bytes", user.mailbox_peak_bytes as f64);
        m.set("runtime.peak_over_shard", user.peak_over_shard);
        m.set("core.overhead_ratio", user_p50 / plain_p50);
    }
    m.set("bench.trace_overhead_ratio", traced_p50 / plain_p50);
    if let Some(route) = &user.route {
        m.set("schedule.route_rounds", f64::from(route.rounds()));
        // A step is two routed transfers.
        m.set("schedule.round_ms", user_p50 / f64::from(2 * route.rounds()));
    }

    // Layer times: self time of each span kind per rank per step.
    let spans: Vec<Vec<Span>> = traced.into_iter().flat_map(|r| r.spans).collect();
    let by_name = self_time_by_name(&spans);
    let ops = op_span_metrics(m, &spans);
    let per_op = |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ns as f64 / ops as f64);
    for (metric, span) in [
        ("dad.describe_ns", "dad.describe"),
        ("dad.allocate_ns", "dad.allocate"),
        ("schedule.build_ns", "schedule.build"),
        ("schedule.pack_ns", "schedule.pack"),
        ("schedule.unpack_ns", "schedule.unpack"),
        ("schedule.route_plan_ns", "schedule.route_plan"),
        ("schedule.route_exec_ns", "schedule.route_exec"),
        ("runtime.send_ns", "runtime.send"),
        ("runtime.recv_wait_ns", "runtime.recv_wait"),
        ("wire.node.send_ns", "wire.node.send"),
        ("wire.node.recv_wait_ns", "wire.node.recv_wait"),
    ] {
        m.set(metric, per_op(span));
    }
    if per_op("schedule.pack") > 0.0 {
        // Computed bytes: every rank packs its whole shard once a step.
        m.set("schedule.pack_gb_per_s", spec.shard_bytes() as f64 / per_op("schedule.pack"));
    }
    if uds {
        wire_replays(out, spec, seconds, per_op("wire.node.send"));
    }
    note_route(out, user);
    out.notes.push(("traced_steps".into(), (ops / (2 * SIDE) as u64).to_string()));
    out.spans = spans;
}

/// Sets what every traced pass derives from its op spans: their mean length
/// and the share of them that no layer span covers. Returns their number.
fn op_span_metrics(m: &mut Metrics, spans: &[Vec<Span>]) -> u64 {
    let (op_self, ops) = self_time_by_name(spans)[OP_SPAN];
    let op_total: u64 =
        spans.iter().flatten().filter(|s| s.name == OP_SPAN).map(Span::dur_ns).sum();
    m.set("bench.op_span_ns", op_total as f64 / ops as f64);
    m.set("bench.unattributed_ratio", op_self as f64 / op_total as f64);
    ops
}

/// Replays each wire layer on a message of this workload. Every rank sends
/// and receives [`SIDE`] messages a step, so per-message times scale by
/// that to the per-rank-per-step unit of the span metrics.
fn wire_replays(out: &mut Outcome, spec: &CoupleSpec, seconds: f64, node_send_ns: f64) {
    let msg = couple::sample_message(spec, out.seed);
    assert_eq!(msg.len() * size_of::<f64>(), spec.pair_bytes());
    let r = host::wire_replay(&msg, secs(seconds, 0.08));
    let per_step = |s: f64| s * 1e9 * SIDE as f64;
    let m = &mut out.metrics;
    m.set("wire.codec.encode_ns", per_step(r.codec_encode_s));
    m.set("wire.codec.decode_ns", per_step(r.codec_decode_s));
    m.set("wire.codec.gb_per_s", r.encoded_bytes as f64 / r.codec_encode_s / 1e9);
    m.set("wire.crc.gb_per_s", r.encoded_bytes as f64 / r.crc_s / 1e9);
    m.set("wire.frame.encode_ns", per_step(r.frame_encode_s));
    m.set("wire.frame.decode_ns", per_step(r.frame_decode_s));
    // What `WireNode::send` spends beyond encoding and framing (which holds
    // both CRCs): copies, resend-ring retention, locks and the syscall.
    let residual = node_send_ns - per_step(r.codec_encode_s) - per_step(r.frame_encode_s);
    m.set("wire.node.residual_ns", residual);
}

fn host_baselines(out: &mut Outcome, seconds: f64) {
    let each = secs(seconds, 0.02);
    let bytes = couple::spec(&out.workload).map_or(4 << 20, |s| s.field(0).bytes());
    out.metrics.set("host.memcpy_gb_per_s", host::memcpy_gb_per_s(bytes, each));
    out.metrics.set("host.uds_raw_gb_per_s", host::uds_raw_gb_per_s(each));
    out.metrics.set("host.uds_raw_rtt_us", host::uds_raw_rtt_us(each));
}

// ---------------------------------------------------------------------------
// prmi_serve_uds
// ---------------------------------------------------------------------------

fn prmi_end_to_end(out: &mut Outcome, seconds: f64, bring_ups: usize, epoch: Instant) {
    // As for the couplings: several fresh bring-ups, the median of each.
    let share = seconds / bring_ups as f64;
    let phases = prmi::Phases {
        settle: secs(share, 0.1),
        solo: Duration::ZERO,
        closed: secs(share, 0.55),
        paced: Duration::ZERO,
        peak: secs(share, 0.45),
    };
    let runs: Vec<prmi::PrmiRun> = (0..bring_ups)
        .map(|_| {
            let r = prmi::run(out.seed, phases, false, epoch);
            absorb(out, r.attempted, r.failed);
            r
        })
        .collect();
    let median = |stat: &dyn Fn(&prmi::PrmiRun) -> f64| median_of(runs.iter().map(stat).collect());
    out.metrics.set("setup_s", median(&|r| r.setup_s));
    out.metrics.set("op_ms_p50", median(&|r| p(&r.closed_ms, 0.5)));
    out.metrics.set("op_ms_p90", median(&|r| p(&r.closed_ms, 0.9)));
    out.metrics.set("ops_per_s", median(&|r| r.peak_calls as f64 / r.peak_s));
    let closed: usize = runs.iter().map(|r| r.closed_ms.len()).sum();
    out.notes.push(("bring_ups".into(), runs.len().to_string()));
    out.notes.push(("closed_calls".into(), closed.to_string()));
    let p99 = median(&|r| p(&r.closed_ms, 0.99) * 1e3);
    out.notes.push(("closed_call_us_p99".into(), format!("{p99:.1}")));
}

/// One traced bring-up. The solo phase splits a call layer by layer (see
/// [`prmi::Stamps`]); the paced phase records every other call, so the
/// tracing overhead compares interleaved calls of one phase.
fn prmi_layers(out: &mut Outcome, seconds: f64, epoch: Instant) {
    let phases = prmi::Phases {
        settle: secs(seconds, 0.03),
        solo: secs(seconds, 0.15),
        closed: Duration::ZERO,
        paced: secs(seconds, 0.45),
        peak: secs(seconds, 0.3),
    };
    let mut run = prmi::run(out.seed, phases, true, epoch);
    absorb(out, run.attempted, run.failed);

    // Medians over the solo calls. The layers nest in every sample, so
    // they nest in the medians: backend <= plane <= call.
    let over_calls = |f: &dyn Fn(&[f64; 3]) -> f64| median_of(run.nest.iter().map(f).collect());
    let m = &mut out.metrics;
    m.set("prmi_serve.full_call_us", over_calls(&|n| n[0]));
    m.set("serve.prmi_call_us", over_calls(&|n| n[1]));
    m.set("prmi.call_us", over_calls(&|n| n[2]));
    m.set("wire.mux.rtt_us", over_calls(&|n| n[0] - n[1]));
    m.set("serve.call_us", over_calls(&|n| n[1] - n[2]));
    m.set("prmi_serve.call_us_p99", p(&run.paced.ms, 0.99) * 1e3);
    m.set("prmi_serve.paced_calls_per_s", run.paced.ms.len() as f64 / run.paced.secs);
    let plane = run.plane;
    m.set("serve.batch_mean", plane.batched_items as f64 / plane.batches.max(1) as f64);
    m.set("serve.queue_peak", plane.queue_peak as f64);
    m.set("serve.sheds", (plane.shed_admission + plane.shed_deadline) as f64);
    m.set("serve.parks", plane.parks as f64);
    m.set("bench.late_us_p99", p(&run.paced.late_us, 0.99));
    let overhead = p(&run.paced.recorded_ms, 0.5) / p(&run.paced.unrecorded_ms, 0.5);
    m.set("bench.trace_overhead_ratio", overhead);
    op_span_metrics(m, &run.spans);
    out.notes.push(("solo_calls".into(), run.nest.len().to_string()));
    out.notes
        .push(("peak_calls_per_s".into(), format!("{:.0}", run.peak_calls as f64 / run.peak_s)));
    out.spans = std::mem::take(&mut run.spans);
}

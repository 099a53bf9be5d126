//! `check`: a quick self-test of the benchmark itself. Short windows of
//! every workload, validating the oracle, the output schema, exact
//! repeatability of the count metrics across two traced passes, the
//! "mechanism exercised / bypassed" facts each workload exists to show, and
//! that the attribution adds up (the PRMI nest is monotone, no share is
//! negative).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::catalog::{manifest, valid_name, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use crate::couple;
use crate::json::parse;
use crate::measure::{self, Outcome};

/// Seconds each checked run measures.
const CHECK_SECONDS: f64 = 0.5;
const CHECK_SEED: u64 = 1;

fn schema(out: &Outcome, problems: &mut Vec<String>) {
    let w = &out.workload;
    let table = if out.traced { PER_LAYER } else { END_TO_END };
    if !out.correct() {
        problems.push(format!("{w}: {} of {} operations failed", out.failed, out.attempted));
    }
    let reported: Vec<&str> = out.metrics.iter().map(|(def, _)| def.name).collect();
    if reported != table.iter().map(|m| m.name).collect::<Vec<_>>() {
        problems.push(format!("{w}: reported metrics differ from the catalog"));
    }
    for (def, value) in out.metrics.iter() {
        if !valid_name(def.name) {
            problems.push(format!("{w}: metric name {:?} is outside [A-Za-z0-9_.-]", def.name));
        }
        if !value.is_finite() {
            problems.push(format!("{w}: {} is not finite", def.name));
        }
        if !out.traced && value <= 0.0 {
            problems.push(format!("{w}: end-to-end metric {} is {value}", def.name));
        }
    }
    // The result line must survive a round trip through a JSON parser.
    if parse(&out.result_json().compact()).is_err() {
        problems.push(format!("{w}: result line is not valid JSON"));
    }
}

/// The facts a traced pass must show; `run` applies them to full-length passes too.
pub fn mechanisms(out: &Outcome, problems: &mut Vec<String>) {
    let w = out.workload.as_str();
    let get = |name: &str| out.metrics.get(name);
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            problems.push(format!("{w}: {what}"));
        }
    };
    let uds = w.starts_with("couple_uds");
    let cache = match w {
        "couple_inproc_regrid" | "prmi_serve_uds" => 0.0,
        _ => 1.0,
    };
    expect(
        &format!("schedule.cache_hit_ratio is {}, not {cache}", get("schedule.cache_hit_ratio")),
        get("schedule.cache_hit_ratio") == cache,
    );
    for (def, value) in out.metrics.iter().filter(|(d, _)| d.name.starts_with("wire.node.")) {
        match def.name {
            "wire.node.frames_sent" | "wire.node.frames_received" if uds => {
                expect(&format!("{} is {value}, not 8 a step", def.name), value == 8.0);
            }
            "wire.node.send_ns" | "wire.node.recv_wait_ns" | "wire.node.residual_ns" if uds => {}
            _ => expect(&format!("{} is {value}, not 0", def.name), value == 0.0),
        }
    }
    if w.starts_with("couple_inproc") {
        let wire_time: f64 = out
            .metrics
            .iter()
            .filter(|(d, _)| d.name.starts_with("wire."))
            .map(|(_, v)| v.abs())
            .sum();
        expect("an in-proc workload reports wire work", wire_time == 0.0);
        expect("runtime.msgs_per_step is 0", get("runtime.msgs_per_step") > 0.0);
    }
    if w == "couple_inproc_budgeted" {
        expect("the budgeted route does not run 8 rounds", get("schedule.route_rounds") == 8.0);
        expect(
            &format!("peak_over_shard {} exceeds the 1.25 budget", get("runtime.peak_over_shard")),
            get("runtime.peak_over_shard") <= 1.25,
        );
    }
    if w == "couple_inproc_bulk" {
        expect(
            "the direct path should need more than 1.25x shard",
            get("runtime.peak_over_shard") > 1.25,
        );
    }
    let unattributed = get("bench.unattributed_ratio");
    expect(
        &format!("bench.unattributed_ratio {unattributed} is not a share of the op span"),
        (0.0..=1.0).contains(&unattributed),
    );
    if w == "prmi_serve_uds" {
        let (bare, plane, full) =
            (get("prmi.call_us"), get("serve.prmi_call_us"), get("prmi_serve.full_call_us"));
        expect(
            &format!("the prmi nest {bare} <= {plane} <= {full} us is not monotone"),
            0.0 < bare && bare <= plane && plane <= full,
        );
        expect(
            "a layer's share of a call is negative",
            get("wire.mux.rtt_us") >= 0.0 && get("serve.call_us") >= 0.0,
        );
    }
}

/// The UDS workloads run with the wire's progress fences tuned out of the
/// way (`run_uds` says why). To keep that defect in view until it is fixed,
/// this runs the first steps of `couple_uds_bulk` on the default
/// `WireConfig` and prints what the fences did to them: frames re-sent and
/// dropped as duplicates are the defect's signature. It runs last and on a
/// thread that is abandoned if it hangs, which a default mesh can.
fn default_wire_config_note() {
    const PROBE: &str = "check_default_wire";
    let mut spec = couple::spec("couple_uds_bulk").expect("a catalog workload");
    spec.default_wire_config = true;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let phases = couple::Phases {
            settle: Duration::ZERO,
            count: true,
            window: Duration::from_millis(1),
        };
        let run = couple::run(
            &spec,
            couple::Path::Decomposed,
            CHECK_SEED,
            0,
            &phases,
            false,
            Instant::now(),
            PROBE,
        );
        let _ = tx.send((run.counts.expect("the count window ran").wire, run.failed));
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok((wire, failed)) => println!(
            "  note: couple_uds_bulk on the default WireConfig, {} counted steps: {} duplicate \
             frames dropped, {} reconnect dials, {failed} failed steps (all 0 with fences off)",
            couple::COUNT_STEPS,
            wire.duplicates_dropped,
            wire.reconnect_dials
        ),
        Err(_) => {
            println!(
                "  note: couple_uds_bulk on the default WireConfig did not finish {} steps in 20 s",
                couple::WARMUP_STEPS + couple::COUNT_STEPS
            );
            // The abandoned thread never drops its guard; a second guard
            // on the same directory removes it.
            drop(couple::SocketDir::new(PROBE));
        }
    }
}

/// Runs the self-test; `manifest_text` is `BENCHMARK.json` when found.
pub fn check(manifest_text: Option<String>) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    match manifest_text.as_deref().map(parse) {
        Some(Ok(found)) if found == manifest() => {}
        Some(Ok(_)) => {
            problems.push("BENCHMARK.json differs from the catalog (run `manifest`)".into())
        }
        Some(Err(e)) => problems.push(format!("BENCHMARK.json does not parse: {e}")),
        None => println!("BENCHMARK.json not found; skipping the manifest comparison"),
    }
    for (workload, _) in WORKLOADS {
        println!("check {workload}");
        let untraced = measure::run(workload, CHECK_SEED, CHECK_SECONDS, false, 1);
        schema(&untraced, &mut problems);
        let first = measure::run(workload, CHECK_SEED, CHECK_SECONDS, true, 1);
        let second = measure::run(workload, CHECK_SEED, CHECK_SECONDS, true, 1);
        for pass in [&first, &second] {
            schema(pass, &mut problems);
            mechanisms(pass, &mut problems);
        }
        for name in EXACT_COUNTS {
            let (a, b) = (first.metrics.get(name), second.metrics.get(name));
            if a != b {
                problems.push(format!("{workload}: count {name} did not repeat: {a} then {b}"));
            }
        }
    }
    default_wire_config_note();
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

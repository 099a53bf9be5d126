//! `mxn-benchmark`: one end-to-end coupling + PRMI benchmark with per-layer
//! attribution measured from outside. See `benchmark/README.md`.
//!
//! ```text
//! bench    --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! run      [--seed N] [--out DIR]                          every workload → DIR/results.json + traces
//! compare  a.json b.json
//! check
//! manifest                                                 prints BENCHMARK.json
//! ```

mod catalog;
mod check;
mod compare;
mod couple;
mod gen;
mod host;
mod json;
mod measure;
mod prmi;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use catalog::{is_workload, RUN_SECONDS, WORKLOADS};
use json::Json;
use measure::{Outcome, BRING_UPS};

/// Untraced runs `run` makes of every workload, all with the same seed, so
/// that every `results.json` carries the run-to-run spread `compare` needs:
/// three is the fewest with a middle value and two to measure it against.
const REPEATS: usize = 3;

/// `--key value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {key}")),
        }
    }
}

/// A run that hangs (a rank died while its peers wait on a barrier) must
/// still end: the process exits non-zero once `limit` has passed.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("mxn-benchmark: no result after {limit:?}, giving up");
        std::process::exit(3);
    });
}

fn bench(args: &Args) -> Result<(), String> {
    let workload = args.value("--workload").ok_or("bench needs --workload")?;
    if !is_workload(workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = args.parsed("--seed", 1u64)?;
    let seconds = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let traced = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    watchdog(Duration::from_secs(170));
    let out = measure::run(workload, seed, seconds, traced, BRING_UPS);
    out.print_table();
    println!("{}", out.result_json().compact());
    Ok(())
}

fn write_trace(dir: &Path, out: &Outcome) -> Result<(), String> {
    if out.spans.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", out.workload));
    std::fs::write(&path, spans::chrome_json(&out.spans))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Share of a traced step each layer's spans account for.
fn print_shares(out: &Outcome) {
    let op = out.metrics.get("bench.op_span_ns");
    if op <= 0.0 || out.workload == "prmi_serve_uds" {
        return;
    }
    let share = |names: &[&str]| names.iter().map(|n| out.metrics.get(n)).sum::<f64>() / op * 100.0;
    // A mailbox `recv` is all waiting: for the peer's building, packing and
    // sending, which are counted where they happen. A wire `recv` also
    // waits for the node's own reader thread to check and decode the frame.
    println!(
        "  shares of a step: dad+build {:.1}%  pack+unpack {:.1}%  route {:.1}%  mailbox send {:.1}%  mailbox recv wait {:.1}%  wire send+recv {:.1}%  unattributed {:.1}%",
        share(&["dad.describe_ns", "dad.allocate_ns", "schedule.build_ns"]),
        share(&["schedule.pack_ns", "schedule.unpack_ns"]),
        share(&["schedule.route_plan_ns", "schedule.route_exec_ns"]),
        share(&["runtime.send_ns"]),
        share(&["runtime.recv_wait_ns"]),
        share(&["wire.node.send_ns", "wire.node.recv_wait_ns"]),
        out.metrics.get("bench.unattributed_ratio") * 100.0
    );
}

fn run_all(args: &Args) -> Result<(), String> {
    let seed = args.parsed("--seed", 1u64)?;
    let seconds = RUN_SECONDS as f64;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out_dir = args.value("--out").map_or(default_out, PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let mut records = Vec::new();
    let mut all_correct = true;
    let mut problems = Vec::new();
    for (workload, _) in WORKLOADS {
        for _ in 0..REPEATS {
            let out = measure::run(workload, seed, seconds, false, BRING_UPS);
            out.print_table();
            all_correct &= out.correct();
            records.push(out.record_json());
        }
        let traced = measure::run(workload, seed, seconds, true, 1);
        traced.print_table();
        print_shares(&traced);
        all_correct &= traced.correct();
        check::mechanisms(&traced, &mut problems);
        write_trace(&out_dir, &traced)?;
        records.push(traced.record_json());
    }
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = Json::obj([
        (
            "meta",
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("repeats", Json::Num(REPEATS as f64)),
                ("available_parallelism", Json::Num(threads as f64)),
            ]),
        ),
        ("runs", Json::Arr(records)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {} and one Chrome trace per workload", path.display());
    if !all_correct {
        problems.push("some operations failed their oracle check".into());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn compare_files(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else {
        return Err("compare needs two results.json files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        compare::load(&text).map_err(|e| format!("{p}: {e}"))
    };
    compare::compare(&load(a)?, &load(b)?)
}

fn self_check() -> Result<(), String> {
    watchdog(Duration::from_secs(170));
    let beside = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest = ["BENCHMARK.json".into(), beside]
        .iter()
        .find_map(|p: &PathBuf| std::fs::read_to_string(p).ok());
    check::check(manifest).map_err(|problems| problems.join("\n"))?;
    println!("check passed");
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "bench" => bench(&Args(rest)),
        "run" => run_all(&Args(rest)),
        "compare" => compare_files(&rest),
        "check" => self_check(),
        "manifest" => {
            print!("{}", catalog::manifest().pretty());
            Ok(())
        }
        other => Err(format!(
            "unknown command {other:?}; expected bench, run, compare, check or manifest"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mxn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Benchmark of record for the mtnet simulator (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload city --seed 42 --seconds 15 --trace 0
//! ```
//!
//! Single process, single thread: each workload's spec texts go through
//! `ScenarioSpec::parse` → `validate` → `build` → `World::run` →
//! `SimReport` one world after another, timed from outside. Passes over
//! the workload repeat until `--seconds` is used up; timings are medians
//! over passes. `--trace 1` adds a traced run in a fresh child process
//! with `MTNET_EVPROF=1` and prints the per-layer metrics instead. The
//! last line of stdout is the JSON result.

mod evprof;
mod sha256;
mod trace;
mod workload;

use mtnet_core::report::{DropCause, SimReport};
use mtnet_core::spec::ScenarioSpec;
use mtnet_sim::SimDuration;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workload::WorldInput;

/// Medians need a few samples even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// Set-up-only repetitions of every world before the passes.
const SETUP_REPS: u32 = 8;

/// Hidden flag that makes the process the traced half of `--trace 1`.
const CHILD_FLAG: &str = "--traced-child";

/// Why the benchmark refused to run (exit code 2).
#[derive(Debug)]
enum Refusal {
    Usage(String),
    /// An `MTNET_*` knob is set: it changes the program being measured.
    Knob(String),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Usage(m) => write!(
                f,
                "{m}\nusage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            ),
            Refusal::Knob(k) => write!(
                f,
                "{k} is set; it changes the program being measured. Unset every MTNET_* variable."
            ),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, Refusal> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == CHILD_FLAG {
            child = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| Refusal::Usage(format!("{flag} needs a value")))?;
        let bad = || Refusal::Usage(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" if workload::NAMES.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--workload" => return Err(bad()),
            _ => return Err(Refusal::Usage(format!("unknown flag {flag}"))),
        }
    }
    let missing = |f: &str| Refusal::Usage(format!("missing {f}"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Refuses any `MTNET_*` variable except `allowed`.
fn check_knobs(allowed: Option<&str>) -> Result<(), Refusal> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key.starts_with("MTNET_") && Some(key.as_ref()) != allowed {
            return Err(Refusal::Knob(key.into_owned()));
        }
    }
    Ok(())
}

/// Exact work counts read from each world's `SimReport`, summed over a
/// pass. They repeat bit for bit and are never gated as speed.
const COUNTS: [&str; 21] = [
    "sim.events",
    "traffic.pkts_sent",
    "net.pkts_delivered",
    "net.drops.no_route",
    "net.drops.wireless_detached",
    "net.drops.queue_overflow",
    "net.drops.no_binding",
    "net.drops.paging",
    "net.drops.outage",
    "core.handoffs",
    "core.handoffs_rejected",
    "core.ping_pong",
    "cellularip.route_updates",
    "cellularip.paging_updates",
    "cellularip.page_messages",
    "mobileip.requests",
    "core.rsmc_notifications",
    "core.location_messages",
    "core.control_bytes",
    "radio.calls_accepted",
    "radio.calls_blocked",
];

fn counts(r: &SimReport, sent: u64, delivered: u64) -> [u64; COUNTS.len()] {
    let drop = |c| r.drops.get(&c).copied().unwrap_or(0);
    let s = &r.signaling;
    [
        r.events_processed,
        sent,
        delivered,
        drop(DropCause::NoRoute),
        drop(DropCause::WirelessDetached),
        drop(DropCause::QueueOverflow),
        drop(DropCause::NoBinding),
        drop(DropCause::Paging),
        drop(DropCause::Outage),
        r.handoffs.total(),
        r.handoffs.rejected,
        r.handoffs.ping_pong,
        s.route_updates,
        s.paging_updates,
        s.page_messages,
        s.mip_requests,
        s.rsmc_notifications,
        s.location_messages,
        s.control_bytes,
        r.calls_accepted,
        r.calls_blocked,
    ]
}

/// What one world produced: its event count and fingerprint digest.
#[derive(Clone, PartialEq)]
struct WorldOut {
    events: u64,
    sha: String,
}

/// Seconds spent in each public call, for one world or summed over a
/// pass.
#[derive(Default, Clone)]
struct CallTimes {
    parse: f64,
    validate: f64,
    build: f64,
    run: f64,
    report: f64,
}

impl CallTimes {
    fn setup(&self) -> f64 {
        self.parse + self.validate + self.build
    }

    fn wall(&self) -> f64 {
        self.setup() + self.run + self.report
    }

    fn add(&mut self, o: &CallTimes) {
        self.parse += o.parse;
        self.validate += o.validate;
        self.build += o.build;
        self.run += o.run;
        self.report += o.report;
    }
}

/// One pass over every world of a workload.
struct Pass {
    times: CallTimes,
    counts: [u64; COUNTS.len()],
    /// `None` where the world panicked or its spec was rejected.
    worlds: Vec<Option<WorldOut>>,
    /// sha256 over the ordered fingerprint texts.
    digest: String,
}

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`).
fn proc_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Parses, validates and builds one world inside spans under `parent`.
fn set_up(
    w: &WorldInput,
    tr: &mut Tracer,
    t: &mut CallTimes,
    (parent, pass, idx): (usize, u32, u32),
) -> Result<(ScenarioSpec, mtnet_core::world::World), String> {
    let (spec, secs) = tr.time("core.spec.parse", parent, pass, idx, || {
        ScenarioSpec::parse(&w.text)
    });
    t.parse = secs;
    let spec = spec.map_err(|e| format!("parse: {e}"))?;
    let (valid, secs) = tr.time("core.spec.validate", parent, pass, idx, || spec.validate());
    t.validate = secs;
    valid.map_err(|e| format!("validate: {e}"))?;
    let (world, secs) = tr.time("core.build", parent, pass, idx, || spec.build(0));
    t.build = secs;
    Ok((spec, world))
}

struct WorldResult {
    times: CallTimes,
    fingerprint: String,
    counts: [u64; COUNTS.len()],
}

fn run_world(
    w: &WorldInput,
    tr: &mut Tracer,
    (parent, pass, idx): (usize, u32, u32),
) -> Result<WorldResult, String> {
    let mut t = CallTimes::default();
    let (spec, world) = set_up(w, tr, &mut t, (parent, pass, idx))?;
    let duration = SimDuration::from_secs_f64(spec.duration_s);
    let (report, secs) = tr.time("sim.run", parent, pass, idx, || world.run(duration));
    t.run = secs;
    let ((fingerprint, qos), secs) = tr.time("metrics.report", parent, pass, idx, || {
        (report.fingerprint(), report.aggregate_qos())
    });
    t.report = secs;
    Ok(WorldResult {
        counts: counts(&report, qos.sent, qos.received),
        times: t,
        fingerprint,
    })
}

fn run_pass(inputs: &[WorldInput], tr: &mut Tracer, pass: u32) -> Pass {
    let pass_span = tr.open("pass", None, pass, None);
    let mut p = Pass {
        times: CallTimes::default(),
        counts: [0; COUNTS.len()],
        worlds: Vec::with_capacity(inputs.len()),
        digest: String::new(),
    };
    let mut digest = sha256::Sha256::new();
    for (i, w) in inputs.iter().enumerate() {
        let idx = i as u32;
        let world_span = tr.open("world", Some(pass_span), pass, Some(idx));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_world(w, tr, (world_span, pass, idx))
        }));
        tr.close(world_span);
        let r = match outcome {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                eprintln!("world {} failed: {e}", w.label);
                p.worlds.push(None);
                continue;
            }
            Err(_) => {
                eprintln!("world {} panicked", w.label);
                p.worlds.push(None);
                continue;
            }
        };
        p.times.add(&r.times);
        for (sum, c) in p.counts.iter_mut().zip(r.counts) {
            *sum += c;
        }
        digest.update(r.fingerprint.as_bytes());
        p.worlds.push(Some(WorldOut {
            events: r.counts[0],
            sha: sha256::hex(r.fingerprint.as_bytes()),
        }));
    }
    tr.close(pass_span);
    p.digest = digest.hex();
    p
}

/// Set-up repetitions before the passes: every world is parsed, validated
/// and built, then dropped unrun. With one sample per pass as well, they
/// give `setup_s` enough samples for a steady median. A world that fails
/// here fails again in the passes, where it is counted.
///
/// Also returns the largest resident-set growth, in KiB, across one
/// world's set-up in the first repetition, the process's first builds
/// (later builds reuse freed memory).
fn set_up_reps(inputs: &[WorldInput], tr: &mut Tracer) -> (Vec<CallTimes>, u64) {
    let mut build_rss_kib = 0;
    let reps = (0..SETUP_REPS)
        .map(|rep| {
            let span = tr.open("setup", None, rep, None);
            let mut sum = CallTimes::default();
            for (i, w) in inputs.iter().enumerate() {
                let mut t = CallTimes::default();
                let rss0 = proc_kib("VmRSS");
                let built = catch_unwind(AssertUnwindSafe(|| {
                    set_up(w, tr, &mut t, (span, rep, i as u32)).map(|world| {
                        let rss = proc_kib("VmRSS");
                        drop(world);
                        rss
                    })
                }));
                if let Ok(Ok(rss)) = built {
                    if rep == 0 {
                        build_rss_kib = build_rss_kib.max(rss.saturating_sub(rss0));
                    }
                    sum.add(&t);
                }
            }
            tr.close(span);
            sum
        })
        .collect();
    (reps, build_rss_kib)
}

/// Runs passes until `seconds` is used up (at least [`MIN_PASSES`]),
/// calling `after` once each pass is done.
fn run_passes(
    inputs: &[WorldInput],
    seconds: f64,
    tr: &mut Tracer,
    mut after: impl FnMut(&Pass),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last = 0.0;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        let p = run_pass(inputs, tr, passes.len() as u32);
        eprintln!(
            "pass {}: wall {:.3} s, setup {:.6} s, run {:.3} s, {} events",
            passes.len(),
            p.times.wall(),
            p.times.setup(),
            p.times.run,
            p.counts[0]
        );
        after(&p);
        last = t.elapsed().as_secs_f64();
        passes.push(p);
    }
    passes
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of<T>(samples: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(samples.iter().map(f).collect())
}

/// The outcome of the output checks.
struct Verdict {
    attempted: u64,
    failed: u64,
    /// Problems that are not one world's: pinned totals, event accounting.
    errors: Vec<String>,
}

impl Verdict {
    fn fail_world(&mut self, label: &str, why: &str) {
        if self.failed == 0 {
            eprintln!("first failing world: {label}: {why}");
        }
        self.failed += 1;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Checks every world of every pass against the first pass and, at the
/// default seed, against the pinned outputs.
fn check(workload: &str, seed: u64, inputs: &[WorldInput], passes: &[Pass]) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let pins = (seed == workload::DEFAULT_SEED).then(|| workload::pins(workload));
    if let Some(pins) = &pins {
        if pins.worlds.len() != inputs.len() {
            v.errors.push(format!(
                "pinned.txt lists {} worlds for {workload}, the workload has {}",
                pins.worlds.len(),
                inputs.len()
            ));
        }
        let p = &passes[0];
        if (p.counts[0], &p.digest) != (pins.total.0, &pins.total.1) {
            v.errors.push(format!(
                "{workload}: events {} digest {} differ from the pinned {} {}",
                p.counts[0], p.digest, pins.total.0, pins.total.1
            ));
        }
    }
    for p in passes {
        let (sent, delivered) = (p.counts[1], p.counts[2]);
        if delivered > sent {
            v.errors.push(format!(
                "{delivered} packets delivered but only {sent} sent"
            ));
        }
        for (i, (w, out)) in inputs.iter().zip(&p.worlds).enumerate() {
            v.attempted += 1;
            let Some(out) = out else {
                v.fail_world(&w.label, "panicked or rejected");
                continue;
            };
            if out.events == 0 {
                v.fail_world(&w.label, "processed no events");
            } else if passes[0].worlds[i].as_ref() != Some(out) {
                v.fail_world(&w.label, "output differs from the first pass");
            } else if let Some((label, events, sha)) = pins.as_ref().and_then(|p| p.worlds.get(i)) {
                if (label, *events, sha) != (&w.label, out.events, &out.sha) {
                    v.fail_world(
                        &w.label,
                        &format!(
                            "events {} sha256 {} differ from the pinned",
                            out.events, out.sha
                        ),
                    );
                }
            }
        }
    }
    v
}

/// A metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn result_json(v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted,
        v.failed,
        body.join(", ")
    )
}

/// Per-pass class table of the traced run, with the pass's traced
/// `sim.run` seconds.
struct TracedPass {
    run_s: f64,
    classes: BTreeMap<&'static str, evprof::ClassTotal>,
}

/// The traced half of `--trace 1`, in its own process with
/// `MTNET_EVPROF=1`. Prints `key value` lines for the parent and writes
/// the span dump and class table under `perfbench/traces/`.
fn traced_child(args: &Args, inputs: &[WorldInput]) -> ExitCode {
    let mut tr = Tracer::new();
    let mut snapshot = BTreeMap::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut errors = Vec::new();
    let passes = run_passes(inputs, args.seconds, &mut tr, |p| {
        let now = match evprof::parse(&mtnet_core::world::evprof::report()) {
            Ok(t) => t,
            Err(e) => {
                errors.push(e);
                BTreeMap::new()
            }
        };
        let classes = evprof::delta(&now, &snapshot);
        let class_events: u64 = classes.values().map(|c| c.events).sum();
        if class_events != p.counts[0] {
            errors.push(format!(
                "evprof classes count {class_events} events, the reports {}",
                p.counts[0]
            ));
        }
        traced.push(TracedPass {
            run_s: p.times.run,
            classes,
        });
        snapshot = now;
    });
    let mut out = String::new();
    let mut line = |k: &str, v: String| out.push_str(&format!("{k} {v}\n"));
    for e in &errors {
        line("error", e.replace('\n', " "));
    }
    let run_s = median(traced.iter().map(|t| t.run_s).collect());
    line("trace.sim.run_s", run_s.to_string());
    let self_sum = |t: &TracedPass| t.classes.values().map(|c| c.nanos).sum::<f64>() / 1e9;
    line(
        "sim.loop_s",
        median(traced.iter().map(|t| t.run_s - self_sum(t)).collect()).to_string(),
    );
    let mut table = Vec::new();
    for name in evprof::CLASSES.map(|(_, layer)| layer) {
        let events = median(
            traced
                .iter()
                .map(|t| t.classes.get(name).map_or(0.0, |c| c.events as f64))
                .collect(),
        );
        let self_s = median(
            traced
                .iter()
                .map(|t| t.classes.get(name).map_or(0.0, |c| c.nanos / 1e9))
                .collect(),
        );
        let ns = if events > 0.0 {
            self_s * 1e9 / events
        } else {
            0.0
        };
        line(&format!("{name}.events"), events.to_string());
        line(&format!("{name}.self_s"), self_s.to_string());
        line(&format!("{name}.ns_per_event"), ns.to_string());
        table.push(format!(
            "{{\"kind\":\"class\",\"name\":\"{name}\",\"events\":{events},\"self_s\":{self_s},\"ns_per_event\":{ns}}}"
        ));
    }
    for (i, w) in passes[0].worlds.iter().enumerate() {
        match w {
            Some(w) => line("world", format!("{i} {} {}", w.events, w.sha)),
            None => line("world", format!("{i} - -")),
        }
    }
    let v = check(&args.workload, args.seed, inputs, &passes);
    line("attempted", v.attempted.to_string());
    line("failed", v.failed.to_string());
    for e in v.errors {
        line("error", e.replace('\n', " "));
    }
    eprint!("evprof report:\n{}", mtnet_core::world::evprof::report());
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let path = format!("{dir}/{}-seed{}.jsonl", args.workload, args.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, trace::dump(&tr.spans, &table)));
    if let Err(e) = written {
        eprintln!("could not write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("span dump: {path}");
    print!("{out}");
    ExitCode::SUCCESS
}

/// Runs the traced child and returns its `key value` lines.
fn spawn_traced(args: &Args, seconds: f64) -> Result<Vec<(String, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            CHILD_FLAG,
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .env("MTNET_EVPROF", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the traced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced run exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let allowed = args.child.then_some("MTNET_EVPROF");
    if let Err(e) = check_knobs(allowed) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let inputs = workload::inputs(&args.workload, args.seed).expect("workload name was checked");
    if args.child {
        return traced_child(&args, &inputs);
    }
    // With tracing, half the time goes to the untraced passes and half to
    // the traced child.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut tr = Tracer::new();
    let (reps, build_rss_kib) = set_up_reps(&inputs, &mut tr);
    let passes = run_passes(&inputs, seconds, &mut tr, |_| {});
    // Set-up samples: the set-up-only repetitions and every pass.
    let setups: Vec<CallTimes> = reps
        .into_iter()
        .chain(passes.iter().map(|p| p.times.clone()))
        .collect();
    let first = &passes[0];
    // The first pass's outputs, in the format of `pinned.txt`.
    for (w, out) in inputs.iter().zip(&first.worlds) {
        if let Some(out) = out {
            eprintln!("{} {} {} {}", args.workload, w.label, out.events, out.sha);
        }
    }
    eprintln!("{} * {} {}", args.workload, first.counts[0], first.digest);
    eprintln!("passes: {}", passes.len());
    let mut verdict = check(&args.workload, args.seed, &inputs, &passes);

    let mut metrics = Vec::new();
    if !args.trace {
        metrics.push(metric(
            "wall_s",
            median_of(&passes, |p| p.times.wall()),
            "s",
        ));
        metrics.push(metric(
            "events_per_s",
            median_of(&passes, |p| p.counts[0] as f64 / p.times.run),
            "1/s",
        ));
        metrics.push(metric("setup_s", median_of(&setups, CallTimes::setup), "s"));
        metrics.push(metric(
            "peak_rss_mib",
            proc_kib("VmHWM") as f64 / 1024.0,
            "MiB",
        ));
    } else {
        let child = match spawn_traced(&args, seconds) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let get = |k: &str| {
            child
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        let num = |k: &str| get(k).and_then(|v| v.parse::<f64>().ok());
        for (k, v) in &child {
            match k.as_str() {
                "error" => verdict.errors.push(format!("traced run: {v}")),
                "world" => {
                    let f: Vec<&str> = v.split(' ').collect();
                    let i: usize = f[0].parse().unwrap_or(usize::MAX);
                    let untraced = first.worlds.get(i).and_then(|w| w.as_ref());
                    let same =
                        untraced.is_some_and(|w| [w.events.to_string(), w.sha.clone()] == f[1..]);
                    if !same {
                        let label = inputs.get(i).map_or("?", |w| w.label.as_str());
                        verdict.fail_world(label, "traced output differs from untraced");
                    }
                }
                _ => {}
            }
        }
        verdict.attempted += num("attempted").unwrap_or(0.0) as u64;
        verdict.failed += num("failed").unwrap_or(0.0) as u64;
        let run_s = median_of(&passes, |p| p.times.run);
        metrics.push(metric(
            "core.spec.parse_s",
            median_of(&setups, |t| t.parse),
            "s",
        ));
        metrics.push(metric(
            "core.spec.validate_s",
            median_of(&setups, |t| t.validate),
            "s",
        ));
        metrics.push(metric("core.build_s", median_of(&setups, |t| t.build), "s"));
        metrics.push(metric(
            "core.build_rss_mib",
            build_rss_kib as f64 / 1024.0,
            "MiB",
        ));
        metrics.push(metric("sim.run_s", run_s, "s"));
        metrics.push(metric(
            "metrics.report_s",
            median_of(&passes, |p| p.times.report),
            "s",
        ));
        let mut child_metric = |name: &str, unit| match num(name) {
            Some(x) => metrics.push(metric(name, x, unit)),
            None => verdict.errors.push(format!("traced run gave no {name}")),
        };
        child_metric("trace.sim.run_s", "s");
        child_metric("sim.loop_s", "s");
        // Every class but the last, `core.fault`: no workload injects
        // faults, so it would read 0 on every run.
        for (_, name) in &evprof::CLASSES[..evprof::CLASSES.len() - 1] {
            child_metric(&format!("{name}.events"), "count");
            child_metric(&format!("{name}.self_s"), "s");
            child_metric(&format!("{name}.ns_per_event"), "ns");
        }
        if let Some(traced) = num("trace.sim.run_s") {
            metrics.push(metric("trace.overhead_s", traced - run_s, "s"));
        }
        for (name, c) in COUNTS.iter().zip(first.counts) {
            metrics.push(metric(name, c as f64, "count"));
        }
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let c = |name: &str| first.counts[COUNTS.iter().position(|n| *n == name).expect("a count")];
        metrics.push(metric(
            "net.delivery_ratio",
            ratio(c("net.pkts_delivered"), c("traffic.pkts_sent")),
            "ratio",
        ));
        metrics.push(metric(
            "core.handoff_accept_ratio",
            ratio(
                c("core.handoffs"),
                c("core.handoffs") + c("core.handoffs_rejected"),
            ),
            "ratio",
        ));
    }
    println!("{}", result_json(&verdict, &metrics));
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        for e in &verdict.errors {
            eprintln!("check failed: {e}");
        }
        ExitCode::FAILURE
    }
}

//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice for half the time each, untraced
//! then traced, and prints the per-layer metrics, the per-layer self
//! time from the spans and the tracing overhead. The last line of
//! standard output is one JSON object with the result.

use polaris_perfbench::trace::Tracer;
use polaris_perfbench::{end_to_end, per_layer, run_workload, Ctx, Report, Scale, WORKLOADS};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?),
            "--seconds" => {
                let s = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v}: must be 0 or 1")),
                })
            }
            "--trace-file" => trace_file = Some(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_file,
    })
}

fn run(args: &Args, seconds: f64, tracer: Arc<Tracer>) -> Report {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        jobs,
        scale: Scale::Full,
        tracer,
        tamper: false,
    };
    let r = run_workload(&args.workload, &ctx).expect("workload name was checked");
    for n in &r.notes {
        println!("  {n}");
    }
    println!(
        "  {} request latencies; req_tail_us is their p{}",
        r.req_us.len(),
        polaris_perfbench::stats::tail_percentile(r.req_us.len())
    );
    for f in &r.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!(
        "{} (jobs {jobs}, {:.1} s): {} passes, digest {:016x}, fail_ratio {} ({} of {} failed)",
        args.workload,
        seconds,
        r.passes,
        r.digest,
        r.tally.fail_ratio(),
        r.tally.failed,
        r.tally.attempted
    );
    r
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]");
            return ExitCode::from(2);
        }
    };
    let (metrics, tally) = if args.trace {
        let untraced = run(&args, args.seconds / 2.0, Arc::new(Tracer::new(false)));
        let tracer = Arc::new(Tracer::new(true));
        let traced = run(&args, args.seconds / 2.0, Arc::clone(&tracer));
        if untraced.digest != traced.digest {
            eprintln!("CHECK FAILED: traced and untraced runs disagree on the outputs");
        }
        if let Some(path) = &args.trace_file {
            if let Err(e) = tracer.write_jsonl(std::path::Path::new(path)) {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let mut tally = untraced.tally;
        tally.merge(traced.tally);
        tally.record(untraced.digest == traced.digest);
        (per_layer(&traced, &untraced, &tracer), tally)
    } else {
        let r = run(&args, args.seconds, Arc::new(Tracer::new(false)));
        let m = end_to_end(&r)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        (m, r.tally)
    };

    let mut json = Vec::new();
    for (name, value, unit) in &metrics {
        println!("{name:>34} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

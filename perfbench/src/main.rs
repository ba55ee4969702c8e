//! Command line:
//!
//! ```text
//! perfbench --workload <music-7pair|rmat-build|rmat-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! Prints the host fingerprint and every metric with its unit and
//! sample note, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Writes the same results (and,
//! traced, the spans) under `out/` in the benchmark directory. Exits 1
//! when any op fails its check, 2 on bad arguments.

use perfbench::host::Fingerprint;
use perfbench::report::{compare, result_file, result_line};
use perfbench::{execute, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <music-7pair|rmat-build|rmat-stream> \
--seed <n> --seconds <s> --trace <0|1>\n       \
perfbench compare <result-a.json> <result-b.json>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Music7Pair,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = || format!("bad value for {}: {}", flag, value);
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        if args.len() != 3 {
            eprintln!("{}", USAGE);
            return ExitCode::from(2);
        }
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{}: {}", p, e));
        return match (read(&args[1]), read(&args[2])) {
            (Ok(a), Ok(b)) => {
                print!("{}", compare(&a, &b));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{}", e);
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    };

    let host = Fingerprint::capture();
    if host.is_tuned() {
        eprintln!(
            "WARNING: AARRAY_* variables are set; this run does not measure the program as users run it"
        );
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8
    );
    println!("# host {} commit {}", host.to_json(), host.commit);

    let spans_out = cfg.trace.then(|| {
        out_dir().join(format!(
            "spans-{}-seed{}.tsv",
            cfg.workload.name(),
            cfg.seed
        ))
    });
    let outcome = execute(&cfg, spans_out.as_deref());
    let correct = outcome.failed == 0;
    for m in &outcome.metrics {
        println!(
            "# {:<34} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "# ops attempted={} failed={} ops_failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );

    let header = [
        ("workload", format!("\"{}\"", cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", (cfg.trace as u8).to_string()),
    ];
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8
    ));
    let doc = result_file(
        &header,
        &host,
        correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&file, doc)) {
        eprintln!("could not write {}: {}", file.display(), e);
    }

    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

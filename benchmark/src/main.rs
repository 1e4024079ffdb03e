//! `sb-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 |
//! --traced] [--smoke] [--wal-dir D] [--expected-dir D] [--record-expected]
//! [--out FILE] [--results FILE] [--git-rev R] [--rustc V]`
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric by name with its unit, and ends with the driver's one-line JSON
//! result. Without, it runs every workload — each in a child process of its
//! own, so `peak_rss_mb` is per workload — and writes one results file.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sb_benchmark::emit::{driver_line, results_json, workload_json, Header};
use sb_benchmark::harness::Opts;
use sb_benchmark::json::Json;
use sb_benchmark::spec::{RUN_SECONDS, WORKLOADS};

struct Cli {
    opts: Opts,
    workload: Option<String>,
    out: Option<PathBuf>,
    results: Option<PathBuf>,
    git_rev: String,
    rustc: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("sb-benchmark: {msg}");
    eprintln!(
        "usage: sb-benchmark [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--smoke] [--wal-dir D] [--expected-dir D] \
         [--record-expected] [--out FILE] [--results FILE]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        opts: Opts {
            workload: String::new(),
            seed: 42,
            seconds: RUN_SECONDS as f64,
            traced: false,
            smoke: false,
            wal_dir: PathBuf::from(".bench_out/wal"),
            expected_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected")),
            record_expected: false,
        },
        workload: None,
        out: None,
        results: None,
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--workload" => cli.workload = Some(value("a name")),
            "--seed" => {
                cli.opts.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                cli.opts.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => match value("0 or 1").as_str() {
                "0" => cli.opts.traced = false,
                "1" => cli.opts.traced = true,
                _ => usage("--trace takes 0 or 1"),
            },
            "--traced" => cli.opts.traced = true,
            "--smoke" => cli.opts.smoke = true,
            "--wal-dir" => cli.opts.wal_dir = value("a directory").into(),
            "--expected-dir" => cli.opts.expected_dir = value("a directory").into(),
            "--record-expected" => cli.opts.record_expected = true,
            "--out" => cli.out = Some(value("a file").into()),
            "--results" => cli.results = Some(value("a file").into()),
            "--print-benchmark-json" => {
                print!("{}", benchmark_json().pretty());
                std::process::exit(0);
            }
            "--git-rev" => cli.git_rev = value("a revision"),
            "--rustc" => cli.rustc = value("a version"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !(cli.opts.seconds.is_finite() && (0.0..=3600.0).contains(&cli.opts.seconds)) {
        usage("--seconds must be between 0 and 3600");
    }
    if cli.opts.smoke {
        cli.opts.seconds = 0.0;
    }
    cli
}

/// `/BENCHMARK.json` as the tables of [`sb_benchmark::spec`] state it
/// (`--print-benchmark-json`; a test keeps the committed file equal).
fn benchmark_json() -> Json {
    use sb_benchmark::json::obj;
    use sb_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOAD_WHY};
    let better = |higher: bool| Json::from(if higher { "higher" } else { "lower" });
    obj([
        (
            "command",
            Json::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .zip(WORKLOAD_WHY)
                    .map(|(&name, why)| obj([("name", name.into()), ("why", why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", better(m.higher_is_better)),
                            ("bound", m.bound.into()),
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
                    .map(|&(name, unit, higher)| {
                        obj([
                            ("name", name.into()),
                            ("unit", unit.into()),
                            ("better", better(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Print one workload's metrics, sizes and gates for a reader.
fn print_workload(name: &str, w: &Json) {
    println!("== {name} ==");
    for (stage, sizes) in w.get("sizes").and_then(Json::as_obj).unwrap_or(&[]) {
        println!("  sizes[{stage}]: {}", sizes.compact());
    }
    println!(
        "  passes: {}",
        w.get("passes").map_or(String::new(), Json::compact)
    );
    for (metric, m) in w.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let num = |k: &str| m.get(k).and_then(Json::as_f64);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let mut line = format!(
            "  {metric:<30} {:>16.6} {unit}",
            num("value").unwrap_or(f64::NAN)
        );
        if let (Some(n), Some(q1), Some(q3)) = (num("n"), num("q1"), num("q3")) {
            line += &format!("   (n={n}, q1={q1:.6}, q3={q3:.6}");
            if let Some(t) = m.get("tail") {
                line += &format!(
                    ", {}={:.6}",
                    t.get("percentile").and_then(Json::as_str).unwrap_or("tail"),
                    t.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)
                );
            }
            line.push(')');
        }
        println!("{line}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        w.get("ops_attempted").map_or(String::new(), Json::compact),
        w.get("ops_failed").map_or(String::new(), Json::compact)
    );
    for g in w.get("gates").and_then(Json::as_arr).unwrap_or(&[]) {
        let ok = g.get("ok") == Some(&Json::Bool(true));
        println!(
            "  gate {} {} {}",
            if ok { "ok    " } else { "FAILED" },
            g.get("name").and_then(Json::as_str).unwrap_or(""),
            g.get("detail").and_then(Json::as_str).unwrap_or("")
        );
    }
}

fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let mut opts = cli.opts.clone();
    opts.workload = workload.to_string();
    if let Err(e) = std::fs::create_dir_all(&opts.wal_dir) {
        eprintln!("cannot create {}: {e}", opts.wal_dir.display());
        return ExitCode::from(2);
    }
    let Some(rep) = sb_benchmark::run_workload(&opts) else {
        usage(&format!("unknown workload {workload}"));
    };
    let w = workload_json(&opts, &rep);
    print_workload(workload, &w);
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, w.pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    // the driver reads the last line of standard output
    println!("{}", driver_line(&w).compact());
    ExitCode::SUCCESS
}

fn run_all(cli: &Cli) -> ExitCode {
    let opts = &cli.opts;
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let results = cli.results.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_out/results.seed{}{}{}.json",
            opts.seed,
            if opts.traced { ".traced" } else { "" },
            if opts.smoke { ".smoke" } else { "" }
        ))
    });
    let dir = results.parent().map(PathBuf::from).unwrap_or_default();
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::create_dir_all(&opts.wal_dir))
    {
        eprintln!("cannot create output directories: {e}");
        return ExitCode::from(2);
    }
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let part = dir.join(format!("part-{}-{w}.json", std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--wal-dir")
            .arg(&opts.wal_dir)
            .arg("--expected-dir")
            .arg(&opts.expected_dir)
            .arg("--out")
            .arg(&part);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if opts.record_expected {
            cmd.arg("--record-expected");
        }
        // the child inherits stdout; `status` waits until it has ended
        let status = cmd.status();
        let parsed = std::fs::read_to_string(&part)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        let _ = std::fs::remove_file(&part);
        match (status, parsed) {
            (Ok(s), Some(j)) if s.success() => {
                ok &= j.get("correct") == Some(&Json::Bool(true))
                    && j.get("ops_failed").and_then(Json::as_f64) == Some(0.0);
                workloads.push((w.to_string(), j));
            }
            (status, _) => {
                eprintln!("workload {w} did not produce a result ({status:?})");
                ok = false;
            }
        }
    }
    let header = Header::new(opts, cli.git_rev.clone(), cli.rustc.clone());
    let doc = results_json(&header, workloads);
    match std::fs::write(&results, doc.pretty()) {
        Ok(()) => println!("results written to {}", results.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", results.display());
            return ExitCode::from(2);
        }
    }
    if ok {
        println!("all gates held, no operation failed");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: a gate did not hold or an operation failed (see above)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = parse_args();
    match &cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli),
    }
}

//! Runs one table/figure experiment by id, or every one of them.
//!
//! ```text
//! experiment <id>|all [--quick]
//! ```
//!
//! `all` runs the registry in order and writes the combined report to
//! `EXPERIMENTS-results.txt` (and stdout). `--quick` is the
//! reduced-scale variant used in smoke testing.

use cm_bench::experiments::REGISTRY;
use cm_bench::ExpConfig;
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };
    match args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
    {
        Some("all") => run_all(&cfg),
        Some(id) => match REGISTRY.iter().find(|(name, _)| *name == id) {
            Some((_, run)) => match run(&cfg) {
                Ok(result) => print!("{result}"),
                Err(e) => {
                    eprintln!("{id} failed: {e}");
                    exit(1);
                }
            },
            None => usage(&format!("unknown experiment `{id}`")),
        },
        None => usage("missing experiment id"),
    }
}

fn usage(problem: &str) -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "{problem}\nusage: experiment <id>|all [--quick]\nids: {}",
        ids.join(" ")
    );
    exit(2);
}

fn run_all(cfg: &ExpConfig) {
    let mut out = String::new();
    let started = Instant::now();
    writeln!(
        out,
        "CounterMiner reproduction — all experiments ({:?} scale)\n",
        cfg.scale
    )
    .unwrap();
    for (id, run) in REGISTRY {
        let t = Instant::now();
        eprintln!("running {id} ...");
        match run(cfg) {
            Ok(result) => writeln!(out, "{result}").unwrap(),
            Err(e) => writeln!(out, "{id} FAILED: {e}\n").unwrap(),
        }
        eprintln!("  {id} done in {:.1?}", t.elapsed());
    }
    writeln!(out, "total wall time: {:.1?}", started.elapsed()).unwrap();
    print!("{out}");
    if let Err(e) = std::fs::write("EXPERIMENTS-results.txt", &out) {
        eprintln!("could not write EXPERIMENTS-results.txt: {e}");
    }
}

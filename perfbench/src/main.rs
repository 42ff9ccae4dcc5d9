//! ```text
//! perfbench --workload <explore|sharded> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench compare <results-a> <results-b> [--bench BENCHMARK.json]
//! ```
//!
//! (`perfbench setup-probe --workload <w> --seed <n>` is the child process
//! a run starts to time its extra set-ups.)
//!
//! A run prints its provenance, every metric by name and unit, the
//! waterfall when traced, and as its last line the JSON result. It exits
//! non-zero when an output was wrong or a request failed.

use perfbench::metrics::result_line;
use perfbench::workloads::{self, Args};
use perfbench::{compare, provenance};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare <results-a> <results-b> [--bench BENCHMARK.json]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
        i += 2;
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) || args.seconds == 0 {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("setup-probe") {
        workloads::setup_probe(&parse_args(&argv[1..]));
        return;
    }
    let args = parse_args(&argv);
    let header = provenance::header(&args.workload, args.seed, args.seconds, args.trace);
    println!("provenance: {}", serde_json::to_string(&header).unwrap_or_default());

    let outcome = workloads::run(&args);

    for m in outcome.e2e.iter().chain(&outcome.extra) {
        m.print();
    }
    if args.trace {
        for line in &outcome.waterfall {
            println!("{line}");
        }
        for m in &outcome.layers {
            m.print();
        }
        let dir = std::path::Path::new("target/perfbench");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &outcome.spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for m in &outcome.mismatches {
        println!("MISMATCH {m}");
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    let reported = if args.trace { &outcome.layers } else { &outcome.e2e };
    let finite = reported.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct && finite, outcome.attempted, outcome.failed, reported));
    if !(correct && finite) {
        std::process::exit(1);
    }
}

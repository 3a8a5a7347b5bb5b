//! `suitebench --workload <libos-launch|epc-paging|resident-hotpath>
//! --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! `--bless` prints the grid's golden digests instead.

use std::process::ExitCode;
use suitebench::gate::Golden;
use suitebench::grid::Scale;
use suitebench::{bless, traced, untraced, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("suitebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless(args.bench, Scale::Paper) {
            Ok(golden) => {
                print!("{}", golden.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("suitebench: cannot bless: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let golden = Golden::shipped();
    let outcome = if args.trace {
        let (outcome, tracer) = traced::run(args.bench, Scale::Paper, args.seed, &golden);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.bench.name(),
            args.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.jsonl()))
        {
            eprintln!("suitebench: cannot write {}: {e}", path.display());
        }
        outcome
    } else {
        untraced(args.bench, Scale::Paper, args.seconds, &golden)
    };
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

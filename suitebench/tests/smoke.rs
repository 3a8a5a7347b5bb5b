//! Reduced-scale runs of every benchmark workload: the metrics printed
//! must be exactly the ones `BENCHMARK.json` names, with its units, and
//! the simulated-output gate must catch a planted mismatch.

use suitebench::gate::{cell_key, Golden};
use suitebench::grid::{Bench, Scale};
use suitebench::report::Outcome;
use suitebench::{bless, traced, untraced, MIN_PASSES};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn printed(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_reports_exactly(o: &Outcome, section: &str) {
    let want = declared(section);
    assert!(!want.is_empty());
    assert_eq!(printed(o), want, "{section} metrics and units");
    let json = o.json();
    for (name, unit) in &want {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {json}"
        );
        assert!(o.table().contains(unit.as_str()));
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for bench in Bench::ALL {
        let golden = bless(bench, Scale::Smoke).expect("smoke grid runs");
        let o = untraced(bench, Scale::Smoke, 0, &golden);
        assert!(o.correct, "{}: {:?}", bench.name(), o.failures);
        assert_eq!(o.failed, 0);
        assert!(o.attempted >= MIN_PASSES as u64);
        assert_reports_exactly(&o, "end_to_end");
        assert!(o.table().contains("cells_failed"));
        for m in &o.metrics {
            assert!(m.value > 0.0, "{} {}", bench.name(), m.name);
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for bench in Bench::ALL {
        let golden = bless(bench, Scale::Smoke).expect("smoke grid runs");
        let (o, tracer) = traced::run(bench, Scale::Smoke, 7, &golden);
        assert!(o.correct, "{}: {:?}", bench.name(), o.failures);
        assert_reports_exactly(&o, "per_layer");
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "workloads.execute" && s.cell == Some(0)));
        let execute = o.get("workloads.execute_s").expect("reported");
        assert!(execute > 0.0);
        if bench == Bench::LibosLaunch {
            assert!(o.get("libos.launch_s").expect("reported") > 0.0);
            assert!(o.get("libos.pages_measured").expect("reported") > 0.0);
        }
    }
}

#[test]
fn a_planted_digest_mismatch_counts_as_a_failed_cell() {
    let bench = Bench::ResidentHotpath;
    let golden = bless(bench, Scale::Smoke).expect("smoke grid runs");
    let key = cell_key(bench.name(), "PageRank/Native/Low");
    let mut planted = Golden::default();
    for line in golden.render().lines() {
        let (k, d) = line.split_once(' ').expect("key digest");
        let d = u64::from_str_radix(d, 16).expect("hex");
        planted.insert(k.to_string(), if k == key { d ^ 1 } else { d });
    }
    let o = untraced(bench, Scale::Smoke, 0, &planted);
    let passes = o.attempted / 4;
    assert_eq!(o.failed, passes, "one failure per pass");
    assert!(!o.correct);
    assert!(
        o.failures.iter().all(|f| f.starts_with(&key)),
        "{:?}",
        o.failures
    );
    assert!(o.table().contains(&format!("FAILED {key}")));
    assert!(o.json().contains(&format!("\"failed\": {passes}")));
}

#[test]
fn a_missing_golden_digest_fails_the_cell() {
    let o = untraced(Bench::ResidentHotpath, Scale::Smoke, 0, &Golden::default());
    assert_eq!(o.failed, o.attempted);
    assert!(o.failures[0].contains("no golden digest"));
}

#[test]
fn shipped_golden_covers_every_paper_cell() {
    let golden = Golden::shipped().render();
    for bench in Bench::ALL {
        for w in bench.workloads(Scale::Paper) {
            for &mode in bench.modes() {
                let key = cell_key(
                    bench.name(),
                    &format!("{}/{mode}/{}", w.name(), bench.setting()),
                );
                assert!(golden.contains(&format!("{key} ")), "{key}");
            }
        }
    }
}

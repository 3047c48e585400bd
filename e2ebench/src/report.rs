//! Metric names, the result line, and the order statistics the repeat
//! mode prints.

use std::collections::BTreeMap;

/// End-to-end metrics (printed by untraced runs), with units. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics (printed by traced runs), with units. Every workload
/// reports every one of them; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("metric.calls", "count"),
    ("metric.pairs", "count"),
    ("metric.busy_s", "s"),
    ("metric.ns_per_pair", "ns"),
    ("metric.fast_pairs", "count"),
    ("metric.exact_fallback_ratio", "ratio"),
    ("core.coarse.gmm_s", "s"),
    ("core.coarse.radius_s", "s"),
    ("core.ladder_s", "s"),
    ("core.ladder.self_s", "s"),
    ("core.ladder.evals", "count"),
    ("core.ladder.probes", "count"),
    ("core.kbmis.rung_s", "s"),
    ("core.kbmis.self_s", "s"),
    ("core.kbmis.outer_rounds", "count"),
    ("core.kbmis.forced_progress", "count"),
    ("core.grid.rung_s", "s"),
    ("core.grid.pairs", "count"),
    ("core.grid.stencil_cells", "count"),
    ("core.grid.cells", "count"),
    ("core.memo.hits", "count"),
    ("core.memo.misses", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.sorted_builds", "count"),
    ("core.memo.bytes", "bytes"),
    ("core.finalize_s", "s"),
    ("mpc.rounds", "count"),
    ("mpc.rounds.coarse", "count"),
    ("mpc.rounds.ladder", "count"),
    ("mpc.rounds.finalize", "count"),
    ("mpc.max_machine_words", "words"),
    ("mpc.words.coarse", "words"),
    ("mpc.words.ladder", "words"),
    ("mpc.words.finalize", "words"),
    ("mpc.max_words_per_round", "words"),
    ("mpc.wire.encode_s", "s"),
    ("mpc.wire.decode_s", "s"),
    ("mpc.wire.transit_s", "s"),
    ("mpc.wire.share", "ratio"),
    ("mpc.wire.payload_bytes", "bytes"),
    ("mpc.wire.overhead_bytes", "bytes"),
    ("mpc.wire.frames", "count"),
    ("mpc.wire.arena_high_water_bytes", "bytes"),
    ("serving.insert_s", "s"),
    ("serving.insert_per_s", "1/s"),
    ("serving.snapshot_ms", "ms"),
    ("serving.query_p50_ms", "ms"),
    ("serving.query_p99_ms", "ms"),
    ("serving.query_samples", "count"),
    ("serving.rebuilds", "count"),
    ("serving.union_size", "count"),
    ("serving.delta", "dist"),
    ("serving.kcenter_ms", "ms"),
    ("serving.kdiversity_ms", "ms"),
    ("serving.memo_hit_ratio", "ratio"),
    ("trace.phase_coverage", "ratio"),
    ("trace.rung_coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.probe_s", "s"),
];

/// The outcome of one benchmark run: operation tallies plus metric values
/// keyed by name.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records one operation's verdict; a failure is also printed.
    pub fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.correct = false;
            eprintln!("FAILED {what}: {e}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `table` (0 for any a
    /// workload left unset).
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = v.len() / 2;
    if v.len() % 2 == 1 {
        v[h]
    } else {
        (v[h - 1] + v[h]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` (0 for an empty sample).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let n = 4i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        (d[(j - 1) as usize] * (n as f64 - delta) + d[j as usize] * delta) / n as f64
    };
    (q(1), q(3))
}

/// `(correct, failed, metrics)` of a parsed result line.
pub type Parsed = (bool, u64, Vec<(String, f64)>);

/// Reads the metric values back out of a result line (the repeat mode
/// parses its child runs' output). Returns `(correct, failed, metrics)`.
pub fn parse_result(line: &str) -> Option<Parsed> {
    let correct = line.contains("\"correct\": true");
    let failed = line
        .split("\"failed\": ")
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    let body = line.split("\"metrics\": {").nth(1)?;
    let mut out = Vec::new();
    for part in body.split("}, ").chain(std::iter::once("")) {
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.trim_start_matches('"').to_string();
        let value: f64 = rest.split(',').next()?.parse().ok()?;
        out.push((name, value));
    }
    Some((correct, failed, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `name` is a legal metric name: starts with a letter or digit
    /// and uses only `[A-Za-z0-9_.-]`, at most 64 characters.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = Report::new();
        r.op("solve", Ok(()));
        r.set("solve_s", 1.25);
        r.set("setup_s", 0.5);
        let line = r.json(END_TO_END);
        let (correct, failed, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(failed, 0);
        assert_eq!(
            metrics,
            vec![
                ("setup_s".to_string(), 0.5),
                ("solve_s".to_string(), 1.25),
                ("quality_ratio".to_string(), 0.0)
            ]
        );
    }

    #[test]
    fn failed_operation_marks_the_run_incorrect() {
        let mut r = Report::new();
        r.op("solve", Ok(()));
        r.op("solve", Err("radius mismatch".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = manifest.split(&format!("\"{section}\": [")).nth(1).unwrap();
            let body = body.split(']').next().unwrap();
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).unwrap();
                        rest.split('"').next().unwrap().to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}

//! One run's result: correctness checks, counts, metrics, provenance,
//! and the two JSON lines the benchmark prints.

use crate::Args;
use pipebench::metrics::{unit_of, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    checks: Vec<(String, bool)>,
    /// Operations attempted (digests, queries, probes, snapshot sends).
    pub attempted: u64,
    /// Operations that failed: shed, dropped or unapplied digests,
    /// journal drops, query errors, probes never seen, wrong answers.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    named: Vec<(&'static str, f64, &'static str)>,
    samples: Vec<(&'static str, usize)>,
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a named correctness check; any `false` fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("pipebench: check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Sets a metric from [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(name, value);
    }

    /// Records a metric under the name the pipeline's users know it by
    /// (reported beside the contract metrics, not instead of them).
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// Records how many samples a percentile was taken over.
    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    /// Records a free-form provenance or diagnostic entry.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Whether every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.failed == 0 && self.attempted > 0
    }

    /// Prints the provenance report line, then the result line the
    /// benchmark contract reads (always the last line of stdout).
    pub fn print(&self, args: &Args, host: &[(&'static str, String)], input_hash: u64) {
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let mut r = String::from("{\"pipebench\":{");
        let _ = write!(
            r,
            "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"input_hash\":\"{input_hash:#018x}\",",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        r.push_str("\"host\":{");
        push_pairs(&mut r, host.iter().map(|(k, v)| (*k, json_str(v))));
        r.push_str("},\"checks\":{");
        push_pairs(
            &mut r,
            self.checks
                .iter()
                .map(|(k, ok)| (k.as_str(), ok.to_string())),
        );
        r.push_str("},\"metrics\":{");
        let named = self
            .named
            .iter()
            .map(|&(k, v, u)| (k, metric(v, u)))
            .chain(std::iter::once(("fail_ratio", metric(fail_ratio, "ratio"))));
        push_pairs(&mut r, named);
        r.push_str("},\"samples\":{");
        push_pairs(
            &mut r,
            self.samples.iter().map(|&(k, n)| (k, n.to_string())),
        );
        r.push_str("},\"info\":{");
        push_pairs(&mut r, self.info.iter().map(|(k, v)| (*k, json_str(v))));
        r.push_str("}}}");
        println!("{r}");

        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        push_pairs(
            &mut out,
            table.iter().map(|&(name, unit)| {
                (
                    name,
                    metric(self.metrics.get(name).copied().unwrap_or(0.0), unit),
                )
            }),
        );
        out.push_str("}}");
        println!("{out}");
    }
}

fn metric(value: f64, unit: &str) -> String {
    format!(
        "{{\"value\":{},\"unit\":{}}}",
        json_num(value),
        json_str(unit)
    )
}

fn push_pairs<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a str, String)>) {
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_str(k));
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

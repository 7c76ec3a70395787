//! What a run prints and writes: the human-readable metric table, the
//! contract's one-line JSON result, the full `result_<workload>.json`
//! and the span dump. JSON is written by hand — the workspace is
//! offline and carries no serializer.

use crate::driver::Span;
use crate::procfs::Host;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct HostBlock {
    pub host: Host,
    /// `mbd-server --workers`.
    pub workers: usize,
    pub server_threads: u64,
    /// The one CPU the load generator and the server share (`None`:
    /// the kernel refused the pin and the run went unplaced).
    pub cpu: Option<usize>,
    /// Whether `cpus::KeepAwake` held that CPU out of idle.
    pub kept_awake: bool,
}

/// Everything one workload's run produced.
#[derive(Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: usize,
    pub failed: usize,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Per-slice (per-boot, for `setup_s`) values behind each median.
    pub slices: Vec<(&'static str, Vec<f64>)>,
    /// Indices of the quiet slices the run-time medians were taken over.
    pub quiet_slices: Vec<usize>,
    /// Layer self times of the traced run; with the residual they sum
    /// to `traced_p50_ns`.
    pub ledger: Vec<(&'static str, f64)>,
    pub ledger_residual_ns: f64,
    pub traced_p50_ns: f64,
    /// Subtractions that went negative and were clamped to zero.
    pub clamped: Vec<&'static str>,
    /// Latency samples behind `e2e.latency_p99_us`.
    pub p99_samples: usize,
    pub host: Option<HostBlock>,
}

fn quoted(s: &str) -> String {
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

/// A JSON number with all the digits `f64` carries. JSON has no NaN or
/// infinity; a metric that is not a number is an error, never a 0.
fn number(name: &str, value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("metric {name} is not a number ({value})"))
    }
}

fn metrics_object(metrics: &[&Metric]) -> Result<String, String> {
    let fields: Result<Vec<String>, String> = metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(m.name),
                number(m.name, m.value)?,
                quoted(m.unit)
            ))
        })
        .collect();
    Ok(format!("{{{}}}", fields?.join(", ")))
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Report {
        Report { workload, seed, ..Report::default() }
    }

    fn selected(&self, (end_to_end, per_layer): (bool, bool)) -> Vec<&Metric> {
        let e2e = self.end_to_end.iter().filter(|_| end_to_end);
        e2e.chain(self.per_layer.iter().filter(|_| per_layer)).collect()
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self, families: (bool, bool)) -> Result<String, String> {
        let metrics = self.selected(families);
        if metrics.is_empty() {
            return Err("no metrics were measured".to_string());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_object(&metrics)?
        ))
    }

    /// Every metric by name with its unit, the ledger, and the host.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}): {} attempted, {} failed",
            self.workload, self.seed, self.attempted, self.failed
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(out, "  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        if self.p99_samples > 0 {
            let _ = writeln!(
                out,
                "  (e2e.latency_p99_us: over every measured request, {} samples)",
                self.p99_samples
            );
        }
        if !self.ledger.is_empty() {
            let _ = writeln!(out, "  ledger of the traced slice (self times, ns):");
            for (layer, ns) in &self.ledger {
                let share = ns / self.traced_p50_ns * 100.0;
                let _ = writeln!(out, "    {layer:<30} {ns:>12.0} {share:>6.1}%");
            }
            let _ = writeln!(out, "    {:<30} {:>12.0}", "(unattributed)", self.ledger_residual_ns);
            let _ = writeln!(out, "    {:<30} {:>12.0}", "= traced e2e p50", self.traced_p50_ns);
        }
        for name in &self.clamped {
            let _ = writeln!(out, "  clamped to zero (parts exceeded the whole): {name}");
        }
        if let Some(h) = &self.host {
            let _ = writeln!(
                out,
                "  host: {} x {} | kernel {} | {} | commit {} | --workers {} | {} server threads{} | \
                 client and server {}{} | state dir on {} | loopback TCP",
                h.host.nproc,
                h.host.cpu_model,
                h.host.kernel,
                h.host.rustc,
                h.host.commit,
                h.workers,
                h.server_threads,
                if h.server_threads as usize > h.host.nproc { " (oversubscribed)" } else { "" },
                h.cpu.map_or("unplaced".to_string(), |c| format!("on CPU {c}")),
                if h.kept_awake { ", kept awake" } else { "" },
                h.host.state_dir_fs,
            );
        }
        out
    }

    /// The full record of the run, for `selfcheck.sh` and for reading
    /// later: host, seed, medians, the per-slice values behind them,
    /// per-layer metrics and the ledger. Metrics that are not numbers
    /// are written as `null` here (the contract line refuses them).
    pub fn to_json(&self) -> String {
        let num = |v: f64| if v.is_finite() { format!("{v}") } else { "null".to_string() };
        let metric_map = |metrics: &[Metric]| {
            let fields: Vec<String> = metrics
                .iter()
                .map(|m| {
                    format!(
                        "    {}: {{\"value\": {}, \"unit\": {}}}",
                        quoted(m.name),
                        num(m.value),
                        quoted(m.unit)
                    )
                })
                .collect();
            format!("{{\n{}\n  }}", fields.join(",\n"))
        };
        let slices: Vec<String> = self
            .slices
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|v| num(*v)).collect();
                format!("    {}: [{}]", quoted(name), values.join(", "))
            })
            .collect();
        let ledger: Vec<String> = self
            .ledger
            .iter()
            .map(|(layer, ns)| format!("    {}: {}", quoted(layer), num(*ns)))
            .collect();
        let clamped: Vec<String> = self.clamped.iter().map(|c| quoted(c)).collect();
        let host = self.host.as_ref().map_or("null".to_string(), |h| {
            format!(
                "{{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \
                 \"commit\": {}, \"workers\": {}, \"server_threads\": {}, \
                 \"oversubscribed\": {}, \"shared_cpu\": {}, \"kept_awake\": {}, \
                 \"state_dir_fs\": {}, \
                 \"network\": \"loopback\"}}",
                h.host.nproc,
                quoted(&h.host.cpu_model),
                quoted(&h.host.kernel),
                quoted(&h.host.rustc),
                quoted(&h.host.commit),
                h.workers,
                h.server_threads,
                h.server_threads as usize > h.host.nproc,
                h.cpu.map_or("null".to_string(), |c| c.to_string()),
                h.kept_awake,
                quoted(&h.host.state_dir_fs),
            )
        });
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \
             \"failed\": {},\n  \"host\": {},\n  \"end_to_end\": {},\n  \"quiet_slices\": [{}],\n  \"slices\": {{\n{}\n  }},\n  \
             \"per_layer\": {},\n  \"p99_samples\": {},\n  \"ledger_ns\": {{\n{}\n  }},\n  \
             \"ledger_residual_ns\": {},\n  \"traced_p50_ns\": {},\n  \"clamped\": [{}]\n}}\n",
            quoted(self.workload),
            self.seed,
            self.failed == 0,
            self.attempted,
            self.failed,
            host,
            metric_map(&self.end_to_end),
            self.quiet_slices.iter().map(usize::to_string).collect::<Vec<_>>().join(", "),
            slices.join(",\n"),
            metric_map(&self.per_layer),
            self.p99_samples,
            ledger.join(",\n"),
            num(self.ledger_residual_ns),
            num(self.traced_p50_ns),
            clamped.join(", "),
        )
    }
}

/// Writes the in-memory spans out, once, when the benchmark ends.
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [", quoted(workload))?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request_id\": {}, \"name\": {}, \"start_ns\": {}, \
             \"end_ns\": {}}}{comma}",
            s.id,
            s.parent,
            s.request_id,
            quoted(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut r = Report::new("invoke_serial", 3);
        r.attempted = 10;
        r.end_to_end = vec![Metric::new("latency_p50_us", 41.25, "us")];
        r.per_layer = vec![Metric::new("dpl.vm.invoke_ns", 310.0, "ns")];
        r
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_chosen_family() {
        let line = report().contract_line((true, false)).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 41.25, \"unit\": \"us\"}}}"
        );
        let line = report().contract_line((false, true)).unwrap();
        assert!(line.contains("dpl.vm.invoke_ns") && !line.contains("latency_p50_us"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = report();
        r.failed = 1;
        assert!(r.contract_line((true, true)).unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_metric_that_is_not_a_number_is_refused_not_zeroed() {
        let mut r = report();
        r.end_to_end[0].value = f64::NAN;
        assert!(r.contract_line((true, false)).is_err());
        assert!(r.to_json().contains("\"value\": null"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

//! Table/CSV rendering behind every `emlio figures` row.

use crate::experiment::ExperimentRow;
use crate::paper;

/// Render rows as an aligned text table with paper-vs-ours columns.
pub fn render_table(title: &str, rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<10} {:>9} {:>10} {:>10} {:>7}  {:>10} {:>9} {:>10}  {:>10} {:>9}\n",
        "regime",
        "method",
        "T(s) ours",
        "T(s) papr",
        "ratio",
        "CPU(kJ)",
        "DRAM(kJ)",
        "GPU(kJ)",
        "CPUp(kJ)",
        "GPUp(kJ)",
    ));
    for r in rows {
        let p = paper::reference(&r.figure, &r.regime, &r.method);
        let paper_t = p.and_then(|p| p.duration_secs);
        let ratio = paper_t.map(|pt| r.duration_secs / pt);
        out.push_str(&format!(
            "{:<10} {:>9} {:>10.1} {:>10} {:>7}  {:>10.2} {:>9.2} {:>10.2}  {:>10} {:>9}\n",
            r.regime,
            truncate(&r.method, 9),
            r.duration_secs,
            paper_t.map_or("-".into(), |t| format!("{t:.1}")),
            ratio.map_or("-".into(), |x| format!("{x:.2}x")),
            r.compute.cpu_j / 1e3,
            r.compute.dram_j / 1e3,
            r.compute.gpu_j / 1e3,
            p.and_then(|p| p.cpu_j)
                .map_or("-".into(), |v| format!("{:.2}", v / 1e3)),
            p.and_then(|p| p.gpu_j)
                .map_or("-".into(), |v| format!("{:.2}", v / 1e3)),
        ));
    }
    out
}

/// CSV with full precision (for plotting).
pub fn to_csv(rows: &[ExperimentRow]) -> String {
    let mut out = String::from(
        "figure,workload,regime,method,duration_secs,cpu_j,dram_j,gpu_j,total_j,\
         storage_cpu_j,storage_dram_j,paper_duration_secs\n",
    );
    for r in rows {
        let p = paper::reference(&r.figure, &r.regime, &r.method);
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{}\n",
            r.figure,
            r.workload,
            r.regime,
            r.method,
            r.duration_secs,
            r.compute.cpu_j,
            r.compute.dram_j,
            r.compute.gpu_j,
            r.total_j(),
            r.storage.cpu_j,
            r.storage.dram_j,
            p.and_then(|p| p.duration_secs)
                .map_or(String::new(), |t| format!("{t:.1}")),
        ));
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s[..n].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_energymon::EnergyBreakdown;

    fn row() -> ExperimentRow {
        ExperimentRow {
            figure: "fig5".into(),
            workload: "imagenet/resnet50".into(),
            regime: "30ms".into(),
            method: "pytorch".into(),
            duration_secs: 4000.0,
            compute: EnergyBreakdown {
                cpu_j: 200_000.0,
                dram_j: 20_000.0,
                gpu_j: 120_000.0,
                duration_secs: 4000.0,
            },
            storage: EnergyBreakdown::default(),
        }
    }

    #[test]
    fn table_includes_paper_reference() {
        let t = render_table("Figure 5", &[row()]);
        assert!(t.contains("4232.4"), "paper duration shown:\n{t}");
        assert!(t.contains("0.95x"), "ratio shown:\n{t}");
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&[row()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[1].contains("pytorch"));
    }
}

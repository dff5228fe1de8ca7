//! The Accumulator: merge per-component sample streams by `t_k` and
//! interpolate missed intervals (Algorithm 1, line 14: "merge CPU/DRAM+GPU
//! by t_k, interpolate holes, forward tuples").
//!
//! [`StreamMerger`] is pure (no threads, no clocks): samplers push
//! `(component, t, fields)` tuples; `drain_ready` returns gapless merged rows
//! in grid order. The monitor wraps it in a thread.

use std::collections::BTreeMap;

/// One merged, gapless output row at a grid instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRow {
    /// Timestamp (nanoseconds) of the grid instant `t_k`.
    pub t_nanos: u64,
    /// Field name → value. Interpolated fields are included transparently.
    pub fields: Vec<(String, f64)>,
    /// True if any field in this row was interpolated rather than sampled.
    pub interpolated: bool,
}

#[derive(Debug, Default)]
struct ComponentBuf {
    /// grid index → sampled fields.
    samples: BTreeMap<u64, Vec<(String, f64)>>,
    /// Highest grid index seen.
    max_grid: Option<u64>,
}

impl ComponentBuf {
    /// Value set at grid `g`: direct sample, or linear interpolation between
    /// the nearest samples on each side. `None` if `g` is not yet bracketed.
    fn at(&self, g: u64) -> Option<(Vec<(String, f64)>, bool)> {
        if let Some(fields) = self.samples.get(&g) {
            return Some((fields.clone(), false));
        }
        let before = self.samples.range(..g).next_back()?;
        let after = self.samples.range(g + 1..).next()?;
        let (g0, f0) = (*before.0, before.1);
        let (g1, f1) = (*after.0, after.1);
        let alpha = (g - g0) as f64 / (g1 - g0) as f64;
        let mut fields = Vec::with_capacity(f0.len());
        for (name, v0) in f0 {
            let v1 = f1
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(*v0);
            fields.push((name.clone(), v0 + alpha * (v1 - v0)));
        }
        Some((fields, true))
    }
}

/// Merges `n` component streams sampled on a common δ grid.
#[derive(Debug)]
pub struct StreamMerger {
    interval_nanos: u64,
    components: Vec<ComponentBuf>,
    next_grid: u64,
    rows_emitted: u64,
    rows_interpolated: u64,
}

impl StreamMerger {
    /// Merger for `n_components` streams with sampling interval δ.
    pub fn new(n_components: usize, interval_nanos: u64) -> StreamMerger {
        assert!(n_components > 0, "need at least one component");
        assert!(interval_nanos > 0, "interval must be positive");
        StreamMerger {
            interval_nanos,
            components: (0..n_components).map(|_| ComponentBuf::default()).collect(),
            next_grid: 0,
            rows_emitted: 0,
            rows_interpolated: 0,
        }
    }

    /// Snap a timestamp to the nearest grid index.
    pub fn grid_of(&self, t_nanos: u64) -> u64 {
        (t_nanos + self.interval_nanos / 2) / self.interval_nanos
    }

    /// Push a sample from `component` taken at `t_nanos`.
    pub fn push(&mut self, component: usize, t_nanos: u64, fields: Vec<(String, f64)>) {
        let g = self.grid_of(t_nanos);
        let buf = &mut self.components[component];
        buf.samples.insert(g, fields);
        buf.max_grid = Some(buf.max_grid.map_or(g, |m| m.max(g)));
    }

    /// Seed the grid origin: rows before the first push of any component are
    /// never emitted. Called implicitly by the first `drain_ready`.
    fn origin(&self) -> Option<u64> {
        self.components
            .iter()
            .map(|c| c.samples.keys().next().copied())
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Emit every grid row that all components can supply (sampled or safely
    /// interpolated, i.e. bracketed by samples).
    pub fn drain_ready(&mut self) -> Vec<MergedRow> {
        let Some(origin) = self.origin() else {
            return Vec::new();
        };
        if self.next_grid < origin {
            self.next_grid = origin;
        }
        // A row g is safe once every component has data at some grid ≥ g.
        let safe_until = self
            .components
            .iter()
            .filter_map(|c| c.max_grid)
            .min()
            .unwrap_or(0);
        let mut out = Vec::new();
        while self.next_grid <= safe_until {
            let g = self.next_grid;
            let mut fields = Vec::new();
            let mut interpolated = false;
            let mut ok = true;
            for c in &self.components {
                match c.at(g) {
                    Some((f, interp)) => {
                        interpolated |= interp;
                        fields.extend(f);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                break;
            }
            out.push(MergedRow {
                t_nanos: g * self.interval_nanos,
                fields,
                interpolated,
            });
            self.rows_emitted += 1;
            if out.last().unwrap().interpolated {
                self.rows_interpolated += 1;
            }
            self.next_grid += 1;
            self.gc(g);
        }
        out
    }

    /// Flush remaining rows at shutdown, carrying each component's last
    /// sample forward for unbracketed grid points.
    pub fn finish(mut self) -> Vec<MergedRow> {
        let mut out = self.drain_ready();
        let Some(origin) = self.origin() else {
            return out;
        };
        let last_grid = self
            .components
            .iter()
            .filter_map(|c| c.max_grid)
            .max()
            .unwrap_or(0);
        let mut g = self.next_grid.max(origin);
        while g <= last_grid {
            let mut fields = Vec::new();
            let mut interpolated = false;
            for c in &self.components {
                if let Some((f, interp)) = c.at(g) {
                    interpolated |= interp;
                    fields.extend(f);
                } else if let Some((_, f)) = c.samples.range(..=g).next_back() {
                    interpolated = true;
                    fields.extend(f.clone());
                }
            }
            if !fields.is_empty() {
                out.push(MergedRow {
                    t_nanos: g * self.interval_nanos,
                    fields,
                    interpolated,
                });
            }
            g += 1;
        }
        out
    }

    /// Drop samples older than the emitted frontier (keep one for
    /// interpolation anchoring).
    fn gc(&mut self, emitted: u64) {
        for c in &mut self.components {
            while let Some((&g, _)) = c.samples.iter().next() {
                let keep_from = emitted.saturating_sub(1);
                if g < keep_from && c.samples.range(g + 1..=emitted).next().is_some() {
                    c.samples.remove(&g);
                } else {
                    break;
                }
            }
        }
    }

    /// (emitted, interpolated) row counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.rows_emitted, self.rows_interpolated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: u64 = 100; // interval for tests

    fn f(name: &str, v: f64) -> Vec<(String, f64)> {
        vec![(name.to_string(), v)]
    }

    #[test]
    fn lockstep_streams_merge() {
        let mut m = StreamMerger::new(2, D);
        for k in 0..5u64 {
            m.push(0, k * D, f("cpu", k as f64));
            m.push(1, k * D, f("gpu", 10.0 + k as f64));
        }
        let rows = m.drain_ready();
        assert_eq!(rows.len(), 5);
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(row.t_nanos, k as u64 * D);
            assert!(!row.interpolated);
            assert_eq!(row.fields.len(), 2);
            assert_eq!(row.fields[0], ("cpu".to_string(), k as f64));
            assert_eq!(row.fields[1], ("gpu".to_string(), 10.0 + k as f64));
        }
    }

    #[test]
    fn missed_interval_interpolated() {
        let mut m = StreamMerger::new(2, D);
        // Component 0 misses t=200 (k=2).
        for k in [0u64, 1, 3, 4] {
            m.push(0, k * D, f("cpu", k as f64 * 2.0));
        }
        for k in 0..5u64 {
            m.push(1, k * D, f("gpu", 1.0));
        }
        let rows = m.drain_ready();
        assert_eq!(rows.len(), 5);
        let row2 = &rows[2];
        assert!(row2.interpolated);
        // Linear between 2.0 (k=1) and 6.0 (k=3) → 4.0.
        assert_eq!(row2.fields[0], ("cpu".to_string(), 4.0));
        let (emitted, interp) = m.stats();
        assert_eq!(emitted, 5);
        assert_eq!(interp, 1);
    }

    #[test]
    fn multi_gap_interpolation() {
        let mut m = StreamMerger::new(1, D);
        m.push(0, 0, f("x", 0.0));
        m.push(0, 4 * D, f("x", 8.0));
        let rows = m.drain_ready();
        assert_eq!(rows.len(), 5);
        let vals: Vec<f64> = rows.iter().map(|r| r.fields[0].1).collect();
        assert_eq!(vals, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn rows_held_until_safe() {
        let mut m = StreamMerger::new(2, D);
        m.push(0, 0, f("cpu", 1.0));
        m.push(0, D, f("cpu", 2.0));
        // GPU stream hasn't reported yet: nothing is safe.
        assert!(m.drain_ready().is_empty());
        m.push(1, 0, f("gpu", 5.0));
        let rows = m.drain_ready();
        assert_eq!(rows.len(), 1, "only t=0 is bracketed for gpu");
        m.push(1, D, f("gpu", 6.0));
        assert_eq!(m.drain_ready().len(), 1);
    }

    #[test]
    fn jittered_timestamps_snap_to_grid() {
        let mut m = StreamMerger::new(1, D);
        m.push(0, 3, f("x", 1.0)); // ~grid 0
        m.push(0, D + 48, f("x", 2.0)); // ~grid 1
        m.push(0, 2 * D - 40, f("x", 3.0)); // ~grid 2
        let rows = m.drain_ready();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].t_nanos, D);
    }

    #[test]
    fn finish_carries_last_forward() {
        let mut m = StreamMerger::new(2, D);
        m.push(0, 0, f("cpu", 1.0));
        m.push(0, D, f("cpu", 2.0));
        m.push(0, 2 * D, f("cpu", 3.0));
        m.push(1, 0, f("gpu", 9.0));
        let rows = m.finish();
        assert_eq!(rows.len(), 3);
        // GPU carried forward at k=1,2.
        assert!(rows[1].interpolated);
        assert_eq!(
            rows[1].fields.iter().find(|(n, _)| n == "gpu").unwrap().1,
            9.0
        );
    }

    #[test]
    fn late_start_components_align_on_common_origin() {
        let mut m = StreamMerger::new(2, D);
        m.push(0, 0, f("cpu", 1.0));
        m.push(0, D, f("cpu", 1.0));
        m.push(0, 2 * D, f("cpu", 1.0));
        // GPU sampler started late, at k=2.
        m.push(1, 2 * D, f("gpu", 5.0));
        let rows = m.drain_ready();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].t_nanos, 2 * D, "origin is the latest first-sample");
    }

    #[test]
    fn long_run_gc_bounds_memory() {
        let mut m = StreamMerger::new(1, D);
        for k in 0..100_000u64 {
            m.push(0, k * D, f("x", 1.0));
            if k % 1000 == 999 {
                let _ = m.drain_ready();
            }
        }
        let _ = m.drain_ready();
        assert!(
            m.components[0].samples.len() < 16,
            "gc keeps the buffer bounded, have {}",
            m.components[0].samples.len()
        );
    }
}

//! [`StageRecorder`] — one [`LogHistogram`] per data-path [`Stage`].

use crate::hist::{HistSnapshot, LogHistogram};
use crate::stage::Stage;
use std::fmt;
use std::sync::Arc;

/// Per-stage latency histograms for one process-side of the data path
/// (one per daemon, one per receiver). Shared by `Arc` across every
/// thread that touches the path; recording is lock- and allocation-free.
pub struct StageRecorder {
    hists: [LogHistogram; Stage::COUNT],
}

impl Default for StageRecorder {
    fn default() -> Self {
        StageRecorder::new()
    }
}

impl StageRecorder {
    /// Fresh recorder with empty histograms.
    pub fn new() -> StageRecorder {
        StageRecorder {
            hists: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Fresh shared recorder.
    pub fn shared() -> Arc<StageRecorder> {
        Arc::new(StageRecorder::new())
    }

    /// Record `nanos` into `stage`'s histogram.
    #[inline]
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.hists[stage.index()].record(nanos);
    }

    /// The histogram behind `stage`.
    pub fn hist(&self, stage: Stage) -> &LogHistogram {
        &self.hists[stage.index()]
    }

    /// Point-in-time copy of every stage histogram.
    pub fn snapshot(&self) -> RecorderSnapshot {
        RecorderSnapshot {
            stages: Stage::ALL.map(|s| self.hists[s.index()].snapshot()),
        }
    }
}

impl fmt::Debug for StageRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("StageRecorder");
        for stage in Stage::ALL {
            let n = self.hists[stage.index()].count();
            if n > 0 {
                d.field(stage.name(), &n);
            }
        }
        d.finish_non_exhaustive()
    }
}

/// Plain-value copy of a [`StageRecorder`], indexed by [`Stage`].
#[derive(Debug, Clone)]
pub struct RecorderSnapshot {
    stages: [HistSnapshot; Stage::COUNT],
}

impl RecorderSnapshot {
    /// The snapshot for `stage`.
    pub fn stage(&self, stage: Stage) -> &HistSnapshot {
        &self.stages[stage.index()]
    }

    /// Every non-empty stage, in data-path order.
    pub fn non_empty(&self) -> impl Iterator<Item = (Stage, &HistSnapshot)> {
        Stage::ALL
            .into_iter()
            .map(|s| (s, self.stage(s)))
            .filter(|(_, h)| !h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_stage_independently() {
        let r = StageRecorder::new();
        r.record(Stage::StorageRead, 100);
        r.record(Stage::StorageRead, 200);
        r.record(Stage::Encode, 5);
        let s = r.snapshot();
        assert_eq!(s.stage(Stage::StorageRead).count, 2);
        assert_eq!(s.stage(Stage::Encode).count, 1);
        assert_eq!(s.stage(Stage::SocketSend).count, 0);
        let non_empty: Vec<Stage> = s.non_empty().map(|(st, _)| st).collect();
        assert_eq!(non_empty, vec![Stage::StorageRead, Stage::Encode]);
        let dbg = format!("{r:?}");
        assert!(dbg.contains("storage_read") && !dbg.contains("socket_send"));
    }
}

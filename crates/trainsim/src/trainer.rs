//! Training-loop driver: pipeline → training step → timestamps.

use crate::mlp::Mlp;
use emlio_pipeline::{Pipeline, ProcessedBatch};
use emlio_util::clock::SharedClock;

/// One iteration record.
#[derive(Debug, Clone, PartialEq)]
pub struct IterLog {
    /// Wall timestamp (clock nanos) when the step finished.
    pub t_nanos: u64,
    /// Epoch.
    pub epoch: u32,
    /// Samples in the batch.
    pub samples: usize,
    /// Loss if a real model was trained.
    pub loss: Option<f32>,
}

/// Full run log.
#[derive(Debug, Clone, Default)]
pub struct TrainLog {
    /// Per-iteration records in completion order.
    pub iters: Vec<IterLog>,
}

impl TrainLog {
    /// Final loss, if any.
    pub fn final_loss(&self) -> Option<f32> {
        self.iters.iter().rev().find_map(|i| i.loss)
    }
}

/// Drives a training loop over a preprocessing pipeline.
pub struct Trainer {
    clock: SharedClock,
    /// The model trained on the arriving tensors.
    mlp: Mlp,
}

impl Trainer {
    /// A trainer that really trains `mlp` (step time = actual compute).
    pub fn real(clock: SharedClock, mlp: Mlp) -> Trainer {
        Trainer { clock, mlp }
    }

    /// Consume the pipeline to exhaustion, stepping per batch.
    pub fn run(&mut self, pipeline: &Pipeline) -> TrainLog {
        let mut log = TrainLog::default();
        while let Some(batch) = pipeline.next_batch() {
            log.iters.push(self.step(&batch));
        }
        log
    }

    /// One training step.
    pub fn step(&mut self, batch: &ProcessedBatch) -> IterLog {
        let pairs: Vec<(&emlio_pipeline::Tensor, u32)> = batch
            .tensors
            .iter()
            .zip(batch.labels.iter().copied())
            .collect();
        let loss = if pairs.is_empty() {
            0.0
        } else {
            self.mlp.train_batch(&pairs)
        };
        IterLog {
            t_nanos: self.clock.now_nanos(),
            epoch: batch.epoch,
            samples: batch.tensors.len(),
            loss: Some(loss),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use emlio_datagen::DatasetSpec;
    use emlio_pipeline::{PipelineBuilder, RawBatch, RawSample, VecSource};
    use emlio_util::clock::RealClock;

    fn raw_batches(spec: &DatasetSpec, bs: usize) -> Vec<RawBatch> {
        let mut out = Vec::new();
        let mut id = 0;
        let mut bid = 0;
        while id < spec.num_samples {
            let samples = (0..bs)
                .filter_map(|_| {
                    if id < spec.num_samples {
                        let s = RawSample {
                            bytes: Bytes::from(spec.payload_of(id)),
                            label: spec.label_of(id),
                            sample_id: id,
                        };
                        id += 1;
                        Some(s)
                    } else {
                        None
                    }
                })
                .collect();
            out.push(RawBatch {
                epoch: 0,
                batch_id: bid,
                samples,
            });
            bid += 1;
        }
        out
    }

    #[test]
    fn real_trainer_reports_loss() {
        let spec = DatasetSpec::tiny("trn2", 12);
        let pipe = PipelineBuilder::new()
            .threads(2)
            .resize(16, 16)
            .build(Box::new(VecSource::new(raw_batches(&spec, 4))));
        let mlp = Mlp::new(48, 16, spec.num_classes as usize, 0.1, 3);
        let mut trainer = Trainer::real(RealClock::shared(), mlp);
        let log = trainer.run(&pipe);
        assert_eq!(log.iters.len(), 3);
        assert!(log.final_loss().unwrap() > 0.0);
    }
}

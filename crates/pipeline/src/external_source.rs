//! The `external_source` feed — DALI's hook for caller-provided data, which
//! is exactly where the EMLIO receiver plugs in (Algorithm 3, line 3).

use crate::RawBatch;

/// A producer of raw batches. Returning `None` ends the epoch/stream.
pub trait ExternalSource: Send {
    /// Fetch the next raw batch, blocking if necessary.
    fn next_batch(&mut self) -> Option<RawBatch>;
}

/// Source backed by a vector (tests, small examples).
pub struct VecSource {
    batches: std::vec::IntoIter<RawBatch>,
}

impl VecSource {
    /// Serve the given batches in order, then end.
    pub fn new(batches: Vec<RawBatch>) -> VecSource {
        VecSource {
            batches: batches.into_iter(),
        }
    }
}

impl ExternalSource for VecSource {
    fn next_batch(&mut self) -> Option<RawBatch> {
        self.batches.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawSample;
    use bytes::Bytes;

    fn batch(id: u64) -> RawBatch {
        RawBatch {
            epoch: 0,
            batch_id: id,
            samples: vec![RawSample {
                bytes: Bytes::from_static(b"x"),
                label: 0,
                sample_id: id,
            }],
        }
    }

    #[test]
    fn vec_source_serves_in_order() {
        let mut src = VecSource::new(vec![batch(0), batch(1)]);
        assert_eq!(src.next_batch().unwrap().batch_id, 0);
        assert_eq!(src.next_batch().unwrap().batch_id, 1);
        assert!(src.next_batch().is_none());
    }
}

//! A real multilayer perceptron with manual backpropagation.
//!
//! The examples train this on the actual data path: tensors arrive from the
//! preprocessing pipeline, features are mean-pooled, and the MLP learns with
//! softmax cross-entropy + SGD. It is intentionally small — the point is an
//! end-to-end *learning* loop over EMLIO-delivered data, not ImageNet
//! accuracy.

use emlio_pipeline::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A 1-hidden-layer MLP classifier.
pub struct Mlp {
    in_dim: usize,
    hidden: usize,
    classes: usize,
    w1: Vec<f32>, // hidden × in
    b1: Vec<f32>,
    w2: Vec<f32>, // classes × hidden
    b2: Vec<f32>,
    lr: f32,
}

impl Mlp {
    /// New model with small random weights.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, lr: f32, seed: u64) -> Mlp {
        assert!(in_dim > 0 && hidden > 0 && classes > 1, "bad dimensions");
        let mut rng = StdRng::seed_from_u64(seed);
        let scale1 = (2.0 / in_dim as f32).sqrt();
        let scale2 = (2.0 / hidden as f32).sqrt();
        Mlp {
            in_dim,
            hidden,
            classes,
            w1: (0..hidden * in_dim)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale1)
                .collect(),
            b1: vec![0.0; hidden],
            w2: (0..classes * hidden)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale2)
                .collect(),
            b2: vec![0.0; classes],
            lr,
        }
    }

    /// Pool a CHW tensor into an `in_dim`-length feature vector: per-channel
    /// grid mean pooling (grid size chosen from `in_dim / channels`).
    pub fn features(&self, t: &Tensor) -> Vec<f32> {
        let per_chan = (self.in_dim / t.channels).max(1);
        let grid = (per_chan as f64).sqrt().floor() as usize;
        let grid = grid.max(1);
        let mut out = vec![0.0f32; self.in_dim];
        let cell_h = (t.height / grid).max(1);
        let cell_w = (t.width / grid).max(1);
        for c in 0..t.channels {
            for gy in 0..grid {
                for gx in 0..grid {
                    let mut acc = 0.0f32;
                    let mut n = 0u32;
                    for y in gy * cell_h..((gy + 1) * cell_h).min(t.height) {
                        for x in gx * cell_w..((gx + 1) * cell_w).min(t.width) {
                            acc += t.at(c, y, x);
                            n += 1;
                        }
                    }
                    let idx = c * per_chan + gy * grid + gx;
                    if idx < out.len() && n > 0 {
                        out[idx] = acc / n as f32;
                    }
                }
            }
        }
        out
    }

    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut h = vec![0.0f32; self.hidden];
        for (j, hj) in h.iter_mut().enumerate() {
            let mut acc = self.b1[j];
            let row = &self.w1[j * self.in_dim..(j + 1) * self.in_dim];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *hj = acc.max(0.0); // ReLU
        }
        let mut logits = vec![0.0f32; self.classes];
        for (k, logit) in logits.iter_mut().enumerate() {
            let mut acc = self.b2[k];
            let row = &self.w2[k * self.hidden..(k + 1) * self.hidden];
            for (w, hj) in row.iter().zip(&h) {
                acc += w * hj;
            }
            *logit = acc;
        }
        (h, logits)
    }

    fn softmax(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter().map(|&e| e / sum.max(1e-12)).collect()
    }

    /// One SGD step over a batch of `(tensor, label)` pairs. Returns the
    /// mean cross-entropy loss.
    pub fn train_batch(&mut self, batch: &[(&Tensor, u32)]) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let n = batch.len() as f32;
        let mut loss = 0.0f32;
        let mut gw1 = vec![0.0f32; self.w1.len()];
        let mut gb1 = vec![0.0f32; self.b1.len()];
        let mut gw2 = vec![0.0f32; self.w2.len()];
        let mut gb2 = vec![0.0f32; self.b2.len()];
        for (t, label) in batch {
            let label = (*label as usize) % self.classes;
            let x = self.features(t);
            let (h, logits) = self.forward(&x);
            let probs = Self::softmax(&logits);
            loss += -probs[label].max(1e-12).ln();
            // dL/dlogits = probs - onehot
            let mut dlogits = probs;
            dlogits[label] -= 1.0;
            // Layer 2 grads.
            for (k, &dl) in dlogits.iter().enumerate() {
                gb2[k] += dl;
                let row = &mut gw2[k * self.hidden..(k + 1) * self.hidden];
                for (g, hj) in row.iter_mut().zip(&h) {
                    *g += dl * hj;
                }
            }
            // Backprop into hidden (ReLU mask).
            for (j, &hj) in h.iter().enumerate() {
                if hj <= 0.0 {
                    continue;
                }
                let mut dh = 0.0f32;
                for (k, &dl) in dlogits.iter().enumerate() {
                    dh += dl * self.w2[k * self.hidden + j];
                }
                gb1[j] += dh;
                let row = &mut gw1[j * self.in_dim..(j + 1) * self.in_dim];
                for (g, xi) in row.iter_mut().zip(&x) {
                    *g += dh * xi;
                }
            }
        }
        let scale = self.lr / n;
        for (w, g) in self.w1.iter_mut().zip(&gw1) {
            *w -= scale * g;
        }
        for (b, g) in self.b1.iter_mut().zip(&gb1) {
            *b -= scale * g;
        }
        for (w, g) in self.w2.iter_mut().zip(&gw2) {
            *w -= scale * g;
        }
        for (b, g) in self.b2.iter_mut().zip(&gb2) {
            *b -= scale * g;
        }
        loss / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a trivially separable tensor: class k has constant value k/10.
    fn tensor_for(class: u32) -> Tensor {
        Tensor {
            channels: 1,
            height: 8,
            width: 8,
            data: vec![class as f32 / 10.0; 64],
        }
    }

    #[test]
    fn learns_separable_toy_problem() {
        let mut mlp = Mlp::new(16, 32, 4, 0.5, 42);
        let tensors: Vec<Tensor> = (0..4).map(tensor_for).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..300 {
            let batch: Vec<(&Tensor, u32)> = tensors
                .iter()
                .enumerate()
                .map(|(i, t)| (t, i as u32))
                .collect();
            let loss = mlp.train_batch(&batch);
            if it == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(
            last < first * 0.5,
            "loss should at least halve: {first} → {last}"
        );
        for (i, t) in tensors.iter().enumerate() {
            let (_, logits) = mlp.forward(&mlp.features(t));
            let class = (0..logits.len()).max_by(|&a, &b| logits[a].total_cmp(&logits[b]));
            assert_eq!(class, Some(i), "memorizes separable classes");
        }
    }

    #[test]
    fn features_have_requested_dim() {
        let mlp = Mlp::new(48, 8, 3, 0.1, 1);
        let t = Tensor {
            channels: 3,
            height: 16,
            width: 16,
            data: vec![0.5; 3 * 256],
        };
        let f = mlp.features(&t);
        assert_eq!(f.len(), 48);
        // Constant image → constant (nonzero) pooled features.
        assert!(f.iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    #[should_panic]
    fn empty_batch_panics() {
        let mut mlp = Mlp::new(4, 4, 2, 0.1, 1);
        let _ = mlp.train_batch(&[]);
    }
}

//! A from-scratch convolutional neural network.
//!
//! Appendix C: "It includes two Convolutional Neural Networks, each
//! followed by a max-pooling layer. The output of these layers is fed to
//! a fully-connected dense layer … Finally, we have another
//! fully-connected layer with two units, which outputs the probability
//! that a particular image is a screenshot … we apply Dropout with
//! d = 0.5."
//!
//! The original is ~20 lines of Keras; no deep-learning framework is
//! available here, so this module implements the same architecture
//! directly: conv → ReLU → maxpool → conv → ReLU → maxpool → dense →
//! ReLU → dropout → dense → softmax, trained with Adam on cross-entropy.
//! Input resolution is 32×32 grayscale (the substrate's native size)
//! with proportionally narrower dense layers.

use crate::error::AnnotateError;
use meme_imaging::image::Image;
use meme_imaging::resize::resize_box;
use meme_stats::{seeded_rng, WsRng};
use rand::seq::SliceRandom;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Side length of the network input.
pub const INPUT_SIZE: usize = 32;

const C1: usize = 8; // conv1 output channels
const C2: usize = 16; // conv2 output channels
const K: usize = 3; // kernel size
const H1: usize = INPUT_SIZE - K + 1; // 30
const P1: usize = H1 / 2; // 15
const H2: usize = P1 - K + 1; // 13
const P2: usize = H2 / 2; // 6
const FLAT: usize = C2 * P2 * P2; // 576
const HIDDEN: usize = 64;
const CLASSES: usize = 2;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Dropout keep probability complement (0.5 in the paper).
    pub dropout: f32,
    /// RNG seed for init, shuffling and dropout masks.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 32,
            learning_rate: 1e-3,
            dropout: 0.5,
            seed: 0xC1A55,
        }
    }
}

/// A learnable parameter tensor with Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Param {
    w: Vec<f32>,
    grad: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    fn zeros(n: usize) -> Self {
        Self {
            w: vec![0.0; n],
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn he_init(n: usize, fan_in: usize, rng: &mut WsRng) -> Self {
        let scale = (2.0 / fan_in as f32).sqrt();
        let mut p = Self::zeros(n);
        for w in &mut p.w {
            *w = meme_stats::dist::normal_sample(rng) as f32 * scale;
        }
        p
    }

    fn adam_step(&mut self, lr: f32, t: usize, batch: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.w.len() {
            let g = self.grad[i] / batch;
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            self.w[i] -= lr * mhat / (vhat.sqrt() + EPS);
            self.grad[i] = 0.0;
        }
    }
}

/// Per-sample activation cache for backprop.
struct Cache {
    input: Vec<f32>,
    conv1_out: Vec<f32>, // post-ReLU, C1 x H1 x H1
    pool1_out: Vec<f32>, // C1 x P1 x P1
    pool1_arg: Vec<usize>,
    conv2_out: Vec<f32>, // post-ReLU, C2 x H2 x H2
    pool2_out: Vec<f32>, // C2 x P2 x P2
    pool2_arg: Vec<usize>,
    fc1_out: Vec<f32>, // post-ReLU + dropout, HIDDEN
    drop_mask: Vec<f32>,
    probs: Vec<f32>, // CLASSES
}

/// The Appendix-C screenshot classifier network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cnn {
    conv1_w: Param, // C1 x 1 x K x K
    conv1_b: Param,
    conv2_w: Param, // C2 x C1 x K x K
    conv2_b: Param,
    fc1_w: Param, // HIDDEN x FLAT
    fc1_b: Param,
    fc2_w: Param, // CLASSES x HIDDEN
    fc2_b: Param,
    steps: usize,
}

impl Cnn {
    /// He-initialized network from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        Self {
            conv1_w: Param::he_init(C1 * K * K, K * K, &mut rng),
            conv1_b: Param::zeros(C1),
            conv2_w: Param::he_init(C2 * C1 * K * K, C1 * K * K, &mut rng),
            conv2_b: Param::zeros(C2),
            fc1_w: Param::he_init(HIDDEN * FLAT, FLAT, &mut rng),
            fc1_b: Param::zeros(HIDDEN),
            fc2_w: Param::he_init(CLASSES * HIDDEN, HIDDEN, &mut rng),
            fc2_b: Param::zeros(CLASSES),
            steps: 0,
        }
    }

    /// Convert an image to a normalized input vector (resizing to 32×32
    /// and centering around zero).
    pub fn prepare(img: &Image) -> Vec<f32> {
        let small = if img.width() == INPUT_SIZE && img.height() == INPUT_SIZE {
            img.clone()
        } else {
            resize_box(img, INPUT_SIZE, INPUT_SIZE)
        };
        small.data().iter().map(|p| p - 0.5).collect()
    }

    fn forward(&self, input: &[f32], drop_mask: Option<&[f32]>) -> Cache {
        // conv1 + ReLU.
        let mut conv1_out = vec![0.0f32; C1 * H1 * H1];
        for oc in 0..C1 {
            let wbase = oc * K * K;
            for y in 0..H1 {
                for x in 0..H1 {
                    let mut acc = self.conv1_b.w[oc];
                    for ky in 0..K {
                        let row = (y + ky) * INPUT_SIZE + x;
                        for kx in 0..K {
                            acc += self.conv1_w.w[wbase + ky * K + kx] * input[row + kx];
                        }
                    }
                    conv1_out[oc * H1 * H1 + y * H1 + x] = acc.max(0.0);
                }
            }
        }
        // pool1.
        let (pool1_out, pool1_arg) = maxpool(&conv1_out, C1, H1);
        // conv2 + ReLU.
        let mut conv2_out = vec![0.0f32; C2 * H2 * H2];
        for oc in 0..C2 {
            for y in 0..H2 {
                for x in 0..H2 {
                    let mut acc = self.conv2_b.w[oc];
                    for ic in 0..C1 {
                        let wbase = (oc * C1 + ic) * K * K;
                        let ibase = ic * P1 * P1;
                        for ky in 0..K {
                            let row = ibase + (y + ky) * P1 + x;
                            for kx in 0..K {
                                acc += self.conv2_w.w[wbase + ky * K + kx] * pool1_out[row + kx];
                            }
                        }
                    }
                    conv2_out[oc * H2 * H2 + y * H2 + x] = acc.max(0.0);
                }
            }
        }
        // pool2.
        let (pool2_out, pool2_arg) = maxpool(&conv2_out, C2, H2);
        // fc1 + ReLU + dropout.
        let mut fc1_out = vec![0.0f32; HIDDEN];
        for h in 0..HIDDEN {
            let mut acc = self.fc1_b.w[h];
            let wbase = h * FLAT;
            for i in 0..FLAT {
                acc += self.fc1_w.w[wbase + i] * pool2_out[i];
            }
            fc1_out[h] = acc.max(0.0);
        }
        let mask: Vec<f32> = match drop_mask {
            Some(m) => m.to_vec(),
            None => vec![1.0; HIDDEN],
        };
        for h in 0..HIDDEN {
            fc1_out[h] *= mask[h];
        }
        // fc2 + softmax.
        let mut logits = [0.0f32; CLASSES];
        for c in 0..CLASSES {
            let mut acc = self.fc2_b.w[c];
            let wbase = c * HIDDEN;
            for h in 0..HIDDEN {
                acc += self.fc2_w.w[wbase + h] * fc1_out[h];
            }
            logits[c] = acc;
        }
        let max = logits.iter().cloned().fold(f32::MIN, f32::max);
        let mut probs: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
        let total: f32 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        Cache {
            input: input.to_vec(),
            conv1_out,
            pool1_out,
            pool1_arg,
            conv2_out,
            pool2_out,
            pool2_arg,
            fc1_out,
            drop_mask: mask,
            probs,
        }
    }

    /// Accumulate gradients for one sample with true class `label`.
    fn backward(&mut self, cache: &Cache, label: usize) {
        // dL/dlogits for softmax + CE.
        let mut dlogits = cache.probs.clone();
        dlogits[label] -= 1.0;
        // fc2 grads and dL/dfc1.
        let mut dfc1 = vec![0.0f32; HIDDEN];
        for c in 0..CLASSES {
            let wbase = c * HIDDEN;
            self.fc2_b.grad[c] += dlogits[c];
            for h in 0..HIDDEN {
                self.fc2_w.grad[wbase + h] += dlogits[c] * cache.fc1_out[h];
                dfc1[h] += dlogits[c] * self.fc2_w.w[wbase + h];
            }
        }
        // Through dropout and ReLU.
        for h in 0..HIDDEN {
            dfc1[h] *= cache.drop_mask[h];
            if cache.fc1_out[h] <= 0.0 {
                dfc1[h] = 0.0;
            }
        }
        // fc1 grads and dL/dpool2.
        let mut dpool2 = vec![0.0f32; FLAT];
        for h in 0..HIDDEN {
            if dfc1[h] == 0.0 {
                continue;
            }
            let wbase = h * FLAT;
            self.fc1_b.grad[h] += dfc1[h];
            for i in 0..FLAT {
                self.fc1_w.grad[wbase + i] += dfc1[h] * cache.pool2_out[i];
                dpool2[i] += dfc1[h] * self.fc1_w.w[wbase + i];
            }
        }
        // Unpool2 (route gradient to argmax) + ReLU mask of conv2.
        let mut dconv2 = vec![0.0f32; C2 * H2 * H2];
        for (i, &arg) in cache.pool2_arg.iter().enumerate() {
            if cache.conv2_out[arg] > 0.0 {
                dconv2[arg] += dpool2[i];
            }
        }
        // conv2 grads and dL/dpool1.
        let mut dpool1 = vec![0.0f32; C1 * P1 * P1];
        for oc in 0..C2 {
            for y in 0..H2 {
                for x in 0..H2 {
                    let g = dconv2[oc * H2 * H2 + y * H2 + x];
                    if g == 0.0 {
                        continue;
                    }
                    self.conv2_b.grad[oc] += g;
                    for ic in 0..C1 {
                        let wbase = (oc * C1 + ic) * K * K;
                        let ibase = ic * P1 * P1;
                        for ky in 0..K {
                            let row = ibase + (y + ky) * P1 + x;
                            for kx in 0..K {
                                self.conv2_w.grad[wbase + ky * K + kx] +=
                                    g * cache.pool1_out[row + kx];
                                dpool1[row + kx] += g * self.conv2_w.w[wbase + ky * K + kx];
                            }
                        }
                    }
                }
            }
        }
        // Unpool1 + ReLU mask of conv1.
        let mut dconv1 = vec![0.0f32; C1 * H1 * H1];
        for (i, &arg) in cache.pool1_arg.iter().enumerate() {
            if cache.conv1_out[arg] > 0.0 {
                dconv1[arg] += dpool1[i];
            }
        }
        // conv1 grads.
        for oc in 0..C1 {
            let wbase = oc * K * K;
            for y in 0..H1 {
                for x in 0..H1 {
                    let g = dconv1[oc * H1 * H1 + y * H1 + x];
                    if g == 0.0 {
                        continue;
                    }
                    self.conv1_b.grad[oc] += g;
                    for ky in 0..K {
                        let row = (y + ky) * INPUT_SIZE + x;
                        for kx in 0..K {
                            self.conv1_w.grad[wbase + ky * K + kx] += g * cache.input[row + kx];
                        }
                    }
                }
            }
        }
    }

    fn step(&mut self, lr: f32, batch: f32) {
        self.steps += 1;
        let t = self.steps;
        self.conv1_w.adam_step(lr, t, batch);
        self.conv1_b.adam_step(lr, t, batch);
        self.conv2_w.adam_step(lr, t, batch);
        self.conv2_b.adam_step(lr, t, batch);
        self.fc1_w.adam_step(lr, t, batch);
        self.fc1_b.adam_step(lr, t, batch);
        self.fc2_w.adam_step(lr, t, batch);
        self.fc2_b.adam_step(lr, t, batch);
    }

    /// Train on `(input, label)` pairs (inputs from [`Cnn::prepare`],
    /// labels 0/1). Returns the mean training loss per epoch, or a typed
    /// error — before touching the network — for empty data, mismatched
    /// lengths, or out-of-range labels.
    pub fn train(
        &mut self,
        inputs: &[Vec<f32>],
        labels: &[usize],
        config: &TrainConfig,
    ) -> Result<Vec<f32>, AnnotateError> {
        if inputs.is_empty() {
            return Err(AnnotateError::EmptyCorpus);
        }
        if inputs.len() != labels.len() || labels.iter().any(|&l| l >= CLASSES) {
            return Err(AnnotateError::MalformedTrainingSet);
        }
        let mut rng = seeded_rng(config.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f32;
            for batch in order.chunks(config.batch_size.max(1)) {
                for &i in batch {
                    let mask: Vec<f32> = (0..HIDDEN)
                        .map(|_| {
                            if rng.random::<f32>() < config.dropout {
                                0.0
                            } else {
                                // Inverted dropout keeps inference scale.
                                1.0 / (1.0 - config.dropout)
                            }
                        })
                        .collect();
                    let cache = self.forward(&inputs[i], Some(&mask));
                    loss_sum += -(cache.probs[labels[i]].max(1e-12)).ln();
                    self.backward(&cache, labels[i]);
                }
                self.step(config.learning_rate, batch.len() as f32);
            }
            epoch_losses.push(loss_sum / inputs.len() as f32);
        }
        Ok(epoch_losses)
    }

    /// Probability that `input` belongs to class 1 (screenshot).
    pub fn predict_proba(&self, input: &[f32]) -> f32 {
        // lint:allow(panic-reachable): probs always has CLASSES = 2 softmax outputs
        self.forward(input, None).probs[1]
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, input: &[f32]) -> usize {
        usize::from(self.predict_proba(input) >= 0.5)
    }
}

/// 2×2 max-pooling with stride 2 over `ch` channels of `side × side`
/// maps; returns the pooled values and flat argmax indices.
fn maxpool(x: &[f32], ch: usize, side: usize) -> (Vec<f32>, Vec<usize>) {
    let out_side = side / 2;
    let mut out = vec![0.0f32; ch * out_side * out_side];
    let mut arg = vec![0usize; ch * out_side * out_side];
    for c in 0..ch {
        for y in 0..out_side {
            for x0 in 0..out_side {
                let mut best = f32::MIN;
                let mut best_i = 0usize;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let i = c * side * side + (2 * y + dy) * side + (2 * x0 + dx);
                        if x[i] > best {
                            best = x[i];
                            best_i = i;
                        }
                    }
                }
                let o = c * out_side * out_side + y * out_side + x0;
                out[o] = best;
                arg[o] = best_i;
            }
        }
    }
    (out, arg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable toy task: class 1 images are bright on top,
    /// class 0 bright on the bottom.
    fn toy_dataset(n_per_class: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for label in 0..2usize {
            for _ in 0..n_per_class {
                let mut img = Image::new(INPUT_SIZE, INPUT_SIZE);
                for y in 0..INPUT_SIZE {
                    for x in 0..INPUT_SIZE {
                        let bright = if label == 1 {
                            y < INPUT_SIZE / 2
                        } else {
                            y >= INPUT_SIZE / 2
                        };
                        let base = if bright { 0.8 } else { 0.2 };
                        img.set(x, y, base + 0.1 * (rng.random::<f32>() - 0.5));
                    }
                }
                inputs.push(Cnn::prepare(&img));
                labels.push(label);
            }
        }
        (inputs, labels)
    }

    #[test]
    fn forward_produces_probabilities() {
        let net = Cnn::new(1);
        let input = vec![0.0f32; INPUT_SIZE * INPUT_SIZE];
        let p = net.predict_proba(&input);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn training_reduces_loss() {
        let (inputs, labels) = toy_dataset(20, 2);
        let mut net = Cnn::new(3);
        let config = TrainConfig {
            epochs: 5,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let losses = net.train(&inputs, &labels, &config).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "losses {losses:?}"
        );
    }

    #[test]
    fn learns_separable_task() {
        let (inputs, labels) = toy_dataset(30, 4);
        let mut net = Cnn::new(5);
        let config = TrainConfig {
            epochs: 6,
            batch_size: 16,
            ..TrainConfig::default()
        };
        net.train(&inputs, &labels, &config).unwrap();
        let (test_in, test_lab) = toy_dataset(20, 99);
        let correct = test_in
            .iter()
            .zip(&test_lab)
            .filter(|(x, y)| net.predict(x) == **y)
            .count();
        let acc = correct as f64 / test_in.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn prepare_resizes_and_centers() {
        let img = Image::filled(64, 64, 1.0);
        let v = Cnn::prepare(&img);
        assert_eq!(v.len(), INPUT_SIZE * INPUT_SIZE);
        assert!(v.iter().all(|x| (x - 0.5).abs() < 1e-6));
    }

    #[test]
    fn maxpool_routes_argmax() {
        // One channel, 4x4 map with known maxima.
        let mut x = vec![0.0f32; 16];
        x[5] = 3.0; // block (0,0): positions 0,1,4,5
        x[2] = 2.0; // block (0,1): positions 2,3,6,7
        let (out, arg) = maxpool(&x, 1, 4);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 3.0);
        assert_eq!(arg[0], 5);
        assert_eq!(out[1], 2.0);
        assert_eq!(arg[1], 2);
    }

    #[test]
    fn unusable_training_sets_are_typed_errors() {
        let mut net = Cnn::new(0);
        let cfg = TrainConfig::default();
        let x = vec![0.0f32; INPUT_SIZE * INPUT_SIZE];
        assert_eq!(net.train(&[], &[], &cfg), Err(AnnotateError::EmptyCorpus));
        for labels in [&[][..], &[2][..]] {
            let err = net.train(std::slice::from_ref(&x), labels, &cfg);
            assert_eq!(err, Err(AnnotateError::MalformedTrainingSet));
        }
    }

    #[test]
    fn deterministic_training() {
        let (inputs, labels) = toy_dataset(10, 6);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let mut a = Cnn::new(7);
        let la = a.train(&inputs, &labels, &cfg).unwrap();
        let mut b = Cnn::new(7);
        let lb = b.train(&inputs, &labels, &cfg).unwrap();
        assert_eq!(la, lb);
        assert_eq!(a.predict_proba(&inputs[0]), b.predict_proba(&inputs[0]));
    }
}

//! Multi-layer perceptrons with ReLU activations, trained by
//! backpropagation with the Adam optimizer (Kingma & Ba), as the paper's
//! MLP adaptation models are (§5, §7).

use crate::dataset::Dataset;
use crate::linalg::{sigmoid, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// MLP topology and training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths ("filters per layer" in the paper's terms).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl MlpConfig {
    /// The paper's Best MLP topology: 3 layers of 8/8/4 filters (§6.3).
    pub fn best_mlp() -> MlpConfig {
        MlpConfig {
            hidden: vec![8, 8, 4],
            ..MlpConfig::default()
        }
    }

    /// The CHARSTAR baseline topology: 1 layer of 10 filters (§7).
    pub fn charstar() -> MlpConfig {
        MlpConfig {
            hidden: vec![10],
            ..MlpConfig::default()
        }
    }
}

impl Default for MlpConfig {
    fn default() -> MlpConfig {
        MlpConfig {
            hidden: vec![8, 8, 4],
            learning_rate: 3e-3,
            epochs: 30,
            batch_size: 64,
            weight_decay: 1e-5,
        }
    }
}

/// Samples the training forward pass runs in lockstep. Not a setting: the
/// kernel ([`Layer::affine_block`], [`quad_tile`], [`block_slices_mut`])
/// is fixed at 4 samples × 4 rows.
const BLOCK: usize = 4;

#[derive(Debug, Clone)]
struct Layer {
    /// `out × in` weights.
    w: Matrix,
    b: Vec<f64>,
    // Adam state; `mw`/`vw` are row-major like `w`.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(input: usize, output: usize, rng: &mut StdRng) -> Layer {
        let scale = (2.0 / input as f64).sqrt();
        let mut w = Matrix::zeros(output, input);
        for r in 0..output {
            for c in 0..input {
                w.set(r, c, (rng.gen::<f64>() * 2.0 - 1.0) * scale);
            }
        }
        Layer::with_params(w, vec![0.0; output])
    }

    /// A layer with the given parameters and zeroed Adam state.
    fn with_params(w: Matrix, b: Vec<f64>) -> Layer {
        Layer {
            mw: vec![0.0; w.rows() * w.cols()],
            vw: vec![0.0; w.rows() * w.cols()],
            mb: vec![0.0; b.len()],
            vb: vec![0.0; b.len()],
            b,
            w,
        }
    }

    /// Output width (filter count).
    fn width(&self) -> usize {
        self.b.len()
    }

    /// `out[r] = dot(w.row(r), input) + b[r]`.
    ///
    /// Four rows run in lockstep, but each row keeps its own accumulator
    /// that sums its products in column order from the value
    /// `Iterator::sum` starts at, so every `out[r]` is bit-identical to
    /// [`crate::linalg::dot`] plus the bias.
    ///
    /// # Panics
    /// Panics if `input.len()` is not the layer's input width.
    fn affine(&self, input: &[f64], out: &mut [f64]) {
        let cols = self.w.cols();
        assert_eq!(input.len(), cols, "dimension mismatch");
        let w = self.w.as_slice();
        let row = |r: usize| &w[r * cols..(r + 1) * cols];
        let init: f64 = std::iter::empty::<f64>().sum();
        let split = out.len() / 4 * 4;
        let (quads, rest) = out.split_at_mut(split);
        let quads = quads.chunks_exact_mut(4).zip(self.b.chunks_exact(4));
        for (r, (out, b)) in (0..).step_by(4).zip(quads) {
            let mut acc = [init; 4];
            let rows = input
                .iter()
                .zip(row(r))
                .zip(row(r + 1))
                .zip(row(r + 2))
                .zip(row(r + 3));
            for ((((&x, &w0), &w1), &w2), &w3) in rows {
                acc[0] += w0 * x;
                acc[1] += w1 * x;
                acc[2] += w2 * x;
                acc[3] += w3 * x;
            }
            for ((o, &b), a) in out.iter_mut().zip(b).zip(acc) {
                *o = a + b;
            }
        }
        for (r, (o, &b)) in (split..).zip(rest.iter_mut().zip(&self.b[split..])) {
            *o = crate::linalg::dot(row(r), input) + b;
        }
    }

    /// Copies the weights into `panel` quad by quad (rows `4q..4q + 4`),
    /// column by column: `panel[(q * cols + c) * 4 + j] = w[4q + j][c]`,
    /// so [`Layer::affine_block`] reads a column's four weights
    /// contiguously. A last, partial quad keeps the zero rows the panel was
    /// allocated with.
    fn pack_quads(&self, panel: &mut [f64]) {
        let cols = self.w.cols();
        for r in 0..self.width() {
            let (q, j) = (r / 4, r % 4);
            for (c, &v) in self.w.row(r).iter().enumerate() {
                panel[(q * cols + c) * 4 + j] = v;
            }
        }
    }

    /// [`Layer::affine`] for [`BLOCK`] samples at once, with the weights
    /// packed in `panel` by [`Layer::pack_quads`]; `out` holds the samples'
    /// outputs back to back.
    ///
    /// Four samples × four rows run in lockstep, so each weight is loaded
    /// once for the four samples. Every output keeps its own accumulator,
    /// summed in column order from the value `Iterator::sum` starts at and
    /// then biased, as [`crate::linalg::dot`] plus the bias is, so each
    /// sample's output equals `affine` bit for bit. Leftover rows
    /// (`width % 4`) run as a zero-padded quad whose padding is dropped.
    ///
    /// # Panics
    /// Panics if an input is not the layer's input width, or `out` is not
    /// `BLOCK` outputs wide.
    fn affine_block(&self, panel: &[f64], xs: [&[f64]; BLOCK], out: &mut [f64]) {
        let (cols, width) = (self.w.cols(), self.width());
        assert!(xs.iter().all(|x| x.len() == cols), "dimension mismatch");
        assert_eq!(out.len(), BLOCK * width, "dimension mismatch");
        let mut outs = block_slices_mut(out);
        let mut store = |r: usize, acc: [[f64; 4]; BLOCK], n: usize| {
            for (out, acc) in outs.iter_mut().zip(acc) {
                for ((o, a), &b) in out[r..r + n].iter_mut().zip(acc).zip(&self.b[r..r + n]) {
                    *o = a + b;
                }
            }
        };
        let quad = |r: usize| quad_tile(&panel[r * cols..(r + 4) * cols], xs);
        // Full quads apart from the partial one, so their stores keep a
        // fixed width and the tile stays in registers.
        let split = width / 4 * 4;
        for r in (0..split).step_by(4) {
            store(r, quad(r), 4);
        }
        if split < width {
            store(split, quad(split), width - split);
        }
    }
}

/// The 4 × 4 tile of [`Layer::affine_block`]: `acc[s][j]` sums
/// `w[r + j][c] * xs[s][c]` over the quad's packed columns in column
/// order, from the value `Iterator::sum` starts at.
#[inline(always)]
fn quad_tile(quad: &[f64], xs: [&[f64]; BLOCK]) -> [[f64; 4]; BLOCK] {
    let init: f64 = std::iter::empty::<f64>().sum();
    let [x0, x1, x2, x3] = xs;
    let mut acc = [[init; 4]; BLOCK];
    let columns = x0.iter().zip(x1).zip(x2).zip(x3);
    for (wc, (((&a, &b), &c), &d)) in quad.chunks_exact(4).zip(columns) {
        for (acc, x) in acc.iter_mut().zip([a, b, c, d]) {
            for (a, &w) in acc.iter_mut().zip(wc) {
                *a += w * x;
            }
        }
    }
    acc
}

/// The `BLOCK` equal slices of a block buffer.
fn block_slices(v: &[f64]) -> [&[f64]; BLOCK] {
    let n = v.len() / BLOCK;
    std::array::from_fn(|k| &v[k * n..(k + 1) * n])
}

/// The `BLOCK` equal slices of a block buffer, mutably.
fn block_slices_mut(v: &mut [f64]) -> [&mut [f64]; BLOCK] {
    let n = v.len() / BLOCK;
    let (front, back) = v.split_at_mut(2 * n);
    let (v0, v1) = front.split_at_mut(n);
    let (v2, v3) = back.split_at_mut(n);
    [v0, v1, v2, v3]
}

/// Per-fit training buffers, sized once from the topology so the
/// blocked forward and per-sample backward passes allocate nothing.
struct Scratch {
    /// Pre-activations `z` of every layer, the block's samples back to back.
    zs: Vec<Vec<f64>>,
    /// ReLU activations of every hidden layer (the head is linear), laid
    /// out like `zs`.
    acts: Vec<Vec<f64>>,
    /// Each layer's quads of weight rows, packed by [`Layer::pack_quads`]
    /// as of this minibatch.
    panels: Vec<Vec<f64>>,
    /// Backprop deltas of the current layer and the one below it.
    delta: Vec<f64>,
    next: Vec<f64>,
    /// The current layer's live rows: those whose delta is not zero.
    live: Vec<usize>,
    /// Whether each layer's weights are all finite, as of this minibatch.
    finite_w: Vec<bool>,
    /// Whether every backprop row of each layer counts as live for the
    /// current block: its weights or some sample's input to it hold a
    /// non-finite value.
    all_live: Vec<bool>,
    /// Minibatch gradient sums, shaped like each layer's `w` and `b`.
    grad_w: Vec<Vec<f64>>,
    grad_b: Vec<Vec<f64>>,
    /// Backprop rows over the fit, and how many of them were live.
    rows: u64,
    rows_live: u64,
}

impl Scratch {
    fn new(layers: &[Layer]) -> Scratch {
        // Deltas span a layer's inputs, or the 1-wide head.
        let delta_width = layers.iter().map(|l| l.w.cols()).fold(1, usize::max);
        Scratch {
            zs: layers
                .iter()
                .map(|l| vec![0.0; BLOCK * l.width()])
                .collect(),
            acts: layers[..layers.len() - 1]
                .iter()
                .map(|l| vec![0.0; BLOCK * l.width()])
                .collect(),
            panels: layers
                .iter()
                .map(|l| vec![0.0; l.width().div_ceil(4) * 4 * l.w.cols()])
                .collect(),
            delta: vec![0.0; delta_width],
            next: vec![0.0; delta_width],
            live: vec![0; delta_width],
            finite_w: vec![true; layers.len()],
            all_live: vec![false; layers.len()],
            grad_w: layers
                .iter()
                .map(|l| vec![0.0; l.w.rows() * l.w.cols()])
                .collect(),
            grad_b: layers.iter().map(|l| vec![0.0; l.width()]).collect(),
            rows: 0,
            rows_live: 0,
        }
    }
}

/// A binary-classification MLP (sigmoid output head). It only scores;
/// the decision threshold is the firmware predictor's
/// (`psca_uc::FirmwareModel`).
///
/// # Examples
///
/// ```
/// use psca_ml::{Dataset, Matrix, Mlp, MlpConfig};
///
/// // Learn y = x0 > 0.
/// let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i as f64 - 100.0) / 50.0]).collect();
/// let labels: Vec<u8> = rows.iter().map(|r| (r[0] > 0.0) as u8).collect();
/// let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
/// let data = Dataset::new(Matrix::from_rows(&refs), labels, vec![0; 200]);
/// let mlp = Mlp::fit(&MlpConfig::default(), &data, 2);
/// assert!(mlp.predict_proba(&[1.0]) > 0.5);
/// assert!(mlp.predict_proba(&[-1.0]) < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    adam_t: u64,
}

impl Mlp {
    /// Trains an MLP on the dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn fit(cfg: &MlpConfig, data: &Dataset, seed: u64) -> Mlp {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let _span = psca_obs::SpanTimer::start("ml.mlp.fit");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![data.dim()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        let mut mlp = Mlp { layers, adam_t: 0 };
        let mut scratch = Scratch::new(&mlp.layers);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                mlp.train_batch(cfg, data, chunk, &mut scratch);
            }
        }
        psca_obs::counter("ml.mlp.backprop_rows").add(scratch.rows);
        psca_obs::counter("ml.mlp.backprop_rows_live").add(scratch.rows_live);
        mlp
    }

    /// Reconstructs an MLP from layer weights (rows = filters) and
    /// biases — the firmware-image deserialization path.
    ///
    /// # Panics
    /// Panics if layer shapes do not chain (layer `i`'s filter count must
    /// equal layer `i+1`'s input width) or the output layer is not 1-wide.
    pub fn from_layers(layers: Vec<(Matrix, Vec<f64>)>) -> Mlp {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].0.rows(),
                pair[1].0.cols(),
                "layer shapes do not chain"
            );
        }
        let last = layers.last().unwrap();
        assert_eq!(last.0.rows(), 1, "output layer must have one unit");
        let layers = layers
            .into_iter()
            .map(|(w, b)| {
                assert_eq!(w.rows(), b.len(), "bias arity mismatch");
                Layer::with_params(w, b)
            })
            .collect();
        Mlp { layers, adam_t: 0 }
    }

    /// Total trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Weights of layer `i` (rows = filters).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn layer_weights(&self, i: usize) -> (&Matrix, &[f64]) {
        (&self.layers[i].w, &self.layers[i].b)
    }

    /// Number of layers including the output head.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Probability that the positive (gate) class is correct.
    ///
    /// # Panics
    /// Panics if `x` has wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        // Two ping-pong buffers, each the width of the widest layer: on
        // the stack for the nets the paper deploys and screens.
        const INLINE_WIDTH: usize = 32;
        let widest = self.layers.iter().map(Layer::width).max().unwrap_or(1);
        if widest <= INLINE_WIDTH {
            self.proba_with(x, &mut [0.0; 2 * INLINE_WIDTH])
        } else {
            self.proba_with(x, &mut vec![0.0; 2 * widest])
        }
    }

    /// Inference through the two halves of `buf`.
    fn proba_with(&self, x: &[f64], buf: &mut [f64]) -> f64 {
        let (mut cur, mut out) = buf.split_at_mut(buf.len() / 2);
        let last = self.layers.len() - 1;
        let mut input = x;
        for (li, layer) in self.layers.iter().enumerate() {
            let z = &mut out[..layer.width()];
            layer.affine(input, z);
            if li < last {
                relu(z);
            }
            std::mem::swap(&mut cur, &mut out);
            input = &cur[..layer.width()];
        }
        sigmoid(input[0])
    }

    /// Forward pass of one block of samples, storing every layer's `z` and
    /// hidden activation.
    fn forward_block(&self, xs: [&[f64]; BLOCK], s: &mut Scratch) {
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let inputs = if li == 0 {
                xs
            } else {
                block_slices(&s.acts[li - 1])
            };
            s.all_live[li] = !(s.finite_w[li] && inputs.iter().all(|x| all_finite(x)));
            layer.affine_block(&s.panels[li], inputs, &mut s.zs[li]);
            if li < last {
                s.acts[li].copy_from_slice(&s.zs[li]);
                relu(&mut s.acts[li]);
            }
        }
    }

    /// Adds the gradient of sample `(x, y)`, whose forward pass sits in
    /// block slot `k`, to the minibatch sums.
    ///
    /// Only live rows (nonzero delta) enter the weight-gradient and
    /// next-delta loops. That is exact: both sums start at `+0.0`, a
    /// round-to-nearest sum that starts at `+0.0` is never `-0.0`, and a
    /// zero delta times a finite operand is `±0.0`, so adding it changes
    /// nothing. `0 × inf` is NaN, though, so when a layer's weights or
    /// some input to it in the block hold a non-finite value, every row of
    /// it counts as live (`Scratch::all_live`).
    fn backward(&self, x: &[f64], y: u8, k: usize, s: &mut Scratch) {
        let nl = self.layers.len();
        // BCE with logits: dL/dz_out = sigmoid(z) - y.
        let d = sigmoid(s.zs[nl - 1][k]) - y as f64;
        s.delta[0] = d;
        s.grad_b[nl - 1][0] += d;
        s.live[0] = 0;
        let mut n = (s.all_live[nl - 1] | (d != 0.0)) as usize;
        let mut width = 1;
        for li in (0..nl).rev() {
            s.rows += width as u64;
            s.rows_live += n as u64;
            let cols = self.layers[li].w.cols();
            let input = if li == 0 {
                x
            } else {
                &s.acts[li - 1][k * cols..(k + 1) * cols]
            };
            let (delta, live) = (&s.delta[..width], &s.live[..n]);
            let grad_w = &mut s.grad_w[li];
            if li == 0 {
                for &r in live {
                    axpy(delta[r], input, &mut grad_w[r * cols..(r + 1) * cols]);
                }
                break;
            }
            // One pass per live row feeds both its weight gradient and the
            // next delta; every element keeps its own sum order.
            let next = &mut s.next[..cols];
            next.fill(0.0);
            let w = self.layers[li].w.as_slice();
            for &r in live {
                let row = r * cols..(r + 1) * cols;
                axpy2(delta[r], input, &mut grad_w[row.clone()], &w[row], next);
            }
            let z = &s.zs[li - 1][k * cols..(k + 1) * cols];
            let grad_b = &mut s.grad_b[li - 1];
            n = mask_and_collect(next, z, grad_b, s.all_live[li - 1], &mut s.live);
            std::mem::swap(&mut s.delta, &mut s.next);
            width = cols;
        }
    }

    fn train_batch(&mut self, cfg: &MlpConfig, data: &Dataset, idx: &[usize], s: &mut Scratch) {
        for g in s.grad_w.iter_mut().chain(s.grad_b.iter_mut()) {
            g.fill(0.0);
        }
        for (li, layer) in self.layers.iter().enumerate() {
            layer.pack_quads(&mut s.panels[li]);
            s.finite_w[li] = all_finite(layer.w.as_slice());
        }
        // Forward four samples in lockstep, then backprop them in sample
        // order so the gradient sums add in the same order as one by one.
        // A short last block repeats its last sample: every sample has its
        // own accumulators, so the padding changes no real sample's bits,
        // and it is never backpropagated.
        for block in idx.chunks(BLOCK) {
            let pad = |k: usize| block[k.min(block.len() - 1)];
            self.forward_block(std::array::from_fn(|k| data.sample(pad(k)).0), s);
            for (k, &i) in block.iter().enumerate() {
                let (x, y) = data.sample(i);
                self.backward(x, y, k, s);
            }
        }
        // Adam update.
        self.adam_t += 1;
        let t = self.adam_t as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let scale = 1.0 / idx.len() as f64;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let params = layer
                .w
                .as_mut_slice()
                .iter_mut()
                .zip(&mut layer.mw)
                .zip(&mut layer.vw)
                .zip(&s.grad_w[li]);
            for (((w, mw), vw), &gw) in params {
                let g = gw * scale + cfg.weight_decay * *w;
                let m = b1 * *mw + (1.0 - b1) * g;
                let v = b2 * *vw + (1.0 - b2) * g * g;
                *mw = m;
                *vw = v;
                let step = cfg.learning_rate * (m / bc1) / ((v / bc2).sqrt() + eps);
                *w -= step;
            }
            let params = layer
                .b
                .iter_mut()
                .zip(&mut layer.mb)
                .zip(&mut layer.vb)
                .zip(&s.grad_b[li]);
            for (((b, mb), vb), &gb) in params {
                let g = gb * scale;
                let m = b1 * *mb + (1.0 - b1) * g;
                let v = b2 * *vb + (1.0 - b2) * g * g;
                *mb = m;
                *vb = v;
                *b -= cfg.learning_rate * (m / bc1) / ((v / bc2).sqrt() + eps);
            }
        }
    }
}

/// Whether every value is finite. No early exit, so the check vectorizes.
#[inline]
fn all_finite(v: &[f64]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Applies the ReLU derivative at `z` to `delta` (a select, not a
/// branch), adds the result to `grad_b`, and lists the live rows (nonzero
/// delta, or every row when `keep_all`) at the front of `live`, returning
/// how many there are. The list is written without branching: each index
/// is stored, and the count steps past it only if the row is live. The
/// list gets its own loop so the mask and bias loop vectorizes.
#[inline]
fn mask_and_collect(
    delta: &mut [f64],
    z: &[f64],
    grad_b: &mut [f64],
    keep_all: bool,
    live: &mut [usize],
) -> usize {
    for ((d, &z), gb) in delta.iter_mut().zip(z).zip(grad_b) {
        *d = if z <= 0.0 { 0.0 } else { *d };
        *gb += *d;
    }
    let mut n = 0;
    for (r, &d) in delta.iter().enumerate() {
        live[n] = r;
        n += (keep_all | (d != 0.0)) as usize;
    }
    n
}

/// `y += d * x`, element by element. The operands are sliced to one
/// length before the loop, so it indexes without bounds checks; that ran
/// faster than zipped iterators.
#[inline]
fn axpy(d: f64, x: &[f64], y: &mut [f64]) {
    let n = y.len();
    let x = &x[..n];
    for c in 0..n {
        y[c] += d * x[c];
    }
}

/// Two [`axpy`]s in one pass: `y += d * x` and `v += d * w`.
#[inline]
fn axpy2(d: f64, x: &[f64], y: &mut [f64], w: &[f64], v: &mut [f64]) {
    let n = y.len();
    let (x, w, v) = (&x[..n], &w[..n], &mut v[..n]);
    for c in 0..n {
        y[c] += d * x[c];
        v[c] += d * w[c];
    }
}

/// In-place ReLU.
#[inline]
fn relu(z: &mut [f64]) {
    for v in z {
        *v = v.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let a = rng.gen::<f64>() * 2.0 - 1.0;
            let b = rng.gen::<f64>() * 2.0 - 1.0;
            rows.push(vec![a, b]);
            labels.push(((a > 0.0) != (b > 0.0)) as u8);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    #[test]
    fn learns_xor_nonlinear_boundary() {
        let data = xor_dataset(600);
        let cfg = MlpConfig {
            hidden: vec![16, 8],
            epochs: 120,
            learning_rate: 5e-3,
            ..MlpConfig::default()
        };
        let mlp = Mlp::fit(&cfg, &data, 3);
        let acc = (0..data.len())
            .filter(|&i| {
                let (x, y) = data.sample(i);
                (mlp.predict_proba(x) >= 0.5) == (y == 1)
            })
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.9, "XOR accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = xor_dataset(100);
        let a = Mlp::fit(&MlpConfig::default(), &data, 7);
        let b = Mlp::fit(&MlpConfig::default(), &data, 7);
        assert_eq!(a.predict_proba(&[0.3, -0.4]), b.predict_proba(&[0.3, -0.4]));
        let c = Mlp::fit(&MlpConfig::default(), &data, 8);
        assert_ne!(a.predict_proba(&[0.3, -0.4]), c.predict_proba(&[0.3, -0.4]));
    }

    #[test]
    fn parameter_count_matches_topology() {
        let data = xor_dataset(10);
        let cfg = MlpConfig {
            hidden: vec![8, 8, 4],
            epochs: 1,
            ..MlpConfig::default()
        };
        let mlp = Mlp::fit(&cfg, &data, 1);
        // 2->8: 24, 8->8: 72, 8->4: 36, 4->1: 5
        assert_eq!(mlp.num_parameters(), 24 + 72 + 36 + 5);
        assert_eq!(mlp.num_layers(), 4);
    }

    #[test]
    fn inference_matches_a_reference_forward_pass() {
        // Widths up to 32 run in stack buffers, wider nets on the heap;
        // both must equal the plain matvec-plus-bias pass bit for bit.
        let data = xor_dataset(120);
        for hidden in [vec![8, 8, 4], vec![40, 33]] {
            let cfg = MlpConfig {
                hidden,
                epochs: 3,
                ..MlpConfig::default()
            };
            let mlp = Mlp::fit(&cfg, &data, 4);
            for i in 0..data.len() {
                let mut a = data.sample(i).0.to_vec();
                for li in 0..mlp.num_layers() {
                    let (w, b) = mlp.layer_weights(li);
                    a = w.matvec(&a).iter().zip(b).map(|(z, b)| z + b).collect();
                    if li + 1 < mlp.num_layers() {
                        a.iter_mut().for_each(|v| *v = v.max(0.0));
                    }
                }
                let got = mlp.predict_proba(data.sample(i).0);
                assert_eq!(got.to_bits(), sigmoid(a[0]).to_bits());
            }
        }
    }

    #[test]
    fn probabilities_are_valid() {
        let data = xor_dataset(50);
        let mlp = Mlp::fit(&MlpConfig::default(), &data, 2);
        for i in 0..data.len() {
            let p = mlp.predict_proba(data.sample(i).0);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let d = Dataset::new(Matrix::zeros(0, 2), vec![], vec![]);
        let _ = Mlp::fit(&MlpConfig::default(), &d, 1);
    }
}

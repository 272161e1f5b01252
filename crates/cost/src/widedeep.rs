//! The Wide-Deep cost model (paper Section IV-B) and its ablations.
//!
//! Architecture, following Fig. 5:
//!
//! ```text
//! numerical features ──normalize──► Dc ──affine (Mw)──► Dw ─┐
//!                                   │                       ├─► FC5 → ReLU → FC6 → Ŷ
//! table schema ──keyword-embed──► avg pool ──► Dm ─┐        │
//! query plan  ──token encode ► LSTM1 ► LSTM2 ─► De_q ├─► Dr ─► ResNet×2 ─► Z2 ┘
//! view plan   ──token encode ► LSTM1 ► LSTM2 ─► De_v ┘
//! ```
//!
//! Token encoding: keywords through a shared Keyword Embedding; literal
//! strings through the String Encoding model (char embedding → two
//! `Conv3×1 → BatchNorm → ReLU` blocks → average pooling, Fig. 6).
//!
//! Ablations (paper Section VI-A):
//! - **N-Kw** — one-hot vectors replace keyword embeddings;
//! - **N-Str** — one-hot char histograms replace char embeddings and the CNN;
//! - **N-Exp** — average pooling replaces both LSTMs.
//!
//! ## Compute path
//!
//! Training and inference run on a throughput-oriented path that is
//! numerically identical to the straightforward one:
//!
//! - every sample is **prepared once** (tokenized, vocab-indexed,
//!   normalized) before the first epoch, instead of re-deriving features
//!   at every use;
//! - training runs on one **arena-reused [`Graph`]** (`reset` between
//!   samples) with every parameter leaf pinned, so a steady-state epoch
//!   performs no heap allocation and re-copies no weights;
//! - each sample's gradients accumulate straight into the store, and the
//!   minibatch sum is scaled to its mean before the Adam step;
//! - inference goes through [`WideDeep::predict_batch`], which memoizes
//!   `De(plan)` LSTM encodings by plan fingerprint and pushes all samples
//!   through one batched head graph. The cache lives inside the model, so
//!   retraining (a new model) invalidates it by construction.

use crate::baselines::{normalization_stats, normalize, scalar_stats};
use crate::features::{
    numerical_features, plan_tokens, schema_keywords, FeatureInput, NUM_FEATURES,
};
use crate::vocab::Vocab;
use crate::CostEstimator;
use av_nn::{Adam, BatchNorm, Conv3x1, Embedding, Graph, Linear, Lstm, NodeId, ParamStore, Tensor};
use av_plan::{plan_feature_rows, Fingerprint, Token};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which part of the model is ablated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// Full Wide-Deep (`W-D`).
    None,
    /// One-hot keywords (`N-Kw`).
    NKw,
    /// One-hot chars, no CNN (`N-Str`).
    NStr,
    /// Average pooling instead of the LSTMs (`N-Exp`).
    NExp,
}

impl Ablation {
    /// Display name matching the paper's Table III columns.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::None => "W-D",
            Ablation::NKw => "N-Kw",
            Ablation::NStr => "N-Str",
            Ablation::NExp => "N-Exp",
        }
    }
}

/// Hyper-parameters (paper Table II supplies `epochs`, `lr`, `bs`).
#[derive(Debug, Clone)]
pub struct WideDeepConfig {
    /// Dense embedding width `n_d`.
    pub embed_dim: usize,
    /// Hidden width of the per-operator LSTM₁.
    pub lstm1_hidden: usize,
    /// Hidden width of the plan-level LSTM₂.
    pub lstm2_hidden: usize,
    /// Output width of the wide affine transform.
    pub wide_dim: usize,
    /// Training epochs `I`.
    pub epochs: usize,
    /// Adam learning rate `lr`.
    pub lr: f32,
    /// Batch size `b_s` (gradient-accumulation granularity).
    pub batch_size: usize,
    /// Truncation cap on operator rows per plan (speed guard).
    pub max_operators: usize,
    /// Truncation cap on chars per string literal.
    pub max_string_len: usize,
    pub seed: u64,
    pub ablation: Ablation,
}

impl Default for WideDeepConfig {
    fn default() -> Self {
        WideDeepConfig {
            embed_dim: 12,
            lstm1_hidden: 16,
            lstm2_hidden: 16,
            wide_dim: 8,
            epochs: 25,
            lr: 5e-3,
            batch_size: 16,
            max_operators: 16,
            max_string_len: 16,
            seed: 17,
            ablation: Ablation::None,
        }
    }
}

/// A token after one-time preparation: vocab lookups done, string bytes
/// resolved, ablation-specific constants (one-hot histograms) materialized.
#[derive(Debug, Clone)]
enum PreparedToken {
    /// Keyword → vocab index.
    Keyword(usize),
    /// String literal → char indices (dense char-CNN path).
    Chars(Vec<usize>),
    /// String literal → pooled char histogram (`N-Str`).
    Histogram(Vec<f32>),
}

#[derive(Debug, Clone)]
struct PreparedPlan {
    /// Per-operator token rows, already capped at `max_operators`.
    rows: Vec<Vec<PreparedToken>>,
}

#[derive(Debug, Clone)]
enum PreparedSchema {
    /// `N-Kw`: pooled one-hot keyword histogram over the vocab.
    Histogram(Vec<f32>),
    /// Dense path: vocab indices to embed then mean-pool (may be empty).
    Indices(Vec<usize>),
}

/// A feature input after one-time preparation (see [`PreparedToken`]).
#[derive(Debug, Clone)]
struct PreparedInput {
    /// Z-normalized numerical features.
    xn: Vec<f32>,
    schema: PreparedSchema,
    query: PreparedPlan,
    view: PreparedPlan,
}

#[derive(Debug, Clone)]
struct PreparedSample {
    input: PreparedInput,
    /// Normalized training target.
    target: f32,
}

/// Memoized `De(plan)` encodings keyed by plan fingerprint. Lookup and
/// insert only — never iterated, so no hash-order dependence can leak into
/// results. Owned by the model: retraining builds a new model and therefore
/// a new, empty cache.
#[derive(Debug, Default)]
struct EncoderCache {
    map: Mutex<HashMap<u64, Tensor>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A trained Wide-Deep cost model.
pub struct WideDeep {
    config: WideDeepConfig,
    vocab: Vocab,
    store: ParamStore,
    /// Width of one encoded token (depends on the ablation).
    token_dim: usize,
    kw_embed: Embedding,
    char_embed: Embedding,
    conv1: Conv3x1,
    bn1: BatchNorm,
    conv2: Conv3x1,
    bn2: BatchNorm,
    lstm1: Lstm,
    lstm2: Lstm,
    wide: Linear,
    fc1: Linear,
    fc2: Linear,
    fc3: Linear,
    fc4: Linear,
    fc5: Linear,
    fc6: Linear,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    encoder_cache: EncoderCache,
    tracer: av_trace::Tracer,
}

impl WideDeep {
    /// Train on labelled `(input, A(q|v))` pairs (paper Algorithm 1).
    pub fn fit(samples: &[(FeatureInput, f64)], config: WideDeepConfig) -> WideDeep {
        Self::fit_with_tracer(samples, config, &av_trace::Tracer::disabled()).0
    }

    /// Vocabulary + normalization bootstrap shared by all trainers.
    fn bootstrap(samples: &[(FeatureInput, f64)], config: WideDeepConfig) -> WideDeep {
        // Vocabulary from the training split only.
        let mut vocab = Vocab::new();
        for (inp, _) in samples {
            let (q, v) = plan_tokens(inp);
            for row in q.iter().chain(v.iter()) {
                for tok in row {
                    if let Token::Keyword(k) = tok {
                        vocab.add(k);
                    }
                }
            }
            for kw in schema_keywords(inp) {
                vocab.add(&kw);
            }
        }

        let mut model = Self::initialize(config, vocab);

        // Normalization statistics (Algorithm 1 line 8 uses per-feature
        // z-normalization; we compute the stats over the training split).
        let xs: Vec<Vec<f64>> = samples
            .iter()
            .map(|(inp, _)| numerical_features(inp).to_vec())
            .collect();
        let (x_mean, x_std) = normalization_stats(&xs, NUM_FEATURES);
        let ys: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
        let (y_mean, y_std) = scalar_stats(&ys);
        model.x_mean = x_mean;
        model.x_std = x_std;
        model.y_mean = y_mean;
        model.y_std = y_std;
        model
    }

    /// Run one prepared sample through the arena graph and accumulate its
    /// gradients into the store. Returns the sample's loss.
    fn train_sample(&mut self, g: &mut Graph, sample: &PreparedSample) -> f32 {
        g.reset();
        let pred = self.forward_prepared(g, &sample.input);
        let mut tv = g.scratch(1, 1);
        tv.set(0, 0, sample.target);
        let t = g.input(tv);
        let loss = g.mse(pred, t);
        let loss_value = g.value(loss).get(0, 0);
        g.backward(loss);
        g.accumulate_param_grads(&mut self.store);
        loss_value
    }

    /// Train with full observability: one `cost.epoch` span per epoch
    /// (carrying mean loss and the last batch's gradient norm), per-batch
    /// `cost.grad_reduce` / `cost.adam_step` timings, and
    /// `cost.epoch_loss` / `cost.grad_norm` histograms in the tracer's
    /// metrics registry.
    pub fn fit_with_tracer(
        samples: &[(FeatureInput, f64)],
        config: WideDeepConfig,
        tracer: &av_trace::Tracer,
    ) -> (WideDeep, Vec<f64>) {
        let mut model = Self::bootstrap(samples, config);

        // Tokenize / vocab-index / normalize every sample exactly once.
        let prepared: Vec<PreparedSample> = samples
            .iter()
            .map(|(inp, y)| PreparedSample {
                input: model.prepare(inp),
                target: ((y - model.y_mean) / model.y_std) as f32,
            })
            .collect();

        let batch = model.config.batch_size.max(1);
        // Pin every parameter leaf into the arena once: resets keep the
        // leaves, so per-sample passes stop re-copying all the weights from
        // the store. `refresh_params` below pushes each optimizer step's new
        // values back into the pinned leaves.
        let mut g = Graph::new();
        for pid in model.store.param_ids() {
            g.param(&model.store, pid);
        }
        g.pin_params();

        let mut adam = Adam::new(model.config.lr);
        let mut rng = ChaCha8Rng::seed_from_u64(model.config.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut trace = Vec::with_capacity(model.config.epochs);

        for epoch in 0..model.config.epochs {
            let span = tracer.span("cost.epoch");
            span.record_num("epoch", epoch as f64);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut last_grad_norm = 0.0;
            for chunk in order.chunks(batch) {
                model.store.zero_grads();
                for &i in chunk {
                    epoch_loss += f64::from(model.train_sample(&mut g, &prepared[i]));
                }
                // The 1/n scale makes the step a true minibatch mean — the
                // effective learning rate does not grow with batch_size.
                tracer.time("cost.grad_reduce", || {
                    model.store.scale_grads(1.0 / chunk.len() as f32);
                });
                if tracer.is_enabled() {
                    last_grad_norm = model.store.grad_norm();
                }
                tracer.time("cost.adam_step", || adam.step(&mut model.store));
                g.refresh_params(&model.store);
            }
            let mean_loss = epoch_loss / samples.len().max(1) as f64;
            trace.push(mean_loss);
            if tracer.is_enabled() {
                span.record_num("loss", mean_loss);
                span.record_num("grad_norm", last_grad_norm);
                let metrics = tracer.metrics();
                metrics.observe("cost.epoch_loss", mean_loss);
                metrics.observe("cost.grad_norm", last_grad_norm);
                metrics.set_gauge("cost.final_loss", mean_loss);
            }
        }
        (model, trace)
    }

    /// The per-sample trainer, kept as `nn_bench`'s baseline: a freshly
    /// allocated graph per sample, features re-derived (tokenized,
    /// vocab-indexed, normalized) at every use, no pinned or reused
    /// buffers, and the optimizer stepped on the raw gradient sum. It runs
    /// the same fused ops and the same `backward` as [`WideDeep::fit`], so
    /// the bench prices exactly what the arena machinery buys; use `fit`
    /// for real training.
    pub fn fit_reference(
        samples: &[(FeatureInput, f64)],
        config: WideDeepConfig,
    ) -> (WideDeep, Vec<f64>) {
        let mut model = Self::bootstrap(samples, config);
        let mut adam = Adam::new(model.config.lr);
        let mut rng = ChaCha8Rng::seed_from_u64(model.config.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut trace = Vec::with_capacity(model.config.epochs);
        for _ in 0..model.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(model.config.batch_size.max(1)) {
                model.store.zero_grads();
                for &i in chunk {
                    let (inp, y) = &samples[i];
                    let mut g = Graph::new();
                    let pred = model.forward(&mut g, inp);
                    let target = ((y - model.y_mean) / model.y_std) as f32;
                    let t = g.input(Tensor::from_vec(1, 1, vec![target]));
                    let loss = g.mse(pred, t);
                    epoch_loss += g.value(loss).get(0, 0) as f64;
                    g.backward(loss);
                    g.accumulate_param_grads(&mut model.store);
                }
                adam.step(&mut model.store);
            }
            trace.push(epoch_loss / samples.len().max(1) as f64);
        }
        (model, trace)
    }

    /// Attach a tracer so inference paths (`predict_batch`, the encoder
    /// cache) emit `cost.forward_batch` / `cost.encode_cache` spans and
    /// cache counters.
    pub fn with_tracer(mut self, tracer: av_trace::Tracer) -> WideDeep {
        self.tracer = tracer;
        self
    }

    fn initialize(config: WideDeepConfig, vocab: Vocab) -> WideDeep {
        let nd = config.embed_dim;
        let token_dim = match config.ablation {
            Ablation::NKw => vocab.len().max(nd),
            Ablation::NStr => nd.max(128),
            _ => nd,
        };
        let mut store = ParamStore::with_seed(config.seed);
        let kw_embed = Embedding::new(&mut store, vocab.len(), nd);
        let char_embed = Embedding::new(&mut store, 128, nd);
        let conv1 = Conv3x1::new(&mut store, nd);
        let bn1 = BatchNorm::new(&mut store, nd);
        let conv2 = Conv3x1::new(&mut store, nd);
        let bn2 = BatchNorm::new(&mut store, nd);
        let lstm1 = Lstm::new(&mut store, token_dim, config.lstm1_hidden);
        let lstm2 = Lstm::new(&mut store, config.lstm1_hidden, config.lstm2_hidden);
        let wide = Linear::new(&mut store, NUM_FEATURES, config.wide_dim);

        // Deep-part input: Dc ++ Dm ++ De(query) ++ De(view).
        let schema_dim = match config.ablation {
            Ablation::NKw => vocab.len(),
            _ => nd,
        };
        let de_dim = match config.ablation {
            Ablation::NExp => token_dim,
            _ => config.lstm2_hidden,
        };
        let dr = NUM_FEATURES + schema_dim + 2 * de_dim;
        let fc1 = Linear::new(&mut store, dr, dr);
        let fc2 = Linear::new(&mut store, dr, dr);
        let fc3 = Linear::new(&mut store, dr, dr);
        let fc4 = Linear::new(&mut store, dr, dr);
        let fc5 = Linear::new(&mut store, config.wide_dim + dr, 16);
        let fc6 = Linear::new(&mut store, 16, 1);

        WideDeep {
            config,
            vocab,
            store,
            token_dim,
            kw_embed,
            char_embed,
            conv1,
            bn1,
            conv2,
            bn2,
            lstm1,
            lstm2,
            wide,
            fc1,
            fc2,
            fc3,
            fc4,
            fc5,
            fc6,
            x_mean: vec![0.0; NUM_FEATURES],
            x_std: vec![1.0; NUM_FEATURES],
            y_mean: 0.0,
            y_std: 1.0,
            encoder_cache: EncoderCache::default(),
            tracer: av_trace::Tracer::disabled(),
        }
    }

    /// Width of the schema encoding `Dm`.
    fn schema_dim(&self) -> usize {
        match self.config.ablation {
            Ablation::NKw => self.vocab.len(),
            _ => self.config.embed_dim,
        }
    }

    /// Width of a plan encoding `De`.
    fn de_dim(&self) -> usize {
        match self.config.ablation {
            Ablation::NExp => self.token_dim,
            _ => self.config.lstm2_hidden,
        }
    }

    // ---- one-time sample preparation --------------------------------------

    fn prepare(&self, input: &FeatureInput) -> PreparedInput {
        let x = numerical_features(input);
        let xn = normalize(&x, &self.x_mean, &self.x_std);
        let schema = self.prepare_schema(&schema_keywords(input));
        let (q_rows, v_rows) = plan_tokens(input);
        PreparedInput {
            xn,
            schema,
            query: self.prepare_plan(&q_rows),
            view: self.prepare_plan(&v_rows),
        }
    }

    fn prepare_plan(&self, rows: &[Vec<Token>]) -> PreparedPlan {
        let rows = &rows[..rows.len().min(self.config.max_operators)];
        PreparedPlan {
            rows: rows
                .iter()
                .map(|row| row.iter().map(|t| self.prepare_token(t)).collect())
                .collect(),
        }
    }

    fn prepare_token(&self, tok: &Token) -> PreparedToken {
        match tok {
            Token::Keyword(k) => PreparedToken::Keyword(self.vocab.index(k)),
            Token::Str(s) => {
                let chars: Vec<usize> = s
                    .bytes()
                    .take(self.config.max_string_len)
                    .map(|b| (b & 0x7f) as usize)
                    .collect();
                let chars = if chars.is_empty() { vec![0] } else { chars };
                match self.config.ablation {
                    Ablation::NStr => {
                        // One-hot chars, no CNN: the pooled char histogram.
                        let mut h = vec![0f32; self.token_dim];
                        for &c in &chars {
                            h[c] += 1.0 / chars.len() as f32;
                        }
                        PreparedToken::Histogram(h)
                    }
                    _ => PreparedToken::Chars(chars),
                }
            }
        }
    }

    fn prepare_schema(&self, keywords: &[String]) -> PreparedSchema {
        match self.config.ablation {
            Ablation::NKw => {
                let dim = self.vocab.len();
                let mut h = vec![0f32; dim];
                if !keywords.is_empty() {
                    for kw in keywords {
                        h[self.vocab.index(kw).min(dim - 1)] += 1.0 / keywords.len() as f32;
                    }
                }
                PreparedSchema::Histogram(h)
            }
            _ => PreparedSchema::Indices(keywords.iter().map(|k| self.vocab.index(k)).collect()),
        }
    }

    // ---- encoders ----------------------------------------------------------

    /// Encode one prepared token → `1×token_dim` node.
    fn encode_token(&self, g: &mut Graph, tok: &PreparedToken) -> NodeId {
        match tok {
            PreparedToken::Keyword(idx) => match self.config.ablation {
                Ablation::NKw => {
                    let mut t = g.scratch(1, self.token_dim);
                    t.set(0, (*idx).min(self.token_dim - 1), 1.0);
                    g.input(t)
                }
                _ => {
                    let e = self.kw_embed.forward_with(g, &self.store, &[*idx]);
                    self.pad_to_token_dim(g, e, self.config.embed_dim)
                }
            },
            PreparedToken::Chars(chars) => {
                // The String Encoding model (paper Fig. 6).
                let emb = self.char_embed.forward_with(g, &self.store, chars);
                let c1 = self.conv1.forward_with(g, &self.store, emb);
                let b1 = self.bn1.forward_with(g, &self.store, c1);
                let r1 = g.relu(b1);
                let c2 = self.conv2.forward_with(g, &self.store, r1);
                let b2 = self.bn2.forward_with(g, &self.store, c2);
                let r2 = g.relu(b2);
                let pooled = g.mean_rows(r2);
                self.pad_to_token_dim(g, pooled, self.config.embed_dim)
            }
            PreparedToken::Histogram(h) => {
                let mut t = g.scratch(1, self.token_dim);
                t.row_mut(0).copy_from_slice(h);
                g.input(t)
            }
        }
    }

    fn pad_to_token_dim(&self, g: &mut Graph, node: NodeId, width: usize) -> NodeId {
        if width == self.token_dim {
            return node;
        }
        let pad = g.scratch(1, self.token_dim - width);
        let pad = g.input(pad);
        g.concat_cols(&[node, pad])
    }

    /// Encode a prepared plan → `1×de_dim` node.
    fn encode_plan_prepared(&self, g: &mut Graph, plan: &PreparedPlan) -> NodeId {
        let mut op_vecs: Vec<NodeId> = Vec::with_capacity(plan.rows.len());
        let mut all_tokens: Vec<NodeId> = Vec::new();
        for row in &plan.rows {
            let toks: Vec<NodeId> = row.iter().map(|t| self.encode_token(g, t)).collect();
            if self.config.ablation == Ablation::NExp {
                all_tokens.extend(&toks);
            } else {
                op_vecs.push(self.lstm1.forward_with(g, &self.store, &toks));
            }
        }
        if self.config.ablation == Ablation::NExp {
            let stacked = g.concat_rows(&all_tokens);
            g.mean_rows(stacked)
        } else {
            self.lstm2.forward_with(g, &self.store, &op_vecs)
        }
    }

    /// Encode a prepared schema keyword set → `1×schema_dim` node (Fig. 7b).
    fn encode_schema_prepared(&self, g: &mut Graph, schema: &PreparedSchema) -> NodeId {
        match schema {
            PreparedSchema::Histogram(h) => {
                let mut t = g.scratch(1, h.len());
                t.row_mut(0).copy_from_slice(h);
                g.input(t)
            }
            PreparedSchema::Indices(indices) => {
                if indices.is_empty() {
                    let t = g.scratch(1, self.config.embed_dim);
                    return g.input(t);
                }
                let emb = self.kw_embed.forward_with(g, &self.store, indices);
                g.mean_rows(emb)
            }
        }
    }

    /// ResNet blocks + regressor shared by the per-sample and batched
    /// forward paths. `dw` is `n×wide_dim`, `dr` is `n×dr_dim`; every op is
    /// row-wise independent, so batched rows match single-sample runs
    /// bitwise.
    fn head(&self, g: &mut Graph, dw: NodeId, dr: NodeId) -> NodeId {
        // Two ResNet blocks: Z = Dr ⊕ ReLU(FC(ReLU(FC(Dr)))).
        let h = self.fc1.forward_with(g, &self.store, dr);
        let h = g.relu(h);
        let h = self.fc2.forward_with(g, &self.store, h);
        let h = g.relu(h);
        let z1 = g.add(dr, h);
        let h = self.fc3.forward_with(g, &self.store, z1);
        let h = g.relu(h);
        let h = self.fc4.forward_with(g, &self.store, h);
        let h = g.relu(h);
        let z2 = g.add(z1, h);

        // Regressor over the merged wide and deep outputs.
        let merged = g.concat_cols(&[dw, z2]);
        let h = self.fc5.forward_with(g, &self.store, merged);
        let h = g.relu(h);
        self.fc6.forward_with(g, &self.store, h)
    }

    /// Full forward pass over a prepared input → normalized `1×1` node.
    fn forward_prepared(&self, g: &mut Graph, p: &PreparedInput) -> NodeId {
        // Wide part.
        let mut dc_t = g.scratch(1, NUM_FEATURES);
        dc_t.row_mut(0).copy_from_slice(&p.xn);
        let dc = g.input(dc_t);
        let dw = self.wide.forward_with(g, &self.store, dc);

        // Deep part.
        let dm = self.encode_schema_prepared(g, &p.schema);
        let de_q = self.encode_plan_prepared(g, &p.query);
        let de_v = self.encode_plan_prepared(g, &p.view);
        let dr = g.concat_cols(&[dc, dm, de_q, de_v]);

        self.head(g, dw, dr)
    }

    /// Full forward pass → normalized prediction node (`1×1`).
    fn forward(&self, g: &mut Graph, input: &FeatureInput) -> NodeId {
        let p = self.prepare(input);
        self.forward_prepared(g, &p)
    }

    // ---- batched + memoized inference --------------------------------------

    /// `De(plan)` through the fingerprint-keyed cache. Encodings depend
    /// only on the plan and the (frozen) parameters, so a hit is bitwise
    /// identical to a cold encode.
    fn encode_plan_cached(&self, g: &mut Graph, plan: &av_plan::PlanNode) -> Tensor {
        let key = Fingerprint::of(plan).0;
        if let Some(t) = self
            .encoder_cache
            .map
            .lock()
            .expect("encoder cache poisoned")
            .get(&key)
        {
            self.encoder_cache.hits.fetch_add(1, Ordering::Relaxed);
            if self.tracer.is_enabled() {
                self.tracer.metrics().inc("cost.encode_cache.hit");
            }
            return t.clone();
        }
        self.encoder_cache.misses.fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            self.tracer.metrics().inc("cost.encode_cache.miss");
        }
        let enc = self.tracer.time("cost.encode_cache", || {
            let prepared = self.prepare_plan(&plan_feature_rows(plan));
            g.reset();
            let node = self.encode_plan_prepared(g, &prepared);
            g.value(node).clone()
        });
        self.encoder_cache
            .map
            .lock()
            .expect("encoder cache poisoned")
            .insert(key, enc.clone());
        enc
    }

    /// Cache hit/miss counts accumulated over the model's lifetime.
    pub fn encode_cache_stats(&self) -> (u64, u64) {
        (
            self.encoder_cache.hits.load(Ordering::Relaxed),
            self.encoder_cache.misses.load(Ordering::Relaxed),
        )
    }

    /// Estimate many inputs in one pass: plan encodings are memoized by
    /// fingerprint (each distinct query/view is encoded once, not once per
    /// pair) and all rows go through a single batched head graph. Every
    /// head op is row-wise independent, so each returned value is bitwise
    /// identical to [`WideDeep::estimate_uncached`] on the same input.
    pub fn predict_batch(&self, inputs: &[FeatureInput]) -> Vec<f64> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let _span = self.tracer.span("cost.forward_batch");
        let n = inputs.len();
        let mut dc = Tensor::zeros(n, NUM_FEATURES);
        let mut dm = Tensor::zeros(n, self.schema_dim());
        let mut de_q = Tensor::zeros(n, self.de_dim());
        let mut de_v = Tensor::zeros(n, self.de_dim());
        let mut enc_graph = Graph::new();
        for (r, inp) in inputs.iter().enumerate() {
            let x = numerical_features(inp);
            let xn = normalize(&x, &self.x_mean, &self.x_std);
            dc.row_mut(r).copy_from_slice(&xn);
            // Schema depends on the input's table set, not a plan — encode
            // it directly (cheap mean-pool), reusing the arena graph.
            let schema = self.prepare_schema(&schema_keywords(inp));
            enc_graph.reset();
            let node = self.encode_schema_prepared(&mut enc_graph, &schema);
            dm.row_mut(r).copy_from_slice(enc_graph.value(node).row(0));
            let q = self.encode_plan_cached(&mut enc_graph, &inp.query);
            de_q.row_mut(r).copy_from_slice(q.row(0));
            let v = self.encode_plan_cached(&mut enc_graph, &inp.view);
            de_v.row_mut(r).copy_from_slice(v.row(0));
        }

        let mut g = Graph::new();
        let dc = g.input(dc);
        let dm = g.input(dm);
        let de_q = g.input(de_q);
        let de_v = g.input(de_v);
        let dw = self.wide.forward_with(&mut g, &self.store, dc);
        let dr = g.concat_cols(&[dc, dm, de_q, de_v]);
        let out = self.head(&mut g, dw, dr);
        (0..n)
            .map(|r| g.value(out).get(r, 0) as f64 * self.y_std + self.y_mean)
            .collect()
    }

    /// One-sample estimate bypassing the encoder cache and the batched
    /// head: the original whole-model graph per call. Baseline for
    /// `nn_bench` and the cache-consistency property tests.
    pub fn estimate_uncached(&self, input: &FeatureInput) -> f64 {
        let mut g = Graph::new();
        let pred = self.forward(&mut g, input);
        g.value(pred).get(0, 0) as f64 * self.y_std + self.y_mean
    }

    /// Number of trainable scalars (for documentation / sanity checks).
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// Bit-exact snapshot of every parameter scalar, in `ParamId` order.
    /// Lets determinism tests compare two trained models without exposing
    /// the store.
    pub fn param_bits(&self) -> Vec<u32> {
        self.store
            .values_iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }
}

impl CostEstimator for WideDeep {
    fn estimate(&self, input: &FeatureInput) -> f64 {
        self.predict_batch(std::slice::from_ref(input))[0]
    }

    fn estimate_batch(&self, inputs: &[FeatureInput]) -> Vec<f64> {
        self.predict_batch(inputs)
    }

    fn name(&self) -> &'static str {
        self.config.ablation.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::TableMeta;
    use av_nn::ParamId;
    use av_plan::{Expr, PlanBuilder};

    fn synth_samples(n: usize) -> Vec<(FeatureInput, f64)> {
        (0..n)
            .map(|i| {
                let rows = 100.0 * (1 + i % 10) as f64;
                let sel = 1 + (i % 4) as i64;
                // A multi-char string literal, so the char-CNN sees more
                // than one row: BatchNorm over a single row normalizes it
                // to zero and passes no gradient back to the encoder.
                let view = PlanBuilder::scan("ev", "t")
                    .filter(Expr::col("t.kind").eq(Expr::str(format!("k{sel}"))))
                    .project(&[("t.uid", "t.uid")])
                    .build();
                let query = PlanBuilder::from_plan(view.clone())
                    .count_star(&["t.uid"], "n")
                    .build();
                let input = FeatureInput {
                    query,
                    view,
                    tables: vec![TableMeta {
                        name: "ev".into(),
                        rows,
                        columns: 3.0,
                        bytes: rows * 24.0,
                        avg_distinct_ratio: 0.4,
                        column_names: vec!["uid".into(), "kind".into(), "v".into()],
                        column_types: vec!["Int".into(), "Str".into(), "Int".into()],
                    }],
                };
                // Cost grows with data size and varies with the literal.
                let y = (1.0 + rows).ln() * (1.0 + 0.1 * sel as f64);
                (input, y)
            })
            .collect()
    }

    fn quick_config(ablation: Ablation) -> WideDeepConfig {
        WideDeepConfig {
            epochs: 12,
            batch_size: 8,
            embed_dim: 8,
            lstm1_hidden: 8,
            lstm2_hidden: 8,
            ablation,
            ..WideDeepConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let samples = synth_samples(40);
        let (_, trace) = WideDeep::fit_with_tracer(
            &samples,
            quick_config(Ablation::None),
            &av_trace::Tracer::disabled(),
        );
        assert!(
            trace.last().expect("trace") < &trace[0],
            "loss should fall: {trace:?}"
        );
    }

    #[test]
    fn predictions_track_targets() {
        let samples = synth_samples(60);
        let model = WideDeep::fit(&samples, quick_config(Ablation::None));
        // In-sample fit should beat the mean-predictor clearly.
        let ys: Vec<f64> = samples.iter().map(|(_, y)| *y).collect();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let model_err: f64 = samples
            .iter()
            .map(|(inp, y)| (model.estimate(inp) - y).abs())
            .sum();
        let mean_err: f64 = ys.iter().map(|y| (y - mean).abs()).sum();
        assert!(
            model_err < mean_err,
            "model {model_err} should beat mean predictor {mean_err}"
        );
    }

    /// Every parameter of the model, grouped by the layer that owns it.
    fn layers(m: &WideDeep) -> Vec<(&'static str, Vec<ParamId>)> {
        vec![
            ("kw_embed", vec![m.kw_embed.table]),
            ("char_embed", vec![m.char_embed.table]),
            ("conv1", vec![m.conv1.w, m.conv1.b]),
            ("bn1", vec![m.bn1.gamma, m.bn1.beta]),
            ("conv2", vec![m.conv2.w, m.conv2.b]),
            ("bn2", vec![m.bn2.gamma, m.bn2.beta]),
            ("lstm1", vec![m.lstm1.wx, m.lstm1.wh, m.lstm1.b]),
            ("lstm2", vec![m.lstm2.wx, m.lstm2.wh, m.lstm2.b]),
            ("wide", vec![m.wide.w, m.wide.b]),
            ("fc1", vec![m.fc1.w, m.fc1.b]),
            ("fc2", vec![m.fc2.w, m.fc2.b]),
            ("fc3", vec![m.fc3.w, m.fc3.b]),
            ("fc4", vec![m.fc4.w, m.fc4.b]),
            ("fc5", vec![m.fc5.w, m.fc5.b]),
            ("fc6", vec![m.fc6.w, m.fc6.b]),
        ]
    }

    /// Each ablation runs forward and backward on the real graph (a shape
    /// mismatch panics), and after one epoch the layers that never received
    /// a gradient — every element of Adam's second moment still zero — are
    /// exactly the ones the variant bypasses.
    #[test]
    fn all_ablations_run_forward_and_backward() {
        let samples = synth_samples(10);
        let bypassed: [(Ablation, &[&str]); 4] = [
            (Ablation::None, &[]),
            (Ablation::NKw, &["kw_embed"]),
            (
                Ablation::NStr,
                &["char_embed", "conv1", "bn1", "conv2", "bn2"],
            ),
            (Ablation::NExp, &["lstm1", "lstm2"]),
        ];
        for (ab, expected) in bypassed {
            let mut cfg = quick_config(ab);
            cfg.epochs = 1;
            let mut model = WideDeep::fit(&samples, cfg);
            let pred = model.estimate(&samples[0].0);
            assert!(pred.is_finite(), "{} produced {pred}", ab.name());

            let layers = layers(&model);
            assert_eq!(
                layers.iter().map(|(_, ids)| ids.len()).sum::<usize>(),
                model.store.len(),
                "every parameter belongs to a listed layer"
            );
            let no_grad: Vec<&str> = layers
                .into_iter()
                .filter(|(_, ids)| {
                    ids.iter().any(|&id| {
                        let p = model.store.param_mut(id);
                        p.adam_v.as_slice().iter().all(|&v| v == 0.0)
                    })
                })
                .map(|(name, _)| name)
                .collect();
            assert_eq!(
                no_grad,
                expected,
                "{}: layers with no gradient after one epoch",
                ab.name()
            );
        }
    }

    #[test]
    fn estimate_is_deterministic() {
        let samples = synth_samples(20);
        let model = WideDeep::fit(&samples, quick_config(Ablation::None));
        let a = model.estimate(&samples[3].0);
        let b = model.estimate(&samples[3].0);
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_names_match_paper() {
        assert_eq!(Ablation::None.name(), "W-D");
        assert_eq!(Ablation::NKw.name(), "N-Kw");
        assert_eq!(Ablation::NStr.name(), "N-Str");
        assert_eq!(Ablation::NExp.name(), "N-Exp");
    }

    #[test]
    fn parameter_count_is_positive_and_stable() {
        let samples = synth_samples(5);
        let mut cfg = quick_config(Ablation::None);
        cfg.epochs = 1;
        let m1 = WideDeep::fit(&samples, cfg.clone());
        let m2 = WideDeep::fit(&samples, cfg);
        assert!(m1.parameter_count() > 1000);
        assert_eq!(m1.parameter_count(), m2.parameter_count());
    }
}

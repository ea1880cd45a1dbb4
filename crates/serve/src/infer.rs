//! Fold-in inference over unseen documents (Eq. 7 with frozen φ).
//!
//! An unseen document is normalized and segmented against the frozen
//! lexicon, then a short collapsed Gibbs chain runs over its phrase
//! instances with the topic-word distribution held fixed at the trained
//! point estimate. The phrase-clique constraint is preserved: a whole
//! phrase instance takes one topic value, with the clique posterior
//!
//! ```text
//! p(C = k | ...) ∝ ∏_{j=1..s} (α_k + n_dk + j − 1) · φ_{k, w_j}
//! ```
//!
//! — Eq. 7's document side with the word side frozen.
//!
//! There is one fold-in implementation, [`try_infer_docs_amortized`],
//! and it works on a batch: a single document ([`infer_doc`]) is a batch
//! of one. It runs against any [`ModelBackend`], in-memory or fleet, in
//! two phases:
//!
//! 1. **gather**: every document's tokens are remapped onto one dense
//!    word table for the batch and the φ columns they touch are gathered
//!    ([`ModelBackend::try_gather_phi`]) into one cache-friendly
//!    topic-major block — a plain copy in memory, one frame per shard
//!    through the fleet router;
//! 2. **local Gibbs**: each document's fold-in sweeps run entirely
//!    against the gathered block, touching no shard again.
//!
//! Because the gathered values are the trained `f64`s bit-for-bit, the
//! sweep order is fixed and each document's chain has its own seeded RNG,
//! everything is deterministic given the seed: same seed ⇒ bit-identical
//! θ, topic ranking, and phrase annotations, regardless of backend, shard
//! count, batch composition, or which thread runs it.
//!
//! The per-clique posterior and the discrete draw are **not** implemented
//! here: the sweeps call into `topmine_lda::kernel` (the same code training
//! runs), through its frozen-φ [`FrozenPhiView`] — so serving inference can
//! never drift from the trained model's Eq. 7.

use crate::backend::{BackendError, GatherOptions, ModelBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use topmine_lda::kernel::{clique_posterior, sample_discrete, CliqueScratch, FrozenPhiView};
use topmine_util::FxHashMap;

/// Reusable fold-in buffers, kept thread-local so dispatcher workers and
/// in-process callers stop re-allocating the batch remap table, the
/// remapped tokens and the chain buffers on every batch. Only each
/// document's preprocessing, the gathered φ block and the returned
/// `DocInference`s allocate per call. Every buffer is reset before use,
/// so results never depend on what ran before on the thread.
#[derive(Default)]
struct InferScratch {
    /// Batch remap: word id → dense column of the gathered φ block.
    col_of: FxHashMap<u32, u32>,
    /// The batch's distinct word ids, in column order.
    distinct: Vec<u32>,
    /// Per column, the last document that touched it.
    last_doc: Vec<usize>,
    /// Every document's tokens as columns, concatenated in item order.
    local_tokens: Vec<u32>,
    local_ndk: Vec<u32>,
    z: Vec<u16>,
    weights: Vec<f64>,
    clique: CliqueScratch,
}

thread_local! {
    static INFER_SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::default());
}

/// Knobs of one fold-in pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InferConfig {
    /// Gibbs sweeps over the document's phrase instances.
    pub fold_iters: usize,
    /// RNG seed; inference is a pure function of (model, text, config).
    pub seed: u64,
    /// How many `(topic, weight)` pairs to report in `top_topics`.
    pub top_topics: usize,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self {
            fold_iters: 20,
            seed: 1,
            top_topics: 3,
        }
    }
}

impl InferConfig {
    /// The seed used for document `index` of a batch. Index 0 keeps the
    /// configured seed, so a batch of one matches a single-document call;
    /// later documents decorrelate via a SplitMix-style odd multiplier.
    pub fn seed_for_index(&self, index: usize) -> u64 {
        self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// One phrase instance of the segmented document with its sampled topic.
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseAssignment {
    /// Display rendering (unstemmed when the bundle carries a table).
    pub text: String,
    /// Word ids of the instance (stemmed vocabulary ids).
    pub words: Vec<u32>,
    /// Topic the clique settled on in the final sweep.
    pub topic: u16,
}

/// The inference result for one document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocInference {
    /// Document-topic distribution θ_d (length = n_topics, sums to 1).
    pub theta: Vec<f64>,
    /// `(topic, θ)` pairs sorted by weight descending, length ≤ top_topics.
    pub top_topics: Vec<(usize, f64)>,
    /// Per-phrase topic annotations, in document order.
    pub phrases: Vec<PhraseAssignment>,
    /// In-vocabulary tokens that entered inference.
    pub n_tokens: usize,
    /// Tokens dropped as out-of-vocabulary.
    pub n_oov: usize,
}

/// Run one document's fold-in Gibbs chain against a gathered φ view.
/// `local_tokens` index columns of `view`; `spans` are the phrase cliques
/// over it. The draw order is pinned by the fold-in digest test.
#[allow(clippy::too_many_arguments)]
fn fold_in_chain(
    view: &FrozenPhiView,
    alpha: &[f64],
    spans: &[(u32, u32)],
    local_tokens: &[u32],
    k: usize,
    fold_iters: usize,
    rng: &mut StdRng,
    local_ndk: &mut Vec<u32>,
    z: &mut Vec<u16>,
    weights: &mut Vec<f64>,
    clique: &mut CliqueScratch,
) {
    // Fold-in state: per-topic token counts for this document, one topic
    // per phrase instance (clique).
    local_ndk.clear();
    local_ndk.resize(k, 0);
    z.clear();
    for &(s, e) in spans {
        let t = rng.gen_range(0..k) as u16;
        local_ndk[t as usize] += e - s;
        z.push(t);
    }

    if weights.len() != k {
        weights.clear();
        weights.resize(k, 0.0);
    }
    for _ in 0..fold_iters {
        for (g, &(s, e)) in spans.iter().enumerate() {
            let old = z[g] as usize;
            local_ndk[old] -= e - s;
            clique_posterior(
                view,
                alpha,
                local_ndk,
                &local_tokens[s as usize..e as usize],
                clique,
                weights,
            );
            let new = sample_discrete(rng, weights) as u16;
            z[g] = new;
            local_ndk[new as usize] += e - s;
        }
    }
}

/// Assemble the response struct from a finished chain's state (θ from the
/// final counts, ranking with deterministic ties, phrase annotations in
/// document order).
#[allow(clippy::too_many_arguments)]
fn assemble_inference(
    model: &dyn ModelBackend,
    alpha: &[f64],
    k: usize,
    tokens: &[u32],
    spans: &[(u32, u32)],
    local_ndk: &[u32],
    z: &[u16],
    top_topics: usize,
    n_oov: usize,
) -> DocInference {
    let alpha_sum: f64 = alpha.iter().sum();
    let theta_den = tokens.len() as f64 + alpha_sum;
    let theta: Vec<f64> = (0..k)
        .map(|t| (local_ndk[t] as f64 + alpha[t]) / theta_den)
        .collect();

    let mut ranked: Vec<(usize, f64)> = theta.iter().copied().enumerate().collect();
    // Ties break on the lower topic id so the ranking is deterministic.
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked.truncate(top_topics);

    let phrases = spans
        .iter()
        .zip(z)
        .map(|(&(s, e), &topic)| {
            let words = tokens[s as usize..e as usize].to_vec();
            PhraseAssignment {
                text: model.display_phrase(&words),
                words,
                topic,
            }
        })
        .collect();

    DocInference {
        theta,
        top_topics: ranked,
        phrases,
        n_tokens: tokens.len(),
        n_oov,
    }
}

/// One document of a fold-in batch: the text plus its fully resolved RNG
/// seed (the caller applies [`InferConfig::seed_for_index`] or keeps the
/// config seed — the batch path never derives seeds itself).
#[derive(Debug, Clone)]
pub struct BatchItem {
    pub text: String,
    pub config: InferConfig,
    /// Effective per-document RNG seed.
    pub seed: u64,
}

/// Infer topics for one unseen document against any backend with an
/// explicit seed: a batch of one through [`try_infer_docs_amortized`].
/// Panics if the backend's φ gather fails; fallible callers use
/// [`try_infer_docs_amortized`].
pub fn infer_doc(
    model: &dyn ModelBackend,
    text: &str,
    config: &InferConfig,
    seed: u64,
) -> DocInference {
    let item = [BatchItem {
        text: text.to_string(),
        config: config.clone(),
        seed,
    }];
    try_infer_docs_amortized(model, &item, &GatherOptions::default())
        .unwrap_or_else(|e| {
            panic!("phi gather failed: {e} (fallible backends use try_infer_docs_amortized)")
        })
        .pop()
        .expect("a batch of one yields one inference")
}

/// Fold in a batch of documents with **one** φ scatter-gather for the
/// whole batch — the only fold-in implementation; [`infer_doc`] and every
/// [`QueryEngine`](crate::QueryEngine) entry point call it. The union of
/// every document's distinct words is gathered once
/// ([`ModelBackend::try_gather_phi`] — a single fan-out through the fleet
/// router), then each document's chain runs against its columns of the
/// shared block.
///
/// Results do not depend on how documents are grouped into batches: the
/// gathered entries are the exact trained `f64`s whichever column they
/// sit in, and each chain consumes its own RNG seeded from its item, so
/// only the column *addressing* changes, never an operand or a draw. A
/// remote backend's shard failure fails the whole batch with one
/// [`BackendError`] (the dispatcher answers each queued request with the
/// mapped HTTP status).
pub fn try_infer_docs_amortized(
    model: &dyn ModelBackend,
    items: &[BatchItem],
    gather_opts: &GatherOptions,
) -> Result<Vec<DocInference>, BackendError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let metrics = crate::metrics::serve_metrics();
    let k = model.n_topics();
    let alpha = model.alpha();

    let prepared: Vec<_> = items.iter().map(|it| model.prepare(&it.text)).collect();
    let spans: Vec<Vec<(u32, u32)>> = prepared.iter().map(|p| model.segment(&p.doc)).collect();

    INFER_SCRATCH.with(|cell| {
        let InferScratch {
            col_of,
            distinct,
            last_doc,
            local_tokens,
            local_ndk,
            z,
            weights,
            clique,
        } = &mut *cell.borrow_mut();

        // Batch remap: one dense column per distinct word across the whole
        // batch. `last_doc` yields the per-document distinct count (what N
        // separate gathers would have fetched) without a second hash map.
        col_of.clear();
        distinct.clear();
        last_doc.clear();
        local_tokens.clear();
        let mut naive_columns = 0u64;
        for (d, p) in prepared.iter().enumerate() {
            for &w in &p.doc.tokens {
                let col = *col_of.entry(w).or_insert_with(|| {
                    distinct.push(w);
                    last_doc.push(usize::MAX);
                    (distinct.len() - 1) as u32
                });
                if last_doc[col as usize] != d {
                    last_doc[col as usize] = d;
                    naive_columns += 1;
                }
                local_tokens.push(col);
            }
        }

        // Topic-major `k × n_cols`: φ[t][distinct[j]] at `t * n_cols + j`.
        let gather = metrics.stage(crate::metrics::Stage::PhiGather).span();
        let phi = model.try_gather_phi(distinct, gather_opts)?;
        gather.stop();
        let n_cols = distinct.len();
        metrics.phi_columns_total.add(n_cols as u64);
        metrics.batch_phi_columns_gathered.add(n_cols as u64);
        metrics.batch_phi_columns_naive.add(naive_columns);
        let view = FrozenPhiView::new(&phi, n_cols, k);

        let fold = metrics.stage(crate::metrics::Stage::FoldIn).span();
        let mut start = 0;
        let results = items
            .iter()
            .zip(&prepared)
            .zip(&spans)
            .map(|((item, p), spans)| {
                metrics.infer_docs_total.inc();
                let end = start + p.doc.tokens.len();
                let mut rng = StdRng::seed_from_u64(item.seed);
                fold_in_chain(
                    &view,
                    alpha,
                    spans,
                    &local_tokens[start..end],
                    k,
                    item.config.fold_iters,
                    &mut rng,
                    local_ndk,
                    z,
                    weights,
                    clique,
                );
                start = end;
                assemble_inference(
                    model,
                    alpha,
                    k,
                    &p.doc.tokens,
                    spans,
                    local_ndk,
                    z,
                    item.config.top_topics,
                    p.n_oov,
                )
            })
            .collect();
        fold.stop();
        Ok(results)
    })
}

impl crate::frozen::FrozenModel {
    /// Infer topics for one unseen document with the configured seed.
    pub fn infer(&self, text: &str, config: &InferConfig) -> DocInference {
        infer_doc(self, text, config, config.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    #[test]
    fn theta_is_a_distribution_and_deterministic() {
        let m = tiny_model();
        let cfg = InferConfig::default();
        let a = m.infer("support vector machines for data streams", &cfg);
        let b = m.infer("support vector machines for data streams", &cfg);
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        let sum: f64 = a.theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta sums to {sum}");
        assert_eq!(a.theta.len(), m.n_topics());
        assert!(a.n_tokens > 0);
        assert_eq!(a.top_topics.len(), 2.min(cfg.top_topics));
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let m = tiny_model();
        let a = m.infer(
            "mining frequent patterns",
            &InferConfig {
                seed: 1,
                ..InferConfig::default()
            },
        );
        let b = m.infer(
            "mining frequent patterns",
            &InferConfig {
                seed: 2,
                ..InferConfig::default()
            },
        );
        for inf in [&a, &b] {
            let sum: f64 = inf.theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn topical_documents_land_on_the_right_topic() {
        let m = tiny_model();
        let cfg = InferConfig {
            fold_iters: 30,
            ..InferConfig::default()
        };
        // The training corpus has two planted topics; held-out texts drawn
        // from each should rank different top topics.
        let stream = m.infer("mining frequent patterns in data streams", &cfg);
        let svm = m.infer("support vector machines for classification", &cfg);
        assert_ne!(
            stream.top_topics[0].0, svm.top_topics[0].0,
            "stream={:?} svm={:?}",
            stream.top_topics, svm.top_topics
        );
        // And each should be confident about it.
        assert!(stream.top_topics[0].1 > 0.5);
        assert!(svm.top_topics[0].1 > 0.5);
    }

    #[test]
    fn phrase_annotations_cover_the_document_in_order() {
        let m = tiny_model();
        let inf = m.infer(
            "support vector machines, mining frequent patterns",
            &InferConfig::default(),
        );
        let n_words: usize = inf.phrases.iter().map(|p| p.words.len()).sum();
        assert_eq!(n_words, inf.n_tokens);
        for p in &inf.phrases {
            assert!((p.topic as usize) < m.n_topics());
            assert!(!p.text.is_empty());
        }
        // The trained collocation appears as one multi-word annotation.
        assert!(
            inf.phrases.iter().any(|p| p.words.len() >= 2),
            "phrases: {:?}",
            inf.phrases
        );
    }

    #[test]
    fn empty_and_oov_documents_fall_back_to_the_prior() {
        let m = tiny_model();
        let inf = m.infer("zzzz qqqq xxxx", &InferConfig::default());
        assert_eq!(inf.n_tokens, 0);
        assert_eq!(inf.n_oov, 3);
        assert!(inf.phrases.is_empty());
        // θ is the normalized α prior.
        let alpha_sum: f64 = m.alpha.iter().sum();
        for (t, &th) in inf.theta.iter().enumerate() {
            assert!((th - m.alpha[t] / alpha_sum).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_seed_zero_matches_single() {
        let cfg = InferConfig::default();
        assert_eq!(cfg.seed_for_index(0), cfg.seed);
        assert_ne!(cfg.seed_for_index(1), cfg.seed_for_index(2));
    }

    #[test]
    fn amortized_batch_is_bit_identical_to_sequential() {
        let m = tiny_model();
        let cfg = InferConfig::default();
        let texts = [
            "support vector machines for data streams",
            "mining frequent patterns in data streams",
            "",
            "zzzz qqqq",
            "support vector machines, mining frequent patterns",
        ];
        let items: Vec<BatchItem> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| BatchItem {
                text: t.to_string(),
                config: cfg.clone(),
                seed: cfg.seed_for_index(i),
            })
            .collect();
        let opts = GatherOptions::default();
        let batched = try_infer_docs_amortized(&m, &items, &opts).unwrap();
        for (i, item) in items.iter().enumerate() {
            let single = infer_doc(&m, &item.text, &cfg, cfg.seed_for_index(i));
            assert_eq!(batched[i], single, "doc {i} diverged");
        }
        assert!(try_infer_docs_amortized(&m, &[], &opts).unwrap().is_empty());
    }
}

//! Collapsed Gibbs sampling for PhraseLDA (paper §5.3, Eq. 7).
//!
//! The sampler operates on *groups* (cliques). For a clique `C_{d,g}` of
//! size `s` the posterior over its single topic value `k` is
//!
//! ```text
//! p(C = k | W, Z¬C) ∝ ∏_{j=1..s} (α_k + N_dk¬C + j − 1)
//!                     · (β_{w_j} + N_{w_j,k}¬C + m_j) / (Σβ + N_k¬C + j − 1)
//! ```
//!
//! where `m_j` counts previous occurrences of word `w_j` *within the clique*
//! (the exact Gamma-ratio form from the paper's appendix; Eq. 7 prints the
//! common case of distinct words). With `s = 1` this reduces to the
//! standard LDA update, so plain LDA is run through the identical code path
//! with singleton groups — mirroring the paper's measurement setup ("the
//! same JAVA implementation of PhraseLDA is used (as LDA is a special case
//! of PhraseLDA)").
//!
//! The posterior itself lives in [`crate::kernel`] (shared with the serving
//! layer's fold-in); this module is the *scheduler*: it owns the chain
//! state ([`TopicCounts`] + per-group assignments) and decides how a sweep
//! walks the corpus.
//!
//! # Parallel sweeps
//!
//! With `n_threads == 1` a sweep is the classic sequential scan: every
//! update is visible to the next, the historical chain bit-for-bit. With
//! `n_threads = T ≥ 2` the sweep is *thread-sharded* in the style of
//! Newman et al.'s AD-LDA ("Distributed Algorithms for Topic Models", JMLR
//! 2009): the global `N_wk`/`N_k` tables are snapshotted, documents are
//! partitioned into contiguous shards, every document is sampled against
//! `snapshot + its own in-sweep delta` with an RNG stream derived from
//! `(seed, sweep, doc)`, and the per-shard count deltas merge at a barrier.
//!
//! Because each document's view and randomness are independent of which
//! shard it landed in, the chain is **bit-identical for every `T ≥ 2`** —
//! the same determinism contract the serving layer proves for sharded
//! inference. The parallel chain *does* differ from the sequential one
//! (cross-document updates within a sweep are deferred to the barrier);
//! that is the documented snapshot-sweep approximation, property-tested in
//! `tests/parallel_determinism.rs` rather than assumed away.

use crate::counts::{nz_insert, nz_remove, nz_row_insert, nz_row_remove, TopicCounts};
use crate::kernel::{
    clique_posterior, doc_stream_seed, sample_discrete, sample_singleton_sparse_split,
    CliqueScratch, DocBucket, FixedPhiView, SingletonBucket, SmoothingBucket, TrainView,
};
use crate::model::{GroupedDoc, GroupedDocs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use topmine_obs::{DrawSplit, SweepTelemetry, TraceEvent, TraceSink};
use topmine_util::stats::digamma;

/// Which Eq. 7 training kernel the sweeps use. Both kernels sample the
/// exact same posterior *distribution*; they consume the RNG differently,
/// so the two chains diverge draw-by-draw while remaining equal in law
/// (see [`crate::kernel::KERNEL_VERSION`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Dense O(K) posterior walk for every clique — the kernel-version-1
    /// chain, kept selectable (and digest-pinned in the determinism
    /// guards) for comparison.
    Dense,
    /// Bucketed O(active-topics) draw for singleton cliques (smoothing /
    /// document / topic-word decomposition with an alias-served smoothing
    /// bucket); multi-token cliques fall back to the dense path. The
    /// kernel-version-2 chain, and the default.
    #[default]
    Sparse,
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct TopicModelConfig {
    /// Number of topics K.
    pub n_topics: usize,
    /// Initial symmetric document-topic hyperparameter (each α_k starts at
    /// this; optimization may make the vector asymmetric).
    pub alpha: f64,
    /// Symmetric topic-word hyperparameter β.
    pub beta: f64,
    /// RNG seed for initialization and sweeps.
    pub seed: u64,
    /// Optimize α (asymmetric) and β every this many sweeps via Minka's
    /// fixed point; `0` disables (the paper disables it for timed runs).
    pub optimize_every: usize,
    /// Sweeps to run before the first hyperparameter update.
    pub burn_in: usize,
    /// Gibbs worker threads. `1` runs the exact sequential chain; `T ≥ 2`
    /// runs snapshot-and-merge sweeps whose result is bit-identical for
    /// every `T ≥ 2` (see module docs).
    pub n_threads: usize,
    /// Training kernel: sparse bucketed singleton draws (default) or the
    /// dense version-1 path.
    pub kernel: KernelMode,
}

impl Default for TopicModelConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            alpha: 50.0 / 10.0,
            beta: 0.01,
            seed: 1,
            optimize_every: 0,
            burn_in: 50,
            n_threads: 1,
            kernel: KernelMode::default(),
        }
    }
}

impl TopicModelConfig {
    pub fn new(n_topics: usize) -> Self {
        Self {
            n_topics,
            // The conventional LDA default α = 50/K used by MALLET.
            alpha: 50.0 / n_topics as f64,
            ..Self::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }
}

// Per-sweep telemetry (snapshot amortization, sweep timing, singleton
// draw split) lives in the shared [`topmine_obs::SweepTelemetry`] struct,
// surfaced by [`PhraseLda::sweep_stats`] and consumed by the `gibbs_fit`
// bench, the `--progress` flag, and the `TOPMINE_TRACE` sink.

/// Per-shard reusable sweep state: the scatter-gather buffers of the
/// thread-sharded sweep plus the kernel scratch and weight vector. One of
/// these lives per worker shard (and one for the sequential path),
/// allocated on first use and reused across documents *and* sweeps — the
/// steady-state fit loop performs no per-clique or per-document heap
/// allocation.
#[derive(Debug, Clone, Default)]
struct SweepScratch {
    /// Kernel scratch (within-clique multiplicities).
    clique: CliqueScratch,
    /// Unnormalized posterior over topics (length K).
    weights: Vec<f64>,
    /// Word → epoch of the document that last claimed the slot (length V).
    stamp: Vec<u32>,
    /// Word → doc-local id, valid when `stamp[w]` equals the current epoch.
    local_id: Vec<u32>,
    /// Distinct words of the current document, in first-seen order.
    distinct: Vec<u32>,
    /// The document's tokens remapped to doc-local ids.
    local_tokens: Vec<u32>,
    /// Gathered snapshot rows for the distinct words (`n_distinct × K`).
    local_wk: Vec<u32>,
    /// Gathered `N_k` (length K).
    local_nk: Vec<u64>,
    /// Stamp epoch of the document currently being gathered.
    epoch: u32,
    /// Sparse-kernel topic-word weights (length = current word's nnz).
    q_buf: Vec<f64>,
    /// Sparse-kernel smoothing bucket (alias table + dirty set).
    smoothing: SmoothingBucket,
    /// Sparse-kernel document bucket.
    doc_bucket: DocBucket,
    /// Gathered nonzero-topic lists for the distinct words (parallel
    /// sparse path; mirrors `local_wk` rows).
    local_nz: Vec<Vec<u16>>,
}

impl SweepScratch {
    /// Size the K-dependent buffers (no-op once sized).
    fn prepare(&mut self, k: usize) {
        if self.weights.len() != k {
            self.weights.clear();
            self.weights.resize(k, 0.0);
        }
        if self.local_nk.len() != k {
            self.local_nk.clear();
            self.local_nk.resize(k, 0);
        }
    }

    /// Advance the word-stamp epoch for a new document, (re)initializing
    /// the stamp table when the vocabulary size changes or the u32 epoch
    /// space wraps. Returns the epoch the document should stamp with.
    fn next_epoch(&mut self, v: usize) -> u32 {
        if self.stamp.len() != v {
            self.stamp.clear();
            self.stamp.resize(v, u32::MAX);
            self.local_id.clear();
            self.local_id.resize(v, 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.stamp.fill(u32::MAX);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The PhraseLDA (and LDA) collapsed Gibbs sampler.
#[derive(Debug, Clone)]
pub struct PhraseLda {
    docs: GroupedDocs,
    k: usize,
    v: usize,
    /// Document-topic Dirichlet (asymmetric after optimization).
    alpha: Vec<f64>,
    /// Symmetric topic-word Dirichlet.
    beta: f64,
    /// The `N_dk`/`N_wk`/`N_k` tables (plus the amortized snapshot
    /// double-buffer, see [`TopicCounts`]).
    counts: TopicCounts,
    /// Topic of each group: z[d][g].
    z: Vec<Vec<u16>>,
    /// Sequential-path RNG (initialization and `n_threads == 1` sweeps);
    /// parallel sweeps draw from per-document streams instead.
    rng: StdRng,
    sweeps_done: usize,
    config: TopicModelConfig,
    /// One reusable scratch per worker shard (index 0 doubles as the
    /// sequential sweep's scratch), persisted across sweeps.
    scratch: Vec<SweepScratch>,
    stats: SweepTelemetry,
    /// Optional JSONL sink receiving one event per sweep (from
    /// `TOPMINE_TRACE` by default; see [`PhraseLda::set_trace`]).
    trace: Option<Arc<TraceSink>>,
}

impl PhraseLda {
    /// Initialize with uniformly random topic assignments per group.
    /// Initialization is always sequential, so a parallel run starts from
    /// the same state as the sequential chain with the same seed.
    pub fn new(docs: GroupedDocs, config: TopicModelConfig) -> Self {
        let k = config.n_topics;
        assert!(k >= 1 && k <= u16::MAX as usize, "bad topic count");
        assert!(
            config.alpha > 0.0 && config.beta > 0.0,
            "hyperparameters must be positive"
        );
        debug_assert!(docs.validate().is_ok());
        let v = docs.vocab_size;
        let d = docs.n_docs();
        let mut model = Self {
            k,
            v,
            alpha: vec![config.alpha; k],
            beta: config.beta,
            counts: TopicCounts::new(d, v, k),
            z: Vec::with_capacity(d),
            rng: StdRng::seed_from_u64(config.seed),
            sweeps_done: 0,
            config,
            docs,
            scratch: Vec::new(),
            stats: SweepTelemetry::default(),
            trace: TraceSink::from_env(),
        };
        for d in 0..model.docs.n_docs() {
            let n_groups = model.docs.docs[d].n_groups();
            let mut zs = Vec::with_capacity(n_groups);
            for g in 0..n_groups {
                let topic = model.rng.gen_range(0..model.k) as u16;
                zs.push(topic);
                let (start, end) = model.group_range(d, g);
                model
                    .counts
                    .add_group(d, &model.docs.docs[d].tokens[start..end], topic);
            }
            model.z.push(zs);
        }
        model
    }

    /// Plain LDA over a corpus: singleton groups.
    pub fn lda(corpus: &topmine_corpus::Corpus, config: TopicModelConfig) -> Self {
        Self::new(GroupedDocs::unigrams(corpus), config)
    }

    #[inline]
    fn group_range(&self, d: usize, g: usize) -> (usize, usize) {
        let doc = &self.docs.docs[d];
        let start = if g == 0 {
            0
        } else {
            doc.group_ends[g - 1] as usize
        };
        (start, doc.group_ends[g] as usize)
    }

    /// One full Gibbs sweep over every group (Eq. 7 update per clique) —
    /// sequential or thread-sharded according to `config.n_threads`.
    pub fn step(&mut self) {
        let before = self.stats;
        let sweep_start = std::time::Instant::now();
        if self.config.n_threads > 1 {
            self.sweep_parallel(self.config.n_threads);
        } else {
            self.sweep_sequential();
        }
        self.stats.sweeps += 1;
        self.stats.sweep_nanos += sweep_start.elapsed().as_nanos() as u64;
        self.sweeps_done += 1;
        if self.config.optimize_every > 0
            && self.sweeps_done >= self.config.burn_in
            && self.sweeps_done.is_multiple_of(self.config.optimize_every)
        {
            self.optimize_hyperparameters();
        }
        if let Some(trace) = &self.trace {
            let d = self.stats.since(&before);
            trace.emit(
                TraceEvent::new("sweep")
                    .u64("sweep", self.sweeps_done as u64)
                    .str(
                        "kernel",
                        match self.config.kernel {
                            KernelMode::Sparse => "sparse",
                            KernelMode::Dense => "dense",
                        },
                    )
                    .u64("threads", self.config.n_threads.max(1) as u64)
                    .f64("secs", d.sweep_nanos as f64 / 1e9)
                    .f64("snapshot_secs", d.snapshot_nanos as f64 / 1e9)
                    .u64("snapshot_full_clones", d.snapshot_full_clones)
                    .u64("merge_delta_entries", d.merge_delta_entries)
                    .u64("draws_topic_word", d.draws.topic_word)
                    .u64("draws_doc", d.draws.doc)
                    .u64("draws_smoothing", d.draws.smoothing)
                    .u64("draws_dense", d.draws.dense),
            );
        }
    }

    /// The exact sequential sweep: every clique update is visible to the
    /// next. With the dense kernel this is the historical chain,
    /// bit-for-bit; the sparse kernel samples the same posterior through
    /// the bucketed singleton draw (its own deterministic chain, see
    /// [`KernelMode`]).
    fn sweep_sequential(&mut self) {
        let k = self.k;
        let v_beta = self.v as f64 * self.beta;
        let sparse = self.config.kernel == KernelMode::Sparse;
        if self.scratch.is_empty() {
            self.scratch.push(SweepScratch::default());
        }
        let scratch = &mut self.scratch[0];
        scratch.prepare(k);
        if sparse {
            scratch
                .smoothing
                .rebuild(&self.alpha, self.beta, v_beta, self.counts.n_k_table());
        }
        let mut draws = DrawSplit::default();

        for d in 0..self.docs.n_docs() {
            let n_groups = self.z[d].len();
            if sparse {
                // Rebuild cadence: the alias table goes stale as topics
                // dirty; refresh at document boundaries once the dirty
                // walk would cost a meaningful fraction of a dense scan.
                if smoothing_rebuild_due(scratch.smoothing.n_dirty(), k) {
                    scratch.smoothing.rebuild(
                        &self.alpha,
                        self.beta,
                        v_beta,
                        self.counts.n_k_table(),
                    );
                }
                scratch.doc_bucket.begin_doc(
                    self.counts.doc_nz(d),
                    self.counts.doc_row(d),
                    self.counts.n_k_table(),
                    self.beta,
                    v_beta,
                    k,
                );
            }
            let mut start = 0usize;
            for g in 0..n_groups {
                let end = self.docs.docs[d].group_ends[g] as usize;
                // Pull upcoming groups' word rows toward the cache while
                // this group samples — the words are effectively random
                // over V, so without the hint every group starts on a
                // cold `N_wk` row. Two tokens of lookahead: one group's
                // work is shorter than a DRAM round-trip.
                if let Some(&w_next) = self.docs.docs[d].tokens.get(end) {
                    self.counts.prefetch_word(w_next);
                }
                if let Some(&w_next2) = self.docs.docs[d].tokens.get(end + 1) {
                    self.counts.prefetch_word(w_next2);
                }
                let old = self.z[d][g];
                let tokens = &self.docs.docs[d].tokens[start..end];
                self.counts.remove_group(d, tokens, old);
                if sparse {
                    let t = old as usize;
                    let inv_den = 1.0 / (v_beta + self.counts.n_k_table()[t] as f64);
                    scratch.doc_bucket.update_topic(
                        t,
                        self.counts.doc_row(d)[t],
                        self.beta,
                        inv_den,
                    );
                    scratch
                        .smoothing
                        .mark_dirty(t, self.alpha[t], self.beta, inv_den);
                }
                let new = if sparse && tokens.len() == 1 {
                    let w = tokens[0];
                    let (t, bucket) = sample_singleton_sparse_split(
                        &mut self.rng,
                        &self.alpha,
                        v_beta,
                        self.counts.word_row(w),
                        self.counts.word_nz(w),
                        self.counts.doc_row(d),
                        self.counts.doc_nz(d),
                        self.counts.n_k_table(),
                        &scratch.doc_bucket,
                        &scratch.smoothing,
                        &mut scratch.q_buf,
                    );
                    tally_draw(&mut draws, bucket);
                    t as u16
                } else {
                    let view = TrainView::new(
                        self.counts.n_wk_table(),
                        self.counts.n_k_table(),
                        k,
                        self.beta,
                        v_beta,
                    );
                    clique_posterior(
                        &view,
                        &self.alpha,
                        self.counts.doc_row(d),
                        tokens,
                        &mut scratch.clique,
                        &mut scratch.weights,
                    );
                    draws.dense += 1;
                    sample_discrete(&mut self.rng, &scratch.weights) as u16
                };
                self.z[d][g] = new;
                self.counts.add_group(d, tokens, new);
                if sparse {
                    let t = new as usize;
                    let inv_den = 1.0 / (v_beta + self.counts.n_k_table()[t] as f64);
                    scratch.doc_bucket.update_topic(
                        t,
                        self.counts.doc_row(d)[t],
                        self.beta,
                        inv_den,
                    );
                    scratch
                        .smoothing
                        .mark_dirty(t, self.alpha[t], self.beta, inv_den);
                }
                start = end;
            }
        }
        self.stats.draws.merge(&draws);
    }

    /// One thread-sharded snapshot sweep (see module docs): bit-identical
    /// for every `threads ≥ 2`, regardless of how many cores actually run.
    ///
    /// The sweep-start snapshot is *amortized*: instead of cloning the
    /// full `N_wk`/`N_k` tables (O(V·K)) every sweep, [`TopicCounts`]
    /// keeps a double buffer that the previous barrier merge already
    /// rolled the sparse deltas into — producing this sweep's snapshot in
    /// O(nnz of the last sweep). A full clone happens only on the first
    /// parallel sweep (or after a sequential mutation invalidated the
    /// buffer), and the result is bit-identical either way.
    fn sweep_parallel(&mut self, threads: usize) {
        let n_docs = self.docs.n_docs();
        if n_docs == 0 {
            return;
        }
        // Sparse merge deltas index the V×K table through u32.
        assert!(
            self.v.saturating_mul(self.k) <= u32::MAX as usize,
            "vocab_size * n_topics exceeds the u32 delta index space"
        );
        let k = self.k;
        let v_beta = self.v as f64 * self.beta;
        let shards = threads.min(n_docs);
        let chunk = n_docs.div_ceil(shards);
        if self.scratch.len() < shards {
            self.scratch.resize_with(shards, SweepScratch::default);
        }
        // Sweep-start snapshot every document samples against: rolled
        // forward from the previous sweep when possible, cloned otherwise.
        let snap_start = std::time::Instant::now();
        let cells = self.counts.refresh_snapshot();
        if cells > 0 {
            self.stats.snapshot_full_clones += 1;
            self.stats.snapshot_cells_cloned += cells as u64;
        }
        self.stats.parallel_sweeps += 1;
        self.stats.snapshot_nanos += snap_start.elapsed().as_nanos() as u64;
        let views = self.counts.sweep_views();
        let (snap_wk, snap_k, ndk) = (views.snap_wk, views.snap_k, views.n_dk);
        let (nz_wk, nz_wk_len) = (views.nz_wk, views.nz_wk_len);
        let (nz_dk, nz_dk_len) = (views.nz_dk, views.nz_dk_len);
        let sparse = self.config.kernel == KernelMode::Sparse;
        let sweep = self.sweeps_done as u64;
        let seed = self.config.seed;
        let alpha = &self.alpha;
        let beta = self.beta;
        let docs = &self.docs.docs;
        let z = &mut self.z;
        let scratches = &mut self.scratch;
        let deltas: Vec<ShardDelta> = std::thread::scope(|scope| {
            let handles: Vec<_> = docs
                .chunks(chunk)
                .zip(z.chunks_mut(chunk))
                .zip(ndk.chunks_mut(chunk * k))
                .zip(nz_dk.chunks_mut(chunk * k))
                .zip(nz_dk_len.chunks_mut(chunk))
                .zip(scratches.iter_mut())
                .enumerate()
                .map(
                    |(
                        si,
                        (
                            ((((doc_shard, z_shard), ndk_shard), nz_dk_shard), nz_dk_len_shard),
                            scratch,
                        ),
                    )| {
                        scope.spawn(move || {
                            sweep_shard(
                                ShardCtx {
                                    docs: doc_shard,
                                    z: z_shard,
                                    ndk: ndk_shard,
                                    nz_dk: nz_dk_shard,
                                    nz_dk_len: nz_dk_len_shard,
                                    snap_wk,
                                    snap_k,
                                    nz_wk,
                                    nz_wk_len,
                                    alpha,
                                    k,
                                    beta,
                                    v_beta,
                                    seed,
                                    sweep,
                                    first_doc: si * chunk,
                                    sparse,
                                },
                                scratch,
                            )
                        })
                    },
                )
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gibbs worker panicked"))
                .collect()
        });
        // Barrier merge. Integer deltas commute, so the merged tables are
        // independent of shard count and merge order. apply_delta rolls
        // each delta into the snapshot buffer too, so the *next* sweep's
        // snapshot is already built by the time the merge finishes.
        let merge_start = std::time::Instant::now();
        for delta in &deltas {
            self.stats.merge_delta_entries += delta.wk.len() as u64;
            self.counts.apply_delta(&delta.wk, &delta.k);
            self.stats.draws.merge(&delta.draws);
        }
        self.stats.snapshot_nanos += merge_start.elapsed().as_nanos() as u64;
    }

    /// Run `iters` sweeps.
    pub fn run(&mut self, iters: usize) {
        for _ in 0..iters {
            self.step();
        }
    }

    /// Run `iters` sweeps, invoking `callback(sweep_index, &self)` after
    /// each (used by the perplexity-vs-iteration experiments, Figures 6/7).
    pub fn run_with<F: FnMut(usize, &Self)>(&mut self, iters: usize, mut callback: F) {
        for _ in 0..iters {
            self.step();
            callback(self.sweeps_done, self);
        }
    }

    // ----- accessors -------------------------------------------------------

    pub fn n_topics(&self) -> usize {
        self.k
    }

    pub fn vocab_size(&self) -> usize {
        self.v
    }

    pub fn docs(&self) -> &GroupedDocs {
        &self.docs
    }

    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The live count tables (read-only).
    pub fn counts(&self) -> &TopicCounts {
        &self.counts
    }

    /// Cumulative sweep telemetry (timing, snapshot amortization,
    /// singleton-draw split) accumulated over all sweeps so far.
    pub fn sweep_stats(&self) -> SweepTelemetry {
        self.stats
    }

    /// Replace the per-sweep trace sink (defaults to the `TOPMINE_TRACE`
    /// environment sink, or none). Pass `None` to silence tracing.
    pub fn set_trace(&mut self, trace: Option<Arc<TraceSink>>) {
        self.trace = trace;
    }

    /// Drop the amortized sweep snapshot, forcing the next parallel sweep
    /// to re-clone the full `N_wk`/`N_k` tables. The chain is unaffected
    /// (an amortized snapshot is bit-identical to a clone); this exists so
    /// benchmarks can measure the historical clone-per-sweep cost and so
    /// tests can prove the equivalence.
    pub fn invalidate_snapshot(&mut self) {
        self.counts.invalidate_snapshot();
    }

    /// Topic currently assigned to group `g` of document `d`.
    pub fn topic_of_group(&self, d: usize, g: usize) -> u16 {
        self.z[d][g]
    }

    /// Point estimate of the topic-word distribution φ (K × V).
    pub fn phi(&self) -> Vec<Vec<f64>> {
        let v_beta = self.v as f64 * self.beta;
        (0..self.k)
            .map(|t| {
                let den = self.counts.n_k(t) as f64 + v_beta;
                (0..self.v)
                    .map(|w| (self.counts.n_wk(w as u32, t) as f64 + self.beta) / den)
                    .collect()
            })
            .collect()
    }

    /// Point estimate of the document-topic distribution θ (D × K).
    pub fn theta(&self) -> Vec<Vec<f64>> {
        let alpha_sum: f64 = self.alpha.iter().sum();
        (0..self.docs.n_docs())
            .map(|d| {
                let n_d = self.docs.docs[d].n_tokens() as f64;
                let den = n_d + alpha_sum;
                (0..self.k)
                    .map(|t| (self.counts.n_dk(d, t) as f64 + self.alpha[t]) / den)
                    .collect()
            })
            .collect()
    }

    /// Number of *effective* topics: topics holding at least `min_share` of
    /// all assigned tokens. A cheap data-driven estimate of how many of the
    /// K requested topics the corpus actually uses — a pragmatic stand-in
    /// for the nonparametric prior the paper's §8 proposes as future work
    /// (run with generous K, read off the occupied topics).
    pub fn effective_topics(&self, min_share: f64) -> usize {
        let total: u64 = (0..self.k).map(|t| self.counts.n_k(t)).sum();
        if total == 0 {
            return 0;
        }
        (0..self.k)
            .filter(|&t| self.counts.n_k(t) as f64 / total as f64 >= min_share)
            .count()
    }

    // ----- perplexity ------------------------------------------------------

    /// Training-corpus perplexity from the current counts:
    /// `exp(−Σ log p(w|d) / N)` with `p(w|d) = Σ_k θ̂_dk φ̂_kw`.
    ///
    /// Tokens are scored individually for both LDA and PhraseLDA, so the
    /// two models' curves are directly comparable (Figures 6 and 7).
    pub fn perplexity(&self) -> f64 {
        let mut log_lik = 0.0f64;
        let mut n = 0u64;
        let alpha_sum: f64 = self.alpha.iter().sum();
        let v_beta = self.v as f64 * self.beta;
        // Precompute φ column denominators.
        let phi_den: Vec<f64> = (0..self.k)
            .map(|t| self.counts.n_k(t) as f64 + v_beta)
            .collect();
        for d in 0..self.docs.n_docs() {
            let doc = &self.docs.docs[d];
            if doc.tokens.is_empty() {
                continue;
            }
            let theta_den = doc.n_tokens() as f64 + alpha_sum;
            let theta: Vec<f64> = (0..self.k)
                .map(|t| (self.counts.n_dk(d, t) as f64 + self.alpha[t]) / theta_den)
                .collect();
            for &w in &doc.tokens {
                let mut p = 0.0;
                for t in 0..self.k {
                    p += theta[t] * (self.counts.n_wk(w, t) as f64 + self.beta) / phi_den[t];
                }
                log_lik += p.ln();
                n += 1;
            }
        }
        if n == 0 {
            return f64::NAN;
        }
        (-log_lik / n as f64).exp()
    }

    /// Held-out perplexity by document completion.
    ///
    /// For each held-out document, the even-indexed *groups* are observed
    /// and the odd-indexed groups are scored — so two models sharing one
    /// grouping score exactly the same unseen tokens. Fold-in estimates θ
    /// with a short Gibbs chain over the observed half with φ frozen at the
    /// training counts. `fold_in` selects the fold-in unit:
    ///
    /// * [`FoldIn::Groups`] — one topic per observed group (PhraseLDA's own
    ///   inference assumption, Eq. 7 with frozen φ);
    /// * [`FoldIn::Tokens`] — one topic per observed token (plain LDA).
    ///
    /// Comparing PhraseLDA(`Groups`) against LDA(`Tokens`) over the same
    /// grouping evaluates each model under its own assumption on identical
    /// unseen tokens — the paper's Figures 6 and 7 comparison.
    pub fn heldout_perplexity(
        &self,
        heldout: &GroupedDocs,
        fold_iters: usize,
        seed: u64,
        fold_in: FoldIn,
    ) -> f64 {
        assert_eq!(heldout.vocab_size, self.v, "vocabulary mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let v_beta = self.v as f64 * self.beta;
        let phi_den: Vec<f64> = (0..self.k)
            .map(|t| self.counts.n_k(t) as f64 + v_beta)
            .collect();
        let view = FixedPhiView::new(self.counts.n_wk_table(), &phi_den, self.k, self.beta);
        let alpha_sum: f64 = self.alpha.iter().sum();

        let mut log_lik = 0.0f64;
        let mut n = 0u64;
        let mut weights = vec![0.0f64; self.k];
        let mut scratch = CliqueScratch::default();

        for doc in &heldout.docs {
            if doc.n_groups() < 2 {
                continue;
            }
            // Observed half: even groups, as fold-in units.
            let observed: Vec<(usize, usize)> = match fold_in {
                FoldIn::Groups => doc
                    .group_ranges()
                    .enumerate()
                    .filter(|(g, _)| g % 2 == 0)
                    .map(|(_, r)| r)
                    .collect(),
                FoldIn::Tokens => doc
                    .group_ranges()
                    .enumerate()
                    .filter(|(g, _)| g % 2 == 0)
                    .flat_map(|(_, (s, e))| (s..e).map(|i| (i, i + 1)))
                    .collect(),
            };
            let mut local_ndk = vec![0u32; self.k];
            let mut local_z: Vec<u16> = Vec::with_capacity(observed.len());
            let mut n_obs = 0u32;
            for &(s, e) in &observed {
                let t = rng.gen_range(0..self.k) as u16;
                local_ndk[t as usize] += (e - s) as u32;
                n_obs += (e - s) as u32;
                local_z.push(t);
            }
            for _ in 0..fold_iters {
                for (gi, &(s, e)) in observed.iter().enumerate() {
                    let old = local_z[gi] as usize;
                    local_ndk[old] -= (e - s) as u32;
                    clique_posterior(
                        &view,
                        &self.alpha,
                        &local_ndk,
                        &doc.tokens[s..e],
                        &mut scratch,
                        &mut weights,
                    );
                    let new = sample_discrete(&mut rng, &weights);
                    local_z[gi] = new as u16;
                    local_ndk[new] += (e - s) as u32;
                }
            }
            let theta_den = n_obs as f64 + alpha_sum;
            let theta: Vec<f64> = (0..self.k)
                .map(|t| (local_ndk[t] as f64 + self.alpha[t]) / theta_den)
                .collect();
            // Score the unseen half: odd groups.
            for (g, (s, e)) in doc.group_ranges().enumerate() {
                if g % 2 == 0 {
                    continue;
                }
                for i in s..e {
                    let w = doc.tokens[i];
                    let mut p = 0.0;
                    for t in 0..self.k {
                        p += theta[t] * (self.counts.n_wk(w, t) as f64 + self.beta) / phi_den[t];
                    }
                    log_lik += p.ln();
                    n += 1;
                }
            }
        }
        if n == 0 {
            return f64::NAN;
        }
        (-log_lik / n as f64).exp()
    }

    // ----- hyperparameter optimization (paper §5.3, Minka 2000) ------------

    /// One round of Minka's fixed-point updates: asymmetric α, symmetric β.
    pub fn optimize_hyperparameters(&mut self) {
        self.optimize_alpha(3);
        self.optimize_beta(3);
    }

    /// Fixed-point iteration for the document-topic Dirichlet:
    /// `α_k ← α_k · (Σ_d ψ(N_dk + α_k) − D ψ(α_k)) / (Σ_d ψ(N_d + Σα) − D ψ(Σα))`.
    pub fn optimize_alpha(&mut self, rounds: usize) {
        let d_count = self.docs.n_docs();
        if d_count == 0 {
            return;
        }
        let doc_lens: Vec<f64> = self.docs.docs.iter().map(|d| d.n_tokens() as f64).collect();
        for _ in 0..rounds {
            let alpha_sum: f64 = self.alpha.iter().sum();
            let den: f64 = doc_lens
                .iter()
                .map(|&n| digamma(n + alpha_sum))
                .sum::<f64>()
                - d_count as f64 * digamma(alpha_sum);
            if den <= 0.0 {
                return;
            }
            for t in 0..self.k {
                let a = self.alpha[t];
                let num: f64 = (0..d_count)
                    .map(|d| digamma(self.counts.n_dk(d, t) as f64 + a))
                    .sum::<f64>()
                    - d_count as f64 * digamma(a);
                // Clamp to keep the Dirichlet proper even on degenerate counts.
                self.alpha[t] = (a * num / den).clamp(1e-6, 1e4);
            }
        }
    }

    /// Fixed-point iteration for the symmetric topic-word Dirichlet β.
    pub fn optimize_beta(&mut self, rounds: usize) {
        let kv = (self.k * self.v) as f64;
        if kv == 0.0 {
            return;
        }
        for _ in 0..rounds {
            let b = self.beta;
            let num: f64 = self
                .counts
                .n_wk_table()
                .iter()
                .map(|&c| digamma(c as f64 + b))
                .sum::<f64>()
                - kv * digamma(b);
            let den: f64 = self
                .counts
                .n_k_table()
                .iter()
                .map(|&c| digamma(c as f64 + self.v as f64 * b))
                .sum::<f64>()
                - self.k as f64 * digamma(self.v as f64 * b);
            if den <= 0.0 {
                return;
            }
            self.beta = (b * num / (self.v as f64 * den)).clamp(1e-6, 1e3);
        }
    }

    /// Internal consistency check of all count tables (tests).
    pub fn check_counts(&self) -> Result<(), String> {
        let mut rebuilt = TopicCounts::new(self.docs.n_docs(), self.v, self.k);
        for (d, doc) in self.docs.docs.iter().enumerate() {
            for (g, (s, e)) in doc.group_ranges().enumerate() {
                rebuilt.add_group(d, &doc.tokens[s..e], self.z[d][g]);
            }
        }
        if rebuilt != self.counts {
            return Err("count tables out of sync with assignments".into());
        }
        self.counts
            .validate_nz()
            .map_err(|e| format!("sparse nonzero index out of sync: {e}"))?;
        Ok(())
    }
}

/// Sequential-sweep alias rebuild cadence: refresh once the dirty walk
/// would cost a meaningful fraction of a dense O(K) scan. The threshold
/// floor keeps tiny-K models from rebuilding every document.
#[inline]
fn smoothing_rebuild_due(n_dirty: usize, k: usize) -> bool {
    n_dirty > (k / 8).max(16)
}

/// Fold one resolved singleton draw into the telemetry split.
#[inline]
fn tally_draw(draws: &mut DrawSplit, bucket: SingletonBucket) {
    match bucket {
        SingletonBucket::TopicWord => draws.topic_word += 1,
        SingletonBucket::Doc => draws.doc += 1,
        SingletonBucket::Smoothing => draws.smoothing += 1,
    }
}

/// One shard's contribution to the barrier merge: sparse `(row-major
/// index, delta)` pairs over `N_wk`, a dense `Δ N_k`, and the shard's
/// singleton-draw telemetry (merged into [`SweepTelemetry`] at the
/// barrier, so workers never touch shared counters).
struct ShardDelta {
    wk: Vec<(u32, i32)>,
    k: Vec<i64>,
    draws: DrawSplit,
}

/// Everything one worker needs to sweep its contiguous document shard.
struct ShardCtx<'a> {
    docs: &'a [GroupedDoc],
    z: &'a mut [Vec<u16>],
    /// The shard's `N_dk` rows (documents are partitioned, so these are
    /// exclusively owned and updated live, exactly as in the sequential
    /// sweep).
    ndk: &'a mut [u32],
    /// The shard's per-document nonzero-topic rows (flat, capacity K per
    /// doc), owned like `ndk` and kept in sync with it (whichever kernel
    /// runs, so the index never goes stale).
    nz_dk: &'a mut [u16],
    /// Live lengths of the shard's `nz_dk` rows.
    nz_dk_len: &'a mut [u16],
    snap_wk: &'a [u32],
    snap_k: &'a [u64],
    /// Per-word nonzero rows of the snapshot (flat, capacity K per word;
    /// live tables are untouched during a sweep, so these describe
    /// `snap_wk` exactly).
    nz_wk: &'a [u16],
    /// Live lengths of the `nz_wk` rows.
    nz_wk_len: &'a [u16],
    alpha: &'a [f64],
    k: usize,
    beta: f64,
    v_beta: f64,
    seed: u64,
    sweep: u64,
    first_doc: usize,
    /// Whether to run the bucketed sparse singleton kernel.
    sparse: bool,
}

/// Sweep one shard against the snapshot and return its signed
/// `(Δ N_wk, Δ N_k)` for the barrier merge — `Δ N_wk` as a sparse
/// `(index, delta)` list, so merge cost tracks how much actually changed
/// rather than `V × K`.
///
/// Each document is gathered onto a dense local word table (the same
/// scatter-gather shape `topmine_serve::infer` uses), so the hot loop
/// reads `snapshot + own-document delta` without ever touching shared
/// state — the result depends only on `(snapshot, doc, its RNG stream)`,
/// never on shard layout. All buffers live in the caller-owned
/// [`SweepScratch`] and persist across documents and sweeps, so the
/// steady-state shard sweep allocates nothing but its returned delta.
fn sweep_shard(ctx: ShardCtx<'_>, scratch: &mut SweepScratch) -> ShardDelta {
    let ShardCtx {
        docs,
        z,
        ndk,
        nz_dk,
        nz_dk_len,
        snap_wk,
        snap_k,
        nz_wk,
        nz_wk_len,
        alpha,
        k,
        beta,
        v_beta,
        seed,
        sweep,
        first_doc,
        sparse,
    } = ctx;
    let v = snap_wk.len() / k;
    let mut delta_wk: Vec<(u32, i32)> = Vec::new();
    let mut delta_k = vec![0i64; k];
    let mut draws = DrawSplit::default();
    scratch.prepare(k);
    if sparse {
        // One alias rebuild per shard per sweep, against the frozen
        // snapshot `N_k`. Every document restarts its local `N_k` from the
        // snapshot, so the per-document dirty set resets at doc
        // boundaries — the table never goes stale within a sweep, and the
        // draw is a function of (snapshot, doc, stream) exactly like the
        // dense path, independent of shard layout.
        scratch.smoothing.rebuild(alpha, beta, v_beta, snap_k);
    }

    for (i, doc) in docs.iter().enumerate() {
        if doc.group_ends.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(doc_stream_seed(seed, sweep, (first_doc + i) as u64));
        // Gather: dense doc-local word ids plus their snapshot rows. The
        // word → doc-local id map is a stamped table (O(1), no hashing);
        // the stamp records which epoch (document) last claimed the slot.
        let epoch = scratch.next_epoch(v);
        scratch.distinct.clear();
        scratch.local_tokens.clear();
        for &w in &doc.tokens {
            let wi = w as usize;
            if scratch.stamp[wi] != epoch {
                scratch.stamp[wi] = epoch;
                scratch.local_id[wi] = scratch.distinct.len() as u32;
                scratch.distinct.push(w);
            }
            scratch.local_tokens.push(scratch.local_id[wi]);
        }
        // Gathered rows stay unsigned: a document only ever removes counts
        // its own previous-sweep assignments put into the snapshot.
        scratch.local_wk.clear();
        for &w in &scratch.distinct {
            let base = w as usize * k;
            scratch.local_wk.extend_from_slice(&snap_wk[base..base + k]);
        }
        if sparse {
            // Gather the snapshot's nonzero lists alongside the rows; the
            // doc's own moves below keep them in sync with `local_wk`.
            if scratch.local_nz.len() < scratch.distinct.len() {
                scratch
                    .local_nz
                    .resize_with(scratch.distinct.len(), Vec::new);
            }
            for (li, &w) in scratch.distinct.iter().enumerate() {
                let base = w as usize * k;
                scratch.local_nz[li].clear();
                scratch.local_nz[li]
                    .extend_from_slice(&nz_wk[base..base + nz_wk_len[w as usize] as usize]);
            }
        }
        scratch.local_nk.copy_from_slice(snap_k);
        let ndk_row = &mut ndk[i * k..(i + 1) * k];
        let nz_row = &mut nz_dk[i * k..(i + 1) * k];
        let nz_len = &mut nz_dk_len[i];
        let zs = &mut z[i];
        if sparse {
            // `local_nk` just reset to the snapshot the alias table was
            // built over: the dirty set starts empty for every document.
            scratch.smoothing.clear_dirty();
            scratch.doc_bucket.begin_doc(
                &nz_row[..*nz_len as usize],
                ndk_row,
                &scratch.local_nk,
                beta,
                v_beta,
                k,
            );
        }

        let mut start = 0usize;
        for (g, &end) in doc.group_ends.iter().enumerate() {
            let end = end as usize;
            let toks = &scratch.local_tokens[start..end];
            let s = (end - start) as u32;
            let old = zs[g] as usize;
            for &lw in toks {
                let cell = &mut scratch.local_wk[lw as usize * k + old];
                *cell -= 1;
                if sparse && *cell == 0 {
                    nz_remove(&mut scratch.local_nz[lw as usize], old as u16);
                }
            }
            scratch.local_nk[old] -= s as u64;
            ndk_row[old] -= s;
            if ndk_row[old] == 0 {
                nz_row_remove(nz_row, nz_len, old as u16);
            }
            if sparse {
                let inv_den = 1.0 / (v_beta + scratch.local_nk[old] as f64);
                scratch
                    .doc_bucket
                    .update_topic(old, ndk_row[old], beta, inv_den);
                scratch.smoothing.mark_dirty(old, alpha[old], beta, inv_den);
            }

            let new = if sparse && toks.len() == 1 {
                let lw = toks[0] as usize;
                let (t, bucket) = sample_singleton_sparse_split(
                    &mut rng,
                    alpha,
                    v_beta,
                    &scratch.local_wk[lw * k..(lw + 1) * k],
                    &scratch.local_nz[lw],
                    ndk_row,
                    &nz_row[..*nz_len as usize],
                    &scratch.local_nk,
                    &scratch.doc_bucket,
                    &scratch.smoothing,
                    &mut scratch.q_buf,
                );
                tally_draw(&mut draws, bucket);
                t
            } else {
                // The same TrainView the sequential sweep uses, pointed at
                // the doc-local gathered table instead of the global one.
                let view = TrainView::new(&scratch.local_wk, &scratch.local_nk, k, beta, v_beta);
                clique_posterior(
                    &view,
                    alpha,
                    ndk_row,
                    toks,
                    &mut scratch.clique,
                    &mut scratch.weights,
                );
                draws.dense += 1;
                sample_discrete(&mut rng, &scratch.weights)
            };

            zs[g] = new as u16;
            for &lw in toks {
                let cell = &mut scratch.local_wk[lw as usize * k + new];
                if sparse && *cell == 0 {
                    nz_insert(&mut scratch.local_nz[lw as usize], new as u16);
                }
                *cell += 1;
            }
            scratch.local_nk[new] += s as u64;
            if ndk_row[new] == 0 {
                nz_row_insert(nz_row, nz_len, new as u16);
            }
            ndk_row[new] += s;
            if sparse {
                let inv_den = 1.0 / (v_beta + scratch.local_nk[new] as f64);
                scratch
                    .doc_bucket
                    .update_topic(new, ndk_row[new], beta, inv_den);
                scratch.smoothing.mark_dirty(new, alpha[new], beta, inv_den);
            }
            start = end;
        }

        // Fold the document's delta into the shard delta.
        for (li, &w) in scratch.distinct.iter().enumerate() {
            let base = w as usize * k;
            for t in 0..k {
                let dv = scratch.local_wk[li * k + t] as i64 - snap_wk[base + t] as i64;
                if dv != 0 {
                    delta_wk.push(((base + t) as u32, dv as i32));
                }
            }
        }
        for (t, d) in delta_k.iter_mut().enumerate() {
            *d += scratch.local_nk[t] as i64 - snap_k[t] as i64;
        }
    }
    ShardDelta {
        wk: delta_wk,
        k: delta_k,
        draws,
    }
}

/// Fold-in unit for [`PhraseLda::heldout_perplexity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldIn {
    /// One topic per observed group — PhraseLDA's clique assumption.
    Groups,
    /// One topic per observed token — plain LDA.
    Tokens,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GroupedDoc;

    /// Two perfectly separable "topics": words 0-2 in even docs, 3-5 in odd.
    fn separable_docs(group_len: usize) -> GroupedDocs {
        let mut docs = Vec::new();
        for d in 0..40 {
            let base: u32 = if d % 2 == 0 { 0 } else { 3 };
            let tokens: Vec<u32> = (0..24).map(|i| base + (i % 3) as u32).collect();
            let group_ends = (1..=tokens.len() as u32 / group_len as u32)
                .map(|g| g * group_len as u32)
                .collect();
            docs.push(GroupedDoc { tokens, group_ends });
        }
        GroupedDocs {
            docs,
            vocab_size: 6,
        }
    }

    #[test]
    fn counts_stay_consistent_through_sweeps() {
        let mut m = PhraseLda::new(separable_docs(2), TopicModelConfig::new(3).with_seed(7));
        m.check_counts().unwrap();
        m.run(5);
        m.check_counts().unwrap();
        assert_eq!(m.sweeps_done(), 5);
    }

    #[test]
    fn counts_stay_consistent_through_parallel_sweeps() {
        let mut m = PhraseLda::new(
            separable_docs(2),
            TopicModelConfig::new(3).with_seed(7).with_threads(3),
        );
        m.run(5);
        m.check_counts().unwrap();
        assert_eq!(m.sweeps_done(), 5);
    }

    #[test]
    fn recovers_separable_topics() {
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 42,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
                ..TopicModelConfig::default()
            },
        );
        m.run(60);
        // Words 0-2 should concentrate in one topic, 3-5 in the other.
        let phi = m.phi();
        let topic_of = |w: usize| if phi[0][w] > phi[1][w] { 0 } else { 1 };
        let t0 = topic_of(0);
        assert_eq!(topic_of(1), t0);
        assert_eq!(topic_of(2), t0);
        assert_eq!(topic_of(3), 1 - t0);
        assert_eq!(topic_of(4), 1 - t0);
        assert_eq!(topic_of(5), 1 - t0);
        // And φ should be lopsided, not uniform.
        assert!(phi[t0][0] > 0.2);
        assert!(phi[t0][3] < 0.05);
    }

    #[test]
    fn parallel_chain_recovers_separable_topics_too() {
        // The snapshot-sweep approximation must still mix to the planted
        // structure (Newman et al. report indistinguishable quality).
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 42,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 4,
                ..TopicModelConfig::default()
            },
        );
        m.run(60);
        let phi = m.phi();
        let topic_of = |w: usize| if phi[0][w] > phi[1][w] { 0 } else { 1 };
        let t0 = topic_of(0);
        assert_eq!(topic_of(1), t0);
        assert_eq!(topic_of(2), t0);
        assert_eq!(topic_of(3), 1 - t0);
        assert!(phi[t0][0] > 0.2);
        assert!(phi[t0][3] < 0.05);
    }

    #[test]
    fn groups_share_one_topic() {
        let mut m = PhraseLda::new(separable_docs(4), TopicModelConfig::new(4).with_seed(3));
        m.run(3);
        // The invariant is structural: z is stored per group, and counts
        // move s tokens at a time; check_counts verifies the bookkeeping.
        m.check_counts().unwrap();
        // All four tokens of any group contribute to the same topic's n_wk.
        let phi = m.phi();
        assert_eq!(phi.len(), 4);
    }

    #[test]
    fn phi_and_theta_are_distributions() {
        let mut m = PhraseLda::new(separable_docs(2), TopicModelConfig::new(3).with_seed(11));
        m.run(5);
        for row in m.phi() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "phi row sums to {s}");
            assert!(row.iter().all(|&p| p > 0.0));
        }
        for row in m.theta() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "theta row sums to {s}");
        }
    }

    #[test]
    fn perplexity_decreases_with_training() {
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 5,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
                ..TopicModelConfig::default()
            },
        );
        let before = m.perplexity();
        m.run(50);
        let after = m.perplexity();
        assert!(
            after < before,
            "perplexity should fall: {before} -> {after}"
        );
        // Perfectly separable vocab of 6 with 2 topics of 3 words each:
        // ideal per-token perplexity approaches 3.
        assert!(after < 4.5, "after = {after}");
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let cfg = TopicModelConfig::new(3).with_seed(99);
        let mut a = PhraseLda::new(separable_docs(2), cfg.clone());
        let mut b = PhraseLda::new(separable_docs(2), cfg);
        a.run(10);
        b.run(10);
        assert_eq!(a.z, b.z);
        assert_eq!(a.perplexity(), b.perplexity());
    }

    #[test]
    fn thread_count_does_not_change_the_parallel_chain() {
        // The core contract: T = 2 and T = 5 produce the same chain on the
        // same seed (the heavier sweep across {2,3,7} with φ/θ equality is
        // property-tested in tests/parallel_determinism.rs).
        let mut a = PhraseLda::new(
            separable_docs(2),
            TopicModelConfig::new(3).with_seed(99).with_threads(2),
        );
        let mut b = PhraseLda::new(
            separable_docs(2),
            TopicModelConfig::new(3).with_seed(99).with_threads(5),
        );
        a.run(10);
        b.run(10);
        assert_eq!(a.z, b.z);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.perplexity(), b.perplexity());
    }

    #[test]
    fn hyperparameter_optimization_moves_and_stays_positive() {
        let mut m = PhraseLda::new(
            separable_docs(1),
            TopicModelConfig {
                n_topics: 2,
                alpha: 2.0,
                beta: 0.5,
                seed: 8,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
                ..TopicModelConfig::default()
            },
        );
        m.run(30);
        let alpha_before = m.alpha().to_vec();
        let beta_before = m.beta();
        m.optimize_hyperparameters();
        assert!(m.alpha().iter().all(|&a| a > 0.0));
        assert!(m.beta() > 0.0);
        // Sharply concentrated corpus: both should shrink.
        assert!(m.alpha().iter().sum::<f64>() < alpha_before.iter().sum::<f64>());
        assert!(m.beta() < beta_before);
        m.check_counts().unwrap();
    }

    #[test]
    fn heldout_perplexity_is_finite_and_better_than_uniform() {
        let all = separable_docs(1);
        let (train, held) = all.split_heldout(4);
        let mut m = PhraseLda::new(
            train,
            TopicModelConfig {
                n_topics: 2,
                alpha: 0.5,
                beta: 0.01,
                seed: 21,
                optimize_every: 0,
                burn_in: 0,
                n_threads: 1,
                ..TopicModelConfig::default()
            },
        );
        m.run(60);
        let pp = m.heldout_perplexity(&held, 20, 1, FoldIn::Tokens);
        assert!(pp.is_finite());
        // Uniform over V=6 would give 6.
        assert!(pp < 6.0, "held-out perplexity {pp}");
    }

    #[test]
    fn run_with_reports_every_sweep() {
        let mut m = PhraseLda::new(separable_docs(2), TopicModelConfig::new(2).with_seed(1));
        let mut seen = Vec::new();
        m.run_with(4, |i, model| {
            seen.push((i, model.sweeps_done()));
        });
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn empty_docs_are_tolerated() {
        let docs = GroupedDocs {
            docs: vec![
                GroupedDoc::default(),
                GroupedDoc {
                    tokens: vec![0, 1],
                    group_ends: vec![2],
                },
            ],
            vocab_size: 2,
        };
        let mut m = PhraseLda::new(docs.clone(), TopicModelConfig::new(2).with_seed(2));
        m.run(3);
        m.check_counts().unwrap();
        assert!(m.perplexity().is_finite());
        // Same corpus through the sharded path (more shards than non-empty
        // docs, empty doc in its own shard).
        let mut p = PhraseLda::new(docs, TopicModelConfig::new(2).with_seed(2).with_threads(4));
        p.run(3);
        p.check_counts().unwrap();
        assert!(p.perplexity().is_finite());
    }
}

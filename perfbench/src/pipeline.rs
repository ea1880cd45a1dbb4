//! The offline job: raw text → corpus → mined phrases → segmentation →
//! PhraseLDA → frozen, saved bundle, with each layer call timed.

use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use topmine::ToPMineConfig;
use topmine_corpus::{Corpus, CorpusBuilder, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::{
    MinerConfig, MiningTelemetry, PhraseStats, Segmentation, Segmenter, SegmenterConfig,
};
use topmine_serve::FrozenModel;

/// Significance threshold α of Algorithm 2, as the experiment binaries use.
pub const SEG_ALPHA: f64 = 3.0;

/// Worker threads of the timed job's mining, segmentation and Gibbs
/// sweeps. One: on a 2-vCPU shared host a 2-thread job stalls at every
/// level and sweep barrier whenever either core is taken from it, and it
/// also ran slower than one thread (see README.md).
pub const JOB_THREADS: usize = 1;

/// What one job builds.
#[derive(Clone)]
pub struct JobSpec {
    pub n_topics: usize,
    /// PhraseLDA sweeps; 0 ends the job after segmentation.
    pub sweeps: usize,
    pub seed: u64,
}

/// Wall time of each layer call in one job, in seconds.
#[derive(Default, Clone)]
pub struct LayerTimes {
    pub corpus_s: f64,
    pub mine_s: f64,
    pub segment_s: f64,
    pub lda_init_s: f64,
    pub sweep_s: Vec<f64>,
    pub freeze_s: f64,
    pub save_s: f64,
}

pub struct JobOutput {
    pub corpus: Corpus,
    pub stats: PhraseStats,
    pub mining: MiningTelemetry,
    pub seg: Segmentation,
    pub lda: Option<PhraseLda>,
    pub frozen: Option<FrozenModel>,
    pub times: LayerTimes,
    pub job_s: f64,
}

/// Time `f` inside a span; return its result and its wall seconds.
pub fn timed<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.span(name, || {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    })
}

pub fn segmenter(corpus: &Corpus, threads: usize) -> Segmenter {
    Segmenter::new(SegmenterConfig {
        miner: MinerConfig {
            min_support: ToPMineConfig::support_for_corpus(corpus),
            n_threads: threads,
            ..MinerConfig::default()
        },
        alpha: SEG_ALPHA,
        n_threads: threads,
    })
}

pub fn lda_config(spec: &JobSpec, threads: usize) -> TopicModelConfig {
    TopicModelConfig::new(spec.n_topics)
        .with_seed(spec.seed)
        .with_threads(threads)
}

pub fn build_corpus(texts: &[String]) -> Corpus {
    let mut builder = CorpusBuilder::new(CorpusOptions::paper());
    builder.add_documents(texts.iter().map(String::as_str));
    builder.build()
}

/// Freeze a fitted sampler with the job's preprocessing contract.
pub fn freeze(corpus: &Corpus, stats: &PhraseStats, lda: &PhraseLda) -> FrozenModel {
    FrozenModel::freeze(corpus, stats, SEG_ALPHA, lda, &CorpusOptions::paper())
}

/// Run the whole job once. `bundle_dir` receives the saved bundle when
/// the spec fits a topic model.
pub fn run_job(texts: &[String], spec: &JobSpec, bundle_dir: &Path, tracer: &Tracer) -> JobOutput {
    let start = Instant::now();
    let mut times = LayerTimes::default();
    let (corpus, t) = timed(tracer, "corpus.build", || build_corpus(texts));
    times.corpus_s = t;
    let segmenter = segmenter(&corpus, JOB_THREADS);
    let ((stats, mining), t) = timed(tracer, "phrase.mine", || segmenter.mine(&corpus));
    times.mine_s = t;
    let (seg, t) = timed(tracer, "phrase.segment", || {
        segmenter.segment_with_stats(&corpus, &stats)
    });
    times.segment_s = t;
    let (mut lda, mut frozen) = (None, None);
    if spec.sweeps > 0 {
        let (mut model, t) = timed(tracer, "lda.init", || {
            let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
            PhraseLda::new(grouped, lda_config(spec, JOB_THREADS))
        });
        times.lda_init_s = t;
        for _ in 0..spec.sweeps {
            let ((), t) = timed(tracer, "lda.step", || model.step());
            times.sweep_s.push(t);
        }
        let (fz, t) = timed(tracer, "serve.freeze", || freeze(&corpus, &stats, &model));
        times.freeze_s = t;
        let (saved, t) = timed(tracer, "serve.save", || fz.save(bundle_dir));
        saved.expect("save the bundle");
        times.save_s = t;
        lda = Some(model);
        frozen = Some(fz);
    }
    JobOutput {
        corpus,
        stats,
        mining,
        seg,
        lda,
        frozen,
        times,
        job_s: start.elapsed().as_secs_f64(),
    }
}

/// Seconds per sweep of the first `sweeps` sweeps of a fresh sampler over
/// `out`'s segmentation at `threads` threads.
pub fn replay_sweeps(
    out: &JobOutput,
    spec: &JobSpec,
    threads: usize,
    sweeps: usize,
    tracer: &Tracer,
) -> Vec<f64> {
    let grouped = GroupedDocs::from_segmentation(&out.corpus, &out.seg);
    let mut model = PhraseLda::new(grouped, lda_config(spec, threads));
    (0..sweeps)
        .map(|_| timed(tracer, "lda.step", || model.step()).1)
        .collect()
}

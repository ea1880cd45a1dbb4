//! Topic modeling for ToPMine (paper §5).
//!
//! * [`model`] — the grouped-document representation: documents as
//!   sequences of cliques (phrase instances), of which the bag-of-words LDA
//!   input is the singleton-group special case.
//! * [`kernel`] — the shared Eq. 7 clique-posterior kernel behind a
//!   [`kernel::CountsView`] seam (live counts, gathered snapshots, frozen
//!   φ) plus the single `sample_discrete`; used by training *and* by
//!   `topmine_serve`'s fold-in, so the two can never drift. Since
//!   `kernel::KERNEL_VERSION` 2 it also hosts the bucketed
//!   O(active-topics) singleton draw (smoothing/document/topic-word
//!   decomposition with an alias-served smoothing bucket).
//! * [`counts`] — the `N_dk`/`N_wk`/`N_k` count state the sampler mutates,
//!   snapshots, and merges, plus the sorted nonzero-topic indexes the
//!   sparse kernel iterates.
//! * [`sampler`] — the sweep scheduler over the kernel: the exact
//!   sequential chain (`n_threads == 1`) and the thread-sharded
//!   snapshot-and-merge sweep (bit-identical across all `n_threads ≥ 2`),
//!   training/held-out perplexity, and Minka fixed-point hyperparameter
//!   optimization (§5.3).
//! * [`io`] — the TSV pieces `topmine_serve`'s model bundles are written
//!   and read with: the φ matrix and versioned `key<TAB>value` headers.
//! * [`viz`] — topical-frequency ranking (Eq. 8) and the table renderer
//!   regenerating the layout of the paper's Tables 1 and 4-6.

pub mod counts;
pub mod io;
pub mod kernel;
pub mod model;
pub mod sampler;
pub mod viz;

pub use counts::TopicCounts;
pub use kernel::KERNEL_VERSION;
pub use model::{GroupedDoc, GroupedDocs};
pub use sampler::{FoldIn, KernelMode, PhraseLda, TopicModelConfig};
pub use topmine_obs::{DrawSplit, SweepTelemetry};
pub use viz::{
    background_phrases, render_topic_table, summarize_topics, summarize_topics_filtered,
    topical_frequencies, TopicSummary,
};

//! Serving fitted ToPMine models (the reproduction's production seam).
//!
//! The paper's pipeline is batch-only: mine phrases, fit PhraseLDA, print
//! topics. This crate adds the missing path from a fitted model to
//! answering *"what are the topical phrases in this new document?"*, in
//! three layers:
//!
//! * [`backend`] — the **seam**: [`ModelBackend`], the trait everything
//!   below the HTTP layer talks to, implemented by the in-memory
//!   [`FrozenModel`] and the fleet router [`RemoteShardedModel`];
//! * [`frozen`] — the **model**: [`FrozenModel`], an immutable, versioned,
//!   single-directory bundle holding the preprocessing contract
//!   (vocabulary, stemming, stop words), the phrase lexicon as a prefix
//!   trie ([`PhraseTrie`]), and the topic model point estimate (φ, α, β);
//!   the one model a process holds in memory, whichever layout it was
//!   loaded from;
//! * [`sharded`] — the **fleet's on-disk layout**: [`ShardedModel`]
//!   writes a model as N vocabulary-range shards (a `manifest.tsv` plus
//!   one `shard-K/` vocab/lexicon/φ slice each); loading one without a
//!   fleet puts the shards back together into one [`FrozenModel`];
//! * [`infer`] — **fold-in inference**: segment unseen text with the
//!   frozen lexicon (Algorithm 2 against the trie), gather the φ columns
//!   a batch of documents touches in one shared gather, then run a short
//!   fixed-φ Gibbs chain per document preserving the phrase-clique
//!   constraint (Eq. 7) to get θ, topic rankings, and per-phrase topic
//!   annotations — deterministic given a seed. A single document is a
//!   batch of one: there is one fold-in implementation;
//! * [`engine`] / [`cache`] / [`http`] — the **query engine and server**:
//!   [`QueryEngine`] puts a bounded LRU response cache, probed per
//!   document, in front of that batch fold-in (large in-process batches
//!   are cut into chunks folded in on scoped threads), fronted by a
//!   std-only HTTP/1.1 keep-alive server (`topmine serve`);
//!   `topmine infer` is the one-shot sibling. The server runs one of two
//!   front ends over a shared admission pipeline (`dispatch`): a
//!   single-threaded epoll event loop on Linux/x86-64
//!   (`event_loop`, raw syscalls — no libc) or a portable blocking
//!   accept loop. Inference requests pass through a **bounded admission
//!   queue** (overflow ⇒ `429` + `Retry-After`, deadline expiry ⇒ `504`)
//!   and are drained in coalesced batches that share one φ gather across
//!   documents (`/infer_batch`, or adjacent queued `/infer` requests) —
//!   bit-identical to running each document alone;
//! * [`wire`] / [`shard`] / [`pool`] / [`router`] — **fleet serving**:
//!   a [`ShardedModel`] bundle served by separate processes. A
//!   `topmine serve-shard` process loads one `shard-K/` φ slice
//!   ([`ShardSlice`]) and answers a compact length-prefixed binary
//!   protocol ([`wire`]); the router loads everything *except* φ and
//!   fans each batch gather out as one pipelined frame per shard over
//!   persistent pooled connections ([`RemoteShardedModel`]), with
//!   deadline propagation, bounded retry/backoff, fail-fast 503s, and
//!   per-shard health in `/healthz` + `/metrics` — still bit-identical
//!   to the in-process monolith.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use topmine_corpus::{corpus_from_texts, CorpusOptions};
//! use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
//! use topmine_phrase::Segmenter;
//! use topmine_serve::{FrozenModel, InferConfig, QueryEngine};
//!
//! // Fit (normally done by the `topmine` CLI with `--save-model`).
//! let texts: Vec<String> = (0..20)
//!     .map(|i| format!("support vector machines for task {i}"))
//!     .collect();
//! let corpus = corpus_from_texts(texts.iter().map(String::as_str));
//! let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
//! let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
//! let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(7));
//! lda.run(20);
//!
//! // Freeze, serve, infer.
//! let frozen = FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default());
//! let engine = QueryEngine::new(Arc::new(frozen), 2);
//! let result = engine.infer("support vector machines in practice", &InferConfig::default());
//! assert_eq!(result.theta.len(), 2);
//! ```

pub mod backend;
pub mod cache;
mod dispatch;
pub mod engine;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod event_loop;
pub mod frozen;
pub mod http;
pub mod infer;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod shard;
pub mod sharded;
pub mod trie;
pub mod wire;

pub use backend::{load_bundle, BackendError, GatherOptions, ModelBackend};
pub use cache::{CacheStats, ResponseCache};
pub use engine::{QueryEngine, DEFAULT_CACHE_CAPACITY};
pub use frozen::{FrozenModel, ModelHeader, PreparedDoc, PreprocessConfig, FROZEN_MODEL_FORMAT};
pub use http::{
    batch_inference_json, inference_json, FrontEnd, HttpServer, ServerConfig, ServerHandle,
};
pub use infer::{
    infer_doc, try_infer_docs_amortized, BatchItem, DocInference, InferConfig, PhraseAssignment,
};
pub use metrics::{serve_metrics, ServeMetrics, Stage};
pub use pool::{PoolConfig, ShardClient, ShardHealth, WireStats};
pub use router::{RemoteShardedModel, FLEET_MODEL_FORMAT};
pub use shard::{ShardServer, ShardServerHandle, ShardSlice};
pub use sharded::{ShardedModel, SHARDED_MODEL_FORMAT};
pub use trie::PhraseTrie;
pub use wire::{WireError, MAX_FRAME, WIRE_VERSION};

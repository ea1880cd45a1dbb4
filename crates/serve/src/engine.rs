//! The query engine: fold-in inference over one shared
//! `Arc<dyn ModelBackend>` — an in-memory model or the fleet router, the
//! engine cannot tell — behind a bounded LRU [`ResponseCache`].
//!
//! Every entry point runs one cache-aware batch path,
//! [`QueryEngine::try_infer_items_amortized`]: each document probes the
//! cache under (bundle fingerprint, text, effective seed, iters, top) —
//! inference is a pure function of that tuple, so a hit returns the
//! identical result without re-running the chain — and the misses share
//! one φ gather through [`try_infer_docs_amortized`]. The HTTP
//! dispatcher calls it with its coalesced batches; [`QueryEngine::infer`]
//! is a batch of one; [`QueryEngine::infer_batch`] cuts its input into
//! contiguous chunks of at most `MAX_BATCH_DOCS` documents (the
//! `/infer_batch` cap) and folds the chunks in on up to `n_threads`
//! scoped threads.
//!
//! The backend is immutable after load, so threads need no locking beyond
//! the cache's. Document `i` of a batch always draws
//! [`InferConfig::seed_for_index`]`(i)`, so results are bit-identical
//! whatever the thread count, chunking, cache state, or shard count.

use crate::backend::{BackendError, GatherOptions, ModelBackend};
use crate::cache::{CacheKey, CacheStats, ResponseCache};
use crate::http::MAX_BATCH_DOCS;
use crate::infer::{try_infer_docs_amortized, BatchItem, DocInference, InferConfig};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Default bound of the response cache ([`QueryEngine::new`]); tune with
/// [`QueryEngine::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// A minimal fixed-size thread pool (no external dependencies): jobs are
/// closures drained from one shared queue; dropping the pool joins all
/// workers after the queue empties. The blocking HTTP front end runs its
/// connections on it.
pub(crate) struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    pub(crate) fn new(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..n_threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("topmine-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the dequeue, not the job.
                        let job = match receiver.lock().expect("pool queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => break, // all senders dropped
                        };
                        job();
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Enqueue a job; it runs on some worker as soon as one is free.
    pub(crate) fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(job))
            .expect("pool workers exited early");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // close the queue; workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Cache-aware fold-in inference over a shared model backend.
pub struct QueryEngine {
    model: Arc<dyn ModelBackend>,
    /// Most threads one [`QueryEngine::infer_batch`] call folds chunks on.
    n_threads: usize,
    cache: Option<ResponseCache>,
    /// Computed once: [`ModelBackend::fingerprint`] walks α, and the model
    /// never changes after load.
    fingerprint: u64,
}

impl QueryEngine {
    /// An engine with the default response cache
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new(model: Arc<dyn ModelBackend>, n_threads: usize) -> Self {
        Self::with_cache_capacity(model, n_threads, DEFAULT_CACHE_CAPACITY)
    }

    /// An engine whose cache holds at most `cache_capacity` responses
    /// (0 disables caching entirely).
    pub fn with_cache_capacity(
        model: Arc<dyn ModelBackend>,
        n_threads: usize,
        cache_capacity: usize,
    ) -> Self {
        let fingerprint = model.fingerprint();
        Self {
            model,
            n_threads: n_threads.max(1),
            cache: (cache_capacity > 0).then(|| ResponseCache::new(cache_capacity)),
            fingerprint,
        }
    }

    pub fn model(&self) -> &Arc<dyn ModelBackend> {
        &self.model
    }

    /// Hit/miss counters of the response cache (all zero when caching is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(ResponseCache::stats)
            .unwrap_or(CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                capacity: 0,
            })
    }

    /// Infer one document on the calling thread with the config seed:
    /// a batch of one, so it equals `infer_batch(&[text])[0]` and shares
    /// its cache entry.
    pub fn infer(&self, text: &str, config: &InferConfig) -> DocInference {
        let item = [BatchItem {
            text: text.to_string(),
            config: config.clone(),
            seed: config.seed_for_index(0),
        }];
        self.infer_chunk(&item)
            .pop()
            .expect("a batch of one yields one inference")
    }

    /// Infer a batch; document `i` draws [`InferConfig::seed_for_index`]`(i)`
    /// and results come back in input order. The input is cut into
    /// contiguous chunks of at most `MAX_BATCH_DOCS` documents, each one
    /// cache-aware shared-gather pass; with more than one chunk, the
    /// chunks are spread over up to `n_threads` scoped threads, each
    /// taking a contiguous run of them.
    pub fn infer_batch<S: AsRef<str>>(
        &self,
        texts: &[S],
        config: &InferConfig,
    ) -> Vec<DocInference> {
        let items: Vec<BatchItem> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| BatchItem {
                text: text.as_ref().to_string(),
                config: config.clone(),
                seed: config.seed_for_index(i),
            })
            .collect();
        let fold_run = |run: &[BatchItem]| -> Vec<DocInference> {
            run.chunks(MAX_BATCH_DOCS)
                .flat_map(|chunk| self.infer_chunk(chunk))
                .collect()
        };
        let n_chunks = items.len().div_ceil(MAX_BATCH_DOCS);
        let n_threads = self.n_threads.min(n_chunks);
        if n_threads <= 1 {
            return fold_run(&items);
        }
        let per_thread = n_chunks.div_ceil(n_threads) * MAX_BATCH_DOCS;
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(per_thread)
                .map(|run| scope.spawn(move || fold_run(run)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// [`QueryEngine::try_infer_items_amortized`] for the infallible entry
    /// points.
    fn infer_chunk(&self, items: &[BatchItem]) -> Vec<DocInference> {
        self.try_infer_items_amortized(items, &GatherOptions::default())
            .unwrap_or_else(|e| panic!("phi gather failed: {e}"))
    }

    /// Cache-aware shared-gather batch on the calling thread: every item
    /// probes the LRU under its own effective seed (hits skip fold-in
    /// entirely), and the misses share **one** φ scatter-gather via
    /// [`try_infer_docs_amortized`]. Results come back in item order and
    /// do not depend on the mix of hits and misses. A shard failure during
    /// the shared gather fails the whole call (cache hits found before the
    /// failure are discarded with it — the dispatcher answers every queued
    /// request with the error).
    pub fn try_infer_items_amortized(
        &self,
        items: &[BatchItem],
        gather_opts: &GatherOptions,
    ) -> Result<Vec<DocInference>, BackendError> {
        let Some(cache) = &self.cache else {
            return try_infer_docs_amortized(self.model.as_ref(), items, gather_opts);
        };
        let metrics = crate::metrics::serve_metrics();
        let mut results: Vec<Option<DocInference>> = Vec::with_capacity(items.len());
        let mut misses: Vec<(usize, CacheKey)> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let lookup = metrics.stage(crate::metrics::Stage::CacheLookup).span();
            let key = CacheKey::new_seeded(self.fingerprint, &item.text, &item.config, item.seed);
            let hit = cache.get(&key);
            lookup.stop();
            if hit.is_none() {
                misses.push((i, key));
            }
            results.push(hit);
        }
        if !misses.is_empty() {
            // An all-miss batch folds the caller's slice directly; only a
            // mixed batch pays for compacting the misses into their own
            // buffer.
            let inferred = if misses.len() == items.len() {
                try_infer_docs_amortized(self.model.as_ref(), items, gather_opts)?
            } else {
                let compacted: Vec<BatchItem> =
                    misses.iter().map(|(i, _)| items[*i].clone()).collect();
                try_infer_docs_amortized(self.model.as_ref(), &compacted, gather_opts)?
            };
            for ((i, key), inference) in misses.into_iter().zip(inferred) {
                cache.put(key, inference.clone());
                results[i] = Some(inference);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every item resolved"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;
    use crate::infer::infer_doc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn batch_matches_single_and_is_ordered() {
        let model = Arc::new(tiny_model());
        let engine = QueryEngine::new(model.clone(), 3);
        let texts: Vec<String> = (0..12)
            .map(|i| format!("mining frequent patterns number {i}"))
            .collect();
        let cfg = InferConfig::default();
        let batch = engine.infer_batch(&texts, &cfg);
        assert_eq!(batch.len(), texts.len());
        // Entry 0 must equal the single-document path.
        assert_eq!(batch[0], engine.infer(&texts[0], &cfg));
        // Every entry must equal a direct seeded call for its index.
        for (i, (text, inference)) in texts.iter().zip(&batch).enumerate() {
            assert_eq!(
                *inference,
                infer_doc(model.as_ref(), text, &cfg, cfg.seed_for_index(i))
            );
        }
    }

    #[test]
    fn batch_is_identical_across_thread_counts() {
        let model = Arc::new(tiny_model());
        let texts: Vec<String> = (0..16)
            .map(|i| format!("support vector machines task {i}, data streams"))
            .collect();
        let cfg = InferConfig::default();
        let single = QueryEngine::new(model.clone(), 1).infer_batch(&texts, &cfg);
        let many = QueryEngine::new(model.clone(), 8).infer_batch(&texts, &cfg);
        assert_eq!(single, many);

        // More than one chunk: three chunks, the last one short, so every
        // thread count below puts a chunk boundary inside some thread's
        // run or between runs. Each document must still equal its own
        // per-document fold-in with its global index's seed.
        let cfg = InferConfig {
            fold_iters: 2,
            ..InferConfig::default()
        };
        // The numbers occur in both training topics, so their draws (and
        // θ) depend on each document's seed.
        let texts: Vec<String> = (0..2 * MAX_BATCH_DOCS + 7)
            .map(|i| format!("{} {} {} data streams", i % 30, i / 30 % 30, i % 7))
            .collect();
        let alone: Vec<DocInference> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| infer_doc(model.as_ref(), t, &cfg, cfg.seed_for_index(i)))
            .collect();
        for n_threads in [1, 2, 3, 7] {
            let engine = QueryEngine::new(model.clone(), n_threads);
            assert!(
                engine.infer_batch(&texts, &cfg) == alone,
                "chunked batch diverged at {n_threads} threads"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = QueryEngine::new(Arc::new(tiny_model()), 2);
        assert!(engine
            .infer_batch::<&str>(&[], &InferConfig::default())
            .is_empty());
    }

    #[test]
    fn repeated_queries_hit_the_cache_with_identical_results() {
        let engine = QueryEngine::new(Arc::new(tiny_model()), 2);
        let cfg = InferConfig::default();
        let first = engine.infer("support vector machines", &cfg);
        let second = engine.infer("support vector machines", &cfg);
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A different seed is a different cache entry.
        let third = engine.infer(
            "support vector machines",
            &InferConfig {
                seed: 99,
                ..cfg.clone()
            },
        );
        assert_eq!(third.theta.len(), first.theta.len());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn infer_batch_fills_and_hits_the_cache() {
        let engine = QueryEngine::new(Arc::new(tiny_model()), 2);
        let texts: Vec<String> = (0..8)
            .map(|i| format!("mining frequent patterns number {i}"))
            .collect();
        let cfg = InferConfig::default();
        let first = engine.infer_batch(&texts, &cfg);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 8, 8));
        // A second pass answers every document from the cache.
        assert_eq!(engine.infer_batch(&texts, &cfg), first);
        assert_eq!(engine.cache_stats().hits, 8);
        // Document 0 keys on the config seed, so a single `infer` of the
        // same text is a hit too; a new text in a batch is a miss.
        assert_eq!(engine.infer(&texts[0], &cfg), first[0]);
        let mixed = engine.infer_batch(&[texts[0].as_str(), "data streams"], &cfg);
        assert_eq!(mixed[0], first[0]);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (10, 9, 9));
    }

    #[test]
    fn cache_can_be_disabled() {
        let engine = QueryEngine::with_cache_capacity(Arc::new(tiny_model()), 1, 0);
        let cfg = InferConfig::default();
        let a = engine.infer("mining frequent patterns", &cfg);
        let b = engine.infer("mining frequent patterns", &cfg);
        assert_eq!(a, b, "determinism holds without the cache");
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.capacity), (0, 0, 0));
    }
}

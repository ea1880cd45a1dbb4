//! The concurrent query engine: a fixed pool of worker threads sharing one
//! `Arc<dyn ModelBackend>` — an in-memory model or the fleet router, the
//! engine cannot tell.
//!
//! The backend is immutable after load, so workers need no locking — each
//! fold-in pass touches only its own scratch state. Batch inference fans
//! documents out over the pool and reassembles results in input order;
//! document `i` always draws from [`InferConfig::seed_for_index`]`(i)`, so
//! results are bit-identical whatever the worker count, scheduling, or
//! shard count. Single-document [`QueryEngine::infer`] calls pass through
//! a bounded LRU [`ResponseCache`] keyed on (bundle fingerprint, text,
//! seed, iters, top) — inference is a pure function of that tuple, so a
//! hit returns the identical result without re-running the chain. (The
//! HTTP layer runs its own connection pool and calls the inline
//! [`QueryEngine::infer`] path, so request handling never blocks a batch.)

use crate::backend::{BackendError, GatherOptions, ModelBackend};
use crate::cache::{CacheKey, CacheStats, ResponseCache};
use crate::infer::{infer_doc, try_infer_docs_amortized, BatchItem, DocInference, InferConfig};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Default bound of the response cache ([`QueryEngine::new`]); tune with
/// [`QueryEngine::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// A minimal fixed-size thread pool (no external dependencies): jobs are
/// closures drained from one shared queue; dropping the pool joins all
/// workers after the queue empties.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    pub fn new(n_threads: usize) -> Self {
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

    pub fn n_threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a job; it runs on some worker as soon as one is free.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
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

/// Batched fold-in inference over a shared model backend, with a response
/// cache in front of the single-document path.
pub struct QueryEngine {
    model: Arc<dyn ModelBackend>,
    pool: ThreadPool,
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
            pool: ThreadPool::new(n_threads),
            cache: (cache_capacity > 0).then(|| ResponseCache::new(cache_capacity)),
            fingerprint,
        }
    }

    pub fn model(&self) -> &Arc<dyn ModelBackend> {
        &self.model
    }

    pub fn n_threads(&self) -> usize {
        self.pool.n_threads()
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

    /// Infer one document on the calling thread (no queueing); equals
    /// `infer_batch(&[text])[0]`. Answered from the response cache when
    /// the same (text, seed, iters, top) was inferred before.
    pub fn infer(&self, text: &str, config: &InferConfig) -> DocInference {
        let Some(cache) = &self.cache else {
            return infer_doc(self.model.as_ref(), text, config, config.seed_for_index(0));
        };
        let metrics = crate::metrics::serve_metrics();
        let lookup = metrics.stage(crate::metrics::Stage::CacheLookup).span();
        let key = CacheKey::new(self.fingerprint, text, config);
        if let Some(hit) = cache.get(&key) {
            lookup.stop();
            return hit;
        }
        lookup.stop();
        let inference = infer_doc(self.model.as_ref(), text, config, config.seed_for_index(0));
        cache.put(key, inference.clone());
        inference
    }

    /// Fan a batch out over the pool; results come back in input order and
    /// are independent of the worker count (per-index seeds). The batch
    /// path bypasses the response cache (bulk workloads would churn it).
    /// Must not be called from inside one of this engine's own jobs (it
    /// waits for the fan-out to finish).
    pub fn infer_batch<S: AsRef<str>>(
        &self,
        texts: &[S],
        config: &InferConfig,
    ) -> Vec<DocInference> {
        let n = texts.len();
        if n == 0 {
            return Vec::new();
        }
        let (tx, rx) = channel::<(usize, DocInference)>();
        for (i, text) in texts.iter().enumerate() {
            let tx = tx.clone();
            let model = Arc::clone(&self.model);
            let text = text.as_ref().to_string();
            let config = config.clone();
            self.pool.execute(move || {
                let inference = infer_doc(model.as_ref(), &text, &config, config.seed_for_index(i));
                let _ = tx.send((i, inference));
            });
        }
        drop(tx);
        let mut results: Vec<Option<DocInference>> = (0..n).map(|_| None).collect();
        for (i, inference) in rx {
            results[i] = Some(inference);
        }
        results
            .into_iter()
            .map(|r| r.expect("worker completed every index"))
            .collect()
    }

    /// Cache-aware amortized batch on the calling thread: every item
    /// probes the LRU individually (hits skip fold-in entirely), and the
    /// misses share **one** φ scatter-gather via
    /// [`infer_docs_amortized`]. Results come back in item order and are
    /// bit-identical to per-item [`infer_doc`] calls with the items'
    /// seeds, whatever mix of hits and misses occurs.
    pub fn infer_items_amortized(&self, items: &[BatchItem]) -> Vec<DocInference> {
        self.try_infer_items_amortized(items, &GatherOptions::default())
            .unwrap_or_else(|e| panic!("phi gather failed: {e}"))
    }

    /// Fallible [`infer_items_amortized`](QueryEngine::infer_items_amortized):
    /// a shard failure during the shared gather fails the whole miss set
    /// (cache hits found before the failure are discarded with it — the
    /// dispatcher answers every queued request with the error). Identical
    /// results on the success path.
    pub fn try_infer_items_amortized(
        &self,
        items: &[BatchItem],
        gather_opts: &GatherOptions,
    ) -> Result<Vec<DocInference>, BackendError> {
        let metrics = crate::metrics::serve_metrics();
        let mut results: Vec<Option<DocInference>> = (0..items.len()).map(|_| None).collect();
        let mut miss_idx: Vec<usize> = Vec::new();
        if let Some(cache) = &self.cache {
            for (i, item) in items.iter().enumerate() {
                let lookup = metrics.stage(crate::metrics::Stage::CacheLookup).span();
                let key =
                    CacheKey::new_seeded(self.fingerprint, &item.text, &item.config, item.seed);
                let hit = cache.get(&key);
                lookup.stop();
                match hit {
                    Some(found) => results[i] = Some(found),
                    None => miss_idx.push(i),
                }
            }
        } else {
            miss_idx.extend(0..items.len());
        }
        if !miss_idx.is_empty() {
            // All-miss batches (and cacheless engines) fold the caller's
            // slice directly; only a mixed batch pays for compacting the
            // misses into their own buffer.
            let inferred = if miss_idx.len() == items.len() {
                try_infer_docs_amortized(self.model.as_ref(), items, gather_opts)?
            } else {
                let misses: Vec<BatchItem> = miss_idx.iter().map(|&i| items[i].clone()).collect();
                try_infer_docs_amortized(self.model.as_ref(), &misses, gather_opts)?
            };
            for (&i, inference) in miss_idx.iter().zip(inferred) {
                if let Some(cache) = &self.cache {
                    let item = &items[i];
                    cache.put(
                        CacheKey::new_seeded(self.fingerprint, &item.text, &item.config, item.seed),
                        inference.clone(),
                    );
                }
                results[i] = Some(inference);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every item resolved"))
            .collect())
    }

    /// Amortized batch over one config: document `i` draws
    /// [`InferConfig::seed_for_index`]`(i)` — the same seeds as
    /// [`infer_batch`](QueryEngine::infer_batch) — but the whole batch
    /// shares a single φ gather instead of fanning out per-document
    /// gathers over the pool.
    pub fn infer_batch_amortized<S: AsRef<str>>(
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
        self.infer_items_amortized(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;
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
                model.infer_seeded(text, &cfg, cfg.seed_for_index(i))
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
    fn amortized_batch_matches_pool_batch_and_fills_the_cache() {
        let model = Arc::new(tiny_model());
        let engine = QueryEngine::new(model.clone(), 2);
        let texts: Vec<String> = (0..8)
            .map(|i| format!("mining frequent patterns number {i}"))
            .collect();
        let cfg = InferConfig::default();
        let amortized = engine.infer_batch_amortized(&texts, &cfg);
        assert_eq!(amortized, engine.infer_batch(&texts, &cfg));
        // Second amortized pass answers every document from the cache.
        let before = engine.cache_stats();
        let again = engine.infer_batch_amortized(&texts, &cfg);
        assert_eq!(again, amortized);
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits + texts.len() as u64);
        // Document 0 keys on the config seed, so a single `infer` of the
        // same text is a hit too.
        assert_eq!(engine.infer(&texts[0], &cfg), amortized[0]);
        assert_eq!(engine.cache_stats().hits, after.hits + 1);
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

//! **serve_throughput** — docs/sec of the frozen-model query engine across
//! worker counts, at `TOPMINE_SCALE`.
//!
//! Fits a ToPMine model on a synthetic DBLP-titles corpus, freezes it, and
//! drives batched fold-in inference through `topmine_serve::QueryEngine`
//! with 1, 2, 4, ... workers; every run is checked bit-identical against
//! the single-worker run. The smoke-scale run writes a `BENCH_serve.json`
//! snapshot to the working directory for CI trending.
//!
//! Besides batch throughput, a closed-loop single-document pass (cache
//! disabled, so every request pays full fold-in) records per-request
//! latency into a [`topmine_obs::Histogram`] and reports p50/p95/p99/max
//! alongside the mean — tail latency is what a serving SLO is written
//! against, and a mean hides it.
//!
//! Two more sections exercise the batched serving path:
//!
//! * **batch_amortization** — the amortized batch kernel
//!   (`infer_batch_amortized`: one φ gather shared by the whole batch)
//!   against the same documents folded in one at a time, min-of-5
//!   interleaved timing, results asserted bit-identical. Set
//!   `TOPMINE_MIN_BATCH_SPEEDUP` to gate the ratio in CI.
//! * **open_loop** — the real HTTP server driven at a fixed offered rate
//!   (requests fired on an absolute schedule, late or not), reporting
//!   achieved vs offered QPS and latency measured from the *scheduled*
//!   send time — the open-loop convention, so queueing delay is not
//!   hidden by a slow client.
//! * **fleet** — the multi-process serving claim at the comms level: a
//!   `RemoteShardedModel` router gathering φ from `FLEET_SHARDS` shard
//!   servers over loopback TCP (one batched frame per shard, persistent
//!   pipelined connections) against the in-process monolith, min-of-N
//!   interleaved, results asserted bit-identical. Reports the
//!   router/monolith time ratio, bytes on the wire, and frames per
//!   request, and gates the ratio when `TOPMINE_MAX_FLEET_OVERHEAD` is set
//!   (with a small absolute-gap floor so loopback noise on a tiny run
//!   cannot fail CI).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use topmine_bench::{banner, fit_topmine_on_profile, iters, scale, seed_for};
use topmine_obs::Histogram;
use topmine_serve::{
    infer_doc, HttpServer, InferConfig, ModelBackend, PoolConfig, QueryEngine, RemoteShardedModel,
    ServerConfig, ShardServer, ShardSlice, ShardedModel,
};
use topmine_synth::Profile;
use topmine_util::Table;

/// Shards behind the router in the fleet section.
const FLEET_SHARDS: usize = 3;

fn main() {
    banner(
        "serve_throughput: frozen-model inference docs/sec",
        "serving is embarrassingly parallel over documents (immutable model, per-doc fold-in)",
    );
    let seed = seed_for("serve_throughput");
    let s = scale();
    let fit_iters = iters(60);

    // Train and freeze.
    let (synth, model) = fit_topmine_on_profile(Profile::DblpTitles, s, fit_iters, seed);
    let frozen = model.freeze(&synth.corpus, &topmine_corpus::CorpusOptions::raw());
    println!(
        "frozen model: {} topics, vocabulary {}, {} lexicon phrases",
        frozen.n_topics(),
        frozen.vocab_size(),
        frozen.lexicon.n_phrases()
    );

    // Query workload: unseen documents drawn from the same generator shape
    // (different seed), rendered back to text so the full preprocess →
    // segment → scatter-gather → fold-in path is measured.
    let queries: Vec<String> = topmine_synth::generate(Profile::DblpTitles, s, seed ^ 0x9e37)
        .corpus
        .docs
        .iter()
        .filter(|d| !d.is_empty())
        .take(((2000.0 * s) as usize).max(200))
        .map(|d| synth.corpus.render_phrase(&d.tokens))
        .collect();
    let config = InferConfig {
        fold_iters: 15,
        seed: 7,
        top_topics: 3,
    };
    println!(
        "workload: {} documents, {} fold-in sweeps",
        queries.len(),
        config.fold_iters
    );

    // The correctness baseline is the workers=1 run.
    let frozen = Arc::new(frozen);
    let backend: Arc<dyn ModelBackend> = frozen.clone();
    let mut baseline = None;

    let mut table = Table::new(["workers", "secs", "docs/sec"]);
    let mut results: Vec<(usize, f64, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let engine = QueryEngine::new(backend.clone(), workers);
        let start = std::time::Instant::now();
        let inferences = engine.infer_batch(&queries, &config);
        let secs = start.elapsed().as_secs_f64();
        let docs_per_sec = queries.len() as f64 / secs;
        match &baseline {
            None => baseline = Some(inferences),
            Some(base) => assert_eq!(
                base, &inferences,
                "worker count must not change inference results"
            ),
        }
        table.row([
            workers.to_string(),
            format!("{secs:.3}"),
            format!("{docs_per_sec:.1}"),
        ]);
        results.push((workers, secs, docs_per_sec));
    }
    println!("{}", table.to_aligned());

    // Closed-loop per-request latency: one caller, one document at a time,
    // cache disabled so every request runs the full preprocess → gather →
    // fold-in path. Quantiles come from the log₂-bucketed histogram (the
    // same estimator `/metrics` scrapes see), cross-checked by the exact
    // recorded max.
    let latency_engine = QueryEngine::with_cache_capacity(backend.clone(), 1, 0);
    let hist = Histogram::new();
    for query in &queries {
        let start = std::time::Instant::now();
        std::hint::black_box(latency_engine.infer(query, &config));
        hist.record_duration(start.elapsed());
    }
    let snap = hist.snapshot();
    let to_ms = 1e-6;
    let (p50, p95, p99) = (
        snap.p50() as f64 * to_ms,
        snap.p95() as f64 * to_ms,
        snap.p99() as f64 * to_ms,
    );
    let (mean_ms, max_ms) = (snap.mean() * to_ms, snap.max() as f64 * to_ms);
    println!(
        "single-doc latency over {} requests (no cache): mean {mean_ms:.3}ms  p50 {p50:.3}ms  \
         p95 {p95:.3}ms  p99 {p99:.3}ms  max {max_ms:.3}ms",
        snap.count()
    );

    // Batched fold-in vs one-at-a-time: same documents, same seeds, cache
    // off. Short chains make the φ gather a meaningful share of the work —
    // that is the cost the batch path amortizes (one remap + gather per
    // batch instead of per document). Min-of-3 interleaved, so scheduler
    // noise hits both sides alike.
    let batch_cfg = InferConfig {
        fold_iters: 1,
        seed: 7,
        top_topics: 3,
    };
    // Tile the query set up to 2048 documents so the timed section is long
    // enough to out-shout scheduler noise even at smoke scale.
    let batch_docs: Vec<&str> = queries
        .iter()
        .cycle()
        .take(2048.max(queries.len()))
        .map(String::as_str)
        .collect();
    let amortized_engine = QueryEngine::with_cache_capacity(backend.clone(), 1, 0);
    let (mut per_doc_secs, mut batched_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let start = std::time::Instant::now();
        let sequential: Vec<_> = batch_docs
            .iter()
            .enumerate()
            .map(|(i, doc)| {
                infer_doc(
                    backend.as_ref(),
                    doc,
                    &batch_cfg,
                    batch_cfg.seed_for_index(i),
                )
            })
            .collect();
        per_doc_secs = per_doc_secs.min(start.elapsed().as_secs_f64());

        let start = std::time::Instant::now();
        let batched = amortized_engine.infer_batch_amortized(&batch_docs, &batch_cfg);
        batched_secs = batched_secs.min(start.elapsed().as_secs_f64());

        assert_eq!(
            sequential, batched,
            "amortized batch diverged from sequential fold-in"
        );
    }
    let batch_speedup = per_doc_secs / batched_secs;
    println!(
        "batch amortization over {} docs ({} sweeps): per-doc {per_doc_secs:.3}s, \
         batched {batched_secs:.3}s, speedup {batch_speedup:.2}x (bit-identical)",
        batch_docs.len(),
        batch_cfg.fold_iters
    );
    if let Some(floor) = std::env::var("TOPMINE_MIN_BATCH_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        assert!(
            batch_speedup >= floor,
            "batched fold-in speedup {batch_speedup:.3}x fell below the \
             TOPMINE_MIN_BATCH_SPEEDUP={floor} floor"
        );
        println!("batch speedup gate passed: {batch_speedup:.2}x >= {floor}x");
    }

    // Fleet serving: the same queries through a RemoteShardedModel router
    // whose φ gathers cross real loopback TCP sockets to shard servers
    // (in-process threads here — the wire cost is identical to separate
    // processes, and process isolation itself is covered by the CLI
    // integration tests and the CI fleet smoke step). One worker, cache
    // off on both sides, so the only difference being measured is the
    // wire: one batched gather frame per shard per batch, pipelined over
    // persistent connections.
    let fleet_shards = FLEET_SHARDS;
    let fleet_dir =
        std::env::temp_dir().join(format!("topmine-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_dir);
    ShardedModel::from_frozen(&frozen, fleet_shards)
        .expect("shard model for fleet")
        .save(&fleet_dir)
        .expect("save fleet bundle");
    let mut fleet_handles = Vec::new();
    let mut fleet_addrs = Vec::new();
    for k in 0..fleet_shards {
        let slice = ShardSlice::load(&fleet_dir, k).expect("load shard slice");
        let handle = ShardServer::bind("127.0.0.1:0", slice)
            .expect("bind shard server")
            .spawn()
            .expect("spawn shard server");
        fleet_addrs.push(handle.addr().to_string());
        fleet_handles.push(handle);
    }
    let router = Arc::new(
        RemoteShardedModel::connect(&fleet_dir, &fleet_addrs, PoolConfig::default())
            .expect("connect router to fleet"),
    );
    let mono_backend: Arc<dyn ModelBackend> = frozen.clone();
    let fleet_backend: Arc<dyn ModelBackend> = router.clone();
    let mono_fleet_engine = QueryEngine::with_cache_capacity(mono_backend, 1, 0);
    let fleet_engine = QueryEngine::with_cache_capacity(fleet_backend, 1, 0);

    let wire0 = {
        let s = router.wire_stats();
        [
            s.rpcs.load(Ordering::Relaxed),
            s.frames_sent.load(Ordering::Relaxed),
            s.frames_received.load(Ordering::Relaxed),
            s.bytes_sent.load(Ordering::Relaxed),
            s.bytes_received.load(Ordering::Relaxed),
        ]
    };
    const FLEET_ROUNDS: usize = 3;
    let (mut mono_secs, mut fleet_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..FLEET_ROUNDS {
        // The amortized batch path is the one the claim is about: ONE
        // gather — one frame per shard — shared by the whole batch.
        let start = std::time::Instant::now();
        let mono_out = mono_fleet_engine.infer_batch_amortized(&queries, &config);
        mono_secs = mono_secs.min(start.elapsed().as_secs_f64());

        let start = std::time::Instant::now();
        let fleet_out = fleet_engine.infer_batch_amortized(&queries, &config);
        fleet_secs = fleet_secs.min(start.elapsed().as_secs_f64());

        assert_eq!(
            mono_out, fleet_out,
            "fleet router diverged from the in-process monolith"
        );
        assert_eq!(
            baseline.as_ref().expect("baseline computed"),
            &fleet_out,
            "fleet router diverged from the single-worker baseline"
        );
    }
    let wire1 = {
        let s = router.wire_stats();
        [
            s.rpcs.load(Ordering::Relaxed),
            s.frames_sent.load(Ordering::Relaxed),
            s.frames_received.load(Ordering::Relaxed),
            s.bytes_sent.load(Ordering::Relaxed),
            s.bytes_received.load(Ordering::Relaxed),
        ]
    };
    let [rpcs, frames_sent, frames_received, bytes_sent, bytes_received] =
        [0, 1, 2, 3, 4].map(|i| wire1[i] - wire0[i]);
    // One HTTP-level request == one document; the batched path shares one
    // gather (one frame per shard) across the whole batch, which is the
    // entire point — frames per request should be far below one per shard.
    let fleet_requests = (FLEET_ROUNDS * queries.len()) as f64;
    let fleet_overhead = fleet_secs / mono_secs;
    println!(
        "fleet: {fleet_shards} shard(s) over loopback — monolith {mono_secs:.3}s, \
         router {fleet_secs:.3}s ({fleet_overhead:.2}x), {:.1} vs {:.1} docs/sec \
         (bit-identical)",
        queries.len() as f64 / mono_secs,
        queries.len() as f64 / fleet_secs,
    );
    println!(
        "fleet wire: {rpcs} gather RPCs, {frames_sent} frames out / {frames_received} in, \
         {bytes_sent} B out / {bytes_received} B in — {:.4} frames, {:.1} B sent per request",
        frames_sent as f64 / fleet_requests,
        bytes_sent as f64 / fleet_requests,
    );

    // Per-request worst case: single documents, each paying its own gather
    // round-trip (no batch to amortize over) — the latency number a fleet
    // deployment's SLO is written against.
    let single_n = queries.len().min(200);
    let mono_lat = Histogram::new();
    let fleet_lat = Histogram::new();
    for query in queries.iter().take(single_n) {
        let start = std::time::Instant::now();
        let mono_one = mono_fleet_engine.infer(query, &config);
        mono_lat.record_duration(start.elapsed());
        let start = std::time::Instant::now();
        let fleet_one = fleet_engine.infer(query, &config);
        fleet_lat.record_duration(start.elapsed());
        assert_eq!(mono_one, fleet_one, "single-doc fleet inference diverged");
    }
    let (mono_snap, fleet_snap) = (mono_lat.snapshot(), fleet_lat.snapshot());
    println!(
        "fleet single-doc over {single_n} requests (no cache, per-request gather): \
         monolith mean {:.3}ms p95 {:.3}ms — router mean {:.3}ms p95 {:.3}ms",
        mono_snap.mean() * to_ms,
        mono_snap.p95() as f64 * to_ms,
        fleet_snap.mean() * to_ms,
        fleet_snap.p95() as f64 * to_ms,
    );
    if let Some(cap) = std::env::var("TOPMINE_MAX_FLEET_OVERHEAD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        // Absolute-gap floor: at smoke scale both sides finish in tens of
        // milliseconds, where a single scheduler hiccup can dwarf the wire
        // cost; a ratio only fails the gate when the gap is real time.
        let gap = fleet_secs - mono_secs;
        assert!(
            fleet_overhead <= cap || gap < 0.050,
            "fleet overhead regression: router/monolith {fleet_overhead:.3}x > \
             TOPMINE_MAX_FLEET_OVERHEAD={cap} (gap {gap:.3}s)"
        );
        println!("fleet overhead gate passed: {fleet_overhead:.2}x vs cap {cap}x");
    }
    for handle in fleet_handles {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&fleet_dir);

    // Open-loop load against the real HTTP server: offer a fixed fraction
    // of the measured closed-loop capacity and fire every request on its
    // absolute schedule slot whether or not earlier ones have returned.
    let closed_loop_rps = 1000.0 / mean_ms;
    let open = run_open_loop(backend.clone(), &queries, &config, 0.6 * closed_loop_rps);
    println!(
        "open loop: offered {:.1} rps, achieved {:.1} rps over {} requests — \
         mean {:.3}ms  p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        open.target_qps,
        open.achieved_qps,
        open.requests,
        open.mean_ms,
        open.p50_ms,
        open.p95_ms,
        open.p99_ms,
        open.max_ms
    );

    // JSON snapshot for CI trending.
    let mut json = String::from("{");
    json.push_str(&format!(
        "\"scale\":{s},\"n_queries\":{},\"fold_iters\":{},\"runs\":[",
        queries.len(),
        config.fold_iters
    ));
    for (i, (workers, secs, dps)) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"workers\":{workers},\"secs\":{secs:.4},\"docs_per_sec\":{dps:.2}}}"
        ));
    }
    json.push_str("],\"latency_ms\":{");
    json.push_str(&format!(
        "\"requests\":{},\"mean\":{mean_ms:.4},\"p50\":{p50:.4},\"p95\":{p95:.4},\
         \"p99\":{p99:.4},\"max\":{max_ms:.4}",
        snap.count()
    ));
    json.push_str("},\"batch_amortization\":{");
    json.push_str(&format!(
        "\"batch_docs\":{},\"fold_iters\":{},\"per_doc_secs\":{per_doc_secs:.4},\
         \"batched_secs\":{batched_secs:.4},\"speedup\":{batch_speedup:.3}",
        batch_docs.len(),
        batch_cfg.fold_iters
    ));
    json.push_str("},\"fleet\":{");
    json.push_str(&format!(
        "\"shards\":{fleet_shards},\"rounds\":{FLEET_ROUNDS},\"n_queries\":{},\
         \"mono_secs\":{mono_secs:.4},\"fleet_secs\":{fleet_secs:.4},\
         \"overhead\":{fleet_overhead:.3},\"mono_docs_per_sec\":{:.2},\
         \"fleet_docs_per_sec\":{:.2},\"wire\":{{\"rpcs\":{rpcs},\
         \"frames_sent\":{frames_sent},\"frames_received\":{frames_received},\
         \"bytes_sent\":{bytes_sent},\"bytes_received\":{bytes_received},\
         \"frames_per_request\":{:.4},\"bytes_sent_per_request\":{:.2}}},\
         \"single_doc_ms\":{{\"requests\":{single_n},\"mono_mean\":{:.4},\
         \"mono_p95\":{:.4},\"fleet_mean\":{:.4},\"fleet_p95\":{:.4}}}",
        queries.len(),
        queries.len() as f64 / mono_secs,
        queries.len() as f64 / fleet_secs,
        frames_sent as f64 / fleet_requests,
        bytes_sent as f64 / fleet_requests,
        mono_snap.mean() * to_ms,
        mono_snap.p95() as f64 * to_ms,
        fleet_snap.mean() * to_ms,
        fleet_snap.p95() as f64 * to_ms
    ));
    json.push_str("},\"open_loop\":{");
    json.push_str(&format!(
        "\"target_qps\":{:.2},\"achieved_qps\":{:.2},\"requests\":{},\
         \"mean\":{:.4},\"p50\":{:.4},\"p95\":{:.4},\"p99\":{:.4},\"max\":{:.4}",
        open.target_qps,
        open.achieved_qps,
        open.requests,
        open.mean_ms,
        open.p50_ms,
        open.p95_ms,
        open.p99_ms,
        open.max_ms
    ));
    json.push_str("}}");
    let mut file = std::fs::File::create("BENCH_serve.json").expect("create BENCH_serve.json");
    writeln!(file, "{json}").expect("write BENCH_serve.json");
    println!("snapshot written to BENCH_serve.json");
}

struct OpenLoopStats {
    target_qps: f64,
    achieved_qps: f64,
    requests: usize,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

/// One raw HTTP/1.1 `/infer` request against `addr`; panics on a non-200.
fn http_infer(addr: std::net::SocketAddr, body: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let message = format!(
        "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "open-loop request failed: {}",
        response.lines().next().unwrap_or("")
    );
}

/// Drive the real HTTP server at `target_qps`: request `i` is fired at
/// absolute slot `t0 + i/target_qps` (sleeping only if early), and its
/// latency is measured **from the slot**, so server-side queueing under
/// overload shows up instead of silently throttling the client.
fn run_open_loop(
    backend: Arc<dyn ModelBackend>,
    queries: &[String],
    config: &InferConfig,
    target_qps: f64,
) -> OpenLoopStats {
    // Cache off so every request costs a real fold-in; a couple of
    // dispatcher workers so batch coalescing has someone to feed.
    let engine = Arc::new(QueryEngine::with_cache_capacity(backend, 1, 0));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            n_threads: 2,
            infer_defaults: config.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind open-loop server")
    .spawn()
    .expect("spawn open-loop server");
    let addr = server.addr();

    let n_requests = queries.len().min(300);
    let n_clients = 4usize;
    let interval = std::time::Duration::from_secs_f64(1.0 / target_qps.max(1.0));
    let hist = Arc::new(Histogram::new());
    let t0 = std::time::Instant::now();
    let clients: Vec<_> = (0..n_clients)
        .map(|c| {
            let hist = Arc::clone(&hist);
            let docs: Vec<(usize, String)> = queries
                .iter()
                .take(n_requests)
                .enumerate()
                .filter(|(i, _)| i % n_clients == c)
                .map(|(i, q)| (i, q.clone()))
                .collect();
            std::thread::spawn(move || {
                for (i, doc) in docs {
                    let slot = t0 + interval * (i as u32);
                    if let Some(early) = slot.checked_duration_since(std::time::Instant::now()) {
                        std::thread::sleep(early);
                    }
                    http_infer(addr, &doc);
                    // Latency from the schedule slot: waiting in the
                    // admission queue (or behind a slow dispatch) counts.
                    hist.record_duration(slot.elapsed());
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("open-loop client");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();

    let snap = hist.snapshot();
    let to_ms = 1e-6;
    OpenLoopStats {
        target_qps,
        achieved_qps: n_requests as f64 / elapsed,
        requests: n_requests,
        mean_ms: snap.mean() * to_ms,
        p50_ms: snap.p50() as f64 * to_ms,
        p95_ms: snap.p95() as f64 * to_ms,
        p99_ms: snap.p99() as f64 * to_ms,
        max_ms: snap.max() as f64 * to_ms,
    }
}

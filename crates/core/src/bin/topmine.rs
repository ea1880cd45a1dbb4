//! The `topmine` command-line tool: raw text file in, topical phrases out —
//! plus serving: freeze a fitted model and query it over HTTP.
//!
//! ```text
//! topmine --input corpus.txt --topics 20 --save-model bundle/ --shards 3
//! topmine serve-shard --model bundle/ --shard 0 --port 7979
//! topmine serve --model bundle/ --fleet 127.0.0.1:7979,127.0.0.1:7980,127.0.0.1:7981
//! topmine infer --model bundle/ --input unseen.txt
//! ```

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use topmine::cli::{
    parse_command, CliOptions, Command, InferOptions, ServeOptions, ServeShardOptions, USAGE,
};
use topmine::ToPMine;
use topmine_corpus::{io as corpus_io, CorpusOptions, StopwordSet};
use topmine_serve::{
    load_bundle, FrontEnd, HttpServer, InferConfig, ModelBackend, PoolConfig, QueryEngine,
    RemoteShardedModel, ServerConfig, ShardServer, ShardSlice, ShardedModel,
};

fn main() -> ExitCode {
    let command = match parse_command(std::env::args().skip(1)) {
        Ok(Some(command)) => command,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Fit(opts) => run_fit(&opts),
        Command::Serve(opts) => run_serve(&opts),
        Command::ServeShard(opts) => run_serve_shard(&opts),
        Command::Infer(opts) => run_infer(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_fit(opts: &CliOptions) -> Result<(), String> {
    let corpus_options = CorpusOptions {
        stem: opts.stem,
        remove_stopwords: opts.remove_stopwords,
        keep_provenance: true,
        min_token_len: 1,
        stopwords: StopwordSet::english(),
    };
    let corpus = corpus_io::load_lines(Path::new(&opts.input), corpus_options.clone())
        .map_err(|e| format!("reading {}: {e}", opts.input))?;
    eprintln!(
        "corpus: {} documents, {} tokens, vocabulary {}",
        corpus.n_docs(),
        corpus.n_tokens(),
        corpus.vocab_size()
    );

    let config = opts.pipeline_config(&corpus);
    eprintln!(
        "running ToPMine: K={}, iterations={}, min support={}, alpha={}, \
         mining threads={}, segmentation threads={}, gibbs threads={}",
        config.n_topics,
        config.iterations,
        config.min_support,
        config.significance_alpha,
        config.resolved_mine_threads(),
        config.n_threads,
        config.lda_threads
    );
    let model = ToPMine::new(config).fit(&corpus);
    eprintln!(
        "segmented {} phrase instances ({} multi-word); phrase mining {:.2}s, topic modeling {:.2}s",
        model.segmentation.n_phrases(),
        model.segmentation.n_multiword(),
        model.timing.phrase_mining_secs,
        model.timing.topic_modeling_secs
    );

    let summaries = if opts.filter_background {
        topmine_lda::summarize_topics_filtered(&model.model, &corpus, opts.top, opts.top, 0.75, 10)
    } else {
        model.summarize(&corpus, opts.top, opts.top)
    };
    let rendered = topmine_lda::render_topic_table(&summaries, opts.top);
    println!("{rendered}");

    if let Some(dir) = &opts.output_dir {
        let dir = Path::new(dir);
        corpus_io::save_corpus(&corpus, dir).map_err(|e| format!("writing corpus: {e}"))?;
        std::fs::write(dir.join("topics.txt"), rendered.as_bytes())
            .map_err(|e| format!("writing topics: {e}"))?;
        eprintln!("artifacts written to {}", dir.display());
    }
    if let Some(dir) = &opts.save_model {
        let dir = Path::new(dir);
        let frozen = model.freeze(&corpus, &corpus_options);
        match opts.shards {
            Some(n) => {
                let sharded = ShardedModel::from_frozen(&frozen, n)
                    .map_err(|e| format!("sharding model: {e}"))?;
                sharded
                    .save(dir)
                    .map_err(|e| format!("writing sharded model bundle: {e}"))?;
                eprintln!(
                    "sharded model ({} topics, {} words, {} lexicon phrases, {n} shards) \
                     written to {}",
                    frozen.n_topics(),
                    frozen.vocab_size(),
                    frozen.lexicon.n_phrases(),
                    dir.display()
                );
            }
            None => {
                frozen
                    .save(dir)
                    .map_err(|e| format!("writing model bundle: {e}"))?;
                eprintln!(
                    "frozen model ({} topics, {} words, {} lexicon phrases) written to {}",
                    frozen.n_topics(),
                    frozen.vocab_size(),
                    frozen.lexicon.n_phrases(),
                    dir.display()
                );
            }
        }
    }
    Ok(())
}

/// Load either bundle layout (monolithic `header.tsv` or sharded
/// `manifest.tsv`, put back together in memory), auto-detected.
fn load_model(dir: &str) -> Result<Arc<dyn ModelBackend>, String> {
    load_bundle(Path::new(dir)).map_err(|e| format!("loading model {dir}: {e}"))
}

fn run_serve(opts: &ServeOptions) -> Result<(), String> {
    let model: Arc<dyn ModelBackend> = if opts.fleet.is_empty() {
        load_model(&opts.model_dir)?
    } else {
        let router = RemoteShardedModel::connect(
            Path::new(&opts.model_dir),
            &opts.fleet,
            PoolConfig::default(),
        )
        .map_err(|e| format!("connecting to fleet {}: {e}", opts.fleet.join(",")))?;
        eprintln!(
            "fleet: {} shard(s) at {} (all healthy at startup)",
            opts.fleet.len(),
            opts.fleet.join(", ")
        );
        Arc::new(router)
    };
    eprintln!(
        "model: {} topics, vocabulary {}, {} lexicon phrases, {} shard(s) (trained on {} docs)",
        model.n_topics(),
        model.vocab_size(),
        model.n_lexicon_phrases(),
        model.n_shards(),
        model.header().n_docs
    );
    // Concurrency comes from the server's dispatcher workers (batches of
    // queued requests, coalesced); the engine's `n_threads` only spreads
    // the chunks of one in-process `infer_batch` call, which HTTP never
    // makes, so it stays at one.
    let engine = Arc::new(QueryEngine::new(model, 1));
    let server = HttpServer::bind(
        (opts.host.as_str(), opts.port),
        engine,
        ServerConfig {
            n_threads: opts.n_threads,
            infer_defaults: InferConfig {
                fold_iters: opts.fold_iters,
                seed: opts.seed,
                top_topics: opts.top,
            },
            queue_depth: opts.queue_depth,
            max_batch: opts.max_batch,
            deadline: (opts.deadline_ms > 0)
                .then(|| std::time::Duration::from_millis(opts.deadline_ms)),
            front_end: FrontEnd::Auto,
        },
    )
    .map_err(|e| format!("binding {}:{}: {e}", opts.host, opts.port))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    eprintln!(
        "listening on {addr} ({} dispatchers, queue depth {}, max batch {})",
        opts.n_threads, opts.queue_depth, opts.max_batch
    );
    eprintln!(
        "endpoints: GET /healthz, GET /model, GET /metrics, \
         POST /infer?seed=N&iters=N&top=N&deadline_ms=N, POST /infer_batch"
    );
    server.run().map_err(|e| format!("serving: {e}"))
}

fn run_serve_shard(opts: &ServeShardOptions) -> Result<(), String> {
    let slice = ShardSlice::load(Path::new(&opts.model_dir), opts.shard)
        .map_err(|e| format!("loading shard {} of {}: {e}", opts.shard, opts.model_dir))?;
    eprintln!(
        "shard {}: word ids [{}, {}), {} topics, digest {:016x}",
        slice.index, slice.lo, slice.hi, slice.n_topics, slice.digest
    );
    let server = ShardServer::bind((opts.host.as_str(), opts.port), slice)
        .map_err(|e| format!("binding {}:{}: {e}", opts.host, opts.port))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    // Printed to stdout (and flushed) so a supervisor using `--port 0` can
    // read the ephemeral address before pointing a router at it.
    println!("listening on {addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing stdout: {e}"))?;
    server.run().map_err(|e| format!("serving shard: {e}"))
}

fn run_infer(opts: &InferOptions) -> Result<(), String> {
    let model = load_model(&opts.model_dir)?;
    // No response cache: line `i` draws `seed_for_index(i)`, so no two
    // lines of one run share a cache key.
    let engine = QueryEngine::with_cache_capacity(model, opts.n_threads, 0);
    let text =
        std::fs::read_to_string(&opts.input).map_err(|e| format!("reading {}: {e}", opts.input))?;
    let docs: Vec<&str> = text.lines().collect();
    let config = InferConfig {
        fold_iters: opts.fold_iters,
        seed: opts.seed,
        top_topics: opts.top,
    };
    // One JSON object per input line, in input order.
    for inference in engine.infer_batch(&docs, &config) {
        println!("{}", topmine_serve::inference_json(&inference));
    }
    Ok(())
}

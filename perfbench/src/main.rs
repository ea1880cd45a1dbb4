//! End-to-end benchmark of the ToPMine reproduction: generated surface
//! text → mined phrases → segmentation → PhraseLDA → saved bundle → HTTP
//! inference under open-loop load, on one of three workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. Any failed output
//! check exits with status 1. See README.md for every metric.

mod loadgen;
mod pipeline;
mod report;
mod serving;
mod sys;
mod trace;

use pipeline::{JobOutput, JobSpec};
use report::{mean, median, quantile, trimmed_mean, Metrics};
use serving::{Fixed, Mix, Rates, RequestStream, ServeRun};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use topmine_lda::{FoldIn, GroupedDoc, GroupedDocs, PhraseLda};
use topmine_serve::{
    infer_doc, inference_json, load_bundle, FrozenModel, InferConfig, ModelBackend, QueryEngine,
    ShardedModel, Stage,
};
use topmine_synth::Profile;
use trace::Tracer;

/// Threads of the traced run's parallel replays of the same layers.
const PARALLEL_THREADS: usize = 2;
/// Set-ups (bundle load, server start, first `/healthz`) started and
/// stopped in each cycle besides the served one; `setup_s` is the median
/// of all of them.
const SETUPS_PER_CYCLE: usize = 3;
/// Queries replayed in process.
const REPLAY_QUERIES: usize = 200;
/// Queries the reloaded bundle and the fleet must answer byte-identically
/// to the in-memory model.
const ANSWER_CHECKS: usize = 20;
/// Keep every n-th response body for the in-process comparison.
const SAMPLE_EVERY: usize = 25;
/// Sweeps of a fresh chain replayed at 1 and at 2 threads.
const REPLAY_SWEEPS: usize = 10;
/// Most (sub-phases, jobs) cycles one run makes.
const MAX_CYCLES: usize = 16;
/// `/infer_batch` requests checked against their `/infer` entries.
const BATCH_CHECKS: usize = 3;
/// Shards of the in-process fleet.
const FLEET_SHARDS: usize = 2;
/// Zipf exponent of document popularity on `serve-titles`. Search query
/// logs are reported to have Zipf-like popularity; this exponent is an
/// assumption, not a measured figure. The response cache's hit ratio
/// follows from it, the pool size and the cache capacity.
const ZIPF_S: f64 = 0.8;

struct Workload {
    name: &'static str,
    train: (Profile, f64),
    job: JobSpec,
    /// Jobs run after each cycle's load sub-phases.
    jobs_per_cycle: usize,
    /// Sweeps of the untimed topic model a job without one is served with.
    serve_sweeps: usize,
    queries: (Profile, f64),
    mix: Mix,
    /// Offered rates and latency limit, measured once and frozen.
    rates: Rates,
    /// Also serve the bundle from a 2-shard fleet in process: checked
    /// against the monolith every run, replayed for `fleet.*` when traced.
    fleet: bool,
}

/// Fixed ladder of offered rates: 10% steps from `from` up to `to`,
/// rounded to tens.
fn ladder(from: f64, to: f64) -> Vec<f64> {
    std::iter::successors(Some(from), |r| Some(r * 1.1))
        .take_while(|&r| r <= to)
        .map(|r| (r / 10.0).round() * 10.0)
        .collect()
}

fn workload(name: &str, seed: u64) -> Option<Workload> {
    let job = |sweeps| JobSpec {
        n_topics: 0,
        sweeps,
        seed,
    };
    let rates = |low, high, phase_requests, p99_limit_ms, ladder| Rates {
        low,
        high,
        phase_requests,
        p99_limit_ms,
        ladder,
    };
    let w = match name {
        "fit-abstracts" => Workload {
            name: "fit-abstracts",
            train: (Profile::DblpAbstracts, 1.0),
            job: job(50),
            jobs_per_cycle: 3,
            serve_sweeps: 0,
            queries: (Profile::DblpAbstracts, 1.0),
            mix: Mix::Unique,
            rates: rates(100.0, 150.0, 400, 10.0, ladder(100.0, 3000.0)),
            fleet: true,
        },
        "segment-titles" => Workload {
            name: "segment-titles",
            train: (Profile::DblpTitles, 10.0),
            job: job(0),
            jobs_per_cycle: 1,
            serve_sweeps: 5,
            queries: (Profile::DblpTitles, 1.0),
            mix: Mix::Unique,
            rates: rates(500.0, 1500.0, 1000, 10.0, ladder(1000.0, 15000.0)),
            fleet: false,
        },
        "serve-titles" => Workload {
            name: "serve-titles",
            train: (Profile::DblpTitles, 1.0),
            job: job(50),
            jobs_per_cycle: 1,
            serve_sweeps: 0,
            queries: (Profile::DblpTitles, 1.0),
            mix: Mix::Zipf(ZIPF_S),
            rates: rates(500.0, 1500.0, 1000, 10.0, ladder(1000.0, 15000.0)),
            fleet: false,
        },
        _ => return None,
    };
    Some(w)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn texts(profile: Profile, scale: f64, seed: u64) -> (Vec<String>, usize) {
    let gen = topmine_synth::generator(profile, scale);
    (gen.generate_texts(seed), gen.n_topics())
}

/// Output checks and the operation counts of one run.
#[derive(Default)]
struct Checks {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, checked: usize, errors: Vec<String>) {
        self.attempted += checked as u64;
        self.failed += errors.len() as u64;
        self.errors.extend(errors);
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

fn check_job(out: &JobOutput, checks: &mut Checks) {
    let valid = out.seg.validate(&out.corpus);
    checks.require(valid.is_ok(), || format!("segmentation invalid: {valid:?}"));
    if let Some(lda) = &out.lda {
        let counts = lda.check_counts();
        checks.require(counts.is_ok(), || {
            format!("sampler counts broken: {counts:?}")
        });
        let ppl = lda.perplexity();
        checks.require(ppl.is_finite() && ppl > 0.0, || {
            format!("training perplexity {ppl}")
        });
    }
}

/// The servable model of a run: the job's own, or for a job without a
/// topic model, a short untimed PhraseLDA over its segmentation.
fn servable(out: &JobOutput, w: &Workload, dir: &Path, tracer: &Tracer) -> (FrozenModel, f64, f64) {
    if let Some(frozen) = &out.frozen {
        return (frozen.clone(), out.times.freeze_s, out.times.save_s);
    }
    let grouped = GroupedDocs::from_segmentation(&out.corpus, &out.seg);
    let mut lda = PhraseLda::new(grouped, pipeline::lda_config(&w.job, pipeline::JOB_THREADS));
    lda.run(w.serve_sweeps);
    let (frozen, freeze_s) = pipeline::timed(tracer, "serve.freeze", || {
        pipeline::freeze(&out.corpus, &out.stats, &lda)
    });
    let (saved, save_s) = pipeline::timed(tracer, "serve.save", || frozen.save(dir));
    saved.expect("save the bundle");
    (frozen, freeze_s, save_s)
}

/// `backend` must answer sampled queries byte-identically to the
/// in-memory model.
fn check_answers(
    backend: &dyn ModelBackend,
    frozen: &FrozenModel,
    pool: &[String],
    what: &str,
    checks: &mut Checks,
) {
    let config = InferConfig::default();
    for (i, text) in pool.iter().take(ANSWER_CHECKS).enumerate() {
        let seed = config.seed_for_index(i);
        let a = inference_json(&infer_doc(backend, text, &config, seed));
        let b = inference_json(&infer_doc(frozen, text, &config, seed));
        checks.require(a == b, || {
            format!("{what} answers query {i} unlike the in-memory model")
        });
    }
}

/// Timings of the offline job's repetitions.
#[derive(Default)]
struct Jobs {
    job_s: Vec<f64>,
    traced_job_s: Vec<f64>,
    layer_times: Vec<pipeline::LayerTimes>,
}

impl Jobs {
    fn record(&mut self, out: &JobOutput, traced: bool) {
        eprintln!(
            "perfbench: job {} {:.3} s{}",
            self.job_s.len() + self.traced_job_s.len() + 1,
            out.job_s,
            if traced { " (traced)" } else { "" }
        );
        if traced {
            self.traced_job_s.push(out.job_s);
        } else {
            self.job_s.push(out.job_s);
        }
        self.layer_times.push(out.times.clone());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (fit-abstracts, segment-titles, serve-titles)",
            args.workload
        );
        std::process::exit(2);
    };
    let run_dir = args
        .work_dir
        .join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    let bundle = run_dir.join("bundle");
    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();

    // Inputs: training text and an unseen query pool, both from the seed.
    let ((train, n_topics), (pool, _)) = tracer.group("inputs", || {
        (
            texts(w.train.0, w.train.1, args.seed),
            texts(
                w.queries.0,
                w.queries.1,
                args.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            ),
        )
    });
    w.job.n_topics = n_topics;
    eprintln!(
        "perfbench: {} seed {} — {} training docs, {} query docs",
        w.name,
        args.seed,
        train.len(),
        pool.len()
    );
    let start = Instant::now();

    // A traced run alternates untraced and traced jobs, for the overhead.
    let mut jobs = Jobs::default();
    let run_job = |traced: bool, jobs: &mut Jobs| {
        let out = if traced {
            tracer.group("job", || {
                pipeline::run_job(&train, &w.job, &bundle, &tracer)
            })
        } else {
            pipeline::run_job(&train, &w.job, &bundle, &quiet)
        };
        jobs.record(&out, traced);
        out
    };

    // The first job's bundle is the one served (every repetition saves
    // the same bytes: the job is deterministic for a seed).
    let first = run_job(false, &mut jobs);
    check_job(&first, &mut checks);
    let (frozen, freeze_s, save_s) = servable(&first, &w, &bundle, &tracer);
    let reloaded = load_bundle(&bundle).expect("reload the bundle");
    check_answers(
        reloaded.as_ref(),
        &frozen,
        &pool,
        "reloaded bundle",
        &mut checks,
    );
    let frozen = Arc::new(frozen);
    // Only the traced run replays layers over the first job's output.
    let first = args.trace.then_some(first);

    // Set-up: load the bundle and start serving. The first server is the
    // one under load; each cycle starts and stops more, so the host's
    // drift within the run reaches the median as it does for the job.
    let (mut setup_s, mut load_s) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let (s, t, l) = tracer.group("setup", || serving::start(&bundle, 1, &tracer));
        setup_s.push(t);
        load_s.push(l);
        s
    };
    let server = set_up();

    // Cycles of (set-ups, re-warm, load sub-phases, jobs) until the time is
    // spent, so every median samples the whole run.
    let rates = &w.rates;
    let stream = RequestStream::new(&pool, w.mix, args.seed);
    let mut runner = serving::PhaseRunner::new(&server, stream, SAMPLE_EVERY, &tracer);
    let mut warmup = vec![tracer.group("serve", || {
        runner.phase(rates.phase_requests / 2, rates.high, "loadgen.warmup")
    })];
    let (mut low, mut high) = (Fixed(Vec::new()), Fixed(Vec::new()));
    let min_cycles = if args.trace { 4 } else { 3 };
    loop {
        for _ in 0..SETUPS_PER_CYCLE {
            set_up().stop();
        }
        tracer.group("serve", || {
            if !high.0.is_empty() {
                // Re-warm after the jobs that ran in between.
                warmup.push(runner.phase(rates.phase_requests / 4, rates.high, "loadgen.warmup"));
            }
            // The end-to-end figures come from the high rate; the low
            // rate is a per-layer figure of the traced run.
            if args.trace {
                low.0
                    .push(runner.phase(rates.phase_requests, rates.low, "loadgen.low"));
            }
            high.0
                .push(runner.phase(rates.phase_requests, rates.high, "loadgen.high"));
        });
        let cycles = high.0.len();
        let spent = args.trace || start.elapsed().as_secs_f64() >= args.seconds;
        if (cycles >= min_cycles && spent) || cycles >= MAX_CYCLES {
            break;
        }
        for _ in 0..w.jobs_per_cycle {
            let traced = args.trace && jobs.job_s.len() > jobs.traced_job_s.len();
            drop(run_job(traced, &mut jobs));
        }
    }
    let (ladder, max_rps) = if args.trace {
        tracer.group("serve", || runner.climb(rates))
    } else {
        (Vec::new(), 0.0)
    };
    let run = ServeRun {
        warmup,
        low,
        high,
        ladder,
        max_rps,
    };
    checks.attempted += (jobs.layer_times.len() + setup_s.len()) as u64;
    for m in run.phases() {
        checks.attempted += m.phase.attempted as u64;
        checks.failed += m.phase.failed() as u64;
    }
    let reference = QueryEngine::with_cache_capacity(frozen.clone(), 1, 0);
    tracer.group("checks", || {
        let (n, errors) = serving::check_bodies(&run, &pool, &reference);
        checks.record(n, errors);
        let (n, errors) = serving::check_batches(server.addr, &pool, &reference, BATCH_CHECKS);
        checks.record(n, errors);
    });

    // The same bundle split into shards behind a router, in process.
    let fleet = w.fleet.then(|| {
        let dir = run_dir.join("fleet");
        ShardedModel::from_frozen(&frozen, FLEET_SHARDS)
            .and_then(|sharded| sharded.save(&dir))
            .expect("save the sharded bundle");
        let (fleet, _, _) = tracer.group("setup", || serving::start(&dir, FLEET_SHARDS, &tracer));
        let (n, errors) = serving::check_batches(fleet.addr, &pool, &reference, BATCH_CHECKS);
        checks.record(n, errors);
        check_answers(
            fleet.engine.model().as_ref(),
            &frozen,
            &pool,
            "fleet",
            &mut checks,
        );
        fleet
    });

    if let Some(out) = &first {
        let backend = Arc::clone(server.engine.model());
        let replay = tracer.group("replay", || {
            replay_queries(backend.as_ref(), &pool, &tracer)
        });
        let parallel = tracer.group("replay", || replay_parallel(out, &w, &tracer));
        let fleet_replay = fleet.as_ref().map(|fleet| {
            let before = serving::snapshot(fleet);
            let backend = fleet.engine.model();
            let replay = tracer.group("replay", || {
                replay_queries(backend.as_ref(), &pool, &tracer)
            });
            (replay, serving::diff(&before, &serving::snapshot(fleet)))
        });
        let heldout = heldout_perplexity(out, &frozen, &pool);
        layer_metrics(
            &mut metrics,
            &LayerInputs {
                out,
                layer_times: &jobs.layer_times,
                parallel: &parallel,
                replay: &replay,
                fleet: fleet_replay.as_ref(),
                run: &run,
                freeze_s,
                save_s,
                load_s: median(&load_s),
                bundle_bytes: serving::dir_bytes(&bundle) as f64,
                heldout,
                job_s: median(&jobs.job_s),
                traced_job_s: median(&jobs.traced_job_s),
            },
        );
        let summary = tracer.summary();
        metrics.set("trace.coverage", summary.coverage, "ratio");
        metrics.set("trace.uncovered_s", summary.uncovered_s, "s");
        metrics.set("trace.job_coverage", summary.job_coverage, "ratio");
        for (name, secs) in &summary.self_s {
            eprintln!("perfbench: self time {name:<20} {secs:>10.4} s");
        }
        let path = args
            .work_dir
            .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    } else {
        metrics.set("job_s", trimmed_mean(&jobs.job_s), "s");
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0), "MiB");
        metrics.set("serve_cpu_us", run.high.cpu_us_per_request(), "us");
        let attempted: usize = run.phases().map(|m| m.phase.attempted).sum();
        let ok: usize = run.phases().map(|m| m.phase.ok).sum();
        metrics.set("ok_share", ok as f64 / attempted.max(1) as f64, "ratio");
    }
    server.stop();
    if let Some(fleet) = fleet {
        fleet.stop();
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    for (name, (value, unit)) in metrics.iter() {
        eprintln!("perfbench: {name:<36} {value:>14.4} {unit}");
    }
    for e in &checks.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let correct = checks.errors.is_empty();
    println!(
        "{}",
        metrics.json_line(correct, checks.attempted, checks.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

// ----- traced run: replays and per-layer metrics ------------------------------

/// Per-call medians of the in-process serving layers over the query pool,
/// in microseconds.
struct Replay {
    prepare_us: f64,
    segment_us: f64,
    gather_us: f64,
    fold_in_us: f64,
    json_us: f64,
}

fn replay_queries(backend: &dyn ModelBackend, pool: &[String], tracer: &Tracer) -> Replay {
    let config = InferConfig::default();
    let us = |t: f64| t * 1e6;
    let (mut prepare, mut segment, mut gather, mut fold, mut json) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, text) in pool.iter().take(REPLAY_QUERIES).enumerate() {
        let (prepared, t) = pipeline::timed(tracer, "serve.prepare", || backend.prepare(text));
        prepare.push(us(t));
        let ((), t) = pipeline::timed(tracer, "serve.segment", || {
            std::hint::black_box(backend.segment(&prepared.doc));
        });
        segment.push(us(t));
        let mut words = prepared.doc.tokens.clone();
        words.sort_unstable();
        words.dedup();
        let ((), t) = pipeline::timed(tracer, "serve.gather", || {
            std::hint::black_box(backend.gather_phi_batch(&words));
        });
        gather.push(us(t));
        let (inference, t) = pipeline::timed(tracer, "serve.infer_doc", || {
            infer_doc(backend, text, &config, config.seed_for_index(i))
        });
        fold.push(us(t));
        let ((), t) = pipeline::timed(tracer, "serve.json", || {
            std::hint::black_box(inference_json(&inference));
        });
        json.push(us(t));
    }
    Replay {
        prepare_us: median(&prepare),
        segment_us: median(&segment),
        gather_us: median(&gather),
        fold_in_us: median(&fold),
        json_us: median(&json),
    }
}

/// The parallel layers replayed at `PARALLEL_THREADS`: mining,
/// segmentation, and the first sweeps of a fresh chain (against the same
/// sweeps at 1 thread).
struct Parallel {
    mine_s: f64,
    segment_s: f64,
    sweep_ms_t1: f64,
    sweep_ms_t2: f64,
}

fn replay_parallel(out: &JobOutput, w: &Workload, tracer: &Tracer) -> Parallel {
    let seg = pipeline::segmenter(&out.corpus, PARALLEL_THREADS);
    let ((stats, _), mine_s) = pipeline::timed(tracer, "phrase.mine", || seg.mine(&out.corpus));
    let (_, segment_s) = pipeline::timed(tracer, "phrase.segment", || {
        seg.segment_with_stats(&out.corpus, &stats)
    });
    let (mut t1, mut t2) = (0.0, 0.0);
    if w.job.sweeps > 0 {
        t1 = median(&pipeline::replay_sweeps(
            out,
            &w.job,
            1,
            REPLAY_SWEEPS,
            tracer,
        )) * 1e3;
        t2 = median(&pipeline::replay_sweeps(
            out,
            &w.job,
            PARALLEL_THREADS,
            REPLAY_SWEEPS,
            tracer,
        )) * 1e3;
    }
    Parallel {
        mine_s,
        segment_s,
        sweep_ms_t1: t1,
        sweep_ms_t2: t2,
    }
}

/// Perplexity of the fitted model on unseen query documents, prepared and
/// segmented with the frozen bundle (a diagnostic, not a gate).
fn heldout_perplexity(out: &JobOutput, frozen: &FrozenModel, pool: &[String]) -> f64 {
    let Some(lda) = &out.lda else { return 0.0 };
    let docs: Vec<GroupedDoc> = pool
        .iter()
        .take(REPLAY_QUERIES)
        .filter_map(|text| {
            let prepared = frozen.prepare(text);
            let spans = frozen.segment(&prepared.doc);
            (!spans.is_empty()).then(|| GroupedDoc {
                tokens: prepared.doc.tokens.clone(),
                group_ends: spans.iter().map(|&(_, e)| e).collect(),
            })
        })
        .collect();
    let heldout = GroupedDocs {
        docs,
        vocab_size: lda.vocab_size(),
    };
    lda.heldout_perplexity(&heldout, 20, 7, FoldIn::Groups)
}

struct LayerInputs<'a> {
    out: &'a JobOutput,
    layer_times: &'a [pipeline::LayerTimes],
    parallel: &'a Parallel,
    replay: &'a Replay,
    /// In-process replay through the fleet router, with the fleet
    /// metrics it recorded.
    fleet: Option<&'a (Replay, serving::ServerDiff)>,
    run: &'a ServeRun,
    freeze_s: f64,
    save_s: f64,
    load_s: f64,
    bundle_bytes: f64,
    heldout: f64,
    job_s: f64,
    traced_job_s: f64,
}

fn layer_metrics(m: &mut Metrics, x: &LayerInputs) {
    let med = |f: fn(&pipeline::LayerTimes) -> f64| {
        median(&x.layer_times.iter().map(f).collect::<Vec<_>>())
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let out = x.out;

    m.set("corpus.build_s", med(|t| t.corpus_s), "s");
    let mine_s = med(|t| t.mine_s);
    m.set("phrase.mine_s", mine_s, "s");
    m.set("phrase.mine_s.t2", x.parallel.mine_s, "s");
    m.set(
        "phrase.mine_speedup",
        ratio(mine_s, x.parallel.mine_s),
        "ratio",
    );
    let tel = &out.mining;
    m.set("phrase.mine.levels", tel.levels.len() as f64, "count");
    m.set("phrase.mine.candidates", tel.candidates() as f64, "count");
    m.set("phrase.mine.frequent", tel.frequent() as f64, "count");
    m.set("phrase.mine.occurrences", tel.occurrences() as f64, "count");
    m.set(
        "phrase.mine.frequent_ratio",
        ratio(tel.frequent() as f64, tel.candidates() as f64),
        "ratio",
    );
    let segment_s = med(|t| t.segment_s);
    m.set("phrase.segment_s", segment_s, "s");
    m.set("phrase.segment_s.t2", x.parallel.segment_s, "s");
    m.set(
        "phrase.segment_speedup",
        ratio(segment_s, x.parallel.segment_s),
        "ratio",
    );
    m.set("phrase.multiword", out.seg.n_multiword() as f64, "count");

    let sweeps: Vec<f64> = x
        .layer_times
        .iter()
        .flat_map(|t| t.sweep_s.iter().map(|s| s * 1e3))
        .collect();
    m.set("lda.init_s", med(|t| t.lda_init_s), "s");
    m.set("lda.sweep_ms.p50", quantile(&sweeps, 0.5), "ms");
    m.set("lda.sweep_ms.p90", quantile(&sweeps, 0.9), "ms");
    m.set("lda.sweep_ms.t2", x.parallel.sweep_ms_t2, "ms");
    m.set(
        "lda.sweep_speedup",
        ratio(x.parallel.sweep_ms_t1, x.parallel.sweep_ms_t2),
        "ratio",
    );
    let stats = out
        .lda
        .as_ref()
        .map(PhraseLda::sweep_stats)
        .unwrap_or_default();
    m.set(
        "lda.draws.topic_word",
        stats.draws.topic_word as f64,
        "count",
    );
    m.set("lda.draws.doc", stats.draws.doc as f64, "count");
    m.set("lda.draws.smoothing", stats.draws.smoothing as f64, "count");
    m.set("lda.draws.dense", stats.draws.dense as f64, "count");
    m.set(
        "lda.merge_delta_entries",
        stats.merge_delta_entries as f64,
        "count",
    );
    m.set("lda.snapshot_s", stats.snapshot_nanos as f64 / 1e9, "s");
    let train_ppl = out.lda.as_ref().map_or(0.0, PhraseLda::perplexity);
    m.set("lda.train_perplexity", train_ppl, "ppl");
    m.set("lda.heldout_perplexity", x.heldout, "ppl");

    m.set("serve.freeze_s", x.freeze_s, "s");
    m.set("serve.save_s", x.save_s, "s");
    m.set("serve.load_s", x.load_s, "s");
    m.set("serve.bundle_bytes", x.bundle_bytes, "bytes");
    m.set("serve.prepare_us", x.replay.prepare_us, "us");
    m.set("serve.segment_us", x.replay.segment_us, "us");
    m.set("serve.gather_us", x.replay.gather_us, "us");
    m.set("serve.fold_in_us", x.replay.fold_in_us, "us");
    m.set("serve.json_us", x.replay.json_us, "us");

    let run = x.run;
    for (tag, fixed) in [("low", &run.low), ("high", &run.high)] {
        let s = fixed.server();
        for (stage, ns) in Stage::ALL.iter().zip(s.stage_ns) {
            m.set(
                format!("serve.stage_ms.{}.mean.{tag}", stage.as_str()),
                s.per_request_ms(ns),
                "ms",
            );
        }
        // Route time covers dispatch through the response write; the
        // parse stage precedes it.
        let route_ms = s.per_request_ms(s.route_ns);
        let staged = s.per_request_ms(s.stage_ns[1..].iter().sum());
        m.set(format!("serve.route_ms.mean.{tag}"), route_ms, "ms");
        m.set(
            format!("serve.dispatch_wait_ms.mean.{tag}"),
            route_ms - staged,
            "ms",
        );
        m.set(
            format!("serve.outside_route_ms.{tag}"),
            mean(&fixed.latencies_ms()) - route_ms - s.per_request_ms(s.stage_ns[0]),
            "ms",
        );
        m.set(
            format!("serve.batch_docs.mean.{tag}"),
            s.batch_docs_mean(),
            "count",
        );
        m.set(
            format!("loadgen.late_ms.p99.{tag}"),
            quantile(&fixed.late_ms(), 0.99),
            "ms",
        );
        m.set(
            format!("loadgen.busy_share.{tag}"),
            fixed.busy_share(),
            "ratio",
        );
        m.set(
            format!("loadgen.achieved_rps.{tag}"),
            fixed.achieved_rps(),
            "1/s",
        );
    }
    let mut total = serving::ServerDiff::default();
    for p in run.phases() {
        total.add(&p.server);
    }
    m.set("serve.rejected", total.rejected as f64, "count");
    m.set("serve.expired", total.expired as f64, "count");
    m.set(
        "serve.cache_hit_ratio",
        ratio(total.hits as f64, (total.hits + total.misses) as f64),
        "ratio",
    );
    let (fleet_replay, fleet) = match x.fleet {
        Some((replay, diff)) => (Some(replay), diff.clone()),
        None => (None, serving::ServerDiff::default()),
    };
    let queries = REPLAY_QUERIES as f64;
    m.set(
        "fleet.gather_us",
        fleet_replay.map_or(0.0, |r| r.gather_us),
        "us",
    );
    m.set(
        "fleet.infer_us",
        fleet_replay.map_or(0.0, |r| r.fold_in_us),
        "us",
    );
    m.set("fleet.rpc_ms.p50", fleet.rpc_ms(0.5), "ms");
    m.set("fleet.rpc_ms.p99", fleet.rpc_ms(0.99), "ms");
    m.set(
        "fleet.frames_per_req",
        fleet.frames as f64 / queries,
        "count",
    );
    m.set("fleet.bytes_per_req", fleet.bytes as f64 / queries, "bytes");
    m.set("fleet.retries", fleet.retries as f64, "count");
    m.set("fleet.failures", fleet.failures as f64, "count");
    m.set(
        "loadgen.reconnects",
        run.phases().map(|p| p.phase.reconnects).sum::<u64>() as f64,
        "count",
    );
    m.set("loadgen.p50_ms.low", run.low.p50_ms(), "ms");
    m.set("loadgen.p50_ms.high", run.high.p50_ms(), "ms");
    m.set("loadgen.p99_ms.low", run.low.pooled_ms(0.99), "ms");
    m.set("loadgen.p99_ms.high", run.high.pooled_ms(0.99), "ms");
    m.set("loadgen.max_rps", run.max_rps, "1/s");
    m.set(
        "trace.overhead",
        ratio(x.traced_job_s, x.job_s) - 1.0,
        "ratio",
    );
}

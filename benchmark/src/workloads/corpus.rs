//! The two workloads on a 1000-record store of real `tester` runs:
//! `corpus_1k_harvest` (read side) and `corpus_1k_ingest` (write side).

use super::diagnosis::{quick_config, span_metrics, write_trace};
use crate::run::{
    repeat_setup, timed, timed_loop, write_counters, Measured, RunArgs, RunOutput, Scratch, Timed,
};
use crate::trace::Tracer;
use histpc::history::factcache::FACTCACHE_FILE;
use histpc::history::format::write_record;
use histpc::history::{fsck, ExecutionRecord, ExecutionStore};
use histpc::lint::{CorpusAnalysis, CorpusAnalyzer};
use histpc::prelude::*;
use std::path::PathBuf;

/// A store of `tester` records with a warm FACTS cache.
struct Corpus {
    session: Session,
    store_dir: PathBuf,
    app: String,
    /// Labels of the records in the store, in the (seeded) order they
    /// were saved; each record is a real diagnosis of `tester` under its
    /// own seed.
    labels: Vec<String>,
    /// The first few of those records, kept as payloads for ingest ops.
    /// (Keeping all thousand would make the fixture, not the program,
    /// set `peak_rss_mb`.)
    samples: Vec<ExecutionRecord>,
    /// An SHG rendering to save as the `shg` artifact.
    shg: String,
    /// The analysis that warmed the cache (all misses).
    cold: CorpusAnalysis,
}

impl Corpus {
    fn store(&self) -> &ExecutionStore {
        self.session.store().expect("corpus session has a store")
    }

    fn analyze(&self) -> Result<CorpusAnalysis, String> {
        CorpusAnalyzer::new(self.store())
            .analyze()
            .map_err(|e| e.to_string())
    }

    fn record_count(&self) -> Result<usize, String> {
        Ok(self
            .store()
            .labels(&self.app)
            .map_err(|e| e.to_string())?
            .len())
    }
}

/// One set-up of these workloads diagnoses `tester` a thousand times
/// (~10 s), as long as the measurement itself, so it is done once per
/// run; being mostly simulation it is steady without a median.
const SETUP_REPEATS: usize = 1;

/// Records kept in memory as ingest payloads.
const SAMPLES: usize = 8;

fn store_size(args: &RunArgs) -> usize {
    if args.quick {
        40
    } else {
        1000
    }
}

/// Builds the store: one real `tester` diagnosis per record (workload
/// seeds derived from `--seed`), saved in a seeded label order, then
/// one corpus pass to fill the FACTS cache.
fn build_corpus(args: &RunArgs, scratch: &Scratch) -> Result<Corpus, String> {
    // Label order is an input too: Fisher-Yates over run-0000.. with the
    // run's seed.
    let mut labels: Vec<String> = (0..store_size(args))
        .map(|i| format!("run-{i:04}"))
        .collect();
    for i in (1..labels.len()).rev() {
        let j = (args.derive_seed(1_000_000 + i as u64) % (i as u64 + 1)) as usize;
        labels.swap(i, j);
    }

    let store_dir = scratch.fresh("store")?;
    let session = Session::with_store(&store_dir).map_err(|e| e.to_string())?;
    let store = session.store().expect("just attached");
    let mut samples = Vec::new();
    let mut shg = String::new();
    for (k, label) in labels.iter().enumerate() {
        let wl = TesterWorkload {
            seed: args.derive_seed(k as u64),
            ..TesterWorkload::new()
        };
        // Diagnosed storeless and saved by hand: `Session::diagnose`
        // would also write an `shg` artifact per record, which no
        // harvest reads and which would double the store.
        let d = Session::new()
            .diagnose(&wl, &quick_config(), label)
            .map_err(|e| e.to_string())?;
        store.save(&d.record).map_err(|e| e.to_string())?;
        if samples.len() < SAMPLES {
            shg = d.report.shg_rendering;
            samples.push(d.record);
        }
    }
    let app = samples[0].app_name.clone();
    let mut corpus = Corpus {
        session,
        store_dir,
        app,
        labels,
        samples,
        shg,
        cold: CorpusAnalysis::default(),
    };
    corpus.cold = corpus.analyze()?;
    Ok(corpus)
}

/// The directives `Session::harvest` must return for each label, in
/// `labels` order: plain extraction from the stored record,
/// down-ranked by the corpus verdicts.
fn expected_directives(c: &Corpus, opts: &ExtractionOptions) -> Result<Vec<String>, String> {
    c.labels
        .iter()
        .map(|label| {
            let rec = c.store().load(&c.app, label).map_err(|e| e.to_string())?;
            let raw = extract(&rec, opts);
            let (vetted, _) = c
                .cold
                .verdicts
                .down_rank(&raw, &rec.app_name, &rec.app_version);
            Ok(vetted.to_text())
        })
        .collect()
}

/// Runs `corpus_1k_harvest`.
pub fn run_harvest(args: &RunArgs) -> Result<RunOutput, String> {
    let scratch = Scratch::create(args)?;
    let mut out = RunOutput::default();
    let opts = ExtractionOptions::priorities_and_safe_prunes().with_thresholds();
    let warmups = 2;
    // A stride coprime to the store size visits every label before any
    // repeats, in an order unrelated to save order.
    let stride = 7;

    // `Session::harvest` cannot be split from outside, so its trace is
    // one span per op; the pieces are timed separately afterwards.
    let mut tr = Tracer::when(args.trace);
    let mut harvest_op = |c: &Corpus, expected: &[String], i: usize| -> Result<f64, String> {
        let k = (i * stride) % c.labels.len();
        let label = &c.labels[k];
        tr.begin_op(i as u32);
        let (got, ms) =
            timed(|| tr.span("core.harvest", || c.session.harvest(&c.app, label, &opts)));
        let got = got.map_err(|e| e.to_string())?;
        if got.to_text() != expected[k] {
            return Err(format!(
                "harvest of {label} differs from extract + down-rank"
            ));
        }
        Ok(ms)
    };

    let ((c, expected), setup_s) = repeat_setup(SETUP_REPEATS, || {
        let c = build_corpus(args, &scratch)?;
        let expected = expected_directives(&c, &opts)?;
        for i in 0..warmups {
            harvest_op(&c, &expected, i)?;
        }
        Ok((c, expected))
    })?;

    let timed_ops = timed_loop(args.seconds, |i| harvest_op(&c, &expected, warmups + i));

    // The store must have stayed unchanged and the cache fully warm.
    let (warm, warm_ms) = timed(|| c.analyze());
    let warm = warm?;
    if warm.cache_misses != 0 || warm.records != c.labels.len() {
        out.failures.push(format!(
            "after the run: {} cache misses over {} records (want 0 over {})",
            warm.cache_misses,
            warm.records,
            c.labels.len()
        ));
    }
    out.set_store_size(&c.store_dir, c.record_count()?);

    if !args.trace {
        out.set_end_to_end(setup_s, &timed_ops);
        return Ok(out);
    }

    out.absorb(&timed_ops);
    out.set_partial_end_to_end(&timed_ops);
    out.set(Measured::median_of("core.harvest_ms_p50", &timed_ops.op_ms));
    write_trace(args, &tr, &mut out);
    let harvested = SearchDirectives::parse(&expected[0]).map_or(0, |d| d.len());
    out.set(Measured::one("core.directives_harvested", harvested as f64));
    out.set(Measured::one("lint.corpus_warm_ms", warm_ms));
    out.set(Measured::one(
        "lint.facts_cache_hits",
        warm.cache_hits as f64,
    ));
    out.set(Measured::one(
        "lint.facts_cache_misses",
        warm.cache_misses as f64,
    ));
    out.set(Measured::one(
        "lint.findings",
        warm.report.diagnostics.len() as f64,
    ));
    harvest_probes(&c, &opts, &mut out)?;
    Ok(out)
}

/// The pieces of a harvest, and the colder corpus passes, timed one by
/// one after the loop. They change the store (a touched record, a
/// dropped cache), so they run last.
fn harvest_probes(c: &Corpus, opts: &ExtractionOptions, out: &mut RunOutput) -> Result<(), String> {
    let store = c.store();
    let err = |e: histpc::history::StoreError| e.to_string();

    let (opened, open_ms) = timed(|| ExecutionStore::open(&c.store_dir));
    opened.map_err(err)?;
    out.set(Measured::one("history.open_ms", open_ms));

    let (all, load_all_ms) = timed(|| store.load_all(&c.app));
    let all = all.map_err(err)?;
    out.set(Measured {
        name: "history.load_all_ms",
        value: load_all_ms,
        n: all.len(),
    });

    let mut load_ms = Vec::new();
    let mut extract_ms = Vec::new();
    for label in c.labels.iter().take(50) {
        let (rec, ms) = timed(|| store.load(&c.app, label));
        load_ms.push(ms);
        let rec = rec.map_err(err)?;
        extract_ms.push(timed(|| std::hint::black_box(extract(&rec, opts))).1);
    }
    out.set(Measured::median_of("history.load_ms_p50", &load_ms));
    out.set(Measured::median_of("history.extract_ms", &extract_ms));

    // One touched record: everything else still hits the cache.
    let mut touched = c.samples[0].clone();
    touched.pairs_tested += 1;
    store.save(&touched).map_err(err)?;
    let (incr, incr_ms) = timed(|| c.analyze());
    let incr = incr?;
    if incr.cache_misses != 1 {
        out.failures.push(format!(
            "one touched record caused {} cache misses",
            incr.cache_misses
        ));
    }
    out.set(Measured::one("lint.corpus_incremental_ms", incr_ms));

    std::fs::remove_file(c.store_dir.join(FACTCACHE_FILE)).map_err(|e| e.to_string())?;
    let (cold, cold_ms) = timed(|| c.analyze());
    let cold = cold?;
    out.set(Measured {
        name: "lint.corpus_cold_ms",
        value: cold_ms,
        n: cold.cache_misses,
    });
    Ok(())
}

/// Labels the ingest ops rotate through, on top of the seeded store.
const INGEST_RING: usize = 64;
/// Every this many ops the ingest workload also compacts the store.
const COMPACT_EVERY: usize = 250;

/// Per-save deltas of `/proc/self/io` (`wchar`, `syscw`), taken only
/// when tracing.
#[derive(Default)]
struct WriteDeltas {
    bytes: Vec<f64>,
    calls: Vec<f64>,
}

/// One ingest op: what `Session::diagnose` does to the store for one
/// run (save, `shg` artifact, `ckpt` delete), the read-back a later
/// harvest would do, and every [`COMPACT_EVERY`]th time a compact.
/// With `tr` off this is the untraced op.
fn ingest_op(c: &Corpus, i: usize, tr: &mut Tracer, io: &mut WriteDeltas) -> Result<f64, String> {
    let store = c.store();
    let err = |e: histpc::history::StoreError| e.to_string();
    let mut rec = c.samples[i % c.samples.len()].clone();
    rec.label = format!("ingest-{:02}", i % INGEST_RING);
    let want = write_record(&rec);
    tr.begin_op(i as u32);
    let (loaded, ms) = timed(|| -> Result<ExecutionRecord, String> {
        tr.enter("core.ingest");
        let before = tr.is_on().then(write_counters).flatten();
        tr.span("history.save", || store.save(&rec)).map_err(err)?;
        if let (Some(b), Some(a)) = (before, write_counters()) {
            io.bytes.push((a.0 - b.0) as f64);
            io.calls.push((a.1 - b.1) as f64);
        }
        tr.span("history.save_artifact", || {
            store.save_artifact(&rec.app_name, &rec.label, "shg", &c.shg)
        })
        .map_err(err)?;
        tr.span("history.delete_artifact", || {
            store.delete_artifact(&rec.app_name, &rec.label, "ckpt")
        })
        .map_err(err)?;
        let loaded = tr
            .span("history.load", || store.load(&rec.app_name, &rec.label))
            .map_err(err)?;
        if (i + 1).is_multiple_of(COMPACT_EVERY) {
            tr.span("history.compact", || store.compact())
                .map_err(err)?;
        }
        tr.exit();
        Ok(loaded)
    });
    if write_record(&loaded?) != want {
        return Err(format!("{} read back differently", rec.label));
    }
    Ok(ms)
}

/// Runs `corpus_1k_ingest`.
pub fn run_ingest(args: &RunArgs) -> Result<RunOutput, String> {
    let scratch = Scratch::create(args)?;
    let mut out = RunOutput::default();
    let (c, setup_s) = repeat_setup(SETUP_REPEATS, || build_corpus(args, &scratch))?;
    let err = |e: histpc::history::StoreError| e.to_string();

    // The ingest op is already a sequence of layer calls, so the traced
    // run times the same code with spans on; ops with spans off
    // alternate with them to give the overhead.
    let mut tr = Tracer::when(args.trace);
    let mut off = Tracer::off();
    let mut io = WriteDeltas::default();
    let mut plain = Timed::default();
    let timed_ops = timed_loop(args.seconds, |i| {
        let ms = ingest_op(&c, i, &mut tr, &mut io)?;
        if args.trace {
            plain.record(ingest_op(&c, i, &mut off, &mut io));
        }
        Ok(ms)
    });

    // End-of-run oracle and the size figure, after a final compact so
    // the journal's length does not depend on where the loop stopped.
    let (compacted, compact_ms) = timed(|| c.store().compact());
    compacted.map_err(err)?;
    let (diags, fsck_ms) = timed(|| fsck(&c.store_dir));
    let errors = diags.iter().filter(|d| d.is_error()).count();
    if errors > 0 {
        out.failures
            .push(format!("fsck reports {errors} error(s) after the run"));
    }
    let records = c.record_count()?;
    out.set_store_size(&c.store_dir, records);

    if !args.trace {
        out.set_end_to_end(setup_s, &timed_ops);
        return Ok(out);
    }

    out.absorb(&timed_ops);
    out.absorb(&plain);
    out.set_partial_end_to_end(&plain);
    span_metrics(&tr, &mut out);
    out.set_trace_overhead(&timed_ops, &plain);
    if out.value("history.compact_ms").is_none() {
        out.set(Measured::one("history.compact_ms", compact_ms));
    }
    out.set(Measured {
        name: "history.fsck_ms",
        value: fsck_ms,
        n: records,
    });
    if io.bytes.is_empty() {
        out.notes.push(
            "history.write_bytes_per_save and write_syscalls_per_save omitted: \
             /proc/self/io is not readable here"
                .into(),
        );
    } else {
        out.set(Measured::median_of(
            "history.write_bytes_per_save",
            &io.bytes,
        ));
        out.set(Measured::median_of(
            "history.write_syscalls_per_save",
            &io.calls,
        ));
    }
    let (opened, open_ms) = timed(|| ExecutionStore::open(&c.store_dir));
    opened.map_err(err)?;
    out.set(Measured::one("history.open_ms", open_ms));
    write_trace(args, &tr, &mut out);
    Ok(out)
}

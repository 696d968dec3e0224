//! In-process replays of a workload's exact stream: the untraced
//! correctness gate, and the traced replay that times the calls into each
//! layer's public functions and records them as spans.

use crate::report::{median, Metric};
use crate::workload::{Plan, Workload};
use rtim_core::{
    recover_engine, write_snapshot_atomic, AdaptiveConfig, Framework, FrameworkKind,
    FrameworkState, IcFramework, PoolStats, ResolvedAction, SicFramework, SimConfig, SimEngine,
    Solution, WorkerFeedReport, JOURNAL_FILE, SNAPSHOT_FILE,
};
use rtim_stream::{Action, JournalWriter, PropagationIndex, UserId};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bit-for-bit equality of two answers (seeds and the value's bits).
pub fn same_answer(a: &Solution, b: &Solution) -> bool {
    a.seeds == b.seeds && a.value.to_bits() == b.value.to_bits()
}

/// The correctness gate: the replay's answer after every frame the
/// served run queries.
pub struct Gate {
    /// `answers[i]` is the replay's answer after frame `i`, for the
    /// queried frames.
    answers: Vec<Option<Solution>>,
    pub final_answer: Solution,
}

impl Gate {
    /// Compares every served answer, bit for bit, with the replay's answer
    /// after the same frame; returns the differences.
    pub fn check(&self, served: &[(usize, Solution)]) -> Vec<String> {
        let mut mismatches = Vec::new();
        for (i, served) in served {
            match self.answers.get(*i).and_then(Option::as_ref) {
                Some(own) if same_answer(own, served) => {}
                Some(own) => mismatches.push(format!(
                    "frame {i}: served value {} seeds {:?}, replay value {} seeds {:?}",
                    served.value,
                    &served.seeds[..served.seeds.len().min(5)],
                    own.value,
                    &own.seeds[..own.seeds.len().min(5)]
                )),
                None => mismatches.push(format!("frame {i}: answered, but not a queried frame")),
            }
        }
        mismatches
    }
}

/// Replays `frames` through a `SimEngine` with the served configuration
/// and the same batch cuts, and keeps its answer after every frame
/// `queried` marks.  It runs before the served run, so the answers and
/// the recovery directory exist while the server is measured.  With
/// `snapshot_dir`, also writes the recovery directory a restart replays:
/// a snapshot after the last freshness frame plus a journal of the suffix
/// frames.
pub fn gate(
    workload: &Workload,
    plan: &Plan,
    frames: &[Vec<Action>],
    queried: &[bool],
    snapshot_dir: Option<&Path>,
) -> Result<Gate, String> {
    let mut engine = SimEngine::new(workload.sim_config(), workload.kind);
    let mut answers = vec![None; frames.len()];
    let mut journal = None;
    for (i, frame) in frames.iter().enumerate() {
        engine.ingest_batch(frame);
        if queried[i] {
            answers[i] = Some(engine.query());
        }
        if let Some(dir) = snapshot_dir {
            if i + 1 == plan.suffix().start {
                let snapshot = engine.snapshot().map_err(|e| e.to_string())?;
                write_snapshot_atomic(dir.join(SNAPSHOT_FILE), &snapshot)
                    .map_err(|e| e.to_string())?;
                journal =
                    Some(JournalWriter::create(dir.join(JOURNAL_FILE)).map_err(|e| e.to_string())?);
            } else if let Some(j) = journal.as_mut() {
                j.append_batch(frame).map_err(|e| e.to_string())?;
            }
        }
    }
    if let Some(mut j) = journal {
        j.sync().map_err(|e| e.to_string())?;
    }
    Ok(Gate {
        answers,
        final_answer: engine.query(),
    })
}

/// One recorded span: a call into a layer, with the span that caused it.
struct Span {
    id: usize,
    parent: usize,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Spans kept in memory and written out when the replay ends.
struct Spans {
    base: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records a span; returns its id (ids start at 1, 0 = no parent).
    fn record(&mut self, parent: usize, name: &'static str, start: u64, end: u64) -> usize {
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Replays the stream untraced with `config`, querying after the frames
/// `queried` marks; returns the `ingest_batch` + `query` rate.
pub fn replay_rate(
    config: SimConfig,
    kind: FrameworkKind,
    frames: &[Vec<Action>],
    queried: &[bool],
) -> f64 {
    let mut engine = SimEngine::new(config, kind);
    let t = Instant::now();
    for (frame, &q) in frames.iter().zip(queried) {
        engine.ingest_batch(frame);
        if q {
            std::hint::black_box(engine.query());
        }
    }
    let actions: usize = frames.iter().map(Vec::len).sum();
    actions as f64 / t.elapsed().as_secs_f64()
}

/// Oracle-update bookkeeping the engine does not expose.  The frameworks'
/// `oracle_updates()` sums over *live* checkpoints, so it drops whenever
/// one expires or is pruned; dividing it by the actions those same
/// checkpoints have covered gives updates per action per checkpoint.
#[derive(Default)]
struct UpdateLedger {
    /// Σ over slides of the live checkpoints' update total.
    updates: u64,
    /// Σ over slides of the actions the live checkpoints have covered.
    covered: u64,
}

/// A framework observed after every slide (delegates everything else).
struct Observed<F> {
    inner: F,
    ledger: Arc<Mutex<UpdateLedger>>,
}

/// The built-in frameworks' checkpoint start ids.
trait Starts {
    fn starts(&self) -> Vec<u64>;
}

impl Starts for IcFramework {
    fn starts(&self) -> Vec<u64> {
        self.checkpoint_starts()
    }
}

impl Starts for SicFramework {
    fn starts(&self) -> Vec<u64> {
        self.checkpoint_starts()
    }
}

impl<F: Framework + Starts> Framework for Observed<F> {
    fn process_slide(&mut self, slide: &[ResolvedAction], window_start: u64) {
        self.inner.process_slide(slide, window_start);
        if let Some(last) = slide.last() {
            let covered: u64 = self.inner.starts().iter().map(|&s| last.id + 1 - s).sum();
            let mut ledger = self.ledger.lock().expect("ledger lock poisoned");
            ledger.updates += self.inner.oracle_updates();
            ledger.covered += covered;
        }
    }
    fn register_users(&mut self, new_raw: &[UserId]) {
        self.inner.register_users(new_raw);
    }
    fn query(&self) -> Solution {
        self.inner.query()
    }
    fn checkpoint_count(&self) -> usize {
        self.inner.checkpoint_count()
    }
    fn oracle_updates(&self) -> u64 {
        self.inner.oracle_updates()
    }
    fn kind(&self) -> FrameworkKind {
        self.inner.kind()
    }
    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }
    fn shard_feed_reports(&self) -> &[WorkerFeedReport] {
        self.inner.shard_feed_reports()
    }
    fn set_adaptive(&mut self, config: AdaptiveConfig) {
        self.inner.set_adaptive(config);
    }
    fn snapshot_state(&self) -> Option<FrameworkState> {
        self.inner.snapshot_state()
    }
}

/// An engine whose framework reports into `ledger`.
fn observed_engine(workload: &Workload, ledger: &Arc<Mutex<UpdateLedger>>) -> SimEngine {
    let config = workload.sim_config();
    let framework: Box<dyn Framework> = match workload.kind {
        FrameworkKind::Ic => Box::new(Observed {
            inner: IcFramework::new(config),
            ledger: Arc::clone(ledger),
        }),
        FrameworkKind::Sic => Box::new(Observed {
            inner: SicFramework::new(config),
            ledger: Arc::clone(ledger),
        }),
    };
    SimEngine::with_framework(config, framework)
}

/// Snapshot captures and encodes timed at the end of the traced replay.
const SNAPSHOT_REPEATS: usize = 3;

/// The traced engine replay: the engine as it ended, its spans and the
/// figures taken from them.
struct EnginePass {
    engine: SimEngine,
    spans: Spans,
    /// Nanoseconds in the traced engine's frames, span bookkeeping
    /// included, and in the untraced twin's.
    traced_ns: u64,
    untraced_ns: u64,
    resolve_ns: u64,
    feed_ns: u64,
    query_us: Vec<f64>,
    /// Σ over slides of `checkpoint_count()`.
    checkpoints: u64,
    skew_sum: f64,
    fanout_ns: u64,
    pool_slides: u64,
    ledger: UpdateLedger,
}

/// Replays the stream through an observed engine (with the pool, the
/// checkpoints and the oracles inside it), recording a span around every
/// call and the engine's per-slide reports.  An untraced twin with the
/// same configuration takes every frame, and the query after it, right
/// before or right after the traced engine (alternating), so the two are
/// timed under the same conditions of the machine and their difference
/// is the cost of tracing.
fn engine_pass(workload: &Workload, frames: &[Vec<Action>], queried: &[bool]) -> EnginePass {
    let mut spans = Spans {
        base: Instant::now(),
        spans: Vec::with_capacity(frames.len() * 6),
    };
    let ledger = Arc::new(Mutex::new(UpdateLedger::default()));
    let mut engine = observed_engine(workload, &ledger);
    let mut twin = SimEngine::new(workload.sim_config(), workload.kind);
    let (mut resolve_ns, mut feed_ns) = (0u64, 0u64);
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut query_us = Vec::new();
    let mut checkpoints = 0u64;
    let (mut skew_sum, mut fanout_ns, mut pool_slides) = (0f64, 0u64, 0u64);
    for (i, (frame, &q)) in frames.iter().zip(queried).enumerate() {
        let mut untraced = || {
            let t = Instant::now();
            twin.ingest_batch(frame);
            if q {
                std::hint::black_box(twin.query());
            }
            untraced_ns += t.elapsed().as_nanos() as u64;
        };
        if i % 2 == 0 {
            untraced();
        }
        let t0 = spans.now();
        let root = spans.record(0, "frame", t0, t0);
        let (_, breakdown) = engine.ingest_batch_traced(frame);
        let t1 = spans.now();
        let ingest = spans.record(root, "engine.ingest_batch", t0, t1);
        let r_end = t0 + breakdown.resolve_nanos;
        spans.record(ingest, "engine.resolve", t0, r_end);
        let feed = spans.record(ingest, "engine.feed", r_end, r_end + breakdown.feed_nanos);
        resolve_ns += breakdown.resolve_nanos;
        feed_ns += breakdown.feed_nanos;
        let shards = engine.shard_feed_reports();
        if !shards.is_empty() {
            let slowest = shards.iter().map(|r| r.nanos).max().unwrap_or(0);
            let mean = shards.iter().map(|r| r.nanos).sum::<u64>() as f64 / shards.len() as f64;
            for r in shards {
                spans.record(feed, "pool.worker", r_end, r_end + r.nanos);
            }
            if mean > 0.0 {
                skew_sum += slowest as f64 / mean;
            }
            fanout_ns += breakdown.feed_nanos.saturating_sub(slowest);
            pool_slides += 1;
        }
        checkpoints += engine.checkpoint_count() as u64;
        let mut end = t1;
        if q {
            let a = spans.now();
            std::hint::black_box(engine.query());
            end = spans.now();
            spans.record(root, "engine.query", a, end);
            query_us.push((end - a) as f64 / 1e3);
        }
        spans.spans[root - 1].end = end;
        traced_ns += spans.now() - t0;
        if i % 2 == 1 {
            untraced();
        }
    }
    let ledger = std::mem::take(&mut *ledger.lock().expect("ledger lock poisoned"));
    EnginePass {
        engine,
        spans,
        traced_ns,
        untraced_ns,
        resolve_ns,
        feed_ns,
        query_us,
        checkpoints,
        skew_sum,
        fanout_ns,
        pool_slides,
        ledger,
    }
}

/// What the traced run reports besides the per-layer metrics.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Rate (actions/s) of the untraced twin of the traced replay.
    pub untraced_rate: f64,
    /// The traced replay's rate loss against its untraced twin, percent.
    pub overhead_pct: f64,
}

/// The traced replay: every call into a layer's public function gets a
/// span, and the per-layer metrics are derived from the spans and the
/// layers' own counters.  `queried[i]` marks frames the served run
/// queried after.
pub fn traced(
    workload: &Workload,
    frames: &[Vec<Action>],
    queried: &[bool],
    recovery_dir: &Path,
    work: &Path,
    spans_path: &Path,
) -> Result<Traced, String> {
    let config: SimConfig = workload.sim_config();
    let actions: usize = frames.iter().map(Vec::len).sum();
    let actions_f = actions as f64;

    // rtim-core engine (+ pool, checkpoints, oracles).
    let EnginePass {
        engine,
        mut spans,
        traced_ns,
        untraced_ns,
        resolve_ns,
        feed_ns,
        query_us,
        checkpoints,
        skew_sum,
        fanout_ns,
        pool_slides,
        ledger,
    } = engine_pass(workload, frames, queried);
    let pool = engine.pool_stats();
    let (updates_per_covered, updates) = {
        let per = ledger.updates as f64 / ledger.covered.max(1) as f64;
        // Each slide feeds its L actions to every checkpoint live after it.
        (per, per * checkpoints as f64 * workload.slide as f64)
    };
    // rtim-core snapshot: capture on the engine side, encode on the
    // writer side.
    let (mut capture_ms, mut encode_ms, mut snapshot_bytes) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..SNAPSHOT_REPEATS {
        let a = spans.now();
        let snapshot = engine.snapshot().map_err(|e| e.to_string())?;
        let b = spans.now();
        let bytes = snapshot.encode();
        let c = spans.now();
        spans.record(0, "snapshot.capture", a, b);
        spans.record(0, "snapshot.encode", b, c);
        capture_ms.push((b - a) as f64 / 1e6);
        encode_ms.push((c - b) as f64 / 1e6);
        snapshot_bytes = bytes.len();
    }

    // rtim-core recovery over the directory every restart replays.
    let a = spans.now();
    let recovered = recover_engine(config, workload.kind, recovery_dir);
    let b = spans.now();
    spans.record(0, "snapshot.recover", a, b);
    let replay_ns_per_action = if recovered.replayed_actions > 0 {
        (b - a) as f64 / recovered.replayed_actions as f64
    } else {
        0.0
    };
    drop(recovered);

    // rtim-stream propagation index on its own.
    let mut index = PropagationIndex::new();
    let (mut insert_ns, mut ancestors) = (0u64, 0u64);
    for frame in frames {
        let a = spans.now();
        for action in frame {
            ancestors += (index.insert(action).len() - 1) as u64;
        }
        let b = spans.now();
        spans.record(0, "propagation.insert", a, b);
        insert_ns += b - a;
    }

    // rtim-stream journal codec: bytes appended per action.
    let journal_path = work.join("journal-probe.rtaj");
    let mut journal = JournalWriter::create(&journal_path).map_err(|e| e.to_string())?;
    for frame in frames {
        journal.append_batch(frame).map_err(|e| e.to_string())?;
    }
    let journal_bytes = journal.len();
    drop(journal);
    std::fs::remove_file(&journal_path).map_err(|e| e.to_string())?;

    spans
        .write(spans_path)
        .map_err(|e| format!("write spans: {e}"))?;

    let slides = frames.len() as f64;
    let per_slide = |v: f64| {
        if pool_slides > 0 {
            v / pool_slides as f64
        } else {
            0.0
        }
    };
    let metrics = vec![
        Metric {
            name: "propagation.insert_ns_per_action",
            unit: "ns",
            value: insert_ns as f64 / actions_f,
        },
        Metric {
            name: "propagation.ancestors_per_action",
            unit: "count",
            value: ancestors as f64 / actions_f,
        },
        Metric {
            name: "propagation.retained",
            unit: "count",
            value: index.retained() as f64,
        },
        Metric {
            name: "intern.ids",
            unit: "count",
            value: engine.interner().len() as f64,
        },
        Metric {
            name: "engine.resolve_ns_per_action",
            unit: "ns",
            value: resolve_ns as f64 / actions_f,
        },
        Metric {
            name: "engine.feed_ns_per_action",
            unit: "ns",
            value: feed_ns as f64 / actions_f,
        },
        Metric {
            name: "engine.query_us",
            unit: "us",
            value: median(&query_us),
        },
        Metric {
            name: "checkpoints.count_mean",
            unit: "count",
            value: checkpoints as f64 / slides,
        },
        Metric {
            name: "checkpoints.updates_per_action",
            unit: "count",
            value: updates_per_covered,
        },
        Metric {
            name: "checkpoints.ns_per_update",
            unit: "ns",
            value: if updates > 0.0 {
                feed_ns as f64 / updates
            } else {
                0.0
            },
        },
        Metric {
            name: "pool.migrations_per_kslide",
            unit: "count",
            value: pool.migrations as f64 * 1000.0 / slides,
        },
        Metric {
            name: "pool.shard_skew",
            unit: "ratio",
            value: per_slide(skew_sum),
        },
        Metric {
            name: "pool.fanout_us_per_slide",
            unit: "us",
            value: per_slide(fanout_ns as f64) / 1e3,
        },
        Metric {
            name: "pool.arena_hit_ratio",
            unit: "ratio",
            value: if pool.arena_takes > 0 {
                pool.arena_hits as f64 / pool.arena_takes as f64
            } else {
                0.0
            },
        },
        Metric {
            name: "persist.journal_bytes_per_action",
            unit: "bytes",
            value: journal_bytes as f64 / actions_f,
        },
        Metric {
            name: "persist.snapshot_bytes",
            unit: "bytes",
            value: snapshot_bytes as f64,
        },
        Metric {
            name: "persist.snapshot_capture_ms",
            unit: "ms",
            value: median(&capture_ms),
        },
        Metric {
            name: "persist.snapshot_encode_ms",
            unit: "ms",
            value: median(&encode_ms),
        },
        Metric {
            name: "persist.replay_ns_per_action",
            unit: "ns",
            value: replay_ns_per_action,
        },
    ];
    Ok(Traced {
        metrics,
        untraced_rate: actions_f / (untraced_ns as f64 / 1e9),
        overhead_pct: 100.0 * (1.0 - untraced_ns as f64 / traced_ns as f64),
    })
}

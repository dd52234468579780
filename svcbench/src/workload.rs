//! The two workloads: set-up, the seeded request generators (closed-loop
//! reader, open-loop writer), the timed windows, and the correctness
//! checks that decide `failed`.

use crate::layers::{self, Direct};
use crate::stats::{self, median, percentile_of};
use crate::Report;
use colorist_core::{design, Strategy};
use colorist_datagen::{generate, materialize, Rng, ScaleProfile};
use colorist_er::{catalog, ErGraph};
use colorist_query::{execute, optimize, Pattern};
use colorist_server::{Client, FlushReply, Pending, Server, ServerConfig, ServerError, WriteReply};
use colorist_store::{Database, ElementId, FilePages, Metrics, PoolConfig, UpdateBatch, Value};
use colorist_trace::Trace;
use colorist_workload::tpcw;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Data generation seed. The database is the same on every run; `--seed`
/// drives the requests (pattern order, write targets and values, delete
/// targets), so runs differ only in the traffic.
pub const DATA_SEED: u64 = 42;
/// Server worker threads (the benchmark host has 2 cores).
pub const WORKERS: usize = 2;
/// Open-loop writes per second beside the reader. Every write grows the
/// page file, which is never reclaimed, so the rate stays low.
pub const WRITE_RATE: f64 = 4.0;
/// The window is cut into slices of about this many seconds. Each read
/// metric is the median of its per-slice values, so a burst of
/// interference from outside the process that covers less than half the
/// window does not move it.
pub const SLICE_S: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Cap on page-file growth per committed write. Unreachable pages are
/// never reclaimed, so the file grows by one rewritten segment set per
/// commit (about 1.6 MB on UNDR and 1.1 MB on DR at these sizes); a
/// change that makes it grow much faster fails the run instead of filling
/// the disk.
pub const PAGE_FILE_CAP_PER_WRITE: u64 = 4 << 20;

/// One workload: schema, size and buffer-pool budget. Both workloads keep
/// their database in a page file and run one closed-loop reader beside one
/// open-loop writer.
pub struct Spec {
    pub name: &'static str,
    pub strategy: Strategy,
    pub customers: u32,
    pub pool_bytes: u64,
}

/// The same TPC-W instance and the same 8-frame pool under two designs,
/// so the pair shows the paper's trade-off: DR stores no copies and reads
/// join by value; UNDR's copies fan writes out and make reads eliminate
/// duplicates.
pub const SPECS: [Spec; 2] = [
    Spec { name: "paged_dr", strategy: Strategy::Dr, customers: 869, pool_bytes: 64 * 1024 },
    Spec { name: "paged_undr", strategy: Strategy::Undr, customers: 869, pool_bytes: 64 * 1024 },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }
}

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub design: f64,
    pub generate: f64,
    pub materialize: f64,
    pub attach: f64,
    pub start: f64,
    pub warm: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.design + self.generate + self.materialize + self.attach + self.start + self.warm
    }
}

fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = now.duration_since(*t).as_secs_f64();
    *t = now;
    s
}

/// A started, warmed server plus what the checks need.
struct Built {
    server: Server,
    /// Heap-backed copy of the initial state: the replay base.
    base: Database,
    times: SetupTimes,
}

fn build(g: &ErGraph, patterns: &[Pattern], spec: &Spec, page_file: &Path) -> Built {
    let mut t = Instant::now();
    let mut times = SetupTimes::default();
    let schema = design(g, spec.strategy).expect("TPC-W designs under every strategy");
    times.design = lap(&mut t);
    let instance = generate(g, &ScaleProfile::tpcw(g, spec.customers), DATA_SEED);
    times.generate = lap(&mut t);
    let mut db = materialize(g, &schema, &instance);
    times.materialize = lap(&mut t);
    let base = db.clone();
    let backend = FilePages::create_at(page_file).expect("create the page file");
    db.attach_paged(Arc::new(backend), PoolConfig { pool_bytes: spec.pool_bytes })
        .expect("attach the page file");
    times.attach = lap(&mut t);
    let server = Server::start(db, g, &ServerConfig::default().with_workers(WORKERS));
    times.start = lap(&mut t);
    // warm the prepared-plan cache: the first read of each pattern misses
    let client = server.client();
    for _ in 0..2 {
        for p in patterns {
            client.read(p).wait().expect("warm-up read serves");
        }
    }
    times.warm = lap(&mut t);
    Built { server, base, times }
}

/// The kind of a generated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Attr,
    Delete,
}

/// Seeded write generator. Three of every four writes (in a shuffled
/// order within each block of four) set one attribute of a random
/// customer, address or item; the fourth deletes an item. Delete targets
/// come from one half of a seeded item permutation, so they never repeat
/// within a run, and item attribute writes target only the other half.
pub struct OpGen {
    rng: Rng,
    customers: Vec<ElementId>,
    addresses: Vec<ElementId>,
    kept_items: Vec<ElementId>,
    doomed_items: Vec<ElementId>,
    deleted: usize,
    discount: usize,
    city: usize,
    cost: usize,
    block: Vec<Kind>,
}

impl OpGen {
    pub fn new(g: &ErGraph, db: &Database, seed: u64) -> OpGen {
        let node = |name: &str| g.node_by_name(name).expect("TPC-W node exists");
        let attr = |n: &str, a: &str| db.attr_index(g, node(n), a).expect("TPC-W attribute exists");
        let mut rng = Rng::new(seed ^ 0x5eed_0f57_7217_e5a1);
        let mut items = db.extent(node("item")).to_vec();
        rng.shuffle(&mut items);
        let kept_items = items.split_off(items.len() / 2);
        OpGen {
            customers: db.extent(node("customer")).to_vec(),
            addresses: db.extent(node("address")).to_vec(),
            kept_items,
            doomed_items: items,
            deleted: 0,
            discount: attr("customer", "discount"),
            city: attr("address", "city"),
            cost: attr("item", "cost"),
            block: Vec::new(),
            rng,
        }
    }

    fn pick(rng: &mut Rng, from: &[ElementId]) -> ElementId {
        from[rng.below(from.len() as u64) as usize]
    }

    pub fn next_of(&mut self, kind: Kind) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        match kind {
            Kind::Delete => {
                let e = *self
                    .doomed_items
                    .get(self.deleted)
                    .expect("a run deletes fewer items than half the catalog");
                self.deleted += 1;
                b.delete(e);
            }
            Kind::Attr => match self.rng.below(3) {
                0 => {
                    let e = Self::pick(&mut self.rng, &self.customers);
                    b.write_attr(e, self.discount, Value::Float(self.rng.f64() * 10_000.0));
                }
                1 => {
                    let e = Self::pick(&mut self.rng, &self.addresses);
                    let v = format!("address_city_{}", self.rng.below(64));
                    b.write_attr(e, self.city, Value::Text(v));
                }
                _ => {
                    let e = Self::pick(&mut self.rng, &self.kept_items);
                    b.write_attr(e, self.cost, Value::Float(self.rng.f64() * 1_000.0));
                }
            },
        }
        b
    }

    pub fn next(&mut self) -> (Kind, UpdateBatch) {
        if self.block.is_empty() {
            self.block = vec![Kind::Attr, Kind::Attr, Kind::Attr, Kind::Delete];
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("block refilled above");
        (kind, self.next_of(kind))
    }
}

/// One timed read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    pub pattern: u8,
    /// When the reply arrived, in ms since the window started.
    pub at_ms: u32,
    pub latency_ns: u64,
    pub queue_wait_ns: u64,
    pub hit: bool,
}

/// One open-loop write, from its due time to its resolved ticket.
pub struct WriteSample {
    pub kind: Kind,
    pub batch: UpdateBatch,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Result<WriteReply, ServerError>,
    /// Whether the flush that followed the write succeeded.
    pub flushed: bool,
}

impl WriteSample {
    pub fn latency_ms(&self) -> f64 {
        stats::due_latency(self.due, self.done).as_secs_f64() * 1e3
    }

    pub fn lag_ms(&self) -> f64 {
        stats::lag(self.due, self.sent).as_secs_f64() * 1e3
    }
}

/// What the reader of one window saw.
pub struct Window {
    /// From the window's start until the reader stopped.
    pub seconds: f64,
    pub reads: Vec<ReadSample>,
    /// Sum of the replies' per-request metrics.
    pub metrics: Metrics,
}

impl Window {
    pub fn latencies_us(&self) -> Vec<f64> {
        self.reads.iter().map(|r| r.latency_ns as f64 / 1e3).collect()
    }

    /// Read latencies (µs) of each of `n` equal time slices of the window.
    pub fn slices_us(&self, n: usize) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); n];
        let slice_ms = (self.seconds * 1e3 / n as f64).max(1.0);
        for r in &self.reads {
            let i = ((r.at_ms as f64 / slice_ms) as usize).min(n - 1);
            out[i].push(r.latency_ns as f64 / 1e3);
        }
        out
    }
}

/// Answers seen, keyed by (pattern, epoch, digest), with their counts.
type Answers = HashMap<(u8, u64, u64), u64>;

#[derive(Default)]
struct ReaderLog {
    reads: Vec<ReadSample>,
    metrics: Metrics,
    answers: Answers,
    errors: u64,
    stale: u64,
    finished: Option<Instant>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Order-sensitive digest of one answer.
pub fn digest(results: u64, distinct: u64, elements: &[ElementId]) -> u64 {
    let h = mix(mix(mix(FNV_OFFSET, results), distinct), elements.len() as u64);
    elements.iter().fold(h, |h, e| mix(h, e.0 as u64))
}

/// A closed-loop reader: cycles every pattern in a freshly shuffled order
/// until `end`, one request in flight at a time.
fn reader(
    client: Client,
    patterns: &[Pattern],
    seed: u64,
    start: Instant,
    end: Instant,
    acked_epoch: &AtomicU64,
) -> ReaderLog {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    let mut log = ReaderLog::default();
    'run: loop {
        rng.shuffle(&mut order);
        for &q in &order {
            if Instant::now() >= end {
                break 'run;
            }
            // every write acknowledged before this read is sent must be
            // visible to it
            let floor = acked_epoch.load(Ordering::SeqCst);
            let t = Instant::now();
            let reply = client.read(&patterns[q]).wait();
            let latency_ns = t.elapsed().as_nanos() as u64;
            match reply {
                Ok(r) => {
                    if r.epoch < floor {
                        log.stale += 1;
                    }
                    let d = digest(r.results, r.distinct, &r.elements);
                    *log.answers.entry((q as u8, r.epoch, d)).or_default() += 1;
                    log.metrics += r.metrics;
                    log.reads.push(ReadSample {
                        pattern: q as u8,
                        at_ms: (Instant::now() - start).as_millis() as u32,
                        latency_ns,
                        queue_wait_ns: r.metrics.queue_wait_ns,
                        hit: r.cache_hit,
                    });
                }
                Err(_) => log.errors += 1,
            }
        }
    }
    log.finished = Some(Instant::now());
    log
}

/// Shared state of one run's open-loop writer.
struct WriterCtx<'a> {
    client: Client,
    acked_epoch: &'a AtomicU64,
    /// The page file and its size before the first write.
    page_file: (&'a Path, u64),
    /// Writes collected so far in the run.
    collected: &'a AtomicU64,
    over_cap: &'a AtomicBool,
}

/// The open-loop writer: submits a single-op batch plus a flush at each
/// due time of a fixed-rate schedule, without waiting for earlier replies;
/// a second thread collects the replies in order. Stops at `end` or when
/// the page file passes its cap.
fn writer(ctx: &WriterCtx, gen: &mut OpGen, start: Instant, end: Instant) -> Vec<WriteSample> {
    type Sent = (
        Kind,
        UpdateBatch,
        Instant,
        Instant,
        Pending<Result<WriteReply, ServerError>>,
        Pending<Result<FlushReply, ServerError>>,
    );
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for (kind, batch, due, sent, write, flush) in rx {
                let reply = write.wait();
                let done = Instant::now();
                if let Ok(r) = &reply {
                    ctx.acked_epoch.fetch_max(r.group_epoch, Ordering::SeqCst);
                }
                let flushed = flush.wait().is_ok();
                let n = ctx.collected.fetch_add(1, Ordering::SeqCst) + 1;
                let (path, initial) = ctx.page_file;
                let len = std::fs::metadata(path).map_or(0, |m| m.len());
                if len > initial + n * PAGE_FILE_CAP_PER_WRITE {
                    ctx.over_cap.store(true, Ordering::SeqCst);
                }
                out.push(WriteSample { kind, batch, due, sent, done, reply, flushed });
            }
            out
        });
        for k in 0.. {
            let due = stats::due_at(start, WRITE_RATE, k);
            if due >= end || ctx.over_cap.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (kind, batch) = gen.next();
            let sent = Instant::now();
            let write = ctx.client.write(batch.clone());
            let flush = ctx.client.flush();
            tx.send((kind, batch, due, sent, write, flush)).expect("collector is alive");
        }
        drop(tx);
        collector.join().expect("write collector thread")
    })
}

/// Everything one run measured and checked.
pub struct Run {
    pub setup: Vec<SetupTimes>,
    /// One untraced window, or an untraced and a traced one.
    pub windows: Vec<Window>,
    /// Every write of the run, in admission order.
    pub writes: Vec<WriteSample>,
    pub trace: Option<Trace>,
    pub direct: Option<Direct>,
    pub peak_rss_mb: f64,
    pub file_bytes_per_live_byte: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn execute(spec: &'static Spec, seed: u64, seconds: f64, trace: bool, work: &Path) -> Run {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("TPC-W diagram builds");
        let patterns = tpcw::workload(&g).reads;
        let page_file = work.join("pages.bin");

        // the first set-up serves the run; the others follow it, so their
        // median samples the machine at several times
        let first = build(&g, &patterns, spec, &page_file);
        let setup = vec![first.times];
        let Built { server, base, .. } = first;

        let mut gen = OpGen::new(&g, &base, seed);
        let acked_epoch = AtomicU64::new(0);
        let (collected, over_cap) = (AtomicU64::new(0), AtomicBool::new(false));
        let ctx = WriterCtx {
            client: server.client(),
            acked_epoch: &acked_epoch,
            page_file: (&page_file, std::fs::metadata(&page_file).expect("page file exists").len()),
            collected: &collected,
            over_cap: &over_cap,
        };
        let mut answers = Answers::new();
        let (mut read_errors, mut stale) = (0u64, 0u64);
        let mut windows = Vec::new();
        let mut writes = Vec::new();
        let halves: &[bool] = if trace { &[false, true] } else { &[false] };
        let window_s = seconds / halves.len() as f64;
        for (i, &traced) in halves.iter().enumerate() {
            if traced {
                colorist_trace::collect_start();
            }
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(window_s);
            let (log, mut w) = std::thread::scope(|s| {
                let client = server.client();
                let (patterns, acked) = (&patterns, &acked_epoch);
                let rseed = seed.wrapping_mul(31).wrapping_add(i as u64);
                let reader = s.spawn(move || reader(client, patterns, rseed, start, end, acked));
                let w = writer(&ctx, &mut gen, start, end);
                (reader.join().expect("reader thread"), w)
            });
            let finished = log.finished.expect("reader stamps its finish");
            for (k, n) in log.answers {
                *answers.entry(k).or_default() += n;
            }
            read_errors += log.errors;
            stale += log.stale;
            writes.append(&mut w);
            windows.push(Window {
                seconds: (finished - start).as_secs_f64(),
                reads: log.reads,
                metrics: log.metrics,
            });
        }
        let trace_data = trace.then(colorist_trace::collect_stop);
        drop(ctx);
        let final_db = server.shutdown();

        // correctness
        let reads: u64 = windows.iter().map(|w| w.reads.len() as u64).sum::<u64>() + read_errors;
        let attempted = reads + writes.len() as u64;
        let mut run = Run {
            setup,
            windows,
            writes,
            trace: trace_data,
            direct: None,
            peak_rss_mb: 0.0,
            file_bytes_per_live_byte: 0.0,
            attempted,
            failed: read_errors + stale,
            problems: Vec::new(),
        };
        if read_errors > 0 {
            run.problems.push(format!("{read_errors} reads returned an error"));
        }
        if stale > 0 {
            run.problems.push(format!(
                "{stale} reads saw an epoch older than a write acknowledged before they were sent"
            ));
        }
        if over_cap.load(Ordering::SeqCst) {
            run.problems.push(format!(
                "page file grew by more than {PAGE_FILE_CAP_PER_WRITE} bytes per write"
            ));
        }
        run.replay_check(&g, &patterns, base, &answers, &final_db);
        run.storage_check(spec, &page_file, &final_db, work);
        if trace {
            run.direct = Some(layers::direct(&g, &patterns, &final_db, &mut gen));
        }
        run.peak_rss_mb = peak_rss_mb();
        for _ in 1..SETUP_REPS {
            std::fs::remove_file(&page_file).expect("remove the previous page file");
            let b = build(&g, &patterns, spec, &page_file);
            drop(b.server.shutdown());
            run.setup.push(b.times);
        }
        for t in &run.setup {
            eprintln!("svcbench: set-up {:.3} s {t:?}", t.total());
        }
        run
    }

    /// Replay every acknowledged write serially, in admission order, on
    /// the initial state; compare each read answer with direct
    /// `optimize` + `execute` on the replayed state the read's epoch names,
    /// and the server's final state with the replayed one.
    ///
    /// Epoch numbers are matched by commit order, not by value: a server
    /// commit publishes one epoch per group, while a serial `apply` bumps
    /// the epoch once per mutation, so only the data is compared.
    fn replay_check(
        &mut self,
        g: &ErGraph,
        patterns: &[Pattern],
        base: Database,
        answers: &Answers,
        final_db: &Database,
    ) {
        let mut by_epoch: BTreeMap<u64, Vec<(u8, u64, u64)>> = BTreeMap::new();
        for (&(q, epoch, d), &n) in answers {
            by_epoch.entry(epoch).or_default().push((q, d, n));
        }
        let mut wrong = 0u64;
        let mut check_reads = |epoch: u64, db: &Database, problems: &mut Vec<String>| {
            let Some(seen) = by_epoch.remove(&epoch) else { return };
            let mut expected: HashMap<u8, u64> = HashMap::new();
            for (q, d, n) in seen {
                let want = *expected.entry(q).or_insert_with(|| {
                    let p = &patterns[q as usize];
                    let plan = optimize(db, g, p).expect("TPC-W pattern optimizes");
                    let r = execute(db, g, &plan).expect("TPC-W plan executes");
                    digest(r.results, r.distinct, &r.elements)
                });
                if d != want {
                    wrong += n;
                    problems.push(format!(
                        "{n} answers to {} at epoch {epoch} differ from direct execution",
                        patterns[q as usize].name
                    ));
                }
            }
        };
        let mut db = base;
        let mut published = db.epoch();
        check_reads(published, &db, &mut self.problems);
        for (k, w) in self.writes.iter().enumerate() {
            if !w.flushed {
                self.failed += 1;
                self.problems.push(format!("the flush after write {k} failed"));
            }
            match &w.reply {
                Ok(reply) => {
                    if let Err(e) = w.batch.apply(&mut db, g) {
                        self.failed += 1;
                        self.problems
                            .push(format!("write {k} acknowledged but fails serially: {e}"));
                        continue;
                    }
                    if reply.group_epoch <= published {
                        self.failed += 1;
                        self.problems.push(format!(
                            "write {k} committed at epoch {} after epoch {published}",
                            reply.group_epoch
                        ));
                    }
                    published = reply.group_epoch;
                    check_reads(published, &db, &mut self.problems);
                }
                Err(e) => {
                    self.failed += 1;
                    self.problems.push(format!("write {k} failed: {e}"));
                }
            }
        }
        for (epoch, seen) in by_epoch {
            let n: u64 = seen.iter().map(|s| s.2).sum();
            wrong += n;
            self.problems.push(format!("{n} reads ran at epoch {epoch}, which no write published"));
        }
        self.failed += wrong;
        if let Err(e) = final_db.same_state(&db, false) {
            self.failed += 1;
            self.problems.push(format!("final state differs from serial replay: {e}"));
        }
    }

    /// The page file must reload to the final state; then measure its size
    /// against a fresh save of that state.
    fn storage_check(&mut self, spec: &Spec, path: &Path, final_db: &Database, work: &Path) {
        let pool = PoolConfig { pool_bytes: spec.pool_bytes };
        match Database::load_paged(path, final_db.schema.clone(), pool) {
            Ok(loaded) => {
                if let Err(e) = loaded.same_state(final_db, false) {
                    self.failed += 1;
                    self.problems.push(format!("page file reloads to a different state: {e}"));
                }
                // the meta page records the epoch of the batch's own flush;
                // group commit then renumbers the in-memory epoch
                if loaded.epoch() != final_db.epoch() {
                    eprintln!(
                        "svcbench: note: page file records epoch {}, the server published {}",
                        loaded.epoch(),
                        final_db.epoch()
                    );
                }
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("page file does not reload: {e}"));
            }
        }
        let fresh_path: PathBuf = work.join("fresh.bin");
        let mut fresh = final_db.clone();
        fresh.save_paged(&fresh_path, pool).expect("save a fresh copy of the final state");
        drop(fresh);
        let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;
        self.file_bytes_per_live_byte = stats::ratio(len(path), len(&fresh_path));
        std::fs::remove_file(&fresh_path).expect("remove the fresh save");
    }

    /// The `--trace 0` metrics.
    pub fn end_to_end(&self) -> Report {
        let w = &self.windows[0];
        let n = ((w.seconds / SLICE_S).round() as usize).max(1);
        let mut slices = w.slices_us(n);
        let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
        let slice_s = w.seconds / n as f64;
        let mut qps: Vec<f64> = slices.iter().map(|s| s.len() as f64 / slice_s).collect();
        let mut p50: Vec<f64> = slices.iter_mut().map(|s| percentile_of(s, 0.5)).collect();
        let mut p99: Vec<f64> = slices.iter_mut().map(|s| percentile_of(s, 0.99)).collect();
        let mut wl: Vec<f64> = self.writes.iter().map(WriteSample::latency_ms).collect();
        let mut setup: Vec<f64> = self.setup.iter().map(SetupTimes::total).collect();
        for (what, n, p) in [("reads in a slice", fewest, 0.99), ("writes", wl.len(), 0.9)] {
            let supported = if stats::supports(n, p) {
                String::new()
            } else {
                format!(
                    " (fewer than {}; {} samples needed)",
                    stats::MIN_BEYOND,
                    stats::samples_needed(p)
                )
            };
            eprintln!(
                "svcbench: p{} over {n} {what}: {} beyond{supported}",
                (p * 100.0) as u32,
                stats::samples_beyond(n, p),
            );
        }
        for kind in [Kind::Attr, Kind::Delete] {
            let mut v: Vec<f64> = self
                .writes
                .iter()
                .filter(|w| w.kind == kind)
                .map(WriteSample::latency_ms)
                .collect();
            eprintln!(
                "svcbench: {kind:?} writes: {} with median {:.3} ms",
                v.len(),
                median(&mut v)
            );
        }
        let mut r = Report::default();
        r.add("setup_s", median(&mut setup), "s");
        r.add("read_p50_us", median(&mut p50), "us");
        r.add("read_p99_us", median(&mut p99), "us");
        r.add("read_qps", median(&mut qps), "1/s");
        r.add("write_p50_ms", percentile_of(&mut wl, 0.5), "ms");
        r.add("write_p90_ms", percentile_of(&mut wl, 0.9), "ms");
        r.add("peak_rss_mb", self.peak_rss_mb, "MiB");
        r.add("file_bytes_per_live_byte", self.file_bytes_per_live_byte, "ratio");
        r
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_store::BatchOp;
    use std::collections::HashSet;

    fn ops(g: &ErGraph, db: &Database, seed: u64, n: usize) -> Vec<(Kind, UpdateBatch)> {
        let mut gen = OpGen::new(g, db, seed);
        (0..n).map(|_| gen.next()).collect()
    }

    #[test]
    fn writes_are_seeded_three_to_one_and_never_delete_twice() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).expect("TPC-W builds");
        let schema = design(&g, Strategy::Dr).expect("designs");
        let mut db =
            materialize(&g, &schema, &generate(&g, &ScaleProfile::tpcw(&g, 40), DATA_SEED));
        let show = |v: &[(Kind, UpdateBatch)]| format!("{v:?}");
        let a = ops(&g, &db, 7, 36);
        assert_eq!(show(&a), show(&ops(&g, &db, 7, 36)), "same seed, same writes");
        assert_ne!(show(&a), show(&ops(&g, &db, 8, 36)), "another seed, other writes");
        for block in a.chunks(4) {
            assert_eq!(block.iter().filter(|(k, _)| *k == Kind::Delete).count(), 1);
        }
        let mut deleted = HashSet::new();
        for (kind, batch) in &a {
            assert_eq!(batch.len(), 1, "single-op batches");
            match (kind, &batch.ops()[0]) {
                (Kind::Delete, BatchOp::Delete { element }) => {
                    assert!(deleted.insert(*element), "delete target repeated")
                }
                (Kind::Attr, BatchOp::WriteAttr { element, .. }) => {
                    assert!(!deleted.contains(element), "write to a deleted item")
                }
                other => panic!("kind and op disagree: {other:?}"),
            }
            // every generated write commits serially
            batch.apply(&mut db, &g).expect("generated write applies");
        }
    }

    #[test]
    fn digests_tell_answers_apart() {
        let e = |v: &[u32]| v.iter().map(|&i| ElementId(i)).collect::<Vec<_>>();
        assert_eq!(digest(3, 2, &e(&[1, 2])), digest(3, 2, &e(&[1, 2])));
        assert_ne!(digest(3, 2, &e(&[1, 2])), digest(3, 2, &e(&[2, 1])));
        assert_ne!(digest(3, 2, &e(&[1, 2])), digest(2, 2, &e(&[1, 2])));
        assert_ne!(digest(0, 0, &[]), digest(0, 1, &[]));
    }
}

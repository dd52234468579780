//! The `--trace 1` report: per-layer metrics from three sources — the
//! spans the program already records (collected over the traced window),
//! fields of the replies and receipts, and the benchmark's own timing of
//! each layer's public functions on the final state.

use crate::stats::{hit_rate, median, percentile_of, ratio, uncovered_ns};
use crate::workload::{Kind, OpGen, Run, SetupTimes, WriteSample};
use crate::Report;
use colorist_er::ErGraph;
use colorist_query::{execute_snapshot, optimize, Pattern};
use colorist_store::{analyze_batch, BatchOp, Database};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each direct timing; every figure is a median.
const EXEC_REPS: usize = 31;
const OPTIMIZE_REPS: usize = 11;
const APPLY_REPS: usize = 5;
const SNAPSHOT_REPS: usize = 201;

/// Direct timings of layer entry points on the run's final state.
pub struct Direct {
    /// `execute_snapshot` per pattern, µs.
    pub exec_us: Vec<(String, f64)>,
    /// `optimize` (what one plan-cache miss pays), µs, mean over patterns.
    pub optimize_us: f64,
    pub apply_attr_ms: f64,
    pub apply_delete_ms: f64,
    pub validate_us: f64,
    pub effect_ms: f64,
    pub snapshot_us: f64,
    pub flush_ms: f64,
}

fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

pub fn direct(g: &ErGraph, patterns: &[Pattern], db: &Database, gen: &mut OpGen) -> Direct {
    let snap = db.snapshot();
    let mut exec_us = Vec::with_capacity(patterns.len());
    let mut optimize_us = 0.0;
    for p in patterns {
        let plan = optimize(db, g, p).expect("TPC-W pattern optimizes");
        let mut ex: Vec<f64> = (0..EXEC_REPS)
            .map(|_| time_us(|| execute_snapshot(&snap, g, &plan).expect("plan executes")))
            .collect();
        exec_us.push((p.name.clone(), median(&mut ex)));
        let mut opt: Vec<f64> = (0..OPTIMIZE_REPS)
            .map(|_| time_us(|| optimize(db, g, p).expect("optimizes")))
            .collect();
        optimize_us += median(&mut opt) / patterns.len() as f64;
    }
    let attrs: Vec<_> = (0..APPLY_REPS).map(|_| gen.next_of(Kind::Attr)).collect();
    let deletes: Vec<_> = (0..APPLY_REPS).map(|_| gen.next_of(Kind::Delete)).collect();
    let apply_ms = |batches: &[colorist_store::UpdateBatch]| {
        let mut v: Vec<f64> = batches
            .iter()
            .map(|b| {
                let mut staged = db.clone();
                time_us(|| b.apply(&mut staged, g).expect("generated write applies")) / 1e3
            })
            .collect();
        median(&mut v)
    };
    let mut validate: Vec<f64> = attrs
        .iter()
        .chain(&deletes)
        .flat_map(|b| (0..5).map(move |_| time_us(|| b.validate(db, g).expect("valid"))))
        .collect();
    let mut effect: Vec<f64> =
        attrs.iter().chain(&deletes).map(|b| time_us(|| analyze_batch(b, db, g)) / 1e3).collect();
    let mut snapshot: Vec<f64> = (0..SNAPSHOT_REPS).map(|_| time_us(|| db.snapshot())).collect();
    // a flush after one attribute write: on the paged backend this writes
    // the dirty segments into the run's page file
    let mut flush: Vec<f64> = attrs
        .iter()
        .map(|b| {
            let mut staged = db.clone();
            for op in b.ops() {
                if let BatchOp::WriteAttr { element, attr, value } = op {
                    staged.write_attr(*element, *attr, value.clone());
                }
            }
            time_us(|| staged.flush_storage().expect("flush writes")) / 1e3
        })
        .collect();
    Direct {
        exec_us,
        optimize_us,
        apply_attr_ms: apply_ms(&attrs),
        apply_delete_ms: apply_ms(&deletes),
        validate_us: median(&mut validate),
        effect_ms: median(&mut effect),
        snapshot_us: median(&mut snapshot),
        flush_ms: median(&mut flush),
    }
}

/// Commit-span figures from the trace: median duration (ms), share of
/// commit time no child span covers, and groups per admitted write.
fn commit_spans(trace: &colorist_trace::Trace) -> (f64, f64, f64) {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns()));
        }
    }
    let commits: Vec<_> =
        trace.spans.iter().filter(|s| s.cat == "server" && s.name == "commit").collect();
    let mut durs: Vec<f64> = commits.iter().map(|s| s.dur_ns as f64 / 1e6).collect();
    let (mut total, mut uncovered, mut groups, mut admitted) = (0u64, 0u64, 0u64, 0u64);
    for s in &commits {
        total += s.dur_ns;
        let kids = children.get_mut(&s.id).map(Vec::as_mut_slice).unwrap_or(&mut []);
        uncovered += uncovered_ns(s.start_ns, s.end_ns(), kids);
        groups += s.counter("groups").unwrap_or(0);
        admitted += s.counter("admitted").unwrap_or(0);
    }
    (
        median(&mut durs),
        ratio(uncovered as f64, total as f64),
        ratio(groups as f64, admitted as f64),
    )
}

pub fn report(run: &Run) -> Report {
    // reply-derived figures come from the untraced half, so collecting
    // spans does not distort them; span-derived ones from the traced half
    let (untraced, traced) = (&run.windows[0], &run.windows[1]);
    let d = run.direct.as_ref().expect("traced runs time the layers directly");
    let trace = run.trace.as_ref().expect("traced runs collect spans");
    let m = &untraced.metrics;
    let reads = untraced.reads.len() as f64;
    let mut r = Report::default();

    // server
    let mut per_pattern: HashMap<u8, Vec<f64>> = HashMap::new();
    for s in &untraced.reads {
        per_pattern.entry(s.pattern).or_default().push(s.latency_ns as f64 / 1e3);
    }
    let dispatch: Vec<f64> = d
        .exec_us
        .iter()
        .enumerate()
        .filter_map(|(q, (_, exec))| {
            per_pattern.get_mut(&(q as u8)).map(|lat| percentile_of(lat, 0.5) - exec)
        })
        .collect();
    r.add("server.dispatch_us", ratio(dispatch.iter().sum(), dispatch.len() as f64), "us");
    let mut wait: Vec<f64> = untraced.reads.iter().map(|s| s.queue_wait_ns as f64 / 1e3).collect();
    r.add("server.queue_wait_us.p50", percentile_of(&mut wait, 0.5), "us");
    r.add("server.queue_wait_us.p99", percentile_of(&mut wait, 0.99), "us");
    let (commit_ms, unattributed, groups_per_admitted) = commit_spans(trace);
    r.add("server.commit_ms", commit_ms, "ms");
    r.add("server.commit_unattributed_frac", unattributed, "ratio");
    r.add("server.groups_per_admitted", groups_per_admitted, "ratio");

    // query
    let hits = untraced.reads.iter().filter(|s| s.hit).count() as u64;
    r.add("query.plan_hit_rate", hit_rate(hits, untraced.reads.len() as u64 - hits), "ratio");
    r.add("query.optimize_us", d.optimize_us, "us");
    for (name, us) in &d.exec_us {
        r.add(format!("query.exec_us.{name}"), *us, "us");
    }
    r.add("query.scanned_per_result", ratio(m.elements_scanned as f64, m.results as f64), "ratio");
    r.add("query.join_probes_per_read", ratio(m.join_probes as f64, reads), "count");
    r.add("query.bytes_touched_per_read", ratio(m.bytes_touched as f64, reads), "bytes");

    // store
    let writes = run.writes.iter().filter_map(|w| w.reply.as_ref().ok()).collect::<Vec<_>>();
    let n_writes = writes.len() as f64;
    r.add("store.apply_ms.attr", d.apply_attr_ms, "ms");
    r.add("store.apply_ms.delete", d.apply_delete_ms, "ms");
    r.add("store.validate_us", d.validate_us, "us");
    r.add("store.effect_ms", d.effect_ms, "ms");
    r.add("store.snapshot_us", d.snapshot_us, "us");
    let dup: u64 = writes.iter().map(|w| w.receipt.duplicate_writes).sum();
    r.add("store.duplicate_writes_per_write", ratio(dup as f64, n_writes), "count");

    // storage
    let pages: u64 = writes.iter().map(|w| w.receipt.pages_written).sum();
    r.add("storage.pages_written_per_write", ratio(pages as f64, n_writes), "count");
    r.add("storage.flush_ms", d.flush_ms, "ms");
    r.add("storage.page_reads_per_read", ratio(m.page_reads as f64, reads), "count");
    r.add("storage.pool_hit_rate", hit_rate(m.pool_hits, m.page_reads), "ratio");
    r.add("storage.pool_evictions_per_read", ratio(m.pool_evictions as f64, reads), "count");

    // setup
    let phase = |f: fn(&SetupTimes) -> f64| {
        let mut v: Vec<f64> = run.setup.iter().map(|t| f(t) * 1e3).collect();
        median(&mut v)
    };
    r.add("setup.design_ms", phase(|t| t.design), "ms");
    r.add("setup.generate_ms", phase(|t| t.generate), "ms");
    r.add("setup.materialize_ms", phase(|t| t.materialize), "ms");
    r.add("setup.attach_ms", phase(|t| t.attach), "ms");
    r.add("setup.start_ms", phase(|t| t.start), "ms");
    r.add("setup.warm_ms", phase(|t| t.warm), "ms");

    // validity of the measurement itself
    let lag = run.writes.iter().map(WriteSample::lag_ms).fold(0.0, f64::max);
    r.add("bench.generator_lag_ms", lag, "ms");
    let p50 = |w: &crate::workload::Window| percentile_of(&mut w.latencies_us(), 0.5);
    r.add("bench.trace_overhead_frac", ratio(p50(traced), p50(untraced)) - 1.0, "ratio");
    r
}

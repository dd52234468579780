//! Cross-crate torture tests for the multi-client query service
//! (DESIGN.md §15): N-client mixed read/write schedules replayed
//! serially as the oracle reference. Per-read answers, the final
//! database state (`same_state`), and every deterministic counter must
//! be identical across 1/2/8 workers, both kernel families, and both
//! storage backends — epoch included — and the prepared-plan cache must
//! reach steady-state hit rate ≥ 0.99 with zero stale serves after a
//! statistics-epoch bump. A page store the server flushed to reloads at
//! the epoch the server published.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph, NodeId};
use colorist::query::{execute, optimize, Pattern};
use colorist::server::{Server, ServerConfig};
use colorist::store::{
    Database, ElementId, KernelDispatch, MemPages, Metrics, PoolConfig, UpdateBatch, Value,
};
use colorist::workload::tpcw;
use std::sync::Arc;
use std::time::Duration;

fn by_name(g: &ErGraph, name: &str) -> NodeId {
    g.node_ids().find(|&n| g.node(n).name == name).expect("node exists")
}

fn instance(db: &Database, node: NodeId, ordinal: u32) -> ElementId {
    db.canonical_by_ordinal(node, ordinal).expect("instance exists")
}

/// A read's answer shape: (physical results, distinct results, elements).
type Answer = (u64, u64, Vec<ElementId>);

/// Tiny deterministic LCG so schedules are reproducible without any
/// external randomness source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One sync round of a client schedule: the writes are admitted and
/// flushed (one commit frontier), then the reads run against the
/// published epoch. The flush barrier is what makes the schedule
/// deterministic under any worker count — between rounds there is
/// exactly one database state a read can observe.
struct Round {
    writes: Vec<UpdateBatch>,
    reads: Vec<usize>,
}

/// Build a mixed schedule against `db`: attribute writes on low-ordinal
/// customers/items, one mid-schedule instance delete on an item nobody
/// else touches, and reads cycling the TPC-W patterns.
fn schedule(g: &ErGraph, db: &Database, seed: u64) -> Vec<Round> {
    let customer = by_name(g, "customer");
    let item = by_name(g, "item");
    let mut rng = Lcg(seed);
    (0..3)
        .map(|round| {
            let mut writes = Vec::new();
            for _ in 0..3 {
                let mut b = UpdateBatch::new();
                if rng.next().is_multiple_of(2) {
                    let e = instance(db, customer, (rng.next() % 5) as u32);
                    b.write_attr(e, 1, Value::Int(rng.next() as i64 & 0xffff));
                } else {
                    let e = instance(db, item, (rng.next() % 4) as u32);
                    b.write_attr(e, 2, Value::Int(rng.next() as i64 & 0xffff));
                }
                writes.push(b);
            }
            if round == 1 {
                let mut b = UpdateBatch::new();
                b.delete(instance(db, item, 5));
                writes.push(b);
            }
            let reads = (0..6).map(|_| (rng.next() % 5) as usize).collect();
            Round { writes, reads }
        })
        .collect()
}

/// Replay the schedule serially — direct `apply` + direct `execute` on
/// the evolving database. Returns the per-read answers (in global
/// submission order) and the final database.
fn serial_replay(
    g: &ErGraph,
    mut db: Database,
    patterns: &[Pattern],
    plan: &[Round],
) -> (Vec<Answer>, Database) {
    let mut answers = Vec::new();
    for round in plan {
        for w in &round.writes {
            w.apply(&mut db, g).expect("serial write applies");
        }
        for &qi in &round.reads {
            let p = optimize(&db, g, &patterns[qi]).expect("plan");
            let r = execute(&db, g, &p).expect("serial read runs");
            answers.push((r.results, r.distinct, r.elements));
        }
    }
    (answers, db)
}

/// Run the schedule through a server: writes admitted from the main
/// thread (admission order = schedule order), a flush barrier per round,
/// then the round's reads fired from two concurrent client threads and
/// folded back in submission order.
fn server_replay(
    g: &ErGraph,
    db: Database,
    patterns: &[Pattern],
    plan: &[Round],
    workers: usize,
) -> (Vec<Answer>, Database, Metrics) {
    let server = Server::start(db, g, &ServerConfig::default().with_workers(workers));
    let main = server.client();
    let mut answers = Vec::new();
    for round in plan {
        let pending: Vec<_> = round.writes.iter().map(|w| main.write(w.clone())).collect();
        main.flush().wait().expect("flush commits");
        for p in pending {
            p.wait().expect("write commits");
        }
        let mut shards: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
            (0..2)
                .map(|t| {
                    let c = server.client();
                    let reads = &round.reads;
                    scope.spawn(move || {
                        reads
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 2 == t)
                            .map(|(i, &qi)| {
                                let r = c.read(&patterns[qi]).wait().expect("read serves");
                                (i, (r.results, r.distinct, r.elements))
                            })
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut flat: Vec<_> = shards.drain(..).flatten().collect();
        flat.sort_unstable_by_key(|&(i, _)| i);
        answers.extend(flat.into_iter().map(|(_, a)| a));
    }
    let metrics = server.metrics();
    let final_db = server.shutdown();
    (answers, final_db, metrics)
}

/// Zero the wall-clock-derived fields so the rest of the counter set can
/// be compared exactly across worker counts.
fn deterministic(m: Metrics) -> Metrics {
    Metrics { elapsed: Duration::ZERO, queue_wait_ns: 0, ..m }
}

/// The tentpole invariant: for every strategy, kernel family, and
/// storage backend, the concurrent schedule lands on the serial oracle's
/// answers and final state (epoch included) for 1, 2, and 8 workers — and every
/// deterministic counter (plan-cache families included) is identical
/// across the worker counts.
#[test]
fn torture_matches_serial_oracle_for_any_worker_count() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let patterns: Vec<Pattern> = tpcw::workload(&g).reads.into_iter().take(5).collect();
    let instance_data = generate(&g, &ScaleProfile::uniform(&g, 6), 11);
    for s in Strategy::ALL {
        let schema = design(&g, s).expect("tpcw designs");
        for dispatch in [KernelDispatch::Reference, KernelDispatch::CostModel] {
            for paged in [false, true] {
                let mut base = materialize(&g, &schema, &instance_data);
                base.set_kernel_dispatch(dispatch);
                if paged {
                    base.attach_paged(Arc::new(MemPages::new()), PoolConfig::default())
                        .expect("paged backend attaches");
                }
                let plan = schedule(&g, &base, 0xC0FFEE ^ s as u64);
                let (oracle_answers, oracle_db) = serial_replay(&g, base.clone(), &patterns, &plan);
                let mut counter_sets = Vec::new();
                for workers in [1, 2, 8] {
                    let ctx = format!("{s}/{dispatch:?}/paged={paged}/workers={workers}");
                    let (answers, final_db, metrics) =
                        server_replay(&g, base.clone(), &patterns, &plan, workers);
                    assert_eq!(answers, oracle_answers, "{ctx}: answers diverge from serial");
                    final_db
                        .same_state(&oracle_db, true)
                        .unwrap_or_else(|m| panic!("{ctx}: state diverges from serial: {m}"));
                    counter_sets.push((ctx, deterministic(metrics)));
                }
                let (ref_ctx, reference) = &counter_sets[0];
                for (ctx, m) in &counter_sets[1..] {
                    assert_eq!(
                        m, reference,
                        "{ctx}: deterministic counters diverge from {ref_ctx}"
                    );
                }
            }
        }
    }
}

/// Acceptance criterion: steady-state plan-cache hit rate ≥ 0.99 on a
/// repeated workload, and a statistics-epoch bump causes exactly one
/// re-optimization per pattern — never a stale serve.
#[test]
fn plan_cache_steady_state_hit_rate_with_zero_stale_serves() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let schema = design(&g, Strategy::Dr).expect("tpcw designs");
    let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 6), 11));
    let customer = by_name(&g, "customer");
    let target = instance(&db, customer, 0);
    let patterns: Vec<Pattern> = tpcw::workload(&g).reads.into_iter().take(2).collect();
    let server = Server::start(db, &g, &ServerConfig::default().with_workers(4));
    let c = server.client();
    // repeated workload: 2 compile misses, then hits forever
    for i in 0..300 {
        let r = c.read(&patterns[i % 2]).wait().expect("read serves");
        assert_eq!(r.cache_hit, i >= 2, "request {i}");
    }
    let stats = server.cache_stats();
    assert!(stats.hit_rate() >= 0.99, "steady-state hit rate {}", stats.hit_rate());
    assert_eq!((stats.hits, stats.misses), (298, 2));

    // a committed write bumps the statistics epoch: the next serve of
    // each pattern must re-optimize (miss), all later serves hit again
    let mut b = UpdateBatch::new();
    b.write_attr(target, 1, Value::Int(4242));
    c.write(b);
    c.flush().wait().expect("flush commits");
    for (i, q) in patterns.iter().enumerate() {
        assert!(!c.read(q).wait().expect("read serves").cache_hit, "pattern {i} must re-optimize");
        assert!(c.read(q).wait().expect("read serves").cache_hit, "pattern {i} re-cached");
    }
    let m = server.metrics();
    assert_eq!((m.plan_cache_misses, m.plan_cache_hits), (4, 300), "zero stale serves");
    server.shutdown();
}

/// The page store and the published read view agree on the epoch: after
/// one attribute write and one item delete through the server, a flush
/// and a shutdown, the database reloaded from the backend sits at
/// `published_epoch()` and holds the same data, on every strategy.
#[test]
fn page_store_reloads_at_the_published_epoch() {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let instance_data = generate(&g, &ScaleProfile::uniform(&g, 6), 11);
    for s in Strategy::ALL {
        let schema = design(&g, s).expect("tpcw designs");
        let mut db = materialize(&g, &schema, &instance_data);
        let pages = Arc::new(MemPages::new());
        db.attach_paged(pages.clone(), PoolConfig::default()).expect("paged backend attaches");
        let customer = instance(&db, by_name(&g, "customer"), 0);
        let item = instance(&db, by_name(&g, "item"), 5);
        let server = Server::start(db, &g, &ServerConfig::default());
        let c = server.client();
        let mut write = UpdateBatch::new();
        write.write_attr(customer, 1, Value::Int(4242));
        let mut delete = UpdateBatch::new();
        delete.delete(item);
        let pending = [c.write(write), c.write(delete)];
        let flush = c.flush().wait().expect("flush commits");
        for p in pending {
            p.wait().expect("write commits");
        }
        let published = server.published_epoch();
        assert_eq!(flush.epoch, published, "{s}");
        let final_db = server.shutdown();
        let reloaded = Database::load_from_backend(pages, schema, PoolConfig::default())
            .expect("page store reloads");
        assert_eq!(reloaded.epoch(), published, "{s}: reloaded epoch");
        reloaded.same_state(&final_db, false).unwrap_or_else(|m| panic!("{s}: {m}"));
    }
}

//! Cross-crate integration tests for the static batch effect analysis:
//! B003 commutativity certificates must predict dynamic commutation on
//! real tpcw materializations under every strategy, and B004
//! read-footprint disjointness must predict answer stability of compiled
//! plans across commits.

use colorist::core::{design, Strategy};
use colorist::datagen::{generate, materialize, ScaleProfile};
use colorist::er::{catalog, ErGraph, NodeId};
use colorist::query::{compile, execute, plan_read_footprint, PatternBuilder};
use colorist::store::{analyze_batch, certify, Database, ElementId, UpdateBatch, Value};

fn build(strategy: Strategy) -> (ErGraph, Database) {
    let g = ErGraph::from_diagram(&catalog::tpcw()).expect("tpcw builds");
    let schema = design(&g, strategy).expect("tpcw designs");
    let db = materialize(&g, &schema, &generate(&g, &ScaleProfile::uniform(&g, 8), 11));
    (g, db)
}

fn by_name(g: &ErGraph, name: &str) -> NodeId {
    g.node_ids().find(|&n| g.node(n).name == name).expect("node exists")
}

fn instance(db: &Database, node: NodeId, ordinal: u32) -> ElementId {
    db.canonical_by_ordinal(node, ordinal).expect("instance exists")
}

/// Write-only batches on disjoint entities certify independent on every
/// strategy, and actually commute: both commit orders produce
/// byte-identical databases — extents, trees, indexes, statistics, and
/// epoch.
#[test]
fn disjoint_writes_certify_and_commute_on_every_strategy() {
    for s in Strategy::ALL {
        let (g, db) = build(s);
        let customer = instance(&db, by_name(&g, "customer"), 0);
        let item = instance(&db, by_name(&g, "item"), 0);
        let mut a = UpdateBatch::new();
        a.write_attr(customer, 1, Value::Int(41));
        let mut b = UpdateBatch::new();
        b.write_attr(item, 2, Value::Int(42));
        let fa = analyze_batch(&a, &db, &g).footprint;
        let fb = analyze_batch(&b, &db, &g).footprint;
        let cert = certify(&fa, &fb);
        assert!(cert.is_independent(), "{s}: {cert}");
        let mut ab = db.clone();
        a.apply(&mut ab, &g).expect("A then B applies");
        b.apply(&mut ab, &g).expect("A then B applies");
        let mut ba = db.clone();
        b.apply(&mut ba, &g).expect("B then A applies");
        a.apply(&mut ba, &g).expect("B then A applies");
        ab.same_state(&ba, true).unwrap_or_else(|m| panic!("{s}: {m}"));
    }
}

/// Two writes to the same attribute cell certify conflicting with the
/// written cell as witness, on every strategy.
#[test]
fn same_cell_writes_certify_conflicting() {
    for s in Strategy::ALL {
        let (g, db) = build(s);
        let customer = instance(&db, by_name(&g, "customer"), 0);
        let mut a = UpdateBatch::new();
        a.write_attr(customer, 1, Value::Int(1));
        let mut b = UpdateBatch::new();
        b.write_attr(customer, 1, Value::Int(2));
        let fa = analyze_batch(&a, &db, &g).footprint;
        let fb = analyze_batch(&b, &db, &g).footprint;
        let cert = certify(&fa, &fb);
        assert!(!cert.is_independent(), "{s}: same-cell writes must conflict");
    }
}

/// B004 end to end: a compiled plan whose read footprint is disjoint
/// from a batch's write footprint answers identically before and after
/// the commit; a batch that deletes from the plan's scanned node is
/// flagged as invalidating.
#[test]
fn read_footprint_disjointness_predicts_answer_stability() {
    for s in Strategy::ALL {
        let (g, db) = build(s);
        let q = PatternBuilder::new(&g, "items")
            .node("item")
            .pred_eq("id", Value::Int(3))
            .output(0)
            .build()
            .expect("item selection builds");
        let plan = compile(&g, &db.schema, &q).expect("item selection compiles");
        let reads = plan_read_footprint(&g, &db.schema, &plan);

        // a write to an item attribute the plan never reads is invisible
        let mut write = UpdateBatch::new();
        write.write_attr(instance(&db, by_name(&g, "item"), 1), 2, Value::Int(9));
        let fw = analyze_batch(&write, &db, &g).footprint;
        assert_eq!(fw.invalidates(&reads), None, "{s}");
        let pre = execute(&db, &g, &plan).expect("pre-commit run");
        let mut committed = db.clone();
        write.apply(&mut committed, &g).expect("write batch applies");
        let post = execute(&committed, &g, &plan).expect("post-commit run");
        assert_eq!(pre.elements, post.elements, "{s}");
        assert_eq!((pre.results, pre.distinct), (post.results, post.distinct), "{s}");

        // deleting an item retracts from the scanned extent: flagged
        let mut del = UpdateBatch::new();
        del.delete(instance(&db, by_name(&g, "item"), 1));
        // close over the relationship instances whose links die with it
        for e in g.edge_ids() {
            if g.edge(e).participant == by_name(&g, "item") {
                for ro in db.linked_rels(e, 1) {
                    del.delete(instance(&db, g.edge(e).rel, ro));
                }
            }
        }
        let fd = analyze_batch(&del, &db, &g).footprint;
        assert!(fd.invalidates(&reads).is_some(), "{s}: a delete from the scanned node");
    }
}

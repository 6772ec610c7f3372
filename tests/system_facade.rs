//! Integration tests for the end-to-end `PrivateDatabase` facade: private
//! answers come through a `Session` (its budget and determinism contracts
//! are tested in `service_session.rs`).

use r2t::core::R2TConfig;
use r2t::system::{PrivateDatabase, Session, SessionOptions};

fn db() -> PrivateDatabase {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    PrivateDatabase::new(schema, r2t::tpch::generate(0.08, 0.3, 3)).expect("valid instance")
}

fn cfg() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, 4096.0).early_stop(true).parallel(false).build()
}

fn session(db: &PrivateDatabase, seed: u64) -> Session<'_> {
    db.session(SessionOptions::new().total_epsilon(1.0).base(cfg()).seed(seed))
        .expect("session opens")
}

const ORDERS_SQL: &str = "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck";

#[test]
fn query_returns_underestimate() {
    let db = db();
    let exact = db.query_exact(ORDERS_SQL).expect("exact");
    let noisy = session(&db, 1).answer(ORDERS_SQL, 1.0).expect("dp answer").noisy;
    assert!(noisy <= exact + 1e-9);
    assert!(noisy > 0.0, "noisy answer should be informative: {noisy} vs {exact}");
}

#[test]
fn grouped_query_splits_budget() {
    let db = db();
    let session = session(&db, 2);
    let answer = session
        .prepare(&format!("{ORDERS_SQL} GROUP BY customer.mktsegment"))
        .expect("prepare")
        .answer_grouped(1.0)
        .expect("grouped answers");
    assert_eq!(answer.groups.len(), 5);
    for (key, v) in &answer.groups {
        assert_eq!(key.len(), 1);
        assert!(v.is_finite());
    }
    // One total charge, split across the groups.
    assert_eq!(answer.receipt.epsilon, 1.0);
    assert_eq!(session.num_charges(), 1);
}

#[test]
fn group_by_routed_to_the_right_api() {
    let db = db();
    let session = session(&db, 3);
    assert!(matches!(
        session.answer(&format!("{ORDERS_SQL} GROUP BY customer.mktsegment"), 0.5),
        Err(r2t::Error::Unsupported(_))
    ));
    assert!(matches!(
        session.prepare(ORDERS_SQL).expect("prepare").answer_grouped(0.5),
        Err(r2t::Error::Unsupported(_))
    ));
    assert_eq!(session.spent(), 0.0, "misrouted statements spend nothing");
}

#[test]
fn explain_reports_lineage() {
    let db = db();
    let text = db.explain(ORDERS_SQL).expect("explain");
    assert!(text.contains("join results"));
    assert!(text.contains("max tuple sensitivity"));
}

#[test]
fn invalid_instance_rejected() {
    let schema = r2t::tpch::tpch_schema(&["customer"]);
    let mut bad = r2t::engine::Instance::new();
    bad.insert(
        "orders",
        vec![r2t::engine::Value::Int(1), r2t::engine::Value::Int(999), r2t::engine::Value::Int(0)],
    );
    assert!(PrivateDatabase::new(schema, bad).is_err());
}

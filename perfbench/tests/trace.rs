use faultnet_perfbench::trace::{Tracer, OP};

fn spin(micros: u64) {
    let started = std::time::Instant::now();
    while started.elapsed().as_micros() < u128::from(micros) {
        std::hint::spin_loop();
    }
}

#[test]
fn self_times_and_the_unattributed_row_account_for_op_wall_time() {
    let mut tracer = Tracer::new();
    for _ in 0..3 {
        let op = tracer.begin_op();
        spin(200);
        tracer.time("layer.a", || spin(300));
        let b = tracer.enter("layer.b");
        tracer.time("layer.c", || spin(100));
        spin(100);
        tracer.exit(b);
        tracer.exit(op);
    }
    let layers = tracer.layer_times();
    let op = layers[OP];
    assert_eq!(op.count, 3);
    let self_sum: u64 = layers.values().map(|t| t.self_ns).sum();
    assert_eq!(
        self_sum, op.total_ns,
        "self times must partition op wall time"
    );
    assert!(
        op.self_ns > 0,
        "the unattributed row is the op span's own time"
    );
    let b = layers["layer.b"];
    assert_eq!(b.total_ns - b.self_ns, layers["layer.c"].total_ns);
    let tree = tracer.render_tree("test");
    assert!(tree.contains("(unattributed)"), "{tree}");
    assert!(tree.contains("layer.a"), "{tree}");
}

#[test]
fn spans_record_parent_and_op() {
    let mut tracer = Tracer::new();
    let op = tracer.begin_op();
    tracer.time("child", || ());
    tracer.exit(op);
    let op2 = tracer.begin_op();
    tracer.exit(op2);
    let spans = tracer.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
    let json = tracer.chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
}

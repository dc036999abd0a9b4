//! Tiny-scale runs of every workload: each must pass its own checks,
//! and must fail them once an expected output is corrupted.

use polaris_perfbench::trace::Tracer;
use polaris_perfbench::{
    end_to_end, layer_metric_table, per_layer, run_workload, Ctx, Report, Scale, WORKLOADS,
};
use std::sync::Arc;

fn tiny(workload: &str, tracer: Arc<Tracer>, tamper: bool) -> Report {
    let ctx = Ctx {
        seed: 7,
        seconds: 0.05,
        jobs: 2,
        scale: Scale::Tiny,
        tracer,
        tamper,
    };
    run_workload(workload, &ctx).expect("known workload")
}

#[test]
fn tiny_runs_pass_their_checks_and_report_every_metric() {
    for w in WORKLOADS {
        let r = tiny(w, Arc::new(Tracer::new(false)), false);
        assert!(r.tally.attempted > 0, "{w}: nothing attempted");
        assert_eq!(r.tally.failed, 0, "{w}: {:?}", r.failures);
        for (name, value, _) in end_to_end(&r) {
            assert!(value.is_finite() && value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn corrupted_expectations_fail_the_checks() {
    for w in WORKLOADS {
        let r = tiny(w, Arc::new(Tracer::new(false)), true);
        assert!(
            r.tally.failed > 0,
            "{w}: a corrupted expected output went unnoticed"
        );
        assert!(!r.failures.is_empty(), "{w}: failures carry no reason");
    }
}

#[test]
fn traced_runs_report_the_whole_layer_table() {
    let table = layer_metric_table();
    for w in WORKLOADS {
        let untraced = tiny(w, Arc::new(Tracer::new(false)), false);
        let tracer = Arc::new(Tracer::new(true));
        let traced = tiny(w, Arc::clone(&tracer), false);
        assert_eq!(traced.tally.failed, 0, "{w}: {:?}", traced.failures);
        assert_eq!(
            traced.digest, untraced.digest,
            "{w}: tracing changed the outputs"
        );
        assert!(!tracer.spans().is_empty(), "{w}: no spans");
        let layers = per_layer(&traced, &untraced, &tracer);
        let names: Vec<&String> = layers.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, table.iter().map(|(n, _)| n).collect::<Vec<_>>());
        assert!(
            layers.iter().all(|(_, v, _)| v.is_finite()),
            "{w}: {layers:?}"
        );
    }
}

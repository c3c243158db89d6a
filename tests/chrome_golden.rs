//! Golden test for the Chrome-trace exporter: a fixed, fully
//! deterministic run must export byte-identical JSON across repeats,
//! the JSON must parse, and every span's B/E pair must nest correctly
//! per track (checked by the same validator the CLI uses).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::rc::Rc;

use stash::prelude::*;
use stash::trace::chrome;

fn golden_events() -> Vec<(u32, TraceEvent)> {
    // Small model, sampled epoch: the simulator is seed-free and fully
    // deterministic, so this is a fixed input by construction.
    let mut cfg =
        TrainConfig::synthetic(ClusterSpec::single(p3_8xlarge()), zoo::alexnet(), 8, 8 * 3);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 3 };
    cfg.data = DataMode::Real {
        dataset: DatasetSpec::imagenet1k(),
        cache: CacheState::Warm,
    };

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    Run {
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("golden run");
    let events = sink.borrow().events().to_vec();
    events
}

#[test]
fn chrome_export_is_deterministic_and_well_nested() {
    let a = serde_json::to_string_pretty(&chrome::export(&golden_events())).unwrap();
    let b = serde_json::to_string_pretty(&chrome::export(&golden_events())).unwrap();
    assert_eq!(a, b, "export is not deterministic across identical runs");

    let stats = chrome::validate(&a).expect("exported JSON must parse and nest");
    assert!(stats.spans > 0, "golden trace has no spans");
    assert!(stats.tracks > 1, "expected gpu + loader + flow tracks");

    // Spot-check the document shape beyond what the validator asserts.
    let doc: serde_json::Value = serde_json::from_str(&a).unwrap();
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    for required in ["M", "B", "E", "i", "C"] {
        assert!(
            phases.contains(&required),
            "no '{required}' events in golden trace"
        );
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for span in ["forward", "backward", "step", "allreduce", "prep"] {
        assert!(
            names.contains(&span),
            "span '{span}' missing from golden trace"
        );
    }
}

#[test]
fn validator_rejects_corrupted_traces() {
    let text = serde_json::to_string(&chrome::export(&golden_events())).unwrap();
    // Flip every E into a B: nesting is now hopelessly unbalanced.
    let broken = text.replace("\"ph\":\"E\"", "\"ph\":\"B\"");
    assert!(
        chrome::validate(&broken).is_err(),
        "validator accepted unbalanced spans"
    );
}

//! Integration tests: each lint rule fires exactly on its known-bad fixture, the
//! exemption patterns stay silent, and — the gate that matters — the repo itself
//! lints clean.

use analyzer::{lint_source, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn by_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn no_panic_fires_on_every_construct_and_respects_exemptions() {
    let source = fixture("bad_panic.rs");
    // Synthetic library path so the rule's scope applies.
    let violations = lint_source("crates/demo/src/bad_panic.rs", &source);
    let hits = by_rule(&violations, "no-panic");
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented! — and nothing
    // from the allow-annotated line or the #[cfg(test)] mod.
    assert_eq!(
        hits.len(),
        6,
        "expected 6 no-panic hits, got: {violations:?}"
    );
    let messages: Vec<&str> = hits.iter().map(|v| v.message.as_str()).collect();
    for needle in [
        ".unwrap()",
        ".expect()",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "no hit mentioning {needle}: {messages:?}"
        );
    }
    assert_eq!(by_rule(&violations, "allow-without-reason").len(), 0);
}

#[test]
fn no_panic_is_scoped_to_library_code() {
    let source = fixture("bad_panic.rs");
    for path in [
        "crates/demo/tests/bad_panic.rs",
        "crates/demo/src/tests.rs",
        "examples/bad_panic.rs",
        "crates/bench/src/bad_panic.rs",
        "crates/shims/serde/src/bad_panic.rs",
    ] {
        let violations = lint_source(path, &source);
        assert_eq!(
            by_rule(&violations, "no-panic").len(),
            0,
            "{path} should be out of no-panic scope"
        );
    }
}

#[test]
fn wall_clock_fires_in_sim_paths_only() {
    let source = fixture("bad_wall_clock.rs");
    let violations = lint_source("crates/net-sim/src/bad_wall_clock.rs", &source);
    let hits = by_rule(&violations, "no-wall-clock");
    assert_eq!(
        hits.len(),
        3,
        "Instant::now, SystemTime::now, thread::sleep: {violations:?}"
    );

    // Same source under a chaos.rs basename is also in scope.
    let chaos = lint_source("crates/job-runtime/src/chaos.rs", &source);
    assert_eq!(by_rule(&chaos, "no-wall-clock").len(), 3);

    // Outside the deterministic scope the rule is silent.
    let elsewhere = lint_source("crates/mana/src/bad_wall_clock.rs", &source);
    assert_eq!(by_rule(&elsewhere, "no-wall-clock").len(), 0);

    // The approved clock module is exempt by name.
    let approved = lint_source("crates/net-sim/src/clock.rs", &source);
    assert_eq!(by_rule(&approved, "no-wall-clock").len(), 0);
}

#[test]
fn wall_clock_covers_the_mana_wrappers_and_no_other_mana_file() {
    let source = fixture("bad_wall_clock.rs");
    let wrappers = lint_source("crates/mana/src/wrappers.rs", &source);
    assert_eq!(
        by_rule(&wrappers, "no-wall-clock").len(),
        3,
        "the wrapper hot path is in scope: {wrappers:?}"
    );
    for path in ["crates/mana/src/ckpt.rs", "crates/mana/src/api/wrappers.rs"] {
        let violations = lint_source(path, &source);
        assert_eq!(
            by_rule(&violations, "no-wall-clock").len(),
            0,
            "{path} should be out of no-wall-clock scope"
        );
    }
}

#[test]
fn guard_across_blocking_fires_once_and_spares_the_idioms() {
    let source = fixture("bad_guard.rs");
    let violations = lint_source("crates/demo/src/bad_guard.rs", &source);
    let hits = by_rule(&violations, "guard-across-blocking");
    assert_eq!(
        hits.len(),
        1,
        "exactly the held-across-send case: {violations:?}"
    );
    assert!(hits[0].message.contains("`guard`"));
    assert!(hits[0].message.contains("send"));
    // The condvar idiom, early drop, temporary, and scope-exit functions in the
    // same fixture must all stay silent — one violation total proves that.
}

#[test]
fn payload_copy_fires_in_hot_paths_and_respects_exemptions() {
    let source = fixture("bad_payload_copy.rs");
    let violations = lint_source("crates/net-sim/src/bad_payload_copy.rs", &source);
    let hits = by_rule(&violations, "no-payload-copy");
    // payload.clone(), envelope.to_vec(), contribution.clone() — not the
    // reasoned allow, not `dup.clone()`, not the #[cfg(test)] mod.
    assert_eq!(
        hits.len(),
        3,
        "expected 3 no-payload-copy hits, got: {violations:?}"
    );
    for needle in [
        "payload.clone()",
        "envelope.to_vec()",
        "contribution.clone()",
    ] {
        assert!(
            hits.iter().any(|v| v.message.contains(needle)),
            "no hit mentioning {needle}: {hits:?}"
        );
    }
    assert_eq!(by_rule(&violations, "allow-without-reason").len(), 0);

    // The engine side of the fabric is in scope too.
    let engine = lint_source("crates/mpi-engine/src/bad_payload_copy.rs", &source);
    assert_eq!(by_rule(&engine, "no-payload-copy").len(), 3);

    // Outside the zero-copy hot paths the rule is silent — copying a payload in
    // e.g. the MANA wrappers or the store is a different layer's trade-off.
    for path in [
        "crates/mana/src/bad_payload_copy.rs",
        "crates/ckpt-store/src/bad_payload_copy.rs",
        "crates/net-sim/tests/bad_payload_copy.rs",
    ] {
        let elsewhere = lint_source(path, &source);
        assert_eq!(
            by_rule(&elsewhere, "no-payload-copy").len(),
            0,
            "{path} should be out of no-payload-copy scope"
        );
    }
}

#[test]
fn reasonless_allow_is_flagged_and_suppresses_nothing() {
    let source = fixture("bad_allow.rs");
    let violations = lint_source("crates/demo/src/bad_allow.rs", &source);
    assert_eq!(
        by_rule(&violations, "allow-without-reason").len(),
        1,
        "{violations:?}"
    );
    // The unwrap under the reasonless annotation still fires.
    assert_eq!(by_rule(&violations, "no-panic").len(), 1, "{violations:?}");
}

#[test]
fn repo_lints_clean() {
    // CARGO_MANIFEST_DIR = crates/analyzer — the workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = analyzer::lint_repo(&root).expect("walk the repo");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "repo must lint clean; found:\n{}",
        rendered.join("\n")
    );
}

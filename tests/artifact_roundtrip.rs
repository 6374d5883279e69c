//! Artifact-cache round-trip guarantees: a session opened from a cached
//! artifact must be indistinguishable — bit for bit — from the cold
//! build that produced it, for every engine; and an artifact that fails
//! any validation step must be rejected with a structured error, never
//! silently mis-loaded.

use statobd::circuits::Benchmark;
use statobd::{AnalysisSpec, ArtifactCache, EngineKind, Error, Session};

/// A scratch cache rooted in a unique temp dir, removed on drop.
struct Scratch {
    root: std::path::PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("statobd-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch dir");
        Scratch { root }
    }

    fn cache(&self) -> ArtifactCache {
        ArtifactCache::new(&self.root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Log-spaced query times spanning the interesting probability range.
fn sweep_times() -> Vec<f64> {
    (0..24).map(|i| 1e6 * 10f64.powf(i as f64 * 0.25)).collect()
}

/// Every engine on a benchmark design answers the committed sweep
/// bit-identically whether built cold or loaded from the cache.
fn roundtrip_all_engines(benchmark: Benchmark, grid_side: usize) {
    // One scratch cache per design: the per-design tests run concurrently
    // in one process, and a shared directory would let one test's
    // cleanup delete the other's artifacts between its cold and warm
    // opens.
    let scratch = Scratch::new(&format!("roundtrip-{}", benchmark.name()));
    let cache = scratch.cache();
    let ts = sweep_times();
    for kind in EngineKind::ALL {
        let spec = AnalysisSpec::benchmark(benchmark)
            .with_grid_side(grid_side)
            .with_engine(kind)
            .with_threads(Some(1));
        let mut cold = Session::open(&spec, &cache).expect("cold open");
        assert_eq!(cold.stats().source.name(), "cold", "{}", kind.name());
        let mut warm = Session::open(&spec, &cache).expect("warm open");
        assert_eq!(warm.stats().source.name(), "cache", "{}", kind.name());

        let p_cold = cold.p_at_many(&ts).expect("cold sweep");
        let p_warm = warm.p_at_many(&ts).expect("warm sweep");
        for (i, (a, b)) in p_cold.iter().zip(&p_warm).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} diverged at t={:.3e}: cold {a:e} vs warm {b:e}",
                kind.name(),
                ts[i]
            );
        }
    }
}

#[test]
fn c1_roundtrips_bit_identically_for_every_engine() {
    roundtrip_all_engines(Benchmark::C1, 8);
}

#[test]
fn c3_roundtrips_bit_identically_for_every_engine() {
    roundtrip_all_engines(Benchmark::C3, 8);
}

fn hybrid_spec() -> AnalysisSpec {
    AnalysisSpec::benchmark(Benchmark::C1)
        .with_grid_side(6)
        .with_engine(EngineKind::Hybrid)
        .with_threads(Some(1))
}

/// Seeds a scratch cache with one artifact and returns its file path.
fn seeded(scratch: &Scratch, spec: &AnalysisSpec) -> std::path::PathBuf {
    let cache = scratch.cache();
    Session::open(spec, &cache).expect("seed build");
    let path = cache.artifact_path(&spec.spec_hash().expect("hash"));
    assert!(path.exists(), "artifact not persisted");
    path
}

/// Flipping payload bytes must fail checksum validation at load.
#[test]
fn corrupted_payload_is_rejected() {
    let scratch = Scratch::new("corrupt");
    let spec = hybrid_spec();
    let path = seeded(&scratch, &spec);

    let mut text = std::fs::read_to_string(&path).expect("artifact");
    // Corrupt a byte deep inside the payload line without changing the
    // length (a parse error would also be caught, but the checksum must
    // catch value-level bit rot that still parses).
    let idx = text.len() - 100;
    let original = text.as_bytes()[idx];
    let replacement = if original == b'0' { b'1' } else { b'0' };
    // SAFETY-free byte swap via a Vec round trip.
    let mut bytes = text.into_bytes();
    bytes[idx] = replacement;
    text = String::from_utf8(bytes).expect("still utf-8");
    std::fs::write(&path, text).expect("rewrite");

    let err = scratch.cache().load(&spec).expect_err("must reject");
    match err {
        Error::Artifact(detail) => assert!(
            detail.contains("checksum"),
            "expected a checksum failure, got: {detail}"
        ),
        other => panic!("expected Error::Artifact, got {other}"),
    }
}

/// A version from a different (future or past) format is rejected before
/// any payload work.
#[test]
fn version_mismatch_is_rejected() {
    let scratch = Scratch::new("version");
    let spec = hybrid_spec();
    let path = seeded(&scratch, &spec);

    let text = std::fs::read_to_string(&path).expect("artifact");
    let bumped = text.replacen(
        &format!("\"format_version\":{}", statobd::FORMAT_VERSION),
        &format!("\"format_version\":{}", statobd::FORMAT_VERSION + 1),
        1,
    );
    assert_ne!(text, bumped, "version field not found in header");
    std::fs::write(&path, bumped).expect("rewrite");

    let err = scratch.cache().load(&spec).expect_err("must reject");
    match err {
        Error::Artifact(detail) => assert!(
            detail.contains("format version"),
            "expected a version failure, got: {detail}"
        ),
        other => panic!("expected Error::Artifact, got {other}"),
    }
}

/// A truncated artifact (interrupted write, pre-v2 leftovers) is rejected.
#[test]
fn truncated_artifact_is_rejected() {
    let scratch = Scratch::new("truncate");
    let spec = hybrid_spec();
    let path = seeded(&scratch, &spec);

    let text = std::fs::read_to_string(&path).expect("artifact");
    std::fs::write(&path, &text[..text.len() / 2]).expect("rewrite");

    assert!(matches!(
        scratch.cache().load(&spec).expect_err("must reject"),
        Error::Artifact(_)
    ));
}

/// `Session::open` over an invalid artifact rebuilds instead of failing,
/// and surfaces the rejection in the session stats.
#[test]
fn open_rebuilds_over_invalid_artifact() {
    let scratch = Scratch::new("rebuild");
    let spec = hybrid_spec();
    let path = seeded(&scratch, &spec);
    std::fs::write(&path, "not json\n{}\n").expect("rewrite");

    let session = Session::open(&spec, &scratch.cache()).expect("rebuild");
    assert_eq!(session.stats().source.name(), "cold");
    let note = session.stats().note.clone().expect("rejection note");
    assert!(note.contains("artifact"), "note: {note}");

    // The rebuild overwrote the bad artifact: the next open is warm.
    let again = Session::open(&spec, &scratch.cache()).expect("warm");
    assert_eq!(again.stats().source.name(), "cache");
}

/// The cache key separates engines: a hybrid artifact is not offered to
/// a spec that only differs in engine, but thread count is canonicalized
/// away.
#[test]
fn cache_key_respects_canonicalization() {
    let scratch = Scratch::new("canon");
    let cache = scratch.cache();
    let spec = hybrid_spec();
    seeded(&scratch, &spec);

    let other_engine = spec.clone().with_engine(EngineKind::StFast);
    assert!(!cache.contains(&other_engine).expect("contains"));

    let other_threads = spec.clone().with_threads(Some(7));
    assert!(cache.contains(&other_threads).expect("contains"));
    let warm = Session::open(&other_threads, &cache).expect("warm open");
    assert_eq!(warm.stats().source.name(), "cache");
}

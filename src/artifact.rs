//! The content-addressed model-artifact cache.
//!
//! Compiling a reliability model is the expensive half of the pipeline:
//! the covariance eigendecomposition, the per-block BLOD moment
//! characterization and (for the hybrid engine) the `(γ, b)` lookup
//! tables. Queries against the compiled model are sub-microsecond. The
//! cache persists the compiled half keyed by
//! [`AnalysisSpec::spec_hash`], so a warm
//! [`Session::open`](crate::Session::open) skips the eigendecomposition
//! and table construction entirely and answers queries bit-identically to
//! a cold build.
//!
//! # On-disk format
//!
//! One two-line file per spec at `<root>/<hash>/artifact.json`: a header
//! object on the first line and the payload object on the second, both
//! compact (single-line) JSON:
//!
//! ```text
//! {"format_version":4,"spec_hash":"<fnv1a-64 hex of the canonical spec>",
//!  "spec":{...canonical spec echo...},"checksum":"<fnv1a-64 hex>"}
//! {"analysis":{...},"tables":{...}}
//! ```
//!
//! The checksum covers the payload line exactly as stored, so validating
//! it is one hash pass over raw bytes — no re-serialization. Large float
//! arrays inside the payload (the model eigenbasis, BLOD moments, hybrid
//! tables) use the packed bit-exact encoding of
//! [`statobd_num::json::pack_f64s`], which is what keeps a warm load an
//! order of magnitude cheaper than a cold build.
//!
//! The load path re-validates everything it can: format version, the
//! requested spec's hash against the stored one, the stored spec echo
//! against the requested spec's canonical JSON (defense against hash
//! collisions), and the payload checksum (detects truncation and bit
//! rot). Any mismatch is a structured [`Error::Artifact`] — never a
//! silently wrong model.
//!
//! The default root is `$STATOBD_CACHE`, falling back to
//! `$HOME/.cache/statobd`.

use crate::error::{Error, Result};
use crate::spec::AnalysisSpec;
use statobd_core::{ChipAnalysis, HybridTables};
use statobd_num::hash::fnv1a_hex;
use statobd_num::json::{FromJson, Json, ToJson};
use std::path::{Path, PathBuf};

/// The artifact format version; bump on any layout change so stale caches
/// are rejected cleanly instead of misparsed. Version 2 introduced the
/// two-line header/payload layout and packed float arrays; version 3 marks
/// the move of correlation grids below 8 × 8 from Jacobi to QL, whose
/// eigenbasis inside degenerate clusters differs, so a cold build and an
/// older artifact would sample different (equally valid) realizations.
/// Version 4 marks the move of thermal grids below 64 × 64 cells from
/// IC(0)-PCG to MGCG: their block temperatures, and so the compiled model,
/// move by up to 1e-7 K under an unchanged spec hash.
pub const FORMAT_VERSION: u64 = 4;

/// Environment variable overriding the default cache root.
pub const CACHE_ENV: &str = "STATOBD_CACHE";

/// A compiled reliability model: everything expensive, nothing queryable
/// state. The spec that produced it is stored alongside, not inside.
#[derive(Debug)]
pub struct CompiledModel {
    /// The characterized chip (thickness eigenbasis + per-block BLOD
    /// moments).
    pub analysis: ChipAnalysis,
    /// The hybrid `(γ, b)` lookup tables, present only when the spec's
    /// engine is `hybrid`.
    pub tables: Option<HybridTables>,
}

/// A content-addressed on-disk cache of [`CompiledModel`]s.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
}

impl ArtifactCache {
    /// A cache rooted at `root` (created lazily on first save).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ArtifactCache { root: root.into() }
    }

    /// The default root: `$STATOBD_CACHE`, else `$HOME/.cache/statobd`,
    /// else `None` when neither variable is set.
    pub fn default_root() -> Option<PathBuf> {
        if let Some(dir) = std::env::var_os(CACHE_ENV) {
            if !dir.is_empty() {
                return Some(PathBuf::from(dir));
            }
        }
        std::env::var_os("HOME")
            .filter(|h| !h.is_empty())
            .map(|home| PathBuf::from(home).join(".cache").join("statobd"))
    }

    /// Opens the default cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when neither `STATOBD_CACHE` nor `HOME` is
    /// set.
    pub fn open_default() -> Result<Self> {
        Self::default_root().map(ArtifactCache::new).ok_or_else(|| {
            Error::Io("no cache root: neither STATOBD_CACHE nor HOME is set".to_string())
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The artifact file path for a spec hash.
    pub fn artifact_path(&self, spec_hash: &str) -> PathBuf {
        self.root.join(spec_hash).join("artifact.json")
    }

    /// Whether an artifact file exists for `spec` (without validating it).
    ///
    /// # Errors
    ///
    /// Propagates spec canonicalization failure.
    pub fn contains(&self, spec: &AnalysisSpec) -> Result<bool> {
        Ok(self.artifact_path(&spec.spec_hash()?).exists())
    }

    /// Persists a compiled model for `spec`, returning the artifact path.
    /// The write is atomic (temp file + rename), so a concurrent loader
    /// never observes a half-written artifact.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure and propagates
    /// serialization failure.
    pub fn save(&self, spec: &AnalysisSpec, model: &CompiledModel) -> Result<PathBuf> {
        let hash = spec.spec_hash()?;
        let payload_line = payload_json(model).to_compact();
        let checksum = fnv1a_hex(payload_line.as_bytes());
        let header = Json::Object(vec![
            (
                "format_version".to_string(),
                Json::Number(FORMAT_VERSION as f64),
            ),
            ("spec_hash".to_string(), Json::String(hash.clone())),
            ("spec".to_string(), spec.canonical()?.to_json()),
            ("checksum".to_string(), Json::String(checksum)),
        ]);
        let mut text = header.to_compact();
        text.reserve(payload_line.len() + 2);
        text.push('\n');
        text.push_str(&payload_line);
        text.push('\n');

        let path = self.artifact_path(&hash);
        let dir = path.parent().expect("artifact path has a parent");
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating {}: {e}", dir.display())))?;
        let tmp = dir.join(format!("artifact.json.tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)
            .map_err(|e| Error::Io(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| Error::Io(format!("renaming {}: {e}", tmp.display())))?;
        Ok(path)
    }

    /// Loads and validates the compiled model for `spec`.
    ///
    /// Returns `Ok(None)` when no artifact exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Artifact`] when an artifact exists but fails any
    /// validation step (version, hash, spec echo, checksum, payload
    /// structure), and [`Error::Io`] on filesystem failure.
    pub fn load(&self, spec: &AnalysisSpec) -> Result<Option<CompiledModel>> {
        let hash = spec.spec_hash()?;
        let path = self.artifact_path(&hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::Io(format!("reading {}: {e}", path.display()))),
        };
        let bad = |detail: String| Error::Artifact(format!("{}: {detail}", path.display()));

        // Two lines: compact header, compact payload. The header is tiny,
        // so version/hash/spec-echo validation never touches the payload;
        // the checksum is one hash pass over the payload bytes as stored.
        let (header_line, rest) = text
            .split_once('\n')
            .ok_or_else(|| bad("not a two-line artifact (pre-v2 format?)".to_string()))?;
        let payload_line = rest.strip_suffix('\n').unwrap_or(rest);
        let header = Json::parse(header_line)
            .map_err(|e| bad(format!("unparseable header (pre-v2 format?): {e}")))?;
        let version = header
            .get("format_version")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing format_version".to_string()))?;
        if version != FORMAT_VERSION as f64 {
            return Err(bad(format!(
                "format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let stored_hash = header
            .get("spec_hash")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing spec_hash".to_string()))?;
        if stored_hash != hash {
            return Err(bad(format!(
                "spec hash mismatch: stored {stored_hash}, requested {hash}"
            )));
        }
        // Defense in depth against a (64-bit) hash collision: the stored
        // canonical spec must match the requested one verbatim.
        let stored_spec = header
            .get("spec")
            .ok_or_else(|| bad("missing spec echo".to_string()))?;
        if stored_spec.to_compact() != spec.canonical_json()? {
            return Err(bad("spec echo differs from the requested spec".to_string()));
        }
        let checksum = header
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing checksum".to_string()))?;
        let actual = fnv1a_hex(payload_line.as_bytes());
        if actual != checksum {
            return Err(bad(format!(
                "payload checksum mismatch: stored {checksum}, computed {actual}"
            )));
        }
        let payload =
            Json::parse(payload_line).map_err(|e| bad(format!("unparseable payload: {e}")))?;
        payload_from_json(&payload)
            .map(Some)
            .map_err(|e| bad(format!("payload: {e}")))
    }

    /// Removes the artifact for `spec`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure other than the
    /// artifact not existing.
    pub fn remove(&self, spec: &AnalysisSpec) -> Result<()> {
        let dir = self.root.join(spec.spec_hash()?);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::Io(format!("removing {}: {e}", dir.display()))),
        }
    }
}

/// Serializes a compiled model to the artifact payload object.
fn payload_json(model: &CompiledModel) -> Json {
    let mut members = vec![("analysis".to_string(), model.analysis.to_json())];
    if let Some(tables) = &model.tables {
        members.push(("tables".to_string(), tables.to_json_value()));
    }
    Json::Object(members)
}

/// Decodes the artifact payload object.
fn payload_from_json(payload: &Json) -> Result<CompiledModel> {
    let analysis = payload
        .get("analysis")
        .ok_or_else(|| Error::Artifact("missing analysis".to_string()))?;
    let analysis = ChipAnalysis::from_json(analysis)?;
    let tables = match payload.get("tables") {
        Some(tables) => Some(HybridTables::from_json_value(tables)?),
        None => None,
    };
    Ok(CompiledModel { analysis, tables })
}

//! On-disk persistence for [`crate::plan::ExecutionPlan`]s.
//!
//! Plans are deterministic functions of `(G, f)`, so a sweep that ran
//! yesterday — or a sibling CI shard running right now — has already paid
//! for exactly the plans today's run needs. This module gives the
//! [`crate::plan::PlanCache`] a disk tier: entries are content-addressed
//! by the `canon` digests (`{canonical:016x}-{labeled:016x}-f{f}.plan`),
//! written atomically (temp file + rename, so concurrent sweeps never
//! observe a torn entry), and verified on load before they can influence
//! a result.
//!
//! # Format (version 1)
//!
//! A length-prefixed little-endian binary stream:
//!
//! ```text
//! magic    8 bytes  b"NABPLAN\0"
//! version  u32      1
//! payload:
//!   f, gamma0, rho0             u64 × 3
//!   canonical_key, labeled_key  u64 × 2
//!   node_count                  u64
//!   active mask                 node_count × u8 (1 = active)
//!   edge_count                  u64
//!   edges                       edge_count × (src u64, dst u64, cap u64)
//!   tree_count                  u64
//!   trees                       tree_count × [edge_count u64,
//!                                             edges × (src u64, dst u64)]
//! checksum  u64     FNV-1a over everything before it
//! ```
//!
//! Loading re-derives both digests from the decoded graph and compares
//! them (and the decoded graph itself) against the *requested* key and
//! network, re-validates the arborescence packing, and rejects on any
//! mismatch — a rejected or corrupt entry is rebuilt from scratch and can
//! never poison results. The checksum guards against torn or bit-rotted
//! files; deliberate tampering with a refreshed checksum is outside the
//! threat model (the cache directory is as trusted as the binary itself).

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use nab_netgraph::arborescence::{validate_packing, Arborescence};
use nab_netgraph::{canon, DiGraph, NodeId};

use crate::engine::SOURCE;
use crate::plan::{ExecutionPlan, PlanKey};

const MAGIC: &[u8; 8] = b"NABPLAN\0";
const VERSION: u32 = 1;

/// Result of probing the disk tier for one plan.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No persisted entry for this key.
    Missing,
    /// An entry existed but failed verification (with the reason); the
    /// caller must rebuild and should warn.
    Rejected(String),
    /// The entry verified and was reassembled.
    Loaded(Box<ExecutionPlan>),
}

/// The file a key persists to inside `dir`.
pub fn plan_path(dir: &Path, key: &PlanKey) -> PathBuf {
    dir.join(format!(
        "{:016x}-{:016x}-f{}.plan",
        key.canon, key.labeled, key.f
    ))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).ok_or("length overflow")?;
        let bytes = self.buf.get(self.pos..end).ok_or("truncated payload")?;
        self.pos = end;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| "truncated u64 field")?;
        Ok(u64::from_le_bytes(arr))
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("truncated payload")?;
        self.pos += 1;
        Ok(b)
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "count overflows usize".to_string())
    }
}

fn encode(key: &PlanKey, plan: &ExecutionPlan) -> Vec<u8> {
    let g = plan.graph();
    let mut out = Vec::with_capacity(64 + g.edge_count() * 24);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    push_u64(&mut out, plan.f() as u64);
    push_u64(&mut out, plan.gamma0());
    push_u64(&mut out, plan.rho0());
    push_u64(&mut out, key.canon);
    push_u64(&mut out, key.labeled);
    push_u64(&mut out, g.node_count() as u64);
    for v in 0..g.node_count() {
        out.push(u8::from(g.is_active(v)));
    }
    let edges: Vec<_> = g.edges().collect();
    push_u64(&mut out, edges.len() as u64);
    for (_, e) in edges {
        push_u64(&mut out, e.src as u64);
        push_u64(&mut out, e.dst as u64);
        push_u64(&mut out, e.cap);
    }
    push_u64(&mut out, plan.trees0().len() as u64);
    for t in plan.trees0() {
        push_u64(&mut out, t.edges.len() as u64);
        for &(s, d) in &t.edges {
            push_u64(&mut out, s as u64);
            push_u64(&mut out, d as u64);
        }
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

fn decode(bytes: &[u8], key: &PlanKey, g: &DiGraph, f: usize) -> Result<ExecutionPlan, String> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err("file too short".into());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let tail: [u8; 8] = tail.try_into().map_err(|_| "truncated checksum")?;
    let stored_sum = u64::from_le_bytes(tail);
    if fnv1a(body) != stored_sum {
        return Err("checksum mismatch".into());
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err("bad magic".into());
    }
    let version_bytes: [u8; 4] = body[MAGIC.len()..MAGIC.len() + 4]
        .try_into()
        .map_err(|_| "truncated version field")?;
    let version = u32::from_le_bytes(version_bytes);
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let mut r = Reader {
        buf: body,
        pos: MAGIC.len() + 4,
    };
    let stored_f = r.usize()?;
    let gamma0 = r.u64()?;
    let rho0 = r.u64()?;
    let stored_canon = r.u64()?;
    let stored_labeled = r.u64()?;
    if stored_f != f || stored_canon != key.canon || stored_labeled != key.labeled {
        return Err("key mismatch".into());
    }
    let node_count = r.usize()?;
    if node_count > 1 << 24 {
        return Err("implausible node count".into());
    }
    let mut decoded = DiGraph::new(node_count);
    let mut inactive = Vec::new();
    for v in 0..node_count {
        if r.u8()? == 0 {
            inactive.push(v);
        }
    }
    let edge_count = r.usize()?;
    for _ in 0..edge_count {
        let src = r.usize()?;
        let dst = r.usize()?;
        let cap = r.u64()?;
        if src >= node_count || dst >= node_count || src == dst || cap == 0 {
            return Err("invalid edge".into());
        }
        if decoded.find_edge(src, dst).is_some() {
            return Err("duplicate edge".into());
        }
        decoded.add_edge(src, dst, cap);
    }
    for v in inactive {
        decoded.remove_node(v);
    }
    // The decoded graph must be the requested one, digests and all — a
    // stale or colliding entry is rejected, never served.
    if &decoded != g {
        return Err("graph mismatch".into());
    }
    if canon::canonical_key(&decoded) != key.canon || canon::labeled_key(&decoded) != key.labeled {
        return Err("digest mismatch".into());
    }
    let tree_count = r.usize()?;
    if tree_count != gamma0 as usize {
        return Err("tree count does not match gamma".into());
    }
    let mut trees = Vec::with_capacity(tree_count);
    for _ in 0..tree_count {
        let len = r.usize()?;
        if len > node_count {
            return Err("implausible tree size".into());
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(len);
        for _ in 0..len {
            edges.push((r.usize()?, r.usize()?));
        }
        trees.push(Arborescence {
            root: SOURCE,
            edges,
        });
    }
    if r.pos != body.len() {
        return Err("trailing bytes".into());
    }
    validate_packing(&decoded, SOURCE, &trees).map_err(|e| format!("invalid packing: {e}"))?;
    if rho0 == 0 {
        return Err("invalid rho".into());
    }
    ExecutionPlan::from_parts(decoded, f, gamma0, rho0, trees)
        .map_err(|e| format!("plan validation failed: {e:?}"))
}

/// Persists `plan` under its key in `dir` (created if absent), atomically:
/// the entry is written to a process-unique temp file and renamed into
/// place, so readers only ever see complete entries.
///
/// # Errors
///
/// Returns the underlying filesystem error.
pub fn save_plan(dir: &Path, key: &PlanKey, plan: &ExecutionPlan) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let bytes = encode(key, plan);
    let tmp = dir.join(format!(
        ".{:016x}-{:016x}-f{}.tmp-{}",
        key.canon,
        key.labeled,
        key.f,
        std::process::id()
    ));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    let path = plan_path(dir, key);
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Probes `dir` for a persisted plan for `(g, f)` under `key`, fully
/// verifying any entry found (checksum, digests, graph equality, packing
/// validity) before reassembling it.
pub fn load_plan(dir: &Path, key: &PlanKey, g: &DiGraph, f: usize) -> LoadOutcome {
    let path = plan_path(dir, key);
    let mut bytes = Vec::new();
    match std::fs::File::open(&path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Rejected(format!("open failed: {e}")),
        Ok(mut file) => {
            if let Err(e) = file.read_to_end(&mut bytes) {
                return LoadOutcome::Rejected(format!("read failed: {e}"));
            }
        }
    }
    let t0 = nab_obs::clock::mono_now();
    match decode(&bytes, key, g, f) {
        Ok(mut plan) => {
            plan.set_build_wall_ns(t0.elapsed().as_nanos() as u64);
            LoadOutcome::Loaded(Box::new(plan))
        }
        Err(why) => LoadOutcome::Rejected(why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nab_netgraph::gen;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nab-persist-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_plan_artifacts() {
        let dir = tmpdir("roundtrip");
        let g = gen::complete(5, 2);
        let plan = ExecutionPlan::build(g.clone(), 1).unwrap();
        let key = PlanKey::of(&g, 1);
        save_plan(&dir, &key, &plan).unwrap();
        let LoadOutcome::Loaded(loaded) = load_plan(&dir, &key, &g, 1) else {
            panic!("expected load");
        };
        assert_eq!(loaded.graph(), plan.graph());
        assert_eq!(loaded.gamma0(), plan.gamma0());
        assert_eq!(loaded.rho0(), plan.rho0());
        assert_eq!(loaded.trees0(), plan.trees0());
        assert_eq!(loaded.f(), plan.f());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let dir = tmpdir("corrupt");
        let g = gen::complete(4, 2);
        let plan = ExecutionPlan::build(g.clone(), 1).unwrap();
        let key = PlanKey::of(&g, 1);
        save_plan(&dir, &key, &plan).unwrap();
        let path = plan_path(&dir, &key);
        let pristine = std::fs::read(&path).unwrap();
        // Flip one byte at a spread of offsets covering header, payload,
        // and checksum; every corruption must be rejected, never loaded.
        for idx in (0..pristine.len()).step_by(7).chain([pristine.len() - 1]) {
            let mut bad = pristine.clone();
            bad[idx] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            match load_plan(&dir, &key, &g, 1) {
                LoadOutcome::Rejected(_) => {}
                other => panic!("byte {idx}: corruption not rejected: {other:?}"),
            }
        }
        // Restoring the pristine bytes loads again.
        std::fs::write(&path, &pristine).unwrap();
        assert!(matches!(
            load_plan(&dir, &key, &g, 1),
            LoadOutcome::Loaded(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_mismatched_entries() {
        let dir = tmpdir("mismatch");
        let g = gen::complete(4, 2);
        let key = PlanKey::of(&g, 1);
        assert!(matches!(load_plan(&dir, &key, &g, 1), LoadOutcome::Missing));
        // An entry saved for a different network is rejected when probed
        // with forged key coordinates.
        let plan = ExecutionPlan::build(g.clone(), 1).unwrap();
        save_plan(&dir, &key, &plan).unwrap();
        let other = gen::complete(5, 2);
        let mut forged = PlanKey::of(&other, 1);
        forged.canon = key.canon;
        forged.labeled = key.labeled;
        assert!(matches!(
            load_plan(&dir, &forged, &other, 1),
            LoadOutcome::Rejected(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

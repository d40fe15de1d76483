//! Per-client serving sessions and the sharded store that holds them.
//!
//! A session is the mutable half of online inference: the rolling price
//! history, the incremental DWT cache and each horizon policy's previous
//! action. The history is an [`AssetPanel`] the session owns and the
//! model reads in place: each pushed day is validated once, on entry,
//! and a decide copies nothing. The model itself is immutable and shared
//! — see [`cit_core::DecisionModel`].

use crate::protocol::{ErrorKind, Response};
use crate::spill::{checksum64, SpillDir, SpillError, SPILL_MAGIC};
use cit_core::{DecisionModel, HorizonWindowCache};
use cit_market::{AssetPanel, PanelError, NUM_FEATURES};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One client's serving state: price history plus the carried decision
/// state (`SlidingDwt` windows via [`HorizonWindowCache`], previous
/// per-policy actions).
pub struct Session {
    /// The model slot this session is pinned to for life — carried
    /// through disk spill so a restart restores the session against the
    /// same model (empty = default slot, for sessions opened without a
    /// `model` field).
    model: String,
    /// The price history, named after the session and trimmed to
    /// `max_history` days. Every price in it has been validated.
    panel: AssetPanel,
    /// Days ever pushed (absolute day index = `total_days - 1`). Survives
    /// trimming, so clients see a monotone day counter.
    total_days: usize,
    prev_actions: Vec<Vec<f64>>,
    cache: HorizonWindowCache,
    max_history: usize,
    /// Last time the session was inserted or checked back in; the basis
    /// for idle-TTL eviction.
    last_used: Instant,
}

impl Session {
    /// Creates a session seeded with `prices` (one `[m·4]` row per day),
    /// pinned to model slot `slot` (empty = default). Needs at least
    /// `model.min_history()` days.
    pub fn open(
        model: &DecisionModel,
        name: &str,
        slot: &str,
        prices: &[Vec<f64>],
        max_history: usize,
    ) -> Result<Session, Response> {
        let window = model.min_history();
        if prices.len() < window.max(2) {
            return Err(Response::error(
                ErrorKind::BadData,
                format!(
                    "open needs at least {} days of history, got {}",
                    window.max(2),
                    prices.len()
                ),
            ));
        }
        let panel =
            AssetPanel::try_from_days(name, model.num_assets(), prices).map_err(bad_data)?;
        let mut session = Session {
            model: slot.to_string(),
            panel,
            total_days: prices.len(),
            prev_actions: model.uniform_prev_actions(),
            cache: model.new_cache(),
            max_history: max_history.max(2 * window),
            last_used: Instant::now(),
        };
        session.trim(model);
        Ok(session)
    }

    /// The session id.
    pub fn name(&self) -> &str {
        self.panel.name()
    }

    /// The model slot the session is pinned to (empty = default slot).
    pub fn model_name(&self) -> &str {
        &self.model
    }

    /// Days of history currently held (after trimming).
    pub fn days(&self) -> usize {
        self.panel.num_days()
    }

    /// Absolute day index of the latest day (`total pushed - 1`).
    pub fn current_day(&self) -> usize {
        self.total_days - 1
    }

    /// Appends days of OHLC rows, validating width and positivity. All
    /// or nothing: a bad row leaves the session as it was.
    pub fn push_days(
        &mut self,
        model: &DecisionModel,
        prices: &[Vec<f64>],
    ) -> Result<(), Response> {
        self.panel.try_push_days(prices).map_err(bad_data)?;
        self.total_days += prices.len();
        self.trim(model);
        Ok(())
    }

    /// Bounds memory: once the history exceeds `max_history` days, keep
    /// the most recent half (never fewer than the model window). Decisions
    /// only read the trailing `window` days, so trimming cannot change
    /// them; the DWT cache is keyed by in-panel day indices, which shift,
    /// so it is rebuilt (one full recompute, bitwise-equal by the
    /// `SlidingDwt` contract).
    fn trim(&mut self, model: &DecisionModel) {
        let days = self.days();
        if days <= self.max_history {
            return;
        }
        let keep = (self.max_history / 2).max(model.min_history()).max(2);
        self.panel.drop_front_days(days - keep);
        self.cache = model.new_cache();
    }

    /// Appends `prices` (possibly empty), then decides on the latest day.
    /// On success the per-policy previous actions advance, mirroring the
    /// trainer's evaluation loop.
    pub fn decide(
        &mut self,
        model: &DecisionModel,
        prices: &[Vec<f64>],
    ) -> Result<Response, Response> {
        self.push_days(model, prices)?;
        let days = self.days();
        if days < model.min_history() {
            return Err(Response::error(
                ErrorKind::BadData,
                format!(
                    "decide needs {} days of history, session holds {days}",
                    model.min_history(),
                ),
            ));
        }
        let t = days - 1;
        let out = model.decide(&self.panel, t, &self.prev_actions, &mut self.cache);
        self.prev_actions.clone_from(&out.pre_actions);
        Ok(Response::Decision {
            session: self.name().to_string(),
            day: self.current_day(),
            final_action: out.final_action,
            pre_actions: out.pre_actions,
            model: self.model.clone(),
        })
    }

    /// Serializes the session for disk spill. Every `f64` travels as its
    /// exact bit pattern (little-endian `u64`), so restore is lossless.
    /// The DWT cache is deliberately excluded: it is rebuilt on restore,
    /// which the `SlidingDwt` contract guarantees is decision-invariant.
    /// The payload ends in a [`checksum64`] trailer over everything
    /// before it, so truncation and bit-flips are detected on restore.
    /// The format (`CITSESS3`) carries the model-slot pin right after
    /// the session name, so a restart restores every session against the
    /// model it was opened on.
    pub(crate) fn spill_bytes(&self) -> Vec<u8> {
        let hist = self.panel.as_slice();
        let mut out = Vec::with_capacity(96 + hist.len() * 8);
        out.extend_from_slice(SPILL_MAGIC);
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut out, self.name().len() as u64);
        out.extend_from_slice(self.name().as_bytes());
        push_u64(&mut out, self.model.len() as u64);
        out.extend_from_slice(self.model.as_bytes());
        push_u64(&mut out, self.panel.num_assets() as u64);
        push_u64(&mut out, self.days() as u64);
        push_u64(&mut out, self.total_days as u64);
        push_u64(&mut out, self.max_history as u64);
        push_u64(&mut out, hist.len() as u64);
        for v in hist {
            push_u64(&mut out, v.to_bits());
        }
        push_u64(&mut out, self.prev_actions.len() as u64);
        for action in &self.prev_actions {
            push_u64(&mut out, action.len() as u64);
            for v in action {
                push_u64(&mut out, v.to_bits());
            }
        }
        let sum = checksum64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Rebuilds a session from [`Session::spill_bytes`] output,
    /// verifying the checksum trailer and validating shape compatibility
    /// against the active `model`. [`SpillError::Corrupt`] means the
    /// bytes themselves are damaged (truncation, bit-flip, bad magic) or
    /// hold a history no session could have (a non-positive or
    /// non-finite price) — the caller quarantines the file;
    /// [`SpillError::Incompatible`] means an intact file that does not
    /// fit the served model. The restored history is validated here,
    /// once, as the session's panel is built.
    pub(crate) fn from_spill_bytes(
        bytes: &[u8],
        model: &DecisionModel,
    ) -> Result<Session, SpillError> {
        let corrupt = |m: &str| SpillError::Corrupt(m.to_string());
        // Magic first: a file that was never ours is reported as such
        // even when it is too short to carry a checksum trailer.
        if bytes.len() < SPILL_MAGIC.len() || &bytes[..SPILL_MAGIC.len()] != SPILL_MAGIC {
            return Err(corrupt("not a cit-serve spill file (bad magic)"));
        }
        if bytes.len() < SPILL_MAGIC.len() + 8 {
            return Err(corrupt("truncated spill file (no checksum trailer)"));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if checksum64(payload) != stored {
            return Err(corrupt(
                "spill checksum mismatch (truncated or corrupted on disk)",
            ));
        }
        let bytes = payload;
        let mut pos = SPILL_MAGIC.len();
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SpillError> {
            let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
            let end = end.ok_or_else(|| corrupt("truncated spill file"))?;
            let slice = &bytes[*pos..end];
            *pos = end;
            Ok(slice)
        };
        let take_u64 = |pos: &mut usize| -> Result<u64, SpillError> {
            let b = take(pos, 8)?;
            Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        let name_len = take_u64(&mut pos)? as usize;
        if name_len > 4096 {
            return Err(corrupt("implausible session name length"));
        }
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| corrupt("session name is not UTF-8"))?;
        let model_len = take_u64(&mut pos)? as usize;
        if model_len > 4096 {
            return Err(corrupt("implausible model slot name length"));
        }
        let model_name = String::from_utf8(take(&mut pos, model_len)?.to_vec())
            .map_err(|_| corrupt("model slot name is not UTF-8"))?;
        let num_assets = take_u64(&mut pos)? as usize;
        let days = take_u64(&mut pos)? as usize;
        let total_days = take_u64(&mut pos)? as usize;
        let max_history = take_u64(&mut pos)? as usize;
        let hist_len = take_u64(&mut pos)? as usize;
        let expected_len = num_assets
            .checked_mul(NUM_FEATURES)
            .and_then(|row| row.checked_mul(days));
        if expected_len != Some(hist_len) {
            return Err(corrupt(&format!(
                "spill history length {hist_len} does not match {days} days × {num_assets} assets"
            )));
        }
        if hist_len > bytes.len() / 8 {
            return Err(corrupt("truncated spill file"));
        }
        let mut hist = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            hist.push(f64::from_bits(take_u64(&mut pos)?));
        }
        let n_prev = take_u64(&mut pos)? as usize;
        if n_prev > 4096 {
            return Err(corrupt("implausible policy count"));
        }
        let mut prev_actions = Vec::with_capacity(n_prev);
        for _ in 0..n_prev {
            let len = take_u64(&mut pos)? as usize;
            let mut action = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                action.push(f64::from_bits(take_u64(&mut pos)?));
            }
            prev_actions.push(action);
        }
        if num_assets != model.num_assets() {
            return Err(SpillError::Incompatible(format!(
                "spilled session has {num_assets} assets, the served model expects {}",
                model.num_assets()
            )));
        }
        let expected_prev = model.uniform_prev_actions();
        if prev_actions.len() != expected_prev.len()
            || prev_actions
                .iter()
                .zip(&expected_prev)
                .any(|(a, e)| a.len() != e.len())
        {
            return Err(SpillError::Incompatible(
                "spilled session's policy state does not match the served model".into(),
            ));
        }
        if days < model.min_history().max(2) || total_days < days {
            return Err(SpillError::Incompatible(
                "spilled session holds too little history for the served model".into(),
            ));
        }
        let panel = AssetPanel::try_new(name, days, num_assets, hist, 0)
            .map_err(|e| corrupt(&format!("spilled history is not a valid panel: {e}")))?;
        Ok(Session {
            model: model_name,
            panel,
            total_days,
            prev_actions,
            cache: model.new_cache(),
            max_history,
            last_used: Instant::now(),
        })
    }
}

/// The client-facing `bad_data` reject for prices that cannot join a
/// session's history.
fn bad_data(e: PanelError) -> Response {
    Response::error(ErrorKind::BadData, e.to_string())
}

/// The identity header of a spill file: who it is and which model slot
/// it is pinned to — enough for the restore path to resolve the right
/// model *before* the full shape-validating parse.
pub(crate) struct SpillHeader {
    pub(crate) name: String,
    pub(crate) model: String,
}

/// Reads just the identity header of [`Session::spill_bytes`] output,
/// after verifying magic and the checksum trailer (so a header from a
/// damaged file is never trusted).
pub(crate) fn spill_peek(bytes: &[u8]) -> Result<SpillHeader, SpillError> {
    let corrupt = |m: &str| SpillError::Corrupt(m.to_string());
    if bytes.len() < SPILL_MAGIC.len() || &bytes[..SPILL_MAGIC.len()] != SPILL_MAGIC {
        return Err(corrupt("not a cit-serve spill file (bad magic)"));
    }
    if bytes.len() < SPILL_MAGIC.len() + 8 {
        return Err(corrupt("truncated spill file (no checksum trailer)"));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if checksum64(payload) != stored {
        return Err(corrupt(
            "spill checksum mismatch (truncated or corrupted on disk)",
        ));
    }
    let mut pos = SPILL_MAGIC.len();
    let mut take_str = |label: &str| -> Result<String, SpillError> {
        let len_bytes = payload
            .get(pos..pos + 8)
            .ok_or_else(|| corrupt("truncated spill file"))?;
        pos += 8;
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes")) as usize;
        if len > 4096 {
            return Err(corrupt(&format!("implausible {label} length")));
        }
        let s = payload
            .get(pos..pos + len)
            .ok_or_else(|| corrupt("truncated spill file"))?;
        pos += len;
        String::from_utf8(s.to_vec()).map_err(|_| corrupt(&format!("{label} is not UTF-8")))
    };
    Ok(SpillHeader {
        name: take_str("session name")?,
        model: take_str("model slot name")?,
    })
}

/// A sharded session map: sessions hash to one of `shards` independent
/// mutexes, so connection threads opening/closing sessions contend only
/// within a shard while the batcher checks sessions in and out.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<String, Session>>>,
}

impl SessionStore {
    /// Creates a store with `shards` shards (minimum 1).
    pub fn new(shards: usize) -> SessionStore {
        SessionStore {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Session>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Inserts a new session; fails when the id is taken.
    pub fn insert(&self, session: Session) -> Result<(), Response> {
        let mut shard = self
            .shard(session.name())
            .lock()
            .expect("session shard poisoned");
        if shard.contains_key(session.name()) {
            return Err(Response::error(
                ErrorKind::SessionExists,
                format!("session {:?} already exists", session.name()),
            ));
        }
        shard.insert(session.name().to_string(), session);
        Ok(())
    }

    /// Removes and returns a session (checkout for the batcher, or
    /// permanent removal for `close`).
    pub fn take(&self, name: &str) -> Option<Session> {
        self.shard(name)
            .lock()
            .expect("session shard poisoned")
            .remove(name)
    }

    /// Returns a checked-out session to the store, refreshing its
    /// idle-eviction clock.
    pub fn put_back(&self, mut session: Session) {
        session.last_used = Instant::now();
        self.shard(session.name())
            .lock()
            .expect("session shard poisoned")
            .insert(session.name().to_string(), session);
    }

    /// Spills every session idle longer than `ttl` to `spill` and
    /// removes it from the store. The spill write happens **while the
    /// shard lock is held**, so a concurrent decide either finds the
    /// session still resident or finds the complete spill file — never a
    /// gap in between. Checked-out sessions (mid-decide) are not in the
    /// store and therefore can never be evicted mid-flight. Returns the
    /// number evicted; a session whose spill write fails stays resident.
    pub(crate) fn evict_idle(&self, ttl: Duration, spill: &SpillDir) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("session shard poisoned");
            let idle: Vec<String> = shard
                .iter()
                .filter(|(_, s)| s.last_used.elapsed() >= ttl)
                .map(|(name, _)| name.clone())
                .collect();
            for name in idle {
                let session = shard.get(&name).expect("listed above");
                if spill.write(session).is_ok() {
                    shard.remove(&name);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Spills **every** resident session (graceful-shutdown persistence).
    /// Returns the number written; sessions whose write fails are left
    /// resident (and are lost when the process exits — the caller may
    /// log the shortfall).
    pub(crate) fn spill_all(&self, spill: &SpillDir) -> usize {
        let mut written = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("session shard poisoned");
            let names: Vec<String> = shard.keys().cloned().collect();
            for name in names {
                let session = shard.get(&name).expect("listed above");
                if spill.write(session).is_ok() {
                    shard.remove(&name);
                    written += 1;
                }
            }
        }
        written
    }

    /// Resident session counts keyed by model pin (sessions opened
    /// without a `model` field count under the empty key). A full-store
    /// scan — fine for the `stats` op, not for hot paths.
    pub(crate) fn count_by_model(&self) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("session shard poisoned");
            for session in shard.values() {
                *counts.entry(session.model.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Live session count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("session shard poisoned").len())
            .sum()
    }

    /// `true` when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cit_core::CitConfig;
    use cit_market::SynthConfig;

    fn model() -> DecisionModel {
        DecisionModel::untrained(CitConfig::smoke(7), 2).expect("smoke config is valid")
    }

    fn rows(panel: &AssetPanel, from: usize, to: usize) -> Vec<Vec<f64>> {
        use cit_market::Feature;
        (from..to)
            .map(|t| {
                (0..panel.num_assets())
                    .flat_map(|i| {
                        [Feature::Open, Feature::High, Feature::Low, Feature::Close]
                            .into_iter()
                            .map(move |f| panel.price(t, i, f))
                    })
                    .collect()
            })
            .collect()
    }

    fn synth() -> AssetPanel {
        SynthConfig {
            num_assets: 2,
            num_days: 120,
            test_start: 100,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn open_requires_window_days() {
        let m = model();
        let p = synth();
        let too_short = rows(&p, 0, m.min_history() - 1);
        assert!(Session::open(&m, "s", "", &too_short, 256).is_err());
        let enough = rows(&p, 0, m.min_history());
        assert!(Session::open(&m, "s", "", &enough, 256).is_ok());
    }

    #[test]
    fn decide_carries_prev_actions_and_day_counter() {
        let m = model();
        let p = synth();
        let mut s = Session::open(&m, "s", "", &rows(&p, 0, 30), 256).unwrap();
        let r1 = s.decide(&m, &[]).unwrap();
        let Response::Decision { day, .. } = &r1 else {
            panic!("expected decision")
        };
        assert_eq!(*day, 29);
        let r2 = s.decide(&m, &rows(&p, 30, 31)).unwrap();
        let Response::Decision { day, .. } = &r2 else {
            panic!("expected decision")
        };
        assert_eq!(*day, 30);
    }

    #[test]
    fn trimming_never_changes_decisions() {
        let m = model();
        let p = synth();
        // Session A trims aggressively; session B keeps everything.
        let mut a = Session::open(&m, "a", "", &rows(&p, 0, 30), 40).unwrap();
        let mut b = Session::open(&m, "b", "", &rows(&p, 0, 30), 100_000).unwrap();
        for t in 30..100 {
            let day = rows(&p, t, t + 1);
            let ra = a.decide(&m, &day).unwrap();
            let rb = b.decide(&m, &day).unwrap();
            let (
                Response::Decision {
                    final_action: fa, ..
                },
                Response::Decision {
                    final_action: fb, ..
                },
            ) = (&ra, &rb)
            else {
                panic!("expected decisions")
            };
            assert_eq!(fa, fb, "trimmed session diverged at t={t}");
        }
        assert!(a.days() < b.days(), "session a should have trimmed");
    }

    #[test]
    fn store_rejects_duplicate_ids_and_counts() {
        let m = model();
        let p = synth();
        let store = SessionStore::new(4);
        store
            .insert(Session::open(&m, "x", "", &rows(&p, 0, 30), 256).unwrap())
            .unwrap();
        assert!(store
            .insert(Session::open(&m, "x", "", &rows(&p, 0, 30), 256).unwrap())
            .is_err());
        assert_eq!(store.len(), 1);
        let s = store.take("x").unwrap();
        assert!(store.is_empty());
        store.put_back(s);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn spill_round_trip_is_bitwise_decision_invariant() {
        let m = model();
        let p = synth();
        // Control session decides straight through; the probe session is
        // serialized and restored mid-stream.
        let mut control = Session::open(&m, "s", "", &rows(&p, 0, 40), 256).unwrap();
        let mut probe = Session::open(&m, "s", "", &rows(&p, 0, 40), 256).unwrap();
        for t in 40..60 {
            let day = rows(&p, t, t + 1);
            let rc = control.decide(&m, &day).unwrap();
            if t % 3 == 0 {
                probe = Session::from_spill_bytes(&probe.spill_bytes(), &m).unwrap();
            }
            let rp = probe.decide(&m, &day).unwrap();
            let (
                Response::Decision {
                    final_action: fa,
                    pre_actions: pa,
                    ..
                },
                Response::Decision {
                    final_action: fb,
                    pre_actions: pb,
                    ..
                },
            ) = (&rc, &rp)
            else {
                panic!("expected decisions")
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fa), bits(fb), "restored session diverged at t={t}");
            for (a, b) in pa.iter().zip(pb) {
                assert_eq!(bits(a), bits(b), "pre-actions diverged at t={t}");
            }
        }
    }

    #[test]
    fn spill_rejects_corrupt_and_mismatched_payloads() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "s", "", &rows(&p, 0, 40), 256).unwrap();
        let good = s.spill_bytes();
        assert!(Session::from_spill_bytes(&good[..good.len() - 3], &m).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(Session::from_spill_bytes(&bad_magic, &m).is_err());
        // A model with a different asset count must refuse the payload —
        // as Incompatible (intact file, wrong server), not Corrupt.
        let other = DecisionModel::untrained(CitConfig::smoke(7), 3).expect("valid");
        assert!(matches!(
            Session::from_spill_bytes(&good, &other),
            Err(SpillError::Incompatible(_))
        ));
    }

    /// Truncation at *every* byte boundary, a flipped checksum trailer
    /// and every single-byte flip of the payload must come back as
    /// [`SpillError::Corrupt`] — never a panic, never a silently wrong
    /// session. This is the integrity contract quarantining rests on.
    #[test]
    fn spill_detects_every_truncation_and_bitflip() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "trunc", "", &rows(&p, 0, 40), 256).unwrap();
        let good = s.spill_bytes();
        assert!(Session::from_spill_bytes(&good, &m).is_ok());
        for cut in 0..good.len() {
            assert!(
                matches!(
                    Session::from_spill_bytes(&good[..cut], &m),
                    Err(SpillError::Corrupt(_))
                ),
                "truncation to {cut}/{} bytes was not detected as corrupt",
                good.len()
            );
        }
        let mut flipped = good.clone();
        for i in 0..flipped.len() {
            flipped[i] ^= 0x01;
            assert!(
                matches!(
                    Session::from_spill_bytes(&flipped, &m),
                    Err(SpillError::Corrupt(_))
                ),
                "bit-flip at byte {i} was not detected as corrupt"
            );
            flipped[i] ^= 0x01;
        }
    }

    #[test]
    fn spill_carries_the_model_pin() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "pin", "alt", &rows(&p, 0, 40), 256).unwrap();
        assert_eq!(s.model_name(), "alt");
        let bytes = s.spill_bytes();
        // The cheap header peek and the full parse agree on identity.
        let header = spill_peek(&bytes).unwrap();
        assert_eq!(header.name, "pin");
        assert_eq!(header.model, "alt");
        let restored = Session::from_spill_bytes(&bytes, &m).unwrap();
        assert_eq!(restored.model_name(), "alt");
        // A damaged header is never trusted.
        let mut bad = bytes.clone();
        bad[9] ^= 0xff;
        assert!(matches!(spill_peek(&bad), Err(SpillError::Corrupt(_))));
        assert!(matches!(
            spill_peek(&bytes[..20]),
            Err(SpillError::Corrupt(_))
        ));
    }

    fn decision_bits(r: &Response) -> (Vec<u64>, Vec<Vec<u64>>) {
        let Response::Decision {
            final_action,
            pre_actions,
            ..
        } = r
        else {
            panic!("expected a decision, got {r:?}")
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(final_action),
            pre_actions.iter().map(|a| bits(a)).collect(),
        )
    }

    /// A decide whose second row is bad changes nothing: the reject keeps
    /// its text, and the session goes on exactly like one that never saw
    /// the request.
    #[test]
    fn a_rejected_decide_leaves_no_trace() {
        let m = model();
        let p = synth();
        let mut probe = Session::open(&m, "s", "", &rows(&p, 0, 30), 256).unwrap();
        let mut control = Session::open(&m, "s", "", &rows(&p, 0, 30), 256).unwrap();
        probe.decide(&m, &rows(&p, 30, 31)).unwrap();
        control.decide(&m, &rows(&p, 30, 31)).unwrap();
        let mut bad = rows(&p, 31, 33);
        bad[1][3] = -1.0;
        let err = probe.decide(&m, &bad).unwrap_err();
        assert_eq!(
            err,
            Response::error(
                ErrorKind::BadData,
                "day 1: prices must be positive and finite, got -1"
            )
        );
        assert_eq!(probe.days(), control.days());
        assert_eq!(probe.current_day(), control.current_day());
        for t in 31..60 {
            let day = rows(&p, t, t + 1);
            let rp = probe.decide(&m, &day).unwrap();
            let rc = control.decide(&m, &day).unwrap();
            assert_eq!(decision_bits(&rp), decision_bits(&rc), "diverged at t={t}");
        }
    }

    /// A session trimmed over and over decides bitwise like the model
    /// replayed over the whole untrimmed panel.
    #[test]
    fn trim_cycles_match_a_full_panel_replay() {
        let m = model();
        let p = synth();
        let open_days = 30;
        // max_history is raised to 2·window = 32; each trim keeps 16 days.
        let mut s = Session::open(&m, "s", "", &rows(&p, 0, open_days), 1).unwrap();
        let mut cache = m.new_cache();
        let mut prev = m.uniform_prev_actions();
        let mut trims = 0;
        for t in open_days..p.num_days() {
            let before = s.days();
            let served = s.decide(&m, &rows(&p, t, t + 1)).unwrap();
            if s.days() < before {
                trims += 1;
            }
            let replay = m.decide(&p, t, &prev, &mut cache);
            let expected = Response::Decision {
                session: "s".into(),
                day: t,
                final_action: replay.final_action,
                pre_actions: replay.pre_actions.clone(),
                model: String::new(),
            };
            assert_eq!(decision_bits(&served), decision_bits(&expected), "t={t}");
            assert_eq!(s.current_day(), t);
            prev = replay.pre_actions;
        }
        assert!(trims >= 3, "only {trims} trim cycles");
    }

    /// A spill whose checksum is valid but whose history holds a price no
    /// session could have is refused as corrupt when it is restored —
    /// a typed error, never a panic.
    #[test]
    fn a_crafted_spill_with_a_bad_price_is_corrupt() {
        let m = model();
        let p = synth();
        let s = Session::open(&m, "crafted", "", &rows(&p, 0, 40), 256).unwrap();
        let good = s.spill_bytes();
        // magic, name, model pin, then five u64 fields before the history.
        let hist_at = SPILL_MAGIC.len() + 8 + "crafted".len() + 8 + 5 * 8;
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut bytes = good[..good.len() - 8].to_vec();
            bytes[hist_at + 8 * 17..hist_at + 8 * 18].copy_from_slice(&bad.to_bits().to_le_bytes());
            let sum = checksum64(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            match Session::from_spill_bytes(&bytes, &m) {
                Err(SpillError::Corrupt(msg)) => {
                    assert!(msg.contains("positive and finite"), "{msg}")
                }
                Err(e) => panic!("price {bad}: expected Corrupt, got {e}"),
                Ok(_) => panic!("price {bad}: a session with a bad price was restored"),
            }
        }
    }

    #[test]
    fn rejects_bad_rows() {
        let m = model();
        let p = synth();
        let mut s = Session::open(&m, "s", "", &rows(&p, 0, 30), 256).unwrap();
        assert!(s.decide(&m, &[vec![1.0; 3]]).is_err()); // wrong width
        assert!(s.decide(&m, &[vec![-1.0; 8]]).is_err()); // negative price
                                                          // Session still usable after rejects.
        assert!(s.decide(&m, &rows(&p, 30, 31)).is_ok());
    }
}

//! Property tests for journal-replay idempotency (crash-safety §: a torn or
//! duplicated journal tail must never cause silent divergence).
//!
//! For arbitrary op sequences driven through a journaled engine:
//!
//! * a **duplicated tail frame** is detected as a typed
//!   [`sb_store::JournalReadError::SeqMismatch`] — never replayed twice;
//! * a **torn tail** (truncate at any byte offset) recovers to a valid
//!   prefix, and recovering the same journal twice is bitwise-deterministic;
//! * a **flipped byte** anywhere in the file yields a typed error or a
//!   clean prefix of the original record stream — never divergent state;
//! * an **untorn log** of a packing engine recovers to the live engine:
//!   selector, call-state store, packing state and counters.
//!
//! Each property runs on a plain engine and on a packing one (two servers
//! per DC), whose joins journal a `Join` and its `Pack` records in one
//! append — a torn tail can split that pair.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use sb_core::{AllocationShares, LatencyMap, PlanArtifact, PlannedQuotas, SelectorStateExport};
use sb_engine::{Engine, EngineConfig, EnginePackConfig, EngineStats, RecoveryError};
use sb_net::{CountryId, DcId, FailureScenario, RoutingTable};
use sb_pack::{CostModel, FleetSpec, GrowthModel, PackStateExport, PackerConfig};
use sb_store::{CallState, Journal, JournalConfig, JournalReadError, MediaFlag};
use sb_workload::{ConfigId, DemandMatrix};

/// One lifecycle op; ids collide on purpose (unknown-call paths included).
#[derive(Clone, Debug)]
enum Op {
    Admit { id: u64, country: u16 },
    Join { id: u64, country: u16 },
    Media { id: u64, media: u8 },
    Freeze { id: u64, minute: u64 },
    End { id: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..16, 0u16..3).prop_map(|(id, country)| Op::Admit { id, country }),
        (0u64..16, 0u16..3).prop_map(|(id, country)| Op::Join { id, country }),
        (0u64..16, 0u8..3).prop_map(|(id, media)| Op::Media { id, media }),
        (0u64..16, 0u64..240).prop_map(|(id, minute)| Op::Freeze { id, minute }),
        (0u64..16).prop_map(|id| Op::End { id }),
    ]
}

fn world() -> (LatencyMap, PlanArtifact) {
    let topo = sb_net::presets::toy_three_dc();
    let routing = RoutingTable::compute(&topo, FailureScenario::None);
    let latmap = LatencyMap::from_routing(&topo, &routing);
    let slots = 4;
    let mut shares = AllocationShares::new(slots);
    let mut demand = DemandMatrix::zero(1, slots, 60, 0);
    let tokyo = topo.dc_by_name("Tokyo");
    for s in 0..slots {
        shares.set(ConfigId(0), s, vec![(tokyo, 1.0)]);
        demand.set(ConfigId(0), s, 12.0);
    }
    (
        latmap,
        PlanArtifact::seed(PlannedQuotas::from_plan(&shares, &demand)),
    )
}

/// A plain engine, or (`packed`) one packing onto two servers per DC, tight
/// enough that joins can re-pack, evict or be refused.
fn engine_config(packed: bool) -> EngineConfig {
    let mut spec = FleetSpec::empty(3); // toy_three_dc
    for d in 0..3 {
        for cap in [2_500, 1_500] {
            spec.push_server(DcId(d), cap);
        }
    }
    EngineConfig {
        pack: packed.then(|| EnginePackConfig {
            spec,
            packer: PackerConfig::default(),
            cost: CostModel::default(),
            growth: Some(GrowthModel::flat(2)),
        }),
        ..EngineConfig::default()
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sb-proptest-{tag}-{}-{}.wal",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn media_of(code: u8) -> MediaFlag {
    match code {
        1 => MediaFlag::ScreenShare,
        2 => MediaFlag::Video,
        _ => MediaFlag::Audio,
    }
}

/// Everything recovery must rebuild, as one comparable snapshot.
#[derive(Debug, PartialEq)]
struct EngineState {
    selector: SelectorStateExport,
    store: Vec<(u64, CallState)>,
    pack: Option<PackStateExport>,
    stats: EngineStats,
}

fn state_of(engine: &Engine) -> EngineState {
    EngineState {
        selector: engine.export_selector_state(),
        store: engine.store().export_state(),
        pack: engine.export_pack_state(),
        stats: engine.stats(),
    }
}

/// Drive `ops` through a journaled engine (every append synced) and return
/// the journal path and the live engine's state.
fn run_journaled(
    latmap: &LatencyMap,
    artifact: &PlanArtifact,
    ecfg: &EngineConfig,
    ops: &[Op],
    tag: &str,
) -> (PathBuf, EngineState) {
    let path = temp_path(tag);
    let jcfg = JournalConfig {
        sync_every: 1,
        ..JournalConfig::default()
    };
    let journal = Journal::create(&path, jcfg).expect("create journal");
    let engine =
        Engine::with_journal(latmap, artifact, ecfg, journal).expect("boot journaled engine");
    let mut w = engine.worker();
    for op in ops {
        match *op {
            Op::Admit { id, country } => {
                let _ = w.admit(id, CountryId(country));
            }
            Op::Join { id, country } => w.join(id, CountryId(country)),
            Op::Media { id, media } => w.set_media(id, media_of(media)),
            Op::Freeze { id, minute } => {
                let _ = w.freeze(id, ConfigId(0), minute);
            }
            Op::End { id } => w.end(id),
        }
    }
    drop(w);
    engine.sync_journal();
    (path, state_of(&engine))
}

/// Read the raw framed bytes of the last record (for duplication).
fn last_frame(path: &PathBuf) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).expect("read journal file");
    let mut at = 8usize; // skip magic
    let mut last: Option<(usize, usize)> = None;
    while at + 4 <= bytes.len() {
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let end = at + 8 + len;
        if end > bytes.len() {
            break;
        }
        last = Some((at, end));
        at = end;
    }
    last.map(|(s, e)| bytes[s..e].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Duplicating the final frame (a crashed writer re-emitting its last
    /// record) is detected as a typed sequence error, never replayed twice.
    #[test]
    fn duplicated_tail_record_is_a_typed_error(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        packed in 0u8..2,
    ) {
        let (latmap, artifact) = world();
        let ecfg = engine_config(packed == 1);
        let (path, _) = run_journaled(&latmap, &artifact, &ecfg, &ops, "dup");
        let frame = last_frame(&path).expect("at least the boot plan record");
        let mut bytes = std::fs::read(&path).expect("read journal");
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).expect("write duplicated tail");
        let res = Engine::recover(&latmap, &ecfg, JournalConfig::default(), &path);
        match res {
            Err(RecoveryError::Journal(JournalReadError::SeqMismatch { .. })) => {}
            other => {
                let _ = std::fs::remove_file(&path);
                panic!("expected SeqMismatch, got {:?}", other.map(|(_, r)| r.records));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating the journal at any byte offset (torn tail) recovers to a
    /// clean prefix, and recovery is deterministic: recovering twice gives
    /// bitwise-identical engine state.
    #[test]
    fn torn_tail_recovers_to_a_deterministic_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        cut in 0usize..200,
        packed in 0u8..2,
    ) {
        let (latmap, artifact) = world();
        let ecfg = engine_config(packed == 1);
        let (path, _) = run_journaled(&latmap, &artifact, &ecfg, &ops, "torn");
        let bytes = std::fs::read(&path).expect("read journal");
        let full_records = Journal::scan(&path).expect("scan full journal").records;
        // keep at least the magic + the boot-plan frame so recovery can boot
        let boot_end = 8 + 8 + u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let keep = bytes.len().saturating_sub(cut).max(boot_end);
        std::fs::write(&path, &bytes[..keep]).expect("write torn journal");

        let jcfg = JournalConfig::default();
        let (engine_a, report_a) =
            Engine::recover(&latmap, &ecfg, jcfg, &path).expect("torn tail must recover");
        // the recovered log is a prefix of the original stream, and recovery
        // counted exactly its records
        let kept = Journal::scan(&path).expect("scan recovered journal").records;
        prop_assert_eq!(report_a.records, kept.len() as u64);
        prop_assert!(kept.len() <= full_records.len());
        prop_assert_eq!(&kept[..], &full_records[..kept.len()]);
        let state_a = state_of(&engine_a);
        drop(engine_a);

        let (engine_b, report_b) = Engine::recover(&latmap, &ecfg, jcfg, &path)
            .expect("second recovery must also succeed");
        prop_assert_eq!(report_b.records, report_a.records);
        prop_assert_eq!(report_b.torn_tail_bytes, 0); // first pass truncated it
        prop_assert_eq!(state_of(&engine_b), state_a);
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping any single byte yields a typed error or a clean prefix of
    /// the original record stream — never silently divergent state.
    #[test]
    fn byte_flip_is_detected_or_truncates_cleanly(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
        packed in 0u8..2,
    ) {
        let (latmap, artifact) = world();
        let ecfg = engine_config(packed == 1);
        let (path, _) = run_journaled(&latmap, &artifact, &ecfg, &ops, "flip");
        let full_records = Journal::scan(&path).expect("scan full journal").records;
        let mut bytes = std::fs::read(&path).expect("read journal");
        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        std::fs::write(&path, &bytes).expect("write flipped journal");

        match Engine::recover(&latmap, &ecfg, JournalConfig::default(), &path) {
            // typed error: detected, and the log left as it was
            Err(_) => {
                let after = std::fs::read(&path).expect("read refused journal");
                prop_assert!(after == bytes, "a refused recovery changed the log");
            }
            Ok((engine, report)) => {
                // accepted: every surviving record must match the original
                // stream record-for-record (prefix property), and recovery
                // counted exactly the records the log keeps
                let kept = Journal::scan(&path).expect("scan recovered journal").records;
                prop_assert_eq!(report.records, kept.len() as u64);
                prop_assert!(kept.len() <= full_records.len());
                prop_assert_eq!(&kept[..], &full_records[..kept.len()]);
                drop(engine);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// An untorn log of a packing engine recovers to the live engine: every
    /// re-pack, eviction and refusal a join journaled lands where the live
    /// packer put it, and the selector, the call-state store and the
    /// counters (store writes included) equal the live ones.
    #[test]
    fn untorn_log_recovers_to_the_live_pack_state(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let (latmap, artifact) = world();
        let ecfg = engine_config(true);
        let (path, live) = run_journaled(&latmap, &artifact, &ecfg, &ops, "untorn");
        let recovered = Engine::recover(&latmap, &ecfg, JournalConfig::default(), &path);
        let _ = std::fs::remove_file(&path);
        let (engine, report) = recovered.expect("an untorn log recovers");
        prop_assert_eq!(report.torn_tail_bytes, 0);
        prop_assert!(live.pack.is_some());
        prop_assert_eq!(state_of(&engine), live);
    }
}

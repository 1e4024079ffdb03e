//! The durable op's bytes and decisions are part of the contract. A seeded,
//! scripted op stream — admits, joins, freezes that move calls between DCs,
//! ends and one server death — runs through a journaled, packing engine on a
//! tight heterogeneous fleet. The WAL file's length, an FNV-1a-64 of its
//! bytes and a digest of the final packing state are pinned to values
//! recorded before the journal was reshaped to frame each op's records in
//! one append and the packer's call table was hashed. A change that moves a
//! byte of the log or one packing decision fails here; recovery from the log
//! must still equal the live engine.

use rand::{rngs::StdRng, Rng, SeedableRng};
use sb_core::{AllocationShares, LatencyMap, PlanArtifact, PlannedQuotas};
use sb_engine::{Engine, EngineConfig, EnginePackConfig};
use sb_net::{CountryId, DcId, FailureScenario, RoutingTable};
use sb_pack::{CostModel, FleetSpec, GrowthModel, PackStateExport, PackerConfig, ServerId};
use sb_store::{Journal, JournalConfig};
use sb_workload::{ConfigId, DemandMatrix};

const SEED: u64 = 42;
const OPS: usize = 4_000;
/// Live calls the script keeps at most.
const MAX_LIVE: usize = 30;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a-64 over every server's occupancy and every call's slot, in the
/// export's order (servers by index, calls by id).
fn pack_digest(ex: &PackStateExport) -> u64 {
    let mut bytes = Vec::new();
    for servers in &ex.servers {
        for s in servers {
            bytes.extend_from_slice(&s.capacity_mcpu.to_le_bytes());
            bytes.extend_from_slice(&s.used_mcpu.to_le_bytes());
            bytes.extend_from_slice(&s.reserved_mcpu.to_le_bytes());
            bytes.push(s.live as u8);
        }
    }
    for calls in &ex.calls {
        bytes.extend_from_slice(&(calls.len() as u64).to_le_bytes());
        for &(id, server, participants, cost, reserve, frozen) in calls {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&server.to_le_bytes());
            bytes.extend_from_slice(&participants.to_le_bytes());
            bytes.extend_from_slice(&cost.to_le_bytes());
            bytes.extend_from_slice(&reserve.to_le_bytes());
            bytes.push(frozen as u8);
        }
    }
    fnv1a64(&bytes)
}

/// The toy three-DC topology with one config planned over four 60-minute
/// slots and spread over all three DCs, so a freeze of a call placed at its
/// closest DC often migrates it.
fn world() -> (LatencyMap, PlanArtifact) {
    let topo = sb_net::presets::toy_three_dc();
    let routing = RoutingTable::compute(&topo, FailureScenario::None);
    let latmap = LatencyMap::from_routing(&topo, &routing);
    let cfg = ConfigId(0);
    let spread = vec![
        (topo.dc_by_name("Tokyo"), 0.4),
        (topo.dc_by_name("HongKong"), 0.3),
        (topo.dc_by_name("Pune"), 0.3),
    ];
    let slots = 4;
    let mut shares = AllocationShares::new(slots);
    let mut demand = DemandMatrix::zero(1, slots, 60, 0);
    for s in 0..slots {
        shares.set(cfg, s, spread.clone());
        demand.set(cfg, s, 40.0);
    }
    let quotas = PlannedQuotas::from_plan(&shares, &demand);
    (latmap, PlanArtifact::seed(quotas))
}

/// Per DC: one large, two medium and three small servers — tight enough for
/// forced and proactive re-packs, evictions and rejected growth.
fn engine_config() -> EngineConfig {
    let mut spec = FleetSpec::empty(3);
    for d in 0..3 {
        for cap in [6_000, 3_500, 3_500, 2_000, 2_000, 2_000] {
            spec.push_server(DcId(d), cap);
        }
    }
    EngineConfig {
        pack: Some(EnginePackConfig {
            spec,
            packer: PackerConfig::default(),
            cost: CostModel::default(),
            growth: Some(GrowthModel::flat(2)),
        }),
        ..EngineConfig::default()
    }
}

fn temp_path() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sb-pinned-wal-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn durable_drive_writes_the_recorded_bytes_and_packing() {
    let (latmap, artifact) = world();
    let ecfg = engine_config();
    // group commit by count only, so no clock decides what is durable
    let jcfg = JournalConfig {
        group_commit: std::time::Duration::from_secs(3600),
        sync_every: 16,
    };
    let path = temp_path();
    let journal = Journal::create(&path, jcfg).expect("create journal");
    let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).expect("boot");

    let mut rng = StdRng::seed_from_u64(SEED);
    // (call id, frozen)
    let mut live: Vec<(u64, bool)> = Vec::new();
    let mut next_id = 0u64;
    let mut w = engine.worker();
    for step in 0..OPS {
        if step == OPS / 2 {
            // the busiest Tokyo server dies mid-stream
            let tokyo = DcId(0);
            let ex = engine.export_pack_state().expect("packing engine");
            let busiest = (0..ex.servers[0].len())
                .max_by_key(|&i| (ex.servers[0][i].used_mcpu, std::cmp::Reverse(i)))
                .unwrap_or(0);
            let rep = engine.kill_server(ServerId {
                dc: tokyo,
                index: busiest as u16,
            });
            assert!(!rep.already_dead);
            w.refresh();
            live.retain(|&(c, _)| w.current_dc(c).is_some());
        }
        let roll = rng.gen_range(0..100);
        if live.is_empty() || (roll < 30 && live.len() < MAX_LIVE) {
            let country = CountryId(rng.gen_range(0..3));
            let call = next_id;
            next_id += 1;
            if w.admit(call, country).dc().is_some() {
                live.push((call, false));
            }
            continue;
        }
        let pick = rng.gen_range(0..live.len());
        let (call, frozen) = live[pick];
        match roll {
            75..=89 if !frozen => {
                let minute = rng.gen_range(0..240);
                w.freeze(call, ConfigId(0), minute);
                live[pick].1 = true;
            }
            0..=89 => w.join(call, CountryId(rng.gen_range(0..3))),
            _ => {
                w.end(call);
                live.swap_remove(pick);
            }
        }
    }
    drop(w);
    engine.sync_journal();

    let stats = engine.pack_stats().expect("packing engine");
    assert!(stats.repacks > 0, "{stats:?}");
    assert!(stats.proactive_repacks > 0, "{stats:?}");
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.grow_rejections > 0, "{stats:?}");
    assert!(stats.dc_moves > 0, "{stats:?}");
    assert!(stats.death_rehomes > 0, "{stats:?}");

    let live_pack = engine.export_pack_state().expect("packing engine");
    let live_selector = engine.export_selector_state();
    let live_stats = engine.stats().selector;
    assert_eq!(engine.journal().expect("journaled").crash(), 0);
    drop(engine);

    let bytes = std::fs::read(&path).expect("read journal");
    let got = (bytes.len() as u64, fnv1a64(&bytes), pack_digest(&live_pack));

    let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).expect("recover");
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.torn_tail_bytes, 0);
    assert_eq!(recovered.export_pack_state(), Some(live_pack));
    assert_eq!(recovered.export_selector_state(), live_selector);
    assert_eq!(recovered.stats().selector, live_stats);

    assert_eq!(got, RECORDED, "(wal bytes, wal fnv1a64, pack digest)");
}

/// `(WAL length, FNV-1a-64 of the WAL, pack-state digest)`, recorded before
/// the one-append-per-op journal and the hashed packer table.
const RECORDED: (u64, u64, u64) = (169_541, 0x1084_ec9a_8c4b_4437, 0xfefe_5723_bac0_da7e);

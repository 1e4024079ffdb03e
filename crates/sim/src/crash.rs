//! Crash-recovery drills: drive a trace through a **journaled**
//! [`sb_engine::Engine`], kill it at scheduled operation indices, recover
//! from the write-ahead journal, and finish the trace — asserting (in the
//! drill benches and tests) that the final [`ReplayStats`] are
//! bitwise-identical to the serial no-crash oracle ([`crate::replay::replay`]).
//!
//! The harness is deliberately serial: the point is durability, not
//! parallelism. It maintains the *expected* WAL record stream alongside the
//! live engine (reconstructing each journaled decision from the engine's
//! returned outcome), so after every crash it can check the durable journal
//! prefix record-for-record against what was supposed to be written. A
//! journal that silently lost a mid-stream record (an injected
//! [`JournalFault::Drop`], a dying volume) surfaces as a typed
//! [`CrashDrillError::LogMismatch`] — never as silently divergent state.
//!
//! Recovery realignment works on durable-record counts: every processed
//! event remembers how many journal records existed after it. When a crash
//! discards the group-commit tail, the harness pops exactly the events whose
//! records did not survive and re-drives them through the recovered engine.
//! Because the recovered selector state is bitwise-identical to the state
//! the dead engine had at the durable prefix, the redriven operations make
//! the same decisions the lost ones did — which is what makes the final
//! stats match the no-crash oracle.
//!
//! Fault vocabulary ([`ServiceFault`]):
//!
//! * [`ServiceFault::CrashAtOp`] — kill the engine just before trace
//!   operation N; recover from the journal and resume.
//! * [`ServiceFault::JournalStall`] — appends sleep (slow disk) for a window
//!   of operations; durability is preserved, only latency suffers.
//! * [`ServiceFault::JournalDrop`] — appends fail (dead volume) for a
//!   window; the engine keeps serving (availability over durability) and a
//!   *later* crash surfaces the gap typed: recovery refuses with
//!   [`sb_engine::RecoveryError::Inconsistent`] when a surviving record
//!   references dropped state, or the harness's prefix check reports
//!   [`CrashDrillError::LogMismatch`]. If no crash follows, the run
//!   completes correctly — state lives in the selector, the journal is
//!   only consulted at recovery.
//! * [`ServiceFault::WorkerDeath`] — a concurrent-driver fault (an engine
//!   worker dies mid-segment and the coordinator takes over its remaining
//!   ops); honored by the threaded [`crate::ControlLoop`], a no-op in this
//!   serial harness.
//! * [`ServiceFault::ServerDeath`] — one media server dies (requires
//!   packing, [`sb_engine::EngineConfig::pack`]): the engine drains its
//!   calls onto surviving in-DC servers first and only spills down the
//!   PR-2 degradation ladder. The death's WAL records (death + per-call
//!   re-pack decisions) are synced eagerly, so a later crash can never
//!   split the sequence — realignment stays op-granular even though a
//!   death journals many records.

use std::path::Path;
use std::time::Duration;

use sb_core::{LatencyMap, PlanArtifact};
use sb_engine::wal;
use sb_engine::{Engine, EngineConfig, EngineStats, RecoveryError, ServerDeathReport, WalRecord};
use sb_net::{DcId, FailureScenario, RoutingTable, Topology};
use sb_pack::{PackStats, ServerId};
use sb_store::{Journal, JournalConfig, JournalError, JournalFault};
use sb_workload::{CallRecordsDb, ConfigCatalog};

use crate::drive::{step, Step};
use crate::replay::{account, build_events, Placement, ReplayConfig, ReplayStats};

/// One injected service-layer fault, scheduled over the trace's canonical
/// serial operation index (0-based; skipped freezes do not count).
#[derive(Clone, Copy, Debug)]
pub enum ServiceFault {
    /// Engine worker `worker` dies after driving `after_ops` of its
    /// operations; the coordinator serially drives the rest of its segment
    /// list. Concurrent-driver ([`crate::ControlLoop`]) fault; ignored by
    /// the serial crash drill.
    WorkerDeath {
        /// Worker index (modulo the driver's thread count).
        worker: usize,
        /// Cumulative operations this worker completes before dying.
        after_ops: u64,
    },
    /// Journal appends stall for `stall` each, for `ops` operations
    /// starting at `at_op`.
    JournalStall {
        /// First affected operation index.
        at_op: u64,
        /// Number of operations affected.
        ops: u64,
        /// Per-append stall.
        stall: Duration,
    },
    /// Journal appends are dropped (fail typed) for `ops` operations
    /// starting at `at_op`.
    JournalDrop {
        /// First affected operation index.
        at_op: u64,
        /// Number of operations affected.
        ops: u64,
    },
    /// Kill the engine just before operation `at_op`, discarding the
    /// journal's unsynced group-commit tail, then recover and resume.
    CrashAtOp {
        /// Operation index the crash lands on.
        at_op: u64,
    },
    /// Kill one media server just before operation `at_op` (see
    /// [`Engine::kill_server`]). Requires the engine config to enable
    /// packing; a silent no-op otherwise.
    ServerDeath {
        /// DC index of the dying server.
        dc: u16,
        /// Server index within the DC.
        server: u16,
        /// Operation index the death lands on.
        at_op: u64,
    },
}

/// Crash-drill configuration: the replay schedule, the journal's group
/// commit, the engine knobs, and the fault schedule.
#[derive(Clone, Debug, Default)]
pub struct CrashDrillConfig {
    /// Trace schedule (freeze minutes, capacity check, packing leg) — the
    /// same config the no-crash oracle runs with.
    pub replay: ReplayConfig,
    /// Journal group-commit knobs. A large `sync_every` widens the
    /// crash-loss window the drill must recover across.
    pub journal: JournalConfig,
    /// Engine knobs. Overload watermarks should stay disabled for
    /// oracle-equality drills: a shed admission is a call the oracle placed.
    pub engine: EngineConfig,
    /// Injected faults.
    pub faults: Vec<ServiceFault>,
}

impl CrashDrillConfig {
    /// Drill config with default replay/journal/engine knobs and `faults`.
    pub fn with_faults(faults: Vec<ServiceFault>) -> CrashDrillConfig {
        CrashDrillConfig {
            faults,
            ..CrashDrillConfig::default()
        }
    }
}

/// Why a crash drill could not complete. Every variant is typed — the drill
/// never panics on an injected fault and never silently diverges.
#[derive(Clone, Debug, PartialEq)]
pub enum CrashDrillError {
    /// Creating or booting the journaled engine failed.
    Boot(JournalError),
    /// A post-crash recovery failed (scan error, corrupt record, …).
    Recovery(RecoveryError),
    /// The durable journal disagrees with the operations the harness drove:
    /// record `index` does not match (or the journal holds records that
    /// were never driven). The signature of a dropped mid-stream append.
    LogMismatch {
        /// 0-based journal record index of the first divergence.
        index: u64,
    },
}

impl std::fmt::Display for CrashDrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashDrillError::Boot(e) => write!(f, "journaled engine boot failed: {e}"),
            CrashDrillError::Recovery(e) => write!(f, "crash recovery failed: {e}"),
            CrashDrillError::LogMismatch { index } => {
                write!(
                    f,
                    "durable journal diverges from driven history at record {index}"
                )
            }
        }
    }
}

impl std::error::Error for CrashDrillError {}

/// What a completed crash drill produced.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// The replay aggregate — compare with `==` against the serial
    /// no-crash oracle's [`crate::replay::ReplayReport::stats`].
    pub stats: ReplayStats,
    /// Crashes injected and recovered from.
    pub crashes: u64,
    /// Operations re-driven because their journal records died with the
    /// group-commit tail.
    pub redriven_ops: u64,
    /// Unsynced records discarded across all crashes.
    pub journal_lost_records: u64,
    /// Final engine counters (shed/retry/journal-failure visibility).
    pub engine_stats: EngineStats,
    /// Per-death drain reports, in firing order (empty without
    /// [`ServiceFault::ServerDeath`] faults).
    pub death_reports: Vec<ServerDeathReport>,
    /// The engine's live fleet-packing counters (`None` when the engine
    /// ran without packing). Unlike [`ReplayStats::pack`] — the shared
    /// post-drive pack-pass oracle — these reflect the engine's actual
    /// online decisions, server deaths included.
    pub pack_stats: Option<PackStats>,
    /// Capacity violations in the engine's final fleet state (always 0:
    /// the packer never overcommits actual cost).
    pub pack_violations: u64,
}

/// What one processed step contributed to the journal: which trace event or
/// server death it was, and how many records the journal was *expected* to
/// hold afterwards — the realignment key after a crash.
#[derive(Clone, Copy, Debug)]
enum Journaled {
    Event(usize),
    Death(usize),
}

/// The journal fault that applies to operation `op` (later windows win).
fn fault_at(windows: &[(u64, u64, JournalFault)], op: u64) -> JournalFault {
    windows
        .iter()
        .rev()
        .find(|&&(start, end, _)| op >= start && op < end)
        .map(|&(_, _, f)| f)
        .unwrap_or(JournalFault::None)
}

/// Drive `db` through a journaled engine under `cfg.faults`, crashing and
/// recovering as scheduled, and return the final aggregate.
///
/// The journal lives at `journal_path` (truncated on entry). On success the
/// returned [`CrashOutcome::stats`] is bitwise-comparable (`==`, floats
/// included) with the serial no-crash oracle over the same trace, config,
/// and a fresh selector — the property the `crash_recovery_drill` bench
/// asserts across seeded workloads × randomized kill points.
#[allow(clippy::too_many_arguments)]
pub fn drive_with_crashes(
    topo: &Topology,
    catalog: &ConfigCatalog,
    db: &CallRecordsDb,
    artifact: &PlanArtifact,
    cfg: &CrashDrillConfig,
    journal_path: &Path,
) -> Result<CrashOutcome, CrashDrillError> {
    let routing = RoutingTable::compute(topo, FailureScenario::None);
    let latmap = LatencyMap::from_routing(topo, &routing);
    let records = db.records();
    let events = build_events(records, cfg.replay.freeze_minutes);

    // fault schedule over the canonical serial op index
    let mut windows: Vec<(u64, u64, JournalFault)> = Vec::new();
    let mut crash_ops: Vec<u64> = Vec::new();
    let mut deaths: Vec<(u64, ServerId)> = Vec::new();
    for f in &cfg.faults {
        match *f {
            ServiceFault::JournalStall { at_op, ops, stall } => {
                windows.push((at_op, at_op.saturating_add(ops), JournalFault::Stall(stall)));
            }
            ServiceFault::JournalDrop { at_op, ops } => {
                windows.push((at_op, at_op.saturating_add(ops), JournalFault::Drop));
            }
            ServiceFault::CrashAtOp { at_op } => crash_ops.push(at_op),
            ServiceFault::ServerDeath { dc, server, at_op } => deaths.push((
                at_op,
                ServerId {
                    dc: DcId(dc),
                    index: server,
                },
            )),
            ServiceFault::WorkerDeath { .. } => {} // concurrent-driver fault
        }
    }
    crash_ops.sort_unstable();
    crash_ops.dedup();
    deaths.sort_by_key(|&(at, _)| at);

    let _ = std::fs::remove_file(journal_path);
    let journal = Journal::create(journal_path, cfg.journal).map_err(CrashDrillError::Boot)?;
    let mut engine = Engine::with_journal(&latmap, artifact, &cfg.engine, journal)
        .map_err(CrashDrillError::Boot)?;

    // the record stream the journal is *supposed* to hold, and per-step
    // expected-record counts for post-crash realignment
    let mut expected: Vec<WalRecord> = vec![WalRecord::PlanInstall {
        ndjson: artifact.to_ndjson(),
    }];
    let mut history: Vec<(Journaled, u64)> = Vec::new();
    let mut placements: Vec<Option<Placement>> = vec![None; records.len()];

    let mut cursor = 0usize; // next event
    let mut op_count = 0u64; // cumulative ops driven (redrives included)
    let mut next_crash = 0usize;
    let mut next_death = 0usize;
    let mut crashes = 0u64;
    let mut redriven_ops = 0u64;
    let mut lost_records = 0u64;
    let mut death_reports: Vec<ServerDeathReport> = Vec::new();

    loop {
        let mut crash_now = false;
        {
            let mut w = engine.worker();
            let mut last_fault = JournalFault::None;
            while cursor < events.len() {
                // server deaths due at this op fire before it, like crashes;
                // their records sync eagerly so a crash never splits them
                while next_death < deaths.len() && deaths[next_death].0 <= op_count {
                    let (_, server) = deaths[next_death];
                    let rep = engine.kill_server(server);
                    engine.sync_journal();
                    expected.extend(rep.records.iter().cloned());
                    history.push((Journaled::Death(next_death), expected.len() as u64));
                    death_reports.push(rep);
                    next_death += 1;
                }
                if next_crash < crash_ops.len() && crash_ops[next_crash] <= op_count {
                    next_crash += 1;
                    crash_now = true;
                    break;
                }
                let fault = fault_at(&windows, op_count);
                if fault != last_fault {
                    if let Some(j) = engine.journal() {
                        j.set_fault(fault);
                    }
                    last_fault = fault;
                }
                let (_, kind, i) = events[cursor];
                let r = &records[i];
                let server_of = |call| engine.server_of(call).map_or(wal::NO_SERVER, |s| s.index);
                match step(&mut w, r, kind) {
                    Step::Started(Some(outcome)) => {
                        let (dc, rung) = wal::encode_outcome(outcome);
                        expected.push(WalRecord::Admit {
                            call: r.id,
                            country: r.first_joiner.0,
                            dc,
                            rung,
                            server: server_of(r.id),
                        });
                    }
                    Step::Frozen { initial, decision } => {
                        let (kind, from, to) = wal::encode_freeze(decision);
                        expected.push(WalRecord::Freeze {
                            call: r.id,
                            config: r.config.0,
                            start_minute: r.start_minute,
                            stale: !engine.plan_valid(),
                            kind,
                            from,
                            to,
                            to_server: server_of(r.id),
                        });
                        placements[i] = decision
                            .final_dc()
                            .map(|final_dc| Placement { initial, final_dc });
                    }
                    // a shed admission and a freeze of a call stranded before
                    // freezing (the oracle skips it too) journal nothing
                    Step::Started(None) | Step::Skipped => {}
                    Step::Ended => expected.push(WalRecord::End { call: r.id }),
                }
                history.push((Journaled::Event(cursor), expected.len() as u64));
                cursor += 1;
                op_count += 1;
            }
        }
        if !crash_now {
            break;
        }

        // kill: discard the unsynced group-commit tail, drop the engine,
        // recover from the durable journal, realign, resume
        crashes += 1;
        if let Some(j) = engine.journal() {
            lost_records += j.crash();
        }
        drop(engine);
        let (recovered, report) = Engine::recover(&latmap, &cfg.engine, cfg.journal, journal_path)
            .map_err(CrashDrillError::Recovery)?;
        engine = recovered;

        // the durable prefix, read back from the recovered log, must match
        // the driven history record-for-record
        let durable = Journal::scan(journal_path)
            .map_err(|e| CrashDrillError::Recovery(RecoveryError::Journal(e)))?
            .records;
        if durable.len() > expected.len() {
            return Err(CrashDrillError::LogMismatch {
                index: expected.len() as u64,
            });
        }
        for (i, payload) in durable.iter().enumerate() {
            if !matches!(WalRecord::decode(payload), Ok(rec) if rec == expected[i]) {
                return Err(CrashDrillError::LogMismatch { index: i as u64 });
            }
        }
        expected.truncate(durable.len());

        // pop every step whose journal record died with the tail; redrive
        // them (the recovered state is exactly the state the dead engine
        // had at the durable prefix, so redriven decisions are identical)
        while history
            .last()
            .is_some_and(|&(_, after)| after > report.records)
        {
            let (journaled, _) = history.pop().unwrap_or((Journaled::Event(0), 0));
            match journaled {
                Journaled::Event(idx) => {
                    cursor = cursor.min(idx);
                    redriven_ops += 1;
                }
                // unreachable in practice — death records sync eagerly —
                // but popping one re-fires it identically if it ever dies
                Journaled::Death(k) => {
                    next_death = next_death.min(k);
                    death_reports.truncate(k);
                }
            }
        }
        let durable_base = history.last().map_or(1, |&(_, after)| after);
        if durable_base != report.records {
            return Err(CrashDrillError::LogMismatch {
                index: report.records,
            });
        }
    }

    engine.sync_journal();
    Ok(CrashOutcome {
        stats: account(
            topo,
            &routing,
            &latmap,
            catalog,
            records,
            &placements,
            &cfg.replay,
            engine.selector_stats(),
            engine.per_dc_tallies(),
        )
        .stats(),
        crashes,
        redriven_ops,
        journal_lost_records: lost_records,
        pack_stats: engine.pack_stats(),
        pack_violations: engine.packer().map_or(0, |p| p.capacity_violations()),
        engine_stats: engine.stats(),
        death_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use crate::testkit::{all_at, db_of, record, world};
    use sb_core::RealtimeSelector;
    use sb_net::DcId;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sb-crash-drill-{tag}-{}.wal", std::process::id()));
        p
    }

    fn oracle_stats(
        topo: &Topology,
        cat: &ConfigCatalog,
        db: &CallRecordsDb,
        artifact: &PlanArtifact,
        cfg: &ReplayConfig,
    ) -> ReplayStats {
        let routing = RoutingTable::compute(topo, FailureScenario::None);
        let latmap = LatencyMap::from_routing(topo, &routing);
        let selector = RealtimeSelector::from_artifact(&latmap, artifact);
        replay(topo, &routing, &latmap, cat, db, &selector, cfg).stats()
    }

    #[test]
    fn crashes_recover_to_the_no_crash_oracle() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..40).map(|i| record(i, id, i, 30, jp)));
        let artifact = PlanArtifact::seed(all_at(id, tokyo, 3, 40.0));
        let mut cfg = CrashDrillConfig::with_faults(vec![
            ServiceFault::CrashAtOp { at_op: 17 },
            ServiceFault::CrashAtOp { at_op: 55 },
        ]);
        // group commit never fires on its own: every crash loses its whole
        // un-synced tail, so the drill must redrive across both crashes
        cfg.journal = JournalConfig {
            group_commit: Duration::from_secs(3600),
            sync_every: usize::MAX,
        };
        let path = temp_journal("oracle");
        let out =
            drive_with_crashes(&topo, &cat, &db, &artifact, &cfg, &path).expect("drill completes");
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.crashes, 2);
        assert_eq!(
            out.stats,
            oracle_stats(&topo, &cat, &db, &artifact, &cfg.replay)
        );
        // default group commit (sync_every 64) means the first crash loses
        // its whole tail — the drill really exercised redrive
        assert!(out.redriven_ops > 0, "{}", out.redriven_ops);
        assert_eq!(out.journal_lost_records, out.redriven_ops);
    }

    #[test]
    fn server_deaths_rehome_in_dc_and_recover_through_crashes() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..40).map(|i| record(i, id, i, 15, jp)));
        let artifact = PlanArtifact::seed(all_at(id, tokyo, 3, 40.0));
        // two of Tokyo's three servers die mid-trace, then the engine
        // crashes: the drill must drain every call in-DC (no ladder spills,
        // no strands), recover the death records from the journal, and
        // still land on the no-crash oracle
        let mut cfg = CrashDrillConfig::with_faults(vec![
            ServiceFault::ServerDeath {
                dc: tokyo.index() as u16,
                server: 0,
                at_op: 20,
            },
            ServiceFault::ServerDeath {
                dc: tokyo.index() as u16,
                server: 1,
                at_op: 50,
            },
            ServiceFault::CrashAtOp { at_op: 70 },
        ]);
        let mut spec = sb_pack::FleetSpec::empty(topo.dcs.len());
        for d in 0..topo.dcs.len() {
            for _ in 0..3 {
                spec.push_server(DcId(d as u16), 16_000);
            }
        }
        cfg.engine.pack = Some(sb_engine::EnginePackConfig {
            spec,
            packer: sb_pack::PackerConfig::default(),
            cost: sb_pack::CostModel::default(),
            growth: Some(sb_pack::GrowthModel::flat(2)),
        });
        let path = temp_journal("server-death");
        let out =
            drive_with_crashes(&topo, &cat, &db, &artifact, &cfg, &path).expect("drill completes");
        let _ = std::fs::remove_file(&path);

        assert_eq!(out.crashes, 1);
        assert_eq!(out.death_reports.len(), 2);
        for (i, rep) in out.death_reports.iter().enumerate() {
            assert!(!rep.already_dead, "death {i} must hit a live server");
            assert_eq!(rep.stranded, 0, "death {i} stranded calls");
            assert_eq!(rep.spilled_rehomed, 0, "death {i} escalated to the ladder");
        }
        assert!(
            out.death_reports.iter().any(|r| r.rehomed > 0),
            "at least one death must actually drain calls"
        );
        // the final engine recovered from the crash, and recovery restores
        // *state*, not stats — so the death counters live in the reports
        // above, while the recovered fleet must still satisfy the hard
        // invariants (dead servers empty, live servers within capacity)
        assert!(out.pack_stats.is_some(), "packing was enabled");
        assert_eq!(out.pack_violations, 0, "hard capacity invariant");
        // with every drain absorbed in-DC, selector-level stats are
        // untouched by the deaths: the oracle equality still holds
        assert_eq!(
            out.stats,
            oracle_stats(&topo, &cat, &db, &artifact, &cfg.replay)
        );
    }

    #[test]
    fn journal_stall_is_only_latency() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..20).map(|i| record(i, id, i, 20, jp)));
        let artifact = PlanArtifact::seed(all_at(id, tokyo, 2, 20.0));
        let cfg = CrashDrillConfig::with_faults(vec![
            ServiceFault::JournalStall {
                at_op: 5,
                ops: 5,
                stall: Duration::from_micros(200),
            },
            ServiceFault::CrashAtOp { at_op: 30 },
        ]);
        let path = temp_journal("stall");
        let out = drive_with_crashes(&topo, &cat, &db, &artifact, &cfg, &path)
            .expect("stalls never lose durability");
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.crashes, 1);
        assert_eq!(
            out.stats,
            oracle_stats(&topo, &cat, &db, &artifact, &cfg.replay)
        );
    }

    #[test]
    fn dropped_appends_surface_as_typed_log_mismatch() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..20).map(|i| record(i, id, i, 20, jp)));
        let artifact = PlanArtifact::seed(all_at(id, tokyo, 2, 20.0));
        let mut cfg = CrashDrillConfig::with_faults(vec![
            ServiceFault::JournalDrop { at_op: 6, ops: 4 },
            ServiceFault::CrashAtOp { at_op: 25 },
        ]);
        // sync every append: the records *after* the drop window are
        // durable, so the crash sees a mid-stream gap — a typed mismatch
        cfg.journal = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let path = temp_journal("drop");
        let res = drive_with_crashes(&topo, &cat, &db, &artifact, &cfg, &path);
        let _ = std::fs::remove_file(&path);
        // the gap surfaces typed: either recovery itself refuses (a record
        // references state whose admit was dropped) or the harness's
        // prefix check catches the divergence
        match res {
            Err(CrashDrillError::LogMismatch { .. })
            | Err(CrashDrillError::Recovery(RecoveryError::Inconsistent { .. })) => {}
            other => panic!("expected a typed divergence error, got {other:?}"),
        }
    }
}

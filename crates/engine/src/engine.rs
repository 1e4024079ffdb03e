//! The service-shaped orchestration layer over the `sb-core` selector.
//!
//! `sb-core` owns the placement *primitives* (closest-DC assignment, quota
//! debits, the degradation ladder); this module owns everything a
//! long-running service wraps around them: admission control, the call
//! lifecycle persisted through the `sb-store` call-state store, plan
//! hot-swap, and graceful drain. Keeping the two apart is deliberate — see
//! DESIGN.md §Layering for the separation-of-concerns lesson this encodes.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sb_core::{
    FreezeDecision, LatencyMap, PlanArtifact, PlanSwapStats, RealtimeSelector, RestoreDebit,
    SelectorOutcome, SelectorRung, SelectorStats,
};
use sb_forecast::{Observation, StreamingForecaster, StreamingParams};
use sb_net::{CountryId, DcId};
use sb_pack::{
    CostModel, FleetPacker, FleetSpec, GrowthModel, MoveDcOutcome, PackStateExport, PackStats,
    PackerConfig, ServerId,
};
use sb_store::{
    BuildCallIdHasher, CallEvent, CallStateStore, Journal, JournalConfig, JournalReadError,
    LatencyHistogram, MediaFlag,
};
use sb_workload::ConfigId;

use crate::wal::{self, freeze_kind, WalRecord};

/// One serving op in this many is timed. A worker counts its admits, joins,
/// media changes, freezes and ends; the first and every `OP_SAMPLE`-th after
/// it is sampled, and a sampled op's latency and its store write's are
/// recorded with weight `OP_SAMPLE`
/// ([`LatencyHistogram::record_n`]), so [`Engine::op_latency`] and
/// [`Engine::store_latency`] keep estimating every op. The other ops read
/// no clock — unless an admit deadline is configured, which needs a reading
/// on every admit, freeze and end.
pub const OP_SAMPLE: u64 = 64;

/// Overload-protection knobs: watermarks that turn admissions into typed
/// [`Admission::Shed`] outcomes instead of letting the engine collapse.
///
/// The default disables both watermarks (existing callers see no behavior
/// change) while keeping the store-write backoff armed — a healthy store
/// never triggers it.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Shed admissions while live calls ≥ this watermark (queue-depth
    /// protection). `None` disables.
    pub active_watermark: Option<usize>,
    /// Per-admission deadline: shed while the EWMA of recent admit
    /// latencies exceeds it, and cap store-write backoff so one admission
    /// never sleeps past it. `None` disables.
    pub admit_deadline: Option<Duration>,
    /// First store-write retry backoff; doubles per attempt (bounded
    /// exponential).
    pub store_retry_base: Duration,
    /// Store-write retry attempts before declaring the store degraded.
    pub store_retry_limit: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            active_watermark: None,
            admit_deadline: None,
            store_retry_base: Duration::from_micros(100),
            store_retry_limit: 3,
        }
    }
}

/// Two-level placement knobs: when present, every admitted call is also
/// packed onto a media server of its DC's fleet, placements become
/// `(DC, server)` pairs end-to-end, and [`Engine::kill_server`] gains a
/// server-granular failure domain.
#[derive(Clone, Debug)]
pub struct EnginePackConfig {
    /// Per-DC server fleet (must cover every DC of the topology).
    pub spec: FleetSpec,
    /// Packing policy knobs (scorer, hysteresis, eviction budget).
    pub packer: PackerConfig,
    /// Per-call CPU cost model.
    pub cost: CostModel,
    /// Optional growth predictor shaping reservations. The engine always
    /// evaluates it on an empty history — a reservation must be a pure
    /// function of the participant count so recovery can recompute it from
    /// journaled state — so a fitted model degenerates to its base rate
    /// here; [`GrowthModel::flat`] is the common choice.
    pub growth: Option<GrowthModel>,
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Shard count of the call-state store.
    pub store_shards: usize,
    /// Simulated per-write store round trip (§6.6; zero = in-process map).
    pub store_rtt: Duration,
    /// Overload-protection watermarks and deadlines.
    pub overload: OverloadConfig,
    /// Two-level `(DC, server)` placement; `None` keeps DC-only placement.
    pub pack: Option<EnginePackConfig>,
    /// Closed-loop service mode: run a streaming demand forecaster inside
    /// the engine. Every [`Engine::observe_demand`] bucket is journaled as
    /// a [`WalRecord::ForecastMark`] so recovery restores the controller's
    /// models bitwise. `None` keeps the engine purely reactive.
    pub forecast: Option<StreamingParams>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            store_shards: 64,
            store_rtt: Duration::ZERO,
            overload: OverloadConfig::default(),
            pack: None,
            forecast: None,
        }
    }
}

/// The engine's closed-loop forecasting runtime: streaming models plus the
/// per-config bucket cursors that order the journaled marks.
struct ForecastState {
    fc: StreamingForecaster,
    marks: u64,
    /// Next expected bucket index per config — journaled with each mark and
    /// checked at recovery, so a reordered or dropped mark surfaces as a
    /// typed inconsistency instead of silently divergent models.
    next_bucket: std::collections::HashMap<u32, u64>,
}

impl ForecastState {
    fn new(params: StreamingParams) -> ForecastState {
        ForecastState {
            fc: StreamingForecaster::new(params),
            marks: 0,
            next_bucket: Default::default(),
        }
    }
}

/// The engine's packing runtime: the fleet packer plus the models that
/// derive a call's charge from its participant count.
struct PackRuntime {
    packer: FleetPacker,
    cost: CostModel,
    growth: Option<GrowthModel>,
}

impl PackRuntime {
    fn from_config(cfg: &EnginePackConfig) -> PackRuntime {
        PackRuntime {
            packer: FleetPacker::new(cfg.spec.clone(), cfg.packer),
            cost: cfg.cost,
            growth: cfg.growth.clone(),
        }
    }

    /// Reserved charge for a call of `participants` — actual cost plus the
    /// predicted growth headroom. Deliberately a pure function of the
    /// participant count (empty history) so recovery can recompute it.
    fn reserve(&self, participants: u32) -> u32 {
        match &self.growth {
            Some(g) => g.reserve_mcpu(&self.cost, participants, &[]),
            None => self.cost.cost_mcpu(participants),
        }
    }
}

/// Why an admission was shed instead of placed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Live calls crossed [`OverloadConfig::active_watermark`].
    QueueDepth,
    /// The admit-latency EWMA exceeded [`OverloadConfig::admit_deadline`].
    LatencyWatermark,
    /// Store writes are failing after bounded exponential backoff.
    StoreBackoff,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::QueueDepth => "queue-depth",
            ShedReason::LatencyWatermark => "latency-watermark",
            ShedReason::StoreBackoff => "store-backoff",
        })
    }
}

/// Outcome of an admission request.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Admission {
    /// The call was admitted and placed (the outcome says where and via
    /// which rung). A placement of `None` means every DC was unreachable —
    /// admitted but stranded, mirroring the selector's ladder.
    Granted(SelectorOutcome),
    /// The engine is draining: no new calls.
    Draining,
    /// The engine is overloaded: the call was shed before touching the
    /// selector or the store (typed, counted, never a panic).
    Shed {
        /// Which watermark tripped.
        reason: ShedReason,
    },
}

impl Admission {
    /// The assigned DC, if any.
    pub fn dc(self) -> Option<sb_net::DcId> {
        match self {
            Admission::Granted(o) => o.dc(),
            Admission::Draining | Admission::Shed { .. } => None,
        }
    }
}

/// Aggregate engine counters (one consistent snapshot).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Selector-side statistics (assignments, freezes, migrations, …).
    pub selector: SelectorStats,
    /// Calls admitted (placed or stranded — the selector saw them).
    pub admitted: u64,
    /// Admissions rejected because the engine was draining.
    pub rejected_draining: u64,
    /// Calls ended.
    pub ended: u64,
    /// Plans hot-swapped in over the engine's lifetime.
    pub plans_installed: u64,
    /// Currently live calls (selector view).
    pub active_calls: usize,
    /// Call-state store write attempts (failed ones and retries included),
    /// counted exactly rather than sampled.
    pub store_writes: u64,
    /// Admissions shed at the queue-depth watermark.
    pub shed_queue_depth: u64,
    /// Admissions shed at the latency watermark.
    pub shed_latency: u64,
    /// Admissions shed while the store was degraded.
    pub shed_store: u64,
    /// Store-write retries performed (bounded exponential backoff).
    pub store_retries: u64,
    /// Store writes abandoned after exhausting the retry budget.
    pub store_write_failures: u64,
    /// Journal appends that failed (injected faults or I/O errors).
    pub journal_failures: u64,
    /// Realized-demand buckets absorbed by the streaming forecaster
    /// (0 when forecast mode is off).
    pub forecast_marks: u64,
    /// Configs the forecaster tracks.
    pub forecast_configs: u64,
    /// Configs whose model grid has seeded (past the warmup prefix).
    pub forecast_seeded: u64,
    /// Drift events the forecaster has signalled.
    pub forecast_drifts: u64,
}

/// A long-running selector service: admission, call lifecycle via the
/// sharded call-state store, plan hot-swap, graceful drain.
///
/// All methods take `&self`; workers drive a per-thread [`EngineWorker`]
/// (from [`Engine::worker`]) so stats and latency samples batch locally and
/// merge on flush/drop.
pub struct Engine {
    selector: RealtimeSelector,
    store: CallStateStore,
    pack: Option<PackRuntime>,
    forecast: Option<Mutex<ForecastState>>,
    journal: Option<Journal>,
    overload: OverloadConfig,
    draining: AtomicBool,
    admitted: AtomicU64,
    rejected_draining: AtomicU64,
    ended: AtomicU64,
    plans_installed: AtomicU64,
    shed_queue: AtomicU64,
    shed_latency: AtomicU64,
    shed_store: AtomicU64,
    store_retries: AtomicU64,
    store_write_failures: AtomicU64,
    store_degraded: AtomicBool,
    journal_failures: AtomicU64,
    store_writes: AtomicU64,
    /// EWMA of recent admit latencies, in nanoseconds (α = 1/8); kept only
    /// while an admit deadline is configured, the one reader.
    ewma_admit_ns: AtomicU64,
    op_latency: Mutex<LatencyHistogram>,
    store_latency: Mutex<LatencyHistogram>,
}

impl Engine {
    /// Boot the engine from a topology view and an initial plan artifact.
    pub fn new(latmap: &LatencyMap, artifact: &PlanArtifact, cfg: &EngineConfig) -> Engine {
        Engine {
            selector: RealtimeSelector::from_artifact(latmap, artifact),
            store: CallStateStore::with_simulated_rtt(cfg.store_shards, cfg.store_rtt),
            pack: cfg.pack.as_ref().map(PackRuntime::from_config),
            forecast: cfg.forecast.map(|p| Mutex::new(ForecastState::new(p))),
            journal: None,
            overload: cfg.overload.clone(),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            ended: AtomicU64::new(0),
            plans_installed: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_latency: AtomicU64::new(0),
            shed_store: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            store_write_failures: AtomicU64::new(0),
            store_degraded: AtomicBool::new(false),
            journal_failures: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            ewma_admit_ns: AtomicU64::new(0),
            op_latency: Mutex::new(LatencyHistogram::new()),
            store_latency: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// Boot a journaled engine: every lifecycle operation is appended to
    /// `journal` (write-ahead, group-committed), starting with the boot
    /// plan artifact as record 0 — synced immediately, so a recovering
    /// engine always finds its plan.
    pub fn with_journal(
        latmap: &LatencyMap,
        artifact: &PlanArtifact,
        cfg: &EngineConfig,
        journal: Journal,
    ) -> Result<Engine, sb_store::JournalError> {
        journal.append(
            &WalRecord::PlanInstall {
                ndjson: artifact.to_ndjson(),
            }
            .encode(),
        )?;
        journal.sync()?;
        let mut engine = Engine::new(latmap, artifact, cfg);
        engine.journal = Some(journal);
        Ok(engine)
    }

    /// A worker handle batching selector stats and latency samples locally.
    pub fn worker(&self) -> EngineWorker<'_> {
        EngineWorker {
            engine: self,
            shard: self.selector.shard(),
            ops: LatencyHistogram::new(),
            store_hist: LatencyHistogram::new(),
            op_count: 0,
            store_writes: 0,
        }
    }

    /// Hot-swap a new plan into the selector (carrying consumed quota over,
    /// see [`RealtimeSelector::install_plan`]). Journaled and synced
    /// eagerly when the engine is journaled — a plan install is never lost
    /// to the group-commit window.
    pub fn install_plan(&self, artifact: &PlanArtifact) -> PlanSwapStats {
        self.journal_append(&WalRecord::PlanInstall {
            ndjson: artifact.to_ndjson(),
        });
        if let Some(j) = &self.journal {
            if j.sync().is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        let swap = self.selector.install_plan(artifact);
        self.plans_installed.fetch_add(1, Ordering::Relaxed);
        swap
    }

    /// Append one WAL record, if journaled. Append failures (injected
    /// drops, I/O errors) are counted and the engine keeps serving —
    /// availability wins over durability, and a later crash surfaces the
    /// gap as a typed realignment error instead of silent divergence.
    fn journal_append(&self, rec: &WalRecord) {
        if let Some(j) = &self.journal {
            if j.append(&rec.encode()).is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The write-ahead journal, when this engine was booted with one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Force the journal's group commit (no-op when un-journaled).
    pub fn sync_journal(&self) {
        if let Some(j) = &self.journal {
            if j.sync().is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Is the store currently considered degraded (admissions shed with
    /// [`ShedReason::StoreBackoff`])? Cleared by the next successful write.
    pub fn store_degraded(&self) -> bool {
        self.store_degraded.load(Ordering::Relaxed)
    }

    /// Push a fresh topology view (latency map + per-DC health).
    pub fn update_topology(&self, latmap: &LatencyMap, dc_up: &[bool]) {
        self.selector.update_topology(latmap, dc_up);
    }

    /// Stop admitting new calls; in-flight calls keep running to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Is the engine refusing new admissions?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Drained = draining and no live calls remain.
    pub fn drained(&self) -> bool {
        self.draining() && self.selector.active_calls() == 0
    }

    /// Block until drained or `timeout` elapses; returns whether the drain
    /// completed. (Callers must keep feeding `end` events — the engine never
    /// hangs up calls itself.)
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while !self.drained() {
            if t0.elapsed() >= timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Installed plan epoch.
    pub fn plan_epoch(&self) -> u64 {
        self.selector.plan_epoch()
    }

    /// Whether the installed plan is currently trusted (mirrors
    /// [`RealtimeSelector::plan_valid`]; journaled on every freeze record).
    pub fn plan_valid(&self) -> bool {
        self.selector.plan_valid()
    }

    /// Opaque token identifying the quota pool a `(config, start-minute)`
    /// freeze will debit, for partitioning work across workers (same token →
    /// same pool). `None` when the freeze would be unplanned.
    pub fn pool_token(&self, config: ConfigId, start_minute: u64) -> Option<u64> {
        self.selector.quota_pool_token(config, start_minute)
    }

    /// Feed one realized-demand bucket for `config` into the engine's
    /// streaming forecaster (service mode). The observation is journaled as
    /// a [`WalRecord::ForecastMark`] *before* the models advance — the
    /// write-ahead contract — so [`Engine::recover`] replays the exact
    /// observation sequence and restores the controller bitwise. Returns
    /// `None` when the engine was built without
    /// [`EngineConfig::forecast`].
    pub fn observe_demand(&self, config: u32, value: f64) -> Option<Observation> {
        let st = self.forecast.as_ref()?;
        let mut st = st.lock();
        let bucket = st.next_bucket.get(&config).copied().unwrap_or(0);
        self.journal_append(&WalRecord::ForecastMark {
            config,
            bucket,
            value_bits: value.to_bits(),
        });
        st.next_bucket.insert(config, bucket + 1);
        st.marks += 1;
        Some(st.fc.observe(config, value))
    }

    /// Horizon forecast for `config` from the engine's streaming models
    /// (`None` without forecast mode or before the config's grid seeds).
    pub fn forecast(&self, config: u32, horizon: usize) -> Option<Vec<f64>> {
        self.forecast.as_ref()?.lock().fc.forecast(config, horizon)
    }

    /// Snapshot of the streaming forecaster — the recovery differential's
    /// equality witness for the controller ([`StreamingForecaster::models_eq`]).
    pub fn export_forecaster(&self) -> Option<StreamingForecaster> {
        Some(self.forecast.as_ref()?.lock().fc.clone())
    }

    /// Selector-side statistics (includes deltas from flushed workers only).
    pub fn selector_stats(&self) -> SelectorStats {
        self.selector.stats()
    }

    /// Per-DC frozen-call tallies.
    pub fn per_dc_tallies(&self) -> Vec<u64> {
        self.selector.per_dc_tallies()
    }

    /// One consistent counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let (fm, fc_n, fs, fd) = match &self.forecast {
            Some(st) => {
                let st = st.lock();
                (
                    st.marks,
                    st.fc.num_configs() as u64,
                    st.fc.num_seeded() as u64,
                    st.fc.drifts(),
                )
            }
            None => (0, 0, 0, 0),
        };
        EngineStats {
            selector: self.selector.stats(),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            ended: self.ended.load(Ordering::Relaxed),
            plans_installed: self.plans_installed.load(Ordering::Relaxed),
            active_calls: self.selector.active_calls(),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            shed_queue_depth: self.shed_queue.load(Ordering::Relaxed),
            shed_latency: self.shed_latency.load(Ordering::Relaxed),
            shed_store: self.shed_store.load(Ordering::Relaxed),
            store_retries: self.store_retries.load(Ordering::Relaxed),
            store_write_failures: self.store_write_failures.load(Ordering::Relaxed),
            journal_failures: self.journal_failures.load(Ordering::Relaxed),
            forecast_marks: fm,
            forecast_configs: fc_n,
            forecast_seeded: fs,
            forecast_drifts: fd,
        }
    }

    /// Serving-op latency distribution (admit, freeze, end) merged from
    /// flushed workers: one op in [`OP_SAMPLE`] is timed and recorded with
    /// weight [`OP_SAMPLE`], so its count is a multiple of that and its
    /// mean and quantiles estimate every op.
    pub fn op_latency(&self) -> LatencyHistogram {
        self.op_latency.lock().clone()
    }

    /// Store write-latency distribution of the sampled ops' writes, merged
    /// from flushed workers and weighted like [`Engine::op_latency`];
    /// [`EngineStats::store_writes`] is the exact write count.
    pub fn store_latency(&self) -> LatencyHistogram {
        self.store_latency.lock().clone()
    }

    /// The call-state store (shared, cheap to clone).
    pub fn store(&self) -> &CallStateStore {
        &self.store
    }

    /// Deterministic snapshot of the selector's entire mutable state — the
    /// recovery differential's equality witness.
    pub fn export_selector_state(&self) -> sb_core::SelectorStateExport {
        self.selector.export_state()
    }

    /// The fleet packer, when two-level placement is enabled.
    pub fn packer(&self) -> Option<&FleetPacker> {
        self.pack.as_ref().map(|rt| &rt.packer)
    }

    /// Server currently hosting `call`, when the call is live and packed.
    pub fn server_of(&self, call: u64) -> Option<ServerId> {
        let dc = self.selector.current_dc(call)?;
        self.pack.as_ref()?.packer.server_of(dc, call)
    }

    /// Fleet-wide packing counters (`None` when packing is disabled).
    pub fn pack_stats(&self) -> Option<PackStats> {
        self.pack.as_ref().map(|rt| rt.packer.stats())
    }

    /// Deterministic snapshot of every server's occupancy and every packed
    /// call's slot — the pack half of the recovery equality witness
    /// (`None` when packing is disabled).
    pub fn export_pack_state(&self) -> Option<PackStateExport> {
        self.pack.as_ref().map(|rt| rt.packer.export_state())
    }

    /// Declare one media server dead: journal the death, drain its calls
    /// onto surviving servers of the same DC, and only for calls the DC
    /// cannot absorb fall back to the selector's re-home ladder (plan →
    /// locality → any-reachable), re-packing survivors at their new DC.
    /// Every displaced call's destination is journaled as a
    /// [`WalRecord::Pack`] record, so recovery replays the drain without
    /// re-running any packing decision. A no-op (still counted) on an
    /// empty server; a full no-op when packing is disabled or the server
    /// was already dead.
    pub fn kill_server(&self, server: ServerId) -> ServerDeathReport {
        let mut report = ServerDeathReport::default();
        let Some(rt) = &self.pack else {
            report.already_dead = true;
            return report;
        };
        let journal = |report: &mut ServerDeathReport, rec: WalRecord| {
            self.journal_append(&rec);
            report.records.push(rec);
        };
        journal(
            &mut report,
            WalRecord::ServerDeath {
                dc: server.dc.0,
                server: server.index,
            },
        );
        let r = rt.packer.kill_server(server);
        report.already_dead = r.already_dead;
        report.was_empty = r.was_empty;
        if r.already_dead {
            return report;
        }
        for &(call, srv, cost) in &r.rehomed {
            let participants = rt
                .packer
                .call_info(server.dc, call)
                .map_or(0, |i| i.participants);
            journal(
                &mut report,
                WalRecord::Pack {
                    call,
                    dc: server.dc.0,
                    server: srv,
                    participants,
                    cost_mcpu: cost,
                },
            );
            report.rehomed += 1;
        }
        for sp in &r.spilled {
            let outcome = self.selector.rehome_call(sp.call);
            let (dc16, rung) = wal::encode_outcome(outcome);
            journal(
                &mut report,
                WalRecord::Rehome {
                    call: sp.call,
                    dc: dc16,
                    rung,
                },
            );
            match outcome.dc() {
                Some(new_dc) => {
                    let placed = rt.packer.place(
                        new_dc,
                        sp.call,
                        sp.participants,
                        sp.cost_mcpu,
                        sp.reserve_mcpu,
                    );
                    if sp.frozen {
                        rt.packer.freeze(new_dc, sp.call);
                    }
                    journal(
                        &mut report,
                        WalRecord::Pack {
                            call: sp.call,
                            dc: new_dc.0,
                            server: placed.map_or(wal::NO_SERVER, |s| s.index),
                            participants: sp.participants,
                            cost_mcpu: sp.cost_mcpu,
                        },
                    );
                    report.spilled_rehomed += 1;
                }
                None => {
                    journal(
                        &mut report,
                        WalRecord::Pack {
                            call: sp.call,
                            dc: wal::NO_DC,
                            server: wal::NO_SERVER,
                            participants: sp.participants,
                            cost_mcpu: sp.cost_mcpu,
                        },
                    );
                    report.stranded += 1;
                }
            }
        }
        report
    }

    /// Rebuild an engine from its journal: scan the log (truncating a torn
    /// tail), re-install the boot plan from record 0, then re-apply every
    /// durable operation's *recorded decision* — selector call state, quota
    /// debits, per-DC tallies, statistics, store writes, and the plan epoch
    /// all land bitwise-identical to an uninterrupted run over the same
    /// durable prefix. The returned engine appends to the same journal,
    /// resuming at the next sequence number.
    pub fn recover(
        latmap: &LatencyMap,
        cfg: &EngineConfig,
        jcfg: JournalConfig,
        path: &Path,
    ) -> Result<(Engine, RecoveryReport), RecoveryError> {
        let (journal, scan) = Journal::recover(path, jcfg).map_err(RecoveryError::Journal)?;
        let mut ops = Vec::with_capacity(scan.records.len());
        for (i, payload) in scan.records.iter().enumerate() {
            ops.push(
                WalRecord::decode(payload)
                    .map_err(|_| RecoveryError::BadRecord { index: i as u64 })?,
            );
        }
        let Some(WalRecord::PlanInstall { ndjson }) = ops.first() else {
            return Err(RecoveryError::NoBootPlan);
        };
        let boot =
            PlanArtifact::from_ndjson(ndjson).map_err(|_| RecoveryError::PlanParse { index: 0 })?;
        let mut engine = Engine::new(latmap, &boot, cfg);
        let mut report = RecoveryReport {
            records: ops.len() as u64,
            torn_tail_bytes: scan.torn_tail_bytes,
            ..RecoveryReport::default()
        };
        let mut delta = SelectorStats::default();
        // a fresh store has no failed shard: every replayed write lands
        let mut writes = 0u64;
        let mut write = |ev| {
            let _ = engine.store.try_write(ev);
            writes += 1;
        };
        // Per-call packing view rebuilt from the records: hosting DC,
        // charged participants, frozen flag. Reservations are recomputed
        // (they are a pure function of the participant count by
        // construction), so they are never journaled.
        let mut pack_slots: std::collections::HashMap<u64, (u16, u32, bool), BuildCallIdHasher> =
            Default::default();
        for (i, rec) in ops.iter().enumerate().skip(1) {
            let index = i as u64;
            match rec {
                WalRecord::PlanInstall { ndjson } => {
                    let art = PlanArtifact::from_ndjson(ndjson)
                        .map_err(|_| RecoveryError::PlanParse { index })?;
                    engine.selector.install_plan(&art);
                    engine.plans_installed.fetch_add(1, Ordering::Relaxed);
                    report.plans += 1;
                }
                WalRecord::Admit {
                    call,
                    country,
                    dc,
                    rung,
                    server,
                } => {
                    engine.admitted.fetch_add(1, Ordering::Relaxed);
                    report.admits += 1;
                    delta.calls += 1;
                    match wal::decode_outcome(*dc, *rung) {
                        SelectorOutcome::Placed { dc: place, rung } => {
                            match rung {
                                SelectorRung::Plan => delta.rehomed_plan += 1,
                                SelectorRung::Locality => {}
                                SelectorRung::AnyReachable => delta.degraded_any += 1,
                            }
                            engine
                                .selector
                                .restore_call(*call, CountryId(*country), place);
                            if *server != wal::NO_SERVER {
                                if let Some(rt) = &engine.pack {
                                    rt.packer.restore_set(
                                        place,
                                        *call,
                                        *server,
                                        1,
                                        rt.cost.cost_mcpu(1),
                                        rt.reserve(1),
                                        false,
                                    );
                                    pack_slots.insert(*call, (place.0, 1, false));
                                }
                            }
                            write(CallEvent::Start {
                                call: *call,
                                country: *country,
                                dc: place.index() as u16,
                            });
                        }
                        SelectorOutcome::Stranded => delta.stranded += 1,
                    }
                }
                WalRecord::Join { call, country } => {
                    write(CallEvent::Join {
                        call: *call,
                        country: *country,
                    });
                }
                WalRecord::Media { call, media } => {
                    write(CallEvent::Media {
                        call: *call,
                        media: wal_media(*media),
                    });
                }
                WalRecord::Freeze {
                    call,
                    config,
                    start_minute,
                    stale,
                    kind,
                    from: _,
                    to,
                    to_server,
                } => {
                    report.freezes += 1;
                    match *kind {
                        freeze_kind::STAY
                        | freeze_kind::MIGRATE
                        | freeze_kind::UNPLANNED
                        | freeze_kind::OVERFLOW => {
                            let cfg_id = ConfigId(*config);
                            let frozen = engine
                                .selector
                                .plan_slot_of_minute(*start_minute)
                                .map(|s| (cfg_id, s));
                            let final_dc = DcId(*to);
                            let debit = match *kind {
                                freeze_kind::STAY => RestoreDebit::FirstOf(final_dc),
                                freeze_kind::MIGRATE => RestoreDebit::BestOf(final_dc),
                                _ => RestoreDebit::None,
                            };
                            if !engine
                                .selector
                                .restore_freeze(*call, frozen, final_dc, debit, true)
                            {
                                return Err(RecoveryError::Inconsistent { index });
                            }
                            if let Some(rt) = &engine.pack {
                                // Re-apply the packed half of the decision:
                                // freeze the slot in place, or carry it to
                                // the journaled `(to, to_server)` location.
                                if let Some(&(from_dc, p, _)) = pack_slots.get(call) {
                                    if *to_server == wal::NO_SERVER {
                                        // the DC move found no feasible
                                        // server — the call left the fleet
                                        rt.packer.restore_remove(DcId(from_dc), *call);
                                        pack_slots.remove(call);
                                    } else {
                                        if from_dc != *to {
                                            rt.packer.restore_remove(DcId(from_dc), *call);
                                        }
                                        rt.packer.restore_set(
                                            DcId(*to),
                                            *call,
                                            *to_server,
                                            p,
                                            rt.cost.cost_mcpu(p),
                                            rt.reserve(p),
                                            true,
                                        );
                                        pack_slots.insert(*call, (*to, p, true));
                                    }
                                }
                            }
                            delta.freezes += 1;
                            match *kind {
                                freeze_kind::MIGRATE => delta.migrations += 1,
                                freeze_kind::UNPLANNED => {
                                    delta.unplanned += 1;
                                    if *stale {
                                        delta.plan_stale += 1;
                                    }
                                }
                                freeze_kind::OVERFLOW => delta.overflow += 1,
                                _ => {}
                            }
                            write(CallEvent::Freeze { call: *call });
                        }
                        freeze_kind::ALREADY_FROZEN => {
                            delta.duplicate_freezes += 1;
                            write(CallEvent::Freeze { call: *call });
                        }
                        freeze_kind::UNKNOWN => delta.unknown_freezes += 1,
                        _ => return Err(RecoveryError::BadRecord { index }),
                    }
                }
                WalRecord::End { call } => {
                    if let Some(rt) = &engine.pack {
                        if let Some((dc, _, _)) = pack_slots.remove(call) {
                            rt.packer.restore_remove(DcId(dc), *call);
                        }
                    }
                    // `call_end` accounts unknown ends itself, and the live
                    // set evolves identically to the original run, so the
                    // tallies match without a recorded flag
                    engine.selector.call_end(*call);
                    write(CallEvent::End { call: *call });
                    engine.ended.fetch_add(1, Ordering::Relaxed);
                    report.ends += 1;
                }
                WalRecord::Pack {
                    call,
                    dc,
                    server,
                    participants,
                    cost_mcpu,
                } => {
                    report.packs += 1;
                    if let Some(rt) = &engine.pack {
                        let prev = pack_slots.get(call).copied();
                        if let Some((old_dc, _, _)) = prev {
                            if old_dc != *dc {
                                rt.packer.restore_remove(DcId(old_dc), *call);
                            }
                        }
                        if *dc == wal::NO_DC || *server == wal::NO_SERVER {
                            // the call left the fleet (stranded or unpacked)
                            if *dc != wal::NO_DC {
                                rt.packer.restore_remove(DcId(*dc), *call);
                            }
                            pack_slots.remove(call);
                        } else {
                            let frozen = prev.is_some_and(|(_, _, f)| f);
                            rt.packer.restore_set(
                                DcId(*dc),
                                *call,
                                *server,
                                *participants,
                                *cost_mcpu,
                                rt.reserve(*participants),
                                frozen,
                            );
                            pack_slots.insert(*call, (*dc, *participants, frozen));
                        }
                    }
                }
                WalRecord::ServerDeath { dc, server } => {
                    report.server_deaths += 1;
                    if let Some(rt) = &engine.pack {
                        rt.packer.restore_kill(ServerId {
                            dc: DcId(*dc),
                            index: *server,
                        });
                    }
                }
                WalRecord::Rehome { call, dc, rung } => {
                    report.rehomes += 1;
                    match wal::decode_outcome(*dc, *rung) {
                        SelectorOutcome::Placed { dc: new_dc, rung } => {
                            let Some(old) = engine.selector.restore_rehome(
                                *call,
                                new_dc,
                                matches!(rung, SelectorRung::Plan),
                            ) else {
                                return Err(RecoveryError::Inconsistent { index });
                            };
                            match rung {
                                SelectorRung::Plan => delta.rehomed_plan += 1,
                                SelectorRung::Locality => {}
                                SelectorRung::AnyReachable => delta.degraded_any += 1,
                            }
                            if old != new_dc {
                                delta.forced_migrations += 1;
                            }
                        }
                        SelectorOutcome::Stranded => {
                            // the live run dropped the call down the ladder
                            engine.selector.call_end(*call);
                            delta.stranded += 1;
                        }
                    }
                }
                WalRecord::ForecastMark {
                    config,
                    bucket,
                    value_bits,
                } => {
                    report.forecast_marks += 1;
                    // replay the observation sequence through a fresh
                    // forecaster — the streaming path is deterministic in
                    // its inputs, so the rebuilt models are bitwise-equal
                    // to the pre-crash ones. Marks in a journal written
                    // without forecast mode configured cannot be replayed
                    // meaningfully (no season length), so cfg must ask.
                    if let Some(st) = &engine.forecast {
                        let mut st = st.lock();
                        let expect = st.next_bucket.get(config).copied().unwrap_or(0);
                        if *bucket != expect {
                            return Err(RecoveryError::Inconsistent { index });
                        }
                        st.next_bucket.insert(*config, expect + 1);
                        st.marks += 1;
                        st.fc.observe(*config, f64::from_bits(*value_bits));
                    }
                }
            }
        }
        engine.selector.add_stats(&delta);
        engine.store_writes.store(writes, Ordering::Relaxed);
        engine.journal = Some(journal);
        report.live_calls = engine.selector.active_calls();
        report.plan_epoch = engine.plan_epoch();
        report.ops = ops;
        Ok((engine, report))
    }
}

/// Decode a wire media code back to a [`MediaFlag`].
fn wal_media(code: u8) -> MediaFlag {
    match code {
        1 => MediaFlag::ScreenShare,
        2 => MediaFlag::Video,
        _ => MediaFlag::Audio,
    }
}

/// Encode a [`MediaFlag`] as its wire code.
pub(crate) fn media_code(media: MediaFlag) -> u8 {
    match media {
        MediaFlag::Audio => 0,
        MediaFlag::ScreenShare => 1,
        MediaFlag::Video => 2,
    }
}

/// What [`Engine::kill_server`] did with the dead server's calls.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerDeathReport {
    /// The server was already dead (or packing is disabled) — nothing was
    /// drained or counted.
    pub already_dead: bool,
    /// The server hosted no calls; the death itself is still counted.
    pub was_empty: bool,
    /// Calls re-homed onto surviving servers in the same DC.
    pub rehomed: usize,
    /// Spilled calls the selector's ladder re-placed at a DC (possibly the
    /// same one, unpacked, when nothing else is reachable).
    pub spilled_rehomed: usize,
    /// Spilled calls even the ladder could not place — dropped.
    pub stranded: usize,
    /// The exact WAL records this death appended, in order — crash
    /// harnesses mirror these into their expected record stream.
    pub records: Vec<WalRecord>,
}

/// What [`Engine::recover`] rebuilt.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Durable records replayed (including the boot plan).
    pub records: u64,
    /// Bytes truncated off a half-written journal tail.
    pub torn_tail_bytes: u64,
    /// Admissions replayed.
    pub admits: u64,
    /// Freezes replayed.
    pub freezes: u64,
    /// Ends replayed.
    pub ends: u64,
    /// Post-boot plan installs replayed.
    pub plans: u64,
    /// Pack (server-assignment) records replayed.
    pub packs: u64,
    /// Server deaths replayed.
    pub server_deaths: u64,
    /// Forced re-homes replayed.
    pub rehomes: u64,
    /// Forecast marks replayed through the streaming forecaster.
    pub forecast_marks: u64,
    /// Calls live after replay.
    pub live_calls: usize,
    /// Plan epoch after replay.
    pub plan_epoch: u64,
    /// The decoded records, in journal order — crash harnesses realign
    /// their event cursor against these.
    pub ops: Vec<WalRecord>,
}

/// Why a recovery failed. Every variant is a typed, diagnosable refusal —
/// recovery never silently diverges from the journaled history.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryError {
    /// The journal itself failed to scan (corruption, duplicated frames,
    /// bad magic, I/O).
    Journal(JournalReadError),
    /// Frame `index` is durable and CRC-valid but not a decodable record.
    BadRecord {
        /// 0-based record index.
        index: u64,
    },
    /// Record 0 is not a plan install — the engine cannot know its plan.
    NoBootPlan,
    /// A journaled plan artifact failed to parse.
    PlanParse {
        /// 0-based record index.
        index: u64,
    },
    /// A record references state the journal prefix never created (e.g. a
    /// freeze for a call that is not live).
    Inconsistent {
        /// 0-based record index.
        index: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal scan failed: {e}"),
            RecoveryError::BadRecord { index } => {
                write!(f, "undecodable wal record at index {index}")
            }
            RecoveryError::NoBootPlan => write!(f, "journal does not start with a plan install"),
            RecoveryError::PlanParse { index } => {
                write!(
                    f,
                    "journaled plan artifact at index {index} failed to parse"
                )
            }
            RecoveryError::Inconsistent { index } => {
                write!(
                    f,
                    "wal record at index {index} references state never created"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Per-thread engine handle: wraps a [`sb_core::SelectorShard`] plus local
/// latency histograms and counters; everything merges back into the
/// [`Engine`] on [`flush`](EngineWorker::flush) or drop.
pub struct EngineWorker<'a> {
    engine: &'a Engine,
    shard: sb_core::SelectorShard<'a>,
    ops: LatencyHistogram,
    store_hist: LatencyHistogram,
    /// Serving ops issued so far: picks the 1-in-[`OP_SAMPLE`] that are timed.
    op_count: u64,
    store_writes: u64,
}

/// A serving op as it starts: whether it is sampled, and the clock reading
/// a timed op (admit, freeze, end) started at, taken when it is sampled or
/// an admit deadline needs one.
#[derive(Copy, Clone)]
struct OpStart {
    sampled: bool,
    at: Option<Instant>,
}

impl EngineWorker<'_> {
    /// Count one serving op; `true` when it is one of the sampled 1 in
    /// [`OP_SAMPLE`].
    fn tick(&mut self) -> bool {
        let sampled = self.op_count.is_multiple_of(OP_SAMPLE);
        self.op_count += 1;
        sampled
    }

    /// Count one timed op and read the clock when the sample or the admit
    /// deadline (the EWMA watermark and `persist`'s retry budget) needs it.
    fn start_op(&mut self) -> OpStart {
        let sampled = self.tick();
        let timed = sampled || self.engine.overload.admit_deadline.is_some();
        OpStart {
            sampled,
            at: timed.then(Instant::now),
        }
    }

    /// The op's latency so far, when its clock was read; recorded into the
    /// op histogram with weight [`OP_SAMPLE`] when the op is sampled.
    fn stop_op(&mut self, op: OpStart) -> Option<Duration> {
        let elapsed = op.at?.elapsed();
        if op.sampled {
            self.ops.record_n(elapsed, OP_SAMPLE);
        }
        Some(elapsed)
    }

    /// Persist one store event with bounded exponential backoff: retries
    /// [`OverloadConfig::store_retry_limit`] times (doubling from
    /// [`OverloadConfig::store_retry_base`], never sleeping past the admit
    /// deadline's remaining budget), then abandons the write, marks the
    /// store degraded, and lets the selector remain the source of truth —
    /// the store is a stale-read cache until it heals. Any successful write
    /// clears the degraded flag. A sampled op's attempts are timed into the
    /// store histogram with weight [`OP_SAMPLE`]; every attempt is counted.
    /// `op.at` is when the op's deadline began to run; ops that take no
    /// reading of their own pass `None`, and the clock is read only if the
    /// first write fails.
    fn persist(&mut self, ev: CallEvent, op: OpStart) {
        let OpStart { sampled, mut at } = op;
        let ov = &self.engine.overload;
        let store = &self.engine.store;
        let mut attempt: u32 = 0;
        loop {
            self.store_writes += 1;
            let written = if sampled {
                store.try_apply_n(ev, &mut self.store_hist, OP_SAMPLE)
            } else {
                store.try_write(ev)
            };
            if written.is_ok() {
                self.engine.store_degraded.store(false, Ordering::Relaxed);
                return;
            }
            if attempt >= ov.store_retry_limit {
                self.engine
                    .store_write_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.engine.store_degraded.store(true, Ordering::Relaxed);
                return;
            }
            let mut backoff = ov.store_retry_base * 2u32.saturating_pow(attempt);
            if let Some(deadline) = ov.admit_deadline {
                let budget = deadline.saturating_sub(at.get_or_insert_with(Instant::now).elapsed());
                if budget.is_zero() {
                    self.engine
                        .store_write_failures
                        .fetch_add(1, Ordering::Relaxed);
                    self.engine.store_degraded.store(true, Ordering::Relaxed);
                    return;
                }
                backoff = backoff.min(budget);
            }
            self.engine.store_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    /// Admit a new call: place it via the selector's ladder, journal the
    /// decision, and persist the `Start` record. Rejected outright while
    /// the engine drains; shed (typed, never a panic) past an overload
    /// watermark. Admit latency — selector + journal + store, sheds
    /// included — is sampled into [`Engine::op_latency`], so the p99 there
    /// is the deadline the engine is held to.
    pub fn admit(&mut self, call: u64, first_joiner: CountryId) -> Admission {
        if self.engine.draining.load(Ordering::Relaxed) {
            self.engine
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Admission::Draining;
        }
        let op = self.start_op();
        let ov = &self.engine.overload;
        if let Some(reason) = {
            if ov
                .active_watermark
                .is_some_and(|w| self.engine.selector.active_calls() >= w)
            {
                Some(ShedReason::QueueDepth)
            } else if ov.admit_deadline.is_some_and(|d| {
                self.engine.ewma_admit_ns.load(Ordering::Relaxed) > d.as_nanos() as u64
            }) {
                Some(ShedReason::LatencyWatermark)
            } else if self.engine.store_degraded.load(Ordering::Relaxed) {
                Some(ShedReason::StoreBackoff)
            } else {
                None
            }
        } {
            match reason {
                ShedReason::QueueDepth => &self.engine.shed_queue,
                ShedReason::LatencyWatermark => &self.engine.shed_latency,
                ShedReason::StoreBackoff => &self.engine.shed_store,
            }
            .fetch_add(1, Ordering::Relaxed);
            self.stop_op(op);
            return Admission::Shed { reason };
        }
        let outcome = self.shard.call_start(call, first_joiner);
        let (dc16, rung) = wal::encode_outcome(outcome);
        let server = match (outcome.dc(), &self.engine.pack) {
            (Some(dc), Some(rt)) => rt
                .packer
                .place(dc, call, 1, rt.cost.cost_mcpu(1), rt.reserve(1))
                .map_or(wal::NO_SERVER, |s| s.index),
            _ => wal::NO_SERVER,
        };
        self.engine.journal_append(&WalRecord::Admit {
            call,
            country: first_joiner.0,
            dc: dc16,
            rung,
            server,
        });
        self.engine.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(dc) = outcome.dc() {
            self.persist(
                CallEvent::Start {
                    call,
                    country: first_joiner.0,
                    dc: dc.index() as u16,
                },
                op,
            );
        }
        let elapsed = self.stop_op(op);
        if let (Some(elapsed), Some(_)) = (elapsed, self.engine.overload.admit_deadline) {
            // EWMA with α = 1/8: cheap, monotone-decaying admission pressure
            let sample = elapsed.as_nanos() as u64;
            let _ = self.engine.ewma_admit_ns.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |old| {
                    Some(if old == 0 {
                        sample
                    } else {
                        old - old / 8 + sample / 8
                    })
                },
            );
        }
        Admission::Granted(outcome)
    }

    /// A participant joined an admitted call. With packing enabled the
    /// call's charge grows, which may re-pack it (or evict unfrozen
    /// neighbours when it is frozen in place); every touched call's
    /// resulting `(server, cost)` is journaled as a [`WalRecord::Pack`].
    pub fn join(&mut self, call: u64, country: CountryId) {
        let op = OpStart {
            sampled: self.tick(),
            at: None,
        };
        self.engine.journal_append(&WalRecord::Join {
            call,
            country: country.0,
        });
        if let Some(rt) = &self.engine.pack {
            if let Some(dc) = self.shard.current_dc(call) {
                if let Some(info) = rt.packer.call_info(dc, call) {
                    let p = info.participants.saturating_add(1);
                    let out = rt
                        .packer
                        .grow(dc, call, p, rt.cost.cost_mcpu(p), rt.reserve(p));
                    for &(c, srv, cost) in &out.changed {
                        let participants = if c == call {
                            p
                        } else {
                            rt.packer.call_info(dc, c).map_or(0, |i| i.participants)
                        };
                        self.engine.journal_append(&WalRecord::Pack {
                            call: c,
                            dc: dc.0,
                            server: srv,
                            participants,
                            cost_mcpu: cost,
                        });
                    }
                }
            }
        }
        self.persist(
            CallEvent::Join {
                call,
                country: country.0,
            },
            op,
        );
    }

    /// The call's media classification changed.
    pub fn set_media(&mut self, call: u64, media: MediaFlag) {
        let op = OpStart {
            sampled: self.tick(),
            at: None,
        };
        self.engine.journal_append(&WalRecord::Media {
            call,
            media: media_code(media),
        });
        self.persist(CallEvent::Media { call, media }, op);
    }

    /// The call's config froze (A minutes in): tally it against the plan,
    /// migrating if the plan disagrees with the initial placement, journal
    /// the decision, and persist the freeze.
    pub fn freeze(&mut self, call: u64, config: ConfigId, start_minute: u64) -> FreezeDecision {
        let op = self.start_op();
        let decision = self.shard.config_frozen(call, config, start_minute);
        self.stop_op(op);
        let (kind, from, to) = wal::encode_freeze(decision);
        let mut to_server = wal::NO_SERVER;
        if let Some(rt) = &self.engine.pack {
            if from != wal::NO_DC {
                rt.packer.freeze(DcId(from), call);
                if to != from {
                    // selector migration: carry the packed slot to the new
                    // DC's fleet (it may land unpacked if nothing fits)
                    if let MoveDcOutcome::Moved(s) = rt.packer.move_dc(DcId(from), DcId(to), call) {
                        to_server = s.index;
                    }
                } else if let Some(s) = rt.packer.server_of(DcId(to), call) {
                    to_server = s.index;
                }
            }
        }
        self.engine.journal_append(&WalRecord::Freeze {
            call,
            config: config.0,
            start_minute,
            stale: !self.engine.selector.plan_valid(),
            kind,
            from,
            to,
            to_server,
        });
        if !matches!(decision, FreezeDecision::UnknownCall) {
            self.persist(CallEvent::Freeze { call }, op);
        }
        decision
    }

    /// The call ended: release selector state and delete the store record.
    pub fn end(&mut self, call: u64) {
        let op = self.start_op();
        if let Some(rt) = &self.engine.pack {
            if let Some(dc) = self.shard.current_dc(call) {
                rt.packer.remove(dc, call);
            }
        }
        self.shard.call_end(call);
        self.stop_op(op);
        self.engine.journal_append(&WalRecord::End { call });
        self.persist(CallEvent::End { call }, op);
        self.engine.ended.fetch_add(1, Ordering::Relaxed);
    }

    /// Current DC hosting `call`, if live.
    pub fn current_dc(&self, call: u64) -> Option<sb_net::DcId> {
        self.shard.current_dc(call)
    }

    /// Re-read the engine's topology + plan snapshots (after
    /// [`Engine::install_plan`] / [`Engine::update_topology`]).
    pub fn refresh(&mut self) {
        self.shard.refresh_topology();
    }

    /// Merge local stats, counters and latency samples into the engine.
    pub fn flush(&mut self) {
        self.shard.flush();
        self.engine
            .store_writes
            .fetch_add(std::mem::take(&mut self.store_writes), Ordering::Relaxed);
        self.engine.op_latency.lock().merge(&self.ops);
        self.ops = LatencyHistogram::new();
        self.engine.store_latency.lock().merge(&self.store_hist);
        self.store_hist = LatencyHistogram::new();
    }
}

impl Drop for EngineWorker<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::{AllocationShares, PlannedQuotas};
    use sb_net::{FailureScenario, RoutingTable};
    use sb_workload::DemandMatrix;

    fn world() -> (sb_net::Topology, LatencyMap, PlanArtifact, ConfigId) {
        let topo = sb_net::presets::toy_three_dc();
        let routing = RoutingTable::compute(&topo, FailureScenario::None);
        let latmap = LatencyMap::from_routing(&topo, &routing);
        let cfg = ConfigId(0);
        let tokyo = topo.dc_by_name("Tokyo");
        let slots = 4;
        let mut shares = AllocationShares::new(slots);
        let mut demand = DemandMatrix::zero(1, slots, 30, 0);
        for s in 0..slots {
            shares.set(cfg, s, vec![(tokyo, 1.0)]);
            demand.set(cfg, s, 10.0);
        }
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        (topo, latmap, PlanArtifact::seed(quotas), cfg)
    }

    #[test]
    fn lifecycle_persists_through_store() {
        let (topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let adm = w.admit(7, jp);
        let dc = adm.dc().expect("healthy topology places the call");
        assert_eq!(
            engine.store().get(7).map(|st| st.dc),
            Some(dc.index() as u16)
        );
        w.join(7, jp);
        w.set_media(7, MediaFlag::Video);
        let d = w.freeze(7, cfg, 0);
        assert!(!matches!(d, FreezeDecision::UnknownCall));
        assert!(engine.store().get(7).unwrap().frozen);
        w.end(7);
        assert!(engine.store().get(7).is_none());
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.ended, 1);
        assert_eq!(stats.active_calls, 0);
        assert_eq!(stats.selector.calls, 1);
        assert_eq!(stats.selector.freezes, 1);
        assert_eq!(stats.store_writes, 5);
        // admit, freeze, end: the first is sampled and stands for OP_SAMPLE
        assert_eq!(engine.op_latency().count(), OP_SAMPLE);
    }

    #[test]
    fn one_op_in_op_sample_is_timed_and_store_writes_are_exact() {
        let (topo, latmap, artifact, cfg) = world();
        let ecfg = EngineConfig {
            store_shards: 1, // one shard: failing it fails every write
            overload: OverloadConfig {
                store_retry_base: Duration::from_micros(1),
                store_retry_limit: 1,
                ..OverloadConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = Engine::new(&latmap, &artifact, &ecfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let timed_count = |k: u64| OP_SAMPLE * k.div_ceil(OP_SAMPLE);
        assert!(w.admit(0, jp).dc().is_some());
        w.flush();
        assert_eq!(engine.op_latency().count(), timed_count(1));
        w.freeze(0, cfg, 0);
        w.end(0);
        for call in 1..70 {
            assert!(w.admit(call, jp).dc().is_some());
            w.freeze(call, cfg, 0);
            w.end(call);
        }
        w.flush();
        // 210 timed ops; ops 0, 64, 128 and 192 are sampled, each with a
        // store write
        assert_eq!(engine.op_latency().count(), timed_count(210));
        assert_eq!(engine.store_latency().count(), 4 * OP_SAMPLE);
        assert_eq!(engine.stats().store_writes, 210);

        // a failed-shard write and its one retry are two writes
        assert!(w.admit(100, jp).dc().is_some());
        engine.store().fail_shard(0, true);
        w.join(100, jp);
        engine.store().fail_shard(0, false);
        w.end(100);
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.store_retries, 1);
        assert_eq!(stats.store_write_failures, 1);
        assert_eq!(stats.store_writes, 210 + 1 + 2 + 1);
        assert_eq!(engine.op_latency().count(), timed_count(210));
    }

    #[test]
    fn latency_watermark_sheds_typed() {
        let (topo, latmap, artifact, _) = world();
        let mut cfg = EngineConfig::default();
        cfg.overload.admit_deadline = Some(Duration::from_nanos(1));
        let engine = Engine::new(&latmap, &artifact, &cfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        // the first admit takes longer than 1 ns, so the EWMA it seeds is
        // over the deadline and the next admission is shed
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        assert_eq!(
            w.admit(2, jp),
            Admission::Shed {
                reason: ShedReason::LatencyWatermark
            }
        );
        assert!(engine.store().get(2).is_none());
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.shed_latency, 1);
        assert_eq!(stats.admitted, 1);
    }

    #[test]
    fn drain_rejects_new_calls_but_finishes_old_ones() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        engine.begin_drain();
        assert_eq!(w.admit(2, jp), Admission::Draining);
        assert!(!engine.drained(), "call 1 is still live");
        assert!(!engine.wait_drained(Duration::from_millis(5)));
        w.end(1);
        assert!(engine.drained());
        assert!(engine.wait_drained(Duration::from_millis(5)));
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.rejected_draining, 1);
        // the rejected call never reached the selector or the store
        assert_eq!(stats.selector.calls, 1);
        assert!(engine.store().get(2).is_none());
    }

    #[test]
    fn plan_hot_swap_changes_freeze_decisions() {
        let (topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");

        // epoch 0 plan pins quota at Tokyo (closest): freezes stay
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        assert!(matches!(w.freeze(1, cfg, 0), FreezeDecision::Stay(_)));

        // hot-swap a plan that moves all quota to Pune
        let slots = 4;
        let mut shares = AllocationShares::new(slots);
        let mut demand = DemandMatrix::zero(1, slots, 30, 0);
        for s in 0..slots {
            shares.set(cfg, s, vec![(pune, 1.0)]);
            demand.set(cfg, s, 10.0);
        }
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        let v2 = PlanArtifact::seed(quotas).with_epoch(1);
        engine.install_plan(&v2);
        assert_eq!(engine.plan_epoch(), 1);
        w.refresh();

        assert!(w.admit(2, jp).dc().is_some());
        match w.freeze(2, cfg, 0) {
            FreezeDecision::Migrate { to, .. } => assert_eq!(to, pune),
            other => panic!("expected a migration to Pune, got {other:?}"),
        }
        drop(w);
        assert_eq!(engine.stats().plans_installed, 1);
    }

    #[test]
    fn pool_token_matches_selector_partitioning() {
        let (_topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        // same slot → same pool; different slot → different pool
        assert_eq!(engine.pool_token(cfg, 0), engine.pool_token(cfg, 29));
        assert_ne!(engine.pool_token(cfg, 0), engine.pool_token(cfg, 30));
        // unknown config → unplanned → no token
        assert_eq!(engine.pool_token(ConfigId(99), 0), None);
    }

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sb-engine-test-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crash_recovery_rebuilds_identical_state() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("recover");
        let jcfg = JournalConfig {
            sync_every: 1, // sync every record: crash loses nothing
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        let engine =
            Engine::with_journal(&latmap, &artifact, &EngineConfig::default(), journal).unwrap();
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        // a frozen-and-live call, an ended call, an unknown-call freeze
        assert!(w.admit(1, jp).dc().is_some());
        w.join(1, jp);
        w.set_media(1, MediaFlag::Video);
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        assert!(w.admit(2, jp).dc().is_some());
        w.end(2);
        assert!(matches!(w.freeze(99, cfg, 0), FreezeDecision::UnknownCall));
        drop(w);
        let before_state = engine.export_selector_state();
        let before = engine.stats();

        let lost = engine.journal().unwrap().crash();
        assert_eq!(lost, 0, "sync_every=1 leaves no unsynced tail");
        drop(engine);

        let (recovered, report) =
            Engine::recover(&latmap, &EngineConfig::default(), jcfg, &path).unwrap();
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(report.admits, 2);
        assert_eq!(report.freezes, 2);
        assert_eq!(report.ends, 1);
        assert_eq!(report.live_calls, 1);
        let after = recovered.stats();
        assert_eq!(after.selector, before.selector, "selector stats diverged");
        assert_eq!(after.active_calls, before.active_calls);
        assert_eq!(recovered.export_selector_state(), before_state);
        // the store holds the live call again
        assert!(recovered.store().get(1).unwrap().frozen);
        assert!(recovered.store().get(2).is_none());
        // recovered engine keeps journaling: a new op appends past the tail
        // with a dense sequence (a fresh scan sees old + new records)
        let mut w = recovered.worker();
        assert!(w.admit(3, jp).dc().is_some());
        drop(w);
        recovered.sync_journal();
        let rescan = Journal::scan(&path).unwrap();
        assert_eq!(rescan.records.len() as u64, report.records + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn forecast_marks_recover_bitwise() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("forecast");
        let jcfg = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        let mut ecfg = EngineConfig::default();
        let season = 6usize;
        ecfg.forecast = Some(StreamingParams::new(season));
        let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
        let jp = topo.country_by_name("JP");
        // interleave lifecycle ops with demand buckets: the journal holds
        // both record families and recovery replays each through its own
        // state machine
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        drop(w);
        for t in 0..season * 3 {
            let y0 =
                20.0 + 5.0 * ((t % season) as f64 / season as f64 * std::f64::consts::TAU).sin();
            engine.observe_demand(0, y0);
            engine.observe_demand(7, y0 * 0.5 + 1.0);
        }
        let before_fc = engine.export_forecaster().unwrap();
        let before = engine.stats();
        assert_eq!(before.forecast_marks, season as u64 * 6);
        assert_eq!(before.forecast_configs, 2);
        assert_eq!(
            before.forecast_seeded, 2,
            "3 seasons passes 2-season warmup"
        );

        assert_eq!(engine.journal().unwrap().crash(), 0);
        drop(engine);

        let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).unwrap();
        assert_eq!(report.forecast_marks, season as u64 * 6);
        let after_fc = recovered.export_forecaster().unwrap();
        assert!(
            after_fc.models_eq(&before_fc),
            "recovered forecaster must be bitwise-identical"
        );
        let after = recovered.stats();
        assert_eq!(after.forecast_marks, before.forecast_marks);
        assert_eq!(after.forecast_configs, before.forecast_configs);
        assert_eq!(after.forecast_seeded, before.forecast_seeded);
        assert_eq!(after.forecast_drifts, before.forecast_drifts);
        // forecasts from the recovered engine match bitwise too
        assert_eq!(
            recovered.forecast(0, season),
            engine_forecast(&before_fc, 0, season)
        );
        let _ = std::fs::remove_file(&path);
    }

    fn engine_forecast(fc: &StreamingForecaster, config: u32, h: usize) -> Option<Vec<f64>> {
        fc.forecast(config, h)
    }

    #[test]
    fn queue_depth_watermark_sheds_typed() {
        let (topo, latmap, artifact, _) = world();
        let mut cfg = EngineConfig::default();
        cfg.overload.active_watermark = Some(1);
        let engine = Engine::new(&latmap, &artifact, &cfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        assert_eq!(
            w.admit(2, jp),
            Admission::Shed {
                reason: ShedReason::QueueDepth
            }
        );
        // shed before touching selector or store
        assert!(engine.store().get(2).is_none());
        w.end(1);
        assert!(matches!(w.admit(3, jp), Admission::Granted(_)));
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.shed_queue_depth, 1);
        assert_eq!(stats.selector.calls, 2);
        assert_eq!(stats.admitted, 2);
    }

    /// Pack-enabled engine config: every DC of the toy topology gets the
    /// same server capacities; reservations predict two extra participants.
    fn pack_config(caps_per_dc: &[u32]) -> EngineConfig {
        let mut spec = FleetSpec::empty(3); // toy_three_dc
        for d in 0..3 {
            for &c in caps_per_dc {
                spec.push_server(DcId(d), c);
            }
        }
        EngineConfig {
            pack: Some(EnginePackConfig {
                spec,
                packer: PackerConfig::default(),
                cost: CostModel {
                    base_mcpu: 300,
                    per_participant_mcpu: 250,
                },
                growth: Some(GrowthModel::flat(2)),
            }),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn server_death_between_start_and_freeze_rehomes_in_dc() {
        let (topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let dc = w.admit(1, jp).dc().expect("placed");
        drop(w);
        let home = engine.server_of(1).expect("admission packs the call");
        assert_eq!(home.dc, dc);

        // the hosting server dies before the call freezes: the call must be
        // re-homed onto the surviving server of the same DC, not spilled
        let rep = engine.kill_server(home);
        assert!(!rep.already_dead && !rep.was_empty);
        assert_eq!((rep.rehomed, rep.spilled_rehomed, rep.stranded), (1, 0, 0));
        let moved = engine.server_of(1).expect("still packed");
        assert_eq!(moved.dc, dc, "in-DC re-home must not change the DC");
        assert_ne!(moved.index, home.index);

        // the freeze then proceeds normally and lands on the new server
        let mut w = engine.worker();
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        w.end(1);
        drop(w);
        let stats = engine.pack_stats().unwrap();
        assert_eq!(stats.server_deaths, 1);
        assert_eq!(stats.death_rehomes, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(engine.packer().unwrap().capacity_violations(), 0);
    }

    #[test]
    fn duplicate_admit_keeps_the_call_on_its_server() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let dc = w.admit(1, jp).dc().expect("placed");
        let packer = engine.packer().unwrap();
        let home = packer.server_of(dc, 1).expect("admission packs the call");
        assert_eq!(w.admit(1, jp).dc(), Some(dc));
        assert_eq!(packer.server_of(dc, 1), Some(home));
        assert_eq!(
            packer.stats().placed,
            1,
            "the duplicate is not charged again"
        );
        assert_eq!(packer.capacity_violations(), 0);
    }

    #[test]
    fn double_repack_of_same_call_stays_consistent() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000, 2_000]));
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        drop(w);

        // kill the call's server twice in a row: each death re-packs the
        // same call onto the next surviving server of the DC
        let first = engine.server_of(1).unwrap();
        let rep1 = engine.kill_server(first);
        assert_eq!(rep1.rehomed, 1);
        let second = engine.server_of(1).unwrap();
        assert_ne!(second.index, first.index);
        let rep2 = engine.kill_server(second);
        assert_eq!(rep2.rehomed, 1);
        let third = engine.server_of(1).unwrap();
        assert!(third.index != first.index && third.index != second.index);

        let stats = engine.pack_stats().unwrap();
        assert_eq!(stats.server_deaths, 2);
        assert_eq!(stats.death_rehomes, 2);
        assert_eq!(stats.death_spills, 0);
        assert_eq!(engine.packer().unwrap().capacity_violations(), 0);
        // the doubly-re-packed call is still a perfectly normal call
        let mut w = engine.worker();
        w.end(1);
        drop(w);
        assert_eq!(engine.stats().active_calls, 0);
    }

    #[test]
    fn server_death_on_empty_server_is_counted_noop() {
        let (_topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let victim = ServerId {
            dc: DcId(0),
            index: 1,
        };
        let rep = engine.kill_server(victim);
        assert!(!rep.already_dead);
        assert!(rep.was_empty);
        assert_eq!((rep.rehomed, rep.spilled_rehomed, rep.stranded), (0, 0, 0));
        // the death is journaled and counted even though nothing drained
        assert_eq!(rep.records.len(), 1);
        assert!(matches!(rep.records[0], WalRecord::ServerDeath { .. }));
        assert_eq!(engine.pack_stats().unwrap().server_deaths, 1);

        // killing it again is a pure no-op: counted nowhere
        let rep = engine.kill_server(victim);
        assert!(rep.already_dead);
        assert_eq!(engine.pack_stats().unwrap().server_deaths, 1);
    }

    #[test]
    fn recovery_replays_wal_with_server_ids() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("pack-recover");
        let jcfg = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        // one small server per DC (fits both calls: 800 + 550 ≤ 1500): the
        // death below can only spill, driving Rehome records through
        // recovery too
        let ecfg = pack_config(&[1_500]);
        let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        w.join(1, jp); // grow → a Pack record with participants = 2
        assert!(w.admit(2, jp).dc().is_some());
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        drop(w);
        let home = engine.server_of(1).expect("packed");
        // the only server of the DC dies: both calls spill down the ladder
        // (re-placed at the same closest DC, unpacked)
        let rep = engine.kill_server(home);
        assert_eq!(rep.rehomed, 0);
        assert_eq!(rep.spilled_rehomed + rep.stranded, 2);
        let mut w = engine.worker();
        assert!(w.admit(3, jp).dc().is_some()); // Admit with NO_SERVER
        w.end(2);
        drop(w);
        assert!(engine.server_of(3).is_none(), "no live server to pack onto");

        let pack_before = engine.export_pack_state().unwrap();
        let selector_before = engine.export_selector_state();
        let stats_before = engine.stats();
        assert_eq!(engine.journal().unwrap().crash(), 0);
        drop(engine);

        let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).unwrap();
        assert_eq!(report.admits, 3);
        assert_eq!(report.server_deaths, 1);
        assert_eq!(report.rehomes, 2, "both spilled calls journaled a Rehome");
        assert!(
            report.packs >= 3,
            "join + spill re-placements journal Packs"
        );
        assert_eq!(recovered.export_pack_state().unwrap(), pack_before);
        assert_eq!(recovered.export_selector_state(), selector_before);
        assert_eq!(recovered.stats().selector, stats_before.selector);
        assert_eq!(
            recovered.packer().unwrap().capacity_violations(),
            0,
            "restored fleet must satisfy the hard invariants"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_backoff_degrades_then_heals() {
        let (topo, latmap, artifact, _) = world();
        let cfg = EngineConfig {
            store_shards: 1, // one shard: failing it fails every write
            ..EngineConfig::default()
        };
        let engine = Engine::new(&latmap, &artifact, &cfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        engine.store().fail_shard(0, true);
        // this admission is placed, but its store write exhausts the backoff
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        assert!(engine.store_degraded());
        // the next admission sheds on the degraded store — typed, no panic
        assert_eq!(
            w.admit(2, jp),
            Admission::Shed {
                reason: ShedReason::StoreBackoff
            }
        );
        engine.store().fail_shard(0, false);
        // a successful write (any op) clears the flag; admissions resume
        w.join(1, jp);
        assert!(!engine.store_degraded());
        assert!(matches!(w.admit(3, jp), Admission::Granted(_)));
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.shed_store, 1);
        assert!(stats.store_retries >= 1);
        assert_eq!(stats.store_write_failures, 1);
    }
}

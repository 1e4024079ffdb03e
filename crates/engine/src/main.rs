//! `sb-engine` — the Switchboard selector as a long-running service.
//!
//! Boots an [`sb_engine::Engine`] over a preset topology and a synthetic
//! day-one plan, then serves a line-oriented text protocol on stdin/stdout
//! (or a TCP listener with `--listen`). One command per line; every command
//! gets exactly one reply line (`stats` replies with a block ending in a
//! blank line). Commands:
//!
//! ```text
//! admit <id> <country>          place a new call (country name or index)
//! join <id> <country>           record a participant join
//! media <id> audio|video|screen record a media change
//! freeze <id> <config> <minute> freeze the config, tally against the plan
//! end <id>                      end the call
//! install <path>                hot-swap an NDJSON plan artifact
//! drain                         stop admitting; in-flight calls finish
//! stats                         counter + latency snapshot
//! ping                          liveness probe
//! quit                          exit
//! ```
//!
//! Usage: `sb-engine [--topology apac|toy] [--configs N] [--slot-minutes M]
//! [--store-shards N] [--listen ADDR:PORT]`

use std::io::{BufRead, BufReader, Write};

use sb_core::{
    AllocationShares, FreezeDecision, LatencyMap, PlanArtifact, PlannedQuotas, SelectorOutcome,
    SelectorRung,
};
use sb_engine::{Admission, Command, Engine, EngineConfig, MAX_LINE_BYTES};
use sb_net::{FailureScenario, RoutingTable, Topology};
use sb_workload::{ConfigId, Generator, UniverseParams, WorkloadParams};

struct Opts {
    topology: String,
    configs: usize,
    slot_minutes: u32,
    store_shards: usize,
    listen: Option<String>,
}

/// Parse a numeric flag value or exit(2) with a message — never panics.
fn flag_num<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{name}: {value:?} is not a valid value");
        std::process::exit(2);
    })
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        topology: "apac".to_string(),
        configs: 300,
        slot_minutes: 120,
        store_shards: 64,
        listen: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--topology" => opts.topology = take("--topology"),
            "--configs" => opts.configs = flag_num("--configs", &take("--configs")),
            "--slot-minutes" => {
                opts.slot_minutes = flag_num("--slot-minutes", &take("--slot-minutes"))
            }
            "--store-shards" => {
                opts.store_shards = flag_num("--store-shards", &take("--store-shards"))
            }
            "--listen" => opts.listen = Some(take("--listen")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: sb-engine [--topology apac|toy] [--configs N] \
                     [--slot-minutes M] [--store-shards N] [--listen ADDR:PORT]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// A synthetic day-one plan spreading every generated config across all DCs
/// — the same construction the replay benches use, so the service boots
/// without an LP solve. Plans produced by the full pipeline hot-swap in via
/// `install`.
fn seed_plan(topo: &Topology, generator: &Generator) -> PlanArtifact {
    let expected = generator.expected_demand(2, 1);
    let selected = expected.top_configs_covering(0.97);
    let planned = expected.filtered(&selected).scaled(1.3);
    let slots = planned.num_slots();
    let mut shares = AllocationShares::new(slots);
    let n = topo.dcs.len() as f64;
    let spread: Vec<_> = topo.dc_ids().map(|d| (d, 1.0 / n)).collect();
    for &cfg in &selected {
        for s in 0..slots {
            shares.set(cfg, s, spread.clone());
        }
    }
    PlanArtifact::seed(PlannedQuotas::from_plan(&shares, &planned))
}

fn rung_name(rung: SelectorRung) -> &'static str {
    match rung {
        SelectorRung::Plan => "plan",
        SelectorRung::Locality => "locality",
        SelectorRung::AnyReachable => "any-reachable",
    }
}

struct Service {
    topo: Topology,
    engine: Engine,
}

impl Service {
    fn country(&self, token: &str) -> Result<sb_net::CountryId, String> {
        if let Ok(idx) = token.parse::<u16>() {
            return Ok(sb_net::CountryId(idx));
        }
        self.topo
            .countries
            .iter()
            .find(|c| c.name == token)
            .map(|c| c.id)
            .ok_or_else(|| format!("unknown country {token}"))
    }

    /// Handle one parsed command; returns the reply, or `None` to quit.
    fn handle(&self, worker: &mut sb_engine::EngineWorker<'_>, cmd: Command) -> Option<String> {
        let reply = match cmd {
            Command::Empty => String::new(),
            Command::Ping => "ok pong".to_string(),
            Command::Quit => return None,
            Command::Admit { id, country } => match self.country(&country) {
                Ok(c) => match worker.admit(id, c) {
                    Admission::Draining => "err draining".to_string(),
                    Admission::Shed { reason } => format!("err shed {reason}"),
                    Admission::Granted(SelectorOutcome::Stranded) => {
                        format!("ok admit {id} stranded")
                    }
                    Admission::Granted(SelectorOutcome::Placed { dc, rung }) => {
                        format!(
                            "ok admit {id} dc={} rung={}",
                            self.topo.dcs[dc.index()].name,
                            rung_name(rung)
                        )
                    }
                },
                Err(e) => format!("err {e}"),
            },
            Command::Join { id, country } => match self.country(&country) {
                Ok(c) => {
                    worker.join(id, c);
                    format!("ok join {id}")
                }
                Err(e) => format!("err {e}"),
            },
            Command::Media { id, media } => {
                worker.set_media(id, media);
                format!("ok media {id}")
            }
            Command::Freeze { id, config, minute } => {
                let dc_name = |d: sb_net::DcId| self.topo.dcs[d.index()].name.clone();
                match worker.freeze(id, ConfigId(config), minute) {
                    FreezeDecision::Stay(d) => {
                        format!("ok freeze {id} stay dc={}", dc_name(d))
                    }
                    FreezeDecision::Migrate { from, to } => format!(
                        "ok freeze {id} migrate from={} to={}",
                        dc_name(from),
                        dc_name(to)
                    ),
                    FreezeDecision::Unplanned(d) => {
                        format!("ok freeze {id} unplanned dc={}", dc_name(d))
                    }
                    FreezeDecision::Overflow(d) => {
                        format!("ok freeze {id} overflow dc={}", dc_name(d))
                    }
                    FreezeDecision::AlreadyFrozen(d) => {
                        format!("ok freeze {id} already-frozen dc={}", dc_name(d))
                    }
                    FreezeDecision::UnknownCall => {
                        format!("err freeze {id} unknown-call")
                    }
                }
            }
            Command::End { id } => {
                worker.end(id);
                format!("ok end {id}")
            }
            Command::Install { path } => match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let parsed = PlanArtifact::from_ndjson(&text)
                        .and_then(|a| a.check_dcs(self.topo.dcs.len()));
                    match parsed {
                        Ok(artifact) => {
                            let swap = self.engine.install_plan(&artifact);
                            worker.refresh();
                            format!(
                                "ok install epoch={} pools={} carried={} quota={}",
                                swap.to_epoch, swap.pools, swap.carried_consumed, swap.quota_after
                            )
                        }
                        Err(e) => format!("err plan parse: {e:?}"),
                    }
                }
                Err(e) => format!("err read {path}: {e}"),
            },
            Command::Drain => {
                self.engine.begin_drain();
                format!("ok drain active={}", self.engine.stats().active_calls)
            }
            Command::Stats => {
                worker.flush();
                let st = self.engine.stats();
                let ops = self.engine.op_latency();
                let mut out = String::new();
                out.push_str("ok stats\n");
                out.push_str(&format!(
                    "  admitted={} rejected_draining={} ended={} active={}\n",
                    st.admitted, st.rejected_draining, st.ended, st.active_calls
                ));
                out.push_str(&format!(
                    "  freezes={} migrations={} unplanned={} overflow={}\n",
                    st.selector.freezes,
                    st.selector.migrations,
                    st.selector.unplanned,
                    st.selector.overflow
                ));
                out.push_str(&format!(
                    "  shed_queue={} shed_latency={} shed_store={} store_retries={} \
                     store_write_failures={} journal_failures={}\n",
                    st.shed_queue_depth,
                    st.shed_latency,
                    st.shed_store,
                    st.store_retries,
                    st.store_write_failures,
                    st.journal_failures
                ));
                out.push_str(&format!(
                    "  plan_epoch={} plans_installed={} draining={} store_writes={}\n",
                    self.engine.plan_epoch(),
                    st.plans_installed,
                    self.engine.draining(),
                    st.store_writes
                ));
                out.push_str(&format!(
                    "  op_latency count={} p50={:?} p99={:?} p999={:?} max={:?}\n",
                    ops.count(),
                    ops.quantile(0.5),
                    ops.quantile(0.99),
                    ops.quantile(0.999),
                    ops.max()
                ));
                out
            }
        };
        Some(reply)
    }

    fn serve<R: BufRead, W: Write>(&self, mut input: R, mut output: W) -> std::io::Result<()> {
        let mut worker = self.engine.worker();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if input.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                buf.pop();
            }
            // A malformed, truncated, oversized, or non-UTF-8 line gets a
            // typed reply on the wire; the connection stays open.
            let reply = match Command::parse_bytes(&buf, MAX_LINE_BYTES) {
                Ok(cmd) => match self.handle(&mut worker, cmd) {
                    Some(reply) => reply,
                    None => {
                        writeln!(output, "ok bye")?;
                        break;
                    }
                },
                Err(e) => format!("err protocol: {e}"),
            };
            writeln!(output, "{reply}")?;
            output.flush()?;
        }
        Ok(())
    }
}

fn main() {
    let opts = parse_opts();
    let topo = match opts.topology.as_str() {
        "apac" => sb_net::presets::apac(),
        "toy" => sb_net::presets::toy_three_dc(),
        other => {
            eprintln!("unknown topology {other} (expected apac|toy)");
            std::process::exit(2);
        }
    };
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: opts.configs,
            ..Default::default()
        },
        slot_minutes: opts.slot_minutes,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let artifact = seed_plan(&topo, &generator);
    let routing = RoutingTable::compute(&topo, FailureScenario::None);
    let latmap = LatencyMap::from_routing(&topo, &routing);
    let engine = Engine::new(
        &latmap,
        &artifact,
        &EngineConfig {
            store_shards: opts.store_shards,
            ..EngineConfig::default()
        },
    );
    eprintln!(
        "sb-engine ready: topology={} dcs={} plan_pools={} quota={}",
        opts.topology,
        topo.dcs.len(),
        artifact.quotas.iter().count(),
        artifact.quotas.total_quota(),
    );
    let service = Service { topo, engine };

    match &opts.listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = service.serve(stdin.lock(), stdout.lock()) {
                eprintln!("sb-engine: stdin/stdout service loop errored: {e}");
                std::process::exit(1);
            }
        }
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("sb-engine: cannot bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!("sb-engine listening on {addr}");
            for conn in listener.incoming() {
                let conn = match conn {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("sb-engine: accept failed: {e}");
                        continue;
                    }
                };
                let peer = conn.peer_addr().map(|a| a.to_string()).unwrap_or_default();
                eprintln!("sb-engine: connection from {peer}");
                let reader = match conn.try_clone() {
                    Ok(c) => BufReader::new(c),
                    Err(e) => {
                        eprintln!("sb-engine: cannot clone socket for {peer}: {e}");
                        continue;
                    }
                };
                if let Err(e) = service.serve(reader, conn) {
                    eprintln!("sb-engine: connection {peer} errored: {e}");
                }
                if service.engine.drained() {
                    eprintln!("sb-engine: drained — shutting down");
                    break;
                }
            }
        }
    }
}

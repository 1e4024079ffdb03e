//! The engine's write-ahead-log record vocabulary and its byte codec.
//!
//! `sb-store`'s [`sb_store::Journal`] owns framing, CRCs, and group-commit
//! durability over *opaque* payloads; this module owns what the engine
//! actually writes into them — one record per lifecycle operation, capturing
//! the **decision** (placed DC, freeze kind with from/to), not just the
//! request. Recovery therefore re-applies recorded outcomes instead of
//! re-racing the placement logic, which is what makes the rebuilt state
//! bitwise-identical to the uninterrupted run regardless of how concurrent
//! the original execution was.
//!
//! The encoding is a hand-rolled little-endian tag+fields layout (the
//! workspace vendors no serde); it must stay stable across sessions only to
//! the extent that a journal written by one engine build is replayed by the
//! same build — cross-version migration is out of scope.

use std::fmt;

use sb_core::{FreezeDecision, PlanArtifact, SelectorOutcome, SelectorRung};
use sb_net::DcId;
use sb_store::Frames;

/// Sentinel DC index meaning "no DC" (stranded admission, unknown freeze).
pub const NO_DC: u16 = u16::MAX;

/// Sentinel server index meaning "no server slot" (packing disabled, or the
/// call could not be packed). Same value as [`sb_pack::NO_SERVER`].
pub const NO_SERVER: u16 = sb_pack::NO_SERVER;

/// Freeze kind codes, mirroring [`FreezeDecision`]'s variants.
pub mod freeze_kind {
    /// [`super::FreezeDecision::Stay`].
    pub const STAY: u8 = 0;
    /// [`super::FreezeDecision::Migrate`].
    pub const MIGRATE: u8 = 1;
    /// [`super::FreezeDecision::Unplanned`].
    pub const UNPLANNED: u8 = 2;
    /// [`super::FreezeDecision::Overflow`].
    pub const OVERFLOW: u8 = 3;
    /// [`super::FreezeDecision::AlreadyFrozen`].
    pub const ALREADY_FROZEN: u8 = 4;
    /// [`super::FreezeDecision::UnknownCall`].
    pub const UNKNOWN: u8 = 5;
}

/// Selector-rung codes, mirroring [`SelectorRung`].
const RUNG_PLAN: u8 = 0;
const RUNG_LOCALITY: u8 = 1;
const RUNG_ANY: u8 = 2;

const TAG_PLAN_INSTALL: u8 = 1;
const TAG_ADMIT: u8 = 2;
const TAG_JOIN: u8 = 3;
const TAG_MEDIA: u8 = 4;
const TAG_FREEZE: u8 = 5;
const TAG_END: u8 = 6;
const TAG_PACK: u8 = 7;
const TAG_SERVER_DEATH: u8 = 8;
const TAG_REHOME: u8 = 9;
const TAG_FORECAST_MARK: u8 = 10;

/// One journaled engine operation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A plan artifact was installed (record 0 is always the boot plan).
    PlanInstall {
        /// The artifact, in its exact NDJSON export (round-trips bitwise).
        ndjson: String,
    },
    /// A call was admitted; the recorded outcome is the selector's decision
    /// plus (when packing is enabled) the packer's server choice.
    Admit {
        /// Call id.
        call: u64,
        /// First joiner's country index.
        country: u16,
        /// Assigned DC index, [`NO_DC`] when stranded.
        dc: u16,
        /// Rung code of the placement ([`SelectorRung`]); 0 when stranded.
        rung: u8,
        /// Assigned server index within the DC, [`NO_SERVER`] when packing
        /// is disabled or no server fit.
        server: u16,
    },
    /// A participant joined.
    Join {
        /// Call id.
        call: u64,
        /// Joiner's country index.
        country: u16,
    },
    /// Media classification changed.
    Media {
        /// Call id.
        call: u64,
        /// Media code (0 audio, 1 screen-share, 2 video).
        media: u8,
    },
    /// A config froze; the record captures the full decision.
    Freeze {
        /// Call id.
        call: u64,
        /// Config index.
        config: u32,
        /// The call's start minute (slot recomputed from plan geometry at
        /// recovery — geometry is itself journaled via `PlanInstall`).
        start_minute: u64,
        /// Whether the plan was stale at decision time.
        stale: bool,
        /// Freeze kind code ([`freeze_kind`]).
        kind: u8,
        /// DC before the freeze, [`NO_DC`] for unknown calls.
        from: u16,
        /// DC after the freeze, [`NO_DC`] for unknown calls.
        to: u16,
        /// Server hosting the call after the freeze (it may change on a
        /// migrate), [`NO_SERVER`] when unpacked.
        to_server: u16,
    },
    /// A call ended.
    End {
        /// Call id.
        call: u64,
    },
    /// The packer (re-)assigned a call to a server: journaled after every
    /// join and per call touched by an eviction or a server-death drain.
    /// Captures the **resulting** state, so recovery applies it absolutely
    /// (last record per call wins) without re-running any packing decision.
    Pack {
        /// Call id.
        call: u64,
        /// Hosting DC index, [`NO_DC`] when the call left the fleet.
        dc: u16,
        /// Hosting server index, [`NO_SERVER`] when unpacked.
        server: u16,
        /// Charged participant count at this point.
        participants: u32,
        /// Charged cost in millicores at this point.
        cost_mcpu: u32,
    },
    /// A server was declared dead. The drained calls' destinations follow
    /// as [`WalRecord::Pack`] records.
    ServerDeath {
        /// DC index.
        dc: u16,
        /// Server index within the DC.
        server: u16,
    },
    /// A spilled call was forced down the selector's re-home ladder after
    /// its DC could not absorb a server death. Captures the selector's
    /// decision; the packer's follow-up is the next [`WalRecord::Pack`].
    Rehome {
        /// Call id.
        call: u64,
        /// New DC index, [`NO_DC`] when even the ladder stranded the call.
        dc: u16,
        /// Rung code of the re-placement; 0 when stranded.
        rung: u8,
    },
    /// The streaming forecaster absorbed one realized-demand bucket.
    /// Recovery replays marks through a fresh forecaster in journal order,
    /// which (the streaming path being deterministic in its inputs) restores
    /// the controller's models bitwise.
    ForecastMark {
        /// Config index the observation belongs to.
        config: u32,
        /// Bucket index within the config's series (0-based, journaled for
        /// order sanity checks at recovery).
        bucket: u64,
        /// The observed value as raw IEEE-754 bits (`f64::to_bits` — the
        /// codec must not round-trip through decimal).
        value_bits: u64,
    },
}

/// A record failed to decode — the frame was durable and CRC-valid but its
/// payload is not a record this build understands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalDecodeError {
    /// Payload shorter than its fields require.
    Truncated,
    /// Unknown record tag.
    BadTag(u8),
    /// Payload longer than its fields require.
    TrailingBytes,
    /// A `PlanInstall` payload is not UTF-8.
    BadUtf8,
}

impl fmt::Display for WalDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalDecodeError::Truncated => write!(f, "wal record truncated"),
            WalDecodeError::BadTag(t) => write!(f, "unknown wal record tag {t}"),
            WalDecodeError::TrailingBytes => write!(f, "wal record has trailing bytes"),
            WalDecodeError::BadUtf8 => write!(f, "wal plan payload is not utf-8"),
        }
    }
}

impl std::error::Error for WalDecodeError {}

/// Encode a selector outcome as `(dc, rung)` wire fields.
pub fn encode_outcome(outcome: SelectorOutcome) -> (u16, u8) {
    match outcome {
        SelectorOutcome::Placed { dc, rung } => (
            dc.index() as u16,
            match rung {
                SelectorRung::Plan => RUNG_PLAN,
                SelectorRung::Locality => RUNG_LOCALITY,
                SelectorRung::AnyReachable => RUNG_ANY,
            },
        ),
        SelectorOutcome::Stranded => (NO_DC, 0),
    }
}

/// Decode `(dc, rung)` wire fields back into a selector outcome.
pub fn decode_outcome(dc: u16, rung: u8) -> SelectorOutcome {
    if dc == NO_DC {
        return SelectorOutcome::Stranded;
    }
    SelectorOutcome::Placed {
        dc: DcId(dc),
        rung: match rung {
            RUNG_PLAN => SelectorRung::Plan,
            RUNG_ANY => SelectorRung::AnyReachable,
            _ => SelectorRung::Locality,
        },
    }
}

/// Encode a freeze decision as `(kind, from, to)` wire fields.
pub fn encode_freeze(decision: FreezeDecision) -> (u8, u16, u16) {
    use freeze_kind::*;
    let dc16 = |d: DcId| d.index() as u16;
    match decision {
        FreezeDecision::Stay(dc) => (STAY, dc16(dc), dc16(dc)),
        FreezeDecision::Migrate { from, to } => (MIGRATE, dc16(from), dc16(to)),
        FreezeDecision::Unplanned(dc) => (UNPLANNED, dc16(dc), dc16(dc)),
        FreezeDecision::Overflow(dc) => (OVERFLOW, dc16(dc), dc16(dc)),
        FreezeDecision::AlreadyFrozen(dc) => (ALREADY_FROZEN, dc16(dc), dc16(dc)),
        FreezeDecision::UnknownCall => (UNKNOWN, NO_DC, NO_DC),
    }
}

impl WalRecord {
    /// Serialize to the journal payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Frame this record into one journal append, encoded in place.
    pub fn frame(&self, frames: &mut Frames<'_>) {
        frames.frame(|out| self.encode_into(out));
    }

    /// Frame the `PlanInstall` record of `artifact` into one journal
    /// append: the bytes of [`WalRecord::frame`] on
    /// `PlanInstall { ndjson: artifact.to_ndjson() }`, the NDJSON written
    /// straight into the frame.
    pub fn frame_plan_install(artifact: &PlanArtifact, frames: &mut Frames<'_>) {
        frames.frame(|out| {
            out.push(TAG_PLAN_INSTALL);
            artifact.write_ndjson(out);
        });
    }

    /// Append the journal payload bytes to `out` — [`WalRecord::encode`]
    /// without a buffer of its own.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::PlanInstall { ndjson } => {
                out.push(TAG_PLAN_INSTALL);
                out.extend_from_slice(ndjson.as_bytes());
            }
            WalRecord::Admit {
                call,
                country,
                dc,
                rung,
                server,
            } => {
                out.push(TAG_ADMIT);
                out.extend_from_slice(&call.to_le_bytes());
                out.extend_from_slice(&country.to_le_bytes());
                out.extend_from_slice(&dc.to_le_bytes());
                out.push(*rung);
                out.extend_from_slice(&server.to_le_bytes());
            }
            WalRecord::Join { call, country } => {
                out.push(TAG_JOIN);
                out.extend_from_slice(&call.to_le_bytes());
                out.extend_from_slice(&country.to_le_bytes());
            }
            WalRecord::Media { call, media } => {
                out.push(TAG_MEDIA);
                out.extend_from_slice(&call.to_le_bytes());
                out.push(*media);
            }
            WalRecord::Freeze {
                call,
                config,
                start_minute,
                stale,
                kind,
                from,
                to,
                to_server,
            } => {
                out.push(TAG_FREEZE);
                out.extend_from_slice(&call.to_le_bytes());
                out.extend_from_slice(&config.to_le_bytes());
                out.extend_from_slice(&start_minute.to_le_bytes());
                out.push(u8::from(*stale));
                out.push(*kind);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&to_server.to_le_bytes());
            }
            WalRecord::End { call } => {
                out.push(TAG_END);
                out.extend_from_slice(&call.to_le_bytes());
            }
            WalRecord::Pack {
                call,
                dc,
                server,
                participants,
                cost_mcpu,
            } => {
                out.push(TAG_PACK);
                out.extend_from_slice(&call.to_le_bytes());
                out.extend_from_slice(&dc.to_le_bytes());
                out.extend_from_slice(&server.to_le_bytes());
                out.extend_from_slice(&participants.to_le_bytes());
                out.extend_from_slice(&cost_mcpu.to_le_bytes());
            }
            WalRecord::ServerDeath { dc, server } => {
                out.push(TAG_SERVER_DEATH);
                out.extend_from_slice(&dc.to_le_bytes());
                out.extend_from_slice(&server.to_le_bytes());
            }
            WalRecord::Rehome { call, dc, rung } => {
                out.push(TAG_REHOME);
                out.extend_from_slice(&call.to_le_bytes());
                out.extend_from_slice(&dc.to_le_bytes());
                out.push(*rung);
            }
            WalRecord::ForecastMark {
                config,
                bucket,
                value_bits,
            } => {
                out.push(TAG_FORECAST_MARK);
                out.extend_from_slice(&config.to_le_bytes());
                out.extend_from_slice(&bucket.to_le_bytes());
                out.extend_from_slice(&value_bits.to_le_bytes());
            }
        }
    }

    /// Deserialize from journal payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, WalDecodeError> {
        let (&tag, body) = bytes.split_first().ok_or(WalDecodeError::Truncated)?;
        let mut r = Reader { body, pos: 0 };
        let rec = match tag {
            TAG_PLAN_INSTALL => {
                let ndjson = std::str::from_utf8(body)
                    .map_err(|_| WalDecodeError::BadUtf8)?
                    .to_string();
                return Ok(WalRecord::PlanInstall { ndjson });
            }
            TAG_ADMIT => WalRecord::Admit {
                call: r.u64()?,
                country: r.u16()?,
                dc: r.u16()?,
                rung: r.u8()?,
                server: r.u16()?,
            },
            TAG_JOIN => WalRecord::Join {
                call: r.u64()?,
                country: r.u16()?,
            },
            TAG_MEDIA => WalRecord::Media {
                call: r.u64()?,
                media: r.u8()?,
            },
            TAG_FREEZE => WalRecord::Freeze {
                call: r.u64()?,
                config: r.u32()?,
                start_minute: r.u64()?,
                stale: r.u8()? != 0,
                kind: r.u8()?,
                from: r.u16()?,
                to: r.u16()?,
                to_server: r.u16()?,
            },
            TAG_END => WalRecord::End { call: r.u64()? },
            TAG_PACK => WalRecord::Pack {
                call: r.u64()?,
                dc: r.u16()?,
                server: r.u16()?,
                participants: r.u32()?,
                cost_mcpu: r.u32()?,
            },
            TAG_SERVER_DEATH => WalRecord::ServerDeath {
                dc: r.u16()?,
                server: r.u16()?,
            },
            TAG_REHOME => WalRecord::Rehome {
                call: r.u64()?,
                dc: r.u16()?,
                rung: r.u8()?,
            },
            TAG_FORECAST_MARK => WalRecord::ForecastMark {
                config: r.u32()?,
                bucket: r.u64()?,
                value_bits: r.u64()?,
            },
            t => return Err(WalDecodeError::BadTag(t)),
        };
        if r.pos != r.body.len() {
            return Err(WalDecodeError::TrailingBytes);
        }
        Ok(rec)
    }
}

struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WalDecodeError> {
        if self.pos + n > self.body.len() {
            return Err(WalDecodeError::Truncated);
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WalDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WalDecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().unwrap_or([0; 2]),
        ))
    }

    fn u32(&mut self) -> Result<u32, WalDecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().unwrap_or([0; 4]),
        ))
    }

    fn u64(&mut self) -> Result<u64, WalDecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap_or([0; 8]),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let records = vec![
            WalRecord::PlanInstall {
                ndjson: "{\"plan\":{}}\n".to_string(),
            },
            WalRecord::Admit {
                call: 7,
                country: 3,
                dc: 1,
                rung: RUNG_LOCALITY,
                server: 4,
            },
            WalRecord::Admit {
                call: 8,
                country: 3,
                dc: NO_DC,
                rung: 0,
                server: NO_SERVER,
            },
            WalRecord::Join {
                call: 7,
                country: 9,
            },
            WalRecord::Media { call: 7, media: 2 },
            WalRecord::Freeze {
                call: 7,
                config: 42,
                start_minute: 1440,
                stale: true,
                kind: freeze_kind::MIGRATE,
                from: 0,
                to: 2,
                to_server: 11,
            },
            WalRecord::End { call: 7 },
            WalRecord::Pack {
                call: 7,
                dc: 2,
                server: 11,
                participants: 3,
                cost_mcpu: 1_050,
            },
            WalRecord::Pack {
                call: 9,
                dc: NO_DC,
                server: NO_SERVER,
                participants: 0,
                cost_mcpu: 0,
            },
            WalRecord::ServerDeath { dc: 2, server: 11 },
            WalRecord::Rehome {
                call: 9,
                dc: 1,
                rung: RUNG_ANY,
            },
            WalRecord::Rehome {
                call: 10,
                dc: NO_DC,
                rung: 0,
            },
            WalRecord::ForecastMark {
                config: 42,
                bucket: 336,
                value_bits: 17.25f64.to_bits(),
            },
            WalRecord::ForecastMark {
                config: 0,
                bucket: 0,
                value_bits: f64::NAN.to_bits(),
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec, "{rec:?}");
            // in place: appended after whatever the buffer already holds
            let mut buf = vec![0xAA];
            rec.encode_into(&mut buf);
            assert_eq!((buf[0], &buf[1..]), (0xAA, &bytes[..]), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage_with_typed_errors() {
        assert_eq!(WalRecord::decode(&[]), Err(WalDecodeError::Truncated));
        assert_eq!(WalRecord::decode(&[99]), Err(WalDecodeError::BadTag(99)));
        assert_eq!(
            WalRecord::decode(&[TAG_ADMIT, 1, 2]),
            Err(WalDecodeError::Truncated)
        );
        let mut ok = WalRecord::End { call: 1 }.encode();
        ok.push(0);
        assert_eq!(WalRecord::decode(&ok), Err(WalDecodeError::TrailingBytes));
        assert_eq!(
            WalRecord::decode(&[TAG_PLAN_INSTALL, 0xFF, 0xFE]),
            Err(WalDecodeError::BadUtf8)
        );
    }

    #[test]
    fn outcome_and_freeze_codecs_round_trip() {
        use sb_core::SelectorOutcome::*;
        for o in [
            Placed {
                dc: DcId(3),
                rung: SelectorRung::Plan,
            },
            Placed {
                dc: DcId(0),
                rung: SelectorRung::Locality,
            },
            Placed {
                dc: DcId(7),
                rung: SelectorRung::AnyReachable,
            },
            Stranded,
        ] {
            let (dc, rung) = encode_outcome(o);
            assert_eq!(decode_outcome(dc, rung), o);
        }
        let (k, from, to) = encode_freeze(FreezeDecision::Migrate {
            from: DcId(1),
            to: DcId(2),
        });
        assert_eq!((k, from, to), (freeze_kind::MIGRATE, 1, 2));
        assert_eq!(
            encode_freeze(FreezeDecision::UnknownCall),
            (freeze_kind::UNKNOWN, NO_DC, NO_DC)
        );
    }
}

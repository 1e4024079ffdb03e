//! Typed line-protocol parser for the `sb-engine` service binary.
//!
//! The wire format is one whitespace-separated command per line. Parsing is
//! total: malformed, truncated, oversized, or non-UTF-8 input maps to a
//! [`ProtocolError`] that the service reports on the wire as an `err
//! protocol:` reply — a garbage frame can never panic the process or
//! silently drop the connection.

use std::fmt;

use sb_store::MediaFlag;

/// Longest accepted command line in bytes (newline excluded). Anything
/// longer is rejected with [`ProtocolError::Oversized`] — the line is still
/// consumed off the stream so the connection stays usable.
pub const MAX_LINE_BYTES: usize = 4096;

/// Why a command line failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized {
        /// Observed line length in bytes.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The line was not valid UTF-8.
    NonUtf8,
    /// The leading token is not a known command.
    UnknownCommand(String),
    /// A known command with the wrong number of arguments.
    BadArity {
        /// The command.
        cmd: &'static str,
        /// Human-readable usage string.
        usage: &'static str,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// Which field.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// `media` with an unknown flag token.
    UnknownMedia(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Oversized { len, max } => {
                write!(f, "oversized line ({len} bytes > {max})")
            }
            ProtocolError::NonUtf8 => write!(f, "line is not valid utf-8"),
            ProtocolError::UnknownCommand(cmd) => write!(f, "unknown command: {cmd}"),
            ProtocolError::BadArity { cmd, usage } => {
                write!(f, "bad arguments for {cmd} (usage: {usage})")
            }
            ProtocolError::BadNumber { field, token } => {
                write!(f, "bad {field}: {token:?} is not a number")
            }
            ProtocolError::UnknownMedia(tok) => {
                write!(
                    f,
                    "unknown media flag {tok:?} (expected audio|video|screen)"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A fully parsed protocol command. Country arguments stay as raw tokens —
/// resolving a name against the topology is the service's job, not the
/// parser's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Blank line — replied to with an empty line.
    Empty,
    /// Liveness probe.
    Ping,
    /// Close the session.
    Quit,
    /// `admit <id> <country>`.
    Admit {
        /// Call id.
        id: u64,
        /// Country name or index, unresolved.
        country: String,
    },
    /// `join <id> <country>`.
    Join {
        /// Call id.
        id: u64,
        /// Country name or index, unresolved.
        country: String,
    },
    /// `media <id> audio|video|screen`.
    Media {
        /// Call id.
        id: u64,
        /// Parsed media flag.
        media: MediaFlag,
    },
    /// `freeze <id> <config> <minute>`.
    Freeze {
        /// Call id.
        id: u64,
        /// Config id.
        config: u32,
        /// Call start minute.
        minute: u64,
    },
    /// `end <id>`.
    End {
        /// Call id.
        id: u64,
    },
    /// `install <path>`.
    Install {
        /// Path of an NDJSON plan artifact.
        path: String,
    },
    /// Stop admitting; in-flight calls finish.
    Drain,
    /// Counter + latency snapshot.
    Stats,
}

fn num<T: std::str::FromStr>(field: &'static str, token: &str) -> Result<T, ProtocolError> {
    token.parse().map_err(|_| ProtocolError::BadNumber {
        field,
        token: token.to_string(),
    })
}

impl Command {
    /// Parse one raw line (newline already stripped) from the wire.
    /// Length and UTF-8 validity are checked before anything else so a
    /// hostile frame fails closed with a typed error.
    pub fn parse_bytes(line: &[u8], max: usize) -> Result<Command, ProtocolError> {
        if line.len() > max {
            return Err(ProtocolError::Oversized {
                len: line.len(),
                max,
            });
        }
        let text = std::str::from_utf8(line).map_err(|_| ProtocolError::NonUtf8)?;
        Command::parse(text)
    }

    /// Parse one UTF-8 command line (newline already stripped).
    pub fn parse(line: &str) -> Result<Command, ProtocolError> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(Command::Empty);
        };
        let cmd = cmd.to_ascii_lowercase();
        let args: Vec<&str> = parts.collect();
        let arity = |expected: usize, cmd: &'static str, usage: &'static str| {
            if args.len() == expected {
                Ok(())
            } else {
                Err(ProtocolError::BadArity { cmd, usage })
            }
        };
        match cmd.as_str() {
            "ping" => {
                arity(0, "ping", "ping")?;
                Ok(Command::Ping)
            }
            "quit" | "exit" => {
                arity(0, "quit", "quit")?;
                Ok(Command::Quit)
            }
            "admit" => {
                arity(2, "admit", "admit <id> <country>")?;
                Ok(Command::Admit {
                    id: num("call id", args[0])?,
                    country: args[1].to_string(),
                })
            }
            "join" => {
                arity(2, "join", "join <id> <country>")?;
                Ok(Command::Join {
                    id: num("call id", args[0])?,
                    country: args[1].to_string(),
                })
            }
            "media" => {
                arity(2, "media", "media <id> audio|video|screen")?;
                let media = match args[1] {
                    "audio" => MediaFlag::Audio,
                    "video" => MediaFlag::Video,
                    "screen" => MediaFlag::ScreenShare,
                    other => return Err(ProtocolError::UnknownMedia(other.to_string())),
                };
                Ok(Command::Media {
                    id: num("call id", args[0])?,
                    media,
                })
            }
            "freeze" => {
                arity(3, "freeze", "freeze <id> <config> <minute>")?;
                Ok(Command::Freeze {
                    id: num("call id", args[0])?,
                    config: num("config id", args[1])?,
                    minute: num("minute", args[2])?,
                })
            }
            "end" => {
                arity(1, "end", "end <id>")?;
                Ok(Command::End {
                    id: num("call id", args[0])?,
                })
            }
            "install" => {
                arity(1, "install", "install <path>")?;
                Ok(Command::Install {
                    path: args[0].to_string(),
                })
            }
            "drain" => {
                arity(0, "drain", "drain")?;
                Ok(Command::Drain)
            }
            "stats" => {
                arity(0, "stats", "stats")?;
                Ok(Command::Stats)
            }
            other => Err(ProtocolError::UnknownCommand(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_commands_parse() {
        assert_eq!(Command::parse(""), Ok(Command::Empty));
        assert_eq!(Command::parse("   "), Ok(Command::Empty));
        assert_eq!(Command::parse("ping"), Ok(Command::Ping));
        assert_eq!(Command::parse("QUIT"), Ok(Command::Quit));
        assert_eq!(Command::parse("exit"), Ok(Command::Quit));
        assert_eq!(
            Command::parse("admit 7 JP"),
            Ok(Command::Admit {
                id: 7,
                country: "JP".to_string()
            })
        );
        assert_eq!(
            Command::parse("media 7 screen"),
            Ok(Command::Media {
                id: 7,
                media: MediaFlag::ScreenShare
            })
        );
        assert_eq!(
            Command::parse("freeze 7 12 480"),
            Ok(Command::Freeze {
                id: 7,
                config: 12,
                minute: 480
            })
        );
        assert_eq!(Command::parse("end 7"), Ok(Command::End { id: 7 }));
        assert_eq!(Command::parse("drain"), Ok(Command::Drain));
        assert_eq!(Command::parse("stats"), Ok(Command::Stats));
    }

    #[test]
    fn malformed_commands_yield_typed_errors() {
        assert!(matches!(
            Command::parse("admit"),
            Err(ProtocolError::BadArity { cmd: "admit", .. })
        ));
        assert!(matches!(
            Command::parse("admit x JP"),
            Err(ProtocolError::BadNumber {
                field: "call id",
                ..
            })
        ));
        assert!(matches!(
            Command::parse("freeze 1 2"),
            Err(ProtocolError::BadArity { cmd: "freeze", .. })
        ));
        assert!(matches!(
            Command::parse("freeze 1 -2 3"),
            Err(ProtocolError::BadNumber {
                field: "config id",
                ..
            })
        ));
        assert!(matches!(
            Command::parse("media 1 hologram"),
            Err(ProtocolError::UnknownMedia(_))
        ));
        assert!(matches!(
            Command::parse("launch 1"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert!(matches!(
            Command::parse("ping now"),
            Err(ProtocolError::BadArity { cmd: "ping", .. })
        ));
    }

    #[test]
    fn hostile_frames_fail_closed() {
        // oversized
        let long = vec![b'a'; MAX_LINE_BYTES + 1];
        assert_eq!(
            Command::parse_bytes(&long, MAX_LINE_BYTES),
            Err(ProtocolError::Oversized {
                len: MAX_LINE_BYTES + 1,
                max: MAX_LINE_BYTES
            })
        );
        // invalid UTF-8
        assert_eq!(
            Command::parse_bytes(&[0xff, 0xfe, b'a'], MAX_LINE_BYTES),
            Err(ProtocolError::NonUtf8)
        );
        // truncated / binary garbage corpus: every input must return, never panic
        let corpus: &[&[u8]] = &[
            b"",
            b"\x00",
            b"\x00\x01\x02\x03",
            b"admit",
            b"admit 1",
            b"admit 99999999999999999999999999 JP",
            b"freeze 1 2 3 4 5",
            b"media 1",
            b"install",
            b"\xc3\x28",                  // overlong-ish invalid UTF-8
            b"admit \xf0\x9f\x92\xa3 JP", // emoji call id
            b"join 1 \xf0\x9f\x8c\x8d",   // emoji country resolves later, parses fine
            b"end end",
            b"quit quit",
        ];
        for line in corpus {
            let _ = Command::parse_bytes(line, MAX_LINE_BYTES); // must not panic
        }
        // one of them is specifically a huge-number truncation
        assert!(matches!(
            Command::parse_bytes(b"admit 99999999999999999999999999 JP", MAX_LINE_BYTES),
            Err(ProtocolError::BadNumber { .. })
        ));
    }
}

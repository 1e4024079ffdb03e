//! The one bench report. Every committed `BENCH_*.json` has exactly three
//! top-level keys:
//!
//! * `bench` — the binary that wrote it;
//! * `counts` — everything that is a function of the seed: integers,
//!   booleans, labels, fixed-precision ratios of counts. Compared exactly by
//!   `--check`;
//! * `host` — `hardware_threads`, wall times, rates, latency percentiles,
//!   RSS: what the box decides. Recorded, never compared (timings belong to
//!   `BENCHMARK.json`'s ruler).
//!
//! A bench fills a [`Report`] and ends in [`Report::finish`], which prints
//! the rows to stdout and then follows the [`Mode`] the command line chose:
//! `--json PATH` records the report to `PATH` and the same rows to
//! `results/<bench>.txt`; `--check PATH` writes nothing, compares the fresh
//! `counts` with the committed file's and exits non-zero naming each
//! differing key. The reader of the format ([`Recorded::parse`]) lives here
//! beside its one writer.

use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::common::render_table;

/// What the command line asked the bench to do with its report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No flag: print the rows, write nothing.
    Print,
    /// `--json PATH`: record the report to `PATH` and `results/<bench>.txt`.
    Record(PathBuf),
    /// `--check PATH`: compare the fresh counts with the file at `PATH`.
    Check(PathBuf),
}

impl Mode {
    /// Parse `--json PATH` / `--check PATH` (or the `=PATH` forms) from the
    /// process arguments; exits with status 2 on a missing path or both.
    pub fn from_args() -> Mode {
        let mut mode = Mode::Print;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, p)) => (f.to_string(), Some(p.to_string())),
                None => (a, None),
            };
            let make: fn(PathBuf) -> Mode = match flag.as_str() {
                "--json" => Mode::Record,
                "--check" => Mode::Check,
                _ => continue,
            };
            let Some(path) = inline.or_else(|| args.next()) else {
                eprintln!("{flag} requires a path argument");
                std::process::exit(2);
            };
            if mode != Mode::Print {
                eprintln!("--json and --check take one path between them");
                std::process::exit(2);
            }
            mode = make(path.into());
        }
        mode
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Node {
    /// A label; quoted and escaped in JSON.
    Text(String),
    /// A number, boolean, `null` or flat number array, as its JSON text.
    Raw(String),
    Rows(Section),
}

impl Node {
    fn json(&self) -> String {
        match self {
            Node::Text(s) => quote(s),
            Node::Raw(s) => s.clone(),
            Node::Rows(_) => unreachable!("only leaves are rendered as tokens"),
        }
    }

    fn shown(&self) -> &str {
        match self {
            Node::Text(s) | Node::Raw(s) => s,
            Node::Rows(_) => unreachable!("only leaves are rendered as tokens"),
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn float(v: f64, render: impl FnOnce(f64) -> String) -> String {
    if v.is_finite() {
        render(v)
    } else {
        "null".to_string()
    }
}

/// One ordered level of a report: leaves and named nested rows (per world,
/// per variant). Keys keep insertion order; a `.` in a key is reserved for
/// the dotted paths [`Report::check`] names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Section(Vec<(String, Node)>);

impl Section {
    fn put(&mut self, key: &str, node: Node) -> &mut Self {
        debug_assert!(!key.contains('.'), "report key {key:?} contains a dot");
        debug_assert!(
            self.0.iter().all(|(k, _)| k != key),
            "report key {key:?} written twice"
        );
        self.0.push((key.to_string(), node));
        self
    }

    /// An integer.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.put(key, Node::Raw(v.to_string()))
    }

    /// A boolean.
    pub fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.put(key, Node::Raw(v.to_string()))
    }

    /// A label.
    pub fn label(&mut self, key: &str, v: &str) -> &mut Self {
        self.put(key, Node::Text(v.to_string()))
    }

    /// A real number at a fixed number of decimals (`null` when not finite).
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.put(key, Node::Raw(float(v, |v| format!("{v:.decimals$}"))))
    }

    /// A real number near zero, as three decimals and an exponent.
    pub fn sci(&mut self, key: &str, v: f64) -> &mut Self {
        self.put(key, Node::Raw(float(v, |v| format!("{v:.3e}"))))
    }

    /// A flat integer array.
    pub fn ints(&mut self, key: &str, vals: impl IntoIterator<Item = u64>) -> &mut Self {
        let cells: Vec<String> = vals.into_iter().map(|v| v.to_string()).collect();
        self.put(key, Node::Raw(format!("[{}]", cells.join(", "))))
    }

    /// A flat real array in shortest round-trip form, so
    /// [`Section::read_floats`] reads back the same bits.
    pub fn floats(&mut self, key: &str, vals: &[f64]) -> &mut Self {
        let cells: Vec<String> = vals.iter().map(|&v| float(v, |v| v.to_string())).collect();
        self.put(key, Node::Raw(format!("[{}]", cells.join(", "))))
    }

    /// The nested rows under `key`, created empty on first use.
    pub fn row(&mut self, key: &str) -> &mut Section {
        let at = match self.0.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                self.put(key, Node::Rows(Section::default()));
                self.0.len() - 1
            }
        };
        match &mut self.0[at].1 {
            Node::Rows(rows) => rows,
            _ => panic!("report key {key:?} is a leaf, not rows"),
        }
    }

    fn get(&self, key: &str) -> Option<&Node> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, n)| n)
    }

    /// The real array [`Section::floats`] wrote at a dotted `path`.
    pub fn read_floats(&self, path: &str) -> Option<Vec<f64>> {
        let mut at = self;
        let mut keys = path.split('.').peekable();
        while let Some(key) = keys.next() {
            match at.get(key)? {
                Node::Rows(rows) if keys.peek().is_some() => at = rows,
                Node::Raw(token) if keys.peek().is_none() => {
                    let cells = token.strip_prefix('[')?.strip_suffix(']')?;
                    return cells.split(',').map(|c| c.trim().parse().ok()).collect();
                }
                _ => return None,
            }
        }
        None
    }

    /// Every leaf as `(dotted path, JSON token)`, in order.
    fn flatten(&self, prefix: &str, out: &mut Vec<(String, String)>) {
        for (key, node) in &self.0 {
            let path = format!("{prefix}{key}");
            match node {
                Node::Rows(rows) => rows.flatten(&format!("{path}."), out),
                leaf => out.push((path, leaf.json())),
            }
        }
    }

    fn only_leaves(&self) -> bool {
        self.0.iter().all(|(_, n)| !matches!(n, Node::Rows(_)))
    }

    /// `other`'s leaves after this level's own, rows of the same name merged.
    fn merged(&self, other: &Section) -> Section {
        let mut out = self.clone();
        for (key, node) in &other.0 {
            match node {
                Node::Rows(rows) => {
                    let mine = out.row(key);
                    *mine = mine.merged(rows);
                }
                leaf => {
                    out.put(key, leaf.clone());
                }
            }
        }
        out
    }

    fn write_json(&self, out: &mut String, depth: usize) {
        // a row of leaves below the top of a section reads best on one line
        if depth > 1 && self.only_leaves() {
            let cells: Vec<String> = self
                .0
                .iter()
                .map(|(k, n)| format!("{}: {}", quote(k), n.json()))
                .collect();
            let _ = write!(out, "{{{}}}", cells.join(", "));
            return;
        }
        out.push_str("{\n");
        for (i, (key, node)) in self.0.iter().enumerate() {
            let _ = write!(out, "{}{}: ", "  ".repeat(depth + 1), quote(key));
            match node {
                Node::Rows(rows) => rows.write_json(out, depth + 1),
                leaf => out.push_str(&leaf.json()),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        let _ = write!(out, "{}}}", "  ".repeat(depth));
    }

    /// Leaves as `key  value` lines, then each nested level: as one table
    /// when its rows hold only leaves, under a heading otherwise.
    fn write_text(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        let leaves = || self.0.iter().filter(|(_, n)| !matches!(n, Node::Rows(_)));
        let width = leaves().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (key, leaf) in leaves() {
            let _ = writeln!(out, "{pad}{key:<width$}  {}", leaf.shown());
        }
        for (name, node) in &self.0 {
            let Node::Rows(rows) = node else { continue };
            out.push('\n');
            let table: Option<Vec<(&String, &Section)>> = rows
                .0
                .iter()
                .map(|(k, n)| match n {
                    Node::Rows(r) if r.only_leaves() => Some((k, r)),
                    _ => None,
                })
                .collect();
            match table {
                Some(table) if !table.is_empty() => {
                    let mut cols: Vec<&str> = Vec::new();
                    for key in table
                        .iter()
                        .flat_map(|(_, row)| row.0.iter().map(|(k, _)| k))
                    {
                        if !cols.contains(&key.as_str()) {
                            cols.push(key);
                        }
                    }
                    let cells: Vec<Vec<String>> = table
                        .iter()
                        .map(|(key, row)| {
                            let values = cols.iter().map(|c| row.get(c).map_or("-", Node::shown));
                            std::iter::once(key.as_str())
                                .chain(values)
                                .map(String::from)
                                .collect()
                        })
                        .collect();
                    cols.insert(0, name);
                    for line in render_table(&cols, &cells).lines() {
                        let _ = writeln!(out, "{pad}{line}");
                    }
                }
                _ => {
                    let _ = writeln!(out, "{pad}{name}:");
                    rows.write_text(out, indent + 2);
                }
            }
        }
    }
}

/// A committed report that is unreadable: truncated, not JSON of the shape
/// this module writes, or not in the three-key format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormatError(String);

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a bench report: {}", self.0)
    }
}

/// One count on which a fresh run and the committed file disagree; `None`
/// is a key the side does not have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Difference {
    /// Dotted path under `counts`.
    pub key: String,
    /// The committed file's JSON token.
    pub committed: Option<String>,
    /// This run's JSON token.
    pub fresh: Option<String>,
}

/// Why [`Report::check`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The committed file could not be read as a report of this bench.
    Format(FormatError),
    /// The file was read; these counts differ.
    Differs(Vec<Difference>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Format(e) => write!(f, "{e}"),
            CheckError::Differs(diffs) => {
                for d in diffs {
                    let side = |v: &Option<String>| v.clone().unwrap_or_else(|| "absent".into());
                    writeln!(
                        f,
                        "counts.{}: committed {}, this run {}",
                        d.key,
                        side(&d.committed),
                        side(&d.fresh)
                    )?;
                }
                write!(f, "{} count(s) differ", diffs.len())
            }
        }
    }
}

/// A report read back from its JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Recorded {
    /// The binary that wrote the file.
    pub bench: String,
    /// The seed-determined section.
    pub counts: Section,
    /// The host-determined section.
    pub host: Section,
}

impl Recorded {
    /// Read the JSON [`Report::to_json`] writes.
    pub fn parse(text: &str) -> Result<Recorded, FormatError> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let Section(top) = p.section()?;
        p.skip_ws();
        if p.at != p.s.len() {
            return Err(p.error("text after the closing brace"));
        }
        match <[(String, Node); 3]>::try_from(top) {
            Ok([(b, Node::Text(bench)), (c, Node::Rows(counts)), (h, Node::Rows(host))])
                if (b.as_str(), c.as_str(), h.as_str()) == ("bench", "counts", "host") =>
            {
                Ok(Recorded {
                    bench,
                    counts,
                    host,
                })
            }
            _ => Err(FormatError(
                "top level is not exactly bench (a string), counts and host (objects)".into(),
            )),
        }
    }
}

/// Strict reader of the subset of JSON this module writes: objects of
/// strings, numbers, booleans, `null`, flat number arrays and objects.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> FormatError {
        FormatError(format!("{what} at byte {}", self.at))
    }

    fn skip_ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Skip whitespace and consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.s.get(self.at) == Some(&byte);
        self.at += usize::from(hit);
        hit
    }

    fn string(&mut self) -> Result<String, FormatError> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    out.push(match self.s.get(self.at) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'n') => b'\n',
                        _ => return Err(self.error("unsupported escape")),
                    });
                    self.at += 1;
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    /// A number, `true`, `false` or `null`, kept as its source text.
    fn scalar(&mut self) -> Result<String, FormatError> {
        self.skip_ws();
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|c| !matches!(c, b',' | b'}' | b']') && !c.is_ascii_whitespace())
        {
            self.at += 1;
        }
        let token = std::str::from_utf8(&self.s[start..self.at]).unwrap_or("");
        let number = token.parse::<f64>().is_ok_and(f64::is_finite);
        if number || matches!(token, "true" | "false" | "null") {
            Ok(token.to_string())
        } else {
            self.at = start;
            Err(self.error("expected a number, true, false or null"))
        }
    }

    fn value(&mut self) -> Result<Node, FormatError> {
        self.skip_ws();
        match self.s.get(self.at) {
            Some(b'{') => self.section().map(Node::Rows),
            Some(b'"') => self.string().map(Node::Text),
            Some(b'[') => {
                self.at += 1;
                let mut cells = Vec::new();
                if !self.eat(b']') {
                    loop {
                        cells.push(self.scalar()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected , or ] in an array"));
                        }
                    }
                }
                Ok(Node::Raw(format!("[{}]", cells.join(", "))))
            }
            _ => self.scalar().map(Node::Raw),
        }
    }

    fn section(&mut self) -> Result<Section, FormatError> {
        if !self.eat(b'{') {
            return Err(self.error("expected {"));
        }
        let mut entries: Vec<(String, Node)> = Vec::new();
        if self.eat(b'}') {
            return Ok(Section(entries));
        }
        loop {
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.error("duplicate key"));
            }
            if !self.eat(b':') {
                return Err(self.error("expected : after a key"));
            }
            entries.push((key, self.value()?));
            if self.eat(b'}') {
                return Ok(Section(entries));
            }
            if !self.eat(b',') {
                return Err(self.error("expected , or } in an object"));
            }
        }
    }
}

/// A bench's results on their way to stdout, a file, or a comparison.
#[derive(Clone, Debug)]
pub struct Report {
    bench: &'static str,
    /// Functions of the seed; what `--check` compares.
    pub counts: Section,
    /// What the box decides; recorded, never compared.
    pub host: Section,
    not_run: Vec<String>,
}

impl Report {
    /// An empty report for the binary `bench`, its `host` section opened
    /// with the box's `hardware_threads`.
    pub fn new(bench: &'static str) -> Report {
        let mut host = Section::default();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        host.int("hardware_threads", threads as u64);
        Report {
            bench,
            counts: Section::default(),
            host,
            not_run: Vec::new(),
        }
    }

    /// Declare that this run skipped the part of the bench that produces the
    /// counts at or under the dotted `path`: [`Report::check`] then accepts
    /// the committed file having them.
    pub fn not_run(&mut self, path: &str) {
        self.not_run.push(path.to_string());
    }

    /// The three-key JSON document.
    pub fn to_json(&self) -> String {
        let mut top = Section::default();
        top.label("bench", self.bench);
        top.put("counts", Node::Rows(self.counts.clone()));
        top.put("host", Node::Rows(self.host.clone()));
        let mut out = String::new();
        top.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    /// The same rows for a terminal or `results/<bench>.txt`.
    pub fn to_text(&self) -> String {
        let mut out = format!("== {} ==\n\n", self.bench);
        self.counts.merged(&self.host).write_text(&mut out, 0);
        out
    }

    /// Compare this run's `counts` with a committed report's, exactly and
    /// in both directions (minus what [`Report::not_run`] excused). `host`
    /// is not looked at.
    pub fn check(&self, committed: &str) -> Result<(), CheckError> {
        let recorded = Recorded::parse(committed).map_err(CheckError::Format)?;
        if recorded.bench != self.bench {
            return Err(CheckError::Format(FormatError(format!(
                "the file records {}, this is {}",
                recorded.bench, self.bench
            ))));
        }
        let (mut fresh, mut old) = (Vec::new(), Vec::new());
        self.counts.flatten("", &mut fresh);
        recorded.counts.flatten("", &mut old);
        let excused = |key: &str| {
            self.not_run.iter().any(|p| {
                key.strip_prefix(p.as_str())
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
        };
        let mut diffs = Vec::new();
        for (key, token) in &fresh {
            let committed = old.iter().find(|(k, _)| k == key).map(|(_, t)| t.clone());
            if committed.as_ref() != Some(token) {
                diffs.push(Difference {
                    key: key.clone(),
                    committed,
                    fresh: Some(token.clone()),
                });
            }
        }
        for (key, token) in old {
            if !excused(&key) && !fresh.iter().any(|(k, _)| *k == key) {
                diffs.push(Difference {
                    key,
                    committed: Some(token),
                    fresh: None,
                });
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(CheckError::Differs(diffs))
        }
    }

    /// Print the rows, then record or check as `mode` says. Exits with
    /// status 1 when a file cannot be written or read, or a count differs.
    pub fn finish(&self, mode: &Mode) {
        let text = self.to_text();
        print!("{text}");
        let fail = |what: String| -> ! {
            eprintln!("{}: {what}", self.bench);
            std::process::exit(1);
        };
        match mode {
            Mode::Print => {}
            Mode::Record(path) => {
                let txt = PathBuf::from(format!("results/{}.txt", self.bench));
                if let Err(e) = std::fs::create_dir_all("results") {
                    fail(format!("cannot create results/: {e}"));
                }
                for (path, body) in [(path, self.to_json()), (&txt, text)] {
                    match std::fs::write(path, body) {
                        Ok(()) => eprintln!("wrote {}", path.display()),
                        Err(e) => fail(format!("failed to write {}: {e}", path.display())),
                    }
                }
            }
            Mode::Check(path) => {
                let committed = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
                match self.check(&committed) {
                    Ok(()) => eprintln!("counts equal to {}", path.display()),
                    Err(e) => fail(format!("{}:\n{e}", path.display())),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with leaves, per-world rows, per-variant rows two deep, a
    /// fixed-precision ratio and a float array.
    fn sample(wall: f64) -> Report {
        let mut r = Report::new("sample");
        r.counts
            .label("topology", "apac")
            .int("calls", 55_867)
            .flag("stats_identical", true)
            .fixed("final_nrmse", f64::NAN, 6);
        for (world, placed, migrations) in
            [("ample", 8_264u64, 6_662u64), ("pressure", 11_092, 8_822)]
        {
            r.counts
                .row("worlds")
                .row(world)
                .int("placed", placed)
                .fixed(
                    "migr_per_1k",
                    migrations as f64 * 1_000.0 / placed as f64,
                    2,
                )
                .ints("kill_points", [478, 1_257]);
            r.counts
                .row("worlds")
                .row(world)
                .row("best-fit")
                .int("servers", 48);
            r.host.row("worlds").row(world).fixed("wall_s", wall, 3);
        }
        r.counts.row("dense_baseline").floats(
            "capacity",
            &[112.87599494870862, 1.0062190763930179e-16, 0.1],
        );
        r.host.fixed("drive_s", wall, 6);
        r
    }

    fn differing_keys(fresh: &Report, committed: &str) -> Vec<String> {
        match fresh.check(committed) {
            Err(CheckError::Differs(diffs)) => diffs.into_iter().map(|d| d.key).collect(),
            other => panic!("expected differing counts, got {other:?}"),
        }
    }

    #[test]
    fn record_then_check_round_trips_nested_rows_and_ratios() {
        let r = sample(0.25);
        let json = r.to_json();
        assert_eq!(r.check(&json), Ok(()));
        let back = Recorded::parse(&json).expect("the writer's output parses");
        assert_eq!(back.bench, "sample");
        assert_eq!(back.counts, r.counts);
        assert_eq!(back.host, r.host);
        // the ratio is compared as written, at its precision
        assert!(json.contains("\"migr_per_1k\": 806.15"), "{json}");
        assert!(json.contains("\"final_nrmse\": null"), "{json}");
        // shortest round-trip floats come back bit for bit
        assert_eq!(
            back.counts.read_floats("dense_baseline.capacity"),
            Some(vec![112.87599494870862, 1.0062190763930179e-16, 0.1])
        );
        assert_eq!(back.counts.read_floats("dense_baseline.absent"), None);
        assert_eq!(back.counts.read_floats("calls"), None);
    }

    #[test]
    fn only_the_three_keys_are_written_and_host_carries_the_thread_count() {
        let json = sample(0.25).to_json();
        let top: Vec<&str> = json
            .lines()
            .filter(|l| l.starts_with("  \""))
            .map(|l| l.trim_start().split('"').nth(1).unwrap())
            .collect();
        assert_eq!(top, ["bench", "counts", "host"]);
        assert!(
            json.contains("\"host\": {\n    \"hardware_threads\": "),
            "{json}"
        );
    }

    #[test]
    fn check_ignores_host_values() {
        let committed = sample(0.25).to_json();
        let mut fresh = sample(7.5);
        fresh.host.int("only_on_this_box", 1);
        assert_eq!(fresh.check(&committed), Ok(()));
    }

    #[test]
    fn check_names_a_changed_count() {
        let committed = sample(0.25)
            .to_json()
            .replace("\"placed\": 11092", "\"placed\": 11093");
        let fresh = sample(0.25);
        assert_eq!(
            differing_keys(&fresh, &committed),
            ["worlds.pressure.placed"]
        );
        let shown = fresh.check(&committed).unwrap_err().to_string();
        assert!(
            shown.contains("counts.worlds.pressure.placed: committed 11093, this run 11092"),
            "{shown}"
        );
    }

    #[test]
    fn check_names_a_count_missing_from_either_side() {
        let committed = sample(0.25).to_json();
        let mut more = sample(0.25);
        more.counts.row("worlds").row("ample").int("crashes", 12);
        assert_eq!(differing_keys(&more, &committed), ["worlds.ample.crashes"]);

        let fewer = sample(0.25);
        let wider = more.to_json();
        let diffs = match fewer.check(&wider) {
            Err(CheckError::Differs(d)) => d,
            other => panic!("expected differing counts, got {other:?}"),
        };
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].key, "worlds.ample.crashes");
        assert_eq!(diffs[0].committed.as_deref(), Some("12"));
        assert_eq!(diffs[0].fresh, None);
    }

    #[test]
    fn a_run_that_skipped_a_part_accepts_its_committed_counts_only() {
        let committed = sample(0.25).to_json();
        let mut partial = sample(0.25);
        partial.counts.0.retain(|(k, _)| k != "dense_baseline");
        assert_eq!(
            differing_keys(&partial, &committed),
            ["dense_baseline.capacity"]
        );
        partial.not_run("dense_baseline");
        assert_eq!(partial.check(&committed), Ok(()));
        // the excuse is a path, not a string prefix
        let mut wrong = sample(0.25);
        wrong.counts.0.retain(|(k, _)| k != "dense_baseline");
        wrong.not_run("dense");
        assert_eq!(
            differing_keys(&wrong, &committed),
            ["dense_baseline.capacity"]
        );
        // and it never excuses a count the run did produce
        let changed = committed.replace("\"calls\": 55867", "\"calls\": 1");
        partial.not_run("calls");
        assert_eq!(differing_keys(&partial, &changed), ["calls"]);
    }

    #[test]
    fn an_unreadable_committed_file_is_a_typed_error() {
        let fresh = sample(0.25);
        let json = fresh.to_json();
        // truncated at every byte: never a panic, never a pass
        for cut in 0..json.len() - 1 {
            if !json.is_char_boundary(cut) {
                continue;
            }
            assert!(
                matches!(fresh.check(&json[..cut]), Err(CheckError::Format(_))),
                "accepted a file truncated at byte {cut}"
            );
        }
        let not_three_keys = [
            // the schema the benches wrote by hand before this module
            "{\n  \"bench\": \"sample\",\n  \"topology\": \"apac\",\n  \"smoke\": false,\n  \"calls\": 55867\n}\n",
            "{\"bench\": \"sample\", \"counts\": {}}",
            "{\"bench\": \"sample\", \"counts\": {}, \"host\": {}, \"extra\": 1}",
            "{\"counts\": {}, \"bench\": \"sample\", \"host\": {}}",
            "{\"bench\": 3, \"counts\": {}, \"host\": {}}",
            "{\"bench\": \"sample\", \"counts\": [], \"host\": {}}",
            "{\"bench\": \"sample\", \"counts\": {\"a\": 1, \"a\": 2}, \"host\": {}}",
            "{\"bench\": \"sample\", \"counts\": {\"a\": [[1]]}, \"host\": {}}",
            "{\"bench\": \"sample\", \"counts\": {\"a\": nope}, \"host\": {}}",
            "{\"bench\": \"sample\", \"counts\": {}, \"host\": {}} trailing",
            "",
        ];
        for text in not_three_keys {
            assert!(
                matches!(fresh.check(text), Err(CheckError::Format(_))),
                "accepted {text:?}"
            );
        }
        // another bench's file is not this bench's baseline
        let other = json.replace("\"bench\": \"sample\"", "\"bench\": \"other\"");
        let err = fresh.check(&other).unwrap_err();
        assert!(matches!(err, CheckError::Format(_)));
        assert!(err.to_string().contains("records other"), "{err}");
    }

    #[test]
    fn text_renders_leaves_then_one_table_per_level_of_rows() {
        let mut r = Report::new("sample");
        r.counts.int("calls", 7).label("topology", "apac");
        r.counts.row("variants").row("serial").int("iterations", 12);
        r.counts
            .row("variants")
            .row("8-thread")
            .int("iterations", 12);
        r.host
            .row("variants")
            .row("serial")
            .fixed("drive_s", 0.5, 3);
        r.counts.row("drill").int("stranded", 0);
        let text = r.to_text();
        assert!(text.starts_with("== sample ==\n\ncalls"), "{text}");
        assert!(text.contains("topology          apac\n"), "{text}");
        assert!(
            text.contains(
                "  variants  iterations  drive_s\n  --------  ----------  -------\n    \
                 serial          12    0.500\n  8-thread          12        -\n"
            ),
            "{text}"
        );
        assert!(text.contains("\ndrill:\n  stranded  0\n"), "{text}");
    }
}

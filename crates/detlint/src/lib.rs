//! `detlint` — the workspace determinism & hygiene static-analysis pass.
//!
//! The reproduction's whole claim rests on determinism: the golden test pins
//! the pipelined runtime to the blocking loop byte-for-byte, and every table
//! and figure is a seeded re-run. Nothing in rustc enforces that property, so
//! this crate does. It is a lexer-level scanner (no `syn` — the registry is
//! unreachable and the linter must build before anything it gates) that walks
//! every workspace crate and reports violations of nine invariants:
//!
//! | code | rule name        | invariant |
//! |------|------------------|-----------|
//! | D1   | `hash-order`     | no `HashMap`/`HashSet` in simulation crates (nondeterministic iteration order) |
//! | D2   | `wall-clock`     | no `Instant::now`/`SystemTime` outside the bench crate (virtual time only) |
//! | D3   | `entropy-rng`    | no `thread_rng`/`from_entropy`/`rand::random` — RNG comes from seeded constructors |
//! | D4   | `panic-paths`    | no `unwrap()`, and `expect()` only with an `"invariant: …"` message, in core/runtime library code |
//! | D5   | `forbid-unsafe`  | every crate root carries `#![forbid(unsafe_code)]` |
//! | D6   | `ambient-env`    | no `env::var` reads in simulation crates (no ambient state) |
//! | D7   | `codec-symmetry` | every `encode*`/`decode*` pair reads and writes the same ordered field sequence |
//! | D8   | `schema-lock`    | codec fingerprints + `*VERSION*` constants match the committed `SNAPSHOT_SCHEMA.lock` |
//! | D9   | `lossy-cast`     | no `as` numeric casts inside codec fns (use `try_from` or justify) |
//!
//! D7–D9 form the **snapcheck** codec-drift pass (see the private
//! `snapcheck` module's docs; [`SchemaLock`] is its lockfile model); D8
//! has no allow escape — the lockfile, regenerated only via
//! `--update-schema-lock` after a version-constant bump, is the escape hatch.
//!
//! A finding can be suppressed at the site with a justified allow comment on
//! the same line or the line above:
//!
//! ```text
//! // detlint: allow(hash-order): keys are drained through a sorted Vec below
//! ```
//!
//! The justification is mandatory — an allow without one does not suppress.
//!
//! Rules are toggled and scoped by `detlint.toml` at the workspace root (see
//! [`Config::parse`]). The binary exits 0 when clean, 1 on findings, 2 on
//! usage or I/O errors, and `--json` emits a machine-readable report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod snapcheck;

pub use snapcheck::{
    plan_schema_update, CodecFingerprint, SchemaLock, SchemaReport, VersionConst, SCHEMA_LOCK_FILE,
};

/// The nine determinism/hygiene rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: no `HashMap`/`HashSet` in simulation crates.
    HashOrder,
    /// D2: no `Instant::now`/`SystemTime` outside the bench crate.
    WallClock,
    /// D3: no entropy-seeded RNG.
    EntropyRng,
    /// D4: no `unwrap()`/non-invariant `expect()` in core/runtime.
    PanicPaths,
    /// D5: crate roots must `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// D6: no `env::var` ambient state in simulation crates.
    AmbientEnv,
    /// D7: paired `encode*`/`decode*` fns must agree on the field sequence.
    CodecSymmetry,
    /// D8: codec fingerprints must match `SNAPSHOT_SCHEMA.lock`.
    SchemaLock,
    /// D9: no `as` numeric casts inside codec fns.
    LossyCast,
}

impl Rule {
    /// All rules, in code order.
    pub const ALL: [Rule; 9] = [
        Rule::HashOrder,
        Rule::WallClock,
        Rule::EntropyRng,
        Rule::PanicPaths,
        Rule::ForbidUnsafe,
        Rule::AmbientEnv,
        Rule::CodecSymmetry,
        Rule::SchemaLock,
        Rule::LossyCast,
    ];

    /// Short diagnostic code, `D1`..`D6`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::HashOrder => "D1",
            Rule::WallClock => "D2",
            Rule::EntropyRng => "D3",
            Rule::PanicPaths => "D4",
            Rule::ForbidUnsafe => "D5",
            Rule::AmbientEnv => "D6",
            Rule::CodecSymmetry => "D7",
            Rule::SchemaLock => "D8",
            Rule::LossyCast => "D9",
        }
    }

    /// Kebab-case rule name used in config and allow comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::EntropyRng => "entropy-rng",
            Rule::PanicPaths => "panic-paths",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::AmbientEnv => "ambient-env",
            Rule::CodecSymmetry => "codec-symmetry",
            Rule::SchemaLock => "schema-lock",
            Rule::LossyCast => "lossy-cast",
        }
    }

    /// The `= help:` line shown under a diagnostic.
    pub fn help(self) -> &'static str {
        match self {
            Rule::HashOrder => {
                "use BTreeMap/BTreeSet, or annotate `// detlint: allow(hash-order): <reason>`"
            }
            Rule::WallClock => "simulation code must use crowdlearn_runtime::VirtualClock",
            Rule::EntropyRng => "construct RNGs from explicit seeds (e.g. SplitMix64::new(seed))",
            Rule::PanicPaths => {
                "return a typed error, or state the invariant: `.expect(\"invariant: ...\")`"
            }
            Rule::ForbidUnsafe => "add `#![forbid(unsafe_code)]` at the top of the crate root",
            Rule::AmbientEnv => {
                "thread configuration through explicit Config structs, not env vars"
            }
            Rule::CodecSymmetry => {
                "make the encode/decode field sequences symmetric, or annotate \
                 `// detlint: allow(codec-symmetry): <reason>`"
            }
            Rule::SchemaLock => {
                "bump the snapshot format version, then `cargo run -p detlint -- \
                 --update-schema-lock`"
            }
            Rule::LossyCast => {
                "use try_from with a typed error (or a stated-invariant expect), or \
                 annotate `// detlint: allow(lossy-cast): <reason>`"
            }
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// Whether the rule skips `#[cfg(test)]` modules and `tests/`-style
    /// targets. Wall-clock, RNG and unsafe hygiene bind test code too (tests
    /// are part of the seeded, reproducible surface); the container-shape and
    /// panic-path rules only guard library code.
    fn skips_test_code(self) -> bool {
        matches!(
            self,
            Rule::HashOrder
                | Rule::PanicPaths
                | Rule::AmbientEnv
                | Rule::CodecSymmetry
                | Rule::SchemaLock
                | Rule::LossyCast
        )
    }
}

/// Scope and toggle configuration, normally parsed from `detlint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rule name -> enabled. Rules absent from the map are enabled.
    pub enabled: BTreeMap<String, bool>,
    /// Crates where iteration order can reach RNG draws, reports, or
    /// serialized output (D1/D6 scope).
    pub simulation: Vec<String>,
    /// Crates allowed to read the wall clock (D2 exemptions).
    pub wall_clock_exempt: Vec<String>,
    /// Crates whose library code must not panic mid-cycle (D4 scope).
    pub panic_paths: Vec<String>,
    /// Crates holding hand-written binary codecs (D7/D8/D9 scope).
    pub codec: Vec<String>,
    /// Workspace-relative path prefixes never scanned (e.g. lint fixtures).
    pub exclude: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            enabled: BTreeMap::new(),
            simulation: [
                "core",
                "runtime",
                "dataset",
                "crowd",
                "truth",
                "bandit",
                "classifiers",
                "gbdt",
            ]
            .map(String::from)
            .to_vec(),
            wall_clock_exempt: vec!["bench".to_string()],
            panic_paths: vec!["core".to_string(), "runtime".to_string()],
            codec: [
                "bandit",
                "classifiers",
                "core",
                "crowd",
                "dataset",
                "gbdt",
                "metrics",
                "runtime",
            ]
            .map(String::from)
            .to_vec(),
            exclude: vec!["crates/detlint/tests/fixtures".to_string()],
        }
    }
}

impl Config {
    /// Parses the `detlint.toml` dialect: `[section]` headers, `key = bool`,
    /// `key = "string"`, and single-line `key = ["a", "b"]` arrays. Sections:
    /// `[rules]` (per-rule toggles by name) and `[scope]`
    /// (`simulation`/`wall-clock-exempt`/`panic-paths`/`codec`/`exclude` lists).
    /// Unknown keys are errors — a typo must not silently disable a gate.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |m: &str| format!("detlint.toml:{}: {m}", idx + 1);
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "rules" && section != "scope" {
                    return Err(err(&format!("unknown section `[{section}]`")));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err("expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            match section.as_str() {
                "rules" => {
                    if Rule::from_name(key).is_none() {
                        return Err(err(&format!("unknown rule `{key}`")));
                    }
                    let on = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(err("rule toggles must be `true` or `false`")),
                    };
                    cfg.enabled.insert(key.to_string(), on);
                }
                "scope" => {
                    let list = parse_string_array(value).ok_or_else(|| {
                        err("scope entries must be arrays of strings, e.g. [\"core\"]")
                    })?;
                    match key {
                        "simulation" => cfg.simulation = list,
                        "wall-clock-exempt" => cfg.wall_clock_exempt = list,
                        "panic-paths" => cfg.panic_paths = list,
                        "codec" => cfg.codec = list,
                        "exclude" => cfg.exclude = list,
                        _ => return Err(err(&format!("unknown scope key `{key}`"))),
                    }
                }
                _ => return Err(err("key outside a `[rules]`/`[scope]` section")),
            }
        }
        Ok(cfg)
    }

    /// Whether a rule is switched on.
    pub fn rule_enabled(&self, rule: Rule) -> bool {
        *self.enabled.get(rule.name()).unwrap_or(&true)
    }

    /// Whether `rule` binds files of `crate_name` at all.
    pub fn rule_applies(&self, rule: Rule, crate_name: &str) -> bool {
        if !self.rule_enabled(rule) {
            return false;
        }
        let has = |list: &[String]| list.iter().any(|c| c == crate_name);
        match rule {
            Rule::HashOrder | Rule::AmbientEnv => has(&self.simulation),
            Rule::WallClock => !has(&self.wall_clock_exempt),
            Rule::PanicPaths => has(&self.panic_paths),
            Rule::CodecSymmetry | Rule::SchemaLock | Rule::LossyCast => has(&self.codec),
            Rule::EntropyRng | Rule::ForbidUnsafe => true,
        }
    }
}

fn strip_toml_comment(line: &str) -> &str {
    // Good enough for this dialect: `#` never appears inside our strings.
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(item.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
}

/// How a file participates in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`): D5 applies.
    Root,
    /// Ordinary library code under `src/`.
    Source,
    /// Integration tests, examples, benches: whole file is test context.
    TestCode,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub column: usize,
    /// Length of the offending token (for the caret underline).
    pub span: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, verbatim.
    pub snippet: String,
}

/// The result of scanning a workspace (or fixture tree).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, column, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by justified allow comments.
    pub suppressed: usize,
}

impl Report {
    /// Process exit code the CLI should return for this report.
    pub fn exit_code(&self) -> i32 {
        if self.findings.is_empty() {
            0
        } else {
            1
        }
    }
}

// ---------------------------------------------------------------------------
// Lexer: strip comments and string contents while preserving byte columns.
// ---------------------------------------------------------------------------

struct LexedFile {
    /// Source lines with comment and string interiors blanked to spaces
    /// (quotes kept), so token matching never fires inside prose.
    code: Vec<String>,
    /// Comment text per line (everything else blanked) — allow directives
    /// live here.
    comments: Vec<String>,
    /// The raw source lines.
    raw: Vec<String>,
    /// Whether each line sits inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

fn lex(source: &str) -> LexedFile {
    let bytes = source.as_bytes();
    let mut code = vec![0u8; bytes.len()];
    let mut comments = vec![0u8; bytes.len()];
    let mut state = LexState::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            code[i] = b'\n';
            comments[i] = b'\n';
            if state == LexState::LineComment {
                state = LexState::Code;
            }
            i += 1;
            continue;
        }
        let (code_b, comment_b, next, advance) = match state {
            LexState::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    (b' ', b' ', LexState::LineComment, 1)
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    (b' ', b' ', LexState::BlockComment(1), 2)
                } else if b == b'r'
                    && matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#'))
                    && !ident_byte(bytes.get(i.wrapping_sub(1)).copied())
                {
                    let mut hashes = 0u32;
                    while bytes.get(i + 1 + hashes as usize) == Some(&b'#') {
                        hashes += 1;
                    }
                    if bytes.get(i + 1 + hashes as usize) == Some(&b'"') {
                        let len = 2 + hashes as usize;
                        for (off, slot) in code[i..i + len].iter_mut().enumerate() {
                            *slot = bytes[i + off];
                        }
                        for slot in &mut comments[i..i + len] {
                            *slot = b' ';
                        }
                        state = LexState::RawStr(hashes);
                        i += len;
                        continue;
                    }
                    (b, b' ', LexState::Code, 1)
                } else if b == b'"' {
                    (b, b' ', LexState::Str, 1)
                } else if b == b'\''
                    && (bytes.get(i + 2) == Some(&b'\'') || bytes.get(i + 1) == Some(&b'\\'))
                    && {
                        // A `b` prefix marks a byte-char literal (`b'"'`);
                        // any other identifier tail means a lifetime.
                        let prev = if i == 0 {
                            None
                        } else {
                            bytes.get(i - 1).copied()
                        };
                        !ident_byte(prev) || prev == Some(b'b')
                    }
                {
                    (b, b' ', LexState::CharLit, 1)
                } else {
                    (b, b' ', LexState::Code, 1)
                }
            }
            LexState::LineComment => (b' ', b, LexState::LineComment, 1),
            LexState::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    let next = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    code[i] = b' ';
                    comments[i] = b' ';
                    code[i + 1] = b' ';
                    comments[i + 1] = b' ';
                    state = next;
                    i += 2;
                    continue;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    (b' ', b, LexState::BlockComment(depth + 1), 1)
                } else {
                    (b' ', b, state, 1)
                }
            }
            LexState::Str => {
                if b == b'\\' {
                    (b' ', b' ', LexState::Str, 2)
                } else if b == b'"' {
                    (b, b' ', LexState::Code, 1)
                } else {
                    (b' ', b' ', LexState::Str, 1)
                }
            }
            LexState::RawStr(hashes) => {
                if b == b'"' {
                    let mut trailing = 0u32;
                    while trailing < hashes && bytes.get(i + 1 + trailing as usize) == Some(&b'#') {
                        trailing += 1;
                    }
                    if trailing == hashes {
                        let len = 1 + hashes as usize;
                        for (off, slot) in code[i..i + len].iter_mut().enumerate() {
                            *slot = bytes[i + off];
                        }
                        for slot in &mut comments[i..i + len] {
                            *slot = b' ';
                        }
                        state = LexState::Code;
                        i += len;
                        continue;
                    }
                }
                (b' ', b' ', state, 1)
            }
            LexState::CharLit => {
                if b == b'\\' {
                    (b' ', b' ', LexState::CharLit, 2)
                } else if b == b'\'' {
                    (b, b' ', LexState::Code, 1)
                } else {
                    (b' ', b' ', LexState::CharLit, 1)
                }
            }
        };
        code[i] = code_b;
        comments[i] = comment_b;
        if advance == 2 && i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
            code[i + 1] = b' ';
            comments[i + 1] = b' ';
            i += 2;
        } else {
            i += 1;
        }
        state = next;
    }

    // Replace any multibyte leftovers so the lines stay valid UTF-8.
    for slot in code.iter_mut().chain(comments.iter_mut()) {
        if *slot >= 0x80 {
            *slot = b' ';
        }
    }
    let to_lines = |buf: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(buf)
            .split('\n')
            .map(str::to_string)
            .collect()
    };
    let code_lines = to_lines(&code);
    let comment_lines = to_lines(&comments);
    let raw_lines: Vec<String> = source.split('\n').map(str::to_string).collect();
    let in_test = mark_test_lines(&code_lines);
    LexedFile {
        code: code_lines,
        comments: comment_lines,
        raw: raw_lines,
        in_test,
    }
}

fn ident_byte(b: Option<u8>) -> bool {
    matches!(b, Some(c) if c == b'_' || c.is_ascii_alphanumeric())
}

/// Marks lines covered by a `#[cfg(test)]` item: from the attribute through
/// the closing brace of the block it opens.
fn mark_test_lines(code_lines: &[String]) -> Vec<bool> {
    let mut depth: i64 = 0;
    let mut region_floor: Option<i64> = None;
    let mut pending_attr = false;
    let mut marks = Vec::with_capacity(code_lines.len());
    for line in code_lines {
        let active_at_start = region_floor.is_some() || pending_attr;
        if region_floor.is_none() && line.contains("#[cfg(test)]") {
            pending_attr = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_attr && region_floor.is_none() {
                        region_floor = Some(depth - 1);
                        pending_attr = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(floor) = region_floor {
                        if depth <= floor {
                            region_floor = None;
                        }
                    }
                }
                _ => {}
            }
        }
        marks.push(active_at_start || region_floor.is_some() || pending_attr);
    }
    marks
}

// ---------------------------------------------------------------------------
// Rule matching.
// ---------------------------------------------------------------------------

/// Finds `word` in `line` at identifier boundaries, returning byte offsets.
fn ident_matches(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before = if at == 0 { None } else { Some(bytes[at - 1]) };
        let after = bytes.get(at + word.len()).copied();
        if !ident_byte(before) && !ident_byte(after) {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

/// An allow directive parsed from a comment line.
struct AllowDirective {
    rule: Option<Rule>,
    justified: bool,
}

fn parse_allow(comment_line: &str) -> Option<AllowDirective> {
    let at = comment_line.find("detlint: allow(")?;
    let rest = &comment_line[at + "detlint: allow(".len()..];
    let close = rest.find(')')?;
    let rule = Rule::from_name(rest[..close].trim());
    let tail = rest[close + 1..].trim_start();
    let justification = tail.strip_prefix(':').unwrap_or(tail).trim();
    Some(AllowDirective {
        rule,
        justified: !justification.is_empty(),
    })
}

/// Lints one file's source text. Pure — fixture tests drive this directly.
///
/// `path` is only used for diagnostics; `crate_name` selects rule scope; and
/// `kind` distinguishes crate roots (D5) and test-only targets.
pub fn lint_source(
    source: &str,
    path: &str,
    crate_name: &str,
    kind: FileKind,
    cfg: &Config,
) -> (Vec<Finding>, usize) {
    let lexed = lex(source);
    let mut findings = Vec::new();
    let mut suppressed = 0usize;

    let allows: Vec<Option<AllowDirective>> =
        lexed.comments.iter().map(|c| parse_allow(c)).collect();
    let allowed = |rule: Rule, line_idx: usize| -> Option<bool> {
        // Same line, then the line above. Some(justified) when present.
        for idx in [Some(line_idx), line_idx.checked_sub(1)]
            .into_iter()
            .flatten()
        {
            if let Some(a) = &allows[idx] {
                if a.rule == Some(rule) {
                    return Some(a.justified);
                }
            }
        }
        None
    };

    let mut push = |rule: Rule, line_idx: usize, column0: usize, span: usize, message: String| {
        match allowed(rule, line_idx) {
            Some(true) => {
                suppressed += 1;
                return;
            }
            Some(false) => {
                findings.push(Finding {
                    rule,
                    path: path.to_string(),
                    line: line_idx + 1,
                    column: column0 + 1,
                    span,
                    message: format!(
                        "{message} (allow comment present but missing its justification)"
                    ),
                    snippet: lexed.raw[line_idx].clone(),
                });
                return;
            }
            None => {}
        }
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line: line_idx + 1,
            column: column0 + 1,
            span,
            message,
            snippet: lexed.raw[line_idx].clone(),
        });
    };

    for (idx, line) in lexed.code.iter().enumerate() {
        let test_line = kind == FileKind::TestCode || lexed.in_test[idx];
        for rule in Rule::ALL {
            // D5 is a file-level rule; D7/D8/D9 work on whole codec fns and
            // run after this per-line loop (D8 at workspace level).
            if matches!(
                rule,
                Rule::ForbidUnsafe | Rule::CodecSymmetry | Rule::SchemaLock | Rule::LossyCast
            ) || !cfg.rule_applies(rule, crate_name)
            {
                continue;
            }
            if test_line && rule.skips_test_code() {
                continue;
            }
            match rule {
                Rule::HashOrder => {
                    for word in ["HashMap", "HashSet"] {
                        for at in ident_matches(line, word) {
                            push(
                                rule,
                                idx,
                                at,
                                word.len(),
                                format!(
                                    "`{word}` iteration order is nondeterministic; \
                                     simulation crate `{crate_name}` must use BTree collections"
                                ),
                            );
                        }
                    }
                }
                Rule::WallClock => {
                    for at in ident_matches(line, "Instant") {
                        if line[at..].starts_with("Instant::now") {
                            push(
                                rule,
                                idx,
                                at,
                                "Instant::now".len(),
                                format!(
                                    "wall-clock read in `{crate_name}`: simulation runs on \
                                     virtual time only"
                                ),
                            );
                        }
                    }
                    for at in ident_matches(line, "SystemTime") {
                        push(
                            rule,
                            idx,
                            at,
                            "SystemTime".len(),
                            format!(
                                "wall-clock read in `{crate_name}`: simulation runs on \
                                 virtual time only"
                            ),
                        );
                    }
                }
                Rule::EntropyRng => {
                    for word in ["thread_rng", "from_entropy"] {
                        for at in ident_matches(line, word) {
                            push(
                                rule,
                                idx,
                                at,
                                word.len(),
                                format!(
                                    "`{word}` draws entropy outside the seed chain; \
                                     every RNG must be constructed from an explicit seed"
                                ),
                            );
                        }
                    }
                    if let Some(at) = line.find("rand::random") {
                        push(
                            rule,
                            idx,
                            at,
                            "rand::random".len(),
                            "`rand::random` draws entropy outside the seed chain; \
                             every RNG must be constructed from an explicit seed"
                                .to_string(),
                        );
                    }
                }
                Rule::PanicPaths => {
                    let mut from = 0;
                    while let Some(pos) = line[from..].find(".unwrap()") {
                        let at = from + pos;
                        push(
                            rule,
                            idx,
                            at,
                            ".unwrap()".len(),
                            format!(
                                "`unwrap()` in `{crate_name}` library code can panic \
                                 mid-cycle; surface the error or state the invariant"
                            ),
                        );
                        from = at + ".unwrap()".len();
                    }
                    let mut from = 0;
                    while let Some(pos) = line[from..].find(".expect(") {
                        let at = from + pos;
                        if !expect_states_invariant(&lexed.raw, idx, at + ".expect(".len()) {
                            push(
                                rule,
                                idx,
                                at,
                                ".expect(".len() - 1,
                                format!(
                                    "`expect()` in `{crate_name}` library code must carry \
                                     an `\"invariant: ...\"` message stating why it cannot fire"
                                ),
                            );
                        }
                        from = at + ".expect(".len();
                    }
                }
                Rule::AmbientEnv => {
                    for at in ident_matches(line, "env") {
                        if line[at..].starts_with("env::var") {
                            push(
                                rule,
                                idx,
                                at,
                                "env::var".len(),
                                format!(
                                    "`env::var` read in simulation crate `{crate_name}`: \
                                     ambient state breaks seeded re-runs"
                                ),
                            );
                        }
                    }
                }
                Rule::ForbidUnsafe | Rule::CodecSymmetry | Rule::SchemaLock | Rule::LossyCast => {
                    unreachable!("handled outside the per-line loop")
                }
            }
        }
    }

    let check_d7 = cfg.rule_applies(Rule::CodecSymmetry, crate_name);
    let check_d9 = cfg.rule_applies(Rule::LossyCast, crate_name);
    if kind != FileKind::TestCode && (check_d7 || check_d9) {
        snapcheck::check_codecs(&lexed, check_d7, check_d9, &mut push);
    }

    if kind == FileKind::Root
        && cfg.rule_applies(Rule::ForbidUnsafe, crate_name)
        && !lexed
            .code
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"))
    {
        findings.push(Finding {
            rule: Rule::ForbidUnsafe,
            path: path.to_string(),
            line: 1,
            column: 1,
            span: 1,
            message: format!("crate root of `{crate_name}` does not `#![forbid(unsafe_code)]`"),
            snippet: lexed.raw.first().cloned().unwrap_or_default(),
        });
    }

    (findings, suppressed)
}

/// Does the argument of `.expect(` starting after byte `open` on line `idx`
/// begin with a literal `"invariant: ..."` string? Handles rustfmt putting
/// the message on the following line.
fn expect_states_invariant(raw: &[String], idx: usize, open: usize) -> bool {
    let mut line = idx;
    let mut col = open;
    loop {
        let bytes = raw[line].as_bytes();
        while col < bytes.len() && (bytes[col] as char).is_whitespace() {
            col += 1;
        }
        if col < bytes.len() {
            return raw[line][col..].starts_with("\"invariant: ");
        }
        line += 1;
        col = 0;
        if line >= raw.len() {
            return false;
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// One `.rs` file the workspace walk decided to scan.
struct WorkspaceFile {
    crate_name: String,
    rel: String,
    path: PathBuf,
    kind: FileKind,
}

/// Enumerates every scannable `.rs` file: each `crates/*` member plus the
/// root `crowdlearn-suite` package (`src/`, `tests/`, `examples/`,
/// `benches/`), honoring `cfg.exclude`. Vendored stand-in crates under
/// `vendor/` are third-party API surface and deliberately out of scope.
fn workspace_files(root: &Path, cfg: &Config) -> io::Result<Vec<WorkspaceFile>> {
    let mut members: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let dir = entry.path();
            if dir.is_dir() && dir.join("Cargo.toml").is_file() {
                members.push((entry.file_name().to_string_lossy().into_owned(), dir));
            }
        }
    }
    members.push(("suite".to_string(), root.to_path_buf()));
    members.sort();

    let mut out = Vec::new();
    for (name, dir) in members {
        for (sub, kind_root) in [
            ("src", true),
            ("tests", false),
            ("examples", false),
            ("benches", false),
        ] {
            let sub_dir = dir.join(sub);
            if !sub_dir.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&sub_dir, &mut files)?;
            files.sort();
            for file in files {
                let rel = relative_display(root, &file);
                if cfg.exclude.iter().any(|p| rel.starts_with(p.as_str())) {
                    continue;
                }
                let kind = if !kind_root {
                    FileKind::TestCode
                } else if is_crate_root(&sub_dir, &file) {
                    FileKind::Root
                } else {
                    FileKind::Source
                };
                out.push(WorkspaceFile {
                    crate_name: name.clone(),
                    rel,
                    path: file,
                    kind,
                });
            }
        }
    }
    Ok(out)
}

/// Scans the whole workspace rooted at `root` with every enabled rule,
/// including the workspace-level D8 lockfile comparison.
pub fn scan_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    let mut schema = SchemaReport::default();
    let check_schema = cfg.rule_enabled(Rule::SchemaLock);
    for wf in workspace_files(root, cfg)? {
        let source = fs::read_to_string(&wf.path)?;
        let (mut findings, suppressed) =
            lint_source(&source, &wf.rel, &wf.crate_name, wf.kind, cfg);
        report.findings.append(&mut findings);
        report.suppressed += suppressed;
        report.files_scanned += 1;
        if check_schema
            && wf.kind != FileKind::TestCode
            && cfg.rule_applies(Rule::SchemaLock, &wf.crate_name)
        {
            snapcheck::collect_into(&lex(&source), &wf.rel, &wf.crate_name, &mut schema);
        }
    }
    if check_schema {
        // D8 deliberately bypasses the allow machinery: the lockfile (with a
        // version bump) is the one sanctioned way to accept a schema change.
        let lock_text = fs::read_to_string(root.join(SCHEMA_LOCK_FILE)).ok();
        report.findings.append(&mut snapcheck::schema_findings(
            &schema,
            lock_text.as_deref(),
        ));
    }
    report.findings.sort_by(|a, b| {
        (&a.path, a.line, a.column, a.rule).cmp(&(&b.path, b.line, b.column, b.rule))
    });
    Ok(report)
}

/// Collects the codec fingerprints and `*VERSION*` constants of every file
/// in D8 scope — the input to [`plan_schema_update`] and the CLI's
/// `--update-schema-lock` mode.
pub fn collect_schema(root: &Path, cfg: &Config) -> io::Result<SchemaReport> {
    let mut schema = SchemaReport::default();
    for wf in workspace_files(root, cfg)? {
        if wf.kind == FileKind::TestCode || !cfg.rule_applies(Rule::SchemaLock, &wf.crate_name) {
            continue;
        }
        let source = fs::read_to_string(&wf.path)?;
        snapcheck::collect_into(&lex(&source), &wf.rel, &wf.crate_name, &mut schema);
    }
    Ok(schema)
}

/// Whether `file` is a crate root of the package whose `src/` is `src_dir`:
/// `lib.rs`, `main.rs`, a binary `bin/<name>.rs` or a multi-file binary's
/// `bin/<name>/main.rs`.
fn is_crate_root(src_dir: &Path, file: &Path) -> bool {
    let Ok(rel) = file.strip_prefix(src_dir) else {
        return false;
    };
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    matches!(
        parts.as_slice(),
        ["lib.rs" | "main.rs"] | ["bin", _] | ["bin", _, "main.rs"]
    )
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // The suite package's `src/` is the workspace root's; never
            // descend into sibling member trees.
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "crates" || name == "vendor" || name == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_display(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

/// Renders findings in rustc style (`error[D1/hash-order]: ...`).
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let gutter = f.line.to_string();
        let pad = " ".repeat(gutter.len());
        let _ = writeln!(
            out,
            "error[{}/{}]: {}",
            f.rule.code(),
            f.rule.name(),
            f.message
        );
        let _ = writeln!(out, "{pad}--> {}:{}:{}", f.path, f.line, f.column);
        let _ = writeln!(out, "{pad} |");
        let _ = writeln!(out, "{gutter} | {}", f.snippet);
        let _ = writeln!(
            out,
            "{pad} | {}{}",
            " ".repeat(f.column.saturating_sub(1)),
            "^".repeat(f.span.max(1))
        );
        let _ = writeln!(out, "{pad} = help: {}", f.rule.help());
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "detlint: {} finding(s), {} suppressed by justified allows, {} file(s) scanned",
        report.findings.len(),
        report.suppressed,
        report.files_scanned
    );
    out
}

/// Renders the report as deterministic machine-readable JSON.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":{},\"rule\":{},\"path\":{},\"line\":{},\"column\":{},\"message\":{},\"help\":{}}}",
            json_str(f.rule.code()),
            json_str(f.rule.name()),
            json_str(&f.path),
            f.line,
            f.column,
            json_str(&f.message),
            json_str(f.rule.help()),
        );
    }
    let _ = write!(
        out,
        "],\"files_scanned\":{},\"suppressed\":{}}}",
        report.files_scanned, report.suppressed
    );
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_cfg() -> Config {
        Config::default()
    }

    fn lint(src: &str, krate: &str, kind: FileKind) -> Vec<Finding> {
        lint_source(src, "x.rs", krate, kind, &sim_cfg()).0
    }

    #[test]
    fn crate_roots_include_multi_file_binaries() {
        let src = Path::new("c/src");
        for (file, root) in [
            ("c/src/lib.rs", true),
            ("c/src/main.rs", true),
            ("c/src/bin/a.rs", true),
            ("c/src/bin/a/main.rs", true),
            ("c/src/bin/a/tables.rs", false),
            ("c/src/util.rs", false),
            ("c/src/m/main.rs", false),
        ] {
            assert_eq!(is_crate_root(src, Path::new(file)), root, "{file}");
        }
    }

    #[test]
    fn comments_and_strings_never_match() {
        let src = "// HashMap in prose\nlet s = \"Instant::now\"; /* thread_rng */\n";
        assert!(lint(src, "core", FileKind::Source).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_hash_order() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(lint(src, "core", FileKind::Source).is_empty());
        let live = "use std::collections::HashMap;\n";
        assert_eq!(lint(live, "core", FileKind::Source).len(), 1);
    }

    #[test]
    fn allow_requires_justification() {
        let ok = "// detlint: allow(hash-order): drained in sorted order below\n\
                  use std::collections::HashMap;\n";
        let (findings, suppressed) = lint_source(ok, "x.rs", "core", FileKind::Source, &sim_cfg());
        assert!(findings.is_empty());
        assert_eq!(suppressed, 1);

        let bare = "use std::collections::HashMap; // detlint: allow(hash-order)\n";
        let findings = lint(bare, "core", FileKind::Source);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("missing its justification"));
    }

    #[test]
    fn expect_messages_must_state_the_invariant() {
        let bad = "fn f(o: Option<u8>) -> u8 { o.expect(\"boom\") }\n";
        assert_eq!(lint(bad, "runtime", FileKind::Source).len(), 1);
        let good = "fn f(o: Option<u8>) -> u8 { o.expect(\"invariant: always set\") }\n";
        assert!(lint(good, "runtime", FileKind::Source).is_empty());
        let wrapped = "fn f(o: Option<u8>) -> u8 {\n    o.expect(\n        \"invariant: always set\",\n    )\n}\n";
        assert!(lint(wrapped, "runtime", FileKind::Source).is_empty());
    }

    #[test]
    fn scope_limits_rules_to_configured_crates() {
        let src = "use std::collections::HashMap;\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        // `bench` is neither a simulation crate nor a panic-paths crate.
        assert!(lint(src, "bench", FileKind::Source).is_empty());
        assert_eq!(lint(src, "truth", FileKind::Source).len(), 1); // D1 only
        assert_eq!(lint(src, "runtime", FileKind::Source).len(), 2); // D1 + D4
    }

    #[test]
    fn config_parser_round_trips_and_rejects_typos() {
        let cfg =
            Config::parse("[rules]\nhash-order = false\n[scope]\nsimulation = [\"a\", \"b\"]\n")
                .unwrap();
        assert!(!cfg.rule_enabled(Rule::HashOrder));
        assert_eq!(cfg.simulation, ["a", "b"]);
        assert!(Config::parse("[rules]\nhash-ordr = true\n").is_err());
        assert!(Config::parse("[nope]\n").is_err());
    }

    #[test]
    fn missing_forbid_unsafe_is_reported_on_roots_only() {
        let src = "fn main() {}\n";
        assert_eq!(lint(src, "bench", FileKind::Root).len(), 1);
        assert!(lint(src, "bench", FileKind::Source).is_empty());
        let ok = "#![forbid(unsafe_code)]\nfn main() {}\n";
        assert!(lint(ok, "bench", FileKind::Root).is_empty());
    }
}

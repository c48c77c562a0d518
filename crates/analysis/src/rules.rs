//! The four rule families, test-region masking, and inline waivers —
//! all operating on the vendored `syn` token stream.
//!
//! The rules are deliberately syntactic: they flag *constructs*, not
//! proven bugs. Anything the author can justify is waivable inline with
//! `// lint:allow(family: reason)` (except `unsafe`), and the pre-existing
//! backlog is absorbed by the committed baseline rather than demanding a
//! big-bang cleanup.

use crate::report::Finding;
use std::collections::BTreeMap;
use syn::{Token, TokenKind};

/// The flat-arena engine directory where narrowing `as` casts must be
/// `try_into` or carry a documented-bound waiver.
pub const ENGINE_HOT_PATH: &str = "crates/core/src/engine/";

/// Path prefixes (and exact files) allowed to name wall-clock types
/// (`Instant` / `SystemTime`) in library code: the telemetry crate, which
/// owns the `Stopwatch` abstraction, and the daemon's metrics module,
/// which renders operational timings. Only the clock check is lifted
/// here; the rest of the `determinism` family still applies. Everywhere
/// else library code must route timing through
/// `leasing_telemetry::Stopwatch` so determinism stays auditable at the
/// token level.
pub const CLOCK_EXEMPT_PATHS: &[&str] = &["crates/telemetry/src/", "crates/leased/src/metrics.rs"];

/// A rule family.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Nondeterministic containers / clocks / RNG in library code.
    Determinism,
    /// Panicking constructs in library code.
    Panic,
    /// Narrowing `as` casts in the engine hot path.
    Cast,
    /// Any `unsafe` token, anywhere.
    Unsafe,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: &'static [Family] = &[
        Family::Determinism,
        Family::Panic,
        Family::Cast,
        Family::Unsafe,
    ];

    /// The stable slug used in findings JSON, baselines, and waivers.
    pub fn slug(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::Panic => "panic",
            Family::Cast => "cast",
            Family::Unsafe => "unsafe",
        }
    }

    /// Parses a waiver's family slug.
    pub fn from_slug(slug: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.slug() == slug)
    }
}

/// Which rule families apply to a file, derived from its root-relative
/// path.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FileClass {
    /// Non-test, non-bench, non-binary library code (`src/**` minus
    /// `src/bin/**`): the `panic` and `determinism` families apply.
    pub library: bool,
    /// Library code in the engine hot path: `cast` applies.
    pub engine: bool,
    /// A [`CLOCK_EXEMPT_PATHS`] file: the `determinism` family skips its
    /// clock check.
    pub clock_exempt: bool,
}

/// Classifies a root-relative path (forward slashes). The `unsafe` family
/// applies to every scanned file regardless of class.
pub fn classify(rel: &str) -> FileClass {
    let non_library_dir = rel
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
    let in_src = rel.starts_with("src/") || rel.contains("/src/");
    let in_bin = rel.starts_with("src/bin/") || rel.contains("/src/bin/");
    let library = in_src && !in_bin && !non_library_dir;
    let engine = library && rel.starts_with(ENGINE_HOT_PATH);
    let clock_exempt = CLOCK_EXEMPT_PATHS.iter().any(|p| {
        if p.ends_with(".rs") {
            rel == *p
        } else {
            rel.starts_with(p)
        }
    });
    FileClass {
        library,
        engine,
        clock_exempt,
    }
}

/// The findings (and waiver count) of one scanned file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScanOutcome {
    /// Unwaived findings in token order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a matching `lint:allow` waiver.
    pub waived: usize,
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
/// Cast targets that can truncate: the fixed-width small integers, plus
/// `usize` (32-bit on some targets — `u64 as usize` narrows there) and
/// `f32` (loses integer precision beyond 2^24).
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32", "usize"];
/// Identifiers that may legally precede `[` without forming an index
/// expression (`let [a, b] = ...`, `if let [x] = ...`, `in [..]`, etc.).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "as", "return", "if", "else", "match", "move", "dyn", "impl",
    "where", "for", "while", "loop", "break", "continue", "fn", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "async", "await", "yield", "box",
    "unsafe", "extern", "true", "false",
];

/// Scans one file's source and returns its unwaived findings.
///
/// # Errors
///
/// Returns the lexer error when the source fails to tokenize.
pub fn scan_source(rel: &str, source: &str) -> Result<ScanOutcome, syn::Error> {
    let file = syn::parse_file(source)?;
    let class = classify(rel);
    let waivers = collect_waivers(&file.tokens);
    let sig: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    let masked = test_mask(&sig);

    let mut raw: Vec<(Family, usize, usize, String, String)> = Vec::new();
    for (i, &token) in sig.iter().enumerate() {
        let line = token.span.line;
        let column = token.span.column;
        // `unsafe` is flagged everywhere — test modules included.
        if token.is_ident("unsafe") {
            raw.push((
                Family::Unsafe,
                line,
                column,
                "`unsafe` is forbidden workspace-wide (and not waivable)".to_string(),
                token.text.clone(),
            ));
        }
        if masked.get(i).copied().unwrap_or(false) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| sig.get(j).copied());
        let next = sig.get(i + 1).copied();

        if class.library {
            determinism_rule(&sig, i, token, next, class.clock_exempt, &mut raw);
            panic_rule(token, prev, next, &mut raw);
        }
        if class.engine && token.is_ident("as") {
            if let Some(target) = next.filter(|t| {
                t.kind == TokenKind::Ident && NARROWING_TARGETS.contains(&t.text.as_str())
            }) {
                raw.push((
                    Family::Cast,
                    line,
                    column,
                    format!(
                        "potentially narrowing `as {}` in the engine hot path; use try_into \
                         or document the bound with lint:allow(cast: ...)",
                        target.text
                    ),
                    format!("as {}", target.text),
                ));
            }
        }
    }

    let mut outcome = ScanOutcome::default();
    for (family, line, column, message, excerpt) in raw {
        if family != Family::Unsafe && waiver_covers(&waivers, family, line) {
            outcome.waived += 1;
            continue;
        }
        outcome.findings.push(Finding {
            rule: family.slug().to_string(),
            file: rel.to_string(),
            line,
            column,
            message,
            excerpt,
        });
    }
    Ok(outcome)
}

fn determinism_rule(
    sig: &[&Token],
    i: usize,
    token: &Token,
    next: Option<&Token>,
    clock_exempt: bool,
    raw: &mut Vec<(Family, usize, usize, String, String)>,
) {
    let (line, column) = (token.span.line, token.span.column);
    if token.is_ident("HashMap") || token.is_ident("HashSet") {
        // `HashMap<K, V, S>` / `HashSet<T, S>` with an explicit hasher is
        // the deterministic-hasher idiom (FxHashMap) — allowed.
        let hasher_commas = if token.is_ident("HashMap") { 2 } else { 1 };
        let open = match next {
            Some(t) if t.is_punct('<') => Some(i + 1),
            // Turbofish: `HashMap::<K, V, S>`.
            Some(t)
                if t.is_punct(':')
                    && sig.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && sig.get(i + 3).is_some_and(|t| t.is_punct('<')) =>
            {
                Some(i + 3)
            }
            _ => None,
        };
        let explicit_hasher =
            open.and_then(|o| generic_args_commas(sig, o)).unwrap_or(0) >= hasher_commas;
        if !explicit_hasher {
            raw.push((
                Family::Determinism,
                line,
                column,
                format!(
                    "std `{}` iterates in nondeterministic order in a deterministic-output \
                     path; use FxHashMap/BTreeMap or sort before iterating",
                    token.text
                ),
                token.text.clone(),
            ));
        }
    } else if (token.is_ident("Instant") || token.is_ident("SystemTime")) && !clock_exempt {
        raw.push((
            Family::Determinism,
            line,
            column,
            format!(
                "`{}` reads the wall clock in library code; only crates/telemetry and \
                 the daemon metrics module may name clock types — route timing through \
                 leasing_telemetry::Stopwatch",
                token.text
            ),
            token.text.clone(),
        ));
    } else if token.is_ident("thread_rng") {
        raw.push((
            Family::Determinism,
            line,
            column,
            "`thread_rng` is ambient randomness in a deterministic-output path; derive \
             randomness from the run's seed"
                .to_string(),
            token.text.clone(),
        ));
    }
}

fn panic_rule(
    token: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    raw: &mut Vec<(Family, usize, usize, String, String)>,
) {
    let (line, column) = (token.span.line, token.span.column);
    if token.kind == TokenKind::Ident
        && PANIC_METHODS.contains(&token.text.as_str())
        && prev.is_some_and(|t| t.is_punct('.'))
        && next.is_some_and(|t| t.is_punct('('))
    {
        raw.push((
            Family::Panic,
            line,
            column,
            format!(
                "`.{}()` panics in library code; return a typed error (or waive with \
                 lint:allow(panic: ...))",
                token.text
            ),
            format!(".{}()", token.text),
        ));
    } else if token.kind == TokenKind::Ident
        && PANIC_MACROS.contains(&token.text.as_str())
        && next.is_some_and(|t| t.is_punct('!'))
    {
        raw.push((
            Family::Panic,
            line,
            column,
            format!("`{}!` panics in library code", token.text),
            format!("{}!", token.text),
        ));
    } else if token.is_punct('[') {
        let indexes = match prev {
            Some(t) if t.kind == TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&t.text.as_str()),
            Some(t) => t.is_punct(')') || t.is_punct(']'),
            None => false,
        };
        if indexes {
            let base = prev.map(|t| t.text.clone()).unwrap_or_default();
            raw.push((
                Family::Panic,
                line,
                column,
                "slice/array indexing panics out of bounds in library code; prefer `.get()` \
                 (or waive with lint:allow(panic: ...))"
                    .to_string(),
                format!("{base}[..]"),
            ));
        }
    }
}

/// Counts top-level commas inside the angle-bracket group opening at
/// `sig[open]`, ignoring commas nested in deeper `<>`, `()`, or `[]`.
/// `None` when the group never closes (or runs away).
fn generic_args_commas(sig: &[&Token], open: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut round = 0i32;
    let mut square = 0i32;
    let mut commas = 0usize;
    for (steps, token) in sig.iter().skip(open).enumerate() {
        if steps > 256 {
            return None;
        }
        match token.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => {
                angle -= 1;
                if angle == 0 {
                    return Some(commas);
                }
            }
            TokenKind::Punct('(') => round += 1,
            TokenKind::Punct(')') => round -= 1,
            TokenKind::Punct('[') => square += 1,
            TokenKind::Punct(']') => square -= 1,
            TokenKind::Punct(',') if angle == 1 && round == 0 && square == 0 => commas += 1,
            TokenKind::Punct(';') => return None, // statement ended: was a comparison
            _ => {}
        }
    }
    None
}

/// Marks every significant token belonging to an item annotated with a
/// `test`-mentioning attribute (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]`) — those regions are exempt from every family
/// except `unsafe`.
fn test_mask(sig: &[&Token]) -> Vec<bool> {
    let mut mask = vec![false; sig.len()];
    let mut i = 0usize;
    while let Some(token) = sig.get(i) {
        let attr_open = token.is_punct('#') && sig.get(i + 1).is_some_and(|t| t.is_punct('['));
        if !attr_open {
            i += 1;
            continue;
        }
        let Some(close) = matching_square(sig, i + 1) else {
            break;
        };
        let mentions_test = (i + 2..close)
            .filter_map(|j| sig.get(j))
            .any(|t| t.is_ident("test"));
        if !mentions_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut item_start = close + 1;
        while sig.get(item_start).is_some_and(|t| t.is_punct('#'))
            && sig.get(item_start + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching_square(sig, item_start + 1) {
                Some(c) => item_start = c + 1,
                None => break,
            }
        }
        let end = item_end(sig, item_start);
        for slot in mask.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    mask
}

/// Index of the `]` matching the `[` at `sig[open]`.
fn matching_square(sig: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (offset, token) in sig.iter().skip(open).enumerate() {
        match token.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + offset);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the token ending the item starting at `start`: the `;` of a
/// braceless item or the `}` closing its body.
fn item_end(sig: &[&Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (offset, token) in sig.iter().skip(start).enumerate() {
        match token.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth <= 0 {
                    return start + offset;
                }
            }
            TokenKind::Punct(';') if depth == 0 => return start + offset,
            _ => {}
        }
    }
    sig.len().saturating_sub(1)
}

/// Extracts `lint:allow(family: reason)` waivers from comment tokens,
/// keyed by the comment's line. A waiver needs a non-empty reason;
/// `unsafe` waivers are ignored.
fn collect_waivers(tokens: &[Token]) -> BTreeMap<usize, Vec<Family>> {
    let mut map: BTreeMap<usize, Vec<Family>> = BTreeMap::new();
    for token in tokens.iter().filter(|t| t.is_comment()) {
        let mut rest = token.text.as_str();
        while let Some((_, after)) = rest.split_once("lint:allow(") {
            let Some((inner, tail)) = after.split_once(')') else {
                break;
            };
            rest = tail;
            let Some((slug, reason)) = inner.split_once(':') else {
                continue;
            };
            let Some(family) = Family::from_slug(slug.trim()) else {
                continue;
            };
            if family != Family::Unsafe && !reason.trim().is_empty() {
                map.entry(token.span.line).or_default().push(family);
            }
        }
    }
    map
}

/// A waiver covers findings on its own line (trailing comment) and on the
/// line directly below (comment above the offending code).
fn waiver_covers(waivers: &BTreeMap<usize, Vec<Family>>, family: Family, line: usize) -> bool {
    [Some(line), line.checked_sub(1)]
        .into_iter()
        .flatten()
        .any(|l| waivers.get(&l).is_some_and(|fams| fams.contains(&family)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> ScanOutcome {
        scan_source(rel, src).expect("fixture sources lex")
    }

    fn slugs(outcome: &ScanOutcome) -> Vec<&str> {
        outcome.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn classification_by_path() {
        assert!(classify("crates/core/src/engine/ledger.rs").engine);
        assert!(classify("crates/core/src/engine/ledger.rs").library);
        assert!(classify("crates/bench/src/gate.rs").library);
        assert!(!classify("crates/bench/src/bin/simlab.rs").library);
        assert!(!classify("crates/core/tests/engine.rs").library);
        assert!(!classify("crates/bench/benches/bench_driver.rs").library);
        assert!(!classify("examples/quickstart.rs").library);
        assert!(classify("src/lib.rs").library);
        assert!(!classify("src/lib.rs").engine);
    }

    #[test]
    fn wall_clock_class_covers_library_code_minus_the_telemetry_layer() {
        // Ordinary library code: the clock check applies.
        for rel in [
            "crates/leased/src/server.rs",
            "crates/facility/src/lib.rs",
            "crates/core/src/engine/ledger.rs",
        ] {
            let class = classify(rel);
            assert!(class.library && !class.clock_exempt, "{rel}");
        }
        // The telemetry crate and the daemon metrics module own the clock.
        assert!(classify("crates/telemetry/src/clock.rs").clock_exempt);
        assert!(classify("crates/leased/src/metrics.rs").clock_exempt);
        // Non-library code is out of scope entirely.
        assert!(!classify("crates/bench/src/bin/loadgen.rs").library);
        assert!(!classify("crates/leased/tests/daemon.rs").library);
    }

    #[test]
    fn determinism_family_covers_every_library_file() {
        // Algorithm crates and the daemon get the whole family.
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); let t = Instant::now(); }";
        for rel in [
            "crates/facility/src/online.rs",
            "crates/leased/src/server.rs",
        ] {
            let class = classify(rel);
            assert!(class.library && !class.clock_exempt, "{rel}");
            assert_eq!(slugs(&scan(rel, src)), vec!["determinism"; 3], "{rel}");
        }
        // The telemetry clock is exempt from the clock check only.
        assert!(classify("crates/telemetry/src/clock.rs").clock_exempt);
        let outcome = scan("crates/telemetry/src/clock.rs", src);
        let excerpts: Vec<&str> = outcome
            .findings
            .iter()
            .map(|f| f.excerpt.as_str())
            .collect();
        assert_eq!(excerpts, vec!["HashMap"; 2]);
    }

    #[test]
    fn wall_clock_rule_flags_clock_types_outside_the_telemetry_layer() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let outcome = scan("crates/leased/src/server.rs", src);
        assert_eq!(slugs(&outcome), vec!["determinism"; 2]);
        assert!(outcome
            .findings
            .first()
            .is_some_and(|f| f.message.contains("Stopwatch")));
        // Exempt paths and test regions stay silent.
        assert_eq!(scan("crates/telemetry/src/clock.rs", src).findings, vec![]);
        assert_eq!(scan("crates/leased/src/metrics.rs", src).findings, vec![]);
        let masked = "#[cfg(test)]\nmod tests { fn t() { let _ = Instant::now(); } }\n";
        assert_eq!(scan("crates/leased/src/server.rs", masked).findings, vec![]);
        // Waivers apply like any determinism finding.
        let waived = "// lint:allow(determinism: operator-facing uptime label)\n\
                      fn f() { let t = Instant::now(); }\n";
        let outcome = scan("crates/leased/src/server.rs", waived);
        assert_eq!(outcome.findings, vec![]);
        assert_eq!(outcome.waived, 1);
    }

    #[test]
    fn determinism_flags_std_maps_but_not_hashed_aliases() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u32, (u8, u8)> = HashMap::new(); }\n\
                   type Fx<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;\n\
                   fn g() -> HashMap<String, Vec<u32>, S> { HashMap::<K, V, S>::default() }\n";
        let outcome = scan("crates/core/src/x.rs", src);
        // Flagged: the bare import, the annotated binding, `HashMap::new`.
        // Allowed: both three-argument forms and the turbofish.
        assert_eq!(slugs(&outcome), vec!["determinism"; 3]);
        // Binaries are out of scope.
        assert_eq!(scan("crates/bench/src/bin/x.rs", src).findings, Vec::new());
    }

    #[test]
    fn determinism_flags_clocks_and_ambient_rng() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); \
                   let r = thread_rng(); }";
        let outcome = scan("crates/simlab/src/x.rs", src);
        assert_eq!(slugs(&outcome), vec!["determinism"; 3]);
    }

    #[test]
    fn panic_family_flags_methods_macros_and_indexing() {
        let src = "fn f(v: &[u32]) -> u32 {\n\
                   let a = v.first().unwrap();\n\
                   let b = v.get(1).expect(\"b\");\n\
                   if *a > 3 { panic!(\"boom\") }\n\
                   assert_eq!(a, b);\n\
                   v[0] + m(v)[1]\n\
                   }\n";
        let outcome = scan("crates/facility/src/x.rs", src);
        assert_eq!(
            slugs(&outcome),
            vec!["panic", "panic", "panic", "panic", "panic", "panic"]
        );
        // Binaries, tests, and benches are exempt.
        assert_eq!(scan("crates/bench/src/bin/x.rs", src).findings, Vec::new());
        assert_eq!(scan("crates/facility/tests/x.rs", src).findings, Vec::new());
    }

    #[test]
    fn panic_family_ignores_non_panicking_lookalikes() {
        let src = "fn f(v: &[u32]) -> Option<u32> {\n\
                   let x: [u32; 4] = [0; 4];\n\
                   let [a, b] = split(v)?;\n\
                   let _ = v.get(0).copied().unwrap_or(7);\n\
                   let _ = vec![1, 2];\n\
                   #[derive(Clone)] struct S;\n\
                   debug_assert!(a <= b);\n\
                   v.get(0).copied()\n\
                   }\n";
        let outcome = scan("crates/facility/src/x.rs", src);
        assert_eq!(outcome.findings, Vec::new());
    }

    #[test]
    fn test_regions_are_exempt_from_panic_and_determinism() {
        let src = "fn lib() -> u32 { 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   use std::collections::HashMap;\n\
                   #[test]\n\
                   fn t() { let m: HashMap<u32, u32> = HashMap::new(); m.get(&1).unwrap(); }\n\
                   }\n";
        let outcome = scan("crates/core/src/x.rs", src);
        assert_eq!(outcome.findings, Vec::new());
        // ... but a test fn *above* library code must not mask what follows.
        let src2 = "#[cfg(test)]\nfn t() { x.unwrap(); }\nfn lib(y: R) { y.unwrap(); }\n";
        let outcome2 = scan("crates/core/src/x.rs", src2);
        assert_eq!(slugs(&outcome2), vec!["panic"]);
        assert_eq!(outcome2.findings.first().map(|f| f.line), Some(3));
    }

    #[test]
    fn cast_rule_is_engine_only_and_narrowing_only() {
        let src = "fn f(x: usize, t: u64) -> u32 { (x % 7) as u32 + t as usize as u32 + \
                   (x as u64 as f64) as u32 }";
        let engine = scan("crates/core/src/engine/x.rs", src);
        // as u32 (x3), as usize — but not as u64 / as f64.
        assert_eq!(slugs(&engine), vec!["cast"; 4]);
        let elsewhere = scan("crates/core/src/lease.rs", src);
        assert_eq!(elsewhere.findings, Vec::new());
    }

    #[test]
    fn waivers_suppress_their_family_on_their_line_and_the_next() {
        let src = "fn f(v: &[u32]) -> u32 {\n\
                   // lint:allow(panic: v is non-empty by construction)\n\
                   let a = v.first().unwrap();\n\
                   let b = v.get(1).unwrap(); // lint:allow(panic: checked above)\n\
                   // lint:allow(panic: )\n\
                   let c = v.get(2).unwrap();\n\
                   // lint:allow(determinism: wrong family)\n\
                   let d = v.get(3).unwrap();\n\
                   *a + b + c + d\n\
                   }\n";
        let outcome = scan("crates/facility/src/x.rs", src);
        // Empty-reason and wrong-family waivers do not suppress.
        assert_eq!(slugs(&outcome), vec!["panic", "panic"]);
        assert_eq!(outcome.waived, 2);
    }

    #[test]
    fn unsafe_is_flagged_everywhere_and_unwaivable() {
        let src = "// lint:allow(unsafe: nope)\n\
                   unsafe fn f() {}\n\
                   #[cfg(test)]\nmod tests { fn t() { unsafe { core::hint::unreachable_unchecked() } } }\n";
        for rel in [
            "crates/core/src/engine/x.rs",
            "crates/bench/src/bin/x.rs",
            "crates/facility/tests/x.rs",
        ] {
            let outcome = scan(rel, src);
            assert_eq!(slugs(&outcome), vec!["unsafe"; 2], "{rel}");
            assert_eq!(outcome.waived, 0, "{rel}");
        }
    }

    #[test]
    fn findings_carry_positions_and_excerpts() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
        let outcome = scan("crates/facility/src/x.rs", src);
        let finding = outcome.findings.first().expect("one finding");
        assert_eq!(finding.line, 2);
        assert_eq!(finding.column, 7);
        assert_eq!(finding.excerpt, ".unwrap()");
        assert!(finding.message.contains("typed error"));
    }
}

//! The rule catalogue: R1–R5 plus the sanction-syntax meta rule.
//!
//! Each rule is a pure function from a [`FileCtx`] (or, for the
//! workspace-level rules, a set of them) to diagnostics. Rules skip
//! `#[cfg(test)]` regions where noted and honour per-site
//! `// lint:allow(<rule>) — <reason>` sanctions; a sanction without a
//! reason suppresses nothing (and is itself flagged by `lint-syntax`).

use crate::context::FileCtx;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::LintConfig;

/// Rule ids with one-line summaries (also rendered in the JSON report).
pub const RULES: &[(&str, &str)] = &[
    (
        "determinism",
        "no HashMap/HashSet iteration or wall-clock reads in deterministic crates (R1)",
    ),
    (
        "rng-tags",
        "Prng::derive first tag element must be a named registry constant; registry values pairwise-distinct (R2)",
    ),
    (
        "float-fold",
        "f32/f64 reductions only inside sanctioned fold helpers in aggregation code (R3)",
    ),
    (
        "unsafe",
        "every unsafe block/fn carries a SAFETY comment; unsafe-free crates forbid unsafe_code (R4)",
    ),
    (
        "panic",
        "no unwrap/expect/panic! in library code without a reasoned sanction (R5)",
    ),
    (
        "lint-syntax",
        "lint:allow sanctions must name known rules and give a reason",
    ),
];

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Emit `d` unless a sanction covers (rule, line).
fn push(out: &mut Vec<Diagnostic>, ctx: &FileCtx, rule: &'static str, line: u32, message: String) {
    if !ctx.sanctioned(rule, line) {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line,
            rule,
            message,
        });
    }
}

/// Meta rule: malformed sanctions (no reason, no rules, unknown rule id).
pub fn lint_syntax(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for s in &ctx.sanctions {
        if !s.has_reason {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: s.at,
                rule: "lint-syntax",
                message: "lint:allow sanction has no reason; write `// lint:allow(rule) — why`"
                    .into(),
            });
        }
        if s.rules.is_empty() && s.has_reason {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: s.at,
                rule: "lint-syntax",
                message: "lint:allow sanction names no rules".into(),
            });
        }
        for r in &s.rules {
            if !known_rule(r) {
                out.push(Diagnostic {
                    file: ctx.rel.clone(),
                    line: s.at,
                    rule: "lint-syntax",
                    message: format!("lint:allow names unknown rule `{r}`"),
                });
            }
        }
    }
}

/// R1 — determinism: no `HashMap`/`HashSet` *iteration* (keyed access stays
/// legal) in the deterministic crates, and no `SystemTime`/`Instant`
/// outside the bench crate.
pub fn determinism(ctx: &FileCtx, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    let deterministic = cfg.deterministic_crates.contains(&ctx.crate_name);
    let time_exempt = cfg.time_exempt_crates.contains(&ctx.crate_name);

    if !time_exempt {
        for (i, tok) in t.iter().enumerate() {
            if tok.kind == TokenKind::Ident
                && (tok.text == "SystemTime" || tok.text == "Instant")
                && !ctx.in_test_code(i)
            {
                push(
                    out,
                    ctx,
                    "determinism",
                    tok.line,
                    format!(
                        "std::time::{} breaks run reproducibility; simulated time goes through \
                         VirtualClock (wall-clock reads are bench-crate-only)",
                        tok.text
                    ),
                );
            }
        }
    }
    if !deterministic {
        return;
    }

    // names bound to HashMap/HashSet via `name: HashMap<..>` ascription
    // (let bindings, struct fields, closure params) or
    // `name = HashMap::new()/with_capacity(..)`
    let mut maps: Vec<String> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokenKind::Ident || (tok.text != "HashMap" && tok.text != "HashSet") {
            continue;
        }
        // walk back over path/reference noise to a possible `name :`
        let mut j = i;
        while j > 0 {
            let p = &t[j - 1].text;
            if p == "::" || p == "std" || p == "collections" || p == "&" || p == "mut" {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && t[j - 1].text == ":" && t[j - 2].kind == TokenKind::Ident {
            maps.push(t[j - 2].text.clone());
        }
        // `= HashMap::new(` / `with_capacity(` / `from(`
        if i + 2 < t.len() && t[i + 1].text == "::" && t[i + 2].kind == TokenKind::Ident {
            let ctor = &t[i + 2].text;
            if (ctor == "new" || ctor == "with_capacity" || ctor == "from")
                && j >= 2
                && t[j - 1].text == "="
                && t[j - 2].kind == TokenKind::Ident
            {
                maps.push(t[j - 2].text.clone());
            }
        }
    }
    maps.sort_unstable();
    maps.dedup();

    const ITER_METHODS: [&str; 7] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
    ];
    for i in 0..t.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        // name.iter() / name.keys() / …
        if i + 3 < t.len()
            && t[i].kind == TokenKind::Ident
            && maps.iter().any(|m| *m == t[i].text)
            && t[i + 1].text == "."
            && ITER_METHODS.contains(&t[i + 2].text.as_str())
            && t[i + 3].text == "("
        {
            push(
                out,
                ctx,
                "determinism",
                t[i].line,
                format!(
                    "`{}.{}()` iterates a Hash{{Map,Set}} in arbitrary order; keyed access is \
                     fine, iteration must go through a sorted/BTree view",
                    t[i].text,
                    t[i + 2].text
                ),
            );
        }
        // for x in &name { … }
        if t[i].kind == TokenKind::Ident && t[i].text == "for" {
            // find the `in` of this for-loop, then the loop `{`
            let mut j = i + 1;
            while j < t.len() && t[j].text != "in" && t[j].text != "{" && t[j].text != ";" {
                j += 1;
            }
            if j >= t.len() || t[j].text != "in" {
                continue;
            }
            let mut k = j + 1;
            while k < t.len() && t[k].text != "{" {
                if t[k].kind == TokenKind::Ident
                    && maps.iter().any(|m| *m == t[k].text)
                    && t.get(k + 1).map(|n| n.text != ".").unwrap_or(true)
                {
                    push(
                        out,
                        ctx,
                        "determinism",
                        t[k].line,
                        format!(
                            "`for … in {}` iterates a Hash{{Map,Set}} in arbitrary order",
                            t[k].text
                        ),
                    );
                }
                k += 1;
            }
        }
    }
}

/// R2 (call-site half) — every `Prng::derive(seed, &[…])` first element
/// must be a named SCREAMING_SNAKE constant, never an inline literal.
pub fn rng_tags_call_sites(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    for i in 0..t.len().saturating_sub(3) {
        if !(t[i].text == "Prng"
            && t[i + 1].text == "::"
            && t[i + 2].text == "derive"
            && t[i + 3].text == "(")
        {
            continue;
        }
        if ctx.in_test_code(i) {
            continue;
        }
        // scan the argument list for the `&[` opening the tag slice
        let mut j = i + 4;
        let mut depth = 1i32; // inside the call parens
        let mut slice_start = None;
        while j < t.len() && depth > 0 {
            match t[j].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                "&" if depth == 1 && t.get(j + 1).map(|n| n.text == "[").unwrap_or(false) => {
                    slice_start = Some(j + 2);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(s) = slice_start else {
            // tags passed as a variable — nothing checkable at token level
            continue;
        };
        // first element: tokens until `,` or `]` at slice depth
        let mut k = s;
        let mut d = 0i32;
        let mut elem: Vec<&crate::lexer::Token> = Vec::new();
        while k < t.len() {
            let tx = t[k].text.as_str();
            if d == 0 && (tx == "," || tx == "]") {
                break;
            }
            match tx {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                _ => {}
            }
            elem.push(&t[k]);
            k += 1;
        }
        let line = t[i].line;
        let ok = !elem.is_empty()
            && elem
                .iter()
                .all(|e| e.kind == TokenKind::Ident || e.text == "::")
            && elem
                .last()
                .map(|e| {
                    let s = &e.text;
                    s.len() > 1
                        && s.chars().any(|c| c.is_ascii_uppercase())
                        && !s.chars().any(|c| c.is_ascii_lowercase())
                })
                .unwrap_or(false);
        if !ok {
            let rendered: String = elem.iter().map(|e| e.text.as_str()).collect();
            push(
                out,
                ctx,
                "rng-tags",
                line,
                format!(
                    "first Prng::derive tag element `{rendered}` is not a named rng_tags \
                     constant; inline tags invite silent stream collisions"
                ),
            );
        }
    }
}

/// R2 (registry half) — `pub const NAME: u64 = …;` values in the registry
/// file must be pairwise-distinct.
pub fn rng_tags_registry(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    let mut seen: Vec<(String, u64, u32)> = Vec::new();
    for i in 0..t.len().saturating_sub(5) {
        if !(t[i].text == "const"
            && t[i + 1].kind == TokenKind::Ident
            && t[i + 2].text == ":"
            && t[i + 3].text == "u64"
            && t[i + 4].text == "="
            && t[i + 5].kind == TokenKind::Num)
        {
            continue;
        }
        let name = t[i + 1].text.clone();
        let lit = t[i + 5].text.replace('_', "");
        let value = if let Some(hex) = lit.strip_prefix("0x").or_else(|| lit.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            lit.parse::<u64>().ok()
        };
        let Some(value) = value else { continue };
        if let Some((prev, _, _)) = seen.iter().find(|(_, v, _)| *v == value) {
            push(
                out,
                ctx,
                "rng-tags",
                t[i + 5].line,
                format!(
                    "registry tag {name} collides with {prev} on {value:#x}; colliding tags \
                     silently correlate their derived streams"
                ),
            );
        }
        seen.push((name, value, t[i + 5].line));
    }
}

/// R3 — float-fold discipline: in aggregation code, `.sum()` / `.fold(` /
/// `+=`-in-loop reductions live only inside the sanctioned fold helpers,
/// because reassociating a sum is exactly how golden fixtures break.
pub fn float_fold(ctx: &FileCtx, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !cfg.float_fold_paths.iter().any(|p| ctx.rel.contains(p)) {
        return;
    }
    let t = ctx.tokens;
    let in_sanctioned_fn = |i: usize| -> bool {
        ctx.enclosing_fn(i).is_some_and(|f| {
            cfg.sanctioned_fold_fns.contains(&f.name)
                || f.name.ends_with("_sweep")
                || cfg
                    .sanctioned_fold_methods
                    .iter()
                    .any(|(ty, m)| *m == f.name && f.impl_type.as_deref() == Some(ty.as_str()))
        })
    };
    // loop body spans, for the `+=` check
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for i in 0..t.len() {
        if t[i].kind == TokenKind::Ident
            && (t[i].text == "for" || t[i].text == "while" || t[i].text == "loop")
        {
            let mut j = i + 1;
            let mut paren = 0i32;
            while j < t.len() {
                match t[j].text.as_str() {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "{" if paren == 0 => break,
                    ";" if paren == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < t.len() && t[j].text == "{" {
                let mut depth = 0usize;
                let mut k = j;
                while k < t.len() {
                    match t[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                loops.push((j, k));
            }
        }
    }
    let in_loop = |i: usize| loops.iter().any(|&(s, e)| i > s && i < e);

    for i in 0..t.len() {
        if ctx.in_test_code(i) || in_sanctioned_fn(i) {
            continue;
        }
        // .sum( / .sum::< / .fold(
        if t[i].text == "."
            && i + 2 < t.len()
            && t[i + 1].kind == TokenKind::Ident
            && (t[i + 1].text == "sum" || t[i + 1].text == "fold")
            && (t[i + 2].text == "(" || t[i + 2].text == "::")
        {
            push(
                out,
                ctx,
                "float-fold",
                t[i + 1].line,
                format!(
                    "`.{}(…)` reduction outside the sanctioned fold helpers; a reassociated \
                     float sum breaks the golden fixtures — route through \
                     weighted_param_average / ServerFold / a *_sweep kernel or sanction with \
                     a reason",
                    t[i + 1].text
                ),
            );
        }
        // `+=` accumulation inside a loop, when the statement shows float
        // evidence: a deref LHS (`*d += …` — the param-slice fold pattern)
        // or an RHS mentioning f32/f64/a float literal. Integer counters
        // (`samples += batch`) carry no reassociation hazard and pass.
        if t[i].text == "+=" && in_loop(i) {
            let stmt_start = (0..i)
                .rev()
                .find(|&j| t[j].text == ";" || t[j].text == "{" || t[j].text == "}")
                .map(|j| j + 1)
                .unwrap_or(0);
            let deref_lhs = t.get(stmt_start).map(|s| s.text == "*").unwrap_or(false);
            let mut float_rhs = false;
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < t.len() {
                match t[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    "f32" | "f64" => float_rhs = true,
                    _ => {
                        if t[j].kind == TokenKind::Num && t[j].text.contains('.') {
                            float_rhs = true;
                        }
                    }
                }
                j += 1;
            }
            if deref_lhs || float_rhs {
                push(
                    out,
                    ctx,
                    "float-fold",
                    t[i].line,
                    "float `+=` accumulation in a loop outside the sanctioned fold helpers; \
                     fold order is part of the reproducibility contract"
                        .to_string(),
                );
            }
        }
    }
}

/// R4 (site half) — every `unsafe` block / fn / impl is immediately
/// preceded by a `SAFETY` comment (`// SAFETY: …` or a `# Safety` doc
/// section).
pub fn unsafe_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    for i in 0..t.len() {
        if !(t[i].kind == TokenKind::Ident && t[i].text == "unsafe") {
            continue;
        }
        let next = t.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
        let (what, window) = match next {
            "{" => ("block", 8),
            "fn" => ("fn", 10),
            "impl" => ("impl", 10),
            _ => continue,
        };
        let line = t[i].line;
        let documented = ctx.comments.iter().any(|c| {
            c.end_line <= line
                && c.end_line + window > line
                && (c.text.contains("SAFETY") || c.text.contains("# Safety"))
        });
        if !documented {
            push(
                out,
                ctx,
                "unsafe",
                line,
                format!(
                    "`unsafe` {what} without an immediately-preceding `// SAFETY:` comment \
                     (or `# Safety` doc section) stating the proof obligation"
                ),
            );
        }
    }
}

/// Does this file's token stream contain real `unsafe` code?
pub fn has_unsafe(ctx: &FileCtx) -> bool {
    ctx.tokens.iter().enumerate().any(|(i, tok)| {
        tok.kind == TokenKind::Ident
            && tok.text == "unsafe"
            && ctx
                .tokens
                .get(i + 1)
                .map(|n| n.text == "{" || n.text == "fn" || n.text == "impl" || n.text == "trait")
                .unwrap_or(false)
    })
}

/// Does this (crate-root) file carry `#![forbid(unsafe_code)]`?
pub fn forbids_unsafe(ctx: &FileCtx) -> bool {
    let t = ctx.tokens;
    (0..t.len().saturating_sub(2))
        .any(|i| t[i].text == "forbid" && t[i + 1].text == "(" && t[i + 2].text == "unsafe_code")
}

/// R5 — panic hygiene: no `.unwrap()` / `.expect(` / `panic!` in library
/// code (bins, benches, examples and test code are exempt).
pub fn panic_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.bin_or_test_path {
        return;
    }
    let t = ctx.tokens;
    for i in 0..t.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        if t[i].text == "."
            && i + 2 < t.len()
            && t[i + 1].kind == TokenKind::Ident
            && (t[i + 1].text == "unwrap" || t[i + 1].text == "expect")
            && t[i + 2].text == "("
        {
            push(
                out,
                ctx,
                "panic",
                t[i + 1].line,
                format!(
                    "`.{}(…)` in library code; return an error (or sanction the genuinely \
                     infallible case with `// lint:allow(panic) — <invariant>`)",
                    t[i + 1].text
                ),
            );
        }
        if t[i].kind == TokenKind::Ident
            && t[i].text == "panic"
            && t.get(i + 1).map(|n| n.text == "!").unwrap_or(false)
        {
            push(
                out,
                ctx,
                "panic",
                t[i].line,
                "`panic!` in library code; return an error (or sanction with a reason)".to_string(),
            );
        }
    }
}

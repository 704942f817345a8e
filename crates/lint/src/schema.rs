//! R6 — checkpoint schema drift.
//!
//! Extracts the serialized field lists of every `#[derive(Serialize/
//! Deserialize)]` struct in the checkpoint source file and compares them
//! against the committed manifest (`results/checkpoint_schema.json`).
//! A layout change without a `CHECKPOINT_VERSION` bump — or a doc comment /
//! error string still advertising the old version — is exactly the drift
//! that turns "snapshot does not fit the layout" errors into silent
//! misloads, so it fails the gate.

use crate::context::FileCtx;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;

/// Everything extracted from the checkpoint source file.
pub struct SchemaInfo {
    /// Value of `CHECKPOINT_VERSION`.
    pub version: u64,
    /// Serialized structs: (name, field names, line of the name).
    pub structs: Vec<(String, Vec<String>, u32)>,
}

/// Extract [`SchemaInfo`] from the checkpoint source, or `None` when the
/// file defines no `CHECKPOINT_VERSION` (then R6 does not apply).
pub fn extract(ctx: &FileCtx) -> Option<SchemaInfo> {
    let t = ctx.tokens;
    let mut version = None;
    for i in 0..t.len() {
        if t[i].kind == TokenKind::Ident && t[i].text == "CHECKPOINT_VERSION" {
            // const CHECKPOINT_VERSION: u32 = 5;
            let mut j = i + 1;
            while j < t.len() && t[j].text != "=" && t[j].text != ";" {
                j += 1;
            }
            if j + 1 < t.len() && t[j].text == "=" && t[j + 1].kind == TokenKind::Num {
                version = t[j + 1].text.replace('_', "").parse::<u64>().ok();
                break;
            }
        }
    }
    let version = version?;

    let mut structs = Vec::new();
    let mut i = 0;
    while i + 1 < t.len() {
        // a `#[derive(… Serialize|Deserialize …)]` attribute
        let is_derive = t[i].text == "#"
            && t[i + 1].text == "["
            && t.get(i + 2).map(|x| x.text == "derive").unwrap_or(false);
        if !is_derive {
            i += 1;
            continue;
        }
        // bracket-match the attribute, noting whether it serializes
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut serialized = false;
        while j < t.len() {
            match t[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                "Serialize" | "Deserialize" => serialized = true,
                _ => {}
            }
            j += 1;
        }
        // skip further attributes to the item
        while j + 1 < t.len() && t[j].text == "#" && t[j + 1].text == "[" {
            let mut depth = 0usize;
            j += 1;
            while j < t.len() {
                match t[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if t.get(j).map(|x| x.text == "pub").unwrap_or(false) {
            j += 1;
        }
        if serialized
            && t.get(j).map(|x| x.text == "struct").unwrap_or(false)
            && t.get(j + 1)
                .map(|x| x.kind == TokenKind::Ident)
                .unwrap_or(false)
        {
            let name = t[j + 1].text.clone();
            // find the body `{`
            let mut k = j + 2;
            while k < t.len() && t[k].text != "{" && t[k].text != ";" {
                k += 1;
            }
            if k < t.len() && t[k].text == "{" {
                structs.push((name, struct_fields(t, k), t[j + 1].line));
            }
        }
        i = j.max(i + 1);
    }
    Some(SchemaInfo { version, structs })
}

/// Field names of the struct body opening at token index `open` (a `{`).
fn struct_fields(t: &[crate::lexer::Token], open: usize) -> Vec<String> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    let mut expecting = false;
    while i < t.len() {
        match t[i].text.as_str() {
            "{" | "(" | "[" => {
                depth += 1;
                if depth == 1 {
                    expecting = true;
                }
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expecting = true,
            "#" if depth == 1 => {
                // field attribute: skip `#[ … ]`
                if t.get(i + 1).map(|x| x.text == "[").unwrap_or(false) {
                    let mut d = 0usize;
                    i += 1;
                    while i < t.len() {
                        match t[i].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            "pub" if depth == 1 => {
                // swallow `pub` and an optional `(crate)` restriction
                if t.get(i + 1).map(|x| x.text == "(").unwrap_or(false) {
                    while i < t.len() && t[i].text != ")" {
                        i += 1;
                    }
                }
            }
            _ => {
                if expecting
                    && depth == 1
                    && t[i].kind == TokenKind::Ident
                    && t.get(i + 1).map(|x| x.text == ":").unwrap_or(false)
                {
                    fields.push(t[i].text.clone());
                    expecting = false;
                }
            }
        }
        i += 1;
    }
    fields
}

/// Render the canonical manifest for `info` (what `lint_gate
/// --update-schema` writes).
pub fn render_manifest(info: &SchemaInfo) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"checkpoint_version\": {},\n", info.version));
    s.push_str("  \"structs\": {\n");
    for (i, (name, fields, _)) in info.structs.iter().enumerate() {
        let list: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
        s.push_str(&format!(
            "    \"{name}\": [{}]{}\n",
            list.join(", "),
            if i + 1 < info.structs.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Run the R6 checks for the checkpoint source `ctx` against the manifest
/// file contents (`None` when the manifest is missing on disk).
pub fn check(ctx: &FileCtx, manifest: Option<&str>, manifest_rel: &str, out: &mut Vec<Diagnostic>) {
    let Some(info) = extract(ctx) else {
        return;
    };
    let push = |out: &mut Vec<Diagnostic>, line: u32, message: String| {
        if !ctx.sanctioned("checkpoint-schema", line) {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line,
                rule: "checkpoint-schema",
                message,
            });
        }
    };

    // 1. the manifest must exist and parse
    let manifest_value = manifest.and_then(|m| serde_json::from_str::<serde_json::Value>(m).ok());
    let Some(mv) = manifest_value else {
        push(
            out,
            1,
            format!(
                "serialized checkpoint layout has no committed manifest; run \
                 `cargo run --release -p fedtrip-bench --bin lint_gate -- --update-schema` \
                 to write {manifest_rel}"
            ),
        );
        doc_checks(ctx, &info, out);
        return;
    };

    // 2. version agreement
    let manifest_version = mv.get("checkpoint_version").and_then(|v| v.as_u64());
    if manifest_version != Some(info.version) {
        push(
            out,
            1,
            format!(
                "CHECKPOINT_VERSION is {} but {manifest_rel} records {:?}; schema changes \
                 must bump the version and regenerate the manifest together",
                info.version, manifest_version
            ),
        );
    }

    // 3. field lists agree both ways
    let empty: &[(String, serde_json::Value)] = &[];
    let manifest_structs = mv
        .get("structs")
        .and_then(|v| v.as_object())
        .unwrap_or(empty);
    for (name, fields, line) in &info.structs {
        let Some((_, mf)) = manifest_structs.iter().find(|(k, _)| k == name) else {
            push(
                out,
                *line,
                format!(
                    "serialized struct {name} is not in {manifest_rel}; bump \
                     CHECKPOINT_VERSION and regenerate the manifest"
                ),
            );
            continue;
        };
        let manifest_fields: Vec<String> = mf
            .as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        if manifest_fields != *fields {
            push(
                out,
                *line,
                format!(
                    "struct {name} fields [{}] drifted from the manifest's [{}]; bump \
                     CHECKPOINT_VERSION and regenerate {manifest_rel}",
                    fields.join(", "),
                    manifest_fields.join(", ")
                ),
            );
        }
    }
    for (name, _) in manifest_structs {
        if !info.structs.iter().any(|(n, _, _)| n == name) {
            push(
                out,
                1,
                format!(
                    "{manifest_rel} records struct {name} which no longer exists in the \
                     checkpoint source; regenerate the manifest"
                ),
            );
        }
    }

    doc_checks(ctx, &info, out);
}

/// Doc-text and string-literal version checks: every `always N` comment
/// must name the current version (the file holds one layout), and no
/// string literal may hardcode a `v<N> layout` phrase (it goes stale the
/// moment the version bumps).
fn doc_checks(ctx: &FileCtx, info: &SchemaInfo, out: &mut Vec<Diagnostic>) {
    let mut push = |line: u32, message: String| {
        if !ctx.sanctioned("checkpoint-schema", line) {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line,
                rule: "checkpoint-schema",
                message,
            });
        }
    };
    for c in ctx.comments {
        for claimed in phrase_numbers(&c.text, "always ") {
            if claimed != info.version {
                push(
                    c.line,
                    format!(
                        "doc says the version field is always {claimed}, but the layout is \
                         version {}; stale version docs mislead checkpoint forensics",
                        info.version
                    ),
                );
            }
        }
    }
    for t in ctx.tokens {
        if t.kind != TokenKind::Str {
            continue;
        }
        for n in phrase_numbers(&t.text, "v") {
            if t.text.contains(&format!("v{n} layout")) {
                push(
                    t.line,
                    format!(
                        "string literal hardcodes \"v{n} layout\"; interpolate \
                         CHECKPOINT_VERSION so the message cannot go stale"
                    ),
                );
            }
        }
    }
}

/// Numbers directly following `prefix` in `text` (`"always 4"` → `[4]`).
fn phrase_numbers(text: &str, prefix: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(prefix) {
        let tail = &rest[pos + prefix.len()..];
        let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() {
            // require a word boundary before the prefix ("v5" yes, "env5" no)
            let boundary = rest[..pos]
                .chars()
                .next_back()
                .map(|c| !c.is_alphanumeric())
                .unwrap_or(true);
            if boundary {
                if let Ok(n) = digits.parse() {
                    out.push(n);
                }
            }
        }
        rest = &rest[pos + prefix.len()..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const SRC: &str = r#"
pub const CHECKPOINT_VERSION: u32 = 5;
/// The version field is always 5.
#[derive(Serialize, Deserialize)]
pub struct Checkpoint {
    pub version: u32,
    pub round: u64,
    pub states: Vec<ClientEntry>,
}
#[derive(Deserialize)]
struct ClientEntry {
    client: usize,
}
struct NotSerialized { x: u32 }
"#;

    #[test]
    fn extracts_version_and_serialized_structs_only() {
        let l = lex(SRC);
        let ctx = FileCtx::new("c.rs".into(), "core".into(), &l);
        let info = extract(&ctx).unwrap();
        assert_eq!(info.version, 5);
        let names: Vec<&str> = info.structs.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["Checkpoint", "ClientEntry"]);
        assert_eq!(info.structs[0].1, ["version", "round", "states"]);
    }

    #[test]
    fn manifest_agreement_is_clean_and_drift_fires() {
        let l = lex(SRC);
        let ctx = FileCtx::new("c.rs".into(), "core".into(), &l);
        let info = extract(&ctx).unwrap();
        let manifest = render_manifest(&info);
        let mut out = Vec::new();
        check(&ctx, Some(&manifest), "m.json", &mut out);
        assert!(out.is_empty(), "clean schema flagged: {out:?}");

        let drifted = manifest.replace("\"round\"", "\"rounds\"");
        check(&ctx, Some(&drifted), "m.json", &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("drifted"));
    }

    #[test]
    fn stale_always_doc_and_hardcoded_layout_string_fire() {
        // one layout per file: an older version number is as stale as a
        // newer one, in a doc comment or in an error string
        let src = SRC.replace("always 5.", "always 4.")
            + "fn f() -> &'static str { \"does not fit the v5 layout\" }\n"
            + "fn g() -> &'static str { \"does not fit the v3 layout\" }\n";
        let l = lex(&src);
        let ctx = FileCtx::new("c.rs".into(), "core".into(), &l);
        let info = extract(&ctx).unwrap();
        let manifest = render_manifest(&info);
        let mut out = Vec::new();
        check(&ctx, Some(&manifest), "m.json", &mut out);
        let msgs: Vec<&str> = out.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(out.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("always 4")));
        assert!(msgs.iter().any(|m| m.contains("v5 layout")));
        assert!(msgs.iter().any(|m| m.contains("v3 layout")));
    }

    #[test]
    fn missing_manifest_fires() {
        let l = lex(SRC);
        let ctx = FileCtx::new("c.rs".into(), "core".into(), &l);
        let mut out = Vec::new();
        check(&ctx, None, "results/checkpoint_schema.json", &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no committed manifest"));
    }
}

//! Stage 2 of the detlint pipeline: a lightweight recursive-descent
//! item/signature parser over the token stream from [`crate::lexer`].
//!
//! detlint v2 needs just enough syntax to build a workspace call graph and
//! check digest completeness — function items (name, parameters, body token
//! range), impl blocks (so methods know their receiver type), struct fields
//! (names and flat type words), and `use` trees (so call sites can resolve
//! imported names). There is deliberately **no expression grammar**: bodies
//! stay opaque token ranges that [`crate::callgraph`] and [`crate::taint`]
//! scan with targeted patterns. The parser never fails — unrecognized
//! constructs are skipped token by token, which keeps the gate robust on any
//! input the lexer accepts.

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{FileClass, FileKind};

/// One parsed function (free function or method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Receiver type when declared inside an `impl` block (`impl T` or
    /// `impl Tr for T` both record `T`).
    pub self_ty: Option<String>,
    /// Inline-module path within the file (`mod a { mod b { fn f } }` →
    /// `["a", "b"]`). The file's own module path is held by [`ParsedFile`].
    pub mods: Vec<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Parameter names with their flat type words (identifier tokens of the
    /// type, in order — enough for receiver-type and `Digest` heuristics).
    pub params: Vec<Param>,
    /// Token index range of the body (exclusive of the outer braces), or
    /// `None` for bodyless trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// Declared under `#[cfg(test)]` (directly or via an enclosing module).
    pub in_cfg_test: bool,
}

/// One function parameter: its binding name and the identifier words of its
/// type (`d: &mut itb_sim::Digest` → name `d`, ty `["mut", "itb_sim", "Digest"]`).
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: Vec<String>,
}

/// One struct with named fields (tuple and unit structs record no fields).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub line: u32,
    pub fields: Vec<FieldItem>,
    pub in_cfg_test: bool,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldItem {
    pub name: String,
    /// Identifier words of the field type, in order.
    pub ty: Vec<String>,
    pub line: u32,
}

/// One leaf of a `use` tree: the name it binds locally and the full path
/// segments it came from (`use itb_sim::engine::run_until as ru` →
/// local `ru`, path `["itb_sim", "engine", "run_until"]`).
#[derive(Debug, Clone)]
pub struct UseImport {
    pub local: String,
    pub path: Vec<String>,
}

/// Everything the later stages need from one file.
#[derive(Debug)]
pub struct ParsedFile {
    pub class: FileClass,
    /// Module path of the file within its crate, derived from the path
    /// (`crates/net/src/network.rs` → `["network"]`; crate roots, bins,
    /// tests, benches and examples are their own roots → `[]`).
    pub module: Vec<String>,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub uses: Vec<UseImport>,
}

/// Keywords that can never open a call or be a callee name.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while",
];

/// Is `text` a Rust keyword (for call-site filtering)?
pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// Derive the in-crate module path from a workspace-relative file path.
fn module_of(class: &FileClass) -> Vec<String> {
    if class.kind != FileKind::Lib {
        // Bins, tests, benches, examples are each their own crate root.
        return Vec::new();
    }
    let rest = class
        .path
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map_or(class.path.as_str(), |(_, rest)| rest);
    let Some(inner) = rest.strip_prefix("src/") else {
        return Vec::new();
    };
    let mut mods: Vec<String> = inner.split('/').map(str::to_string).collect();
    let Some(last) = mods.pop() else {
        return Vec::new();
    };
    match last.as_str() {
        "lib.rs" | "main.rs" | "mod.rs" => {}
        other => mods.push(other.trim_end_matches(".rs").to_string()),
    }
    mods
}

/// Parser state: a cursor over the token stream plus the nesting context
/// (inline modules, impl receiver, cfg(test) depth).
struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: ParsedFile,
    mods: Vec<String>,
    self_ty: Option<String>,
    cfg_test_depth: u32,
}

/// Parse one lexed file into its item skeleton.
pub fn parse_file(class: &FileClass, lexed: &Lexed) -> ParsedFile {
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
        out: ParsedFile {
            class: class.clone(),
            module: module_of(class),
            fns: Vec::new(),
            structs: Vec::new(),
            uses: Vec::new(),
        },
        mods: Vec::new(),
        self_ty: None,
        cfg_test_depth: 0,
    };
    p.items(usize::MAX);
    p.out
}

impl Parser<'_> {
    fn kind(&self, off: usize) -> Option<&TokKind> {
        self.toks.get(self.pos + off).map(|t| &t.kind)
    }

    fn is_ident(&self, off: usize, text: &str) -> bool {
        matches!(self.toks.get(self.pos + off), Some(t) if t.kind == TokKind::Ident && t.text == text)
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        matches!(self.kind(off), Some(TokKind::Punct(p)) if *p == c)
    }

    fn ident_text(&self, off: usize) -> Option<&str> {
        match self.toks.get(self.pos + off) {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// Walk items until `end` (token index) or end of stream. Called for the
    /// file root and recursively for inline `mod` bodies.
    fn items(&mut self, end: usize) {
        while self.pos < self.toks.len().min(end) {
            // `#[...]` attribute: note cfg(test), skip, and remember whether
            // it applies to the next item.
            if self.is_punct(0, '#') && self.is_punct(1, '[') {
                let cfg_test = self.attr_is_cfg_test();
                let after = self.skip_attr();
                if cfg_test {
                    // cfg(test) scopes to the next item: bump the depth for
                    // exactly that item by handling it inline.
                    self.pos = after;
                    self.cfg_test_depth += 1;
                    self.item(end);
                    self.cfg_test_depth -= 1;
                    continue;
                }
                self.pos = after;
                continue;
            }
            self.item(end);
        }
    }

    /// Handle one item (or skip one token when nothing matches).
    fn item(&mut self, end: usize) {
        // Skip any further attributes on this item.
        while self.is_punct(0, '#') && self.is_punct(1, '[') {
            let cfg_test = self.attr_is_cfg_test();
            if cfg_test {
                self.cfg_test_depth += 1;
                let after = self.skip_attr();
                self.pos = after;
                self.item(end);
                self.cfg_test_depth -= 1;
                return;
            }
            self.pos = self.skip_attr();
        }
        if self.pos >= self.toks.len().min(end) {
            return;
        }
        match self.ident_text(0) {
            Some("fn") => self.fn_item(),
            Some("impl") => self.impl_item(end),
            Some("mod") => self.mod_item(end),
            Some("struct") => self.struct_item(),
            Some("use") => self.use_item(),
            Some("trait") => self.trait_item(end),
            _ => self.pos += 1,
        }
    }

    /// Does the `#[...]` attribute at the cursor contain `cfg ( test`?
    fn attr_is_cfg_test(&self) -> bool {
        self.is_ident(2, "cfg") && self.is_punct(3, '(') && self.is_ident(4, "test")
    }

    /// Token index just past the `#[...]` at the cursor.
    fn skip_attr(&self) -> usize {
        let mut j = self.pos + 1;
        let mut depth = 0i32;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// `fn name<...>(params) -> Ret { body }` — record and move past it.
    /// The cursor continues *inside* the body so nested items (and nested
    /// fns) are seen too; the body range still spans the whole outer fn,
    /// which deliberately over-approximates taint for nested definitions.
    fn fn_item(&mut self) {
        let line = self.toks[self.pos].line;
        let Some(name) = self.ident_text(1).map(str::to_string) else {
            self.pos += 1;
            return;
        };
        self.pos += 2;
        // Skip generics `<...>` (angle-depth; `->` cannot appear here).
        if self.is_punct(0, '<') {
            let mut depth = 0i32;
            while self.pos < self.toks.len() {
                match self.toks[self.pos].kind {
                    TokKind::Punct('<') => depth += 1,
                    TokKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            self.pos += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        }
        let params = self.params();
        // Scan to the body `{` or a terminating `;` (trait signature).
        let mut body = None;
        let mut brace_guard = 0usize;
        while self.pos < self.toks.len() {
            match self.toks[self.pos].kind {
                TokKind::Punct(';') => {
                    self.pos += 1;
                    break;
                }
                TokKind::Punct('{') => {
                    let close = self.matching_brace(self.pos);
                    body = Some((self.pos + 1, close));
                    self.pos += 1; // continue inside the body
                    break;
                }
                _ => {}
            }
            self.pos += 1;
            brace_guard += 1;
            if brace_guard > 4096 {
                break; // malformed signature: bail rather than loop
            }
        }
        self.out.fns.push(FnItem {
            name,
            self_ty: self.self_ty.clone(),
            mods: self.mods.clone(),
            line,
            params,
            body,
            in_cfg_test: self.cfg_test_depth > 0,
        });
    }

    /// Parse `(...)` parameter list into [`Param`]s; cursor ends just past
    /// the closing parenthesis.
    fn params(&mut self) -> Vec<Param> {
        let mut out = Vec::new();
        if !self.is_punct(0, '(') {
            return out;
        }
        self.pos += 1;
        let mut depth = 1i32;
        // One parameter: `name :` then type words until `,` at depth 1.
        let mut cur_name: Option<String> = None;
        let mut cur_ty: Vec<String> = Vec::new();
        let mut seen_colon = false;
        while self.pos < self.toks.len() && depth > 0 {
            let t = &self.toks[self.pos];
            match &t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Punct(',') if depth == 1 => {
                    if let Some(name) = cur_name.take() {
                        out.push(Param {
                            name,
                            ty: std::mem::take(&mut cur_ty),
                        });
                    }
                    cur_ty.clear();
                    seen_colon = false;
                }
                TokKind::Punct(':') if depth == 1 => seen_colon = true,
                TokKind::Ident => {
                    if seen_colon {
                        cur_ty.push(t.text.clone());
                    } else if cur_name.is_none() && t.text != "mut" && t.text != "self" {
                        cur_name = Some(t.text.clone());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        if let Some(name) = cur_name.take() {
            out.push(Param { name, ty: cur_ty });
        }
        if self.is_punct(0, ')') {
            self.pos += 1;
        }
        out
    }

    /// `impl<...> Type { ... }` / `impl<...> Trait for Type { ... }` —
    /// records the receiver type, then parses the block's items with that
    /// context.
    fn impl_item(&mut self, end: usize) {
        self.pos += 1;
        // Skip generics.
        if self.is_punct(0, '<') {
            let mut depth = 0i32;
            while self.pos < self.toks.len() {
                match self.toks[self.pos].kind {
                    TokKind::Punct('<') => depth += 1,
                    TokKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            self.pos += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        }
        // Collect path idents up to `{`; the receiver is the last path
        // ident after `for` when present, else the last before any `<`/`{`.
        let mut last_before_for: Option<String> = None;
        let mut last_after_for: Option<String> = None;
        let mut seen_for = false;
        let mut angle = 0i32;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            match &t.kind {
                TokKind::Punct('{') if angle == 0 => break,
                TokKind::Punct(';') => {
                    // `impl Trait for Type;` (rare) — nothing to parse.
                    self.pos += 1;
                    return;
                }
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle = (angle - 1).max(0),
                TokKind::Ident if t.text == "for" && angle == 0 => seen_for = true,
                TokKind::Ident if t.text == "where" && angle == 0 => {}
                TokKind::Ident if angle == 0 => {
                    if seen_for {
                        last_after_for = Some(t.text.clone());
                    } else {
                        last_before_for = Some(t.text.clone());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        if !self.is_punct(0, '{') {
            return;
        }
        let close = self.matching_brace(self.pos);
        self.pos += 1;
        let prev = self.self_ty.take();
        self.self_ty = last_after_for.or(last_before_for);
        self.items(close.min(end));
        self.pos = close.saturating_add(1).min(self.toks.len());
        self.self_ty = prev;
    }

    /// `mod name { ... }` or `mod name;`.
    fn mod_item(&mut self, end: usize) {
        let Some(name) = self.ident_text(1).map(str::to_string) else {
            self.pos += 1;
            return;
        };
        self.pos += 2;
        if self.is_punct(0, ';') {
            self.pos += 1;
            return;
        }
        if !self.is_punct(0, '{') {
            return;
        }
        let close = self.matching_brace(self.pos);
        self.pos += 1;
        let is_test_mod = name == "tests";
        self.mods.push(name);
        if is_test_mod {
            // Inline `mod tests` conventionally sits under #[cfg(test)]; the
            // attribute was already counted when present, and counting the
            // name too keeps fixtures honest either way.
            self.cfg_test_depth += 1;
        }
        self.items(close.min(end));
        if is_test_mod {
            self.cfg_test_depth -= 1;
        }
        self.mods.pop();
        self.pos = close.saturating_add(1).min(self.toks.len());
    }

    /// `struct Name { fields }` / `struct Name(...);` / `struct Name;`.
    fn struct_item(&mut self) {
        let line = self.toks[self.pos].line;
        let Some(name) = self.ident_text(1).map(str::to_string) else {
            self.pos += 1;
            return;
        };
        self.pos += 2;
        // Skip generics and any `where` clause up to `{`, `(` or `;`.
        let mut angle = 0i32;
        while self.pos < self.toks.len() {
            match self.toks[self.pos].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle = (angle - 1).max(0),
                TokKind::Punct('{') if angle == 0 => break,
                TokKind::Punct('(') if angle == 0 => {
                    // Tuple struct: skip to `;`, record no fields.
                    while self.pos < self.toks.len() && !self.is_punct(0, ';') {
                        self.pos += 1;
                    }
                    self.out.structs.push(StructItem {
                        name,
                        line,
                        fields: Vec::new(),
                        in_cfg_test: self.cfg_test_depth > 0,
                    });
                    return;
                }
                TokKind::Punct(';') if angle == 0 => {
                    self.out.structs.push(StructItem {
                        name,
                        line,
                        fields: Vec::new(),
                        in_cfg_test: self.cfg_test_depth > 0,
                    });
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
        if !self.is_punct(0, '{') {
            return;
        }
        let close = self.matching_brace(self.pos);
        self.pos += 1;
        let mut fields = Vec::new();
        // Field grammar inside the braces: [attrs] [pub[(..)]] name : Ty ,
        while self.pos < close.min(self.toks.len()) {
            while self.is_punct(0, '#') && self.is_punct(1, '[') {
                self.pos = self.skip_attr();
            }
            if self.is_ident(0, "pub") {
                self.pos += 1;
                if self.is_punct(0, '(') {
                    let mut d = 0i32;
                    while self.pos < self.toks.len() {
                        match self.toks[self.pos].kind {
                            TokKind::Punct('(') => d += 1,
                            TokKind::Punct(')') => {
                                d -= 1;
                                if d == 0 {
                                    self.pos += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        self.pos += 1;
                    }
                }
            }
            let (Some(fname), true) = (
                self.ident_text(0).map(str::to_string),
                self.is_punct(1, ':'),
            ) else {
                self.pos += 1;
                continue;
            };
            let fline = self.toks[self.pos].line;
            self.pos += 2;
            let mut ty = Vec::new();
            let mut depth = 0i32;
            while self.pos < close.min(self.toks.len()) {
                let t = &self.toks[self.pos];
                match &t.kind {
                    TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct(',') if depth <= 0 => {
                        self.pos += 1;
                        break;
                    }
                    TokKind::Ident => ty.push(t.text.clone()),
                    _ => {}
                }
                self.pos += 1;
            }
            fields.push(FieldItem {
                name: fname,
                ty,
                line: fline,
            });
        }
        self.out.structs.push(StructItem {
            name,
            line,
            fields,
            in_cfg_test: self.cfg_test_depth > 0,
        });
        self.pos = close.saturating_add(1).min(self.toks.len());
    }

    /// `use a::b::{c, d as e, f::*};` — flatten into [`UseImport`] leaves.
    fn use_item(&mut self) {
        self.pos += 1;
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&mut prefix);
        // Consume the trailing `;` when present.
        if self.is_punct(0, ';') {
            self.pos += 1;
        }
    }

    /// One use-tree level; `prefix` is the path accumulated so far.
    fn use_tree(&mut self, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.kind(0) {
                Some(TokKind::Ident) => {
                    let word = self.toks[self.pos].text.clone();
                    self.pos += 1;
                    if word == "as" {
                        // Alias: next ident is the local name for the
                        // current prefix.
                        if let Some(alias) = self.ident_text(0).map(str::to_string) {
                            self.pos += 1;
                            self.out.uses.push(UseImport {
                                local: alias,
                                path: prefix.clone(),
                            });
                            prefix.truncate(depth_at_entry);
                        }
                        continue;
                    }
                    prefix.push(word);
                }
                Some(TokKind::Punct(':')) if self.is_punct(1, ':') => {
                    self.pos += 2;
                    if self.is_punct(0, '{') {
                        self.pos += 1;
                        // Braced group: parse each comma-separated subtree.
                        loop {
                            match self.kind(0) {
                                Some(TokKind::Punct('}')) => {
                                    self.pos += 1;
                                    break;
                                }
                                Some(TokKind::Punct(',')) => self.pos += 1,
                                None => break,
                                _ => {
                                    let mut sub = prefix.clone();
                                    self.use_tree(&mut sub);
                                }
                            }
                        }
                        prefix.truncate(depth_at_entry);
                        return;
                    }
                    if self.is_punct(0, '*') {
                        self.pos += 1;
                        // Glob: record with the `*` marker as local name.
                        self.out.uses.push(UseImport {
                            local: "*".to_string(),
                            path: prefix.clone(),
                        });
                        prefix.truncate(depth_at_entry);
                        return;
                    }
                    continue;
                }
                _ => break,
            }
        }
        if prefix.len() > depth_at_entry {
            if let Some(last) = prefix.last().cloned() {
                self.out.uses.push(UseImport {
                    local: last,
                    path: prefix.clone(),
                });
            }
        }
        prefix.truncate(depth_at_entry);
    }

    /// `trait Name { ... }` — parse the block for method signatures (no
    /// receiver type recorded; trait methods resolve via implementing
    /// types' impl blocks, the trait's own defaults stay name-matched).
    fn trait_item(&mut self, end: usize) {
        self.pos += 1;
        while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
            self.pos += 1;
        }
        if !self.is_punct(0, '{') {
            self.pos += 1;
            return;
        }
        let close = self.matching_brace(self.pos);
        self.pos += 1;
        self.items(close.min(end));
        self.pos = close.saturating_add(1).min(self.toks.len());
    }

    /// Index of the `}` matching the `{` at `open` (or the end of stream).
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.toks.len()
    }
}

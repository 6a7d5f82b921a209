//! Hand-rolled `#[derive(Serialize)]` for the serde shim. No `syn`/`quote`:
//! the token stream is parsed directly, which is enough for the one shape
//! this workspace derives — **named-field structs**, the run trace's
//! records. Anything else panics at compile time with a clear message so the
//! shim is extended rather than silently mis-derived.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Skips a `#[...]` attribute if `tokens[i]` starts one; returns the new i.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skips `pub`, `pub(crate)`, `pub(super)`, ….
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// The struct's name and its field names, in declaration order.
fn parse(input: TokenStream) -> (String, Vec<String>) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);

    match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {}
        other => panic!("serde_derive shim: only named-field structs are supported, got {other:?}"),
    }
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    i += 1;
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => panic!(
            "serde_derive shim: only brace-bodied, non-generic types are supported \
             (deriving `{name}`, found {other:?})"
        ),
    };
    let body: Vec<TokenTree> = body.into_iter().collect();
    (name, parse_named_fields(&body))
}

fn parse_named_fields(body: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        i = skip_attrs(body, i);
        i = skip_vis(body, i);
        let Some(TokenTree::Ident(field)) = body.get(i) else {
            panic!(
                "serde_derive shim: expected field name, got {:?}",
                body.get(i)
            );
        };
        fields.push(field.to_string());
        i += 1;
        match body.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:`, got {other:?}"),
        }
        // Consume the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tok) = body.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // past the comma (or the end)
    }
    fields
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, fields) = parse(input);
    let pushes: String = fields
        .iter()
        .map(|f| {
            format!(
                "fields.push(({f:?}.to_string(), \
                 serde::Serialize::to_json(&self.{f})));\n"
            )
        })
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
             fn to_json(&self) -> serde::Json {{\n\
                 let mut fields: Vec<(String, serde::Json)> = Vec::new();\n\
                 {pushes}\
                 serde::Json::Obj(fields)\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive shim: generated Serialize impl must parse")
}

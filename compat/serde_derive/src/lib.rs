//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for
//! non-generic structs and enums by scanning the raw token stream for the
//! type name (the real `syn`/`quote` stack is unavailable offline). Both
//! emit a marker impl of the vendored `serde` trait.

use proc_macro::{TokenStream, TokenTree};

/// The name of the struct or enum the derive is attached to: the ident
/// after the `struct` / `enum` keyword (attributes and `pub(...)` are
/// groups, so their contents are never scanned).
fn type_name(input: TokenStream) -> String {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    for pair in tokens.windows(2) {
        if let [TokenTree::Ident(keyword), TokenTree::Ident(name)] = pair {
            if keyword.to_string() == "struct" || keyword.to_string() == "enum" {
                return name.to_string();
            }
        }
    }
    panic!("serde stub derive: expected a struct or enum");
}

fn marker_impl(trait_name: &str, input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl ::serde::{trait_name} for {name} {{}}")
        .parse()
        .expect("serde stub derive: generated impl failed to parse")
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    marker_impl("Serialize", input)
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    marker_impl("Deserialize", input)
}

//! Checks that DESIGN.md says what the code does: the first of the
//! `docs_are_true` checks. § "The 27 filters" must name every registry
//! filter, and every method it names in backticks must exist in
//! `crates/core/src`.

use std::path::Path;

use spectral_gnn::core::all_filter_names;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The body of the `## {title}` section of DESIGN.md.
fn design_section(title: &str) -> String {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let heading = format!("## {title}");
    let start = design
        .lines()
        .position(|l| l == heading)
        .unwrap_or_else(|| panic!("DESIGN.md has no `{heading}`"));
    let body = design.lines().skip(start + 1);
    let body: Vec<&str> = body.take_while(|l| !l.starts_with("## ")).collect();
    body.join("\n")
}

/// The method a backticked span names, if it names one: a snake_case
/// identifier with an underscore, a call (`name(…)`), or a path segment
/// (`Type::name`). Single letters and formulas name none.
fn method_name(span: &str) -> Option<&str> {
    let (path, call) = match span.find('(') {
        Some(i) => (&span[..i], true),
        None => (span, false),
    };
    let (qualified, name) = match path.rfind("::") {
        Some(i) => (true, &path[i + 2..]),
        None => (false, path),
    };
    let snake = name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    (snake && (call || qualified || name.contains('_'))).then_some(name)
}

/// Every `fn` name defined in the `.rs` files under `dir`.
fn defined_fns(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            defined_fns(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap();
            for rest in src.split("fn ").skip(1) {
                let name = rest.split(|c: char| !(c.is_alphanumeric() || c == '_'));
                out.extend(name.take(1).map(str::to_string));
            }
        }
    }
}

#[test]
fn the_filters_section_names_every_filter_and_only_real_methods() {
    let section = design_section("The 27 filters (Table 1)");
    let unnamed: Vec<&str> = all_filter_names()
        .into_iter()
        .filter(|name| !section.contains(name))
        .collect();
    let mut fns = Vec::new();
    defined_fns(&root().join("crates/core/src"), &mut fns);
    let spans = section.split('`').skip(1).step_by(2);
    let methods: Vec<&str> = spans.filter_map(method_name).collect();
    assert!(!methods.is_empty(), "the section names no method");
    let undefined: Vec<&str> = methods
        .into_iter()
        .filter(|m| !fns.iter().any(|f| f == m))
        .collect();
    assert!(
        unnamed.is_empty() && undefined.is_empty(),
        "DESIGN.md § The 27 filters leaves out filters {unnamed:?} and names methods \
         crates/core/src does not define: {undefined:?}"
    );
}

#[test]
fn method_names_are_read_from_code_spans_only() {
    assert_eq!(method_name("propagate_into"), Some("propagate_into"));
    assert_eq!(
        method_name("propagate_terms(graph, X)"),
        Some("propagate_terms")
    );
    assert_eq!(method_name("Basis::write"), Some("write"));
    assert_eq!(method_name("Basis"), None);
    assert_eq!(method_name("x"), None);
    assert_eq!(method_name("(aÃ + bI)^k"), None);
}

//! Checks that DESIGN.md says what the code does: the first of the
//! `docs_are_true` checks. § "The 27 filters" must name every registry
//! filter, and every method or type a checked section names in backticks
//! must exist in that section's source directories: a doc that names a
//! deleted item fails.

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

/// The type a backticked span names, if it names one: a CamelCase path
/// segment with a lowercase letter and no underscore (`StepShape`, the
/// `Device` of `Device::total`), before any call. Single capitals and
/// subscripted symbols (`T_1`, `F_o`) name none.
fn type_name(span: &str) -> Option<&str> {
    let path = span.split('(').next().unwrap_or(span);
    path.split("::").find(|seg| {
        seg.starts_with(|c: char| c.is_ascii_uppercase())
            && seg.chars().all(|c| c.is_ascii_alphanumeric())
            && seg.chars().any(|c| c.is_ascii_lowercase())
    })
}

/// Every name following one of `keywords` in the `.rs` files under `dir`.
fn defined(dir: &Path, keywords: &[&str], out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            defined(&path, keywords, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap();
            for keyword in keywords {
                for rest in src.split(keyword).skip(1) {
                    let name = rest.split(|c: char| !(c.is_alphanumeric() || c == '_'));
                    out.extend(name.take(1).map(str::to_string));
                }
            }
        }
    }
}

/// The DESIGN.md sections whose backticked methods and types must be
/// defined under the listed directories.
const CHECKED: &[(&str, &[&str])] = &[
    ("The 27 filters (Table 1)", &["crates/core/src"]),
    (
        "Device memory",
        &[
            "crates/train/src",
            "crates/models/src",
            "crates/core/src",
            "crates/bench/tests",
        ],
    ),
];

/// The methods (or public fields) and types section `title` names that no
/// `.rs` file under `dirs` defines.
fn undefined_names(title: &str, dirs: &[&str]) -> Vec<String> {
    let section = design_section(title);
    let (mut fns, mut types) = (Vec::new(), Vec::new());
    for dir in dirs {
        defined(&root().join(dir), &["fn ", "pub "], &mut fns);
        let kinds = ["struct ", "enum ", "trait ", "type "];
        defined(&root().join(dir), &kinds, &mut types);
    }
    let spans: Vec<&str> = section.split('`').skip(1).step_by(2).collect();
    let methods = spans.iter().filter_map(|s| method_name(s));
    assert!(
        methods.clone().next().is_some(),
        "§ {title} names no method"
    );
    let missing_fns = methods.filter(|m| !fns.iter().any(|f| f == m));
    let missing_types = spans
        .iter()
        .filter_map(|s| type_name(s))
        .filter(|t| !types.iter().any(|d| d == t));
    missing_fns.chain(missing_types).map(String::from).collect()
}

#[test]
fn the_filters_section_names_every_filter_and_only_real_methods() {
    let (title, dirs) = CHECKED[0];
    let section = design_section(title);
    let unnamed: Vec<&str> = all_filter_names()
        .into_iter()
        .filter(|name| !section.contains(name))
        .collect();
    let undefined = undefined_names(title, dirs);
    assert!(
        unnamed.is_empty() && undefined.is_empty(),
        "DESIGN.md § The 27 filters leaves out filters {unnamed:?} and names items \
         crates/core/src does not define: {undefined:?}"
    );
}

#[test]
fn every_checked_section_names_only_real_methods_and_types() {
    for (title, dirs) in CHECKED {
        let undefined = undefined_names(title, dirs);
        assert!(
            undefined.is_empty(),
            "DESIGN.md § {title} names items {dirs:?} do not define: {undefined:?}"
        );
    }
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
    assert_eq!(
        type_name("StepShape::decoupled(scheme, …)"),
        Some("StepShape")
    );
    assert_eq!(type_name("Device::total"), Some("Device"));
    assert_eq!(type_name("FilterSpec"), Some("FilterSpec"));
    assert_eq!(type_name("T_1"), None);
    assert_eq!(type_name("O(n·K·F)"), None);
    assert_eq!(type_name("X"), None);
}

//! Property test for the JSON writer: whatever [`json::write`] or
//! [`json::write_pretty`] emits, [`json::parse`] reads back as the same
//! value. Numbers compare by their `f64` reading: `Num(0.0)` writes `0` and
//! reads back as `Int(0)`, and a non-finite float writes `null`.

use proptest::prelude::*;
use sgnn_obs::json::{self, Value};

/// splitmix64: the next draw from `state`.
fn draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Escapes, control characters, multi-byte UTF-8 and JSON punctuation.
fn string(state: &mut u64) -> String {
    const CHARS: &[char] = &[
        'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
        '{', ']', ':', ',',
    ];
    let n = draw(state) % 8;
    (0..n)
        .map(|_| CHARS[(draw(state) % CHARS.len() as u64) as usize])
        .collect()
}

/// A random value nested at most `depth` deep (the vendored proptest has
/// no recursive strategies, so one sampled seed drives it).
fn gen(state: &mut u64, depth: u32) -> Value {
    let pick = draw(state);
    match pick % if depth == 0 { 5 } else { 7 } {
        0 => Value::Null,
        1 => Value::Bool(pick & 8 == 0),
        2 => Value::Num(match draw(state) % 6 {
            0 => [0.0, -0.0, f64::NAN, f64::INFINITY][(pick >> 8) as usize % 4],
            1 => (pick >> 40) as f64,
            2 => json::widen_f32(f32::from_bits(draw(state) as u32)),
            _ => f64::from_bits(draw(state)),
        }),
        3 => Value::Int(draw(state) >> (pick >> 58)),
        4 => Value::Str(string(state)),
        5 => Value::Arr((0..pick % 4).map(|_| gen(state, depth - 1)).collect()),
        _ => Value::Obj(
            (0..pick % 4)
                .map(|_| (string(state), gen(state, depth - 1)))
                .collect(),
        ),
    }
}

/// `read` is what parsing the written text of `orig` gave back.
fn same(read: &Value, orig: &Value) -> bool {
    match (read, orig) {
        (Value::Null, Value::Num(n)) => !n.is_finite(),
        (_, Value::Num(n)) => read.as_f64() == Some(*n),
        (Value::Arr(a), Value::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Value::Obj(a), Value::Obj(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => read == orig,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_json_parses_back_to_the_same_value(seed in any::<u64>()) {
        let v = gen(&mut seed.clone(), 3);
        let compact = json::write(&v);
        // The reader tolerates raw control characters; JSON does not.
        prop_assert!(!compact.contains(|c: char| c < ' '), "unescaped: {compact:?}");
        for text in [compact, json::write_pretty(&v)] {
            let read = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert!(same(&read, &v), "{text}\nread back as {read:?}\nwritten from {v:?}");
        }
    }
}

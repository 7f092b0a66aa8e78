//! The workspace's JSON: a [`Value`] tree, a reader ([`parse`]) and a
//! writer ([`write`] compact, [`write_pretty`] two-space indented).
//!
//! The trace sink writes its events with the same number and string
//! encoders; `experiments trace-summary` parses every JSONL line back, and
//! the experiment harness writes `results/*.json`, the run store's records
//! and `BENCH_oocsr.json` through [`write`] / [`write_pretty`].

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order.
///
/// Non-negative integers without a fraction or exponent parse as [`Value::Int`]
/// so `u64` payloads (byte counts, counters) round-trip exactly — `f64` only
/// holds integers up to 2^53. Everything else numeric is [`Value::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Signed integer view: covers `mem_delta`-style fields, which the
    /// sink writes as plain (possibly negative) integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => i64::try_from(*n).ok(),
            Value::Num(n)
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Compact JSON text of `v`: no whitespace between tokens.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None);
    out
}

/// Two-space-indented JSON text of `v`: one member or element per line,
/// `": "` after each key, empty containers kept inline (`[]`, `{}`), no
/// trailing newline.
pub fn write_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(0));
    out
}

/// The `f64` an `f32` names when printed: `0.05f32` writes as `0.05`, where
/// `0.05f32 as f64` would write `0.05000000074505806`.
pub fn widen_f32(v: f32) -> f64 {
    v.to_string().parse().unwrap_or(f64::NAN)
}

/// Appends `v`; `indent` is the current depth when pretty-printing.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => push_f64(out, *n),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => push_str(out, s),
        Value::Arr(items) => write_seq(out, "[]", items.iter().map(|v| (None, v)), indent),
        Value::Obj(members) => {
            let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_seq(out, "{}", members, indent)
        }
    }
}

/// Writes a container: `brackets` is its open and close pair, each item
/// an object member (`Some(key)`) or an array element.
fn write_seq<'a>(
    out: &mut String,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
    indent: Option<usize>,
) {
    let inner = indent.map(|d| d + 1);
    out.push_str(&brackets[..1]);
    let mut empty = true;
    for (key, v) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, inner);
        if let Some(k) = key {
            push_str(out, k);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        write_value(out, v, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push_str(&brackets[1..]);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Writes a finite float as a JSON number (round-trip `Display`), or `null`
/// for NaN/inf — both of which would corrupt the line otherwise.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `Display` omits the decimal point for integral floats; that is
        // still a valid JSON number, so leave it.
    } else {
        out.push_str("null");
    }
}

/// Escapes `s` into `out` per the JSON string grammar.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(members)),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(format!("invalid escape at byte {}", self.pos)),
                },
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: a second \uXXXX must follow.
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("unpaired surrogate".into());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| "invalid unicode escape".into())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            integral = false;
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            // Keep exact u64 payloads (byte counts overflow f64's 2^53).
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_event_shaped_object() {
        let v = parse(
            r#"{"ts_rel":0.25,"kind":"span","name":"spmm.csr","dur_s":1.5e-4,"attrs":{"nnz":52,"ok":true,"x":null}}"#,
        )
        .unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("dur_s").and_then(Value::as_f64), Some(1.5e-4));
        let attrs = v.get("attrs").unwrap();
        assert_eq!(attrs.get("nnz").and_then(Value::as_u64), Some(52));
        assert_eq!(attrs.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(attrs.get("x"), Some(&Value::Null));
    }

    #[test]
    fn parses_arrays_and_nested_containers() {
        let v = parse(r#"[1, -2.5, "a", [], {"k":[true,false]}]"#).unwrap();
        let Value::Arr(items) = &v else {
            panic!("not an array")
        };
        assert_eq!(items.len(), 5);
        assert_eq!(items[1].as_f64(), Some(-2.5));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn round_trips_sink_number_formats() {
        for s in ["0", "-0.5", "1e-7", "123456789", "0.000001"] {
            assert!(parse(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn large_integers_keep_exact_precision() {
        // Above 2^53, f64 can no longer represent every integer.
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
        // Fractions and negatives still go through f64.
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn signed_integer_view() {
        assert_eq!(parse("-4096").unwrap().as_i64(), Some(-4096));
        assert_eq!(parse("4096").unwrap().as_i64(), Some(4096));
        assert_eq!(parse("0").unwrap().as_i64(), Some(0));
        assert_eq!(parse("2.5").unwrap().as_i64(), None);
        assert_eq!(parse(&u64::MAX.to_string()).unwrap().as_i64(), None);
    }

    #[test]
    fn widened_f32_writes_as_the_f32_prints() {
        let alpha = 0.05f32;
        assert_eq!(write(&Value::Num(widen_f32(alpha))), "0.05");
        assert_eq!(write(&Value::Num(alpha as f64)), "0.05000000074505806");
        for x in [0.15f32, 0.3, 1.0 / 3.0, -2.5e-8, 16_777_217.0] {
            assert_eq!(write(&Value::Num(widen_f32(x))), x.to_string());
        }
        assert_eq!(write(&Value::Num(widen_f32(f32::NAN))), "null");
        assert_eq!(write(&Value::Num(0.0)), "0");
    }
}

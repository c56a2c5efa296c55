//! The workspace's one JSON codec. Every JSON byte it writes (trace and
//! telemetry JSONL, durable-sweep manifests) goes through
//! [`ObjectWriter`], in call order, so equal inputs give equal bytes;
//! every JSON line it reads goes through [`parse`].
//!
//! The decoder keeps each number as its token, checked against the
//! RFC 8259 grammar `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`:
//! [`Number::as_u64`] is exact over all of `u64` (manifests journal
//! floats as bit patterns) and [`Number::as_f64`] refuses a result that
//! is not finite (`1e400`). Strings carry exactly the escapes the
//! writer emits: `\"`, `\\`, `\n`, `\r`, `\t` and `\uXXXX` (any
//! non-surrogate scalar). Objects and arrays nest at most [`MAX_DEPTH`]
//! levels deep, so a line of thousands of `{` is an error, not a stack
//! overflow.

use std::fmt::Write as _;

/// Deepest nesting of objects and arrays below the top-level value that
/// [`parse`] accepts. Manifest records nest 3 deep (record → payload →
/// phases).
pub const MAX_DEPTH: usize = 32;

/// A JSON number, kept as its validated token.
#[derive(Clone, Debug, PartialEq)]
pub struct Number(String);

impl Number {
    /// The exact `u64`, if the token is a non-negative integer (no
    /// fraction or exponent) that fits.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.parse().ok()
    }

    /// The nearest `f64`, if it is finite.
    pub fn as_f64(&self) -> Option<f64> {
        self.0.parse().ok().filter(|v: &f64| v.is_finite())
    }
}

/// One JSON value (`null` is not part of the format).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Object),
}

/// An insertion-ordered JSON object: equal objects serialise
/// byte-identically, which makes manifest diffs and goldens meaningful.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, key: &str, v: Value) {
        self.0.push((key.to_string(), v));
    }

    /// Append an integer member.
    pub fn push_u64(&mut self, key: &str, v: u64) {
        self.push(key, Value::Num(Number(v.to_string())));
    }

    /// Append a float member as its exact IEEE-754 bit pattern.
    pub fn push_f64_bits(&mut self, key: &str, v: f64) {
        self.push_u64(key, v.to_bits());
    }

    /// Append a string member.
    pub fn push_str(&mut self, key: &str, v: &str) {
        self.push(key, Value::Str(v.to_string()));
    }

    /// Append a boolean member.
    pub fn push_bool(&mut self, key: &str, v: bool) {
        self.push(key, Value::Bool(v));
    }

    /// Append a nested object member.
    pub fn push_map(&mut self, key: &str, v: Object) {
        self.push(key, Value::Obj(v));
    }

    /// The members, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The first member named `key` as `pick` reads it, or an error
    /// naming the missing or mistyped key.
    fn field<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        pick: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        match self.iter().find(|&(k, _)| k == key) {
            Some((_, v)) => pick(v).ok_or_else(|| format!("field {key:?} is not {what}")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// Exact integer member.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "an integer", |v| match v {
            Value::Num(n) => n.as_u64(),
            _ => None,
        })
    }

    /// Finite float member.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a finite number", |v| match v {
            Value::Num(n) => n.as_f64(),
            _ => None,
        })
    }

    /// Float member journaled via [`Object::push_f64_bits`].
    pub fn f64_bits(&self, key: &str) -> Result<f64, String> {
        self.u64(key).map(f64::from_bits)
    }

    /// String member.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", |v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Boolean member.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// Nested object member.
    pub fn map(&self, key: &str) -> Result<&Object, String> {
        self.field(key, "an object", |v| match v {
            Value::Obj(o) => Some(o),
            _ => None,
        })
    }

    /// Serialise as one JSON object, members in push order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_members(&mut out, self);
        out
    }
}

/// Streaming writer of one JSON object's members, in call order. It owns
/// key quoting, commas and string escaping. Start one with
/// [`write_object`].
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

/// Append one JSON object to `out`: `{`, the members `members` writes,
/// `}`.
pub fn write_object(out: &mut String, members: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    let mut w = ObjectWriter { out, empty: true };
    members(&mut w);
    w.out.push('}');
}

impl ObjectWriter<'_> {
    /// The separator, quoted key and colon of the next member.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// An unsigned integer member.
    pub fn u64(&mut self, key: &str, v: impl Into<u64>) -> &mut Self {
        let _ = write!(self.key(key), "{}", v.into());
        self
    }

    /// A float member printed with `decimals` places (`{:.N}`). Callers
    /// pass finite values; the decoder rejects `NaN` and `inf`.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        let _ = write!(self.key(key), "{v:.decimals$}");
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// An array-of-integers member.
    pub fn u64s(&mut self, key: &str, vs: impl IntoIterator<Item = u64>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
        }
        out.push(']');
        self
    }
}

fn write_members(out: &mut String, o: &Object) {
    write_object(out, |w| {
        for (k, v) in o.iter() {
            write_value(w.key(k), v);
        }
    });
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&n.0),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(o) => write_members(out, o),
    }
}

/// Append `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON text.
///
/// # Errors
/// Describes the first problem with its byte offset: bad syntax, a
/// number outside the RFC 8259 grammar, an escape the format does not
/// use, nesting deeper than [`MAX_DEPTH`], or trailing bytes.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut d = Decoder {
        s: text,
        ..Decoder::default()
    };
    d.ws();
    let v = d.value()?;
    d.ws();
    if d.i != text.len() {
        return Err(format!("trailing bytes at offset {}", d.i));
    }
    Ok(v)
}

/// Parse one JSON text that must be an object, such as a JSONL line.
///
/// # Errors
/// As [`parse`], and when the value is not an object.
pub fn parse_object(text: &str) -> Result<Object, String> {
    match parse(text)? {
        Value::Obj(o) => Ok(o),
        _ => Err("not a JSON object".to_string()),
    }
}

#[derive(Default)]
struct Decoder<'a> {
    s: &'a str,
    i: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl Decoder<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if !self.eat(c) {
            return Err(format!("expected {:?} at offset {}", c as char, self.i));
        }
        Ok(())
    }

    /// Skip the bytes `f` accepts; returns how many.
    fn skip(&mut self, f: impl Fn(u8) -> bool) -> usize {
        let start = self.i;
        while self.peek().is_some_and(&f) {
            self.i += 1;
        }
        self.i - start
    }

    fn ws(&mut self) {
        self.skip(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn digits(&mut self) -> Result<(), String> {
        if self.skip(|c| c.is_ascii_digit()) == 0 {
            return Err(format!("expected a digit at offset {}", self.i));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        let at = self.i;
        Ok(match self.peek() {
            Some(b'{' | b'[') if self.depth > MAX_DEPTH => {
                return Err(format!("nested too deep at offset {at}"))
            }
            Some(b'{') => {
                let mut o = Object::new();
                self.items(b'}', |d| {
                    let key = d.string()?;
                    d.ws();
                    d.expect(b':')?;
                    d.ws();
                    d.value().map(|v| o.0.push((key, v)))
                })?;
                Value::Obj(o)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |d| d.value().map(|v| items.push(v)))?;
                Value::Arr(items)
            }
            Some(b'"') => Value::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Value::Num(self.number()?),
            _ if self.s[at..].starts_with("true") => {
                self.i += 4;
                Value::Bool(true)
            }
            _ if self.s[at..].starts_with("false") => {
                self.i += 5;
                Value::Bool(false)
            }
            _ => return Err(format!("unexpected value at offset {at}")),
        })
    }

    /// The comma-separated items of the container whose opening byte is
    /// next, through its `close` byte.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1;
        self.depth += 1;
        self.ws();
        if !self.eat(close) {
            loop {
                self.ws();
                item(self)?;
                self.ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn number(&mut self) -> Result<Number, String> {
        let start = self.i;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Number(self.s[start..self.i].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            self.skip(|c| c != b'"' && c != b'\\' && c >= 0x20);
            // The run stops before an ASCII byte, so on a char boundary.
            out.push_str(&self.s[start..self.i]);
            let at = self.i;
            self.i += 1;
            match self.s.as_bytes().get(at) {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(format!("unescaped control character at offset {at}")),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.i;
        self.i += 1;
        Ok(match self.s.as_bytes().get(at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                self.i += 4;
                self.s
                    .get(at + 1..at + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                    .ok_or_else(|| format!("bad \\u escape at offset {at}"))?
            }
            _ => return Err(format!("bad escape at offset {at}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_model::rng::Rng64;
    use proptest::prelude::*;

    #[test]
    fn decoder_accepts_the_format_and_nothing_else() {
        let text = r#""q\"b\\n\nt\tr\r\u0001é€""#;
        let good = r#"0 -0 -12 1.5 1e5 1E+5 -2.5e-3 true {"a":{"b":[1,"x"]},"a":2}"#;
        for good in good.split(' ').chain([" [ false , [] , {} ] ", text]) {
            assert!(parse(good).is_ok(), "rejected {good:?}");
        }
        // Numbers outside the RFC 8259 grammar; broken structure; escapes
        // the writer never emits; then inputs that hold a space.
        let numbers = "1. -.5e1 .5 +1 01 - 1e 1e+ 0x10 1.e3 NaN inf";
        let structure = r#"null { } {"a"} {"a":} {"a":1,} [1,] {a:1}"#;
        let strings = r#""\/" "\b" "\f" "\ud83d" "\u12" "\u+01f" "open"#;
        let spaced = [
            "",
            "[1 2]",
            "{} {}",
            r#"{"a":1 "b":2}"#,
            "\"raw\u{1}control\"",
        ];
        let split = |s: &'static str| s.split(' ');
        let bad = split(numbers).chain(split(structure)).chain(split(strings));
        for bad in bad.chain(spaced) {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_object("[1]").is_err());
        let unescaped = "q\"b\\n\nt\tr\r\u{1}é€".to_string();
        assert_eq!(parse(text), Ok(Value::Str(unescaped)));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth| "{\"a\":".repeat(depth) + "{}" + &"}".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1))).is_ok());
        // Recursing into 100,000 open objects would overflow the stack.
        for line in [
            nested(MAX_DEPTH + 1),
            "{\"a\":".repeat(100_000),
            "[".repeat(100_000),
        ] {
            let err = parse(&line).unwrap_err();
            assert!(err.contains("nested too deep"), "{err}");
        }
    }

    /// A string over every escape class, other control characters, DEL
    /// and non-ASCII text.
    fn draw_string(rng: &mut Rng64) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\0', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
            'é', '€', '😀',
        ];
        (0..rng.below(8))
            .map(|_| CHARS[rng.below(16) as usize])
            .collect()
    }

    /// An integer (0, `u64::MAX`, 2^53 + 1 or any), a string or a bool.
    fn draw_scalar(rng: &mut Rng64) -> Value {
        let num = |v: u64| Value::Num(Number(v.to_string()));
        match rng.below(6) {
            0 => num([0, u64::MAX, (1 << 53) + 1][rng.below(3) as usize]),
            1 => num(rng.next()),
            2 | 3 => Value::Str(draw_string(rng)),
            _ => Value::Bool(rng.below(2) == 1),
        }
    }

    /// A random object at nesting `level` (the top is 0) whose `spine`
    /// member continues down to level `spine`.
    fn draw_object(rng: &mut Rng64, level: usize, spine: usize) -> Object {
        let mut o = Object::new();
        for _ in 0..rng.below(5) {
            let key = draw_string(rng);
            let v = match rng.below(6) {
                0 if level < MAX_DEPTH => {
                    Value::Arr((0..rng.below(4)).map(|_| draw_scalar(rng)).collect())
                }
                1 if level < MAX_DEPTH => Value::Obj(draw_object(rng, level + 1, level + 1)),
                _ => draw_scalar(rng),
            };
            o.push(&key, v);
        }
        if level < spine {
            o.push_map("spine", draw_object(rng, level + 1, spine));
        }
        o
    }

    proptest! {
        /// encode → decode → equal on random nested objects, half of
        /// them reaching the depth cap; re-encoding gives the same bytes.
        #[test]
        fn encode_decode_round_trips(seed in 0u64..u64::MAX, spine in 0usize..2 * MAX_DEPTH) {
            let object = draw_object(&mut Rng64::new(seed), 0, spine.min(MAX_DEPTH));
            let line = object.to_json();
            let back = parse_object(&line);
            prop_assert_eq!(back.as_ref(), Ok(&object));
            prop_assert_eq!(back.unwrap().to_json(), line);
        }
    }
}

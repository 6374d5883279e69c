//! Minimal JSON value model, parser and serializers.
//!
//! The workspace builds hermetically with no external crates, so the JSON
//! plumbing that the CLI, the thermal floorplan/power files and the hybrid
//! table export rely on lives here. The wire format is interchangeable with
//! what the previous `serde_json`-based code produced: struct fields become
//! object members, unit enum variants become strings, struct enum variants
//! become single-key objects, and tuples/arrays become JSON arrays.
//!
//! Conversions go through the [`ToJson`] / [`FromJson`] traits; the
//! [`impl_json_struct!`](crate::impl_json_struct) macro derives both for plain named-field structs
//! (invoke it inside the defining module so private fields stay private).
//!
//! # Example
//!
//! ```
//! use statobd_num::json::Json;
//!
//! let v = Json::parse(r#"{"name": "alu", "area": 1.5, "ids": [1, 2]}"#).unwrap();
//! assert_eq!(v.get("name").unwrap().as_str().unwrap(), "alu");
//! assert_eq!(v.get("area").unwrap().as_f64().unwrap(), 1.5);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
///
/// Objects preserve member order (a `Vec` of pairs, not a map): documents
/// round-trip byte-stable and the structs serialized here are far too small
/// for linear key lookup to matter.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; integers up to 2⁵³ are exact).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document/insertion order.
    Object(Vec<(String, Json)>),
}

/// Error produced by JSON parsing or typed extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    detail: String,
}

impl JsonError {
    /// Creates an error with the given description.
    pub fn new(detail: impl Into<String>) -> Self {
        JsonError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON operations.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Parses a JSON document from text.
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Number(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object, if it is one.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(x) => write_number(out, *x),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Writes a number the way `serde_json` does: integers without a fraction,
/// everything else in shortest round-trip form. Non-finite values (which
/// JSON cannot represent) degrade to `null`.
fn write_number(out: &mut String, x: f64) {
    use fmt::Write;
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, detail: &str) -> JsonError {
        JsonError::new(format!("{detail} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Bulk fast path: copy everything up to the next quote or
            // escape in one go (large packed-float strings would otherwise
            // pay a per-character loop).
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit)
                            };
                            s.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                _ => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // encoding is already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Conversion of a value into a [`Json`] document.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Fallible reconstruction of a value from a [`Json`] document.
pub trait FromJson: Sized {
    /// Parses `self` out of a JSON value.
    fn from_json(v: &Json) -> Result<Self>;

    /// The value to use when a struct member is absent from the document
    /// (`None` means absence is an error). `Option` fields may be omitted,
    /// mirroring the previous serde behaviour.
    fn from_missing() -> Option<Self> {
        None
    }
}

/// Serializes a value compactly (drop-in for `serde_json::to_string`).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serializes a value with indentation (drop-in for
/// `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parses a typed value from JSON text (drop-in for
/// `serde_json::from_str`).
pub fn from_str<T: FromJson>(text: &str) -> Result<T> {
    T::from_json(&Json::parse(text)?)
}

/// Packs a float slice into one JSON string: 16 lowercase hex digits per
/// `f64` (big-endian bit pattern), bit-exact under round-trip.
///
/// A decimal float array costs one tree node and one shortest-roundtrip
/// parse per element; packed arrays make million-element payloads (model
/// eigenbases, lookup tables) one string node each, which is what keeps
/// artifact loads cheap relative to a cold build.
pub fn pack_f64s(xs: &[f64]) -> Json {
    let mut out = String::with_capacity(16 * xs.len());
    for &x in xs {
        let bits = x.to_bits();
        for shift in (0..16).rev() {
            let nibble = ((bits >> (shift * 4)) & 0xf) as u32;
            out.push(char::from_digit(nibble, 16).expect("nibble < 16"));
        }
    }
    Json::String(out)
}

/// Reverses [`pack_f64s`]. A plain number array is also accepted, so
/// hand-written documents stay usable.
///
/// # Errors
///
/// Returns an error for any other JSON shape, a hex string whose length
/// is not a multiple of 16, or a non-hex digit.
pub fn unpack_f64s(v: &Json) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    unpack_f64s_into(v, &mut out)?;
    Ok(out)
}

/// The number of floats [`unpack_f64s`] reads from `v` when it succeeds
/// (0 for a shape it rejects): for sizing one buffer for several rows.
pub fn packed_f64_len(v: &Json) -> usize {
    match v {
        Json::String(s) => s.len() / 16,
        Json::Array(items) => items.len(),
        _ => 0,
    }
}

/// [`unpack_f64s`] appending to `out`, so several packed rows can be
/// read into one flat buffer without a copy per row.
///
/// # Errors
///
/// As [`unpack_f64s`]; on error `out` may hold part of the row.
pub fn unpack_f64s_into(v: &Json, out: &mut Vec<f64>) -> Result<()> {
    out.reserve(packed_f64_len(v));
    match v {
        Json::String(s) => {
            if s.len() % 16 != 0 {
                return Err(JsonError::new(format!(
                    "packed f64 string length {} is not a multiple of 16",
                    s.len()
                )));
            }
            for chunk in s.as_bytes().chunks_exact(16) {
                let mut bits: u64 = 0;
                for &b in chunk {
                    let nibble = (b as char)
                        .to_digit(16)
                        .ok_or_else(|| JsonError::new(format!("non-hex digit {:?}", b as char)))?;
                    bits = (bits << 4) | nibble as u64;
                }
                out.push(f64::from_bits(bits));
            }
            Ok(())
        }
        Json::Array(items) => {
            for x in items {
                out.push(f64::from_json(x)?);
            }
            Ok(())
        }
        other => Err(JsonError::new(format!(
            "expected a packed f64 string or array, got {other}"
        ))),
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected a number, got {v}")))
    }
}

macro_rules! impl_json_integer {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self> {
                let x = v
                    .as_f64()
                    .ok_or_else(|| JsonError::new(format!("expected an integer, got {v}")))?;
                if x.fract() != 0.0 || x < 0.0 || x > <$ty>::MAX as f64 {
                    return Err(JsonError::new(format!(
                        "number {x} is not a valid {}",
                        stringify!($ty)
                    )));
                }
                Ok(x as $ty)
            }
        }
    )+};
}

impl_json_integer!(u64, u32, usize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected a bool, got {v}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected a string, got {v}")))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_array()
            .ok_or_else(|| JsonError::new(format!("expected an array, got {v}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn from_missing() -> Option<Self> {
        Some(None)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new(format!(
                "expected a 2-element array, got {v}"
            ))),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::new(format!("expected an array, got {v}")))?;
        if items.len() != N {
            return Err(JsonError::new(format!(
                "expected {N} elements, got {}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_object()
            .ok_or_else(|| JsonError::new(format!("expected an object, got {v}")))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

/// Derives [`ToJson`] and [`FromJson`] for a named-field struct.
///
/// Invoke inside the struct's defining module so private fields resolve.
/// Member names are the field names; `Option` fields may be absent from the
/// document (matching the former serde derives).
///
/// ```
/// use statobd_num::impl_json_struct;
/// use statobd_num::json::{from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: f64,
///     y: f64,
/// }
/// impl_json_struct!(Point { x, y });
///
/// let p = Point { x: 1.0, y: -2.5 };
/// let back: Point = from_str(&to_string(&p)).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> $crate::json::Result<Self> {
                if v.as_object().is_none() {
                    return Err($crate::json::JsonError::new(format!(
                        "expected a {} object, got {v}",
                        stringify!($ty)
                    )));
                }
                Ok(Self {
                    $(
                        $field: match v.get(stringify!($field)) {
                            Some(member) => $crate::json::FromJson::from_json(member)?,
                            None => $crate::json::FromJson::from_missing().ok_or_else(|| {
                                $crate::json::JsonError::new(format!(
                                    "missing field '{}' in {}",
                                    stringify!($field),
                                    stringify!($ty)
                                ))
                            })?,
                        },
                    )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Number(-1500.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": ""}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Number(1.0));
        assert_eq!(a[1].get("b").unwrap(), &Json::Null);
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\q\"", "", "[1]]"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
        let back = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn numbers_serialize_like_serde_json() {
        assert_eq!(Json::Number(25.0).to_compact(), "25");
        assert_eq!(Json::Number(-3.0).to_compact(), "-3");
        assert_eq!(Json::Number(0.5).to_compact(), "0.5");
        assert_eq!(Json::Number(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn number_round_trip_is_exact() {
        for &x in &[
            1.0 / 3.0,
            2.2,
            6.022e23,
            f64::MIN_POSITIVE,
            -1.234_567_890_123_456_7e-200,
        ] {
            let text = Json::Number(x).to_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::parse(r#"{"blocks": [{"name": "alu", "w": [0.5, 1]}], "n": 2}"#).unwrap();
        let pretty = v.to_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2}"#);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        weight: f64,
        count: usize,
        tags: Vec<String>,
        limit: Option<f64>,
    }
    impl_json_struct!(Demo {
        name,
        weight,
        count,
        tags,
        limit
    });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            name: "hot \"block\"".into(),
            weight: 0.125,
            count: 7,
            tags: vec!["a".into(), "b".into()],
            limit: None,
        };
        let back: Demo = from_str(&to_string(&d)).unwrap();
        assert_eq!(back, d);
        let back: Demo = from_str(&to_string_pretty(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn option_fields_may_be_omitted() {
        let d: Demo = from_str(r#"{"name": "x", "weight": 1, "count": 0, "tags": []}"#).unwrap();
        assert_eq!(d.limit, None);
        let d: Demo =
            from_str(r#"{"name": "x", "weight": 1, "count": 0, "tags": [], "limit": 2.5}"#)
                .unwrap();
        assert_eq!(d.limit, Some(2.5));
    }

    #[test]
    fn missing_required_field_is_an_error() {
        let err = from_str::<Demo>(r#"{"name": "x"}"#).unwrap_err();
        assert!(err.to_string().contains("weight"));
    }

    #[test]
    fn integer_extraction_rejects_fractions_and_negatives() {
        assert!(usize::from_json(&Json::Number(1.5)).is_err());
        assert!(u64::from_json(&Json::Number(-1.0)).is_err());
        assert_eq!(usize::from_json(&Json::Number(42.0)).unwrap(), 42);
    }

    #[test]
    fn tuple_and_array_conversions() {
        let pair: (usize, f64) = FromJson::from_json(&Json::parse("[3, 0.5]").unwrap()).unwrap();
        assert_eq!(pair, (3, 0.5));
        let coeffs: [f64; 6] = FromJson::from_json(&Json::parse("[1,2,3,4,5,6]").unwrap()).unwrap();
        assert_eq!(coeffs[5], 6.0);
        assert!(<[f64; 6]>::from_json(&Json::parse("[1,2]").unwrap()).is_err());
    }

    #[test]
    fn btreemap_round_trips() {
        let mut m = BTreeMap::new();
        m.insert("alu".to_string(), 1.5f64);
        m.insert("fpu".to_string(), 0.25);
        let back: BTreeMap<String, f64> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn packed_rows_append_into_one_buffer_bit_exactly() {
        let a = [1.5, -0.0, f64::MIN_POSITIVE / 4.0, f64::NAN];
        let b = [2.0f64.powi(-60), -7.25];
        let (packed_a, plain_b) = (pack_f64s(&a), b.to_json());
        assert_eq!(packed_f64_len(&packed_a), 4);
        assert_eq!(packed_f64_len(&plain_b), 2);
        assert_eq!(packed_f64_len(&Json::Null), 0);
        let mut out = Vec::new();
        unpack_f64s_into(&packed_a, &mut out).unwrap();
        unpack_f64s_into(&plain_b, &mut out).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&[&a[..], &b[..]].concat()));
        assert_eq!(bits(&unpack_f64s(&packed_a).unwrap()), bits(&a));
        assert!(unpack_f64s(&Json::String("0123".into())).is_err());
        assert!(unpack_f64s(&Json::String("g".repeat(16))).is_err());
        assert!(unpack_f64s(&Json::Null).is_err());
    }
}

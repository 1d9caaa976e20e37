//! JSON text for the replay read side.
//!
//! Two things live here:
//!
//! - [`Lexer`], a borrowing tokenizer over one JSON document. Strings come
//!   back borrowed from the source unless they contain an escape, and
//!   numbers come back as their source slice. The trace-line decoder
//!   (`parse.rs`) and the snapshot parser below share it, so there is one
//!   JSON grammar on the read side.
//! - [`JsonVal`], a lossless value tree for cursor snapshots and
//!   `render_analysis_json`. Objects keep insertion order (no sorting) and
//!   numbers keep their raw source text, so `write ∘ parse` is the identity
//!   on canonical input. This sets it apart from the pretty-printing JSON
//!   model in `galaxy-flow`, which holds all numbers as `f64` and sorts
//!   object keys.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::trace::push_json_str;

/// Deepest array/object nesting [`parse`] accepts. Snapshots nest five
/// levels; the cap keeps hostile input from exhausting the stack of the
/// recursive tree builder.
const MAX_DEPTH: usize = 32;

/// A JSON scalar borrowed from its source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, as its source text.
    Num(&'a str),
    /// A string, as its source text.
    Str(RawStr<'a>),
}

/// A string token as its source text between the quotes, with its
/// escapes checked but not yet resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RawStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The decoded text: borrowed unless the source holds an escape.
    pub(crate) fn text(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut lx = Lexer::new(self.raw);
        let mut out = String::with_capacity(self.raw.len());
        while let Some(n) = self.raw[lx.pos..].find('\\') {
            out.push_str(&self.raw[lx.pos..lx.pos + n]);
            lx.pos += n + 1;
            // The lexer checked every escape when it scanned the string.
            out.push(lx.escape().unwrap_or(char::REPLACEMENT_CHARACTER));
            lx.pos += 1;
        }
        out.push_str(&self.raw[lx.pos..]);
        Cow::Owned(out)
    }

    /// Whether the decoded text equals `s`, decoding only if escaped.
    pub(crate) fn is(self, s: &str) -> bool {
        if self.escaped {
            self.text() == s
        } else {
            self.raw == s
        }
    }

    /// Whether two strings decode to the same text.
    pub(crate) fn same(self, other: RawStr<'_>) -> bool {
        if self.escaped || other.escaped {
            self.text() == other.text()
        } else {
            self.raw == other.raw
        }
    }
}

impl Scalar<'_> {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "bool",
            Scalar::Num(_) => "number",
            Scalar::Str(_) => "string",
        }
    }
}

/// A borrowing tokenizer over one JSON document. Callers drive the
/// structure (objects, arrays, nesting); the lexer owns whitespace,
/// punctuation, scalars and error positions.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// An error message stamped with the current byte offset.
    #[cold]
    pub(crate) fn err<T>(&self, message: impl Into<String>) -> Result<T, String> {
        Err(format!("{} (byte {})", message.into(), self.pos))
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The source text from `start` to the current position.
    pub(crate) fn since(&self, start: usize) -> &'a str {
        &self.src[start..self.pos]
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next byte, after skipping whitespace.
    pub(crate) fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    /// Rejects anything but whitespace after the document.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    /// Opens an array (`[`/`]`) or object (`{`/`}`) and reports whether
    /// it has any element; an empty one is consumed whole.
    pub(crate) fn open(&mut self, open: u8, close: u8) -> Result<bool, String> {
        self.expect(open)?;
        if self.peek_token() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element: consumes `,` (another follows) or `close` (the
    /// container ended).
    pub(crate) fn more(&mut self, close: u8) -> Result<bool, String> {
        match self.peek_token() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => self.err(format!("expected `,` or `{}`", close as char)),
        }
    }

    /// Skips the array or object at the current position and returns its
    /// element count. Strings are scanned (their escapes checked) and
    /// brackets matched by level, without recursion; the elements' own
    /// grammar is left to whoever decodes them.
    pub(crate) fn skip_container(&mut self) -> Result<usize, String> {
        /// The bytes that can change the skip's state.
        const STRUCTURAL: [bool; 256] = {
            let mut table = [false; 256];
            let mut i = 0;
            while i < 6 {
                table[b"\"[]{},"[i] as usize] = true;
                i += 1;
            }
            table
        };
        self.pos += 1;
        let empty = matches!(self.peek_token(), Some(b']' | b'}'));
        let (mut level, mut commas) = (1, 0);
        loop {
            let rest = &self.src.as_bytes()[self.pos..];
            let Some(n) = rest.iter().position(|&b| STRUCTURAL[usize::from(b)]) else {
                self.pos = self.src.len();
                return self.err("unterminated array or object");
            };
            self.pos += n;
            match rest[n] {
                b'"' => {
                    self.string()?;
                    continue;
                }
                b'[' | b'{' => level += 1,
                b']' | b'}' => {
                    level -= 1;
                    if level == 0 {
                        self.pos += 1;
                        return Ok(if empty { 0 } else { commas + 1 });
                    }
                }
                _ => commas += usize::from(level == 1),
            }
            self.pos += 1;
        }
    }

    /// An object key.
    pub(crate) fn key(&mut self) -> Result<RawStr<'a>, String> {
        self.skip_ws();
        self.string()
    }

    /// The `:` between a key and its value.
    pub(crate) fn colon(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.expect(b':')
    }

    /// A scalar value (the caller handles `[` and `{`).
    pub(crate) fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek_token() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') => self.keyword("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Scalar::Bool(false)),
            Some(b'n') => self.keyword("null").map(|()| Scalar::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Scalar::Num),
            Some(b) => self.err(format!("unexpected byte `{}`", b as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // `-?digits[.digits]` with at most 300 integer digits always
        // parses to a finite `f64`, so it is accepted without parsing.
        let int_digits = self.skip_digits();
        let mut digits = int_digits;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits += self.skip_digits();
        }
        let plain_end = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = self.since(start);
        let plain = self.pos == plain_end && digits > 0 && int_digits <= 300;
        if plain || raw.parse::<f64>().is_ok_and(f64::is_finite) {
            Ok(raw)
        } else {
            self.err(format!("invalid number `{raw}`"))
        }
    }

    fn skip_digits(&mut self) -> usize {
        let rest = &self.src.as_bytes()[self.pos..];
        let n = rest.iter().position(|b| !b.is_ascii_digit()).unwrap_or(rest.len());
        self.pos += n;
        n
    }

    fn string(&mut self) -> Result<RawStr<'a>, String> {
        self.expect(b'"')?;
        let src = self.src;
        let start = self.pos;
        let mut escaped = false;
        loop {
            // `"` and `\` are ASCII, so they never occur inside a
            // multi-byte character: every offset found here is a char
            // boundary.
            let Some(n) = src.as_bytes()[self.pos..].iter().position(|b| matches!(b, b'"' | b'\\'))
            else {
                self.pos = src.len();
                return self.err("unterminated string");
            };
            self.pos += n;
            if src.as_bytes()[self.pos] == b'"' {
                let raw = &src[start..self.pos];
                self.pos += 1;
                return Ok(RawStr { raw, escaped });
            }
            escaped = true;
            self.pos += 1;
            self.escape()?;
            self.pos += 1;
        }
    }

    /// Decodes the escape whose letter is at the current position,
    /// leaving the position on its last byte.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                if self.pos + 4 >= self.src.len() {
                    return self.err("truncated \\u escape");
                }
                let hex = self
                    .src
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| "non-ASCII in \\u escape".to_owned())?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            _ => return self.err("bad escape"),
        })
    }
}

/// A parsed JSON value with nothing normalized away.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as its raw source text.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonVal>),
    /// An object in source key order.
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            JsonVal::Null => "null",
            JsonVal::Bool(_) => "bool",
            JsonVal::Num(_) => "number",
            JsonVal::Str(_) => "string",
            JsonVal::Arr(_) => "array",
            JsonVal::Obj(_) => "object",
        }
    }

    pub(crate) fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonVal::Num(raw) => {
                raw.parse::<u64>().map_err(|_| format!("`{raw}` is not an unsigned integer"))
            }
            other => Err(format!("expected an integer, found {}", other.type_name())),
        }
    }

    pub(crate) fn as_usize(&self) -> Result<usize, String> {
        self.as_u64().map(|n| n as usize)
    }

    pub(crate) fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonVal::Num(raw) => raw.parse::<f64>().map_err(|_| format!("`{raw}` is not a number")),
            other => Err(format!("expected a number, found {}", other.type_name())),
        }
    }

    pub(crate) fn as_bool(&self) -> Result<bool, String> {
        match self {
            JsonVal::Bool(b) => Ok(*b),
            other => Err(format!("expected a bool, found {}", other.type_name())),
        }
    }

    pub(crate) fn into_str(self) -> Result<String, String> {
        match self {
            JsonVal::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {}", other.type_name())),
        }
    }

    pub(crate) fn into_arr(self) -> Result<Vec<JsonVal>, String> {
        match self {
            JsonVal::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {}", other.type_name())),
        }
    }

    pub(crate) fn into_obj(self) -> Result<Vec<(String, JsonVal)>, String> {
        match self {
            JsonVal::Obj(entries) => Ok(entries),
            other => Err(format!("expected an object, found {}", other.type_name())),
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub(crate) fn parse(input: &str) -> Result<JsonVal, String> {
    let mut lx = Lexer::new(input);
    let value = tree(&mut lx, 0)?;
    lx.end()?;
    Ok(value)
}

fn tree(lx: &mut Lexer<'_>, depth: usize) -> Result<JsonVal, String> {
    let token = lx.peek_token();
    if depth >= MAX_DEPTH && matches!(token, Some(b'[' | b'{')) {
        return lx.err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    match token {
        Some(b'[') => {
            let mut items = Vec::new();
            if lx.open(b'[', b']')? {
                loop {
                    items.push(tree(lx, depth + 1)?);
                    if !lx.more(b']')? {
                        break;
                    }
                }
            }
            Ok(JsonVal::Arr(items))
        }
        Some(b'{') => {
            let mut entries: Vec<(String, JsonVal)> = Vec::new();
            if lx.open(b'{', b'}')? {
                loop {
                    let key = lx.key()?;
                    let key = key.text();
                    if entries.iter().any(|(k, _)| *k == key) {
                        return lx.err(format!("duplicate key `{key}`"));
                    }
                    lx.colon()?;
                    entries.push((key.into_owned(), tree(lx, depth + 1)?));
                    if !lx.more(b'}')? {
                        break;
                    }
                }
            }
            Ok(JsonVal::Obj(entries))
        }
        _ => Ok(match lx.scalar()? {
            Scalar::Null => JsonVal::Null,
            Scalar::Bool(b) => JsonVal::Bool(b),
            Scalar::Num(raw) => JsonVal::Num(raw.to_owned()),
            Scalar::Str(s) => JsonVal::Str(s.text().into_owned()),
        }),
    }
}

/// Writes a value back out canonically: insertion-order keys, raw number
/// text verbatim, the same string escapes the trace writer uses. For a
/// value built by [`parse`] from canonical input, `write ∘ parse` is the
/// identity.
pub(crate) fn write_into(value: &JsonVal, out: &mut String) {
    match value {
        JsonVal::Null => out.push_str("null"),
        JsonVal::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        JsonVal::Num(raw) => out.push_str(raw),
        JsonVal::Str(s) => push_json_str(out, s),
        JsonVal::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        JsonVal::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(out, key);
                out.push(':');
                write_into(item, out);
            }
            out.push('}');
        }
    }
}

/// Convenience helpers for building snapshot documents.
pub(crate) fn num_u64(n: u64) -> JsonVal {
    JsonVal::Num(n.to_string())
}

pub(crate) fn num_f64(n: f64) -> JsonVal {
    JsonVal::Num(format!("{n}"))
}

/// Field cursor over a parsed object: every field must be taken exactly
/// once, so corrupt or unexpected fields fail loudly instead of being
/// silently ignored.
pub(crate) struct Fields {
    entries: Vec<(String, Option<JsonVal>)>,
}

impl Fields {
    pub(crate) fn new(obj: Vec<(String, JsonVal)>) -> Self {
        Fields { entries: obj.into_iter().map(|(k, v)| (k, Some(v))).collect() }
    }

    /// Takes an optional field.
    pub(crate) fn take(&mut self, key: &str) -> Option<JsonVal> {
        self.entries.iter_mut().find(|(k, v)| k == key && v.is_some()).and_then(|(_, v)| v.take())
    }

    /// Takes a required field.
    pub(crate) fn require(&mut self, key: &str) -> Result<JsonVal, String> {
        self.take(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Rejects any field not taken by the decoder.
    pub(crate) fn finish(self) -> Result<(), String> {
        match self.entries.iter().find(|(_, v)| v.is_some()) {
            Some((k, _)) => Err(format!("unexpected field `{k}`")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_number_text_survives() {
        for raw in ["2", "2.5", "0.05460761339122153", "-3", "1e3"] {
            let doc = format!("{{\"x\":{raw}}}");
            let parsed = parse(&doc).unwrap();
            let mut out = String::new();
            write_into(&parsed, &mut out);
            assert_eq!(out, doc, "raw number `{raw}` must round-trip byte-identically");
        }
    }

    #[test]
    fn key_order_is_preserved() {
        let doc = "{\"z\":1,\"a\":2,\"m\":[true,null]}";
        let mut out = String::new();
        write_into(&parse(doc).unwrap(), &mut out);
        assert_eq!(out, doc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers rejected");
        assert!(parse("{\"a\":1,\"a\":2}").is_err(), "duplicate keys rejected");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut lx = Lexer::new("\"plain é€🚀\" \"a\\\"b\\u00e9\\u20AC\" \"tail");
        let Scalar::Str(plain) = lx.scalar().unwrap() else { panic!("a string") };
        assert!(matches!(plain.text(), Cow::Borrowed("plain é€🚀")));
        let Scalar::Str(escaped) = lx.scalar().unwrap() else { panic!("a string") };
        assert!(matches!(escaped.text(), Cow::Owned(s) if s == "a\"bé€"));
        assert!(escaped.is("a\"bé€") && !escaped.is("a\\\"b\\u00e9\\u20AC"));
        assert!(lx.scalar().unwrap_err().contains("unterminated string"));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn fields_cursor_is_exhaustive() {
        let obj = parse("{\"a\":1,\"b\":\"x\"}").unwrap().into_obj().unwrap();
        let mut fields = Fields::new(obj.clone());
        assert_eq!(fields.require("a").unwrap().as_u64().unwrap(), 1);
        assert!(fields.finish().unwrap_err().contains("`b`"));
        let mut fields = Fields::new(obj);
        fields.require("a").unwrap();
        assert_eq!(fields.take("b").unwrap().into_str().unwrap(), "x");
        assert!(fields.take("b").is_none(), "fields are taken at most once");
        fields.finish().unwrap();
    }
}

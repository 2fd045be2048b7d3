//! A concrete syntax for algebra expressions.
//!
//! Round-trips the `Display` form of [`Expr`]: operator applications are
//! `EXT.op(arg, …)`, variables are `$name`, and literals cover integers,
//! floats, strings, booleans, and the collection constructors
//! `[…]` (list), `{|…|}` (bag), `{…}` (set), `(…)` (tuple).
//!
//! ```
//! use moa_core::parse::parse_expr;
//!
//! let e = parse_expr("BAG.select(LIST.projecttobag($l), 2, 4)").unwrap();
//! assert_eq!(e.to_string(), "BAG.select(LIST.projecttobag($l), 2, 4)");
//! ```

use crate::error::{CoreError, Result};
use crate::expr::{Expr, ExtensionId};
use crate::value::Value;

/// Deepest nesting of collection literals and operator applications the
/// parser accepts. Deeper input is a parse error rather than a stack
/// overflow.
const MAX_DEPTH: usize = 128;

/// Parse an expression from its concrete syntax.
pub fn parse_expr(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input);
    let e = p.expr()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing input"));
    }
    Ok(e)
}

struct Parser<'s> {
    src: &'s [u8],
    pos: usize,
    depth: usize,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Parser<'s> {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, msg: &str) -> CoreError {
        CoreError::Runtime(format!("parse error at byte {}: {msg}", self.pos))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", c as char)))
        }
    }

    /// Run `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii identifier")
            .to_owned())
    }

    fn expr(&mut self) -> Result<Expr> {
        self.skip_ws();
        match self.peek() {
            Some(b'$') => {
                self.bump();
                let name = self.ident()?;
                Ok(Expr::Var(name))
            }
            Some(c) if c.is_ascii_uppercase() => {
                // Could be an extension application or a bare literal like
                // `true`? Booleans are lowercase, so uppercase = extension.
                let ext_name = self.ident()?;
                let ext = match ext_name.as_str() {
                    "LIST" => ExtensionId::List,
                    "BAG" => ExtensionId::Bag,
                    "SET" => ExtensionId::Set,
                    "TUPLE" => ExtensionId::Tuple,
                    "MMRANK" => ExtensionId::MmRank,
                    other => return Err(self.error(&format!("unknown extension {other}"))),
                };
                self.expect(b'.')?;
                let op = self.ident()?;
                self.expect(b'(')?;
                let args = self.nested(|p| {
                    let mut args = Vec::new();
                    if !p.eat(b')') {
                        loop {
                            args.push(p.expr()?);
                            if p.eat(b')') {
                                break;
                            }
                            p.expect(b',')?;
                        }
                    }
                    Ok(args)
                })?;
                Ok(Expr::Apply { ext, op, args })
            }
            _ => Ok(Expr::Const(self.value()?)),
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                self.bump();
                Ok(Value::List(self.nested(|p| p.value_seq(b']'))?))
            }
            Some(b'{') => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    let items = self.nested(Self::value_seq_until_bag)?;
                    Ok(Value::bag(items))
                } else {
                    Ok(Value::set(self.nested(|p| p.value_seq(b'}'))?))
                }
            }
            Some(b'(') => {
                self.bump();
                Ok(Value::Tuple(self.nested(|p| p.value_seq(b')'))?))
            }
            Some(b'"') => {
                self.bump();
                self.string().map(Value::Str)
            }
            Some(b't') | Some(b'f') => {
                let word = self.ident()?;
                match word.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    other => Err(self.error(&format!("unexpected word {other}"))),
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The rest of a string literal after its opening quote. Accepts every
    /// escape that `str`'s `Debug` form writes, which is how `Value::Str`
    /// displays.
    fn string(&mut self) -> Result<String> {
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = self.escape()?;
                    bytes.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(b) => bytes.push(b),
                None => return Err(self.error("unterminated string")),
            }
        }
        // The input is a `str` and quotes and backslashes are ASCII, so the
        // raw runs between them are whole UTF-8 sequences.
        Ok(String::from_utf8(bytes).expect("string literal is valid UTF-8"))
    }

    /// The character an escape stands for, read after its backslash.
    fn escape(&mut self) -> Result<char> {
        let c = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'0') => '\0',
            Some(b'u') if self.bump() == Some(b'{') => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                    self.pos += 1;
                }
                let hex = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii hex");
                match u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) {
                    Some(c) if self.bump() == Some(b'}') => c,
                    _ => return Err(self.error("bad unicode escape")),
                }
            }
            _ => return Err(self.error("bad escape")),
        };
        Ok(c)
    }

    fn value_seq(&mut self, close: u8) -> Result<Vec<Value>> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(self.value()?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn value_seq_until_bag(&mut self) -> Result<Vec<Value>> {
        // A bag closes with `|}`.
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'|') {
            self.bump();
            self.expect(b'}')?;
            return Ok(items);
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'|') => {
                    self.bump();
                    self.expect(b'}')?;
                    return Ok(items);
                }
                _ => return Err(self.error("expected ',' or '|}' in bag")),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii number");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error(&format!("bad float {text}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.error(&format!("bad integer {text}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let e = parse_expr(src).unwrap_or_else(|err| panic!("{src}: {err}"));
        assert_eq!(e.to_string(), src, "round-trip failed");
    }

    #[test]
    fn parses_papers_example() {
        let e = parse_expr("BAG.select(LIST.projecttobag([1, 2, 3, 4, 4, 5]), 2, 4)").unwrap();
        let expect = Expr::bag_select(
            Expr::projecttobag(Expr::constant(Value::int_list([1, 2, 3, 4, 4, 5]))),
            Value::Int(2),
            Value::Int(4),
        );
        assert_eq!(e, expect);
    }

    #[test]
    fn roundtrips_display_forms() {
        roundtrip("$x");
        roundtrip("LIST.select($l, 2, 4)");
        roundtrip("BAG.select(LIST.projecttobag($l), 2, 4)");
        roundtrip("MMRANK.topn(MMRANK.rank($q), 10)");
        roundtrip("[1, 2, 3]");
        roundtrip("{1, 2}");
        roundtrip("{|1, 1, 2|}");
        roundtrip("(1, false)");
        roundtrip("SET.member({1, 2}, 2)");
    }

    #[test]
    fn parses_literals() {
        assert_eq!(parse_expr("42").unwrap(), Expr::Const(Value::Int(42)));
        assert_eq!(parse_expr("-7").unwrap(), Expr::Const(Value::Int(-7)));
        assert_eq!(parse_expr("2.5").unwrap(), Expr::Const(Value::Float(2.5)));
        assert_eq!(parse_expr("true").unwrap(), Expr::Const(Value::Bool(true)));
        assert_eq!(
            parse_expr("\"hi\\n\"").unwrap(),
            Expr::Const(Value::Str("hi\n".into()))
        );
        assert_eq!(parse_expr("[]").unwrap(), Expr::Const(Value::List(vec![])));
        assert_eq!(parse_expr("{||}").unwrap(), Expr::Const(Value::bag(vec![])));
    }

    #[test]
    fn bag_literal_canonicalizes() {
        let e = parse_expr("{|3, 1, 2|}").unwrap();
        assert_eq!(
            e,
            Expr::Const(Value::bag(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]))
        );
    }

    #[test]
    fn nested_collections() {
        let e = parse_expr("[[1, 2], [3]]").unwrap();
        assert_eq!(
            e,
            Expr::Const(Value::List(vec![
                Value::int_list([1, 2]),
                Value::int_list([3]),
            ]))
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("LIST.").is_err());
        assert!(parse_expr("FOO.bar(1)").is_err());
        assert!(parse_expr("LIST.select(1, 2").is_err());
        assert!(parse_expr("[1, 2] trailing").is_err());
        assert!(parse_expr("{|1, 2}").is_err());
        assert!(parse_expr("\"unterminated").is_err());
        assert!(parse_expr("truthy").is_err());
        assert!(parse_expr("\"\\q\"").is_err());
        assert!(parse_expr("\"\\u{d800}\"").is_err());
        assert!(parse_expr("\"\\u{110000}\"").is_err());
        assert!(parse_expr("\"\\u{}\"").is_err());
        assert!(parse_expr("\"\\u{41\"").is_err());
    }

    #[test]
    fn string_literals_roundtrip_through_display() {
        for s in [
            "é", "日本", "a\tb", "\r", "\0", "\u{1b}", "\u{200b}", "'", "\"\\\n",
        ] {
            let e = Expr::Const(Value::Str(s.into()));
            let shown = e.to_string();
            let parsed = parse_expr(&shown).unwrap_or_else(|err| panic!("{shown}: {err}"));
            assert_eq!(parsed, e, "{shown}");
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error() {
        for depth in [1_000, 100_000] {
            assert!(parse_expr(&"[".repeat(depth)).is_err(), "depth {depth}");
        }
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_expr(&ok).is_ok());
    }

    #[test]
    fn parsed_expressions_execute() {
        use crate::exec::{evaluate, Env};
        use crate::ext::{ExecContext, Registry};
        let e = parse_expr("BAG.count(LIST.projecttobag([4, 5, 6]))").unwrap();
        let v = evaluate(
            &e,
            &Env::new(),
            &Registry::standard(),
            &mut ExecContext::new(),
        )
        .unwrap();
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn whitespace_is_insignificant() {
        let a = parse_expr("LIST.select( $l , 1 , 2 )").unwrap();
        let b = parse_expr("LIST.select($l,1,2)").unwrap();
        assert_eq!(a, b);
    }
}

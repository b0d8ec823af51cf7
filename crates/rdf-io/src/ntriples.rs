//! N-Triples 1.1 parser and serializer, written from scratch.
//!
//! Supports the grammar subset needed for evolving-RDF datasets:
//! IRIs (`<...>` with `\u`/`\U` escapes), blank node labels (`_:name`),
//! and literals (`"..."` with string escapes, optional `@lang` tag or
//! `^^<datatype>` suffix). Datatype and language tag are folded into the
//! literal's label text, matching the paper's model where a literal is
//! one opaque value.
//!
//! The parser is line-oriented and reports errors with line/column
//! positions; the serializer round-trips every graph the parser accepts.
//! No term spans a line, so each line is scanned in place: a term is a
//! byte range of the line, and its text is built into a reused buffer
//! only when it holds a `\` escape or a folded suffix.

use rdf_model::{
    LabelKind, NodeId, RdfError, RdfGraph, RdfGraphBuilder, SortedGraph, Term,
    Vocab,
};
use std::fmt;
use std::io::{BufRead, Read};

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
    /// 0-based byte offset from the start of the document.
    pub byte: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {} (byte {}): {}",
            self.line, self.column, self.byte, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Error from the streaming ([`BufRead`]) parsing entry points: either the
/// underlying reader failed or the document is malformed.
#[derive(Debug)]
pub enum ReadError {
    /// The reader returned an I/O error.
    Io(std::io::Error),
    /// The document failed to parse.
    Parse(ParseError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ParseError> for ReadError {
    fn from(e: ParseError) -> Self {
        ReadError::Parse(e)
    }
}

/// A single parsed line: subject, predicate, object terms.
type ParsedTriple = (Term, Term, Term);

/// Bytes [`parse_graph_reader`] reads per block. A line longer than one
/// block grows the buffer until its newline arrives.
const BLOCK: usize = 1 << 20;

/// A byte range of the current line, flagged when it holds a `\` escape
/// that must be decoded.
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    escaped: bool,
}

/// A literal's optional suffix, folded into its label text.
#[derive(Clone, Copy)]
enum Suffix {
    None,
    /// The tag's byte range, without the `@`.
    Lang(usize, usize),
    /// The datatype IRI, without the brackets.
    Datatype(Span),
}

/// A term as scanned: where its text lies in the line.
#[derive(Clone, Copy)]
enum Scanned {
    Uri(Span),
    Blank(usize, usize),
    Literal(Span, Suffix),
}

/// A term's text, borrowed from the line or from a scratch buffer.
#[derive(Clone, Copy)]
enum Tok<'a> {
    Uri(&'a str),
    Blank(&'a str),
    Literal(&'a str),
}

impl Scanned {
    /// The term's text: a slice of `line` when it needs no decoding, else
    /// built in `buf` (a `\` escape or a folded suffix).
    fn text<'a>(self, line: &'a str, buf: &'a mut String) -> Tok<'a> {
        match self {
            Scanned::Uri(s) if !s.escaped => Tok::Uri(&line[s.start..s.end]),
            Scanned::Uri(s) => {
                buf.clear();
                push_span(buf, line, s);
                Tok::Uri(buf)
            }
            Scanned::Blank(start, end) => Tok::Blank(&line[start..end]),
            Scanned::Literal(s, Suffix::None) if !s.escaped => {
                Tok::Literal(&line[s.start..s.end])
            }
            Scanned::Literal(s, suffix) => {
                buf.clear();
                push_span(buf, line, s);
                match suffix {
                    Suffix::None => {}
                    Suffix::Lang(start, end) => {
                        buf.push('@');
                        buf.push_str(&line[start..end]);
                    }
                    Suffix::Datatype(dt) => {
                        buf.push_str("^^");
                        push_span(buf, line, dt);
                    }
                }
                Tok::Literal(buf)
            }
        }
    }
}

impl<'a> Tok<'a> {
    /// The owned term [`parse_triples`] returns.
    fn to_term(self) -> Term {
        match self {
            Tok::Uri(u) => Term::uri(u),
            Tok::Blank(b) => Term::blank(b),
            Tok::Literal(l) => Term::literal(l),
        }
    }

    /// The term's label kind and text.
    fn parts(self) -> (LabelKind, &'a str) {
        match self {
            Tok::Uri(u) => (LabelKind::Uri, u),
            Tok::Blank(n) => (LabelKind::Blank, n),
            Tok::Literal(l) => (LabelKind::Literal, l),
        }
    }

    /// Intern the term as a node of `b`'s graph.
    fn node(self, b: &mut RdfGraphBuilder<'_>) -> NodeId {
        match self {
            Tok::Uri(u) => b.uri_node(u),
            Tok::Blank(n) => b.blank_node(n),
            Tok::Literal(l) => b.literal_node(l),
        }
    }
}

/// Append a span's text to `out`, decoding the escapes the scanner has
/// already validated.
fn push_span(out: &mut String, line: &str, s: Span) {
    let mut rest = &line[s.start..s.end];
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let hex = |len: usize| {
            u32::from_str_radix(&rest[i + 2..i + 2 + len], 16)
                .ok()
                .and_then(char::from_u32)
                .expect("escape validated by the scanner")
        };
        let (c, len) = match rest.as_bytes()[i + 1] {
            b't' => ('\t', 2),
            b'b' => ('\u{8}', 2),
            b'n' => ('\n', 2),
            b'r' => ('\r', 2),
            b'f' => ('\u{c}', 2),
            b'u' => (hex(4), 6),
            b'U' => (hex(8), 10),
            // `\"`, `\'` and `\\` stand for themselves.
            other => (other as char, 2),
        };
        out.push(c);
        rest = &rest[i + len..];
    }
    out.push_str(rest);
}

/// Whether `b` may appear unescaped inside `<...>`, one lookup per
/// byte: above 0x20 and none of `"{}`, nor the closing `>` or a `\`,
/// which the IRI scanner handles itself.
const IRI_PLAIN: [bool; 256] = {
    let mut plain = [false; 256];
    let mut b = 0x21;
    while b < 256 {
        plain[b] = !matches!(b as u8, b'"' | b'{' | b'}' | b'>' | b'\\');
        b += 1;
    }
    plain
};

struct Cursor<'a> {
    text: &'a [u8],
    pos: usize,
    line: usize,
    /// Byte offset of the start of this line within the document.
    base: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line: usize, base: usize) -> Self {
        Cursor {
            text: text.as_bytes(),
            pos: 0,
            line,
            base,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            column: self.pos + 1,
            byte: self.base + self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Advance past every byte for which `plain` holds.
    fn skip_while(&mut self, plain: impl Fn(u8) -> bool) {
        self.pos += self.text[self.pos..]
            .iter()
            .position(|&b| !plain(b))
            .unwrap_or(self.text.len() - self.pos);
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| b == b' ' || b == b'\t');
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(self.error(format!(
                "expected '{}', found '{}'",
                b as char, got as char
            ))),
            None => Err(self.error(format!(
                "expected '{}', found end of line",
                b as char
            ))),
        }
    }

    fn at_end_or_comment(&mut self) -> bool {
        self.skip_ws();
        matches!(self.peek(), None | Some(b'#'))
    }

    /// Scan `<IRI>` (after the opening `<` has been peeked).
    fn iri(&mut self) -> Result<Span, ParseError> {
        self.expect(b'<')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            self.skip_while(|b| IRI_PLAIN[usize::from(b)]);
            match self.bump() {
                Some(b'>') => {
                    return Ok(Span {
                        start,
                        end: self.pos - 1,
                        escaped,
                    })
                }
                Some(b'\\') => {
                    self.unicode_escape()?;
                    escaped = true;
                }
                Some(b) => {
                    return Err(
                        self.error(format!("invalid IRI character 0x{b:02x}"))
                    )
                }
                None => return Err(self.error("unterminated IRI")),
            }
        }
    }

    /// Check `\uXXXX` or `\UXXXXXXXX` (backslash already consumed).
    fn unicode_escape(&mut self) -> Result<(), ParseError> {
        let kind = self
            .bump()
            .ok_or_else(|| self.error("truncated escape"))?;
        let len = match kind {
            b'u' => 4,
            b'U' => 8,
            other => {
                return Err(self.error(format!(
                    "invalid IRI escape '\\{}'",
                    other as char
                )))
            }
        };
        self.hex_char(len)
    }

    /// Check `len` hex digits naming a Unicode scalar value.
    fn hex_char(&mut self, len: usize) -> Result<(), ParseError> {
        let mut v: u32 = 0;
        for _ in 0..len {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit"))?;
            v = v * 16 + d;
        }
        char::from_u32(v)
            .map(drop)
            .ok_or_else(|| self.error("invalid code point"))
    }

    /// Scan `_:label`; returns the label's byte range.
    fn blank(&mut self) -> Result<(usize, usize), ParseError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        self.skip_while(|b| {
            b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.'
        });
        if self.pos == start {
            return Err(self.error("empty blank node label"));
        }
        // A trailing '.' belongs to the statement terminator.
        while self.pos > start && self.text[self.pos - 1] == b'.' {
            self.pos -= 1;
        }
        if self.pos == start {
            return Err(self.error("empty blank node label"));
        }
        Ok((start, self.pos))
    }

    /// Scan a quoted literal with optional `@lang` / `^^<dt>` suffix.
    fn literal(&mut self) -> Result<Scanned, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            self.skip_while(|b| b != b'"' && b != b'\\');
            match self.bump() {
                Some(b'"') => break,
                // The only other byte `skip_while` stops at is `\`.
                Some(_) => {
                    let b = self
                        .bump()
                        .ok_or_else(|| self.error("truncated escape"))?;
                    match b {
                        b't' | b'b' | b'n' | b'r' | b'f' | b'"' | b'\''
                        | b'\\' => {}
                        b'u' => self.hex_char(4)?,
                        b'U' => self.hex_char(8)?,
                        other => {
                            return Err(self.error(format!(
                                "invalid string escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                    escaped = true;
                }
                None => return Err(self.error("unterminated literal")),
            }
        }
        let value = Span {
            start,
            end: self.pos - 1,
            escaped,
        };
        // Optional language tag or datatype.
        let suffix = match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let tag = self.pos;
                self.skip_while(|b| b.is_ascii_alphanumeric() || b == b'-');
                if self.pos == tag {
                    return Err(self.error("empty language tag"));
                }
                Suffix::Lang(tag, self.pos)
            }
            Some(b'^') => {
                self.expect(b'^')?;
                self.expect(b'^')?;
                Suffix::Datatype(self.iri()?)
            }
            _ => Suffix::None,
        };
        Ok(Scanned::Literal(value, suffix))
    }

    /// Scan a subject/predicate/object term.
    fn term(&mut self) -> Result<Scanned, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => Ok(Scanned::Uri(self.iri()?)),
            Some(b'_') => {
                let (start, end) = self.blank()?;
                Ok(Scanned::Blank(start, end))
            }
            Some(b'"') => self.literal(),
            Some(b) => Err(self.error(format!(
                "expected term, found '{}'",
                b as char
            ))),
            None => Err(self.error("expected term, found end of line")),
        }
    }

    fn triple(&mut self) -> Result<[Scanned; 3], ParseError> {
        let s = self.term()?;
        let p = self.term()?;
        let o = self.term()?;
        self.skip_ws();
        self.expect(b'.')?;
        if !self.at_end_or_comment() {
            return Err(self.error("trailing content after '.'"));
        }
        Ok([s, p, o])
    }
}

/// Strip one trailing `\n` or `\r\n` from a line.
fn trim_newline(line: &str) -> &str {
    line.strip_suffix('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .unwrap_or(line)
}

/// The one line scanner behind every parsing entry point. It counts lines
/// and bytes across the chunks it is fed, and keeps one reused text
/// buffer per triple position.
#[derive(Default)]
struct Lines {
    /// Lines scanned so far.
    line: usize,
    /// Byte offset of the next line within the document.
    base: usize,
    scratch: [String; 3],
}

impl Lines {
    /// Scan every line of `text`: whole lines, the last one possibly
    /// without its newline. Each triple goes to `sink` with its 1-based
    /// line number and the byte offset of the line's start.
    fn scan(
        &mut self,
        text: &str,
        mut sink: impl FnMut(
            [Tok<'_>; 3],
            usize,
            usize,
        ) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        for raw in text.split_inclusive('\n') {
            self.line += 1;
            let line = trim_newline(raw);
            let mut cur = Cursor::new(line, self.line, self.base);
            if !cur.at_end_or_comment() {
                let [s, p, o] = cur.triple()?;
                let [sb, pb, ob] = &mut self.scratch;
                let terms =
                    [s.text(line, sb), p.text(line, pb), o.text(line, ob)];
                sink(terms, self.line, self.base)?;
            }
            self.base += raw.len();
        }
        Ok(())
    }

    /// [`Lines::scan`] over raw bytes, validating UTF-8 once for the
    /// whole chunk. An invalid byte is reported at its own line, column
    /// and byte, after the lines before it have been scanned, so errors
    /// still surface in document order.
    fn scan_bytes(
        &mut self,
        bytes: &[u8],
        mut sink: impl FnMut(
            [Tok<'_>; 3],
            usize,
            usize,
        ) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        let bad = match std::str::from_utf8(bytes) {
            Ok(text) => return self.scan(text, sink),
            Err(e) => e.valid_up_to(),
        };
        let valid = std::str::from_utf8(&bytes[..bad])
            .expect("valid_up_to bounds a valid prefix");
        let start = valid.rfind('\n').map_or(0, |i| i + 1);
        self.scan(&valid[..start], &mut sink)?;
        Err(ParseError {
            line: self.line + 1,
            column: bad - start + 1,
            byte: self.base + bad - start,
            message: format!("invalid UTF-8 byte 0x{:02x}", bytes[bad]),
        })
    }
}

/// Parse an N-Triples document into terms.
pub fn parse_triples(input: &str) -> Result<Vec<ParsedTriple>, ParseError> {
    let mut out = Vec::new();
    Lines::default().scan(input, |[s, p, o], _, _| {
        out.push((s.to_term(), p.to_term(), o.to_term()));
        Ok(())
    })?;
    Ok(out)
}

/// Interns scanned triples into a graph.
struct GraphSink<'v> {
    b: RdfGraphBuilder<'v>,
    /// The previous triple's subject kind and node, and its text in
    /// `last_text`. Dumps list a subject's triples together, so a
    /// repeated subject reuses the node without hashing its text again.
    last_subject: Option<(LabelKind, NodeId)>,
    last_text: String,
}

impl<'v> GraphSink<'v> {
    fn new(vocab: &'v mut Vocab) -> Self {
        GraphSink {
            b: RdfGraphBuilder::new(vocab),
            last_subject: None,
            last_text: String::new(),
        }
    }

    /// Intern one scanned triple. The RDF conventions (no literal
    /// subject, no blank or literal predicate) are checked before
    /// anything is interned, so a rejected line leaves no orphan nodes;
    /// the error names the line's first column.
    fn add(
        &mut self,
        [s, p, o]: [Tok<'_>; 3],
        line: usize,
        base: usize,
    ) -> Result<(), ParseError> {
        let located = |e: RdfError| ParseError {
            line,
            column: 1,
            byte: base,
            message: e.to_string(),
        };
        match (s, p) {
            (Tok::Literal(l), _) => {
                return Err(located(RdfError::LiteralSubject(l.to_owned())))
            }
            (_, Tok::Literal(l)) => {
                return Err(located(RdfError::LiteralPredicate(l.to_owned())))
            }
            (_, Tok::Blank(n)) => {
                return Err(located(RdfError::BlankPredicate(n.to_owned())))
            }
            _ => {}
        }
        let s = self.subject(s);
        let (p, o) = (p.node(&mut self.b), o.node(&mut self.b));
        self.b.add_triple_ids(s, p, o).map_err(located)
    }

    /// The subject's node, reused when the previous triple had the same
    /// subject.
    fn subject(&mut self, s: Tok<'_>) -> NodeId {
        let (kind, text) = s.parts();
        match self.last_subject {
            Some((k, n)) if k == kind && self.last_text == text => n,
            _ => {
                let n = s.node(&mut self.b);
                self.last_subject = Some((kind, n));
                self.last_text.clear();
                self.last_text.push_str(text);
                n
            }
        }
    }
}

/// Parse N-Triples from any buffered reader, interning into the supplied
/// vocabulary — the streaming ingest path.
///
/// The input is read in fixed blocks, each cut after its last newline,
/// UTF-8-validated once and scanned in place; the partial last line
/// carries over to the next block. One block is resident at a time, so
/// arbitrarily large documents never materialise as a single `String`.
/// Errors carry the real line/column/byte position, including invalid
/// UTF-8 and RDF-convention violations (literal subject, blank or
/// literal predicate).
pub fn parse_graph_reader<R: BufRead>(
    reader: R,
    vocab: &mut Vocab,
) -> Result<RdfGraph, ReadError> {
    parse_sorted_reader(reader, vocab).map(SortedGraph::into_graph)
}

/// [`parse_graph_reader`] without the CSR layout: the parsed graph's
/// node labels, its sorted triples and its blank names
/// ([`rdf_model::RdfGraphBuilder::finish_sorted`]) — what `rdf import`
/// writes a store from.
pub fn parse_sorted_reader<R: BufRead>(
    mut reader: R,
    vocab: &mut Vocab,
) -> Result<SortedGraph, ReadError> {
    let mut sink = GraphSink::new(vocab);
    let mut lines = Lines::default();
    let mut buf: Vec<u8> = Vec::with_capacity(BLOCK);
    loop {
        let carried = buf.len();
        let n = reader.by_ref().take(BLOCK as u64).read_to_end(&mut buf)?;
        let eof = n < BLOCK;
        // Cut after the last newline; at end of input the rest is the
        // last line. A block with no newline extends the carried line.
        let cut = match buf[carried..].iter().rposition(|&c| c == b'\n') {
            _ if eof => buf.len(),
            Some(i) => carried + i + 1,
            None => continue,
        };
        lines.scan_bytes(&buf[..cut], |t, line, base| sink.add(t, line, base))?;
        if eof {
            break;
        }
        buf.drain(..cut);
    }
    Ok(sink.b.finish_sorted())
}

/// Parse an N-Triples document directly into an [`RdfGraph`], interning
/// into the supplied vocabulary. Runs the same line scanner as
/// [`parse_graph_reader`], over the text in place.
pub fn parse_graph(
    input: &str,
    vocab: &mut Vocab,
) -> Result<RdfGraph, ParseError> {
    let mut sink = GraphSink::new(vocab);
    Lines::default().scan(input, |t, line, base| sink.add(t, line, base))?;
    Ok(sink.b.finish())
}

/// Escape a string for inclusion in an IRI or literal.
fn escape_into(out: &mut String, s: &str, iri: bool) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' if !iri => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if iri && (c <= ' ' || c == '<' || c == '>' || c == '"') => {
                out.push_str(&format!("\\u{:04X}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serialize a graph to canonical N-Triples: one statement per line,
/// lines sorted lexicographically. Blank nodes use their recorded local
/// names when available, otherwise `_:bN` from the node id.
///
/// Sorting makes the output independent of node-id assignment, so
/// `write_graph(parse_graph(text)) == text` for any `text` this function
/// produced — a byte-level fixed point, not just a structural one.
pub fn write_graph(graph: &RdfGraph, vocab: &Vocab) -> String {
    let g = graph.graph();
    let mut lines: Vec<String> = Vec::with_capacity(g.triple_count());
    for t in g.triples() {
        let mut out = String::with_capacity(64);
        for (i, n) in [t.s, t.p, t.o].into_iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match vocab.resolve(g.label(n)) {
                rdf_model::LabelRef::Uri(u) => {
                    out.push('<');
                    escape_into(&mut out, u, true);
                    out.push('>');
                }
                rdf_model::LabelRef::Literal(l) => {
                    // Split off a folded @lang / ^^<dt> suffix if present.
                    write_literal(&mut out, l);
                }
                rdf_model::LabelRef::Blank => {
                    out.push_str("_:");
                    match graph.blank_name(n) {
                        Some(name) => out.push_str(name),
                        None => out.push_str(&format!("b{}", n.0)),
                    }
                }
            }
        }
        out.push_str(" .\n");
        lines.push(out);
    }
    lines.sort_unstable();
    lines.concat()
}

/// Write a literal label, re-expanding folded `@lang` / `^^dt` suffixes.
fn write_literal(out: &mut String, label: &str) {
    // Find a fold point: the label was built as value + ("@lang" | "^^" + dt).
    // Serialise the value quoted; suffixes as-is (datatype re-bracketed).
    if let Some(idx) = label.rfind("^^") {
        let (value, dt) = label.split_at(idx);
        out.push('"');
        escape_into(out, value, false);
        out.push('"');
        out.push_str("^^<");
        escape_into(out, &dt[2..], true);
        out.push('>');
        return;
    }
    if let Some(idx) = label.rfind('@') {
        let (value, tag) = label.split_at(idx);
        let tag_ok = tag.len() > 1
            && tag[1..].chars().all(|c| c.is_ascii_alphanumeric() || c == '-');
        if tag_ok && !value.is_empty() {
            out.push('"');
            escape_into(out, value, false);
            out.push('"');
            out.push_str(tag);
            return;
        }
    }
    out.push('"');
    escape_into(out, label, false);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_triples() {
        let doc = "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n\
                   <http://e.org/s> <http://e.org/q> \"hello\" .\n";
        let ts = parse_triples(doc).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].0, Term::uri("http://e.org/s"));
        assert_eq!(ts[1].2, Term::literal("hello"));
    }

    #[test]
    fn comments_and_blank_lines() {
        let doc = "# a comment\n\n<u:s> <u:p> _:b1 . # trailing\n";
        let ts = parse_triples(doc).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].2, Term::blank("b1"));
    }

    #[test]
    fn string_escapes() {
        let doc = r#"<u:s> <u:p> "line\nbreak \"quoted\" tab\t\\" ."#;
        let ts = parse_triples(doc).unwrap();
        assert_eq!(
            ts[0].2,
            Term::literal("line\nbreak \"quoted\" tab\t\\")
        );
    }

    #[test]
    fn unicode_escapes() {
        let doc = "<u:s> <u:p> \"caf\\u00E9 \\U0001F600\" .";
        let ts = parse_triples(doc).unwrap();
        assert_eq!(ts[0].2, Term::literal("café 😀"));
    }

    #[test]
    fn language_tags_and_datatypes() {
        let doc = "<u:s> <u:p> \"chat\"@fr .\n\
                   <u:s> <u:q> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .";
        let ts = parse_triples(doc).unwrap();
        assert_eq!(ts[0].2, Term::literal("chat@fr"));
        assert_eq!(
            ts[1].2,
            Term::literal("42^^http://www.w3.org/2001/XMLSchema#int")
        );
    }

    #[test]
    fn error_positions() {
        let err = parse_triples("<u:s> <u:p> .").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected term"));
        let err = parse_triples("<u:s> <u:p> \"x\"").unwrap_err();
        assert!(err.message.contains("expected '.'"));
        let err =
            parse_triples("ok <u:p> <u:o> .").unwrap_err();
        assert!(err.message.contains("expected term"));
    }

    #[test]
    fn literal_subject_rejected_via_graph() {
        let mut v = Vocab::new();
        let err = parse_graph("\"lit\" <u:p> <u:o> .", &mut v).unwrap_err();
        assert!(err.message.contains("subject"));
    }

    #[test]
    fn round_trip() {
        let mut v = Vocab::new();
        let doc = "<u:s> <u:p> \"a b c\" .\n\
                   <u:s> <u:q> _:rec .\n\
                   _:rec <u:zip> \"EH8 9\\\"AB\\\"\" .\n\
                   _:rec <u:city> \"Edinburgh\"@en .\n";
        let g = parse_graph(doc, &mut v).unwrap();
        let written = write_graph(&g, &v);
        let mut v2 = Vocab::new();
        let g2 = parse_graph(&written, &mut v2).unwrap();
        assert_eq!(g.triple_count(), g2.triple_count());
        assert_eq!(g.node_count(), g2.node_count());
        // Second round trip is byte-identical (canonical order).
        let written2 = write_graph(&g2, &v2);
        assert_eq!(written, written2);
    }

    #[test]
    fn repeated_subject_text_of_another_kind_is_another_node() {
        // The sink reuses the previous subject's node only for the same
        // kind and text: `_:x` and `<x>` are two nodes.
        let mut v = Vocab::new();
        let doc = "_:x <u:p> <u:o> .\n<x> <u:p> <u:o> .\n<x> <u:q> _:x .\n";
        let g = parse_graph(doc, &mut v).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.triple_count(), 3);
    }

    #[test]
    fn blank_node_dot_disambiguation() {
        // `_:b1.` — the dot is the statement terminator, not part of the
        // label.
        let ts = parse_triples("<u:s> <u:p> _:b1.").unwrap();
        assert_eq!(ts[0].2, Term::blank("b1"));
    }

    #[test]
    fn iri_escapes_round_trip() {
        let mut v = Vocab::new();
        let g = {
            let mut b = rdf_model::RdfGraphBuilder::new(&mut v);
            b.uuu("http://e.org/space here", "u:p", "u:o");
            b.finish()
        };
        let written = write_graph(&g, &v);
        assert!(written.contains("\\u0020"));
        let mut v2 = Vocab::new();
        let g2 = parse_graph(&written, &mut v2).unwrap();
        assert_eq!(g2.triple_count(), 1);
        assert!(v2.find_uri("http://e.org/space here").is_some());
    }
}

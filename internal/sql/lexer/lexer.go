// Package lexer tokenizes the SQL dialect used by IronSafe: the subset of
// SQL-92 needed by the TPC-H workload plus IronSafe's policy-managed DDL/DML.
package lexer

import (
	"fmt"
	"strings"
)

// TokenKind classifies a token.
type TokenKind int

// Token kinds.
const (
	EOF TokenKind = iota
	Ident
	Keyword
	Number
	String
	Symbol // operators and punctuation
)

// Token is one lexical unit.
type Token struct {
	Kind TokenKind
	// Text is the raw text; keywords are upper-cased, identifiers keep
	// their original case, strings are unquoted.
	Text string
	Pos  int // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "<eof>"
	case String:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords recognized by the dialect. Anything else alphabetic is an Ident.
var keywords = map[string]bool{}

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
		"LIMIT", "AS", "AND", "OR", "NOT", "IN", "EXISTS", "BETWEEN",
		"LIKE", "IS", "NULL", "ASC", "DESC", "JOIN", "LEFT", "RIGHT",
		"INNER", "OUTER", "ON", "CASE", "WHEN", "THEN", "ELSE", "END",
		"DATE", "INTERVAL", "DAY", "MONTH", "YEAR", "EXTRACT", "DISTINCT",
		"CREATE", "TABLE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
		"DELETE", "INTEGER", "BIGINT", "DOUBLE", "DECIMAL", "VARCHAR",
		"CHAR", "TEXT", "BOOLEAN", "TRUE", "FALSE", "COUNT", "SUM", "AVG",
		"MIN", "MAX", "SUBSTRING", "FOR", "PRIMARY", "KEY", "ALL", "ANY",
		"UNION", "DROP", "IF",
	} {
		keywords[k] = true
	}
}

// Lex tokenizes input, returning the token stream or an error with position
// information.
func Lex(input string) ([]Token, error) {
	sc := NewScanner(input)
	var toks []Token
	for {
		t, err := sc.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// Scanner tokenizes an input one token at a time, so a reader that stops
// early — a parser refusing a statement — has lexed no further than it read.
type Scanner struct {
	input string
	i     int // offset of the next unread byte
}

// NewScanner returns a Scanner at the start of input.
func NewScanner(input string) Scanner { return Scanner{input: input} }

// Next returns the next token, or an error with position information. At the
// end of the input it returns EOF, on every call.
func (s *Scanner) Next() (Token, error) {
	input, n := s.input, len(s.input)
	for s.i < n {
		start := s.i
		c := input[start]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.i++
		case c == '-' && start+1 < n && input[start+1] == '-':
			// Line comment.
			for s.i < n && input[s.i] != '\n' {
				s.i++
			}
		case isDigit(c) || (c == '.' && start+1 < n && isDigit(input[start+1])):
			seenDot := false
			for s.i < n && (isDigit(input[s.i]) || (input[s.i] == '.' && !seenDot)) {
				if input[s.i] == '.' {
					seenDot = true
				}
				s.i++
			}
			return Token{Kind: Number, Text: input[start:s.i], Pos: start}, nil
		case c == '\'':
			s.i++
			var sb strings.Builder
			for s.i < n {
				if input[s.i] == '\'' {
					if s.i+1 < n && input[s.i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						s.i += 2
						continue
					}
					s.i++
					return Token{Kind: String, Text: sb.String(), Pos: start}, nil
				}
				sb.WriteByte(input[s.i])
				s.i++
			}
			return Token{}, fmt.Errorf("lexer: unterminated string at offset %d", start)
		case isIdentStart(c):
			for s.i < n && isIdentPart(input[s.i]) {
				s.i++
			}
			word := input[start:s.i]
			if upper := strings.ToUpper(word); keywords[upper] {
				return Token{Kind: Keyword, Text: upper, Pos: start}, nil
			}
			return Token{Kind: Ident, Text: word, Pos: start}, nil
		default:
			// Multi-byte symbols first.
			for _, sym := range []string{"<>", "<=", ">=", "!=", "||"} {
				if strings.HasPrefix(input[start:], sym) {
					s.i += len(sym)
					return Token{Kind: Symbol, Text: sym, Pos: start}, nil
				}
			}
			if strings.ContainsRune("+-*/(),.<>=;%", rune(c)) {
				s.i++
				return Token{Kind: Symbol, Text: string(c), Pos: start}, nil
			}
			return Token{}, fmt.Errorf("lexer: unexpected character %q at offset %d", c, start)
		}
	}
	return Token{Kind: EOF, Pos: n}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Identifiers are ASCII, so a name the parser upper-cases prints as it read.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == '$' || isDigit(c)
}
